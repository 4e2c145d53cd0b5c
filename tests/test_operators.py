import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft
import yaml

import stefansim
from stefansim import Grid, SpectralOperator, apply_A, semigroup, K_A, state_norm
from stefansim.errors import GridMismatch
from stefansim.experiments.sampling import rough_state
from stefansim.grids import diff2, padded
from stefansim.operators import apply_factors, semigroup_factors
from oracles import smoothing_check


@pytest.fixture
def op(grid):
    return SpectralOperator(grid, 1.0, 1.0)


def _mode(grid, k):
    return np.sin(k * np.pi * grid.nodes / grid.L)


def row(u1, u2, p):
    return np.concatenate((u1, u2, [p]))


def zero(grid, p=0.0):
    return row(np.zeros(grid.M), np.zeros(grid.M), p)


def test_eigenvalues_negative_sorted(op):
    assert np.all(op.eigenvalues_plus < 0)
    assert np.all(np.diff(op.eigenvalues_plus) < 0)


def test_apply_A_zero_and_scalar(op, grid):
    out = apply_A(op, zero(grid))
    assert state_norm(grid, out, "L2") == 0.0
    assert apply_A(op, zero(grid, 1.0))[-1] == -1.0


def test_apply_A_eigenrelation(op, grid):
    phi = _mode(grid, 1)
    out = apply_A(op, row(phi, np.zeros(grid.M), 0.0))
    expected = op.eigenvalues_plus[0] * phi
    assert np.max(np.abs(out[: grid.M] - expected)) / np.max(np.abs(expected)) < 1e-12


def test_apply_A_grid_mismatch(op):
    # a row of another grid's length
    with pytest.raises(GridMismatch):
        apply_A(op, zero(Grid(1.0, 63)))


def test_semigroup_identity_at_zero(op, grid):
    rng = np.random.default_rng(0)
    X = row(rng.standard_normal(grid.M), rng.standard_normal(grid.M), 1.3)
    Y = semigroup(op, 0.0, X)
    assert np.max(np.abs(Y[: grid.M] - X[: grid.M])) < 1e-14
    assert Y[-1] == X[-1]


def test_semigroup_eigen_decay(op, grid):
    phi = _mode(grid, 1)
    X = row(phi, np.zeros(grid.M), 0.0)
    t = 0.1
    Y = semigroup(op, t, X)
    factor = math.exp(t * op.eigenvalues_plus[0])
    assert np.max(np.abs(Y[: grid.M] - factor * phi)) < 1e-12
    assert np.max(np.abs(Y[grid.M : 2 * grid.M])) == 0.0


def test_semigroup_contraction(op, grid):
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = row(rng.standard_normal(grid.M), rng.standard_normal(grid.M), float(rng.standard_normal()))
        t = float(rng.uniform(0.0, 2.0))
        assert state_norm(grid, semigroup(op, t, X), "L2") <= state_norm(grid, X, "L2") * (1 + 1e-14)
        # negative type: decay is at least e^{-t}
        assert state_norm(grid, semigroup(op, t, X), "L2") <= math.exp(-t) * state_norm(grid, X, "L2") * (1 + 1e-12)


def test_semigroup_property(op, grid):
    rng = np.random.default_rng(2)
    X = row(rng.standard_normal(grid.M), rng.standard_normal(grid.M), 0.4)
    a = semigroup(op, 0.3, semigroup(op, 0.2, X))
    b = semigroup(op, 0.5, X)
    assert state_norm(grid, a - b, "L2") < 1e-12 * state_norm(grid, b, "L2")


def test_semigroup_rejects_negative_time(op, grid):
    with pytest.raises(ValueError):
        semigroup(op, -0.1, zero(grid))


def test_semigroup_grid_mismatch(op):
    for t in (0.0, 0.1):
        with pytest.raises(GridMismatch):
            semigroup(op, t, zero(Grid(1.0, 63)))


def test_K_A_scalar_direction_and_regression(grid):
    # eta = 1: the scalar slot attains the supremum, value exactly 1
    assert K_A(SpectralOperator(grid, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-14)
    # frozen regression value for an asymmetric pair
    assert K_A(SpectralOperator(grid, 0.3, 2.0)) == pytest.approx(3.3331637784812576, rel=1e-10)


def test_K_A_swap_symmetry(grid):
    a = K_A(SpectralOperator(grid, 0.5, 1.7))
    b = K_A(SpectralOperator(grid, 1.7, 0.5))
    assert a == pytest.approx(b, rel=1e-13)


def test_smoothing_check(op, grid):
    phi = _mode(grid, 3)
    X = row(phi, np.zeros(grid.M), 0.0)
    worst = 0.0
    for t in np.geomspace(1e-4, 1.0, 9):
        lhs, rhs = smoothing_check(op, float(t), X, 1.0, 0.0)
        worst = max(worst, lhs / rhs)
    assert math.isfinite(worst) and worst > 0
    # beta = alpha: plain contraction
    lhs, rhs = smoothing_check(op, 0.5, X, 1.0, 1.0)
    assert lhs <= rhs * (1 + 1e-14)


def test_generator_consistency(op, grid):
    k = np.arange(1, grid.M + 1)
    rng = np.random.default_rng(4)
    from scipy.fft import dst

    coeffs = rng.standard_normal(grid.M) * k**-4.0
    f = dst(coeffs, type=1) / (2.0 * (grid.M + 1))
    X = row(f, np.zeros(grid.M), 0.7)
    AX = apply_A(op, X)
    errs = []
    for eps in (1e-3, 5e-4):
        diff = (1.0 / eps) * (semigroup(op, eps, X) - X)
        errs.append(state_norm(grid, diff - AX, "L2"))
    assert errs[1] < 0.7 * errs[0]


@pytest.mark.parametrize("M", [63, 127, 255, 1023])
def test_apply_factors_matches_scipy_fft(M):
    # operators calls pocketfft's DST-I binding directly; the golden outputs
    # rest on it giving the bits of scipy.fft.dst, both on the contiguous rows
    # the solver steps and on the strided interior view semigroup passes
    rng = np.random.default_rng(M)
    F = rng.random((2, M))
    Y = rng.standard_normal((2, M))
    ref = scipy.fft.dst(F * scipy.fft.dst(Y, type=1), type=1)
    U = np.pad(Y, ((0, 0), (1, 1)))
    for rows in (Y.copy(), U[:, 1:-1]):
        out, _ = apply_factors(F, rows, np.ones(M))
        assert np.array_equal(out, ref)
        assert np.array_equal(rows, ref)  # in place
    assert not U[:, [0, -1]].any()


@pytest.mark.parametrize("M", [63, 127, 255])
def test_apply_factors_modal_sum_is_h2_part(M):
    # Parseval for DST-I: the modal sum apply_factors returns is the L2 plus
    # second-difference part of sq_norm of the rows it returns
    grid = Grid(2.0, M)
    op = SpectralOperator(grid, 1.0, 0.5)
    rng = np.random.default_rng(M)
    for t in (0.0, 1e-3, 0.1):
        F, _ = semigroup_factors(op, t)
        for _ in range(5):
            U = padded(grid, rough_state(rng, grid))
            Y, s = apply_factors(F, U[:, 1:-1], op.h2_weights)
            D = diff2(U, grid.h)
            assert s == pytest.approx(np.vdot(Y, Y) + np.vdot(D, D), rel=1e-13, abs=0)


def _run_python(code: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter in the repository root, with this stefansim on its path."""
    src = os.path.dirname(os.path.dirname(stefansim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    root = os.path.join(os.path.dirname(__file__), "..")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_run_imports_only_what_its_mode_calls():
    # operators loads pocketfft from its file and config evaluates erfcx with
    # the standard library, so no mode runs scipy.fft's package init or
    # imports any part of scipy.special, the Stefan run included
    out = _run_python(
        "import sys, tempfile\n"
        "from stefansim.experiments import load_config, resolve, run_stefan_oracle\n"
        "def loaded():\n"
        "    return ' '.join(str(any(m == p or m.startswith(p + '.') for m in sys.modules))\n"
        "                    for p in ('scipy.fft', 'scipy.special'))\n"
        "load_config('configs/example.yaml')\n"
        "print(loaded())\n"
        "raw = load_config('configs/stefan.yaml').raw\n"
        "print(loaded())\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    run_stefan_oracle(resolve(dict(raw, solve=dict(raw['solve'], T=0.01), outputs=out)))\n"
        "print(loaded())\n"
    )
    assert out.split("\n")[:3] == ["False False", "False False", "False False"]


def test_run_loads_pool_yaml_and_battery_only_when_called():
    # the worker pool, the YAML parser and the lemma battery are imported by
    # the call that needs them, so a serial run of a config mapping loads none
    configs = {}
    for name in ("example", "stefan"):
        with open(os.path.join(os.path.dirname(__file__), "..", "configs", name + ".yaml")) as fh:
            configs[name] = json.dumps(yaml.safe_load(fh))
    out = _run_python(
        "import json, sys, tempfile\n"
        "from stefansim.experiments import load_config, resolve, run_converge, run_lemma_suite, run_simulate, run_stefan_oracle\n"
        "def loaded(*names):\n"
        "    return ' '.join(str(m in sys.modules) for m in names)\n"
        "deferred = ('yaml', 'multiprocessing', 'concurrent.futures.process',\n"
        "            'stefansim.experiments.lemma_suite', 'stefansim.experiments.sampling')\n"
        f"example, stefan = json.loads({configs['example']!r}), json.loads({configs['stefan']!r})\n"
        "short = dict(example['solve'], T=0.02)\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    run_stefan_oracle(resolve(dict(stefan, solve=dict(stefan['solve'], T=0.01), outputs=out)))\n"
        "    print(loaded(*deferred))\n"
        "    run_simulate(resolve(dict(example, mode='simulate', seeds=[0, 1], solve=short, outputs=out)))\n"
        "    print(loaded(*deferred))\n"
        "    run_converge(resolve(dict(example, mode='converge', seeds=[0, 1], solve=short, outputs=out)))\n"
        "    print(loaded(*deferred))\n"
        "    run_lemma_suite(resolve(dict(example, mode='lemma-suite', lemma_samples=1, outputs=out)))\n"
        "    print(loaded('stefansim.experiments.lemma_suite', 'multiprocessing', 'yaml'))\n"
        "    run_converge(resolve(dict(example, mode='converge', seeds=[0, 1], solve=short, outputs=out, jobs=2)))\n"
        "    print(loaded('concurrent.futures.process', 'multiprocessing', 'yaml'))\n"
        "load_config('configs/example.yaml')\n"
        "print(loaded('yaml'))\n"
    )
    none = "False False False False False"
    assert out.split("\n")[:6] == [none, none, none, "True False False", "True True False", "True"]


def test_dst_matches_scipy_fft_imported_after():
    # scipy.fft imported after stefansim loads its own copy of the extension;
    # both give the same bits
    out = _run_python(
        "import numpy as np\n"
        "from stefansim import operators\n"
        "import scipy.fft\n"
        "assert scipy.fft._pocketfft.pypocketfft is not operators.pypocketfft\n"
        "for M in (63, 255):\n"
        "    x = np.random.default_rng(M).standard_normal((2, M))\n"
        "    print(M, np.array_equal(operators.dst(x), scipy.fft.dst(x, type=1)))\n"
    )
    assert out.split("\n")[:2] == ["63 True", "255 True"]


def test_load_extension_names_the_directory_searched(tmp_path):
    # no fallback: a missing extension file is an ImportError naming where it was looked for
    from stefansim.operators import _load_extension

    with pytest.raises(ImportError, match=str(tmp_path)):
        _load_extension("pypocketfft", str(tmp_path))

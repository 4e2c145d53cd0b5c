import dataclasses
import math
import warnings
from itertools import islice

import numpy as np
import pytest

from stefansim import AmbientGrid, Grid, Kernel, NoiseStream, SolveConfig, SpectralOperator, gaussian_kernel, step
from stefansim.coefficients import sigma_affine
from stefansim.errors import BoundaryLeftWindow
from stefansim.noise import _CHUNK, _gaussian_factors, color_at, color_field, coloring

from conftest import make_model
from oracles import seed_sequence_increment


@pytest.fixture
def kernel(ambient):
    return gaussian_kernel(0.5, ambient)


def test_ambient_validation():
    with pytest.raises(ValueError):
        AmbientGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        AmbientGrid(1.0, 1.0, 10)
    a = AmbientGrid(-1.0, 1.0, 41)
    assert a.dy == pytest.approx(0.05)
    assert a.covers(0.0, 0.9)
    assert not a.covers(0.5, 0.9)


def test_increment_rejects_zero_dt(ambient):
    with pytest.raises(ValueError):
        NoiseStream(seed=0).increment(0, 0.0, ambient)


# seeds of one word (0, 1, 2^32 - 1), two (2^32, 2^63), three, four (no
# padding) and five (a word past the pool)
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 + 7, 2**96 + 5, 2**128 + 1])
def test_block_has_the_bits_of_seed_sequence(seed, ambient):
    # numpy's Generator.normal is outside NEP 19's stability promise, so the
    # reference is drawn by the installed numpy every time
    stream, dt = NoiseStream(seed), 1e-3
    # the first steps, both sides of 2^16, one block across 2^32 (where the
    # step index gains a word), one row, and more rows than a solve chunk
    for k0, K in ((0, 3), (2**16 - 2, 4), (2**32 - 2, 4), (12345, 1), (0, _CHUNK + 3)):
        block = stream.block(k0, K, dt, ambient)
        assert block.shape == (K, ambient.J) and not block.flags.writeable
        for i in range(K):
            assert np.array_equal(block[i], seed_sequence_increment(seed, k0 + i, dt, ambient)), (k0, i)
        assert np.array_equal(stream.increment(k0, dt, ambient), block[0])


def test_increments_replay_each_block_once(ambient, monkeypatch):
    # horizons at, just below and just above the ends of the blocks of 32, 64,
    # 128 and _CHUNK steps: each row has the bits of numpy's draw for its
    # step, each step is drawn once, and every later pass over the stream,
    # whole, cut short or to an earlier block end, replays without drawing
    calls = []
    block = NoiseStream.block

    def counted(self, k0, K, dt, amb):
        calls.append(K)
        return block(self, k0, K, dt, amb)

    monkeypatch.setattr(NoiseStream, "block", counted)
    seed, dt = 5, 1e-3
    for num_steps in (1, 31, 32, 33, 96, 97, 224, 225, 480, 600):
        stream = NoiseStream(seed)
        calls.clear()
        rows = list(stream.increments(num_steps, dt, ambient))
        assert len(rows) == num_steps and sum(calls) == num_steps
        for k, dW in enumerate(rows):
            assert dW.shape == (ambient.J,) and not dW.flags.writeable
            assert np.array_equal(dW, seed_sequence_increment(seed, k, dt, ambient)), (num_steps, k)
        drawn = len(calls)
        again = list(stream.increments(num_steps, dt, ambient))
        assert len(again) == num_steps and all(np.array_equal(a, b) for a, b in zip(again, rows))
        assert len(list(islice(stream.increments(num_steps, dt, ambient), num_steps // 2))) == num_steps // 2
        for end in (e for e in (32, 96, 224, 480) if e <= num_steps):
            assert all(np.array_equal(a, b) for a, b in zip(stream.increments(end, dt, ambient), rows))
        assert len(calls) == drawn, num_steps
        # another dt is another block: the stream draws again
        first = next(stream.increments(num_steps, 2 * dt, ambient))
        assert len(calls) == drawn + 1
        assert np.array_equal(first, seed_sequence_increment(seed, 0, 2 * dt, ambient))


def test_block_rejects_what_seed_sequence_rejects(ambient):
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    for draw in (lambda s: s.block(0, 2, 1e-3, ambient), lambda s: s.increment(0, 1e-3, ambient)):
        with pytest.raises(ValueError):
            draw(NoiseStream(-1))
    for dt in (0.0, -1e-3):
        with pytest.raises(ValueError):
            NoiseStream(0).block(0, 2, dt, ambient)
    with pytest.raises(ValueError):
        NoiseStream(0).block(-1, 2, 1e-3, ambient)


def test_increment_variance(ambient):
    dt = 0.01
    stream = NoiseStream(seed=42)
    draws = np.concatenate(
        [stream.increment(k, dt, ambient) for k in range(1000)]
    )
    target = dt / ambient.dy
    se = target * math.sqrt(2.0 / draws.size)
    assert abs(np.var(draws) - target) < 3.0 * se


def test_increment_replay_and_independence(ambient):
    stream = NoiseStream(seed=7)
    a = stream.increment(5, 0.01, ambient)
    b = stream.increment(5, 0.01, ambient)
    assert np.array_equal(a, b)
    # the increment is its read-only array of the J ambient values
    assert a.shape == (ambient.J,) and not a.flags.writeable

    # distinct step indices decorrelated
    n = 10**5 // ambient.J + 1
    xs, ys = [], []
    for k in range(n):
        xs.append(stream.increment(2 * k, 0.01, ambient))
        ys.append(stream.increment(2 * k + 1, 0.01, ambient))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(x.size)


def test_color_zero(kernel, ambient):
    assert color_at(kernel, ambient, np.zeros(ambient.J), 0.3) == 0.0


def test_color_linearity(kernel, ambient):
    rng = np.random.default_rng(0)
    w1 = rng.standard_normal(ambient.J)
    w2 = rng.standard_normal(ambient.J)
    lhs = color_at(kernel, ambient, 2.0 * w1 - 0.5 * w2, 0.1)
    rhs = 2.0 * color_at(kernel, ambient, w1, 0.1) - 0.5 * color_at(kernel, ambient, w2, 0.1)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_color_variance_matches_kernel_profile(kernel, ambient):
    # Var over unit time at fixed x equals the squared L2 profile of zeta(x, .)
    rng = np.random.default_rng(1)
    x = 0.25
    n = 10**5
    w = kernel.zeta(np.asarray(x), ambient.nodes) * ambient.dy
    draws = (rng.standard_normal((n, ambient.J)) / math.sqrt(ambient.dy)) @ w
    target = float(np.sum(kernel.zeta(np.asarray(x), ambient.nodes) ** 2) * ambient.dy)
    assert np.var(draws) == pytest.approx(target, rel=0.05)
    # quadrature of the Gaussian kernel matches the closed form 1/(2 s sqrt(pi))
    assert target == pytest.approx(1.0 / (2.0 * 0.5 * math.sqrt(math.pi)), rel=1e-6)


def test_distant_points_decorrelated(kernel, ambient):
    rng = np.random.default_rng(2)
    stream = NoiseStream(seed=9)
    a, b = [], []
    for k in range(4000):
        inc = stream.increment(k, 1.0, ambient)
        a.append(color_at(kernel, ambient, inc, -2.0))
        b.append(color_at(kernel, ambient, inc, 2.0))
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


def test_variance_linear_in_time(kernel, ambient):
    rng = np.random.default_rng(3)
    n = 20000
    w = kernel.zeta(np.asarray(0.0), ambient.nodes) * ambient.dy
    sd = math.sqrt(0.1 / ambient.dy)
    one = (rng.standard_normal((n, ambient.J)) * sd) @ w
    two = one + (rng.standard_normal((n, ambient.J)) * sd) @ w
    assert np.var(two) / np.var(one) == pytest.approx(2.0, rel=0.05)


def _step_at(grid, ambient, inc, p):
    """One noisy step from the zero phases with boundary p; the step, not the coloring, checks the window."""
    op = SpectralOperator(grid, 1.0, 1.0)
    model = make_model(ambient, sigma=sigma_affine(additive=0.3))
    return step(op, model, SolveConfig(dt=0.01, T=0.01, n=8), np.append(np.zeros(2 * grid.M), p), inc, ambient)


def test_color_field_window_and_symmetry(kernel, ambient):
    grid = Grid(1.0, 31)
    stream = NoiseStream(seed=5)
    inc = stream.increment(0, 0.01, ambient)
    xp, xm = color_field(coloring(kernel, ambient, grid), inc, 0.0)
    assert xp.shape == (grid.M,) and xm.shape == (grid.M,)
    # reversing the increment about 0 swaps the two phase fields (even kernel)
    xp2, xm2 = color_field(coloring(kernel, ambient, grid), inc[::-1], 0.0)
    assert np.allclose(xp2, xm, atol=1e-12)
    assert np.allclose(xm2, xp, atol=1e-12)

    with pytest.raises(BoundaryLeftWindow):
        _step_at(grid, ambient, inc, 2.5)


# The factorized coloring rounds differently from the direct quadrature; it
# measures about 3e-15 relative, while a one-cell shift is an order-one error.
FACTORIZED_RTOL = 1e-13


def _max_rel_error(kernel, ambient, inc, p, grid):
    xp, xm = color_field(coloring(kernel, ambient, grid), inc, p)
    dp = color_at(kernel, ambient, inc, p + grid.nodes)
    dm = color_at(kernel, ambient, inc, p - grid.nodes)
    scale = max(np.max(np.abs(dp)), np.max(np.abs(dm)))
    return max(np.max(np.abs(xp - dp)), np.max(np.abs(xm - dm))) / scale


def test_color_field_translation_consistency(kernel, ambient):
    grid = Grid(1.0, 31)
    inc = NoiseStream(seed=6).increment(0, 0.01, ambient)
    p, delta = 0.2, 0.37
    xp, _ = color_field(coloring(kernel, ambient, grid), inc, p + delta)
    direct = color_at(kernel, ambient, inc, p + delta + grid.nodes)
    assert np.max(np.abs(xp - direct)) <= FACTORIZED_RTOL * np.max(np.abs(direct))


# (L, M, pad, J): the example config (M=127, J=121) and the Stefan config (M=255, J=221)
GEOMETRIES = [(2.0, 127, 1.0, 121), (4.0, 255, 1.5, 221)]


@pytest.mark.parametrize("scale", [0.3, 0.5])
@pytest.mark.parametrize("L, M, pad, J", GEOMETRIES)
def test_factorized_coloring_matches_direct_across_window(L, M, pad, J, scale):
    grid = Grid(L, M)
    ambient = AmbientGrid(-L - pad, L + pad, J)
    kernel = gaussian_kernel(scale, ambient)
    # both configs use scale 0.5; at 0.3 the Stefan window exceeds the bound
    fast = _gaussian_factors(scale, ambient, grid) is not None
    assert fast == (scale == 0.5 or L == 2.0)
    inc = NoiseStream(seed=11).increment(3, 1e-3, ambient)
    worst = max(_max_rel_error(kernel, ambient, inc, p, grid) for p in np.linspace(-pad, pad, 41))
    assert worst <= FACTORIZED_RTOL


def test_factorized_coloring_fallback_is_direct(ambient):
    # D W / s^2 = 2 * 3 / 0.05^2 is far above the bound: the direct form runs
    grid = Grid(1.0, 31)
    kernel = gaussian_kernel(0.05, ambient)
    assert _gaussian_factors(0.05, ambient, grid) is None
    inc = NoiseStream(seed=4).increment(0, 0.01, ambient)
    xp, xm = color_field(coloring(kernel, ambient, grid), inc, 0.4)
    assert np.array_equal(xp, color_at(kernel, ambient, inc, 0.4 + grid.nodes))
    assert np.array_equal(xm, color_at(kernel, ambient, inc, 0.4 - grid.nodes))


def test_factorized_coloring_window_edges(kernel, ambient):
    grid = Grid(1.0, 31)
    assert _gaussian_factors(0.5, ambient, grid) is not None
    inc = NoiseStream(seed=8).increment(0, 0.01, ambient)
    for p in (ambient.x_lo + grid.L, ambient.x_hi - grid.L):
        xp, xm = color_field(coloring(kernel, ambient, grid), inc, p)
        assert np.all(np.isfinite(xp)) and np.all(np.isfinite(xm))
        assert _max_rel_error(kernel, ambient, inc, p, grid) <= FACTORIZED_RTOL
        assert np.isfinite(_step_at(grid, ambient, inc, p)).all()
    for p in (ambient.x_lo + grid.L - 1e-9, ambient.x_hi - grid.L + 1e-9):
        with pytest.raises(BoundaryLeftWindow):
            _step_at(grid, ambient, inc, p)


def test_kernel_profile_finite(ambient):
    k = gaussian_kernel(0.3, ambient)
    ys = ambient.nodes
    rows = k.zeta(ys[:, None], ys[None, :])
    assert np.all(np.isfinite(np.sqrt(np.sum(rows * rows, axis=1) * ambient.dy)))
    with pytest.raises(ValueError):
        gaussian_kernel(0.0, ambient)
    # scales whose kernel or squared kernel leaves the float range are refused
    # up front, before any evaluation can warn of an overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-200, 1e-160, 1e155, 1e200):
            with pytest.raises(ValueError, match="kernel scale"):
                gaussian_kernel(scale, ambient)


def test_kernel_accepted_tiny_scales_do_not_warn(ambient):
    # near the smallest accepted scale d^2 / (2 s^2) overflows off the
    # diagonal; the kernel is 0 there, and neither the build nor the direct
    # coloring that such a narrow kernel takes may warn
    grid = Grid(1.0, 15)
    dW = NoiseStream(seed=0).increment(0, 1e-3, ambient)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (3e-155, 1e-154, 1e-153):
            k = gaussian_kernel(scale, ambient)
            assert _gaussian_factors(scale, ambient, grid) is None
            row = k.zeta(ambient.nodes[60], ambient.nodes)
            assert row[60] > 0 and not row[:60].any() and not row[61:].any()
            assert np.isfinite(color_at(k, ambient, dW, np.array([0.0, 0.01]))).all()
            assert np.isfinite(color_field(coloring(k, ambient, grid), dW, 0.0)).all()


def test_gaussian_kernel_evaluates_one_row(monkeypatch):
    # the kernel is its scale alone, and building it checks the L2 norm of
    # one row of J kernel values, not of the J x J matrix
    assert [f.name for f in dataclasses.fields(Kernel)] == ["scale"]
    ambient = AmbientGrid(-3.0, 3.0, 2001)
    evaluated = []
    zeta = Kernel.zeta

    def counted(self, x, y):
        out = zeta(self, x, y)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(Kernel, "zeta", counted)
    assert gaussian_kernel(0.5, ambient) == Kernel(0.5)
    assert 0 < sum(evaluated) <= 4 * ambient.J

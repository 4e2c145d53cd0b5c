import csv
import hashlib
import json
import math
import os

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from stefansim.errors import ConfigError
from stefansim.experiments import (
    load_config,
    resolve,
    run_converge,
    run_lemma_suite,
    run_simulate,
    run_stefan_oracle,
    stefan_front_coefficient,
)
from stefansim.experiments.config import parse_family, parse_seeds
from stefansim.noise import NoiseStream


def base_raw(out, mode="simulate"):
    return {
        "mode": mode,
        "grid": {"L": 1.0, "M": 63},
        "ambient": {"pad": 1.0, "dy": 0.05},
        "model": {
            "sigma": {"name": "affine", "additive": 0.2},
            "rho": {"name": "tanh", "rho0": 0.5},
            "kernel": {"scale": 0.5},
        },
        "initial": {"kind": "sine", "amplitude": 0.3, "p0": 0.0},
        "solve": {"dt": 1e-3, "T": 0.02, "record_every": 5},
        "family": [8, "inf"],
        "seeds": [0, 1],
        "outputs": str(out),
    }


def test_parse_seeds_forms():
    assert parse_seeds([3, 5]) == [3, 5]
    assert parse_seeds(3) == [0, 1, 2]
    assert parse_seeds("2..5") == [2, 3, 4, 5]
    with pytest.raises(ConfigError):
        parse_seeds("abc")


def test_parse_family():
    assert parse_family([4, "inf"]) == [4, math.inf]
    with pytest.raises(ConfigError):
        parse_family([0])


@given(st.integers(0, 10**6), st.integers(-50, 50))
def test_parse_seeds_range_property(a, span):
    b = a + span
    if b < a:
        with pytest.raises(ConfigError):
            parse_seeds(f"{a}..{b}")
    else:
        assert parse_seeds(f"{a}..{b}") == list(range(a, b + 1))


@given(st.lists(st.integers(0, 10**9), min_size=1))
def test_parse_seeds_list_property(seeds):
    assert parse_seeds(seeds) == seeds
    assert parse_seeds([float(s) for s in seeds]) == seeds
    assert parse_seeds(len(seeds)) == list(range(len(seeds)))


@given(st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()))
def test_parse_seeds_rejects_non_integers(x):
    with pytest.raises(ConfigError):
        parse_seeds([0, x])


@given(st.lists(st.one_of(st.integers(1, 10**6), st.just("inf")), min_size=1))
def test_parse_family_property(family):
    out = parse_family(family)
    assert out == [math.inf if n == "inf" else n for n in family]
    assert all(isinstance(n, int) for n in out if n != math.inf)


@given(st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()))
def test_parse_family_rejects_non_integers(x):
    with pytest.raises(ConfigError):
        parse_family([8, x, "inf"])


def test_config_validation(tmp_path):
    raw = base_raw(tmp_path)
    raw["mode"] = "nonsense"
    with pytest.raises(ConfigError):
        resolve(raw)

    raw = base_raw(tmp_path)
    raw["family"] = [100]  # 1/100 < 2h on M = 63
    with pytest.raises(ConfigError):
        resolve(raw)

    raw = base_raw(tmp_path, mode="converge")
    raw["family"] = [4, 8, "inf"]  # needs >= 3 finite members
    with pytest.raises(ConfigError):
        resolve(raw)

    raw = base_raw(tmp_path)
    del raw["solve"]
    with pytest.raises(ConfigError):
        resolve(raw)

    raw = base_raw(tmp_path)
    raw["seeds"] = "5..2"  # empty range
    with pytest.raises(ConfigError):
        resolve(raw)

    raw = base_raw(tmp_path)
    raw["family"] = [4.7, "inf"]
    with pytest.raises(ConfigError):
        resolve(raw)

    raw = base_raw(tmp_path)
    raw["solve"].update(T=1.0, dt=0.3)  # T/dt is not a whole number of steps
    with pytest.raises(ConfigError):
        resolve(raw)
    for T, dt, steps in ((0.25, 2e-3, 125), (0.25, 1e-4, 2500)):
        raw["solve"].update(T=T, dt=dt)
        assert resolve(raw).solve.num_steps == steps


def test_load_config_yaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(base_raw(tmp_path / "out")))
    cfg = load_config(str(path))
    assert cfg.grid.M == 63
    assert cfg.family == [8, math.inf]


def test_rate_refusal_warning(tmp_path):
    raw = base_raw(tmp_path, mode="converge")
    raw["family"] = [4, 8, 16, "inf"]
    raw["model"]["mu"] = {"name": "quadratic"}  # not the bounded regime
    cfg = resolve(raw)
    assert any("refused" in w for w in cfg.warnings)


def _dir_hashes(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_simulate(resolve(base_raw(a)))
    run_simulate(resolve(base_raw(b)))
    # the manifest embeds the output path, everything else must agree
    ha = {k: v for k, v in _dir_hashes(a).items() if k != "manifest.json"}
    hb = {k: v for k, v in _dir_hashes(b).items() if k != "manifest.json"}
    assert ha == hb
    assert any(name.startswith("traj_ninf_seed0") for name in ha)
    # rerunning into the same directory reproduces every file, manifest included
    first = _dir_hashes(a)
    run_simulate(resolve(base_raw(a)))
    assert _dir_hashes(a) == first


def test_simulate_trajectory_columns(tmp_path):
    run_simulate(resolve(base_raw(tmp_path)))
    with open(tmp_path / "traj_n8_seed0.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "p", "norm_L2", "norm_H1", "norm_H2", "trace_grad_u1", "trace_grad_u2"]
    meta = json.loads((tmp_path / "traj_n8_seed0_exit.json").read_text())
    assert meta["exited"] is False


def test_window_exit_does_not_abort_study(tmp_path):
    # rho0 = 20 moves p by about 0.08 in the first step, past a 0.05 pad
    raw = base_raw(tmp_path / "sim")
    raw["model"]["rho"] = {"name": "linear", "rho0": 20.0}
    raw["ambient"]["pad"] = 0.05
    metas = run_simulate(resolve(raw))
    assert len(metas) == 4
    assert all(m["exited"] and m["exit"]["kind"] == "window" for m in metas)
    meta = json.loads((tmp_path / "sim" / "traj_n8_seed0_exit.json").read_text())
    assert meta["exit"]["kind"] == "window"

    raw = dict(raw, mode="converge", family=[4, 8, 16, "inf"], outputs=str(tmp_path / "conv"))
    rep = run_converge(resolve(raw))
    for n in rep.family:
        assert all(rep.exploded[n])
        # only the initial state lies before the exit, and it is shared
        assert rep.h1_dist[n] == [0.0, 0.0]


def test_common_noise_across_family(tmp_path):
    # the same seed feeds byte-identical increments to every family member
    cfg = resolve(base_raw(tmp_path))
    s1 = NoiseStream(seed=0)
    s2 = NoiseStream(seed=0)
    for k in range(5):
        a = s1.increment(k, cfg.solve.dt, cfg.ambient).dW
        b = s2.increment(k, cfg.solve.dt, cfg.ambient).dW
        assert hashlib.sha256(a.tobytes()).digest() == hashlib.sha256(b.tobytes()).digest()


def test_converge_smoke_and_zero_rho_collapse(tmp_path):
    raw = base_raw(tmp_path / "conv", mode="converge")
    raw["family"] = [4, 8, 16, "inf"]
    raw["seeds"] = [0, 1]
    raw["solve"]["truncation_r"] = 10.0
    rep = run_converge(resolve(raw))
    assert (tmp_path / "conv" / "report.csv").exists()
    for n in rep.family:
        assert all(d >= 0 for d in rep.h1_dist[n])
    assert math.isfinite(rep.slope)

    # rho = 0 removes the interface coupling: the family collapses
    raw2 = base_raw(tmp_path / "conv0", mode="converge")
    raw2["family"] = [4, 8, 16, "inf"]
    raw2["model"]["rho"] = {"name": "zero"}
    raw2["model"]["sigma"] = {"name": "zero"}
    raw2["solve"]["truncation_r"] = 10.0
    rep2 = run_converge(resolve(raw2))
    for n in rep2.family:
        assert max(rep2.h1_dist[n]) == 0.0
        assert max(rep2.p_dist[n]) == 0.0


def test_stefan_front_coefficient():
    # rho0 = 0 is the stationary front
    assert stefan_front_coefficient(0.0, 0.5, 1.0) == 0.0
    lam = stefan_front_coefficient(1.0, 0.5, 1.0)
    assert 0 < lam < 8
    g = lam * math.exp(lam * lam) * math.erfc(lam)
    assert g == pytest.approx(0.5 / math.sqrt(math.pi), rel=1e-10)
    # monotone in the Stefan number
    assert stefan_front_coefficient(1.0, 0.8, 1.0) > lam
    with pytest.raises(ValueError):
        stefan_front_coefficient(4.0, 1.0, 1.0)


def test_stefan_oracle_stationary(tmp_path):
    raw = {
        "mode": "stefan-oracle",
        "grid": {"L": 2.0, "M": 63},
        "ambient": {"pad": 1.5},
        "model": {},
        "solve": {"dt": 1e-3, "T": 0.02, "record_every": 4},
        "stefan": {"rho0": 0.0, "v_inf": 0.5, "eta": 1.0, "t0": 0.25},
        "outputs": str(tmp_path),
    }
    res = run_stefan_oracle(resolve(raw))
    assert res["lambda"] == 0.0
    assert res["max_rel_error_late"] == pytest.approx(0.0, abs=1e-12)


def test_stefan_oracle_mesh_refinement(tmp_path):
    # dt small enough that the spatial error dominates; then doubling M
    # halves-or-better the front error
    errs = []
    for i, M in enumerate((15, 31)):
        raw = {
            "mode": "stefan-oracle",
            "grid": {"L": 2.0, "M": M},
            "ambient": {"pad": 1.5},
            "model": {},
            "solve": {"dt": 1e-5, "T": 0.05, "record_every": 500},
            "stefan": {"rho0": 1.0, "v_inf": 0.5, "eta": 1.0, "t0": 0.25},
            "outputs": str(tmp_path / str(i)),
        }
        errs.append(run_stefan_oracle(resolve(raw))["max_rel_error_late"])
    assert errs[1] <= 0.5 * errs[0]


def test_lemma_suite_structured_window_failure(tmp_path):
    raw = base_raw(tmp_path, mode="lemma-suite")
    raw["grid"] = {"L": 1.0, "M": 7}  # 2h = 0.25 > 1/8: nothing resolvable
    raw["family"] = [2, "inf"]
    raw["lemma_samples"] = 10
    # n = 2 resolves (1/2 >= 0.25) but the gap-rate family {4, 16, 64} cannot
    res = run_lemma_suite(resolve(raw))
    rows = {r.name: r for r in res}
    assert "psi_gap_bound" in rows


def test_lemma_suite_skip_is_not_a_pass(tmp_path, capsys):
    from stefansim.cli import main

    # quadratic mu leaves the bounded regime that the linear-growth bound assumes
    raw = base_raw(tmp_path / "out", mode="lemma-suite")
    raw["model"]["mu"] = {"name": "quadratic", "coeff": 1.0}
    raw["lemma_samples"] = 100
    rows = {r.name: r for r in run_lemma_suite(resolve(raw))}
    skipped = rows["linear_growth"]
    assert skipped.status == "skip" and not skipped.passed
    assert all(r.status == "pass" for name, r in rows.items() if name != "linear_growth")
    with open(tmp_path / "out" / "lemma_suite.csv", newline="") as fh:
        statuses = {r[0]: r[1] for r in csv.reader(fh)}
    assert statuses["linear_growth"] == "skip"

    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    capsys.readouterr()
    assert main(["lemma-suite", "--config", str(cfg_path)]) == 0  # a skip fails nothing
    assert "skip linear_growth" in capsys.readouterr().out


def test_lemma_suite_empty_samples(tmp_path):
    raw = base_raw(tmp_path, mode="lemma-suite")
    raw["lemma_samples"] = 0
    assert run_lemma_suite(resolve(raw)) == []


def test_cli_simulate(tmp_path, capsys):
    from stefansim.cli import main

    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(base_raw(tmp_path / "cli_out")))
    rc = main(["simulate", "--config", str(cfg_path), "--seeds", "0..1"])
    assert rc == 0
    assert (tmp_path / "cli_out" / "manifest.json").exists()
    out = capsys.readouterr().out
    assert "trajectories" in out


def test_cli_bad_config(tmp_path):
    from stefansim.cli import main

    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump({"mode": "simulate"}))
    assert main(["simulate", "--config", str(cfg_path)]) == 2

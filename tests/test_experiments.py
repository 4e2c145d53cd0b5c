import csv
import hashlib
import json
import math
import os
import re

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erfcx

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
from stefansim.experiments import lemma_suite
from stefansim.experiments.config import parse_family, parse_seeds
from stefansim.experiments.runs import _write_table
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

    # malformed values fail in resolve with the offending key in the message
    for section, key, value, named in (
        ("model", "mu", {"name": "linear", "cv": 1.0}, "'cv'"),  # misspelt c_v
        ("model", "kernel", {"scal": 0.3}, "'scal'"),
        (None, "colour", "red", "'colour'"),  # unknown top-level key
        ("grid", "M", 63.5, "grid.M"),
        ("grid", "M", "x", "grid.M"),
        ("solve", "record_every", 2.5, "solve.record_every"),
        (None, "jobs", 0, "jobs"),
        (None, "q", 0, "q"),
        ("ambient", "x_lo", -3.0, "ambient.x_hi"),  # x_hi missing
        ("model", "rho", {"name": "tanh", "rho0": "big"}, "model.rho.rho0"),
    ):
        raw = base_raw(tmp_path)
        (raw if section is None else raw[section])[key] = value
        with pytest.raises(ConfigError, match=re.escape(named)):
            resolve(raw)

    # a stefan section without a similarity front fails in resolve, naming the key
    for stefan, named in (
        ({"rho0": 4.0, "v_inf": 1.0}, "stefan.rho0 * stefan.v_inf / stefan.eta"),
        ({"rho0": 1.0, "v_inf": -0.5}, "stefan.rho0 * stefan.v_inf / stefan.eta"),
        ({"eta": -1.0}, "stefan.eta"),
        ({"eta": 0.0}, "stefan.eta"),
        ({"t0": 0.0}, "stefan.t0"),
    ):
        raw = dict(base_raw(tmp_path, mode="stefan-oracle"), stefan=stefan)
        with pytest.raises(ConfigError, match=re.escape(named)):
            resolve(raw)
    raw = dict(base_raw(tmp_path, mode="stefan-oracle"), stefan={"rho0": 0.0, "v_inf": 4.0})
    resolve(raw)  # rho0 = 0 is the stationary front at any v_inf


def test_load_config_yaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(base_raw(tmp_path / "out")))
    cfg = load_config(str(path))
    assert cfg.grid.M == 63
    assert cfg.family == [8, math.inf]


def test_rate_refusal_warning(tmp_path):
    raw = base_raw(tmp_path, mode="converge")
    raw["family"] = [4, 8, 16, "inf"]
    assert resolve(raw).warnings == []  # zero mu, affine sigma, tanh rho: the bounded regime
    # a quadratic mu in either phase leaves the bounded regime
    for phase in ("mu", "mu_minus"):
        raw["model"] = dict(base_raw(tmp_path)["model"], **{phase: {"name": "quadratic"}})
        cfg = resolve(raw)
        assert any("refused" in w for w in cfg.warnings), phase
        assert not cfg.model.mu_bounded_slopes


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


def test_process_pool_matches_serial(tmp_path):
    # jobs = 2 maps the same cells over worker processes; every output but the manifest agrees
    for mode, run in (("simulate", run_simulate), ("converge", run_converge)):
        hashes = []
        for jobs in (1, 2):
            out = tmp_path / f"{mode}{jobs}"
            raw = dict(base_raw(out, mode=mode), jobs=jobs, family=[4, 8, 16, "inf"])
            run(resolve(raw))
            hashes.append({k: v for k, v in _dir_hashes(out).items() if k != "manifest.json"})
        assert hashes[0] == hashes[1]
        assert len(hashes[0]) == (16 if mode == "simulate" else 1)


def test_write_table_matches_csv_writer(tmp_path):
    # the bulk writer produces the bytes of csv.writer rows of %.17g strings
    values = [0.0, -0.0, 1.0, 0.1, 1 / 3, -2.5e-7, 5e-324, 1e300, math.inf, math.nan]
    table = np.array([values, values[::-1], [-v for v in values]]).T
    header = ["x", "v", "w"]
    _write_table(str(tmp_path / "bulk.csv"), header, table)
    with open(tmp_path / "rows.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([format(float(v), ".17g") for v in row] for row in table)
    bulk = (tmp_path / "bulk.csv").read_bytes()
    assert bulk == (tmp_path / "rows.csv").read_bytes()
    # and this is the format, byte for byte
    assert bulk.split(b"\r\n") == [
        b"x,v,w",
        b"0,nan,-0",
        b"-0,inf,0",
        b"1,1.0000000000000001e+300,-1",
        b"0.10000000000000001,4.9406564584124654e-324,-0.10000000000000001",
        b"0.33333333333333331,-2.4999999999999999e-07,-0.33333333333333331",
        b"-2.4999999999999999e-07,0.33333333333333331,2.4999999999999999e-07",
        b"4.9406564584124654e-324,0.10000000000000001,-4.9406564584124654e-324",
        b"1.0000000000000001e+300,1,-1.0000000000000001e+300",
        b"inf,-0,-inf",
        b"nan,0,nan",
        b"",
    ]


def test_simulate_profiles(tmp_path):
    raw = dict(base_raw(tmp_path), profiles=True)
    M = raw["grid"]["M"]
    run_simulate(resolve(raw))
    for name in ("traj_n8_seed0", "traj_ninf_seed1"):
        with open(tmp_path / f"{name}.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        profiles = [f for f in os.listdir(tmp_path) if f.startswith(name + "_profile")]
        assert sorted(profiles) == sorted(f"{name}_profile{k}.csv" for k in range(len(rows)))
        for k, row in enumerate(rows):
            with open(tmp_path / f"{name}_profile{k}.csv", newline="") as fh:
                prof = list(csv.reader(fh))
            assert prof[0] == ["x", "v"] and len(prof) == 2 * M + 2
            x, v = map(float, prof[1 + M])  # data row M is the interface
            assert x == float(row[1])
            assert v == 0.0


def test_simulate_trajectory_columns(tmp_path):
    run_simulate(resolve(base_raw(tmp_path)))
    with open(tmp_path / "traj_n8_seed0.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "p", "norm_L2", "norm_H1", "norm_H2", "trace_grad_u1", "trace_grad_u2"]
    meta = json.loads((tmp_path / "traj_n8_seed0_exit.json").read_text())
    assert meta["exited"] is False


def test_simulate_records_final_state(tmp_path):
    # record_every = 7 does not divide the 20 steps: the state at T is still recorded
    raw = base_raw(tmp_path)
    raw["solve"] = dict(raw["solve"], record_every=7)
    metas = run_simulate(resolve(raw))
    assert all(not m["exited"] and m["final_time"] == raw["solve"]["T"] for m in metas)
    with open(tmp_path / "traj_n8_seed0.csv", newline="") as fh:
        times = [float(r[0]) for r in list(csv.reader(fh))[1:]]
    assert times == pytest.approx([0.0, 0.007, 0.014, 0.02], abs=1e-15)


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
    # a root for every admissible Stefan number, up to the limit 1 where lambda ~ (2 (1 - St))^(-1/2)
    for stefan in (0.5, 0.99, 0.995, 1.0 - 1e-6):
        lam = stefan_front_coefficient(stefan, 1.0, 1.0)
        assert math.sqrt(math.pi) * lam * erfcx(lam) == pytest.approx(stefan, rel=1e-12)
    assert stefan_front_coefficient(1.0 - 1e-6, 1.0, 1.0) == pytest.approx(math.sqrt(0.5e6), rel=1e-3)


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


def test_cli_stefan_oracle_front_leaving_window(tmp_path, capsys):
    from stefansim.cli import main

    # at Stefan number 0.995, lambda is about 10: the front starts near p = 10,
    # outside the window of configs/stefan.yaml, which is a config error
    raw = {
        "mode": "stefan-oracle",
        "grid": {"L": 4.0, "M": 255},
        "ambient": {"pad": 1.5},
        "model": {},
        "solve": {"dt": 1e-4, "T": 0.01, "record_every": 25},
        "stefan": {"rho0": 0.995, "v_inf": 1.0, "eta": 1.0, "t0": 0.25},
        "outputs": str(tmp_path / "narrow"),
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["stefan-oracle", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "leaves the window" in err and "stefan.rho0" in err and "ambient.pad" in err
    # a window wide enough for the whole front path gives a finished report
    raw["ambient"]["pad"] = 12.0
    raw["outputs"] = str(tmp_path / "wide")
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["stefan-oracle", "--config", str(cfg_path)]) == 0
    with open(tmp_path / "wide" / "stefan_report.json") as fh:
        report = json.load(fh)
    assert report["lambda"] == pytest.approx(10.0, rel=0.05)
    assert math.isfinite(report["max_rel_error_late"])


def test_stefan_oracle_resolution_warning(tmp_path, capsys):
    from stefansim.cli import main
    from stefansim.experiments.config import read_config

    root = os.path.join(os.path.dirname(__file__), "..")
    shipped = read_config(os.path.join(root, "configs", "stefan.yaml"))
    assert resolve(shipped).warnings == []  # 74 cells across the boundary layer
    # Stefan number 0.995 in a window wide enough for the front: about 3 cells
    raw = dict(shipped, ambient={"pad": 15}, stefan=dict(shipped["stefan"], rho0=0.995, v_inf=1.0),
               solve=dict(shipped["solve"], T=0.01), outputs=str(tmp_path / "narrow_layer"))
    (warning,) = resolve(raw).warnings
    assert "boundary layer" in warning and "fewer than 16" in warning
    # the window check moved into resolve with it
    with pytest.raises(ConfigError, match="leaves the window"):
        resolve(dict(raw, ambient={"pad": 1.5}))

    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["stefan-oracle", "--config", str(cfg_path)]) == 0
    assert "warning: the similarity boundary layer" in capsys.readouterr().err
    with open(tmp_path / "narrow_layer" / "manifest.json") as fh:
        assert json.load(fh)["warnings"] == [warning]


def test_lemma_truncation_support_checks_the_running_cutoff(tmp_path, monkeypatch):
    # the check steps the solver, so a cutoff that never cuts fails it
    cfg = resolve(base_raw(tmp_path, mode="lemma-suite"))

    def check():
        rng = np.random.default_rng(0)
        return lemma_suite.check_truncation_support(rng, cfg.model, cfg.operator, cfg.ambient, 40, cfg.family)

    assert check().status == lemma_suite.PASS
    monkeypatch.setattr("stefansim.coefficients.h_r", lambda spec, s: 1.0)
    assert check().status == lemma_suite.FAIL


def test_lemma_suite_structured_window_failure(tmp_path):
    raw = base_raw(tmp_path, mode="lemma-suite")
    raw["grid"] = {"L": 1.0, "M": 7}  # 2h = 0.25 > 1/8: nothing resolvable
    raw["family"] = [2, "inf"]
    raw["lemma_samples"] = 10
    # n = 2 resolves (1/2 >= 0.25) but the gap-rate family {4, 16, 64} cannot
    res = run_lemma_suite(resolve(raw))
    rows = {r.name: r for r in res}
    assert "psi_gap_bound" in rows
    # called on the coarse grid itself, the gap check is a failure row of the same name
    gap = lemma_suite.check_psi_gap(np.random.default_rng(0), resolve(raw).model, resolve(raw).grid, 10)
    assert (gap.name, gap.status, gap.detail) == ("psi_gap_bound", lemma_suite.FAIL, "no n with 1/n >= 10h")


def test_lemma_suite_psi_gap_covers_n64_on_example(tmp_path):
    # at L = 2 the gap check needs a grid finer than M = 1023 for 1/64 >= 10h
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "example.yaml")
    raw = dict(load_config(path).raw, mode="lemma-suite", outputs=str(tmp_path))
    gap = {r.name: r for r in run_lemma_suite(resolve(raw))}["psi_gap_bound"]
    assert gap.status == lemma_suite.PASS
    for kind in ("rough", "smooth"):
        medians = re.search(kind + r" medians (\{[^}]*\})", gap.detail).group(1)
        assert re.findall(r"(\d+): ", medians) == ["4", "16", "64"]


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

    # the overrides apply before the config is resolved: the file's mode and
    # seeds alone would be a converge run without enough family members over
    # an empty seed range
    raw = dict(base_raw(tmp_path / "cli_out"), mode="converge", family=[4, "inf"], seeds="5..2")
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    rc = main(["simulate", "--config", str(cfg_path), "--seeds", "0..1"])
    assert rc == 0
    assert (tmp_path / "cli_out" / "manifest.json").exists()
    assert (tmp_path / "cli_out" / "traj_n4_seed1.csv").exists()
    out = capsys.readouterr().out
    assert "wrote 4 trajectories" in out


def test_cli_bad_config(tmp_path, capsys):
    from stefansim.cli import main

    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump({"mode": "simulate"}))
    assert main(["simulate", "--config", str(cfg_path)]) == 2

    # a non-numeric count is a config error, not a traceback
    raw = base_raw(tmp_path / "out")
    raw["grid"]["M"] = "x"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "error: grid.M" in capsys.readouterr().err

    # a missing file and a file that is not YAML are config errors too
    assert main(["simulate", "--config", str(tmp_path / "missing.yaml")]) == 2
    assert "error: cannot read config file" in capsys.readouterr().err
    cfg_path.write_text("grid: {L: 1.0, M: 63\n")
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "error: config file" in capsys.readouterr().err

    # so is a Stefan number outside (0, 1)
    raw = dict(base_raw(tmp_path / "out"), stefan={"rho0": 4.0, "v_inf": 1.0})
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["stefan-oracle", "--config", str(cfg_path)]) == 2
    assert "error: stefan.rho0 * stefan.v_inf / stefan.eta = 4.0" in capsys.readouterr().err

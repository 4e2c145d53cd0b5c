import copy
import csv
import hashlib
import itertools
import json
import math
import os
import pickle
import re
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erfcx

from stefansim import AmbientGrid, Grid, SolveConfig, SpectralOperator, __version__, gaussian_kernel
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
from stefansim.coefficients import INF
from stefansim.experiments import lemma_suite, runs
from stefansim.experiments.config import _erfcx, parse_family, parse_seeds
from stefansim.experiments.runs import ConvergenceReport, _write_table
from stefansim.grids import window_resolved
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
    if len(set(seeds)) < len(seeds):
        with pytest.raises(ConfigError, match="seeds must be distinct"):
            parse_seeds(seeds)
        return
    assert parse_seeds(seeds) == seeds
    assert parse_seeds([float(s) for s in seeds]) == seeds
    assert parse_seeds(len(seeds)) == list(range(len(seeds)))


@given(st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()))
def test_parse_seeds_rejects_non_integers(x):
    with pytest.raises(ConfigError):
        parse_seeds([0, x])


@given(st.lists(st.one_of(st.integers(1, 10**6), st.just("inf")), min_size=1, unique=True))
def test_parse_family_property(family):
    out = parse_family(family)
    assert out == [math.inf if n == "inf" else n for n in family]
    assert all(isinstance(n, int) for n in out if n != math.inf)


@given(st.lists(st.one_of(st.integers(1, 10**6), st.just("inf")), min_size=1, unique=True), st.data())
def test_parse_family_rejects_repeats(family, data):
    # a repeated member would be run twice and give the rate fit equal x values
    repeat = data.draw(st.sampled_from(family))
    with pytest.raises(ConfigError, match=f"got {repeat} more than once"):
        parse_family(data.draw(st.permutations(family + [repeat])))


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

    raw = base_raw(tmp_path, mode="converge")
    raw.update(family=[4, 6, 8, "inf"], seeds=[0, 0, 1])  # seed 0 would count twice in every mean
    with pytest.raises(ConfigError, match="seeds"):
        resolve(raw)

    raw = base_raw(tmp_path)
    raw["family"] = [4.7, "inf"]
    with pytest.raises(ConfigError):
        resolve(raw)

    raw = base_raw(tmp_path, mode="converge")
    raw["family"] = [4, 4, 4, "inf"]  # one distinct finite n, run three times
    with pytest.raises(ConfigError, match="family"):
        resolve(raw)

    raw = base_raw(tmp_path)
    raw["family"] = []  # no member: simulate would write no trajectory and exit 0
    with pytest.raises(ConfigError, match="family"):
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
        ("model", "eta_plus", -1, "eta_plus"),  # the operator's diffusivity
        # every number but solve.R_max and solve.truncation_r is finite, and none is NaN
        ("ambient", "pad", math.inf, "ambient.pad"),
        ("grid", "L", math.inf, "grid.L"),
        ("solve", "T", math.inf, "solve.T"),
        ("model", "kernel", {"scale": math.inf}, "model.kernel.scale"),
        # 2 pi s^2 underflows to 0, or overflows and the kernel is 0 everywhere
        ("model", "kernel", {"scale": 1.0e-200}, "kernel scale"),
        ("model", "kernel", {"scale": 1.0e200}, "kernel scale"),
        ("solve", "dt", math.nan, "solve.dt"),
        ("grid", "L", "nan", "grid.L"),
        # the window comes from x_lo/x_hi or from pad, the nodes from J or from dy
        (None, "ambient", {"x_lo": -4.0, "x_hi": 4.0, "pad": 100.0}, "ambient.x_lo and ambient.pad"),
        ("ambient", "J", 7, "ambient.J and ambient.dy"),
        # the window must cover [p0 - L, p0 + L] = [-1, 1] with room to spare, and dy must be positive
        ("ambient", "pad", 0.0, "ambient.pad"),
        (None, "ambient", {"x_lo": -1.0, "x_hi": 3.0}, "ambient.x_lo and ambient.x_hi"),
        ("ambient", "dy", 0.0, "ambient.dy"),
        # a zero or negative width and a zero mode would give a zero initial
        # state or silently turn the additive noise off
        (None, "initial", {"kind": "bump", "width": 0.0}, "initial.width"),
        (None, "initial", {"kind": "bump", "width": -0.5}, "initial.width"),
        (None, "initial", {"kind": "sine", "mode": 0}, "initial.mode"),
        # modes M + 1 = 64 and 2 (M + 1) = 128 vanish on the M = 63 nodes, and
        # every mode above M aliases onto a lower one
        (None, "initial", {"kind": "sine", "mode": 64}, "initial.mode"),
        (None, "initial", {"kind": "sine", "mode": 128}, "initial.mode"),
        ("model", "sigma", {"name": "affine", "additive": 0.2, "width": 0.0}, "model.sigma: width"),
        ("model", "sigma_minus", {"name": "affine", "additive": 0.2, "width": -1.0}, "model.sigma_minus: width"),
    ):
        raw = base_raw(tmp_path)
        (raw if section is None else raw[section])[key] = value
        with pytest.raises(ConfigError, match=re.escape(named)):
            resolve(raw)

    # the window from its ends, the nodes from J or from the default dy = 0.05
    raw = base_raw(tmp_path)
    raw["ambient"] = {"x_lo": -3.5, "x_hi": 3.5, "J": 141}
    assert resolve(raw).ambient == AmbientGrid(-3.5, 3.5, 141)
    raw["ambient"] = {"x_lo": -3.5, "x_hi": 3.5}
    assert resolve(raw).ambient.J == 141

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

    # the highest mode the nodes resolve, M, is accepted and is not zero on them
    raw = base_raw(tmp_path)
    raw["initial"]["mode"] = 63
    assert np.max(np.abs(resolve(raw).initial[:-1])) > 0.1

    # an infinite explosion radius or cutoff radius means none: the run finishes
    raw = base_raw(tmp_path)
    raw["solve"].update(R_max=math.inf, truncation_r="inf")
    cfg = resolve(raw)
    assert cfg.solve.explosion_radius == math.inf and cfg.solve.truncation is None
    assert not run_simulate(cfg)[0]["exited"]
    # so an unbounded converge run with an infinite cutoff radius is untruncated,
    # and its rate assertion is refused as when the radius is absent
    raw = dict(base_raw(tmp_path, mode="converge"), family=[4, 8, 16, "inf"])
    raw["model"]["mu"] = {"name": "quadratic"}
    for r in (math.inf, "inf", None):
        raw["solve"]["truncation_r"] = r
        assert [w[:23] for w in resolve(raw).warnings] == ["rate assertion refused:"]


def test_constructors_reject_non_finite(ambient):
    grid = Grid(1.0, 31)
    for build in (
        lambda: Grid(math.inf, 31),
        lambda: AmbientGrid(-math.inf, 3.0, 121),
        lambda: SpectralOperator(grid, 1.0, math.inf),
        lambda: gaussian_kernel(math.inf, ambient),
        lambda: SolveConfig(dt=1e-3, T=math.inf, n=math.inf),
    ):
        with pytest.raises(ValueError):
            build()


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
        assert not cfg.model.bounded


def _dir_hashes(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_manifest_records_the_package_version(tmp_path):
    run_simulate(resolve(base_raw(tmp_path)))
    with open(tmp_path / "manifest.json") as fh:
        assert json.load(fh)["version"] == __version__


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_runs_write_where_the_resolved_config_says(tmp_path, monkeypatch, jobs):
    # a config edited after resolve is the one a run steps and writes: every
    # file lands in its out_dir, serially and through the process pool, and the
    # directory that the raw mapping names is never made
    monkeypatch.chdir(tmp_path)
    elsewhere = tmp_path / "elsewhere"
    for mode, run, files in (("simulate", run_simulate, 17), ("converge", run_converge, 2)):
        raw = dict(base_raw("never_made", mode=mode), family=[4, 8, 16, "inf"])
        run(replace(resolve(raw), out_dir=str(elsewhere / mode), jobs=jobs))
        names = sorted(os.listdir(elsewhere / mode))
        assert len(names) == files and "manifest.json" in names, names
        # the manifest records what ran next to the mapping it was resolved from
        manifest = json.loads((elsewhere / mode / "manifest.json").read_text())
        assert manifest["run"] == {
            "out_dir": str(elsewhere / mode), "jobs": jobs, "seeds": [0, 1], "family": ["4", "8", "16", "inf"]}
        assert manifest["config"] == raw
    assert sorted(os.listdir(tmp_path)) == ["elsewhere"]


@pytest.mark.parametrize("name", ["example", "stefan"])
def test_resolved_config_pickles(name):
    # workers receive the resolved config itself: a round trip keeps every value
    # it steps, bit for bit, and the node arrays and operator weights stay read-only
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.yaml"))
    clone = pickle.loads(pickle.dumps(cfg))
    for grid in (clone.grid, clone.operator.grid):
        for nodes in (grid.nodes, grid.reflected_nodes):
            assert not nodes.flags.writeable
    assert not clone.ambient.nodes.flags.writeable
    assert not clone.operator.h2_weights.flags.writeable
    x, v = clone.grid.nodes, np.sin(3.0 * cfg.grid.nodes)
    vp = np.cos(cfg.grid.nodes)
    a, b = cfg.model, clone.model
    for mu in ("mu_plus", "mu_minus"):
        assert getattr(a, mu)(cfg.grid.nodes, v, vp).tobytes() == getattr(b, mu)(x, v, vp).tobytes()
    for sigma in ("sigma_plus", "sigma_minus"):
        assert getattr(a, sigma)(cfg.grid.nodes, v).tobytes() == getattr(b, sigma)(x, v).tobytes()
    for p, q in ((0.3, -0.2), (-1.7, 2.4)):
        assert np.float64(a.rho(p, q)).tobytes() == np.float64(b.rho(p, q)).tobytes()
    assert a.rho_lipschitz(2.0) == b.rho_lipschitz(2.0) and a.bounded == b.bounded
    y = cfg.ambient.nodes
    assert a.kernel.zeta(y[:, None], y).tobytes() == b.kernel.zeta(y[:, None], y).tobytes()
    assert clone.initial.tobytes() == cfg.initial.tobytes() and clone.solve == cfg.solve
    for weights in ("eigenvalues_plus", "eigenvalues_minus", "h2_weights"):
        assert getattr(clone.operator, weights).tobytes() == getattr(cfg.operator, weights).tobytes()
    assert (clone.grid, clone.ambient, clone.family, clone.seeds, clone.stefan) == (
        cfg.grid, cfg.ambient, cfg.family, cfg.seeds, cfg.stefan)


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


def test_simulate_dump_noise(tmp_path):
    # each _noise.bin holds the num_steps increments of its seed, (J,) float64 each, in
    # step order; every family member of a seed reads the same noise
    raw = dict(base_raw(tmp_path), dump_noise=True, family=[4, 8, "inf"])
    cfg = resolve(raw)
    run_simulate(cfg)
    steps, J = cfg.solve.num_steps, cfg.ambient.J
    for seed in cfg.seeds:
        stream = NoiseStream(seed)
        expected = np.array([stream.increment(k, cfg.solve.dt, cfg.ambient) for k in range(steps)])
        dumps = [(tmp_path / f"traj_n{n}_seed{seed}_noise.bin").read_bytes() for n in ("4", "8", "inf")]
        assert len(dumps[0]) == steps * J * 8
        assert np.array_equal(np.frombuffer(dumps[0], dtype=np.float64).reshape(steps, J), expected)
        assert dumps[1] == dumps[0] and dumps[2] == dumps[0]


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
        a = s1.increment(k, cfg.solve.dt, cfg.ambient)
        b = s2.increment(k, cfg.solve.dt, cfg.ambient)
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


def _fsum_slope(xs, ys):
    """The least-squares slope sum (x - x_bar)(y - y_bar) / sum (x - x_bar)^2, every sum a math.fsum."""
    xm, ym = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    return math.fsum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / math.fsum((x - xm) ** 2 for x in xs)


def test_convergence_report_derives_from_distances():
    # q = 2 means of (a, b) with a^2 + b^2 = 2 c^2 are exactly c; the report
    # keeps only the per-seed lists, so an edit to one shows in rows() and slope
    h1 = {4: [7 / 64, 17 / 64], 8: [1 / 64, 7 / 64], 16: [1 / 64, 1 / 64]}
    d2l2 = {4: [17 / 8, 31 / 8], 8: [7 / 8, 23 / 8], 16: [1 / 8, 7 / 8]}
    p = {4: [1 / 4, 7 / 4], 8: [1 / 4, 1 / 4], 16: [0.0, 0.0]}
    exploded = {4: [True, True], 8: [False, True], 16: [False, False]}
    rep = ConvergenceReport(
        family=[4, 8, 16], seeds=[0, 1], q=2, h1_dist=h1, d2l2_dist=d2l2, p_dist=p, exploded=exploded
    )
    assert rep.rows() == [
        ["4", "0.203125", "3.125", "1.25", "2"],
        ["8", "0.078125", "2.125", "0.25", "1"],
        ["16", "0.015625", "0.625", "0", "0"],
    ]
    xs = [math.log(4), math.log(8), math.log(16)]
    assert rep.slope == _fsum_slope(xs, [math.log(13 / 64), math.log(5 / 64), math.log(1 / 64)])

    rep.h1_dist[16] = [7 / 64, 17 / 64]
    assert rep.rows()[2][1] == "0.203125"
    assert rep.slope == _fsum_slope(xs, [math.log(13 / 64), math.log(5 / 64), math.log(13 / 64)])
    for gone in ("mean_h1", "mean_d2l2", "mean_p", "warnings", "finalize"):
        assert not hasattr(rep, gone), gone


@pytest.mark.parametrize("mode", ["converge", "simulate"])
def test_converge_draws_each_seed_step_once(tmp_path, monkeypatch, mode):
    # four members on each of two seeds read one shared draw per (seed, step):
    # the steps of every row a block returns are counted; simulate also dumps
    # every member's noise, which reads the same rows again
    drawn = []
    block = NoiseStream.block

    def counted(self, k0, K, dt, ambient):
        drawn.extend((self.seed, k) for k in range(k0, k0 + K))
        return block(self, k0, K, dt, ambient)

    monkeypatch.setattr(NoiseStream, "block", counted)
    raw = base_raw(tmp_path, mode=mode)
    raw["family"] = [4, 8, 16, "inf"]
    cfg = resolve(dict(raw, dump_noise=mode == "simulate"))
    if mode == "converge":
        rep = run_converge(cfg)
        assert not any(any(e) for e in rep.exploded.values())
    else:
        assert len(run_simulate(cfg)) == 8 and len(list(tmp_path.glob("*_noise.bin"))) == 8
    assert sorted(drawn) == [(s, k) for s in (0, 1) for k in range(cfg.solve.num_steps)]


def test_converge_fits_its_slope_without_lapack(tmp_path, monkeypatch):
    # the rate fit is closed-form: no run mode reaches LAPACK's least squares
    def refused(*args, **kwargs):
        raise AssertionError("the rate fit called LAPACK")

    monkeypatch.setattr(np, "polyfit", refused)
    monkeypatch.setattr(np.linalg, "lstsq", refused)
    rep = run_converge(resolve(dict(base_raw(tmp_path, mode="converge"), family=[4, 8, 16, "inf"])))
    assert math.isfinite(rep.slope) and rep.slope < 0
    assert json.loads((tmp_path / "manifest.json").read_text())["slope"] == rep.slope


def test_slope_matches_polyfit():
    # random families and distances: the closed form is numpy's least-squares fit to round-off
    rng = np.random.default_rng(7)
    for _ in range(200):
        family = sorted(rng.choice(np.arange(2, 200), size=rng.integers(2, 9), replace=False).tolist())
        rate, seeds = rng.uniform(-3.0, -0.2), [0, 1, 2]
        h1 = {n: (n ** rate * rng.uniform(0.5, 2.0, size=len(seeds))).tolist() for n in family}
        rep = ConvergenceReport(family, seeds, 2, h1, h1, h1, {n: [False] * len(seeds) for n in family})
        ys = np.log([rep.q_mean(h1, n) for n in family])
        assert rep.slope == pytest.approx(float(np.polyfit(np.log(family), ys, 1)[0]), rel=1e-12, abs=0)


def test_converge_holds_one_member_at_a_time(tmp_path, monkeypatch):
    # a seed solves its n = inf reference first; when any member's solve
    # starts, the reference is the only trajectory of the seed still alive
    alive, starts = [], []
    solve_cell = runs._solve_cell

    def tracked(cfg, n, stream):
        starts.append((n, [m for m, ref in alive if ref() is not None]))
        traj = solve_cell(cfg, n, stream)
        alive.append((n, weakref.ref(traj)))
        return traj

    monkeypatch.setattr(runs, "_solve_cell", tracked)
    cfg = resolve(dict(base_raw(tmp_path, mode="converge"), family=[4, 8, 16, "inf"]))
    for seed in (0, 1):
        alive.clear()
        runs._converge_seed(cfg, seed)
    assert starts == [(INF, []), (4, [INF]), (8, [INF]), (16, [INF])] * 2


def test_converge_off_the_dyadic_lattice(tmp_path):
    # members whose window 1/n falls between nodes (n = 5, 6, 7 on h = 1/64)
    # take the interpolated window; the q-mean H1 distances still fall
    # strictly as n grows, through the dyadic neighbours n = 4 and n = 8
    base = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "example.yaml")).raw
    family = [4, 5, 6, 7, 8, "inf"]
    cfg = resolve(dict(base, family=family, seeds="0..7", outputs=str(tmp_path)))
    assert [(1.0 / n / cfg.grid.h).is_integer() for n in family[:-1]] == [True, False, False, False, True]
    rep = run_converge(cfg)
    means = [rep.q_mean(rep.h1_dist, n) for n in rep.family]
    assert not any(any(e) for e in rep.exploded.values())
    assert all(a > b for a, b in zip(means, means[1:])), means


def test_psi_gap_off_the_dyadic_lattice():
    # the interface gap check on run_suite's gap grid for the example config
    # (M = 2047, where 1/64 >= 10 h), with members off the node lattice
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "example.yaml"))
    gap_grid = Grid(cfg.grid.L, 2047)
    assert window_resolved(gap_grid, 64, 10.0) and not window_resolved(Grid(cfg.grid.L, 1023), 64, 10.0)
    res = lemma_suite.check_psi_gap(np.random.default_rng(0), cfg.model, gap_grid, 200, gap_family=(5, 12, 40))
    assert res.status == lemma_suite.PASS and res.worst <= res.allowed, res


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
    # a root for every admissible Stefan number, up to the limit 1 where lambda ~ (2 (1 - St))^(-1/2),
    # and down to roots far below the 2^-200 that 200 bisection steps from [0, 1] reach
    for stefan in (0.5, 0.99, 0.995, 1.0 - 1e-6, 1e-100, 1e-300):
        lam = stefan_front_coefficient(stefan, 1.0, 1.0)
        # as a ratio: approx's absolute 1e-12 would pass any residual at tiny Stefan numbers
        assert math.sqrt(math.pi) * lam * erfcx(lam) / stefan == pytest.approx(1.0, rel=1e-12)
    assert stefan_front_coefficient(1.0 - 1e-6, 1.0, 1.0) == pytest.approx(math.sqrt(0.5e6), rel=1e-3)


def test_erfcx_matches_scipy():
    # the standard-library erfcx of the Stefan functions: the Dekker-split
    # product below 6, the continued fraction above, tiny arguments near 1
    assert _erfcx(0.0) == 1.0
    for xs in (np.linspace(0.0, 10.0, 20001), np.geomspace(10.0, 1e8, 2000), np.geomspace(1e-12, 1e-2, 500)):
        ours = np.array([_erfcx(x) for x in xs.tolist()])
        assert np.max(np.abs(ours / erfcx(xs) - 1.0)) <= 2e-15


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


@pytest.mark.parametrize("change", ["rho_zero", "family_inf"])
def test_lemma_suite_degenerate_example(tmp_path, change, capsys):
    from stefansim.cli import main

    # a zero interface map has zero gaps and a zero Lipschitz bound: the gap
    # ratios are 0 and the gap rate holds.  A family with no finite n leaves
    # the three window checks nothing to run: they are skipped, not failed
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "example.yaml")
    raw = dict(load_config(path).raw, outputs=str(tmp_path / "out"))
    if change == "rho_zero":
        raw["model"] = dict(raw["model"], rho={"name": "zero"})
    else:
        raw["family"] = ["inf"]
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["lemma-suite", "--config", str(cfg_path)]) == 0
    with open(tmp_path / "out" / "lemma_suite.csv", newline="") as fh:
        rows = {r[0]: r for r in list(csv.reader(fh))[1:]}
    assert len(rows) == 17
    windowed = {"intnorm_window", "psi_uniform_lipschitz", "window_arg_bound"}
    for name, (_, status, worst, _, detail) in rows.items():
        if change == "family_inf" and name in windowed:
            assert (status, detail) == ("skip", "no finite n in the family with 1/n >= 2h")
        else:
            assert status == "pass", (name, worst, detail)
    if change == "rho_zero":
        assert float(rows["psi_uniform_lipschitz"][2]) == 0.0
        assert float(rows["psi_gap_bound"][2]) == 0.0


def test_lemma_suite_narrow_noise_window(tmp_path):
    # a window 0.3 wider than [-L, L] on each side: the truncation check steps
    # only the samples whose boundary the window covers, and the battery
    # gives its 17 rows instead of stopping at BoundaryLeftWindow
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "example.yaml")
    raw = load_config(path).raw
    raw = dict(raw, mode="lemma-suite", ambient=dict(raw["ambient"], pad=0.3), outputs=str(tmp_path))
    cfg = resolve(raw)
    rows = run_lemma_suite(cfg)
    assert len(rows) == 17 and not [r for r in rows if r.status == lemma_suite.FAIL], rows
    assert {r.name: r.status for r in rows}["truncation_support"] == lemma_suite.PASS
    with open(tmp_path / "lemma_suite.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 18
    # a window that covers no sampled boundary leaves nothing to step
    far = AmbientGrid(10.0, 20.0, 41)
    row = lemma_suite.check_truncation_support(np.random.default_rng(0), cfg.model, cfg.operator, far, 40, cfg.family)
    assert (row.status, row.detail) == (lemma_suite.SKIP, "no sampled boundary inside the noise window")


def test_brownian_variance_passes_a_correct_coloring():
    # over 4,000 paths the ratio's standard deviation was 0.044 and rng seeds
    # 154 and 158 read 0.109 and 0.102 against the allowance 0.1; over 16,000 it is 0.022
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "example.yaml"))
    for seed in (154, 158):
        row = lemma_suite.check_brownian_variance(np.random.default_rng(seed), cfg.model, cfg.ambient)
        assert row.status == lemma_suite.PASS and row.worst < 0.05, row
    # the extra paths come from a spawned generator: the battery's stream goes on as after 4,000 paths
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    lemma_suite.check_brownian_variance(rng, cfg.model, cfg.ambient)
    ref.standard_normal((2 * 4000, cfg.ambient.J))
    assert rng.integers(2**32) == ref.integers(2**32)


@pytest.mark.parametrize("name", ["example", "stefan"])
def test_eigen_exactness_allows_rounding_only(name):
    # the allowance follows the stencil's rounding, eps (1 + k pi) (4 eta/h^2 + 1) / |lambda_k|:
    # the shipped configs read about 0.16 of it, and eigenvalues off by a
    # relative 1e-10 read hundreds of times it
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.yaml"))
    row = lemma_suite.check_eigen_exactness(cfg.operator, cfg.grid)
    assert row.status == lemma_suite.PASS and row.worst < 0.5, row
    bad = copy.copy(cfg.operator)
    object.__setattr__(bad, "eigenvalues_plus", bad.eigenvalues_plus * (1.0 + 1e-10))
    row = lemma_suite.check_eigen_exactness(bad, cfg.grid)
    assert row.status == lemma_suite.FAIL and row.worst > 100.0, row


def test_coloring_linear_allows_rounding_only(monkeypatch):
    # the allowance is the quadrature's rounding of its absolute sum: rng seed
    # 105 makes a nearly cancelling a c1 + b c2 on the example model, which a
    # fixed relative 1e-12 failed (6.3e-12), and a left side off by a relative
    # 1e-10 reads over 10 times the allowance
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "example.yaml"))
    row = lemma_suite.check_coloring_linear(np.random.default_rng(105), cfg.model, cfg.ambient, 200)
    assert row.status == lemma_suite.PASS and row.worst < 0.1, row
    calls = itertools.count()
    color_at = lemma_suite.color_at

    def lhs_off(kernel, ambient, dW, x):
        # each sample colors a dW1 + b dW2 first, then dW1 and dW2
        v = color_at(kernel, ambient, dW, x)
        return v * (1.0 + 1e-10) if next(calls) % 3 == 0 else v

    monkeypatch.setattr(lemma_suite, "color_at", lhs_off)
    row = lemma_suite.check_coloring_linear(np.random.default_rng(105), cfg.model, cfg.ambient, 200)
    assert row.status == lemma_suite.FAIL and row.worst > 10.0, row


def test_lemma_ratio_of_zero_gaps():
    assert lemma_suite._ratio(0.0, 0.0) == 0.0
    assert lemma_suite._ratio(0.0, 2.0) == 0.0
    assert lemma_suite._ratio(1.0, 0.0) == math.inf
    assert lemma_suite._ratio(1.0, 4.0) == 0.25


def test_map_cells_forks_no_more_workers_than_cells(tmp_path, monkeypatch):
    from concurrent.futures import Future

    from stefansim.experiments import runs

    pools = []

    class RecordingPool:
        """Stands in for the process pool: records its size and runs each cell in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    # _map_cells imports the pool class when it forks, so patch it where that import reads it
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    cfg = resolve(dict(base_raw(tmp_path), jobs=16))

    def cell(cfg, seed):
        return (cfg.jobs, seed)

    assert runs._map_cells(replace(cfg, seeds=[0, 1, 5]), cell) == [(16, 0), (16, 1), (16, 5)]
    assert pools == [3]
    # one seed, or none, runs in this process without a pool
    assert runs._map_cells(replace(cfg, seeds=[5]), cell) == [(16, 5)]
    assert runs._map_cells(replace(cfg, seeds=[]), cell) == []
    assert pools == [3]


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


def test_cli_converge_warns_when_pairs_exit(tmp_path, capsys):
    from stefansim.cli import main

    # the example with a strong v^2 reaction, no cutoff and no explosion
    # radius: every path blows up before T, and the fitted slope alone does not say so
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", "example.yaml")) as fh:
        shipped = yaml.safe_load(fh)
    raw = copy.deepcopy(shipped)
    raw["model"]["mu"] = {"name": "quadratic", "coeff": 400}
    del raw["solve"]["truncation_r"]
    raw["solve"]["R_max"] = math.inf
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    argv = ["converge", "--config", str(cfg_path), "--seeds", "0..1", "--out", str(tmp_path / "out")]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("fitted slope: ")
    assert [line for line in err.splitlines() if line.startswith("warning: ") and "pairs" in line] == [
        "warning: 8 of 8 (n, seed) pairs exited before T; their distances cover only the window before the exit"
    ]
    # report.csv counts the same exits
    with open(tmp_path / "out" / "report.csv") as fh:
        assert [row["n_exploded"] for row in csv.DictReader(fh)] == ["2"] * 4

    # the shipped example exits nowhere and warns of nothing
    cfg_path.write_text(yaml.safe_dump(shipped))
    assert main(argv) == 0
    assert "warning:" not in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["simulate", "converge"])
def test_cli_exploding_run_prints_only_its_own_warnings(tmp_path, mode):
    # every path of the exploding example overflows on its way to a
    # "nonfinite" exit; the run reports that, and numpy's overflow warnings,
    # which name a source line of the package, do not reach stderr
    import stefansim

    with open(os.path.join(os.path.dirname(__file__), "..", "configs", "example.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw["model"]["mu"] = {"name": "quadratic", "coeff": 400}
    raw["solve"]["truncation_r"] = math.inf
    raw["solve"]["R_max"] = math.inf
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    src = os.path.dirname(os.path.dirname(stefansim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [sys.executable, "-m", "stefansim", mode, "--config", str(cfg_path), "--seeds", "0..1", "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stderr.splitlines()
    assert all(line.startswith("warning: ") for line in lines), done.stderr
    assert "RuntimeWarning" not in done.stderr and src not in done.stderr
    if mode == "simulate":
        metas = [json.loads(p.read_text()) for p in (tmp_path / "out").glob("*_exit.json")]
        assert len(metas) == 10 and all(m["exit"]["kind"] == "nonfinite" for m in metas)
    else:
        assert lines and lines[-1].startswith("warning: 8 of 8 (n, seed) pairs exited before T")


def test_exploding_simulate_draws_about_what_it_uses(tmp_path, monkeypatch):
    # every path of the exploding example exits "nonfinite" at step 19 of
    # 125: each seed draws the first block of solve's schedule, 32 rows, and
    # not the horizon
    from stefansim.cli import main

    drawn = []
    block = NoiseStream.block

    def counted(self, k0, K, dt, ambient):
        drawn.append(K)
        return block(self, k0, K, dt, ambient)

    monkeypatch.setattr(NoiseStream, "block", counted)
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", "example.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw["model"]["mu"] = {"name": "quadratic", "coeff": 400}
    raw["solve"]["truncation_r"] = math.inf
    raw["solve"]["R_max"] = math.inf
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["simulate", "--config", str(cfg_path), "--seeds", "0..1", "--out", str(tmp_path / "out")]) == 0
    metas = [json.loads(p.read_text()) for p in (tmp_path / "out").glob("*_exit.json")]
    assert len(metas) == 10 and all(m["exit"]["kind"] == "nonfinite" and m["exit"]["step"] == 19 for m in metas)
    assert sum(drawn) <= 64


@pytest.mark.parametrize("outputs", [None, ["a", "b"], "", "--out"], ids=["null", "list", "empty", "empty-out-flag"])
def test_outputs_must_be_a_nonempty_string(tmp_path, monkeypatch, capsys, outputs):
    # null and a list would be written to ./None and ./['a', 'b'], and an
    # empty string, from the file or from --out, ended in a traceback
    from stefansim.cli import main

    monkeypatch.chdir(tmp_path)
    raw = base_raw(tmp_path, mode="converge")
    raw.update(family=[4, 6, 8, "inf"], outputs=outputs)
    argv = ["converge", "--config", "cfg.yaml"]
    if outputs == "--out":
        raw["outputs"] = str(tmp_path / "out")
        argv += ["--out", ""]
    (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(raw))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: outputs must be a nonempty string"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


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

"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (written straight to the terminal so
it survives pytest's capture) and then asserts.  Tolerances are fixed here
and are not to be loosened without understanding which error floor moved.
"""

import math
import sys
import time

import numpy as np
import pytest

from stefansim import (
    AmbientGrid,
    Grid,
    NoiseStream,
    SolveConfig,
    SpectralOperator,
    TruncationSpec,
    exit_times,
    solve,
    state_norm,
)
from stefansim.coefficients import (
    INF,
    mu_saturated,
    psi_gap_bound,
    rho_tanh,
    sigma_affine,
)
from stefansim.experiments import resolve, run_converge, run_lemma_suite, run_stefan_oracle
from stefansim.experiments.sampling import rough_state

from conftest import make_model


REPORT_LINES = []


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    REPORT_LINES.append(line)
    return ok


def _sine_state(grid, amplitude):
    """The state row (amplitude sin(pi x), 0, 0)."""
    return np.concatenate((amplitude * np.sin(np.pi * grid.nodes), np.zeros(grid.M + 1)))


def test_acceptance_1_heat_decay():
    t0 = time.time()
    grid = Grid(1.0, 127)
    ambient = AmbientGrid(-3.0, 3.0, 121)
    model = make_model(ambient)
    op = SpectralOperator(grid, 1.0, 1.0)
    cfg = SolveConfig(dt=1e-4, T=0.1, n=INF, record_every=1000)
    X0 = _sine_state(grid, 1.0)
    traj = solve(op, model, cfg, X0, NoiseStream(seed=0), ambient)
    target = math.exp(-math.pi**2 * 0.1) * X0[: grid.M]
    rel = np.max(np.abs(traj.values[-1, : grid.M] - target)) / np.max(np.abs(target))
    elapsed = time.time() - t0
    ok = rel < 0.01 and elapsed < 5.0
    assert _report(1, ok, f"modal decay rel err {rel:.2e} (<1%), {elapsed:.1f}s (<5s)")


def test_acceptance_2_lemma_suite(tmp_path):
    t0 = time.time()
    raw = {
        "mode": "lemma-suite",
        "grid": {"L": 1.0, "M": 127},
        "ambient": {"pad": 1.0, "dy": 0.05},
        "model": {
            "mu": {"name": "saturated", "amplitude": 0.5, "slope": 1.0},
            "sigma": {"name": "affine", "additive": 0.2, "multiplicative": 0.1},
            "rho": {"name": "tanh", "rho0": 1.0, "slope": 1.0},
            "kernel": {"scale": 0.5},
        },
        "solve": {"dt": 1e-3, "T": 0.01},
        "family": [4, 8, 16, "inf"],
        "outputs": str(tmp_path),
        "lemma_samples": 200,
    }
    results = run_lemma_suite(resolve(raw))
    failed = [r.name for r in results if not r.passed]
    elapsed = time.time() - t0
    ok = not failed and elapsed < 60.0
    assert _report(2, ok, f"{len(results)} properties, failed={failed or 'none'}, {elapsed:.1f}s (<60s)")


def test_acceptance_3_interface_gap_rate():
    t0 = time.time()
    grid = Grid(1.0, 1023)
    ambient = AmbientGrid(-3.0, 3.0, 121)
    model = make_model(ambient, rho=rho_tanh(1.0))
    rng = np.random.default_rng(2024)
    ns = (4, 16, 64)
    all_within = True
    rescaled = {n: [] for n in ns}
    for _ in range(200):
        X = rough_state(rng, grid, sigma=1.0)
        for n in ns:
            gap, bound = psi_gap_bound(model, grid, X, n)
            if gap > bound:
                all_within = False
            rescaled[n].append(gap * math.sqrt(n))
    med = {n: float(np.median(rescaled[n])) for n in ns}
    spread = max(med.values()) / min(med.values())
    elapsed = time.time() - t0
    ok = all_within and spread < 2.0 and elapsed < 30.0
    assert _report(
        3,
        ok,
        f"gap<=bound on all draws: {all_within}, median(gap*sqrt n) spread {spread:.2f} (<2), {elapsed:.1f}s (<30s)",
    )


def _converge_raw(M, dt, out):
    return {
        "mode": "converge",
        "grid": {"L": 2.0, "M": M},
        "ambient": {"pad": 1.0, "dy": 0.05},
        "model": {
            "mu": {"name": "zero"},
            "sigma": {"name": "affine", "additive": 0.5, "multiplicative": 0.2},
            "rho": {"name": "tanh", "rho0": 1.0, "slope": 1.0},
            "kernel": {"scale": 0.5},
        },
        "initial": {"kind": "bump", "amplitude": 1.0, "width": 0.5, "p0": 0.0},
        "solve": {"dt": dt, "T": 0.25, "record_every": 5, "truncation_r": 10.0},
        "family": [4, 8, 16, 32, "inf"],
        "seeds": list(range(64)),
        "outputs": str(out),
    }


def test_acceptance_4_convergence_study(tmp_path):
    t0 = time.time()
    coarse = run_converge(resolve(_converge_raw(127, 2e-3, tmp_path / "coarse")))
    fine = run_converge(resolve(_converge_raw(255, 1e-3, tmp_path / "fine")))
    # refinement may reveal at most 0.05 of slope hidden by the dt/h floor
    moved_toward = abs(coarse.slope + 0.5) - abs(fine.slope + 0.5)
    elapsed = time.time() - t0
    ok = coarse.slope <= -0.4 and moved_toward <= 0.05 and elapsed < 1800.0
    assert _report(
        4,
        ok,
        f"slope {coarse.slope:.3f} (<=-0.4), refined {fine.slope:.3f}, "
        f"floor-hidden improvement {moved_toward:.3f} (<=0.05), {elapsed:.0f}s (<30min)",
    )


def test_acceptance_5_truncation_consistency():
    grid = Grid(1.0, 127)
    ambient = AmbientGrid(-3.0, 3.0, 121)
    model = make_model(
        ambient,
        sigma=sigma_affine(additive=0.6, multiplicative=0.2),
        rho=rho_tanh(1.0),
    )
    op = SpectralOperator(grid, 1.0, 1.0)
    r = 1.1
    X0 = _sine_state(grid, 0.12)
    plain = SolveConfig(dt=2e-3, T=0.5, n=INF, record_every=1)
    trunc = SolveConfig(dt=2e-3, T=0.5, n=INF, truncation=TruncationSpec(r), record_every=1)
    all_equal = True
    crossings = 0
    for seed in range(20):
        a = solve(op, model, plain, X0, NoiseStream(seed=seed), ambient)
        b = solve(op, model, trunc, X0, NoiseStream(seed=seed), ambient)
        over = np.nonzero(a.norm_h2**2 > r * r)[0]
        k_star = over[0] if over.size else len(a.norm_h2) - 1
        crossings += int(over.size > 0)
        if not np.array_equal(a.values[: k_star + 1], b.values[: k_star + 1]):
            all_equal = False
    ok = all_equal
    assert _report(
        5, ok, f"bitwise equal through first crossing on 20/20 seeds ({crossings} seeds crossed r={r})"
    )


def _global_regime_sups(seeds, grid, ambient, model, op):
    cfg = SolveConfig(dt=2e-3, T=1.0, n=INF, explosion_radius=1e6, record_every=500)
    sups = []
    exploded = 0
    X0 = _sine_state(grid, 0.5)
    for seed in seeds:
        traj = solve(op, model, cfg, X0, NoiseStream(seed=seed), ambient)
        exploded += int(traj.exited)
        sups.append(float(np.max(traj.norm_h2)))
    return np.array(sups), exploded


def test_acceptance_6_global_regime():
    grid = Grid(1.0, 63)
    ambient = AmbientGrid(-3.0, 3.0, 121)
    model = make_model(
        ambient,
        mu=mu_saturated(0.5, 1.0),
        sigma=sigma_affine(additive=0.3, multiplicative=0.1),
        rho=rho_tanh(1.0),
        bounded=True,
    )
    op = SpectralOperator(grid, 1.0, 1.0)
    s1, e1 = _global_regime_sups(range(100), grid, ambient, model, op)
    s2, e2 = _global_regime_sups(range(100, 200), grid, ambient, model, op)
    m1 = float(np.mean(s1**2) ** 0.5)
    m2 = float(np.mean(s2**2) ** 0.5)
    stable = abs(m1 - m2) / m1 < 0.10
    ok = (e1 + e2 == 0) and math.isfinite(m1) and stable
    assert _report(
        6,
        ok,
        f"explosions {e1 + e2}/200 (=0), q=2 sup-norm means {m1:.3f} vs {m2:.3f} "
        f"(batch gap {abs(m1 - m2) / m1:.1%} < 10%)",
    )


def test_acceptance_7_stefan_oracle(tmp_path):
    t0 = time.time()
    raw = {
        "mode": "stefan-oracle",
        "grid": {"L": 4.0, "M": 255},
        "ambient": {"pad": 1.5},
        "model": {},
        "solve": {"dt": 1e-4, "T": 0.25, "record_every": 25},
        "stefan": {"rho0": 1.0, "v_inf": 0.5, "eta": 1.0, "t0": 0.25},
        "outputs": str(tmp_path),
    }
    res = run_stefan_oracle(resolve(raw))
    elapsed = time.time() - t0
    ok = res["max_rel_error_late"] < 0.02 and elapsed < 60.0
    assert _report(
        7,
        ok,
        f"front rel err {res['max_rel_error_late']:.2e} (<2%), lambda={res['lambda']:.4f}, "
        f"{elapsed:.1f}s (<60s)",
    )


def test_acceptance_8_exit_time_sandwich():
    grid = Grid(1.0, 127)
    ambient = AmbientGrid(-3.0, 3.0, 121)
    model = make_model(
        ambient,
        sigma=sigma_affine(additive=1.0, multiplicative=0.3),
        rho=rho_tanh(1.0),
        bounded=True,
    )
    op = SpectralOperator(grid, 1.0, 1.0)
    X0 = _sine_state(grid, 0.5)
    n_big = 32
    cfg_inf = SolveConfig(dt=2e-3, T=0.5, n=INF, record_every=250)
    cfg_n = SolveConfig(dt=2e-3, T=0.5, n=n_big, record_every=250)
    seeds = range(100)
    inf_trajs = [solve(op, model, cfg_inf, X0, NoiseStream(seed=s), ambient) for s in seeds]
    sups = np.array([np.max(t.norm_h2) for t in inf_trajs])
    r = float(np.quantile(sups, 0.7))  # ~30% of reference paths cross
    eps = 0.5
    crossed = int(np.sum(sups > r))
    holds = 0
    for s, t_inf in zip(seeds, inf_trajs):
        t_n = solve(op, model, cfg_n, X0, NoiseStream(seed=s), ambient)
        sigma_n, _ = exit_times(t_n, r + eps)
        _, tau_inf = exit_times(t_inf, r)
        if sigma_n >= tau_inf:
            holds += 1
    ok = holds >= 95
    assert _report(
        8,
        ok,
        f"sigma_n(r+eps) >= tau_inf(r) on {holds}/100 paths (>=95), r={r:.3f}, "
        f"{crossed}% of reference paths crossed r",
    )

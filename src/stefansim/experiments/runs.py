"""Batch run modes: single paths, convergence studies, the classical-front
oracle and the property suite.

Every (n, seed) cell is an independent job keyed by its identity, so output
is deterministic regardless of worker scheduling.  Workers rebuild their
objects from the raw config mapping because coefficient closures do not
pickle.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from ..coefficients import INF
from ..grids import Grid, GridFunction, State, diff2, interface_weights, sq_norm
from ..noise import NoiseStream
from ..solver import Trajectory, solve
from ..transform import F_transform
from . import lemma_suite
from .config import ExperimentConfig, resolve

try:
    from importlib.metadata import version as _pkg_version

    _VERSION = _pkg_version("stefansim")
except Exception:  # pragma: no cover - fallback for uninstalled source trees
    _VERSION = "unknown"

__all__ = [
    "ConvergenceReport",
    "run_simulate",
    "run_converge",
    "run_stefan_oracle",
    "run_lemma_suite",
    "stefan_front_coefficient",
]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _n_label(n) -> str:
    return "inf" if n == INF else str(int(n))


def _ensure_dir(path: str):
    os.makedirs(path, exist_ok=True)


def _write_manifest(cfg: ExperimentConfig, extra: Optional[dict] = None):
    _ensure_dir(cfg.out_dir)
    manifest = {"version": _VERSION, "config": cfg.raw, "warnings": cfg.warnings}
    if extra:
        manifest.update(extra)
    with open(os.path.join(cfg.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1, default=str)
        fh.write("\n")


class _SharedStream:
    """Draws each increment of ``stream`` once and replays that same increment to every later caller.

    The members of an interface family on one seed read identical increments;
    sharing the draw saves recomputing it per member.
    """

    def __init__(self, stream: NoiseStream):
        self.stream = stream
        self.seed = stream.seed
        self._drawn = {}

    def increment(self, step_index, dt, ambient):
        key = (step_index, dt, ambient)
        inc = self._drawn.get(key)
        if inc is None:
            inc = self._drawn[key] = self.stream.increment(step_index, dt, ambient)
        return inc


def _solve_cell(cfg: ExperimentConfig, n, stream) -> Trajectory:
    scfg = replace(cfg.solve, n=n)
    return solve(cfg.operator, cfg.model, scfg, cfg.initial, stream, cfg.ambient)


def _padded_phases(grid: Grid, values: np.ndarray) -> np.ndarray:
    """(records, 2, M+2) padded phase rows of dense state rows u1 | u2 | p."""
    M = grid.M
    out = np.zeros((len(values), 2, M + 2))
    out[:, :, 1:-1] = values[:, : 2 * M].reshape(-1, 2, M)
    return out


def _write_trajectory_csv(path: str, traj: Trajectory):
    h = traj.grid.h
    V = _padded_phases(traj.grid, traj.values)
    p = traj.values[:, -1]
    norms = [np.sqrt(sq_norm(V, h, order, axis=(1, 2)) + p * p) for order in ("L2", "H1", "H2")]
    traces = V @ interface_weights(traj.grid, INF)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "p", "norm_L2", "norm_H1", "norm_H2", "trace_grad_u1", "trace_grad_u2"])
        for row in zip(traj.times, p, *norms, traces[:, 0], traces[:, 1]):
            w.writerow([_fmt(v) for v in row])


def _write_profile_csv(path: str, X: State):
    g = X.grid
    pts = np.concatenate((X.p - g.nodes[::-1], [X.p], X.p + g.nodes))
    prof = F_transform(X, pts)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "v"])
        for x, v in zip(prof.x, prof.values):
            w.writerow([_fmt(x), _fmt(v)])


def _dump_noise(path: str, cfg: ExperimentConfig, seed: int):
    stream = NoiseStream(seed=seed)
    rows = [
        stream.increment(k, cfg.solve.dt, cfg.ambient).dW
        for k in range(cfg.solve.num_steps)
    ]
    np.asarray(rows, dtype=np.float64).tofile(path)


def _simulate_cell(raw: dict, n, seed: int) -> dict:
    cfg = resolve(raw)
    traj = _solve_cell(cfg, n, NoiseStream(seed=seed))
    label = _n_label(n)
    base = os.path.join(cfg.out_dir, f"traj_n{label}_seed{seed}")
    _write_trajectory_csv(base + ".csv", traj)
    if cfg.profiles:
        for k, X in enumerate(traj.states):
            _write_profile_csv(base + f"_profile{k}.csv", X)
    if cfg.dump_noise:
        _dump_noise(base + "_noise.bin", cfg, seed)
    meta = {
        "n": label,
        "seed": seed,
        "exited": traj.exited,
        "exit": None
        if traj.exit is None
        else {
            "step": traj.exit.step,
            "time": traj.exit.time,
            "threshold": traj.exit.threshold,
            "kind": traj.exit.kind,
        },
        "final_time": float(traj.times[-1]),
        "final_p": float(traj.final_state.p),
    }
    with open(base + "_exit.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return meta


def run_simulate(cfg: ExperimentConfig) -> List[dict]:
    """One path per (n, seed); writes trajectory CSVs and exit metadata."""
    _ensure_dir(cfg.out_dir)
    cells = [(n, s) for n in cfg.family for s in cfg.seeds]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = {(n, s): pool.submit(_simulate_cell, cfg.raw, n, s) for n, s in cells}
            metas = [futures[key].result() for key in cells]
    else:
        metas = [_simulate_cell(cfg.raw, n, s) for n, s in cells]
    _write_manifest(cfg, {"mode": "simulate", "cells": len(cells)})
    return metas


# ---------------------------------------------------------------------------
# Convergence study


@dataclass
class ConvergenceReport:
    """Per-n distance statistics against the n = inf reference."""

    family: List  # finite members, ascending
    seeds: List[int]
    q: int
    # maps n -> per-seed arrays, aligned with ``seeds``
    h1_dist: Dict = field(default_factory=dict)
    d2l2_dist: Dict = field(default_factory=dict)
    p_dist: Dict = field(default_factory=dict)
    exploded: Dict = field(default_factory=dict)
    mean_h1: Dict = field(default_factory=dict)
    mean_d2l2: Dict = field(default_factory=dict)
    mean_p: Dict = field(default_factory=dict)
    slope: float = math.nan
    warnings: List[str] = field(default_factory=list)

    def finalize(self):
        for n in self.family:
            for src, dst_ in (
                (self.h1_dist, self.mean_h1),
                (self.d2l2_dist, self.mean_d2l2),
                (self.p_dist, self.mean_p),
            ):
                a = np.asarray(src[n], dtype=float)
                dst_[n] = float(np.mean(a**self.q) ** (1.0 / self.q))
        xs = np.log([float(n) for n in self.family])
        ys = np.log([max(self.mean_h1[n], 1e-300) for n in self.family])
        if len(self.family) >= 2 and np.all(np.isfinite(ys)):
            self.slope = float(np.polyfit(xs, ys, 1)[0])

    def rows(self):
        out = []
        for n in self.family:
            out.append(
                [
                    _n_label(n),
                    _fmt(self.mean_h1[n]),
                    _fmt(self.mean_d2l2[n]),
                    _fmt(self.mean_p[n]),
                    str(int(np.sum(self.exploded[n]))),
                ]
            )
        return out


def _pair_distances(ref: Trajectory, traj: Trajectory):
    """Sup-over-time distances on the common pre-exit recorded window."""

    def usable(t: Trajectory) -> int:
        k = len(t.values)
        if t.exited:
            k -= 1  # the crossing state lies outside the half-open survival window
        return k

    kmax = min(usable(ref), usable(traj))
    if kmax == 0:
        return 0.0, 0.0, 0.0
    h = ref.grid.h
    diff = ref.values[:kmax] - traj.values[:kmax]
    V = _padded_phases(ref.grid, diff)
    g2 = diff2(V, h)
    d_h1 = math.sqrt(np.max(sq_norm(V, h, "H1", axis=(1, 2))))
    d_d2 = math.sqrt(np.max(h * np.sum(g2 * g2, axis=(1, 2))))
    d_p = float(np.max(np.abs(diff[:, -1])))
    return d_h1, d_d2, d_p


def _converge_seed(raw: dict, seed: int) -> dict:
    """All family members for one seed, all driven by the identical increments, drawn once."""
    cfg = resolve(raw)
    stream = _SharedStream(NoiseStream(seed=seed))
    trajs = {n: _solve_cell(cfg, n, stream) for n in cfg.family}
    ref = trajs[INF]
    out = {}
    for n in cfg.family:
        if n == INF:
            continue
        d_h1, d_d2, d_p = _pair_distances(ref, trajs[n])
        out[n] = (d_h1, d_d2, d_p, bool(trajs[n].exited or ref.exited))
    return out


def run_converge(cfg: ExperimentConfig) -> ConvergenceReport:
    """Monte Carlo distances to the sharp-interface reference, plus a rate fit."""
    finite = sorted(n for n in cfg.family if n != INF)
    report = ConvergenceReport(family=finite, seeds=list(cfg.seeds), q=cfg.q, warnings=list(cfg.warnings))
    for n in finite:
        report.h1_dist[n] = []
        report.d2l2_dist[n] = []
        report.p_dist[n] = []
        report.exploded[n] = []

    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = {s: pool.submit(_converge_seed, cfg.raw, s) for s in cfg.seeds}
            per_seed = [futures[s].result() for s in cfg.seeds]
    else:
        per_seed = [_converge_seed(cfg.raw, s) for s in cfg.seeds]

    for cell in per_seed:
        for n in finite:
            d_h1, d_d2, d_p, exploded = cell[n]
            report.h1_dist[n].append(d_h1)
            report.d2l2_dist[n].append(d_d2)
            report.p_dist[n].append(d_p)
            report.exploded[n].append(exploded)
    report.finalize()

    _ensure_dir(cfg.out_dir)
    with open(os.path.join(cfg.out_dir, "report.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "mean_H1_dist", "mean_d2L2_dist", "mean_p_dist", "n_exploded"])
        for row in report.rows():
            w.writerow(row)
    _write_manifest(cfg, {"mode": "converge", "slope": report.slope})
    return report


# ---------------------------------------------------------------------------
# Classical one-phase front oracle


def _front_equation(lam: float) -> float:
    """lambda * exp(lambda^2) * erfc(lambda), increasing from 0 to 1/sqrt(pi)."""
    return lam * math.exp(lam * lam) * math.erfc(lam)


def stefan_front_coefficient(rho0: float, v_inf: float, eta: float) -> float:
    """Similarity coefficient lambda with front 2 lambda sqrt(eta t), by bisection.

    Solves lambda e^{lambda^2} erfc(lambda) = rho0 v_inf / (eta sqrt(pi)); a
    root exists iff the right-hand side is below 1/sqrt(pi), i.e. for Stefan
    number rho0 v_inf / eta < 1.
    """
    if rho0 == 0.0:
        return 0.0
    target = rho0 * v_inf / (eta * math.sqrt(math.pi))
    if not 0.0 < target < 1.0 / math.sqrt(math.pi):
        raise ValueError(
            f"no similarity root: rho0*v_inf/eta = {rho0 * v_inf / eta} must lie in (0, 1)"
        )
    lo, hi = 0.0, 8.0
    if _front_equation(hi) <= target:
        raise ValueError("bisection bracket exhausted")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _front_equation(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _stefan_initial_state(grid: Grid, lam: float, v_inf: float, eta: float, t0: float) -> State:
    """Similarity profile at time t0, pulled back to the boundary frame."""
    p0 = 2.0 * lam * math.sqrt(eta * t0)
    denom = math.erfc(lam)
    scale = 2.0 * math.sqrt(eta * t0)

    def u1_fn(y):
        from scipy.special import erfc

        return v_inf * (1.0 - erfc((p0 + y) / scale) / denom)

    u1 = GridFunction.from_callable(grid, u1_fn)
    return State(u1, GridFunction.zero(grid), p0)


def run_stefan_oracle(cfg: ExperimentConfig) -> dict:
    """Deterministic front-tracking run against the similarity solution.

    The model section is ignored except for eta_plus; the run itself uses
    zero reaction, zero noise and the linear interface map with strength
    rho0, which is the classical melting configuration.
    """
    sd = cfg.raw.get("stefan", {})
    rho0 = float(sd.get("rho0", 1.0))
    v_inf = float(sd.get("v_inf", 0.5))
    eta = float(sd.get("eta", cfg.model.eta_plus))
    t0 = float(sd.get("t0", 0.25))

    lam = stefan_front_coefficient(rho0, v_inf, eta)
    X0 = _stefan_initial_state(cfg.grid, lam, v_inf, eta, t0)

    from .. import coefficients as coef
    from ..operators import SpectralOperator

    rho, rho_lip = coef.rho_linear(rho0)
    model = coef.CoefficientSet(
        eta_plus=eta,
        eta_minus=eta,
        mu_plus=coef.mu_zero(),
        mu_minus=coef.mu_zero(),
        sigma_plus=coef.sigma_zero(),
        sigma_minus=coef.sigma_zero(),
        rho=rho,
        rho_lipschitz=rho_lip,
        kernel=cfg.model.kernel,
        rho_bounded=False,
        sigma_affine_flag=True,
        mu_bounded_slopes=True,
    )
    op = SpectralOperator(cfg.grid, eta, eta)
    scfg = replace(cfg.solve, n=INF, truncation=None)
    traj = solve(op, model, scfg, X0, NoiseStream(seed=0), cfg.ambient)

    times = traj.times
    path = traj.boundary_path
    exact = 2.0 * lam * np.sqrt(eta * (t0 + times))
    late = times >= 0.5 * cfg.solve.T
    if rho0 == 0.0:
        rel = np.abs(path - path[0])
        max_rel = float(np.max(rel))
    else:
        rel = np.abs(path - exact) / np.abs(exact)
        max_rel = float(np.max(rel[late]))

    result = {
        "lambda": lam,
        "p0": float(path[0]),
        "p_final": float(path[-1]),
        "p_exact_final": float(exact[-1]),
        "max_rel_error_late": max_rel,
    }
    _ensure_dir(cfg.out_dir)
    with open(os.path.join(cfg.out_dir, "stefan_report.json"), "w") as fh:
        json.dump(result, fh, sort_keys=True, indent=1)
        fh.write("\n")
    _write_manifest(cfg, {"mode": "stefan-oracle"})
    return result


# ---------------------------------------------------------------------------
# Property suite


def run_lemma_suite(cfg: ExperimentConfig) -> List[lemma_suite.LemmaResult]:
    results = lemma_suite.run_suite(
        cfg.model,
        cfg.operator,
        cfg.grid,
        cfg.ambient,
        cfg.family,
        samples=cfg.lemma_samples,
        seed=0,
    )
    _ensure_dir(cfg.out_dir)
    with open(os.path.join(cfg.out_dir, "lemma_suite.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["property", "status", "worst", "allowed", "detail"])
        for r in results:
            w.writerow(r.row())
    _write_manifest(cfg, {"mode": "lemma-suite", "n_checks": len(results)})
    return results

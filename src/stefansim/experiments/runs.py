"""Batch run modes: single paths, convergence studies, the classical-front
oracle and the property suite.

Both Monte Carlo modes run one cell per seed, an independent job keyed by
its seed, so output is deterministic regardless of worker scheduling.  Every
cell, serial or in a worker, receives the resolved config, which pickles;
``_map_cells`` runs the seeds in order, or over ``jobs`` worker processes,
never more than there are seeds.  A cell solves the seed's family on one
``NoiseStream``, which replays its blocks to every member and noise dump; a
convergence cell holds its n = inf reference and one member at a time.  The
report holds only the per-seed distances and derives the q-means, rows and a
closed-form slope, so no run mode calls LAPACK.

A run imports only what its mode calls: ``_map_cells`` imports the process
pool (``concurrent.futures`` with ``multiprocessing``) only when it forks,
and ``run_lemma_suite`` imports the lemma battery (with ``sampling``), so a
serial simulate, converge or stefan-oracle run loads neither.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, replace
from typing import Dict, List

import numpy as np

from .. import __version__
from ..coefficients import INF
from ..grids import Grid, diff2, interface_weights, padded, sq_norm
from ..noise import NoiseStream
from ..solver import Trajectory, solve
from ..transform import F_transform
from .config import ExperimentConfig, resolve  # noqa: F401, the benchmark calls and traces runs.resolve

__all__ = [
    "ConvergenceReport",
    "run_simulate",
    "run_converge",
    "run_stefan_oracle",
    "run_lemma_suite",
]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _n_label(n) -> str:
    return "inf" if n == INF else str(int(n))


def _write_csv(path: str, header: list, rows):
    """Mixed-type rows through ``csv.writer``, which quotes free-text fields."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_table(path: str, header: list, table: np.ndarray):
    """A 2-D float table as CSV in one write: ``%.17g`` fields and CRLF line ends.

    The bytes equal ``_write_csv(path, header, ([_fmt(v) for v in row] for row in table))``;
    no field of a float or of the header needs quoting.
    """
    rows, cols = table.shape
    line = ",".join(["%.17g"] * cols) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + (line * rows) % tuple(table.ravel().tolist()))


def _write_json(path: str, obj: dict):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1, default=str)
        fh.write("\n")


def _write_manifest(cfg: ExperimentConfig, extra: dict):
    """``config`` is the mapping ``cfg`` was resolved from; ``run`` is what ran."""
    run = {"out_dir": cfg.out_dir, "jobs": cfg.jobs, "seeds": cfg.seeds, "family": [_n_label(n) for n in cfg.family]}
    manifest = {"version": __version__, "config": cfg.raw, "run": run, "warnings": cfg.warnings, **extra}
    _write_json(os.path.join(cfg.out_dir, "manifest.json"), manifest)


def _map_cells(cfg: ExperimentConfig, cell) -> list:
    """``[cell(cfg, seed) for seed in cfg.seeds]``, over ``min(cfg.jobs, len(cfg.seeds))`` workers if more than one."""
    jobs = min(cfg.jobs, len(cfg.seeds))
    if jobs <= 1:
        return [cell(cfg, s) for s in cfg.seeds]
    from concurrent.futures import ProcessPoolExecutor  # with multiprocessing, only when a run forks

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(cell, cfg, s) for s in cfg.seeds]
        return [f.result() for f in futures]


def _solve_cell(cfg: ExperimentConfig, n, stream) -> Trajectory:
    scfg = replace(cfg.solve, n=n)
    return solve(cfg.operator, cfg.model, scfg, cfg.initial, stream, cfg.ambient)


def _write_trajectory_csv(path: str, traj: Trajectory):
    h = traj.grid.h
    V = padded(traj.grid, traj.values)
    p = traj.values[:, -1]
    norms = [np.sqrt(sq_norm(V, h, order, axis=(1, 2)) + p * p) for order in ("L2", "H1", "H2")]
    traces = V @ interface_weights(traj.grid, INF)
    _write_table(
        path,
        ["t", "p", "norm_L2", "norm_H1", "norm_H2", "trace_grad_u1", "trace_grad_u2"],
        np.column_stack((traj.times, p, *norms, traces)),
    )


def _write_profile_csv(path: str, grid: Grid, x: np.ndarray):
    p = float(x[-1])
    pts = np.concatenate((p - grid.nodes[::-1], [p], p + grid.nodes))
    _write_table(path, ["x", "v"], np.column_stack((pts, F_transform(grid, x, pts))))


def _simulate_seed(cfg: ExperimentConfig, seed: int) -> List[dict]:
    """Every member's path on the seed's one stream, in family order, each with its files and exit metadata."""
    stream, metas = NoiseStream(seed), []
    for n in cfg.family:
        traj = _solve_cell(cfg, n, stream)
        label = _n_label(n)
        base = os.path.join(cfg.out_dir, f"traj_n{label}_seed{seed}")
        _write_trajectory_csv(base + ".csv", traj)
        if cfg.profiles:
            for k, x in enumerate(traj.values):
                _write_profile_csv(base + f"_profile{k}.csv", traj.grid, x)
        if cfg.dump_noise:  # the seed's num_steps increments as raw float64 rows, replayed by the stream
            with open(base + "_noise.bin", "wb") as fh:
                fh.writelines(stream.increments(cfg.solve.num_steps, cfg.solve.dt, cfg.ambient))
        meta = {
            "n": label,
            "seed": seed,
            "exited": traj.exited,
            "exit": None if traj.exit is None else asdict(traj.exit),
            "final_time": float(traj.times[-1]),
            "final_p": float(traj.values[-1, -1]),
        }
        _write_json(base + "_exit.json", meta)
        metas.append(meta)
    return metas


def run_simulate(cfg: ExperimentConfig) -> List[dict]:
    """One path per (n, seed), each seed's family on one stream; writes their files and returns their metas n-major."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    metas = [m for member in zip(*_map_cells(cfg, _simulate_seed)) for m in member]
    _write_manifest(cfg, {"mode": "simulate", "cells": len(metas)})
    return metas


# ---------------------------------------------------------------------------
# Convergence study


@dataclass
class ConvergenceReport:
    """Per-seed distances of each finite n to the n = inf reference, and what derives from them.

    ``h1_dist``, ``d2l2_dist``, ``p_dist`` and ``exploded`` map each n of
    ``family`` to a list aligned with ``seeds``.  The report keeps nothing
    else: ``rows()`` and ``slope`` recompute the q-means from these lists.
    """

    family: List  # finite members, ascending
    seeds: List[int]
    q: int
    h1_dist: Dict
    d2l2_dist: Dict
    p_dist: Dict
    exploded: Dict

    def q_mean(self, dist: Dict, n) -> float:
        """(mean over seeds of d^q)^(1/q) of member n's distances in ``dist``."""
        return float(np.mean(np.asarray(dist[n], dtype=float) ** self.q) ** (1.0 / self.q))

    @property
    def slope(self) -> float:
        """Least-squares slope of log q-mean H1 distance against log n; NaN below two members or at a non-finite log."""
        xs = [math.log(n) for n in self.family]
        ys = [math.log(max(self.q_mean(self.h1_dist, n), 1e-300)) for n in self.family]
        if len(xs) < 2 or not all(map(math.isfinite, ys)):
            return math.nan
        xm, ym = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
        return math.fsum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / math.fsum((x - xm) ** 2 for x in xs)

    def rows(self):
        dists = (self.h1_dist, self.d2l2_dist, self.p_dist)
        return [
            [_n_label(n), *(_fmt(self.q_mean(d, n)) for d in dists), str(int(np.sum(self.exploded[n])))]
            for n in self.family
        ]


def _pair_distances(ref: Trajectory, traj: Trajectory):
    """Sup-over-time distances on the common pre-exit recorded window, and whether either path exited."""
    exited = bool(traj.exited or ref.exited)
    # an exited path's last recorded row is dropped: a "radius" or "window"
    # exit records the state it stops at, outside the half-open survival
    # window; a "nonfinite" exit records nothing at its step, so the row it
    # drops is its last finite recorded state
    kmax = min(len(ref.values) - ref.exited, len(traj.values) - traj.exited)
    if kmax == 0:
        return 0.0, 0.0, 0.0, exited
    h = ref.grid.h
    diff = ref.values[:kmax] - traj.values[:kmax]
    V = padded(ref.grid, diff)
    g2 = diff2(V, h)
    d_h1 = math.sqrt(np.max(sq_norm(V, h, "H1", axis=(1, 2))))
    d_d2 = math.sqrt(np.max(h * np.sum(g2 * g2, axis=(1, 2))))
    d_p = float(np.max(np.abs(diff[:, -1])))
    return d_h1, d_d2, d_p, exited


def _converge_seed(cfg: ExperimentConfig, seed: int) -> dict:
    """Each finite member's ``_pair_distances`` to the n = inf reference for one seed.

    The reference is solved first; each member is dropped once its distances are taken.
    """
    stream = NoiseStream(seed)
    ref = _solve_cell(cfg, INF, stream)
    return {n: _pair_distances(ref, _solve_cell(cfg, n, stream)) for n in cfg.family if n != INF}


def run_converge(cfg: ExperimentConfig) -> ConvergenceReport:
    """Monte Carlo distances to the sharp-interface reference, plus a rate fit."""
    finite = sorted(n for n in cfg.family if n != INF)
    os.makedirs(cfg.out_dir, exist_ok=True)
    per_seed = _map_cells(cfg, _converge_seed)
    # the four statistics, each as n -> one list aligned with the seeds
    stats = ({n: [cell[n][i] for cell in per_seed] for n in finite} for i in range(4))
    report = ConvergenceReport(finite, list(cfg.seeds), cfg.q, *stats)

    _write_csv(
        os.path.join(cfg.out_dir, "report.csv"),
        ["n", "mean_H1_dist", "mean_d2L2_dist", "mean_p_dist", "n_exploded"],
        report.rows(),
    )
    _write_manifest(cfg, {"mode": "converge", "slope": report.slope})
    return report


# ---------------------------------------------------------------------------
# Classical one-phase front oracle


def run_stefan_oracle(cfg: ExperimentConfig) -> dict:
    """Deterministic front-tracking run against the similarity solution.

    ``cfg`` is resolved in stefan-oracle mode, so its model, operator,
    initial row and solve settings are the classical melting run of its
    ``stefan`` section (see ``config.resolve``); this solves it and compares
    the front with ``cfg.stefan``.
    """
    front = cfg.stefan
    traj = solve(cfg.operator, cfg.model, cfg.solve, cfg.initial, NoiseStream(seed=0), cfg.ambient)

    times = traj.times
    path = traj.boundary_path
    exact = front.position(times)
    late = times >= 0.5 * cfg.solve.T
    if front.rho0 == 0.0:
        rel = np.abs(path - path[0])
        max_rel = float(np.max(rel))
    else:
        rel = np.abs(path - exact) / np.abs(exact)
        max_rel = float(np.max(rel[late]))

    result = {
        "lambda": front.lam,
        "p0": float(path[0]),
        "p_final": float(path[-1]),
        "p_exact_final": float(exact[-1]),
        "max_rel_error_late": max_rel,
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.out_dir, "stefan_report.json"), result)
    _write_manifest(cfg, {"mode": "stefan-oracle"})
    return result


# ---------------------------------------------------------------------------
# Property suite


def run_lemma_suite(cfg: ExperimentConfig) -> list:
    """The lemma battery's ``LemmaResult`` rows, written to ``lemma_suite.csv``."""
    from . import lemma_suite  # with sampling, only in this mode

    results = lemma_suite.run_suite(
        cfg.model, cfg.operator, cfg.ambient, cfg.family, samples=cfg.lemma_samples, seed=0
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(
        os.path.join(cfg.out_dir, "lemma_suite.csv"),
        ["property", "status", "worst", "allowed", "detail"],
        (r.row() for r in results),
    )
    _write_manifest(cfg, {"mode": "lemma-suite", "n_checks": len(results)})
    return results

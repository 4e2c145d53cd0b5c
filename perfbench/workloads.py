"""Workload generator and correctness gate for the stefansim benchmark.

The benchmark writes every config itself, so an edit under ``configs/`` cannot
shift what is measured.  The workload seed picks the Monte Carlo seed range;
the program only ever sees the generated mapping.

Each entry-point call is gated cell by cell, where a cell is one ``(n, seed)``
trajectory.  A call is compared with three things:

* the reference outputs recorded by ``record_refs.py`` for the same workload
  seed, within ``RTOL``/``ATOL`` (seeds without a reference skip this);
* seed-free invariants: every output finite, profile files well formed,
  the Stefan front error below ``STEFAN_MAX_REL_ERROR``;
* the first full-size call of the same run, exactly: reruns are deterministic,
  and for ``simulate-profiles`` the written files are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable, Dict, Optional

WORKLOADS = ("converge-example", "stefan-front", "simulate-profiles")

# A last-bit change in a reduction (batching, reordering, a factorized
# coloring) moves these outputs by about 1e-13 relative after the 125-2500
# steps of a workload; a wrong coloring or drift moves them by order one.
RTOL = 1e-8
ATOL = 1e-12
STEFAN_MAX_REL_ERROR = 0.02  # Acceptance 7

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# configs/example.yaml at the commit the benchmark was defined at.
_EXAMPLE = {
    "grid": {"L": 2.0, "M": 127},
    "ambient": {"pad": 1.0, "dy": 0.05},
    "model": {
        "mu": {"name": "zero"},
        "sigma": {"name": "affine", "additive": 0.5, "multiplicative": 0.2},
        "rho": {"name": "tanh", "rho0": 1.0, "slope": 1.0},
        "kernel": {"scale": 0.5},
    },
    "initial": {"kind": "bump", "amplitude": 1.0, "width": 0.5, "p0": 0.0},
    "solve": {"dt": 2.0e-3, "T": 0.25, "record_every": 5, "truncation_r": 10.0, "R_max": 1.0e6},
}

# configs/stefan.yaml at the same commit.
_STEFAN = {
    "grid": {"L": 4.0, "M": 255},
    "ambient": {"pad": 1.5},
    "model": {},
    "solve": {"dt": 1.0e-4, "T": 0.25, "record_every": 25},
    "stefan": {"rho0": 1.0, "v_inf": 0.5, "eta": 1.0, "t0": 0.25},
}

# configs/example.yaml has 16 seeds.  At 16 a 30 s run holds only 3-4 calls
# and the run medians spread by about 0.2 on a 2-vCPU host; 8 seeds give
# about twice as many calls per run.
CONVERGE_SEEDS = 8
SIMULATE_SEEDS = 4


def make_config(name: str, seed: int, out_dir: str, smoke: bool = False) -> dict:
    """Raw config mapping for one workload; ``smoke`` shrinks it for warm-up and self-checks."""
    if seed < 0:
        raise ValueError(f"workload seed must be nonnegative, got {seed}")
    if name == "converge-example":
        k = 1 if smoke else CONVERGE_SEEDS
        raw = dict(_EXAMPLE, mode="converge", family=[4, 8, 16, 32, "inf"],
                   seeds=list(range(k * seed, k * seed + k)))
    elif name == "stefan-front":
        # Deterministic (sigma = 0, fixed noise key): the seed changes nothing.
        raw = dict(_STEFAN, mode="stefan-oracle")
        if smoke:
            raw["solve"] = dict(_STEFAN["solve"], T=0.01)
    elif name == "simulate-profiles":
        k = 1 if smoke else SIMULATE_SEEDS
        raw = dict(_EXAMPLE, mode="simulate", family=[8, "inf"], profiles=True,
                   seeds=list(range(k * seed, k * seed + k)))
        raw["solve"] = dict(_EXAMPLE["solve"], record_every=1)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    raw["outputs"] = out_dir
    raw["jobs"] = 1
    return json.loads(json.dumps(raw))  # deep copy, plain data only


def entry_point(name: str) -> Callable:
    from stefansim.experiments import run_converge, run_simulate, run_stefan_oracle

    return {
        "converge-example": run_converge,
        "stefan-front": run_stefan_oracle,
        "simulate-profiles": run_simulate,
    }[name]


def cell_ids(name: str, raw: dict) -> list:
    if name == "stefan-front":
        return ["inf/front"]
    return [f"{n}/{s}" for n in raw["family"] for s in raw["seeds"]]


def clear_outputs(out_dir: str):
    shutil.rmtree(out_dir, ignore_errors=True)


def output_bytes(out_dir: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(out_dir):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


# ---------------------------------------------------------------------------
# Per-cell summaries of a call's outputs


def _floats(row):
    return [float(v) for v in row]


def _summarize_converge(raw: dict, result, out_dir: str) -> Dict[str, object]:
    with open(os.path.join(out_dir, "report.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["n", "mean_H1_dist", "mean_d2L2_dist", "mean_p_dist", "n_exploded"]:
        raise ValueError(f"unexpected report.csv header {rows[0]}")
    cells: Dict[str, object] = {
        "*": {
            "slope": float(result.slope),
            "report": [[r[0]] + _floats(r[1:4]) + [int(r[4])] for r in rows[1:]],
        }
    }
    for s in result.seeds:
        cells[f"inf/{s}"] = None  # the reference path; only its distances are visible
    for n in result.family:
        for i, s in enumerate(result.seeds):
            cells[f"{int(n)}/{s}"] = [
                float(result.h1_dist[n][i]),
                float(result.d2l2_dist[n][i]),
                float(result.p_dist[n][i]),
                bool(result.exploded[n][i]),
            ]
    return cells


def _summarize_stefan(raw: dict, result, out_dir: str) -> Dict[str, object]:
    with open(os.path.join(out_dir, "stefan_report.json")) as fh:
        on_disk = json.load(fh)
    if on_disk != result:
        raise ValueError("stefan_report.json differs from the returned result")
    return {"inf/front": on_disk}


_TRAJ_HEADER = ["t", "p", "norm_L2", "norm_H1", "norm_H2", "trace_grad_u1", "trace_grad_u2"]


def _simulate_cell(base: str, M: int) -> dict:
    """Parse one cell's trajectory CSV, exit JSON and profile CSVs."""
    with open(base + ".csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != _TRAJ_HEADER:
        raise ValueError(f"{base}.csv: unexpected header {rows[0]}")
    table = [_floats(r) for r in rows[1:]]
    with open(base + "_exit.json") as fh:
        exit_meta = json.load(fh)
    if exit_meta["final_p"] != table[-1][1] or exit_meta["final_time"] != table[-1][0]:
        raise ValueError(f"{base}_exit.json disagrees with the last trajectory row")
    sum_x = sum_v = sumsq_v = 0.0
    for k in range(len(table)):
        with open(base + f"_profile{k}.csv", newline="") as fh:
            prof = list(csv.reader(fh))
        if prof[0] != ["x", "v"] or len(prof) != 2 * M + 2:
            raise ValueError(f"{base}_profile{k}.csv: bad header or {len(prof)} lines")
        xs = [float(r[0]) for r in prof[1:]]
        vs = [float(r[1]) for r in prof[1:]]
        if xs[M] != table[k][1] or vs[M] != 0.0:
            raise ValueError(f"{base}_profile{k}.csv: profile not zero at the interface")
        sum_x += math.fsum(xs)
        sum_v += math.fsum(vs)
        sumsq_v += math.fsum(v * v for v in vs)
    if os.path.exists(base + f"_profile{len(table)}.csv"):
        raise ValueError(f"{base}: more profile files than recorded states")
    return {
        "records": len(table),
        "final": table[-1],
        "colsum": [math.fsum(col) for col in zip(*table)],
        "exit": exit_meta,
        "profiles": [len(table), sum_x, sum_v, sumsq_v],
    }


def _cell_digest(out_dir: str, prefix: str) -> str:
    h = hashlib.sha256()
    for f in sorted(os.listdir(out_dir)):
        if f.startswith(prefix + ".") or f.startswith(prefix + "_"):
            h.update(f.encode() + b"\0")
            with open(os.path.join(out_dir, f), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class _SimulateSummarizer:
    """Parses a cell only when its bytes differ from every cell parsed before."""

    def __init__(self):
        self.by_digest: Dict[str, dict] = {}

    def __call__(self, raw: dict, result, out_dir: str) -> Dict[str, object]:
        M = raw["grid"]["M"]
        cells: Dict[str, object] = {}
        for n in raw["family"]:
            for s in raw["seeds"]:
                prefix = f"traj_n{n}_seed{s}"
                digest = _cell_digest(out_dir, prefix)
                if digest not in self.by_digest:
                    self.by_digest[digest] = _simulate_cell(os.path.join(out_dir, prefix), M)
                cells[f"{n}/{s}"] = dict(self.by_digest[digest], digest=digest)
        return cells


# ---------------------------------------------------------------------------
# Gate


def _all_finite(x) -> bool:
    if isinstance(x, float):
        return math.isfinite(x)
    if isinstance(x, dict):
        return all(_all_finite(v) for v in x.values())
    if isinstance(x, list):
        return all(_all_finite(v) for v in x)
    return True


def _close(a, b) -> bool:
    """Structural equality with floats compared to RTOL/ATOL; digests are exact-only."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = (set(a) | set(b)) - {"digest"}
        return all(k in a and k in b and _close(a[k], b[k]) for k in keys)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)
    return a == b


def load_reference(name: str, seed: int) -> Optional[dict]:
    path = os.path.join(REFS_DIR, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        refs = json.load(fh)
    key = "any" if name == "stefan-front" else str(seed)
    return refs["seeds"].get(key)


@dataclass
class Verdict:
    cells: list
    failed: set
    notes: list


class Gate:
    """Checks every call of one workload run; remembers the first full-size call."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.reference = load_reference(name, seed)
        self.first: Optional[dict] = None
        self._summarize = {
            "converge-example": _summarize_converge,
            "stefan-front": _summarize_stefan,
            "simulate-profiles": _SimulateSummarizer(),
        }[name]

    def check(self, raw: dict, result, error: Optional[BaseException], full: bool = True) -> Verdict:
        cells = cell_ids(self.name, raw)
        if error is not None:
            return Verdict(cells, set(cells), [f"call raised {type(error).__name__}: {error}"])
        try:
            summary = self._summarize(raw, result, raw["outputs"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return Verdict(cells, set(cells), [f"outputs unreadable: {type(exc).__name__}: {exc}"])

        notes, bad = [], set()
        for cell in cells:
            if cell not in summary:
                bad.add(cell)
                notes.append(f"{cell}: no output")
        for cell, value in summary.items():
            why = []
            if not _all_finite(value):
                why.append("non-finite output")
            if self.name == "stefan-front" and not value["max_rel_error_late"] < STEFAN_MAX_REL_ERROR:
                why.append(f"max_rel_error_late {value['max_rel_error_late']} >= {STEFAN_MAX_REL_ERROR}")
            if full and self.reference is not None and not _close(value, self.reference.get(cell)):
                why.append("differs from the recorded reference")
            if full and self.first is not None and value != self.first.get(cell):
                why.append("differs from the first call of this run (non-deterministic)")
            if why:
                bad.add(cell)
                notes.append(f"{cell}: " + "; ".join(why))
        if full and self.first is None:
            self.first = summary

        failed = set(cells) if "*" in bad else bad - {"*"}
        if self.name == "converge-example":
            # The n = inf cell has no output of its own; it counts as wrong
            # when every distance measured against it is.
            for s in raw["seeds"]:
                finite = [f"{n}/{s}" for n in raw["family"] if n != "inf"]
                if all(c in failed for c in finite):
                    failed.add(f"inf/{s}")
        return Verdict(cells, failed, notes)

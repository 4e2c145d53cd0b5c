"""Span tracer for the benchmark's traced runs.

Hooks wrap the program's functions at the name through which they are looked
up (``stefansim.solver.drift_B``, not ``stefansim.coefficients.drift_B``), so
a hook sees exactly the calls the solver makes.  A hook whose target no longer
exists is reported as absent and the run goes on without it.  Spans hold the
name, start, end, parent span and the ``(n, seed)`` cell they ran in; they are
kept in memory and written out once the run ends.

There is one worker and no queue in any workload, so no layer waits on
another and no wait time is recorded.

Which end-to-end metric each per-layer metric should move, and where:

* ``noise.color_field.*``: ``steps_per_s``, most on stefan-front (M*J is
  largest), then converge-example.  ``noise.zeta_evals_per_step`` is 2*M*J
  today; a factorized coloring cuts it to M+J.
* ``noise.increment.calls_per_step``: ``steps_per_s`` on converge-example if
  the increment is shared across the family; unchanged on stefan-front.
* ``coefficients.drift_B.finite``: converge-example and simulate-profiles only.
* ``grids.state_norm.calls_per_step`` (about 3 with truncation, 1 without) and
  ``grids.gridfunction_allocs_per_step``: ``steps_per_s`` everywhere, and
  ``peak_rss_mb`` on simulate-profiles, which keeps every recorded state.
* ``operators.*``: ``steps_per_s``, most on stefan-front (M=255).
* ``solver.step.self_us_p50``: the per-step Python object overhead.
* ``runs.pair_distances``: ``wall_s`` on converge-example.
* ``runs.write*`` and ``transform.F_transform``: ``wall_s`` on simulate-profiles.
* ``config.resolve.*``: ``setup_s`` and, per worker, ``wall_s`` on converge-example.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict
from statistics import median
from typing import Optional

# (lookup name, span name).  Spans nest through the call stack.
SPAN_HOOKS = (
    ("stefansim.experiments.runs.resolve", "config.resolve"),
    ("stefansim.experiments.runs.solve", "solver.solve"),
    ("stefansim.solver.step", "solver.step"),
    ("stefansim.noise.NoiseStream.increment", "noise.increment"),
    ("stefansim.solver.drift_B", "coefficients.drift_B"),
    ("stefansim.solver.diffusion_C", "coefficients.diffusion_C"),
    ("stefansim.coefficients.color_field", "noise.color_field"),
    ("stefansim.solver.state_norm", "grids.state_norm"),
    ("stefansim.coefficients.state_norm", "grids.state_norm"),
    ("stefansim.solver.apply_semigroup_factors", "operators.apply_semigroup_factors"),
    ("stefansim.experiments.runs._pair_distances", "runs.pair_distances"),
    ("stefansim.experiments.runs._write_trajectory_csv", "runs.write_trajectory_csv"),
    ("stefansim.experiments.runs._write_profile_csv", "runs.write_profile_csv"),
    ("stefansim.experiments.runs._write_manifest", "runs.write_manifest"),
    ("stefansim.experiments.runs.F_transform", "transform.F_transform"),
)
WRITE_SPANS = ("runs.write_trajectory_csv", "runs.write_profile_csv", "runs.write_manifest")

# Counting hooks, (lookup name, wrapper method): too frequent or too small for spans.
COUNT_HOOKS = (
    ("stefansim.coefficients.h_r", "_h_r_wrapper"),
    ("stefansim.operators.dst", "_dst_wrapper"),
    ("stefansim.grids.GridFunction.__post_init__", "_alloc_wrapper"),
    ("stefansim.noise.Kernel.build", "_kernel_build_wrapper"),
)

INF = math.inf


def _locate(target: str):
    """(owner, attribute, raw value) for a dotted name, or None if it does not resolve."""
    parts = target.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            for p in parts[i:-1]:
                obj = getattr(obj, p)
        except AttributeError:
            return None
        attr = parts[-1]
        if isinstance(obj, type):
            raw = obj.__dict__.get(attr)
        else:
            raw = getattr(obj, attr, None)
        return None if raw is None else (obj, attr, raw)
    return None


def _n_label(n) -> str:
    return "inf" if n == INF else str(int(n))


class Tracer:
    """Installs the hooks, collects spans and counts, and restores everything on close."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, cell)
        self.stack: list = []
        self.cell: Optional[tuple] = None
        self.counts: Counter = Counter()
        self.solves: list = []  # (cell, steps, exited)
        self.absent: list = []
        self._installed: list = []
        self._solve_depth = 0

    # -- installation -----------------------------------------------------

    def install(self, spans: bool = True):
        """Hook everything; with ``spans=False`` only the per-cell step counter."""
        hooks = SPAN_HOOKS if spans else [h for h in SPAN_HOOKS if h[1] == "solver.solve"]
        for target, name in hooks:
            self._hook(target, lambda fn, name=name: self._span_wrapper(fn, name))
        if spans:
            for target, method in COUNT_HOOKS:
                self._hook(target, getattr(self, method))
        return self

    def _hook(self, target: str, make):
        found = _locate(target)
        if found is None:
            self.absent.append(target)
            return
        owner, attr, raw = found
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._installed.append((owner, attr, raw))

    def close(self):
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        is_solve = name == "solver.solve"
        is_drift = name == "coefficients.drift_B"

        def wrapper(*args, **kwargs):
            label = name
            if is_drift:
                n = args[2] if len(args) > 2 else kwargs["n"]
                label = name + (".inf" if n == INF else ".finite")
            if is_solve:
                scfg, stream = args[2], args[4]
                self.cell = (_n_label(scfg.n), getattr(stream, "seed", None))
                self._solve_depth += 1
            cell = self.cell
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (label, t0, t1, stack[-1] if stack else -1, cell)
                if is_solve:
                    self._solve_depth -= 1
                    self.cell = None
            if is_solve:
                self.solves.append((cell, len(result.norm_h2) - 1, bool(result.exited)))
            return result

        return wrapper

    def _h_r_wrapper(self, fn):
        counts = self.counts

        def h_r(spec, s):
            f = fn(spec, s)
            counts["h_r.calls"] += 1
            if f != 1.0:
                counts["h_r.active"] += 1
            return f

        return h_r

    def _dst_wrapper(self, fn):
        def dst(x, *args, **kwargs):
            out = fn(x, *args, **kwargs)
            if self._solve_depth:
                self.counts["dst.bytes"] += x.nbytes + out.nbytes
            return out

        return dst

    def _alloc_wrapper(self, fn):
        def __post_init__(obj):
            if self._solve_depth:
                self.counts["gridfunction.allocs"] += 1
            fn(obj)

        return __post_init__

    def _kernel_build_wrapper(self, fn):
        def build(cls, zeta, ambient):
            def counted_zeta(x, y):
                out = zeta(x, y)
                if self._solve_depth:
                    self.counts["zeta.evals"] += out.size
                return out

            return fn(cls, counted_zeta, ambient)

        return build

    # -- output -----------------------------------------------------------

    @property
    def steps(self) -> int:
        return sum(s for _cell, s, _exited in self.solves)

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,cell_n,cell_seed\n")
            for i, (name, t0, t1, parent, cell) in enumerate(self.spans):
                n, seed = cell if cell is not None else ("", "")
                fh.write(f"{i},{name},{t0},{t1},{parent},{n},{seed}\n")


def tail_percentile(values):
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples above it.

    Returns (value, percentile, sample count); (0.0, None, n) below 20 samples.
    """
    xs = sorted(values)
    n = len(xs)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(q * n / 100.0 - 1e-9)  # nearest-rank percentile, 1-based
        if rank >= 1 and n - rank >= 10:
            return xs[rank - 1], q, n
    return 0.0, None, n


def per_layer_metrics(tracer: Tracer, traced_walls: list, untraced_walls: list, write_bytes: list):
    """Per-layer metrics from the traced calls: name -> (value, unit, note)."""
    calls = len(traced_walls)
    durations = defaultdict(list)
    child_ns = defaultdict(int)
    for name, t0, t1, parent, _cell in tracer.spans:
        durations[name].append(t1 - t0)
        if parent >= 0:
            child_ns[parent] += t1 - t0
    self_ns = defaultdict(list)
    for i, (name, t0, t1, _parent, _cell) in enumerate(tracer.spans):
        if name in ("solver.step", "coefficients.diffusion_C"):
            self_ns[name].append(t1 - t0 - child_ns[i])

    steps = tracer.steps
    per_step = (lambda x: x / steps) if steps else (lambda x: 0.0)

    def p50_us(name, source=durations, scale=1e3, unit="us"):
        xs = source.get(name, [])
        return (median(xs) / scale if xs else 0.0, unit, f"median of {len(xs)} spans")

    def total_s(names):
        xs = [d for nm in names for d in durations.get(nm, [])]
        return (sum(xs) / 1e9 / calls, "s", f"per call, {len(xs)} spans over {calls} calls")

    tail, q, n_tail = tail_percentile(durations.get("solver.step", []))
    solves = tracer.solves
    counts = tracer.counts
    color_total = sum(durations.get("noise.color_field", [])) / 1e9
    return {
        "noise.color_field.us_p50": p50_us("noise.color_field"),
        "noise.color_field.share": (
            color_total / sum(traced_walls), "ratio", "of traced wall_s"),
        "noise.zeta_evals_per_step": (
            per_step(counts["zeta.evals"]), "1/step", "zeta evaluations inside solve, counted"),
        "noise.increment.calls_per_step": (
            per_step(len(durations.get("noise.increment", []))), "1/step", f"{steps} steps"),
        "noise.increment.us_p50": p50_us("noise.increment"),
        "coefficients.drift_B.finite.us_p50": p50_us("coefficients.drift_B.finite"),
        "coefficients.drift_B.inf.us_p50": p50_us("coefficients.drift_B.inf"),
        "coefficients.diffusion_C.self_us_p50": p50_us("coefficients.diffusion_C", self_ns),
        "coefficients.cutoff_active_frac": (
            counts["h_r.active"] / counts["h_r.calls"] if counts["h_r.calls"] else 0.0,
            "ratio", f"of {counts['h_r.calls']} h_r calls"),
        "grids.state_norm.calls_per_step": (
            per_step(len(durations.get("grids.state_norm", []))), "1/step",
            "includes the one initial norm per trajectory"),
        "grids.state_norm.us_p50": p50_us("grids.state_norm"),
        "grids.gridfunction_allocs_per_step": (
            per_step(counts["gridfunction.allocs"]), "1/step", "GridFunction constructions inside solve"),
        "operators.apply_semigroup_factors.us_p50": p50_us("operators.apply_semigroup_factors"),
        "operators.dst_bytes_per_step": (
            per_step(counts["dst.bytes"]), "B/step", "computed from DST input and output array sizes"),
        "solver.step.us_p50": p50_us("solver.step"),
        "solver.step.us_tail": (
            tail / 1e3, "us", f"p{q} of {n_tail} steps" if q else f"under 20 samples ({n_tail})"),
        "solver.step.self_us_p50": p50_us("solver.step", self_ns),
        "solver.solve.s_p50": p50_us("solver.solve", scale=1e9, unit="s"),
        "solver.exit_frac": (
            sum(e for _c, _s, e in solves) / len(solves) if solves else 0.0,
            "ratio", f"of {len(solves)} cells"),
        "runs.pair_distances.s_total": total_s(["runs.pair_distances"]),
        "runs.write.s_total": total_s(WRITE_SPANS),
        "runs.write.bytes": (sum(write_bytes) / calls, "B", "per call, size of the output tree"),
        "runs.write_profile_csv.us_p50": p50_us("runs.write_profile_csv"),
        "transform.F_transform.us_p50": p50_us("transform.F_transform"),
        "config.resolve.calls": (
            len(durations.get("config.resolve", [])) / calls, "count", "per call, incl. the initial resolve"),
        "config.resolve.s_total": total_s(["config.resolve"]),
        "tracing.overhead_s": (
            median(traced_walls) - median(untraced_walls), "s",
            f"median traced wall ({calls}) minus median untraced wall ({len(untraced_walls)})"),
        "tracing.hooks_absent": (len(tracer.absent), "count", ", ".join(tracer.absent) or "none"),
    }

"""stefansim benchmark: one workload per process, gated outputs, optional tracing.

Usage, from the repository root:

    python3 perfbench/run.py --workload converge-example --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

``--workload all`` runs every workload in turn, each in a fresh process.

Workloads (see ``workloads.py`` for the generated configs):

* ``converge-example``: ``run_converge`` on the example model, family
  {4, 8, 16, 32, inf} x 8 seeds, 40 cells, 5,000 steps.  The headline study;
  the only one with finite-n drift, shared noise and pair distances.
* ``stefan-front``: ``run_stefan_oracle``, M=255, 2,500 steps, one
  deterministic n=inf path.  Nothing to share across a family.
* ``simulate-profiles``: ``run_simulate`` with family {8, inf} x 4 seeds,
  every state recorded and written as a profile CSV.  The write path.

With ``--trace 0`` the run measures end-to-end metrics with tracing off:

* ``setup_s``: fresh interpreter to a resolved config plus one solver step,
  median over several probe processes (``setup_probe.py``);
* ``wall_s``: one entry-point call, median over the calls of the run;
* ``steps_per_s``: trajectory steps taken (sum of ``len(norm_h2) - 1``) per
  second of ``wall_s``, so that paths exiting earlier cannot read as a speed-up;
* ``peak_rss_mb``: peak resident memory of this process (``ru_maxrss``);
* ``pass_frac``: cells that passed the gate over cells attempted, i.e.
  ``1 - fail_frac``.  A cell is one ``(n, seed)`` trajectory; it fails if its
  call raises or its outputs fail the gate.

The only hook in an untraced run counts steps per cell on
``stefansim.experiments.runs.solve``: one Python call per trajectory.

With ``--trace 1`` the run alternates untraced calls and traced calls (hooks
from ``tracing.py``) and reports the per-layer metrics plus the tracing
overhead.  Every run warms up on a smoke-size config first, because the
first BLAS call of a process has been seen to take 50x its usual time.

The last line of standard output is the JSON result; the lines before it
are for people.  The full record (environment, samples, gate notes) and, in
traced runs, the spans are written under ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from statistics import median

import workloads
from tracing import Tracer, per_layer_metrics

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy is first imported, here and in every child
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

SETUP_PROBES = 7  # plus one discarded probe that warms the file cache
MIN_CALLS = 3  # waived once a run would measure for more than 3x --seconds
PROBE_TIMEOUT_S = 60


def git_sha(root: str):
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_sha": git_sha(ROOT),
    }


def measure_setup(raw: dict) -> list:
    """Seconds from process start to a resolved config and one step, per probe."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, json.dumps(raw)]
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if i:
            times.append(t1 - t0)
    return times


class Runner:
    """Calls one workload's entry point repeatedly and gates every call."""

    def __init__(self, name: str, seed: int, smoke: bool = False):
        from stefansim.experiments import runs

        self.name = name
        self.runs = runs  # resolve through the module so a traced run sees the hook
        self.entry = workloads.entry_point(name)
        self.out_dir = os.path.join(OUT, name + ("-smoke" if smoke else ""))
        self.raw = workloads.make_config(name, seed, self.out_dir, smoke=smoke)
        self.gate = workloads.Gate(name, seed)
        if smoke:
            self.gate.reference = None  # references are recorded at full size only
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def call(self, raw: dict, counter: Tracer, full: bool = True):
        """One gated call; returns (wall seconds, steps taken)."""
        workloads.clear_outputs(raw["outputs"])
        cfg = self.runs.resolve(raw)
        before = len(counter.solves)
        result = error = None
        t0 = time.perf_counter()
        try:
            result = self.entry(cfg)
        except Exception as exc:  # a failed call is data: its cells count as failed
            error = exc
            self.notes.append(traceback.format_exc())
        wall = time.perf_counter() - t0
        verdict = self.gate.check(raw, result, error, full=full)
        self.attempted += len(verdict.cells)
        self.failed += len(verdict.failed)
        self.notes.extend(verdict.notes)
        return wall, sum(steps for _cell, steps, _exited in counter.solves[before:])

    def warm_up(self):
        smoke = workloads.make_config(self.name, 0, self.out_dir + "-warmup", smoke=True)
        with Tracer().install(spans=False) as counter:
            self.call(smoke, counter, full=False)

    def untraced(self, seconds: float, min_calls: int):
        walls, rates = [], []
        start = time.perf_counter()
        with Tracer().install(spans=False) as counter:
            if counter.absent:
                raise RuntimeError(f"cannot count steps: {counter.absent} not found")
            while True:
                wall, steps = self.call(self.raw, counter)
                walls.append(wall)
                rates.append(steps / wall)
                projected = time.perf_counter() - start + wall
                if projected > seconds and (len(walls) >= min_calls or projected > 3 * seconds):
                    return walls, rates

    def traced(self, seconds: float):
        walls, write_bytes = [], []
        start = time.perf_counter()
        with Tracer().install() as tracer:
            while True:
                wall, _steps = self.call(self.raw, tracer)
                walls.append(wall)
                write_bytes.append(workloads.output_bytes(self.out_dir))
                if time.perf_counter() - start + wall > seconds:
                    return tracer, walls, write_bytes


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; ``smoke`` shrinks the workload for the self-checks."""
    env = environment()
    runner = Runner(name, seed, smoke)
    tag = f"{name}{'-smoke' if smoke else ''}-seed{seed}"
    metrics, samples = {}, {}
    if not trace:
        setup = measure_setup(runner.raw)
        runner.warm_up()
        walls, rates = runner.untraced(seconds, MIN_CALLS)
        fail_frac = runner.failed / runner.attempted
        metrics["setup_s"] = (median(setup), "s", f"median of {len(setup)} probe processes")
        metrics["wall_s"] = (median(walls), "s", f"median of {len(walls)} calls")
        metrics["steps_per_s"] = (median(rates), "1/s", f"median of {len(walls)} calls")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss, 1 sample")
        metrics["pass_frac"] = (1.0 - fail_frac, "ratio", f"{runner.attempted} cells")
        samples = {"setup_s": setup, "wall_s": walls, "steps_per_s": rates}
        shown = dict(metrics, fail_frac=(fail_frac, "ratio", f"{runner.failed} of {runner.attempted} cells"))
    else:
        runner.warm_up()
        untraced_walls, _rates = runner.untraced(seconds / 2.0, 1)
        tracer, walls, write_bytes = runner.traced(seconds / 2.0)
        metrics = per_layer_metrics(tracer, walls, untraced_walls, write_bytes)
        shown = metrics
        samples = {"traced_wall_s": walls, "untraced_wall_s": untraced_walls}
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"{tag}-spans.csv"))

    print(f"workload {name}  seed {seed}  trace {int(trace)}  seconds {seconds:g}")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, (value, unit, note) in shown.items():
        print(f"  {key:<42} {value:>14.6g} {unit:<7} {note}")
    print(f"  gate: {runner.failed} of {runner.attempted} cells failed"
          + (f" (reference for seed {seed})" if runner.gate.reference else " (no reference: invariants only)"))
    for note in runner.notes[:20]:
        print("  gate: " + note.rstrip())

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=trace, environment=env,
                  notes={k: n for k, (_v, _u, n) in shown.items()}, samples=samples, gate_notes=runner.notes,
                  has_reference=runner.gate.reference is not None)
    with open(os.path.join(OUT, f"{tag}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result


def load_program():
    """Import stefansim from this checkout's sources; an error message if that fails."""
    if not os.path.isfile(os.path.join(SRC, "stefansim", "__init__.py")):
        return f"no stefansim sources under {SRC}; run from a full checkout"
    sys.path.insert(0, SRC)
    import stefansim

    if not os.path.abspath(stefansim.__file__).startswith(SRC + os.sep):
        return f"imported stefansim from {stefansim.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    error = load_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

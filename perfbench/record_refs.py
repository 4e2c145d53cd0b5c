"""Record the reference outputs that the benchmark's gate compares against.

Usage, from the repository root:

    python3 perfbench/record_refs.py [workload ...]

Run it only at a commit whose outputs are trusted; every later run of the
benchmark is compared with what it writes, within ``workloads.RTOL``/``ATOL``.
"""

import json
import os
import sys

import run
import workloads
from tracing import Tracer

REF_SEEDS = range(16)


def record(name: str) -> dict:
    seeds = [0] if name == "stefan-front" else REF_SEEDS
    out = {}
    for seed in seeds:
        runner = run.Runner(name, seed)
        runner.gate.reference = None
        with Tracer().install(spans=False) as counter:
            runner.call(runner.raw, counter)
        if runner.failed:
            raise SystemExit(f"{name} seed {seed} failed the invariants: {runner.notes}")
        out["any" if name == "stefan-front" else str(seed)] = runner.gate.first
        print(f"{name} seed {seed}: recorded {len(runner.gate.first)} cells", flush=True)
    return {
        "recorded_at": run.git_sha(run.ROOT),
        "rtol": workloads.RTOL,
        "atol": workloads.ATOL,
        "seeds": out,
    }


def main(names) -> int:
    error = run.load_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    os.makedirs(workloads.REFS_DIR, exist_ok=True)
    for name in names or workloads.WORKLOADS:
        refs = record(name)
        with open(os.path.join(workloads.REFS_DIR, f"{name}.json"), "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Command-line entry point for the simulation harness."""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .errors import StefansimError
from .experiments import lemma_suite
from .experiments.config import MODES, load_config, parse_seeds, resolve


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stefansim",
        description="Monte Carlo harness for a stochastic moving-boundary solver",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for name in MODES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seeds", default=None, help="seed range a..b (overrides config)")
        p.add_argument("--jobs", type=int, default=None, help="worker processes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        overrides = dict(cfg.raw)
        overrides["mode"] = args.mode
        if args.out is not None:
            overrides["outputs"] = args.out
        if args.seeds is not None:
            overrides["seeds"] = parse_seeds(args.seeds)
        if args.jobs is not None:
            overrides["jobs"] = args.jobs
        cfg = resolve(overrides)
        for w in cfg.warnings:
            print(f"warning: {w}", file=sys.stderr)

        # mode "stefan-oracle" runs experiments.run_stefan_oracle, and so on
        result = getattr(experiments, "run_" + args.mode.replace("-", "_"))(cfg)
        if args.mode == "converge":
            print(f"fitted slope: {result.slope:.4f}")
            for row in result.rows():
                print(" ".join(row))
        elif args.mode == "stefan-oracle":
            print(
                f"lambda = {result['lambda']:.6f}, "
                f"max relative front error (late window) = {result['max_rel_error_late']:.4%}"
            )
        elif args.mode == "lemma-suite":
            # a skipped check is reported as such and fails nothing
            for r in result:
                print(f"{r.status} {r.name} worst={r.worst:.4g} allowed={r.allowed:.4g}")
            return 1 if any(r.status == lemma_suite.FAIL for r in result) else 0
        else:
            exited = sum(1 for m in result if m["exited"])
            print(f"wrote {len(result)} trajectories ({exited} exited early) to {cfg.out_dir}")
        return 0
    except StefansimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Set-up probe: a fresh interpreter up to a resolved config and one warm-up step.

Usage: python3 setup_probe.py <src dir> <raw config as JSON>

Prints ``ready`` once the step is done; the parent times the interval from
process start.  This covers importing numpy, scipy.fft and stefansim,
``resolve`` (grid, ``Kernel.build``, operator eigenvalues) and one solver step.
"""

import sys

sys.path.insert(0, sys.argv[1])

import dataclasses  # noqa: E402
import json  # noqa: E402

import numpy  # noqa: E402,F401
import scipy.fft  # noqa: E402,F401

from stefansim.experiments import resolve  # noqa: E402
from stefansim.noise import NoiseStream  # noqa: E402
from stefansim.solver import solve  # noqa: E402


def main():
    cfg = resolve(json.loads(sys.argv[2]))
    one_step = dataclasses.replace(cfg.solve, T=cfg.solve.dt, n=cfg.family[0])
    solve(cfg.operator, cfg.model, one_step, cfg.initial, NoiseStream(seed=0), cfg.ambient)
    print("ready", flush=True)


if __name__ == "__main__":
    main()

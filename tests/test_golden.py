"""Regression against outputs frozen from an earlier, independent solver.

``tests/data/golden_example_report.csv`` is the ``report.csv`` of
``configs/example.yaml`` at seeds 0..3, and ``tests/data/golden_example_states.npz``
holds three recorded states (first, middle, last record) and the H2 norm
history of one ``solve`` of that config at seed 0, for n = 8 and n = inf.
Both were recorded with the object-based solver that preceded the flat
exponential-Euler loop, so they check the loop against a second
implementation.  Outputs must agree to ``RTOL``: the two loops round
differently in the last bit, never by more.

Regenerating the files overwrites the oracle; do it only for a deliberate
change of the dynamics:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import math
import os
import shutil
import sys
from dataclasses import replace

import numpy as np
import yaml

from stefansim.coefficients import INF
from stefansim.experiments import resolve, run_converge
from stefansim.noise import NoiseStream
from stefansim.solver import solve

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
EXAMPLE = os.path.join(os.path.dirname(HERE), "configs", "example.yaml")
REPORT = os.path.join(DATA, "golden_example_report.csv")
STATES = os.path.join(DATA, "golden_example_states.npz")
RTOL = 1e-10
ATOL = 1e-14


def _example_raw(out):
    with open(EXAMPLE) as fh:
        raw = yaml.safe_load(fh)
    return dict(raw, seeds=[0, 1, 2, 3], outputs=str(out), jobs=1)


def _read_report(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _recorded(out):
    """{"<n>_<field>": array} for the golden solves: record indices, times, states, norms."""
    cfg = resolve(_example_raw(out))
    arrays = {}
    for n in (8, INF):
        label = "inf" if n == INF else str(n)
        traj = solve(cfg.operator, cfg.model, replace(cfg.solve, n=n), cfg.initial,
                     NoiseStream(seed=0), cfg.ambient)
        last = len(traj.times) - 1
        picks = [0, last // 2, last]
        arrays[f"{label}_records"] = np.array(picks)
        arrays[f"{label}_times"] = traj.times[picks]
        arrays[f"{label}_states"] = traj.values[picks]
        arrays[f"{label}_norm_h2"] = traj.norm_h2
    return arrays


def test_golden_report(tmp_path):
    run_converge(resolve(_example_raw(tmp_path)))
    got = _read_report(tmp_path / "report.csv")
    want = _read_report(REPORT)
    assert got[0] == want[0]
    assert [r[0] for r in got] == [r[0] for r in want]
    for g, w in zip(got[1:], want[1:]):
        assert g[4] == w[4]  # exploded count
        np.testing.assert_allclose(
            [float(v) for v in g[1:4]], [float(v) for v in w[1:4]], rtol=RTOL, atol=ATOL)


def test_golden_states(tmp_path):
    got = _recorded(tmp_path)
    want = np.load(STATES)
    assert sorted(got) == sorted(want.files)
    for key in want.files:
        if key.endswith("_records"):
            assert np.array_equal(got[key], want[key])
        else:
            np.testing.assert_allclose(got[key], want[key], rtol=RTOL, atol=ATOL, err_msg=key)
    assert math.isfinite(float(np.max(want["inf_norm_h2"])))


def _record(tmp_dir):
    os.makedirs(DATA, exist_ok=True)
    run_converge(resolve(_example_raw(tmp_dir)))
    shutil.copyfile(os.path.join(tmp_dir, "report.csv"), REPORT)
    np.savez(STATES, **_recorded(tmp_dir))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _record(tmp)
    print(f"wrote {REPORT} and {STATES}", file=sys.stderr)

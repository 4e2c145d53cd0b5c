"""Self-checks of the benchmark.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import SPAN_HOOKS, Tracer, tail_percentile  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module", autouse=True)
def program():
    assert run.load_program() is None


def test_metric_names_are_well_formed():
    for group in ("end_to_end", "per_layer", "workloads"):
        for entry in SPEC[group]:
            assert NAME.fullmatch(entry["name"]), entry["name"]


def test_spec_lists_exactly_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_is_gated_green_and_emits_the_listed_metrics(name, trace):
    result = run.run(name, seed=1, seconds=0.1, trace=trace, smoke=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    listed = {m["name"]: m["unit"] for m in SPEC[group]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == listed
    for key, value in result["metrics"].items():
        assert NAME.fullmatch(key)
        assert isinstance(value["value"], (int, float))


def test_counted_metrics_repeat_exactly():
    counted = ("calls_per_step", "allocs_per_step", "evals_per_step", "bytes_per_step")
    a, b = (run.run("stefan-front", 0, 0.1, trace=True, smoke=True) for _ in range(2))
    keys = [k for k in a["metrics"] if k.endswith(counted)]
    assert len(keys) == 5
    for k in keys:
        assert a["metrics"][k] == b["metrics"][k], k


def test_gate_rejects_a_wrong_output():
    out = os.path.join(run.OUT, "gate-check")
    raw = workloads.make_config("stefan-front", 0, out, smoke=True)
    from stefansim.experiments import resolve, run_stefan_oracle

    gate = workloads.Gate("stefan-front", 0)
    gate.reference = None
    result = run_stefan_oracle(resolve(raw))
    assert not gate.check(raw, result, None).failed
    assert not gate.check(raw, result, None).failed  # deterministic rerun
    gate.reference = {"inf/front": dict(result, p_final=result["p_final"] * (1 + 1e-6))}
    assert gate.check(raw, result, None).failed == {"inf/front"}
    with open(os.path.join(out, "stefan_report.json"), "w") as fh:
        json.dump(dict(result, max_rel_error_late=0.5), fh)
    assert gate.check(raw, dict(result, max_rel_error_late=0.5), None).failed == {"inf/front"}
    assert gate.check(raw, None, RuntimeError("boom")).failed == {"inf/front"}


def test_missing_hook_target_is_reported_absent():
    tracer = Tracer()
    tracer._hook("stefansim.solver.no_such_function", lambda fn: fn)
    tracer._hook("stefansim.no_such_module.f", lambda fn: fn)
    assert tracer.absent == ["stefansim.solver.no_such_function", "stefansim.no_such_module.f"]


def test_hooks_are_removed_on_close():
    import stefansim.solver as solver

    before = solver.step
    with Tracer().install():
        assert solver.step is not before
    assert solver.step is before
    assert len(SPAN_HOOKS) == len({t for t, _ in SPAN_HOOKS})


def test_tail_percentile_leaves_ten_samples_beyond():
    value, q, n = tail_percentile(range(1000))
    assert (q, n) == (99.0, 1000) and value == 989
    assert tail_percentile(range(10000))[1] == 99.9
    assert tail_percentile(range(15))[1] is None

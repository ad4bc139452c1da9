"""The benchmark's traced check, run once per workload at seed 1.

Every op of `perfbench/workloads.build_ops` runs once through
`perfbench/child.py` with tracing on, as `perfbench/run.py --trace 1`
runs it, and its output must pass `checks.check_output`.  The tracer's
reports must then satisfy the workload's coverage lists: every present
target of `MUST_FIRE` records calls, and no target of `MUST_BE_ZERO` does.
The Cyclotomic micro timings (`perfbench/micro.py`) must report no errors.
A change that moves a traced code path breaks this test before it breaks
the benchmark.  It reads `perfbench/` and writes nothing there."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    """perfbench's `run` module; it puts perfbench/ on sys.path for its own
    imports, which this fixture takes back off."""
    path = list(sys.path)
    try:
        yield _load("run")
    finally:
        sys.path[:] = path


@pytest.mark.parametrize("workload", ["ladder", "chartable", "selftest"])
def test_traced_workload_is_correct_and_covered(bench, workload):
    runner = bench.Runner(str(ROOT))
    samples = [runner.run_op(op, trace=True) for op in bench.build_ops(workload, 1)]
    assert [f"{s['id']}: {e}" for s in samples for e in s["errors"]] == []
    reports = {s["id"]: s["trace"] for s in samples}
    assert None not in reports.values()
    assert bench.coverage_errors(reports, bench.MUST_FIRE[workload],
                                 bench.MUST_BE_ZERO[workload]) == []


def test_micro_timings_report_no_errors(bench):
    micro = bench.Runner(str(ROOT)).run_micro(1)
    assert micro.get("errors") == [] and "mul_us" in micro

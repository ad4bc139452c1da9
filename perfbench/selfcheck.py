"""The benchmark's own tests.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py            # quick tests, about a minute
    python3 perfbench/selfcheck.py --pools    # also every seeded pool value
    python3 perfbench/selfcheck.py --full     # also repeat each workload's trace

The quick tests check that a corrupted expected value is counted as a
failed op, that the selftest and shioda5 checks reject bad reports, that
a missing wrapper target is reported absent, that tracing rebinds every
alias of a wrapped function, that per-layer counts repeat
exactly across two traced runs of one seed, that a layer silent where it
should fire or firing where it should be idle fails the coverage check,
that BENCHMARK.json lists the workloads and end-to-end metrics the runs
print, and that a directory without the program fails without printing a
result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
from layers import coverage_errors  # noqa: E402
from workloads import (CLIFFORD7, CURVE_A, CURVE_QW, MAX_CELLS, SKLYANIN3_T,  # noqa: E402
                       SKLYANIN5, WORKLOADS, build_ops)

SMALL_OPS = [
    {"id": "ladder.cycle", "kind": "cli",
     "argv": ["hilbert", "--algebra", "cycle", "--p", "5", "--max-degree", "4",
              "--max-cells", MAX_CELLS, "--format", "json"],
     "check": {"type": "hilbert", "expect": checks.curve_series(5, 4)}, "params": {}},
    {"id": "chartable.table_curveCa", "kind": "cli",
     "argv": ["charseries", "--algebra", "curveCa", "--params", "2", "--max-degree", "3",
              "--table", "--max-cells", MAX_CELLS, "--format", "json"],
     "check": {"type": "table", "p": 5, "top": 3, "expect": checks.curve_series(5, 3)},
     "params": {}},
    {"id": "chartable.koszul_polynomial", "kind": "cli",
     "argv": ["koszul-check", "--algebra", "polynomial", "--p", "3", "--class", "z",
              "--max-degree", "3", "--max-cells", MAX_CELLS, "--format", "json"],
     "check": {"type": "koszul", "p": 3, "top": 3}, "params": {}},
    {"id": "chartable.qw_curveCa", "kind": "lib", "call": "hilbert_curveCa_qw",
     "args": {"p": 5, "r": "1", "s": "1", "max_degree": 3, "max_cells": int(MAX_CELLS)},
     "check": {"type": "hilbert", "expect": checks.curve_series(5, 3)}, "params": {}},
]


def test_corrupted_expectation_counts_as_failed():
    runner = run.Runner(ROOT)
    good = runner.run_op(SMALL_OPS[0])
    assert good["errors"] == [], good["errors"]
    bad_op = copy.deepcopy(SMALL_OPS[0])
    bad_op["check"]["expect"][3] += 1
    result = run.summarize([good, runner.run_op(bad_op)])
    assert (result["attempted"], result["failed"]) == (2, 1), result


def test_table_check_rejects_corrupted_rows():
    op = SMALL_OPS[1]
    proc = subprocess.run(
        [sys.executable, run.CHILD, json.dumps({"root": ROOT, "op": op})],
        cwd=ROOT, capture_output=True, text=True, check=True)
    text = json.loads(proc.stdout.strip().splitlines()[-1])["output"]
    assert checks.check_output(op["check"], 0, text) == []
    data = json.loads(text)
    central = next(c for c in data["classes"] if c["rep"] == "z")
    central["coeffs"][2]["coeffs"][1] = ["1", "1"]
    assert checks.check_output(op["check"], 0, json.dumps(data))
    assert checks.check_output(op["check"], 1, text)


def test_selftest_and_shioda5_checks_reject_bad_reports():
    want = ["1", "2"]
    good = {"passed": True, "criteria": [{"name": "1-a", "passed": True},
                                         {"name": "2-b", "passed": True}]}
    assert checks.check_selftest_payload(json.dumps(good), want) == []
    failing = copy.deepcopy(good)
    failing["passed"], failing["criteria"][1]["passed"] = False, "False"
    assert checks.check_selftest_payload(json.dumps(failing), want)
    assert checks.check_selftest_payload(json.dumps(good), ["1", "2", "3"])
    fiber = {"span_equal_direct": True, "span_equal_relabeled": True,
             "hilbert": [1, 5, 10, 15], "cusp_cycles": 12}
    expect = checks.curve_series(5, 3)
    assert checks.check_shioda5_payload(json.dumps(fiber), "shioda5_fiber", expect) == []
    fiber["hilbert"][3] = 16
    assert checks.check_shioda5_payload(json.dumps(fiber), "shioda5_fiber", expect)
    orbit = {"relations_ok": True, "minors_ok": False, "points": 25}
    assert checks.check_shioda5_payload(json.dumps(orbit), "shioda5_orbit")


def test_missing_target_reported_absent():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import algtool.cli
    import algtool.gradedalg
    import algtool.selftest
    from algtool.cyclotomic import Cyclotomic
    from tracer import TARGETS, Tracer

    tracer = Tracer("selfcheck")
    missing = (("gradedalg.gone", "algtool.gradedalg", "no_such_function", False),
               ("nomodule.f", "algtool.no_such_module", "f", False),
               ("cyclotomic.gone", "algtool.cyclotomic", "Cyclotomic.no_such_method", True))
    absent = tracer.install(TARGETS + missing)
    assert [a.split("=")[0] for a in absent] == [m[0] for m in missing], absent
    # every alias of a wrapped function now points at the wrapper
    assert algtool.cli.character_coeffs is algtool.gradedalg.character_coeffs
    assert hasattr(algtool.gradedalg.character_coeffs, "__wrapped__")
    assert Cyclotomic.__radd__ is Cyclotomic.__add__
    assert hasattr(Cyclotomic.__rmul__, "__wrapped__")
    assert hasattr(algtool.selftest.CRITERIA["4"], "__wrapped__")
    pres = algtool.make_presentation("curveCa", Cyclotomic(5, [Fraction(1), Fraction(1)]))
    assert algtool.hilbert(pres, 3, 10 ** 9) == [1, 5, 10, 15]
    stats = tracer.report()["stats"]
    for name in ("gradedalg.ideal_piece", "linalg.insert", "cyclotomic.mul",
                 "cyclotomic.inverse"):
        assert stats.get(name, {}).get("calls", 0) > 0, name
    # 2 * a goes through __rmul__, which is counted as cyclotomic.mul
    before = tracer.report()["stats"]["cyclotomic.mul"]["calls"]
    2 * Cyclotomic(5, [Fraction(1)])
    assert tracer.report()["stats"]["cyclotomic.mul"]["calls"] == before + 1


def test_traced_counts_repeat():
    def counts():
        result = run.traced_run(run.Runner(ROOT), SMALL_OPS, "chartable", 7)
        assert result["failed"] == 0, result
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] == "count"}
    first, second = counts(), counts()
    assert first == second, {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    assert first["cyclotomic.init.calls"] > 0 and first["linalg.insert.calls"] > 0


def test_coverage_flags_silent_and_unexpected_layers():
    def report(calls):
        return {"absent": ["gone.f=algtool.gone:f"],
                "stats": {name: {"calls": n, "total_s": 0.0, "self_s": 0.0, "truthy": 0}
                          for name, n in calls.items()}}
    traced = {"a": report({"linalg.insert": 3}), "b": report({"cyclotomic.mul": 2})}
    must_fire = frozenset({"linalg.insert", "linalg.reduce", "gone.f"})
    errors = coverage_errors(traced, must_fire, frozenset({"cyclotomic.mul", "poly.eval"}))
    assert errors == ["cyclotomic.mul: 2 calls, expected none", "linalg.reduce: no calls"], errors


def test_benchmark_json_matches_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    sample = {"id": "x", "run_s": 1.0, "setup_s": 0.1, "maxrss_kb": 1024, "errors": [],
              "digest": None}
    printed = run.summarize([sample])["metrics"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, v["unit"]) for k, v in printed.items()]


def test_bare_directory_fails_without_result():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ladder",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0 and proc.stdout.strip() == "", (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def check_pools():
    """Every pool value against its closed form, up to the op's top degree."""
    ops = []
    for workload in WORKLOADS:
        template = build_ops(workload, 0)
        for op in template:
            for variant in _pool_variants(op):
                ops.append(variant)
    runner = run.Runner(ROOT, limit_s=3600)
    bad = []
    for op in ops:
        sample = runner.run_op(op)
        print(f"  {op['id']} {op['params']}: {'ok' if not sample['errors'] else sample['errors']}",
              flush=True)
        if sample["errors"]:
            bad.append(op["params"])
    assert not bad, bad


def _pool_variants(op):
    def with_params(flag_value, params, flag="--params"):
        new = copy.deepcopy(op)
        argv = new["argv"]
        argv[argv.index(flag) + 1] = flag_value
        new["params"] = params
        return new

    name = op["id"].split(".", 1)[1]
    if name in ("sklyanin3", "table_sklyanin3"):
        return [with_params(f"1,1,{-int(t)}", {"t": t}) for t in SKLYANIN3_T]
    if name in ("curveCa", "table_curveCa"):
        return [with_params(a, {"a": a}) for a in CURVE_A]
    if name == "shioda_orbit":
        return [with_params(a, {"a": a}, "--a") for a in CURVE_A]
    if name == "cliffordC":
        return [with_params(",".join(map(str, v)), {"a": v}) for v in CLIFFORD7]
    if name == "sklyanin5":
        return [with_params(",".join(map(str, v)), {"a": v}) for v in SKLYANIN5]
    if name == "qw_curveCa":
        out = []
        for r, s in CURVE_QW:
            new = copy.deepcopy(op)
            new["args"].update(r=str(r), s=str(s))
            new["params"] = {"a": f"{r} + {s}*w"}
            out.append(new)
        return out
    return [op]


def check_full_traces():
    """Two traced runs of every workload give identical counts, no layer
    expected on a workload is silent there and none expected idle fires."""
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            result = run.traced_run(run.Runner(ROOT), build_ops(workload, 3), workload, 3)
            assert not result["coverage"], (workload, result["coverage"])
            runs.append({k: v["value"] for k, v in result["metrics"].items()
                         if v["unit"] == "count"})
        assert runs[0] == runs[1], workload
        errors = sorted({e for s in result["samples"] for e in s["errors"]})
        print(f"  {workload}: {sum(1 for v in runs[0].values() if v)} non-zero counts repeat;"
              f" failed ops {result['failed']} {errors}", flush=True)


def main(argv) -> int:
    tests = [test_corrupted_expectation_counts_as_failed,
             test_table_check_rejects_corrupted_rows,
             test_traced_counts_repeat,
             test_coverage_flags_silent_and_unexpected_layers,
             test_selftest_and_shioda5_checks_reject_bad_reports,
             test_benchmark_json_matches_metrics,
             test_bare_directory_fails_without_result,
             # patches algtool in this process, so it runs last
             test_missing_target_reported_absent]
    if "--pools" in argv:
        tests.append(check_pools)
    if "--full" in argv:
        tests.append(check_full_traces)
    failed = 0
    for test in tests:
        try:
            test()
            print(f"PASS  {test.__name__}", flush=True)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {test.__name__}: {exc}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

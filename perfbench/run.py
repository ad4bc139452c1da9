"""algtool benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {ladder,chartable,selftest} \
        --seed N --seconds S --trace {0,1}

Load model: one closed-loop caller runs the workload's ops strictly in
sequence, one fresh interpreter per op and no extra threads.  A fresh
interpreter per op is what a CLI user pays, and it keeps in-process caches
and environment writes of one op from reaching the next.

The ops never wait, so CPU time equals wall time, but this 2-CPU VM shares
its cores: a fixed pure-Python job runs 1.1x to 2x its fastest time from
one half second to the next, and the machine drifts over minutes on top.
Two things take most of that out:

- every op process times a fixed reference job (`child.reference_s`, about
  0.05 s) right after import and again right after the op, and each time of
  the process is scaled by REF_NOMINAL_S over the reference time measured
  next to it, so a time reads as seconds at one fixed machine speed.  In
  one set of ten ladder runs this cut run_s's spread (IQR / median) from
  0.07 to 0.04 and setup_s's from 0.10 to 0.04; in six selftest runs
  run_s's went from 0.09 to 0.07;
- the number of passes is fixed per workload (`workloads.PASS_S`), and
  per op the median over the passes is taken, so two commits are compared
  on equally many samples whatever their speed.

--trace 0 runs round(S / PASS_S) passes over the ops, each pass followed by
bare set-ups, and reports the end-to-end metrics:

  run_s        scaled seconds inside the public entry point, per op the
               median over the passes, summed over the ops
  setup_s      median over the run's processes of the scaled time from
               spawning the interpreter until `algtool.cli` is imported
  peak_rss_mb  the largest max-RSS of any op process

--trace 1 runs one untraced pass, one traced pass and the Cyclotomic micro
timings, and reports the per-layer metrics of `layers.py`.  Spans are written
to perfbench/out/.

Every op's output is checked independently (`checks.py`); an op that fails
its check, exits wrongly or crashes counts in `failed`.  The last line of
stdout is the JSON result; a line before it records the seeded parameters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_output  # noqa: E402
from layers import coverage_errors, per_layer_metrics  # noqa: E402
from workloads import MUST_BE_ZERO, MUST_FIRE, PASS_S, WORKLOADS, build_ops  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
MICRO = os.path.join(HERE, "micro.py")
OUT_DIR = os.path.join(HERE, "out")
# every run must end within 180 s; leave room for the last op and output
HARD_LIMIT_S = 165.0
# bare interpreters spawned after each pass, only to time set-up
SETUPS_PER_PASS = 2


# Median time of the child's reference job (`child.reference_s`) on the VM
# where the benchmark was defined (2 CPUs, Intel Xeon, Python 3.11.7) in a
# typical stretch.  Every time is scaled to that speed.
REF_NOMINAL_S = 0.0036


def scaled(seconds: float, ref_s: float) -> float:
    """`seconds` at the nominal machine speed, given the reference job's time
    measured in the same process next to it."""
    return seconds * REF_NOMINAL_S / ref_s


class Runner:
    """Spawns op interpreters in one checkout, within one time limit."""

    def __init__(self, root: str, limit_s: float = HARD_LIMIT_S):
        self.root = root
        self.deadline = time.perf_counter() + limit_s

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def run_op(self, op: dict, trace: bool = False) -> dict:
        """One op in a fresh interpreter; returns its timings and check errors."""
        spec = json.dumps({"root": self.root, "op": op, "trace": trace})
        sample = {"id": op["id"], "errors": [], "run_s": None, "raw_run_s": None,
                  "setup_s": None, "maxrss_kb": None, "wall_s": None, "digest": None,
                  "trace": None}
        timeout = self.remaining()
        if timeout <= 1:
            sample["errors"].append("no time left in this run")
            return sample
        spawned = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, spec], cwd=self.root,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            sample["errors"].append(f"timed out after {timeout:.0f} s")
            return sample
        sample["wall_s"] = time.perf_counter() - spawned
        try:
            report = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            sample["errors"].append(f"child exited {proc.returncode}: {err.strip()[-500:]}")
            return sample
        ref_before, ref_after = report["ref_s"]
        sample["setup_s"] = scaled(report["imported"] - spawned, ref_before)
        sample["run_s"] = scaled(report["run_s"], (ref_before + ref_after) / 2)
        sample["raw_run_s"] = report["run_s"]
        sample["maxrss_kb"] = report["maxrss_kb"]
        sample["trace"] = report.get("trace")
        sample["digest"] = hashlib.sha256(report["output"].encode()).hexdigest()
        if report["error"]:
            sample["errors"].append(report["error"])
        else:
            sample["errors"] += check_output(op["check"], report["rc"], report["output"])
        return sample

    def run_setup(self) -> Optional[float]:
        """Scaled seconds from spawning a bare interpreter until `algtool.cli`
        is imported."""
        timeout = self.remaining()
        if timeout <= 1:
            return None
        spec = json.dumps({"root": self.root, "op": None})
        spawned = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, CHILD, spec], cwd=self.root,
                                  capture_output=True, text=True, timeout=timeout)
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            return scaled(report["imported"] - spawned, report["ref_s"][0])
        except (subprocess.TimeoutExpired, IndexError, ValueError, KeyError):
            return None

    def run_micro(self, seed: int) -> dict:
        try:
            proc = subprocess.run([sys.executable, MICRO, self.root, str(seed)],
                                  cwd=self.root, capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            return {"errors": ["micro timings ran out of time"]}
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return {"errors": [f"micro exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]}


def check_digests(samples: List[dict]) -> None:
    """Every run of one op must print identical bytes, traced or not."""
    first: Dict[str, str] = {}
    for s in samples:
        if s["digest"] is not None and first.setdefault(s["id"], s["digest"]) != s["digest"]:
            s["errors"].append("output differs from the first run of this op")


def passes_for(workload: str, seconds: float) -> int:
    """How many passes fit in `seconds` at the workload's nominal pass time."""
    return max(1, round(seconds / PASS_S[workload]))


def timed_run(runner: Runner, ops: List[dict], passes: int) -> dict:
    """`passes` passes over the ops, each followed by bare set-ups.

    The pass count depends on the workload and --seconds only, never on how
    fast the code under test runs, so two commits are compared on medians
    over equally many samples.  A pass is left out only when the
    run's hard time limit would be crossed."""
    samples: List[dict] = []
    setups: List[float] = []
    walls: Dict[str, float] = {}
    for _ in range(passes):
        for op in ops:
            if runner.remaining() < 2 * walls.get(op["id"], 0.0):
                return summarize(samples, setups)
            sample = runner.run_op(op)
            samples.append(sample)
            if sample["wall_s"] is None:
                return summarize(samples, setups)
            walls[op["id"]] = max(walls.get(op["id"], 0.0), sample["wall_s"])
        for _ in range(SETUPS_PER_PASS):
            setup = runner.run_setup()
            if setup is not None:
                setups.append(setup)
    return summarize(samples, setups)


def summarize(samples: List[dict], bare_setups=()) -> dict:
    check_digests(samples)
    per_op: Dict[str, List[float]] = {}
    for s in samples:
        if s["run_s"] is not None:
            per_op.setdefault(s["id"], []).append(s["run_s"])
    setups = [s["setup_s"] for s in samples if s["setup_s"] is not None] + list(bare_setups)
    rss = [s["maxrss_kb"] for s in samples if s["maxrss_kb"] is not None]
    failed = sum(1 for s in samples if s["errors"])
    metrics = {}
    if per_op and setups and rss:
        metrics = {
            "run_s": {"value": sum(statistics.median(v) for v in per_op.values()),
                      "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(rss) / 1024.0, "unit": "MB"},
        }
    return {"samples": samples, "setups": list(bare_setups), "attempted": len(samples),
            "failed": failed, "metrics": metrics}


def traced_run(runner: Runner, ops: List[dict], workload: str, seed: int) -> dict:
    plain = [runner.run_op(op) for op in ops]
    traced = [runner.run_op(op, trace=True) for op in ops]
    micro = runner.run_micro(seed)
    samples = plain + traced
    check_digests(samples)
    failed = sum(1 for s in samples if s["errors"])
    attempted = len(samples) + 2  # plus the micro timings and the layer coverage check
    if micro.get("errors") or "mul_us" not in micro:
        failed += 1
    reports = {s["id"]: s["trace"] for s in traced if s["trace"] is not None}
    plain_s = sum(s["run_s"] for s in plain if s["run_s"] is not None)
    traced_s = sum(s["run_s"] for s in traced if s["run_s"] is not None)
    metrics, absent = per_layer_metrics(reports, micro, traced_s / plain_s if plain_s else 0.0)
    coverage = (coverage_errors(reports, MUST_FIRE[workload], MUST_BE_ZERO[workload])
                if len(reports) == len(ops) else ["traced pass incomplete"])
    if coverage:
        failed += 1
    write_spans(workload, seed, reports)
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "metrics": metrics, "absent": absent, "coverage": coverage,
            "micro_errors": micro.get("errors")}


def write_spans(workload: str, seed: int, reports: Dict[str, dict]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for rep in reports.values():
            for span_id, parent, name, start, end, op_id in rep["spans"]:
                fh.write(json.dumps({"op": op_id, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "algtool", "cli.py")):
        print(f"error: {root} holds no algtool sources (src/algtool); "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    ops = build_ops(args.workload, args.seed)
    runner = Runner(root)
    if args.trace:
        result = traced_run(runner, ops, args.workload, args.seed)
    else:
        result = timed_run(runner, ops, passes_for(args.workload, args.seconds))

    errors = [f"{s['id']}: {e}" for s in result["samples"] for e in s["errors"]]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "params": {op["id"]: op["params"] for op in ops},
        "run_s_per_op": {op["id"]: [round(s["run_s"], 4) for s in result["samples"]
                                     if s["id"] == op["id"] and s["run_s"] is not None]
                         for op in ops},
        "raw_run_s_per_op": {op["id"]: [round(s["raw_run_s"], 4) for s in result["samples"]
                                         if s["id"] == op["id"] and s["raw_run_s"] is not None]
                             for op in ops},
        "setup_s_all": [round(s["setup_s"], 4) for s in result["samples"]
                        if s["setup_s"] is not None]
        + [round(x, 4) for x in result.get("setups", [])],
        "failed_ratio": result["failed"] / max(1, result["attempted"]),
        "errors": errors, "absent": result.get("absent", []),
        "coverage_errors": result.get("coverage", []),
        "micro_errors": result.get("micro_errors", []),
    }, sort_keys=True))
    if not result["metrics"]:
        print("error: no op produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

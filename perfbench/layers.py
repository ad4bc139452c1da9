"""Per-layer metrics, computed from the tracer reports of one traced pass.

Each metric is named `<module>.<function>.<measure>` and says which
end-to-end metric it should move, on which workload:

- cyclotomic: calls and self time of the field operations, plus micro
  timings at p = 5 -> run_s on chartable (and the selftest workload); zero
  calls on ladder.
- linalg: RowSpace insert/reduce -> run_s and peak_rss_mb on ladder and the
  Q(w) op of chartable; the dense and float routines -> run_s on selftest.
- gradedalg: ideal pieces, their cache hit ratio and the top degree step of
  each ladder algebra -> run_s and peak_rss_mb on ladder; traces, stability
  checks and character series -> run_s on chartable.
- heisenberg, poly, clifford, sklyanin2, shioda5, selftest criteria and
  parallel.pmap -> run_s on selftest; koszul -> run_s on chartable.
- cli: `main` per op and `emit` -> run_s of every workload, most on
  chartable where tables are serialized.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

LADDER_ALGEBRAS = ("sklyanin3", "curveCa", "cycle", "cliffordC", "sklyanin5")
CLI_OPS = (
    "ladder.sklyanin3", "ladder.curveCa", "ladder.cycle", "ladder.cliffordC",
    "ladder.sklyanin5", "chartable.table_cycle", "chartable.table_curveCa",
    "chartable.table_sklyanin3", "chartable.koszul_polynomial", "selftest.selftest",
    "selftest.shioda_orbit", "selftest.shioda_singular", "selftest.shioda_fiber",
)
MICRO = ("mul", "add", "inverse", "zeta")


def _load_per_layer() -> List[Tuple[str, str]]:
    """The per-layer metric names and units, as BENCHMARK.json lists them."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


PER_LAYER: List[Tuple[str, str]] = _load_per_layer()


def merge_stats(reports: List[dict]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for rep in reports:
        for name, st in rep["stats"].items():
            acc = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                           "truthy": 0})
            for key in acc:
                acc[key] += st[key]
    return merged


def per_layer_metrics(traced: Dict[str, dict], micro: Dict[str, float],
                      overhead_ratio: float) -> Tuple[dict, List[str]]:
    """Metrics by name from {op id: tracer report}; returns (metrics, absent)."""
    reports = list(traced.values())
    stats = merge_stats(reports)
    absent = sorted({a for rep in reports for a in rep["absent"]})
    absent_names = {a.split("=", 1)[0] for a in absent}

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    values: Dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        base, _, measure = metric.rpartition(".")
        if measure in ("calls", "self_s"):
            values[metric] = stat(base, measure)
        elif metric.startswith("selftest.c"):
            values[metric] = stat(base, "total_s")
    for fn in MICRO:
        values[f"cyclotomic.{fn}_us"] = micro.get(f"{fn}_us", 0.0)

    inserts = stat("linalg.insert", "calls")
    values["linalg.insert.useful_ratio"] = (stat("linalg.insert", "truthy") / inserts
                                            if inserts else 0.0)
    pieces = stat("gradedalg.ideal_piece", "calls")
    distinct = sum(rep["distinct_keys"].get("gradedalg.ideal_piece", 0) for rep in reports)
    values["gradedalg.ideal_piece.hit_ratio"] = ((pieces - distinct) / pieces
                                                 if pieces else 0.0)

    for alg in LADDER_ALGEBRAS:
        rep = traced.get(f"ladder.{alg}")
        steps = [s for s in (rep["steps"] if rep else ()) if s["name"] == "gradedalg.ideal_piece"]
        top = None
        if steps:
            top_degree = max(s["degree"] for s in steps)
            top = max((s for s in steps if s["degree"] == top_degree), key=lambda s: s["s"])
        for measure in ("s", "rank", "nnz"):
            value = top.get(measure) if top else None
            if rep is not None and value is None and "gradedalg.ideal_piece" not in absent_names:
                absent.append(f"gradedalg.step.{alg}.{measure}=DegreePiece field")
            values[f"gradedalg.step.{alg}.{measure}"] = value or 0

    for op in CLI_OPS:
        rep = traced.get(op)
        values[f"cli.main.{op}.s"] = rep["stats"].get("cli.main", {}).get("total_s", 0.0) \
            if rep else 0.0

    values["bench.trace_overhead_ratio"] = overhead_ratio
    # a name BENCHMARK.json lists but nothing here computes reads as absent
    absent += [f"{name}=not computed" for name, _unit in PER_LAYER
               if name not in values and name != "bench.absent_targets"]
    values["bench.absent_targets"] = len(absent)
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
    return metrics, absent


def coverage_errors(traced: Dict[str, dict], must_fire, must_be_zero) -> List[str]:
    """Present targets expected to fire on this workload that recorded no
    calls, and targets expected to stay idle on it that recorded some."""
    stats = merge_stats(list(traced.values()))
    absent = {a.split("=", 1)[0] for rep in traced.values() for a in rep["absent"]}
    calls = {name: stats.get(name, {}).get("calls", 0) for name in must_fire | must_be_zero}
    silent = [f"{name}: no calls" for name in must_fire
              if name not in absent and calls[name] == 0]
    loud = [f"{name}: {calls[name]} calls, expected none" for name in must_be_zero
            if calls[name] > 0]
    return sorted(silent + loud)

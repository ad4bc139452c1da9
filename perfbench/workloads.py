"""The benchmark's workloads: seeded op lists with their expected outputs.

Every op runs in a fresh interpreter through a public entry point:
`algtool.cli.main(argv)` with documented flags only, or top-level `algtool`
names for the one presentation the CLI cannot parse (coefficients in Q(w)).
Degreewise ops pass `--max-cells` explicitly, since the default cap refuses
p = 5 from degree 6.

The seed picks each algebra's parameters from a small-height pool.  Every
pool value was checked against the closed form up to the op's top degree;
`python3 perfbench/selfcheck.py --pools` repeats that check.  The pools keep
to values whose ops cost the same within about 5% (fastest of five fresh
runs each), so that a change of seed changes the numbers in a workload, not
its amount of work: t = 1 of sklyanin3 or a = 1 of curveCa, whose
coefficients are all +-1, run 10-20% faster and are left out.

No op but the selftest takes much over 3 s (sklyanin3 stops at degree 8,
curveCa at 5, the Q(w) op at 4), so that one 36 s run repeats every op
at least three times and the median over those repeats is taken.

The selftest workload runs every criterion but 8, and the parts of
criterion 8 that do not depend on the seed as `algtool shioda5` ops.
Criterion 8's 2-torsion check fails on about half of all seeds (its
negative control, one root moved by 1e-2, lands closer than 1e-5 to the
surface).  That is a defect of the program, and the benchmark needs ops
that pass on every seed, so it leaves that check out.
"""

from __future__ import annotations

import random
from typing import Dict, List

from checks import binomial_series, curve_series

MAX_CELLS = str(10 ** 12)

# sklyanin3 (1:1:-t), t outside the degenerate values {0, 2, -1}
SKLYANIN3_T = ("3", "-2", "-3", "6", "-4")
# curveCa(a), a != 0: the elliptic normal quintic C_a
CURVE_A = ("2", "-2", "4", "5")
# cliffordC over p = 7: (a0, a1, a2, a3)
CLIFFORD7 = ((1, 2, 3, 4), (1, 1, 2, 3), (1, 3, 2, 4), (1, 1, 1, 2),
             (2, 1, 1, 3), (3, 1, 2, 5))
# sklyanin5(a, b)
SKLYANIN5 = ((1, 3), (3, 2), (3, 3), (2, -1), (2, 2))
# curveCa(r + s w) over Q(w_5), s != 0
CURVE_QW = ((1, -1), (3, 1), (1, 3), (2, 1))

WORKLOADS = ("ladder", "chartable", "selftest")
# selftest criteria the selftest workload runs; see the module docstring on 8
SELFTEST_CRITERIA = ("1", "2", "3", "4", "5", "6", "7", "9")

POLY_WORK = frozenset({"poly.mat_minors", "poly.mat_det", "poly.eval", "poly.mul",
                       "poly.resultant", "poly.exact_divide"})
CYCLOTOMIC = frozenset({"cyclotomic.init", "cyclotomic.mul", "cyclotomic.add",
                        "cyclotomic.inverse", "cyclotomic.zeta"})

# Wrapped names that must record calls on a workload; a traced run where a
# present one records none has lost a layer and fails.
MUST_FIRE: Dict[str, frozenset] = {
    "ladder": frozenset({
        "gradedalg.ideal_piece", "linalg.insert", "linalg.reduce",
        "cli.main", "cli.emit",
    }),
    "chartable": frozenset({
        "gradedalg.ideal_piece", "linalg.insert", "linalg.reduce",
        "gradedalg.ideal_trace", "gradedalg.check_stability",
        "gradedalg.character_coeffs", "koszul.quadratic_dual",
        "koszul.koszul_identity_check", "poly.scalar_to_json",
        "cli.main", "cli.emit",
    } | CYCLOTOMIC),
    "selftest": frozenset({
        "linalg.nullspace_exact", "linalg.rank_float",
        "linalg.span_membership",
        "heisenberg.character", "heisenberg.projective_fixed_points",
        "heisenberg.apply_element",
        "clifford.build_reps", "clifford.symmetric_rank",
        "clifford.sample_rank_drop_points",
        "sklyanin2.point_module_check", "sklyanin2.minor_ideal_checks",
        "sklyanin2.stratify", "sklyanin2.eliminate_t", "sklyanin2.secant_check",
        "shioda5.ca_orbit_check", "shioda5.singular_points_check",
        "shioda5.cycle_fiber_equivalence",
        "parallel.pmap", "cli.main", "cli.emit",
    } | CYCLOTOMIC | POLY_WORK | {f"selftest.c{k}" for k in SELFTEST_CRITERIA}),
}

# Wrapped names that must record no calls on a workload: ladder works over Q
# only, and the polynomial layer serves the selftest's geometric checks alone.
MUST_BE_ZERO: Dict[str, frozenset] = {
    "ladder": CYCLOTOMIC | POLY_WORK,
    "chartable": POLY_WORK,
    "selftest": frozenset(),
}

# Wall seconds of one pass, reference jobs and bare set-ups included, at the
# commit that defined the benchmark on a 2-CPU VM (Intel Xeon, Python
# 3.11.7).  A run makes round(--seconds / PASS_S) passes, so the count does
# not change with the speed of the code under test.
PASS_S: Dict[str, float] = {"ladder": 8.0, "chartable": 14.0, "selftest": 10.0}


def _cli(op_id: str, argv: List[str], check: dict, params: dict) -> dict:
    return {"id": op_id, "kind": "cli", "argv": argv, "check": check, "params": params}


def _degreewise(command: str, algebra: str, top: int, p=None, params=None,
                extra=()) -> List[str]:
    argv = [command, "--algebra", algebra]
    if p is not None:
        argv += ["--p", str(p)]
    if params is not None:
        argv += ["--params", params]
    return argv + ["--max-degree", str(top), "--max-cells", MAX_CELLS,
                   "--format", "json", *extra]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def build_ops(workload: str, seed: int) -> List[dict]:
    """The workload's ops, in run order, for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ladder":
        t = rng.choice(SKLYANIN3_T)
        a = rng.choice(CURVE_A)
        cl = rng.choice(CLIFFORD7)
        s5 = rng.choice(SKLYANIN5)
        sk3 = f"1,1,{-int(t)}"
        return [
            _cli("ladder.sklyanin3", _degreewise("hilbert", "sklyanin3", 8, params=sk3),
                 {"type": "hilbert", "expect": binomial_series(3, 8)}, {"params": sk3}),
            _cli("ladder.curveCa", _degreewise("hilbert", "curveCa", 5, params=a),
                 {"type": "hilbert", "expect": curve_series(5, 5)}, {"a": a}),
            _cli("ladder.cycle", _degreewise("hilbert", "cycle", 7, p=5),
                 {"type": "hilbert", "expect": curve_series(5, 7)}, {"p": 5}),
            _cli("ladder.cliffordC", _degreewise("hilbert", "cliffordC", 4, p=7, params=_csv(cl)),
                 {"type": "hilbert", "expect": binomial_series(7, 4)}, {"p": 7, "a": list(cl)}),
            _cli("ladder.sklyanin5", _degreewise("hilbert", "sklyanin5", 5, params=_csv(s5)),
                 {"type": "hilbert", "expect": binomial_series(5, 5)}, {"a": list(s5)}),
        ]
    if workload == "chartable":
        a = rng.choice(CURVE_A)
        t = rng.choice(SKLYANIN3_T)
        r, s = rng.choice(CURVE_QW)
        sk3 = f"1,1,{-int(t)}"
        table = ("--table",)
        return [
            _cli("chartable.table_cycle",
                 _degreewise("charseries", "cycle", 5, p=5, extra=table),
                 {"type": "table", "p": 5, "top": 5, "expect": curve_series(5, 5)}, {"p": 5}),
            _cli("chartable.table_curveCa",
                 _degreewise("charseries", "curveCa", 5, params=a, extra=table),
                 {"type": "table", "p": 5, "top": 5, "expect": curve_series(5, 5)}, {"a": a}),
            _cli("chartable.table_sklyanin3",
                 _degreewise("charseries", "sklyanin3", 7, params=sk3, extra=table),
                 {"type": "table", "p": 3, "top": 7, "expect": binomial_series(3, 7)},
                 {"params": sk3}),
            {"id": "chartable.qw_curveCa", "kind": "lib", "call": "hilbert_curveCa_qw",
             "args": {"p": 5, "r": str(r), "s": str(s), "max_degree": 4,
                      "max_cells": int(MAX_CELLS)},
             "check": {"type": "hilbert", "expect": curve_series(5, 4)},
             "params": {"a": f"{r} + {s}*w"}},
            _cli("chartable.koszul_polynomial",
                 _degreewise("koszul-check", "polynomial", 5, p=5, extra=("--class", "z")),
                 {"type": "koszul", "p": 5, "top": 5}, {"p": 5, "class": "z"}),
        ]
    if workload == "selftest":
        st_seed = seed % 2 ** 31
        a = rng.choice(CURVE_A)
        json_out = ("--format", "json")
        return [
            _cli("selftest.selftest",
                 ["selftest", "--seed", str(st_seed), "--criteria", _csv(SELFTEST_CRITERIA),
                  *json_out],
                 {"type": "selftest", "criteria": list(SELFTEST_CRITERIA)},
                 {"seed": st_seed, "criteria": list(SELFTEST_CRITERIA)}),
            _cli("selftest.shioda_orbit", ["shioda5", "orbit", "--a", a, *json_out],
                 {"type": "shioda5_orbit"}, {"a": a}),
            _cli("selftest.shioda_singular", ["shioda5", "singular", *json_out],
                 {"type": "shioda5_singular"}, {}),
            _cli("selftest.shioda_fiber", ["shioda5", "fiber", *json_out],
                 {"type": "shioda5_fiber", "expect": curve_series(5, 3)}, {}),
        ]
    raise ValueError(f"unknown workload {workload!r}")

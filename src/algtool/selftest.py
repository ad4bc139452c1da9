"""The acceptance suite as importable checks; the CLI `selftest` subcommand
and tests/test_acceptance.py both run these.

Each criterion returns a CheckResult whose details are JSON-serializable and
deterministic for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import clifford, koszul, shioda5, sklyanin2
from .cyclotomic import Cyclotomic
from .errors import InputError
from .gradedalg import (character_coeffs, character_table, hilbert,
                        make_presentation)
from .heisenberg import (HeisenbergElement, SimpleRep, all_irreducibles,
                         conjugacy_classes)
from .linalg import rank_float
from .poly import mat_det

# (1:1:-t) for t in {1, 3, 1/2, -2, 5}; the rational degenerate values of
# the 3-generator family are t in {0, 2, -1}
SKLYANIN3_SAMPLES = (
    (1, 1, -1), (1, 1, -3), (1, 1, Fraction(-1, 2)), (1, 1, 2), (1, 1, -5),
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def orthogonal_rows(rows: Sequence[Sequence[Cyclotomic]], sizes: Sequence[int],
                    order: int) -> bool:
    """Whether sum_g |g| chi_i(g) conj(chi_j(g)) over the classes is `order`
    for i == j and 0 otherwise, for every pair of rows of a character table
    over Z[w], decided exactly in integers.

    A value with a denominator other than 1 is not an algebraic integer, so
    it raises.  Each other value is its power-basis numerators with a 0
    padded at w^(p-1), a lift to Z[x]/(x^p - 1).  Conjugation maps w^k to
    w^-k, so the class sums of all pairs fall into p integer matrices of
    buckets, B_m[i, j] = sum_{g, k} |g| A[i, g, k] A[j, g, k - m], one
    matrix product each; a pair's sum is N exactly when its B_0 - N equals
    every other B_m.  The products run in int64 when a bound on every sum
    rules out overflow, else on Python ints (dtype=object)."""
    p = rows[0][0].p
    fraction = next((v for row in rows for v in row if v.den != 1), None)
    if fraction is not None:
        raise ValueError(f"{fraction} is not an algebraic integer: its denominator "
                         f"is {fraction.den}")
    lifts = [[v.num + (0,) for v in row] for row in rows]
    top = max(abs(c) for row in lifts for v in row for c in v)
    bound = len(sizes) * p * max(map(abs, sizes)) * top * top + abs(order)
    dtype = np.int64 if bound < 2 ** 63 else object
    a = np.array(lifts, dtype=dtype)
    weighted = (a * np.array(sizes, dtype=dtype)[:, None]).reshape(len(rows), -1)
    # compared as lists of ints: numpy's integer compare and reduce loops
    # serve nothing else in a selftest, and paging them in costs 0.2 MB RSS
    buckets = [(weighted @ np.roll(a, m, axis=2).reshape(len(rows), -1).T).tolist()
               for m in range(p)]
    for i, row in enumerate(buckets[0]):
        row[i] -= order
    return all(b == buckets[0] for b in buckets[1:])


def _orthogonality_exact(p: int) -> bool:
    """Row orthogonality of the character table of the Heisenberg group of
    order p^3, each row built once from `all_irreducibles` over the
    `conjugacy_classes` and checked by `orthogonal_rows`."""
    classes = conjugacy_classes(p)
    rows = [[v.character(g) for g, _size in classes] for v in all_irreducibles(p)]
    return orthogonal_rows(rows, [size for _g, size in classes], p ** 3)


def criterion_1_heisenberg(seed: int = 0) -> CheckResult:
    details = {}
    ok = True
    for p in (3, 5):
        classes = conjugacy_classes(p)
        details[f"classes_p{p}"] = len(classes)
        details[f"sizes_sum_p{p}"] = sum(s for _, s in classes)
        ok &= len(classes) == p * p + p - 1
        ok &= sum(s for _, s in classes) == p ** 3
        ortho = _orthogonality_exact(p)
        details[f"orthogonality_p{p}"] = ortho
        ok &= ortho
    return CheckResult("1-heisenberg-structure", ok, details)


# (details key, catalog arguments, top degree, expected Hilbert series)
HILBERT_FIXTURES = (
    ("polynomial(5,)", ("polynomial", 5), 4, [1, 5, 15, 35, 70]),
    ("cycle(5,)", ("cycle", 5), 4, [1, 5, 10, 15, 20]),
    ("sklyanin3(1, 1, -1)", ("sklyanin3", 1, 1, -1), 5, [1, 3, 6, 10, 15, 21]),
    ("cliffordC(5, (1, 2, 3))", ("cliffordC", 5, 1, 2, 3), 4, [1, 5, 15, 35, 70]),
    ("sklyanin5(2, 2)", ("sklyanin5", 2, 2), 3, [1, 5, 15, 35]),
)


def criterion_2_hilbert(seed: int = 0) -> CheckResult:
    details = {}
    ok = True
    for key, catalog_args, n, expected in HILBERT_FIXTURES:
        got = hilbert(make_presentation(*catalog_args), n)
        details[key] = got
        ok &= got == expected
    return CheckResult("2-hilbert-fixtures", ok, details)


def _closed_form_table(p: int, hilb: List[int], n: int):
    """Expected rows for an elliptic-type algebra: identity/centre rows from
    the Hilbert numbers twisted by w^(k n); all other classes constant 1."""
    rows = []
    for g, _size in conjugacy_classes(p):
        if g.is_central():
            coeffs = tuple(Cyclotomic.zeta(p, g.k * d) * hilb[d] for d in range(n + 1))
        else:
            coeffs = tuple(Cyclotomic.from_rational(p, 1 if d == 0 else 0)
                           for d in range(n + 1))
        rows.append((g.label(), coeffs))
    return rows


def criterion_3_charseries(seed: int = 0) -> CheckResult:
    details = {}
    ok = True
    rep3, rep5 = SimpleRep(3, 1), SimpleRep(5, 1)

    poly3 = make_presentation("polynomial", 3)
    got = character_coeffs(poly3, HeisenbergElement(3, 1, 0, 0), rep3, 3)
    details["poly3_e1"] = [str(c) for c in got]
    ok &= got == [Cyclotomic.from_rational(3, v) for v in (1, 0, 0, 1)]

    # centre rows equal w^(k n) H_n (tested across both primes)
    cycle5 = make_presentation("cycle", 5)
    for pres, rep, n in ((poly3, rep3, 4), (cycle5, rep5, 4)):
        hilb = hilbert(pres, n)
        for k in range(1, pres.p):
            got = character_coeffs(pres, HeisenbergElement(pres.p, 0, 0, k), rep, n)
            want = [Cyclotomic.zeta(pres.p, k * d) * hilb[d] for d in range(n + 1)]
            ok &= got == want
    details["centre_rows"] = ok

    non_central_ok = True
    for g, _size in conjugacy_classes(5):
        if g.is_central():
            continue
        got = character_coeffs(cycle5, g, rep5, 4)
        non_central_ok &= got == [Cyclotomic.from_rational(5, 1 if d == 0 else 0)
                                  for d in range(5)]
    details["cycle5_noncentral"] = non_central_ok
    ok &= non_central_ok

    ca1 = make_presentation("curveCa", 1)
    table = character_table(ca1, rep5, 4)
    expected = _closed_form_table(5, [1, 5, 10, 15, 20], 4)
    ca_ok = list(table.rows) == expected
    details["curveCa1_closed_forms"] = ca_ok
    ok &= ca_ok

    poly_table = character_table(poly3, rep3, 4)
    sk_ok = True
    for params in SKLYANIN3_SAMPLES:
        sk = make_presentation("sklyanin3", *params)
        sk_ok &= character_table(sk, rep3, 4).same_series(poly_table)
    details["sklyanin3_5_samples"] = sk_ok
    ok &= sk_ok

    return CheckResult("3-character-series-fixtures", ok, details)


def criterion_4_koszul(seed: int = 0) -> CheckResult:
    details = {}
    ok = True
    poly3 = make_presentation("polynomial", 3)
    rep3 = SimpleRep(3, 1)
    for label, g in (("1", HeisenbergElement(3)),
                     ("z", HeisenbergElement(3, 0, 0, 1)),
                     ("e1", HeisenbergElement(3, 1, 0, 0))):
        res = koszul.koszul_identity_check(poly3, rep3, g, 4)
        zero = all(c.is_zero() for c in res)
        details[f"residuals_{label}"] = zero
        ok &= zero
    dual = koszul.quadratic_dual(poly3)
    dual_hilb = hilbert(dual, 4)
    details["dual_hilbert"] = dual_hilb
    ok &= dual_hilb == [1, 3, 3, 1, 0]
    return CheckResult("4-koszul-identity", ok, details)


def criterion_5_clifford(seed: int = 0) -> CheckResult:
    details = {}
    ok = True
    profile_rows = [
        clifford.simple_profile(5, 5) == clifford.SimpleProfile(2, 4),
        clifford.simple_profile(4, 5) == clifford.SimpleProfile(1, 4),
        clifford.simple_profile(3, 5) == clifford.SimpleProfile(2, 2),
        clifford.simple_profile(2, 5) == clifford.SimpleProfile(1, 2),
        clifford.fat_profile(5) == clifford.FatProfile(1, 4),
        clifford.fat_profile(4) == clifford.FatProfile(2, 2),
        clifford.fat_profile(3) == clifford.FatProfile(1, 2),
        clifford.fat_profile(2) == clifford.FatProfile(2, 1),
    ]
    details["profile_rows"] = all(profile_rows)
    ok &= all(profile_rows)

    draw = clifford.Draw(seed)
    cases = []
    for _ in range(50):
        n = draw.integers(2, 6)
        k = draw.integers(0, n + 1)
        s = draw.uniform((n, k)) + 1j * draw.uniform((n, k))
        cases.append((k, n, s @ s.T))

    def one(case):
        k, n, m = case
        reps = clifford.build_reps(m, k)
        prof = clifford.simple_profile(k, n)
        shape_ok = (len(reps.tuples) == prof.count
                    and reps.tuples[0][0].shape == (prof.dim, prof.dim))
        return reps.max_residual, shape_ok

    results = [one(case) for case in cases]
    worst = max(r for r, _ in results)
    details["build_reps_worst_residual"] = worst
    details["build_reps_shapes"] = all(s for _, s in results)
    ok &= worst < 1e-9 and all(s for _, s in results)

    form = clifford.clifford_form(3, (1, 1))
    pts = clifford.sample_rank_drop_points(form, 20, seed + 7)
    ranks = rank_float(form.eval_stack(pts), 1e-8).tolist()
    details["dim3_det_zero_ranks"] = sorted(set(ranks))
    ok &= all(r <= 2 for r in ranks)
    return CheckResult("5-clifford-profiles", ok, details)


def criterion_6_sklyanin2(seed: int = 0) -> CheckResult:
    details = {}
    ok = True

    elim = sklyanin2.eliminate_t()
    details["eliminate_check"] = elim.check
    details["cofactor"] = str(elim.cofactor)
    ok &= elim.check

    details["cprime_22"] = str(sklyanin2.cprime_residual(2, 2))
    ok &= sklyanin2.cprime_residual(2, 2) == 0
    indeterminate = sklyanin2.t_param(2, 2) is None
    details["t_22_indeterminate"] = indeterminate
    ok &= indeterminate

    points = sklyanin2.curve_points_on_grid()
    details["curve_points"] = [[cp.a, cp.b] for cp in points]
    ok &= len(points) >= 3

    pm_ok = strat_ok = ideal_ok = sec_ok = True
    for cp in points[:3]:
        ab = (cp.a, cp.b)
        pm_ok &= sklyanin2.point_module_check(ab).ok(1e-8)
        strat_ok &= sklyanin2.stratify(ab, samples=5, seed=seed).ok()
        ideal_ok &= sklyanin2.minor_ideal_checks(ab).ok()
        sec_ok &= sklyanin2.secant_check(ab).ok(1e-7)
    details["point_modules"] = pm_ok
    details["stratification"] = strat_ok
    details["minor_ideals"] = ideal_ok
    details["secant"] = sec_ok
    ok &= pm_ok and strat_ok and ideal_ok and sec_ok

    off = sklyanin2.minor_ideal_checks((0.0, 1.0))
    details["deg6_off_curve"] = off.deg6
    ok &= not off.deg6

    # u_k = x_k^2, so det Q has twice its u-degree in the x-grading
    x_degree = 2 * mat_det(clifford.clifford_form(5, (1, 1, 2))).total_degree()
    details["detQ_x_degree"] = x_degree
    ok &= x_degree == 10

    return CheckResult("6-order2-sklyanin", ok, details)


def criterion_7_onedim(seed: int = 0) -> CheckResult:
    details = {}
    reps = sklyanin2.onedim_reps(5, (1, 2, 2))
    details["count_122"] = len(reps)
    empty = sklyanin2.onedim_reps(5, (1, 1, 1))
    details["count_111"] = len(empty)
    ok = len(reps) == 5 and len(empty) == 0
    return CheckResult("7-onedim-reps", ok, details)


def criterion_8_shioda(seed: int = 0) -> CheckResult:
    details = {}
    ok = True
    minors = shioda5.s15_minors()
    details["minor_count"] = len(minors)
    ok &= len(minors) == 10

    orbit_flags = [shioda5.ca_orbit_check(a).ok() for a in (1, 2)]
    details["ca_orbits"] = all(orbit_flags)
    ok &= all(orbit_flags)

    tt = shioda5.two_torsion_check(20, seed)
    details["two_torsion_worst"] = tt.max_residual
    details["two_torsion_control"] = tt.control_residual
    ok &= tt.ok()

    sp = shioda5.singular_points_check()
    details["singular_points"] = sp.count
    details["singular_ok"] = sp.ok()
    ok &= sp.ok()

    cf = shioda5.cycle_fiber_equivalence()
    details["cycle_fiber"] = cf.ok()
    details["cusp_cycles"] = cf.cusp_cycles
    ok &= cf.ok()
    return CheckResult("8-shioda-s15", ok, details)


def criterion_9_determinism(seed: int = 0) -> CheckResult:
    """A representative numeric slice, run over its points forwards and then
    backwards, must serialize to the same bytes, every bit of every float
    included: no point's report may depend on what ran before it.  `bytes`
    is the length of the slice as output prints it (`cli.to_jsonable`)."""
    from .cli import to_jsonable  # cli imports this module
    points = [(cp.a, cp.b) for cp in sklyanin2.curve_points_on_grid()]

    def per_point(ab):
        pm = sklyanin2.point_module_check(ab)
        ideal = sklyanin2.minor_ideal_checks(ab)
        return {"t": [pm.t.real, pm.t.imag], "worst": pm.max_minor_residual,
                "ranks": pm.ranks, "deg6": ideal.deg6, "deg8": ideal.deg8}

    rows = [per_point(ab) for ab in points]
    forward = json.dumps(rows, sort_keys=True)
    backward = json.dumps([per_point(ab) for ab in reversed(points)][::-1], sort_keys=True)
    ok = forward == backward
    printed = json.dumps(to_jsonable(rows), sort_keys=True)
    return CheckResult("9-determinism", ok, {"bytes": len(printed), "identical": ok})


CRITERIA: Dict[str, Callable[[int], CheckResult]] = {
    "1": criterion_1_heisenberg,
    "2": criterion_2_hilbert,
    "3": criterion_3_charseries,
    "4": criterion_4_koszul,
    "5": criterion_5_clifford,
    "6": criterion_6_sklyanin2,
    "7": criterion_7_onedim,
    "8": criterion_8_shioda,
    "9": criterion_9_determinism,
}


def run_selftest(seed: int = 0, only: Optional[List[str]] = None) -> dict:
    """Run every criterion, or those keyed in `only`; an unknown key is an
    input error."""
    unknown = [key for key in only or () if key not in CRITERIA]
    if unknown:
        raise InputError(f"unknown criterion {unknown[0]!r}; the criteria are "
                         f"{', '.join(sorted(CRITERIA))}")
    results = []
    for key in sorted(CRITERIA):
        if only and key not in only:
            continue
        results.append(CRITERIA[key](seed))
    return {
        "passed": all(r.passed for r in results),
        "criteria": [{"name": r.name, "passed": r.passed, "details": r.details}
                     for r in results],
    }

import dataclasses
import itertools
import subprocess
import sys
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from algtool import minortables, sklyanin2
from algtool.cli import main
from algtool.clifford import clifford_form, random_points, sample_rank_drop_points
from algtool.cyclotomic import Cyclotomic
from algtool.errors import IndeterminateError, InputError, PoleError, ResourceLimitError
from algtool.gradedalg import hilbert, make_presentation
from algtool.linalg import Residual, printed, rank_float
from algtool.minortables import CoefficientTable, _generic_form, minor_tables
from algtool.poly import MultiPoly, PolyMatrix, PolyRing, mat_det, mat_minors
from algtool.selftest import criterion_9_determinism
from algtool.shioda5 import base_orbit, ca_relations
from algtool.sklyanin2 import (CurvePoint, SecantReport, _block_rank, _degree_pieces,
                               _mutual_span, _orbit_stack,
                               check_onedim_bound, cprime_residual, curve_points_on_grid,
                               curve_singularity_report, eliminate_t,
                               minor_ideal_checks, onedim_reps,
                               point_module_check, secant_check,
                               stratify, t_param)
from clifford_reference import assert_stack_is_eval
from rank_reference import orbit_images, point_module_one_by_one, rank_one
import sklyanin2_reference
from sklyanin2_reference import (coefficient_vector, degree_pieces, quadrics_at, reassembled,
                                 table_at)


def bisect_root(f, lo, hi, iters=80):
    assert f(lo) * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def near_one_point():
    """(1, b) for the root b of C'(1, b) in (0, 0.2), found by an independent
    bisection."""
    b = bisect_root(lambda b: b ** 5 - b ** 3 + 2 * b ** 2 - 8 * b + 1, 0.0, 0.2)
    assert abs(cprime_residual(1.0, b)) <= 1e-10
    return 1.0, b


def test_cprime_values():
    assert cprime_residual(2, 2) == 0
    assert cprime_residual(0, 0) == 0
    assert cprime_residual(1, 1) == -5
    assert cprime_residual(Fraction(2), Fraction(2)) == 0


def test_cprime_monomial_support_fixture():
    ring = PolyRing(("a", "b"))
    poly = cprime_residual(MultiPoly.var(ring, 0), MultiPoly.var(ring, 1))
    assert dict(poly.items()) == {
        (3, 3): Fraction(-1), (5, 0): Fraction(1), (0, 5): Fraction(1),
        (2, 2): Fraction(2), (1, 1): Fraction(-8),
    }


def test_t_param():
    assert t_param(2, 2) is None  # 0/0
    assert t_param(0, 1) == Fraction(-1) / Fraction(-4)
    with pytest.raises(PoleError):
        t_param(1.0, (-4 + 20 ** 0.5) / 2)  # denominator zero, numerator not
    cp = curve_points_on_grid()[0]
    assert isinstance(t_param(cp.a, cp.b), float)


def test_q5_form_entries():
    a, b = Fraction(3), Fraction(7)
    form = clifford_form(5, (1, a, b))
    u = [MultiPoly.var(form.ring, i) for i in range(5)]
    assert all(form.at(i, j) == form.at(j, i) for i in range(5) for j in range(5))
    assert form.at(0, 0) == 2 * u[0]
    assert form.at(0, 1) == b * u[3]  # first row: 2u0, b u3, a u1, a u4, b u2
    assert form.at(0, 2) == a * u[1]
    assert form.at(0, 3) == a * u[4]
    assert form.at(0, 4) == b * u[2]
    assert mat_det(clifford_form(5, (1, 0, 0))) == \
        32 * u[0] * u[1] * u[2] * u[3] * u[4]


def test_detq_is_degree_10_in_x_grading():
    # u_k = x_k^2, so the x-degree is twice the u-degree
    det = mat_det(clifford_form(5, (1, 1, 2)))
    assert 2 * det.total_degree() == 10
    assert len({sum(e) for e, _c in det.items()}) == 1


def test_eliminate_t():
    res = eliminate_t()
    assert res.check
    assert res.cofactor is not None
    two = [Fraction(2), Fraction(2), Fraction(0)]
    assert res.resultant.eval(two) == 0
    one = [Fraction(1), Fraction(1), Fraction(0)]
    assert res.resultant.eval(one) != 0


def test_curve_points_on_default_grid():
    points = curve_points_on_grid()
    assert len(points) == 3
    for cp in points:
        assert abs(cprime_residual(cp.a, cp.b)) <= 1e-10
        assert t_param(cp.a, cp.b) is not None


def test_curve_point_validation():
    with pytest.raises(ValueError):
        CurvePoint(1.0, 1.0, cprime_residual(1.0, 1.0))  # -5, not on curve
    CurvePoint(Fraction(2), Fraction(2), Fraction(0))  # exact, accepted
    # a float residual 300 times above and below its 1e-10 bound, so that the
    # bound scaled by 10^3 or 10^-3 flips one verdict
    with pytest.raises(ValueError):
        CurvePoint(1.0, 1.0, 3e-8)
    CurvePoint(1.0, 1.0, 3.3e-13)


def test_point_module_check(near_one_point):
    report = point_module_check(near_one_point)
    assert report.orbit_size == 25
    assert report.minor_count == 100
    assert report.max_minor_residual < 1e-8
    assert all(r == 2 for r in report.ranks)
    assert report.ok(1e-8)
    assert not report.ok(report.max_minor_residual)  # the residual bound is strict


def test_point_module_residual_matches_symbolic_minors():
    # the symbolic reference: all 100 cubic 3x3 minors of Q(a, b), each
    # evaluated at every normalised orbit point
    points = [(cp.a, cp.b) for cp in curve_points_on_grid()[:3]] + [(0.0, 1.0)]
    for a, b in points:
        report = point_module_check((a, b))
        minors = mat_minors(clifford_form(5, (1, complex(a), complex(b))), 3)
        reference = 0.0
        for pt in orbit_images(report.t):
            scale = max(abs(v) for v in pt)
            pt_n = [v / scale for v in pt]
            reference = max(reference, max(abs(m.eval(pt_n)) for m in minors))
        assert report.minor_count == len(minors) == 100
        assert abs(report.max_minor_residual - reference) <= 1e-12 * max(1.0, reference)


# criterion 6's three curve points, and the point of the README examples
BATCH_POINTS = [(cp.a, cp.b) for cp in curve_points_on_grid()[:3]] + [(1.0, 0.12888995128730368)]


@pytest.mark.parametrize("point", BATCH_POINTS, ids=lambda ab: f"a={ab[0]}")
def test_point_module_stack_matches_one_by_one(point):
    # one stack, one minors call and one SVD call give the ranks of the
    # per-matrix path and its residual as printed; the cofactor minors and
    # the LU determinants of the reference differ in the last bits
    report = point_module_check(point)
    worst, ranks = point_module_one_by_one(point)
    assert type(report.max_minor_residual) is Residual
    assert report.max_minor_residual.printed() == Residual(worst).printed() == 0.0
    assert report.ranks == ranks and all(type(r) is int for r in report.ranks)


@pytest.mark.parametrize("point", BATCH_POINTS[::3], ids=lambda ab: f"a={ab[0]}")
def test_stratify_ranks_match_one_by_one(point):
    a, b = point
    form = clifford_form(5, (1, complex(a), complex(b)))
    generic = [rank_one(form.eval(list(pt))) for pt in random_points(5, 5, 7)]
    det_zero = [rank_one(form.eval(list(pt)))
                for pt in sample_rank_drop_points(form, 3, 8, 1e-8)]
    orbit = [rank_one(form.eval(list(pt))) for pt in orbit_images(complex(t_param(a, b)))]
    strata = {s.name: s.ranks for s in stratify(point, samples=5, seed=7).strata}
    assert strata == {"generic": generic, "det-zero": [r for r in det_zero if r != 2],
                      "E-prime": orbit}


@pytest.mark.parametrize("point", BATCH_POINTS + [(0.0, 1.0)], ids=lambda ab: f"a={ab[0]}")
def test_form_stack_is_eval_bit_for_bit(point):
    # named for the bit-for-bit match it had while output printed every
    # bit; now each entry is eval's up to rounding.  At a = 0 the entries
    # (a / 1) u_k are zero, and each is 0 * u_0
    a, b = point
    form = clifford_form(5, (1, complex(a), complex(b)))
    assert (a == 0) == any(not entry.terms for entry in form.entries)
    signed_zeros = [(complex(-0.0, 0.0), -1j, complex(0.0, -0.0), complex(-2.0, -0.0), 1),
                    (complex(-0.0, -0.0), 0j, complex(-0.0, 1.0), 0.5, complex(1.0, -0.0))]
    points = ([list(pt) for pt in orbit_images(complex(t_param(a, b)))]
              + [list(pt) for pt in random_points(5, 4, 2)]
              + [list(pt) for pt in sample_rank_drop_points(form, 3, 4)]
              + [[complex(v) for v in pt] for pt in signed_zeros])
    assert_stack_is_eval(form, points, form.eval_stack(points))


ORBIT_TS = {"generic": 0.75 + 0.1j, "README": complex(t_param(1.0, 0.12888995128730368)),
            "zero": 0j, "tiny": 1e-12 + 0j, "huge": 1e12 + 0j,
            "1e-300": 1e-300 + 0j, "1e300": 1e300 + 0j}
_rng = np.random.default_rng(38)
ORBIT_TS.update((f"random{i}", complex(10.0 ** e * np.exp(2j * np.pi * _rng.random())))
                for i, e in enumerate(_rng.uniform(-12, 12, size=40)))


@pytest.mark.parametrize("t", ORBIT_TS.values(), ids=ORBIT_TS.keys())
def test_orbit_points_are_25_distinct_normalized_images(t):
    """The stabilizer of the base point in H_5/Z is trivial, so its 25 images
    are distinct: divided by their first coordinate above 1e-9
    (`orbit_images`), pairwise at least 0.1 apart in some coordinate.  The
    rows of `_orbit_stack` are the same projective points in the same order,
    with nothing dropped: every 2x2 minor of a row and its image, scaled to
    largest modulus 1, vanishes."""
    stack, images = _orbit_stack(t), np.array(orbit_images(t))
    assert stack.shape == images.shape == (25, 5)
    scaled = images / np.abs(images).max(axis=1, keepdims=True)
    minors = stack[:, :, None] * scaled[:, None, :] - stack[:, None, :] * scaled[:, :, None]
    assert np.abs(minors).max() <= 1e-12
    gaps = np.abs(images[:, None, :] - images[None, :, :]).max(axis=2)
    assert gaps[~np.eye(25, dtype=bool)].min() >= 0.1


@pytest.mark.parametrize("t", ORBIT_TS.values(), ids=ORBIT_TS.keys())
def test_orbit_stack_is_orbit_points_at_modulus_one(t):
    # the same 25 projective points in the same order: each row is its
    # `orbit_images` image times one unit factor, largest modulus 1
    stack, pts = _orbit_stack(t), np.array(orbit_images(t))
    assert stack.shape == (25, 5)
    assert np.allclose(np.abs(stack).max(axis=1), 1.0, rtol=0, atol=1e-15)
    lead = np.argmax(np.abs(pts), axis=1)
    rows = np.arange(25)
    unit = stack[rows, lead] / pts[rows, lead] * np.abs(pts[rows, lead])
    assert np.allclose(np.abs(unit), 1.0, rtol=0, atol=1e-12)
    scaled = pts / np.abs(pts).max(axis=1, keepdims=True)
    assert np.allclose(stack, unit[:, None] * scaled, rtol=0, atol=1e-12)


def test_point_module_check_rejects_singular_parameter():
    with pytest.raises(IndeterminateError):
        point_module_check((2.0, 2.0))


@pytest.mark.parametrize("t", [1, 2, Fraction(3, 2), Fraction(-7, 3), 0], ids=str)
def test_orbit_stack_picks_up_the_exact_phases(t):
    """At a rational t each row of `_orbit_stack` is the exact image of
    `shioda5.base_orbit` (`heisenberg.apply_element` over Q(w_5)) embedded
    in C: coordinate c times w^(b c) moved to c - a, in the same order, up
    to one unit factor per row, as both are scaled to largest modulus 1."""
    exact = np.array([[v.embed(1) for v in pt] for pt in base_orbit(t)])
    exact /= np.abs(exact).max(axis=1, keepdims=True)
    stack = _orbit_stack(complex(t))
    rows = np.arange(25)
    lead = np.argmax(np.abs(exact), axis=1)
    unit = stack[rows, lead] / exact[rows, lead]
    assert np.allclose(np.abs(unit), 1.0, rtol=0, atol=1e-12)
    assert np.allclose(stack, unit[:, None] * exact, rtol=0, atol=1e-12)


def test_orbit_is_heisenberg_stable():
    t = 0.75 + 0.1j
    pts = _orbit_stack(t)
    assert len(pts) == 25
    assert len({tuple(np.round(p, 6)) for p in pts}) == 25


def test_stratify(near_one_point):
    strata = {s.name: s for s in stratify(near_one_point, samples=5, seed=3).strata}
    generic = strata["generic"]
    assert all(r == 5 for r in generic.ranks)
    assert (generic.simple.count, generic.simple.dim) == (2, 4)
    assert (generic.fat.count, generic.fat.multiplicity) == (1, 4)
    drop = strata["det-zero"]
    assert all(r == 4 for r in drop.ranks)
    assert (drop.fat.count, drop.fat.multiplicity) == (2, 2)
    eprime = strata["E-prime"]
    assert all(r == 2 for r in eprime.ranks)
    assert (eprime.fat.count, eprime.fat.multiplicity) == (2, 1)  # 2 point modules


def test_minor_ideal_checks(near_one_point):
    report = minor_ideal_checks(near_one_point)
    assert report.deg6 and report.deg8
    assert report.minor3_span_dim == report.product_span_dim
    assert report.minor4_span_dim == report.qq_span_dim
    off = minor_ideal_checks((0.0, 1.0))
    assert not off.deg6


def in_span_reference(basis, target, tol):
    """The per-vector float decision `_mutual_span` used to make: target is
    in span(basis) when stacking it on the basis adds no singular value
    above tol relative to the largest."""
    a = np.asarray(basis, dtype=complex)
    return rank_float(np.vstack([a, np.asarray(target, dtype=complex)]), tol) <= rank_float(a, tol)


def span_tables():
    """The (A, B) tables of the degree-6 and degree-8 span checks."""
    tables = minor_tables()
    return (tables.minors3, tables.products), (tables.minors4, tables.qq)


def test_mutual_span_matches_per_vector_reference():
    # the reference reads the full matrices, reassembled from the blocks
    tol = 1e-7  # the default span tolerance of minor_ideal_checks
    points = [(cp.a, cp.b) for cp in curve_points_on_grid()[:3]] + [(0.0, 1.0)]
    decisions = []
    for point in points:
        _t, *pieces = _degree_pieces(point)
        for (blocka, blockb), (ta, tb) in zip(pieces, span_tables()):
            vexa, vexb = reassembled(ta, blocka), reassembled(tb, blockb)
            reference = (all(in_span_reference(vexb, v, tol) for v in vexa)
                         and all(in_span_reference(vexa, v, tol) for v in vexb))
            equal, ra, rb = _mutual_span(blocka, blockb, tol)
            assert equal == reference
            assert (ra, rb) == (rank_float(vexa, tol), rank_float(vexb, tol))
            decisions.append(equal)
    # the three curve points pass in degrees 6 and 8; the off-curve control
    # (0, 1) fails in degree 6
    assert decisions[:6] == [True] * 6
    assert decisions[6] is False


def exact_table(table, values):
    """The table at exact parameter values, summed term by term in Fractions."""
    rows = [[Fraction(0)] * len(table.basis) for _ in range(table.size)]
    for row, col, param, coeff in table.entries.tolist():
        rows[row][col] += coeff * prod(v ** k for v, k in zip(values, table.params[param]))
    return rows


@pytest.mark.parametrize("ab", [(Fraction(3, 2), Fraction(-2, 5)), (Fraction(1), Fraction(7, 3))],
                         ids=str)
def test_minor_tables_equal_exact_minors_and_products(ab):
    a, b = ab
    minors3, products, minors4, qq, det_q, jacobian = minor_tables()
    form = clifford_form(5, (1, a, b))
    for table, k in ((minors3, 3), (minors4, 4), (det_q, 5)):
        expected = [coefficient_vector(m, table.basis) for m in mat_minors(form, k)]
        assert exact_table(table, (a, b)) == expected
    t = t_param(a, b)
    u = [MultiPoly.var(form.ring, i) for i in range(5)]
    quadrics = quadrics_at(form.ring, t)
    expected = [coefficient_vector(u[j] * q, products.basis) for q in quadrics for j in range(5)]
    assert exact_table(products, (t,)) == expected
    expected = [coefficient_vector(quadrics[i] * quadrics[j], qq.basis)
                for i in range(5) for j in range(i, 5)]
    assert exact_table(qq, (t,)) == expected
    jac = mat_det(PolyMatrix(5, 5, [q.partial(j) for q in quadrics for j in range(5)]))
    assert exact_table(jacobian, (t,)) == [coefficient_vector(jac, jacobian.basis)]


@pytest.mark.parametrize("ab", [(1.0, 0.12888995128730368), (0.0, 1.0), (-2.5, 3.25),
                                (0.3 - 1.1j, 2j), (1e20, -3e-20)], ids=str)
def test_minor_tables_bincount_is_the_add_at_scatter_bit_for_bit(ab):
    # every cell sums its terms in table order either way, with the real and
    # imaginary parts apart
    t = complex(t_param(*ab)) if ab[0] == 1.0 else complex(ab[0] * ab[1])
    for name, table in minor_tables()._asdict().items():
        values = (t,) if len(table.params[0]) == 1 else ab
        got = table.at(values)
        assert got.shape == (table.size, len(table.basis)), name
        assert got.tobytes() == table_at(table, values).tobytes(), name
        if table.block_cells is not None:  # the span tables' weight blocks
            assert reassembled(table, table.blocks(values)).tobytes() == got.tobytes(), name


def test_determinant_tables_are_the_tables_of_mat_det():
    """det Q, taken from the minors' memo, and the Jacobian determinant of
    the q_i are the tables of `mat_det` of Q(a, b) and of the Jacobian."""
    tables = minor_tables()
    ring = PolyRing(("u0", "u1", "u2", "u3", "u4", "t"))
    u = [MultiPoly.var(ring, i) for i in range(6)]
    quadrics = ca_relations(u[:5], u[5])
    expected = (mat_det(_generic_form()),
                mat_det(PolyMatrix(5, 5, [q.partial(j) for q in quadrics for j in range(5)])))
    for table, det in zip((tables.det_q, tables.jacobian), expected):
        want = CoefficientTable.of([det], 5)
        assert (table.size, table.basis, table.params) == (want.size, want.basis, want.params)
        assert np.array_equal(table.entries, want.entries)


@pytest.mark.parametrize("point", BATCH_POINTS[:3] + [(0.0, 1.0)], ids=lambda ab: f"a={ab[0]}")
def test_degree_pieces_match_the_per_point_route(point):
    # the blocks, put back in place, are the full matrices of the reference,
    # zero off the blocks included
    t, *pieces = _degree_pieces(point)
    ref_t, *ref_pieces = degree_pieces(point)
    assert t == ref_t
    for pair, ref_pair, table_pair in zip(pieces, ref_pieces, span_tables()):
        for blocks, ref, table in zip(pair, ref_pair, table_pair):
            ref = np.asarray(ref, dtype=complex)
            assert blocks.shape == (5, table.size // 5, len(table.basis) // 5)
            ours = reassembled(table, blocks)
            assert ours.shape == ref.shape
            assert np.abs(ours - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def full_span_decision(vexa, vexb, tol):
    """`_mutual_span`'s triple from full matrices and `rank_float`."""
    ra, rb = rank_float(vexa, tol), rank_float(vexb, tol)
    return ra == rb == rank_float(np.vstack([vexa, vexb]), tol), ra, rb


def test_block_ranks_decide_as_full_ranks():
    """The block-diagonal rank of the blocks is the `rank_float` rank of the
    full matrix, and the span verdicts agree, at three tolerances, on 64
    points of C' and at the off-curve (0, 1)."""
    grid = [Fraction(k, 8) for k in range(-32, 33) if k]
    points = [(cp.a, cp.b) for cp in curve_points_on_grid(grid)] + [(0.0, 1.0)]
    assert len(points) == 65
    verdicts = set()
    for point in points:
        _t, *pieces = _degree_pieces(point)
        for (blocka, blockb), (ta, tb) in zip(pieces, span_tables()):
            vexa, vexb = reassembled(ta, blocka), reassembled(tb, blockb)
            for tol in (1e-4, 1e-7, 1e-10):
                got = _mutual_span(blocka, blockb, tol)
                assert got == full_span_decision(vexa, vexb, tol), (point, tol)
                verdicts.add(got[0])
    assert verdicts == {True, False}


def test_block_rank_thresholds_by_the_largest_block():
    # blocks of scales 1 down to 1e-12: relative to each block's own top
    # every block would have full rank 3
    rng = np.random.default_rng(5)
    blocks = np.stack([10.0 ** -e * (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
                       for e in (0, 3, 6, 9, 12)])
    full = np.zeros((20, 15), dtype=complex)
    for w, block in enumerate(blocks):
        full[4 * w:4 * w + 4, 3 * w:3 * w + 3] = block
    for tol, rank in ((1e-4, 6), (1e-7, 9), (1e-10, 12)):
        assert _block_rank(blocks, tol) == rank_float(full, tol) == rank
    assert _block_rank(np.zeros((5, 2, 3)), 1e-7) == 0


def moved_term(polys, row: int):
    """`polys` with one term of polynomial `row` moved from u_0 to u_1,
    which changes its e2-weight by 2."""
    f = polys[row]
    terms = dict(f.items())
    e = next(e for e in terms if e[0])
    moved = (e[0] - 1, e[1] + 1) + e[2:]
    terms[moved] = terms.get(moved, 0) + terms.pop(e)
    return polys[:row] + [MultiPoly(f.ring, terms)] + polys[row + 1:]


def test_a_term_of_another_weight_breaks_the_build():
    minors = mat_minors(_generic_form(), 3)
    built = CoefficientTable.of(minors, 3, blocked=True)
    assert np.array_equal(built.block_cells, minor_tables().minors3.block_cells)
    with pytest.raises(ValueError, match="two e2-weights"):
        CoefficientTable.of(moved_term(minors, 7), 3, blocked=True)
    # one polynomial fewer: the blocks have unequal heights
    with pytest.raises(ValueError, match="unequal sizes"):
        CoefficientTable.of(minors[:-1], 3, blocked=True)
    CoefficientTable.of(minors[:-1], 3)  # unblocked tables are not checked


@pytest.mark.parametrize("scale, holds", [(1e-9, True), (1e-5, False)])
def test_span_tolerance_parts_noise_from_a_planted_vector(monkeypatch, scale, holds):
    """A minors3 row plus a vector of one e2-weight outside span(products),
    scaled to 1e-9 or 1e-5 of the top singular value: below the default
    SPAN_TOL = 1e-7 it is noise and deg6 holds, above it deg6 fails.  With
    SPAN_TOL moved by 10^3 either way one of the two cases fails."""
    point = BATCH_POINTS[0]
    t, (minors3, products), deg8 = _degree_pieces(point)
    top = np.linalg.svd(np.concatenate([minors3, products], axis=1), compute_uv=False)
    w = int(np.argmax(top[:, 0]))
    outside = np.linalg.svd(products[w])[2][-1]  # orthogonal to every row of products[w]
    assert np.abs(products[w] @ outside.conj()).max() <= 1e-12 * top[w, 0]
    planted = minors3.copy()
    planted[w, 0] += scale * top[w, 0] * outside
    monkeypatch.setattr(sklyanin2, "_degree_pieces", lambda _point: (t, (planted, products), deg8))
    report = minor_ideal_checks(point)
    assert report.deg6 is holds and report.deg8
    assert report.minor3_span_dim == 20 + (not holds)


def test_one_changed_table_coefficient_breaks_deg6(monkeypatch):
    point = BATCH_POINTS[0]
    tables = minor_tables()
    assert minor_ideal_checks(point).deg6
    entries = tables.minors3.entries.copy()
    entries[0, 3] += 1
    broken = tables._replace(minors3=dataclasses.replace(tables.minors3, entries=entries))
    monkeypatch.setattr(minortables, "minor_tables", lambda: broken)
    assert not minor_ideal_checks(point).deg6


def test_criterion_9_fails_on_an_order_dependent_report(monkeypatch):
    assert criterion_9_determinism(0).passed
    calls = itertools.count()
    real = sklyanin2.point_module_check

    def drifting(ab):
        report = real(ab)
        return dataclasses.replace(report, ranks=report.ranks + [next(calls)])

    monkeypatch.setattr(sklyanin2, "point_module_check", drifting)
    assert not criterion_9_determinism(0).passed


def test_minor_tables_are_built_once_through_mat_minors(monkeypatch):
    minor_tables.cache_clear()
    sizes = []
    real = minortables.mat_minors

    def counted(m, k, minor=None):
        sizes.append(k)
        return real(m, k, minor)

    monkeypatch.setattr(minortables, "mat_minors", counted)
    assert criterion_9_determinism(0).passed
    assert sizes == [3, 4]
    assert minor_tables.cache_info().misses == 1


def test_cli_start_up_does_not_import_the_tables():
    code = "import sys, algtool.cli; print('algtool.minortables' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


def test_the_tables_do_not_import_sklyanin2():
    # sklyanin2 imports minortables where it first needs it; no import cycle back
    code = "import sys, algtool.minortables; print('algtool.sklyanin2' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


def random_cprime_points(count: int, seed: int):
    """`count` points (a, b) of C' with a uniform in [0.5, 2.5] and b a real
    root of C'(a, b) = 0 with t finite and not near 0."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        a = float(rng.uniform(0.5, 2.5))
        for b in np.roots([1.0, 0.0, -a ** 3, 2 * a ** 2, -8 * a, a ** 5]):
            if abs(b.imag) < 1e-12 and abs(b.real) > 1e-3:
                t = t_param(a, float(b.real))
                if t is not None and 1e-3 < abs(t) < 1e3:
                    points.append((a, float(b.real)))
                    break
    return points


def test_secant_check_matches_the_symbolic_determinants():
    """The tabled determinants give the factor and residual of expanding both
    determinants at the point: at the grid points of criterion 6, the README
    point and ten random points of C'."""
    points = [(cp.a, cp.b) for cp in curve_points_on_grid()]
    points += [(1.0, 0.12888995128730368)] + random_cprime_points(10, 3)
    assert len(points) == 14
    for point in points:
        ours, ref = secant_check(point), sklyanin2_reference.secant_check(point)
        assert ours.t == ref.t
        assert abs(ours.lam - ref.lam) <= 1e-12 * abs(ref.lam)
        assert ours.residual < 1e-12 and ref.residual < 1e-12
        assert (ours.jac_degree, ours.det_degree) == (ref.jac_degree, ref.det_degree) == (5, 5)


def printed_abt(points) -> list:
    """(a, b, t) of each curve point as output prints them."""
    return [(printed(cp.a), printed(cp.b), printed(t_param(cp.a, cp.b))) for cp in points]


GRID8 = (Fraction(1), Fraction(3, 2), Fraction(1, 2), Fraction(2), Fraction(5, 2),
         Fraction(-1), Fraction(3), Fraction(-7, 4))
GRID513 = sorted({Fraction(n, d) for d in (1, 2, 3, 4, 5, 7, 8, 10, 20)
                  for n in range(-8 * d, 8 * d + 1)})


def test_curve_points_bisection_is_the_reference_bit_for_bit():
    # named for the bit-for-bit match it had while output printed every
    # bit; now the same a, and b and t equal at the 12 digits output prints
    ours, ref = curve_points_on_grid(GRID8), sklyanin2_reference.curve_points_on_grid(GRID8)
    assert [cp.a for cp in ours] == [cp.a for cp in ref]
    assert printed_abt(ours) == printed_abt(ref)


def test_curve_points_are_the_scan_points_on_513_grid_values():
    """a = n/d with d in {1, 2, 3, 4, 5, 7, 8, 10, 20} and |a| <= 8: the roots of
    the quintic give a point at the same a as the scan and bisection, at the
    same root up to rounding; a = 2, with the singular double root (2, 2),
    is among them."""
    grid = GRID513
    assert len(grid) == 513 and Fraction(2) in grid
    ours, ref = curve_points_on_grid(grid), sklyanin2_reference.curve_points_on_grid(grid)
    assert [cp.a for cp in ours] == [cp.a for cp in ref]
    assert all(abs(cp.b - rp.b) <= 1e-12 * max(1.0, abs(rp.b)) for cp, rp in zip(ours, ref))


def test_secant_check(near_one_point):
    report = secant_check(near_one_point)
    assert report.residual < 1e-7
    assert abs(report.lam) > 1e-12
    assert report.jac_degree == 5 and report.det_degree == 5
    assert report.ok(1e-7) and not report.ok(report.residual)


def test_secant_pole_guard_on_both_sides(monkeypatch):
    # |t| 300 times above and below the 1e-12 pole guard, so that the guard
    # scaled by 10^3 or 10^-3 flips one verdict
    for t in (3e-10, 3e-10j):
        monkeypatch.setattr(sklyanin2, "_require_t", lambda a, b, t=t: complex(t))
        assert secant_check((1.0, 2.0)).t == t
    monkeypatch.setattr(sklyanin2, "_require_t", lambda a, b: complex(-3.3e-15))
    with pytest.raises(PoleError):
        secant_check((1.0, 2.0))


def test_secant_verdict_lam_cutoff():
    # |lam| against 300 times above and below its 1e-12 cutoff, so that the
    # cutoff scaled by 10^3 or 10^-3 flips one verdict
    def ok(lam: complex) -> bool:
        return SecantReport(1j, lam, Residual(1e-10), 5, 5).ok(1e-7)

    assert ok(1e-12 * 300) and ok(-1e-12 * 300j)
    assert not ok(1e-12 / 300) and not ok(0j)


def test_onedim_reps_122():
    reps = onedim_reps(5, (1, 2, 2))
    assert len(reps) == 5
    pres = make_presentation("cliffordC", 5, 1, 2, 2)
    roots = set()
    for tup in reps:
        assert tup[0] == 1
        roots.add(tup[1].coeffs)
        for rel in pres.relations:
            acc = Cyclotomic(5)
            for (w0, w1), coeff in rel:
                acc = acc + coeff * tup[w0] * tup[w1]
            assert acc.is_zero()
    assert len(roots) == 5  # one tuple per fifth root of unity


def test_onedim_reps_111_empty():
    assert onedim_reps(5, (1, 1, 1)) == []


def test_onedim_reps_p3():
    assert len(onedim_reps(3, (1, 2))) == 3


def ones_and_twos(p: int, scale=1) -> tuple:
    """scale * (1, 2, ..., 2), the cliffordC(p) parameters with p reps."""
    return tuple(scale * a for a in (1,) + (2,) * ((p - 1) // 2))


W5 = Cyclotomic.zeta(5, 1)


@pytest.mark.parametrize("p, avec", [
    *[(p, ones_and_twos(p)) for p in (3, 5, 7, 11, 13)],
    (5, (1, Fraction(1, 2), 3)), (5, (Fraction(1, 2), 1, 1)), (7, (1, 0, 2, 0)),
    (5, (0, 1, 2)), (5, (1, 1, 1)),
    (5, (1, 2, W5)), (5, (1, 2, Cyclotomic.from_rational(5, 2))),
    (5, (Cyclotomic.from_rational(5, 1), Cyclotomic.from_rational(5, 2), 2)),
    (5, (1, Cyclotomic.from_rational(5, 2), 2)),
    (5, (Cyclotomic.from_rational(5, Fraction(1, 3)), 1, W5)),
    (5, ones_and_twos(5, 3 * W5 ** 2 - 1)), (7, ones_and_twos(7, Cyclotomic.zeta(7, 3))),
    (5, (W5, W5, W5)),
], ids=["p3", "p5", "p7", "p11", "p13", "fractions", "half-a0", "i0-2", "a0-zero",
        "empty", "qw-param", "qw-rational-param", "qw-rational-a0-ai0",
        "qw-rational-ai0", "qw-rational-a0-third", "qw-multiple-p5", "qw-multiple-p7",
        "qw-multiple-empty"])
def test_onedim_reps_match_the_qw_loop(p, avec):
    assert onedim_reps(p, avec) == sklyanin2_reference.onedim_reps(p, avec)


def twists(p: int, i0: int, tup) -> list:
    """The p images of `tup` under e2^(j/i0), y_m -> w^(j m/i0) y_m."""
    inv = pow(i0, -1, p)
    return [tuple(y * Cyclotomic.zeta(p, j * m * inv) for m, y in enumerate(tup))
            for j in range(p)]


@st.composite
def onedim_params(draw):
    """(p, a_0, ..., a_{(p-1)/2}) at p in {3, 5, 7}: small rationals with a_0
    != 0, or a multiple of (1, 2, ..., 2), times a Q(w) unit or not; a_{i0}
    / (2 a_0) stays rational."""
    p = draw(st.sampled_from([3, 5, 7]))
    half = (p - 1) // 2
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    a0 = draw(small.filter(bool))
    if draw(st.booleans()):
        avec = ones_and_twos(p, a0)
    else:
        avec = (a0,) + tuple(draw(st.lists(small, min_size=half, max_size=half).filter(any)))
    if draw(st.booleans()):
        unit = Cyclotomic.zeta(p, draw(st.integers(0, p - 1))) * draw(st.sampled_from([1, -2]))
        avec = tuple(unit * a for a in avec)
    return p, avec


@seed(20261020)
@settings(max_examples=60, deadline=None, database=None)
@given(onedim_params())
def test_onedim_reps_are_none_or_the_twists_of_one(params):
    # every candidate is checked on its own by the reference, so its reps
    # being [] or one e2-orbit is the theorem `onedim_reps` rests on
    p, avec = params
    reps = sklyanin2_reference.onedim_reps(p, avec)
    assert onedim_reps(p, avec) == reps
    i0 = next(i for i, a in enumerate(avec) if i and a)
    assert reps == [] or reps == twists(p, i0, reps[0])


def test_onedim_reps_rational_valued_qw_params_are_the_rational_ones():
    as_qw = Cyclotomic.from_rational
    for p, avec in [(5, (1, 2, 2)), (5, (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))),
                    (5, (1, 1, 1)), (7, (2, 4, 4, 4))]:
        qw = tuple(as_qw(p, a) for a in avec)
        assert onedim_reps(p, qw) == onedim_reps(p, avec)
    # a_0 rational, a_{i0} a rational-valued Cyclotomic: cliffordC(5; 1, 2, 2)
    reps = onedim_reps(5, (1, as_qw(5, 2), 2))
    assert len(reps) == 5 and reps == onedim_reps(5, (1, 2, 2))


def test_onedim_reps_refuse_an_irrational_ratio():
    for p, avec in [(5, (1, W5, 2)), (5, (W5, 1, 1)), (7, (1, 0, Cyclotomic.zeta(7, 2), 1))]:
        with pytest.raises(InputError, match="is not rational"):
            onedim_reps(p, avec)


def test_onedim_bound_admits_101_and_refuses_103():
    check_onedim_bound(101)
    with pytest.raises(ResourceLimitError, match="p=103 prints up to 10609 coordinates"):
        check_onedim_bound(103)


def test_onedim_reps_errors():
    # the all-zero vector, a_i = 0 for every i >= 1, and the catalog's count check
    for p, avec in [(5, (0, 0, 0)), (5, (1, 0, 0)), (5, (1, 2))]:
        with pytest.raises(InputError):
            onedim_reps(p, avec)


def test_sklyanin5_hilbert_matches_polynomial_at_float_approximants():
    # rational approximants of sampled curve points; Hilbert only (character
    # rows with w need exact parameters and are covered by cliffordC tests)
    for cp in curve_points_on_grid((Fraction(1), Fraction(3, 2), Fraction(1, 2),
                                    Fraction(2), Fraction(5, 2))):
        a = Fraction(cp.a).limit_denominator(10 ** 6)
        b = Fraction(cp.b).limit_denominator(10 ** 6)
        pres = make_presentation("sklyanin5", a, b)
        assert hilbert(pres, 3) == [1, 5, 15, 35]


def test_clifford_table_matches_polynomial():
    from algtool.gradedalg import character_table
    from algtool.heisenberg import SimpleRep
    rep = SimpleRep(5, 1)
    poly_table = character_table(make_presentation("polynomial", 5), rep, 3)
    cl_table = character_table(make_presentation("cliffordC", 5, 1, 2, 3), rep, 3)
    assert cl_table.same_series(poly_table)


def test_singularity_report_informational():
    report = curve_singularity_report()
    assert report["singular"] is True
    assert all(v == 0 for v in report["partials"])


@pytest.mark.parametrize("check", ["minors", "ideal", "secant", "stratify"])
def test_report_verdicts(near_one_point, check):
    # each report's ok() passes on the curve and fails at (1.5, 0.7), off it,
    # with the CLI's default tolerances: rank 1e-8, span 1e-7
    verdict = {
        "minors": lambda pt: point_module_check(pt, 1e-8).ok(1e-7),
        "ideal": lambda pt: minor_ideal_checks(pt, 1e-7).ok(),
        "secant": lambda pt: secant_check(pt).ok(1e-7),
        "stratify": lambda pt: stratify(pt, 6, 0, 1e-8).ok(),
    }[check]
    assert verdict(near_one_point) is True
    assert verdict((1.5, 0.7)) is False


def roots_shifted_by(ulps: int):
    """`np.roots` with the real part of each root moved by `ulps` floats."""
    roots = np.roots

    def shifted(coeffs):
        out = roots(coeffs)
        real = out.real
        for _ in range(abs(ulps)):
            real = np.nextafter(real, np.sign(ulps) * np.inf)
        return real + 1j * out.imag
    return shifted


@pytest.mark.parametrize("ulps", [-64, -12, -3, -1, 1, 2, 7, 12, 64])
def test_curve_points_do_not_depend_on_the_last_bits_of_the_roots(capsys, monkeypatch, ulps):
    """Roots off by a few ulps, as another LAPACK build may give them, end
    the Newton polish within a few ulps of where they did: `sklyanin2
    curve` on the 8-value grid prints the same bytes."""
    argv = ["sklyanin2", "curve", "--grid", ",".join(map(str, GRID8)), "--format", "json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(np, "roots", roots_shifted_by(ulps))
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("ulps", [-12, -1, 1, 12])
def test_curve_points_on_513_grid_values_print_alike_under_shifted_roots(monkeypatch, ulps):
    # a, b and t as printed; the absolute residual, above the floor at
    # |a| >~ 5, follows the last bits of b
    expected = printed_abt(curve_points_on_grid(GRID513))
    monkeypatch.setattr(np, "roots", roots_shifted_by(ulps))
    assert printed_abt(curve_points_on_grid(GRID513)) == expected

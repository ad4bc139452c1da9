from fractions import Fraction

import ast
from pathlib import Path

import numpy as np
import pytest

from algtool.cyclotomic import Cyclotomic
from algtool.errors import InputError
from algtool import shioda5
from algtool.gradedalg import Presentation, curve_fiber, make_presentation, make_relation
from algtool.heisenberg import (HeisenbergElement, SimpleRep, apply_element,
                                projective_fixed_points, subgroup_generators)
from algtool.linalg import Residual, rank_float
from algtool.poly import PolyMatrix
from algtool.shioda5 import (_entry_monomials, _minor_jacobians, _on_s15, _within,
                             base_orbit, ca_orbit_check, ca_relations, cusp_cycles,
                             cycle_fiber_equivalence, s15_matrix, s15_minors,
                             singular_points_check, thirty_points,
                             TwoTorsionReport, two_torsion_check, x_vars)
from heisenberg_reference import normalize_projective
from rank_reference import minors_det
from shioda5_reference import rank_below_3, two_torsion_per_point


def test_s15_matrix_layout():
    m = s15_matrix()
    assert (m.rows, m.cols) == (3, 5)
    ring = m.ring
    from algtool.poly import MultiPoly
    x = [MultiPoly.var(ring, i) for i in range(5)]
    for i in range(5):
        assert m.at(0, i) == x[i] * x[i]
        assert m.at(1, i) == x[(2 + i) % 5] * x[(3 + i) % 5]
        assert m.at(2, i) == x[(1 + i) % 5] * x[(4 + i) % 5]


def test_minors_count_degree_and_fixture():
    minors = s15_minors()
    assert len(minors) == 10
    assert all({sum(e) for e, _c in m.items()} == {6} for m in minors)
    assert str(minors[0]) == ("-1 * x0^4 x2^1 x4^1 + 1 * x0^2 x1^1 x3^2 x4^1 "
                              "+ 1 * x0^1 x1^3 x4^2 + 1 * x0^1 x2^4 x3^1 "
                              "+ -1 * x1^3 x2^1 x3^2 + -1 * x1^1 x2^2 x3^1 x4^2")


def test_minors_vanish_at_coordinate_points():
    minors = s15_minors()
    for j in range(5):
        pt = [Cyclotomic.from_rational(5, 1 if i == j else 0) for i in range(5)]
        assert all(m.eval(pt).is_zero() for m in minors)


def test_minors_permuted_by_index_shift():
    minors = s15_minors()
    shifted = set()
    for m in minors:
        terms = {}
        for exps, c in m.items():
            new = tuple(exps[(i - 1) % 5] for i in range(5))  # x_i -> x_{i+1}
            terms[new] = c
        shifted.add(frozenset(terms.items()))
    originals = set()
    for m in minors:
        items = m.items()
        originals.add(frozenset(items))
        originals.add(frozenset((e, -c) for e, c in items))
    assert shifted <= originals


@pytest.mark.parametrize("a", [1, 2, Fraction(1, 2)])
def test_ca_orbit_check(a):
    report = ca_orbit_check(a)
    assert report.points == 25
    assert report.relations_ok and report.minors_ok


def test_ca_orbit_degenerate_fiber():
    report = ca_orbit_check(0)
    assert report.ok()  # relations degenerate to the cusp-cycle monomials


@pytest.mark.parametrize("a", [0.5, 0.75 + 0.1j, "2"], ids=["float", "complex", "str"])
def test_orbit_at_an_inexact_parameter_is_an_input_error(a):
    # the exact check takes an int or a Fraction; a float orbit of E' is
    # sklyanin2's numpy stack
    with pytest.raises(InputError, match="int or Fraction"):
        ca_orbit_check(a)
    with pytest.raises(InputError, match="int or Fraction"):
        base_orbit(a)


def test_orbit_equivariance():
    rels = ca_relations(x_vars(), 1)
    minors = s15_minors()
    rep = SimpleRep(5, 1)
    pt = base_orbit(1)[7]
    moved = apply_element(rep, HeisenbergElement(5, 1, 0, 0), pt)
    assert all(r.eval(list(moved)).is_zero() for r in rels)
    assert all(m.eval(list(moved)).is_zero() for m in minors)


def test_two_torsion_check():
    report = two_torsion_check(20, seed=0)
    assert report.roots_checked == 80
    assert report.max_residual < 1e-7
    assert report.control_residual > 1e-5
    with pytest.raises(ValueError):
        two_torsion_check(0)


def test_two_torsion_check_passes_on_every_seed():
    # the negative control's residual is provably >= 1.6e-4 (see the docstring)
    for seed in range(60):
        report = two_torsion_check(20, seed=seed)
        assert report.ok(), (seed, report)
        assert report.control_residual > 1.6e-4


def test_two_torsion_verdict_cutoffs():
    # each cutoff (residual 1e-7, control 1e-5) against values 300 times
    # above and below it, so that either cutoff scaled by 10^3 or 10^-3
    # flips one verdict
    def ok(residual: float, control: float) -> bool:
        return TwoTorsionReport(20, 80, Residual(residual), Residual(control)).ok()

    low_residual, high_residual = 1e-7 / 300, 1e-7 * 300
    low_control, high_control = 1e-5 / 300, 1e-5 * 300
    assert ok(low_residual, high_control)
    assert not ok(high_residual, high_control)
    assert not ok(low_residual, low_control)
    assert not ok(high_residual, low_control)


def test_two_torsion_stack_is_the_per_point_eval():
    # the entries c x_i x_j as numpy products against `PolyMatrix.eval` at
    # each point: the same residuals up to rounding, and as printed
    for seed in range(12):
        report = two_torsion_check(20, seed=seed)
        worst, control = two_torsion_per_point(20, seed)
        assert abs(report.max_residual - worst) <= 1e-15
        assert abs(report.control_residual - control) <= 1e-12 * control
        assert report.max_residual.printed() == Residual(worst).printed()
        assert report.control_residual.printed() == Residual(control).printed()


def test_two_torsion_degenerate_point():
    # (x1, x2) = (0, 0) degenerates the sextic; the surviving point is a
    # coordinate point and satisfies the minors exactly
    pt = [Cyclotomic.from_rational(5, v) for v in (1, 0, 0, 0, 0)]
    assert all(m.eval(pt).is_zero() for m in s15_minors())


def test_singular_points():
    assert len(thirty_points()) == 30
    report = singular_points_check()
    assert report.count == 30
    assert report.on_surface
    assert all(r < 2 for r in report.singular_ranks)
    assert len(report.control_ranks) == 10
    assert all(r == 2 for r in report.control_ranks)


def test_exact_rank_test_agrees_with_symbolic_minors():
    monomials = _entry_monomials(s15_matrix())
    minors = s15_minors()
    one = Cyclotomic.from_rational(5, 1)
    on = base_orbit(2) + thirty_points()
    off = [(pt[0] + one,) + pt[1:] for pt in base_orbit(2)[:5]]
    off.append(tuple(Cyclotomic.from_rational(5, v) for v in (1, 1, 1, 1, 2)))
    for pt, expected in [(pt, True) for pt in on] + [(pt, False) for pt in off]:
        assert all(m.eval(list(pt)).is_zero() for m in minors) == expected
        assert rank_below_3(pt) == expected
        assert _on_s15(monomials, pt) == expected


def _single_term_moves(points):
    """Each point with one nonzero coordinate times w, and with one times 2:
    every coordinate stays 0 or r w^k."""
    w = Cyclotomic.zeta(5, 1)
    for pt in points:
        for i in (i for i, v in enumerate(pt) if v):
            for factor in (w, 2):
                yield pt[:i] + (pt[i] * factor,) + pt[i + 1:]


def test_bucket_minors_agree_with_the_rank_oracle():
    monomials = _entry_monomials(s15_matrix())
    on = [pt for a in (2, Fraction(3, 2), 0, Fraction(-7, 3)) for pt in base_orbit(a)]
    on += thirty_points()
    assert all(_on_s15(monomials, pt) and rank_below_3(pt) for pt in on)
    one = Cyclotomic.from_rational(5, 1)
    # not single terms: 1 + r w^k in the first coordinate
    mixed = [(pt[0] + one,) + pt[1:] for pt in base_orbit(2) + thirty_points()]
    moved = list(_single_term_moves(base_orbit(Fraction(3, 2))[:5] + thirty_points()))
    verdicts = [rank_below_3(pt) for pt in mixed + moved]
    assert [_on_s15(monomials, pt) for pt in mixed + moved] == verdicts
    assert verdicts.count(False) > len(verdicts) // 2


def test_shioda5_imports_no_row_space():
    """S15 membership is decided in phase buckets, with no exact elimination."""
    path = Path(__file__).resolve().parent.parent / "src" / "algtool" / "shioda5.py"
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "RowSpace" not in imported


def test_jacobi_formula_jacobian_matches_symbolic_partials():
    matrix = s15_matrix()
    partials = [PolyMatrix(3, 5, [e.partial(j) for e in matrix.entries]) for j in range(5)]
    symbolic = [[m.partial(j) for j in range(5)] for m in s15_minors()]
    rng = np.random.default_rng(0)
    points = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(20)]
    points += [np.array([c.embed(1) for c in pt]) for pt in thirty_points()]
    points = [list(pt / np.abs(pt).max()) for pt in points]
    assert len(points) == 50
    stack = _minor_jacobians(partials, points)
    assert stack.shape == (len(points), 10, 5)
    for pt, got in zip(points, stack):
        expected = np.array([[complex(d.eval(pt)) for d in row] for row in symbolic])
        assert np.abs(got - expected).max() < 1e-12


def jacobians_point_by_point(matrix, partials, points) -> np.ndarray:
    """The Jacobi-formula stack with M and each d_j M evaluated by
    `PolyMatrix.eval` at each point and LU-determinant minors, as
    `_minor_jacobians` once did."""
    values = np.array([matrix.eval(pt) for pt in points], dtype=complex)
    derivs = np.array([[d.eval(pt) for d in partials] for pt in points], dtype=complex)
    jac = np.zeros((len(points), 5, 10), dtype=complex)
    for i in range(3):
        swapped = np.repeat(values[:, None], 5, axis=1)
        swapped[:, :, i, :] = derivs[:, :, i, :]
        jac += minors_det(swapped)
    return jac.transpose(0, 2, 1)


def test_singular_check_ranks_equal_the_per_point_path():
    matrix = s15_matrix()
    partials = [PolyMatrix(3, 5, [e.partial(j) for e in matrix.entries]) for j in range(5)]
    points = []
    for pt in thirty_points() + base_orbit(1)[:10]:
        cpt = [c.embed(1) for c in pt]
        scale = max(abs(v) for v in cpt)
        points.append([v / scale for v in cpt])
    ranks = rank_float(jacobians_point_by_point(matrix, partials, points), 1e-8,
                       scale=1.0).tolist()
    report = singular_points_check()
    assert report.singular_ranks + report.control_ranks == ranks
    assert rank_float(_minor_jacobians(partials, points), 1e-8, scale=1.0).tolist() == ranks


def test_jacobian_rank_at_coordinate_point():
    minors = s15_minors()
    pt = [1.0 + 0j if i == 0 else 0j for i in range(5)]
    jac = [[complex(m.partial(j).eval(pt)) for j in range(5)] for m in minors]
    from algtool.linalg import Residual, rank_float
    assert rank_float(jac, 1e-8, scale=1.0) <= 1


def test_cycle_fiber_equivalence():
    report = cycle_fiber_equivalence()
    assert report.span_equal_direct
    assert report.span_equal_relabeled
    assert report.hilbert == [1, 5, 10, 15]
    assert report.cusp_cycles == 12
    assert report.ok()


def test_fiber_ideals_are_compared_both_ways():
    cycle = make_presentation("cycle", 5)
    fiber01 = make_presentation("curveCa", 0)
    assert _within(fiber01, 2, cycle) and _within(cycle, 3, fiber01)
    # without the relabeling the (0:1) fiber cuts out other lines
    assert not _within(fiber01, 1, cycle) and not _within(cycle, 1, fiber01)
    # the commutators alone lie in the cycle's ideal, not the other way round
    poly5 = make_presentation("polynomial", 5)
    assert _within(poly5, 1, cycle) and not _within(cycle, 1, poly5)


def _swapped_pencil(A, B):
    """`curve_fiber` with its A^2 and B^2 words swapped."""
    return Presentation(5, make_presentation("polynomial", 5).relations + tuple(
        make_relation([((k, k), A * B), (((2 + k) % 5, (k - 2) % 5), A * A),
                       (((1 + k) % 5, (k - 1) % 5), -B * B)]) for k in range(5)))


def test_the_fibers_come_from_the_catalog_pencil(monkeypatch):
    # (a:1) of the pencil is the catalog's curveCa(a)
    for a in (Fraction(2), Fraction(-1, 3), Fraction(0), Cyclotomic(5, [1, 3])):
        assert curve_fiber(a, Fraction(1)).relations == make_presentation("curveCa", a).relations
    # control: with the A^2 and B^2 words swapped, neither cusp fiber is the cycle
    monkeypatch.setattr(shioda5, "curve_fiber", _swapped_pencil)
    report = cycle_fiber_equivalence()
    assert not report.span_equal_direct and not report.span_equal_relabeled
    assert not report.ok()


def test_cusp_cycle_count_matches_formula():
    p = 5
    assert len(cusp_cycles()) == (p + 1) * (p - 1) // 2


def test_cusp_cycles_equal_the_complement_walk():
    """The cycles read off eigenvalue order are those of a walk that moves
    one fixed point of g by a complement h of <g>, step 1 and step 2."""
    rep = SimpleRep(5, 1)
    walked = set()
    for g in subgroup_generators(5):
        h = HeisenbergElement(5, 0, 1, 0) if g.a else HeisenbergElement(5, 1, 0, 0)
        track = [projective_fixed_points(rep, g)[0]]
        for _ in range(4):
            track.append(normalize_projective(apply_element(rep, h, track[-1])))
        for step in (1, 2):
            walked.add(frozenset(frozenset((track[j], track[(j + step) % 5])) for j in range(5)))
    assert cusp_cycles() == walked
    assert len(walked) == 12

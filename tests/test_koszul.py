import ast
from fractions import Fraction
from pathlib import Path

import pytest
from heisenberg_reference import nullspace_exact
from hypothesis import given, seed, settings
from test_engine_differential import CATALOG, orbit_presentations

from algtool.gradedalg import (Presentation, hilbert, make_presentation,
                               make_relation, word_to_index)
from algtool.heisenberg import HeisenbergElement, SimpleRep
from algtool.koszul import koszul_identity_check, quadratic_dual
from algtool.linalg import RowSpace, ScaledVec, integral


def relation_span(pres):
    space = RowSpace()
    for rel in pres.relations:
        space.insert(integral({word_to_index(w, pres.p): c for w, c in rel})[0])
    return space


def pairing(pres, dual):
    """<r, s> for every relation r of `pres` and s of `dual`, read off the
    relations as word -> coefficient maps: sum of r(w) s(w) over words w."""
    out = []
    for rel in pres.relations:
        r = dict(rel)
        for drel in dual.relations:
            out.append(sum((r[w] * c for w, c in drel if w in r), pres.one() - pres.one()))
    return out


def test_dual_of_polynomial_is_exterior():
    poly3 = make_presentation("polynomial", 3)
    dual = quadratic_dual(poly3)
    assert len(dual.relations) == 6  # 9 - 3
    assert not any(pairing(poly3, dual))
    assert hilbert(dual, 4) == [1, 3, 3, 1, 0]


def test_dual_dimension_count():
    for pres in (make_presentation("sklyanin3", 1, 1, -1),
                 make_presentation("cliffordC", 5, 1, 2, 3),
                 make_presentation("cycle", 5)):
        dual = quadratic_dual(pres)
        assert not any(pairing(pres, dual))
        assert relation_span(dual).rank == pres.p ** 2 - relation_span(pres).rank


def test_dual_of_the_free_algebra_has_every_monomial():
    # R = 0, so R-perp is all of V* (x) V*: the dual is k + V*
    dual = quadratic_dual(Presentation(3, ()))
    assert [w for rel in dual.relations for w, _c in rel] == [
        divmod(i, 3) for i in range(9)]
    assert hilbert(dual, 3) == [1, 3, 0, 0]


def test_dual_of_dual_is_original_span():
    pres = make_presentation("sklyanin3", 1, 2, -3)
    double = quadratic_dual(quadratic_dual(pres))
    assert relation_span(double).rows == relation_span(pres).rows


def test_identity_polynomial_p3():
    poly3 = make_presentation("polynomial", 3)
    rep = SimpleRep(3, 1)
    for g in (HeisenbergElement(3), HeisenbergElement(3, 0, 0, 1),
              HeisenbergElement(3, 1, 0, 0)):
        residuals = koszul_identity_check(poly3, rep, g, 4)
        assert all(c.is_zero() for c in residuals)


def test_identity_sklyanin3_and_clifford():
    rep3 = SimpleRep(3, 1)
    for params in ((1, 1, -1), (1, 1, -3)):
        pres = make_presentation("sklyanin3", *params)
        for g in (HeisenbergElement(3), HeisenbergElement(3, 0, 0, 1),
                  HeisenbergElement(3, 2, 1, 0)):
            assert all(c.is_zero() for c in koszul_identity_check(pres, rep3, g, 4))
    cl3 = make_presentation("cliffordC", 3, 1, 2)
    assert all(c.is_zero() for c in koszul_identity_check(cl3, rep3, HeisenbergElement(3, 0, 0, 1), 4))
    cl5 = make_presentation("cliffordC", 5, 1, 2, 3)
    rep5 = SimpleRep(5, 1)
    for g in (HeisenbergElement(5), HeisenbergElement(5, 0, 0, 2),
              HeisenbergElement(5, 1, 1, 0)):
        assert all(c.is_zero() for c in koszul_identity_check(cl5, rep5, g, 4))


def test_cycle_presentation_informational_report():
    # the degenerate cycle algebra is not expected to satisfy the identity;
    # the run must merely complete and report residuals
    cyc5 = make_presentation("cycle", 5)
    residuals = koszul_identity_check(cyc5, SimpleRep(5, 1), HeisenbergElement(5), 4)
    assert len(residuals) == 4


def test_non_quadratic_rejected():
    cubic = make_relation([((0, 1, 2), Fraction(1))])
    pres = Presentation(3, (cubic,))
    with pytest.raises(ValueError):
        quadratic_dual(pres)


def test_pairing_failure_raises():
    # control: NF_2(x0 x1) = x1 x0 modulo the commutators; doubled, it gives
    # the "dual relation" 2 (x0 x1)* + (x1 x0)*, which pairs to 1 with
    # x0 x1 - x1 x0
    pres = make_presentation("polynomial", 3)
    pres.engine.grow(2)
    forms = pres.engine.forms[2]
    assert (forms[1].nums, forms[1].den) == ({3: 1}, 1)
    forms[1] = ScaledVec({3: 2})
    with pytest.raises(ArithmeticError):
        quadratic_dual(pres)


def kernel_dual_relations(pres):
    """R-perp as the reduced-echelon kernel of the dense p^2-column relation
    matrix, one relation per free column in ascending order.  With no
    relations the matrix is one zero row: R-perp is all of V* (x) V*."""
    p = pres.p
    zero = pres.one() - pres.one()
    rel_vecs = [{word_to_index(w, p): c for w, c in rel} for rel in pres.relations] or [{}]
    kernel = nullspace_exact([[vec.get(i, zero) for i in range(p * p)] for vec in rel_vecs])
    return tuple(make_relation([(divmod(i, p), c) for i, c in enumerate(vec) if c])
                 for vec in kernel)


@pytest.mark.parametrize("args", [args for args, _top in CATALOG],
                         ids=[make_presentation(*args).label() for args, _top in CATALOG])
def test_dual_matches_the_dense_kernel_on_the_catalog(args):
    pres = make_presentation(*args)
    # the same vectors in the same order, down to the type of each value
    assert repr(quadratic_dual(pres).relations) == repr(kernel_dual_relations(pres))


@seed(20141222)
@settings(max_examples=30, deadline=None, database=None)
@given(pres=orbit_presentations().filter(Presentation.is_quadratic))
def test_dual_matches_the_dense_kernel_on_random_orbit_presentations(pres):
    dual = quadratic_dual(pres)
    assert repr(dual.relations) == repr(kernel_dual_relations(pres))
    # relations that span V (x) V have a dual with none, whose dual is V* (x) V*
    assert repr(quadratic_dual(dual).relations) == repr(kernel_dual_relations(dual))


def test_koszul_imports_no_linear_algebra():
    """The dual is read off the graded engine's normal forms: `koszul` needs
    no kernel routine of its own."""
    path = Path(__file__).resolve().parent.parent / "src" / "algtool" / "koszul.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("algtool"):
            imported.add(node.module.split(".", 1)[-1])
        elif isinstance(node, ast.Import):
            imported |= {a.name.split(".", 1)[-1] for a in node.names
                         if a.name.startswith("algtool")}
    assert "linalg" not in imported, imported

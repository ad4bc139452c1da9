from fractions import Fraction

import pytest

from algtool.gradedalg import (Presentation, hilbert, make_presentation,
                               make_relation, word_to_index)
from algtool.heisenberg import HeisenbergElement, SimpleRep
from algtool.koszul import koszul_identity_check, quadratic_dual
from algtool.linalg import RowSpace


def relation_span(pres):
    space = RowSpace()
    for rel in pres.relations:
        space.insert({word_to_index(w, pres.p): c for w, c in rel})
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


def test_dual_of_dual_is_original_span():
    pres = make_presentation("sklyanin3", 1, 2, -3)
    double = quadratic_dual(quadratic_dual(pres))
    assert relation_span(double).same_space(relation_span(pres))


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
    pres = Presentation(3, "QQ", (cubic,))
    with pytest.raises(ValueError):
        quadratic_dual(pres)


def test_pairing_failure_raises(monkeypatch):
    # a "kernel" vector that pairs to 1 with the commutator x0 x1 - x1 x0
    bad = [[Fraction(int(i == 1)) for i in range(9)]]
    monkeypatch.setattr("algtool.koszul.nullspace_exact", lambda rows: bad)
    with pytest.raises(ArithmeticError):
        quadratic_dual(make_presentation("polynomial", 3))

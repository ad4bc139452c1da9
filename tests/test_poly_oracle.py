"""`poly.resultant`, `poly.mat_det`, `poly.mat_minors` and `poly.exact_divide`
against sympy as a test-only oracle, on small random polynomials over QQ."""

from fractions import Fraction
from itertools import combinations

import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from algtool.poly import (MultiPoly, PolyMatrix, PolyRing, exact_divide, mat_det, mat_minors,
                          resultant)

SETTINGS = settings(max_examples=40, deadline=None, database=None)
RING = PolyRing(("x", "y", "z"))
SYMBOLS = sympy.symbols("x y z")
QQXYZ = sympy.QQ[SYMBOLS]
coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def polys(draw, max_deg: int = 2, max_terms: int = 3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_deg)) for _ in SYMBOLS)
        terms[exps] = draw(coefficients)
    return MultiPoly(RING, terms)


def to_sympy(f: MultiPoly):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s ** e for s, e in zip(SYMBOLS, exps)))
                for exps, c in f.items()), sympy.Integer(0))


def to_ring(f: MultiPoly):
    """f as an element of sympy's QQ[x, y, z], where equality is exact."""
    return QQXYZ.ring.from_dict({exps: sympy.QQ(c.numerator, c.denominator)
                                 for exps, c in f.items()})


def same(f: MultiPoly, expr) -> bool:
    return sympy.expand(to_sympy(f) - expr) == 0


@seed(20141222)
@SETTINGS
@given(f=polys(), g=polys(), var=st.integers(0, 2))
def test_resultant_matches_sympy(f, g, var):
    if f.degree_in(var) < 1 or g.degree_in(var) < 1:
        return
    ours = resultant(f, g, var)
    assert same(ours, sympy.resultant(to_sympy(f), to_sympy(g), SYMBOLS[var]))


def sympy_det(rows):
    k = len(rows)
    return DomainMatrix([list(row) for row in rows], (k, k), QQXYZ).det()


def check_det(data, n, max_terms=2):
    entries = [data.draw(polys(max_deg=1, max_terms=max_terms)) for _ in range(n * n)]
    ours = mat_det(PolyMatrix(n, n, entries))
    theirs = sympy_det([[to_ring(entries[i * n + j]) for j in range(n)] for i in range(n)])
    assert to_ring(ours) == theirs


@seed(20141222)
@SETTINGS
@given(data=st.data(), n=st.integers(1, 5))
def test_mat_det_cofactor_matches_sympy(data, n):
    check_det(data, n)


@seed(20141222)
@settings(SETTINGS, max_examples=10)
@given(data=st.data(), n=st.integers(6, 8))
def test_mat_det_large_matches_sympy(data, n):
    # sizes 6 up to the size guard; entries are single terms or zero, so that
    # zero entries, which the expansion skips, are common
    check_det(data, n, max_terms=1)


@seed(20141222)
@settings(SETTINGS, max_examples=20)
@given(data=st.data(), shape=st.sampled_from(((3, 4), (4, 5))))
def test_mat_minors_match_sympy(data, shape):
    # every k x k minor, in the documented order: row subsets, then column
    # subsets, both lexicographic
    rows, cols = shape
    entries = [data.draw(polys(max_deg=1, max_terms=2)) for _ in range(rows * cols)]
    m = PolyMatrix(rows, cols, entries)
    full = [[to_ring(entries[i * cols + j]) for j in range(cols)] for i in range(rows)]
    for k in range(1, rows + 1):
        theirs = [sympy_det([[full[i][j] for j in ci] for i in ri])
                  for ri in combinations(range(rows), k)
                  for ci in combinations(range(cols), k)]
        assert [to_ring(f) for f in mat_minors(m, k)] == theirs


@seed(20141222)
@SETTINGS
@given(f=polys(), g=polys(), h=polys())
def test_exact_divide_matches_sympy(f, g, h):
    if g.is_zero():
        return
    # a multiple of g, and an arbitrary f that g may or may not divide
    for target in (h * g, f):
        quotient, remainder = sympy.div(to_sympy(target), to_sympy(g), *SYMBOLS, domain="QQ")
        ours = exact_divide(target, g)
        if remainder == 0:
            assert ours is not None and same(ours, quotient)
        else:
            assert ours is None

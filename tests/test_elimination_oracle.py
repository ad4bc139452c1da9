"""The one dense exact elimination routine against sympy as a test-only
oracle: `nullspace_exact` and the exact S15 rank test run through
`_gauss_jordan`, whose pivot count is checked here as the rank.  `Cyclotomic.inverse`, which takes the Galois norm instead, is
checked here against x^-1 * x = 1."""

from fractions import Fraction

import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from algtool.cyclotomic import Cyclotomic
from algtool.linalg import _gauss_jordan, nullspace_exact

SETTINGS = settings(max_examples=60, deadline=None, database=None)
small = st.integers(-3, 3)


def fraction_matrix(draw, rows: int, cols: int):
    return [[Fraction(draw(small), draw(st.integers(1, 3))) for _ in range(cols)]
            for _ in range(rows)]


def product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


@st.composite
def low_rank_matrices(draw, max_size: int = 5):
    """m x n products of m x k and k x n factors, so that ranks below
    min(m, n), and with them nonzero nullspaces, are common."""
    m, n = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    k = draw(st.integers(0, min(m, n)))
    if k == 0:
        return [[Fraction(0)] * n for _ in range(m)]
    return product(fraction_matrix(draw, m, k), fraction_matrix(draw, k, n))


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                         for row in rows])


def from_sympy(vec):
    return [Fraction(int(x.p), int(x.q)) for x in vec]


@seed(20141222)
@SETTINGS
@given(a=low_rank_matrices())
def test_nullspace_matches_sympy(a):
    ours = nullspace_exact(a)
    theirs = [from_sympy(v) for v in to_sympy(a).nullspace()]
    n = len(a[0])
    assert to_sympy(a).rank() + len(ours) == n
    for vec in ours:
        assert all(not row[0] for row in product(a, [[x] for x in vec]))
    # the reduced row-echelon form is unique, and both sides set one free
    # coordinate to 1 and the others to 0, so the same span comes out as the
    # same basis, vector by vector
    assert ours == theirs


@st.composite
def symmetric_matrices(draw, max_size: int = 5):
    """B D B^T with B n x k and D diagonal: symmetric, rank at most k."""
    n = draw(st.integers(1, max_size))
    k = draw(st.integers(0, n))
    b = fraction_matrix(draw, n, k)
    d = [Fraction(draw(small)) for _ in range(k)]
    bd = [[x * y for x, y in zip(row, d)] for row in b]
    if k == 0:
        return [[Fraction(0)] * n for _ in range(n)]
    return product(bd, [list(col) for col in zip(*b)])


@seed(20141222)
@SETTINGS
@given(a=symmetric_matrices())
def test_symmetric_rank_matches_sympy(a):
    assert len(_gauss_jordan(a)[1]) == to_sympy(a).rank()


@st.composite
def nonzero_cyclotomics(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    coeffs = draw(st.lists(st.fractions(-4, 4, max_denominator=4),
                           min_size=p - 1, max_size=p - 1).filter(any))
    return Cyclotomic(p, coeffs)


@seed(20141222)
@SETTINGS
@given(a=nonzero_cyclotomics())
def test_cyclotomic_inverse(a):
    assert a.inverse() * a == 1

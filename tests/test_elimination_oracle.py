"""Exact elimination against sympy as a test-only oracle.

The one dense routine: `nullspace_exact` and the exact S15 rank test run
through `_gauss_jordan`, whose pivot count is checked here as the rank.
The sparse fraction-free `RowSpace`: rank, pivot columns and pivot-1 rows
against `sympy.Matrix.rref`, residues against the span, and Q(w) queries
against a rational space.  `Cyclotomic.inverse`, which takes the Galois
norm, is checked against x^-1 * x = 1."""

import random
from fractions import Fraction
from math import gcd

import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from algtool.cyclotomic import Cyclotomic
from algtool.linalg import RowSpace, _gauss_jordan, nullspace_exact

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


@st.composite
def sparse_low_rank_rows(draw, max_rows: int = 7, max_cols: int = 9):
    """Rows of an m x n product of sparse m x k and k x n factors with
    entries of denominators 1-3, as column -> value maps without zeros."""
    m, n = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    k = draw(st.integers(1, min(m, n)))
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, small.filter(bool), st.integers(1, 3)))
    left = [[draw(entry) for _ in range(k)] for _ in range(m)]
    right = [[draw(entry) for _ in range(n)] for _ in range(k)]
    dense = product(left, right)
    return n, [{c: v for c, v in enumerate(row) if v} for row in dense]


def densify(vec, n):
    return [vec.get(c, Fraction(0)) for c in range(n)]


def in_span(rows, vec, n) -> bool:
    if not rows:
        return not any(vec)
    a = to_sympy([densify(r, n) for r in rows])
    return a.rank() == a.col_join(to_sympy([vec])).rank()


def filled(rows, order_seed: int) -> RowSpace:
    order = list(rows)
    random.Random(order_seed).shuffle(order)
    space = RowSpace()
    for row in order:
        space.insert(dict(row))
    return space


@seed(20141222)
@SETTINGS
@given(data=sparse_low_rank_rows(), order_seed=st.integers(0, 2 ** 16),
       query=st.lists(st.tuples(st.integers(0, 8), small, st.integers(1, 3)), max_size=5))
def test_rowspace_matches_sympy_rref(data, order_seed, query):
    n, rows = data
    space = filled(rows, order_seed)
    rref, pivots = to_sympy([densify(r, n) for r in rows]).rref()
    assert space.rank == len(pivots)
    assert sorted(space.rows) == list(pivots)
    for k, pivot in enumerate(pivots):
        assert densify(space.rows[pivot], n) == from_sympy(rref.row(k))
    assert space.same_space(filled(rows, order_seed + 1))
    assert space.same_space(filled(rows[::-1], 0))
    vec = {}
    for c, num, den in query:
        if c < n and num:
            vec[c] = vec.get(c, 0) + Fraction(num, den)
    residue = space.reduce(vec)
    # numerators over one positive denominator, in lowest terms
    assert residue.den > 0 and gcd(residue.den, *residue.nums.values()) == 1
    assert not set(residue) & set(pivots)
    diff = densify(vec, n)
    for c, v in residue.items():
        diff[c] -= v
    assert in_span(rows, diff, n)
    assert space.contains(vec) == (not residue) == in_span(rows, densify(vec, n), n)


@seed(20141222)
@SETTINGS
@given(data=sparse_low_rank_rows(), p=st.sampled_from((3, 5)),
       weights=st.lists(st.lists(small, min_size=2, max_size=2), min_size=7, max_size=7),
       extra=st.tuples(st.integers(0, 8), small, small))
def test_cyclotomic_query_against_rational_space(data, p, weights, extra):
    """A Q(w) vector lies in the Q(w)-span of rational rows exactly when every
    power-basis coordinate of it lies in their Q-span."""
    n, rows = data
    space = filled(rows, 0)
    vec = {}
    for row, (r, s) in zip(rows, weights):
        scale = Cyclotomic(p, (r, s))
        for c, v in row.items():
            vec[c] = vec.get(c, 0) + scale * v
    col, r, s = extra
    if col < n:
        vec[col] = vec.get(col, 0) + Cyclotomic(p, (r, s))
    vec = {c: v for c, v in vec.items() if v}
    coords = [[vec[c].coeffs[k] if c in vec else Fraction(0) for c in range(n)]
              for k in range(p - 1)]
    assert space.contains(vec) == all(in_span(rows, coord, n) for coord in coords)

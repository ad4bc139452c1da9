"""The packed-monomial kernel of `poly` against `poly_reference`, the
tuple-keyed kernel it replaced: the same terms, in the same dict order, with
the same coefficient bits, for int, Fraction and complex coefficients; and
the limits of the monomial encoding."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from algtool.cyclotomic import Cyclotomic
from algtool.errors import ArityError
from algtool.poly import MAX_DEGREE, MultiPoly, PolyMatrix, PolyRing, mat_det, mat_minors

import poly_reference as ref

SETTINGS = settings(max_examples=120, deadline=None, database=None)
NAMES = ("x", "y", "z")


def bits(value):
    """A value with its type and repr, so that == cannot hide a changed last
    bit or sign of zero."""
    return type(value), repr(value)


def term_bits(items):
    return [(e, bits(c)) for e, c in items]


KINDS = ("int", "fraction", "complex")


@st.composite
def rings_and_kinds(draw):
    """A ring of one to three variables, and a coefficient kind."""
    return PolyRing(NAMES[:draw(st.integers(1, 3))]), draw(st.sampled_from(KINDS))


def coefficients(kind):
    """Small integers, or small integers and halves, so that sums and
    products cancel exactly (to 0j for complex ones), and for complex ones
    also arbitrary floats."""
    if kind == "int":
        return st.integers(-3, 3)
    small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
    if kind == "fraction":
        return small
    exact = st.builds(lambda a, b: complex(a, b), small, small)
    return st.one_of(exact, exact, st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)))


def polys(ring, kind, top: int = 2, size: int = 4):
    exps = st.tuples(*[st.integers(0, top)] * ring.nvars)
    return st.builds(lambda terms: MultiPoly(ring, terms),
                     st.dictionaries(exps, coefficients(kind), max_size=size))


@st.composite
def poly_pairs(draw):
    ring, kind = draw(rings_and_kinds())
    f, g = draw(polys(ring, kind)), draw(polys(ring, kind))
    if draw(st.booleans()):
        # a shared part of opposite sign, so that f + g and f * g cancel
        h = draw(polys(ring, kind))
        f, g = f + h, g - h
    return ring, f, g


def terms(f):
    return dict(f.items())


@seed(20141222)
@SETTINGS
@given(case=poly_pairs(), n=st.integers(0, 3), var=st.integers(0, 2))
def test_arithmetic_matches_the_tuple_kernel(case, n, var):
    ring, f, g = case
    var %= ring.nvars
    one = terms(MultiPoly.const(ring, 1))
    tf, tg = terms(f), terms(g)
    assert term_bits((f + g).items()) == term_bits(ref.add(tf, tg).items())
    assert term_bits((f - g).items()) == term_bits(ref.sub(tf, tg).items())
    assert term_bits((-f).items()) == term_bits(ref.neg(tf).items())
    assert term_bits((f * g).items()) == term_bits(ref.mul(tf, tg).items())
    assert term_bits((f ** n).items()) == term_bits(ref.power(tf, n, one).items())
    assert term_bits(f.partial(var).items()) == term_bits(ref.partial(tf, var).items())
    assert (f - f).is_zero()
    for p in (f, f * g):
        tp = terms(p)
        assert p.sorted_terms() == ref.sorted_terms(tp)
        assert p.degree_in(var) == ref.degree_in(tp, var)
        assert p.total_degree() == max((sum(e) for e in tp), default=-1)
        if tp:
            assert p.leading_term() == ref.leading_term(tp)


@st.composite
def matrices(draw):
    ring, kind = draw(rings_and_kinds())
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.one_of(polys(ring, kind, 1, 2), st.just(MultiPoly.zero(ring)))
    return PolyMatrix(rows, cols, [draw(entry) for _ in range(rows * cols)])


@seed(20141222)
@settings(SETTINGS, max_examples=60)
@given(m=matrices())
def test_minors_match_the_tuple_laplace_expansion(m):
    entries = [terms(f) for f in m.entries]
    one = terms(MultiPoly.const(m.ring, 1))
    memo = {}
    for k in range(1, min(m.rows, m.cols) + 1):
        expected = [ref.laplace_minor(entries, m.cols, one, memo, ri, ci)
                    for ri in itertools.combinations(range(m.rows), k)
                    for ci in itertools.combinations(range(m.cols), k)]
        got = mat_minors(m, k)
        assert [term_bits(g.items()) for g in got] == [term_bits(e.items()) for e in expected]
    if m.rows == m.cols:
        full = tuple(range(m.rows))
        det = ref.laplace_minor(entries, m.cols, one, {}, full, full)
        assert term_bits(mat_det(m).items()) == term_bits(det.items())


def points(ring, coefficient_kind, draw):
    """A point of int, Fraction, float, complex or Cyclotomic coordinates;
    Cyclotomic only for int and Fraction coefficients, which multiply Q(w)
    values."""
    kinds = ["int", "fraction", "float", "complex"]
    kinds += ["cyclotomic"] if coefficient_kind != "complex" else []
    kind = draw(st.sampled_from(kinds))
    small = st.integers(-3, 3)
    if kind == "int":
        coord = small
    elif kind == "fraction":
        coord = st.builds(Fraction, small, st.integers(1, 4))
    elif kind == "float":
        coord = st.floats(-2, 2)
    elif kind == "complex":
        coord = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
    else:
        coord = st.builds(lambda c: Cyclotomic(5, c), st.lists(small, min_size=4, max_size=4))
    return [draw(coord) for _ in range(ring.nvars)]


@seed(20141222)
@SETTINGS
@given(data=st.data())
def test_evaluation_matches_the_tuple_kernel(data):
    ring, kind = data.draw(rings_and_kinds())
    f = data.draw(polys(ring, kind, 3, 5))
    m = PolyMatrix(1, 2, [f, f * f])
    for _ in range(3):  # the kept plans serve each kind of point
        point = points(ring, kind, data.draw)
        expected = [ref.evaluate(terms(f), point), ref.evaluate(terms(f * f), point)]
        assert bits(f.eval(point)) == bits(expected[0])
        assert [bits(v) for v in m.eval(point)[0]] == [bits(v) for v in expected]


RXY = PolyRing(("x", "y"))
X, Y = MultiPoly.var(RXY, 0), MultiPoly.var(RXY, 1)


@pytest.mark.parametrize("build", [
    lambda: MultiPoly(RXY, {(-1, 0): 1}),
    lambda: MultiPoly(RXY, {(2, -1): Fraction(1, 2)}),
    lambda: MultiPoly.monomial(RXY, (0, -2)),
    lambda: MultiPoly.var(RXY, 1, -1),
], ids=["constructor", "constructor-fraction", "monomial", "var-power"])
def test_negative_exponents_are_rejected(build):
    with pytest.raises(ArityError):
        build()


def test_degree_limit():
    assert MAX_DEGREE == 2 ** 16 - 1
    top = X ** MAX_DEGREE
    assert top.total_degree() == MAX_DEGREE and top.items() == [((MAX_DEGREE, 0), 1)]
    assert (X ** 40000).items() == [((40000, 0), 1)]  # no square beyond the result
    assert (X ** 40000 * Y ** 25535).leading_term() == ((40000, 25535), 1)
    for build in (lambda: X ** 70000, lambda: X ** (MAX_DEGREE + 1),
                  lambda: X ** 40000 * Y ** 30000, lambda: top * (X + 1),
                  lambda: MultiPoly.monomial(RXY, (MAX_DEGREE, 1)),
                  lambda: MultiPoly.var(RXY, 0, MAX_DEGREE + 1),
                  lambda: mat_det(PolyMatrix(2, 2, [X ** 40000, Y, Y, X ** 40000]))):
        with pytest.raises(OverflowError):
            build()
    assert mat_det(PolyMatrix(2, 2, [X ** 30000, Y, Y, X ** 30000])).total_degree() == 60000
    assert (MultiPoly.const(RXY, 2) ** 70000).total_degree() == 0


@pytest.mark.parametrize("kind", [Fraction, complex], ids=["QQ", "CC"])
def test_constants_hash_as_their_coefficient(kind):
    for c in (3, Fraction(-5, 2), 0):
        p = MultiPoly.const(RXY, kind(c))
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1
    assert hash(X * kind(1) + kind(1)) == hash(X * kind(1) + kind(1))

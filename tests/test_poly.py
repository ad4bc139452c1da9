import gc
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from algtool import poly
from algtool.cli import json_text, to_jsonable
from algtool.clifford import clifford_form
from algtool.cyclotomic import Cyclotomic
from algtool.errors import ArityError, RingMismatchError
from algtool.poly import (MultiPoly, PolyMatrix, PolyRing, exact_divide, mat_det, mat_minors,
                          minor_routine, monomials_of_degree, resultant)
from algtool.shioda5 import s15_matrix

import poly_reference

RXY = PolyRing(("x", "y"))
X, Y = MultiPoly.var(RXY, 0), MultiPoly.var(RXY, 1)


def random_poly(rng, ring, max_deg=3, terms=4):
    out = MultiPoly.zero(ring)
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_deg) for _ in ring.variables)
        out = out + MultiPoly.monomial(ring, exps, Fraction(rng.randint(-5, 5)))
    return out


def test_ring_arithmetic():
    assert (X + Y) * (X - Y) == X ** 2 - Y ** 2
    assert (X * 0).is_zero()
    assert ((X + Y) ** 2 - (X ** 2 + 2 * X * Y + Y ** 2)).is_zero()
    with pytest.raises(RingMismatchError):
        X + MultiPoly.var(PolyRing(("z",)), 0)


def test_equal_but_distinct_rings_mix():
    ring = PolyRing(("x", "y"))
    assert ring is not RXY
    x, y = MultiPoly.var(ring, 0), MultiPoly.var(ring, 1)
    assert X + y == x + Y
    assert (X - y) * (x + Y) == X ** 2 - Y ** 2


def test_cyclotomic_and_other_coefficient_kinds_are_refused():
    w = Cyclotomic.zeta(5)
    for build in (lambda: MultiPoly(RXY, {(1, 0): w}), lambda: MultiPoly.const(RXY, w),
                  lambda: MultiPoly.monomial(RXY, (1, 0), w), lambda: MultiPoly(RXY, {(0, 0): "a"}),
                  lambda: X + w, lambda: w + X, lambda: X - w, lambda: w - X,
                  lambda: X * w, lambda: w * X):
        with pytest.raises(RingMismatchError):
            build()


@pytest.mark.parametrize("other", ["a", None, [1], object()])
def test_unsupported_operands_raise_type_error(other):
    for op in (lambda f, g: f + g, lambda f, g: f - g, lambda f, g: f * g,
               lambda f, g: g + f, lambda f, g: g - f, lambda f, g: g * f):
        with pytest.raises(TypeError):
            op(X, other)


def exact_values(rows):
    """Matrix values with their types and reprs, so that == cannot hide a
    changed last bit or sign of zero."""
    return [[(type(v), repr(v), v) for v in row] for row in rows]


def reference_eval(f, point):
    """f at point the way `MultiPoly.eval` has always done it."""
    return poly_reference.evaluate(dict(f.items()), point)


def eval_points(rng, nvars):
    """Seeded complex, Fraction and Cyclotomic points of C^nvars."""
    yield [complex(*rng.standard_normal(2)) for _ in range(nvars)]
    yield list(rng.standard_normal(nvars) + 1j * rng.standard_normal(nvars))
    yield [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(nvars)]
    yield [Cyclotomic(5, [int(c) for c in rng.integers(-3, 4, size=4)]) for _ in range(nvars)]


def random_cc_matrix(rng, rows, cols, nvars, max_deg):
    """Entries of up to six terms of degree up to max_deg in each variable,
    with complex coefficients; one entry is zero."""
    ring = PolyRing(tuple(f"v{i}" for i in range(nvars)))
    entries = [MultiPoly.zero(ring)]
    while len(entries) < rows * cols:
        terms = {tuple(int(k) for k in rng.integers(0, max_deg + 1, size=nvars)):
                 complex(*rng.standard_normal(2)) for _ in range(6)}
        entries.append(MultiPoly(ring, terms))
    return PolyMatrix(rows, cols, entries)


@pytest.mark.parametrize("name", ["clifford3", "clifford5", "clifford7", "clifford5-qq", "s15",
                                  "random-cc"])
def test_matrix_eval_equals_entrywise_eval(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "s15":
        m = s15_matrix()
    elif name == "random-cc":
        m = random_cc_matrix(rng, 3, 4, 3, 7)
    elif name.endswith("qq"):
        m = clifford_form(5, (1, Fraction(1, 2), 3))
    else:
        p = int(name[-1])
        m = clifford_form(p, [1] + [complex(*rng.standard_normal(2)) for _ in range(p // 2)])
    has_complex = any(isinstance(c, complex) for f in m.entries for c in f.terms.values())
    for point in eval_points(rng, m.ring.nvars):
        if has_complex and isinstance(point[0], Cyclotomic):
            continue  # complex coefficients do not multiply Q(w) values
        entrywise = [[m.at(i, j).eval(point) for j in range(m.cols)] for i in range(m.rows)]
        reference = [[reference_eval(m.at(i, j), point) for j in range(m.cols)]
                     for i in range(m.rows)]
        assert exact_values(m.eval(point)) == exact_values(entrywise)
        assert exact_values(entrywise) == exact_values(reference)


def test_matrix_eval_zero_entry_and_arity():
    ring = PolyRing(("x", "y"))
    x = MultiPoly.var(ring, 0)
    m = PolyMatrix(1, 2, [x * x, MultiPoly.zero(ring)])
    point = [complex(-2.5, 1.0), 3j]
    assert exact_values(m.eval(point)) == exact_values([[(x * x).eval(point), 0 * point[0]]])
    with pytest.raises(ArityError):
        m.eval(point[:1])


@st.composite
def matrices_and_points(draw):
    """A matrix of int, Fraction or complex coefficients with zero entries
    allowed, constant at times, and a point of Fraction or complex
    coordinates."""
    kind = draw(st.sampled_from(("int", "fraction", "complex")))
    nvars = draw(st.integers(1, 3))
    ring = PolyRing(("x", "y", "z")[:nvars])
    top = draw(st.sampled_from((0, 1, 4)))  # 0: a constant matrix
    small = st.integers(-6, 6)
    if kind == "int":
        coeffs = small
    elif kind == "fraction":
        coeffs = st.builds(Fraction, small, st.integers(1, 5))
    else:
        coeffs = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))
    exps = st.tuples(*[st.integers(0, top)] * nvars)
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = [MultiPoly(ring, draw(st.dictionaries(exps, coeffs, max_size=4)))
               for _ in range(rows * cols)]
    if kind != "complex" and draw(st.booleans()):
        coords = st.builds(Fraction, small, st.integers(1, 7))
    else:
        coords = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
    point = [draw(coords) for _ in range(nvars)]
    return PolyMatrix(rows, cols, entries), point


@seed(20141222)
@settings(max_examples=80, deadline=None, database=None)
@given(case=matrices_and_points())
def test_matrix_eval_is_entrywise_eval_bit_for_bit(case):
    m, point = case
    entrywise = [[m.at(i, j).eval(point) for j in range(m.cols)] for i in range(m.rows)]
    reference = [[reference_eval(m.at(i, j), point) for j in range(m.cols)]
                 for i in range(m.rows)]
    assert exact_values(entrywise) == exact_values(reference)
    assert exact_values(m.eval(point)) == exact_values(entrywise)
    # the second call runs on the kept plan
    assert exact_values(m.eval(point)) == exact_values(entrywise)


def test_matrix_eval_builds_its_plan_once(monkeypatch):
    plans = []
    real = poly._eval_plan

    def counted(polys):
        plans.append(len(polys))
        return real(polys)

    monkeypatch.setattr(poly, "_eval_plan", counted)
    m = clifford_form(5, (1, Fraction(1, 2), 3))
    point = [Fraction(k, 3) for k in range(5)]
    assert m.eval(point) == m.eval(point)
    assert plans == [25]
    # a polynomial keeps its plan too, and every kind of point shares it
    f = m.at(0, 1)
    assert f.eval(point) == f.eval(point) == f.eval([complex(x) for x in point])
    assert plans == [25, 1]


def test_minor_routine_is_freed_without_the_cycle_collector():
    form = clifford_form(5, (1, 2, 3))
    full = tuple(range(5))
    enabled = gc.isenabled()
    gc.disable()
    try:
        minor = minor_routine(form)
        det = minor(full, full)
        routine = weakref.ref(minor)
        del minor
        assert routine() is None
    finally:
        if enabled:
            gc.enable()
    assert det == mat_det(form)


def test_eval():
    ring = PolyRing(("a", "b"))
    a, b = MultiPoly.var(ring, 0), MultiPoly.var(ring, 1)
    cprime = -(a ** 3) * b ** 3 + a ** 5 + b ** 5 + 2 * a ** 2 * b ** 2 - 8 * a * b
    assert cprime.eval([Fraction(2), Fraction(2)]) == 0
    f = 3 * a * b + 7
    assert f.eval([Fraction(0), Fraction(0)]) == 7
    g = (1 + 0j) * (a ** 2 + b ** 2)
    assert abs(g.eval([3 + 0j, 4 + 0j]) - 25) < 1e-10
    with pytest.raises(ArityError):
        f.eval([Fraction(1)])


def test_partial():
    assert (X ** 3 * Y).partial(0) == 3 * X ** 2 * Y
    assert MultiPoly.const(RXY, 5).partial(1).is_zero()
    ring = PolyRing(("z0", "z1"))
    z0 = MultiPoly.var(ring, 0)
    assert (z0 ** 2).partial(0) == 2 * z0


def ident(ring, n):
    zero, one = MultiPoly.zero(ring), MultiPoly.const(ring, 1)
    return PolyMatrix(n, n, [one if i == j else zero for i in range(n) for j in range(n)])


def test_det_basics():
    ring = PolyRing(("u0", "u1", "u2", "u3", "u4"))
    assert mat_det(ident(ring, 5)) == MultiPoly.const(ring, 1)
    u = [MultiPoly.var(ring, i) for i in range(5)]
    zero = MultiPoly.zero(ring)
    diag = PolyMatrix(5, 5, [2 * u[i] if i == j else zero
                             for i in range(5) for j in range(5)])
    assert mat_det(diag) == 32 * u[0] * u[1] * u[2] * u[3] * u[4]
    with pytest.raises(ValueError):
        mat_det(PolyMatrix(2, 3, [zero] * 6))


def dense_det_oracle(rows):
    """Fraction Gaussian elimination determinant (independent of mat_det)."""
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] * inv
            if f:
                a[i] = [v - f * w for v, w in zip(a[i], a[c])]
    return det


def test_det_matches_cofactor_and_row_reduction():
    rng = random.Random(5)
    ring = PolyRing(())
    for _ in range(10):
        vals = [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4)]
                for _ in range(4)]
        m = PolyMatrix(4, 4, [MultiPoly.const(ring, v) for row in vals for v in row])
        assert dict(mat_det(m).items()).get((), 0) == dense_det_oracle(vals)


def test_minors():
    ring = PolyRing(("x", "y"))
    entries = [random_poly(random.Random(i), ring, 1, 2) for i in range(15)]
    m35 = PolyMatrix(3, 5, entries)
    assert len(mat_minors(m35, 3)) == 10
    m55 = PolyMatrix(5, 5, entries + entries[:10])
    assert len(mat_minors(m55, 3)) == 100
    assert mat_minors(m35, 1) == list(m35.entries)
    shared = minor_routine(m55)
    assert (mat_minors(m55, 3, shared) + mat_minors(m55, 4, shared)
            == mat_minors(m55, 3) + mat_minors(m55, 4))
    with pytest.raises(ValueError):
        mat_minors(m35, 4)


def test_minor_order_is_row_then_column_lex():
    ring = PolyRing(("x",))
    vals = [MultiPoly.const(ring, v) for v in range(1, 7)]
    m = PolyMatrix(2, 3, vals)  # [[1,2,3],[4,5,6]]
    got = [dict(m.items()).get((0,), 0) for m in mat_minors(m, 2)]
    # column pairs (0,1), (0,2), (1,2)
    assert got == [Fraction(v) for v in (1 * 5 - 2 * 4, 1 * 6 - 3 * 4, 2 * 6 - 3 * 5)]


def test_resultant():
    ring = PolyRing(("t", "a", "b"))
    t, a, b = (MultiPoly.var(ring, i) for i in range(3))
    r = resultant(t - a, t - b, 0)
    assert r == a - b or r == b - a
    f = t ** 2 * a + b
    assert resultant(f, f, 0).is_zero()
    assert resultant(f + t, f + t, 0).is_zero()
    with pytest.raises(ValueError):
        resultant(a, t - b, 0)  # constant in t
    g = t ** 3 + a
    assert resultant(f, g, 0) == resultant(g, f, 0) or resultant(f, g, 0) == -resultant(g, f, 0)


def test_resultant_elimination_divisible_by_curve():
    ring = PolyRing(("a", "b", "t"))
    a, b, t = (MultiPoly.var(ring, i) for i in range(3))
    f = -2 * b ** 2 * t ** 3 + 2 * a * b ** 2 * t - 2 * a ** 2
    g = -(a ** 2) * b * t ** 2 - a * b ** 2 * t + 2 * a ** 2
    res = resultant(f, g, 2)
    cprime = -(a ** 3) * b ** 3 + a ** 5 + b ** 5 + 2 * a ** 2 * b ** 2 - 8 * a * b
    q = exact_divide(res, cprime)
    assert q is not None
    assert q * cprime == res
    assert not res.is_zero()


def test_exact_divide_reads_its_field_off_the_coefficients():
    q = exact_divide(3 * (X + 1), MultiPoly.const(RXY, 2))
    assert q.items() == [((1, 0), Fraction(3, 2)), ((0, 0), Fraction(3, 2))]
    assert all(type(c) is Fraction for c in q.terms.values())
    for f, g in ((1.0 * X, X), (X, 1.0 * X), (X + 1j, X), (X * X, X + 0.5)):
        with pytest.raises(RingMismatchError):
            exact_divide(f, g)


def test_exact_divide():
    assert exact_divide(X ** 2 - Y ** 2, X - Y) == X + Y
    assert exact_divide(X, Y) is None
    rng = random.Random(2)
    for _ in range(15):
        f = random_poly(rng, RXY)
        g = random_poly(rng, RXY)
        if g.is_zero():
            continue
        assert exact_divide(f * g, g) == f
    with pytest.raises(ZeroDivisionError):
        exact_divide(X, MultiPoly.zero(RXY))


def test_serialization_fixture():
    ring = PolyRing(("a", "b"))
    a, b = MultiPoly.var(ring, 0), MultiPoly.var(ring, 1)
    cprime = -(a ** 3) * b ** 3 + a ** 5 + b ** 5 + 2 * a ** 2 * b ** 2 - 8 * a * b
    assert str(cprime) == "-1 * a^3 b^3 + 1 * a^5 + 1 * b^5 + 2 * a^2 b^2 + -8 * a^1 b^1"
    js = to_jsonable(cprime)
    assert js["vars"] == ["a", "b"]
    assert [t["exps"] for t in js["terms"]] == [[3, 3], [5, 0], [0, 5], [2, 2], [1, 1]]


def test_int_coefficients_serialize_as_fractions():
    ints = 3 * X ** 2 - Y + 7
    fractions = MultiPoly(RXY, {e: Fraction(c) for e, c in ints.items()})
    assert all(type(c) is int for c in ints.terms.values())
    assert to_jsonable(ints)["field"] == "QQ"
    assert json_text(to_jsonable(ints)) == json_text(to_jsonable(fractions))


@pytest.mark.parametrize("c", [0.5, 2j, 1 + 0j], ids=["float", "complex", "complex-one"])
def test_a_float_or_complex_coefficient_makes_the_field_cc(c):
    assert to_jsonable(X + c * Y)["field"] == "CC"
    assert to_jsonable(MultiPoly.const(RXY, c))["field"] == "CC"


def test_the_zero_polynomial_is_over_qq():
    assert to_jsonable(MultiPoly.zero(RXY)) == {"vars": ["x", "y"], "field": "QQ", "terms": []}
    assert to_jsonable(X * 0.0)["field"] == "QQ"


def test_monomials_of_degree():
    cubics = monomials_of_degree(5, 3)
    assert len(cubics) == 35
    assert all(sum(e) == 3 for e in cubics)
    assert len(set(cubics)) == 35

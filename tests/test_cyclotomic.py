import copy
import itertools
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from algtool.cyclotomic import Cyclotomic
from algtool.errors import ModulusError
from algtool.gradedalg import hilbert, make_presentation


def frac(n, d=1):
    return Fraction(n, d)


def random_cyc(rng, p):
    return Cyclotomic(p, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(p - 1)])


def test_normalize_reduces_omega_powers():
    assert Cyclotomic(3, (0, 0, 0, 1)).coeffs == (frac(1), frac(0))
    assert Cyclotomic(3, (1, 1, 1)).is_zero()
    assert Cyclotomic(5, (0, 0, 0, 0, 1)).coeffs == (frac(-1),) * 4


def test_normalize_idempotent():
    rng = random.Random(1)
    for _ in range(20):
        a = random_cyc(rng, 5)
        assert Cyclotomic(5, a.coeffs).coeffs == a.coeffs


def test_arithmetic_examples():
    w3 = Cyclotomic.zeta(3)
    assert (w3 * w3).coeffs == (frac(-1), frac(-1))
    w5 = Cyclotomic.zeta(5)
    one5 = Cyclotomic.from_rational(5, 1)
    assert (one5 / w5).coeffs == (frac(-1),) * 4  # 1/w = w^4
    a = Cyclotomic.from_rational(3, 1)
    assert (a + -a).is_zero()


def test_field_axioms_on_random_triples():
    rng = random.Random(7)
    for p in (3, 5):
        for _ in range(15):
            a, b, c = (random_cyc(rng, p) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (b + c) == (a + b) + c
            if not a.is_zero():
                assert a * (1 / a) == 1


def test_conjugation():
    # complex conjugation is the Galois automorphism w -> w^(p-1)
    w3 = Cyclotomic.zeta(3)
    assert w3.galois(2).coeffs == (frac(-1), frac(-1))  # w -> w^2
    w5 = Cyclotomic.zeta(5)
    assert (1 + w5).galois(4) == 1 + w5 ** 4
    rng = random.Random(3)
    for _ in range(10):
        a = random_cyc(rng, 5)
        assert a.galois(4).galois(4) == a
    assert Cyclotomic.from_rational(5, frac(2, 3)).galois(4) == frac(2, 3)


def test_embedding():
    import cmath
    assert abs(Cyclotomic(3, (1, 1, 1)).embed()) == 0  # reduces to 0 exactly
    w5 = Cyclotomic.zeta(5)
    z = w5.embed(1)
    assert abs(z - cmath.exp(2j * cmath.pi / 5)) < 1e-12
    rng = random.Random(11)
    for _ in range(20):
        a, b = random_cyc(rng, 5), random_cyc(rng, 5)
        assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-10
        assert abs(a.galois(4).embed() - a.embed().conjugate()) < 1e-10


def test_errors():
    with pytest.raises(ModulusError):
        Cyclotomic(4, (1,))
    with pytest.raises(ModulusError):
        Cyclotomic(9, (1,))
    with pytest.raises(ModulusError):
        Cyclotomic.zeta(3) + Cyclotomic.zeta(5)
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.from_rational(3, 1) / Cyclotomic(3)
    with pytest.raises(ModulusError):
        Cyclotomic.zeta(5).embed(5)
    with pytest.raises(ModulusError):
        Cyclotomic.zeta(5).galois(10)


# -- the integer-numerator layout against sympy as a test-only oracle ---------------

W = sympy.Symbol("w")
ORACLE_SETTINGS = settings(max_examples=60, deadline=None, database=None)
primes = st.sampled_from((3, 5, 7))
fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8))


def phi(p):
    return sum(W ** k for k in range(p))


def reduced(p, expr):
    """Coefficients of expr mod Phi_p on 1, w, ..., w^(p-2), as Fractions."""
    rem = sympy.Poly(sympy.rem(sympy.expand(expr), phi(p), W), W, domain="QQ")
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (p - 1 - len(coeffs)))


def to_sympy(raw):
    return sum((sympy.Rational(c.numerator, c.denominator) * W ** k
                for k, c in enumerate(raw)), sympy.Integer(0))


@st.composite
def operands(draw, count):
    """p and `count` raw coefficient lists of any length up to 2p, so that
    the public constructor also folds w^k for k >= p - 1."""
    p = draw(primes)
    return p, [draw(st.lists(fractions, max_size=2 * p)) for _ in range(count)]


def assert_layout(x):
    assert isinstance(x.num, tuple) and len(x.num) == x.p - 1
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1
    assert all(type(c) is Fraction for c in x.coeffs)
    assert x.coeffs == tuple(Fraction(c, x.den) for c in x.num)


@seed(20141222)
@ORACLE_SETTINGS
@given(args=operands(2), power=st.integers(-3, 4))
def test_ring_operations_match_sympy(args, power):
    p, (ra, rb) = args
    a, b = Cyclotomic(p, ra), Cyclotomic(p, rb)
    ea, eb = to_sympy(ra), to_sympy(rb)
    assert a.coeffs == reduced(p, ea)
    results = {"+": (a + b, ea + eb), "-": (a - b, ea - eb), "*": (a * b, ea * eb),
               "neg": (-a, -ea), "conj": (a.galois(p - 1), ea.subs(W, W ** (p - 1)))}
    if not a.is_zero():
        inv = sympy.invert(sympy.rem(sympy.expand(ea), phi(p), W), phi(p), W)
        results["inverse"] = (a.inverse(), inv)
        results["**"] = (a ** power, ea ** power if power >= 0 else inv ** -power)
    elif power >= 0:
        results["**"] = (a ** power, ea ** power)
    for name, (ours, theirs) in results.items():
        assert_layout(ours)
        assert ours.coeffs == reduced(p, theirs), name


@seed(20141222)
@ORACLE_SETTINGS
@given(args=operands(1), k=st.integers(-20, 20), q=fractions, n=st.integers(-30, 30))
def test_layout_invariants_and_scalars(args, k, q, n):
    p, (raw,) = args
    a = Cyclotomic(p, raw)
    z = Cyclotomic.zeta(p, k)
    for x in (a, z, a * q, a * n, q * a, a + q, n - a, a * 0, a - a,
              Cyclotomic.from_rational(p, q), Cyclotomic.from_rational(p, n)):
        assert_layout(x)
    assert z.coeffs == reduced(p, W ** (k % p))
    assert (a * q).coeffs == reduced(p, to_sympy(raw) * sympy.Rational(q.numerator, q.denominator))
    assert (a + n).coeffs == reduced(p, to_sympy(raw) + n)
    assert (a - a).den == 1 and (a * 0).den == 1
    for value in (q, n, Fraction(n)):
        r = Cyclotomic.from_rational(p, value)
        assert hash(r) == hash(value)
        assert r == value and value == r
        assert r.rational_value() == value
        assert r.coeffs[0] == value


@st.composite
def galois_cases(draw):
    """p, two elements of Q(w_p) and two Galois indices k, j in 1 .. p-1."""
    p = draw(st.sampled_from((3, 5, 7, 11)))
    a, b = (Cyclotomic(p, draw(st.lists(fractions, min_size=p - 1, max_size=p - 1)))
            for _ in range(2))
    units = st.integers(1, p - 1)
    return p, a, b, draw(units), draw(units)


@seed(20141222)
@ORACLE_SETTINGS
@given(case=galois_cases())
def test_galois_automorphisms_and_norm_inverse(case):
    p, a, b, k, j = case
    image = a.galois(k)
    assert_layout(image)
    assert image.coeffs == reduced(p, to_sympy(a.coeffs).subs(W, W ** k))
    assert image.galois(j) == a.galois(j * k % p)
    assert (a + b).galois(k) == image + b.galois(k)
    assert (a * b).galois(k) == image * b.galois(k)
    assert a.galois(p - 1).galois(p - 1) == a
    if not a.is_zero():
        inv = a.inverse()
        assert_layout(inv)
        assert inv * a == 1


def test_mixed_moduli_and_immutability():
    a3, a5 = Cyclotomic.zeta(3), Cyclotomic.zeta(5)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for left, right in ((a3, a5), (a5, a3), (a5 * Fraction(1, 2), a3 + 1)):
            with pytest.raises(ModulusError):
                op(left, right)
    assert a3 != a5
    with pytest.raises(ModulusError):
        Cyclotomic.from_rational(9, 1)
    with pytest.raises(ModulusError):
        Cyclotomic.zeta(15, 2)
    for name in ("p", "num", "den", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(a5, name, getattr(a5, name))


def test_copy_deepcopy_and_pickle_round_trip():
    x = Cyclotomic(5, [Fraction(1, 2), 3, 0, -2])
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert clone == x
        assert (clone.p, clone.num, clone.den) == (x.p, x.num, x.den)
    # a Q(w) presentation holds Cyclotomic coefficients in its relations
    pres = make_presentation("curveCa", Cyclotomic(5, [1, 1]))
    series = hilbert(pres, 4)
    for clone in (copy.deepcopy(pres), pickle.loads(pickle.dumps(pres))):
        assert clone == pres
        assert hilbert(clone, 4) == series


def test_hash_agrees_with_equality():
    # rationals over den 1 and den > 1, reached directly, by cancellation and
    # by arithmetic, beside ints, Fractions and irrational values
    pool = [0, 1, -2, 3, Fraction(1, 2), Fraction(-3, 4), Fraction(6, 3)]
    for p in (3, 5, 7):
        w = Cyclotomic.zeta(p)
        pool += [Cyclotomic(p), Cyclotomic.from_rational(p, 1), Cyclotomic.from_rational(p, -2),
                 Cyclotomic.from_rational(p, Fraction(1, 2)), Cyclotomic(p, [Fraction(3, 2)]) * 2,
                 Cyclotomic(p, [Fraction(-3, 8)]) * 2, w * w ** (p - 1),
                 -sum((w ** k for k in range(1, p)), Cyclotomic(p)) * 3, w, w + Fraction(1, 2),
                 Cyclotomic(p, [1, 1]) * Fraction(1, 2)]
    equal = [(x, y) for x in pool for y in pool if x == y and x is not y]
    assert all(y == x for x, y in equal)
    assert all(hash(x) == hash(y) for x, y in equal)
    # each rational Cyclotomic equals an int or a Fraction of the pool, or
    # another Cyclotomic over its prime
    assert all(any(y is not x and y == x for y in pool) for x in pool
               if isinstance(x, Cyclotomic) and x.is_rational())
    # equal rationals over two primes equal one int, not each other
    one3, one5 = Cyclotomic.from_rational(3, 1), Cyclotomic.from_rational(5, 1)
    assert one3 == 1 == one5 and one3 != one5


def norm_inverse(a: Cyclotomic) -> Cyclotomic:
    """The inverse by the Galois norm, for any non-zero a: the product of the
    conjugates of its numerator over k = 2 .. p-1, divided by the norm."""
    numer = Cyclotomic._raw(a.p, a.num)
    others = numer.galois(2)
    for k in range(3, a.p):
        others = others * numer.galois(k)
    return others * Fraction(a.den, (numer * others).num[0])


@seed(20261019)
@settings(max_examples=120, deadline=None, database=None)
@given(p=primes, r=st.one_of(st.integers(-40, 40).filter(bool),
                             fractions.filter(bool)), k=st.integers(0, 6))
def test_single_term_inverse_is_the_norm_inverse(p, r, k):
    """r w^k inverts to r^-1 w^-k without the norm, for every k mod p
    (k = p - 1, all coordinates equal, included), int, Fraction and
    negative r."""
    a = Cyclotomic.zeta(p, k) * r
    inv = a.inverse()
    assert_layout(inv)
    assert inv == norm_inverse(a) == Cyclotomic.zeta(p, -k) * (1 / Fraction(r))
    assert inv * a == 1


def test_inverse_of_every_power_of_zeta():
    for p in (3, 5, 7):
        for k in range(p):
            for r in (1, -1, 3, Fraction(-2, 7)):
                a = Cyclotomic.zeta(p, k) * r
                assert a.inverse() == norm_inverse(a)


def test_embed_is_the_fraction_horner_sum_bit_for_bit():
    """`embed` reads num / den as the float of each coefficient Fraction,
    and adds it as a float."""
    import cmath

    rng = random.Random(7)
    values = [random_cyc(rng, p) for p in (3, 5, 7) for _ in range(30)]
    values += [Cyclotomic(5, [Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 25))
                              for _ in range(4)]) for _ in range(30)]
    values += [Cyclotomic.zeta(p, k) for p in (3, 5, 7) for k in range(p)]
    for x in values:
        for k in range(1, x.p):
            z = cmath.exp(2j * cmath.pi * k / x.p)
            acc = 0j
            for c in reversed(x.coeffs):
                acc = acc * z + float(c)
            got = x.embed(k)
            assert (got.real, got.imag) == (acc.real, acc.imag)
            assert (math.copysign(1, got.imag), math.copysign(1, got.real)) == \
                (math.copysign(1, acc.imag), math.copysign(1, acc.real))


@seed(20261020)
@settings(max_examples=150, deadline=None, database=None)
@given(p=primes, raw=st.lists(st.one_of(st.integers(-3, 3), fractions), max_size=8))
def test_lift_is_the_fewest_terms_of_the_value(p, raw):
    """The lift maps back onto the value, has the fewest nonzero terms of any
    preimage in Q[x]/(x^p - 1) (the preimages differ by multiples of
    1 + x + ... + x^(p-1)), and keeps ints over denominator 1."""
    a = Cyclotomic(p, raw)
    terms = a.lift()
    coords = [0] * p
    for k, c in terms:
        coords[k] = c
    assert Cyclotomic(p, coords) == a
    assert len(terms) == min(sum(c != t for c in coords) for t in coords)
    assert all(type(c) is (int if a.den == 1 else Fraction) for _k, c in terms)


def test_lift_of_a_single_term_is_one_term():
    for p in (3, 5, 7):
        assert Cyclotomic(p).lift() == []
        for k in range(p):
            for r in (1, -2, Fraction(3, 4)):
                assert (Cyclotomic.zeta(p, k) * r).lift() == [(k, r)]


def lift_by_count(a: Cyclotomic) -> list:
    """`Cyclotomic.lift` as first written: the mode by `tuple.count` of
    every coordinate, O(p^2)."""
    coords = (*a.num, 0)
    mode = max(coords, key=coords.count)
    if a.den == 1:
        return [(k, c - mode) for k, c in enumerate(coords) if c != mode]
    return [(k, Fraction(c - mode, a.den)) for k, c in enumerate(coords) if c != mode]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_lift_takes_the_mode_the_count_took(p):
    """The same first most common coordinate, ties included: every vector over
    {-1, 0, 1, 2} at p = 3 and 5, random ones at 7 and 11; over
    denominator 1 and 3."""
    if p <= 5:
        vectors = itertools.product((-1, 0, 1, 2), repeat=p - 1)
    else:
        rng = random.Random(p)
        vectors = [[rng.choice((-1, 0, 1, 2)) for _ in range(p - 1)] for _ in range(300)]
    ties = 0
    for vec in vectors:
        for den in (1, 3):
            a = Cyclotomic(p, [Fraction(v, den) for v in vec])
            assert a.lift() == lift_by_count(a)
            counts = sorted(((*a.num, 0)).count(c) for c in set((*a.num, 0)))
            ties += len(counts) > 1 and counts[-1] == counts[-2]
    assert ties


def convolution(a: Cyclotomic, b: Cyclotomic) -> Cyclotomic:
    """a * b by the integer convolution of every pair of coordinates, with
    w^p = 1 and w^(p-1) = -(1 + w + ... + w^(p-2)) folded in, whether or not
    a factor is rational."""
    p = a.p
    acc = [0] * p
    for i, x in enumerate(a.num):
        for j, y in enumerate(b.num):
            acc[(i + j) % p] += x * y
    return Cyclotomic._raw(p, tuple(c - acc[p - 1] for c in acc[:-1]), a.den * b.den)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_mul_is_the_convolution_and_sub_the_sum_of_the_negation(p):
    """Rational and irrational factors on either side, over denominators 1
    and more, zero and negative values: equal numerators, denominator and
    hash."""
    rng = random.Random(p)
    rationals = [Cyclotomic.from_rational(p, q) for q in (0, 1, -1, 6, Fraction(-2, 3), Fraction(5, 4))]
    irrationals = [random_cyc(rng, p) for _ in range(6)] + [
        Cyclotomic.zeta(p, 1), Cyclotomic.zeta(p, p - 1) * Fraction(-3, 2),
        Cyclotomic(p, [Fraction(1, 6), -1]), -Cyclotomic(p, [3, 0, 6])]
    assert not any(x.is_rational() for x in irrationals)
    assert {x.den != 1 for x in irrationals} == {True, False}
    for a, b in itertools.product(rationals + irrationals, repeat=2):
        for ours, reference in ((a * b, convolution(a, b)), (a - b, a + -b)):
            assert_layout(ours)
            assert (ours.num, ours.den, hash(ours)) == \
                (reference.num, reference.den, hash(reference))

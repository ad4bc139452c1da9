import random
from fractions import Fraction

import pytest

from algtool.cyclotomic import Cyclotomic
from algtool.errors import ModulusError


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
    w3 = Cyclotomic.zeta(3)
    assert w3.conjugate().coeffs == (frac(-1), frac(-1))  # w -> w^2
    w5 = Cyclotomic.zeta(5)
    assert (1 + w5).conjugate() == 1 + w5 ** 4
    rng = random.Random(3)
    for _ in range(10):
        a = random_cyc(rng, 5)
        assert a.conjugate().conjugate() == a
    assert Cyclotomic.from_rational(5, frac(2, 3)).conjugate() == frac(2, 3)


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
        assert abs(a.conjugate().embed() - a.embed().conjugate()) < 1e-10


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

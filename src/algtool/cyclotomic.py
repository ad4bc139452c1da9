"""Exact arithmetic in the cyclotomic field Q(w) for an odd prime p.

Elements are written on the power basis {1, w, ..., w^(p-2)}, where w is a
fixed primitive p-th root of unity.  The reduction rules are w^p = 1 and
1 + w + ... + w^(p-1) = 0, so every element has a unique coefficient vector
of length p-1 over Q.  All equality here is exact; floats only appear
through :func:`Cyclotomic.embed`.

Storage follows the FLINT/Antic ``nf_elem`` layout (W. Hart, "ANTIC:
Algebraic Number Theory in C", 2015): the coefficient vector is
``num / den`` with ``num`` a tuple of p-1 ints and ``den`` a positive int,
``gcd(den, *num) == 1``, and zero stored as all-zero ``num`` over ``den ==
1``.  That form is unique, so equality compares two tuples, and the ring
operations are integer arithmetic followed by one gcd.  ``coeffs`` is a
read-only view of the same vector as reduced :class:`fractions.Fraction`
values, which is what printing and serialization read.

Rational scalars are plain :class:`fractions.Fraction` values (always stored
reduced, denominator positive), so no separate rational type is needed.
"""

from __future__ import annotations

import cmath
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, List, Sequence, Tuple, Union

from .errors import ModulusError

Scalar = Union[int, Fraction]

# bound once: _raw and _store run for every ring operation's result
_new = object.__new__
_setattr = object.__setattr__


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


def require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ModulusError(f"modulus must be an odd prime, got {p}")


class Cyclotomic:
    """An element of Q(w), w a primitive p-th root of unity.

    ``Cyclotomic(p, raw)`` reduces an arbitrary coefficient sequence
    (coefficient of w^k at position k, any length, ints or Fractions) to the
    canonical length-(p-1) power-basis form.  Instances are immutable.
    """

    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, raw: Sequence[Scalar] = ()):
        require_odd_prime(p)
        # ints and Fractions both carry .numerator and .denominator
        terms = [(k % p, c if isinstance(c, (int, Fraction)) else Fraction(c))
                 for k, c in enumerate(raw) if c]
        den = lcm(*(c.denominator for _k, c in terms))
        folded = [0] * p
        for k, c in terms:
            folded[k] += c.numerator * (den // c.denominator)
        # w^(p-1) = -(1 + w + ... + w^(p-2))
        top = folded[p - 1]
        self._store(p, tuple(c - top for c in folded[:-1]), den)

    @classmethod
    def _raw(cls, p: int, num: Tuple[int, ...], den: int = 1) -> "Cyclotomic":
        """The element num / den, for an already folded integer tuple of
        length p-1 and den > 0; skips the prime check and the fold."""
        self = _new(cls)
        self._store(p, num, den)
        return self

    def _store(self, p: int, num: Tuple[int, ...], den: int) -> None:
        """Set the slots to num / den with the common gcd cancelled; over
        den == 1 there is none to cancel."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = tuple([c // g for c in num])
                den //= g
        _setattr(self, "p", p)
        _setattr(self, "num", num)
        _setattr(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through _raw; the default
        # protocol would set the slots and trip __setattr__
        return (Cyclotomic._raw, (self.p, self.num, self.den))

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The power-basis coefficients as reduced Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, p: int, value: Scalar) -> "Cyclotomic":
        require_odd_prime(p)
        if isinstance(value, int):
            return cls._raw(p, (value,) + (0,) * (p - 2))
        value = Fraction(value)
        return cls._raw(p, (value.numerator,) + (0,) * (p - 2), value.denominator)

    @classmethod
    def from_integers(cls, p: int, raw: Sequence[int]) -> "Cyclotomic":
        """sum_k raw[k] w^k for p ints raw[0..p-1]: the fold of ``Cyclotomic(p,
        raw)`` with no Fractions and no prime check, for callers that hold p
        already checked."""
        # w^(p-1) = -(1 + w + ... + w^(p-2))
        top = raw[p - 1]
        return cls._raw(p, tuple([c - top for c in raw[:-1]]))

    @classmethod
    def zeta(cls, p: int, k: int = 1) -> "Cyclotomic":
        """w^k."""
        key = (p, k % p)
        value = _ZETA.get(key)
        if value is None:
            value = _ZETA[key] = cls(p, [0] * key[1] + [1])
        return value

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            if other.p != self.p:
                raise ModulusError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.p, other)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not Cyclotomic or other.p != self.p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        da, db = self.den, other.den
        if da == db:
            num = tuple([a + b for a, b in zip(self.num, other.num)])
        else:
            num = tuple([a * db + b * da for a, b in zip(self.num, other.num)])
            da *= db
        return Cyclotomic._raw(self.p, num, da)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._raw(self.p, tuple([-a for a in self.num]), self.den)

    def __sub__(self, other):
        if type(other) is not Cyclotomic or other.p != self.p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + -self

    def __mul__(self, other):
        p = self.p
        if type(other) is not Cyclotomic or other.p != p:
            if isinstance(other, int):
                # a scalar multiple needs no reduction
                return Cyclotomic._raw(p, tuple([a * other for a in self.num]), self.den)
            if isinstance(other, Fraction):
                return Cyclotomic._raw(p, tuple([a * other.numerator for a in self.num]),
                                       self.den * other.denominator)
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # integer convolution with w^p = 1 folded in: the product term of
        # w^(i+j) lands on acc[i + j - p], which for i + j < p is the
        # negative index of position i + j itself
        acc = [0] * p
        onum = other.num
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(onum, i - p):
                    if b:
                        acc[j] += a * b
        # w^(p-1) = -(1 + w + ... + w^(p-2))
        top = acc[p - 1]
        return Cyclotomic._raw(p, tuple([c - top for c in acc[:-1]]), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse.  A single term r w^k, whose one non-zero
        coordinate is r at w^k, or for k = p-1 all p-1 coordinates -r, is
        r^-1 w^-k.  Otherwise it is taken by the Galois norm: for integral y,
        the product of sigma_k(y) over k = 1 .. p-1 is a rational integer N,
        so y^-1 is the product over k = 2 .. p-1 divided by N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        p, num = self.p, self.num
        support = [k for k, c in enumerate(num) if c]
        if len(support) == 1:
            # r w^k with r = num[k] / den
            k = support[0]
            return Cyclotomic.zeta(p, -k) * Fraction(self.den, num[k])
        if num.count(num[0]) == p - 1:
            # r w^(p-1) = -r (1 + w + ... + w^(p-2)) with r = -num[0] / den
            return Cyclotomic.zeta(p, 1) * Fraction(self.den, -num[0])
        # (num / den)^-1 = den * num^-1
        numer = Cyclotomic._raw(self.p, self.num)
        others = numer.galois(2)
        for k in range(3, self.p):
            others = others * numer.galois(k)
        norm = (numer * others).num[0]
        return others * Fraction(self.den, norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyclotomic.from_rational(self.p, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.p == other.p and self.den == other.den and self.num == other.num
        if isinstance(other, int):
            return self.den == 1 and self.num[0] == other and self.is_rational()
        if isinstance(other, Fraction):
            return (self.den == other.denominator and self.num[0] == other.numerator
                    and self.is_rational())
        return NotImplemented

    def __hash__(self):
        # equal to the hash of an equal int or Fraction, as __eq__ needs
        if self.is_rational():
            if self.den == 1:
                return hash(self.num[0])
            return hash(Fraction(self.num[0], self.den))
        return hash((self.p, self.num, self.den))

    # -- Galois / numeric views ---------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Image under the automorphism w -> w^k; needs gcd(k, p) = 1.  k = p - 1
        is complex conjugation."""
        p = self.p
        if k % p == 0:
            raise ModulusError(f"Galois index {k} is 0 mod {p}")
        acc = [0] * p
        for i, c in enumerate(self.num):
            acc[i * k % p] += c
        # w^(p-1) = -(1 + w + ... + w^(p-2))
        top = acc[p - 1]
        return Cyclotomic._raw(p, tuple(c - top for c in acc[:-1]), self.den)

    def embed(self, k: int = 1) -> complex:
        """Numeric value under w -> exp(2*pi*i*k/p), by Horner's rule on the
        floats c / den of the coefficients; needs gcd(k, p) = 1."""
        if k % self.p == 0:
            raise ModulusError(f"embedding index {k} is 0 mod {self.p}")
        z = cmath.exp(2j * cmath.pi * k / self.p)
        den = self.den
        acc = 0j
        for c in reversed(self.num):
            acc = acc * z + c / den
        if not (cmath.isfinite(acc)):
            raise ArithmeticError("non-finite embedding value")
        return acc

    def lift(self) -> List[Tuple[int, Scalar]]:
        """The value as its fewest (k, c) terms of sum c x^k in
        Q[x]/(x^p - 1), c an int over denominator 1, else a Fraction: the
        power-basis coordinates and a 0 at x^(p-1), less their most common
        one, so r w^k is the one term (k, r) for every k.  x -> w has kernel
        1 + x + ... + x^(p-1), so a sum of lifted terms, in p buckets by k
        mod p, is 0 in Q(w) exactly when its buckets are equal."""
        coords = (*self.num, 0)
        # the first most common coordinate: Counter keeps first-seen order
        mode = Counter(coords).most_common(1)[0][0]
        den = self.den
        if den == 1:
            return [(k, c - mode) for k, c in enumerate(coords) if c != mode]
        return [(k, Fraction(c - mode, den)) for k, c in enumerate(coords) if c != mode]

    def __repr__(self):
        return f"Cyclotomic({self.p}, {[str(c) for c in self.coeffs]})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            unit = "1" if k == 0 else ("w" if k == 1 else f"w^{k}")
            parts.append(f"{c}" if k == 0 else (unit if c == 1 else f"{c}*{unit}"))
        return " + ".join(parts)


# w^k by (p, k mod p); the values are immutable, so sharing them is safe
_ZETA: Dict[Tuple[int, int], Cyclotomic] = {}

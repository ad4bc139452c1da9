"""Exact arithmetic in the cyclotomic field Q(w) for an odd prime p.

Elements are written on the power basis {1, w, ..., w^(p-2)}, where w is a
fixed primitive p-th root of unity.  The reduction rules are w^p = 1 and
1 + w + ... + w^(p-1) = 0, so every element has a unique coefficient vector
of length p-1 over Q.  All equality here is exact; floats only appear
through :func:`Cyclotomic.embed`.

Rational scalars are plain :class:`fractions.Fraction` values (always stored
reduced, denominator positive), so no separate rational type is needed.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import isqrt
from typing import Sequence, Union

from .errors import ModulusError
from .linalg import _gauss_jordan

Scalar = Union[int, Fraction]


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
    (coefficient of w^k at position k, any length) to the canonical
    length-(p-1) power-basis form.  Instances are immutable.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, raw: Sequence[Scalar] = ()):
        require_odd_prime(p)
        folded = [Fraction(0)] * p
        for k, c in enumerate(raw):
            if c:
                folded[k % p] += Fraction(c)
        # w^(p-1) = -(1 + w + ... + w^(p-2))
        top = folded[p - 1]
        coeffs = tuple(folded[k] - top for k in range(p - 1))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, p: int, value: Scalar) -> "Cyclotomic":
        return cls(p, (value,))

    @classmethod
    def zeta(cls, p: int, k: int = 1) -> "Cyclotomic":
        """w^k."""
        return cls(p, [0] * (k % p) + [1])

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            if other.p != self.p:
                raise ModulusError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.p, (other,))
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.p, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # fast path: scalar multiple needs no reduction
            return Cyclotomic(self.p, [a * other for a in self.coeffs])
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        raw = [Fraction(0)] * (2 * self.p)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        raw[i + j] += a * b
        return Cyclotomic(self.p, raw)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse, by solving (mult-by-self) x = 1 over Q."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        n = self.p - 1
        # columns: self * w^j on the power basis
        cols = [(self * Cyclotomic.zeta(self.p, j)).coeffs for j in range(n)]
        aug, _pivots = _gauss_jordan(
            [[cols[j][i] for j in range(n)] + [Fraction(1 if i == 0 else 0)]
             for i in range(n)], n)
        return Cyclotomic(self.p, [row[n] for row in aug])

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
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, Cyclotomic):
            return self.p == other.p and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.p, self.coeffs))

    # -- Galois / numeric views ---------------------------------------------

    def conjugate(self) -> "Cyclotomic":
        """Image under w -> w^(p-1) = complex conjugation; an involution."""
        raw = [Fraction(0)] * self.p
        for k, c in enumerate(self.coeffs):
            raw[(-k) % self.p] += c
        return Cyclotomic(self.p, raw)

    def embed(self, k: int = 1) -> complex:
        """Numeric value under w -> exp(2*pi*i*k/p); needs gcd(k, p) = 1."""
        if k % self.p == 0:
            raise ModulusError(f"embedding index {k} is 0 mod {self.p}")
        z = cmath.exp(2j * cmath.pi * k / self.p)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        if not (cmath.isfinite(acc)):
            raise ArithmeticError("non-finite embedding value")
        return acc

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


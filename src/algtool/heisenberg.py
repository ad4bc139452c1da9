"""The finite Heisenberg group of order p^3 and its representation theory.

Elements carry the normal form e1^a e2^b z^k (exponents mod p), multiplied
through the commutation rule e1 e2 = z e2 e1.  The p-dimensional simple
representation V_i acts on basis vectors x_0 ... x_{p-1} by

    e1 . x_j = x_{j-1},   e2 . x_j = w^(i*j) x_j,   z . x_j = w^i x_j,

with w the fixed primitive p-th root of unity of the cyclotomic kernel.
One-dimensional characters chi_{a,b} are the degenerate (dimension-1)
variant used by the character-table orthogonality checks.

Every operation refuses mixed primes with `ModulusError`.  Eigenlines are
read off a closed-form recurrence, so no linear algebra is imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from .cyclotomic import Cyclotomic, require_odd_prime
from .errors import InputError, ModulusError


def _same_prime(p: int, q: int) -> None:
    if p != q:
        raise ModulusError(f"mixed primes {p} and {q}")


@dataclass(frozen=True)
class HeisenbergElement:
    p: int
    a: int = 0
    b: int = 0
    k: int = 0

    def __post_init__(self):
        require_odd_prime(self.p)
        object.__setattr__(self, "a", self.a % self.p)
        object.__setattr__(self, "b", self.b % self.p)
        object.__setattr__(self, "k", self.k % self.p)

    def is_central(self) -> bool:
        return self.a == 0 and self.b == 0

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        _same_prime(self.p, other.p)
        # e2^b e1^c = z^(-b c) e1^c e2^b
        return HeisenbergElement(self.p, self.a + other.a, self.b + other.b,
                                 self.k + other.k - self.b * other.a)

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(self.p, -self.a, -self.b, -self.k - self.a * self.b)

    def __pow__(self, n: int) -> "HeisenbergElement":
        if n < 0:
            return self.inverse() ** (-n)
        acc = HeisenbergElement(self.p)
        for _ in range(n):
            acc = acc * self
        return acc

    def label(self) -> str:
        parts = []
        if self.a:
            parts.append("e1" if self.a == 1 else f"e1^{self.a}")
        if self.b:
            parts.append("e2" if self.b == 1 else f"e2^{self.b}")
        if self.k:
            parts.append("z" if self.k == 1 else f"z^{self.k}")
        return " ".join(parts) if parts else "1"


def parse_element(p: int, text: str) -> HeisenbergElement:
    """Parse labels like "e1^2 e2 z^3" (also "1" for the identity)."""
    text = text.strip()
    g = HeisenbergElement(p)
    if text in ("", "1"):
        return g
    a = b = k = 0
    for tok in text.replace("*", " ").split():
        if "^" in tok:
            name, exp = tok.split("^", 1)
            try:
                e = int(exp)
            except ValueError:
                raise InputError(f"bad exponent {exp!r} in {text!r}") from None
        else:
            name, e = tok, 1
        if name == "e1":
            a += e
        elif name == "e2":
            b += e
        elif name == "z":
            k += e
        else:
            raise InputError(f"unknown generator {name!r} in {text!r}")
    return HeisenbergElement(p, a, b, k)


@dataclass(frozen=True)
class SimpleRep:
    """The p-dimensional simple representation V_index (chi(z) = p w^index)."""

    p: int
    index: int = 1

    def __post_init__(self):
        require_odd_prime(self.p)
        if self.index % self.p == 0:
            raise ModulusError(f"representation index {self.index} not coprime to {self.p}")
        object.__setattr__(self, "index", self.index % self.p)

    def character(self, g: HeisenbergElement) -> Cyclotomic:
        _same_prime(self.p, g.p)
        if not g.is_central():
            return Cyclotomic(self.p)
        return Cyclotomic.zeta(self.p, self.index * g.k) * self.p


@dataclass(frozen=True)
class LinearCharacter:
    """The 1-dimensional representation chi_{a,b}: e1 -> w^a, e2 -> w^b."""

    p: int
    a: int = 0
    b: int = 0

    def __post_init__(self):
        require_odd_prime(self.p)
        object.__setattr__(self, "a", self.a % self.p)
        object.__setattr__(self, "b", self.b % self.p)

    def character(self, g: HeisenbergElement) -> Cyclotomic:
        _same_prime(self.p, g.p)
        return Cyclotomic.zeta(self.p, self.a * g.a + self.b * g.b)


Rep = Union[SimpleRep, LinearCharacter]


def conjugacy_classes(p: int) -> List[Tuple[HeisenbergElement, int]]:
    """Representatives with class sizes: p central singletons z^k, then the
    p^2 - 1 size-p classes of e1^a e2^b, (a, b) != (0, 0), in lex order."""
    require_odd_prime(p)
    classes = [(HeisenbergElement(p, 0, 0, k), 1) for k in range(p)]
    for a in range(p):
        for b in range(p):
            if (a, b) != (0, 0):
                classes.append((HeisenbergElement(p, a, b, 0), p))
    return classes


def all_irreducibles(p: int) -> List[Rep]:
    reps: List[Rep] = [LinearCharacter(p, a, b) for a in range(p) for b in range(p)]
    reps.extend(SimpleRep(p, i) for i in range(1, p))
    return reps


def projective_fixed_points(rep: SimpleRep, g: HeisenbergElement) -> List[Tuple[Cyclotomic, ...]]:
    """The p eigenlines of rho(g) on V_index, that of eigenvalue w^m at
    position m, first nonzero coordinate 1: the fixed points of the
    non-central g = e1^a e2^b z^k on P(V).  rho(g) v = w^m v reads
    v[c+a] = w^(m - i(k + b(c+a))) v[c] (i = index): for a != 0 a p-step
    recurrence from v[0] = 1 that closes up for every m, as the phases
    around the cycle multiply to w^(-i b p(p-1)/2) = 1.  For a = 0 the line
    of w^m is the coordinate line of the one c with i(k + bc) = m mod p."""
    _same_prime(rep.p, g.p)
    if g.is_central():
        raise ValueError("central elements fix all of projective space")
    p, i = rep.p, rep.index
    if g.a == 0:
        zero, one = Cyclotomic(p), Cyclotomic.zeta(p, 0)
        lines = {i * (g.k + g.b * c) % p: tuple(one if r == c else zero for r in range(p))
                 for c in range(p)}
        return [lines[m] for m in range(p)]
    points = []
    for m in range(p):
        exps, c = [0] * p, 0
        for _ in range(p - 1):
            prev, c = c, (c + g.a) % p
            exps[c] = exps[prev] + m - i * (g.k + g.b * c)
        points.append(tuple(Cyclotomic.zeta(p, e) for e in exps))
    return points


def subgroup_generators(p: int) -> List[HeisenbergElement]:
    """Generators of the p+1 cyclic subgroups of the projectivized group:
    (0,1) and (1,b) for b in Z_p."""
    gens = [HeisenbergElement(p, 0, 1, 0)]
    gens.extend(HeisenbergElement(p, 1, b, 0) for b in range(p))
    return gens


def heisenberg_orbit_points(rep: SimpleRep, point: Sequence[Cyclotomic]) -> List[tuple]:
    """All p^2 images rho(e1)^a rho(e2)^b . point, exact over Q(w_p)."""
    p = rep.p
    out = []
    for a in range(p):
        for b in range(p):
            g = HeisenbergElement(p, a, b, 0)
            out.append(apply_element(rep, g, point))
    return out


def apply_element(rep: SimpleRep, g: HeisenbergElement, point: Sequence[Cyclotomic]) -> tuple:
    """rho(g) applied to an exact coordinate vector, without materializing
    the matrix: coordinate c picks up the phase w^(index (k + b c)) and
    moves to c - a."""
    _same_prime(rep.p, g.p)
    p = rep.p
    if len(point) != p:
        raise ValueError(f"point needs {p} coordinates")
    vec = [None] * p
    for c in range(p):
        vec[(c - g.a) % p] = Cyclotomic.zeta(p, rep.index * (g.k + g.b * c)) * point[c]
    return tuple(vec)

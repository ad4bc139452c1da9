"""Sparse exact multivariate polynomials, polynomial matrices, determinants,
minors, partial derivatives, Sylvester resultants and exact division.

Coefficient fields: Q (Fraction) and, for the numeric code paths, complex
floats.  Polynomials over Q evaluate at points of any scalar kind, Cyclotomic
points included.  Terms are kept in a dict keyed by exponent tuples;
`sorted_terms` lists them graded lexicographic, highest first, so every
text form, and the JSON form `cli.to_jsonable` writes, is bit-stable.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .cyclotomic import Cyclotomic
from .errors import ArityError, RingMismatchError

Exps = Tuple[int, ...]

FIELD_QQ = "QQ"
FIELD_CC = "CC"

# the scalar kinds a polynomial combines with as a constant
_SCALARS = (int, Fraction, Cyclotomic, float, complex)


@dataclass(frozen=True)
class PolyRing:
    variables: Tuple[str, ...]
    field: str = FIELD_QQ

    def __post_init__(self):
        if self.field not in (FIELD_QQ, FIELD_CC):
            raise ValueError(f"unknown field tag {self.field!r}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def coerce(self, c):
        if self.field == FIELD_QQ:
            if isinstance(c, Fraction):
                return c
            if isinstance(c, int):
                return Fraction(c)
            raise RingMismatchError(f"{c!r} is not a rational coefficient")
        if isinstance(c, (int, float, complex, Fraction)):
            return complex(c)
        raise RingMismatchError(f"{c!r} is not a complex coefficient")

    def zero_scalar(self):
        return self.coerce(0)

    def one_scalar(self):
        return self.coerce(1)


def ring_q(variables: Sequence[str]) -> PolyRing:
    return PolyRing(tuple(variables), FIELD_QQ)


def ring_cc(variables: Sequence[str]) -> PolyRing:
    return PolyRing(tuple(variables), FIELD_CC)


def grlex_key(exps: Exps):
    return (-sum(exps), tuple(-e for e in exps))


def monomials_of_degree(nvars: int, degree: int) -> List[Exps]:
    """All exponent tuples of the given total degree, graded-lex order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    out.sort(key=grlex_key)
    return out


class MultiPoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Dict[Exps, object], _clean: bool = False):
        self.ring = ring
        if _clean:
            self.terms = terms
        else:
            cleaned = {}
            n = ring.nvars
            for exps, c in terms.items():
                if len(exps) != n:
                    raise ArityError(f"monomial {exps} has wrong arity for {ring.variables}")
                c = ring.coerce(c)
                if c:
                    cleaned[tuple(exps)] = c
            self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: PolyRing) -> "MultiPoly":
        return cls(ring, {}, _clean=True)

    @classmethod
    def const(cls, ring: PolyRing, c) -> "MultiPoly":
        c = ring.coerce(c)
        if not c:
            return cls.zero(ring)
        return cls(ring, {(0,) * ring.nvars: c}, _clean=True)

    @classmethod
    def var(cls, ring: PolyRing, index: int, power: int = 1) -> "MultiPoly":
        if not 0 <= index < ring.nvars:
            raise ArityError(f"no variable {index} in {ring.variables}")
        exps = tuple(power if i == index else 0 for i in range(ring.nvars))
        return cls(ring, {exps: ring.one_scalar()}, _clean=True)

    @classmethod
    def monomial(cls, ring: PolyRing, exps: Exps, c=1) -> "MultiPoly":
        return cls(ring, {tuple(exps): c})

    # -- basics --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention here."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def _check_ring(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")

    # -- arithmetic ----------------------------------------------------------
    # An operand that is neither a MultiPoly nor a scalar gives
    # NotImplemented, so that Python raises TypeError.

    def __add__(self, other):
        if type(other) is MultiPoly:
            if other.ring is not self.ring:
                self._check_ring(other)
        elif isinstance(other, _SCALARS):
            other = MultiPoly.const(self.ring, other)
        else:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            cur = terms.get(e)
            new = c if cur is None else cur + c
            if new:
                terms[e] = new
            elif cur is not None:
                del terms[e]
        return MultiPoly(self.ring, terms, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        if type(other) is not MultiPoly:
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = MultiPoly.const(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if type(other) is MultiPoly:
            if other.ring is not self.ring:
                self._check_ring(other)
        elif isinstance(other, _SCALARS):
            c = self.ring.coerce(other)
            if not c:
                return MultiPoly.zero(self.ring)
            return MultiPoly(self.ring, {e: v * c for e, v in self.terms.items()}, _clean=True)
        else:
            return NotImplemented
        add = operator.add
        terms: Dict[Exps, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                cur = terms.get(e)
                new = c if cur is None else cur + c
                if new:
                    terms[e] = new
                elif cur is not None:
                    del terms[e]
        return MultiPoly(self.ring, terms, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = MultiPoly.const(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == MultiPoly.const(self.ring, other).terms
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items(), key=lambda t: grlex_key(t[0])))))

    # -- calculus / evaluation ------------------------------------------------

    def partial(self, var: int) -> "MultiPoly":
        if not 0 <= var < self.ring.nvars:
            raise ArityError(f"no variable {var}")
        terms: Dict[Exps, object] = {}
        for e, c in self.terms.items():
            k = e[var]
            if k == 0:
                continue
            e2 = tuple(v - 1 if i == var else v for i, v in enumerate(e))
            nc = c * k
            cur = terms.get(e2)
            terms[e2] = nc if cur is None else cur + nc
        return MultiPoly(self.ring, {e: c for e, c in terms.items() if c}, _clean=True)

    def eval(self, point: Sequence):
        """Evaluate at a point; scalar kind follows the point entries.  The
        plan of `_eval_all` is built for this one call."""
        return _eval_all(self.ring, _eval_plan([self]), point)[0]

    # -- views ------------------------------------------------------------------

    def sorted_terms(self) -> List[Tuple[Exps, object]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def leading_term(self) -> Tuple[Exps, object]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = min(self.terms, key=grlex_key)
        return e, self.terms[e]

    def coeffs_in_var(self, var: int) -> List["MultiPoly"]:
        """Coefficients [c_0, ..., c_d] of self as a polynomial in var."""
        d = self.degree_in(var)
        if d < 0:
            return [MultiPoly.zero(self.ring)]
        buckets: List[Dict[Exps, object]] = [{} for _ in range(d + 1)]
        for e, c in self.terms.items():
            k = e[var]
            e2 = tuple(0 if i == var else v for i, v in enumerate(e))
            buckets[k][e2] = buckets[k].get(e2, self.ring.zero_scalar()) + c
        return [MultiPoly(self.ring, {e: c for e, c in b.items() if c}, _clean=True)
                for b in buckets]

    def coefficient_vector(self, basis: Sequence[Exps]) -> list:
        """Coefficients against an explicit monomial basis (missing -> error)."""
        index = {e: i for i, e in enumerate(basis)}
        vec = [self.ring.zero_scalar()] * len(basis)
        for e, c in self.terms.items():
            if e not in index:
                raise ValueError(f"monomial {e} outside the given basis")
            vec[index[e]] = c
        return vec

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [f"{self.ring.variables[i]}^{k}" for i, k in enumerate(e) if k]
            if factors:
                parts.append(f"{c} * " + " ".join(factors))
            else:
                parts.append(f"{c}")
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({', '.join(self.ring.variables)}; {self})"


def _eval_plan(polys: Sequence[MultiPoly]) -> tuple:
    """What `_eval_all` needs of `polys`: the largest exponent of each
    variable among them, and each polynomial's terms as (coefficient,
    [(variable, power), ...]) over its non-zero powers, in dict order."""
    exps = [e for f in polys for e in f.terms]
    maxdeg = [max(col) for col in zip(*exps)]
    plans = [[(c, [(i, k) for i, k in enumerate(e) if k]) for e, c in f.terms.items()]
             for f in polys]
    return maxdeg, plans


def _eval_all(ring: PolyRing, plan: tuple, point: Sequence) -> list:
    """Each polynomial of an `_eval_plan` at a point, from one table of the
    powers point[i]^k up to the largest exponent of variable i among them.
    Each power is the one below it times point[i], so it does not depend on
    how far its row goes; each term is its coefficient times its powers in
    variable order, and the terms are summed in dict order.  So each
    polynomial gets the same value bit for bit whatever it is evaluated
    together with, and whether or not its plan was built before."""
    if len(point) != ring.nvars:
        raise ArityError(f"point has {len(point)} coordinates, ring has {ring.nvars}")
    maxdeg, plans = plan
    powers = []
    for x, top in zip(point, maxdeg):
        row = [1]
        for _ in range(top):
            row.append(row[-1] * x)
        powers.append(row)
    values = []
    for terms in plans:
        acc = None
        for c, factors in terms:
            term = c
            for i, k in factors:
                term = term * powers[i][k]
            acc = term if acc is None else acc + term
        if acc is None:
            acc = 0 * point[0] if point else ring.zero_scalar()
        values.append(acc)
    return values


# -- division -------------------------------------------------------------------


def exact_divide(f: MultiPoly, g: MultiPoly) -> Optional[MultiPoly]:
    """Quotient q with f = q*g exactly, or None when g does not divide f.

    Graded-lex leading-term division: whenever f = q*g, the leading term of
    the running remainder stays divisible by the leading term of g, so the
    loop either finishes with remainder 0 or proves non-divisibility.  The
    result is re-verified by multiplication.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.ring != g.ring:
        raise RingMismatchError("exact_divide needs a common ring")
    if f.ring.field == FIELD_CC:
        raise RingMismatchError("exact division is only defined over exact fields")
    q_terms: Dict[Exps, object] = {}
    rem = f
    ge, gc = g.leading_term()
    while rem.terms:
        fe, fc = rem.leading_term()
        diff = tuple(a - b for a, b in zip(fe, ge))
        if any(d < 0 for d in diff):
            return None
        coeff = fc / gc
        q_terms[diff] = coeff
        rem = rem - MultiPoly.monomial(f.ring, diff, coeff) * g
    q = MultiPoly(f.ring, q_terms)
    if (q * g - f).terms:
        raise ArithmeticError("exact division verification failed")
    return q


# -- polynomial matrices -----------------------------------------------------------


class PolyMatrix:
    __slots__ = ("rows", "cols", "entries", "ring", "_plan")

    def __init__(self, rows: int, cols: int, entries: Sequence[MultiPoly]):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        ring = entries[0].ring
        for e in entries:
            if e.ring != ring:
                raise RingMismatchError("matrix entries over mixed rings")
        self.rows, self.cols, self.entries, self.ring = rows, cols, entries, ring
        self._plan = None

    def at(self, i: int, j: int) -> MultiPoly:
        return self.entries[i * self.cols + j]

    def eval(self, point: Sequence) -> List[list]:
        """The entries at a point, from one power table for all of them;
        each entry gets the value of `MultiPoly.eval` bit for bit.  The
        evaluation plan of the entries is built on the first call and kept,
        so later calls only multiply and add (and the entries must not be
        replaced after it)."""
        if self._plan is None:
            self._plan = _eval_plan(self.entries)
        values = _eval_all(self.ring, self._plan, point)
        cols = self.cols
        return [values[i:i + cols] for i in range(0, len(values), cols)]


def minor_routine(m: PolyMatrix):
    """minor(rows, cols): the determinant of the submatrix of m on the given
    row and column index tuples, by Laplace expansion along its first row.

    Results are memoised on (rows, cols), so every minor taken through one
    routine shares its sub-minors.  The recursion goes through
    `_laplace_minor`, not through the routine itself, so the routine holds
    no reference to itself and its memo is freed as soon as the routine is.
    """
    memo = {((), ()): MultiPoly.const(m.ring, 1)}

    def minor(rows: Tuple[int, ...], cols: Tuple[int, ...]) -> MultiPoly:
        return _laplace_minor(m, memo, rows, cols)

    return minor


def _laplace_minor(m: PolyMatrix, memo: dict, rows: Tuple[int, ...],
                   cols: Tuple[int, ...]) -> MultiPoly:
    """The minor of `minor_routine`, memoised in `memo`, which holds the
    empty minor 1."""
    key = (rows, cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    acc = MultiPoly.zero(m.ring)
    for idx, c in enumerate(cols):
        entry = m.at(rows[0], c)
        if entry.is_zero():
            continue
        piece = entry * _laplace_minor(m, memo, rows[1:], cols[:idx] + cols[idx + 1:])
        acc = acc + piece if idx % 2 == 0 else acc - piece
    memo[key] = acc
    return acc


def mat_det(m: PolyMatrix) -> MultiPoly:
    if m.rows != m.cols:
        raise ValueError(f"determinant of a {m.rows}x{m.cols} matrix")
    if m.rows > 8:
        raise ValueError("determinants are only supported up to size 8")
    full = tuple(range(m.rows))
    return minor_routine(m)(full, full)


def mat_minors(m: PolyMatrix, k: int, minor=None) -> List[MultiPoly]:
    """All k x k minors, row subsets then column subsets, lexicographic.

    `minor`, a `minor_routine(m)`, lets calls for several sizes share one
    memo, so the larger minors reuse the smaller ones."""
    if not 1 <= k <= min(m.rows, m.cols):
        raise ValueError(f"minor size {k} out of range for {m.rows}x{m.cols}")
    if minor is None:
        minor = minor_routine(m)
    return [minor(ri, ci)
            for ri in itertools.combinations(range(m.rows), k)
            for ci in itertools.combinations(range(m.cols), k)]


def resultant(f: MultiPoly, g: MultiPoly, var: int) -> MultiPoly:
    """Determinant of the Sylvester matrix in `var`, f-rows first."""
    df, dg = f.degree_in(var), g.degree_in(var)
    if df < 1 or dg < 1:
        raise ValueError("resultant needs positive degree in the eliminated variable")
    fc = f.coeffs_in_var(var)
    gc = g.coeffs_in_var(var)
    size = df + dg
    zero = MultiPoly.zero(f.ring)
    rows: List[List[MultiPoly]] = []
    for shift in range(dg):
        row = [zero] * size
        for i, c in enumerate(reversed(fc)):  # leading coefficient first
            row[shift + i] = c
        rows.append(row)
    for shift in range(df):
        row = [zero] * size
        for i, c in enumerate(reversed(gc)):
            row[shift + i] = c
        rows.append(row)
    return mat_det(PolyMatrix(size, size, [e for row in rows for e in row]))

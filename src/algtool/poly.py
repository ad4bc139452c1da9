"""Sparse exact multivariate polynomials, polynomial matrices, determinants,
minors, partial derivatives, Sylvester resultants and exact division.

A ring is its variables.  Each coefficient is kept as it was built: an int,
Fraction, float or complex, any other kind (a Cyclotomic included) being a
RingMismatchError; so the field is read off the coefficients, Q when each is
an int or a Fraction.  Polynomials over Q evaluate at points of any scalar
kind, Cyclotomic points included.

Monomials are packed into ints.  Over n variables, the monomial with
exponents (e_0, ..., e_{n-1}) and total degree d = e_0 + ... + e_{n-1} has
the key

    d * 2^(16 n) + e_0 * 2^(16 (n-1)) + ... + e_{n-2} * 2^16 + e_{n-1},

the degree in the top field and then each exponent in a 16-bit field.  A
polynomial keeps its terms in a dict from keys to non-zero coefficients.  No
field ever carries into the next: every exponent is at most the total
degree, and the total degree is held to MAX_DEGREE = 2^16 - 1, so the
constructor rejects a larger one and a product or power that would exceed
it raises OverflowError.  A negative exponent is an ArityError.  So the
product of two monomials is the sum of their keys, the total degree is one
shift, and the order of keys is graded lexicographic order: two keys first
differ in the degree field when the degrees differ, and otherwise in the
field of the first exponent where the monomials differ, which is larger in
the larger key.  `sorted_terms` lists the terms by descending key, highest
monomial first, as exponent tuples, so every text form, and the JSON form
`cli.to_jsonable` writes, is bit-stable; `items` gives the exponent tuples
in dict order.
"""

from __future__ import annotations

import functools
import itertools
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cyclotomic import Cyclotomic
from .errors import ArityError, RingMismatchError

Exps = Tuple[int, ...]
Terms = Dict[int, object]  # monomial key -> non-zero coefficient

# the kinds of a coefficient, and the scalars a polynomial combines with as a
# constant: a Cyclotomic one is a RingMismatchError, not a TypeError
_COEFFICIENTS = (int, Fraction, float, complex)
_SCALARS = _COEFFICIENTS + (Cyclotomic,)


def _coefficient(c):
    if not isinstance(c, _COEFFICIENTS):
        raise RingMismatchError(f"{c!r} is not an int, Fraction, float or complex coefficient")
    return c


@dataclass(frozen=True)
class PolyRing:
    variables: Tuple[str, ...]

    @property
    def nvars(self) -> int:
        return len(self.variables)


# -- monomial keys ------------------------------------------------------------------

FIELD_BITS = 16  # `_unpacker` reads the fields as 16-bit words
MAX_DEGREE = (1 << FIELD_BITS) - 1


def _key(exps: Sequence[int]) -> int:
    """The key of an exponent tuple of non-negative ints of total degree at
    most MAX_DEGREE: its total degree, then each exponent, in FIELD_BITS-bit
    fields from the top."""
    key = sum(exps)
    for e in exps:
        key = key << FIELD_BITS | e
    return key


def _pack(exps: Sequence[int]) -> int:
    """`_key` of any exponent sequence: a negative exponent is an ArityError,
    a total degree above MAX_DEGREE an OverflowError."""
    exps = [operator.index(e) for e in exps]
    if any(e < 0 for e in exps):
        raise ArityError(f"monomial {tuple(exps)} has a negative exponent")
    if sum(exps) > MAX_DEGREE:
        raise OverflowError(f"monomial {tuple(exps)} has total degree above {MAX_DEGREE}")
    return _key(exps)


@functools.cache
def _unpacker(nvars: int):
    """key -> exponent tuple over `nvars` variables: one C-level split of the
    key's big-endian bytes into its 16-bit fields, the degree's two bytes
    skipped."""
    split = struct.Struct(f">2x{nvars}H").unpack
    size = 2 * (nvars + 1)

    def unpack(key: int) -> Exps:
        return split(key.to_bytes(size, "big"))

    return unpack


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise OverflowError(f"total degree {degree} is above {MAX_DEGREE}")


def monomials_of_degree(nvars: int, degree: int) -> List[Exps]:
    """All exponent tuples of the given total degree, graded-lex order."""
    _check_degree(degree)
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    out.sort(key=_key, reverse=True)
    return out


def _mul_terms(f: Terms, g: Terms) -> Terms:
    """The terms of f * g: each term of f times each of g, in that order,
    summed into the product as they come, a sum that cancels to zero
    deleted.  A key sum is the monomial product, since no field overflows
    (the callers check the degree).  f must not be empty."""
    items = iter(f.items())
    e1, c1 = next(items)
    # the products with f's first term have distinct keys: none is summed
    terms = {}
    for e2, c2 in g.items():
        c = c1 * c2
        if c:
            terms[e1 + e2] = c
    get = terms.get
    for e1, c1 in items:
        for e2, c2 in g.items():
            e = e1 + e2
            c = c1 * c2
            cur = get(e)
            new = c if cur is None else cur + c
            if new:
                terms[e] = new
            elif cur is not None:
                del terms[e]
    return terms


def _add_into(acc: Terms, g: Terms, negate: bool = False) -> None:
    """acc += g, or acc += -g, term by term in g's order; a sum that cancels
    to zero is deleted."""
    get = acc.get
    for e, c in g.items():
        if negate:
            c = -c
        cur = get(e)
        new = c if cur is None else cur + c
        if new:
            acc[e] = new
        elif cur is not None:
            del acc[e]


class MultiPoly:
    """A polynomial over `ring`: `terms` maps each monomial key (see the
    module docstring) to its non-zero coefficient.  The constructor takes
    exponent tuples; `items` and `sorted_terms` give them back."""

    __slots__ = ("ring", "terms", "_plan")

    def __init__(self, ring: PolyRing, terms: Dict[Exps, object], _clean: bool = False):
        """`terms` maps exponent tuples to coefficients; with `_clean`, it is
        already a dict of keys to non-zero coefficients, and is kept as it
        is."""
        self.ring = ring
        if _clean:
            self.terms = terms
        else:
            cleaned = {}
            n = ring.nvars
            for exps, c in terms.items():
                if len(exps) != n:
                    raise ArityError(f"monomial {exps} has wrong arity for {ring.variables}")
                key = _pack(exps)
                if _coefficient(c):
                    cleaned[key] = c
            self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: PolyRing) -> "MultiPoly":
        return cls(ring, {}, _clean=True)

    @classmethod
    def const(cls, ring: PolyRing, c) -> "MultiPoly":
        if not _coefficient(c):
            return cls.zero(ring)
        return cls(ring, {0: c}, _clean=True)

    @classmethod
    def var(cls, ring: PolyRing, index: int, power: int = 1) -> "MultiPoly":
        if not 0 <= index < ring.nvars:
            raise ArityError(f"no variable {index} in {ring.variables}")
        exps = tuple(power if i == index else 0 for i in range(ring.nvars))
        return cls(ring, {_pack(exps): 1}, _clean=True)

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
        return max(self.terms) >> FIELD_BITS * self.ring.nvars

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        shift = FIELD_BITS * (self.ring.nvars - 1 - var)
        return max(e >> shift & MAX_DEGREE for e in self.terms)

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
        _add_into(terms, other.terms)
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
            if not _coefficient(other):
                return MultiPoly.zero(self.ring)
            return MultiPoly(self.ring, {e: v * other for e, v in self.terms.items()}, _clean=True)
        else:
            return NotImplemented
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.ring)
        _check_degree(self.total_degree() + other.total_degree())
        return MultiPoly(self.ring, _mul_terms(self.terms, other.terms), _clean=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        _check_degree(self.total_degree() * n)
        result = MultiPoly.const(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == MultiPoly.const(self.ring, other).terms
        return NotImplemented

    def __hash__(self):
        """A constant hashes as its coefficient (and 0 as 0), as it compares
        equal to it."""
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and 0 in terms:
            return hash(terms[0])
        return hash((self.ring, tuple(sorted(terms.items()))))

    # -- calculus / evaluation ------------------------------------------------

    def partial(self, var: int) -> "MultiPoly":
        if not 0 <= var < self.ring.nvars:
            raise ArityError(f"no variable {var}")
        shift = FIELD_BITS * (self.ring.nvars - 1 - var)
        # one less in the field of var and in the degree field
        step = (1 << shift) + (1 << FIELD_BITS * self.ring.nvars)
        terms: Terms = {}
        for e, c in self.terms.items():
            k = e >> shift & MAX_DEGREE
            if k == 0:
                continue
            e2 = e - step
            nc = c * k
            cur = terms.get(e2)
            terms[e2] = nc if cur is None else cur + nc
        return MultiPoly(self.ring, {e: c for e, c in terms.items() if c}, _clean=True)

    def eval(self, point: Sequence):
        """Evaluate at a point; scalar kind follows the point entries, and
        every kind of point gets the same arithmetic: each stored
        coefficient times its powers (see `_eval_all`).  The plan of
        `_eval_all` is built on the first call and kept in the `_plan` slot,
        which stays unset until then, so later calls only multiply and add
        (and the terms must not be changed after it)."""
        try:
            plan = self._plan
        except AttributeError:
            plan = self._plan = _eval_plan([self])
        return _eval_all(self.ring, plan, point)[0]

    # -- views ------------------------------------------------------------------

    def items(self) -> List[Tuple[Exps, object]]:
        """(exponent tuple, coefficient) of each term, in dict order."""
        unpack = _unpacker(self.ring.nvars)
        return [(unpack(e), c) for e, c in self.terms.items()]

    def sorted_terms(self) -> List[Tuple[Exps, object]]:
        """(exponent tuple, coefficient) of each term, graded lexicographic,
        highest first: by descending key (keys are distinct, so no two
        coefficients are compared)."""
        unpack = _unpacker(self.ring.nvars)
        return [(unpack(e), c) for e, c in sorted(self.terms.items(), reverse=True)]

    def leading_term(self) -> Tuple[Exps, object]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return _unpacker(self.ring.nvars)(e), self.terms[e]

    def coeffs_in_var(self, var: int) -> List["MultiPoly"]:
        """Coefficients [c_0, ..., c_d] of self as a polynomial in var."""
        d = self.degree_in(var)
        if d < 0:
            return [MultiPoly.zero(self.ring)]
        shift = FIELD_BITS * (self.ring.nvars - 1 - var)
        dshift = FIELD_BITS * self.ring.nvars
        buckets: List[Terms] = [{} for _ in range(d + 1)]
        for e, c in self.terms.items():
            k = e >> shift & MAX_DEGREE
            buckets[k][e - (k << shift) - (k << dshift)] = c
        return [MultiPoly(self.ring, b, _clean=True) for b in buckets]

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
    """What `_eval_all` needs of `polys`, each key unpacked once: the largest
    exponent of each variable among them, and each polynomial's terms as
    (coefficient, factors) in dict order.  The factors of a term are the
    places of its non-zero powers point[i]^k, in variable order, in the
    table of powers that lists 1, point[i], ..., point[i]^maxdeg[i] for each
    i in turn."""
    unpack = _unpacker(polys[0].ring.nvars)
    exps = [[(unpack(e), c) for e, c in f.terms.items()] for f in polys]
    maxdeg = [max(col) for col in zip(*(e for items in exps for e, _c in items))]
    start = list(itertools.accumulate([k + 1 for k in maxdeg[:-1]], initial=0))
    terms = [[(c, tuple(start[i] + k for i, k in enumerate(e) if k)) for e, c in items]
             for items in exps]
    return maxdeg, terms


def _eval_all(ring: PolyRing, plan: tuple, point: Sequence) -> list:
    """Each polynomial of an `_eval_plan` at a point, from one table of the
    powers point[i]^k up to the largest exponent of variable i among them.
    Each power is the one below it times point[i], so it does not depend on
    how far its row goes; each term is its stored coefficient times its
    powers in variable order, at every kind of point, and the terms are
    summed in dict order.  So each polynomial gets the same value whatever
    it is evaluated together with, and whether or not its plan was built
    before.  At float points that order is the kernel's, not a contract of
    output, which prints floats at 12 significant digits
    (`linalg.printed`)."""
    if len(point) != ring.nvars:
        raise ArityError(f"point has {len(point)} coordinates, ring has {ring.nvars}")
    maxdeg, plans = plan
    powers = []
    for x, top in zip(point, maxdeg):
        power = 1
        powers.append(power)
        for _ in range(top):
            power = power * x
            powers.append(power)
    values = []
    for terms in plans:
        acc = None
        for term, factors in terms:
            for j in factors:
                term = term * powers[j]
            acc = term if acc is None else acc + term
        if acc is None:
            acc = 0 * point[0] if point else 0
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
    if any(isinstance(c, (float, complex)) for h in (f, g) for c in h.terms.values()):
        raise RingMismatchError("exact division needs int or Fraction coefficients")
    q_terms: Dict[Exps, object] = {}
    rem = f
    ge, gc = g.leading_term()
    while rem.terms:
        fe, fc = rem.leading_term()
        diff = tuple(a - b for a, b in zip(fe, ge))
        if any(d < 0 for d in diff):
            return None
        coeff = Fraction(fc) / gc
        q_terms[diff] = coeff
        rem = rem - MultiPoly.monomial(f.ring, diff, coeff) * g
    q = MultiPoly(f.ring, q_terms)
    if (q * g - f).terms:
        raise ArithmeticError("exact division verification failed")
    return q


# -- polynomial matrices -----------------------------------------------------------


class PolyMatrix:
    __slots__ = ("rows", "cols", "entries", "ring", "_plan", "_linear")

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
        self._plan = self._linear = None

    def at(self, i: int, j: int) -> MultiPoly:
        return self.entries[i * self.cols + j]

    def eval(self, point: Sequence) -> List[list]:
        """The entries at a point, from one power table for all of them;
        each entry gets the value of `MultiPoly.eval`, and `eval_stack` the
        same up to rounding.  The evaluation plan of the entries is built on
        the first call and kept, so later calls only multiply and add (and
        the entries must not be replaced after it)."""
        if self._plan is None:
            self._plan = _eval_plan(self.entries)
        values = _eval_all(self.ring, self._plan, point)
        cols = self.cols
        return [values[i:i + cols] for i in range(0, len(values), cols)]

    def eval_stack(self, points) -> np.ndarray:
        """`eval` at each of N complex points as one (N, rows, cols) array,
        for a matrix whose entries are each c u_k or zero: one complex
        multiply, c * u_k, with a zero entry as 0 * u_0.  numpy may fuse a
        multiply and an add, so an entry can differ from `eval`'s in its
        last bits; as in Python, overflow is silent.  The (c, k) layout is
        read off each entry's one packed term on the first call and kept."""
        nvars = self.ring.nvars
        if self._linear is None:
            linear = {_key([int(i == k) for i in range(nvars)]): k for k in range(nvars)}
            cols, coef = [], []
            for entry in self.entries:
                terms = entry.terms
                if not terms:  # 0 * u_0
                    cols.append(0)
                    coef.append(0j)
                elif len(terms) == 1 and next(iter(terms)) in linear:
                    ((key, c),) = terms.items()
                    cols.append(linear[key])
                    coef.append(complex(c))
                else:
                    raise ValueError("eval_stack needs entries c * u_k or zero")
            self._linear = cols, np.array(coef)
        cols, coef = self._linear
        x = np.asarray(points, dtype=complex)
        if x.size and x.shape[-1] != nvars:
            raise ArityError(f"points have {x.shape[-1]} coordinates, ring has {nvars}")
        with np.errstate(over="ignore", invalid="ignore"):
            out = coef * x.reshape(-1, nvars)[:, cols]
        return out.reshape(-1, self.rows, self.cols)


def minor_routine(m: PolyMatrix):
    """minor(rows, cols): the determinant of the submatrix of m on the given
    row and column index tuples, by Laplace expansion along its first row.

    The expansion runs on the entries' term dicts, and its results are
    memoised as term dicts on (rows, cols), so every minor taken through one
    routine shares its sub-minors.  The recursion goes through
    `_laplace_minor`, not through the routine itself, so the routine holds
    no reference to itself and its memo is freed as soon as the routine is.
    """
    ring, ncols = m.ring, m.cols
    entries = [f.terms for f in m.entries]
    # a minor's degree is at most the sum of its rows' largest entry degrees
    row_top = [max(0, *(f.total_degree() for f in m.entries[i:i + ncols]))
               for i in range(0, len(entries), ncols)]
    memo = {((), ()): {0: 1}}

    def minor(rows: Tuple[int, ...], cols: Tuple[int, ...]) -> MultiPoly:
        _check_degree(sum(row_top[i] for i in rows))
        return MultiPoly(ring, _laplace_minor(entries, ncols, memo, rows, cols), _clean=True)

    return minor


def _laplace_minor(entries: List[Terms], ncols: int, memo: dict, rows: Tuple[int, ...],
                   cols: Tuple[int, ...]) -> Terms:
    """The terms of the minor of `minor_routine` on the row-major entry terms
    `entries`, memoised in `memo`, which holds the empty minor 1.  Each
    signed cofactor product is formed in full and then added to the
    accumulated terms (or its negation is), as `MultiPoly` arithmetic
    would do it."""
    key = (rows, cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    acc: Terms = {}
    first, below = rows[0] * ncols, rows[1:]
    for idx, c in enumerate(cols):
        entry = entries[first + c]
        if not entry:
            continue
        sub = _laplace_minor(entries, ncols, memo, below, cols[:idx] + cols[idx + 1:])
        _add_into(acc, _mul_terms(entry, sub), idx % 2 == 1)
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

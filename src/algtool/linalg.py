"""Sparse exact row reduction and float rank decisions.

`RowSpace` is the one exact elimination: an incrementally built reduced
row-echelon space of sparse vectors over Q or Q(w).  The graded engine
builds one per eliminated degree and keeps only what it reads off it (the
normal words and the obstruction tails); a kernel, such as the quadratic
dual's R-perp, and membership in an ideal are read off its normal forms.

Vectors go in as numerators: dicts from columns to int values over Q, or
to Cyclotomic values over Q(w), with no zero value.  Neither `insert` nor
`reduce` copies or checks them.  A caller holding Fractions clears them
with `integral` first (a row's span does not change; a residue is read
over the denominator `integral` returns).  The graded engine clears each
relation once and builds every row as numerators.  Each call owns the
dict it is given and works on it in place: `insert` stores it as the new
row, and `reduce` returns it as the residue's numerators.

Storage follows the recipe of `Cyclotomic` (integer numerators over one
denominator; W. Hart, "ANTIC", 2015) with fraction-free elimination (E. H.
Bareiss, Math. Comp. 22, 1968).  A row with int entries is stored as a
primitive integer vector: content 1, positive pivot entry.  A row with Q(w)
entries is stored with pivot entry 1.  No stored row contains another row's
pivot column.  So each stored row is the reduced row-echelon row of its
pivot times a positive scalar fixed by the row's field, and the stored rows
of a space built from vectors of one field do not depend on the insertion
order.

Reducing a vector is a single ascending pass over the pivot columns in its
support, the only columns that take work: a stored row is zero at every
other pivot column, so subtracting it neither makes nor changes another
pivot entry of the residue.  At a pivot column where the residue has value
v and the row has pivot entry d, the residue is multiplied by d/g and (v/g)
times the row is subtracted, with g = gcd(v, d) over Z and g = 1 for a Q(w)
value.  One gcd at the end puts the residue in lowest terms.  The residue,
a `ScaledVec` of numerators over one positive denominator, is the canonical
normal form modulo the space, supported on non-pivot columns only.

Numeric matrices have two numpy routines, each taking a single matrix or a
stack of them: `rank_float` (an SVD count, one SVD call per stack) and
`minors_float` (every 3 x 3 minor by one closed-form cofactor expansion).
An error measure that a float check only compares with a tolerance is a
`Residual`.  Output prints every float by one rule, `printed`: a
`Residual` as its verdict value, any other float to 12 significant digits;
verdicts read the raw values.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

SparseVec = Dict[int, object]
#: The default relative singular-value cutoff of the float ranks.
RANK_TOL = 1e-8
#: A `Residual` below this is printed as 0.0.
RESIDUAL_FLOOR = 1e-12
#: The significant digits of every printed float that is not a `Residual`.
PRINTED_DIGITS = 12


class Residual(float):
    """An error measure that a check only compares with a tolerance, such as
    the largest minor on an orbit.  Comparisons read the raw value; the
    output reads `printed`: 0.0 below RESIDUAL_FLOOR, else the value to 3
    significant digits.  A residual of rounding noise moves in its last bits
    whenever a kernel sums in another order, and its printed value does
    not."""

    __slots__ = ()

    def printed(self) -> float:
        return 0.0 if self < RESIDUAL_FLOOR else float(f"{self:.3g}")


def printed(x: float) -> float:
    """The value output prints for the float x: a `Residual`'s `printed`
    value, else x rounded to PRINTED_DIGITS significant digits, with -0.0
    as 0.0 (inf and nan stay as they are).  A kernel that sums or
    multiplies in another order moves a value in its last bits, and its
    printed value only when it lies within those bits of a rounding
    boundary."""
    if type(x) is Residual:
        return x.printed()
    return float(f"{x:.{PRINTED_DIGITS}g}") + 0.0


def _content(values) -> Optional[int]:
    """gcd of the values over Z; None when one of them is a Cyclotomic, a
    field element, which divides every other value."""
    try:
        return gcd(*values)
    except TypeError:
        return None


def integral(vec: Dict[Hashable, object]) -> Tuple[Dict[Hashable, object], int]:
    """(nums, den) with vec = nums / den: Fraction values cleared to ints over
    their least common denominator, int and Cyclotomic values multiplied by
    it, zero values dropped."""
    nums = {c: v for c, v in vec.items() if v}
    if Fraction not in set(map(type, nums.values())):
        return nums, 1
    den = lcm(*[v.denominator for v in nums.values() if type(v) is Fraction])
    return {c: v.numerator * (den // v.denominator) if type(v) is Fraction else v * den
            for c, v in nums.items()}, den


class ScaledVec(Mapping):
    """The sparse vector nums / den: int (or Q(w)) numerators over one
    positive int denominator, with the common gcd of ints cancelled.  Read as
    a mapping it gives each value as a Fraction, or a Cyclotomic over Q(w).
    The numerators may be shared with a memo or a row space: do not mutate
    them."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: SparseVec, den: int = 1):
        if den != 1:
            g = _content([den, *nums.values()])
            if g is not None and g != 1:
                nums = {c: v // g for c, v in nums.items()}
                den //= g
        self.nums, self.den = nums, den

    def __getitem__(self, col: int):
        v = self.nums[col]
        if type(v) is int:
            return Fraction(v, self.den)
        return v if self.den == 1 else v * Fraction(1, self.den)

    def __iter__(self):
        return iter(self.nums)

    def __len__(self) -> int:
        return len(self.nums)


class _PivotOneRows(Mapping):
    """Read-only view of a space's stored rows: pivot column -> row scaled to
    pivot value 1."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Dict[int, SparseVec]):
        self._rows = rows

    def __getitem__(self, pivot: int) -> ScaledVec:
        row = self._rows[pivot]
        return ScaledVec(row, row[pivot])

    def __contains__(self, pivot) -> bool:
        return pivot in self._rows

    def keys(self):
        """The pivot columns, as the stored rows' own keys view."""
        return self._rows.keys()

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def _make_primitive(row: SparseVec, pivot: int) -> None:
    """Scale a nonzero row in place to its stored form: over Z content 1 and a
    positive pivot entry, over Q(w) pivot entry 1.  A Q(w) row whose pivot
    entry equals 1 already keeps its other entries."""
    lead = row[pivot]
    g = _content(row.values())
    if g is None:
        if lead != 1:
            inv = lead.inverse()
            for c, v in row.items():
                row[c] = v * inv
        row[pivot] = 1
        return
    if lead < 0:
        g = -g
    if g != 1:
        for c, v in row.items():
            row[c] = v // g


def _cofactors(v, d: int) -> Tuple[object, int]:
    """(v/g, d/g) with g = gcd(v, d) over Z and g = 1 for a field value v:
    then (d/g) * v == (v/g) * d."""
    if type(v) is int:
        g = gcd(v, d)
        return v // g, d // g
    return v, d


class RowSpace:
    """A sparse reduced row-echelon space, grown by `insert`."""

    def __init__(self):
        self._rows: Dict[int, SparseVec] = {}  # pivot col -> stored row
        self._col_index: Dict[int, set] = {}  # col -> pivot cols of rows using it

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Mapping:
        """pivot column -> reduced row-echelon row (pivot value 1), read-only."""
        return _PivotOneRows(self._rows)

    def _eliminate(self, residue: SparseVec) -> int:
        """Clear every pivot column from the numerators in place, fraction-free;
        returns the factor the residue was multiplied by on the way."""
        rows = self._rows
        scale = 1
        # Only the residue's pivot columns take work, and they are known up
        # front: a stored row is zero at every other pivot column (reduced
        # echelon form), so subtracting it never makes or changes another
        # pivot entry of the residue.
        for c in sorted(residue.keys() & rows.keys()):
            v = residue.pop(c)
            row = rows[c]
            d = row[c]
            if d != 1:
                v, d = _cofactors(v, d)
                if d != 1:
                    scale *= d
                    for col in residue:
                        residue[col] *= d
            for col, w in row.items():
                if col == c:
                    continue
                cur = residue.get(col)
                new = -v * w if cur is None else cur - v * w
                if new:
                    residue[col] = new
                elif cur is not None:
                    del residue[col]
        return scale

    def reduce(self, vec: SparseVec) -> ScaledVec:
        """Canonical residue of vec modulo the row space.  vec holds integral
        numerators with no zero value (module docstring); it is reduced in
        place and becomes the residue's numerators."""
        return ScaledVec(vec, self._eliminate(vec))

    def insert(self, row: SparseVec) -> bool:
        """Add row to the space; returns True when the rank grew.  row holds
        integral numerators with no zero value (module docstring); it is
        reduced in place and, when the rank grows, stored as it is."""
        self._eliminate(row)
        if not row:
            return False
        pivot = min(row)
        _make_primitive(row, pivot)
        lead = row[pivot]
        # restore the reduced row-echelon form in older rows, fraction-free
        for rc in list(self._col_index.get(pivot, ())):
            other = self._rows[rc]
            f = other.pop(pivot)
            self._col_index[pivot].discard(rc)
            d = lead
            if d != 1:
                f, d = _cofactors(f, d)
                if d != 1:
                    for col in other:
                        other[col] *= d
            for col, w in row.items():
                if col == pivot:
                    continue
                cur = other.get(col)
                new = -f * w if cur is None else cur - f * w
                if new:
                    if cur is None:
                        self._col_index.setdefault(col, set()).add(rc)
                    other[col] = new
                elif cur is not None:
                    del other[col]
                    self._col_index[col].discard(rc)
            _make_primitive(other, rc)
        self._rows[pivot] = row
        for col in row:
            if col != pivot:
                self._col_index.setdefault(col, set()).add(pivot)
        return True


def rank_float(matrix, tol: float = RANK_TOL, scale: Optional[float] = None):
    """Count of singular values above tol relative to the largest one.

    An all-noise matrix has no meaningful relative scale; passing `scale`
    floors the threshold at tol * scale (used when the inputs are normalized
    so that genuine nonzero data is O(scale)).  An all-zero or empty matrix
    has rank 0.

    Leading axes of `matrix` are batch axes, as in `minors_float`: a stack
    of matrices is ranked by one SVD call, each by its own threshold, and
    the ranks come back as an int array of the batch shape.  A single
    matrix gives an int."""
    a = np.atleast_2d(np.asarray(matrix, dtype=complex))
    if a.size == 0:
        ranks = np.zeros(a.shape[:-2], dtype=int)
    else:
        sv = np.linalg.svd(a, compute_uv=False)
        top = sv[..., :1]
        if scale is not None:
            top = np.maximum(top, scale)
        # with top == 0 every singular value is 0 and none is counted
        ranks = np.count_nonzero(sv > tol * top, axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


@cache
def _minor_indices(nrows: int, ncols: int) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays (ri, ci) of shapes (3, 1, M) and (1, 3, M) with
    m[..., ri, ci][..., i, j, s] entry (i, j) of the s-th 3 x 3 submatrix of
    an nrows x ncols matrix m, in `minors_float` order; built once per shape,
    and read-only, since every caller shares them."""
    subsets = [(r, c) for r in combinations(range(nrows), 3)
               for c in combinations(range(ncols), 3)]
    ri = np.array([r for r, _c in subsets], dtype=np.intp).reshape(-1, 3).T[:, None, :]
    ci = np.array([c for _r, c in subsets], dtype=np.intp).reshape(-1, 3).T[None, :, :]
    ri.setflags(write=False)
    ci.setflags(write=False)
    return ri, ci


def minors_float(matrix) -> np.ndarray:
    """Every 3 x 3 minor of a numeric matrix, in `poly.mat_minors` order (row
    triples, then column triples, lexicographic), by the cofactor expansion
    along the first row, on the stack of all submatrices gathered at once.
    Leading axes of `matrix` are batch axes: the minors run along the last."""
    a = np.asarray(matrix, dtype=complex)
    ri, ci = _minor_indices(a.shape[-2], a.shape[-1])
    m = a[..., ri, ci]
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = ([m[..., i, j, :] for j in range(3)]
                                                for i in range(3))
    return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)

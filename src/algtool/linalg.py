"""Sparse and dense exact row reduction and float rank decisions.

`RowSpace` is the workhorse behind every degreewise computation: an
incrementally built reduced row-echelon space of sparse vectors over Q or
Q(w).  Vectors go in as maps from columns to int, Fraction or Cyclotomic
values.

Storage follows the recipe of `Cyclotomic` (integer numerators over one
denominator; W. Hart, "ANTIC", 2015) with fraction-free elimination (E. H.
Bareiss, Math. Comp. 22, 1968).  A row with rational entries is stored as a
primitive integer vector: content 1, positive pivot entry.  A row with Q(w)
entries is stored with pivot entry 1.  No stored row contains another row's
pivot column.  So each stored row is the reduced row-echelon row of its
pivot times a positive scalar fixed by the row's field, and the stored rows
of a space built from vectors of one field do not depend on the insertion
order.

Reducing a vector is a single ascending pass over its support.  At a pivot
column where the residue has value v and the row has pivot entry d, the
residue is multiplied by d/g and (v/g) times the row is subtracted, with
g = gcd(v, d) over Z and g = 1 for a Q(w) value.  One gcd at the end puts
the residue in lowest terms.  The residue, a `ScaledVec` of numerators over
one positive denominator, is the canonical normal form modulo the space,
supported on non-pivot columns only.

Dense exact matrices go through one Gauss-Jordan routine, `_gauss_jordan`:
`nullspace_exact` and the exact S15 membership test in `shioda5` call it.

Numeric matrices have two numpy routines: `rank_float` (an SVD count) and
`minors_float` (every k x k minor by one batched determinant).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

SparseVec = Dict[int, object]


def _content(values) -> Optional[int]:
    """gcd of the values over Z; None when one of them is a field element (a
    Cyclotomic or a Fraction), which divides every other value."""
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

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def _make_primitive(row: SparseVec, pivot: int) -> None:
    """Scale a nonzero row in place to its stored form: over Z content 1 and a
    positive pivot entry, with a Q(w) (or Fraction) entry pivot entry 1."""
    lead = row[pivot]
    g = _content(row.values())
    if g is None:
        inv = Fraction(1) / lead
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
        for c in sorted(residue):
            v = residue.get(c)
            if v is None:
                continue
            row = rows.get(c)
            if row is None:
                continue
            d = row[c]
            if d != 1:
                v, d = _cofactors(v, d)
                if d != 1:
                    scale *= d
                    for col in residue:
                        residue[col] *= d
            del residue[c]
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
        """Canonical residue of vec modulo the row space."""
        residue, den = integral(vec)
        return ScaledVec(residue, den * self._eliminate(residue))

    def contains(self, vec: SparseVec) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: SparseVec) -> bool:
        """Add vec to the space; returns True when the rank grew."""
        row, _den = integral(vec)
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

    def same_space(self, other: "RowSpace") -> bool:
        """Equal spaces over one field have equal stored rows; the pivot-1
        views decide between spaces whose rows are stored over different
        fields."""
        return self._rows == other._rows or self.rows == other.rows


def _gauss_jordan(rows: Sequence[Sequence]) -> Tuple[List[list], List[int]]:
    """Dense exact Gauss-Jordan elimination of a copy of `rows`.

    Each column in turn takes as pivot the first row at or below the current
    one with a nonzero entry.  Returns the reduced rows and the pivot
    columns: row k has pivot 1 in column pivots[k], rows from len(pivots) on
    are zero.
    """
    a = [list(r) for r in rows]
    m = len(a)
    pivots: List[int] = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def nullspace_exact(rows: Sequence[Sequence]) -> List[list]:
    """Basis of the right nullspace of a dense exact matrix.

    Returns one vector per free column (RREF convention: free coordinate 1,
    pivot coordinates filled by back-substitution), in ascending free-column
    order.
    """
    if not rows:
        return []
    n = len(rows[0])
    a, pivots = _gauss_jordan(rows)
    zero = 0 * rows[0][0]
    one = zero + 1
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [zero] * n
        vec[fc] = one
        for row, col in enumerate(pivots):
            vec[col] = -a[row][fc]
        basis.append(vec)
    return basis


def rank_float(matrix, tol: float = 1e-8, scale: Optional[float] = None) -> int:
    """Count of singular values above tol relative to the largest one.

    An all-noise matrix has no meaningful relative scale; passing `scale`
    floors the threshold at tol * scale (used when the inputs are normalized
    so that genuine nonzero data is O(scale))."""
    a = np.atleast_2d(np.asarray(matrix, dtype=complex))
    if a.size == 0:
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    top = sv[0] if len(sv) else 0.0
    if scale is not None:
        top = max(top, scale)
    if top == 0.0:
        return 0
    return int(np.sum(sv > tol * top))


def minors_float(matrix, k: int) -> np.ndarray:
    """Every k x k minor of a numeric matrix, in `poly.mat_minors` order (row
    subsets, then column subsets, lexicographic), by one batched determinant.
    Leading axes of `matrix` are batch axes: the minors run along the last."""
    a = np.asarray(matrix, dtype=complex)
    rows = list(combinations(range(a.shape[-2]), k))
    cols = list(combinations(range(a.shape[-1]), k))
    ri = np.array([r for r in rows for _c in cols])[:, :, None]
    ci = np.array([c for _r in rows for c in cols])[:, None, :]
    return np.linalg.det(a[..., ri, ci])

"""Sparse and dense exact row reduction and float rank decisions.

`RowSpace` is the workhorse behind every degreewise ideal computation: an
incrementally built reduced row-echelon space of sparse vectors over an
exact field (Fraction or Cyclotomic coercible values, anything supporting
+, -, *, / and truthiness-as-nonzero).

Invariant maintained throughout: every stored row is normalized to pivot
coefficient 1 and contains no other pivot column.  Reducing a vector is then
a single ascending pass over its support, and the residue is the canonical
normal form modulo the row space (supported on non-pivot columns only).

Dense exact matrices go through one Gauss-Jordan routine, `_gauss_jordan`:
`nullspace_exact` and the exact S15 membership test in `shioda5` call it.

Numeric matrices have two numpy routines: `rank_float` (an SVD count) and
`minors_float` (every k x k minor by one batched determinant).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

SparseVec = Dict[int, object]


class RowSpace:
    def __init__(self):
        self.rows: Dict[int, SparseVec] = {}  # pivot col -> row
        self._col_index: Dict[int, set] = {}  # col -> pivot cols of rows using it

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: SparseVec) -> SparseVec:
        """Canonical residue of vec modulo the row space."""
        residue = {c: v for c, v in vec.items() if v}
        for c in sorted(residue):
            v = residue.get(c)
            if not v:
                continue
            row = self.rows.get(c)
            if row is None:
                continue
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
        return residue

    def contains(self, vec: SparseVec) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: SparseVec) -> bool:
        """Add vec to the space; returns True when the rank grew."""
        residue = self.reduce(vec)
        if not residue:
            return False
        pivot = min(residue)
        inv = 1 / residue[pivot]
        row = {c: v * inv for c, v in residue.items()}
        # restore the RREF invariant in older rows
        for rc in list(self._col_index.get(pivot, ())):
            other = self.rows[rc]
            factor = other.pop(pivot)
            self._col_index[pivot].discard(rc)
            for col, w in row.items():
                if col == pivot:
                    continue
                cur = other.get(col)
                new = -factor * w if cur is None else cur - factor * w
                if new:
                    if cur is None:
                        self._col_index.setdefault(col, set()).add(rc)
                    other[col] = new
                elif cur is not None:
                    del other[col]
                    self._col_index[col].discard(rc)
        self.rows[pivot] = row
        for col in row:
            if col != pivot:
                self._col_index.setdefault(col, set()).add(pivot)
        return True

    def same_space(self, other: "RowSpace") -> bool:
        if self.rank != other.rank or sorted(self.rows) != sorted(other.rows):
            return False
        for c, row in self.rows.items():
            orow = other.rows[c]
            if len(row) != len(orow):
                return False
            for col, v in row.items():
                w = orow.get(col)
                if w is None or v != w:
                    return False
        return True


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

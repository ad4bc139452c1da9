"""Test-only reference: exact S15 membership as `shioda5` decided it before
it summed the minors in phase buckets, by the rank of the evaluated 3x5
matrix in a Q(w_5) `RowSpace`.  The rank is below 3 exactly when all ten
3x3 minors vanish at the point.  And the 2-torsion residuals with one
`PolyMatrix.eval` per point."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from algtool.clifford import Draw
from algtool.cyclotomic import Cyclotomic
from algtool.linalg import RowSpace, integral, minors_float
from algtool.shioda5 import s15_matrix


def rank_below_3(point: Sequence[Cyclotomic]) -> bool:
    """Whether the S15 matrix at the point has rank <= 2."""
    space = RowSpace()
    for row in s15_matrix().eval(list(point)):
        space.insert(integral(dict(enumerate(row)))[0])
    return space.rank < 3


def two_torsion_per_point(samples: int, seed: int) -> Tuple[float, float]:
    """(worst, control) residuals of `shioda5.two_torsion_check`, with the
    S15 matrix of each point taken by `PolyMatrix.eval` on its own, as the
    check did before it built them as one stack of products."""
    draw = Draw(seed)
    matrix = s15_matrix()
    directions = np.exp(2j * np.pi * np.arange(5) / 5)

    def residual(x0s, x1, x2) -> float:
        mats = []
        for x0 in x0s:
            point = np.array([x0, x1, x2, x2, x1], dtype=complex)
            mats.append(matrix.eval(list(point / np.abs(point).max())))
        return float(np.abs(minors_float(mats)).max())

    worst, control = 0.0, float("inf")
    for _ in range(samples):
        x1, x2 = draw.uniform(2)
        if abs(x1 * x2) < 1e-3:
            x1, x2 = x1 + 1.0, x2 - 1.0
        roots = np.roots([x1 * x2, 0.0, -(x1 ** 2) * x2 ** 2, -(x1 ** 5 + x2 ** 5),
                          2 * x1 ** 3 * x2 ** 3])
        worst = max(worst, residual(roots, x1, x2))
        root = min(roots, key=abs)
        control = min(control, residual(root + max(abs(x1), abs(x2)) * directions, x1, x2))
    return worst, control

"""Test-only reference: exact S15 membership as `shioda5` decided it before
it summed the minors in phase buckets, by the rank of the evaluated 3x5
matrix in a Q(w_5) `RowSpace`.  The rank is below 3 exactly when all ten
3x3 minors vanish at the point."""

from __future__ import annotations

from typing import Sequence

from algtool.cyclotomic import Cyclotomic
from algtool.linalg import RowSpace
from algtool.shioda5 import s15_matrix


def rank_below_3(point: Sequence[Cyclotomic]) -> bool:
    """Whether the S15 matrix at the point has rank <= 2."""
    space = RowSpace()
    for row in s15_matrix().eval(list(point)):
        space.insert(dict(enumerate(row)))
    return space.rank < 3

"""Test-only reference: float ranks and the point-module check one matrix at
a time, as `linalg.rank_float` and `sklyanin2.point_module_check` computed
them before they took a stack of matrices in one call."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from algtool.clifford import clifford_form
from algtool.linalg import minors_float
from algtool.sklyanin2 import orbit_points, t_param


def rank_one(matrix, tol: float = 1e-8, scale: Optional[float] = None) -> int:
    """Singular values of one matrix above tol times its largest one, or
    above tol * scale when that is larger."""
    a = np.atleast_2d(np.asarray(matrix, dtype=complex))
    if a.size == 0:
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    top = sv[0]
    if scale is not None:
        top = max(top, scale)
    if top == 0.0:
        return 0
    return int(np.sum(sv > tol * top))


def point_module_one_by_one(point, rank_tol: float = 1e-8) -> Tuple[float, List[int]]:
    """(largest |3x3 minor|, ranks) of Q(a, b) over the orbit of the base point
    of E', each orbit point scaled to largest modulus 1 and its matrix
    handled on its own."""
    a, b = point
    form = clifford_form(5, (1, complex(a), complex(b)))
    worst, ranks = 0.0, []
    for pt in orbit_points(complex(t_param(a, b))):
        scale = max(abs(v) for v in pt)
        q = form.eval([v / scale for v in pt])
        worst = max(worst, float(np.abs(minors_float(q, 3)).max()))
        ranks.append(rank_one(q, rank_tol))
    return worst, ranks

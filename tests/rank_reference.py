"""Test-only reference: float ranks, 3 x 3 minors and the point-module check
one matrix at a time, as `linalg.rank_float`, `linalg.minors_float` and
`sklyanin2.point_module_check` computed them before they took a stack of
matrices in one call, and before the minors were cofactor expansions: each
minor is `np.linalg.det` of its submatrix (an LU factorization)."""

from __future__ import annotations

import cmath
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from algtool.clifford import clifford_form
from algtool.sklyanin2 import t_param


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


def minors_det(matrix) -> np.ndarray:
    """Every 3 x 3 minor of a matrix or a stack of them, in `mat_minors`
    order, as `np.linalg.det` of each submatrix."""
    a = np.asarray(matrix, dtype=complex)
    rows = list(combinations(range(a.shape[-2]), 3))
    cols = list(combinations(range(a.shape[-1]), 3))
    ri = np.array([r for r in rows for _c in cols], dtype=np.intp).reshape(-1, 3)[:, :, None]
    ci = np.array([c for _r in rows for c in cols], dtype=np.intp).reshape(-1, 3)[:, None, :]
    return np.linalg.det(a[..., ri, ci])


def orbit_images(t: complex) -> list:
    """The 25 images e1^a e2^b . (0 : 1 : t : -t : -1) in the order of
    `heisenberg.heisenberg_orbit_points`, coordinate c times
    exp(2 pi i (b c mod 5) / 5) moved to c - a, each divided by its first
    coordinate above 1e-9: the E' orbit as `sklyanin2` built it, one
    Python complex at a time, before it took one numpy array."""
    point = (0j, 1 + 0j, complex(t), -complex(t), -1 + 0j)
    images = []
    for a in range(5):
        for b in range(5):
            vec = [None] * 5
            for c in range(5):
                vec[(c - a) % 5] = cmath.exp(2j * cmath.pi * (b * c % 5) / 5) * point[c]
            lead = next(v for v in vec if abs(v) > 1e-9)
            images.append(tuple(v / lead for v in vec))
    return images


def point_module_one_by_one(point, rank_tol: float = 1e-8) -> Tuple[float, List[int]]:
    """(largest |3x3 minor|, ranks) of Q(a, b) over the orbit of the base point
    of E', each orbit point scaled to largest modulus 1 and its matrix
    handled on its own."""
    a, b = point
    form = clifford_form(5, (1, complex(a), complex(b)))
    worst, ranks = 0.0, []
    for pt in orbit_images(complex(t_param(a, b))):
        scale = max(abs(v) for v in pt)
        q = form.eval([v / scale for v in pt])
        worst = max(worst, float(np.abs(minors_det(q)).max()))
        ranks.append(rank_one(q, rank_tol))
    return worst, ranks

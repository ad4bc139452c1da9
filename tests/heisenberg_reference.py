"""Test-only reference: the matrix of a Heisenberg element on V_index, and
its eigenlines as exact nullspaces over Q(w), as `heisenberg` computed them
before it read the lines off their recurrence; and the dense exact kernel
they use, as `koszul` computed R-perp before it read it off NF_2."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from algtool.cyclotomic import Cyclotomic
from algtool.heisenberg import HeisenbergElement, SimpleRep
from algtool.linalg import RowSpace, integral


def nullspace_exact(rows: Sequence[Sequence]) -> List[list]:
    """Basis of the right nullspace of a dense exact matrix, from the `RowSpace`
    of its rows.

    Returns one vector per free column (RREF convention: free coordinate 1,
    pivot coordinates read off the pivot-1 rows), in ascending free-column
    order.  Fraction and Cyclotomic entries give values of the same type.
    """
    if not rows:
        return []
    n = len(rows[0])
    space = RowSpace()
    for row in rows:
        space.insert(integral(dict(enumerate(row)))[0])
    pivots = space.rows
    zero = 0 * rows[0][0]
    one = zero + 1
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [zero] * n
        vec[fc] = one
        for col, row in pivots.items():
            vec[col] = -row.get(fc, zero)
        basis.append(vec)
    return basis


def rep_matrix(rep: SimpleRep, g: HeisenbergElement) -> List[List[Cyclotomic]]:
    """The monomial matrix of g on V_index: column c maps to row (c - a)."""
    p = rep.p
    zero = Cyclotomic(p)
    mat = [[zero] * p for _ in range(p)]
    for c in range(p):
        mat[(c - g.a) % p][c] = Cyclotomic.zeta(p, rep.index * (g.k + g.b * c))
    return mat


def normalize_projective(vec: Sequence[Cyclotomic]) -> Tuple[Cyclotomic, ...]:
    """Scale so the first nonzero coordinate is 1."""
    inv = next(v for v in vec if v).inverse()
    return tuple(v * inv for v in vec)


def nullspace_eigenlines(rep: SimpleRep, g: HeisenbergElement) -> List[Tuple[Cyclotomic, ...]]:
    """The kernel of rep_matrix(rep, g) - w^m for m = 0 .. p-1, each a single
    line for a non-central g, normalized."""
    p = rep.p
    mat = rep_matrix(rep, g)
    lines = []
    for m in range(p):
        lam = Cyclotomic.zeta(p, m)
        shifted = [[mat[r][c] - (lam if r == c else 0) for c in range(p)] for r in range(p)]
        kernel = nullspace_exact(shifted)
        assert len(kernel) == 1, (g, m)
        lines.append(normalize_projective(kernel[0]))
    return lines

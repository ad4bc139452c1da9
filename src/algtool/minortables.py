"""Integer coefficient tables for the degree-piece and secant checks of
`sklyanin2`.

Every entry of Q(a, b) = clifford_form(5, (1, a, b)) is 2 u_k, a u_k or
b u_k, so each of its minors, det Q included, is a polynomial in u_0..u_4
whose coefficients are integer polynomials in (a, b); likewise the products
u_j q_i and q_i q_j of the quadrics q_i = t u_i^2 + t^2 u_{i+1} u_{i+4} -
u_{i+2} u_{i+3} (`shioda5.ca_relations` with t a variable) and their
Jacobian determinant det(dq_i/du_j) have integer coefficients in t.
`minor_tables` expands them once per process over int coefficients and
keeps only the sparse integer tables; evaluating a table at a point is one
`np.bincount` scatter of its terms per real and imaginary part.

Every minor and product is an e2-eigenvector of H_5, since u_k has e2-weight
2k mod 5 (K. Hulek, "Projective geometry of elliptic curves", Asterisque
137, 1986): the coefficient matrix of each of the four span tables is
block-diagonal in the five weights.  `minor_tables` checks this on the
integer entries, and those tables evaluate straight into the stack of their
five blocks (`CoefficientTable.blocks`).
`sklyanin2` imports this module where it first needs it, so
CLI start-up does not compile it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .clifford import clifford_form
from .poly import (MultiPoly, PolyMatrix, PolyRing, mat_det, mat_minors, minor_routine,
                   monomials_of_degree)
from .shioda5 import ca_relations


def _generic_form() -> PolyMatrix:
    """Q(a, b) over Z[u0..u4, a, b], a and b variables, the u named as in
    the ring of `clifford.clifford_form`.  Q is linear in (a, b), so it is
    Q(0, 0) + a (Q(1, 0) - Q(0, 0)) + b (Q(0, 1) - Q(0, 0)).  The entries of
    those three forms are 2 u_k, u_k and 0, so their coefficients convert to
    ints exactly."""
    forms = [clifford_form(5, (1, *ab)) for ab in ((0, 0), (1, 0), (0, 1))]
    ring = PolyRing(forms[0].ring.variables + ("a", "b"))
    q0, qa, qb = ([MultiPoly(ring, {e + (0, 0): int(c) for e, c in f.items()})
                   for f in form.entries] for form in forms)
    a, b = MultiPoly.var(ring, 5), MultiPoly.var(ring, 6)
    return PolyMatrix(5, 5, [z + a * (x - z) + b * (y - z) for z, x, y in zip(q0, qa, qb)])


def _block_places(weights: Sequence[int]) -> Tuple[List[int], int]:
    """Each index's place among the indices of its weight, in order, and
    how many indices each weight has; ValueError unless the five weights
    have equally many."""
    counts, places = [0] * 5, []
    for w in weights:
        places.append(counts[w])
        counts[w] += 1
    if len(set(counts)) != 1:
        raise ValueError(f"e2-weight blocks of unequal sizes {counts}")
    return places, counts[0]


@dataclass(frozen=True)
class CoefficientTable:
    """Polynomials of one degree in u_0..u_4 whose coefficients are integer
    polynomials in some parameters, stored sparsely: `entries` holds one
    (polynomial, u-monomial, parameter monomial, integer coefficient) index
    row per non-zero term, against the u-monomials `basis` and the parameter
    exponent tuples `params`.  A table built `blocked` also holds the cell
    of each term in the stack of its e2-weight blocks, `block_cells`."""

    size: int
    basis: Tuple[Tuple[int, ...], ...]
    params: Tuple[Tuple[int, ...], ...]
    entries: np.ndarray
    block_cells: Optional[np.ndarray] = None

    @classmethod
    def of(cls, polys: Sequence[MultiPoly], degree: int,
           blocked: bool = False) -> "CoefficientTable":
        """The table of `polys`, over a ring whose first five variables are
        u_0..u_4 and the rest the parameters, homogeneous of `degree` in u,
        with int coefficients.  With `blocked`, ValueError unless every
        polynomial is non-zero with all its terms of one e2-weight, and the
        five weights have equally many polynomials and equally many
        monomials of `basis`."""
        basis = tuple(monomials_of_degree(5, degree))
        column = {e: i for i, e in enumerate(basis)}
        terms = [f.items() for f in polys]
        params = tuple(sorted({e[5:] for items in terms for e, _c in items}))
        param = {e: i for i, e in enumerate(params)}
        rows = [(row, column[e[:5]], param[e[5:]], c)
                for row, items in enumerate(terms) for e, c in items]
        if not all(type(c) is int for *_i, c in rows):
            raise TypeError("a coefficient table needs int coefficients")
        entries = np.array(rows, dtype=np.int64)
        entries.setflags(write=False)
        if not blocked:
            return cls(len(polys), basis, params, entries)
        # plain Python: numpy's integer compare and sort loops, paged in for
        # this alone, raised a selftest's peak RSS by about 0.3 MB
        col_weight = [2 * sum(k * e for k, e in enumerate(m)) % 5 for m in basis]
        row_weights = [set() for _f in polys]
        for row, col, *_rest in rows:
            row_weights[row].add(col_weight[col])
        if any(len(w) != 1 for w in row_weights):
            raise ValueError("a polynomial of the table is zero or of two e2-weights")
        row_weight = [w.pop() for w in row_weights]
        (row_place, height), (col_place, width) = map(_block_places, (row_weight, col_weight))
        cells = np.array([(row_weight[row] * height + row_place[row]) * width + col_place[col]
                          for row, col, *_rest in rows], dtype=np.int64)
        cells.setflags(write=False)
        return cls(len(polys), basis, params, entries, cells)

    def _scatter(self, values: Sequence[complex], cells: np.ndarray, shape) -> np.ndarray:
        """The terms at the parameter values summed into `cells` of an array
        of `shape` by `np.bincount`, once for the real parts and once for
        the imaginary ones, each cell summing its terms in table order."""
        monomials = np.array([prod(v ** k for v, k in zip(values, exps))
                              for exps in self.params], dtype=complex)
        terms = self.entries[:, 3] * monomials[self.entries[:, 2]]
        count = prod(shape)
        out = np.empty(count, dtype=complex)
        out.real = np.bincount(cells, terms.real, count)
        out.imag = np.bincount(cells, terms.imag, count)
        return out.reshape(shape)

    def at(self, values: Sequence[complex]) -> np.ndarray:
        """The coefficient vectors against `basis` at the parameter values,
        one row per polynomial."""
        row, col = self.entries[:, 0], self.entries[:, 1]
        return self._scatter(values, row * len(self.basis) + col, (self.size, len(self.basis)))

    def blocks(self, values: Sequence[complex]) -> np.ndarray:
        """`at` as the (5, rows/5, columns/5) stack of its e2-weight blocks,
        for a table built `blocked`: block w holds the polynomials and the
        basis monomials of weight w, each in table order."""
        shape = (5, self.size // 5, len(self.basis) // 5)
        return self._scatter(values, self.block_cells, shape)


class MinorTables(NamedTuple):
    """The tables of `minor_tables`, reached by name."""
    minors3: CoefficientTable
    products: CoefficientTable
    minors4: CoefficientTable
    qq: CoefficientTable
    det_q: CoefficientTable
    jacobian: CoefficientTable


@cache
def minor_tables() -> MinorTables:
    """Built once per process: the 100 cubic 3x3 minors of Q(a, b) and the
    25 products u_j q_i (degree 6 in x), the 25 quartic 4x4 minors and the
    15 products q_i q_j (degree 8 in x), then det Q(a, b) and the Jacobian
    determinant det(dq_i/du_j) (degree 10 in x).  The minors are tabled over
    Z[u, a, b], in `mat_minors` order, the products and the Jacobian over
    Z[u, t]; the four span tables are built `blocked`.  det Q is the full
    minor of the same `minor_routine` memo, which expands it from the 4x4
    minors already there; that is why both determinants of the secant check
    are built here, with the minors, though a lone secant check then builds
    every table."""
    form = _generic_form()
    minor = minor_routine(form)  # each size expands into the one below it
    ring = PolyRing(form.ring.variables[:5] + ("t",))
    u = [MultiPoly.var(ring, i) for i in range(5)]
    quadrics = ca_relations(u, MultiPoly.var(ring, 5))
    full = tuple(range(5))
    jacobian = PolyMatrix(5, 5, [q.partial(j) for q in quadrics for j in range(5)])
    return MinorTables(
        minors3=CoefficientTable.of(mat_minors(form, 3, minor), 3, blocked=True),
        products=CoefficientTable.of([u[j] * q for q in quadrics for j in range(5)], 3,
                                     blocked=True),
        minors4=CoefficientTable.of(mat_minors(form, 4, minor), 4, blocked=True),
        qq=CoefficientTable.of([quadrics[i] * quadrics[j]
                                for i in range(5) for j in range(i, 5)], 4, blocked=True),
        det_q=CoefficientTable.of([minor(full, full)], 5),
        jacobian=CoefficientTable.of([mat_det(jacobian)], 5))

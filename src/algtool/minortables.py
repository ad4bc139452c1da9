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
`sklyanin2` imports this module where it first needs it, so
CLI start-up does not compile it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod
from typing import NamedTuple, Sequence, Tuple

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


@dataclass(frozen=True)
class CoefficientTable:
    """Polynomials of one degree in u_0..u_4 whose coefficients are integer
    polynomials in some parameters, stored sparsely: `entries` holds one
    (polynomial, u-monomial, parameter monomial, integer coefficient) index
    row per non-zero term, against the u-monomials `basis` and the parameter
    exponent tuples `params`."""

    size: int
    basis: Tuple[Tuple[int, ...], ...]
    params: Tuple[Tuple[int, ...], ...]
    entries: np.ndarray

    @classmethod
    def of(cls, polys: Sequence[MultiPoly], degree: int) -> "CoefficientTable":
        """The table of `polys`, over a ring whose first five variables are
        u_0..u_4 and the rest the parameters, homogeneous of `degree` in u,
        with int coefficients."""
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
        return cls(len(polys), basis, params, entries)

    def at(self, values: Sequence[complex]) -> np.ndarray:
        """The coefficient vectors against `basis` at the parameter values,
        one row per polynomial: the terms scattered by `np.bincount`, once
        for the real parts and once for the imaginary ones, each cell
        summing its terms in table order."""
        monomials = np.array([prod(v ** k for v, k in zip(values, exps))
                              for exps in self.params], dtype=complex)
        row, col, param, coeff = self.entries.T
        terms = coeff * monomials[param]
        cells = self.size * len(self.basis)
        cell = row * len(self.basis) + col
        out = np.empty(cells, dtype=complex)
        out.real = np.bincount(cell, terms.real, cells)
        out.imag = np.bincount(cell, terms.imag, cells)
        return out.reshape(self.size, len(self.basis))


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
    Z[u, t].  det Q is the full minor of the same `minor_routine` memo, which
    expands it from the 4x4 minors already there; that is why both
    determinants of the secant check are built here, with the minors, though
    a lone secant check then builds every table."""
    form = _generic_form()
    minor = minor_routine(form)  # each size expands into the one below it
    ring = PolyRing(form.ring.variables[:5] + ("t",))
    u = [MultiPoly.var(ring, i) for i in range(5)]
    quadrics = ca_relations(u, MultiPoly.var(ring, 5))
    full = tuple(range(5))
    jacobian = PolyMatrix(5, 5, [q.partial(j) for q in quadrics for j in range(5)])
    return MinorTables(
        minors3=CoefficientTable.of(mat_minors(form, 3, minor), 3),
        products=CoefficientTable.of([u[j] * q for q in quadrics for j in range(5)], 3),
        minors4=CoefficientTable.of(mat_minors(form, 4, minor), 4),
        qq=CoefficientTable.of([quadrics[i] * quadrics[j]
                                for i in range(5) for j in range(i, 5)], 4),
        det_q=CoefficientTable.of([minor(full, full)], 5),
        jacobian=CoefficientTable.of([mat_det(jacobian)], 5))

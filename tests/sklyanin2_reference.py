"""Test-only reference: the degree-6 and degree-8 pieces of
`sklyanin2.minor_ideal_checks` computed point by point, as `_degree_pieces`
did before it read them off `minortables.minor_tables`: every minor of Q(a, b)
and every product of the quadrics q_i taken as `MultiPoly`s over C at the
point, then written against the monomial basis of its degree."""

from __future__ import annotations

from typing import List, Tuple

from algtool.clifford import clifford_form
from algtool.poly import MultiPoly, mat_minors, minor_routine, monomials_of_degree
from algtool.sklyanin2 import t_param


def quadrics_at(ring, t) -> List[MultiPoly]:
    """q_i = t u_i^2 + t^2 u_{i+1} u_{i+4} - u_{i+2} u_{i+3} at t, over a
    ring in u_0..u_4."""
    u = [MultiPoly.var(ring, i) for i in range(5)]
    return [t * u[i] ** 2 + t * t * u[(i + 1) % 5] * u[(i + 4) % 5]
            - u[(i + 2) % 5] * u[(i + 3) % 5] for i in range(5)]


def degree_pieces(point) -> Tuple[complex, Tuple[List[list], List[list]],
                                  Tuple[List[list], List[list]]]:
    """t, then (3x3 minors, products u_j q_i) against the cubic monomials
    and (4x4 minors, products q_i q_j) against the quartic ones."""
    a, b = point
    t = complex(t_param(a, b))
    form = clifford_form(5, (1, complex(a), complex(b)))
    u = [MultiPoly.var(form.ring, i) for i in range(5)]
    quadrics = quadrics_at(form.ring, t)
    minor = minor_routine(form)
    basis3 = monomials_of_degree(5, 3)
    minors3 = [m.coefficient_vector(basis3) for m in mat_minors(form, 3, minor)]
    products = [(u[j] * q).coefficient_vector(basis3) for q in quadrics for j in range(5)]
    basis4 = monomials_of_degree(5, 4)
    minors4 = [m.coefficient_vector(basis4) for m in mat_minors(form, 4, minor)]
    qq = [(quadrics[i] * quadrics[j]).coefficient_vector(basis4)
          for i in range(5) for j in range(i, 5)]
    return t, (minors3, products), (minors4, qq)

"""Test-only reference: parts of `sklyanin2` computed as they were before
they were made faster.  The degree-6 and degree-8 pieces of
`minor_ideal_checks` take every minor of Q(a, b) and every product of the
quadrics q_i as `MultiPoly`s over C at the point, written against the
monomial basis of its degree, where `_degree_pieces` reads them off
`minortables.minor_tables` as stacks of e2-weight blocks, which
`reassembled` puts back in place; `secant_check` expands both 5x5 determinants at
the point; `curve_points_on_grid` scans [-4, 4] for sign changes and
bisects each, where `sklyanin2.curve_points_on_grid` takes the roots of
the quintic; `onedim_reps` builds every candidate in Q(w) and checks each
one against every relation by Q(w) products, where `sklyanin2.onedim_reps`
checks one rational candidate in phase buckets and twists it;
`CoefficientTable.at` scattered its terms with `np.add.at`, where it now
takes one `np.bincount` per real and imaginary part."""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from algtool.clifford import clifford_form
from algtool.cyclotomic import Cyclotomic
from algtool.gradedalg import make_presentation
from algtool.poly import (MultiPoly, PolyMatrix, PolyRing, mat_det, mat_minors, minor_routine,
                          monomials_of_degree)
from algtool.errors import InputError, PoleError
from algtool.sklyanin2 import CurvePoint, SecantReport, cprime_residual, t_param


def table_at(table, values) -> np.ndarray:
    """`CoefficientTable.at` by one complex `np.add.at` of the terms."""
    monomials = np.array([prod(v ** k for v, k in zip(values, exps))
                          for exps in table.params], dtype=complex)
    row, col, param, coeff = table.entries.T
    out = np.zeros((table.size, len(table.basis)), dtype=complex)
    np.add.at(out, (row, col), coeff * monomials[param])
    return out


def weight(monomial) -> int:
    """The e2-weight of the u-monomial: u_k = x_k^2 has weight 2k mod 5."""
    return 2 * sum(k * e for k, e in enumerate(monomial)) % 5


def reassembled(table, blocks) -> np.ndarray:
    """The full coefficient matrix of `table` from the stack of its
    e2-weight blocks: block w fills the rows of weight w, each row's weight
    read off its first term, and the basis monomials of weight w, both in
    table order; every other cell is 0."""
    row_weight = {}
    for row, col, *_rest in table.entries.tolist():
        row_weight.setdefault(row, weight(table.basis[col]))
    out = np.zeros((table.size, len(table.basis)), dtype=complex)
    for w, block in enumerate(blocks):
        rows = [r for r in range(table.size) if row_weight[r] == w]
        cols = [c for c, e in enumerate(table.basis) if weight(e) == w]
        out[np.ix_(rows, cols)] = block
    return out


def coefficient_vector(f: MultiPoly, basis) -> list:
    """The coefficients of f against a monomial basis that holds each of its
    monomials."""
    index = {e: i for i, e in enumerate(basis)}
    vec = [0] * len(basis)
    for e, c in f.items():
        vec[index[e]] = c
    return vec


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
    minors3 = [coefficient_vector(m, basis3) for m in mat_minors(form, 3, minor)]
    products = [coefficient_vector(u[j] * q, basis3) for q in quadrics for j in range(5)]
    basis4 = monomials_of_degree(5, 4)
    minors4 = [coefficient_vector(m, basis4) for m in mat_minors(form, 4, minor)]
    qq = [coefficient_vector(quadrics[i] * quadrics[j], basis4)
          for i in range(5) for j in range(i, 5)]
    return t, (minors3, products), (minors4, qq)


def secant_check(point) -> SecantReport:
    """`sklyanin2.secant_check` with the Jacobian of the quadrics
    Q_i = z_i^2 + t z_{i+1} z_{i+4} - (1/t) z_{i+2} z_{i+3} and det Q(a, b)
    expanded symbolically over C at the point."""
    a, b = point
    t = complex(t_param(a, b))
    ring = PolyRing(("u0", "u1", "u2", "u3", "u4"))
    z = [MultiPoly.var(ring, i) for i in range(5)]
    quadrics = [z[i] ** 2 + t * z[(i + 1) % 5] * z[(i + 4) % 5]
                - (1.0 / t) * z[(i + 2) % 5] * z[(i + 3) % 5] for i in range(5)]
    jac_det = mat_det(PolyMatrix(5, 5, [q.partial(j) for q in quadrics for j in range(5)]))
    det_q = mat_det(clifford_form(5, (1, complex(a), complex(b))))
    basis = monomials_of_degree(5, 5)
    jv = np.asarray(coefficient_vector(jac_det, basis), dtype=complex)
    dv = np.asarray(coefficient_vector(det_q, basis), dtype=complex)
    lam = complex(np.vdot(dv, jv) / np.vdot(dv, dv))
    residual = float(np.linalg.norm(jv - lam * dv) / np.linalg.norm(jv))
    return SecantReport(t, lam, residual, jac_det.total_degree(), det_q.total_degree())


def curve_points_on_grid(grid: Sequence[Fraction]) -> List[CurvePoint]:
    """`sklyanin2.curve_points_on_grid` as a scan of b over [-4, 4] in steps
    of 0.05 for sign changes of C'(a, b), each bisected 80 times and then
    Newton-polished."""
    bracket, step = 4.0, 0.05
    points = []
    for a_exact in grid:
        a = float(a_exact)

        def fprime(b: float) -> float:
            return -3 * a ** 3 * b ** 2 + 5 * b ** 4 + 4 * a ** 2 * b - 8 * a

        roots = []
        lo = -bracket
        flo = cprime_residual(a, lo)
        b = lo + step
        while b <= bracket + 1e-12:
            fb = cprime_residual(a, b)
            if flo == 0.0:
                roots.append(lo)
            elif flo * fb < 0:
                x0, x1 = lo, b
                for _ in range(80):
                    mid = 0.5 * (x0 + x1)
                    if cprime_residual(a, x0) * cprime_residual(a, mid) <= 0:
                        x1 = mid
                    else:
                        x0 = mid
                root = 0.5 * (x0 + x1)
                for _ in range(8):
                    d = fprime(root)
                    if d == 0:
                        break
                    root -= cprime_residual(a, root) / d
                roots.append(root)
            lo, flo = b, fb
            b += step
        for root in roots:
            try:
                t = t_param(a, root)
            except PoleError:
                continue
            if t is None or abs(root) < 1e-9:
                continue
            points.append(CurvePoint(a, root, cprime_residual(a, root)))
            break
    return points


def onedim_reps(p: int, avec: Sequence) -> List[Tuple[Cyclotomic, ...]]:
    """`sklyanin2.onedim_reps` with each candidate's coordinates built as
    c^C(k,2) s^k in Q(w), c = a_{i0} / (2 a_0) by Q(w) division, and each
    relation summed in Q(w) at every candidate."""
    pres = make_presentation("cliffordC", p, *avec)
    avec = pres.params[1:]
    half = (p - 1) // 2
    i0 = next((i for i in range(1, half + 1) if avec[i]), None)
    if i0 is None:
        raise InputError("need some a_i != 0 with i >= 1")
    if avec[0] == 0:
        return []
    c = Cyclotomic.from_rational(p, 1) * avec[i0] / (2 * avec[0])
    s_base = (c.inverse()) ** half  # c^(-(p-1)/2)
    found = []
    for j in range(p):
        s = s_base * Cyclotomic.zeta(p, j)
        y: List[Optional[Cyclotomic]] = [None] * p
        for k in range(p):
            y[(k * i0) % p] = (c ** comb(k, 2)) * (s ** k)
        ok = True
        for rel in pres.relations:
            acc = Cyclotomic(p)
            for (w0, w1), coeff in rel:
                acc = acc + coeff * y[w0] * y[w1]
            if not acc.is_zero():
                ok = False
                break
        if ok:
            found.append(tuple(y))
    return found

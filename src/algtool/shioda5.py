"""Determinantal geometry of the projected Shioda surface for p = 5.

S15 is cut out of P^4 by the ten 3x3 minors of

    [ x0^2    x1^2    x2^2    x3^2    x4^2  ]
    [ x2 x3   x3 x4   x4 x0   x0 x1   x1 x2 ]
    [ x1 x4   x2 x0   x3 x1   x4 x2   x0 x3 ]

(column i holds x_i^2, x_{2+i} x_{3+i}, x_{1+i} x_{4+i}).  A point lies on
S15 exactly when that matrix has rank <= 2 there, so every check evaluates
the 15 quadratic entries at the point once and decides from the evaluated
3x5 matrix.  The ten sextic minors themselves are built only for output
(`algtool shioda5 minors`) and for the count in criterion 8.

Membership on Heisenberg orbits and fixed points is exact over Q(w_5):
every coordinate there is 0 or r w^k, one term of Q[x]/(x^5 - 1)
(`Cyclotomic.lift`), so each entry is one term too, and each of the ten
minors is six triple products of them summed in five phase buckets, which
vanish exactly when they are equal.  Floats only enter through the Jacobian
ranks (Jacobi's formula on the 3x5 matrix and its entrywise partials) and
the 2-torsion sextic's roots (the ten minors by `minors_float`, one stack
per sample's roots and one per its control points).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Sequence, Tuple

import numpy as np

from .clifford import Draw, check_sample_bound
from .cyclotomic import Cyclotomic
from .errors import InputError, SamplingError
from .gradedalg import Presentation, curve_fiber, hilbert, in_ideal, make_presentation
from .heisenberg import (SimpleRep, heisenberg_orbit_points,
                         projective_fixed_points, subgroup_generators)
from .linalg import RANK_TOL, Residual, minors_float, rank_float
from .poly import MultiPoly, PolyMatrix, PolyRing, mat_minors

X_VARS = ("x0", "x1", "x2", "x3", "x4")
_REP = SimpleRep(5, 1)


def x_vars() -> List[MultiPoly]:
    """x_0..x_4, the variables of P^4."""
    ring = PolyRing(X_VARS)
    return [MultiPoly.var(ring, i) for i in range(5)]


def s15_matrix() -> PolyMatrix:
    x = x_vars()
    entries = []
    entries.extend(x[i] * x[i] for i in range(5))
    entries.extend(x[(2 + i) % 5] * x[(3 + i) % 5] for i in range(5))
    entries.extend(x[(1 + i) % 5] * x[(4 + i) % 5] for i in range(5))
    return PolyMatrix(3, 5, entries)


def s15_minors() -> List[MultiPoly]:
    """The ten degree-6 minors, in column-set lexicographic order."""
    return mat_minors(s15_matrix(), 3)


def _entry_monomials(matrix: PolyMatrix) -> List[Tuple[object, int, int]]:
    """Each entry c x_i x_j of the S15 matrix, row by row, as (c, i, j)."""
    out = []
    for entry in matrix.entries:
        ((exps, c),) = entry.items()
        i, j = [k for k, e in enumerate(exps) for _ in range(e)]
        out.append((c, i, j))
    return out


# (sign, column order) of the six terms of a 3x3 determinant
_LEIBNIZ = ((1, (0, 1, 2)), (1, (1, 2, 0)), (1, (2, 0, 1)),
            (-1, (0, 2, 1)), (-1, (2, 1, 0)), (-1, (1, 0, 2)))


def _on_s15(monomials, point: Sequence[Cyclotomic]) -> bool:
    """Exact over Q(w_5): all ten 3x3 minors of the S15 matrix, whose entries
    are `_entry_monomials`, vanish at the point.  An entry is the product of
    two lifted coordinates (`Cyclotomic.lift`), and a minor its six triple
    products of entries in 5 buckets by k mod 5, zero when they are equal."""
    lifted = [v.lift() for v in point]
    entries = [[((k + m) % 5, c * d * e) for k, d in lifted[i] for m, e in lifted[j]]
               for c, i, j in monomials]
    top, mid, low = entries[:5], entries[5:10], entries[10:]
    for cols in combinations(range(5), 3):
        buckets = [0] * 5
        for sign, (i, j, k) in _LEIBNIZ:
            for k0, c0 in top[cols[i]]:
                for k1, c1 in mid[cols[j]]:
                    for k2, c2 in low[cols[k]]:
                        buckets[(k0 + k1 + k2) % 5] += sign * c0 * c1 * c2
        if buckets.count(buckets[0]) != 5:
            return False
    return True


def _minor_jacobians(partials: List[PolyMatrix], points) -> np.ndarray:
    """The 10x5 Jacobians of the 3x3 minors of a 3x5 matrix M of quadrics at
    complex points, as one (points, 10, 5) stack, from partials[j] = d_j M,
    whose entries are each c x_k or zero: each is one `eval_stack` call, and
    M = 1/2 sum_j x_j d_j M by Euler's identity.  By Jacobi's formula,
    d_j det(M_S) is the sum over rows i of det(M_S with row i replaced by
    row i of (d_j M)_S); each row i is one `minors_float` call on the stack
    of every point and j."""
    x = np.asarray(points, dtype=complex)
    derivs = np.stack([d.eval_stack(x) for d in partials], axis=1)
    values = 0.5 * np.einsum("nj,njrc->nrc", x, derivs)
    jac = np.zeros((len(x), 5, 10), dtype=complex)
    for i in range(3):
        swapped = np.repeat(values[:, None], 5, axis=1)
        swapped[:, :, i, :] = derivs[:, :, i, :]
        jac += minors_float(swapped)
    return jac.transpose(0, 2, 1)


def ca_relations(x: Sequence[MultiPoly], t) -> List[MultiPoly]:
    """t x_i^2 + t^2 x_{i+1} x_{i-1} - x_{i+2} x_{i-2} for i = 0..4, in the
    five variables x: the relations of C_a for the number t = a, and the
    quadrics q_i of sklyanin2's E' for t a variable of the ring of x."""
    return [t * x[i] ** 2 + t * t * x[(i + 1) % 5] * x[(i - 1) % 5]
            - x[(i + 2) % 5] * x[(i - 2) % 5] for i in range(5)]


def base_orbit(t) -> List[tuple]:
    """The 25 Heisenberg images of (0 : 1 : t : -t : -1), the base point O_a
    of C_a at t = a, exact over Q(w_5) for an int or Fraction t; any other t
    is an input error.  sklyanin2 builds the orbit of E' at a complex t as
    one numpy array (`sklyanin2._orbit_stack`)."""
    if not isinstance(t, (int, Fraction)):
        raise InputError(f"the base orbit needs an int or Fraction, got {t!r}")
    point = tuple(Cyclotomic.from_rational(5, v) for v in (0, 1, t, -t, -1))
    return heisenberg_orbit_points(_REP, point)


@dataclass
class OrbitReport:
    a: Fraction
    points: int
    relations_ok: bool
    minors_ok: bool

    def ok(self) -> bool:
        return self.relations_ok and self.minors_ok


def ca_orbit_check(a) -> OrbitReport:
    """Exact check that the whole orbit of O_a satisfies the C_a relations
    and lies on S15; a that is no int or Fraction is an input error."""
    orbit = base_orbit(a)
    rels = ca_relations(x_vars(), Fraction(a))
    monomials = _entry_monomials(s15_matrix())
    rel_ok = all(r.eval(list(pt)).is_zero() for pt in orbit for r in rels)
    min_ok = all(_on_s15(monomials, pt) for pt in orbit)
    return OrbitReport(Fraction(a), len(orbit), rel_ok, min_ok)


# -- 2-torsion sextic -----------------------------------------------------------


@dataclass
class TwoTorsionReport:
    samples: int
    roots_checked: int
    max_residual: Residual
    control_residual: Residual

    def ok(self) -> bool:
        """Every root on S15 to 1e-7, and the control off it by more than 1e-5."""
        return self.max_residual < 1e-7 and self.control_residual > 1e-5


def two_torsion_check(samples: int = 20, seed: int = 0) -> TwoTorsionReport:
    """Seeded (x1, x2), uniform on [-1, 1)^2 (`clifford.Draw`); roots x0 of
    the plane sextic
    f = x0^4 x1 x2 - x0^2 x1^2 x2^2 - x0 (x1^5 + x2^5) + 2 x1^3 x2^3 give points
    (x0 : x1 : x2 : x2 : x1) on S15 (all ten minors vanish numerically).

    On that line every minor is 0 or +-f, so the residual of the normalized
    point is |f| / M^6 with M its largest coordinate.  The negative control
    moves the root r of least modulus by m = max(|x1|, |x2|) in the best of
    the five directions w^j (w = e^(2 pi i / 5)), which is provably off the
    sextic: f has degree 4 in x0, so on five equally spaced points of a
    circle of radius rho its largest modulus is at least |c_k| rho^k for every
    coefficient c_k of its expansion about the centre (a discrete Fourier
    transform recovers each c_k rho^k as a mean of those five values).
    Around 0 on |x0| = m that gives |f| >= max(|x1 x2| m^4, |x1^5 + x2^5| m)
    >= 0.75 m^6; |r|^4 <= |product of the roots| = 2 |x1 x2|^2 gives
    |r| <= 1.19 m, so around r on |x0 - r| = m some point has
    |f| >= 0.75 m^6 / sum_{k<5} 2.19^k >= 0.018 m^6, where M <= 2.19 m: a
    control residual of at least 1.6e-4, whatever (x1, x2) is drawn.  Fewer
    than one sample is an input error, more than `clifford.MAX_SAMPLES` a
    resource error."""
    if samples < 1:
        raise InputError("need at least one sample")
    check_sample_bound(samples)
    draw = Draw(seed)
    coef, left, right = (np.array(v) for v in zip(*_entry_monomials(s15_matrix())))
    directions = np.exp(2j * np.pi * np.arange(5) / 5)

    def residual(x0s, x1, x2) -> float:
        """The largest residual of the points (x0 : x1 : x2 : x2 : x1): the
        S15 entries c x_i x_j of all of them as one stack of products, and
        their minors taken in one `minors_float` call."""
        points = np.empty((len(x0s), 5), dtype=complex)
        points[:, 0] = x0s
        points[:, 1:] = (x1, x2, x2, x1)
        points /= np.abs(points).max(axis=1, keepdims=True)
        mats = coef * points[:, left] * points[:, right]
        return float(np.abs(minors_float(mats.reshape(-1, 3, 5))).max())

    worst = 0.0
    control = float("inf")
    count = 0
    for _ in range(samples):
        x1, x2 = draw.uniform(2)
        if abs(x1 * x2) < 1e-3:  # keep the quartic well-conditioned
            x1, x2 = x1 + 1.0, x2 - 1.0
        coeffs = [x1 * x2, 0.0, -(x1 ** 2) * x2 ** 2, -(x1 ** 5 + x2 ** 5),
                  2 * x1 ** 3 * x2 ** 3]
        roots = np.roots(coeffs)
        if len(roots) != 4:
            raise SamplingError("quartic lost roots")
        worst = max(worst, residual(roots, x1, x2))
        count += len(roots)
        root = min(roots, key=abs)
        scale = max(abs(x1), abs(x2))
        control = min(control, residual(root + scale * directions, x1, x2))
    return TwoTorsionReport(samples, count, Residual(worst), Residual(control))


# -- the 30 singular points -------------------------------------------------------


def thirty_points() -> List[Tuple[Cyclotomic, ...]]:
    """Fixed points of the p+1 projectivized cyclic subgroups, deduplicated
    in the order first met (normalized points compare exactly); exactly 30
    points for p = 5."""
    return list(dict.fromkeys(pt for g in subgroup_generators(5)
                              for pt in projective_fixed_points(_REP, g)))


@dataclass
class SingularPointsReport:
    count: int
    on_surface: bool
    singular_ranks: List[int]
    control_ranks: List[int]
    points: List[Tuple[Cyclotomic, ...]]  # last, so the text output keeps its key order

    def ok(self) -> bool:
        return (self.count == 30 and self.on_surface
                and all(r < 2 for r in self.singular_ranks)
                and all(r == 2 for r in self.control_ranks))


def singular_points_check(tol: float = RANK_TOL) -> SingularPointsReport:
    """The 30 stabilizer points lie on S15 exactly and the 10x5 Jacobian of
    the minors drops below rank 2 there; at smooth orbit points of C_1 the
    rank is exactly 2 (codimension of the surface)."""
    matrix = s15_matrix()
    partials = [PolyMatrix(3, 5, [e.partial(j) for e in matrix.entries]) for j in range(5)]
    points = thirty_points()
    monomials = _entry_monomials(matrix)
    on_surface = all(_on_s15(monomials, pt) for pt in points)

    embedded = np.array([[c.embed(1) for c in pt] for pt in points + base_orbit(1)[:10]])
    normalized = embedded / np.abs(embedded).max(axis=1, keepdims=True)
    # points are normalized and the minors have O(1) coefficients, so a
    # genuinely nonzero Jacobian is O(1); floor the SVD cutoff there
    ranks = rank_float(_minor_jacobians(partials, normalized), tol, scale=1.0).tolist()
    return SingularPointsReport(len(points), on_surface, ranks[:len(points)],
                                ranks[len(points):], points)


# -- cusp fiber vs cycle of lines ---------------------------------------------------


def _within(pres: Presentation, unit: int, other: Presentation) -> bool:
    """Whether every relation of `pres`, after x_i -> x_(unit * i), lies in
    the ideal of `other`."""
    return in_ideal(other, [[(tuple(unit * i for i in w), c) for w, c in rel]
                            for rel in pres.relations])


@dataclass
class CycleFiberReport:
    span_equal_direct: bool      # (A:B) = (1:0) fiber, no relabeling
    span_equal_relabeled: bool   # (A:B) = (0:1) fiber after x_i -> x_{2i}
    hilbert: List[int]
    cusp_cycles: int

    def ok(self) -> bool:
        return (self.span_equal_direct and self.span_equal_relabeled
                and self.hilbert == [1, 5, 10, 15] and self.cusp_cycles == 12)


def cycle_fiber_equivalence() -> CycleFiberReport:
    """The cusp fibers of curveCa's pencil cut out the cycle of lines: (1:0) as
    it is, (0:1) after x_i -> x_{2i}; each pair of ideals compared both ways."""
    cycle = make_presentation("cycle", 5)
    fiber10 = curve_fiber(Fraction(1), Fraction(0))
    direct = _within(fiber10, 1, cycle) and _within(cycle, 1, fiber10)
    fiber01 = curve_fiber(Fraction(0), Fraction(1))
    relabeled = _within(fiber01, 2, cycle) and _within(cycle, 3, fiber01)  # 3 = 1/2 mod 5
    return CycleFiberReport(direct, relabeled, hilbert(cycle, 3), len(cusp_cycles()))


def cusp_cycles() -> set:
    """The distinct H_5-orbits of line cycles through the fixed points of the
    six projectivized subgroups, steps 1 and 2 in eigenvalue order: a
    complement of <g> walks the 5 points at a constant stride s != 0, and
    steps s and 2s of that walk are steps +-1 and +-2 of this order."""
    cycles = set()
    for g in subgroup_generators(5):
        track = projective_fixed_points(_REP, g)
        for step in (1, 2):
            cycles.add(frozenset(frozenset((track[j], track[(j + step) % 5])) for j in range(5)))
    return cycles

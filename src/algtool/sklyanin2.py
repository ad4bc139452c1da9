"""The order-2 Sklyanin toolkit for p = 5: the quadratic form Q(a, b) of
cliffordC(5; 1, a, b) (`clifford.clifford_form`, a `PolyMatrix`), the
parameter curve C', the t-parameter of the quotient elliptic curve, the
Sylvester elimination, point-module minor checks, rank stratification,
degree-piece span identities, the secant-variety determinant identity, and
exact 1-dimensional representation enumeration for cliffordC parameters.
The four float checks take a parameter pair (a, b); a `CurvePoint` passes
as (cp.a, cp.b), and `curve_points_on_grid` finds one as a real root of
the quintic C'(a, .) in b.  The degree-piece and secant checks expand no
polynomial at a point: they evaluate `minortables.minor_tables`, sparse
integer coefficient tables built once per process of the 3x3 and 4x4
minors and the determinant of Q(a, b) over Z[u, a, b], and of the products
of the q_i and their Jacobian determinant over Z[u, t]; the spans are
compared by float ranks per e2-weight block of those tables.  The
point-module and secant checks report their error measures as
`linalg.Residual`s, and so do the curve points: `ok` compares the raw value
with its bound, and the output prints it as 0.0 below 1e-12, else to 3
significant digits, so a bound below 1e-12 is refused by the CLI.  Every other float (a, b, t, lam) is printed at 12
significant digits (`linalg.printed`), so another order of the float
arithmetic here moves the output only where a value lies within its last
bits of a rounding boundary.

Conventions fixed here once:
  * u_i denotes the central degree-2 element x_i^2; Q lives over C[u_0..u_4].
  * q_i = t u_i^2 + t^2 u_{i+1} u_{i+4} - u_{i+2} u_{i+3} (indices mod 5) are
    the quadrics of the quotient curve E' = C_t in the u-coordinates.
  * The base point of E' is (0 : 1 : t : -t : -1); its orbit has 25
    distinct points for every t, since its stabilizer in H_5/Z is trivial.
    The point-module check and the stratification take them as one numpy
    array (`_orbit_stack`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .clifford import (clifford_form, fat_profile, random_points,
                       sample_rank_drop_points, simple_profile)
from .cyclotomic import Cyclotomic
from .errors import (IndeterminateError, InputError, PoleError, ResourceLimitError,
                     SamplingError)
from .gradedalg import check_relation_count, make_presentation
from .linalg import RANK_TOL, Residual, minors_float, rank_float
from .poly import MultiPoly, PolyRing, exact_divide, resultant

Scalar = Union[int, Fraction, float, complex]
#: The default relative cutoff of the span ranks of `minor_ideal_checks`.
SPAN_TOL = 1e-7


@dataclass(frozen=True)
class CurvePoint:
    a: Scalar
    b: Scalar
    residual: Scalar

    def __post_init__(self):
        if isinstance(self.residual, (int, Fraction)):
            if self.residual != 0:
                raise ValueError(f"exact point not on the curve: residual {self.residual}")
        elif abs(self.residual) > 1e-10:
            raise ValueError(f"point too far from the curve: residual {self.residual}")


def _is_exact(*values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def cprime_residual(a: Scalar, b: Scalar) -> Scalar:
    """-a^3 b^3 + a^5 + b^5 + 2 a^2 b^2 - 8 a b."""
    return -(a ** 3) * b ** 3 + a ** 5 + b ** 5 + 2 * a ** 2 * b ** 2 - 8 * a * b


def t_param(a: Scalar, b: Scalar) -> Optional[Scalar]:
    """t = (a^3 b - b^3 - 2 a^2) / (a^4 - a b^2 - 4 b); None means 0/0.  At
    a float point, numerator and denominator count as zero below 1e-12
    times the point's largest coordinate (at least 1) to the fourth."""
    num = a ** 3 * b - b ** 3 - 2 * a ** 2
    den = a ** 4 - a * b ** 2 - 4 * b
    if _is_exact(a, b):
        if den == 0:
            if num == 0:
                return None
            raise PoleError(f"t has a pole at ({a}, {b})")
        return Fraction(num) / Fraction(den)
    cutoff = 1e-12 * max(abs(a), abs(b), 1.0) ** 4
    if abs(den) <= cutoff:
        if abs(num) <= cutoff:
            return None
        raise PoleError(f"t has a pole at ({a}, {b})")
    return num / den


@dataclass
class EliminationResult:
    resultant: MultiPoly
    cofactor: Optional[MultiPoly]
    check: bool


def eliminate_t() -> EliminationResult:
    """Sylvester-eliminate t from -2b^2 t^3 + 2ab^2 t - 2a^2 and
    -a^2 b t^2 - a b^2 t + 2a^2; the result is exactly divisible by C'."""
    ring = PolyRing(("a", "b", "t"))
    a, b, t = (MultiPoly.var(ring, i) for i in range(3))
    f = -2 * b ** 2 * t ** 3 + 2 * a * b ** 2 * t - 2 * a ** 2
    g = -(a ** 2) * b * t ** 2 - a * b ** 2 * t + 2 * a ** 2
    res = resultant(f, g, 2)
    cof = exact_divide(res, cprime_residual(a, b))
    return EliminationResult(res, cof, cof is not None)


# -- numeric curve points ------------------------------------------------------------


def curve_points_on_grid(grid: Sequence[Fraction] = (Fraction(1), Fraction(3, 2), Fraction(1, 2))
                         ) -> List[CurvePoint]:
    """One numeric point of C' per grid value of a: the real roots in
    [-4, 4] of the quintic b -> C'(a, b) = b^5 - a^3 b^3 + 2 a^2 b^2 - 8 a b
    + a^5 (`np.roots`; real when |Im| <= 1e-7 max(1, |root|)), in ascending
    order, each Newton-polished to ~1e-15; the first whose t is finite and
    determinate, with |b| >= 1e-9, is kept.  The polish ends within a few
    ulps of the root, at a float that depends on the last bits the
    eigenvalue solver gives the root; output prints b and t at 12 digits,
    which those bits move only near a rounding boundary, and the residual
    C'(a, b) as a `Residual`."""
    points = []
    for a_exact in grid:
        a = float(a_exact)
        found = np.roots([1.0, 0.0, -a ** 3, 2 * a ** 2, -8 * a, a ** 5])
        real = found.real[np.abs(found.imag) <= 1e-7 * np.maximum(1.0, np.abs(found))]
        for root in sorted(float(r) for r in real if -4.0 <= r <= 4.0):
            for _ in range(8):
                d = -3 * a ** 3 * root ** 2 + 5 * root ** 4 + 4 * a ** 2 * root - 8 * a
                if d == 0:
                    break
                root -= cprime_residual(a, root) / d
            try:
                t = t_param(a, root)
            except PoleError:
                continue
            if t is None or abs(root) < 1e-9:
                continue
            points.append(CurvePoint(a, root, Residual(cprime_residual(a, root))))
            break
    return points


def _require_t(a: Scalar, b: Scalar) -> complex:
    t = t_param(a, b)
    if t is None:
        raise IndeterminateError(
            f"t is 0/0 at ({a}, {b}); singular parameter, pick another curve point")
    return complex(t)


def _orbit_stack(t: complex) -> np.ndarray:
    """The 25 Heisenberg-orbit images of (0 : 1 : t : -t : -1) in u-space
    as one (25, 5) array, each scaled to largest modulus 1: e1^a e2^b, in
    the order of `heisenberg.heisenberg_orbit_points`, sends the point to
    its coordinates times the phases w^(b c), rolled back by a.  They are
    distinct: the point has a zero and two non-zero coordinates, so it is
    no eigenline of a non-central element (e2^b fixes the coordinate axes,
    e1^a e2^b with a != 0 only lines with no zero coordinate), and its
    stabilizer in H_5/Z is trivial."""
    c = np.arange(5)
    twisted = np.exp(2j * np.pi * (np.outer(c, c) % 5) / 5) * np.array([0, 1, t, -t, -1])
    orbit = twisted[:, (c[:, None] + c) % 5].transpose(1, 0, 2).reshape(25, 5)
    return orbit / np.abs(orbit).max(axis=1, keepdims=True)


@dataclass
class PointModuleReport:
    t: complex
    orbit_size: int
    minor_count: int
    max_minor_residual: Residual
    ranks: List[int]

    def ok(self, tol: float) -> bool:
        """Every minor below `tol` on all 25 orbit points, rank 2 at each."""
        return self.max_minor_residual < tol and all(r == 2 for r in self.ranks)


def point_module_check(point, rank_tol: float = RANK_TOL) -> PointModuleReport:
    """Every 3x3 minor of Q(a, b) vanishes on the whole orbit of the base
    point of E', and the rank there (singular values above `rank_tol`
    relative to the largest) is 2.  Q is evaluated at the orbit, built as one
    array (`_orbit_stack`), into one stack: one `minors_float` call takes the
    minors of all of them and one `rank_float` call their ranks."""
    a, b = point
    t = _require_t(a, b)
    form = clifford_form(5, (1, complex(a), complex(b)))
    stack = form.eval_stack(_orbit_stack(t))
    worst = Residual(np.abs(minors_float(stack)).max())
    ranks = rank_float(stack, rank_tol).tolist()
    return PointModuleReport(t, len(stack), comb(5, 3) ** 2, worst, ranks)


# -- stratification ------------------------------------------------------------------

# the expected rank of Q on each stratum, in report order
STRATUM_RANKS = {"generic": 5, "det-zero": 4, "E-prime": 2}


@dataclass
class Stratum:
    """The observed ranks of one stratum; `simple` and `fat` are the
    representation profiles of its expected rank, STRATUM_RANKS[name]."""

    name: str
    points: int
    ranks: List[int]
    simple: object
    fat: object


@dataclass
class StratificationReport:
    t: complex
    strata: List[Stratum]

    def ok(self) -> bool:
        """Every stratum has points, and its expected rank at each of them."""
        return all(s.ranks and all(r == STRATUM_RANKS[s.name] for r in s.ranks)
                   for s in self.strata)


def stratify(point, samples: int = 6, seed: int = 0,
             rank_tol: float = RANK_TOL) -> StratificationReport:
    """Rank profile of Q over (i) random points of P^4, (ii) points of
    V(det Q) off E', (iii) the E' orbit; expected ranks 5 / 4 / 2.  Each
    stratum's points are ranked by one `rank_float` call."""
    a, b = point
    t = _require_t(a, b)
    form = clifford_form(5, (1, complex(a), complex(b)))

    def ranks(points) -> List[int]:
        return rank_float(form.eval_stack(points), rank_tol).tolist()

    generic = random_points(5, samples, seed)
    det_zero = sample_rank_drop_points(form, max(3, samples // 2), seed + 1, rank_tol)
    # a det-zero point that accidentally hit E' (rank 2) is skipped, not retried
    observed = {
        "generic": ranks(generic),
        "det-zero": [r for r in ranks(det_zero) if r != 2],
        "E-prime": ranks(_orbit_stack(t)),
    }
    if not observed["det-zero"]:
        raise SamplingError("no det-zero points off E' found")
    strata = [Stratum(name, len(observed[name]), observed[name],
                      simple_profile(r, 5), fat_profile(r))
              for name, r in STRATUM_RANKS.items()]
    return StratificationReport(t, strata)


# -- degree-piece ideal checks --------------------------------------------------------


def _block_rank(blocks: np.ndarray, tol: float) -> int:
    """The float rank of the block-diagonal matrix of a stack of blocks, by
    the rule of `linalg.rank_float`: its singular values are those of the
    blocks, one SVD call, counted above `tol` times the largest of all."""
    sv = np.linalg.svd(blocks, compute_uv=False)
    return int(np.count_nonzero(sv > tol * sv.max()))


def _mutual_span(vexa, vexb, tol: float) -> Tuple[bool, int, int]:
    """(span A == span B, rank A, rank B) by float ranks at relative `tol`,
    for A and B given as stacks of their e2-weight blocks (`_degree_pieces`):
    the spans are equal exactly when A, B and A stacked on B, joined within
    each block, share one rank."""
    ra, rb = _block_rank(vexa, tol), _block_rank(vexb, tol)
    return ra == rb == _block_rank(np.concatenate([vexa, vexb], axis=1), tol), ra, rb


@dataclass
class MinorIdealReport:
    t: complex
    deg6: bool
    deg8: bool
    minor3_span_dim: int
    product_span_dim: int
    minor4_span_dim: int
    qq_span_dim: int

    def ok(self) -> bool:
        return self.deg6 and self.deg8


def _degree_pieces(point) -> Tuple[complex, Tuple[np.ndarray, np.ndarray],
                                   Tuple[np.ndarray, np.ndarray]]:
    """t, and the coefficient vectors of (3x3 minors of Q, products u_j q_i)
    in degree 6 and of (4x4 minors of Q, products q_i q_j) in degree 8, from
    `minortables.minor_tables` at (a, b) and at t, each as the (5, rows/5,
    columns/5) stack of its e2-weight blocks (`CoefficientTable.blocks`)."""
    from .minortables import minor_tables  # the tables' code is compiled only when used

    a, b = point
    t = _require_t(a, b)
    tables = minor_tables()
    ab = (complex(a), complex(b))
    return (t, (tables.minors3.blocks(ab), tables.products.blocks((t,))),
            (tables.minors4.blocks(ab), tables.qq.blocks((t,))))


def minor_ideal_checks(point, span_tol: float = SPAN_TOL) -> MinorIdealReport:
    """deg6: span of the 100 cubic 3x3 minors equals span of the 25 products
    u_j q_i; deg8: span of the 25 quartic 4x4 minors equals span of the 15
    products q_i q_j.  The minors and products come from
    `minortables.minor_tables`, built once per process and evaluated at the
    point into e2-weight blocks; the spans are compared by float ranks at
    `span_tol`, five blocks to one SVD call (`_mutual_span`)."""
    t, deg6_pair, deg8_pair = _degree_pieces(point)
    deg6, minor3_dim, product_dim = _mutual_span(*deg6_pair, span_tol)
    deg8, minor4_dim, qq_dim = _mutual_span(*deg8_pair, span_tol)
    return MinorIdealReport(t, deg6, deg8, minor3_dim, product_dim, minor4_dim, qq_dim)


# -- secant identity -----------------------------------------------------------------


@dataclass
class SecantReport:
    t: complex
    lam: complex
    residual: Residual
    jac_degree: int
    det_degree: int

    def ok(self, tol: float) -> bool:
        """The determinants agree up to `tol` with a nonzero factor."""
        return self.residual < tol and abs(self.lam) > 1e-12


def secant_check(point) -> SecantReport:
    """det(dQ_i/dz_j) of the quadrics Q_i = z_i^2 + t z_{i+1} z_{i+4}
    - (1/t) z_{i+2} z_{i+3} is proportional to det Q(a, b) with u := z.
    Q_i = q_i / t, so that determinant is det(dq_i/du_j) / t^5: both
    determinants are read off `minortables.minor_tables`, at t and at
    (a, b), against the quintic monomials."""
    from .minortables import minor_tables  # the tables' code is compiled only when used

    a, b = point
    t = _require_t(a, b)
    if abs(t) < 1e-12:
        raise PoleError(f"the secant quadrics carry 1/t, and |t| = {abs(t):.3g} "
                        f"at ({a}, {b})")
    tables = minor_tables()
    jv = tables.jacobian.at((t,))[0] / t ** 5
    dv = tables.det_q.at((complex(a), complex(b)))[0]
    lam = complex(np.vdot(dv, jv) / np.vdot(dv, dv))
    residual = Residual(np.linalg.norm(jv - lam * dv) / np.linalg.norm(jv))
    # both are homogeneous quintics, of degree -1 where they vanish
    return SecantReport(t, lam, residual, 5 if jv.any() else -1, 5 if dv.any() else -1)


# -- 1-dimensional representations ----------------------------------------------------


#: The most coordinates `onedim_reps` prints, p^2: p = 101 (10,201) is the
#: largest p admitted, 1.2 s and 272 MB for `algtool sklyanin2 onedim` with
#: JSON output on a 2-CPU Intel Xeon VM with Python 3.11.7.
MAX_ONEDIM_COORDS = 10_201


def check_onedim_bound(p: int) -> None:
    """The cost of `onedim_reps` over p, stated before any work: up to p^2
    coordinates in the reps, printed as Q(w) values; above MAX_ONEDIM_COORDS
    it is a resource error."""
    if p * p > MAX_ONEDIM_COORDS:
        raise ResourceLimitError(f"onedim over p={p} prints up to {p * p} coordinates, "
                                 f"cap is {MAX_ONEDIM_COORDS}")


def onedim_reps(p: int, avec: Sequence) -> List[Tuple[Cyclotomic, ...]]:
    """All scalar representations with y_0 = 1 of cliffordC(p; a_0, ...,
    a_{(p-1)/2}), over Q(w_p); every returned tuple satisfies every defining
    relation exactly.  The catalog's relation count and `check_onedim_bound`
    refuse a large p before any work.

    With c = a_{i0} / (2 a_0) for the first a_{i0} != 0, which must be
    rational, candidate j has y_{k i0} = c^C(k,2) s^k, s = c^(-(p-1)/2) w^j.
    Candidate j is candidate 0 twisted by e2^(j/i0), y_m -> w^(j m/i0) y_m,
    and each relation a_0 {x_{k+i}, x_{k-i}} - a_i x_k^2 has the single
    e2-weight 2k, so the twist scales its value by a power of w: all p
    candidates are reps or none is.  Candidate 0 is rational, so each
    relation is checked once, in p phase buckets of its coefficients' lifts
    (`Cyclotomic.lift`)."""
    check_relation_count("cliffordC", p)
    check_onedim_bound(p)
    pres = make_presentation("cliffordC", p, *avec)
    avec = pres.params[1:]
    half = (p - 1) // 2
    i0 = next((i for i in range(1, half + 1) if avec[i]), None)
    if i0 is None:
        raise InputError("need some a_i != 0 with i >= 1")
    if avec[0] == 0:
        return []
    c = Cyclotomic.from_rational(p, 1) * avec[i0] / (2 * avec[0])
    if not c.is_rational():
        raise InputError(f"a_{i0} / (2 a_0) = {c} is not rational")
    rc, rs = c.rational_value(), (c.inverse() ** half).rational_value()
    # candidate 0 has y_{k i0} = value[k i0]; candidate j multiplies it by w^(jk)
    power, value = [0] * p, [0] * p
    for k in range(p):
        power[k * i0 % p] = k
        value[k * i0 % p] = rc ** comb(k, 2) * rs ** k
    lifts = {}  # each distinct coefficient is lifted once
    for rel in pres.relations:
        buckets = [0] * p
        for (w0, w1), coeff in rel:
            if coeff not in lifts:
                lifts[coeff] = coeff.lift() if isinstance(coeff, Cyclotomic) else ((0, coeff),)
            y = value[w0] * value[w1]
            for k, r in lifts[coeff]:
                buckets[k] += r * y
        if buckets.count(buckets[0]) != p:
            return []
    return [tuple(Cyclotomic.zeta(p, j * power[m]) * value[m] for m in range(p))
            for j in range(p)]


# -- informational curve geometry ------------------------------------------------------


def curve_singularity_report() -> dict:
    """Partials of the projective closure of C' at (2 : 2 : 1); informational
    (the homogenization convention is ours, degree 6 with variable c)."""
    ring = PolyRing(("a", "b", "c"))
    a, b, c = (MultiPoly.var(ring, i) for i in range(3))
    closure = (-(a ** 3) * b ** 3 + a ** 5 * c + b ** 5 * c
               + 2 * a ** 2 * b ** 2 * c ** 2 - 8 * a * b * c ** 4)
    at = [Fraction(2), Fraction(2), Fraction(1)]
    partials = [closure.partial(i).eval(at) for i in range(3)]
    return {
        "closure": closure,
        "point": "(2 : 2 : 1)",
        "partials": partials,
        "singular": all(v == 0 for v in partials),
    }

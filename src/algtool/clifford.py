"""Graded Clifford algebras from symmetric forms of central quadrics: the
forms of the catalog, representation profiles, explicit complex matrices and
points where the rank drops.

The symmetric form M is a `PolyMatrix` whose entries are linear in central
degree-2 variables u_0..u_{n-1} (u_k = x_k^2), so x-degrees double u-degrees
throughout: `M.eval(point)` specializes it at an exact point,
`M.eval_stack(points)` at any number of complex points as one numpy stack,
`linalg.rank_float` ranks a matrix or a whole stack, `poly.mat_det(M)` is
its determinant, and the points of a line where the rank drops are
eigenvalues of the pencil of M along it.  Rank at a point decides
everything (L. Le Bruyn, "Central singularities of quantum spaces", J.
Algebra 177, 1995): odd rank k gives two simple representations of
dimension 2^((k-1)/2) and one fat point of multiplicity 2^((k-1)/2); even
rank k gives one simple representation of dimension 2^(k/2) and two fat
points of multiplicity 2^(k/2 - 1).  The forms of the catalog are those of
cliffordC(p; a_0, ..., a_{(p-1)/2}), built from the parameters alone by
`clifford_form`.  `build_reps` checks the matrices it builds by all n^2
anticommutator residuals at once, and reports the largest as a
`linalg.Residual`, which output prints as 0.0 below 1e-12.  Every seeded
sampler of the package draws from `Draw`, one stream of
`random.Random(seed).random()`, so numpy's generators are never loaded.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ConditioningError, InputError, ResourceLimitError, SamplingError
from .linalg import RANK_TOL, Residual
from .poly import MultiPoly, PolyMatrix, PolyRing


# -- representation profiles -----------------------------------------------------


@dataclass(frozen=True)
class SimpleProfile:
    count: int
    dim: int


@dataclass(frozen=True)
class FatProfile:
    count: int
    multiplicity: int


def simple_profile(k: int, n: int) -> SimpleProfile:
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} out of range for size {n}")
    if k % 2:
        return SimpleProfile(2, 2 ** ((k - 1) // 2))
    return SimpleProfile(1, 2 ** (k // 2))


def fat_profile(k: int) -> FatProfile:
    if k < 1:
        raise ValueError("no graded point at rank 0")
    if k % 2:
        return FatProfile(1, 2 ** ((k - 1) // 2))
    return FatProfile(2, 2 ** (k // 2 - 1))


# -- explicit matrix representations -----------------------------------------------

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@cache
def standard_gammas(k: int) -> Tuple[np.ndarray, ...]:
    """k matrices of size 2^floor(k/2) with gamma_i gamma_j + gamma_j gamma_i
    = 2 delta_ij; the odd slot is the chirality product Z x ... x Z.  Built
    once per k and read-only, since every caller shares them."""
    m = k // 2
    dim = 2 ** m
    gammas = []
    for j in range(m):
        for pauli in (_PAULI_X, _PAULI_Y):
            mat = np.eye(1, dtype=complex)
            for t in range(m):
                if t < j:
                    block = _PAULI_Z
                elif t == j:
                    block = pauli
                else:
                    block = np.eye(2, dtype=complex)
                mat = np.kron(mat, block)
            gammas.append(mat)
    if k % 2:
        mat = np.eye(1, dtype=complex)
        for _ in range(m):
            mat = np.kron(mat, _PAULI_Z)
        gammas.append(mat)
    for g in gammas:
        assert g.shape == (dim, dim)
        g.setflags(write=False)
    return tuple(gammas)


def _symmetric_square_root_factors(m: np.ndarray, rank: int) -> np.ndarray:
    """S with m = S S^T (n x rank), by congruence pivoting on directions u
    with u^T m u != 0; complex symmetric input.  Pivots below 1e-9 of the
    largest entry (at least 1) count as zero."""
    tol = 1e-9
    n = m.shape[0]
    work = m.astype(complex).copy()
    scale = max(np.abs(m).max(), 1.0)
    cols = []
    for _ in range(rank):
        diag = np.abs(np.diag(work))
        i = int(np.argmax(diag))
        if diag[i] > tol * scale:
            u = np.zeros(n, dtype=complex)
            u[i] = 1.0
        else:
            off = np.abs(work)
            np.fill_diagonal(off, 0.0)
            j, l = np.unravel_index(int(np.argmax(off)), off.shape)
            if off[j, l] <= tol * scale:
                raise ConditioningError(
                    f"matrix ran out of pivots before reaching rank {rank}")
            u = np.zeros(n, dtype=complex)
            u[j] = 1.0
            u[l] = 1.0
        pivot = u @ work @ u
        if abs(pivot) <= tol * scale:
            raise ConditioningError("pivot vanished during factorization")
        v = (work @ u) / np.sqrt(pivot)
        cols.append(v)
        work = work - np.outer(v, v)
    if np.abs(work).max() > max(np.sqrt(tol), tol * 100) * scale:
        raise ConditioningError(
            f"residual {np.abs(work).max():.2e} after {rank} pivots; rank understated")
    return np.column_stack(cols) if cols else np.zeros((n, 0), dtype=complex)


@dataclass
class CliffordReps:
    tuples: List[List[np.ndarray]]
    chirality: List[complex]    # scalar of the diagonalized-generator product
    max_residual: Residual


def build_reps(matrix, rank: int) -> CliffordReps:
    """Matrices X_1..X_n with X_i X_j + X_j X_i = M_ij * Id, dimension and
    count per simple_profile(rank); odd rank yields the two inequivalent
    choices (sign flip of the last diagonalized generator).  The X_i of every
    choice are one stack, their products one matmul, and the n^2 residuals
    per choice, the Frobenius norms of X_i X_j + X_j X_i - M_ij Id over
    |M|_max + 1, are one vectorized norm; `max_residual` is the largest."""
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("build_reps needs a symmetric square matrix")
    scale = np.abs(m).max() + 1.0
    # np.allclose(m, m.T, atol=1e-10 * scale) written out; a non-finite
    # entry makes the scale, and so the check, fail
    atol = 1e-10 * scale
    if not np.isfinite(atol) or (np.abs(m - m.T) > atol + 1e-5 * np.abs(m.T)).any():
        raise ValueError("build_reps needs a symmetric square matrix")
    profile = simple_profile(rank, n)
    s = _symmetric_square_root_factors(m, rank)
    variants = [standard_gammas(rank)]
    if profile.count == 2:
        flipped = list(variants[0])
        if rank:
            flipped[-1] = -flipped[-1]
        variants.append(flipped)
    dim = 2 ** (rank // 2)
    target = m[:, :, None, None] * np.eye(dim)
    stacks = []
    chirality = []
    for gammas in variants:
        xs = np.zeros((n, dim, dim), dtype=complex)
        for r in range(rank):
            xs += s[:, r, None, None] * gammas[r]
        stacks.append(xs / np.sqrt(2.0))
        top = np.eye(dim, dtype=complex)
        for g in gammas:
            top = top @ g
        chirality.append(complex(np.trace(top) / dim))
    xs = np.stack(stacks)
    prod = np.matmul(xs[:, :, None], xs[:, None, :])
    err = (prod + prod.swapaxes(1, 2) - target).reshape(-1, dim * dim)
    residual = np.sqrt((err.real ** 2 + err.imag ** 2).sum(axis=1)).max() / scale
    return CliffordReps([list(x) for x in stacks], chirality, Residual(residual))


# -- forms of the catalog -----------------------------------------------------------


def clifford_form(p: int, avec: Sequence) -> PolyMatrix:
    """The form of cliffordC(p; a_0, ..., a_{(p-1)/2}), whose relations
    a_0 {x_{k+i}, x_{k-i}} = a_i x_k^2 make it a graded Clifford algebra over
    the central u_k = x_k^2: M_kk = 2 u_k and M_{k+i,k-i} = M_{k-i,k+i} =
    (a_i / a_0) u_k for 1 <= i <= (p-1)/2 (indices mod p), a_0 nonzero.
    An int a_i is taken as a Fraction, so a_i / a_0 is exact when both are
    ints or Fractions, and a float or complex otherwise; the p = 5 form is
    sklyanin2's Q(a, b) = clifford_form(5, (1, a, b))."""
    avec = [Fraction(a) if isinstance(a, int) else a for a in avec]
    ring = PolyRing(tuple(f"u{k}" for k in range(p)))
    u = [MultiPoly.var(ring, k) for k in range(p)]
    rows = [[None] * p for _ in range(p)]
    for k in range(p):
        rows[k][k] = 2 * u[k]
        for i in range(1, (p + 1) // 2):
            entry = avec[i] / avec[0] * u[k]
            rows[(k + i) % p][(k - i) % p] = rows[(k - i) % p][(k + i) % p] = entry
    return PolyMatrix(p, p, [e for row in rows for e in row])


MAX_SAMPLES = 10_000  # the largest sample count of a sampler


def check_sample_bound(count: int) -> None:
    """A negative sample count is an input error, one above MAX_SAMPLES a
    resource error."""
    if count < 0:
        raise InputError(f"sample count must be non-negative, got {count}")
    if count > MAX_SAMPLES:
        raise ResourceLimitError(f"sample count {count} is above {MAX_SAMPLES}")


class Draw:
    """The seeded draws of every sampler: one stream of
    `random.Random(seed).random()`, which Python promises to repeat for a
    seed across its versions and platforms (the "Notes on Reproducibility"
    of `random`); numpy's `Generator` streams may change between releases.

    `uniform(shape)` is 2 random() - 1 per entry, uniform on [-1, 1) in
    row-major order; `integers(lo, hi)` is lo + int(random() (hi - lo)), in
    lo..hi-1.  Both are exact IEEE arithmetic with no libm call, so a seed
    gives the same draws on every platform.  Uniform coordinates serve
    every check as Gaussian ones would: each only needs its points off a
    proper subvariety, which a draw from any density misses almost
    surely."""

    def __init__(self, seed: int):
        self._random = random.Random(seed).random

    def uniform(self, shape) -> np.ndarray:
        count = math.prod(shape) if isinstance(shape, tuple) else shape
        # random() never returns None: an endless stream, of which fromiter
        # reads exactly `count`
        values = np.fromiter(iter(self._random, None), float, count)
        return (2.0 * values - 1.0).reshape(shape)

    def integers(self, lo: int, hi: int) -> int:
        return lo + int(self._random() * (hi - lo))


def random_points(n: int, count: int, seed: int) -> List[np.ndarray]:
    """`count` seeded points of C^n, each scaled to largest modulus 1; the
    count is checked by `check_sample_bound`."""
    check_sample_bound(count)
    draw = Draw(seed)
    points = []
    for _ in range(count):
        pt = draw.uniform(n) + 1j * draw.uniform(n)
        points.append(pt / np.abs(pt).max())
    return points


def sample_rank_drop_points(form: PolyMatrix, count: int, seed: int,
                            tol: float = RANK_TOL) -> List[np.ndarray]:
    """Points on V(det M) from random complex lines base + s * direction: with
    B = M(base) and D = M(direction), det(B + s D) = 0 at the eigenvalues of
    -D^-1 B (the generalized eigenproblem; C. Moler and G. Stewart, SIAM J.
    Numer. Anal. 10, 1973), and the one of least modulus is taken.  A line
    with D singular or a root or point not finite is skipped; a point counts
    when |det M| <= sqrt(tol) there, scaled to largest modulus 1.  The search
    is silent on overflow.  SamplingError after 40 lines per requested point;
    the count is checked by `check_sample_bound`.

    The lines still missing are drawn, in stream order, and taken as one
    batch: two `eval_stack` calls and stacked `solve`, `eigvals` and `det`.
    A batch whose stacked `solve` or `eigvals` raises is taken one line at a
    time, so each line is skipped or kept as if it were alone."""
    check_sample_bound(count)
    sample = Draw(seed)
    n = form.ring.nvars
    out = []
    budget = 40 * max(count, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        while len(out) < count:
            lines = min(count - len(out), budget)
            if lines == 0:
                raise SamplingError("could not locate enough det-zero points")
            budget -= lines
            draw = sample.uniform((lines, 4, n))
            base, direction = draw[:, 0] + 1j * draw[:, 1], draw[:, 2] + 1j * draw[:, 3]
            b, d = form.eval_stack(np.concatenate([base, direction])).reshape(2, lines, n, n)
            try:
                roots = np.linalg.eigvals(-np.linalg.solve(d, b))
            except np.linalg.LinAlgError:
                roots = np.full((lines, n), np.nan, dtype=complex)
                for i in range(lines):
                    try:
                        roots[i] = np.linalg.eigvals(-np.linalg.solve(d[i], b[i]))
                    except np.linalg.LinAlgError:
                        pass
            least = roots[np.arange(lines), np.argmin(np.abs(roots), axis=1)]
            points = base + least[:, None] * direction
            norms = np.abs(points).max(axis=1)
            kept = np.isfinite(roots).all(axis=1) & (norms != 0) & np.isfinite(norms)
            points = points[kept] / norms[kept, None]
            dets = np.linalg.det(form.eval_stack(points))
            out += [pt for pt, det in zip(points, dets) if abs(det) <= np.sqrt(tol)]
    return out

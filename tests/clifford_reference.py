"""Test-only reference: the Clifford float numerics one line, one pair and
one point at a time, as `clifford` and `sklyanin2` computed them before
they worked on numpy stacks.  Rank-drop points came from the determinant
along each line expanded symbolically and handed to `np.poly1d`, then from
numpy's solve and eigenvalues one line at a time, `build_reps`
took one product and one `np.linalg.norm` per pair, and the
`clifford-strata` handler evaluated and ranked each point on its own."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from algtool import clifford
from algtool.cli import emit, float_safe, parse_scalar
from algtool.clifford import _symmetric_square_root_factors, simple_profile, standard_gammas
from algtool.errors import SamplingError
from algtool.linalg import rank_float
from algtool.poly import MultiPoly, PolyMatrix, PolyRing, mat_det


def assert_stack_is_eval(form: PolyMatrix, points, stack) -> None:
    """Each entry c u_k of `stack`, `form.eval_stack(points)`, is within
    4 eps |c| |u_k| of `form.eval` at its point, and each zero entry is
    exactly 0: numpy's complex multiply may fuse a multiply and an add,
    Python's does not, and each is within about 2.2 eps of the exact
    product."""
    eps = np.finfo(float).eps
    entries = [entry.items() for entry in form.entries]
    assert stack.shape == (len(points), form.rows, form.cols)
    for pt, got in zip(points, stack):
        want = np.asarray(form.eval(pt), dtype=complex).ravel()
        for value, ref, terms in zip(got.ravel(), want, entries):
            if not terms:
                assert value == 0 and ref == 0
                continue
            ((exps, c),) = terms
            assert abs(value - ref) <= 4 * eps * abs(c) * abs(pt[exps.index(1)])


def det_along_line(form: PolyMatrix, base: np.ndarray, direction: np.ndarray) -> np.poly1d:
    """det M(base + s * direction) as a numpy polynomial in s."""
    ring = PolyRing(("s",))
    s_var = MultiPoly.var(ring, 0)
    at_base = form.eval([complex(v) for v in base])
    slope = form.eval([complex(v) for v in direction])
    entries = [MultiPoly.const(ring, b) + s_var * d
               for row_b, row_d in zip(at_base, slope) for b, d in zip(row_b, row_d)]
    det = mat_det(PolyMatrix(form.rows, form.cols, entries))
    deg = det.total_degree()
    coeffs = [0j] * (deg + 1)
    for (k,), c in det.items():
        coeffs[deg - k] = c
    return np.poly1d(coeffs)


def random_lines(n: int, count: int, seed: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The first `count` (base, direction) pairs that the sampler draws from
    `seed`, entry by entry: the real parts of base, its imaginary parts,
    then those of direction."""
    draw = clifford.Draw(seed)
    lines = []
    for _ in range(count):
        base = [complex(draw.uniform(1)[0]) for _ in range(n)]
        base = [complex(v, draw.uniform(1)[0]) for v in base]
        direction = [complex(draw.uniform(1)[0]) for _ in range(n)]
        direction = [complex(v, draw.uniform(1)[0]) for v in direction]
        lines.append((np.array(base), np.array(direction)))
    return lines


def rank_drop_points(form: PolyMatrix, count: int, seed: int,
                     tol: float = 1e-8) -> List[np.ndarray]:
    """The sampler with each line's roots taken from `det_along_line`."""
    out = []
    for base, direction in random_lines(form.ring.nvars, 40 * max(count, 1), seed):
        if len(out) == count:
            return out
        poly = det_along_line(form, base, direction)
        if poly.order < 1 or not np.isfinite(poly.coeffs).all():
            continue
        roots = poly.r
        point = base + roots[int(np.argmin(np.abs(roots)))] * direction
        point = point / np.abs(point).max()
        if abs(np.linalg.det(form.eval(list(point)))) <= np.sqrt(tol):
            out.append(point)
    if len(out) < count:
        raise SamplingError("could not locate enough det-zero points")
    return out


def rank_drop_points_per_line(form: PolyMatrix, count: int, seed: int,
                              tol: float = 1e-8) -> List[np.ndarray]:
    """The sampler with one `solve`, `eigvals` and `det` per line, each
    line's (4, n) entries drawn on their own."""
    sample = clifford.Draw(seed)
    out = []
    attempts = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while len(out) < count:
            attempts += 1
            if attempts > 40 * max(count, 1):
                raise SamplingError("could not locate enough det-zero points")
            draw = sample.uniform((4, form.ring.nvars))
            base, direction = draw[0] + 1j * draw[1], draw[2] + 1j * draw[3]
            b, d = form.eval_stack([base, direction])
            try:
                roots = np.linalg.eigvals(-np.linalg.solve(d, b))
            except np.linalg.LinAlgError:
                continue
            if not np.isfinite(roots).all():
                continue
            point = base + roots[int(np.argmin(np.abs(roots)))] * direction
            norm = np.abs(point).max()
            if norm == 0 or not np.isfinite(norm):
                continue
            point = point / norm
            if abs(np.linalg.det(form.eval_stack(point)[0])) <= np.sqrt(tol):
                out.append(point)
    return out


def build_reps_pairwise(matrix, rank: int):
    """(tuples, chirality, residual) of `build_reps`, each X_i summed on
    its own and each residual one `np.linalg.norm` of one pair."""
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    s = _symmetric_square_root_factors(m, rank)
    variants = [standard_gammas(rank)]
    if simple_profile(rank, n).count == 2:
        flipped = list(variants[0])
        if rank:
            flipped[-1] = -flipped[-1]
        variants.append(flipped)
    dim = 2 ** (rank // 2)
    eye = np.eye(dim)
    tuples, chirality, residual = [], [], 0.0
    scale = np.abs(m).max() + 1.0
    for gammas in variants:
        xs = []
        for i in range(n):
            x = np.zeros((dim, dim), dtype=complex)
            for r in range(rank):
                x += s[i, r] * gammas[r]
            xs.append(x / np.sqrt(2.0))
        top = np.eye(dim, dtype=complex)
        for g in gammas:
            top = top @ g
        chirality.append(complex(np.trace(top) / dim))
        prod = [[xi @ xj for xj in xs] for xi in xs]
        for i in range(n):
            for j in range(n):
                err = np.linalg.norm(prod[i][j] + prod[j][i] - m[i, j] * eye)
                residual = max(residual, err / scale)
        tuples.append(xs)
    return tuples, chirality, residual


def clifford_strata_per_point(args) -> int:
    """The `clifford-strata` handler with each point's form taken by
    `PolyMatrix.eval` and ranked by its own `rank_float` call."""
    form = clifford.clifford_form(3, (1, float_safe(parse_scalar(args.t, "exact"), "--t")))

    def record(point) -> dict:
        mat = form.eval(list(point))
        rank = rank_float(mat, args.tol_rank)
        return {
            "point": point.tolist(),
            "rank": rank,
            "simple": clifford.simple_profile(rank, form.rows),
            "fat": clifford.fat_profile(rank) if rank else None,
            "residuals": clifford.build_reps(mat, rank).max_residual,
        }

    generic = clifford.random_points(form.rows, args.samples, args.seed)
    drops = clifford.sample_rank_drop_points(form, max(2, args.samples // 2),
                                             args.seed + 1, args.tol_rank)
    return emit({"t": args.t, "strata": [record(pt) for pt in generic + drops]}, args)

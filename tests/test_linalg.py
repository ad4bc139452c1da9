import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from algtool.cyclotomic import Cyclotomic
from algtool.linalg import RowSpace, integral, minors_float, rank_float
from algtool.poly import MultiPoly, PolyMatrix, PolyRing, mat_minors
from heisenberg_reference import nullspace_exact
from rank_reference import minors_det, rank_one


def test_rowspace_reduce_and_rank():
    space = RowSpace()
    assert space.insert(integral({0: Fraction(1), 2: Fraction(2)})[0])
    assert space.insert(integral({1: Fraction(3)})[0])
    assert not space.insert(integral({0: Fraction(2), 1: Fraction(3), 2: Fraction(4)})[0])
    assert space.rank == 2
    residue = space.reduce(integral({0: Fraction(1), 3: Fraction(1)})[0])
    assert set(residue) == {2, 3}


def test_rowspace_rref_rows_contain_no_foreign_pivots():
    rng = random.Random(0)
    space = RowSpace()
    for _ in range(30):
        vec = {rng.randint(0, 9): Fraction(rng.randint(-4, 4)) for _ in range(4)}
        vec = {k: v for k, v in vec.items() if v}
        if vec:
            space.insert(integral(vec)[0])
    pivots = set(space.rows)
    for pivot, row in sorted(space.rows.items()):
        assert row[pivot] == 1
        assert all(c == pivot or c not in pivots for c in row)


def test_rowspace_same_space_under_insertion_order():
    rng = random.Random(4)
    vecs = []
    for _ in range(12):
        vec = {rng.randint(0, 7): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        vecs.append({k: v for k, v in vec.items() if v})
    s1, s2 = RowSpace(), RowSpace()
    for v in vecs:
        if v:
            s1.insert(integral(v)[0])
    for v in reversed(vecs):
        if v:
            s2.insert(integral(v)[0])
    assert s1.rows == s2.rows


def test_rowspace_same_space_across_row_fields():
    """A rational row of a Q(w) space is stored as an integer row when it is
    inserted as such, and with pivot entry 1 when Q(w) arithmetic made it:
    the pivot-1 `rows` views still compare the spaces, not the storage."""
    w = Cyclotomic.zeta(5)
    a = {0: Fraction(1), 1: w}
    b = {1: w, 2: Fraction(1, 2)}
    r = {0: Fraction(2), 2: Fraction(-1)}  # 2 (a - b)
    s1, s2 = RowSpace(), RowSpace()
    for v in (a, b):
        s1.insert(integral(v)[0])
    for v in (r, b):
        s2.insert(integral(v)[0])
    assert s1.rows == s2.rows
    assert s1.rows[0] == s2.rows[0] == {0: 1, 2: Fraction(-1, 2)}
    s2.insert(integral({3: Fraction(1)})[0])
    assert s1.rows != s2.rows


def test_nullspace():
    basis = nullspace_exact([[Fraction(1), Fraction(1), Fraction(0)]])
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] + vec[1] == 0 or vec[2] == 1


def test_rank_float_scale_floor():
    rng = np.random.default_rng(0)
    noise = 1e-14 * rng.standard_normal((3, 3))
    assert rank_float(noise, 1e-8) == 3  # relative rank of pure noise
    assert rank_float(noise, 1e-8, scale=1.0) == 0


def test_rank_float_default_cutoff_on_both_sides():
    # the smallest singular value at 1e-6 and at 1e-10 of the largest, a
    # factor 10^2 above and below RANK_TOL = 1e-8: it counts in the first
    # matrix only, and a cutoff 10^3 times larger or smaller misreads one
    assert rank_float(np.diag([3.0, 1.0, 3e-6])) == 3
    assert rank_float(np.diag([3.0, 1.0, 3e-10])) == 2
    assert rank_float(np.stack([np.diag([3.0, 1.0, 3e-6]), np.diag([3.0, 1.0, 3e-10])])
                      ).tolist() == [3, 2]


def test_rank_float_shapes():
    assert rank_float(np.eye(3)) == 3 and type(rank_float(np.eye(3))) is int
    assert rank_float([]) == 0 and rank_float(np.zeros((3, 0))) == 0
    assert rank_float([1, 0, 2]) == 1  # a vector is one row
    stack = np.stack([np.eye(4), np.diag([1.0, 1.0, 0.0, 0.0]), np.zeros((4, 4))])
    assert rank_float(stack).tolist() == [4, 2, 0]
    assert rank_float(stack.reshape(3, 1, 4, 4)).shape == (3, 1)
    assert rank_float(np.zeros((0, 4, 4))).shape == (0,)


def planted(rng, rows, cols, rank, magnitude):
    """A complex rows x cols matrix of rank `rank` (all zero at rank 0), with
    entries of about `magnitude`."""
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    return magnitude * (left @ right)


@seed(20141222)
@settings(max_examples=80, deadline=None, database=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)),
       draws=st.lists(st.tuples(st.integers(0, 6), st.sampled_from([1.0, 1e3, 1e-14])),
                      min_size=4, max_size=4),
       tol=st.sampled_from([1e-8, 1e-3]), scale=st.sampled_from([None, 1.0]),
       rng_seed=st.integers(0, 2 ** 32 - 1))
def test_batched_rank_matches_per_matrix_reference(shape, draws, tol, scale, rng_seed):
    # each matrix of the stack is ranked against its own largest singular
    # value, floored at `scale`: a 1e-14 matrix is full-rank noise without
    # the floor and rank 0 with it, whatever the other matrices hold
    batch, rows, cols = shape
    rng = np.random.default_rng(rng_seed)
    ranks = [min(r, rows, cols) for r, _mag in draws[:batch]]
    stack = np.stack([planted(rng, rows, cols, r, mag)
                      for r, (_r, mag) in zip(ranks, draws)])
    got = rank_float(stack, tol, scale)
    assert got.shape == (batch,)
    assert got.tolist() == [rank_one(m, tol, scale) for m in stack]
    for r, (_r, mag), g in zip(ranks, draws, got):
        if tol == 1e-8:
            assert g == (0 if scale and mag < 1 else r)


@pytest.mark.parametrize("shape", [(3, 5), (5, 5), (4, 3), (2, 3)])
def test_minors_float_matches_mat_minors_in_order(shape):
    # a matrix with fewer than 3 rows has no 3 x 3 minor
    rng = np.random.default_rng(sum(shape))
    ring = PolyRing(())
    for _ in range(5):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        poly = PolyMatrix(*shape, [MultiPoly.const(ring, complex(v)) for v in a.ravel()])
        expected = ([dict(m.items()).get((), 0j) for m in mat_minors(poly, 3)]
                    if min(shape) >= 3 else [])
        got = minors_float(a)
        assert got.shape == (len(expected),)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)
        # leading axes are batch axes
        assert np.array_equal(minors_float(np.stack([a, 2 * a]))[0], got)


def rank_deficient(rng, shape, rank):
    """A complex matrix of the shape and rank, as a product of two random
    factors."""
    left = rng.standard_normal((shape[0], rank)) + 1j * rng.standard_normal((shape[0], rank))
    right = rng.standard_normal((rank, shape[1])) + 1j * rng.standard_normal((rank, shape[1]))
    return left @ right


@pytest.mark.parametrize("batch", [(), (7,), (4, 6)])
@pytest.mark.parametrize("shape", [(3, 3), (3, 5), (5, 5), (6, 4)])
def test_minors_float_is_the_lu_determinant_of_each_submatrix(batch, shape):
    # oracle: np.linalg.det of the same submatrices; full-rank, rank-2
    # (every minor 0) and rank-1 stacks, at scales 1e-8..1e8
    rng = np.random.default_rng(len(batch) * 31 + sum(shape))
    for rank in (min(shape), 2, 1):
        stack = np.stack([rank_deficient(rng, shape, rank) * 10.0 ** rng.integers(-8, 9)
                          for _ in range(int(np.prod(batch)))]).reshape(*batch, *shape)
        got, want = minors_float(stack), minors_det(stack)
        assert got.shape == want.shape == (*batch, comb(shape[0], 3) * comb(shape[1], 3))
        # a 3 x 3 minor is a sum of six triple products; each agrees to a
        # few ulps of the largest of them
        size = np.abs(stack).max(axis=(-2, -1), keepdims=True)[..., 0]
        assert (np.abs(got - want) <= 1e-12 * size ** 3).all()

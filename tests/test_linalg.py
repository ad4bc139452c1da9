import random
from fractions import Fraction

import numpy as np
import pytest

from algtool.cyclotomic import Cyclotomic
from algtool.linalg import RowSpace, minors_float, nullspace_exact, rank_float
from algtool.poly import MultiPoly, PolyMatrix, mat_minors, ring_cc


def test_rowspace_reduce_and_rank():
    space = RowSpace()
    assert space.insert({0: Fraction(1), 2: Fraction(2)})
    assert space.insert({1: Fraction(3)})
    assert not space.insert({0: Fraction(2), 1: Fraction(3), 2: Fraction(4)})
    assert space.rank == 2
    residue = space.reduce({0: Fraction(1), 3: Fraction(1)})
    assert set(residue) == {2, 3}


def test_rowspace_rref_rows_contain_no_foreign_pivots():
    rng = random.Random(0)
    space = RowSpace()
    for _ in range(30):
        vec = {rng.randint(0, 9): Fraction(rng.randint(-4, 4)) for _ in range(4)}
        vec = {k: v for k, v in vec.items() if v}
        if vec:
            space.insert(vec)
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
            s1.insert(dict(v))
    for v in reversed(vecs):
        if v:
            s2.insert(dict(v))
    assert s1.same_space(s2)


def test_rowspace_same_space_across_row_fields():
    """A rational row of a Q(w) space is stored as an integer row when it is
    inserted as such, and with pivot entry 1 when Q(w) arithmetic made it:
    same_space still compares the spaces, not the storage."""
    w = Cyclotomic.zeta(5)
    a = {0: Fraction(1), 1: w}
    b = {1: w, 2: Fraction(1, 2)}
    r = {0: Fraction(2), 2: Fraction(-1)}  # 2 (a - b)
    s1, s2 = RowSpace(), RowSpace()
    for v in (a, b):
        s1.insert(v)
    for v in (r, b):
        s2.insert(v)
    assert s1.same_space(s2) and s2.same_space(s1)
    assert s1.rows[0] == s2.rows[0] == {0: 1, 2: Fraction(-1, 2)}
    s2.insert({3: Fraction(1)})
    assert not s1.same_space(s2)


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


@pytest.mark.parametrize("shape, k", [((3, 5), 3), ((5, 5), 3), ((4, 3), 2), ((2, 3), 1)])
def test_minors_float_matches_mat_minors_in_order(shape, k):
    rng = np.random.default_rng(sum(shape) + k)
    ring = ring_cc(())
    for _ in range(5):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        poly = PolyMatrix(*shape, [MultiPoly.const(ring, complex(v)) for v in a.ravel()])
        expected = [m.terms.get((), 0j) for m in mat_minors(poly, k)]
        got = minors_float(a, k)
        assert got.shape == (len(expected),)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)
        # leading axes are batch axes
        assert np.array_equal(minors_float(np.stack([a, 2 * a]), k)[0], got)

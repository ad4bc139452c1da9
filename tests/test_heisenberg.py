import ast
import random
from pathlib import Path

import pytest

from algtool.cyclotomic import Cyclotomic
from algtool.errors import ModulusError
from algtool.heisenberg import (HeisenbergElement, LinearCharacter, SimpleRep,
                                all_irreducibles, apply_element, conjugacy_classes,
                                heisenberg_orbit_points, parse_element,
                                projective_fixed_points, subgroup_generators)
from algtool.selftest import orthogonal_rows
from heisenberg_reference import nullspace_eigenlines, rep_matrix


def mat_mul_exact(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), 0 * a[i][0])
             for j in range(len(b[0]))] for i in range(len(a))]


def random_element(rng, p):
    return HeisenbergElement(p, rng.randrange(p), rng.randrange(p), rng.randrange(p))


def test_commutation_rule():
    p = 5
    e1 = HeisenbergElement(p, 1, 0, 0)
    e2 = HeisenbergElement(p, 0, 1, 0)
    assert e2 * e1 == HeisenbergElement(p, 1, 1, p - 1)  # e2 e1 = e1 e2 z^(p-1)
    assert e1 * e2 == HeisenbergElement(p, 1, 1, 0)


def test_group_axioms():
    rng = random.Random(0)
    for p in (3, 5):
        identity = HeisenbergElement(p)
        e1 = HeisenbergElement(p, 1, 0, 0)
        assert e1 ** p == identity
        for _ in range(25):
            g, h, k = (random_element(rng, p) for _ in range(3))
            assert g * g.inverse() == identity
            assert (g * h) * k == g * (h * k)


def test_rep_matrix_is_homomorphism():
    rng = random.Random(1)
    for p, index in ((3, 1), (5, 2)):
        rep = SimpleRep(p, index)
        for _ in range(100 if p == 3 else 40):
            g, h = random_element(rng, p), random_element(rng, p)
            lhs = rep_matrix(rep, g * h)
            rhs = mat_mul_exact(rep_matrix(rep, g), rep_matrix(rep, h))
            assert lhs == rhs


def test_rep_matrix_shapes_and_characters():
    rep = SimpleRep(3, 1)
    e1 = rep_matrix(rep, HeisenbergElement(3, 1, 0, 0))
    # cyclic shift: x_c -> x_{c-1}, so row (c-1) column c is 1
    for c in range(3):
        assert e1[(c - 1) % 3][c] == 1
    z = rep_matrix(SimpleRep(5, 2), HeisenbergElement(5, 0, 0, 1))
    for i in range(5):
        assert z[i][i] == Cyclotomic.zeta(5, 2)

    rep5 = SimpleRep(5, 1)
    g = HeisenbergElement(5, 1, 1, 0)
    mat = rep_matrix(rep5, g)
    trace = sum((mat[i][i] for i in range(5)), Cyclotomic(5))
    assert trace.is_zero()
    assert rep5.character(g).is_zero()

    assert SimpleRep(3, 1).character(HeisenbergElement(3, 0, 0, 1)) == Cyclotomic.zeta(3) * 3
    assert SimpleRep(5, 1).character(HeisenbergElement(5)) == 5
    assert SimpleRep(5, 1).character(HeisenbergElement(5, 2, 1, 0)).is_zero()


def test_character_equals_matrix_trace():
    rng = random.Random(2)
    rep = SimpleRep(5, 3)
    for _ in range(20):
        g = random_element(rng, 5)
        mat = rep_matrix(rep, g)
        trace = sum((mat[i][i] for i in range(5)), Cyclotomic(5))
        assert trace == rep.character(g)


def test_conjugacy_classes():
    for p, count in ((3, 11), (5, 29)):
        classes = conjugacy_classes(p)
        assert len(classes) == count == p * p + p - 1
        assert sum(size for _, size in classes) == p ** 3
        central = [g for g, size in classes if size == 1]
        assert len(central) == p and all(g.is_central() for g in central)
    with pytest.raises(ModulusError):
        conjugacy_classes(4)


def test_character_table_orthogonality_p3():
    p = 3
    classes = conjugacy_classes(p)
    reps = all_irreducibles(p)
    assert len(reps) == p * p + p - 1
    for v in reps:
        for w in reps:
            acc = Cyclotomic(p)
            for g, size in classes:
                acc = acc + v.character(g) * w.character(g).galois(p - 1) * size
            assert acc == (p ** 3 if v == w else 0)


def heisenberg_table(p):
    """(rows, class sizes) of the character table of H_p."""
    classes = conjugacy_classes(p)
    rows = [[v.character(g) for g, _size in classes] for v in all_irreducibles(p)]
    return rows, [size for _g, size in classes]


def orthogonal_reference(rows, sizes, order):
    """The Cyclotomic loop of the test above on a given table: every pair's
    class sum in Q(w), compared with `order` on the diagonal and 0 off it."""
    p = rows[0][0].p
    for i, chi in enumerate(rows):
        for j, psi in enumerate(rows):
            acc = Cyclotomic(p)
            for x, y, size in zip(chi, psi, sizes):
                acc = acc + x * y.galois(p - 1) * size
            if acc != (order if i == j else 0):
                return False
    return True


def perturbed_tables(p, rng):
    """The table of H_p with one nonzero value changed, each with a label:
    times w, times w^-1, negated, replaced by a random element of Z[w],
    swapped with its row neighbour; and with one class size changed."""
    rows, sizes = heisenberg_table(p)
    w = Cyclotomic.zeta(p)
    nonzero = [(i, c) for i, row in enumerate(rows) for c, v in enumerate(row) if v]
    for label, change in (("times-w", lambda v: v * w), ("times-w^-1", lambda v: v * w ** (p - 1)),
                          ("negated", lambda v: -v),
                          ("random", lambda v: Cyclotomic(p, [rng.randint(-2, 2) for _ in range(p)]))):
        i, c = rng.choice(nonzero)
        changed = [list(row) for row in rows]
        changed[i][c] = change(rows[i][c])
        yield label, changed, sizes
    i, c = rng.choice([(i, c) for i, c in nonzero if c + 1 < len(sizes)])
    changed = [list(row) for row in rows]
    changed[i][c], changed[i][c + 1] = rows[i][c + 1], rows[i][c]
    yield "swapped", changed, sizes
    c = rng.randrange(len(sizes))
    yield "size", rows, [s + (1 if k == c else 0) for k, s in enumerate(sizes)]


@pytest.mark.parametrize("p", [3, 5])
def test_orthogonal_rows_matches_cyclotomic_loop(p):
    rows, sizes = heisenberg_table(p)
    assert orthogonal_rows(rows, sizes, p ** 3) and orthogonal_reference(rows, sizes, p ** 3)
    rng = random.Random(p)
    verdicts = {}
    for _ in range(3):
        for label, rows, sizes in perturbed_tables(p, rng):
            got = orthogonal_rows(rows, sizes, p ** 3)
            assert got == orthogonal_reference(rows, sizes, p ** 3), label
            verdicts.setdefault(label, set()).add(got)
    # times w, times w^-1, negating a nonzero value or a size change always
    # break the table
    assert all(verdicts[k] == {False} for k in ("times-w", "times-w^-1", "negated", "size"))


@pytest.mark.parametrize("p", [3, 5])
def test_orthogonal_rows_stays_exact_beyond_int64(p):
    # rows times 2^40 make class sums near 2^80 * p^3, past int64, so the
    # products run on Python ints; the verdicts are still the Q(w) loop's,
    # on the table and on every planted mutant
    big = 2 ** 40
    rows, sizes = heisenberg_table(p)
    scaled = [[v * big for v in row] for row in rows]
    order = p ** 3 * big * big
    assert orthogonal_rows(scaled, sizes, order) and orthogonal_reference(scaled, sizes, order)
    assert not orthogonal_rows(scaled, sizes, order + 1)
    assert not orthogonal_rows(rows, sizes, order)
    rng = random.Random(p + 40)
    for label, mutant, msizes in perturbed_tables(p, rng):
        mutant = [[v * big for v in row] for row in mutant]
        assert (orthogonal_rows(mutant, msizes, order)
                == orthogonal_reference(mutant, msizes, order)), label
    # one unit off a value of the scaled table is a mutant only the exact
    # sum sees: it changes a class sum by about 2^40 against 2^80
    i, c = next((i, c) for i, row in enumerate(scaled) for c, v in enumerate(row) if v)
    scaled[i][c] = scaled[i][c] + 1
    assert not orthogonal_rows(scaled, sizes, order)
    assert not orthogonal_reference(scaled, sizes, order)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("row, col", [(0, 0), (0, -1), (-1, 0), (-1, 1), (1, 3)])
def test_one_value_times_zeta_fails(p, row, col):
    rows, sizes = heisenberg_table(p)
    rows[row][col] = rows[row][col] * Cyclotomic.zeta(p)
    # a zero value stays zero; every other one breaks orthogonality
    assert orthogonal_rows(rows, sizes, p ** 3) == rows[row][col].is_zero()


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("col", [0, 1, -1])
@pytest.mark.parametrize("delta", [1, -1])
def test_one_class_size_changed_fails(p, col, delta):
    rows, sizes = heisenberg_table(p)
    sizes[col] += delta
    assert not orthogonal_rows(rows, sizes, p ** 3)


def test_non_integral_value_raises():
    from fractions import Fraction
    rows, sizes = heisenberg_table(3)
    rows[2][4] = rows[2][4] * Fraction(1, 2)
    with pytest.raises(ValueError, match="not an algebraic integer"):
        orthogonal_rows(rows, sizes, 27)


def test_linear_characters():
    chi = LinearCharacter(5, 2, 3)
    assert chi.character(HeisenbergElement(5, 1, 0, 0)) == Cyclotomic.zeta(5, 2)
    assert chi.character(HeisenbergElement(5, 0, 0, 4)) == 1  # z acts trivially


def test_fixed_points_of_e2_are_coordinate_points():
    pts = projective_fixed_points(SimpleRep(5, 1), HeisenbergElement(5, 0, 1, 0))
    assert len(pts) == 5
    coords = {tuple(1 if i == j else 0 for i in range(5)) for j in range(5)}
    got = {tuple(1 if not c.is_zero() else 0 for c in pt) for pt in pts}
    assert got == coords


def test_fixed_points_of_e1_are_root_of_unity_columns():
    rep = SimpleRep(5, 1)
    g = HeisenbergElement(5, 1, 0, 0)
    mat = rep_matrix(rep, g)
    for pt in projective_fixed_points(rep, g):
        assert pt[0] == 1
        image = [sum((mat[r][c] * pt[c] for c in range(5)), Cyclotomic(5)) for r in range(5)]
        lam = image[0]  # eigenvalue, since pt[0] = 1
        assert [lam * v for v in pt] == image
        # coordinates follow the geometric pattern (1 : z : z^2 : z^3 : z^4)
        z = pt[1]
        assert pt[2] == z * z and pt[3] == z ** 3 and pt[4] == z ** 4


def test_fixed_points_agree_for_powers():
    rep = SimpleRep(5, 1)
    g = HeisenbergElement(5, 1, 2, 0)
    base = {tuple(c.coeffs for c in pt) for pt in projective_fixed_points(rep, g)}
    for j in (2, 3, 4):
        pow_set = {tuple(c.coeffs for c in pt)
                   for pt in projective_fixed_points(rep, g ** j)}
        assert pow_set == base


def test_thirty_distinct_fixed_points():
    rep = SimpleRep(5, 1)
    seen = set()
    for g in subgroup_generators(5):
        for pt in projective_fixed_points(rep, g):
            seen.add(tuple(c.coeffs for c in pt))
    assert len(seen) == 30


def test_central_element_rejected():
    with pytest.raises(ValueError):
        projective_fixed_points(SimpleRep(5, 1), HeisenbergElement(5, 0, 0, 2))


def test_parse_element():
    g = parse_element(5, "e1^2 e2 z^3")
    assert (g.a, g.b, g.k) == (2, 1, 3)
    assert parse_element(5, "1") == HeisenbergElement(5)


def test_apply_element_matches_matrix():
    rep = SimpleRep(5, 1)
    g = HeisenbergElement(5, 2, 3, 1)
    point = tuple(Cyclotomic.from_rational(5, v) for v in (1, 2, 0, -1, 3))
    mat = rep_matrix(rep, g)
    expected = [sum((mat[r][c] * point[c] for c in range(5)), Cyclotomic(5))
                for r in range(5)]
    assert list(apply_element(rep, g, point)) == expected


@pytest.mark.parametrize("p", [3, 5, 7])
def test_eigenlines_equal_the_nullspace_route(p):
    """The closed form against the nullspace reference for every index i,
    every non-central (a, b) and every k, and rho(g) v = w^m v exactly.

    The reference runs once per (a, b), on V_1 at k = 0, and is carried to
    the rest exactly: the Galois map w -> w^i takes rho_1(g) to rho_i(g), so
    it takes the line of w^m on V_1 to the line of w^(im) on V_i; and
    rho_i(g z^k) = w^(ik) rho_i(g) moves the line of w^m to w^(m+ik)."""
    for a in range(p):
        for b in range(p):
            if (a, b) == (0, 0):
                continue
            base = nullspace_eigenlines(SimpleRep(p, 1), HeisenbergElement(p, a, b, 0))
            for i in range(1, p):
                rep = SimpleRep(p, i)
                on_v_i = [tuple(v.galois(i) for v in line) for line in base]
                for k in range(p):
                    g = HeisenbergElement(p, a, b, k)
                    expected = [on_v_i[(m - i * k) * pow(i, -1, p) % p] for m in range(p)]
                    lines = projective_fixed_points(rep, g)
                    assert lines == expected, (i, a, b, k)
                    # rho(g) is monomial: one nonzero entry per row
                    entries = [(c, x) for row in rep_matrix(rep, g)
                               for c, x in enumerate(row) if x]
                    for m, v in enumerate(lines):
                        image = [x * v[c] for c, x in entries]
                        assert image == [Cyclotomic.zeta(p, m) * x for x in v], (i, a, b, k, m)


def test_heisenberg_imports_no_linear_algebra():
    """heisenberg stands on the cyclotomic field and the error types alone."""
    path = Path(__file__).resolve().parent.parent / "src" / "algtool" / "heisenberg.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("algtool"):
            imported.add(node.module.split(".", 1)[-1])
        elif isinstance(node, ast.Import):
            imported |= {a.name.split(".", 1)[-1] for a in node.names
                         if a.name.startswith("algtool")}
    assert imported <= {"cyclotomic", "errors"}, imported


_POINT5 = tuple(Cyclotomic.from_rational(5, v) for v in (1, 2, 0, -1, 3))


@pytest.mark.parametrize("call", [
    lambda: apply_element(SimpleRep(5, 1), HeisenbergElement(3, 1, 1, 0), _POINT5),
    lambda: SimpleRep(5).character(HeisenbergElement(7, 1, 0, 0)),
    lambda: SimpleRep(5).character(HeisenbergElement(3, 0, 0, 1)),
    lambda: LinearCharacter(5, 1, 2).character(HeisenbergElement(3, 1, 0, 0)),
    lambda: projective_fixed_points(SimpleRep(5, 1), HeisenbergElement(7, 1, 0, 0)),
    lambda: HeisenbergElement(5, 1, 0, 0) * HeisenbergElement(3, 1, 0, 0),
], ids=["apply_element", "simple-noncentral", "simple-central", "linear",
        "fixed-points", "multiply"])
def test_mixed_primes_raise(call):
    with pytest.raises(ModulusError, match="mixed primes"):
        call()


@pytest.mark.parametrize("length", [0, 4, 6])
def test_wrong_length_point_raises(length):
    rep = SimpleRep(5, 1)
    pt = tuple(Cyclotomic.from_rational(5, 1) for _ in range(length))
    with pytest.raises(ValueError, match="point needs 5 coordinates"):
        apply_element(rep, HeisenbergElement(5, 1, 0, 0), pt)
    with pytest.raises(ValueError, match="point needs 5 coordinates"):
        heisenberg_orbit_points(rep, pt)

from fractions import Fraction

import numpy as np
import pytest

from algtool import cli
from algtool import shioda5
from algtool.clifford import (MAX_SAMPLES, Draw, FatProfile, SimpleProfile, build_reps,
                              clifford_form, fat_profile,
                              random_points, sample_rank_drop_points,
                              simple_profile, standard_gammas)
from algtool.errors import (ArityError, ConditioningError, InputError, ResourceLimitError,
                            SamplingError)
from algtool.gradedalg import make_presentation
from algtool.linalg import Residual, rank_float
from algtool.poly import MultiPoly, PolyMatrix, PolyRing, mat_det
from algtool.sklyanin2 import curve_points_on_grid
from clifford_reference import (assert_stack_is_eval, build_reps_pairwise,
                                clifford_strata_per_point, det_along_line, random_lines,
                                rank_drop_points, rank_drop_points_per_line)


def test_specialize_examples():
    form = clifford_form(3, (1, 1))
    got = form.eval([Fraction(1), Fraction(0), Fraction(0)])
    assert got == [[2, 0, 0], [0, 0, 1], [0, 1, 0]]
    zero = form.eval([Fraction(0)] * 3)
    assert all(v == 0 for row in zero for v in row)
    with pytest.raises(ValueError):
        form.eval([Fraction(1)])


@pytest.mark.parametrize("p,avec", [
    (3, (1, Fraction(2, 3))),
    (5, (1, 2, 5)),
    (5, (Fraction(3, 2), Fraction(1, 2), Fraction(3, 7))),
    (7, (2, 1, Fraction(5, 2), 3)),
], ids=["p3", "p5", "p5-non-integral", "p7"])
def test_clifford_form_roundtrip_with_presentation(p, avec):
    # each anticommutator relation a0 {x_i, x_j} = a_i x_k^2 of cliffordC is
    # the off-diagonal entry M_ij = (a_i / a0) u_k of the form
    form = clifford_form(p, avec)
    u = [MultiPoly.var(form.ring, k) for k in range(p)]
    pres = make_presentation("cliffordC", p, *avec)
    seen = set()
    for rel in pres.relations:
        pairs = [(w, c) for w, c in rel if w[0] != w[1]]
        squares = [(w, c) for w, c in rel if w[0] == w[1]]
        assert len(pairs) == 2 and len(squares) == 1
        (i, j), coeff = pairs[0]
        assert coeff == avec[0]
        (k, _), square_coeff = squares[0]
        assert form.at(i, j) == form.at(j, i) == (-square_coeff / coeff) * u[k]
        seen |= {(i, j), (j, i)}
    assert seen == {(i, j) for i in range(p) for j in range(p) if i != j}
    assert all(form.at(k, k) == 2 * u[k] for k in range(p))


def test_int_parameters_give_exact_entries():
    form = clifford_form(5, (2, 1, 3))
    # M_{k+1,k-1} = (1/2) u_k and M_{k+2,k-2} = (3/2) u_k, at k = 0
    assert form.at(1, 4).items() == [((1, 0, 0, 0, 0), Fraction(1, 2))]
    assert form.at(2, 3).items() == [((1, 0, 0, 0, 0), Fraction(3, 2))]
    assert form.at(0, 0).items() == [((1, 0, 0, 0, 0), 2)]


def test_symmetric_rank():
    eye = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
    assert rank_float(eye) == 5
    outer = [[Fraction((i + 1) * (j + 1)) for j in range(3)] for i in range(3)]
    assert rank_float(outer) == 1
    assert rank_float(np.eye(4)) == 4


def test_profiles_table():
    assert simple_profile(5, 5) == SimpleProfile(2, 4)
    assert simple_profile(4, 5) == SimpleProfile(1, 4)
    assert simple_profile(3, 5) == SimpleProfile(2, 2)
    assert simple_profile(2, 5) == SimpleProfile(1, 2)
    assert simple_profile(1, 5) == SimpleProfile(2, 1)
    assert fat_profile(5) == FatProfile(1, 4)
    assert fat_profile(4) == FatProfile(2, 2)
    assert fat_profile(3) == FatProfile(1, 2)
    assert fat_profile(2) == FatProfile(2, 1)
    with pytest.raises(ValueError):
        fat_profile(0)
    with pytest.raises(ValueError):
        simple_profile(6, 5)


def test_standard_gammas_anticommute():
    for k in range(1, 7):
        gammas = standard_gammas(k)
        dim = 2 ** (k // 2)
        assert all(g.shape == (dim, dim) for g in gammas)
        for i in range(k):
            for j in range(k):
                acc = gammas[i] @ gammas[j] + gammas[j] @ gammas[i]
                assert np.linalg.norm(acc - 2 * (i == j) * np.eye(dim)) < 1e-12


def test_build_reps_small_examples():
    reps = build_reps(2 * np.eye(2), 2)
    (x1, x2), = reps.tuples
    assert np.allclose(x1 @ x1, np.eye(2)) and np.allclose(x2 @ x2, np.eye(2))
    assert np.allclose(x1 @ x2 + x2 @ x1, np.zeros((2, 2)), atol=1e-12)

    reps = build_reps(2 * np.eye(3), 3)
    assert len(reps.tuples) == 2
    assert reps.tuples[0][0].shape == (2, 2)
    assert abs(reps.chirality[0] + reps.chirality[1]) < 1e-12  # opposite signs


def test_build_reps_random_forms():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(0, n + 1))
        s = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        m = s @ s.T
        reps = build_reps(m, k)
        prof = simple_profile(k, n)
        assert len(reps.tuples) == prof.count
        assert reps.tuples[0][0].shape == (prof.dim, prof.dim)
        assert reps.max_residual < 1e-9


def test_build_reps_conditioning_error():
    with pytest.raises(ConditioningError):
        build_reps(np.zeros((3, 3)), 2)


def test_build_reps_refuses_asymmetric_and_non_finite_matrices():
    m = np.array([[2.0, 1.0], [0.0, 2.0]])
    for bad in (m, np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[np.inf, 0.0], [0.0, 1.0]]),
                np.full((2, 2), np.inf), np.ones((2, 3))):
        with pytest.raises(ValueError, match="symmetric square"):
            build_reps(bad, 2)


def test_build_reps_symmetry_check_is_allclose():
    """The written-out check accepts a perturbed symmetric matrix exactly
    when np.allclose(m, m.T, atol=1e-10 * (max |m| + 1)) does."""
    rng = np.random.default_rng(11)
    verdicts = set()
    for _ in range(200):
        n = int(rng.integers(2, 5))
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = (s @ s.T) * 10.0 ** rng.integers(-3, 4)
        i, j = rng.choice(n, size=2, replace=False)
        atol = 1e-10 * (np.abs(m).max() + 1)
        phase = np.exp(2j * rng.uniform(0, np.pi))
        m[i, j] += (atol + 1e-5 * abs(m[j, i])) * rng.uniform(0.5, 1.5) * phase
        symmetric = bool(np.allclose(m, m.T, atol=atol))
        try:
            build_reps(m, n)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == symmetric
        verdicts.add(symmetric)
    assert verdicts == {True, False}


def test_center_data():
    # the center of a graded Clifford algebra is generated over the u's by
    # det M, of x-degree twice its u-degree: 6 for the 3 x 3 form
    det = mat_det(clifford_form(3, (1, 1)))
    assert 2 * det.total_degree() == 6
    assert {sum(e) for e, _c in det.items()} == {3}

    ring = PolyRing(tuple(f"y{i}" for i in range(5)))
    y = [MultiPoly.var(ring, i) for i in range(5)]
    zero = MultiPoly.zero(ring)
    diag = PolyMatrix(5, 5, [2 * y[i] if i == j else zero
                             for i in range(5) for j in range(5)])
    assert mat_det(diag) == 32 * y[0] * y[1] * y[2] * y[3] * y[4]


def test_det_zero_points_have_small_rank():
    form = clifford_form(3, (1, 1))
    pts = sample_rank_drop_points(form, 20, seed=5)
    assert len(pts) == 20
    for pt in pts:
        assert rank_float(form.eval(list(pt)), 1e-8) <= 2


def test_negative_sample_count_is_an_input_error():
    for sample in (lambda n: random_points(3, n, 0),
                   lambda n: sample_rank_drop_points(clifford_form(3, (1, 1)), n, 0)):
        with pytest.raises(InputError, match="sample count must be non-negative, got -1"):
            sample(-1)
        assert sample(0) == []
    # the 2-torsion check needs at least one sample
    for n in (-1, 0):
        with pytest.raises(InputError, match="need at least one sample"):
            shioda5.two_torsion_check(n, 0)


def test_sample_count_is_bounded():
    assert len(random_points(3, MAX_SAMPLES, 0)) == MAX_SAMPLES
    for sample in (lambda n: random_points(3, n, 0),
                   lambda n: sample_rank_drop_points(clifford_form(3, (1, 1)), n, 0),
                   lambda n: shioda5.two_torsion_check(n, 0)):
        with pytest.raises(ResourceLimitError):
            sample(MAX_SAMPLES + 1)


def test_draw_repeats_pythons_stream():
    """The first draws of seed 0 as literals: Python promises that
    `random.Random(0).random()` gives the same sequence in every version,
    and 2 x - 1 and lo + int(x (hi - lo)) are exact."""
    draw = Draw(0)
    assert draw.uniform(4).tolist() == [0.6888437030500962, 0.515908805880605,
                                        -0.15885683833831, -0.4821664994140733]
    assert draw.uniform((2, 3)).tolist() == [
        [0.02254944273721704, -0.19013172509917142, 0.5675971780695452],
        [-0.3933745478421451, -0.04680609169528838, 0.1667640789100624]]
    draw = Draw(0)
    assert [draw.integers(2, 6) for _ in range(8)] == [5, 5, 3, 3, 4, 3, 5, 3]
    # one stream: an integer draw takes the place of one uniform entry
    draw = Draw(0)
    assert draw.integers(2, 6) == 5
    assert draw.uniform(2).tolist() == [0.515908805880605, -0.15885683833831]
    assert Draw(0).uniform((0, 3)).shape == (0, 3)


def test_draws_stay_in_their_ranges():
    draw = Draw(1)
    values = draw.uniform(10_000)
    assert values.dtype == np.float64 and -1.0 <= values.min() and values.max() < 1.0
    assert abs(values.mean()) < 0.03 and values.min() < -0.99 and values.max() > 0.99
    counts = np.bincount([draw.integers(-2, 3) + 2 for _ in range(5_000)], minlength=5)
    assert len(counts) == 5 and counts.min() > 900


def bits(values) -> bytes:
    """The bytes of a complex array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(values, dtype=complex).tobytes()


# signed zeros in both parts, of the points and of their entries
SIGNED_ZEROS = [(complex(-0.0, 0.0), complex(0.0, -0.0), complex(-1.5, -0.0)),
                (complex(-0.0, -0.0), -2j, complex(0.0, 0.0)),
                (complex(1.0, -0.0), complex(-0.0, 3.0), complex(-0.0, -0.0))]


@pytest.mark.parametrize("avec", [(1, 1), (1, Fraction(2, 3)), (1, 0.0), (1, -0.5j)],
                         ids=["QQ", "QQ-2/3", "zero-entries", "CC"])
def test_eval_stack_is_eval_bit_for_bit(avec):
    # named for the bit-for-bit match it had while output printed every
    # bit; now each entry is eval's up to rounding
    form = clifford_form(3, avec)
    points = [list(pt) for pt in random_points(3, 6, 11)] + [list(pt) for pt in SIGNED_ZEROS]
    stack = form.eval_stack(points)
    assert_stack_is_eval(form, points, stack)
    assert_stack_is_eval(form, [[complex(v) for v in pt] for pt in points], stack)


def test_eval_stack_refuses_a_form_that_is_not_linear():
    ring = PolyRing(("u0", "u1"))
    u0, u1 = MultiPoly.var(ring, 0), MultiPoly.var(ring, 1)
    for entry in (u0 * u1, u0 + u1, u1 ** 2, MultiPoly.const(ring, 1)):
        with pytest.raises(ValueError):
            PolyMatrix(1, 2, [u0, entry]).eval_stack([[1j, 2.0]])
    with pytest.raises(ArityError):
        PolyMatrix(1, 2, [u0, u1]).eval_stack([[1j, 2.0, 3.0]])
    assert PolyMatrix(1, 2, [u0, u1]).eval_stack([]).shape == (0, 1, 2)


# the form of criterion 5, and Q(a, b) at criterion 6's three curve points
LINE_FORMS = [clifford_form(3, (1, 1))] + [
    clifford_form(5, (1, complex(cp.a), complex(cp.b))) for cp in curve_points_on_grid()[:3]]


@pytest.mark.parametrize("form", LINE_FORMS, ids=["c3", "Q-a1", "Q-a1.5", "Q-a0.5"])
def test_rank_drop_roots_are_the_roots_of_the_line_determinant(form):
    # the eigenvalues of -D^-1 B are the roots of det(B + s D), which the
    # reference expands symbolically
    for base, direction in random_lines(form.rows, 20, 3):
        b, d = form.eval_stack([base, direction])
        roots = list(np.linalg.eigvals(-np.linalg.solve(d, b)))
        reference = det_along_line(form, base, direction).r
        assert len(roots) == len(reference) == form.rows
        for r in reference:
            nearest = min(roots, key=lambda e: abs(e - r))
            assert abs(nearest - r) <= 1e-9 * max(1.0, abs(r))
            roots.remove(nearest)


@pytest.mark.parametrize("form", LINE_FORMS, ids=["c3", "Q-a1", "Q-a1.5", "Q-a0.5"])
def test_rank_drop_points_match_the_symbolic_sampler(form):
    count = 20 if form.rows == 3 else 6
    points = sample_rank_drop_points(form, count, 5)
    reference = rank_drop_points(form, count, 5)
    assert len(points) == len(reference) == count
    for pt, ref in zip(points, reference):
        assert np.abs(pt - ref).max() <= 1e-9
        assert abs(np.linalg.det(form.eval(list(pt)))) <= np.sqrt(1e-8)


def singular_in_stacks(real):
    """`np.linalg.solve` that raises on every stack, as on a stack holding
    one singular matrix, so the sampler takes each batch line by line."""
    def solve(a, b):
        if np.ndim(a) > 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, b)
    return solve


@pytest.mark.parametrize("form", LINE_FORMS, ids=["c3", "Q-a1", "Q-a1.5", "Q-a0.5"])
@pytest.mark.parametrize("batched", [True, False], ids=["stacked", "fallback"])
def test_rank_drop_points_are_the_per_line_loop_bit_for_bit(monkeypatch, form, batched):
    # the stacked kernels run LAPACK on each matrix of the stack, and the
    # fallback on each line, so every point keeps its bits
    if not batched:
        monkeypatch.setattr(np.linalg, "solve", singular_in_stacks(np.linalg.solve))
    for count, seed in ((20, 7), (6, 5), (1, 0)):
        points = sample_rank_drop_points(form, count, seed)
        reference = rank_drop_points_per_line(form, count, seed)
        assert len(points) == count
        assert [pt.tobytes() for pt in points] == [ref.tobytes() for ref in reference]


def test_rank_drop_sampler_gives_up_after_40_lines_per_point(monkeypatch):
    # det vanishes identically on the zero form, so every line is singular
    zero = PolyMatrix(3, 3, [MultiPoly(PolyRing(("u0", "u1", "u2")), {})] * 9)
    lines = []
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: lines.append(np.shape(a)[:-2]) or real(a, b))
    with pytest.raises(SamplingError, match="could not locate enough det-zero points"):
        sample_rank_drop_points(zero, 3, 0)
    # one batch of 3 lines, then 3 more, and so on, up to 120 lines in all
    stacked = [shape[0] for shape in lines if shape]
    assert sum(stacked) == 120 and stacked[:2] == [3, 3]
    assert lines.count(()) == 120


def build_reps_cases():
    """Criterion 5's random forms for a few seeds, rank 0, and odd ranks
    with their flipped variant."""
    cases = [(np.zeros((3, 3)), 0), (2 * np.eye(3), 3), (np.outer([1, 2j, 3], [1, 2j, 3]), 1)]
    for seed in range(4):
        draw = Draw(seed)
        for _ in range(50):
            n = draw.integers(2, 6)
            k = draw.integers(0, n + 1)
            s = draw.uniform((n, k)) + 1j * draw.uniform((n, k))
            cases.append((s @ s.T, k))
    return cases


def test_build_reps_is_the_pairwise_loop_bit_for_bit():
    # the matrices and chiralities bit for bit; the residual, one vectorized
    # norm in place of one np.linalg.norm per pair, as printed
    ranks = set()
    for m, k in build_reps_cases():
        reps = build_reps(m, k)
        tuples, chirality, residual = build_reps_pairwise(m, k)
        assert type(reps.max_residual) is Residual
        assert reps.max_residual.printed() == Residual(residual).printed()
        assert reps.chirality == chirality
        assert [[bits(x) for x in xs] for xs in reps.tuples] == \
            [[bits(x) for x in xs] for xs in tuples]
        ranks.add(k)
    assert ranks == {0, 1, 2, 3, 4, 5}


def test_build_reps_residual_is_the_pairwise_norm():
    # oracle: the largest of the n^2 pairwise `np.linalg.norm`s over the
    # scale |M|_max + 1; both sum the same squares in another order, so they
    # agree to a few ulps of the scale, and the planted error below shows
    eps = np.finfo(float).eps
    for m, k in build_reps_cases():
        residual = build_reps_pairwise(m, k)[2]
        assert abs(build_reps(m, k).max_residual - residual) <= 4 * eps
    # rank 2 drops the third diagonal entry, 1e-6: X_2^2 = 0, not 1e-6 / 2 Id
    m = np.diag([2.0, 2.0, 1e-6])
    reps = build_reps(m, 2)
    assert reps.max_residual == build_reps_pairwise(m, 2)[2]
    assert abs(reps.max_residual - 1e-6 * np.sqrt(2) / 3) <= 4 * eps * 1e-6
    assert Residual(reps.max_residual).printed() == 4.71e-7


@pytest.mark.parametrize("samples", [0, 1, 7])
@pytest.mark.parametrize("t", ["1", "0", "2/3", "-5", "1e-3", "1e100"])
def test_clifford_strata_on_one_stack_prints_the_per_point_bytes(capsys, monkeypatch, t, samples):
    # 1e100 ends in a sampling error, whose payload must match too
    argv = ["clifford-strata", f"--t={t}", "--samples", str(samples), "--seed", "3",
            "--format", "json"]
    code = cli.main(argv)
    out = capsys.readouterr().out
    _handler, leaf = cli.COMMANDS["clifford-strata"]
    monkeypatch.setitem(cli.COMMANDS, "clifford-strata", (clifford_strata_per_point, leaf))
    assert (cli.main(argv), capsys.readouterr().out) == (code, out)

import itertools
import math
from fractions import Fraction

import ideal_oracle
import pytest

from algtool.cyclotomic import Cyclotomic
from algtool.errors import ModulusError, ResourceLimitError, StabilityError
from algtool.gradedalg import (Presentation, character_coeffs,
                               character_table, check_stability, graded_engine,
                               hilbert, make_presentation, make_relation,
                               word_to_index)
from algtool.heisenberg import HeisenbergElement, SimpleRep, conjugacy_classes
from algtool.linalg import RowSpace


def brute_force_ideal_rank(pres, n):
    """Independent oracle: shift every degree-d relation by all left/right
    word pairs, then row-reduce; no incremental reuse."""
    p = pres.p
    space = RowSpace()
    for rel in pres.relations:
        d = len(next(iter(rel))[0])
        if d > n:
            continue
        for left_len in range(n - d + 1):
            right_len = n - d - left_len
            for left in itertools.product(range(p), repeat=left_len):
                for right in itertools.product(range(p), repeat=right_len):
                    vec = {}
                    for w, c in rel:
                        word = left + w + right
                        vec[word_to_index(word, p)] = c
                    space.insert(vec)
    return space.rank


def test_ideal_piece_degrees():
    poly3 = make_presentation("polynomial", 3)
    series = hilbert(poly3, 2)
    assert series == [1, 3, 6]
    assert 3 ** 2 - series[2] == 3  # the ideal's degree-2 piece: the 3 commutators
    # commutator leading words are the increasing ones: normal words are not
    assert graded_engine(poly3).bases[2] == sorted(
        w for w in itertools.product(range(3), repeat=2) if w[0] >= w[1])
    assert hilbert(make_presentation("cycle", 5), 2)[2] == 10


def test_ideal_basis_is_reduced_row_echelon():
    pres = make_presentation("cycle", 5)
    engine = graded_engine(pres)
    engine.grow(3)
    space = engine.spaces[3]
    assert space.rank + len(engine.bases[3]) == 5 * len(engine.bases[2])
    assert ideal_oracle.ideal_piece(pres, 3).rank + len(engine.bases[3]) == 5 ** 3
    basis = sorted(space.rows.items())
    pivots = {c for c, _ in basis}
    for pivot, row in basis:
        assert row[pivot] == 1
        assert all(c == pivot or c not in pivots for c in row)


def test_incremental_matches_brute_force():
    for pres in (make_presentation("polynomial", 3),
                 make_presentation("sklyanin3", 1, 1, -1),
                 make_presentation("cycle", 5)):
        top = 4 if pres.p == 3 else 3
        series = hilbert(pres, top)
        for n in range(top + 1):
            assert pres.p ** n - series[n] == brute_force_ideal_rank(pres, n)


def test_hilbert_fixtures():
    assert hilbert(make_presentation("polynomial", 5), 4) == [1, 5, 15, 35, 70]
    assert hilbert(make_presentation("cycle", 5), 4) == [1, 5, 10, 15, 20]
    assert hilbert(make_presentation("sklyanin3", 1, 1, -1), 5) == [1, 3, 6, 10, 15, 21]
    assert hilbert(make_presentation("cliffordC", 5, 1, 2, 3), 4) == [1, 5, 15, 35, 70]
    assert hilbert(make_presentation("sklyanin5", 2, 2), 3) == [1, 5, 15, 35]
    assert hilbert(make_presentation("curveCa", 1), 4) == [1, 5, 10, 15, 20]


def test_non_integral_parameters_give_the_closed_form():
    """Relations with non-integral coefficients, cleared to integers inside the
    engine: generic parameters give the Hilbert series of a polynomial ring."""
    sk5 = make_presentation("sklyanin5", Fraction(1, 2), Fraction(3, 7))
    assert hilbert(sk5, 7) == [math.comb(n + 4, 4) for n in range(8)]
    cl7 = make_presentation("cliffordC", 7, Fraction(2, 3), 1, Fraction(5, 2), 3)
    assert hilbert(cl7, 5) == [math.comb(n + 6, 6) for n in range(6)]


def test_quotient_growth_bound():
    for pres in (make_presentation("cycle", 5), make_presentation("sklyanin3", 1, 2, -3)):
        series = hilbert(pres, 4)
        for prev, cur in zip(series, series[1:]):
            assert cur <= pres.p * prev


def test_character_fixtures_p3():
    poly3 = make_presentation("polynomial", 3)
    rep = SimpleRep(3, 1)
    got = character_coeffs(poly3, HeisenbergElement(3, 1, 0, 0), rep, 3)
    assert got == [Cyclotomic.from_rational(3, v) for v in (1, 0, 0, 1)]
    got = character_coeffs(poly3, HeisenbergElement(3, 0, 0, 1), rep, 2)
    w = Cyclotomic.zeta(3)
    assert got == [Cyclotomic.from_rational(3, 1), 3 * w, 6 * w * w]


def test_character_fixtures_cycle5():
    cyc5 = make_presentation("cycle", 5)
    rep = SimpleRep(5, 1)
    got = character_coeffs(cyc5, HeisenbergElement(5, 1, 1, 0), rep, 4)
    assert got == [Cyclotomic.from_rational(5, 1 if n == 0 else 0) for n in range(5)]


def test_central_rows_follow_hilbert():
    for pres, rep in ((make_presentation("polynomial", 3), SimpleRep(3, 1)),
                      (make_presentation("cycle", 5), SimpleRep(5, 2))):
        series = hilbert(pres, 3)
        for k in range(1, pres.p):
            got = character_coeffs(pres, HeisenbergElement(pres.p, 0, 0, k), rep, 3)
            want = [Cyclotomic.zeta(pres.p, rep.index * k * n) * series[n]
                    for n in range(4)]
            assert got == want


def test_characters_constant_on_classes():
    pres = make_presentation("cycle", 5)
    rep = SimpleRep(5, 1)
    g = HeisenbergElement(5, 1, 2, 0)
    conjugate = HeisenbergElement(5, 1, 2, 3)  # same class: z^3 * g
    assert (character_coeffs(pres, g, rep, 3)
            == character_coeffs(pres, conjugate, rep, 3))


def test_identity_row_is_hilbert():
    pres = make_presentation("curveCa", 2)
    table = character_table(pres, SimpleRep(5, 1), 3)
    assert table.hilbert_row() == hilbert(pres, 3)


def test_quotient_trace_cross_check():
    rep = SimpleRep(3, 1)
    pres = make_presentation("sklyanin3", 1, 1, -1)
    for g in (HeisenbergElement(3, 1, 0, 0), HeisenbergElement(3, 1, 2, 1),
              HeisenbergElement(3, 0, 0, 2)):
        got = character_coeffs(pres, g, rep, 3)
        for n in range(4):
            chi_vn = (Cyclotomic.zeta(3, g.k * n) * Fraction(3) ** n if g.is_central()
                      else Cyclotomic(3)) if n else Cyclotomic.from_rational(3, 1)
            assert got[n] == ideal_oracle.quotient_trace(pres, g, rep, n)
            assert got[n] == chi_vn - ideal_oracle.ideal_trace(pres, g, rep, n)


def test_sklyanin3_table_equals_polynomial():
    rep = SimpleRep(3, 1)
    poly_table = character_table(make_presentation("polynomial", 3), rep, 4)
    sk_table = character_table(make_presentation("sklyanin3", 1, 1, -1), rep, 4)
    assert sk_table.same_series(poly_table)
    assert len(poly_table.rows) == 11


def test_deformation_constancy():
    rep = SimpleRep(3, 1)
    tables = [character_table(make_presentation("sklyanin3", 1, 1, c), rep, 4)
              for c in (-1, -3, Fraction(-1, 2), 2, -5)]
    assert all(t.same_series(tables[0]) for t in tables[1:])


def test_curveCa_closed_forms():
    table = character_table(make_presentation("curveCa", 1), SimpleRep(5, 1), 4)
    series = [1, 5, 10, 15, 20]
    for g, _size in conjugacy_classes(5):
        row = table.row(g.label())
        if g.is_central():
            assert row == tuple(Cyclotomic.zeta(5, g.k * n) * series[n] for n in range(5))
        else:
            assert row == tuple(Cyclotomic.from_rational(5, 1 if n == 0 else 0)
                                for n in range(5))


def test_make_presentation_counts():
    assert len(make_presentation("polynomial", 5).relations) == 10
    assert len(make_presentation("cycle", 5).relations) == 15
    assert len(make_presentation("sklyanin3", 1, 2, 3).relations) == 3
    assert len(make_presentation("cliffordC", 5, 1, 2, 3).relations) == 10
    assert len(make_presentation("sklyanin5", 1, 2).relations) == 10
    assert len(make_presentation("curveCa", 2).relations) == 15
    with pytest.raises(ValueError):
        make_presentation("cycle", 3)
    with pytest.raises(ValueError):
        make_presentation("unknown-kind", 5)


def test_sklyanin5_relations_have_constant_index_sum():
    pres = make_presentation("sklyanin5", 3, 7)
    for rel in pres.relations:
        sums = {(w[0] + w[1]) % 5 for w, _ in rel}
        assert len(sums) == 1


def test_sklyanin3_commutator_point_is_polynomial_ring():
    sk = make_presentation("sklyanin3", 1, -1, 0)
    poly = make_presentation("polynomial", 3)

    def span(pres):
        space = RowSpace()
        for rel in pres.relations:
            space.insert({word_to_index(w, 3): c for w, c in rel})
        return space

    assert span(sk).same_space(span(poly))


def test_resource_cap():
    poly5 = make_presentation("polynomial", 5)
    # degree 6 is a 700 x 630 step, admitted by the default cap
    assert hilbert(poly5, 6) == [1, 5, 15, 35, 70, 126, 210]
    with pytest.raises(ResourceLimitError):
        hilbert(poly5, 9)  # a 3300 x 2475 step, above the default cap
    with pytest.raises(ResourceLimitError):
        hilbert(poly5, 3, cap=10)  # refused although degree 3 is already built
    with pytest.raises(ResourceLimitError):
        hilbert(Presentation(5, "QQ", ()), 3, cap=100)  # no rows, but 125 columns


def test_stability_check_rejects_unstable_relations():
    rel = make_relation([((0, 1), Fraction(1))])  # single monomial, not an orbit
    pres = Presentation(3, "QQ", (rel,))
    with pytest.raises(StabilityError):
        character_coeffs(pres, HeisenbergElement(3, 1, 0, 0), SimpleRep(3, 1), 2)


def test_stability_is_checked_for_every_class_and_call():
    # the e1-orbit of x0 x1 + x0^2 mixes e2-weights 1 and 0: stable under e1,
    # not under e2, so no class may pass, whichever is asked first
    pres = Presentation(3, "QQ", tuple(
        make_relation([((k, (k + 1) % 3), Fraction(1)), ((k, k), Fraction(1))])
        for k in range(3)))
    rep = SimpleRep(3, 1)
    for _ in range(2):
        with pytest.raises(StabilityError):
            character_coeffs(pres, HeisenbergElement(3, 1, 1, 0), rep, 2)
        with pytest.raises(StabilityError):
            character_table(pres, rep, 2)
    # a remembered pass does not skip the check that the primes agree
    poly3 = make_presentation("polynomial", 3)
    check_stability(poly3, HeisenbergElement(3, 1, 1, 0), rep)
    for _ in range(2):
        with pytest.raises(ModulusError):
            check_stability(poly3, HeisenbergElement(5, 1, 1, 0), rep)
        with pytest.raises(ModulusError):
            check_stability(poly3, HeisenbergElement(3, 1, 1, 0), SimpleRep(5, 1))


def test_table_json_shape():
    table = character_table(make_presentation("polynomial", 3), SimpleRep(3, 1), 2)
    js = table.to_json()
    assert js["hilbert"] == [1, 3, 6]
    assert len(js["classes"]) == 11
    assert js["classes"][0]["rep"] == "1"

import gc
import itertools
import math
import random
import sys
import weakref
from dataclasses import replace
from fractions import Fraction

import ideal_oracle
import pytest

from algtool import gradedalg
from algtool.cyclotomic import Cyclotomic
from algtool.errors import InputError, ModulusError, ResourceLimitError, StabilityError
from algtool.gradedalg import (Presentation, character_coeffs,
                               character_table, check_stability, hilbert, in_ideal,
                               make_presentation, make_relation, word_to_index)
from algtool.heisenberg import HeisenbergElement, SimpleRep, conjugacy_classes
from algtool.koszul import quadratic_dual
from algtool.linalg import RowSpace, integral
from test_table_bytes import QW_TABLE, QW_TABLE_DIGEST, table_digest


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
                    space.insert(integral(vec)[0])
    return space.rank


def test_ideal_piece_degrees():
    poly3 = make_presentation("polynomial", 3)
    series = hilbert(poly3, 2)
    assert series == [1, 3, 6]
    assert 3 ** 2 - series[2] == 3  # the ideal's degree-2 piece: the 3 commutators
    # commutator leading words are the increasing ones: normal words are not
    assert poly3.engine.bases[2] == sorted(
        word_to_index(w, 3) for w in itertools.product(range(3), repeat=2) if w[0] >= w[1])
    assert hilbert(make_presentation("cycle", 5), 2)[2] == 10


def test_ideal_basis_is_reduced_row_echelon():
    pres = make_presentation("cycle", 5)
    engine = pres.engine
    engine.grow(3)
    space = engine._eliminate(3)  # the engine keeps no row space: rebuild it
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


@pytest.mark.parametrize("args", [("cycle", 5), ("curveCa", 2)])
def test_vanishing_rows_cost_no_normal_forms(args):
    # below degree p the rows of e1^a e2^b, a != 0, vanish by e2-weight, so a
    # table needs no normal form beyond those the growth of the basis needs
    table_pres, hilbert_pres = make_presentation(*args), make_presentation(*args)
    p = table_pres.p
    character_table(table_pres, SimpleRep(p, 1), p - 1)
    hilbert(hilbert_pres, p - 1)
    # the memo holds the tails and every normal form looked up, per degree
    assert ([forms.keys() for forms in table_pres.engine.forms]
            == [forms.keys() for forms in hilbert_pres.engine.forms])


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


@pytest.mark.parametrize("args", [
    ("polynomial", 3), ("cycle", 5), ("sklyanin3", 1, 2, -3), ("cliffordC", 5, 1, 1, 2),
    ("sklyanin5", 1, 3), ("sklyanin5", Cyclotomic.zeta(5), 2), ("curveCa", 2),
    ("curveCa", Cyclotomic(5, [1, 3])),
], ids=lambda args: ",".join(map(str, args)))
def test_a_catalog_presentation_is_validated_once(args, monkeypatch):
    """Each catalog call builds one `Presentation`: its relations are checked
    (and over Q(w) coerced) once.  sklyanin5 keeps the relations of
    cliffordC(5, 1, a, b) and curveCa those of the fiber (a:1)."""
    calls = []
    post_init = Presentation.__post_init__

    def counting(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(Presentation, "__post_init__", counting)
    pres = make_presentation(*args)
    assert len(calls) == 1
    kind, *params = args
    if kind == "sklyanin5":
        assert pres.relations == make_presentation("cliffordC", 5, 1, *params).relations
    if kind == "curveCa":
        assert pres.relations == gradedalg.curve_fiber(params[0], Fraction(1)).relations
    if kind in ("sklyanin5", "curveCa"):
        assert (pres.kind, pres.params) == (kind, tuple(params))
        assert pres.label() == f"{kind}({':'.join(map(str, params))})"


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
            space.insert(integral({word_to_index(w, 3): c for w, c in rel})[0])
        return space

    assert span(sk).rows == span(poly).rows


def test_resource_cap():
    poly5 = make_presentation("polynomial", 5)
    # degree 6 is a 700 x 630 step, admitted by the default cap
    assert hilbert(poly5, 6) == [1, 5, 15, 35, 70, 126, 210]
    with pytest.raises(ResourceLimitError):
        hilbert(poly5, 9)  # a 3300 x 2475 step, above the default cap
    with pytest.raises(ResourceLimitError):
        hilbert(poly5, 3, cap=10)  # refused although degree 3 is already built
    with pytest.raises(ResourceLimitError):
        hilbert(Presentation(5, ()), 3, cap=100)  # no rows, but 125 columns


@pytest.mark.parametrize("kind,p,count", [("polynomial", 7, 21), ("cycle", 7, 35),
                                          ("cliffordC", 7, 21)])
def test_catalog_refuses_more_relations_than_the_cap(kind, p, count):
    args = (1, 1, 1, 1) if kind == "cliffordC" else ()
    pres = make_presentation(kind, p, *args, cap=count)
    assert len(pres.relations) == count
    with pytest.raises(ResourceLimitError, match=f"has {count} relations, cap is {count - 1}"):
        make_presentation(kind, p, *args, cap=count - 1)


@pytest.mark.parametrize("kind,p", [("cycle", 2003), ("polynomial", 2833), ("cliffordC", 2833)])
def test_default_cap_refuses_the_first_oversized_prime(monkeypatch, kind, p):
    # no relation may be built on the way to the refusal
    def unbuilt(*args):
        raise AssertionError("a relation was built")

    monkeypatch.setattr(gradedalg, "_commutators", unbuilt)
    monkeypatch.setattr(gradedalg, "_e1_orbits", unbuilt)
    with pytest.raises(ResourceLimitError):
        make_presentation(kind, p)


def test_in_ideal_refuses_a_tensor_of_mixed_degrees():
    poly3 = make_presentation("polynomial", 3)
    with pytest.raises(InputError, match="inhomogeneous tensor"):
        in_ideal(poly3, [[((0, 1), 1), ((1, 0), -1)], [((0, 1), 1), ((0, 1, 2), 1)]])
    # letters are read mod p: x_3 is x_0 and x_{-1} is x_2
    assert in_ideal(poly3, [[((3, 1), 1), ((1, -3), -1)], [((-1, 0), 1), ((0, 2), -1)]])


@pytest.mark.parametrize("letter", [-1, 3])
def test_letters_outside_the_alphabet_are_input_errors(letter):
    # a word index would silently read -1 as 2 and 3 as 0
    rel = make_relation([((0, letter), Fraction(1))])
    with pytest.raises(InputError):
        Presentation(3, (rel,))


def test_stability_check_rejects_unstable_relations():
    rel = make_relation([((0, 1), Fraction(1))])  # single monomial, not an orbit
    pres = Presentation(3, (rel,))
    with pytest.raises(StabilityError):
        character_coeffs(pres, HeisenbergElement(3, 1, 0, 0), SimpleRep(3, 1), 2)


def test_stability_is_checked_for_every_class_and_call():
    # the e1-orbit of x0 x1 + x0^2 mixes e2-weights 1 and 0: stable under e1,
    # not under e2, so no class may pass, whichever is asked first
    pres = Presentation(3, tuple(
        make_relation([((k, (k + 1) % 3), Fraction(1)), ((k, k), Fraction(1))])
        for k in range(3)))
    rep = SimpleRep(3, 1)
    for _ in range(2):
        with pytest.raises(StabilityError):
            character_coeffs(pres, HeisenbergElement(3, 1, 1, 0), rep, 2)
        with pytest.raises(StabilityError):
            character_table(pres, rep, 2)
    # a remembered pass does not skip the check that the primes agree, which
    # is made where the element and the representation are used
    poly3 = make_presentation("polynomial", 3)
    check_stability(poly3)
    for _ in range(2):
        with pytest.raises(ModulusError):
            character_coeffs(poly3, HeisenbergElement(5, 1, 1, 0), rep, 2)
        with pytest.raises(ModulusError):
            character_coeffs(poly3, HeisenbergElement(3, 1, 1, 0), SimpleRep(5, 1), 2)


def test_a_table_checks_and_grows_once(monkeypatch):
    calls = []
    for name in ("check_stability", "_check_max_degree"):
        def spy(*args, _f=getattr(gradedalg, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(gradedalg, name, spy)
    grow = gradedalg.GradedEngine.grow
    monkeypatch.setattr(gradedalg.GradedEngine, "grow",
                        lambda engine, n, cap=None: calls.append("grow") or grow(engine, n, cap))
    pres, rep = make_presentation("cycle", 5), SimpleRep(5, 2)
    check_stability(pres)
    calls.clear()
    table = character_table(pres, rep, 5)
    assert sorted(calls) == ["_check_max_degree", "check_stability", "grow"]
    # the rows are the series of each class on its own
    assert table.rows == tuple((g.label(), tuple(character_coeffs(pres, g, rep, 5)))
                               for g, _size in conjugacy_classes(5))
    with pytest.raises(ModulusError):
        character_table(pres, SimpleRep(3, 1), 5)
    with pytest.raises(InputError):
        character_table(pres, rep, -1)


def test_a_fractional_e1_trace_over_q_is_an_error():
    # off a stable ideal the a = 1 pass need not sum to integers, and the
    # engine refuses to fold such a bucket; a table stops at the check first
    pres = Presentation(3, (make_relation([((1, 0), Fraction(3, 2)), ((2, 2), Fraction(1))]),
                            make_relation([((0, 2), Fraction(2, 3)), ((2, 0), Fraction(1))]),
                            make_relation([((1, 0), Fraction(1)), ((1, 1), Fraction(2, 3))])))
    pres.engine.grow(3)
    with pytest.raises(ArithmeticError):
        pres.engine._weight_buckets(3, 1)
    with pytest.raises(StabilityError):
        character_table(pres, SimpleRep(3, 1), 3)


def test_stability_is_one_verdict_for_every_representation():
    # e2 acts in V_i as the i-th power of its action in V_1, so every
    # representation index gives the verdict of index 1; each V_i asks a
    # fresh presentation, so no remembered pass decides for it
    def unstable():
        return Presentation(5, tuple(
            make_relation([((k, (k + 1) % 5), Fraction(1)), ((k, k), Fraction(1))])
            for k in range(5)))

    e2 = HeisenbergElement(5, 0, 1, 0)
    for i in range(1, 5):
        with pytest.raises(StabilityError):
            character_coeffs(unstable(), e2, SimpleRep(5, i), 2)
        character_coeffs(make_presentation("curveCa", 2), e2, SimpleRep(5, i), 2)
        character_coeffs(make_presentation("sklyanin5", 2, 3), e2, SimpleRep(5, i), 2)
    # the check itself takes the presentation alone
    with pytest.raises(StabilityError):
        check_stability(unstable())
    check_stability(make_presentation("curveCa", 2))


def test_the_field_is_read_off_the_coefficients():
    qw = make_presentation("cliffordC", 5, 1, Cyclotomic.zeta(5), 2)
    assert isinstance(qw.one(), Cyclotomic)
    assert type(make_presentation("cliffordC", 5, 1, 1, 2).one()) is Fraction
    # the catalog's Q(w) relations, rebuilt without a field, give its table
    rep = SimpleRep(5, 1)
    custom = Presentation(5, qw.relations)
    assert character_table(custom, rep, 3).same_series(character_table(qw, rep, 3))
    # rational coefficients beside a Cyclotomic are coerced into Q(w)
    mixed = tuple(tuple((w, c.rational_value() if c.is_rational() else c) for w, c in rel)
                  for rel in qw.relations)
    assert any(isinstance(c, Fraction) for rel in mixed for _w, c in rel)
    coerced = Presentation(5, mixed)
    assert coerced.relations == qw.relations
    assert all(isinstance(c, Cyclotomic) for rel in coerced.relations for _w, c in rel)
    assert type(Presentation(5, ()).one()) is Fraction


def _polynomial3_plus_cubic_orbit(c):
    """polynomial(3) plus the e1-orbit of c (x_k^3 - 2 x_{k+1}^3)."""
    return make_presentation("polynomial", 3).relations + tuple(
        make_relation([((k,) * 3, c), (((k + 1) % 3,) * 3, -2 * c)]) for k in range(3))


@pytest.mark.parametrize("c", [1 / 3, complex(1, 1), "1/3"], ids=["float", "complex", "str"])
def test_coefficients_outside_q_and_qw_are_input_errors(c):
    with pytest.raises(InputError):
        Presentation(3, _polynomial3_plus_cubic_orbit(c))


def test_a_cyclotomic_over_another_prime_is_a_modulus_error():
    with pytest.raises(ModulusError):
        Presentation(3, _polynomial3_plus_cubic_orbit(Cyclotomic.zeta(7)))
    with pytest.raises(ModulusError):
        make_presentation("curveCa", Cyclotomic.zeta(7))
    # control: the same orbit over Q, or with a Cyclotomic over p = 3, builds
    assert hilbert(Presentation(3, _polynomial3_plus_cubic_orbit(Fraction(1, 3))), 3) == \
        [1, 3, 6, 7]
    assert isinstance(Presentation(3, _polynomial3_plus_cubic_orbit(Cyclotomic.zeta(3))).one(),
                      Cyclotomic)


IDEAL_CASES = [("polynomial", 3), ("cycle", 5), ("sklyanin3", 1, 2, -3),
               ("cliffordC", 5, 1, 2, 3), ("curveCa", Cyclotomic(5, [1, 3]))]


@pytest.mark.parametrize("args", IDEAL_CASES,
                         ids=[make_presentation(*args).label() for args in IDEAL_CASES])
def test_in_ideal_agrees_with_the_ideal_oracle(args):
    # members are sums of u r v, non-members random words; the oracle reduces
    # over all p^n words, and a perturbed member flips both verdicts
    pres = make_presentation(*args)
    p, one = pres.p, pres.one()
    rng = random.Random(20141222)

    def oracle(tensor, n):
        vec = {}
        for w, c in tensor:
            i = word_to_index(w, p)
            vec[i] = vec.get(i, 0 * one) + c
        return not ideal_oracle.ideal_piece(pres, n).reduce(integral(vec)[0])

    def word(n):
        return tuple(rng.randrange(p) for _ in range(n))

    members = []
    for n in range(2, 5):
        member = []
        for _ in range(3):
            rel = rng.choice(pres.relations)
            left = rng.randrange(n - 1)
            u, v = word(left), word(n - 2 - left)
            scale = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
            member += [(u + w + v, scale * c) for w, c in rel]
        assert oracle(member, n) and in_ideal(pres, [member])
        members.append(member)
        for _ in range(12):
            tensor = [(word(n), one)]
            assert in_ideal(pres, [tensor]) == oracle(tensor, n)
        outside = [(next(w for w in itertools.product(range(p), repeat=n)
                         if not oracle([(w, one)], n)), one)]
        perturbed = member + outside
        assert not oracle(perturbed, n) and not in_ideal(pres, [perturbed])
    # one query over several degrees: every tensor must lie in I
    assert in_ideal(pres, members) and in_ideal(pres, [])
    assert not in_ideal(pres, members + [perturbed])


def _polynomial3_plus(*pairs):
    """polynomial(3) with one more relation, given as (word, coeff) pairs."""
    poly3 = make_presentation("polynomial", 3)
    return Presentation(3, poly3.relations + (make_relation(pairs),))


def test_stability_is_decided_on_the_algebra(monkeypatch):
    # x0 x1 x2 spans no e1-stable R_3, but its e1-images x2 x0 x1 and x1 x2 x0
    # equal it modulo the commutators: I is stable, and the table is the
    # ideal-side oracle's
    pres = _polynomial3_plus(((0, 1, 2), Fraction(1)))
    # its e1-image is no multiple of a relation, so it alone takes the normal forms
    reached = _spy_in_ideal(monkeypatch)
    check_stability(pres)
    assert reached == [[[((2, 0, 1), Fraction(1))]], []]
    for i in (1, 2):
        rep = SimpleRep(3, i)
        assert character_table(pres, rep, 5).rows == ideal_oracle.character_rows(pres, rep, 5)


def test_a_relation_already_in_the_ideal_changes_nothing():
    pres = _polynomial3_plus(((0, 1, 2), Fraction(1)), ((0, 2, 1), Fraction(-1)))
    rep = SimpleRep(3, 1)
    assert character_table(pres, rep, 6).same_series(
        character_table(make_presentation("polynomial", 3), rep, 6))


def test_a_relation_outside_every_stable_ideal_is_refused():
    # e1 sends x0^2 x1 to x2^2 x0, which is not in (commutators, x0^2 x1)
    pres = _polynomial3_plus(((0, 0, 1), Fraction(1)))
    with pytest.raises(StabilityError):
        character_table(pres, SimpleRep(3, 1), 2)


def test_the_cap_is_checked_before_the_stability_verdict():
    # the verdict needs the engine up to the top relation degree: an unstable
    # presentation over the cap there is a resource error first
    pres = Presentation(3, (make_relation([((0, 1), Fraction(1))]),))
    with pytest.raises(ResourceLimitError):
        character_coeffs(pres, HeisenbergElement(3, 1, 0, 0), SimpleRep(3, 1), 1, cap=5)
    with pytest.raises(StabilityError):
        character_coeffs(pres, HeisenbergElement(3, 1, 0, 0), SimpleRep(3, 1), 1)
    # so is a stable one that its relations' structure decides alone
    poly3 = make_presentation("polynomial", 3)
    with pytest.raises(ResourceLimitError):
        character_coeffs(poly3, HeisenbergElement(3, 1, 0, 0), SimpleRep(3, 1), 1, cap=5)
    assert not poly3.engine.stable
    character_coeffs(poly3, HeisenbergElement(3, 1, 0, 0), SimpleRep(3, 1), 1)


def normal_form_verdict(pres):
    """The generator, e1 then e2, under which the image of some relation
    leaves I by the engine's normal forms alone, every image through
    `in_ideal`; None when H_p acts."""
    p = pres.p
    images = {"e1": [[(tuple(x - 1 for x in w), c) for w, c in rel] for rel in pres.relations],
              "e2": [[(w, Cyclotomic.zeta(p, sum(w)) * c) for w, c in rel]
                     for rel in pres.relations]}
    return next((gen for gen, tensors in images.items() if not in_ideal(pres, tensors)), None)


def stability_verdict(pres):
    """The generator that `check_stability` names for a fresh copy of pres,
    which remembers no pass; None when it passes."""
    try:
        check_stability(Presentation(pres.p, pres.relations))
    except StabilityError as err:
        return str(err).rsplit(" ", 1)[1]
    return None


def _spy_in_ideal(monkeypatch):
    """The tensors of each `in_ideal` call, in call order."""
    reached = []
    in_ideal = gradedalg.in_ideal
    monkeypatch.setattr(gradedalg, "in_ideal", lambda pres, tensors, cap=None:
                        reached.append(sorted(map(sorted, tensors), key=str))
                        or in_ideal(pres, tensors, cap))
    return reached


STABILITY_CATALOG = [("polynomial", 3), ("polynomial", 5), ("polynomial", 7), ("cycle", 5),
                     ("cycle", 7), ("sklyanin3", 1, 1, 4), ("sklyanin3", 1, 2, -3),
                     ("cliffordC", 3, 1, 2), ("cliffordC", 5, 1, 2, 3),
                     ("cliffordC", 7, 1, 2, 3, 5), ("sklyanin5", 2, 3), ("curveCa", -2),
                     ("curveCa", Cyclotomic(5, [1, 3])), ("cliffordC", 5, 1, Cyclotomic.zeta(5), 2)]


@pytest.mark.parametrize("args", STABILITY_CATALOG,
                         ids=[make_presentation(*args).label() for args in STABILITY_CATALOG])
def test_the_stability_verdict_is_the_normal_forms_verdict_on_the_catalog(args, monkeypatch):
    # every catalog family, and the duals of polynomial and cycle, are decided
    # on the relations' structure alone: in_ideal sees no tensor; the other
    # duals' relations are read off NF_2, and some e1-images of them are no
    # multiple of one dual relation, but every dual relation is e2-homogeneous
    pres = make_presentation(*args)
    dual = quadratic_dual(pres)
    for algebra in (pres, dual):
        assert stability_verdict(algebra) == normal_form_verdict(algebra) is None
    reached = _spy_in_ideal(monkeypatch)
    check_stability(pres)
    check_stability(dual)
    structural = args[0] in ("polynomial", "cycle")
    assert reached[:2] == [[], []] and reached[3] == []
    assert (reached[2] == []) == structural


def _orbit(p, seed, ks=None):
    """The e1-orbit of seed, (word, coeff) pairs shifted by each k in ks
    (all of Z/p by default), each as a relation that keeps a repeated word."""
    return tuple(tuple((tuple((x + k) % p for x in w), c) for w, c in seed)
                 for k in (range(p) if ks is None else ks))


def test_the_stability_verdict_is_the_normal_forms_verdict_off_the_catalog():
    w = Cyclotomic.zeta(5)
    poly3 = make_presentation("polynomial", 3).relations
    cases = {
        # a single monomial: its e1-image is not in I
        Presentation(3, (make_relation([((0, 1), Fraction(1))]),)): "e1",
        # the e1-orbit of x0 x1 + x0^2 mixes e2-weights 1 and 0
        Presentation(3, _orbit(3, [((0, 1), 1), ((0, 0), 1)])): "e2",
        Presentation(5, _orbit(5, [((0, 1), 1), ((0, 0), 1)])): "e2",
        # the e1-images of x0 x1 + k x1 x0 lie on the words of another
        # relation, and are no multiple of it
        Presentation(3, tuple(make_relation([((k, k + 1), 1), ((k + 1, k), k + 1)])
                              for k in range(2)) + (make_relation([((2, 0), 1), ((0, 2), 3)]),)):
            "e1",
        # commutators plus a cubic outside or inside I
        Presentation(3, poly3 + (make_relation([((0, 0, 1), 1)]),)): "e1",
        Presentation(3, poly3 + (make_relation([((0, 1, 2), 1)]),)): None,
        Presentation(3, poly3 + (make_relation([((0, 1, 2), 1), ((0, 2, 1), -1)]),)): None,
        # an orbit less one of its relations; an orbit with rational and Q(w)
        # coefficients, of which each relation repeats a word after a zero
        Presentation(5, _orbit(5, [((1, 4), 1), ((2, 3), 1), ((0, 0), 2)], range(4))): "e1",
        Presentation(5, _orbit(5, [((1, 4), 0), ((1, 4), w), ((4, 1), 1 - w)])): None,
        Presentation(5, _orbit(5, [((1, 4), 0), ((1, 4), w), ((4, 1), 1 - w)], range(1, 5))):
            "e1",
        # x2^2 with zero terms on x0^2 and x1^2: its e1-image x1^2 and the
        # relation both lead with a zero, and x1^2 is not in I
        Presentation(3, ((((0, 0), 0), ((1, 1), 0), ((2, 2), 1)),)): "e1",
        # e2-inhomogeneous over Q(w): x0 x1 + w x0^2, and with a zero lead
        Presentation(5, _orbit(5, [((0, 1), 1), ((0, 0), w)])): "e2",
        Presentation(5, _orbit(5, [((0, 0), 0), ((0, 1), 1), ((0, 2), w)])): "e2",
    }
    for pres, verdict in cases.items():
        assert stability_verdict(pres) == normal_form_verdict(pres) == verdict, pres.relations


def test_same_series_compares_rows_whose_labels_differ():
    rep = SimpleRep(5, 1)
    cycle = character_table(make_presentation("cycle", 5), rep, 3)
    poly = character_table(make_presentation("polynomial", 5), rep, 3)
    renamed = replace(poly, rows=tuple((f"{label}'", coeffs) for label, coeffs in poly.rows))
    assert not cycle.same_series(renamed) and not renamed.same_series(cycle)
    # the presentation's name is not part of the series
    assert cycle.same_series(replace(cycle, kind="other"))


def test_same_series_keeps_the_class_order():
    cycle = character_table(make_presentation("cycle", 5), SimpleRep(5, 1), 3)
    rows = list(cycle.rows)
    rows[0], rows[1] = rows[1], rows[0]
    assert not cycle.same_series(replace(cycle, rows=tuple(rows)))


def test_engine_lives_and_dies_with_its_presentation():
    pres = make_presentation("cycle", 5)
    series = hilbert(pres, 3)
    ref = weakref.ref(pres.engine)
    del pres
    gc.collect()
    assert ref() is None
    # equal presentations built apart do not share an engine
    first, second = make_presentation("cycle", 5), make_presentation("cycle", 5)
    assert first == second and first.engine is not second.engine
    assert hilbert(first, 3) == hilbert(second, 3) == series
    rep = SimpleRep(5, 1)
    assert character_table(first, rep, 3).same_series(character_table(second, rep, 3))


def test_negative_max_degree_is_an_input_error():
    pres = make_presentation("polynomial", 3)
    with pytest.raises(InputError):
        hilbert(pres, -1)
    with pytest.raises(InputError):
        character_coeffs(pres, HeisenbergElement(3, 0, 0, 0), SimpleRep(3, 1), -2)
    assert hilbert(pres, 0) == [1]


def test_table_json_shape():
    table = character_table(make_presentation("polynomial", 3), SimpleRep(3, 1), 2)
    js = table.to_json()
    assert js["hilbert"] == [1, 3, 6]
    assert len(js["classes"]) == 11
    assert js["classes"][0]["rep"] == "1"


def obstruction_counts(pres, top):
    """Per degree 2..top, the words outside B_d whose prefix and suffix of
    length d-1 lie in B_{d-1}, read off the bases alone."""
    p, bases = pres.p, pres.engine.bases
    counts = []
    for d in range(2, top + 1):
        prev, cur, q = set(bases[d - 1]), set(bases[d]), p ** (d - 1)
        counts.append(sum(1 for u in prev for c in range(u * p, u * p + p)
                          if c not in cur and c % q in prev))
    return counts


R, O = "relations", "overlaps"
# (presentation, top, obstructions in degrees 2..top, row source of each
# degree that builds rows; every other degree builds none and rewrites)
OBSTRUCTIONS = (
    (("polynomial", 3), 8, [3, 0, 0, 0, 0, 0, 0], {2: R, 3: O}),
    (("polynomial", 5), 6, [10, 0, 0, 0, 0], {2: R, 3: O}),
    (("curveCa", 1), 6, [15, 0, 0, 0, 0], {2: R, 3: R}),
    (("curveCa", 2), 6, [15, 0, 0, 0, 0], {2: R, 3: R}),
    # monomial relations x_k^2: every overlap row is zero
    (("cliffordC", 5, 0, 1, 1), 6, [5, 0, 0, 0, 0], {2: R}),
    (("sklyanin3", 1, 1, -3), 8, [3, 2, 0, 0, 0, 0, 0], {2: R, 3: R, 4: O}),
    (("cliffordC", 5, 1, 2, 3), 7, [10, 5, 0, 0, 0, 0], {2: R, 3: R, 4: O, 5: O}),
    (("sklyanin5", 2, 2), 7, [10, 5, 0, 0, 0, 0], {2: R, 3: R, 4: O, 5: O}),
    (("cliffordC", 7, 1, 2, 3, 4), 6, [21, 8, 0, 0, 0], {2: R, 3: R, 4: O, 5: O}),
    (("cycle", 5), 7, [15, 3, 3, 3, 3, 3], {2: R, 3: O, 4: O, 5: O, 6: O, 7: O}),
)


@pytest.mark.parametrize("args,top,counts,sources", OBSTRUCTIONS,
                         ids=[make_presentation(*o[0]).label() for o in OBSTRUCTIONS])
def test_obstructions_and_the_rewriting_degrees(args, top, counts, sources, eliminations):
    pres = make_presentation(*args)
    engine = pres.engine
    engine.grow(top, 10 ** 12)
    assert obstruction_counts(pres, top) == counts
    # the engine records the same obstructions in the degrees that build rows
    assert {d: len(obs) for d, _q, obs in engine.rules} == {
        d: c for d, c in enumerate(counts, 2) if c}
    # rows only where a relation or an overlap row needs them (none from 2D
    # on, but in every degree of cycle(5)), from the pinned source
    assert eliminations.sources(engine) == sources
    # every degree without rows takes its candidates as B_n: no overlap row
    for n in set(range(3, top + 1)) - set(sources):
        assert engine._overlaps(n) == []


def test_a_relation_above_2D_keeps_elimination_until_past_it(eliminations):
    # commutators (D = 2) plus x_k^5: degree 5 brings three more obstructions,
    # whose overlaps with the commutators need rows in degree 6; the overlaps
    # of x_k^5 with itself have zero tails and need none
    relations = make_presentation("polynomial", 3).relations + tuple(
        make_relation([((k,) * 5, Fraction(1))]) for k in range(3))
    truncated = [sum(1 for e in itertools.product(range(5), repeat=3) if sum(e) == n)
                 for n in range(15)]
    assert truncated[:10] == [1, 3, 6, 10, 15, 18, 19, 18, 15, 10]
    pres = Presentation(3, relations)
    assert hilbert(pres, 14) == truncated
    assert [d for d, _q, _obs in pres.engine.rules] == [2, 5]
    assert eliminations.degrees(pres.engine) == [2, 3, 5, 6]
    # degree 5 has no overlap row: its relations alone make it build rows
    assert pres.engine._overlaps(5) == []
    # control: an engine blind to the degree-5 relations in its "no rows"
    # test takes the candidates as B_5 and misses x_k^5
    blind = Presentation(3, relations).engine
    blind.relations = [(d, rels) for d, rels in blind.relations if d < 5]
    blind.grow(5)
    assert [len(basis) for basis in blind.bases] == [1, 3, 6, 10, 15, 21] != truncated[:6]


@pytest.mark.parametrize("args,top,series", [
    (("sklyanin3", 1, 1, -3), 24, [math.comb(n + 2, 2) for n in range(25)]),
    (("curveCa", 2), 20, [1] + [5 * n for n in range(1, 21)]),
    # engines that eliminate every degree, and still rewrite every non-normal column
    (("cycle", 5), 12, [1] + [5 * n for n in range(1, 13)]),
    (("sklyanin3", 1, 2, -3), 12, [math.comb(n + 2, 2) for n in range(13)]),
], ids=["sklyanin3-24", "curveCa-20", "cycle5-12", "sklyanin3-1,2,-3-12"])
def test_deep_tables_fit_the_default_recursion_limit(args, top, series):
    # normal forms recurse through the memo, in eliminated degrees too; the
    # depth must stay far below the interpreter's default limit
    assert sys.getrecursionlimit() <= 1000
    pres = make_presentation(*args)
    assert character_table(pres, SimpleRep(pres.p, 1), top).hilbert_row() == series


def test_normal_form_nesting_does_not_grow_with_the_degree(monkeypatch):
    # a normal word is found normal through its prefixes, which no memo holds
    # beforehand; cycle(5) gets rules in every degree, and to degree 47, the
    # last within the default cap, the calls nest no deeper than to degree 12
    normal_form, depth = gradedalg.GradedEngine.normal_form, [0, 0]

    def nesting(self, n, index):
        depth[0] += 1
        depth[1] = max(depth)
        try:
            return normal_form(self, n, index)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(gradedalg.GradedEngine, "normal_form", nesting)
    deepest = []
    for top in (12, 47):
        depth[1] = 0
        series = hilbert(make_presentation("cycle", 5), top)
        assert series == [1] + [5 * n for n in range(1, top + 1)]
        deepest.append(depth[1])
    assert deepest[0] == deepest[1] <= 3


def test_no_row_space_outlives_grow(eliminations):
    # sklyanin3(1, 2, -3) takes relation multiples in every degree from 2,
    # cycle(5) overlap rows in every degree from 3
    relations, overlaps = make_presentation("sklyanin3", 1, 2, -3), make_presentation("cycle", 5)
    hilbert(relations, 6)
    hilbert(overlaps, 6, 10 ** 12)
    gc.collect()
    assert eliminations.sources(relations.engine) == dict.fromkeys(range(2, 7), "relations")
    assert eliminations.sources(overlaps.engine) == {2: "relations"} | dict.fromkeys(
        range(3, 7), "overlaps")
    assert all(space() is None for *_call, space in eliminations.calls)
    # control: a space somebody holds is seen alive, from either source
    kept = relations.engine._eliminate(3)
    assert eliminations.calls[-1][-1]() is kept
    engine = overlaps.engine
    kept = engine._resolve(3, engine._overlaps(3), [])
    assert eliminations.calls[-1][-1]() is kept


def test_normal_forms_try_no_longer_rule():
    # the e1-orbit of x0^2 + x1 x4: the normal word x4 x3 x1 has index 116,
    # and so has the degree-4 obstruction x0 x4 x3 x1, whose leading letter
    # is 0; a rule lookup that tried longer rules would rewrite a normal word
    pres = Presentation(5, tuple(make_relation([((k, k), 1), (((1 + k) % 5, (4 + k) % 5), 1)])
                                 for k in range(5)))
    engine = pres.engine
    engine.grow(4)
    assert engine.rules[-1][:2] == (4, 625) and 116 in engine.rules[-1][2]
    assert 116 in engine.bases[3]
    assert dict(engine.normal_form(3, 116)) == {116: 1}
    for n in range(5):
        piece = ideal_oracle.ideal_piece(pres, n)
        for w in range(5 ** n):
            assert dict(engine.normal_form(n, w)) == dict(piece.reduce({w: 1})), (n, w)


def test_the_memo_holds_tails_and_forms_looked_up():
    # a normal word is its own NF on demand: the polynomial ring has no rule
    # above degree 2, and hilbert looks up no form of degree 3 or more
    pres = make_presentation("polynomial", 5)
    hilbert(pres, 8)
    assert [len(pres.engine.forms[n]) for n in range(3, 9)] == [0] * 6
    # cycle(5) gets rules in every degree, and the memo of each degree holds
    # the tail of every one of its obstructions
    pres = make_presentation("cycle", 5)
    hilbert(pres, 6)
    engine = pres.engine
    assert [d for d, _q, _obs in engine.rules] == [2, 3, 4, 5, 6]
    for d, _q, obstructions in engine.rules:
        assert obstructions <= engine.forms[d].keys()
        for o in obstructions:
            residue = ideal_oracle.ideal_piece(pres, d).reduce({o: 1})
            assert dict(engine.forms[d][o]) == dict(residue), (d, o)


@pytest.mark.parametrize("args,top,sources,bound", [
    # overlap rows from degree 4 on; relation multiples in degrees 4 and 5
    # would insert up to 19,360 rows
    (("cliffordC", 11, 1, 2, 3, 4, 5, 6), 5, {2: R, 3: R, 4: O, 5: O}, 700),
    # dense tails: relation multiples in every degree
    (("sklyanin3", 1, 2, -3), 13, dict.fromkeys(range(2, 14), R), 1100),
], ids=["cliffordC11-5", "sklyanin3-1,2,-3-13"])
def test_row_sources_and_their_work_are_pinned(args, top, sources, bound, eliminations):
    # a deterministic work guard: a step that silently takes the other row
    # source changes the sources, and the RowSpace.insert count with them
    pres = make_presentation(*args)
    pres.engine.grow(top, 10 ** 12)
    assert eliminations.sources(pres.engine) == sources
    assert eliminations.inserts(pres.engine) <= bound


@pytest.fixture
def traces(monkeypatch):
    """The `GradedEngine.trace` calls from here on, as (element, degree)."""
    calls = []
    trace = gradedalg.GradedEngine.trace

    def counting(engine, g, rep, n):
        calls.append((g, n))
        return trace(engine, g, rep, n)

    monkeypatch.setattr(gradedalg.GradedEngine, "trace", counting)
    return calls


@pytest.mark.parametrize("args,traced,rows,values", [
    # over Q: 14 class keys, z^k, e2^b and e1 e2^b, of 6 degrees
    (("cycle", 5), 84, 6, 23),
    # over Q(w): every one of the 29 classes traced
    (QW_TABLE, 174, 6, 23),
], ids=["cycle5-5", "curveCa-qw-5"])
def test_table_traces_and_objects_are_pinned(args, traced, rows, values, traces):
    # a deterministic work guard: a table that traces every class over Q, or
    # holds equal rows or values apart, changes these counts
    pres = make_presentation(*args)
    rep = SimpleRep(pres.p, 1)
    table = character_table(pres, rep, 5, 10 ** 12)
    assert len(traces) == traced
    held = [row for _label, row in table.rows]
    assert len(set(map(id, held))) == len(set(held)) == rows
    assert len({id(c) for row in held for c in row}) == values
    # every row, collapsed or not, is the series of its own class, traced on
    # an engine of its own
    fresh = make_presentation(*args)
    for g, _size in conjugacy_classes(pres.p):
        assert list(table.row(g.label())) == character_coeffs(fresh, g, rep, 5, 10 ** 12)
    if args == QW_TABLE:
        assert table_digest(table) == QW_TABLE_DIGEST

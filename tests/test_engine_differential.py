"""The quotient-side engine against the ideal-side reference in
`ideal_oracle`: Hilbert series, full character tables and the normal forms
of all words, on the catalog and on random Heisenberg-stable presentations
over Q and Q(w), in degrees with and without rows.  Where p^n is too large
for the reference, the engine, from either row source, is checked against
one that takes relation multiples in every degree."""

import itertools
from fractions import Fraction

import ideal_oracle
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from algtool import gradedalg
from algtool.cyclotomic import Cyclotomic
from algtool.gradedalg import (GradedEngine, Presentation, character_table, hilbert,
                               make_presentation, make_relation)
from algtool.heisenberg import SimpleRep, conjugacy_classes
from algtool.linalg import ScaledVec, integral
from test_gradedalg import normal_form_verdict, stability_verdict

CATALOG = (
    (("polynomial", 3), 4),
    (("sklyanin3", 1, 1, -1), 6),
    (("sklyanin3", 1, 2, -3), 4),
    (("polynomial", 5), 3),
    (("cycle", 5), 3),
    # degree p, where the e1 rows stop vanishing: the e1 entry at n = 5 is 1
    (("cliffordC", 5, 1, 2, 3), 5),
    (("sklyanin5", 2, 2), 3),
    (("sklyanin5", Fraction(1, 2), Fraction(3, 7)), 3),
    (("curveCa", 2), 4),
    (("curveCa", Cyclotomic(5, (1, 3))), 4),
    (("cliffordC", 7, 1, 1, 2, 3), 2),
    (("cliffordC", 7, Fraction(2, 3), 1, Fraction(5, 2), 3), 2),
)


def assert_matches_oracle(pres: Presentation, top: int, rep_index: int = 1) -> None:
    rep = SimpleRep(pres.p, rep_index)
    assert hilbert(pres, top) == ideal_oracle.hilbert(pres, top)
    table = character_table(pres, rep, top)
    assert table.rows == ideal_oracle.character_rows(pres, rep, top)
    # A_n with p not dividing n is a sum of copies of one simple module, whose
    # character vanishes off the centre
    for (g, _size), (_label, coeffs) in zip(conjugacy_classes(pres.p), table.rows):
        if not g.is_central():
            assert all(not c for n, c in enumerate(coeffs) if n % pres.p)


def assert_normal_forms_match_oracle(pres: Presentation, top: int) -> None:
    """The engine's memo against I_n: B_n is the set of non-pivot indices of
    I_n, and the normal form of every word index of degree n is its residue
    modulo I_n."""
    p, one, engine = pres.p, pres.one(), pres.engine
    engine.grow(top)
    for n in range(top + 1):
        piece = ideal_oracle.ideal_piece(pres, n)
        assert engine.bases[n] == [w for w in range(p ** n) if w not in piece.rows]
        for w in range(p ** n):
            residue = piece.reduce(integral({w: one})[0])
            assert dict(engine.normal_form(n, w)) == dict(residue), (n, w)


@pytest.mark.parametrize("args,top", [(("polynomial", 3), 4), (("sklyanin3", 1, 1, -3), 4),
                                      (("cycle", 5), 3), (("curveCa", 2), 3)])
def test_normal_forms_match_ideal_oracle(args, top):
    assert_normal_forms_match_oracle(make_presentation(*args), top)


# catalog presentations up to a rewriting degree (>= 2D) within the reference's reach
REWRITING = (
    (("polynomial", 3), 5),
    (("sklyanin3", 1, 1, -1), 6),
    (("sklyanin3", 1, 1, -3), 6),
    (("polynomial", 5), 4),
    (("curveCa", 2), 4),
    (("curveCa", Cyclotomic(5, (1, 3))), 4),
    (("cliffordC", 5, 0, 1, 1), 4),
    (("cliffordC", 5, 1, 2, 3), 6),
)


@pytest.mark.parametrize("args,top", REWRITING,
                         ids=[make_presentation(*args).label() for args, _ in REWRITING])
def test_rewriting_degrees_match_ideal_oracle(args, top, eliminations):
    pres = make_presentation(*args)
    pres.engine.grow(top)
    assert top not in eliminations.degrees(pres.engine)
    assert_normal_forms_match_oracle(pres, top)


class EliminatingEngine(GradedEngine):
    """The engine with relation multiples in every degree: no overlap rows,
    and no degree that builds none.  B_n are the non-pivot columns u x_j,
    and the new obstructions the pivots with a normal suffix."""

    def _build(self, n: int) -> None:
        p, q = self.p, self.p ** (n - 1)
        space = self._eliminate(n)
        pivots, suffixes = space.rows, set(self.bases[n - 1])
        basis = [c for u in self.bases[n - 1] for c in range(u * p, u * p + p) if c not in pivots]
        obstructions = frozenset(c for c in pivots if c % q in suffixes)
        if obstructions:
            self.rules.append((n, q * p, obstructions))
        self.bases.append(basis)
        self.forms.append({c: ScaledVec({c: self.unit}) for c in basis}
                          | {o: space.reduce({o: self.unit}) for o in obstructions})


def eliminating_engine(pres: Presentation) -> GradedEngine:
    """A reference engine that takes relation multiples in every degree."""
    return EliminatingEngine(pres)


def overlap_engine(pres: Presentation, monkeypatch) -> GradedEngine:
    """An engine that takes overlap rows in every degree that builds rows,
    whatever they cost: OVERLAP_WEIGHT is 0 from here on."""
    monkeypatch.setattr(gradedalg, "OVERLAP_WEIGHT", 0)
    return GradedEngine(pres)


def assert_columns_match(engine: GradedEngine, reference: GradedEngine, top: int) -> None:
    """Equal B_n and equal normal forms of every column u x_j, u in B_{n-1},
    up to degree top; every other word's form follows from these."""
    p = engine.p
    engine.grow(top, 10 ** 12)
    reference.grow(top, 10 ** 12)
    for n in range(1, top + 1):
        assert engine.bases[n] == reference.bases[n], n
        for c in (c for u in engine.bases[n - 1] for c in range(u * p, u * p + p)):
            got, want = engine.normal_form(n, c), reference.normal_form(n, c)
            assert (got.nums, got.den) == (want.nums, want.den), (n, c)


BEYOND_ORACLE = (
    (("sklyanin5", 2, 2), 7),
    (("sklyanin5", Fraction(1, 2), Fraction(3, 7)), 7),
    (("cliffordC", 7, 1, 1, 2, 3), 6),
    (("cliffordC", 7, Fraction(2, 3), 1, Fraction(5, 2), 3), 6),
    # new obstructions in every degree
    (("cycle", 5), 16),
    (("sklyanin3", 1, 2, -3), 13),
)


@pytest.mark.parametrize("args,top", BEYOND_ORACLE,
                         ids=[make_presentation(*args).label() for args, _ in BEYOND_ORACLE])
def test_rewriting_matches_elimination_beyond_the_oracle(args, top, eliminations, monkeypatch):
    pres = make_presentation(*args)
    reference = eliminating_engine(pres)
    assert_columns_match(pres.engine, reference, top)
    assert eliminations.sources(reference) == dict.fromkeys(range(1, top + 1), "relations")
    # the overlap rows alone give the same engine, in every degree with rows
    overlaps = overlap_engine(pres, monkeypatch)
    assert_columns_match(overlaps, reference, top)
    built = eliminations.sources(overlaps)
    assert set(built.values()) == {"overlaps"} and set(built) <= set(range(2, top + 1))
    # no rows from 2D on where the obstructions stop
    if 2 * pres.engine.rules[-1][0] <= top:
        assert top not in eliminations.degrees(pres.engine)


def test_a_dropped_obstruction_is_caught():
    # control: without one degree-3 rule of sklyanin3 the rewriting degrees
    # keep words that are not normal
    pres = make_presentation("sklyanin3", 1, 1, -3)
    engine = pres.engine
    engine.grow(3)
    d, q, obstructions = engine.rules[1]
    assert (d, len(obstructions)) == (3, 2)
    engine.rules[1] = (d, q, obstructions - {min(obstructions)})
    # a word whose only obstruction suffix was dropped is taken as normal, so
    # a basis or a normal form is wrong
    with pytest.raises(AssertionError):
        assert_normal_forms_match_oracle(pres, 6)


@pytest.mark.parametrize("args,top", CATALOG,
                         ids=[make_presentation(*args).label() for args, _ in CATALOG])
def test_catalog_matches_ideal_oracle(args, top):
    assert_matches_oracle(make_presentation(*args), top)


def coefficients(field: str, p: int):
    """Nonzero rationals with denominators 1-3 over Q, r + s w over Q(w)."""
    if field == "QQ":
        return st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    pairs = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)
    return pairs.map(lambda rs: Cyclotomic(p, rs))


@st.composite
def orbit_presentations(draw):
    """e1-orbits of e2-homogeneous seeds: every word of a seed has the same
    digit sum mod p, so e2 scales each shifted seed and the relation span is
    stable under H_p."""
    p = draw(st.sampled_from((3, 5)))
    field = draw(st.sampled_from(("QQ", "QW")))
    relations = []
    for _ in range(draw(st.integers(1, 3 if p == 3 else 2))):
        degree = draw(st.sampled_from((2, 3))) if p == 3 else 2
        weight = draw(st.integers(0, p - 1))
        words = [w for w in itertools.product(range(p), repeat=degree) if sum(w) % p == weight]
        chosen = draw(st.lists(st.sampled_from(words), min_size=1, max_size=3, unique=True))
        coeffs = draw(st.lists(coefficients(field, p), min_size=len(chosen),
                               max_size=len(chosen)))
        for k in range(p):
            relations.append(make_relation(
                [(tuple((x + k) % p for x in w), c) for w, c in zip(chosen, coeffs)]))
    return Presentation(p, tuple(relations))


@seed(20141222)
@settings(max_examples=30, deadline=None, database=None)
@given(pres=orbit_presentations(), rep_index=st.integers(1, 2))
def test_random_orbit_presentations_match_ideal_oracle(pres, rep_index):
    top = 4 if pres.p == 3 else 3
    assert_matches_oracle(pres, top, rep_index)
    # about half of the p = 3 draws rewrite by degree 6
    assert_normal_forms_match_oracle(pres, 6 if pres.p == 3 else 4)


@seed(20261019)
@settings(max_examples=20, deadline=None, database=None)
@given(pres=orbit_presentations())
def test_random_orbit_presentations_match_elimination_from_either_source(pres):
    # Q(w) coefficients and relations of degree 3 through both row sources
    top = 6 if pres.p == 3 else 4
    reference = eliminating_engine(pres)
    assert_columns_match(GradedEngine(pres), reference, top)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_columns_match(overlap_engine(pres, monkeypatch), reference, top)


@seed(20261019)
@settings(max_examples=20, deadline=None, database=None)
@given(pres=orbit_presentations())
def test_random_orbit_presentations_take_the_normal_forms_verdict(pres):
    # each is stable; less its last relation, each of these draws loses e1
    assert stability_verdict(pres) == normal_form_verdict(pres) is None
    cut = Presentation(pres.p, pres.relations[:-1])
    assert stability_verdict(cut) == normal_form_verdict(cut) == "e1"


def per_a_buckets(engine: GradedEngine, n: int, a: int) -> list:
    """The weight buckets of (n, a) by their own pass over B_n: the sum of
    [w] NF(w - a) over the normal words w of each e2-weight."""
    p = engine.p
    buckets = [0] * p
    for w in engine.bases[n]:
        digits = [w // p ** e % p for e in range(n)]
        nf = engine.normal_form(n, sum((x - a) % p * p ** e for e, x in enumerate(digits)))
        buckets[sum(digits) % p] += nf.get(w, 0)
    return buckets


def assert_buckets_match_their_passes(pres: Presentation, top: int) -> None:
    """The buckets of a = 0, a histogram of B_n, in every degree up to top,
    and those of every a in the degrees divisible by p, against a pass each."""
    engine = pres.engine
    engine.grow(top, 10 ** 12)
    for n in range(top + 1):
        for a in range(pres.p if n % pres.p == 0 else 1):
            assert engine._weight_buckets(n, a) == per_a_buckets(engine, n, a), (n, a)


@pytest.mark.parametrize("args,top", CATALOG,
                         ids=[make_presentation(*args).label() for args, _ in CATALOG])
def test_weight_buckets_match_a_pass_per_a(args, top):
    # over Q the a > 1 buckets are the a = 1 pass (module docstring)
    pres = make_presentation(*args)
    assert_buckets_match_their_passes(pres, max(top, pres.p))


@seed(20261019)
@settings(max_examples=20, deadline=None, database=None)
@given(pres=orbit_presentations())
def test_random_weight_buckets_match_a_pass_per_a(pres):
    assert_buckets_match_their_passes(pres, 2 * pres.p if pres.p == 3 else pres.p)


def test_a_histogram_one_word_off_is_caught(monkeypatch):
    # control: the weights of B_4 of cycle(5), p not dividing 4, less one word
    word_map = GradedEngine._word_map

    def short(engine, n, a):
        weights = word_map(engine, n, a)
        return dict(list(weights.items())[1:]) if (n, a) == (4, 0) else weights

    monkeypatch.setattr(GradedEngine, "_word_map", short)
    with pytest.raises(AssertionError):
        assert_buckets_match_their_passes(make_presentation("cycle", 5), 4)


def scanned_overlaps(engine: GradedEngine, n: int) -> list:
    """The overlaps of degree n that `GradedEngine._overlaps` must return, by
    a scan of every pair of obstructions of every pair of rule degrees below
    n, in its order: by d1, then d2, then each rule's own order."""
    p, q = engine.p, engine.p ** (n - 1)
    middles = set(engine.bases[n - 2])
    found = []
    for d1, _q1, firsts in engine.rules:
        for d2, _q2, seconds in engine.rules:
            k, lift = d1 + d2 - n, p ** (n - d1)  # |c|, p^|b|
            found += [(d1, o1, d2, o2) for o1 in firsts for o2 in seconds
                      if 0 < k < min(d1, d2) and o1 % p ** k == o2 // lift
                      and (engine.forms[d1][o1].nums or engine.forms[d2][o2].nums)
                      and (o1 * lift + o2 % lift) % q // p in middles]
    return found


FILED = BEYOND_ORACLE + ((("cliffordC", 11, 1, 1, 2, 3, 4, 5), 4),)


@pytest.mark.parametrize("args,top", FILED,
                         ids=[make_presentation(*args).label() for args, _ in FILED])
def test_filed_overlaps_are_the_scanned_ones_in_order(args, top, monkeypatch):
    overlaps, counts = GradedEngine._overlaps, {}

    def checked(engine, n):
        found = overlaps(engine, n)
        assert found == scanned_overlaps(engine, n), n
        counts[n] = len(found)
        return found

    monkeypatch.setattr(GradedEngine, "_overlaps", checked)
    make_presentation(*args).engine.grow(top, 10 ** 12)
    assert sorted(counts) == list(range(1, top + 1)) and sum(counts.values()) > 0


def test_only_qw_keeps_a_pass_per_a():
    # p divides n = 0 and n = 5: a pass per a over Q(w), and a = 0, 1 over Q
    for args, passes in ((("curveCa", Cyclotomic(5, (1, 3))), range(5)),
                         (("curveCa", 2), range(2)), (("cliffordC", 5, 1, 2, 3), range(2))):
        pres = make_presentation(*args)
        character_table(pres, SimpleRep(5, 1), 5)
        assert sorted(pres.engine._buckets) == sorted(
            [(n, 0) for n in range(6)] + [(n, a) for n in (0, 5) for a in passes if a])

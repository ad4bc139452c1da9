"""The quotient-side engine against the ideal-side reference in
`ideal_oracle`: Hilbert series and full character tables, on the catalog
and on random Heisenberg-stable presentations over Q and Q(w)."""

import itertools
from fractions import Fraction

import ideal_oracle
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from algtool.cyclotomic import Cyclotomic
from algtool.gradedalg import (Presentation, character_table, hilbert,
                               make_presentation, make_relation)
from algtool.heisenberg import SimpleRep, conjugacy_classes

CATALOG = (
    (("polynomial", 3), 4),
    (("sklyanin3", 1, 1, -1), 4),
    (("sklyanin3", 1, 2, -3), 4),
    (("polynomial", 5), 3),
    (("cycle", 5), 3),
    (("cliffordC", 5, 1, 2, 3), 3),
    (("sklyanin5", 2, 2), 3),
    (("sklyanin5", Fraction(1, 2), Fraction(3, 7)), 3),
    (("curveCa", 2), 3),
    (("curveCa", Cyclotomic(5, (1, 3))), 3),
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
    return Presentation(p, field, tuple(relations))


@seed(20141222)
@settings(max_examples=30, deadline=None, database=None)
@given(pres=orbit_presentations(), rep_index=st.integers(1, 2))
def test_random_orbit_presentations_match_ideal_oracle(pres, rep_index):
    assert_matches_oracle(pres, 4 if pres.p == 3 else 3, rep_index)

"""The catalogue of the mutation probe `tests/mutants.py` against the tree:
each entry's edit applies exactly once, and its named tests exist."""

import re

from mutants import MUTANTS, ROOT


def test_every_old_text_occurs_exactly_once():
    for mutant in MUTANTS:
        text = (ROOT / mutant.file).read_text()
        assert text.count(mutant.old) == 1, (mutant.name, mutant.file)
        assert mutant.new != mutant.old, mutant.name


def test_mutant_names_are_unique_and_their_tests_exist():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        for test in mutant.tests or ():
            path, _, function = test.partition("::")
            assert re.search(rf"^def {function}\(", (ROOT / path).read_text(), re.M), test

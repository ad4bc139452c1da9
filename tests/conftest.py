import os
import weakref
from pathlib import Path

import pytest

from algtool.cyclotomic import Cyclotomic
from algtool.gradedalg import GradedEngine
from algtool.linalg import RowSpace

# Tests that start `python -m algtool.cli` in a subprocess need the package
# there too: pyproject.toml puts src/ on this process's sys.path only.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


class RowSourceLog:
    """Every call of a `GradedEngine` row source, in order, as (engine, degree,
    source, RowSpace.insert calls it made, weak reference to the RowSpace it
    returned).  The sources are "relations" (`_eliminate`, the relation
    multiples) and "overlaps" (`_resolve`, the overlap rows); a degree built
    with neither builds no rows."""

    def __init__(self):
        self.calls = []

    def sources(self, engine: GradedEngine) -> dict:
        """Degree -> row source, over the degrees in which `engine` built rows."""
        return {n: source for e, n, source, _inserts, _space in self.calls if e is engine}

    def degrees(self, engine: GradedEngine) -> list:
        """The degrees in which `engine` built rows."""
        return list(self.sources(engine))

    def inserts(self, engine: GradedEngine) -> int:
        """`RowSpace.insert` calls made by the row sources of `engine`."""
        return sum(inserts for e, _n, _source, inserts, _space in self.calls if e is engine)


@pytest.fixture
def eliminations(monkeypatch):
    """A `RowSourceLog` of the row sources of every engine from here on.
    Every row inserted meanwhile must keep the `RowSpace` input contract:
    int or Cyclotomic numerators, none of them zero."""
    log = RowSourceLog()
    inserts = [0]
    insert = RowSpace.insert

    def counting(space, vec):
        inserts[0] += 1
        assert all(type(v) in (int, Cyclotomic) and v for v in vec.values()), vec
        return insert(space, vec)

    def recording(method, source):
        def call(engine, n, *args):
            before = inserts[0]
            space = method(engine, n, *args)
            log.calls.append((engine, n, source, inserts[0] - before, weakref.ref(space)))
            return space
        return call

    monkeypatch.setattr(RowSpace, "insert", counting)
    monkeypatch.setattr(GradedEngine, "_eliminate", recording(GradedEngine._eliminate, "relations"))
    monkeypatch.setattr(GradedEngine, "_resolve", recording(GradedEngine._resolve, "overlaps"))
    return log


class AcceptanceLog:
    """Collects one PASS/FAIL line per acceptance criterion; printed in the
    terminal summary so the lines survive pytest's output capture."""

    def __init__(self):
        self.lines = []

    def announce(self, name: str, passed: bool) -> None:
        self.lines.append(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}")


_LOG = AcceptanceLog()


@pytest.fixture
def acceptance_log():
    return _LOG


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LOG.lines:
        terminalreporter.section("acceptance criteria")
        for line in _LOG.lines:
            terminalreporter.write_line(line)

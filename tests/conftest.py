import os
import weakref
from pathlib import Path

import pytest

from algtool.gradedalg import GradedEngine

# Tests that start `python -m algtool.cli` in a subprocess need the package
# there too: pyproject.toml puts src/ on this process's sys.path only.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


class EliminationLog:
    """Every `GradedEngine._eliminate` call, in order, as (engine, degree,
    weak reference to the RowSpace it returned)."""

    def __init__(self):
        self.calls = []

    def degrees(self, engine: GradedEngine) -> list:
        """The degrees in which `engine` eliminated."""
        return [n for e, n, _space in self.calls if e is engine]


@pytest.fixture
def eliminations(monkeypatch):
    """An `EliminationLog` of the `_eliminate` calls of every engine from here on."""
    log = EliminationLog()
    eliminate = GradedEngine._eliminate

    def recording(engine, n):
        space = eliminate(engine, n)
        log.calls.append((engine, n, weakref.ref(space)))
        return space

    monkeypatch.setattr(GradedEngine, "_eliminate", recording)
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

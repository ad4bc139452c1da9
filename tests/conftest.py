import os
from pathlib import Path

import pytest

# Tests that start `python -m algtool.cli` in a subprocess need the package
# there too: pyproject.toml puts src/ on this process's sys.path only.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


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

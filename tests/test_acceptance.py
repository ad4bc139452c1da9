"""One test per acceptance criterion; each records a PASS/FAIL line that the
conftest hook prints in the terminal summary.

Criteria 1-8 run the importable checks from algtool.selftest; criterion 9
runs the CLI selftest in two cold interpreters with different hash seeds and
compares bytes.
"""

import os
import subprocess
import sys

from algtool import selftest


def _run(key: str, acceptance_log):
    result = selftest.CRITERIA[key](0)
    acceptance_log.announce(result.name, result.passed)
    assert result.passed, result.details
    return result


def test_criterion_1_heisenberg_structure(acceptance_log):
    _run("1", acceptance_log)


def test_criterion_2_hilbert_fixtures(acceptance_log):
    _run("2", acceptance_log)


def test_criterion_3_character_series_fixtures(acceptance_log):
    _run("3", acceptance_log)


def test_criterion_4_koszul_identity(acceptance_log):
    _run("4", acceptance_log)


def test_criterion_5_clifford_profiles(acceptance_log):
    result = _run("5", acceptance_log)
    assert result.details["build_reps_worst_residual"] < 1e-9


def test_criterion_6_order2_sklyanin(acceptance_log):
    _run("6", acceptance_log)


def test_criterion_7_onedim_reps(acceptance_log):
    _run("7", acceptance_log)


def test_criterion_8_shioda_s15(acceptance_log):
    result = _run("8", acceptance_log)
    assert result.details["singular_points"] == 30
    assert result.details["cusp_cycles"] == 12


def test_criterion_9_selftest_determinism(acceptance_log):
    outputs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "algtool.cli", "selftest", "--format", "json"],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(proc.stdout)
    identical = outputs[0] == outputs[1]
    acceptance_log.announce("9-determinism", identical)
    assert identical

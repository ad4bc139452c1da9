import argparse
import json
import os
import subprocess
import sys

import pytest

from algtool.cli import build_parser, main, parse_scalar


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_scalar_modes():
    from fractions import Fraction
    assert parse_scalar("3/2") == Fraction(3, 2)
    assert parse_scalar("2") == Fraction(2)
    assert parse_scalar("0.5") == 0.5
    assert parse_scalar("3/2", "float") == 1.5
    assert parse_scalar("0.5", "exact") == Fraction(1, 2)


def test_hilbert_json_fixture(capsys):
    code, out = run_cli(capsys, "hilbert", "--algebra", "cycle", "--p", "5",
                        "--max-degree", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["hilbert"] == [1, 5, 10, 15, 20]


def test_charseries_fixture(capsys):
    code, out = run_cli(capsys, "charseries", "--algebra", "polynomial", "--p", "3",
                        "--class", "e1", "--max-degree", "3", "--format", "json")
    assert code == 0
    coeffs = json.loads(out)["coeffs"]
    assert [c["coeffs"][0][0] for c in coeffs] == ["1", "0", "0", "1"]


def test_sklyanin2_eliminate(capsys):
    code, out = run_cli(capsys, "sklyanin2", "eliminate", "--format", "json")
    assert code == 0
    assert json.loads(out)["check"] is True


def test_sklyanin2_t_indeterminate(capsys):
    code, out = run_cli(capsys, "sklyanin2", "t", "--a", "2", "--b", "2",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["t"] == "indeterminate"


def test_check_failure_exit_code(capsys):
    # (0, 1) is off the curve, so the ideal check reports deg6 = false
    code, out = run_cli(capsys, "sklyanin2", "ideal", "--a", "0.0", "--b", "1.0",
                        "--format", "json")
    assert code == 2
    assert json.loads(out)["deg6"] is False


def test_shioda_orbit(capsys):
    code, out = run_cli(capsys, "shioda5", "orbit", "--a", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == 25 and payload["relations_ok"]


def test_shioda_singular_points_payload(capsys):
    from algtool.poly import scalar_to_json
    from algtool.shioda5 import thirty_points
    code, out = run_cli(capsys, "shioda5", "singular", "--format", "json")
    assert code == 0
    expected = [[scalar_to_json(c) for c in pt] for pt in thirty_points()]
    assert json.loads(out)["points"] == json.loads(json.dumps(expected))


def test_selftest_subset_determinism():
    outputs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "algtool.cli", "selftest", "--criteria", "2,7",
             "--format", "json"],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["passed"] and len(report["criteria"]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 1


def test_threads_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--threads", "2"])
    assert exc.value.code == 1


def test_tol_residual_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["sklyanin2", "minors", "--tol-residual", "1e-8"])
    assert exc.value.code == 1


def test_resource_error_payload(capsys):
    code, out = run_cli(capsys, "hilbert", "--algebra", "polynomial", "--p", "5",
                        "--max-degree", "9", "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "resource"


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "algtool.cli", "shioda5", "fiber",
                           "--format", "json"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cusp_cycles"] == 12


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "hilbert", "--algebra", "polynomial", "--p", "3",
                        "--max-degree", "3", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["hilbert"] == [1, 3, 6, 10]


@pytest.mark.parametrize("argv", [
    ["hilbert", "--algebra", "sklyanin3", "--params", "1,1", "--max-degree", "3"],
    ["charseries", "--algebra", "polynomial", "--p", "3", "--class", "e7x",
     "--max-degree", "2"],
    ["charseries", "--algebra", "polynomial", "--p", "3", "--class", "e1^x",
     "--max-degree", "2"],
    ["hilbert", "--algebra", "sklyanin3", "--params", "1,x,1", "--max-degree", "3"],
    ["hilbert", "--algebra", "cycle", "--p", "3", "--max-degree", "3"],
    ["hilbert", "--algebra", "sklyanin3", "--p", "7", "--params", "1,1,-1", "--max-degree", "3"],
    ["hilbert", "--algebra", "polynomial", "--params", "1,2", "--max-degree", "3"],
    ["hilbert", "--algebra", "curveCa", "--max-degree", "3"],
    ["sklyanin2", "onedim", "--params", "1,2"],
    ["sklyanin2", "onedim", "--params", "1,0,0"],
    ["shioda5", "two-torsion", "--samples", "0"],
], ids=["wrong-parameter-count", "unknown-generator", "bad-exponent", "unparsable-number",
        "cycle-below-5", "p-on-fixed-prime-family", "params-on-polynomial",
        "missing-parameters", "onedim-parameter-count", "onedim-zero-tail",
        "two-torsion-no-samples"])
def test_input_error_payload(capsys, argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "input"


def test_max_cells_flag_leaves_no_global_state(capsys):
    before = dict(os.environ)
    argv = ("hilbert", "--algebra", "polynomial", "--p", "3", "--max-degree", "3",
            "--format", "json")
    code, out = run_cli(capsys, *argv, "--max-cells", "10")
    assert code == 1 and json.loads(out)["error"]["code"] == "resource"
    assert dict(os.environ) == before
    code, out = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["hilbert"] == [1, 3, 6, 10]
    code, out = run_cli(capsys, "koszul-check", "--algebra", "polynomial", "--p", "3",
                        "--max-degree", "3", "--max-cells", "10", "--format", "json")
    assert code == 1 and json.loads(out)["error"]["code"] == "resource"


def test_selftest_passed_flags_are_json_bools(capsys):
    code, out = run_cli(capsys, "selftest", "--criteria", "8", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["criteria"][0]["passed"] is True


# polynomial(3) in degree 3 is a 9 x 18 working matrix: 162 cells
CAP_ARGV = ("hilbert", "--algebra", "polynomial", "--p", "3", "--max-degree", "3",
            "--format", "json")


def test_max_cells_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("ALGTOOL_MAX_CELLS", "161")
    code, out = run_cli(capsys, *CAP_ARGV)
    assert code == 1 and json.loads(out)["error"]["code"] == "resource"
    code, out = run_cli(capsys, *CAP_ARGV, "--max-cells", "162")
    assert code == 0 and json.loads(out)["hilbert"] == [1, 3, 6, 10]
    monkeypatch.setenv("ALGTOOL_MAX_CELLS", "162")
    code, out = run_cli(capsys, *CAP_ARGV)
    assert code == 0 and json.loads(out)["hilbert"] == [1, 3, 6, 10]
    code, out = run_cli(capsys, *CAP_ARGV, "--max-cells", "161")
    assert code == 1 and json.loads(out)["error"]["code"] == "resource"


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_max_cells_environment_variable(capsys, monkeypatch, value):
    monkeypatch.setenv("ALGTOOL_MAX_CELLS", value)
    code, out = run_cli(capsys, *CAP_ARGV)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "resource" and "ALGTOOL_MAX_CELLS" in error["message"]
    code, out = run_cli(capsys, *CAP_ARGV, "--max-cells", "162")
    assert code == 0 and json.loads(out)["hilbert"] == [1, 3, 6, 10]


@pytest.mark.parametrize("value", ["-5", "0"])
def test_non_positive_max_cells_flag(capsys, value):
    code, out = run_cli(capsys, "hilbert", "--algebra", "polynomial", "--p", "5",
                        "--max-degree", "2", "--max-cells", value, "--format", "json")
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {"code": "resource", "message": f"--max-cells must be positive, got {value}"}


ALGEBRA_FLAGS = {"--algebra", "--p", "--params", "--max-cells"}

# the flags each subcommand accepts: 54 option slots, 20 distinct flags
OPTION_SURFACE = {
    "hilbert": {"--format", "--out", *ALGEBRA_FLAGS, "--max-degree"},
    "charseries": {"--format", "--out", *ALGEBRA_FLAGS, "--max-degree", "--class", "--rep",
                   "--table"},
    "koszul-check": {"--format", "--out", *ALGEBRA_FLAGS, "--max-degree", "--class", "--rep"},
    "clifford-strata": {"--format", "--out", "--seed", "--tol-rank", "--t", "--samples"},
    "sklyanin2": {"--format", "--out", "--seed", "--tol-rank", "--tol-span", "--a", "--b",
                  "--mode", "--grid", "--samples", "--p", "--params"},
    "shioda5": {"--format", "--out", "--seed", "--tol-rank", "--a", "--samples"},
    "selftest": {"--format", "--out", "--seed", "--criteria"},
}


def test_option_surface():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {name: {flag for action in p._actions for flag in action.option_strings
                      if flag not in ("-h", "--help")}
               for name, p in sub.choices.items()}
    assert surface == OPTION_SURFACE
    assert sum(len(flags) for flags in surface.values()) == 54
    assert len(set().union(*surface.values())) == 20


# a minimal valid invocation of each subcommand, and the flags it does not read
MINIMAL_ARGV = {
    "hilbert": ["hilbert", "--algebra", "polynomial", "--p", "3", "--max-degree", "1"],
    "charseries": ["charseries", "--algebra", "polynomial", "--p", "3", "--max-degree", "1"],
    "koszul-check": ["koszul-check", "--algebra", "polynomial", "--p", "3", "--max-degree", "1"],
    "clifford-strata": ["clifford-strata"],
    "sklyanin2": ["sklyanin2", "t"],
    "shioda5": ["shioda5", "minors"],
    "selftest": ["selftest", "--criteria", "7"],
}
DROPPED_SLOTS = [
    ("hilbert", "--seed"), ("hilbert", "--tol-rank"), ("hilbert", "--tol-span"),
    ("charseries", "--seed"), ("charseries", "--tol-rank"), ("charseries", "--tol-span"),
    ("koszul-check", "--seed"), ("koszul-check", "--tol-rank"), ("koszul-check", "--tol-span"),
    ("clifford-strata", "--tol-span"), ("clifford-strata", "--max-cells"),
    ("sklyanin2", "--max-cells"),
    ("shioda5", "--tol-span"), ("shioda5", "--max-cells"),
    ("selftest", "--tol-rank"), ("selftest", "--tol-span"), ("selftest", "--max-cells"),
]


@pytest.mark.parametrize("command,flag", DROPPED_SLOTS,
                         ids=[f"{c}{f}" for c, f in DROPPED_SLOTS])
def test_unread_flag_is_a_usage_error(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(MINIMAL_ARGV[command] + [flag, "1"])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

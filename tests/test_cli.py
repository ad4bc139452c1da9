import copy
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from algtool import cli, clifford, gradedalg, sklyanin2
from algtool.cli import (COMMANDS, FLAGS, json_text, main, parse_argv, parse_scalar, resolve,
                         to_jsonable)
from algtool.cyclotomic import Cyclotomic
from algtool.linalg import RANK_TOL
import cli_reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_scalar_modes():
    from fractions import Fraction
    assert parse_scalar("3/2") == Fraction(3, 2)
    assert parse_scalar("2") == Fraction(2)
    assert parse_scalar("0.5") == 0.5
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
    from algtool.shioda5 import thirty_points
    code, out = run_cli(capsys, "shioda5", "singular", "--format", "json")
    assert code == 0
    expected = [[to_jsonable(c) for c in pt] for pt in thirty_points()]
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


def test_mode_flag_is_a_usage_error():
    # the literal picks exact or float: --a 1/2 is exact, --a 0.5 a float
    for mode in ("exact", "float"):
        with pytest.raises(SystemExit) as exc:
            main(["sklyanin2", "t", "--a", "1/2", "--mode", mode])
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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, fmt):
    target = tmp_path / "missing" / "report"
    code = main(["hilbert", "--algebra", "polynomial", "--p", "3", "--max-degree", "2",
                 "--format", fmt, "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 1 and not target.exists()
    if fmt == "json":
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["code"] == "input" and str(target) in error["message"]
    else:
        assert captured.out == ""
        assert captured.err.startswith("error [input]: ") and str(target) in captured.err


# an exact literal too large for a float
HUGE = "1" + "0" * 400


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
    ["selftest", "--criteria", "12"],
    ["selftest", "--criteria", "1,x"],
    ["sklyanin2", "minors", "--a", "1e400", "--b", "1"],
    ["sklyanin2", "t", "--a", "1e400", "--b", "1"],
    ["hilbert", "--algebra", "polynomial", "--p", "3", "--max-degree", "-1"],
    ["charseries", "--algebra", "polynomial", "--p", "3", "--max-degree", "-1", "--table"],
    ["koszul-check", "--algebra", "polynomial", "--p", "3", "--max-degree", "-2"],
    ["sklyanin2", "minors", "--a", HUGE, "--b", "1"],
    ["sklyanin2", "stratify", "--a", "1", "--b", HUGE],
    ["clifford-strata", "--t", HUGE],
    ["sklyanin2", "t", "--a", "1e300", "--b", "1"],
    ["sklyanin2", "minors", "--a", "1e300", "--b", "1"],
    ["sklyanin2", "ideal", "--a", "1e300", "--b", "1"],
    ["sklyanin2", "secant", "--a", "1e300", "--b", "1"],
    ["sklyanin2", "stratify", "--a", "1e300", "--b", "1"],
    ["sklyanin2", "stratify", "--a", "1", "--b", "1e300"],
    ["sklyanin2", "minors", "--a", "1e100", "--b", "1"],
    ["sklyanin2", "curve", "--grid", "1e100"],
    ["clifford-strata", "--samples", "-5"],
    ["sklyanin2", "stratify", "--a", "1.0", "--b", "0.12888995128730368", "--samples", "-2"],
], ids=["wrong-parameter-count", "unknown-generator", "bad-exponent", "unparsable-number",
        "cycle-below-5", "p-on-fixed-prime-family", "params-on-polynomial",
        "missing-parameters", "onedim-parameter-count", "onedim-zero-tail",
        "two-torsion-no-samples", "unknown-criterion", "unknown-criterion-in-list",
        "infinite-float-minors", "infinite-float-t", "negative-degree-hilbert",
        "negative-degree-table", "negative-degree-koszul", "huge-exact-minors",
        "huge-exact-stratify", "huge-exact-strata", "overflow-t", "overflow-minors",
        "overflow-ideal", "overflow-secant", "overflow-stratify-a", "overflow-stratify-b",
        "overflow-minors-1e100", "overflow-curve", "negative-samples-strata",
        "negative-samples-stratify"])
def test_input_error_payload(capsys, argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "input"
    if argv[0] == "selftest":
        assert repr(argv[-1].split(",")[-1]) in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("argv, flag", [
    (["sklyanin2", "onedim", "--params", "1,,2,2"], "--params"),
    (["sklyanin2", "onedim", "--params", "1,2,2,"], "--params"),
    (["hilbert", "--algebra", "cycle", "--p", "5", "--params", "", "--max-degree", "2"],
     "--params"),
    (["hilbert", "--algebra", "sklyanin3", "--params", "1, ,-1", "--max-degree", "2"],
     "--params"),
    (["sklyanin2", "curve", "--grid", ""], "--grid"),
    (["sklyanin2", "curve", "--grid", ",1"], "--grid"),
    (["selftest", "--criteria", ""], "--criteria"),
    (["selftest", "--criteria", "7,,2"], "--criteria"),
], ids=["params-inner", "params-trailing", "params-empty-on-cycle", "params-blank",
        "grid-empty", "grid-leading", "criteria-empty", "criteria-inner"])
def test_empty_list_field_is_an_input_error(capsys, argv, flag):
    # an empty field is not skipped: 1,,2,2 is not 1,2,2, and an empty
    # --criteria does not run every criterion
    code, out = run_cli(capsys, *argv, "--format", "json")
    error = json.loads(out)["error"]
    assert code == 1 and error["code"] == "input" and error["message"].startswith(flag)


@pytest.mark.parametrize("t", ["1e100", "1e300"])
def test_huge_float_strata_end_in_sampling_error(capsys, t):
    # at each line's root |det| is the rounding error of entries of size t,
    # far above sqrt(tol), or it overflows, so no det-zero point is found;
    # the overflow prints no numpy warning
    code, out = run_cli(capsys, "clifford-strata", "--t", t, "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "sampling"
    proc = subprocess.run([sys.executable, "-m", "algtool.cli", "clifford-strata", "--t", t,
                           "--format", "json"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, out, "")


def test_secant_at_vanishing_t_is_a_pole_error(capsys):
    # t ~ 1/a: the quadrics' 1/t term has a pole
    code, out = run_cli(capsys, "sklyanin2", "secant", "--a", "1e20", "--b", "1",
                        "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "pole"


def test_huge_exact_literal_stays_exact_in_t(capsys):
    # `sklyanin2 t` has no float path: the literal reaches t_param exactly
    code, out = run_cli(capsys, "sklyanin2", "t", "--a", HUGE, "--b", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["a"] == [HUGE, "1"]


@pytest.mark.parametrize("b, t", [("0.23606797", -52984002.83863904),
                                  ("0.2360679773", -1988935784.4653437)])
def test_t_near_its_pole_is_finite(capsys, b, t):
    # the denominator of t is 3.4e-8 and 8.9e-10 at these b, above the
    # 1e-12 cutoff, so t is a large finite value, not a pole; t is the
    # exact value at the decimal b, which the float one meets to 1e-6
    code, out = run_cli(capsys, "sklyanin2", "t", "--a", "1", "--b", b, "--format", "json")
    assert code == 0
    printed_t = json.loads(out)["t"]
    assert abs(printed_t - t) <= 1e-6 * abs(t)
    if b == "0.23606797":
        assert printed_t == -52984002.7463


def test_sklyanin5_is_the_name_of_clifford_c5(capsys):
    _, named = run_cli(capsys, "charseries", "--algebra", "sklyanin5", "--params", "1/2,3/7",
                       "--max-degree", "3", "--table", "--format", "json")
    _, clifford = run_cli(capsys, "charseries", "--algebra", "cliffordC", "--p", "5",
                          "--params", "1,1/2,3/7", "--max-degree", "3", "--table",
                          "--format", "json")
    named, clifford = json.loads(named), json.loads(clifford)
    assert (named.pop("kind"), named.pop("params")) == ("sklyanin5", ["1/2", "3/7"])
    assert (clifford.pop("kind"), clifford.pop("params")) == ("cliffordC", ["5", "1", "1/2", "3/7"])
    assert named == clifford


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


# only --max-cells sets the cap; ALGTOOL_MAX_CELLS in the environment is ignored


def test_max_cells_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("ALGTOOL_MAX_CELLS", "161")
    code, out = run_cli(capsys, *CAP_ARGV)
    assert code == 0 and json.loads(out)["hilbert"] == [1, 3, 6, 10]
    code, out = run_cli(capsys, *CAP_ARGV, "--max-cells", "161")
    assert code == 1 and json.loads(out)["error"]["code"] == "resource"
    monkeypatch.setenv("ALGTOOL_MAX_CELLS", "162")
    code, out = run_cli(capsys, *CAP_ARGV, "--max-cells", "161")
    assert code == 1 and json.loads(out)["error"]["code"] == "resource"
    code, out = run_cli(capsys, *CAP_ARGV, "--max-cells", "162")
    assert code == 0 and json.loads(out)["hilbert"] == [1, 3, 6, 10]


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_max_cells_environment_variable(capsys, monkeypatch, value):
    monkeypatch.setenv("ALGTOOL_MAX_CELLS", value)
    code, out = run_cli(capsys, *CAP_ARGV)
    assert code == 0 and json.loads(out)["hilbert"] == [1, 3, 6, 10]
    code, out = run_cli(capsys, *CAP_ARGV, "--max-cells", "161")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "resource" and "ALGTOOL_MAX_CELLS" not in error["message"]


def test_koszul_dual_step_is_refused_under_the_cap_before_it_is_built(capsys, monkeypatch):
    """The dual's degree-2 step is counted against --max-cells like any other:
    polynomial(101) needs 5050 x 10201 cells there, and koszul-check refuses
    it with hilbert's message before building it."""
    argv = ("--algebra", "polynomial", "--p", "101", "--max-degree", "2", "--format", "json")
    build = gradedalg.GradedEngine._build

    def below_two(engine, n):
        assert n < 2, "a degree-2 step was built"
        build(engine, n)

    monkeypatch.setattr(gradedalg.GradedEngine, "_build", below_two)
    start = time.perf_counter()
    code, out = run_cli(capsys, "koszul-check", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == run_cli(capsys, "hilbert", *argv)[1]
    assert json.loads(out)["error"] == {
        "code": "resource", "message": "degree 2 needs a 5050 x 10201 working matrix "
                                       "(51515050 cells), cap is 4000000"}


@pytest.mark.parametrize("argv", [
    ("hilbert", "--algebra", "polynomial", "--p", "3001", "--max-degree", "1"),
    ("sklyanin2", "onedim", "--p", "3001"),
], ids=["hilbert", "onedim"])
def test_oversized_catalog_family_is_refused_before_it_is_built(capsys, monkeypatch, argv):
    # built, polynomial(3001) would be 4.5 million relations and gigabytes
    def unbuilt(*args):
        raise AssertionError("a relation was built")

    monkeypatch.setattr(gradedalg, "_commutators", unbuilt)
    monkeypatch.setattr(gradedalg, "_e1_orbits", unbuilt)
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": "resource", "message": f"{'cliffordC' if 'onedim' in argv else 'polynomial'} "
                                       "over p=3001 has 4501500 relations, cap is 4000000"}
    monkeypatch.undo()
    code, out = run_cli(capsys, "hilbert", "--algebra", "polynomial", "--p", "59",
                        "--max-degree", "1", "--format", "json")
    assert code == 0 and json.loads(out)["hilbert"] == [1, 59]


def test_onedim_over_its_check_bound_is_refused_before_work(capsys, monkeypatch):
    # the catalog admits cliffordC(2819), 3,971,971 relations; its reps would
    # print 7,946,761 coordinates
    def unbuilt(*args):
        raise AssertionError("a relation was built")

    monkeypatch.setattr(gradedalg, "_e1_orbits", unbuilt)
    start = time.perf_counter()
    code, out = run_cli(capsys, "sklyanin2", "onedim", "--p", "2819", "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": "resource", "message": "onedim over p=2819 prints up to 7946761 coordinates, "
                                       "cap is 10201"}


@pytest.mark.parametrize("argv", [
    ("clifford-strata", "--t", "1"),
    ("sklyanin2", "stratify", "--a", "1.0", "--b", "0.12888995128730368"),
    ("shioda5", "two-torsion"),
], ids=["clifford-strata", "stratify", "two-torsion"])
def test_sample_count_above_the_bound_is_refused_before_sampling(capsys, monkeypatch, argv):
    # every sampler draws from a clifford.Draw; 10^11 samples would run for days
    def unsampled(*args):
        raise AssertionError("a sampler was entered")

    monkeypatch.setattr(clifford.Draw, "__init__", unsampled)
    code, out = run_cli(capsys, *argv, "--samples", str(10 ** 11), "--format", "json")
    assert code == 1
    assert json.loads(out)["error"] == {"code": "resource",
                                        "message": "sample count 100000000000 is above 10000"}
    # control: within the bound the command reaches the patched sampler
    with pytest.raises(AssertionError, match="a sampler was entered"):
        main([*argv, "--samples", "1", "--format", "json"])


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_memory_error_is_a_resource_error(capsys, monkeypatch, fmt):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "hilbert", exhausted)
    code = main(["hilbert", "--algebra", "polynomial", "--max-degree", "2", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    if fmt == "json":
        assert json.loads(captured.out)["error"] == {"code": "resource", "message": "out of memory"}
    else:
        assert captured.err == "error [resource]: out of memory\n"


@pytest.mark.parametrize("value", ["-5", "0"])
def test_non_positive_max_cells_flag(capsys, value):
    code, out = run_cli(capsys, "hilbert", "--algebra", "polynomial", "--p", "5",
                        "--max-degree", "2", "--max-cells", value, "--format", "json")
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {"code": "resource", "message": f"--max-cells must be positive, got {value}"}


ALGEBRA_FLAGS = {"--algebra", "--p", "--params", "--max-cells"}
STRATA_FLAGS = {"--seed", "--tol-rank", "--samples"}

# the flags each command and operation reads besides --format and --out
OPTION_SURFACE = {
    "hilbert": {*ALGEBRA_FLAGS, "--max-degree"},
    "charseries": {*ALGEBRA_FLAGS, "--max-degree", "--class", "--rep", "--table"},
    "koszul-check": {*ALGEBRA_FLAGS, "--max-degree", "--class", "--rep"},
    "clifford-strata": {*STRATA_FLAGS, "--t"},
    "sklyanin2 curve": {"--grid"},
    "sklyanin2 t": {"--a", "--b"},
    "sklyanin2 eliminate": set(),
    "sklyanin2 minors": {"--a", "--b", "--tol-rank", "--tol-span"},
    "sklyanin2 ideal": {"--a", "--b", "--tol-span"},
    "sklyanin2 secant": {"--a", "--b", "--tol-span"},
    "sklyanin2 onedim": {"--p", "--params"},
    "sklyanin2 stratify": {*STRATA_FLAGS, "--a", "--b"},
    "shioda5 minors": set(),
    "shioda5 orbit": {"--a"},
    "shioda5 two-torsion": {"--seed", "--samples"},
    "shioda5 singular": {"--tol-rank"},
    "shioda5 fiber": set(),
    "selftest": {"--seed", "--criteria"},
}


def leaves():
    """(argv words, {flag: Flag}) of every command and operation in the flag
    table, as main resolves it."""
    for command, (_, leaf) in COMMANDS.items():
        for op, entries in leaf.items() if isinstance(leaf, dict) else [(None, leaf)]:
            yield [command] if op is None else [command, op], resolve(entries)


def test_option_surface():
    surface = {" ".join(words): set(flags) for words, flags in leaves()}
    assert surface == {leaf: {"--format", "--out", *flags}
                       for leaf, flags in OPTION_SURFACE.items()}
    assert sum(len(flags) for flags in surface.values()) == 86
    assert len(set().union(*surface.values())) == len(FLAGS) == 19


# defaults that differ between leaves sharing a flag
@pytest.mark.parametrize("leaf,flag,default,required", [
    ("sklyanin2 onedim", "--p", 5, False), ("hilbert", "--p", None, False),
    ("sklyanin2 onedim", "--params", "1,2,2", False), ("hilbert", "--params", None, False),
    ("shioda5 two-torsion", "--samples", 20, False),
    ("sklyanin2 stratify", "--samples", 6, False), ("clifford-strata", "--samples", 6, False),
    ("koszul-check", "--max-degree", 4, False), ("hilbert", "--max-degree", None, True),
])
def test_leaf_defaults(leaf, flag, default, required):
    spec = next(flags for words, flags in leaves() if " ".join(words) == leaf)[flag]
    assert (spec.default, spec.required) == (default, required)


# a minimal valid invocation of each subcommand or operation, and the flags it
# does not read
MINIMAL_ARGV = {
    "hilbert": ["hilbert", "--algebra", "polynomial", "--p", "3", "--max-degree", "1"],
    "charseries": ["charseries", "--algebra", "polynomial", "--p", "3", "--max-degree", "1"],
    "koszul-check": ["koszul-check", "--algebra", "polynomial", "--p", "3", "--max-degree", "1"],
    "clifford-strata": ["clifford-strata"],
    "sklyanin2": ["sklyanin2", "t"],
    "sklyanin2-eliminate": ["sklyanin2", "eliminate"],
    "sklyanin2-onedim": ["sklyanin2", "onedim"],
    "shioda5": ["shioda5", "minors"],
    "shioda5-orbit": ["shioda5", "orbit"],
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
    # operations accept only the flags they read, and no flag is abbreviated
    ("sklyanin2-eliminate", "--a"), ("sklyanin2", "--seed"),
    ("sklyanin2-onedim", "--tol-span"), ("shioda5", "--seed"),
    ("shioda5-orbit", "--tol-rank"), ("hilbert", "--max-deg"),
]


@pytest.mark.parametrize("command,flag", DROPPED_SLOTS,
                         ids=[f"{c}{f}" for c, f in DROPPED_SLOTS])
def test_unread_flag_is_a_usage_error(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(MINIMAL_ARGV[command] + [flag, "1"])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("spaced,joined", [
    (["sklyanin2", "t", "--a", "-1/2", "--b", "1"],
     ["sklyanin2", "t", "--a=-1/2", "--b", "1"]),
    (["hilbert", "--algebra", "sklyanin3", "--params", "-1,1,1", "--max-degree", "3"],
     ["hilbert", "--algebra", "sklyanin3", "--params=-1,1,1", "--max-degree", "3"]),
], ids=["fraction", "params"])
def test_negative_literal_is_a_value(capsys, spaced, joined):
    code, out = run_cli(capsys, *spaced)
    assert (code, out) == run_cli(capsys, *joined)
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["clifford-strata"], ["sklyanin2", "minors"], ["sklyanin2", "ideal"],
    ["sklyanin2", "secant"], ["sklyanin2", "stratify"], ["shioda5", "singular"],
], ids=lambda argv: "-".join(argv))
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "1e400", "x"])
def test_tolerance_must_be_positive_and_finite(capsys, argv, value):
    flag = "--tol-span" if argv[-1] in ("ideal", "secant") else "--tol-rank"
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"{flag}={value}", "--format", "json"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["code"] == "usage" and flag in error["message"]


@pytest.mark.parametrize("op", ["minors", "secant"])
@pytest.mark.parametrize("value", ["9.99e-13", "1e-300"])
def test_tol_span_below_the_residual_floor_is_an_input_error(capsys, op, value):
    # a residual below the floor prints as 0.0, so a bound below it could
    # fail on a residual that reads 0.0
    code, out = run_cli(capsys, "sklyanin2", op, "--tol-span", value, "--format", "json")
    error = json.loads(out)["error"]
    assert code == 1 and error["code"] == "input"
    assert "--tol-span" in error["message"] and "1e-12" in error["message"]


@pytest.mark.parametrize("op", ["minors", "secant"])
def test_tol_span_at_the_residual_floor_runs(capsys, op):
    code, out = run_cli(capsys, "sklyanin2", op, "--a", "1.0", "--b", "0.12888995128730368",
                        "--tol-span", "1e-12", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["max_minor_residual" if op == "minors" else "residual"] == 0.0


def test_tol_span_of_ideal_is_a_rank_cutoff_with_no_floor(capsys):
    code, out = run_cli(capsys, "sklyanin2", "ideal", "--a", "1.0", "--b", "0.12888995128730368",
                        "--tol-span", "1e-13", "--format", "json")
    assert code == 0 and json.loads(out)["deg6"] is True


def test_to_jsonable_prints_a_residual_as_its_verdict_value():
    # and every other float to 12 significant digits
    from algtool.linalg import PRINTED_DIGITS, RESIDUAL_FLOOR, Residual
    below = Residual(9.99e-13)
    assert RESIDUAL_FLOOR == 1e-12 and PRINTED_DIGITS == 12 and below < RESIDUAL_FLOOR
    data = to_jsonable({"r": [below, Residual(1e-12), Residual(1.23456e-7), Residual(0.8050916),
                              Residual(math.inf)],
                        "f": [1.6011864169946894e-15, -2.018739572308024, 1e300, 0.1, -5.0]})
    assert data["r"] == [0.0, 1e-12, 1.23e-7, 0.805, math.inf]
    # every other float to 12 significant digits; comparisons read the raw value
    assert data["f"] == [1.60118641699e-15, -2.01873957231, 1e300, 0.1, -5.0]
    assert all(type(v) is float for v in data["r"] + data["f"]) and below > 0.0


def test_to_jsonable_prints_negative_zero_as_zero():
    data = to_jsonable([-0.0, complex(-0.0, -0.0), np.float64(-0.0), -1e-300 * 1e-300])
    assert data == [0.0, [0.0, 0.0], 0.0, 0.0]
    assert json.dumps(data) == "[0.0, [0.0, 0.0], 0.0, 0.0]"


def test_to_jsonable_prints_complex_parts_and_numpy_scalars_by_the_rule():
    third = 1 / 3
    data = to_jsonable({"z": complex(third, -2 * third), "nz": np.complex128(-third + 0j),
                        "x": np.float64(-third), "inf": [math.inf, np.float64(-math.inf)]})
    assert data == {"z": [0.333333333333, -0.666666666667], "nz": [-0.333333333333, 0.0],
                    "x": -0.333333333333, "inf": [math.inf, -math.inf]}
    assert type(data["x"]) is float and math.isnan(to_jsonable(math.nan))


def test_to_jsonable_prints_numpy_scalars_as_their_python_values():
    data = to_jsonable([np.int64(3), np.uint8(200), np.float32(0.1), np.bool_(True),
                        np.bool_(False), np.float16(-0.0), np.longdouble(1 / 3),
                        np.complex64(0.5 - 0.25j), {"n": np.int32(-7)}])
    assert data == [3, 200, 0.100000001490, True, False, 0.0, 0.333333333333, [0.5, -0.25],
                    {"n": -7}]
    assert [type(v) for v in data[:8]] == [int, int, float, bool, bool, float, float, list]
    assert json.dumps(data[:5]) == "[3, 200, 0.10000000149, true, false]"


def test_text_output_prints_floats_by_the_rule(capsys):
    # a = -0.0 and t = 0.0025000000000000005 in the raw arithmetic
    assert sklyanin2.t_param(-0.0, 0.1) == 0.0025000000000000005
    code, out = run_cli(capsys, "sklyanin2", "t", "--a", "-0.0", "--b", "0.1")
    assert code == 0 and out == "a: 0.0\nb: 0.1\nt: 0.0025\n"
    code, out = run_cli(capsys, "sklyanin2", "curve", "--grid", "1")
    assert out.splitlines()[0] == ('points: [{"a": 1.0, "b": -2.01873957231, "residual": 0.0, '
                                   '"t": 0.84170889797}]')


def test_empty_stratum_fails(capsys):
    code, out = run_cli(capsys, "sklyanin2", "stratify", "--a", "1.0",
                        "--b", "0.12888995128730368", "--samples", "0", "--format", "json")
    assert code == 2
    strata = {s["name"]: s for s in json.loads(out)["strata"]}
    assert strata["generic"]["points"] == 0 and strata["E-prime"]["points"] == 25


@pytest.mark.parametrize("argv", [
    ["hilbert", "--algebra", "cycle", "--format", "json"],
    ["hilbert", "--algebra", "cycle", "--format=json", "--max-degree", "x"],
    ["sklyanin2", "--format", "json", "t"],
    ["sklyanin2", "eliminate", "--a", "5", "--format", "json"],
    ["no-such-command", "--format", "json"],
    ["clifford-strata", "--seed", "-1", "--format", "json"],
], ids=["missing-flag", "bad-int", "flag-before-operation", "unread-flag", "unknown-command",
        "negative-seed"])
def test_usage_error_payload_under_json(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["error"]["code"] == "usage"


def test_help_exits_zero(capsys):
    for argv, listed in ((["-h"], "sklyanin2"), (["sklyanin2", "-h"], "stratify"),
                         (["sklyanin2", "stratify", "-h", "--format", "json"], "--tol-rank")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert listed in capsys.readouterr().out


# -- fuzz: argv drawn from the flag table --------------------------------------------

# values earlier fixes dealt with one by one
HOSTILE = [HUGE, "1e300", "1e400", "1e100", "nan", "inf", "-1", "0", "-1/2", "-1,1,1", "", "x",
           "1,,2", "1,2,"]
# plausible values of each flag, beside the hostile pool
SANE = {
    "--algebra": ["polynomial", "cycle", "sklyanin3", "cliffordC", "sklyanin5", "curveCa"],
    "--p": ["3", "5", "7"],
    "--params": ["1,1,-3", "1,2,2", "1,2,3,4", "1/2,3/7", "2"],
    "--max-cells": ["100", "1000000"],
    "--max-degree": ["1", "2", "3"],
    "--class": ["1", "z", "e1", "e2^2 z", "e1*e2"],
    "--rep": ["1", "2"],
    "--seed": ["0", "3"],
    "--tol-rank": ["1e-8", "0.5"],
    "--tol-span": ["1e-7", "1"],
    "--t": ["1", "2/3", "0.5"],
    "--samples": ["1", "2", "3"],
    "--a": ["1", "2", "1.0", "3/2"],
    "--b": ["1", "0.12888995128730368", "2"],
    "--grid": ["1,3/2,1/2", "2"],
    "--criteria": ["2", "3", "4", "7", "2,7"],
}
# cost bounds: an integer above its bound is never drawn
BOUNDS = {"--max-degree": 3, "--samples": 3}
# the comma-list flags: an empty list or an empty field in one is an input error
LISTS = ("--params", "--grid", "--criteria")


def _cheap(flag, value):
    try:
        return int(value) <= BOUNDS.get(flag, int(value))
    except ValueError:
        return True


def _draw_argv(rng, words, flags, outs):
    """argv for one leaf: a random subset of its flags with sane or hostile
    values (required flags mostly, --criteria always, so that selftest stays
    cheap; --out one of `outs`), sometimes with a flag the leaf does not
    read; also returns that flag, or None, and whether a comma-list flag got
    an empty field."""
    groups = []
    empty_field = False
    for flag, spec in flags.items():
        keep = 1 if flag == "--criteria" else 0.9 if spec.required else 0.5
        if flag == "--format" or rng.random() >= keep:
            continue
        if spec.store_true:  # --table
            groups.append([flag])
            continue
        if flag == "--out":
            value = str(rng.choice(outs))
        else:
            pool = SANE[flag] if rng.random() < 0.6 else HOSTILE
            value = rng.choice([v for v in pool if _cheap(flag, v)])
            empty_field |= flag in LISTS and "" in value.split(",")
        groups.append([flag, value] if rng.random() < 0.8 else [f"{flag}={value}"])
    unread = None
    if rng.random() < 0.15:
        unread = rng.choice(sorted(set(FLAGS) - set(flags) - {"--table"}))
        groups.append([unread, rng.choice(SANE[unread])])
    fmt = rng.choice(["json", "json", "text", None])
    if fmt:
        groups.insert(rng.randrange(len(groups) + 1), [f"--format={fmt}"])
    argv = [*words, *(word for group in groups for word in group)]
    return argv, unread, empty_field


def fuzz_corpus(tmp_path):
    """The fuzz test's 300 argv (seed 16), each with its unread flag or None
    and whether a comma-list flag got an empty field; --out is a writable
    report or one under a directory that does not exist."""
    rng = random.Random(16)
    table = list(leaves())
    outs = [tmp_path / "report", tmp_path / "missing" / "report"]
    for _ in range(300):
        words, flags = rng.choice(table)
        yield _draw_argv(rng, words, flags, outs)


def test_fuzz_the_flag_table(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "report")
    # CPU time of this process: the wall clock also counts the other load of
    # a shared machine
    start = time.process_time()
    for argv, unread, empty_field in fuzz_corpus(tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 1, argv
                code = 1
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert not caught, (argv, [str(w.message) for w in caught])
        # every value reaches its flag's type, negative literals included
        assert "expected one argument" not in out + err, argv
        if unread or empty_field or any(word.endswith(missing) for word in argv):
            assert code == 1, argv
        if "--format=json" in argv:
            assert err == "", argv
            if code == 1 or not any(word.startswith("--out") for word in argv):
                payload = json.loads(out)
                assert ("error" in payload) == (code == 1), argv
    assert time.process_time() - start < 4


# -- the parser against argparse -----------------------------------------------------


def _parsed(capsys, parse, argv):
    """(exit code, stdout, stderr, parsed values) of one parse; code None
    and the values when argv parses."""
    try:
        _handler, args = parse(list(argv))
        code, values = None, vars(args)
    except SystemExit as exc:
        code, values = exc.code, None
    out, err = capsys.readouterr()
    return code, out, err, values


def _assert_parses_as_argparse(capsys, argv):
    got = _parsed(capsys, parse_argv, argv)
    want = _parsed(capsys, cli_reference.parse_argv, argv)
    if want[0] == 0:  # a help screen: its bytes are the parser's own
        assert got[0] == 0, argv
    else:
        assert got == want, argv


def test_fuzz_corpus_parses_as_argparse(capsys, tmp_path):
    for argv, _unread, _empty_field in fuzz_corpus(tmp_path):
        _assert_parses_as_argparse(capsys, argv)


CHARSERIES = ["charseries", "--algebra", "cycle", "--max-degree", "2"]
HAND_ARGV = {
    "negative-literal": ["sklyanin2", "t", "--a", "-1/2"],
    "negative-decimal": ["sklyanin2", "t", "--a", "-.5", "--b", "-2"],
    "joined-dash-value": ["sklyanin2", "t", "--a=-x"],
    "dash-word-is-a-flag": ["sklyanin2", "t", "--a", "-x"],
    "dash-word-with-space": ["sklyanin2", "t", "--a", "-x y"],
    "lone-dash": ["sklyanin2", "t", "--a", "-"],
    "empty-value": ["sklyanin2", "t", "--a", ""],
    "repeated-flag": ["sklyanin2", "t", "--a", "1", "--b", "2", "--a", "3"],
    "table": [*CHARSERIES, "--table"],
    "table-twice": [*CHARSERIES, "--table", "--table"],
    "table-joined": [*CHARSERIES, "--table=1"],
    "table-joined-empty": [*CHARSERIES, "--table="],
    "double-dash-last": [*CHARSERIES, "--"],
    "double-dash-first": ["hilbert", "--", "--algebra", "cycle", "--max-degree", "2"],
    "double-dash-value": ["hilbert", "--algebra", "--", "cycle", "--max-degree", "2"],
    "double-dash-command": ["--"],
    "double-dash-operation": ["sklyanin2", "--", "t"],
    "help-after-bad-value": ["hilbert", "--algebra", "cycle", "--max-degree", "x", "-h"],
    "help-after-unread-flag": ["hilbert", "--seed", "1", "-h"],
    "help-before-bad-value": ["hilbert", "-h", "--max-degree", "x"],
    "help-joined": ["hilbert", "-hx"],
    "help-twice-joined": ["hilbert", "-hh"],
    "help-h-then-other": ["hilbert", "-hhx=1"],
    "help-joined-equals": ["hilbert", "-h="],
    "long-help-joined": ["sklyanin2", "eliminate", "--help=x"],
    "command-help-joined": ["-hx"],
    "command-long-help-joined": ["--help=", "hilbert"],
    "operation-help": ["shioda5", "-hh"],
    "operation-help-joined": ["shioda5", "-hq"],
    "flag-before-operation": ["sklyanin2", "--format", "json", "t"],
    "flag-before-command": ["--format", "json", "hilbert"],
    "format-json-alone": ["--format", "json"],
    "no-argv": [],
    "unknown-command": ["no-such-command"],
    "unknown-command-json": ["no-such-command", "--format=json"],
    "unknown-operation": ["sklyanin2", "no-such-operation"],
    "unknown-operation-json": ["shioda5", "no-such-operation", "--format", "json"],
    "negative-command": ["-1"],
    "unknown-single-dash": ["hilbert", "-x", "--algebra", "cycle", "--max-degree", "2"],
    "abbreviated": ["hilbert", "--alg", "cycle", "--max-deg", "2"],
    "unknown-joined": ["sklyanin2", "t", "--c=1", "stray"],
    "missing-value-last": ["sklyanin2", "t", "--a"],
    "missing-value-before-flag": ["sklyanin2", "t", "--a", "--b", "1"],
    "missing-flags": ["hilbert"],
    "missing-flags-json": ["hilbert", "--format", "json"],
    "missing-and-unread": ["hilbert", "--algebra", "cycle", "--seed", "1"],
    "bad-choice": ["hilbert", "--algebra", "nope", "--max-degree", "2"],
    "bad-format": ["shioda5", "fiber", "--format=xml"],
    "bad-int": ["hilbert", "--algebra", "cycle", "--max-degree", "2.0"],
    "bad-seed": ["selftest", "--seed", "x"],
    "negative-seed": ["clifford-strata", "--seed=-1", "--format=json"],
    "nan-tolerance": ["shioda5", "singular", "--tol-rank", "nan"],
    "bad-tolerance": ["sklyanin2", "secant", "--tol-span=1e-7x"],
    "stray-words": ["hilbert", "x", "--algebra", "cycle", "y", "--max-degree", "2", "z"],
    "koszul-default-degree": ["koszul-check", "--algebra", "cycle", "--class", "e1"],
    "onedim-defaults": ["sklyanin2", "onedim"],
    "two-torsion-defaults": ["shioda5", "two-torsion", "--seed", "3"],
}


@pytest.mark.parametrize("argv", list(HAND_ARGV.values()), ids=list(HAND_ARGV))
def test_hand_argv_parses_as_argparse(capsys, argv):
    _assert_parses_as_argparse(capsys, argv)


def test_joined_double_dash_is_a_value(capsys):
    # argparse dropped a joined '--' and stored [] (a TypeError later on)
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--algebra", "cycle", "--max-degree=--"])
    assert exc.value.code == 1
    assert capsys.readouterr().err == (
        "algtool hilbert: error: argument --max-degree: invalid int value: '--'\n")
    _handler, args = parse_argv(["sklyanin2", "t", "--a=--"])
    assert args.a == "--"


def test_help_lists_the_table(capsys):
    def help_text(argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-h"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    assert all(command in help_text([]) for command in COMMANDS)
    for command, (_, leaf) in COMMANDS.items():
        if isinstance(leaf, dict):
            assert all(operation in help_text([command]) for operation in leaf)
    for words, flags in leaves():
        text = help_text(words)
        for flag in flags.values():
            assert flag.name in text and flag.help in text, (words, flag.name)
        lines = text.splitlines()
        assert all(line.count("(default") < 2 for line in lines), (words, lines)


def test_help_shows_the_library_defaults(capsys):
    # each default is stated once, in the library, and the help reads it
    for argv, shown in ((["hilbert"], f"(default {gradedalg.DEFAULT_MAX_CELLS})"),
                        (["sklyanin2", "minors"], f"(default {RANK_TOL})"),
                        (["sklyanin2", "minors"], f"(default {sklyanin2.SPAN_TOL})")):
        with pytest.raises(SystemExit):
            main([*argv, "-h"])
        assert shown in capsys.readouterr().out, argv
    assert FLAGS["--tol-rank"]["default"] is RANK_TOL
    assert FLAGS["--tol-span"]["default"] is sklyanin2.SPAN_TOL


@pytest.mark.parametrize("argv", [
    ["hilbert", "--algebra", "cycle", "--p", "5", "--max-degree", "3"],
    ["charseries", "--algebra", "cycle", "--max-degree", "2", "--table", "--format", "json"],
], ids=["hilbert", "charseries-table"])
def test_cli_imports_no_argparse(argv):
    code = (f"import sys; from algtool.cli import main; main({argv!r}); "
            "print([m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_float_checks_import_no_lazy_numpy_modules():
    # a module that numpy or a check imports on first use would be paid
    # inside every benchmark op that runs the check; the samplers draw from
    # clifford.Draw, so numpy.random is never loaded
    code = ("import sys; from algtool.cli import main; "
            "main(['selftest', '--format', 'json']); main(['clifford-strata', '--t', '1']); "
            "main(['sklyanin2', 'stratify', '--a', '1.0', '--b', '0.12888995128730368']); "
            "main(['shioda5', 'two-torsion']); "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith(('numpy.fft', 'numpy.polynomial', 'numpy.random'))])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


class _Float(float):
    def __repr__(self):
        return "_Float()"


# every code point, lone surrogates included
_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
_LEAVES = (st.none() | st.booleans() | st.integers() | _TEXT
           | st.floats() | st.floats().map(_Float) | st.floats().map(np.float64))


@seed(20141222)
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.recursive(
    _LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=30))
@example(data={"a": [], "b": {}, "c": [[{}], ()], "\u00e9\ud800": [math.nan, -math.inf]})
def test_json_text_is_json_dumps_byte_for_byte(data):
    # nested empty containers, non-ASCII text, NaN and +-inf, bools, and
    # float subclasses whose own repr json does not use
    assert json_text(data) == json.dumps(data, sort_keys=True, indent=2)


def test_json_text_writes_shared_objects_as_json_dumps_does():
    # one list and one dict object at one depth, and at two depths, where a
    # text kept for the wrong indentation would show
    pair, table = ["1", "2"], {"k": [1, 2.5, None], "e": []}
    for data in ({"a": pair, "b": pair, "c": table, "d": table},
                 {"a": pair, "b": [pair, {"c": pair}], "d": table, "e": [[table], table]},
                 [pair, [pair], [[pair, table]], table, (table,)]):
        assert json_text(data) == json.dumps(data, sort_keys=True, indent=2)


def test_to_jsonable_shares_one_dict_per_equal_cyclotomic():
    from fractions import Fraction

    from algtool.cyclotomic import Cyclotomic
    a, b = Cyclotomic(5, (1, Fraction(2, 3))), Cyclotomic(5, (1, Fraction(2, 3)))
    one3, one5 = Cyclotomic.from_rational(3, 1), Cyclotomic.from_rational(5, 1)
    data = to_jsonable({"x": [a, b], "y": (a, one3, one5), "z": Fraction(1)})
    assert data["x"][0] is data["x"][1] is data["y"][0]
    assert data["y"][1] == {"p": 3, "coeffs": [["1", "1"], ["0", "1"]]}
    assert data["y"][2]["p"] == 5 and data["z"] == ["1", "1"]
    # one argument, one value: a fresh map each call
    assert to_jsonable(a) == data["x"][0] and to_jsonable(a) is not to_jsonable(a)
    assert to_jsonable(a) == {"p": 5, "coeffs": [["1", "1"], ["2", "3"], ["0", "1"], ["0", "1"]]}


def reference_jsonable(obj):
    """`to_jsonable`'s form of the values below by a walk of its own: no
    sharing, and every Cyclotomic coefficient through a Fraction."""
    if isinstance(obj, Cyclotomic):
        return {"p": obj.p, "coeffs": [reference_jsonable(Fraction(c, obj.den)) for c in obj.num]}
    if isinstance(obj, Fraction):
        return [str(obj.numerator), str(obj.denominator)]
    if is_dataclass(obj):
        return {f.name: reference_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    return obj


@dataclass
class _Report:
    name: str
    coeffs: tuple


def _shared_payload():
    third = Cyclotomic(5, (Fraction(1, 3), 2))  # over denominator 3
    row = (Cyclotomic(5, (1, 2)), third, Cyclotomic.from_rational(5, 0), Fraction(-1, 2))
    twin = tuple(list(row))  # equal to row, another object
    assert twin == row and twin is not row
    degrees = [1, 5, 15]
    return row, twin, {"classes": [{"rep": "1", "coeffs": row}, {"rep": "z", "coeffs": row}],
                       "twins": [row, twin], "report": _Report("r", row), "third": third,
                       "lists": [degrees, [degrees]]}


def test_to_jsonable_converts_each_list_and_tuple_object_once():
    row, _twin, payload = _shared_payload()
    data = to_jsonable(payload)
    assert json_text(data) == json.dumps(reference_jsonable(payload), sort_keys=True, indent=2)
    # one tuple reached three times is one list, in the dataclass too
    first = data["classes"][0]["coeffs"]
    assert first is data["classes"][1]["coeffs"] is data["report"]["coeffs"] is data["twins"][0]
    # two equal tuple objects are two lists of the same values
    second = data["twins"][1]
    assert second == first and second is not first
    assert all(a is b for a, b in zip(first[:3], second[:3]))
    assert first[1] is data["third"]
    # so is a list object
    assert data["lists"][0] is data["lists"][1][0] == [1, 5, 15]
    assert first[1] == {"p": 5, "coeffs": [["1", "3"], ["2", "1"], ["0", "1"], ["0", "1"]]}


def test_emit_text_leaves_the_shared_lists_as_they_are(monkeypatch, capsys):
    _row, _twin, payload = _shared_payload()
    made = []
    real = cli.to_jsonable

    def keeping(obj, shared=None):
        data = real(obj, shared)
        if shared is None:  # the payload itself, not a value inside it
            made.append((data, copy.deepcopy(data)))
        return data

    monkeypatch.setattr(cli, "to_jsonable", keeping)
    assert cli.emit(payload, SimpleNamespace(format="text", out=None)) == 0
    [(data, before)] = made
    assert data == before
    expected = [f"{key}: {json.dumps(value, sort_keys=True)}"
                for key, value in reference_jsonable(payload).items()]
    assert capsys.readouterr().out == "\n".join(expected) + "\n"

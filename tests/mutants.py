"""Mutation probe: do the tests notice when a cutoff or a guard moves?

Run by hand from the root of a checkout; pytest does not collect this file:

    python tests/mutants.py [NAME ...]

Each entry of MUTANTS is one text edit, (name, file, old text, new text,
tests, reason).  The old text must occur exactly once in its file, which
`tests/test_mutants.py` checks in tier-1, so an entry fails loudly when the
code it names moves.  For each mutant the probe exports the committed tree
(HEAD) with `git archive` into a fresh temporary directory, so that no
bytecode cache or uncommitted file comes along, applies the edit and runs
the named tests there with `python -B`, so a change is probed once it is
committed.  A mutant that fails them is killed; one that passes them runs
the full tier-1 suite, and survives if that passes too.
Entries whose tests are None are known equivalent mutants: no test can tell
them from the code, and the probe prints them with their reason unrun.

Before any mutant, the named tests run on the unmutated export and must
pass.  The probe prints one table row per mutant and exits 1 when a mutant
survived.  Runs take about ten seconds per mutant, and the tier-1 suite
about forty for each one that the named tests miss.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: Optional[Tuple[str, ...]]  # None: an equivalent mutant
    reason: str


SKLYANIN2 = "src/algtool/sklyanin2.py"
CURVE_POINT = ("tests/test_sklyanin2.py::test_curve_point_validation",)
SECANT_POLE = ("tests/test_sklyanin2.py::test_secant_pole_guard_on_both_sides",)
SPAN = ("tests/test_sklyanin2.py::test_span_tolerance_parts_noise_from_a_planted_vector",)
RANK = ("tests/test_linalg.py::test_rank_float_default_cutoff_on_both_sides",)
TWO_TORSION = ("tests/test_shioda5.py::test_two_torsion_verdict_cutoffs",)
SECANT_LAM = ("tests/test_sklyanin2.py::test_secant_verdict_lam_cutoff",)
T_POLE = ("tests/test_cli.py::test_t_near_its_pole_is_finite",)

MUTANTS = (
    Mutant("rule-degree-guard", "src/algtool/gradedalg.py",
           "if d > n:  # a longer obstruction", "if False:  # a longer obstruction",
           ("tests/test_gradedalg.py::test_normal_forms_try_no_longer_rule",),
           "normal_form tries rules of every degree: a degree-n word matches a longer "
           "obstruction with leading letters 0"),
    Mutant("curve-point-residual-x1e3", SKLYANIN2, "abs(self.residual) > 1e-10",
           "abs(self.residual) > 1e-07", CURVE_POINT, "CurvePoint admits a residual of 3e-8"),
    Mutant("curve-point-residual-x1e-3", SKLYANIN2, "abs(self.residual) > 1e-10",
           "abs(self.residual) > 1e-13", CURVE_POINT,
           "CurvePoint refuses a residual of 3.3e-13"),
    Mutant("secant-pole-x1e3", SKLYANIN2, "if abs(t) < 1e-12:", "if abs(t) < 1e-09:",
           SECANT_POLE, "secant_check refuses |t| = 3e-10"),
    Mutant("secant-pole-x1e-3", SKLYANIN2, "if abs(t) < 1e-12:", "if abs(t) < 1e-15:",
           SECANT_POLE, "secant_check admits |t| = 3.3e-15"),
    Mutant("span-tol-x1e3", SKLYANIN2, "SPAN_TOL = 1e-7", "SPAN_TOL = 1e-4", SPAN,
           "the span ranks take a planted vector at 1e-5 of the top for noise"),
    Mutant("span-tol-x1e-3", SKLYANIN2, "SPAN_TOL = 1e-7", "SPAN_TOL = 1e-10", SPAN,
           "the span ranks take noise at 1e-9 of the top for a vector"),
    Mutant("rank-tol-x1e3", "src/algtool/linalg.py", "RANK_TOL = 1e-8", "RANK_TOL = 1e-5", RANK,
           "rank_float drops a singular value at 1e-6 of the largest"),
    Mutant("rank-tol-x1e-3", "src/algtool/linalg.py", "RANK_TOL = 1e-8", "RANK_TOL = 1e-11",
           RANK, "rank_float counts a singular value at 1e-10 of the largest"),
    Mutant("two-torsion-residual-x1e3", "src/algtool/shioda5.py", "self.max_residual < 1e-7",
           "self.max_residual < 1e-4", TWO_TORSION,
           "TwoTorsionReport.ok passes a residual 300 times its cutoff"),
    Mutant("two-torsion-residual-x1e-3", "src/algtool/shioda5.py", "self.max_residual < 1e-7",
           "self.max_residual < 1e-10", TWO_TORSION,
           "TwoTorsionReport.ok fails a residual 1/300 of its cutoff"),
    Mutant("two-torsion-control-x1e3", "src/algtool/shioda5.py", "self.control_residual > 1e-5",
           "self.control_residual > 1e-2", TWO_TORSION,
           "TwoTorsionReport.ok fails a control 300 times its cutoff"),
    Mutant("two-torsion-control-x1e-3", "src/algtool/shioda5.py", "self.control_residual > 1e-5",
           "self.control_residual > 1e-8", TWO_TORSION,
           "TwoTorsionReport.ok passes a control 1/300 of its cutoff"),
    Mutant("secant-lam-x1e3", SKLYANIN2, "abs(self.lam) > 1e-12", "abs(self.lam) > 1e-09",
           SECANT_LAM, "SecantReport.ok fails |lam| = 3e-10"),
    Mutant("secant-lam-x1e-3", SKLYANIN2, "abs(self.lam) > 1e-12", "abs(self.lam) > 1e-15",
           SECANT_LAM, "SecantReport.ok passes |lam| = 3.3e-15"),
    Mutant("t-pole-1e-6", SKLYANIN2, "cutoff = 1e-12 * max", "cutoff = 1e-6 * max", T_POLE,
           "t_param calls a denominator of 3.4e-8 a pole"),
    Mutant("t-pole-1e-9", SKLYANIN2, "cutoff = 1e-12 * max", "cutoff = 1e-9 * max", T_POLE,
           "t_param calls a denominator of 8.9e-10 a pole"),
    Mutant("cyclotomic-mul-no-swap", "src/algtool/cyclotomic.py",
           "        if not num[-1] and not any(num[1:]):\n            num, onum = onum, num\n",
           "", None,
           "a rational self then takes the convolution, which gives the same value"),
)


def tests_pass(root: Path, args, quiet: bool = True) -> bool:
    """Whether pytest passes with `args` in the tree at root, run with
    `python -B` and the tree's own src first on the path."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-B", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", *args]
    out = subprocess.DEVNULL if quiet else None
    return subprocess.run(command, cwd=root, env=env, stdout=out, stderr=out).returncode == 0


def export(into: Path) -> None:
    """The committed tree (HEAD), unpacked into the empty directory `into`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "HEAD"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def apply(root: Path, mutant: Mutant) -> None:
    path = root / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file} at HEAD")
    path.write_text(text.replace(mutant.old, mutant.new))


def verdict(mutant: Mutant) -> str:
    if mutant.tests is None:
        return "equivalent"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        export(root)
        apply(root, mutant)
        if not tests_pass(root, mutant.tests):
            return "killed"
        return "killed by tier-1" if not tests_pass(root, ["tests"]) else "survived"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    named = sorted({t for m in chosen if m.tests for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="mutant-base-") as tmp:
        export(Path(tmp))
        if named and not tests_pass(Path(tmp), named, quiet=False):
            print("the named tests fail on the unmutated tree", file=sys.stderr)
            return 2
    width = max(len(m.name) for m in chosen)
    survived = 0
    for mutant in chosen:
        result = verdict(mutant)
        survived += result == "survived"
        print(f"{mutant.name:<{width}}  {result:<16}  {mutant.reason}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())

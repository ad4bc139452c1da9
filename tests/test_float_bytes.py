"""Byte contract of the float paths: the sha256 of the JSON that the
selftest, the `shioda5` checks, the README `sklyanin2` checks and
`clifford-strata` print; and of the JSON and text of the outputs that
print polynomials (`shioda5 minors`, `sklyanin2 eliminate|curve`).  These outputs carry floats computed through
`Cyclotomic`, `MultiPoly.eval`, `PolyMatrix.eval` and
`PolyMatrix.eval_stack`, which evaluates the linear forms at complex
points (every point of `clifford-strata`), so any change of an operation
order in those kernels shows here as a changed last bit.  The
hashes were taken before the kernels' type-exact fast paths went in, except
that of `clifford-strata`, whose rank-drop points are eigenvalues of each
line's pencil (M(base), M(direction)) and not roots of its determinant, and
that of `sklyanin2-secant`.  The secant check reads both determinants off
the integer tables of `minortables.minor_tables`, the Jacobian as
det(dq_i/du_j)(t) / t^5, where it expanded them over C with 1/t in the
coefficients.  So its lam (-60.19520265428505 to -60.195202654285026) and
its residual (4.03e-16 to 1.39e-16) moved in the last bits, and its hash
from ae25ca68...91c3cc to b9c5165b...3cb9d2; t and both degrees are
unchanged."""

import hashlib
import subprocess
import sys

import pytest

from algtool.cli import main

README = ("--a", "1.0", "--b", "0.12888995128730368")

# name: (argv, exit code, sha256 of stdout)
OUTPUTS = {
    "selftest-seed0": (("selftest", "--seed", "0"), 0,
                       "6d6aee5b8c354e5aa2bfedacae8bbd108af79ad46070eb66d30fa8ac5c4b56a5"),
    "selftest-seed3": (("selftest", "--seed", "3"), 0,
                       "68eb7c4e4df67019825a785c43b7dca2564c87da4d65139bb7754402caeea58d"),
    "shioda5-orbit": (("shioda5", "orbit", "--a", "2"), 0,
                      "667d0542ab0c26639aadd5da797763bb25bd616e234a1987b4ace5c9d40b55d2"),
    "shioda5-singular": (("shioda5", "singular"), 0,
                         "0064b1141ebe1ddab144483957c1f6ab0eb8805661829ad047d39ee52ff6b9b0"),
    "shioda5-fiber": (("shioda5", "fiber"), 0,
                      "6618f0d1d5c974b350306acfd470867e3717c92b558b727285a13f5962fc04c5"),
    "shioda5-two-torsion": (("shioda5", "two-torsion", "--seed", "3"), 0,
                            "b9851b1a119ebafc3fba86ccf77cd14a9ecf3dfd2d6b643ffdc2b5813d415ca5"),
    "sklyanin2-minors": (("sklyanin2", "minors", *README), 0,
                         "c3b4eb401a00149365ff69e14e62f20dbfea5b4ee68ce0f1b2761e7c4912aa5f"),
    "sklyanin2-ideal": (("sklyanin2", "ideal", *README), 0,
                        "eb1d788bc755c68e2f21f6412b415ac32e68618a3580d8a28286820039494d71"),
    "sklyanin2-stratify": (("sklyanin2", "stratify", *README, "--samples", "6"), 0,
                           "7f5034e641cc5e2a83c27bb0ea5d9a1e2a6cc837c0fd02f95e608e0ce91fae4a"),
    "sklyanin2-secant": (("sklyanin2", "secant", *README), 0,
                         "b9c5165bc40226b1384e8050f690751c73930023751fa71142d40961353cb9d2"),
    # at a = 0 the cubic minors span 35 dimensions against the products' 20:
    # the check runs and reports failure
    "sklyanin2-ideal-a0": (("sklyanin2", "ideal", "--a", "0.0", "--b", "1.0"), 2,
                           "2d4c262f2af8735a35e4c959e603f613d04403c4937c7b4a9236054cf2fa126e"),
    "clifford-strata": (("clifford-strata", "--t", "1", "--samples", "6"), 0,
                        "f1c02f0524a551e025a2da4ce7702275d28cfb95c0836482acbb3433eb44e59c"),
}


# the outputs that print polynomials: name: (argv, {format: sha256 of stdout}),
# each exiting 0
POLY_OUTPUTS = {
    "shioda5-minors": (("shioda5", "minors"), {
        "json": "19a168daae753919ea54aa39b191912a7b755681a7fe92cdf2bdde2bbb3ef45d",
        "text": "396e83cf1e4b642545d4c19cf4431114cfee35a3be2ad079b0fa42c963b73d0c"}),
    "sklyanin2-eliminate": (("sklyanin2", "eliminate"), {
        "json": "7c7f34f3492d7d5b821adad4617fb4307d135167521ac6cfe2320007ef11a515",
        "text": "f60ad303fb9d75f7b91971660e9c2ea3977f812f4fea1fbdd95950e6ae499845"}),
    "sklyanin2-curve": (("sklyanin2", "curve"), {
        "json": "303be0cd5ae6f828790d7b8cc90985a34e905007fe06559831f296ff51041b3c",
        "text": "fafcc478df63296b600a6ff2c0113e58c215fc0178a10a60b0b9943d2fef6eac"}),
}


@pytest.mark.parametrize("name", OUTPUTS)
def test_float_path_stdout_bytes(capsys, name):
    argv, code, digest = OUTPUTS[name]
    assert main([*argv, "--format", "json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", POLY_OUTPUTS)
def test_polynomial_stdout_bytes(capsys, name, fmt):
    argv, digests = POLY_OUTPUTS[name]
    assert main([*argv, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digests[fmt]


def test_per_process_caches_keep_outputs():
    """`clifford.standard_gammas`, the index arrays of `linalg.minors_float`,
    `minortables.minor_tables` and the unpacking of monomial keys are built
    once per process and then shared.  In one fresh interpreter, a selftest,
    then `shioda5 singular`, then the same selftest again print the pinned
    bytes each time."""
    runs = [OUTPUTS[name] for name in ("selftest-seed0", "shioda5-singular", "selftest-seed0")]
    script = "\n".join([
        "import contextlib, hashlib, io, sys",
        "from algtool.cli import main",
        "for argv in sys.argv[1:]:",
        "    out = io.StringIO()",
        "    with contextlib.redirect_stdout(out):",
        "        code = main([*argv.split(), '--format', 'json'])",
        "    print(code, hashlib.sha256(out.getvalue().encode('utf-8')).hexdigest())",
    ])
    done = subprocess.run([sys.executable, "-c", script, *(" ".join(argv) for argv, _c, _d in runs)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:-1] == [f"{code} {digest}" for _a, code, digest in runs]

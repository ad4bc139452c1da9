"""Byte contract of the float paths: the sha256 of the JSON that the
selftest, the `shioda5` checks, the README `sklyanin2` checks and
`clifford-strata` print; and of the JSON and text of the outputs that
print polynomials (`shioda5 minors`, `sklyanin2 eliminate|curve`).

A float is printed as a value, not as a bit pattern: every float that
output prints, complex parts included, passes through one rule,
`linalg.printed`, which `cli.to_jsonable` applies and the text output
reads.  An error measure that a check only compares with a tolerance is a
`linalg.Residual`, printed as 0.0 below `RESIDUAL_FLOOR` (1e-12) and at 3
significant digits above it; every other float (coordinates, t, lam, the
points of `sklyanin2 curve`) is printed at 12 significant digits, and
-0.0 as 0.0.  The verdicts compare the raw values.  So a kernel may sum
or multiply in another order (`linalg.minors_float`, `clifford.build_reps`,
`PolyMatrix.eval_stack`, `Cyclotomic.embed`) and the pins hold.

Limit: rounding can still flip when a value lies within an ulp of a
rounding boundary, at 12 digits about 1e-4 per printed coordinate and
kernel change, and at 3 digits for a residual above the floor.  The
absolute curve residual that `sklyanin2 curve` prints lies above the floor
at |a| >~ 5 (5.3 on the 513-value grid of `tests/test_sklyanin2.py`),
where a^5 passes 4e3 and the rounding noise of C'(a, b) 1e-12; there its
3 digits follow the last bits of b.  The printed residuals above the
floor in the pins here are the two-torsion controls (0.847 at seed 0 and
0.851 at seed 3).

Drawing the samples from `clifford.Draw` (`random.Random(seed)`) in place
of numpy's `default_rng` moved the four pins that print sampled points or
residuals of them (two-torsion controls 0.805 -> 0.847 at seed 0 and
0.935 -> 0.851 at seed 3); `sklyanin2-stratify` prints ranks only and held:
  selftest-seed0         30852cfd...1c697629 -> 1c9045fd...98c6c3f6
  selftest-seed3         a3d10e57...453d9cc2 -> 12fa4f12...de107444
  shioda5-two-torsion    f5f6d906...a21efa88 -> fb77cb69...a4ada591
  clifford-strata        ece090e4...4895116c -> 5175ca6c...d6990c4d
The 12-digit rule moved nine pins once (t, lam, points and b at 12 digits;
criterion 9's `bytes`, the length of its slice as `to_jsonable` prints it,
t included, went 485 -> 472):
  selftest-seed0         361d96b6...06edc7c7 -> 30852cfd...1c697629
  selftest-seed3         93c21a6a...4e8fcbb7 -> a3d10e57...453d9cc2
  sklyanin2-minors       f7d69997...7a14676d -> 4b19fdae...98dba6f1
  sklyanin2-ideal        eb1d788b...39494d71 -> 9976d12e...436bccb3
  sklyanin2-stratify     7f5034e6...e91fae4a -> 4c7a1791...356e204b
  sklyanin2-secant       bb95ccbb...b2fc4302 -> 32e4d7bf...2d2d501b
  clifford-strata        631b4b1b...c3a0816a -> ece090e4...4895116c
  sklyanin2-curve json   303be0cd...51041b3c -> 46bfa1c0...89a70f18
  sklyanin2-curve text   fafcc478...2fef6eac -> e33fb55f...24f156a7
Before it, the residual rule moved six pins in their residuals only (0.0
where ~1e-16 was printed; 0.805 and 0.935 for the two-torsion controls),
and criterion 9's `bytes` went 540 -> 485."""

import cmath
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from algtool import cli, clifford, linalg, shioda5, sklyanin2
from algtool.cli import main
from algtool.clifford import build_reps, clifford_form
from algtool.cyclotomic import Cyclotomic
from algtool.linalg import Residual

README = ("--a", "1.0", "--b", "0.12888995128730368")

# name: (argv, exit code, sha256 of stdout)
OUTPUTS = {
    "selftest-seed0": (("selftest", "--seed", "0"), 0,
                       "1c9045fd4651048f87679883b3c0cc3f5fa6b7444e1f2646cef8008198c6c3f6"),
    "selftest-seed3": (("selftest", "--seed", "3"), 0,
                       "12fa4f121cfd8cf23964620d611486458d8dca8384eddae0738f9845de107444"),
    "shioda5-orbit": (("shioda5", "orbit", "--a", "2"), 0,
                      "667d0542ab0c26639aadd5da797763bb25bd616e234a1987b4ace5c9d40b55d2"),
    "shioda5-singular": (("shioda5", "singular"), 0,
                         "0064b1141ebe1ddab144483957c1f6ab0eb8805661829ad047d39ee52ff6b9b0"),
    "shioda5-fiber": (("shioda5", "fiber"), 0,
                      "6618f0d1d5c974b350306acfd470867e3717c92b558b727285a13f5962fc04c5"),
    "shioda5-two-torsion": (("shioda5", "two-torsion", "--seed", "3"), 0,
                            "fb77cb696057489fba012109b1047d185a5108bf80dcaf12e526b7d8a4ada591"),
    "sklyanin2-minors": (("sklyanin2", "minors", *README), 0,
                         "4b19fdae02368c3f47903c660f8fd69d22f06a6cf527cf9a000c3bd798dba6f1"),
    "sklyanin2-ideal": (("sklyanin2", "ideal", *README), 0,
                        "9976d12eccc8301a6c44e3c47d835f2a85ebc180ad2ad85733b96843436bccb3"),
    "sklyanin2-stratify": (("sklyanin2", "stratify", *README, "--samples", "6"), 0,
                           "4c7a179137b0f94db87a62c51acff100995e34286c1bfe827a513716356e204b"),
    "sklyanin2-secant": (("sklyanin2", "secant", *README), 0,
                         "32e4d7bfee6e02490926a542c7d16984b2d4ca9b54bec2a2484be61e2d2d501b"),
    # at a = 0 the cubic minors span 35 dimensions against the products' 20:
    # the check runs and reports failure
    "sklyanin2-ideal-a0": (("sklyanin2", "ideal", "--a", "0.0", "--b", "1.0"), 2,
                           "2d4c262f2af8735a35e4c959e603f613d04403c4937c7b4a9236054cf2fa126e"),
    "clifford-strata": (("clifford-strata", "--t", "1", "--samples", "6"), 0,
                        "5175ca6cc498e1442cabbdbcdb870dbc3d2093427aae03e2ae61d82bd6990c4d"),
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
        "json": "46bfa1c04847e30df27732e1927f6a730f854487f8aab34ce8d20a1b89a70f18",
        "text": "e33fb55f61be3e4c2f5444d272f90c1948678039cbe7f917cd1d968c24f156a7"}),
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


def json_floats(value):
    """Every float in a parsed JSON value, depth first."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from json_floats(item)
    elif isinstance(value, list):
        for item in value:
            yield from json_floats(item)


def payload_leaves(value):
    """Every leaf of a payload as `cli.emit` receives it, depth first: all
    but the dicts, lists, tuples and report dataclasses."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from payload_leaves(getattr(value, f.name))
    elif isinstance(value, dict):
        for item in value.values():
            yield from payload_leaves(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from payload_leaves(item)
    else:
        yield value


# the numbers of a payload, numpy scalars included
NUMBERS = (bool, int, float, np.bool_, np.integer, np.floating)


def numbers_printed_as_text(payload) -> list:
    """The numbers of a payload that `cli.to_jsonable` turns into text
    rather than a JSON number or bool: a number that misses the print
    rule's branches and falls back to str."""
    return [v for v in payload_leaves(payload)
            if isinstance(v, NUMBERS) and not isinstance(cli.to_jsonable(v), (bool, int, float))]


@pytest.mark.parametrize("name", [*OUTPUTS, *POLY_OUTPUTS])
def test_every_printed_float_is_its_own_12_digit_rounding(capsys, monkeypatch, name):
    """Each float of each pinned JSON output went through the print rule:
    it equals its rounding to 12 significant digits and is no -0.0.  A path
    that prints around `cli.to_jsonable` shows here.  And each number of
    the payload, numpy scalars included, prints as a JSON number or bool."""
    argv, code = OUTPUTS[name][:2] if name in OUTPUTS else (POLY_OUTPUTS[name][0], 0)
    payloads = []
    emit = cli.emit
    monkeypatch.setattr(cli, "emit", lambda payload, *rest, **kw: payloads.append(payload)
                        or emit(payload, *rest, **kw))
    assert main([*argv, "--format", "json"]) == code
    assert len(payloads) == 1 and numbers_printed_as_text(payloads[0]) == []
    floats = list(json_floats(json.loads(capsys.readouterr().out)))
    for x in floats:
        assert float(f"{x:.12g}") == x, (name, x)
        assert x != 0 or math.copysign(1.0, x) == 1.0, (name, x)
    # the outputs that print no float are the exact ones
    assert bool(floats) == (name not in ("shioda5-orbit", "shioda5-singular", "shioda5-fiber",
                                         "shioda5-minors", "sklyanin2-eliminate")), name


def test_numpy_scalars_of_a_payload_print_as_numbers(monkeypatch):
    """Control of the payload walker: numpy scalars of every kind, nested in
    a report dataclass, print as JSON numbers and bools by the print rule;
    under the encoding that printed them by str, the walker finds each."""
    @dataclasses.dataclass
    class Report:
        rank: object
        flags: list

    payload = {"r": Report(np.int64(3), [np.bool_(True), np.float32(0.1)]),
               "x": (np.uint8(7), np.float16(-0.0), np.longdouble(1 / 3))}
    assert numbers_printed_as_text(payload) == []
    assert json.loads(json.dumps(cli.to_jsonable(payload))) == {
        "r": {"rank": 3, "flags": [True, 0.10000000149]}, "x": [7, 0.0, 0.333333333333]}

    to_jsonable = cli.to_jsonable

    def by_str(value, shared=None):
        if isinstance(value, np.generic) and not isinstance(value, (float, complex)):
            return str(value)
        return to_jsonable(value, shared)

    monkeypatch.setattr(cli, "to_jsonable", by_str)
    assert [type(v) for v in numbers_printed_as_text(payload)] == [
        np.int64, np.bool_, np.float32, np.uint8, np.float16, np.longdouble]


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



def stdout_digest(capsys, argv) -> tuple:
    code = main([*argv, "--format", "json"])
    return code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def minors_reordered(matrix) -> np.ndarray:
    """`linalg.minors_float` with the six Leibniz terms of each minor summed
    last to first, each product taken right to left."""
    a = np.asarray(matrix, dtype=complex)
    ri, ci = linalg._minor_indices(a.shape[-2], a.shape[-1])
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = np.moveaxis(a[..., ri, ci], (-3, -2), (0, 1))
    return (((((-(c2 * b0 * a1) - c0 * b1 * a2) - c1 * b2 * a0) + c1 * b0 * a2)
             + c0 * b2 * a1) + c2 * b1 * a0)


def build_reps_reversed(moved: list):
    """`clifford.build_reps` with its residual taken over the pairs in
    reverse, each norm a Python sum of |entry|^2 from the last entry; each
    call appends to `moved` whether its residual changed."""
    def build(matrix, rank: int):
        reps = build_reps(matrix, rank)
        m = np.asarray(matrix, dtype=complex)
        scale = np.abs(m).max() + 1.0
        eye = np.eye(len(reps.tuples[0][0]))
        worst = 0.0
        for xs in reversed(reps.tuples):
            for i in reversed(range(len(xs))):
                for j in reversed(range(len(xs))):
                    err = (xs[j] @ xs[i] + xs[i] @ xs[j] - m[i, j] * eye).ravel()[::-1]
                    worst = max(worst, math.sqrt(sum(abs(v) ** 2 for v in err)) / scale)
        moved.append(worst != reps.max_residual)
        return dataclasses.replace(reps, max_residual=Residual(worst))
    return build


def test_reordered_residual_kernels_keep_every_pin(capsys, monkeypatch):
    """Control of the print rule: residual kernels that sum in another
    order move raw residuals in their last bits, and no printed byte."""
    point = (1.0, 0.12888995128730368)
    stack = clifford_form(5, (1, *point)).eval_stack(
        np.random.default_rng(0).standard_normal((25, 5)))
    assert minors_reordered(stack).tobytes() != linalg.minors_float(stack).tobytes()
    assert np.allclose(minors_reordered(stack), linalg.minors_float(stack), rtol=1e-12)
    before = sklyanin2.point_module_check(point).max_minor_residual
    moved = []
    monkeypatch.setattr(sklyanin2, "minors_float", minors_reordered)
    monkeypatch.setattr(shioda5, "minors_float", minors_reordered)
    monkeypatch.setattr(clifford, "build_reps", build_reps_reversed(moved))
    after = sklyanin2.point_module_check(point).max_minor_residual
    assert after != before and after.printed() == before.printed() == 0.0
    for name, (argv, code, digest) in OUTPUTS.items():
        assert stdout_digest(capsys, argv) == (code, digest), name
    assert any(moved)


T_PARAM = sklyanin2.t_param


def t_param_by_products(a, b):
    """`sklyanin2.t_param` with each power of a float point taken as
    repeated products; its pole and 0/0 decisions are t_param's."""
    t = T_PARAM(a, b)
    if t is None or isinstance(t, Fraction):
        return t
    return (a * a * a * b - b * b * b - 2 * a * a) / (a * a * a * a - a * b * b - 4 * b)


def embed_by_powers(self, k: int = 1) -> complex:
    """`Cyclotomic.embed` as a sum of each coefficient times its own power
    of w, not by Horner's rule."""
    return sum(c / self.den * cmath.exp(2j * cmath.pi * k * i / self.p)
               for i, c in enumerate(self.num))


def test_reordered_value_kernels_keep_every_pin(capsys, monkeypatch):
    """Control of the 12-digit rule: kernels of values that are printed
    (t) or ranked (the embedded S15 points of `shioda5 singular`) that
    multiply or sum in another order move raw values in their last bits,
    and no printed byte, JSON or text."""
    points = [(cp.a, cp.b) for cp in sklyanin2.curve_points_on_grid()]
    moved_t = [t_param_by_products(*ab) != T_PARAM(*ab) for ab in points]
    assert any(moved_t) and all(math.isclose(t_param_by_products(*ab), T_PARAM(*ab),
                                             rel_tol=1e-14) for ab in points)
    values = [c for pt in shioda5.thirty_points() for c in pt]
    assert any(embed_by_powers(v) != v.embed() for v in values)
    assert all(abs(embed_by_powers(v) - v.embed()) <= 1e-14 for v in values)
    monkeypatch.setattr(sklyanin2, "t_param", t_param_by_products)
    monkeypatch.setattr(Cyclotomic, "embed", embed_by_powers)
    for name, (argv, code, digest) in OUTPUTS.items():
        assert stdout_digest(capsys, argv) == (code, digest), name
    for name, (argv, digests) in POLY_OUTPUTS.items():
        for fmt, digest in digests.items():
            assert main([*argv, "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (name, fmt)


def test_a_perturbed_coefficient_of_q_moves_the_minors_bytes(capsys, monkeypatch):
    """Control of the print rule: a real change of a value, Q(a, b) with
    b + 1e-6 in place of b, moves the printed residual and the bytes."""
    argv, code, digest = OUTPUTS["sklyanin2-minors"]
    assert stdout_digest(capsys, argv) == (code, digest)
    form = sklyanin2.clifford_form
    monkeypatch.setattr(sklyanin2, "clifford_form",
                        lambda p, avec: form(p, (avec[0], avec[1], avec[2] + 1e-6)))
    moved = stdout_digest(capsys, argv)
    assert moved != (code, digest) and moved[0] == 2
    main([*argv, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert report["max_minor_residual"] == 3.88e-6
    assert report["t"] == [-4.00414885164, 0.0]

"""Command-line entry point: every computation as a subcommand with
deterministic text/JSON output.

Exit codes: 0 success, 2 assertion-style check failure, 1 usage, input or
resource errors.  JSON output is key-sorted; identical invocations (same
seed) give byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from . import clifford, koszul, selftest, shioda5, sklyanin2
from .cyclotomic import Cyclotomic
from .errors import AlgtoolError, InputError
from .gradedalg import (OVER_P, character_coeffs, character_table, hilbert,
                        make_presentation)
from .heisenberg import SimpleRep, parse_element
from .linalg import rank_float
from .poly import MultiPoly, poly_to_json, scalar_to_json


class Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit code 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_scalar(text: str, mode: Optional[str] = None):
    """'3/2' and '2' parse exact, '0.5' parses float; mode "exact" parses
    every number exact.  A float must be finite."""
    text = text.strip()
    try:
        looks_exact = "/" in text or ("." not in text and "e" not in text.lower())
        if mode == "exact" or looks_exact:
            return Fraction(text)
        value = float(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse {text!r} as a number") from None
    if not math.isfinite(value):
        raise InputError(f"{text!r} is not a finite number")
    return value


def float_safe(value, flag: str):
    """`value` unchanged, once it is known to convert to a finite float: the
    float paths (clifford-strata, sklyanin2 minors|ideal|secant|stratify)
    evaluate exact literals as complex numbers."""
    try:
        float(value)
    except OverflowError:
        raise InputError(f"{flag} is too large to convert to a float") from None
    return value


def parse_params(text: str):
    """Comma-separated exact scalars."""
    return tuple(parse_scalar(tok, "exact") for tok in text.split(",") if tok.strip())


def to_jsonable(obj):
    """JSON-ready form of a payload: a dict, a report dataclass, or any value
    inside them.  numpy scalars need no branch: np.float64 and np.complex128
    subclass float and complex."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return [str(obj.numerator), str(obj.denominator)]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Cyclotomic):
        return scalar_to_json(obj)
    if isinstance(obj, MultiPoly):
        return poly_to_json(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def emit(payload, args, check_failed: bool = False) -> int:
    """Write a dict or a report dataclass as key-sorted JSON or as one text
    line per key; the exit code is 2 when `check_failed`."""
    data = to_jsonable(payload)
    if args.format == "json":
        text = json.dumps(data, sort_keys=True, indent=2)
    else:
        lines = []
        for key, value in data.items():
            if key == "criteria":
                for c in value:
                    lines.append(f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}")
                continue
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"{key}: {value}")
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 2 if check_failed else 0


def build_algebra(args):
    """The catalog presentation named by --algebra, from one catalog call:
    p (--p, default 5) first for the families over a chosen prime, then the
    --params values.  --p on a family with a fixed prime is an input error,
    and so, by the catalog's count check, is --params on polynomial or
    cycle."""
    kind = args.algebra
    if kind in OVER_P:
        head = (5 if args.p is None else args.p,)
    elif args.p is None:
        head = ()
    else:
        raise InputError(f"{kind} has a fixed p; --p applies to {', '.join(OVER_P)} only")
    params = parse_params(args.params) if args.params else ()
    return make_presentation(kind, *head, *params)


# -- subcommand handlers -----------------------------------------------------------


def cmd_hilbert(args) -> int:
    pres = build_algebra(args)
    series = hilbert(pres, args.max_degree, args.max_cells)
    return emit({"algebra": pres.label(), "hilbert": series}, args)


def cmd_charseries(args) -> int:
    pres = build_algebra(args)
    rep = SimpleRep(pres.p, args.rep)
    if args.table:
        table = character_table(pres, rep, args.max_degree, args.max_cells)
        return emit(table.to_json(), args)
    g = parse_element(pres.p, getattr(args, "cls"))
    coeffs = character_coeffs(pres, g, rep, args.max_degree, args.max_cells)
    return emit({"algebra": pres.label(), "class": g.label(), "coeffs": coeffs}, args)


def cmd_koszul_check(args) -> int:
    pres = build_algebra(args)
    rep = SimpleRep(pres.p, args.rep)
    g = parse_element(pres.p, getattr(args, "cls"))
    residuals = koszul.koszul_identity_check(pres, rep, g, args.max_degree, args.max_cells)
    zero = all(c.is_zero() for c in residuals)
    payload = {"algebra": pres.label(), "class": g.label(), "zero": zero,
               "residuals": residuals}
    return emit(payload, args, check_failed=not zero)


def cmd_clifford_strata(args) -> int:
    form = clifford.clifford_form(3, (1, float_safe(parse_scalar(args.t, "exact"), "--t")))

    def record(point) -> dict:
        mat = form.eval(list(point))
        rank = rank_float(mat, args.tol_rank)
        return {
            "point": point.tolist(),
            "rank": rank,
            "simple": clifford.simple_profile(rank, form.rows),
            "fat": clifford.fat_profile(rank) if rank else None,
            "residuals": clifford.build_reps(mat, rank).max_residual,
        }

    generic = clifford.random_points(form.rows, args.samples, args.seed)
    drops = clifford.sample_rank_drop_points(form, max(2, args.samples // 2),
                                             args.seed + 1, args.tol_rank)
    return emit({"t": args.t, "strata": [record(pt) for pt in generic + drops]}, args)


def cmd_sklyanin2(args) -> int:
    op = args.operation
    if op == "curve":
        points = sklyanin2.curve_points_on_grid(parse_params(args.grid))
        payload = {
            "points": [{"a": cp.a, "b": cp.b, "residual": abs(cp.residual),
                        "t": sklyanin2.t_param(cp.a, cp.b)} for cp in points],
            "singularity_report": sklyanin2.curve_singularity_report(),
        }
        return emit(payload, args)
    if op == "eliminate":
        res = sklyanin2.eliminate_t()
        payload = {"check": res.check, "cofactor": res.cofactor,
                   "resultant_terms": len(res.resultant.terms)}
        return emit(payload, args, check_failed=not res.check)
    if op == "onedim":
        reps = sklyanin2.onedim_reps(args.p, parse_params(args.params))
        return emit({"count": len(reps), "reps": reps}, args)
    a, b = parse_scalar(args.a), parse_scalar(args.b)
    if op == "t":
        t = sklyanin2.t_param(a, b)
        return emit({"a": a, "b": b, "t": "indeterminate" if t is None else t}, args)
    a, b = float_safe(a, "--a"), float_safe(b, "--b")
    if op == "minors":
        report = sklyanin2.point_module_check((a, b), args.tol_rank)
        return emit(report, args, check_failed=not report.ok(args.tol_span))
    if op == "ideal":
        report = sklyanin2.minor_ideal_checks((a, b), args.tol_span)
        return emit(report, args, check_failed=not report.ok())
    if op == "secant":
        report = sklyanin2.secant_check((a, b))
        return emit(report, args, check_failed=not report.ok(args.tol_span))
    if op == "stratify":
        report = sklyanin2.stratify((a, b), args.samples, args.seed, args.tol_rank)
        return emit(report, args, check_failed=not report.ok())
    raise AlgtoolError(f"unknown sklyanin2 operation {op!r}")


def cmd_shioda5(args) -> int:
    op = args.operation
    if op == "minors":
        minors = shioda5.s15_minors()
        return emit({"count": len(minors), "minors": minors}, args)
    if op == "orbit":
        report = shioda5.ca_orbit_check(parse_scalar(args.a, "exact"))
    elif op == "two-torsion":
        report = shioda5.two_torsion_check(args.samples, args.seed)
    elif op == "singular":
        report = shioda5.singular_points_check(args.tol_rank)
    elif op == "fiber":
        report = shioda5.cycle_fiber_equivalence()
    else:
        raise AlgtoolError(f"unknown shioda5 operation {op!r}")
    return emit(report, args, check_failed=not report.ok())


def cmd_selftest(args) -> int:
    only = [c.strip() for c in args.criteria.split(",")] if args.criteria else None
    report = selftest.run_selftest(seed=args.seed, only=only)
    return emit(report, args, check_failed=not report["passed"])


# -- parser ------------------------------------------------------------------------


def build_parser() -> Parser:
    """One subparser per subcommand, each with the flags its handler reads."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default="text")
    output.add_argument("--out", default=None, help="write the report to a file")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    tol_rank = argparse.ArgumentParser(add_help=False)
    tol_rank.add_argument("--tol-rank", type=float, default=1e-8,
                          help="relative singular-value cutoff of the float ranks")

    algebra = argparse.ArgumentParser(add_help=False)
    algebra.add_argument("--algebra", required=True,
                         choices=("polynomial", "cycle", "sklyanin3", "cliffordC",
                                  "sklyanin5", "curveCa"))
    algebra.add_argument("--p", type=int, default=None,
                         help=f"the prime of {', '.join(OVER_P)} (default 5)")
    algebra.add_argument("--params", default=None,
                         help="comma-separated exact parameters, e.g. 1,1,-1")
    algebra.add_argument("--max-cells", type=int, default=None,
                         help="cap on the cells of one degree step of the graded engine "
                              "(default 4e6)")

    parser = Parser(prog="algtool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", parents=[output, algebra])
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("charseries", parents=[output, algebra])
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--class", dest="cls", default="1")
    p.add_argument("--rep", type=int, default=1)
    p.add_argument("--table", action="store_true", help="all conjugacy classes")
    p.set_defaults(func=cmd_charseries)

    p = sub.add_parser("koszul-check", parents=[output, algebra])
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--class", dest="cls", default="1")
    p.add_argument("--rep", type=int, default=1)
    p.set_defaults(func=cmd_koszul_check)

    p = sub.add_parser("clifford-strata", parents=[output, seed, tol_rank])
    p.add_argument("--t", default="1", help="the form of cliffordC(3; 1, t)")
    p.add_argument("--samples", type=int, default=6)
    p.set_defaults(func=cmd_clifford_strata)

    p = sub.add_parser("sklyanin2", parents=[output, seed, tol_rank])
    p.add_argument("operation", choices=("curve", "t", "eliminate", "minors",
                                         "ideal", "secant", "onedim", "stratify"))
    p.add_argument("--tol-span", type=float, default=1e-7,
                   help="relative cutoff of the span ranks (ideal) and bound on the "
                        "minor and secant residuals (minors, secant)")
    p.add_argument("--a", default="1")
    p.add_argument("--b", default="1")
    p.add_argument("--grid", default="1,3/2,1/2")
    p.add_argument("--samples", type=int, default=6)
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--params", default="1,2,2")
    p.set_defaults(func=cmd_sklyanin2)

    p = sub.add_parser("shioda5", parents=[output, seed, tol_rank])
    p.add_argument("operation", choices=("minors", "orbit", "two-torsion",
                                         "singular", "fiber"))
    p.add_argument("--a", default="1")
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=cmd_shioda5)

    p = sub.add_parser("selftest", parents=[output, seed])
    p.add_argument("--criteria", default=None, help="run a subset, e.g. 1,2,9")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OverflowError as exc:  # float arithmetic on a finite but huge input
        error = InputError(f"input too large for float arithmetic: {exc}")
    except AlgtoolError as exc:
        error = exc
    payload = {"error": {"code": error.code, "message": str(error)}}
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"error [{error.code}]: {error}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

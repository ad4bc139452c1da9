"""Command-line entry point: every computation as a subcommand with
deterministic text/JSON output.

Exit codes: 0 success, 2 assertion-style check failure, 1 usage, input or
resource errors.  JSON output is key-sorted; identical invocations (same
seed) give byte-identical output.

Flags are `--flag value` or `--flag=value`, never abbreviated, and the last
occurrence wins; `-h` at any level lists the commands, the operations or
the flags.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import clifford, koszul, selftest, shioda5, sklyanin2
from .cyclotomic import Cyclotomic
from .errors import AlgtoolError, InputError, ResourceLimitError
from .gradedalg import (DEFAULT_MAX_CELLS, OVER_P, character_coeffs, character_table,
                        hilbert, make_presentation)
from .heisenberg import SimpleRep, parse_element
from .linalg import RANK_TOL, RESIDUAL_FLOOR, Residual, printed, rank_float
from .poly import MultiPoly


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


def list_fields(text: str, flag: str):
    """The comma-separated fields of a list flag, stripped; an empty list or
    an empty field is an input error."""
    fields = [tok.strip() for tok in text.split(",")]
    if "" in fields:
        what = "is empty" if fields == [""] else f"has an empty field in {text!r}"
        raise InputError(f"{flag} {what}")
    return fields


def parse_params(text: str, flag: str):
    """Comma-separated exact scalars."""
    return tuple(parse_scalar(tok, "exact") for tok in list_fields(text, flag))


def to_jsonable(obj, shared: Optional[dict] = None):
    """JSON-ready form of a payload: a dict, a report dataclass, or any value
    inside them.  The one JSON encoding of the library's values: a Fraction
    is [num, den] as strings, a complex [re, im], a Cyclotomic its prime and
    power-basis coefficients, a MultiPoly its variables, field and terms in
    `sorted_terms` order: the field is "QQ" when every coefficient is an int
    or a Fraction, else "CC", and an int coefficient is written as a
    Fraction.  Every float, complex parts included, is its
    `linalg.printed` value: a `Residual` 0.0 below RESIDUAL_FLOOR, else to
    3 significant digits, any other float to 12, with -0.0 as 0.0.  A numpy
    scalar is the Python value it holds: np.bool_ a bool, np.integer an
    int, and np.floating and np.complexfloating a float and a complex by
    that rule (np.float64 and np.complex128 subclass float and complex).
    The text output reads this form too.

    Equal Cyclotomic values share one JSON dict, and a list or tuple object
    met again is its one JSON list: `shared` (a fresh map when not given)
    maps each Cyclotomic met so far by (num, den) to its dict, and the id
    of each list and tuple to the object, held so that no other object
    takes the id, and its JSON list.  `json_text` writes each shared object
    once per indentation."""
    if isinstance(obj, float):
        return printed(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if shared is None:
        shared = {}
    if isinstance(obj, Fraction):
        return [str(obj.numerator), str(obj.denominator)]
    if isinstance(obj, complex):
        return [printed(obj.real), printed(obj.imag)]
    if isinstance(obj, Cyclotomic):
        key = obj.num, obj.den  # len(num) is p - 1
        data = shared.get(key)
        if data is None:
            data = shared[key] = {"p": obj.p, "coeffs": [[str(c), "1"] for c in obj.num]
                                  if obj.den == 1 else [[str(q.numerator), str(q.denominator)]
                                                        for q in obj.coeffs]}
        return data
    if isinstance(obj, MultiPoly):
        exact = all(isinstance(c, (int, Fraction)) for c in obj.terms.values())
        return {"vars": list(obj.ring.variables), "field": "QQ" if exact else "CC",
                "terms": [{"exps": list(e), "coeff": to_jsonable(
                    Fraction(c) if isinstance(c, int) else c, shared)}
                    for e, c in obj.sorted_terms()]}
    if dataclasses.is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name), shared)
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v, shared) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        held = shared.get(id(obj))
        if held is None:
            held = shared[id(obj)] = obj, [to_jsonable(v, shared) for v in obj]
        return held[1]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return printed(float(obj))
    if isinstance(obj, np.complexfloating):
        return to_jsonable(complex(obj))
    return str(obj)


_encode_str = json.encoder.encode_basestring_ascii
_encode_leaf = json.JSONEncoder().encode


def _write_json(value, parts: list, newline: str, texts: dict, head: str = "") -> None:
    """Append `head` and then `value` as `json.dumps(value, sort_keys=True,
    indent=2)` writes it at the line start `newline`.  With an indent json
    encodes every node in Python; here only containers are laid out in
    Python, and every leaf goes through json's own C encoder.  `texts` holds
    the text of each container written so far, by its id and line start, so
    a container met again at the same indentation is copied, not laid out."""
    if type(value) is str:
        parts.append(head + _encode_str(value))
        return
    if not isinstance(value, (dict, list, tuple)):
        parts.append(head + _encode_leaf(value))
        return
    if not value:
        parts.append(head + ("{}" if isinstance(value, dict) else "[]"))
        return
    key = (id(value), newline)
    text = texts.get(key)
    if text is None:
        start = len(parts)
        inner = newline + "  "
        if isinstance(value, dict):
            sep = "{" + inner
            for name, item in sorted(value.items()):
                _write_json(item, parts, inner, texts, sep + _encode_str(name) + ": ")
                sep = "," + inner
            parts.append(newline + "}")
        else:
            sep = "[" + inner
            for item in value:
                _write_json(item, parts, inner, texts, sep)
                sep = "," + inner
            parts.append(newline + "]")
        text = texts[key] = "".join(parts[start:])
        del parts[start:]
    parts.append(head + text)


def json_text(data) -> str:
    """`json.dumps(data, sort_keys=True, indent=2)`, byte for byte, for data
    built of str-keyed dicts, lists, tuples, str, int, float, bool and None
    (subclasses included), as `to_jsonable` returns it.  An object may occur
    more than once, as long as it does not contain itself."""
    parts: list = []
    _write_json(data, parts, "\n", {})
    return "".join(parts)


def emit(payload, args, check_failed: bool = False) -> int:
    """Write a dict or a report dataclass as key-sorted JSON or as one text
    line per key; the exit code is 2 when `check_failed`."""
    data = to_jsonable(payload)
    if args.format == "json":
        text = json_text(data)
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
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write --out {args.out}: {exc.strerror}") from exc
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
    params = () if args.params is None else parse_params(args.params, "--params")
    return make_presentation(kind, *head, *params, cap=args.max_cells)


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
    points = clifford.random_points(form.rows, args.samples, args.seed)
    points += clifford.sample_rank_drop_points(form, max(2, args.samples // 2),
                                               args.seed + 1, args.tol_rank)
    mats = form.eval_stack(points)
    ranks = rank_float(mats, args.tol_rank).tolist()
    strata = [{
        "point": point.tolist(),
        "rank": rank,
        "simple": clifford.simple_profile(rank, form.rows),
        "fat": clifford.fat_profile(rank) if rank else None,
        "residuals": clifford.build_reps(mat, rank).max_residual,
    } for point, mat, rank in zip(points, mats, ranks)]
    return emit({"t": args.t, "strata": strata}, args)


def cmd_sklyanin2(args) -> int:
    op = args.operation
    if op == "curve":
        points = sklyanin2.curve_points_on_grid(parse_params(args.grid, "--grid"))
        payload = {
            "points": [{"a": cp.a, "b": cp.b, "residual": Residual(abs(cp.residual)),
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
        reps = sklyanin2.onedim_reps(args.p, parse_params(args.params, "--params"))
        return emit({"count": len(reps), "reps": reps}, args)
    if op in ("minors", "secant") and args.tol_span < RESIDUAL_FLOOR:
        # a residual below the floor prints as 0.0, and must then pass
        raise InputError(f"--tol-span {args.tol_span!r} is below the residual floor "
                         f"{RESIDUAL_FLOOR!r} of {op}")
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
    report = sklyanin2.stratify((a, b), args.samples, args.seed, args.tol_rank)
    return emit(report, args, check_failed=not report.ok())


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
    else:
        report = shioda5.cycle_fiber_equivalence()
    return emit(report, args, check_failed=not report.ok())


def cmd_selftest(args) -> int:
    only = None if args.criteria is None else list_fields(args.criteria, "--criteria")
    report = selftest.run_selftest(seed=args.seed, only=only)
    return emit(report, args, check_failed=not report["passed"])


# -- flags and argv ----------------------------------------------------------------
#
# argv is read from one table: COMMANDS names each command's handler and the
# flags it reads (per operation for sklyanin2 and shioda5), FLAGS holds every
# flag once, and `resolve` merges the two into the `Flag`s of one command or
# operation, which parsing, the -h screens and the tests read.  The rules and
# usage-error messages are those of Python's argparse without abbreviations;
# argparse itself is not used, since its start-up (gettext, locale and its
# regexes) costs a cold process more than a small computation does.


class UsageError(Exception):
    """A usage error; `parse_argv` prints it after `{prog}: error: `."""


def positive_finite(text: str) -> float:
    """A tolerance: a float above 0 and below infinity (nan is neither)."""
    value = float(text)
    if not 0 < value < math.inf:
        raise UsageError(f"must be a positive finite number, got {text!r}")
    return value


def non_negative_int(text: str) -> int:
    """A seed, which must be non-negative: `random.Random` seeds with the
    absolute value of an int, so -n would repeat the draws of n."""
    value = int(text)
    if value < 0:
        raise UsageError(f"must be a non-negative integer, got {text!r}")
    return value


# every flag once, with its `Flag` keywords
FLAGS = {
    "--format": {"choices": ("text", "json"), "default": "text"},
    "--out": {"help": "write the report to a file"},
    "--algebra": {"required": True, "choices": ("polynomial", "cycle", "sklyanin3",
                                                "cliffordC", "sklyanin5", "curveCa")},
    "--p": {"type": int, "help": f"the prime of {', '.join(OVER_P)} (default 5)"},
    "--params": {"help": "comma-separated exact parameters, e.g. 1,1,-1"},
    "--max-cells": {"type": int, "help": "cap on the cells of one degree step of the "
                                         f"graded engine (default {DEFAULT_MAX_CELLS})"},
    "--max-degree": {"type": int, "required": True},
    "--class": {"dest": "cls", "default": "1"},
    "--rep": {"type": int, "default": 1},
    "--table": {"store_true": True, "help": "all conjugacy classes"},
    "--seed": {"type": non_negative_int, "default": 0},
    "--tol-rank": {"type": positive_finite, "default": RANK_TOL,
                   "help": "relative singular-value cutoff of the float ranks"},
    "--tol-span": {"type": positive_finite, "default": sklyanin2.SPAN_TOL,
                   "help": "relative cutoff of the span ranks (ideal) and bound on the "
                           f"minor and secant residuals (minors, secant; at least "
                           f"{RESIDUAL_FLOOR})"},
    "--t": {"default": "1", "help": "the form of cliffordC(3; 1, t)"},
    "--samples": {"type": int, "default": 6},
    "--a": {"default": "1"},
    "--b": {"default": "1"},
    "--grid": {"default": "1,3/2,1/2"},
    "--criteria": {"help": "run a subset, e.g. 1,2,9"},
}

ALGEBRA = ("--algebra", "--p", "--params", "--max-cells")

# command -> (handler, leaf), or (handler, {operation: leaf}); a leaf names the
# flags its handler reads besides --format and --out, each bare or as
# (flag, keywords that override FLAGS[flag])
COMMANDS = {
    "hilbert": (cmd_hilbert, (*ALGEBRA, "--max-degree")),
    "charseries": (cmd_charseries, (*ALGEBRA, "--max-degree", "--class", "--rep", "--table")),
    "koszul-check": (cmd_koszul_check, (*ALGEBRA, "--class", "--rep",
                                        ("--max-degree", {"default": 4, "required": False}))),
    "clifford-strata": (cmd_clifford_strata, ("--seed", "--tol-rank", "--t", "--samples")),
    "sklyanin2": (cmd_sklyanin2, {
        "curve": ("--grid",), "t": ("--a", "--b"), "eliminate": (),
        "minors": ("--a", "--b", "--tol-rank", "--tol-span"),
        "ideal": ("--a", "--b", "--tol-span"), "secant": ("--a", "--b", "--tol-span"),
        "onedim": (("--p", {"default": 5, "help": "the prime of cliffordC"}),
                   ("--params", {"default": "1,2,2"})),
        "stratify": ("--a", "--b", "--seed", "--tol-rank", "--samples")}),
    "shioda5": (cmd_shioda5, {
        "minors": (), "orbit": ("--a",), "two-torsion": ("--seed", ("--samples", {"default": 20})),
        "singular": ("--tol-rank",), "fiber": ()}),
    "selftest": (cmd_selftest, ("--seed", "--criteria")),
}

HELP = ("-h", "--help")


class Flag:
    """One flag of one command or operation: FLAGS[name] merged with the
    leaf's overrides.  It takes one value, converted by `type` and checked
    against `choices`, or none when `store_true`; the last occurrence wins."""

    __slots__ = ("name", "dest", "type", "default", "required", "choices", "store_true",
                 "help")

    def __init__(self, name: str, dest: Optional[str] = None, type=None, default=None,
                 required: bool = False, choices=None, store_true: bool = False,
                 help: str = ""):
        self.name, self.dest = name, dest or name[2:].replace("-", "_")
        self.type, self.required, self.choices = type, required, choices
        self.default = False if store_true else default
        self.store_true, self.help = store_true, help

    def value(self, text: str):
        """`text` converted and checked; a bad one is a usage error."""
        value = text
        if self.type is not None:
            try:
                value = self.type(text)
            except UsageError as exc:
                raise UsageError(f"argument {self.name}: {exc}") from None
            except (TypeError, ValueError):
                raise UsageError(f"argument {self.name}: invalid {self.type.__name__} "
                                 f"value: {text!r}") from None
        _check_choice(self.name, value, self.choices)
        return value


def _check_choice(name: str, value, choices) -> None:
    if choices is not None and value not in choices:
        raise UsageError(f"argument {name}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})")


def resolve(leaf) -> dict:
    """The flags of one command or operation by name: --format, --out and
    the leaf's, each FLAGS[name] merged with the leaf's overrides."""
    flags = {}
    for entry in ("--format", "--out", *leaf):
        name, overrides = (entry, {}) if isinstance(entry, str) else entry
        flags[name] = Flag(name, **{**FLAGS[name], **overrides})
    return flags


def _reading(word: str, flags: dict):
    """What one word of argv is: None for a value, else (flag, text joined
    to it by '=' or None), the flag None when it is not one of `flags` or
    HELP.  A word of '-' and a digit, or '-.' and a digit, is a value
    (`--a -1/2`), and so is one with a space; a single-dash word that starts
    with -h is -h with the rest joined (`-hh` is -h twice)."""
    if not word.startswith("-"):
        return None
    if word in flags or word in HELP:
        return word, None
    if len(word) == 1:
        return None
    head, eq, joined = word.partition("=")
    if eq and (head in flags or head in HELP):
        return head, joined
    if word[1] != "-" and word.startswith("-h"):
        return "-h", word[2:]
    digit = word[2:3] if word.startswith("-.") else word[1:2]
    if digit.isdecimal() or " " in word:
        return None
    return None, None


def _no_value(name: str, joined: Optional[str]) -> None:
    """A flag that takes no value refuses text joined to it, except that -h
    reads each further 'h' of `-hh...` as one more -h."""
    if joined is None or (name == "-h" and joined and not joined.lstrip("h")):
        return
    rest = joined.lstrip("h") if name == "-h" else joined
    label = "/".join(HELP) if name in HELP else name
    raise UsageError(f"argument {label}: ignored explicit argument {rest!r}")


def _help(usage: str, title: str, rows, description: str = "") -> None:
    """Print a help screen that lists `rows` (name, text) under `title`, and
    exit 0."""
    lines = [f"usage: {usage}", ""]
    if description:
        lines += [description.strip(), ""]
    lines.append(f"{title}:")
    lines += [f"  {name:<22}  {text}".rstrip() for name, text in rows]
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(0)


def choose(prog: str, argv, name: str, table: dict, description: str = "") -> str:
    """The key of `table` that is the first word of argv; -h lists them."""
    reading = _reading(argv[0], {}) if argv else (None, None)
    if reading is None:
        _check_choice(name, argv[0], table)
        return argv[0]
    if reading[0] is not None:  # -h
        _no_value(*reading)
        _help(f"{prog} [-h] <{name}> ...", f"{name}s", [(key, "") for key in table],
              description)
    raise UsageError(f"the following arguments are required: {name}")


def _flag_rows(flags: dict):
    """(flag and value, help, then the default or 'required') of each flag."""
    yield "-h, --help", "show this help and exit"
    for flag in flags.values():
        if flag.store_true:
            usage = flag.name
        elif flag.choices:
            usage = f"{flag.name} {{{','.join(flag.choices)}}}"
        else:
            usage = f"{flag.name} {flag.dest.upper()}"
        if flag.required:
            note = "(required)"
        else:
            note = "" if flag.default is None or flag.store_true else f"(default {flag.default})"
        yield usage, " ".join(filter(None, (flag.help, note)))


def parse_flags(prog: str, argv, flags: dict, namespace: SimpleNamespace) -> SimpleNamespace:
    """Read the flags of one command or operation from argv into
    `namespace`, over the defaults: `--flag value` or `--flag=value`, no
    abbreviations, the last occurrence wins.  Every word after '--' is a
    value, and any value no flag takes is an unrecognized argument."""
    for flag in flags.values():
        setattr(namespace, flag.dest, flag.default)
    cut = argv.index("--") if "--" in argv else len(argv)
    readings = [_reading(word, flags) for word in argv[:cut]] + [None] * (len(argv) - cut)
    extras, seen, i = [], set(), 0
    while i < len(argv):
        reading, word = readings[i], argv[i]
        i += 1
        if reading is None or reading[0] is None:
            extras.append(word)
            continue
        name, joined = reading
        flag = flags.get(name)
        if flag is None or flag.store_true:
            _no_value(name, joined)
            if flag is None:
                _help(f"{prog} [--flag VALUE ...]", "flags", _flag_rows(flags))
            value = True
        else:
            if joined is None:
                if i == len(argv) or readings[i] is not None or argv[i] == "--":
                    raise UsageError(f"argument {name}: expected one argument")
                joined, i = argv[i], i + 1
            value = flag.value(joined)
        setattr(namespace, flag.dest, value)
        seen.add(name)
    missing = [name for name, flag in flags.items() if flag.required and name not in seen]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return namespace


def parse_argv(argv):
    """(handler, args) of an argv: the command, the operation of sklyanin2
    and shioda5, then the leaf's flags.  A usage error exits 1 after the
    `{prog}: error: ...` line on stderr, or with the `{code, message}`
    payload on stdout when argv has `--format json` anywhere."""
    prog = "algtool"
    try:
        command = choose(prog, argv, "command", COMMANDS, __doc__)
        handler, leaf = COMMANDS[command]
        prog, rest, operation = f"algtool {command}", argv[1:], None
        if isinstance(leaf, dict):
            operation = choose(prog, rest, "operation", leaf)
            leaf, prog, rest = leaf[operation], f"{prog} {operation}", rest[1:]
        args = parse_flags(prog, rest, resolve(leaf), SimpleNamespace(operation=operation))
    except UsageError as exc:
        if "--format=json" in argv or ("--format", "json") in zip(argv, argv[1:]):
            payload = {"error": {"code": "usage", "message": f"{prog}: {exc}"}}
            print(json.dumps(payload, sort_keys=True))
        else:
            sys.stderr.write(f"{prog}: error: {exc}\n")
        sys.exit(1)
    return handler, args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    handler, args = parse_argv(argv)
    try:
        return handler(args)
    except OverflowError as exc:  # float arithmetic on a finite but huge input
        error = InputError(f"input too large for float arithmetic: {exc}")
    except MemoryError:
        error = ResourceLimitError("out of memory")
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

"""Test-only reference: argv parsed by argparse, as `cli.main` parsed it
before it read argv from its own flag table.  The parsers are rebuilt from
the same `COMMANDS` and `FLAGS`: a parser without abbreviations whose usage
errors exit 1 and print the `{code, message}` payload on stdout under
`--format json`, and whose negative-number rule is `^-\\.?\\d`."""

from __future__ import annotations

import argparse
import functools
import json
import re

from algtool.cli import COMMANDS, FLAGS, UsageError


class Parser(argparse.ArgumentParser):
    def __init__(self, prog: str, json_errors: bool, description=None):
        super().__init__(prog=prog, description=description, allow_abbrev=False)
        self.json_errors = json_errors
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        if self.json_errors:
            payload = {"error": {"code": "usage", "message": f"{self.prog}: {message}"}}
            print(json.dumps(payload, sort_keys=True))
            self.exit(1)
        self.exit(1, f"{self.prog}: error: {message}\n")


def argparse_type(convert):
    """`convert` with its UsageError raised as argparse's ArgumentTypeError,
    under the same name (argparse names the type in `invalid <type> value`)."""
    @functools.wraps(convert)
    def wrapped(text):
        try:
            return convert(text)
        except UsageError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return wrapped


def add_argument_keywords(keywords: dict) -> dict:
    """A FLAGS entry as add_argument keywords."""
    keywords = dict(keywords)
    if keywords.pop("store_true", False):
        keywords["action"] = "store_true"
    if "type" in keywords:
        keywords["type"] = argparse_type(keywords["type"])
    return keywords


def choose(argv, parser: Parser, name: str, table: dict) -> str:
    parser.add_argument(name, choices=table)
    return getattr(parser.parse_args(argv[:1]), name)


def leaf_parser(prog: str, leaf, json_errors: bool) -> Parser:
    parser = Parser(prog, json_errors)
    for flag in ("--format", "--out", *leaf):
        flag, overrides = (flag, {}) if isinstance(flag, str) else flag
        parser.add_argument(flag, **add_argument_keywords({**FLAGS[flag], **overrides}))
    return parser


def parse_argv(argv):
    """(handler, args) as argparse read argv, or SystemExit."""
    json_errors = "--format=json" in argv or ("--format", "json") in zip(argv, argv[1:])
    command = choose(argv, Parser("algtool", json_errors), "command", COMMANDS)
    handler, leaf = COMMANDS[command]
    prog, rest, operation = f"algtool {command}", argv[1:], None
    if isinstance(leaf, dict):
        operation = choose(rest, Parser(prog, json_errors), "operation", leaf)
        leaf, prog, rest = leaf[operation], f"{prog} {operation}", rest[1:]
    args = leaf_parser(prog, leaf, json_errors).parse_args(
        rest, argparse.Namespace(operation=operation))
    return handler, args

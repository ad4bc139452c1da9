"""Every function, method and module-level class defined in `src/algtool`
is referenced somewhere in `src/algtool`: by name, as an attribute, or as an
imported name.  A method that overrides one of a base class counts as
referenced, since it is called through the base.  A `def` or `class` that
nothing in the library names is dead code, so it fails here; tests keep
their own helpers in `tests/`.

Blind spot: names are matched bare, without their class, so a dead method
passes whenever any other reference uses its name.  `SimpleRep.dim` and
`LinearCharacter.dim` stayed uncalled for a while because
`SimpleProfile.dim` is read as `prof.dim`."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "algtool"

# names allowed to stay unreferenced; keep it empty
ALLOWLIST: frozenset = frozenset()


def _overrides(module: str, cls: ast.ClassDef) -> set:
    klass = getattr(importlib.import_module(f"algtool.{module}"), cls.name)
    return {node.name for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and any(node.name in vars(base) for base in klass.__mro__[1:])}


def _scan():
    defined = {}
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
                referenced |= _overrides(path.stem, node)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return defined, referenced


def test_every_def_in_src_is_referenced_in_src():
    defined, referenced = _scan()
    uncalled = sorted(f"{where} {name}" for name, where in defined.items()
                      if not (name.startswith("__") and name.endswith("__"))
                      and name not in referenced and name not in ALLOWLIST)
    assert uncalled == []

"""Outside-in tracing of algtool's public functions.

The tracer wraps functions from the benchmark's side: it resolves each
target by module and attribute path, and rebinds every name that refers to
the original object, in every loaded ``algtool`` module, in module-level
dicts (such as ``selftest.CRITERIA``) and under class aliases (such as
``Cyclotomic.__radd__ is Cyclotomic.__add__``).  A target that no longer
exists is reported as absent instead of raising.

Every call updates per-name aggregates (calls, inclusive seconds, self
seconds, truthy results).  Self time is a call's duration minus the time its
wrapped child calls cover on the same thread.  Calls of names not marked hot
are also kept as spans (id, parent id, name, start, end, op id) in memory
and handed back when the op ends.  Stacks and aggregates are per thread, so
counts stay exact when algtool runs a thread pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (metric prefix, module, attribute path, hot); several entries may share a
# prefix, and then their calls are summed.  Hot names are called so often
# that they are aggregated without keeping individual spans.
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("cyclotomic.init", "algtool.cyclotomic", "Cyclotomic.__init__", True),
    ("cyclotomic.mul", "algtool.cyclotomic", "Cyclotomic.__mul__", True),
    ("cyclotomic.add", "algtool.cyclotomic", "Cyclotomic.__add__", True),
    ("cyclotomic.inverse", "algtool.cyclotomic", "Cyclotomic.inverse", True),
    ("cyclotomic.zeta", "algtool.cyclotomic", "Cyclotomic.zeta", True),
    ("linalg.insert", "algtool.linalg", "RowSpace.insert", True),
    ("linalg.reduce", "algtool.linalg", "RowSpace.reduce", True),
    ("linalg.solve_exact", "algtool.linalg", "solve_exact", True),
    ("linalg.nullspace_exact", "algtool.linalg", "nullspace_exact", True),
    ("linalg.rank_float", "algtool.linalg", "rank_float", True),
    ("linalg.span_membership", "algtool.linalg", "span_membership", True),
    ("gradedalg.ideal_piece", "algtool.gradedalg", "ideal_piece", False),
    ("gradedalg.ideal_trace", "algtool.gradedalg", "ideal_trace", False),
    ("gradedalg.check_stability", "algtool.gradedalg", "check_stability", False),
    ("gradedalg.character_coeffs", "algtool.gradedalg", "character_coeffs", False),
    ("heisenberg.character", "algtool.heisenberg", "SimpleRep.character", True),
    ("heisenberg.character", "algtool.heisenberg", "LinearCharacter.character", True),
    ("heisenberg.projective_fixed_points", "algtool.heisenberg",
     "projective_fixed_points", False),
    ("heisenberg.apply_element", "algtool.heisenberg", "apply_element", True),
    ("koszul.quadratic_dual", "algtool.koszul", "quadratic_dual", False),
    ("koszul.koszul_identity_check", "algtool.koszul", "koszul_identity_check", False),
    ("poly.mat_minors", "algtool.poly", "mat_minors", False),
    ("poly.mat_det", "algtool.poly", "mat_det", True),
    ("poly.eval", "algtool.poly", "MultiPoly.eval", True),
    ("poly.mul", "algtool.poly", "MultiPoly.__mul__", True),
    ("poly.resultant", "algtool.poly", "resultant", False),
    ("poly.exact_divide", "algtool.poly", "exact_divide", True),
    ("poly.scalar_to_json", "algtool.poly", "scalar_to_json", True),
    ("clifford.build_reps", "algtool.clifford", "build_reps", False),
    ("clifford.symmetric_rank", "algtool.clifford", "symmetric_rank", True),
    ("clifford.sample_rank_drop_points", "algtool.clifford", "sample_rank_drop_points", False),
    ("sklyanin2.point_module_check", "algtool.sklyanin2", "point_module_check", False),
    ("sklyanin2.minor_ideal_checks", "algtool.sklyanin2", "minor_ideal_checks", False),
    ("sklyanin2.stratify", "algtool.sklyanin2", "stratify", False),
    ("sklyanin2.eliminate_t", "algtool.sklyanin2", "eliminate_t", False),
    ("sklyanin2.secant_check", "algtool.sklyanin2", "secant_check", False),
    ("shioda5.ca_orbit_check", "algtool.shioda5", "ca_orbit_check", False),
    ("shioda5.singular_points_check", "algtool.shioda5", "singular_points_check", False),
    ("shioda5.cycle_fiber_equivalence", "algtool.shioda5", "cycle_fiber_equivalence", False),
    ("parallel.pmap", "algtool.parallel", "pmap", False),
    ("cli.main", "algtool.cli", "main", False),
    ("cli.emit", "algtool.cli", "emit", False),
) + tuple(
    # criteria are found by number, so renaming a criterion's suffix keeps its span
    (f"selftest.c{k}", "algtool.selftest", f"criterion_{k}_*", False) for k in range(1, 10)
)

# Names whose results feed ratio metrics.
COUNT_TRUTHY = frozenset({"linalg.insert"})
KEYED = frozenset({"gradedalg.ideal_piece"})


class Tracer:
    """Per-process tracer; `install` patches, `report` returns the data."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_stats: List[Dict[str, List[float]]] = []
        self._ids = itertools.count(1)
        self.spans: List[tuple] = []
        self.keys: Dict[str, set] = {}
        # (name, degree, seconds outside nested calls of itself, result)
        self.steps: List[tuple] = []
        self.absent: List[str] = []

    # -- bookkeeping -----------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.stats
        except AttributeError:
            local.stack, local.stats = [], {}
            with self._lock:
                self._thread_stats.append(local.stats)
            return local.stack, local.stats

    def wrap(self, name: str, fn: Callable, hot: bool) -> Callable:
        perf = time.perf_counter
        keep_span = not hot
        truthy = name in COUNT_TRUTHY
        keyed = name in KEYED
        tracer = self

        def wrapper(*args, **kwargs):
            stack, stats = tracer._state()
            parent = stack[-1] if stack else None
            # frame: [child seconds, nested same-name seconds, name, span id];
            # a hot frame passes on its nearest kept ancestor's span id
            frame = [0.0, 0.0, name,
                     next(tracer._ids) if keep_span else (parent[3] if parent else 0)]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[0] += dur
                    if parent[2] == name:
                        parent[1] += dur
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if keep_span:
                    tracer.spans.append((frame[3], parent[3] if parent else 0, name,
                                         start, end, tracer.op_id))
            if truthy and result:
                st[3] += 1
            if keyed:
                tracer._record_step(name, args, kwargs, dur - frame[1], result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _record_step(self, name, args, kwargs, seconds, result):
        """Keep a degree step of `ideal_piece(pres, n)`, keyed by (pres, n)."""
        key = tuple(args[:2])
        try:
            hash(key)
        except TypeError:
            key = tuple(id(a) for a in key)
        degree = args[1] if len(args) > 1 else kwargs.get("n")
        with self._lock:
            self.keys.setdefault(name, set()).add(key)
            self.steps.append((name, degree, seconds, result))

    # -- patching --------------------------------------------------------

    def install(self, targets: Sequence[Tuple[str, str, str, bool]] = TARGETS) -> List[str]:
        """Wrap every target that exists; returns the absent ones."""
        for name, module, path, hot in targets:
            if not self._install_one(name, module, path, hot):
                self.absent.append(f"{name}={module}:{path}")
        return self.absent

    def _install_one(self, name: str, module: str, path: str, hot: bool) -> bool:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return False
        parts = path.split(".")
        owner = mod
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        leaf = parts[-1]
        if leaf.endswith("*"):
            matches = sorted(k for k in vars(owner) if k.startswith(leaf[:-1]))
            if len(matches) != 1:
                return False
            leaf = matches[0]
        if isinstance(owner, type):
            raw = owner.__dict__.get(leaf)
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                kind = type(raw)
                wrapped = kind(self.wrap(name, raw.__func__, hot))
                same = [k for k, v in vars(owner).items()
                        if isinstance(v, kind) and v.__func__ is raw.__func__]
            elif callable(raw):
                wrapped = self.wrap(name, raw, hot)
                same = [k for k, v in vars(owner).items() if v is raw]
            else:
                return False
            for key in same:  # class aliases like __radd__ = __add__
                setattr(owner, key, wrapped)
            return True
        original = getattr(owner, leaf, None)
        if not callable(original):
            return False
        _rebind_everywhere(original, self.wrap(name, original, hot))
        return True

    # -- results ---------------------------------------------------------

    def report(self) -> dict:
        stats: Dict[str, List[float]] = {}
        with self._lock:
            for per_thread in self._thread_stats:
                for name, st in per_thread.items():
                    acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
                    for i in range(4):
                        acc[i] += st[i]
        steps = []
        for name, degree, seconds, piece in self.steps:
            steps.append({"name": name, "degree": degree, "s": seconds,
                          "rank": _piece_rank(piece), "nnz": _piece_nnz(piece)})
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2], "truthy": v[3]}
                      for k, v in sorted(stats.items())},
            "distinct_keys": {k: len(v) for k, v in self.keys.items()},
            "steps": steps,
            "absent": list(self.absent),
            "spans": [list(s) for s in self.spans],
        }


def _rebind_everywhere(original, wrapped) -> None:
    """Point every algtool module-level name, and every value of a
    module-level dict, that refers to `original` at `wrapped`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "algtool" or mod_name.startswith("algtool.")):
            continue
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapped
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = wrapped


def _piece_rank(piece) -> Optional[int]:
    rank = getattr(piece, "ideal_rank", None)
    return rank if isinstance(rank, int) else None


def _piece_nnz(piece) -> Optional[int]:
    rows = getattr(getattr(piece, "space", None), "rows", None)
    if not isinstance(rows, dict):
        return None
    return sum(len(row) for row in rows.values())

"""Runs one benchmark op in a fresh interpreter.

Usage: python3 child.py '<json spec>'

The spec names the checkout root, the op (none for a bare set-up, which
only imports) and whether to trace.  The child imports `algtool.cli` from
the checkout's `src/`, records when that import finished (the parent
subtracts its spawn time to get set-up time), times a fixed reference job,
runs the op through a public entry point, times the reference job again,
and prints one JSON line: exit code, seconds inside the entry point, the
reference times, the op's output, peak RSS and, when traced, the tracer's
report.
"""

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction


def run_lib_op(algtool, op: dict) -> str:
    """The one op the CLI cannot express: a Q(w)-coefficient presentation."""
    call = op["call"]
    if call != "hilbert_curveCa_qw":
        raise ValueError(f"unknown library op {call!r}")
    args = op["args"]
    p = args["p"]
    a = algtool.Cyclotomic(p, [Fraction(args["r"]), Fraction(args["s"])])
    pres = algtool.make_presentation("curveCa", a)
    return json.dumps(algtool.hilbert(pres, args["max_degree"], args["max_cells"]))


def reference_s(repeats: int = 15) -> float:
    """Median seconds of a fixed pure-Python Fraction job of a few ms.

    The parent divides the op's times by this to take out how fast the
    machine happened to run at that moment.  Garbage collection is off
    during the job, so the size of the op's heap does not reach it."""
    times = []
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            x = Fraction(1, 3)
            for i in range(1, 400):
                x = x * Fraction(i, i + 1) + Fraction(1, i)
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import algtool.cli
    imported = time.perf_counter()
    package_dir = os.path.realpath(os.path.join(src, "algtool"))
    if os.path.dirname(os.path.realpath(algtool.cli.__file__)) != package_dir:
        print(f"algtool was imported from {algtool.cli.__file__}, not {package_dir}",
              file=sys.stderr)
        return 3

    ref_before = reference_s()
    op = spec["op"]
    if op is None:  # a bare set-up, timed by the parent
        sys.stdout.write(json.dumps({"imported": imported, "ref_s": [ref_before]}) + "\n")
        return 0
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer(op["id"])
        tracer.install()

    buf = io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            if op["kind"] == "cli":
                rc = algtool.cli.main(list(op["argv"]))
            else:
                print(run_lib_op(algtool, op))
                rc = 0
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    ref_after = reference_s()

    report = {
        "rc": rc,
        "error": error,
        "imported": imported,
        "run_s": elapsed,
        "ref_s": [ref_before, ref_after],
        "output": buf.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Micro timings of `algtool.Cyclotomic` at p = 5 on seeded operands.

Usage: python3 micro.py <checkout root> <seed>

Prints one JSON line: the median microseconds per mul, add, inverse and
zeta over several repeats, and the errors found when the results are
compared with the benchmark's own Q(w) arithmetic.
"""

import json
import os
import random
import statistics
import sys
import time
from fractions import Fraction

import checks

P = 5
REPEATS = 7


def per_op_us(fn, n: int) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(n)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / n * 1e6


def main() -> int:
    root, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, os.path.join(root, "src"))
    from algtool import Cyclotomic

    rng = random.Random(f"micro:{seed}")
    raws = []
    while len(raws) < 16:
        raw = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(P - 1)]
        if any(raw):
            raws.append(raw)
    xs = [Cyclotomic(P, raw) for raw in raws]
    pairs = [(xs[i], xs[(7 * i + 3) % 16]) for i in range(16)]

    def coeffs(x):
        return tuple(Fraction(c) for c in x.coeffs)

    errors = []
    for (x, y), (rx, ry) in zip(pairs, [(raws[i], raws[(7 * i + 3) % 16]) for i in range(16)]):
        ex, ey = checks.fold(rx, P), checks.fold(ry, P)
        if coeffs(x * y) != checks.mul(ex, ey, P):
            errors.append(f"mul {rx} * {ry}")
        if coeffs(x + y) != checks.add(ex, ey):
            errors.append(f"add {rx} + {ry}")
        if checks.mul(coeffs(x.inverse()), ex, P) != checks.rational(P, 1):
            errors.append(f"inverse {rx}")
    for k in range(P):
        if coeffs(Cyclotomic.zeta(P, k)) != checks.zeta(P, k):
            errors.append(f"zeta {k}")

    def mul(n):
        for i in range(n):
            x, y = pairs[i % 16]
            x * y

    def add(n):
        for i in range(n):
            x, y = pairs[i % 16]
            x + y

    def inverse(n):
        for i in range(n):
            xs[i % 16].inverse()

    def zeta(n):
        for i in range(n):
            Cyclotomic.zeta(P, i)

    result = {"mul_us": per_op_us(mul, 400), "add_us": per_op_us(add, 1000),
              "inverse_us": per_op_us(inverse, 100), "zeta_us": per_op_us(zeta, 2000),
              "errors": errors}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

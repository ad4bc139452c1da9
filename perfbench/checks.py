"""Output checks that do not use the code under test.

Everything here works on the JSON that an op printed, with the benchmark's
own Fraction arithmetic in Q(w_p): closed-form Hilbert series, the structure
of a character table (identity row, central rows, vanishing non-central rows
for p not dividing n) and its decomposition into the p^2 + p - 1
irreducible characters of the Heisenberg group H_p.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Elem = Tuple[Fraction, ...]  # power basis 1, w, ..., w^(p-2)


# -- Q(w_p) arithmetic ------------------------------------------------------------


def fold(raw: Sequence[Fraction], p: int) -> Elem:
    """Reduce coefficients of w^0..w^(anything) with w^p = 1 and
    1 + w + ... + w^(p-1) = 0."""
    acc = [Fraction(0)] * p
    for k, c in enumerate(raw):
        acc[k % p] += c
    top = acc[p - 1]
    return tuple(acc[k] - top for k in range(p - 1))


def zeta(p: int, k: int) -> Elem:
    raw = [Fraction(0)] * p
    raw[k % p] = Fraction(1)
    return fold(raw, p)


def rational(p: int, value) -> Elem:
    return fold([Fraction(value)], p)


def mul(x: Elem, y: Elem, p: int) -> Elem:
    raw = [Fraction(0)] * (2 * p)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    raw[i + j] += a * b
    return fold(raw, p)


def add(x: Elem, y: Elem) -> Elem:
    return tuple(a + b for a, b in zip(x, y))


def conjugate(x: Elem, p: int) -> Elem:
    raw = [Fraction(0)] * p
    for k, c in enumerate(x):
        raw[(-k) % p] += c
    return fold(raw, p)


def parse_scalar(obj, p: int) -> Elem:
    """A cyclotomic as printed by `scalar_to_json`."""
    if obj.get("p") != p or len(obj.get("coeffs", ())) != p - 1:
        raise ValueError(f"not an element of Q(w_{p}): {obj!r}")
    return tuple(Fraction(int(n), int(d)) for n, d in obj["coeffs"])


def parse_label(label: str) -> Tuple[int, int, int]:
    """'e1^a e2^b z^k' (or '1') as exponents (a, b, k)."""
    exps = {"e1": 0, "e2": 0, "z": 0}
    if label != "1":
        for tok in label.split():
            name, _, power = tok.partition("^")
            if name not in exps or exps[name]:
                raise ValueError(f"bad class label {label!r}")
            exps[name] = int(power) if power else 1
    return exps["e1"], exps["e2"], exps["z"]


# -- closed forms -------------------------------------------------------------------


def binomial_series(vars_: int, top: int) -> List[int]:
    """Hilbert series of a polynomial ring (PBW-type quotient) in vars_ variables."""
    from math import comb
    return [comb(n + vars_ - 1, vars_ - 1) for n in range(top + 1)]


def curve_series(degree: int, top: int) -> List[int]:
    """Hilbert series of the homogeneous coordinate ring of a curve of the
    given degree whose ring is generated in degree 1 (H_n = degree * n)."""
    return [1] + [degree * n for n in range(1, top + 1)]


# -- checks -------------------------------------------------------------------------


def check_hilbert_payload(text: str, expect: List[int]) -> List[str]:
    data = json.loads(text)
    series = data["hilbert"] if isinstance(data, dict) else data
    if series != expect:
        return [f"hilbert {series} != closed form {expect}"]
    return []


def irreducible_characters(p: int):
    """(dimension, value at class (a, b, k)) for the p^2 linear characters
    and the p - 1 simple p-dimensional representations."""
    chars = []
    for alpha in range(p):
        for beta in range(p):
            chars.append((1, lambda a, b, k, al=alpha, be=beta: zeta(p, al * a + be * b)))
    for i in range(1, p):
        chars.append((p, lambda a, b, k, i=i: (
            tuple(p * c for c in zeta(p, i * k)) if a % p == 0 and b % p == 0
            else rational(p, 0))))
    return chars


def check_table_payload(text: str, p: int, top: int, expect: List[int]) -> List[str]:
    """Independent checks of `charseries --table` JSON output."""
    data = json.loads(text)
    errors = []
    if data.get("p") != p or data.get("N") != top:
        return [f"table header p={data.get('p')} N={data.get('N')}, wanted p={p} N={top}"]
    if data.get("hilbert") != expect:
        errors.append(f"table hilbert {data.get('hilbert')} != closed form {expect}")
    rows: Dict[Tuple[int, int, int], List[Elem]] = {}
    for cls in data["classes"]:
        a, b, k = parse_label(cls["rep"])
        key = (a % p, b % p, k % p)
        if key in rows:
            errors.append(f"class {cls['rep']} listed twice")
        coeffs = [parse_scalar(c, p) for c in cls["coeffs"]]
        if len(coeffs) != top + 1:
            errors.append(f"class {cls['rep']} has {len(coeffs)} coefficients")
            continue
        rows[key] = coeffs
    wanted = {(0, 0, k) for k in range(p)} | {(a, b, 0) for a in range(p) for b in range(p)}
    if set(rows) != wanted or len(rows) != p * p + p - 1:
        return errors + [f"table has {len(rows)} classes, wanted all {p * p + p - 1}"]
    zero = rational(p, 0)
    for (a, b, k), coeffs in sorted(rows.items()):
        for n, c in enumerate(coeffs):
            if a == 0 and b == 0:  # identity and central rows: w^(k n) H_n
                want = tuple(expect[n] * x for x in zeta(p, k * n))
            elif n == 0:
                want = rational(p, 1)
            elif n % p:
                want = zero
            else:
                continue  # non-central rows at p | n are checked by the decomposition
            if c != want:
                errors.append(f"class ({a},{b},{k}) degree {n}: {c} != {want}")
    irreps = irreducible_characters(p)
    order = p ** 3
    for n in range(top + 1):
        total_dim = 0
        for dim, chi in irreps:
            acc = zero
            for (a, b, k), coeffs in rows.items():
                size = 1 if a == 0 and b == 0 else p
                term = mul(coeffs[n], conjugate(chi(a, b, k), p), p)
                acc = add(acc, tuple(size * x for x in term))
            mult = acc[0] / order
            if any(acc[1:]) or mult.denominator != 1 or mult < 0:
                errors.append(f"degree {n}: multiplicity {acc} / {order} is not a "
                              "non-negative integer")
                break
            total_dim += int(mult) * dim
        else:
            if total_dim != expect[n]:
                errors.append(f"degree {n}: irreducibles sum to {total_dim}, "
                              f"H_n = {expect[n]}")
    return errors


def check_koszul_payload(text: str, p: int, top: int) -> List[str]:
    data = json.loads(text)
    errors = []
    if data.get("zero") is not True:
        errors.append("koszul-check did not report zero: true")
    residuals = [parse_scalar(c, p) for c in data.get("residuals", ())]
    if len(residuals) != top or any(any(r) for r in residuals):
        errors.append(f"koszul residuals are not {top} zeros")
    return errors


def check_selftest_payload(text: str, want: List[str]) -> List[str]:
    """`want` lists the criterion numbers the op asked for."""
    data = json.loads(text)
    criteria = data.get("criteria", [])
    errors = []
    if data.get("passed") is not True:
        failed = [c.get("name") for c in criteria if c.get("passed") is not True]
        errors.append(f"selftest did not pass; failed criteria: {failed}")
    ran = [str(c.get("name", "")).split("-", 1)[0] for c in criteria]
    if ran != want:
        errors.append(f"selftest ran criteria {ran}, not {want}")
    return errors


def check_shioda5_payload(text: str, kind: str, expect=None) -> List[str]:
    """The report fields of `algtool shioda5 orbit|singular|fiber`; the
    fiber's Hilbert series is checked against its closed form."""
    data = json.loads(text)
    if kind == "shioda5_orbit":
        ok = (data.get("relations_ok") is True and data.get("minors_ok") is True
              and data.get("points") == 25)
    elif kind == "shioda5_singular":
        points = {json.dumps(pt, sort_keys=True) for pt in data.get("points", ())}
        ok = (data.get("count") == 30 and len(points) == 30
              and data.get("on_surface") is True
              and len(data.get("singular_ranks", ())) == 30
              and all(r < 2 for r in data["singular_ranks"])
              and data.get("control_ranks") and all(r == 2 for r in data["control_ranks"]))
    else:
        ok = (data.get("span_equal_direct") is True and data.get("span_equal_relabeled") is True
              and data.get("hilbert") == expect and data.get("cusp_cycles") == 12)
    return [] if ok else [f"{kind} report is wrong: {text.strip()[:300]}"]


def check_output(check: dict, rc, text: str) -> List[str]:
    """All errors of one op's output; an empty list means it passed."""
    want_rc = check.get("rc", 0)
    errors = [] if rc == want_rc else [f"exit code {rc}, wanted {want_rc}"]
    try:
        kind = check["type"]
        if kind == "hilbert":
            return errors + check_hilbert_payload(text, check["expect"])
        if kind == "table":
            return errors + check_table_payload(text, check["p"], check["top"], check["expect"])
        if kind == "koszul":
            return errors + check_koszul_payload(text, check["p"], check["top"])
        if kind == "selftest":
            return errors + check_selftest_payload(text, check["criteria"])
        if kind.startswith("shioda5_"):
            return errors + check_shioda5_payload(text, kind, check.get("expect"))
        return errors + [f"unknown check {kind!r}"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return errors + [f"unreadable output: {type(exc).__name__}: {exc}"]

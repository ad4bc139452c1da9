"""Test-only reference: polynomial arithmetic on tuple-keyed term dicts, as
`poly.MultiPoly` computed it before its monomials were packed into ints.

A polynomial here is a dict from exponent tuples to non-zero coefficients.
Every loop keeps the order of products, sums and negations and the dict
insertion order of the tuple-keyed kernel, zero deletion included, so its
floats are the ones that kernel produced."""

from __future__ import annotations

import operator
from typing import Dict, List, Tuple

Exps = Tuple[int, ...]
Terms = Dict[Exps, object]


def grlex_key(exps: Exps):
    return (-sum(exps), tuple(-e for e in exps))


def sorted_terms(f: Terms) -> List[Tuple[Exps, object]]:
    return sorted(f.items(), key=lambda t: grlex_key(t[0]))


def leading_term(f: Terms) -> Tuple[Exps, object]:
    e = min(f, key=grlex_key)
    return e, f[e]


def degree_in(f: Terms, var: int) -> int:
    return max(e[var] for e in f) if f else -1


def add(f: Terms, g: Terms) -> Terms:
    terms = dict(f)
    for e, c in g.items():
        cur = terms.get(e)
        new = c if cur is None else cur + c
        if new:
            terms[e] = new
        elif cur is not None:
            del terms[e]
    return terms


def neg(f: Terms) -> Terms:
    return {e: -c for e, c in f.items()}


def sub(f: Terms, g: Terms) -> Terms:
    return add(f, neg(g))


def mul(f: Terms, g: Terms) -> Terms:
    terms: Terms = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(operator.add, e1, e2))
            c = c1 * c2
            cur = terms.get(e)
            new = c if cur is None else cur + c
            if new:
                terms[e] = new
            elif cur is not None:
                del terms[e]
    return terms


def power(f: Terms, n: int, one: Terms) -> Terms:
    """f^n by square and multiply from `one`, the constant 1 of f's ring."""
    result, base = one, f
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base)
        n >>= 1
    return result


def partial(f: Terms, var: int) -> Terms:
    terms: Terms = {}
    for e, c in f.items():
        k = e[var]
        if k == 0:
            continue
        e2 = tuple(v - 1 if i == var else v for i, v in enumerate(e))
        nc = c * k
        cur = terms.get(e2)
        terms[e2] = nc if cur is None else cur + nc
    return {e: c for e, c in terms.items() if c}


def laplace_minor(entries: List[Terms], ncols: int, one: Terms, memo: dict,
                  rows: Tuple[int, ...], cols: Tuple[int, ...]) -> Terms:
    """The minor on `rows` x `cols` of the row-major matrix `entries`, by
    Laplace expansion along its first row, memoised on (rows, cols); `one`
    is the constant 1, the empty minor."""
    if not rows:
        return one
    key = (rows, cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    acc: Terms = {}
    for idx, c in enumerate(cols):
        entry = entries[rows[0] * ncols + c]
        if not entry:
            continue
        piece = mul(entry, laplace_minor(entries, ncols, one, memo, rows[1:],
                                         cols[:idx] + cols[idx + 1:]))
        acc = add(acc, piece) if idx % 2 == 0 else sub(acc, piece)
    memo[key] = acc
    return acc


def evaluate(f: Terms, point):
    """f at a point the way `MultiPoly.eval` has always done it: a table of
    powers of each coordinate built by repeated multiplication from 1, each
    term its coefficient times its non-zero powers in variable order, the
    terms summed in dict order; 0 * point[0] for the zero polynomial."""
    if not f:
        return 0 * point[0]
    powers = []
    for i, x in enumerate(point):
        row = [1]
        for _ in range(max(e[i] for e in f)):
            row.append(row[-1] * x)
        powers.append(row)
    acc = None
    for e, c in f.items():
        for i, k in enumerate(e):
            if k:
                c = c * powers[i][k]
        acc = c if acc is None else acc + c
    return acc

"""Test-only reference: the ideal-side graded engine.

The degree-n ideal piece is built over all p^n words,

    I_n = V . I_{n-1} + I_{n-1} . V  (+ relations of degree n),

as a sparse reduced row-echelon space of word indices (big-endian base p).
Since rho(g) is monomial, the trace of g on I_n reads one coefficient off
each echelon row, and the degree-n character of the quotient is
chi_V(g)^n - tr(g | I_n).  `quotient_trace` computes the same number on the
normal words of the quotient instead.  Both enumerate all p^n words, so keep
p^n small.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from algtool.cyclotomic import Cyclotomic
from algtool.gradedalg import Presentation, word_to_index
from algtool.heisenberg import HeisenbergElement, SimpleRep, conjugacy_classes
from algtool.linalg import RowSpace, integral

_PIECES: Dict[Tuple[Presentation, int], RowSpace] = {}


def index_digits(idx: int, p: int, n: int) -> Tuple[int, ...]:
    digits = [0] * n
    for pos in range(n - 1, -1, -1):
        idx, digits[pos] = divmod(idx, p)
    return tuple(digits)


def shift_table(p: int, n: int, a: int) -> List[int]:
    """Index permutation of words under digitwise +a (mod p)."""
    return [word_to_index(tuple((d + a) % p for d in index_digits(i, p, n)), p)
            for i in range(p ** n)]


def digitsum_table(p: int, n: int) -> List[int]:
    return [sum(index_digits(i, p, n)) % p for i in range(p ** n)]


def ideal_piece(pres: Presentation, n: int) -> RowSpace:
    """I_n as a reduced row-echelon space over the p^n word indices."""
    key = (pres, n)
    hit = _PIECES.get(key)
    if hit is not None:
        return hit
    p = pres.p
    space = RowSpace()
    if n >= 2:
        prev = ideal_piece(pres, n - 1)
        shift = p ** (n - 1)
        for pivot in sorted(prev.rows):
            row = prev.rows[pivot]
            for g in range(p):
                space.insert(integral({g * shift + idx: c for idx, c in row.items()})[0])
            for g in range(p):
                space.insert(integral({idx * p + g: c for idx, c in row.items()})[0])
        for rel in pres.relations:
            if len(next(iter(rel))[0]) == n:
                space.insert(integral({word_to_index(w, p): c for w, c in rel})[0])
    _PIECES[key] = space
    return space


def hilbert(pres: Presentation, max_degree: int) -> List[int]:
    return [pres.p ** n - ideal_piece(pres, n).rank for n in range(max_degree + 1)]


def ideal_trace(pres: Presentation, g: HeisenbergElement, rep: SimpleRep,
                n: int) -> Cyclotomic:
    """Trace of g on I_n.  In reduced echelon form no row contains another
    row's pivot column, so the coordinate of g.row_c along row_c is the
    row's value at the a-shifted pivot index times the phase."""
    p = pres.p
    space = ideal_piece(pres, n)
    total = Cyclotomic(p)
    if n == 0 or space.rank == 0:
        return total
    unshift = shift_table(p, n, g.a)  # preimage of column c under digitwise -a
    digitsum = digitsum_table(p, n)
    for c, row in space.rows.items():
        src = unshift[c]
        v = row.get(src)
        if v:
            phase = (rep.index * (n * g.k + g.b * digitsum[src])) % p
            total = total + Cyclotomic.zeta(p, phase) * v
    return total


def quotient_trace(pres: Presentation, g: HeisenbergElement, rep: SimpleRep,
                   n: int) -> Cyclotomic:
    """Trace of g on A_n, on the normal words (non-pivot indices) of I_n."""
    p = pres.p
    space = ideal_piece(pres, n)
    shift_back = shift_table(p, n, -g.a)
    digitsum = digitsum_table(p, n)
    one = pres.one()
    total = Cyclotomic(p)
    for w in range(p ** n):
        if w in space.rows:
            continue
        target = shift_back[w]
        v = space.reduce(integral({target: one})[0]).get(w)
        if v:
            phase = (rep.index * (n * g.k + g.b * digitsum[w])) % p
            total = total + Cyclotomic.zeta(p, phase) * v
    return total


def character_coeffs(pres: Presentation, g: HeisenbergElement, rep: SimpleRep,
                     max_degree: int) -> List[Cyclotomic]:
    """chi_V(g)^n - tr(g | I_n) for n = 0..N."""
    p = pres.p
    out = [Cyclotomic.from_rational(p, 1)]
    for n in range(1, max_degree + 1):
        if g.is_central():
            chi_vn = Cyclotomic.zeta(p, rep.index * g.k * n) * Fraction(p) ** n
        else:
            chi_vn = Cyclotomic(p)
        out.append(chi_vn - ideal_trace(pres, g, rep, n))
    return out


def character_rows(pres: Presentation, rep: SimpleRep, max_degree: int):
    """(class label, coefficients) for every conjugacy class."""
    return tuple((g.label(), tuple(character_coeffs(pres, g, rep, max_degree)))
                 for g, _size in conjugacy_classes(pres.p))

"""Degreewise computation of graded quotients A = T(V)/I by H_p-stable ideals
I: normal-word bases, Hilbert coefficients and character series.

The engine works on the quotient side (Polishchuk-Positselski, *Quadratic
Algebras*, ch. 1-2; Ufnarovski 1995).  With R_d the span of the degree-d
relations, degree n is built from degree n-1 as

    A_n = (A_{n-1} (x) V) / im( sum_d A_{n-d} (x) R_d ).

Words are keyed by their base-p index (`word_to_index`, big-endian): column
c of the working matrix is the word of index c, one of the h_{n-1}*p words
u x_j with u in B_{n-1} (not all p^n).  A normal word u of degree n-d and a
relation sum c_w w of degree d give the row sum c_w NF(u w[:-1]) (x) x_{w[-1]}.
The rows are reduced to a sparse reduced row-echelon space that lives only
inside `_build`: its free columns are the normal words B_n.  Indices follow
the lexicographic order of words, so B_n is the set of words that are not
leading words of I_n in that order.  The pivot columns of degree d whose
suffix of length d-1 is in B_{d-1} (the prefix is, by construction) are the
*obstructions* of degree d: the leading words of the reduced Groebner basis
of I in that order.  `_build` keeps B_d and the tail NF_d(o) of each rule
o -> NF_d(o), the residue of o modulo the space, and drops the space.

One memo per degree holds NF by word index: the tails of its rules, and
the forms looked up since.  A word u x_j with u not normal has NF(u x_j) =
sum_i c_i NF(b_i x_j) for NF(u) = sum_i c_i b_i.  A word with a normal
prefix is normal, its own unit vector, unless it ends in an obstruction o
of some degree d <= n (leading words are closed under extension, so its
suffix of length n-1 is either normal, and the word an obstruction, or
again a leading word with a normal prefix).  Then NF(head.o) =
sum_t c_t NF(head.t) over the terms c_t t of NF_d(o), since head.(o -
NF_d(o)) lies in I_n and the residue modulo I_n is unique.  Every tail word
t has a larger index than o, so the rewriting ends.  This one rule serves
every degree, eliminated or not.

Degree n is built from the candidates: the words u x_j, u in B_{n-1}, with
no obstruction as a suffix; every other column rewrites by the rules below
n.  Each degree-n relation, and each overlap w = a c b of obstructions
o1 = a c and o2 = c b (c, a and b non-empty), is an ambiguity that the
rules below n may leave unresolved.  By the diamond lemma (G. Bergman,
Adv. Math. 29, 1978; T. Mora, Theor. Comput. Sci. 134, 1994) they are the
only ones: I_n meets the span of the candidates in the span of the
overlap rows NF(tail(o1) b) - NF(a tail(o2)) and the NF of the degree-n
relations, each reduced by the rules below n with the candidates taken as
provisional normal words.  So a degree with no relation and no overlap
row builds no rows: B_n is the candidates.  Presentations whose
obstructions stop at degree D have none from 2D on, and those whose
obstructions never stop (cycle(p) gets some in every degree) resolve a
few overlaps per degree.

An overlap needs no row when both tails are zero (the row is zero), or
when its middle, w less its first and last letter, is not normal (the
chain criterion; Mora 1994).  Then a third obstruction o3 lies in w
touching neither end, and each of the ambiguities (o1, o3) and (o3, o2)
is disjoint or an overlap of lower degree, which the rules below n
resolve.  The middle test is one set lookup in B_{n-2}.

Degree n has two row sources, and both give the same space on the
candidates, hence the same B_n, rules and tails:

- the overlap rows above (`_resolve`), whose pivots are exactly the new
  obstructions; and
- the relation multiples u r, u in B_{n-d}, on all columns (`_eliminate`),
  which also pivot on every column that is not a candidate.

Each step takes the source that combines fewer terms: the overlap rows
when OVERLAP_WEIGHT times the terms of their tails and of the degree-n
relations is below sum_d h_{n-d} times the terms of the degree-d
relations.  Overlap rows left-multiply long tails, a tail(o2), which costs
more per term than the relation multiples' right-multiplication by one
letter.  sklyanin3(1, 2, -3), whose tails grow dense, takes relation
multiples in every degree; cycle(p) takes overlap rows from degree 3 on,
and the Clifford algebras on 7 and 11 letters from degree 4 on.

Over Q every vector of the engine is integer numerators over one positive
denominator (`linalg.ScaledVec`): each relation is cleared to integer
coefficients once, a relation row is built over the least common
denominator of the normal forms it combines (only its span matters), and
the normal-form memos hold numerators in lowest terms.  Over Q(w)
the numerators are Cyclotomic and the denominator stays 1.  Fractions
appear only where a caller reads a vector by key.

Since rho(g) is monomial, g = e1^a e2^b z^k sends a word w to
zeta^(i(nk + b sum(w))) (w - a), with w - a the digitwise shift, and

    tr(g | A_n) = sum_{w in B_n} zeta^(i(nk + b sum(w))) [w] NF(w - a)
                = sum_{s mod p} zeta^(i(nk + b s)) bucket_{n,a}[s],

where the weight bucket bucket_{n,a}[s] sums the diagonal entries [w] NF(w - a)
over the normal words of e2-weight sum(w) = s (mod p).  The buckets depend on
neither b, k nor the representation V_i, so one pass over B_n per (n, a)
serves every class e1^a e2^b z^k of every table.  For a = 0 a normal word
is its own NF, so bucket_{n,0}[s] is the number of words of weight s in
B_n: a histogram, with no normal form looked up.  For a != 0 and p not
dividing n every bucket is zero, and no normal form is needed: an ideal
stable under e2 makes I_n a sum of e2-weight spaces, so NF never mixes
weights; and w - a has weight sum(w) - na, which differs from sum(w) mod p.
So a table costs one histogram per degree plus, in degrees divisible by p,
one pass per a = 1..p-1 over Q(w), and one in all over Q.

Neither the weight of w nor the index of w - a needs the digits of w: the
prefix u of a normal word w = u x_j is normal, so per-degree maps on B_n
(`_word_map`) give both from the map of degree n-1, weight(u x_j) =
weight(u) + j and shift(u x_j) = shift(u) p + (j - a) mod p.

Over Q the passes for a = 2..p-1 are the pass for a = 1.  Let p divide n.
Then w - a has the weight of w, so e1^a preserves each weight space
A_{n,s}, and there it is a rational matrix (e1 permutes words, and NF has
rational coefficients) of order dividing p.  Its characteristic polynomial
is (t - 1)^m0 Phi_p(t)^m1, so bucket_{n,a}[s] = tr(e1^a | A_{n,s}) =
m0 + m1 (zeta + ... + zeta^(p-1)) = m0 - m1 for every a != 0: e1^a has the
eigenvalues of e1, the primitive ones permuted.  Over Q(w) the matrix has
Q(w) entries, its characteristic polynomial need not be rational, and
every a keeps its own pass.  So every bucket over Q, and every bucket of
a = 0 over Q(w), is an integer, and `trace` folds the phase sum of such
buckets into the power basis in integers.  And over Q a table takes one
row per class key (min(a, 1), b, k), as e1^a e2^b, a != 0, has the traces
of e1 e2^b; over Q(w) every class keeps its own row.

`in_ideal` is the one membership query: a tensor lies in I exactly when
its normal form is zero.  H_p acts on A exactly when g(r) lies in I for
each relation r and g = e1, e2, so `check_stability` takes the presentation
alone and judges the algebra, not the relation span: structure first,
normal forms for the rest.  A relation of one e2-weight is an
e2-eigenvector, and an e1-image that is a multiple of a relation lies in
I; only the other images are normal-formed.  Catalog relations are
commutators (they span the alternating tensors, which GL(V) preserves) and
e1-orbits of seeds of one e2-weight, so each is decided by its structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .cyclotomic import Cyclotomic, require_odd_prime
from .errors import InputError, ModulusError, ResourceLimitError, StabilityError
from .heisenberg import HeisenbergElement, SimpleRep, conjugacy_classes
from .linalg import RowSpace, ScaledVec, SparseVec, integral

Word = Tuple[int, ...]
Relation = Tuple[Tuple[Word, object], ...]  # sorted ((word, coeff), ...)


@dataclass(frozen=True)
class Presentation:
    """Graded algebra T(V)/(relations), V of dimension p, relations given as
    homogeneous tensors: maps from words over {0..p-1} to coefficients.

    A coefficient is an int, a Fraction or a Cyclotomic over Q(w_p).  With
    one Cyclotomic among them the presentation is over Q(w), and every
    rational coefficient is coerced into Q(w); else it is over Q.

    Each presentation owns its `engine`, built on first use and freed with
    the presentation; equal presentations built apart have their own."""

    p: int
    relations: Tuple[Relation, ...]
    kind: str = "custom"
    params: Tuple = ()

    def __post_init__(self):
        p = self.p
        require_odd_prime(p)
        for rel in self.relations:
            if not rel:
                raise InputError("empty relation")
            degrees = {len(w) for w, _ in rel}
            if len(degrees) != 1:
                raise InputError(f"inhomogeneous relation {rel}")
            if min(degrees) < 2:
                raise InputError("relations must have degree >= 2")
            if any(not 0 <= x < p for w, _ in rel for x in w):
                raise InputError(f"relation {rel} has a letter outside 0..{p - 1}")
        coeffs = [c for rel in self.relations for _w, c in rel]
        kinds = set(map(type, coeffs))
        if not kinds <= {int, Fraction, Cyclotomic}:
            names = sorted(k.__name__ for k in kinds - {int, Fraction, Cyclotomic})
            raise InputError(f"coefficients of type {', '.join(names)} are not in Q or Q(w_{p})")
        if Cyclotomic in kinds:
            if {c.p for c in coeffs if type(c) is Cyclotomic} != {p}:
                raise ModulusError(f"a Cyclotomic coefficient lies outside Q(w_{p})")
            object.__setattr__(self, "relations", tuple(
                tuple((w, c if type(c) is Cyclotomic else Cyclotomic.from_rational(p, c))
                      for w, c in rel) for rel in self.relations))

    @cached_property
    def engine(self) -> "GradedEngine":
        return GradedEngine(self)

    def one(self):
        """1 in the field of the coefficients, read off the first of them."""
        if self.relations and isinstance(self.relations[0][0][1], Cyclotomic):
            return Cyclotomic.from_rational(self.p, 1)
        return Fraction(1)

    def is_quadratic(self) -> bool:
        return all(len(next(iter(rel))[0]) == 2 for rel in self.relations)

    def relations_by_degree(self) -> List[Tuple[int, List[Relation]]]:
        """(d, relations of degree d), by ascending degree."""
        groups: Dict[int, List[Relation]] = {}
        for rel in self.relations:
            groups.setdefault(len(rel[0][0]), []).append(rel)
        return sorted(groups.items())

    def label(self) -> str:
        if self.kind == "custom":
            return f"custom(p={self.p}, {len(self.relations)} relations)"
        inner = ":".join(str(x) for x in self.params)
        return f"{self.kind}({inner})" if inner else f"{self.kind}(p={self.p})"


def make_relation(pairs: Sequence[Tuple[Word, object]]) -> Relation:
    acc: Dict[Word, object] = {}
    for w, c in pairs:
        w = tuple(w)
        cur = acc.get(w)
        new = c if cur is None else cur + c
        if new:
            acc[w] = new
        elif cur is not None:
            del acc[w]
    if not acc:
        raise InputError("relation cancels to zero")
    return tuple(sorted(acc.items()))


def word_to_index(word: Word, p: int) -> int:
    idx = 0
    for d in word:
        idx = idx * p + (d % p)
    return idx


def _combine(terms, stride: int = 1) -> Tuple[SparseVec, int]:
    """(nums, den): sum of scale * vec[col] at column stride*col + shift over the
    (vec, scale, shift) of terms, den the lcm of the vectors' denominators.
    nums is a fresh dict with no zero value, integral when the scales are, so
    a `RowSpace` may take it as it is."""
    den = 1
    for vec, _scale, _shift in terms:
        if vec.den != 1:
            den = lcm(den, vec.den)
    acc: SparseVec = {}
    for vec, scale, shift in terms:
        if vec.den != den:
            scale = scale * (den // vec.den)
        for col, v in vec.nums.items():
            key = col * stride + shift
            term = scale * v
            cur = acc.get(key)
            new = term if cur is None else cur + term
            if new:
                acc[key] = new
            elif cur is not None:
                del acc[key]
    return acc, den


def _span(rows: List[SparseVec]) -> RowSpace:
    """The reduced row-echelon space of the non-zero rows."""
    # In descending order of leading column a new pivot mostly lies left of
    # every stored row's support, so keeping the space reduced seldom
    # touches older rows; the reduced space itself does not depend on order.
    space = RowSpace()
    for row in sorted(filter(None, rows), key=min, reverse=True):
        space.insert(row)
    return space


#: The overlap rows are chosen when this many times their terms is fewer
#: than the terms of the relation multiples (module docstring): per-degree
#: timings of both sources on the catalog break even near this ratio.
OVERLAP_WEIGHT = 2.5


#: Default cap on the cells of one degree step of the graded engine: the
#: rows (sum over relation degrees d of h_{n-d} times the number of degree-d
#: relations) times the columns (h_{n-1} * p) of the degree-n matrix of
#: relation multiples, counted whichever row source the step takes.
#: With this cap the polynomial ring on 5 generators is admitted up to
#: degree 8 (2100 x 1650 cells) and refused from degree 9.
DEFAULT_MAX_CELLS = 4_000_000


def _cell_cap(cap: Optional[int]) -> int:
    """`cap` (the --max-cells value) when given, else DEFAULT_MAX_CELLS."""
    if cap is None:
        return DEFAULT_MAX_CELLS
    if cap <= 0:
        raise ResourceLimitError(f"--max-cells must be positive, got {cap}")
    return cap


def check_degree_allowed(n: int, rows: int, cols: int, cap: Optional[int] = None) -> None:
    """Refuse a degree-n step whose working matrix has more cells than the cap
    (`_cell_cap`).  A step without rows still lists its columns, so it
    counts as one row."""
    cap = _cell_cap(cap)
    cells = max(rows, 1) * cols
    if cells > cap:
        raise ResourceLimitError(
            f"degree {n} needs a {rows} x {cols} working matrix ({cells} cells), cap is {cap}"
        )


class GradedEngine:
    """Normal words and normal forms of one presentation, by word index, grown
    one degree at a time on demand.  Not safe for concurrent use."""

    def __init__(self, pres: Presentation):
        p = self.p = pres.p
        # numerators of 1 and of the relations: ints over Q, Cyclotomic over Q(w)
        self.unit = pres.one() if isinstance(pres.one(), Cyclotomic) else 1
        # each relation term as (index of the word less its last letter, last letter, coeff)
        self.relations = [(d, [[(word_to_index(w[:-1], p), w[-1], c)
                                for w, c in integral(dict(rel))[0].items()] for rel in rels])
                          for d, rels in pres.relations_by_degree()]
        self.bases: List[List[int]] = [[0]]             # indices of B_n, ascending
        # (d, p**d, obstructions of degree d) for each eliminated degree d that has some
        self.rules: List[Tuple[int, int, frozenset]] = []
        # memo of NF per degree, by word index: it starts out as the tails
        # NF_n(o) of the obstructions o of degree n, and keeps each form looked up
        self.forms: List[Dict[int, ScaledVec]] = [{0: ScaledVec({0: self.unit})}]
        # the obstructions by each proper prefix and suffix, keyed (length, index),
        # as (degree, rank in the rule's order, obstruction, tail is non-zero)
        self._prefixes: Dict[Tuple[int, int], List[Tuple[int, int, int, bool]]] = {}
        self._suffixes: Dict[Tuple[int, int], List[Tuple[int, int, int, bool]]] = {}
        # overlaps by the degree they live in, each (d1, d2, rank1, rank2, o1, o2)
        self._pending: Dict[int, List[Tuple[int, int, int, int, int, int]]] = {}
        self._buckets: Dict[Tuple[int, int], List[object]] = {}  # weight buckets by (n, a)
        # per a, per degree: the e2-weight mod p (a = 0), else the index of w - a,
        # of each w in B_n
        self._word_maps: Dict[int, List[Dict[int, int]]] = {}
        self._values: Dict[Tuple[Tuple, int], Cyclotomic] = {}  # traces by (num, den)
        self.stable = False  # check_stability passed

    def grow(self, n: int, cap: Optional[int] = None) -> None:
        """Make sure degrees up to n exist.  Every step, built or cached, must
        fit the cell cap: (sum_d h_{m-d} |R_d|) rows times h_{m-1} * p columns."""
        for m in range(1, n + 1):
            rows = sum(len(self.bases[m - d]) * len(rels) for d, rels in self.relations if d <= m)
            cols = len(self.bases[m - 1]) * self.p
            check_degree_allowed(m, rows, cols, cap)
            if m == len(self.bases):
                self._build(m)

    def _build(self, n: int) -> None:
        p, q = self.p, self.p ** (n - 1)
        # the words u x_j, u in B_{n-1}, with no obstruction as a suffix: every
        # other column rewrites by the rules below n
        suffixes = set(self.bases[n - 1])
        candidates = [c for u in self.bases[n - 1] for c in range(u * p, u * p + p)
                      if c % q in suffixes]
        overlaps = self._overlaps(n)
        relations = next((rels for d, rels in self.relations if d == n), [])
        if overlaps or relations:
            # choose the row source that combines fewer terms (module docstring);
            # the space lives for this step only: it gives B_n and the tails of
            # the new obstructions, its pivots among the candidates
            overlap_terms = sum(len(rel) for rel in relations) + sum(
                len(self.forms[d1][o1]) + len(self.forms[d2][o2]) for d1, o1, d2, o2 in overlaps)
            multiple_terms = sum(len(self.bases[n - d]) * sum(map(len, rels))
                                 for d, rels in self.relations if d <= n)
            if OVERLAP_WEIGHT * overlap_terms < multiple_terms:
                space = self._resolve(n, overlaps, relations)
            else:
                space = self._eliminate(n)
            pivots = space.rows.keys()
            obstructions = frozenset(c for c in candidates if c in pivots)
            if obstructions:
                self.rules.append((n, q * p, obstructions))
                tails = {o: space.reduce({o: self.unit}) for o in obstructions}
                self.bases.append([c for c in candidates if c not in pivots])
                self.forms.append(tails)
                self._file_overlaps(n, tails)
                return
        # no new obstruction (and with no rows built every ambiguity of the
        # rules resolves: diamond lemma): B_n are the candidates
        self.bases.append(candidates)
        self.forms.append({})

    def _file_overlaps(self, d: int, tails: Dict[int, ScaledVec]) -> None:
        """Index the new obstructions of degree d by their proper prefixes and
        suffixes, and file each overlap a c b they make with themselves or
        with older obstructions under its degree d1 + d2 - |c|.  An overlap
        of two zero tails is never filed: its row is zero."""
        p, prefixes, suffixes = self.p, self._prefixes, self._suffixes
        # rank: the place of o in the rule's order, the iteration order of its obstructions
        new = [(d, rank, o, bool(tail.nums)) for rank, (o, tail) in enumerate(tails.items())]
        for entry in new:
            o = entry[2]
            for k in range(1, d):
                prefixes.setdefault((k, o // p ** (d - k)), []).append(entry)
                suffixes.setdefault((k, o % p ** k), []).append(entry)
        # (o1, o2, |c|): o1 new and o2 new or old, then o1 old and o2 new
        found = [(first, second, k) for first in new for k in range(1, d)
                 for second in prefixes.get((k, first[2] % p ** k), ())]
        found += [(first, second, k) for second in new for k in range(1, d)
                  for first in suffixes.get((k, second[2] // p ** (d - k)), ()) if first[0] < d]
        for (d1, rank1, o1, tail1), (d2, rank2, o2, tail2), k in found:
            if tail1 or tail2:
                self._pending.setdefault(d1 + d2 - k, []).append((d1, d2, rank1, rank2, o1, o2))

    def _overlaps(self, n: int) -> List[Tuple[int, int, int, int]]:
        """(d1, o1, d2, o2) for each overlap w = a c b of degree n of the
        obstructions o1 = a c of degree d1 and o2 = c b of degree d2 (c, a and
        b non-empty) whose row can be non-zero and is not implied by lower
        degrees: a tail is non-zero, and the middle of w (w less its first and
        last letter) is a normal word (the chain criterion).  They come by
        degree d1, then d2, then each rule's order of o1, then of o2."""
        pending = self._pending.pop(n, None)
        if not pending:
            return []
        p, q = self.p, self.p ** (n - 1)
        middles = set(self.bases[n - 2])
        found = []
        for d1, d2, _rank1, _rank2, o1, o2 in sorted(pending):
            lift = p ** (n - d1)  # p^|b|
            if (o1 * lift + o2 % lift) % q // p in middles:
                found.append((d1, o1, d2, o2))
        return found

    def _resolve(self, n: int, overlaps, relations) -> RowSpace:
        """The reduced span of the overlap rows NF(tail(o1) b) - NF(a tail(o2))
        and the degree-n relations, all reduced by the rules below n: degree n
        has no rule yet, so `normal_form` takes each candidate as normal."""
        p = self.p
        memo = {}  # the memo of degree n for this step only
        self.forms.append(memo)
        try:
            rows = []
            for d1, o1, d2, o2 in overlaps:
                first, second = self.forms[d1][o1], self.forms[d2][o2]
                lift, b = p ** (n - d1), o2 % p ** (n - d1)
                head = o1 // p ** (d1 + d2 - n) * p ** d2  # a, shifted past o2
                den = lcm(first.den, second.den)
                terms = ([(hit if (hit := memo.get(k := t * lift + b)) is not None
                           else self.normal_form(n, k), c * (den // first.den), 0)
                          for t, c in first.nums.items()]
                         + [(hit if (hit := memo.get(k := head + t)) is not None
                             else self.normal_form(n, k), -c * (den // second.den), 0)
                            for t, c in second.nums.items()])
                rows.append(_combine(terms)[0])
            for rel in relations:
                rows.append(_combine([(hit if (hit := memo.get(k := i * p + j)) is not None
                                       else self.normal_form(n, k), c, 0)
                                      for i, j, c in rel])[0])
        finally:
            self.forms.pop()
        return _span(rows)

    def _eliminate(self, n: int) -> RowSpace:
        """The reduced span of the degree-n relation rows: every relation
        multiple u r, u in B_{n-d}, on the columns u x_j."""
        p, memo = self.p, self.forms[n - 1]
        relation_rows = []
        for d, rels in self.relations:
            if d > n:
                break
            shift = p ** (d - 1)
            for u in self.bases[n - d]:
                for rel in rels:
                    relation_rows.append(_combine(
                        [(hit if (hit := memo.get(k := u * shift + i)) is not None
                          else self.normal_form(n - 1, k), c, j) for i, j, c in rel], p)[0])
        return _span(relation_rows)

    def normal_form(self, n: int, index: int) -> ScaledVec:
        """NF of the degree-n word of base-p index `index`, on the indices of
        B_n, by the memo rule of the module docstring with the rules of
        degree d <= n only; degrees up to n must exist.  The returned vector
        is shared with the memo: do not mutate it.  The engine's own loops
        read a memo hit in place and call this on a miss only; a zero vector
        is falsy, so a hit is a value that is not None."""
        memo = self.forms[n]
        nf = memo.get(index)
        if nf is None:
            p = self.p
            prefix_index, j = divmod(index, p)
            prefix = self.forms[n - 1].get(prefix_index)
            if prefix is None:
                prefix = self.normal_form(n - 1, prefix_index)
            if prefix_index not in prefix.nums:  # NF(u x_j) = sum_i c_i NF(b_i x_j)
                vec, stride, shift = prefix, p, j
            else:  # a normal prefix: head.o for an obstruction o of degree d <= n, if any
                vec, stride = None, 1
                for d, q, obstructions in self.rules:  # by ascending degree
                    if d > n:  # a longer obstruction may share the index by leading 0s
                        break
                    if (o := index % q) in obstructions:
                        vec, shift = self.forms[d][o], index - o
                        break
            if vec is None:  # no obstruction suffix: the word is normal
                nf = ScaledVec({index: self.unit})
            else:
                nums, den = _combine([(hit if (hit := memo.get(k := t * stride + shift)) is not None
                                       else self.normal_form(n, k), c, 0)
                                      for t, c in vec.nums.items()])
                nf = ScaledVec(nums, den * vec.den)
            memo[index] = nf
        return nf

    def _word_map(self, n: int, a: int) -> Dict[int, int]:
        """For each w in B_n: its e2-weight mod p when a = 0, else the index of
        w - a.  Each degree is read off the map of the one below, since the
        prefix u of w = u x_j is in B_{n-1}: weight(u x_j) = weight(u) + j
        and shift(u x_j) = shift(u) p + (j - a) mod p.  Degree n must exist."""
        maps = self._word_maps.setdefault(a, [{0: 0}])
        p = self.p
        for m in range(len(maps), n + 1):
            prev = maps[m - 1]
            if a:
                maps.append({w: prev[w // p] * p + (w % p - a) % p for w in self.bases[m]})
            else:
                maps.append({w: (prev[w // p] + w % p) % p for w in self.bases[m]})
        return maps[n]

    def _weight_buckets(self, n: int, a: int) -> List[object]:
        """bucket[s] = sum of [w] NF(w - a) over the w in B_n of weight s.  For
        a = 0 that is the number of normal words of weight s, since a normal
        word is its own NF.  Over Q every a != 0 has the buckets of a = 1,
        integers (module docstring); over Q(w) they are Cyclotomic.  Degree n
        must exist."""
        if a > 1 and type(self.unit) is int:
            return self._weight_buckets(n, 1)
        buckets = self._buckets.get((n, a))
        if buckets is None:
            buckets = [0] * self.p
            weights = self._word_map(n, 0)
            if a:
                shifts = self._word_map(n, a)
                for w, s in weights.items():
                    nf = self.normal_form(n, shifts[w])
                    v = nf.nums.get(w)
                    if v:
                        buckets[s] += v if nf.den == 1 else Fraction(v, nf.den)
                if type(self.unit) is int:
                    if any(b.denominator != 1 for b in buckets):
                        raise ArithmeticError(f"degree {n} has a trace of e1 that is not an integer")
                    buckets = [b.numerator for b in buckets]
            else:
                for s in weights.values():
                    buckets[s] += 1
            self._buckets[n, a] = buckets
        return buckets

    def trace(self, g: HeisenbergElement, rep: SimpleRep, n: int) -> Cyclotomic:
        """tr(g | A_n) as the phase sum of the weight buckets of (n, g.a).
        Degree n must exist and I be H_p-stable: then the entry is 0 when
        g.a != 0 and p does not divide n (see the module docstring).  Equal
        values are one object of the engine."""
        p = self.p
        coeffs = [0] * p  # coefficient of zeta^phase
        if g.a and n % p:
            value = Cyclotomic.from_integers(p, coeffs)  # zero
        else:
            for s, bucket in enumerate(self._weight_buckets(n, g.a)):
                coeffs[rep.index * (n * g.k + g.b * s) % p] += bucket
            if not g.a or type(self.unit) is int:
                value = Cyclotomic.from_integers(p, coeffs)
            else:
                value = sum((Cyclotomic.zeta(p, phase) * c for phase, c in enumerate(coeffs) if c),
                            Cyclotomic(p))
        return self._values.setdefault((value.num, value.den), value)


def _check_max_degree(max_degree: int) -> None:
    if max_degree < 0:
        raise InputError(f"max degree must be non-negative, got {max_degree}")


def hilbert(pres: Presentation, max_degree: int, cap: Optional[int] = None) -> List[int]:
    _check_max_degree(max_degree)
    engine = pres.engine
    engine.grow(max_degree, cap)
    return [len(basis) for basis in engine.bases[:max_degree + 1]]


# -- group action -----------------------------------------------------------------


def in_ideal(pres: Presentation, tensors: Sequence[Sequence[Tuple[Word, object]]],
             cap: Optional[int] = None) -> bool:
    """Whether every tensor lies in I.  A tensor is a list of (word, coeff)
    pairs of one degree, a tensor of mixed degrees an input error; the
    letters of a word are read mod p, so x - 1 or 2 x name letters too.  The
    engine is grown to the tensors' top degree under the cell cap, and each
    tensor's normal form must be zero."""
    for tensor in tensors:
        if len({len(w) for w, _c in tensor}) > 1:
            raise InputError(f"inhomogeneous tensor {tensor}")
    engine = pres.engine
    engine.grow(max((len(tensor[0][0]) for tensor in tensors if tensor), default=0), cap)
    return not any(_combine([(engine.normal_form(len(w), word_to_index(w, pres.p)), c, 0)
                             for w, c in tensor])[0] for tensor in tensors)


def _by_word(terms) -> Tuple[Tuple[Word, ...], Tuple]:
    """(words, coefficients) of the terms sorted by word alone: a hand-built
    relation may repeat a word, and Cyclotomic values do not order."""
    return tuple(zip(*sorted(terms, key=lambda term: term[0])))


def check_stability(pres: Presentation, cap: Optional[int] = None) -> None:
    """H_p must act on A = T(V)/I: for each generator g = e1, e2 and each
    relation r, g(r) must lie in I.  Each g is an algebra automorphism of
    T(V), so then g(I) lies in I; z scales each degree, and the generators
    generate the finite group.

    Structure first, normal forms for the rest.  A relation whose words
    share one e2-weight s = sum(w) mod p has e2(r) = zeta^s r, and an e1-image
    (letters shifted by -1 mod p) that is a multiple of a relation on the
    same words, by exact cross products, lies in I; only the images left
    over go through `in_ideal`.  The engine is grown to the top relation
    degree under the cell cap first, so a presentation over the cap there
    ends in a resource error whatever the verdict.

    The verdict needs neither an element nor a representation V_i: e1
    shifts letters whatever i, and e2 acts on T(V)_d in V_i as D_i = D_1^i,
    with D_1 = D_i^j for ij = 1 (mod p), so an ideal is D_i-stable exactly
    when it is D_1-stable.  It is decided at i = 1, and a pass is remembered
    by the presentation's engine."""
    engine = pres.engine
    if engine.stable:
        return
    p = pres.p
    engine.grow(max((len(rel[0][0]) for rel in pres.relations), default=0), cap)
    multiples: Dict[Tuple[Word, ...], List[Tuple]] = {}
    for rel in pres.relations:
        words, coeffs = _by_word(rel)
        multiples.setdefault(words, []).append(coeffs)
    for gen in (HeisenbergElement(p, 1, 0, 0), HeisenbergElement(p, 0, 1, 0)):
        images = []
        for rel in pres.relations:
            if gen.a:  # e1 sends w to w - 1 with phase 1
                words, image = _by_word((tuple((x - 1) % p for x in w), c) for w, c in rel)
                if not any(d[0] and all(x * d[0] == y * image[0] for x, y in zip(image, d))
                           for d in multiples.get(words, ())):
                    images.append(list(zip(words, image)))
            elif len({sum(w) % p for w, _c in rel}) > 1:  # e2 fixes w with phase zeta^sum(w)
                images.append([(w, Cyclotomic.zeta(p, sum(w)) * c) for w, c in rel])
        if not in_ideal(pres, images, cap):
            raise StabilityError(f"relations of {pres.label()} are not stable under {gen.label()}")
    engine.stable = True


def _engine_for_traces(pres: Presentation, elements: Sequence[HeisenbergElement],
                   rep: SimpleRep, max_degree: int, cap: Optional[int]) -> GradedEngine:
    """The engine of `pres` grown to max_degree under the cell cap, once the
    degree, the primes of the elements and of rep, and H_p-stability pass."""
    _check_max_degree(max_degree)
    if rep.p != pres.p or any(g.p != pres.p for g in elements):
        raise ModulusError("presentation, element and representation must share p")
    check_stability(pres, cap)
    engine = pres.engine
    engine.grow(max_degree, cap)
    return engine


def character_coeffs(pres: Presentation, g: HeisenbergElement, rep: SimpleRep,
                     max_degree: int, cap: Optional[int] = None) -> List[Cyclotomic]:
    """Coefficients of the character series of g on A = T(V)/I up to t^N."""
    engine = _engine_for_traces(pres, [g], rep, max_degree, cap)
    return [engine.trace(g, rep, n) for n in range(max_degree + 1)]


@dataclass
class CharacterTable:
    p: int
    rep_index: int
    max_degree: int
    rows: Tuple[Tuple[str, Tuple[Cyclotomic, ...]], ...]  # (class label, coeffs)
    kind: str = "custom"
    params: Tuple = ()

    def row(self, label: str) -> Tuple[Cyclotomic, ...]:
        for lab, coeffs in self.rows:
            if lab == label:
                return coeffs
        raise KeyError(label)

    def hilbert_row(self) -> List[int]:
        coeffs = self.row("1")
        return [int(c.rational_value()) for c in coeffs]

    def same_series(self, other: "CharacterTable") -> bool:
        """Equal p, representation, degree and labelled rows in one order."""
        return ((self.p, self.rep_index, self.max_degree, self.rows)
                == (other.p, other.rep_index, other.max_degree, other.rows))

    def to_json(self) -> dict:
        """The table as a payload for `cli.emit`, whose `to_jsonable` turns the
        Cyclotomic coefficients into JSON in its one walk."""
        return {
            "kind": self.kind,
            "params": [str(x) for x in self.params],
            "p": self.p,
            "rep": self.rep_index,
            "N": self.max_degree,
            "hilbert": self.hilbert_row(),
            "classes": [
                {"rep": label, "coeffs": coeffs}
                for label, coeffs in self.rows
            ],
        }


def character_table(pres: Presentation, rep: SimpleRep, max_degree: int,
                    cap: Optional[int] = None) -> CharacterTable:
    """The character series of every conjugacy class, after one round of the
    checks of `character_coeffs` for the whole table.  One row is traced per
    class key: over Q every e1^a e2^b with a != 0 takes the row of e1 e2^b
    (module docstring), over Q(w) each class its own.  Equal rows are one
    tuple."""
    classes = [g for g, _size in conjugacy_classes(pres.p)]
    engine = _engine_for_traces(pres, classes, rep, max_degree, cap)
    rational = type(engine.unit) is int
    by_class, by_ids, rows = {}, {}, []
    for g in classes:
        key = (min(g.a, 1) if rational else g.a, g.b, g.k)
        row = by_class.get(key)
        if row is None:
            row = tuple([engine.trace(g, rep, n) for n in range(max_degree + 1)])
            # equal traces of one engine are one object, so equal rows have equal ids
            row = by_class[key] = by_ids.setdefault(tuple(map(id, row)), row)
        rows.append((g.label(), row))
    return CharacterTable(pres.p, rep.index, max_degree, tuple(rows), pres.kind, pres.params)


# -- catalog of presentations ------------------------------------------------------


def _coerce_params(values, count: int, kind: str) -> Tuple[object, ...]:
    if len(values) != count:
        raise InputError(f"{kind} needs {count} parameters, got {len(values)}")
    out = []
    for v in values:
        if isinstance(v, Cyclotomic):
            out.append(v)
        else:
            out.append(Fraction(v))
    return tuple(out)


def _finalize(p: int, raw: List[List[Tuple[Word, object]]], kind: str,
              params: Tuple) -> Presentation:
    return Presentation(p, tuple(make_relation(pairs) for pairs in raw), kind, params)


def _commutators(p: int) -> List[List[Tuple[Word, object]]]:
    rels = []
    for i in range(p):
        for j in range(i + 1, p):
            rels.append([((i, j), Fraction(1)), ((j, i), Fraction(-1))])
    return rels


def _e1_orbits(p: int, seeds) -> List[List[Tuple[Word, object]]]:
    """The e1-orbit of each seed, (word, coeff) pairs: its letters shifted by
    k mod p, k = 0..p-1.  A seed whose words share one e2-weight sum(w) mod
    p is an e2-eigenvector, so the orbits span an H_p-stable space."""
    return [[(tuple((x + k) % p for x in w), c) for w, c in seed]
            for seed in seeds for k in range(p)]


def _clifford_relations(p: int, avec: Tuple) -> List[List[Tuple[Word, object]]]:
    """The relations of cliffordC(p, *avec): the e1-orbits of the seeds
    a0 {x_i, x_{-i}} - a_i x_0^2, 1 <= i <= (p-1)/2."""
    a0 = avec[0]
    return _e1_orbits(p, [[((i, -i), a0), ((-i, i), a0), ((0, 0), -avec[i])]
                          for i in range(1, (p - 1) // 2 + 1)])


def _fiber_relations(A, B) -> List[List[Tuple[Word, object]]]:
    """The relations of `curve_fiber(A, B)`."""
    seed = [((0, 0), A * B), ((1, -1), A * A), ((2, -2), -B * B)]
    return _commutators(5) + _e1_orbits(5, [seed])


def curve_fiber(A, B) -> Presentation:
    """The fiber (A:B) of the pencil of quadrics on p = 5 letters: the
    commutators and the e1-orbit of the homogeneous seed
    A B x_k^2 + A^2 x_{1+k} x_{-1+k} - B^2 x_{2+k} x_{-2+k}.  (a:1) is
    curveCa(a); the cusp fibers (1:0) and (0:1) are cycles of five lines."""
    return _finalize(5, _fiber_relations(A, B), "fiber", (A, B))


#: the catalog families over a prime of the caller's choice, p their first argument
OVER_P = ("polynomial", "cycle", "cliffordC")


def check_relation_count(kind: str, p: int, cap: Optional[int] = None) -> None:
    """Refuse a family over p with more relations than the cell cap
    (`_cell_cap`) before any is built: p(p - 2) of cycle, p(p - 1)/2 of
    polynomial and cliffordC.  The degree-2 step would have as many rows
    times p^2 columns."""
    require_odd_prime(p)
    count = p * (p - 2) if kind == "cycle" else p * (p - 1) // 2
    cap = _cell_cap(cap)
    if count > cap:
        raise ResourceLimitError(f"{kind} over p={p} has {count} relations, cap is {cap}")


def make_presentation(kind: str, *args, cap: Optional[int] = None) -> Presentation:
    """Catalog of presentations: commutators and e1-orbits (`_e1_orbits`, k
    over Z/p) of seeds of e2-weight 0.

    - polynomial(p): commutator relations of C[V].
    - cycle(p), p >= 5: coordinate ring of the cycle of p lines; commutators
      and x_{i+k} x_{-i+k}, 1 <= i <= (p-3)/2.
    - sklyanin3(a, b, c), p = 3: a x_{1+k} x_{2+k} + b x_{2+k} x_{1+k} + c x_k^2.
    - cliffordC(p, a0, ..., a_{(p-1)/2}): a0 {x_{i+k}, x_{-i+k}} = a_i x_k^2.
    - sklyanin5(a, b): the name of cliffordC(5, 1, a, b), with kind
      "sklyanin5" and params (a, b):
      {x_{1+k}, x_{4+k}} = a x_k^2, {x_{2+k}, x_{3+k}} = b x_k^2.
    - curveCa(a), p = 5: commutators and the quadrics of the elliptic normal
      curve C_a, a x_k^2 + a^2 x_{1+k} x_{-1+k} - x_{2+k} x_{-2+k}: the fiber
      (a:1) of `curve_fiber`.

    A wrong number of arguments raises InputError, and a family over p with
    more relations than `cap` (the --max-cells value, else DEFAULT_MAX_CELLS)
    a resource error before any relation is built.
    """
    if kind in ("polynomial", "cycle") and len(args) != 1:
        raise InputError(f"{kind} takes p and no parameters, got {len(args)} arguments")
    if kind in OVER_P and args:
        check_relation_count(kind, args[0], cap)

    if kind == "polynomial":
        (p,) = args
        return _finalize(p, _commutators(p), "polynomial", (p,))

    if kind == "cycle":
        (p,) = args
        require_odd_prime(p)
        if p < 5:
            raise InputError("cycle presentation needs p >= 5")
        seeds = [[((i, -i), Fraction(1))] for i in range(1, (p - 3) // 2 + 1)]
        return _finalize(p, _commutators(p) + _e1_orbits(p, seeds), "cycle", (p,))

    if kind == "sklyanin3":
        a, b, c = _coerce_params(args, 3, kind)
        raw = _e1_orbits(3, [[((1, 2), a), ((2, 1), b), ((0, 0), c)]])
        return _finalize(3, raw, "sklyanin3", (a, b, c))

    if kind == "cliffordC":
        if not args:
            raise InputError("cliffordC needs p and its parameters, got no arguments")
        p = args[0]
        require_odd_prime(p)
        avec = _coerce_params(args[1:], (p + 1) // 2, f"cliffordC over p={p}")
        return _finalize(p, _clifford_relations(p, avec), "cliffordC", (p,) + avec)

    if kind == "sklyanin5":
        a, b = _coerce_params(args, 2, kind)
        return _finalize(5, _clifford_relations(5, (Fraction(1), a, b)), kind, (a, b))

    if kind == "curveCa":
        (a,) = _coerce_params(args, 1, kind)
        return _finalize(5, _fiber_relations(a, Fraction(1)), kind, (a,))

    raise InputError(f"unknown presentation kind {kind!r}")

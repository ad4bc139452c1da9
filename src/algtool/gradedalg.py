"""Degreewise computation of graded quotients A = T(V)/I for Heisenberg-stable
relation sets: normal-word bases, Hilbert coefficients and character series.

The engine works on the quotient side (Polishchuk-Positselski, *Quadratic
Algebras*, ch. 1-2; Ufnarovski 1995).  With R_d the span of the degree-d
relations, degree n is built from degree n-1 as

    A_n = (A_{n-1} (x) V) / im( sum_d A_{n-d} (x) R_d ).

Column i*p + j of the working matrix stands for b_i (x) x_j, b_i the i-th
normal word of degree n-1.  A normal word u of degree n-d and a relation
sum c_w w of degree d give the row sum c_w NF(u w[:-1]) (x) x_{w[-1]}.  The
rows are kept as a sparse reduced row-echelon space over h_{n-1}*p columns
(not p^n): its free columns are the normal words B_n, and reducing a column
is the normal-form map mu_n : A_{n-1} (x) V -> A_n.  Normal forms of words are
memoised through NF(u x_j) = mu_n(NF(u) (x) x_j).  Columns follow the
lexicographic order of words, so B_n is the set of words that are not
leading words of I_n in that order.

Over Q every vector of the engine is integer numerators over one positive
denominator (`linalg.ScaledVec`): each relation is cleared to integer
coefficients once, a relation row is built over the least common
denominator of the normal forms it combines (only its span matters), and
the mu and normal-form memos hold numerators in lowest terms.  Over Q(w)
the numerators are Cyclotomic and the denominator stays 1.  Fractions
appear only where a caller reads a vector by key.

Since rho(g) is monomial, g = e1^a e2^b z^k sends a word w to
zeta^(i(nk + b sum(w))) (w - a), with w - a the digitwise shift, and

    tr(g | A_n) = sum_{w in B_n} zeta^(i(nk + b sum(w))) [w] NF(w - a).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .config import check_degree_allowed
from .cyclotomic import Cyclotomic, require_odd_prime
from .errors import InputError, ModulusError, StabilityError
from .heisenberg import HeisenbergElement, SimpleRep, conjugacy_classes
from .linalg import RowSpace, ScaledVec, SparseVec, integral

Word = Tuple[int, ...]
Relation = Tuple[Tuple[Word, object], ...]  # sorted ((word, coeff), ...)


@dataclass(frozen=True)
class Presentation:
    """Graded algebra T(V)/(relations), V of dimension p, relations given as
    homogeneous tensors: maps from words over {0..p-1} to coefficients."""

    p: int
    field: str  # "QQ" or "QW"
    relations: Tuple[Relation, ...]
    kind: str = "custom"
    params: Tuple = ()

    def __post_init__(self):
        require_odd_prime(self.p)
        for rel in self.relations:
            if not rel:
                raise InputError("empty relation")
            degrees = {len(w) for w, _ in rel}
            if len(degrees) != 1:
                raise InputError(f"inhomogeneous relation {rel}")
            if min(degrees) < 2:
                raise InputError("relations must have degree >= 2")

    def one(self):
        return Fraction(1) if self.field == "QQ" else Cyclotomic.from_rational(self.p, 1)

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


def _add_scaled(acc: SparseVec, vec: SparseVec, scale, shift: int = 0, stride: int = 1) -> None:
    """acc[stride*col + shift] += scale * value for every (col, value) of vec."""
    for col, v in vec.items():
        key = col * stride + shift
        term = scale * v
        cur = acc.get(key)
        new = term if cur is None else cur + term
        if new:
            acc[key] = new
        elif cur is not None:
            del acc[key]


class GradedEngine:
    """Normal words and normal forms of one presentation, grown one degree at
    a time on demand.  Not safe for concurrent use."""

    def __init__(self, pres: Presentation):
        self.p = pres.p
        # numerators of 1 and of the relations: ints over Q, Cyclotomic over Q(w)
        self.unit = 1 if pres.field == "QQ" else pres.one()
        self.relations = [(d, [tuple(integral(dict(rel))[0].items()) for rel in rels])
                          for d, rels in pres.relations_by_degree()]
        self.bases: List[List[Word]] = [[()]]           # B_n in lexicographic order
        self.spaces: List[Optional[RowSpace]] = [None]  # relation rows of degree n
        self._position: Dict[Word, int] = {(): 0}       # normal word -> index in B_n
        self._free: List[Dict[int, int]] = [{}]         # free column -> index in B_n
        self._mu: List[Dict[int, ScaledVec]] = [{}]     # memo of mu_n on columns
        # memo of NF on every word met; a normal word is its own unit vector
        self._normal_forms: Dict[Word, ScaledVec] = {(): ScaledVec({0: self.unit})}
        self.stable_reps: Set[int] = set()  # rep indices that passed check_stability

    def grow(self, n: int, cap: Optional[int] = None) -> None:
        """Make sure degrees up to n exist.  Every step, built or cached, must
        fit the cell cap: (sum_d h_{m-d} |R_d|) rows times h_{m-1} * p columns."""
        for m in range(1, n + 1):
            rows = sum(len(self.bases[m - d]) * len(rels) for d, rels in self.relations if d <= m)
            cols = len(self.bases[m - 1]) * self.p
            check_degree_allowed(m, rows, cols, cap)
            if m == len(self.bases):
                self._build(m, cols)

    def _build(self, n: int, cols: int) -> None:
        p = self.p
        relation_rows = []
        for d, rels in self.relations:
            if d > n:
                break
            for u in self.bases[n - d]:
                for rel in rels:
                    forms = [(self.normal_form(u + w[:-1]), c, w[-1]) for w, c in rel]
                    den = lcm(*[nf.den for nf, _c, _j in forms])
                    row: SparseVec = {}
                    for nf, c, j in forms:
                        _add_scaled(row, nf.nums, c if nf.den == den else c * (den // nf.den),
                                    j, p)
                    if row:
                        relation_rows.append(row)
        # In descending order of leading column a new pivot mostly lies left of
        # every stored row's support, so keeping the space reduced seldom
        # touches older rows; the reduced space itself does not depend on order.
        relation_rows.sort(key=min, reverse=True)
        space = RowSpace()
        for row in relation_rows:
            space.insert(row)
        prev = self.bases[n - 1]
        pivots = space.rows
        free = [col for col in range(cols) if col not in pivots]
        basis = [prev[col // p] + (col % p,) for col in free]
        self.bases.append(basis)
        self.spaces.append(space)
        self._free.append({col: i for i, col in enumerate(free)})
        self._mu.append({})
        self._position.update((w, i) for i, w in enumerate(basis))
        self._normal_forms.update((w, ScaledVec({i: self.unit})) for i, w in enumerate(basis))

    def _mu_column(self, n: int, col: int) -> ScaledVec:
        memo = self._mu[n]
        image = memo.get(col)
        if image is None:
            free = self._free[n]
            residue = self.spaces[n].reduce({col: self.unit})
            image = ScaledVec({free[c]: v for c, v in residue.nums.items()}, residue.den)
            memo[col] = image
        return image

    def normal_form(self, word: Word) -> ScaledVec:
        """NF(word) on the basis B_len(word); degrees up to len(word) must exist.
        The returned vector is shared with the memo: do not mutate it."""
        nf = self._normal_forms.get(word)
        if nf is None:
            n, j, p = len(word), word[-1], self.p
            prefix = self.normal_form(word[:-1])
            images = [(self._mu_column(n, i * p + j), c) for i, c in prefix.nums.items()]
            den = lcm(*[mu.den for mu, _c in images])
            nums: SparseVec = {}
            for mu, c in images:
                _add_scaled(nums, mu.nums, c if mu.den == den else c * (den // mu.den))
            nf = self._normal_forms[word] = ScaledVec(nums, den * prefix.den)
        return nf

    def trace(self, g: HeisenbergElement, rep: SimpleRep, n: int,
              cap: Optional[int] = None) -> Cyclotomic:
        """tr(g | A_n), from phase buckets of numerator sums, one per phase and
        denominator."""
        self.grow(n, cap)
        p, i = self.p, rep.index
        position = self._position
        buckets: List[Dict[int, object]] = [{} for _ in range(p)]
        for w in self.bases[n]:
            nf = self.normal_form(tuple((x - g.a) % p for x in w))
            v = nf.nums.get(position[w])
            if v:
                sums = buckets[(i * (n * g.k + g.b * sum(w))) % p]
                cur = sums.get(nf.den)
                sums[nf.den] = v if cur is None else cur + v
        total = Cyclotomic(p)
        for phase, sums in enumerate(buckets):
            for den, s in sums.items():
                if s:
                    value = s if den == 1 else Fraction(s, den)
                    total = total + Cyclotomic.zeta(p, phase) * value
        return total


_ENGINE_CACHE_SIZE = 8
_ENGINES: Dict[Presentation, GradedEngine] = {}


def graded_engine(pres: Presentation) -> GradedEngine:
    """The engine of `pres`, kept in a small least-recently-used cache."""
    engine = _ENGINES.pop(pres, None)
    if engine is None:
        engine = GradedEngine(pres)
        if len(_ENGINES) >= _ENGINE_CACHE_SIZE:
            del _ENGINES[next(iter(_ENGINES))]
    _ENGINES[pres] = engine
    return engine


def hilbert(pres: Presentation, max_degree: int, cap: Optional[int] = None) -> List[int]:
    engine = graded_engine(pres)
    engine.grow(max_degree, cap)
    return [len(basis) for basis in engine.bases[:max_degree + 1]]


# -- group action -----------------------------------------------------------------


def check_stability(pres: Presentation, g: HeisenbergElement, rep: SimpleRep) -> None:
    """Relations must span an H_p-stable subspace in their degree.

    Stability under the generators e1 and e2 decides it for every g: z acts
    on each degree by a scalar, and a subspace stable under the generators
    is stable under the finite group they generate.  A pass is remembered
    per presentation and representation index."""
    if g.p != pres.p or rep.p != pres.p:
        raise ModulusError("presentation, element and representation must share p")
    engine = graded_engine(pres)
    if rep.index in engine.stable_reps:
        return
    p, i = pres.p, rep.index
    for d, rels in pres.relations_by_degree():
        rel_space = RowSpace()
        for rel in rels:
            rel_space.insert(dict(rel))
        for gen in (HeisenbergElement(p, 1, 0, 0), HeisenbergElement(p, 0, 1, 0)):
            for rel in rels:
                image = {tuple((x - gen.a) % p for x in w):
                         Cyclotomic.zeta(p, i * gen.b * sum(w)) * c
                         for w, c in rel}
                if not rel_space.contains(image):
                    raise StabilityError(
                        f"relations of {pres.label()} are not stable under {gen.label()}"
                    )
    engine.stable_reps.add(i)


def character_coeffs(pres: Presentation, g: HeisenbergElement, rep: SimpleRep,
                     max_degree: int, cap: Optional[int] = None) -> List[Cyclotomic]:
    """Coefficients of the character series of g on A = T(V)/I up to t^N."""
    check_stability(pres, g, rep)
    engine = graded_engine(pres)
    return [engine.trace(g, rep, n, cap) for n in range(max_degree + 1)]


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
        if (self.p, self.rep_index, self.max_degree) != (other.p, other.rep_index, other.max_degree):
            return False
        return all(a == b for (la, a), (lb, b) in zip(self.rows, other.rows)
                   if la == lb) and len(self.rows) == len(other.rows)

    def to_json(self) -> dict:
        from .poly import scalar_to_json
        return {
            "kind": self.kind,
            "params": [str(x) for x in self.params],
            "p": self.p,
            "rep": self.rep_index,
            "N": self.max_degree,
            "hilbert": self.hilbert_row(),
            "classes": [
                {"rep": label, "coeffs": [scalar_to_json(c) for c in coeffs]}
                for label, coeffs in self.rows
            ],
        }


def character_table(pres: Presentation, rep: SimpleRep, max_degree: int,
                    cap: Optional[int] = None) -> CharacterTable:
    rows = []
    for g, _size in conjugacy_classes(pres.p):
        coeffs = character_coeffs(pres, g, rep, max_degree, cap)
        rows.append((g.label(), tuple(coeffs)))
    return CharacterTable(pres.p, rep.index, max_degree, tuple(rows),
                          pres.kind, pres.params)


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


def _field_of(params: Tuple) -> str:
    return "QW" if any(isinstance(v, Cyclotomic) for v in params) else "QQ"


def _finalize(p: int, field: str, raw: List[List[Tuple[Word, object]]],
              kind: str, params: Tuple) -> Presentation:
    """Coerce every relation coefficient into the presentation's field."""
    rels = []
    for pairs in raw:
        coerced = []
        for w, c in pairs:
            if field == "QW" and not isinstance(c, Cyclotomic):
                c = Cyclotomic.from_rational(p, c)
            coerced.append((w, c))
        rels.append(make_relation(coerced))
    return Presentation(p, field, tuple(rels), kind, params)


def _commutators(p: int) -> List[List[Tuple[Word, object]]]:
    rels = []
    for i in range(p):
        for j in range(i + 1, p):
            rels.append([((i, j), Fraction(1)), ((j, i), Fraction(-1))])
    return rels


#: the catalog families over a prime of the caller's choice, p their first argument
OVER_P = ("polynomial", "cycle", "cliffordC")


def make_presentation(kind: str, *args) -> Presentation:
    """Catalog of presentations:

    - polynomial(p): commutator relations of C[V].
    - cycle(p), p >= 5: coordinate ring of the cycle of p lines.
    - sklyanin3(a, b, c): a x1 x2 + b x2 x1 + c x0^2 orbit, p = 3.
    - cliffordC(p, a0, ..., a_{(p-1)/2}): a0 {x_{i+k}, x_{-i+k}} = a_i x_k^2.
    - sklyanin5(a, b): {x_{1+k}, x_{4+k}} = a x_k^2, {x_{2+k}, x_{3+k}} = b x_k^2.
    - curveCa(a): quadrics of the elliptic normal curve C_a plus commutators, p = 5.

    A wrong number of arguments raises InputError.
    """
    if kind in ("polynomial", "cycle") and len(args) != 1:
        raise InputError(f"{kind} takes p and no parameters, got {len(args)} arguments")

    if kind == "polynomial":
        (p,) = args
        return _finalize(p, "QQ", _commutators(p), "polynomial", (p,))

    if kind == "cycle":
        (p,) = args
        require_odd_prime(p)
        if p < 5:
            raise InputError("cycle presentation needs p >= 5")
        raw = _commutators(p)
        for i in range(1, (p - 3) // 2 + 1):
            for k in range(p):
                raw.append([(((i + k) % p, (-i + k) % p), Fraction(1))])
        return _finalize(p, "QQ", raw, "cycle", (p,))

    if kind == "sklyanin3":
        a, b, c = _coerce_params(args, 3, kind)
        raw = []
        for k in range(3):
            # e1-orbit of a x1 x2 + b x2 x1 + c x0^2 (indices shift by -k)
            raw.append([
                (((1 - k) % 3, (2 - k) % 3), a),
                (((2 - k) % 3, (1 - k) % 3), b),
                (((0 - k) % 3, (0 - k) % 3), c),
            ])
        return _finalize(3, _field_of((a, b, c)), raw, "sklyanin3", (a, b, c))

    if kind == "cliffordC":
        if not args:
            raise InputError("cliffordC needs p and its parameters, got no arguments")
        p = args[0]
        require_odd_prime(p)
        avec = _coerce_params(args[1:], (p + 1) // 2, f"cliffordC over p={p}")
        a0 = avec[0]
        raw = []
        for i in range(1, (p - 1) // 2 + 1):
            for k in range(p):
                raw.append([
                    (((i + k) % p, (-i + k) % p), a0),
                    (((-i + k) % p, (i + k) % p), a0),
                    ((k, k), -avec[i]),
                ])
        return _finalize(p, _field_of(avec), raw, "cliffordC", (p,) + avec)

    if kind == "sklyanin5":
        a, b = _coerce_params(args, 2, kind)
        raw = []
        for k in range(5):
            raw.append([
                (((1 + k) % 5, (4 + k) % 5), Fraction(1)),
                (((4 + k) % 5, (1 + k) % 5), Fraction(1)),
                ((k, k), -a),
            ])
        for k in range(5):
            raw.append([
                (((2 + k) % 5, (3 + k) % 5), Fraction(1)),
                (((3 + k) % 5, (2 + k) % 5), Fraction(1)),
                ((k, k), -b),
            ])
        return _finalize(5, _field_of((a, b)), raw, "sklyanin5", (a, b))

    if kind == "curveCa":
        (a,) = _coerce_params(args, 1, kind)
        raw = _commutators(5)
        for i in range(5):
            raw.append([
                ((i, i), a),
                (((i + 1) % 5, (i - 1) % 5), a * a),
                (((i + 2) % 5, (i - 2) % 5), Fraction(-1)),
            ])
        return _finalize(5, _field_of((a,)), raw, "curveCa", (a,))

    raise InputError(f"unknown presentation kind {kind!r}")

"""Quadratic duals and the character-series duality check.

The dual of T(V)/(R) is taken on the dual generators with relation space
R-perp under the pairing (x_i* (x) x_j*)(x_k (x) x_l) = delta_ik delta_jl
(no transposition twist).  For a Koszul algebra the product

    Ch_A(g, t) * Ch_dual(g, -t)

telescopes to 1, where Ch_dual is the character series computed from the
dual presentation by the same degreewise engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .cyclotomic import Cyclotomic
from .gradedalg import (Presentation, character_coeffs, make_relation,
                        word_to_index)
from .heisenberg import HeisenbergElement, SimpleRep
from .linalg import nullspace_exact


@dataclass
class QuadraticDualPair:
    original: Presentation
    dual: Presentation
    relation_basis: List[dict]       # original relation vectors (index -> coeff)
    dual_basis: List[dict]           # dual relation vectors
    evaluation: List[list]           # pairing matrix, exactly zero

    def pairing_is_zero(self) -> bool:
        return all(not v for row in self.evaluation for v in row)


def quadratic_dual(pres: Presentation) -> QuadraticDualPair:
    if not pres.is_quadratic():
        raise ValueError("quadratic dual needs a purely quadratic presentation")
    p = pres.p
    zero = pres.one() - pres.one()
    rel_vecs = []
    dense = []
    for rel in pres.relations:
        vec = {word_to_index(w, p): c for w, c in rel}
        rel_vecs.append(vec)
        dense.append([vec.get(i, zero) for i in range(p * p)])
    kernel = nullspace_exact(dense)
    dual_rels = []
    dual_vecs = []
    for kvec in kernel:
        pairs = []
        vec = {}
        for idx, c in enumerate(kvec):
            if c:
                pairs.append((divmod(idx, p), c))
                vec[idx] = c
        dual_rels.append(make_relation(pairs))
        dual_vecs.append(vec)
    dual = Presentation(p, pres.field, tuple(dual_rels),
                        kind=f"dual-{pres.kind}", params=pres.params)
    evaluation = [[sum((rv[i] * kv[i] for i in rv), zero) for kv in kernel]
                  for rv in rel_vecs]
    pair = QuadraticDualPair(pres, dual, rel_vecs, dual_vecs, evaluation)
    if not pair.pairing_is_zero():
        raise ArithmeticError("dual relation space fails the pairing")
    return pair


def koszul_identity_check(pres: Presentation, rep: SimpleRep, g: HeisenbergElement,
                          max_degree: int, cap: Optional[int] = None) -> List[Cyclotomic]:
    """Coefficients 1..N of Ch_A(g,t) * Ch_dual(g,-t); all zero for Koszul input."""
    pair = quadratic_dual(pres)
    ca = character_coeffs(pres, g, rep, max_degree, cap)
    cb = character_coeffs(pair.dual, g, rep, max_degree, cap)
    out = []
    for n in range(1, max_degree + 1):
        acc = Cyclotomic(pres.p)
        for j in range(n + 1):
            term = ca[j] * cb[n - j]
            if (n - j) % 2:
                acc = acc - term
            else:
                acc = acc + term
        out.append(acc)
    return out

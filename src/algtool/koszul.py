"""Quadratic duals and the character-series duality check.

The dual of T(V)/(R) is taken on the dual generators with relation space
R-perp under the pairing (x_i* (x) x_j*)(x_k (x) x_l) = delta_ik delta_jl
(no transposition twist).  R-perp is the dual of A_2 = V (x) V / R
(Polishchuk-Positselski, *Quadratic Algebras*, ch. 1), and the graded
engine already holds A_2 as the normal forms NF_2 on the normal words B_2:
the coordinate functional of b in B_2 pulled back to V (x) V is the dual
relation sum_w [b]NF_2(w) w*.  These are the reduced-echelon kernel vectors
of the relation matrix, one per free column b, in ascending order.

For a Koszul algebra the product

    Ch_A(g, t) * Ch_dual(g, -t)

telescopes to 1, where Ch_dual is the character series computed from the
dual presentation by the same degreewise engine.
"""

from __future__ import annotations

from typing import List, Optional

from .cyclotomic import Cyclotomic
from .gradedalg import Presentation, character_coeffs, make_relation
from .heisenberg import HeisenbergElement, SimpleRep


def quadratic_dual(pres: Presentation, cap: Optional[int] = None) -> Presentation:
    """The dual presentation on R-perp, read off NF_2 of `pres`'s engine,
    grown to degree 2 under the cell cap; raises ArithmeticError if a dual
    relation fails to pair to zero with an original one."""
    if not pres.is_quadratic():
        raise ValueError("quadratic dual needs a purely quadratic presentation")
    p = pres.p
    engine = pres.engine
    engine.grow(2, cap)
    dual_pairs = {b: [] for b in engine.bases[2]}
    for w in range(p * p):
        nf = engine.normal_form(2, w)
        for b in nf:
            dual_pairs[b].append((divmod(w, p), nf[b]))
    dual_rels = [make_relation(pairs) for pairs in dual_pairs.values()]
    zero = pres.one() - pres.one()
    rel_vecs = [dict(rel) for rel in pres.relations]
    if any(sum((vec[w] * c for w, c in drel if w in vec), zero)
           for vec in rel_vecs for drel in dual_rels):
        raise ArithmeticError("dual relation space fails the pairing")
    return Presentation(p, tuple(dual_rels),
                        kind=f"dual-{pres.kind}", params=pres.params)


def koszul_identity_check(pres: Presentation, rep: SimpleRep, g: HeisenbergElement,
                          max_degree: int, cap: Optional[int] = None) -> List[Cyclotomic]:
    """Coefficients 1..N of Ch_A(g,t) * Ch_dual(g,-t); all zero for Koszul input."""
    dual = quadratic_dual(pres, cap)
    ca = character_coeffs(pres, g, rep, max_degree, cap)
    cb = character_coeffs(dual, g, rep, max_degree, cap)
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

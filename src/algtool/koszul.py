"""Quadratic duals and the character-series duality check.

The dual of T(V)/(R) is taken on the dual generators with relation space
R-perp under the pairing (x_i* (x) x_j*)(x_k (x) x_l) = delta_ik delta_jl
(no transposition twist).  For a Koszul algebra the product

    Ch_A(g, t) * Ch_dual(g, -t)

telescopes to 1, where Ch_dual is the character series computed from the
dual presentation by the same degreewise engine.
"""

from __future__ import annotations

from typing import List, Optional

from .cyclotomic import Cyclotomic
from .gradedalg import (Presentation, character_coeffs, make_relation,
                        word_to_index)
from .heisenberg import HeisenbergElement, SimpleRep
from .linalg import nullspace_exact


def quadratic_dual(pres: Presentation) -> Presentation:
    """The dual presentation on R-perp; raises ArithmeticError if a dual
    relation fails to pair to zero with an original one."""
    if not pres.is_quadratic():
        raise ValueError("quadratic dual needs a purely quadratic presentation")
    p = pres.p
    zero = pres.one() - pres.one()
    rel_vecs = [{word_to_index(w, p): c for w, c in rel} for rel in pres.relations]
    kernel = nullspace_exact([[vec.get(i, zero) for i in range(p * p)] for vec in rel_vecs])
    if any(sum((c * kvec[i] for i, c in vec.items()), zero)
           for vec in rel_vecs for kvec in kernel):
        raise ArithmeticError("dual relation space fails the pairing")
    dual_rels = [make_relation([(divmod(idx, p), c) for idx, c in enumerate(kvec) if c])
                 for kvec in kernel]
    return Presentation(p, pres.field, tuple(dual_rels),
                        kind=f"dual-{pres.kind}", params=pres.params)


def koszul_identity_check(pres: Presentation, rep: SimpleRep, g: HeisenbergElement,
                          max_degree: int, cap: Optional[int] = None) -> List[Cyclotomic]:
    """Coefficients 1..N of Ch_A(g,t) * Ch_dual(g,-t); all zero for Koszul input."""
    dual = quadratic_dual(pres)
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

"""Exact workbench for Heisenberg-equivariant graded algebras.

Modules:
  cyclotomic  exact Q(w_p) arithmetic on the power basis
  poly        sparse multivariate polynomials, determinants, minors, resultants
  linalg      sparse exact row spaces, float rank decisions
  heisenberg  the group H_p, its simple representations and fixed points
  gradedalg   degreewise graded quotients, Hilbert series, character series
  koszul      quadratic duals and the character duality identity
  clifford    symmetric forms, rank profiles, explicit Clifford matrices
  sklyanin2   the order-2 five-generator toolkit (curve C', Q(a,b), strata)
  shioda5     the determinantal surface S15 and its special points
  cli         `algtool` command-line entry point
"""

__version__ = "0.1.0"

from .cyclotomic import Cyclotomic
from .gradedalg import Presentation, character_table, hilbert, make_presentation
from .heisenberg import HeisenbergElement, SimpleRep

__all__ = [
    "Cyclotomic", "HeisenbergElement", "SimpleRep", "Presentation",
    "make_presentation", "hilbert", "character_table", "__version__",
]

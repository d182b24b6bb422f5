"""germlie: germs of bounded holomorphic maps around a compact set, as numerics.

The package represents germs by truncated power series with certified tail
bounds and builds, on top of that representation, the graded (LB)-space of
germs with its compact-regularity checks, the BCH local Lie group of algebra
germs, the Lie group of invertible-matrix-valued germs with its exp/log
charts and adjoint action, the evolution map for germ-valued curves, and a
1-d chart-glueing engine for complexifications of real-analytic atlases.

Every structural identity and estimate the construction rests on is exposed
as an executable check; ``germlie.cli`` bundles them into reproducible
suites.
"""

from .errors import BudgetError, EvaluationError, ExtensionError, StructureError
from .germgroup import GermGroupElement, GermLieGroup
from .germspace import BHolElement, GermSpace, bond
from .matrixlie import MatrixLieBackend
from .series import CoefficientSpace, TruncatedSeries, matrix_space, scalar_space, vector_space

__all__ = [
    "BudgetError",
    "EvaluationError",
    "ExtensionError",
    "StructureError",
    "TruncatedSeries",
    "CoefficientSpace",
    "scalar_space",
    "vector_space",
    "matrix_space",
    "GermSpace",
    "BHolElement",
    "bond",
    "MatrixLieBackend",
    "GermLieGroup",
    "GermGroupElement",
]

__version__ = "0.1.0"

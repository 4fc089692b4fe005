"""Variable-exponent Lebesgue/Sobolev machinery, explicit three-solution
certificates and deflated critical-point search for fourth-order problems
driven by Leray-Lions type operators."""

from .certificate import (
    Certificate,
    alpha_r,
    certify,
    compute_L,
    estimate_c0,
    gamma_r,
    inradius,
)
from .energy import PointTerms, ProblemInstance, weak_residual
from .exponents import (
    ExponentField,
    affine_exponent,
    conjugate,
    constant_exponent,
    validate_exponent,
)
from .grids import Domain, Grid, GridFunction, build_grid, integrate
from .potentials import (
    HypothesisReport,
    NonlinearitySpec,
    PotentialSpec,
    builtin_nonlinearity,
    make_perturbed_family,
    make_power_family,
    verify_hypotheses,
)
from .solver import (
    CriticalPoint,
    SolutionSet,
    deflate_and_search,
    lambda_sweep,
    minimize,
)
from .spaces import NormResult, luxemburg_norm, modular

__version__ = "0.1.0"

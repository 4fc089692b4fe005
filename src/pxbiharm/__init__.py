"""Variable-exponent Lebesgue/Sobolev machinery, explicit three-solution
certificates and deflated critical-point search for fourth-order problems
driven by Leray-Lions type operators."""

from .certificate import (
    Certificate,
    alpha_r,
    build_test_function,
    certify,
    compute_L,
    dim1_certificate,
    estimate_c0,
    gamma_r,
    inradius,
)
from .energy import (
    ProblemInstance,
    energy_J,
    gradient_check,
    load_Phi,
    total_energy,
    weak_residual,
)
from .exponents import (
    ExponentField,
    affine_exponent,
    conjugate,
    constant_exponent,
    critical_exponent,
    tabulated_exponent,
    validate_exponent,
)
from .grids import Domain, Grid, GridFunction, build_grid, integrate, laplacian
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
from .spaces import (
    NormResult,
    check_holder,
    laplacian_norm,
    luxemburg_norm,
    modular,
    sup_norm,
)

__version__ = "0.1.0"

"""The energy J, the load Phi, the total energy E_lambda = J - lambda*Phi
and its discrete gradient (weak-form residual).

The gradient is the exact adjoint of the discretized energy
(differentiate-the-discretization), so finite-difference checks pass to
solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ExponentField
from .grids import Grid, GridFunction, integrate, laplacian, nodewise
from .potentials import NonlinearitySpec, PotentialSpec

__all__ = [
    "ProblemInstance",
    "energy_J",
    "load_Phi",
    "total_energy",
    "weak_residual",
    "gradient_check",
]


@dataclass
class ProblemInstance:
    grid: Grid
    p: ExponentField
    potential: PotentialSpec
    nonlinearity: NonlinearitySpec
    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")


def energy_J(inst: ProblemInstance, u: GridFunction) -> float:
    """J(u) = int A(x, Delta u) dx."""
    if u.bc != "navier":
        raise ValueError("energy_J expects Navier boundary conditions")
    du = laplacian(inst.grid, u)
    return integrate(inst.grid, inst.potential.A(du.values))


def load_Phi(inst: ProblemInstance, u: GridFunction) -> float:
    """Phi(u) = int F(x, u) dx."""
    return integrate(inst.grid, inst.nonlinearity.F(u.values))


def total_energy(inst: ProblemInstance, u: GridFunction) -> float:
    """E_lambda(u) = J(u) - lambda * Phi(u)."""
    return energy_J(inst, u) - inst.lam * load_Phi(inst, u)


def residual_vector(inst: ProblemInstance, values: np.ndarray,
                    Lu: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the discrete total energy w.r.t. the nodal values,
    zero on the boundary (boundary dofs are fixed by the Navier bc).
    values has the nodes on its leading axis; a nodes x starts array is
    evaluated for every column at once.  Lu is L @ values where the caller
    has it already."""
    if Lu is None:
        Lu = inst.grid.laplacian_matrix() @ values
    w = nodewise(inst.grid.weights, values)
    a_vals = inst.potential.a(Lu)
    f_vals = inst.nonlinearity.f(values)
    g = inst.grid.laplacian_transpose() @ (w * a_vals) \
        - inst.lam * w * f_vals
    g[inst.grid.boundary_mask] = 0.0
    return g


def weak_residual(inst: ProblemInstance, u: GridFunction) -> GridFunction:
    """Dual-weighted nodal residual: <g, v> = int a(x,Du) Dv - lambda int f v
    for every Navier test direction v."""
    if u.bc != "navier":
        raise ValueError("weak_residual expects Navier boundary conditions")
    return GridFunction(inst.grid, residual_vector(inst, u.values), bc="none")


def gradient_check(inst: ProblemInstance, u: GridFunction,
                   n_directions: int = 50, rng=None,
                   eps_scale: float = 1e-6) -> float:
    """Max relative error between <weak_residual, v> and central finite
    differences of the total energy over random Navier directions."""
    rng = np.random.default_rng(rng)
    g = residual_vector(inst, u.values)
    interior = inst.grid.interior_mask
    scale = max(1.0, float(np.max(np.abs(u.values))))
    eps = eps_scale * scale
    worst = 0.0
    for _ in range(n_directions):
        v = np.zeros(inst.grid.size)
        v[interior] = rng.standard_normal(interior.sum())
        v /= np.max(np.abs(v))
        analytic = float(np.dot(g, v))
        up = GridFunction(inst.grid, u.values + eps * v, bc="navier")
        dn = GridFunction(inst.grid, u.values - eps * v, bc="navier")
        fd = (total_energy(inst, up) - total_energy(inst, dn)) / (2 * eps)
        denom = max(abs(analytic), abs(fd), 1e-14)
        worst = max(worst, abs(analytic - fd) / denom)
    return worst

"""The energy J, the load Phi, the total energy E_lambda = J - lambda*Phi
and its discrete gradient (weak-form residual).

The gradient is the exact adjoint of the discretized energy
(differentiate-the-discretization), so finite-difference checks pass to
solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exponents import ExponentField
from .grids import Grid, GridFunction, integrate, nodewise
from .potentials import NonlinearitySpec, PotentialSpec

__all__ = [
    "ProblemInstance",
    "PointTerms",
    "weak_residual",
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


class PointTerms:
    """The terms of the total energy and of its gradient at nodal values
    (nodes on the leading axis; a nodes x starts array holds one point per
    column), each evaluated once, when first read: Lu, A(Lu) and F(u) for
    the energy, Lu, a(Lu) and f(u) for the gradient, and the slopes
    a_t(Lu) and f_t(u) that the family and the load declare, for the
    Hessian.  Lu is L @ values where the caller has it already.  `energy`
    and `residual` are the one home of E_lambda's and its gradient's
    formulas."""

    def __init__(self, inst: ProblemInstance, values: np.ndarray,
                 Lu: np.ndarray | None = None):
        self.inst, self.values = inst, values
        if Lu is not None:
            self.Lu = Lu

    @cached_property
    def Lu(self) -> np.ndarray:
        return self.inst.grid.laplacian_matrix() @ self.values

    @cached_property
    def A(self) -> np.ndarray:
        return self.inst.potential.A(self.Lu)

    @cached_property
    def F(self) -> np.ndarray:
        return self.inst.nonlinearity.F(self.values)

    @cached_property
    def a(self) -> np.ndarray:
        return self.inst.potential.a(self.Lu)

    @cached_property
    def f(self) -> np.ndarray:
        return self.inst.nonlinearity.f(self.values)

    @cached_property
    def a_t(self) -> np.ndarray:
        return self.inst.potential.a_t(self.Lu)

    @cached_property
    def f_t(self) -> np.ndarray:
        return self.inst.nonlinearity.f_t(self.values)

    @property
    def J(self) -> float:
        """J(u) = int A(x, Delta u) dx."""
        return integrate(self.inst.grid, self.A)

    @property
    def Phi(self) -> float:
        """Phi(u) = int F(x, u) dx."""
        return integrate(self.inst.grid, self.F)

    @cached_property
    def energy(self) -> float:
        """E_lambda(u) = J(u) - lambda * Phi(u)."""
        return self.J - self.inst.lam * self.Phi

    @cached_property
    def residual(self) -> np.ndarray:
        """Gradient of the discrete total energy w.r.t. the nodal values,
        zero on the boundary (boundary dofs are fixed by the Navier bc)."""
        grid = self.inst.grid
        w = nodewise(grid.weights, self.values)
        g = grid.laplacian_transpose() @ (w * self.a) \
            - self.inst.lam * w * self.f
        g[grid.boundary_mask] = 0.0
        return g


def weak_residual(inst: ProblemInstance, u: GridFunction) -> GridFunction:
    """Dual-weighted nodal residual: <g, v> = int a(x,Du) Dv - lambda int f v
    for every Navier test direction v.  It stays for the benchmark's check
    of each accepted point; the solver reads `PointTerms.residual`."""
    return GridFunction(inst.grid, PointTerms(inst, u.values).residual)

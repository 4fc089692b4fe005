"""Variable exponents p(.) sampled on a grid, and their conjugates.

An admissible exponent is continuous with values strictly above 1; here it
is represented by its nodal samples, and p_minus / p_plus are the extrema
over the sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid, nodal_field

__all__ = [
    "ExponentField",
    "constant_exponent",
    "affine_exponent",
    "validate_exponent",
    "conjugate",
]


@dataclass(frozen=True, eq=False)
class ExponentField:
    grid: Grid
    values: np.ndarray
    p_minus: float
    p_plus: float

    def certificate_eligible(self, N: int) -> bool:
        """Whether p_minus > N/2, the embedding condition the certificate needs."""
        return self.p_minus > N / 2


def validate_exponent(raw, grid: Grid) -> ExponentField:
    """Validate nodal exponent samples (a number or one value per node):
    finite and > 1 everywhere."""
    vals = nodal_field(grid, raw)
    if not np.all(np.isfinite(vals)):
        raise ValueError("exponent has non-finite values")
    if np.any(vals <= 1.0):
        raise ValueError("exponent not in C_+: values must exceed 1 everywhere")
    return ExponentField(grid, vals, float(vals.min()), float(vals.max()))


def constant_exponent(grid: Grid, c: float) -> ExponentField:
    return validate_exponent(float(c), grid)


def affine_exponent(grid: Grid, a: float, b: float) -> ExponentField:
    """p(x) = a + b*x1 (first coordinate; radius for ball_radial)."""
    return validate_exponent(a + b * grid.x1, grid)


def conjugate(p: ExponentField) -> ExponentField:
    """Nodewise conjugate p' = p/(p-1), so 1/p + 1/p' = 1."""
    vals = p.values / (p.values - 1.0)
    return ExponentField(p.grid, vals, float(vals.min()), float(vals.max()))


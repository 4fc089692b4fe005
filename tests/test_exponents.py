"""Exponent fields: validation, conjugates, certificate eligibility."""

import numpy as np
import pytest

from pxbiharm.exponents import (
    affine_exponent,
    conjugate,
    constant_exponent,
    validate_exponent,
)
from pxbiharm.grids import Domain, build_grid


@pytest.fixture(scope="module")
def grid():
    return build_grid(Domain("interval"), 33)


def test_constant_exponent(grid):
    p = constant_exponent(grid, 2.5)
    assert p.p_minus == p.p_plus == 2.5


def test_affine_exponent_extrema(grid):
    p = affine_exponent(grid, 2.0, 1.0)  # p(x) = 2 + x on [0,1]
    assert p.p_minus == pytest.approx(2.0)
    assert p.p_plus == pytest.approx(3.0)


def test_validate_rejects_exponent_at_or_below_one(grid):
    with pytest.raises(ValueError):
        constant_exponent(grid, 1.0)
    with pytest.raises(ValueError):
        affine_exponent(grid, 0.5, 0.1)


def test_validate_rejects_non_finite(grid):
    vals = np.full(grid.size, 2.0)
    vals[5] = np.inf
    with pytest.raises(ValueError):
        validate_exponent(vals, grid)


def test_validate_broadcasts_scalar(grid):
    p = validate_exponent(3.0, grid)
    assert p.values.shape == (grid.size,)


def test_conjugate_identity(grid):
    p = affine_exponent(grid, 2.0, 1.0)
    pc = conjugate(p)
    assert np.allclose(1.0 / p.values + 1.0 / pc.values, 1.0, atol=1e-14)
    # p = 2 is self-conjugate
    p2 = constant_exponent(grid, 2.0)
    assert np.allclose(conjugate(p2).values, 2.0)


def test_certificate_eligibility(grid):
    p = constant_exponent(grid, 2.0)
    assert p.certificate_eligible(1)
    assert p.certificate_eligible(3)
    assert not p.certificate_eligible(4)

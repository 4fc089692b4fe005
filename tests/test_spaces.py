"""Luxemburg norm, modular and Holder inequality.

Property-based checks drive the norm axioms and the modular/norm
relations with randomized nodal values.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pxbiharm.exponents import affine_exponent, conjugate, constant_exponent
from pxbiharm.grids import Domain, build_grid
from pxbiharm.spaces import luxemburg_norm, modular

GRID = build_grid(Domain("interval"), 17)
L = GRID.laplacian_matrix()

finite_vals = arrays(
    np.float64, GRID.size,
    elements=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


def classical_lp_norm(u, p_const):
    """Closed-form Luxemburg norm for constant exponents."""
    return float(np.dot(GRID.weights, np.abs(u) ** p_const)
                 ** (1.0 / p_const))


@pytest.mark.parametrize("p_const", [1.5, 2.0, 3.0])
def test_luxemburg_matches_classical_lp(p_const):
    p = constant_exponent(GRID, p_const)
    rng = np.random.default_rng(7)
    for _ in range(30):
        u = rng.standard_normal(GRID.size)
        expected = classical_lp_norm(u, p_const)
        assert luxemburg_norm(u, p).value == pytest.approx(
            expected, abs=1e-11, rel=1e-11)


def test_zero_function_has_zero_norm():
    p = constant_exponent(GRID, 2.0)
    assert luxemburg_norm(np.zeros(GRID.size), p).value == 0.0


def test_a_subnormal_function_has_a_positive_norm():
    """Values 5e-324 and 1e-323 (a subnormal sup) get a positive norm at
    which the modular is <= 1, without a RuntimeWarning."""
    grid = build_grid(Domain("interval"), 33)
    p = affine_exponent(grid, 2.0, 1.0)
    vals = np.zeros(grid.size)
    vals[[3, 7]] = 5e-324, 1e-323
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = luxemburg_norm(vals, p).value
        assert norm > 0.0
        assert modular(vals / norm, p) <= 1.0


@given(vals=finite_vals, c=st.floats(-5.0, 5.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_homogeneity(vals, c):
    p = affine_exponent(GRID, 2.0, 1.0)
    nu = luxemburg_norm(vals, p).value
    nc = luxemburg_norm(c * vals, p).value
    assert nc == pytest.approx(abs(c) * nu, abs=1e-9, rel=1e-9)


@given(vals1=finite_vals, vals2=finite_vals)
@settings(max_examples=60, deadline=None)
def test_triangle_inequality(vals1, vals2):
    p = affine_exponent(GRID, 2.0, 1.0)
    nu = luxemburg_norm(vals1, p).value
    nv = luxemburg_norm(vals2, p).value
    nsum = luxemburg_norm(vals1 + vals2, p).value
    assert nsum <= nu + nv + 1e-9


@given(vals=finite_vals)
@settings(max_examples=60, deadline=None)
def test_modular_unit_ball_characterization(vals):
    """modular(u) <= 1 iff |u| <= 1 (with slack for the norm's solver)."""
    p = affine_exponent(GRID, 1.5, 1.0)
    nrm = luxemburg_norm(vals, p).value
    m = modular(vals, p)
    if nrm < 1.0 - 1e-9:
        assert m <= 1.0 + 1e-9
    if nrm > 1.0 + 1e-9:
        assert m >= 1.0 - 1e-9


def _unit_navier_field(vals):
    """The drawn interior values, zero on the boundary, scaled to unit sup
    norm, or None if they are all zero.  By homogeneity the norm/modular
    relations under test do not see the scale, and a unit field keeps its
    norm far from the subnormal range (all-5e-324 values have a norm of
    about 5e-322 with 7 significant bits, and target / norm overflows)."""
    inner = np.zeros(GRID.size)
    inner[GRID.interior_mask] = np.asarray(vals)[GRID.interior_mask]
    peak = np.max(np.abs(inner))
    if peak == 0.0:
        return None
    return inner / peak


SUBNORMAL = np.full(GRID.size, 5e-324)


@given(vals=finite_vals)
@example(vals=SUBNORMAL)
@settings(max_examples=40, deadline=None)
def test_norm_modular_trichotomy_on_laplacian(vals):
    """Rescaling u to working norm 1/2, 1 and 2 puts the modular of Delta u
    strictly below, at, and strictly above 1."""
    p = affine_exponent(GRID, 2.0, 0.5)
    u = _unit_navier_field(vals)
    if u is None:
        return
    nrm = luxemburg_norm(L @ u, p).value
    for target, check in ((0.5, lambda m: m < 1.0),
                          (1.0, lambda m: abs(m - 1.0) < 1e-8),
                          (2.0, lambda m: m > 1.0)):
        assert check(modular(L @ (u * (target / nrm)), p))


@given(vals=finite_vals)
@example(vals=SUBNORMAL)
@settings(max_examples=40, deadline=None)
def test_modular_sandwich_on_laplacian(vals):
    """min(|u|^{p-}, |u|^{p+}) <= modular <= max(|u|^{p-}, |u|^{p+})."""
    p = affine_exponent(GRID, 2.0, 0.5)
    u = _unit_navier_field(vals)
    if u is None:
        return
    nrm = luxemburg_norm(L @ u, p).value
    # moderate norm keeps the solver error far below the slack
    u = u * (1.7 / nrm)
    nrm = luxemburg_norm(L @ u, p).value
    m = modular(L @ u, p)
    lo = min(nrm**p.p_minus, nrm**p.p_plus)
    hi = max(nrm**p.p_minus, nrm**p.p_plus)
    assert lo - 1e-8 <= m <= hi + 1e-8


@given(vals1=finite_vals, vals2=finite_vals)
@settings(max_examples=60, deadline=None)
def test_holder_inequality(vals1, vals2):
    """|int uv| <= (1/p^- + 1/p'^-) |u|_{p(x)} |v|_{p'(x)}."""
    p = affine_exponent(GRID, 2.0, 1.0)
    pc = conjugate(p)
    lhs = abs(GRID.weights @ (vals1 * vals2))
    rhs = (1.0 / p.p_minus + 1.0 / pc.p_minus) \
        * luxemburg_norm(vals1, p).value * luxemburg_norm(vals2, pc).value
    assert lhs <= rhs + 1e-10


def test_grid_mismatch_raises():
    other = build_grid(Domain("interval"), 33)
    p = constant_exponent(other, 2.0)
    with pytest.raises(ValueError):
        luxemburg_norm(np.zeros(GRID.size), p)


@pytest.mark.parametrize("shape", [(), (1,), (GRID.size - 1,),
                                   (GRID.size + 1,), (3, 1), (3, 33)])
@pytest.mark.parametrize("norm", [modular, luxemburg_norm])
def test_values_of_the_wrong_length_raise(norm, shape):
    """The last axis must hold one value per node of p's grid: a single
    value, which would broadcast over the nodes, is refused too."""
    p = affine_exponent(GRID, 2.0, 1.0)
    with pytest.raises(ValueError, match="do not match"):
        norm(np.ones(shape), p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_luxemburg_norm_rejects_non_finite_values(bad):
    p = affine_exponent(GRID, 2.0, 1.0)
    vals = np.ones((2, GRID.size))
    vals[1, 4] = bad
    with pytest.raises(ValueError, match="non-finite"):
        luxemburg_norm(vals, p)
    with pytest.raises(ValueError, match="non-finite"):
        luxemburg_norm(vals[1], p)


def bisection_norm(vals, grid, p):
    """Oracle: bisect modular(v/mu) = 1 on the unit-sup scaling, 200 steps."""
    amax = np.max(np.abs(vals))
    scaled = np.abs(vals) / amax
    lo, hi = 1e-12, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.dot(grid.weights, (scaled / mid) ** p.values) > 1.0:
            lo = mid
        else:
            hi = mid
    return amax * hi


@pytest.mark.parametrize("grid", [GRID, build_grid(Domain("rectangle"), 9),
                                  build_grid(Domain("ball_radial", N=3), 17)])
def test_batched_luxemburg_matches_bisection_oracle(grid):
    rng = np.random.default_rng(11)
    exps = [affine_exponent(grid, 1.3, 2.0), constant_exponent(grid, 790.0)]
    exps.append(conjugate(exps[0]))
    for p in exps:
        rows = rng.standard_normal((40, grid.size)) \
            * 10.0 ** rng.uniform(-6, 6, (40, 1))
        rows[3] = 0.0
        rows[5, 1:] = 0.0
        res = luxemburg_norm(rows, p)
        assert res.value[3] == 0.0
        for k, v in enumerate(rows):
            if k == 3:
                continue
            want = bisection_norm(v, grid, p)
            assert res.value[k] == pytest.approx(want, rel=1e-12, abs=0.0)
            # one row alone is the same solve, up to summation order
            assert luxemburg_norm(v, p).value == pytest.approx(
                res.value[k], rel=1e-14, abs=0.0)
        # each value is an upper end: the modular at it was evaluated, <= 1
        live = np.any(rows, axis=1)
        assert np.all(modular(rows[live] / res.value[live, None], p) <= 1.0)
        assert res.iterations <= 10 * len(rows)

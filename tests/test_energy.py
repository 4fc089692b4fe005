"""Energy, load, weak residual and gradient fidelity."""

import numpy as np
import pytest

from pxbiharm.config import ConfigError, build_problem, load_config
from pxbiharm.energy import PointTerms, ProblemInstance, weak_residual
from pxbiharm.exponents import affine_exponent, constant_exponent
from pxbiharm.grids import Domain, GridFunction, build_grid
from pxbiharm.potentials import (
    builtin_nonlinearity,
    make_power_family,
)
from pxbiharm.spaces import luxemburg_norm

from conftest import gradient_check, make_instance


def _sine(grid, amplitude=1.0):
    return GridFunction(grid, amplitude * np.sin(np.pi * grid.nodes))


def test_energy_J_quadratic_oracle(interval_grid):
    # p = 2, theta = 1: J(u) = (1/2) int |Delta u|^2; Delta sin(pi x) is the
    # discrete symbol -(4/h^2) sin^2(pi h/2) times sin(pi x)
    inst = make_instance(interval_grid)
    u = _sine(interval_grid)
    h = interval_grid.spacing[0]
    sym = 4.0 / h**2 * np.sin(np.pi * h / 2) ** 2
    expected = 0.5 * sym**2 * 0.5  # int sin^2 = 1/2 on [0,1]
    assert PointTerms(inst, u.values).J == pytest.approx(expected, rel=1e-12)


def test_load_Phi_linear_oracle(interval_grid):
    # f = 1 so Phi(u) = int u = 2/pi for sin(pi x), up to quadrature error
    inst = make_instance(interval_grid)
    assert PointTerms(inst, _sine(interval_grid).values).Phi \
        == pytest.approx(2.0 / np.pi, rel=1e-3)


def test_total_energy_identity(interval_grid):
    inst = make_instance(interval_grid, lam=3.0)
    u = _sine(interval_grid, 0.7)
    pt = PointTerms(inst, u.values)
    assert pt.energy == pytest.approx(pt.J - 3.0 * pt.Phi, rel=1e-14)


def test_lambda_must_be_positive(interval_grid):
    with pytest.raises(ValueError):
        make_instance(interval_grid, lam=-1.0)


def test_failed_hypotheses_block_instance():
    """build_problem refuses a config whose hypotheses fail (theta = 0.5
    breaks H4) and names them; without verify it builds the instance."""
    cfg = load_config({
        "schema": 1,
        "domain": {"kind": "interval"},
        "grid_n": 33,
        "exponent": {"kind": "constant", "value": 2.0},
        "potential": {"family": "power", "theta": 0.5},
        "nonlinearity": {"kind": "builtin:const:1", "q": 1.5},
    })
    with pytest.raises(ConfigError, match=r"H4 \(fail\).*hypotheses "
                                          r"subcommand"):
        build_problem(cfg)
    assert build_problem(cfg, verify=False).lam == 1.0


def test_residual_zero_on_boundary(interval_grid):
    inst = make_instance(interval_grid)
    g = weak_residual(inst, _sine(interval_grid))
    assert np.all(g.values[interval_grid.boundary_mask] == 0.0)


@pytest.mark.parametrize("p_spec", [("constant", 2.0), ("affine", (2.0, 0.5))])
@pytest.mark.parametrize("nl_name", ["const:1", "rational_bump", "exp_abs"])
def test_gradient_matches_finite_differences(p_spec, nl_name):
    grid = build_grid(Domain("interval"), 65)
    kind, val = p_spec
    p = constant_exponent(grid, val) if kind == "constant" \
        else affine_exponent(grid, *val)
    spec = make_power_family(1.0, p)
    q = constant_exponent(grid, 1.5)
    nl = builtin_nonlinearity(nl_name, grid, q)
    inst = ProblemInstance(grid, p, spec, nl, 1.0)
    rng = np.random.default_rng(11)
    vals = np.zeros(grid.size)
    vals[grid.interior_mask] = rng.standard_normal(grid.interior_mask.sum())
    u = GridFunction(grid, vals)
    assert gradient_check(inst, u, n_directions=10, rng=5) < 1e-6


def test_gradient_check_on_ball(ball_grid):
    inst = make_instance(ball_grid, nl_name="rational_bump")
    r = ball_grid.nodes
    u = GridFunction(ball_grid, (1 - r**2) * (2 - r**2))
    assert gradient_check(inst, u, n_directions=10, rng=5) < 1e-6


def test_coercivity_witness(interval_grid):
    """J(u) >= (1/p+) ||u||^{p-} for ||u|| > 1 (power family, theta >= 1)."""
    inst = make_instance(interval_grid)
    L = interval_grid.laplacian_matrix()
    rng = np.random.default_rng(2)
    for _ in range(25):
        vals = np.zeros(interval_grid.size)
        vals[interval_grid.interior_mask] = \
            rng.standard_normal(interval_grid.interior_mask.sum())
        u = GridFunction(interval_grid, vals)
        nrm = luxemburg_norm(L @ u.values, inst.p).value
        if nrm == 0.0:
            continue
        # rescale to a moderate norm above 1 so the bisection error stays
        # far below the 1e-8 slack
        target = 1.0 + 2.0 * rng.random()
        u = GridFunction(interval_grid, u.values * (target / nrm))
        nrm = luxemburg_norm(L @ u.values, inst.p).value
        assert nrm > 1.0
        assert PointTerms(inst, u.values).J \
            >= nrm**inst.p.p_minus / inst.p.p_plus - 1e-8

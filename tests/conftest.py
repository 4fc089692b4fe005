"""Shared fixtures for the test suite."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf

from pxbiharm.energy import PointTerms, ProblemInstance
from pxbiharm.exponents import constant_exponent
from pxbiharm.grids import Domain, GridFunction, build_grid
from pxbiharm.potentials import builtin_nonlinearity, make_power_family


@pytest.fixture(scope="session")
def interval_grid():
    return build_grid(Domain("interval"), 65)


@pytest.fixture(scope="session")
def ball_grid():
    return build_grid(Domain("ball_radial", N=2, R=1.0), 65)


@pytest.fixture(scope="session")
def rect_grid():
    return build_grid(Domain("rectangle", a=1.0, b=1.0), 17)


def make_instance(grid, p_value=2.0, lam=1.0, nl_name="const:1", q_value=1.5):
    p = constant_exponent(grid, p_value)
    spec = make_power_family(1.0, p)
    q = constant_exponent(grid, q_value)
    nl = builtin_nonlinearity(nl_name, grid, q)
    return ProblemInstance(grid, p, spec, nl, lam)


@pytest.fixture
def beam_instance(interval_grid):
    # (u'')'' = lambda * 1 on (0,1), Navier conditions
    return make_instance(interval_grid)


def spike_g(t, eps=0.05, M=40.0, sigma=0.05):
    """Right-hand side with a sharp Gaussian ridge at |t| = 1; gives a
    nonempty certificate interval on the unit interval."""
    t = np.asarray(t, float)
    return eps + M * np.exp(-(((np.abs(t) - 1.0) / sigma) ** 2))


def spike_G(t, eps=0.05, M=40.0, sigma=0.05):
    """Antiderivative of spike_g from 0, in closed form."""
    t = np.asarray(t, float)
    a = np.abs(t)
    return np.sign(t) * (eps * a + M * sigma * np.sqrt(np.pi) / 2.0 * (
        erf((a - 1.0) / sigma) + erf(1.0 / sigma)))


def spike_dg(t, eps=0.05, M=40.0, sigma=0.05):
    """spike_g' in closed form: -sign(t) (2M/sigma) s e^{-s^2} with
    s = (|t| - 1)/sigma."""
    t = np.asarray(t, float)
    s = (np.abs(t) - 1.0) / sigma
    return -np.sign(t) * (2.0 * M / sigma) * s * np.exp(-s**2)


def spike_lip(M=40.0, sigma=0.05):
    """sup |spike_g'| = (2M/sigma) max_s s e^{-s^2} = 2M / (sigma sqrt(2e)),
    at |t| = 1 +- sigma/sqrt(2)."""
    return 2.0 * M / (sigma * np.sqrt(2.0 * np.e))


def spike_instance(grid, lam=1.0):
    p = constant_exponent(grid, 2.0)
    spec = make_power_family(1.0, p)
    q = constant_exponent(grid, 1.5)
    nl = builtin_nonlinearity("separable", grid, q, alpha=1.0,
                              g=spike_g, G=spike_G, dg=spike_dg, zeros=())
    return ProblemInstance(grid, p, spec, replace(nl, lip=spike_lip()), lam)


def dense_hessian(inst, values):
    """Dense interior energy Hessian
    L_i^T diag(w a_t) L_i - lambda diag(w f_t), L_i the interior columns of
    the sparse Laplacian, with the closed-form slopes a_t(Lu) and f_t(u)
    that `PointTerms` holds."""
    interior = inst.grid.interior_mask
    w = inst.grid.weights
    pt = PointTerms(inst, values)
    a_t, f_t = pt.a_t, pt.f_t
    Li = inst.grid.laplacian_matrix()[:, interior]
    H = (Li.T @ Li.multiply((w * a_t)[:, None])).toarray()
    return H - inst.lam * np.diag((w * f_t)[interior])


def gradient_check(inst: ProblemInstance, u: GridFunction,
                   n_directions: int = 50, rng=None,
                   eps_scale: float = 1e-6) -> float:
    """Max relative error between <weak_residual, v> and central finite
    differences of the total energy over random Navier directions."""
    rng = np.random.default_rng(rng)
    g = PointTerms(inst, u.values).residual
    interior = inst.grid.interior_mask
    scale = max(1.0, float(np.max(np.abs(u.values))))
    eps = eps_scale * scale
    worst = 0.0
    for _ in range(n_directions):
        v = np.zeros(inst.grid.size)
        v[interior] = rng.standard_normal(interior.sum())
        v /= np.max(np.abs(v))
        analytic = float(np.dot(g, v))
        up = GridFunction(inst.grid, u.values + eps * v)
        dn = GridFunction(inst.grid, u.values - eps * v)
        fd = (PointTerms(inst, up.values).energy
              - PointTerms(inst, dn.values).energy) / (2 * eps)
        denom = max(abs(analytic), abs(fd), 1e-14)
        worst = max(worst, abs(analytic - fd) / denom)
    return worst

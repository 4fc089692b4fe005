"""Newton descent, deflation and the lambda sweep."""

import numpy as np
import pytest
from scipy.integrate import quad

from pxbiharm import solver
from pxbiharm.certificate import build_test_function, inradius
from pxbiharm.energy import ProblemInstance
from pxbiharm.grids import Domain, GridFunction, build_grid
from pxbiharm.solver import (
    SolutionSet,
    acceptance_threshold,
    deflate_and_search,
    lambda_sweep,
    minimize,
)

from conftest import (
    dense_hessian,
    make_instance,
    spike_G,
    spike_g,
    spike_instance,
)


def beam_exact(x):
    """(u'')'' = 1 with Navier conditions on (0,1)."""
    return x**4 / 24 - x**3 / 12 + x / 24


def test_minimize_solves_beam():
    grid = build_grid(Domain("interval"), 101)
    inst = make_instance(grid)
    u0 = GridFunction.zeros(grid)
    pt = minimize(inst, u0)
    assert pt.converged
    assert pt.residual_norm <= 1e-8
    err = np.max(np.abs(pt.u.values - beam_exact(grid.nodes)))
    assert err < 1e-4


def test_minimize_scaling_in_lambda():
    # the p = 2 problem is linear: u_lambda = lambda * u_1
    grid = build_grid(Domain("interval"), 81)
    u1 = minimize(make_instance(grid, lam=1.0), GridFunction.zeros(grid))
    u3 = minimize(make_instance(grid, lam=3.0), GridFunction.zeros(grid))
    assert np.max(np.abs(u3.u.values - 3.0 * u1.u.values)) < 1e-7


def test_ball_radial_solve_matches_ode_solution():
    # Delta^2 u = 1 on the unit disk, radial: u = (1 - r^2)(3 - r^2)/64
    grid = build_grid(Domain("ball_radial", N=2, R=1.0), 101)
    inst = make_instance(grid)
    pt = minimize(inst, GridFunction.zeros(grid))
    r = grid.nodes
    exact = (1 - r**2) * (3 - r**2) / 64
    assert pt.converged
    assert np.max(np.abs(pt.u.values - exact)) < 1e-4


def count_residuals(monkeypatch):
    calls = []
    real = solver.residual_vector

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "residual_vector", counted)
    return calls


def test_minimize_newton_descent_is_cheap(monkeypatch):
    grid = build_grid(Domain("interval"), 201)
    inst = make_instance(grid, nl_name="rational_bump", lam=0.27)
    calls = count_residuals(monkeypatch)
    pt = minimize(inst, GridFunction.zeros(grid))
    assert pt.converged
    assert len(calls) <= 50


def test_minimize_leaves_a_saddle_downhill(monkeypatch):
    """Started next to the ridge load's mountain-pass solution, along the
    Hessian's direction of negative curvature, the plain Newton step points
    back uphill to the saddle; the descent must take the convex-part step
    and end below the saddle's energy."""
    grid = build_grid(Domain("interval"), 201)
    inst = spike_instance(grid, lam=30.25)
    sols = deflate_and_search(inst, k_max=4, n_starts=3, seed=0,
                              vbar_scale=1.2)
    saddle = max(sols.points, key=lambda p: p.energy)
    assert saddle.energy == pytest.approx(19.93, abs=0.01)
    H = dense_hessian(inst, saddle.u.values)
    eigval, eigvec = np.linalg.eigh(H)
    assert eigval[0] == pytest.approx(-30.3, abs=0.1) and eigval[1] > 0
    vals = saddle.u.values.copy()
    vals[grid.interior_mask] += 1e-3 * eigvec[:, 0]
    calls = count_residuals(monkeypatch)
    pt = minimize(inst, GridFunction(grid, vals, bc="navier"))
    assert pt.converged
    assert pt.energy < saddle.energy - 1.0
    assert len(calls) <= 50


def test_minimize_does_not_stall_at_the_rounding_floor():
    """Started 1e-9 away from the ridge load's global minimiser, the
    predicted decrease (1e-13 to 5e-13) lies below the energy's rounding
    noise: the line search must not halve the step away there."""
    grid = build_grid(Domain("interval"), 201)
    inst = spike_instance(grid, lam=30.25)
    D, x0 = inradius(grid.domain)
    big = minimize(inst, build_test_function(1.2, D, x0, grid))
    assert big.converged
    for s in range(10):
        vals = big.u.values + 1e-9 * np.sin((s + 1) * np.pi * grid.nodes)
        pt = minimize(inst, GridFunction(grid, vals, bc="navier"))
        assert pt.converged, (s, pt.residual_norm, pt.threshold)
        assert pt.energy == pytest.approx(big.energy, rel=1e-12)


def band_to_dense(band, k):
    m = band.shape[1]
    i, j = np.indices((m, m))
    inside = np.abs(i - j) <= k
    dense = np.zeros((m, m))
    dense[inside] = band[(2 * k + i - j)[inside], j[inside]]
    return dense, inside


@pytest.mark.parametrize("domain, n, k", [
    (Domain("interval"), 9, 2),
    (Domain("rectangle"), 5, 6),
    (Domain("rectangle", a=2.0, b=0.5), 7, 10),
    (Domain("ball_radial", N=2, R=1.0), 9, 2),
])
def test_band_hessian_matches_dense_reference(domain, n, k):
    grid = build_grid(domain, n)
    inst = make_instance(grid, p_value=3.0, nl_name="rational_bump",
                         lam=2.0)
    rng = np.random.default_rng(n)
    vals = rng.standard_normal(grid.size)
    vals[grid.boundary_mask] = 0.0
    hessian = solver._Hessian(inst)
    band = hessian(vals)
    m = grid.interior_mask.sum()
    assert hessian.k == k and band.shape == (3 * k + 1, m)
    ref = dense_hessian(inst, vals)
    got, inside = band_to_dense(band, k)
    scale = np.max(np.abs(ref))
    assert np.all(ref[~inside] == 0.0)
    assert np.all(band[:k] == 0.0)              # room for the LU fill-in
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale
    rhs = rng.standard_normal(len(ref))
    want = np.linalg.solve(ref, rhs)
    x = hessian.solve(band, rhs.copy())
    assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))
    # the convex part of minimize's saddle step: a diagonal shift
    f_t = solver._linearise(inst, vals)[2][grid.interior_mask]
    shift = inst.lam * grid.weights[grid.interior_mask] * np.maximum(f_t, 0)
    assert np.any(shift > 0)
    band = hessian(vals, convex=True)
    got, _ = band_to_dense(band, k)
    ref += np.diag(shift)
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale
    want = np.linalg.solve(ref, rhs)
    x = hessian.solve(band, rhs.copy())
    assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))


class ZeroHessian(solver._Hessian):
    """A Hessian whose band is all zero: its LU factor is exactly
    singular."""

    def __call__(self, values, convex=False):
        return np.zeros(self.shape, order="F")


def test_singular_band_stops_newton(monkeypatch):
    grid = build_grid(Domain("interval"), 21)
    inst = make_instance(grid)
    hessian = ZeroHessian(inst)
    rhs = np.ones(grid.interior_mask.sum())
    assert not np.any(np.isfinite(hessian.solve(hessian(None), rhs)))
    z0 = np.full(len(rhs), 0.1)
    z = solver._newton(inst, z0, 1e-8, hessian)
    assert np.array_equal(z, z0)
    monkeypatch.setattr(solver, "_Hessian", ZeroHessian)
    u0 = solver._lift(inst, z0)
    pt = minimize(inst, u0)
    assert np.array_equal(pt.u.values, u0.values) and not pt.converged


def test_solution_set_distinctness():
    grid = build_grid(Domain("interval"), 17)
    inst = make_instance(grid)
    s = SolutionSet()
    u = GridFunction.zeros(grid)
    s.points.append(minimize(inst, u))
    assert not s.is_distinct(s.points[0].u.values, 1e-3)
    far = s.points[0].u.values + 1.0
    assert s.is_distinct(far, 1e-3)


def test_spike_antiderivative_matches_quadrature():
    for t in (-4.0, -1.02, -0.5, 0.0, 0.97, 1.0, 1.3, 4.0):
        want = np.sign(t) * quad(spike_g, 0.0, abs(t), limit=200)[0]
        assert spike_G(t) == pytest.approx(want, abs=1e-9)


def test_deflation_finds_three_on_spike_fixture():
    """Inside the certified interval of the ridge nonlinearity the energy
    landscape carries at least three critical points."""
    grid = build_grid(Domain("interval"), 101)
    inst = spike_instance(grid, lam=30.0)
    sols = deflate_and_search(inst, k_max=5, n_starts=6, seed=0,
                              vbar_scale=1.2)
    assert len(sols.points) >= 3
    d = sols.pairwise_dist
    k = len(sols.points)
    assert all(d[i, j] > 1e-3 for i in range(k) for j in range(i + 1, k))
    assert all(p.residual_norm <= 1e-8 for p in sols.points)
    # energies sorted ascending
    energies = [p.energy for p in sols.points]
    assert energies == sorted(energies)


def test_minimize_accepts_global_minimiser_at_rounding_floor():
    """At n = 201 the large ridge branch is the global minimiser, and its
    residual stalls above the absolute tol 1e-8 at the rounding floor of
    the residual's own terms; the floor-aware threshold accepts it."""
    grid = build_grid(Domain("interval"), 201)
    inst = spike_instance(grid, lam=30.25)
    D, x0 = inradius(grid.domain)
    big = minimize(inst, build_test_function(1.2, D, x0, grid))
    assert big.converged
    assert 1e-8 < big.threshold
    assert big.residual_norm <= big.threshold
    assert np.max(np.abs(big.u.values)) == pytest.approx(1.296, abs=1e-3)
    tiny = np.zeros(grid.size)
    tiny[grid.interior_mask] = 1e-3
    near_zero = minimize(inst, GridFunction(grid, tiny, bc="navier"))
    assert near_zero.converged
    assert big.energy < near_zero.energy


def test_acceptance_threshold_is_tol_below_the_floor():
    # the beam of acceptance criterion 09: floor far below tol
    grid = build_grid(Domain("interval"), 201)
    inst = make_instance(grid)
    pt = minimize(inst, GridFunction.zeros(grid))
    assert pt.threshold == 1e-8
    assert acceptance_threshold(inst, pt.u.values, 1e-8) == 1e-8


def test_deflation_deterministic_given_seed():
    grid = build_grid(Domain("interval"), 61)
    inst = make_instance(grid, nl_name="rational_bump", lam=0.27)
    a = deflate_and_search(inst, k_max=3, n_starts=3, seed=4)
    b = deflate_and_search(inst, k_max=3, n_starts=3, seed=4)
    assert len(a.points) == len(b.points)
    for pa, pb in zip(a.points, b.points):
        assert np.array_equal(pa.u.values, pb.u.values)


def test_deflation_unique_regime_returns_one():
    # small lambda with a near-linear load: contraction regime, one solution
    grid = build_grid(Domain("interval"), 61)
    inst = make_instance(grid, nl_name="rational_bump", lam=0.1)
    sols = deflate_and_search(inst, k_max=4, n_starts=4, seed=0,
                              vbar_scale=0.1)
    assert len(sols.points) == 1


def test_lambda_sweep_rows():
    grid = build_grid(Domain("interval"), 61)
    inst = make_instance(grid, nl_name="rational_bump", lam=1.0)
    rows = lambda_sweep(inst, (0.2, 0.3), m=3, k_max=2, n_starts=2, seed=0,
                        vbar_scale=0.1)
    assert len(rows) == 3
    lams = [r["lambda"] for r in rows]
    # straddles the certified interval: [0.1, 0.6] log-spaced
    assert lams[0] == pytest.approx(0.1)
    assert lams[-1] == pytest.approx(0.6)
    for r in rows:
        assert r["n_solutions"] == len(r["energies"])
        assert all(res <= 1e-8 for res in r["residuals"])


def test_lambda_sweep_needs_two_points():
    grid = build_grid(Domain("interval"), 61)
    inst = make_instance(grid)
    with pytest.raises(ValueError):
        lambda_sweep(inst, (0.1, 1.0), m=1)

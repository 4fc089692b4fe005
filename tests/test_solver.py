"""Newton descent, deflation and the lambda sweep."""

import json
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pxbiharm import grids, solver
from pxbiharm.certificate import build_test_function, certify
from pxbiharm.config import build_problem, load_config
from pxbiharm.energy import PointTerms, ProblemInstance
from pxbiharm.exponents import affine_exponent, constant_exponent
from pxbiharm.grids import Domain, GridFunction, build_grid, laplacian_floor
from pxbiharm.potentials import (
    builtin_nonlinearity,
    make_perturbed_family,
    make_power_family,
)
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
    spike_dg,
    spike_g,
    spike_instance,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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


def counted(monkeypatch, name):
    """A list that gains the point each time a `PointTerms` term `name`
    (residual, energy, A, ...) is evaluated."""
    calls = []
    real = PointTerms.__dict__[name].func

    def counting(pt):
        calls.append(pt)
        return real(pt)

    prop = cached_property(counting)
    prop.__set_name__(PointTerms, name)
    monkeypatch.setattr(PointTerms, name, prop)
    return calls


def test_minimize_newton_descent_is_cheap(monkeypatch):
    grid = build_grid(Domain("interval"), 201)
    inst = make_instance(grid, nl_name="rational_bump", lam=0.27)
    calls = counted(monkeypatch, "residual")
    pt = minimize(inst, GridFunction.zeros(grid))
    assert pt.converged
    assert len(calls) <= 50


def counted_steps(monkeypatch):
    """A list that gains an entry at each `_Hessian.steps` call."""
    steps = []
    real_steps = solver._Hessian.steps

    def counting_steps(self, *args, **kwargs):
        steps.append(1)
        return real_steps(self, *args, **kwargs)

    monkeypatch.setattr(solver._Hessian, "steps", counting_steps)
    return steps


def test_minimize_leaves_a_saddle_downhill(monkeypatch):
    """Started next to the ridge load's mountain-pass solution, along the
    Hessian's direction of negative curvature, the plain Newton step points
    back uphill to the saddle; the descent must take the convex-part step
    and end below the saddle's energy.  The convex step reads the slopes
    that the Newton step at the same point read."""
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
    calls = counted(monkeypatch, "residual")
    slopes = {name: counted(monkeypatch, name) for name in ("a_t", "f_t")}
    steps = counted_steps(monkeypatch)
    pt = minimize(inst, GridFunction(grid, vals, bc="navier"))
    assert pt.converged
    assert pt.energy < saddle.energy - 1.0
    assert len(calls) <= 50
    for points in slopes.values():
        values = {q.values.tobytes() for q in points}
        assert len(values) == len(points) < len(steps)


def test_minimize_does_not_stall_at_the_rounding_floor():
    """Started 1e-9 away from the ridge load's global minimiser, the
    predicted decrease (1e-13 to 5e-13) lies below the energy's rounding
    noise: the line search must not halve the step away there."""
    grid = build_grid(Domain("interval"), 201)
    inst = spike_instance(grid, lam=30.25)
    big = minimize(inst, build_test_function(1.2, grid))
    assert big.converged
    for s in range(10):
        vals = big.u.values + 1e-9 * np.sin((s + 1) * np.pi * grid.nodes)
        pt = minimize(inst, GridFunction(grid, vals, bc="navier"))
        assert pt.converged, (s, pt.residual_norm, pt.threshold)
        assert pt.energy == pytest.approx(big.energy, rel=1e-12)


def test_minimize_evaluates_each_trial_energy_once(monkeypatch):
    """On the beam, where Newton takes the full step every time, the
    descent visits the start and one point per step.  Each of their energy
    and residual terms is evaluated once, and the final point's are not
    evaluated again by the closing acceptance check, which reads a_t too.
    f_t, which only the Hessian reads, is evaluated once at each point a
    step leaves."""
    grid = build_grid(Domain("interval"), 101)
    inst = make_instance(grid)
    terms = {name: counted(monkeypatch, name) for name in
             ("Lu", "A", "F", "a", "f", "energy", "residual", "a_t", "f_t")}
    steps = counted_steps(monkeypatch)
    pt = minimize(inst, GridFunction.zeros(grid))
    assert pt.converged and len(steps) >= 1
    for name, points in terms.items():
        values = [q.values.tobytes() for q in points]
        last = name != "f_t"
        assert len(values) == len(steps) + last, name
        assert len(set(values)) == len(values), name
        assert (pt.u.values.tobytes() in values) == last, name


def give_up_instance(monkeypatch):
    """The beam from its zero start, where the energy's rounding floor is 0,
    with every point but the start given a higher energy: no step length
    passes the Armijo test."""
    grid = build_grid(Domain("interval"), 41)
    inst = make_instance(grid)
    z0 = np.zeros(grid.interior_mask.sum())
    assert solver._energy_floor(solver._point(inst, z0)) == 0.0
    monkeypatch.setattr(PointTerms, "energy", property(
        lambda pt: float(np.any(pt.values != 0.0))))
    return inst


def test_minimize_gives_up_when_no_step_lowers_the_energy(monkeypatch):
    """The line search halves the step below eps and returns the start,
    not converged."""
    inst = give_up_instance(monkeypatch)
    pt = minimize(inst, GridFunction.zeros(inst.grid))
    assert not pt.converged
    assert np.array_equal(pt.u.values, np.zeros(inst.grid.size))


@pytest.mark.parametrize("case", ["beam", "rect_solve", "give_up"])
def test_minimize_reports_what_a_fresh_check_computes(monkeypatch, case):
    """The energy, residual, threshold and verdict that minimize returns
    from the terms it holds are, bit for bit, those of `_critical_point`
    evaluated from scratch at its final point."""
    if case == "beam":
        inst = make_instance(build_grid(Domain("interval"), 101))
    elif case == "rect_solve":
        inst, _ = rect_solve_problem()
    else:
        inst = give_up_instance(monkeypatch)
    u0 = GridFunction.zeros(inst.grid)
    if case == "rect_solve":     # the search's near-zero start
        u0 = solver._near_zero_start(inst.grid)
    tol = solver.DEFAULT_TOL
    got = minimize(inst, u0, tol=tol)
    want = solver._critical_point(
        inst, got.u.values[inst.grid.interior_mask], tol)
    assert np.array_equal(got.u.values, want.u.values)
    assert got.energy == want.energy
    assert got.residual_norm == want.residual_norm
    assert got.threshold == want.threshold
    assert got.converged == want.converged
    assert got.converged == (case != "give_up")


def test_deflation_scale_is_zero_on_a_known_root():
    z = np.linspace(0.1, 0.9, 9)
    step, w = np.ones(9), np.full(9, 0.1)
    assert solver._deflation_scale(z, step, w, [z]) == 0.0
    assert solver._deflation_scale(z, step, w, [z + 1.0]) != 0.0


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
    band, = hessian.bands(PointTerms(inst, vals[:, None]))
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
    f_t = PointTerms(inst, vals).f_t[grid.interior_mask]
    shift = inst.lam * grid.weights[grid.interior_mask] * np.maximum(f_t, 0)
    assert np.any(shift > 0)
    band, = hessian.bands(PointTerms(inst, vals[:, None]), convex=True)
    got, _ = band_to_dense(band, k)
    ref += np.diag(shift)
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale
    want = np.linalg.solve(ref, rhs)
    x = hessian.solve(band, rhs.copy())
    assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))


class ZeroHessian(solver._Hessian):
    """A Hessian whose band is all zero: its LU factor is exactly
    singular."""

    def bands(self, pt, convex=False):
        for _ in range(pt.values.size // self.inst.grid.size):
            yield np.zeros(self.shape, order="F")


def test_singular_band_stops_newton(monkeypatch):
    grid = build_grid(Domain("interval"), 21)
    inst = make_instance(grid)
    hessian = ZeroHessian(inst)
    rhs = np.ones(grid.interior_mask.sum())
    band, = hessian.bands(PointTerms(inst, np.zeros((grid.size, 1))))
    assert not np.any(np.isfinite(hessian.solve(band, rhs)))
    z0 = np.full(len(rhs), 0.1)
    z = solver._newton(inst, z0[:, None], 1e-8, hessian)
    assert np.array_equal(z, z0[:, None])
    monkeypatch.setattr(solver, "_Hessian", ZeroHessian)
    u0 = GridFunction(grid, solver._point(inst, z0).values, bc="navier")
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


def test_solving_a_separable_load_without_g_prime_raises():
    """The Newton Hessian reads f_t = alpha g': a Python separable load
    that does not pass dg cannot be solved, and the error names it."""
    grid = build_grid(Domain("interval"), 21)
    nl = builtin_nonlinearity("separable", grid, constant_exponent(grid, 1.5),
                              g=spike_g, G=spike_G, zeros=())
    inst = replace(spike_instance(grid, lam=30.0), nonlinearity=nl)
    with pytest.raises(ValueError, match="'separable' load declares no g'"):
        deflate_and_search(inst, k_max=2, n_starts=0)


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
    big = minimize(inst, build_test_function(1.2, grid))
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
    assert acceptance_threshold(PointTerms(inst, pt.u.values), 1e-8) \
        == 1e-8


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
    assert sols.uniqueness_modulus > 0


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


def test_lambda_sweep_lays_out_the_band_once(monkeypatch):
    """The band layout depends on the grid alone: a 5-lambda sweep of the
    ridge at n = 41 builds 10 Hessians, a descent's and a deflated batch's
    per lambda, on one layout that all of them share."""
    layouts, hessians = [], []
    real = grids._band_layout

    def counted_layout(grid):
        layouts.append(grid.n)
        return real(grid)

    class CountedHessian(solver._Hessian):
        def __init__(self, inst):
            super().__init__(inst)
            hessians.append(self.pos)

    monkeypatch.setattr(grids, "_band_layout", counted_layout)
    monkeypatch.setattr(solver, "_Hessian", CountedHessian)
    doc = json.loads((CONFIGS / "spike_ridge.json").read_text())
    inst = build_problem(load_config(dict(doc, grid_n=41)), lam=1.0)
    interval = certify(inst, 5.0, 1.2).lambda_interval
    lambda_sweep(inst, interval, 5, k_max=5, n_starts=6, seed=0)
    assert layouts == [41] and len(hessians) == 10
    assert all(pos is inst.grid.band_layout.pos for pos in hessians)
    assert not inst.grid.band_layout.pos.flags.writeable


def test_lambda_sweep_needs_two_points():
    grid = build_grid(Domain("interval"), 61)
    inst = make_instance(grid)
    with pytest.raises(ValueError):
        lambda_sweep(inst, (0.1, 1.0), m=1)


def sequential_search(inst, k_max, n_starts, seed, vbar_scale):
    """deflate_and_search with its starts run one at a time: one _newton
    call with one column per start, in start order, deflated against the
    points found so far."""
    tol, dist = solver.DEFAULT_TOL, solver.DISTINCTNESS
    interior = inst.grid.interior_mask
    rng = np.random.default_rng(seed)
    hessian = solver._Hessian(inst)
    starts = [solver._near_zero_start(inst.grid),
              *solver._vbar_starts(inst.grid, vbar_scale)]
    starts += [solver._fourier_start(inst, rng, max(vbar_scale, 10 * dist))
               for _ in range(n_starts)]
    found = SolutionSet()
    base = minimize(inst, starts[0], tol=tol)
    if base.converged:
        found.points.append(base)
    for n_used, start in enumerate(starts, 1):
        if len(found.points) >= k_max:
            break
        known = [p.u.values[interior] for p in found.points]
        z = solver._newton(inst, start.values[interior][:, None], tol,
                           hessian, known)[:, 0]
        pt = solver._critical_point(inst, z, tol, starts_used=n_used)
        if pt.converged and found.is_distinct(pt.u.values, dist):
            found.points.append(pt)
    found.sort()
    return found, len(starts)


def test_the_vbar_starts_are_built_only_past_the_descent(monkeypatch):
    """rect_solve's mu > 0 ends the search at the descent's point, before
    the +/- vbar starts are built; a search that goes on builds them
    once."""
    built = []
    real = solver._vbar_starts
    monkeypatch.setattr(solver, "_vbar_starts",
                        lambda *args: built.append(args) or real(*args))
    inst, search = rect_solve_problem()
    assert solver.uniqueness_modulus(inst) > 0.0
    assert len(deflate_and_search(inst, **search).points) == 1
    assert built == []
    inst, search = rect_spike_problem()
    deflate_and_search(inst, **search)
    assert len(built) == 1


def criterion_08_first_lambda():
    grid = build_grid(Domain("interval"), 201)
    lo, _ = certify(spike_instance(grid), r=5.0, h=1.2).lambda_interval
    return spike_instance(grid, lam=lo), dict(k_max=4, n_starts=3,
                                              vbar_scale=1.2)


def spike_fixture(k_max):
    grid = build_grid(Domain("interval"), 101)
    return spike_instance(grid, lam=30.0), dict(k_max=k_max, n_starts=6,
                                                vbar_scale=1.2)


def rect_solve_problem():
    cfg = load_config({
        "schema": 1, "domain": {"kind": "rectangle", "a": 1.0, "b": 1.0},
        "grid_n": 13, "exponent": {"kind": "affine", "a": 2.5, "b": 0.5},
        "potential": {"family": "perturbed_power", "theta": 1.2},
        "nonlinearity": {"kind": "builtin:rational_bump", "q": 1.5},
        "solver": {"n_starts": 2, "k_max": 3}})
    return build_problem(cfg, lam=1.0), dict(k_max=3, n_starts=2,
                                             vbar_scale=1.0)


def rect_spike_problem():
    grid = build_grid(Domain("rectangle"), 13)
    return spike_instance(grid, lam=100.0), dict(k_max=3, n_starts=2,
                                                 vbar_scale=1.2)


def assert_same_points(got, want):
    for a, b in zip(got.points, want.points):
        assert np.array_equal(a.u.values, b.u.values)
        assert a.energy == b.energy and a.residual_norm == b.residual_norm
        assert a.threshold == b.threshold and a.starts_used == b.starts_used
        assert a.converged == b.converged


def spy_newton(monkeypatch):
    """The batch width of every _newton call."""
    widths = []
    real = solver._newton

    def spy(inst, Z, *args, **kwargs):
        widths.append(Z.shape[1])
        return real(inst, Z, *args, **kwargs)

    monkeypatch.setattr(solver, "_newton", spy)
    return widths


@pytest.mark.parametrize("case, count, mid_batch", [
    (criterion_08_first_lambda, 3, False),
    (lambda: spike_fixture(5), 3, False),
    (rect_solve_problem, 1, False),
    # k_max = 3 is reached at start 2 (+vbar) of a batch of starts 1-5
    (rect_spike_problem, 3, True),
    # the third point is start 4 of a batch of starts 2-9: k_max is
    # reached with five starts of that batch left
    (lambda: spike_fixture(3), 3, True),
], ids=["criterion_08", "spike_fixture", "rect_solve", "rect_spike",
        "k_max_mid_batch"])
def test_batched_search_equals_starts_one_at_a_time(monkeypatch, case,
                                                    count, mid_batch):
    inst, kw = case()
    want, n_starts = sequential_search(inst, seed=0, **kw)
    widths = spy_newton(monkeypatch)
    got = deflate_and_search(inst, seed=0, **kw)
    if got.uniqueness_modulus > 0:          # rect_solve: certified unique
        assert widths == []
    else:
        assert widths[0] == n_starts        # every start in one batch
    assert len(got.points) == len(want.points) == count
    assert_same_points(got, want)
    last = max(p.starts_used for p in got.points)
    assert (len(got.points) == kw["k_max"] and last < n_starts) == mid_batch


def test_certified_search_runs_on_when_the_descent_fails(monkeypatch):
    """mu > 0 but the descent stops unconverged (max_iter = 1): the
    deflated starts run and find the solution."""
    inst, kw = rect_solve_problem()
    assert solver.uniqueness_modulus(inst) > 0
    widths = spy_newton(monkeypatch)
    got = deflate_and_search(inst, seed=0, max_iter=1, **kw)
    assert widths and len(got.points) == 1
    assert got.points[0].converged


@pytest.mark.parametrize("case", [criterion_08_first_lambda,
                                  lambda: spike_fixture(5),
                                  rect_spike_problem],
                         ids=["criterion_08", "spike_fixture", "rect_spike"])
def test_spike_problems_are_not_certified(case):
    inst, _ = case()
    assert solver.uniqueness_modulus(inst) <= 0


@pytest.mark.parametrize("lip", [None, np.inf])
def test_modulus_is_unknown_without_a_finite_lip(lip):
    grid = build_grid(Domain("interval"), 21)
    inst = spike_instance(grid, lam=1e-6)
    assert solver.uniqueness_modulus(inst) > 0
    nl = replace(inst.nonlinearity, lip=lip)
    assert solver.uniqueness_modulus(replace(inst, nonlinearity=nl)) is None


CERTIFIED_GRIDS = [(Domain("interval"), 17),
                   (Domain("rectangle", a=2.0, b=0.7), 7),
                   (Domain("ball_radial", N=2, R=1.0), 17),
                   (Domain("ball_radial", N=3, R=1.5), 13)]


@settings(max_examples=30, deadline=None)
@given(where=st.sampled_from(CERTIFIED_GRIDS),
       family=st.sampled_from(["power", "perturbed"]),
       load=st.sampled_from(["const:1", "rational_bump", "exp_abs"]),
       alpha=st.floats(-2.0, 2.0).filter(lambda a: abs(a) > 0.05),
       share=st.floats(0.01, 0.99), seed=st.integers(0, 3))
def test_certified_search_stops_at_the_descent(where, family, load, alpha,
                                               share, seed):
    """Where mu > 0 the search returns, bit for bit, what running every
    start returns, and never calls _newton.  Variable theta and alpha;
    lambda is a share of the largest certified lambda (of 50 for the
    constant load, whose Lip(g) is 0)."""
    domain, n = where
    grid = build_grid(domain, n)
    x = grid.x1 / np.max(grid.x1)
    if family == "power":
        p = constant_exponent(grid, 2.0)
        spec = make_power_family(0.5 + x, p)
    else:
        p = affine_exponent(grid, 2.0, 1.0)
        spec = make_perturbed_family(0.5 + x, p)
    nl = builtin_nonlinearity(load, grid, constant_exponent(grid, 1.5),
                              alpha=alpha * (1.0 + x))
    top = np.max(np.abs(nl.alpha)) * nl.lip
    lam_max = (np.min(spec.a_t_min) * laplacian_floor(grid) ** 2 / top
               if top else 50.0)
    inst = ProblemInstance(grid, p, spec, nl, share * lam_max)
    assert solver.uniqueness_modulus(inst) > 0
    kw = dict(k_max=3, n_starts=2, vbar_scale=1.0)
    want, _ = sequential_search(inst, seed=seed, **kw)
    with pytest.MonkeyPatch.context() as mp:
        widths = spy_newton(mp)
        got = deflate_and_search(inst, seed=seed, **kw)
    assert widths == []
    assert len(got.points) == len(want.points) == 1
    assert_same_points(got, want)


def batch_instance(domain, n):
    """Variable p and theta, and the separable ridge load with a per-node
    alpha."""
    grid = build_grid(domain, n)
    x = grid.nodes[:, 0] if domain.kind == "rectangle" else grid.nodes
    p = affine_exponent(grid, 2.5, 0.5)
    spec = make_perturbed_family(1.0 + 0.5 * x, p)
    nl = builtin_nonlinearity("separable", grid, constant_exponent(grid, 1.5),
                              alpha=1.0 + x, g=spike_g, G=spike_G,
                              dg=spike_dg)
    return ProblemInstance(grid, p, spec, nl, 2.0)


@pytest.mark.parametrize("domain, n", [
    (Domain("interval"), 9),
    (Domain("rectangle", a=2.0, b=1.0), 7),
    (Domain("ball_radial", N=3, R=1.0), 9),
])
def test_batched_kernels_equal_column_by_column(domain, n):
    inst = batch_instance(domain, n)
    grid = inst.grid
    rng = np.random.default_rng(n)
    V = 1.5 * rng.standard_normal((grid.size, 3))
    V[grid.boundary_mask] = 0.0
    R = PointTerms(inst, V).residual
    hessian = solver._Hessian(inst)
    rhs = rng.standard_normal((3, grid.interior_mask.sum()))
    for convex in (False, True):
        bands = list(hessian.bands(PointTerms(inst, V), convex=convex))
        steps = hessian.steps(PointTerms(inst, V), rhs.copy(), convex=convex)
        for b in range(3):
            col = PointTerms(inst, V[:, [b]])
            assert np.array_equal(R[:, b], PointTerms(inst, V[:, b]).residual)
            band, = hessian.bands(col, convex=convex)
            assert np.array_equal(bands[b], band)
            x = hessian.solve(band, rhs[b].copy())
            assert np.array_equal(steps[b], x)
            assert np.array_equal(
                steps[b], hessian.steps(col, rhs[[b]], convex=convex)[0])

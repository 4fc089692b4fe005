"""Certificate constants and feasibility decisions."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from pxbiharm import certificate, solver
from pxbiharm.certificate import (
    _GREEN_BLOCK,
    _green_rows,
    _modular_bound,
    H_GRID,
    alpha_r,
    build_test_function,
    certify,
    compute_L,
    estimate_c0,
    gamma_r,
    inradius,
)
from pxbiharm.config import build_problem, load_config, tabulated_g
from pxbiharm.energy import ProblemInstance, energy_J, load_Phi
from pxbiharm.exponents import (
    affine_exponent,
    conjugate,
    constant_exponent,
    tabulated_exponent,
)
from pxbiharm.grids import Domain, GridFunction, build_grid
from pxbiharm.potentials import builtin_nonlinearity, make_power_family
from pxbiharm.spaces import (
    _luxemburg_of_values,
    _modular_values,
    laplacian_norm,
    sup_norm,
)

from conftest import make_instance, spike_G, spike_g, spike_instance


def test_inradius_values():
    assert inradius(Domain("interval")) == 0.5
    assert inradius(Domain("rectangle", a=2.0, b=1.0)) == 0.5
    assert inradius(Domain("ball_radial", N=3, R=0.7)) == 0.7


def test_annulus_measure():
    # N = 1, D = 1/2: L = 2 (1/2 - 1/4) = 1/2
    assert compute_L(1, 0.5) == pytest.approx(0.5)
    # N = 2, D = 1: L = pi (1 - 1/4)
    assert compute_L(2, 1.0) == pytest.approx(np.pi * 0.75)


def test_gamma_r_constant_p(interval_grid):
    p = constant_exponent(interval_grid, 2.0)
    assert gamma_r(p, 1.0) == pytest.approx(np.sqrt(2.0))
    assert gamma_r(p, 0.125) == pytest.approx(0.5)


def test_beta_oracle():
    # p = 2, theta = 1, f = 1: vbar = h sin(pi x) on the grid, whose
    # -L vbar = lam1 vbar, gives J = h^2 lam1^2 / 4 and
    # Phi = h cot(pi / (2(n-1))) / (n-1) by the trapezoid rule
    for n in (65, 257):
        grid = build_grid(Domain("interval"), n)
        inst = make_instance(grid)
        m = n - 1
        lam1 = 4 * m**2 * np.sin(np.pi / (2 * m)) ** 2
        for h in (0.25, 1.0, 3.0):
            want = 4 / np.tan(np.pi / (2 * m)) / (m * h * lam1**2)
            assert certify(inst, 1.0, h).beta_h == pytest.approx(
                want, rel=1e-12)


def test_alpha_r_constant_load(interval_grid):
    # f = 1: sup F over |t| <= b is b, so alpha_r = c0 gamma_r / r
    inst = make_instance(interval_grid)
    c0 = 0.25
    for r in (0.5, 1.0, 2.0):
        expected = c0 * gamma_r(inst.p, r) / r
        assert alpha_r(inst, r, c0) == pytest.approx(expected, rel=1e-6)


def sup_F_nodes_by_t(nl, bound, n_t=1001):
    """The reference: the nodes x t table of F, its argmax in each row,
    refined by one Newton step on f = F'."""
    t = np.linspace(-bound, bound, n_t)
    F_vals = nl.F(t[None, :])
    best_idx = np.argmax(F_vals, axis=1)
    best_t = t[best_idx]
    best_F = F_vals[np.arange(len(best_t)), best_idx]
    dt = max(1e-6 * bound, 1e-9)
    f0 = nl.f(best_t)
    fp = (nl.f(best_t + dt) - nl.f(best_t - dt)) / (2 * dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ref = best_t - f0 / fp
    t_ref = np.where(np.isfinite(t_ref), t_ref, best_t)
    return np.maximum(best_F, nl.F(np.clip(t_ref, -bound, bound)))


def separable_table(grid, table, alpha=1.0):
    g, G, dg, zeros, knots = tabulated_g(table)
    return builtin_nonlinearity("separable", grid,
                                constant_exponent(grid, 1.5), alpha=alpha,
                                g=g, G=G, dg=dg, zeros=zeros, knots=knots)


@pytest.mark.parametrize("bound", [0.2, 2.7, 40.0])
def test_sup_F_per_node_matches_the_nodes_by_t_table(interval_grid, bound):
    # g changes sign at |t| = 1, where G = +-1/2 has its extrema off the
    # t-grid, and alpha takes both signs.  Past |t| = 3 the table holds
    # g = 0 and G = -1/2 (G odd).  The exact range dominates the sampled
    # reference and equals |alpha| max|G|
    G_max = 0.2 - 0.2**2 / 2 if bound < 1.0 else 0.5
    alpha = np.linspace(-2.0, 2.0, interval_grid.size)
    nl = separable_table(interval_grid, {"g_t": [0.0, 1.0, 2.0, 3.0],
                                         "g_values": [1.0, 0.0, -1.0, 0.0]},
                         alpha)
    lo, hi = nl.F_range(-bound, bound)
    assert np.all(hi >= sup_F_nodes_by_t(nl, bound))
    # the range of -F is minus the range of F
    neg = builtin_nonlinearity(
        "separable", interval_grid, nl.q, alpha=-alpha, g=nl.g, G=nl.G,
        zeros=nl.zeros)
    assert np.all(-lo >= sup_F_nodes_by_t(neg, bound))
    assert hi == pytest.approx(np.abs(alpha) * G_max, rel=1e-15, abs=0.0)
    assert lo == pytest.approx(-hi, rel=1e-15, abs=0.0)


#: g = 0 but for a +-4000 hat pair on [1.001, 1.003]: G is a tent of
#: height 2 at t = 1.002, between the points of a t-grid of spacing 0.004
TENT = {"g_t": [0.0, 1.001, 1.0015, 1.002, 1.0025, 1.003],
        "g_values": [0.0, 0.0, 4000.0, 0.0, -4000.0, 0.0]}


def table_problem(table, grid_n=33):
    return build_problem(load_config({
        "schema": 1, "domain": {"kind": "interval"}, "grid_n": grid_n,
        "exponent": {"kind": "constant", "value": 2.0},
        "potential": {"family": "power", "theta": 1.0},
        "nonlinearity": dict(kind="table", q=1.5, **table)}), verify=False)


@pytest.mark.parametrize("bound", [1.7, 2.0])
def test_alpha_r_reads_the_tent_of_a_table_load(bound):
    inst = table_problem(TENT)
    assert inst.nonlinearity.F_range(-bound, bound)[1] == pytest.approx(
        2.0, rel=1e-12)
    assert sup_F_nodes_by_t(inst.nonlinearity, bound).max() < 1.0
    r = 5.0
    c0 = bound / gamma_r(inst.p, r)
    assert alpha_r(inst, r, c0) == pytest.approx(2.0 / r, rel=1e-12)


def test_certify_rejects_a_dip_of_F_between_samples():
    # F dips to -2 at t = 1.002; g = 0 on |t| <= c0 gamma_r = 0.79, so
    # alpha_r = 0 and no beta_h exceeds it; beta_h < 0 starts no interval,
    # above lambda_u or otherwise
    flipped = dict(TENT, g_values=[-v for v in TENT["g_values"]])
    cert = certify(table_problem(flipped), r=5.0, h=1.2)
    assert cert.alpha_r == 0.0 and cert.beta_h < 0.0
    assert not cert.feasible and not cert.checks["beta_gt_alpha"]
    assert cert.reason == "beta_gt_alpha; above_uniqueness"


def test_table_G_is_the_exact_antiderivative_of_g():
    # the crossings of g are 1/3, 1.8 and 7/3; G(3) = -3/2 and g = -1
    # past 3
    g, G, _, zeros, _ = tabulated_g({"g_t": [0.0, 1.0, 2.0, 3.0],
                                     "g_values": [1.0, -2.0, 0.5, -1.0]})
    assert G(1.8) == pytest.approx(-1.3, abs=1e-14)
    t = np.array([3.0, 3.5, 7.0, 100.0])
    assert G(t) == pytest.approx(-1.5 - (t - 3.0), abs=1e-12)
    assert G(-t) == pytest.approx(1.5 + (t - 3.0), abs=1e-12)
    want = np.array([1.0 / 3.0, 1.8, 7.0 / 3.0])
    assert zeros == pytest.approx(np.concatenate([-want[::-1], want]),
                                  abs=1e-15)


@st.composite
def tables(draw):
    n = draw(st.integers(2, 7))
    steps = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1,
                          max_size=n - 1))
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
                           min_size=n, max_size=n))
    return {"g_t": [0.0, *np.cumsum(steps)], "g_values": values}


LOAD_GRID = build_grid(Domain("interval"), 9)
BUILTIN_LOADS = ["const:-1.5", "const:0", "rational_bump", "exp_abs"]


@given(load=st.one_of(tables(), st.sampled_from(BUILTIN_LOADS)),
       lo=st.floats(-15.0, 15.0), width=st.floats(0.0, 15.0))
@settings(max_examples=80, deadline=None)
def test_F_range_contains_a_dense_sample_of_F(load, lo, width):
    alpha = np.linspace(-1.0, 2.0, LOAD_GRID.size)
    if isinstance(load, dict):
        nl = separable_table(LOAD_GRID, load, alpha)
    else:
        nl = builtin_nonlinearity(load, LOAD_GRID,
                                  constant_exponent(LOAD_GRID, 1.5),
                                  alpha=alpha)
    F_lo, F_hi = nl.F_range(lo, lo + width)
    F = nl.F(np.linspace(lo, lo + width, 4001)[None, :])
    tol = 1e-12 * (1.0 + np.abs(F).max())
    assert np.all(F.min(axis=1) >= F_lo - tol)
    assert np.all(F.max(axis=1) <= F_hi + tol)
    if isinstance(load, dict):
        # G' = g between the nodes and past the last one, for both signs
        tg = np.asarray(load["g_t"])
        t = np.append(0.5 * (tg[1:] + tg[:-1]), tg[-1] + 1.0)
        t = np.concatenate([t, -t])
        d = 0.01
        dG = (nl.G(t + d) - nl.G(t - d)) / (2 * d)
        assert dG == pytest.approx(nl.g(t), abs=1e-9)


def test_a_separable_load_without_zeros_cannot_be_certified(interval_grid):
    nl = builtin_nonlinearity("separable", interval_grid,
                              constant_exponent(interval_grid, 1.5),
                              g=spike_g, G=spike_G)
    p = constant_exponent(interval_grid, 2.0)
    inst = ProblemInstance(interval_grid, p, make_power_family(1.0, p), nl,
                           1.0)
    with pytest.raises(ValueError, match="zeros"):
        certify(inst, r=5.0, h=1.2)


def dense_green_rows(grid):
    """G_i / w for every interior node i, with G the dense inverse of the
    interior Laplacian, as full-grid rows (zero on the boundary)."""
    interior = grid.interior_mask
    G = np.linalg.inv(grid.laplacian_matrix()[interior][:, interior].toarray())
    rows = np.zeros((G.shape[0], grid.size))
    rows[:, interior] = G / grid.weights[interior]
    return G, rows


@pytest.mark.parametrize("inner, outer", [(1.05, 6.0), (1.01, 40.0),
                                          (1.2, 3.0)])
def test_c0_bounds_the_interval_witness(inner, outer):
    # p = inner on |x - 1/2| < 0.1 and outer elsewhere, n = 201.  With
    # k_j = |G_ij|/w_j at the centre row, f_j = (k_j/(nu p_j))^{1/(p_j-1)}
    # maximises sum_j w_j k_j f_j under sum_j w_j f_j^{p_j} = 1 (Lagrange),
    # and u = G(-f) has u_i = sum_j w_j k_j f_j.  The first two exceed the
    # continuum 1/4 (0.2573 and 0.3079 ||Lu||)
    grid = build_grid(Domain("interval"), 201)
    p = tabulated_exponent(
        grid, np.where(np.abs(grid.x1 - 0.5) < 0.1, inner, outer))
    G, rows = dense_green_rows(grid)
    k = np.abs(rows[len(G) // 2])
    pv, w = p.values, grid.weights

    def field(log_nu):
        with np.errstate(divide="ignore", over="ignore"):
            return np.exp((np.log(k) - log_nu - np.log(pv)) / (pv - 1.0))

    log_nu = brentq(lambda t: w @ field(t) ** pv - 1.0, -200.0, 200.0)
    f = field(log_nu)
    vals = np.zeros(grid.size)
    vals[grid.interior_mask] = -G @ f[grid.interior_mask]
    u = GridFunction(grid, vals, bc="navier")
    c0 = estimate_c0(grid, p)
    assert sup_norm(u) <= c0 * laplacian_norm(u, p).value


def test_c0_ball_is_estimated(ball_grid):
    # the ball's c0 is the discrete Green's-function constant, which at
    # p = 2 is the largest sqrt(sum_j G_ij^2 / w_j) of the dense inverse
    c0 = estimate_c0(ball_grid, constant_exponent(ball_grid, 2.0))
    _, rows = dense_green_rows(ball_grid)
    assert c0 == pytest.approx(
        np.sqrt(np.max(rows**2 @ ball_grid.weights)), rel=1e-10)
    assert c0 == pytest.approx(0.19955, abs=1e-5)


GREEN_GRIDS = [
    (Domain("rectangle"), 5),
    (Domain("rectangle"), 9),
    (Domain("rectangle"), 17),
    (Domain("rectangle", a=2.0, b=0.5), 9),
    (Domain("rectangle", a=2.0, b=0.5), 17),
    (Domain("ball_radial", N=2, R=1.0), 65),
    (Domain("ball_radial", N=3, R=0.7), 33),
    (Domain("interval"), 33),
    (Domain("interval"), 201),
]


@pytest.mark.parametrize("domain, n", GREEN_GRIDS)
def test_c0_at_p2_equals_dense_inverse(domain, n):
    # at p = 2 the Holder factor is 1 and |G_i/w|_2^2 = sum_j G_ij^2 / w_j
    grid = build_grid(domain, n)
    c0 = estimate_c0(grid, constant_exponent(grid, 2.0))
    _, rows = dense_green_rows(grid)
    assert c0 == pytest.approx(
        np.sqrt(np.max(rows**2 @ grid.weights)), rel=1e-10)


@pytest.mark.parametrize("domain, n", [GREEN_GRIDS[2], GREEN_GRIDS[4],
                                       GREEN_GRIDS[5]])
def test_c0_at_p2_is_attained_by_the_extremal_field(domain, n):
    # u = G (G_i/w) has Lu = G_i/w and u_i = |G_i/w|_2^2 = c0 ||u||
    grid = build_grid(domain, n)
    p = constant_exponent(grid, 2.0)
    c0 = estimate_c0(grid, p)
    G, rows = dense_green_rows(grid)
    i = int(np.argmax(rows**2 @ grid.weights))
    vals = np.zeros(grid.size)
    vals[grid.interior_mask] = G @ rows[i, grid.interior_mask]
    u = GridFunction(grid, vals, bc="navier")
    assert sup_norm(u) / laplacian_norm(u, p).value == pytest.approx(
        c0, rel=1e-10)


def test_c0_on_the_benchmark_rectangle():
    # p = 2 + x1/2 on the unit square, 17x17 and its doubled grid
    for n, want in ((17, 0.11205), (33, 0.11152)):
        grid = build_grid(Domain("rectangle"), n)
        c0 = estimate_c0(grid, affine_exponent(grid, 2.0, 0.5))
        assert c0 == pytest.approx(want, abs=5e-6)


def all_rows_c0(grid, p):
    """The Holder constant with every Green's row solved, no screening."""
    _, rows = dense_green_rows(grid)
    pc = conjugate(p)
    best = np.max(_luxemburg_of_values(rows, grid, pc).value)
    return (1.0 / p.p_minus + 1.0 / pc.p_minus) * best


@pytest.mark.parametrize("kind", ["affine", "table"])
@pytest.mark.parametrize("domain, n", [GREEN_GRIDS[2], GREEN_GRIDS[4],
                                       GREEN_GRIDS[6]])
def test_c0_screening_matches_solving_every_row(domain, n, kind):
    grid = build_grid(domain, n)
    if kind == "affine":
        p = affine_exponent(grid, 1.6, 0.9)
    else:
        rng = np.random.default_rng(n)
        p = tabulated_exponent(grid, rng.uniform(1.4, 3.5, grid.size))
    c0 = estimate_c0(grid, p)
    assert c0 == pytest.approx(all_rows_c0(grid, p), rel=1e-10)


SQUARE_9 = build_grid(Domain("rectangle"), 9)
_G9, _ = dense_green_rows(SQUARE_9)
_M9 = int(SQUARE_9.interior_mask.sum())


@st.composite
def exponents_9(draw):
    """An affine or a tabulated exponent on the 9x9 square, p in (1, 4]."""
    if draw(st.booleans()):
        a = draw(st.floats(1.2, 3.0))
        b = draw(st.floats(-0.19, 1.0))
        return affine_exponent(SQUARE_9, a, b)
    vals = draw(arrays(np.float64, SQUARE_9.size,
                       elements=st.floats(1.2, 4.0)))
    return tabulated_exponent(SQUARE_9, vals)


@given(p=exponents_9(),
       lap=arrays(np.float64, _M9, elements=st.floats(-1.0, 1.0)))
@example(p=affine_exponent(SQUARE_9, 2.0, 0.5), lap=np.ones(_M9))
@settings(max_examples=60, deadline=None)
def test_no_navier_field_beats_c0(p, lap):
    # u = G (Lu) on the interior, for any interior Laplacian values; the
    # torsion field (Lu = 1) exceeds the earlier randomised estimate
    if not np.any(lap):
        return
    vals = np.zeros(SQUARE_9.size)
    vals[SQUARE_9.interior_mask] = _G9 @ lap
    u = GridFunction(SQUARE_9, vals, bc="navier")
    c0 = estimate_c0(SQUARE_9, p)
    assert sup_norm(u) <= c0 * laplacian_norm(u, p).value * (1 + 1e-12)


@pytest.mark.parametrize("domain, n", GREEN_GRIDS)
def test_green_moments_match_the_dense_inverse(domain, n):
    grid = build_grid(domain, n)
    (L1, L2, M), _ = _green_rows(grid)
    G, rows = dense_green_rows(grid)
    np.testing.assert_allclose(L1, np.abs(G).sum(axis=1), rtol=1e-12)
    np.testing.assert_allclose(L2, rows**2 @ grid.weights, rtol=1e-12)
    np.testing.assert_allclose(M, np.abs(rows).max(axis=1), rtol=1e-12)
    if domain.kind == "rectangle":
        # -G inverts -L, an M-matrix, and is largest on its diagonal
        assert (-G).min() >= -1e-14 * (-G).max()
        assert np.array_equal(np.argmax(-G, axis=1), np.arange(len(G)))


BALL_17 = build_grid(Domain("ball_radial", N=2, R=1.0), 17)

# exponent values on both sides of 2 and at it, where the bound switches
# between its forms for q- <= 2 and q- > 2 (q = p/(p - 1) the conjugate)
NEAR_2 = st.sampled_from([2.0, 2.0 - 1e-9, 2.0 + 1e-9, 2.0 + 1e-6, 2.01])


@st.composite
def grids_and_exponents(draw):
    """The 9x9 square or the 17-node disc, with an affine or a tabulated
    exponent with p in [1.2, 40] on it, so that p'- < 2 < p'+ is drawn as
    well as either side of 2, and p = 2 is touched at an end of the affine
    range or at table entries."""
    grid = BALL_17 if draw(st.booleans()) else SQUARE_9
    values = st.floats(1.2, 40.0) | NEAR_2
    if draw(st.booleans()):
        lo = draw(values)
        hi = draw(values)
        x1 = grid.x1
        slope = (hi - lo) / (x1.max() - x1.min())
        return grid, affine_exponent(grid, lo - slope * x1.min(), slope)
    return grid, tabulated_exponent(grid, draw(arrays(
        np.float64, grid.size, elements=values)))


@given(case=grids_and_exponents(), log_s=st.floats(-2.5, 0.5))
@example(case=(SQUARE_9, affine_exponent(SQUARE_9, 2.0, 0.5)), log_s=-1.0)
@example(case=(BALL_17, affine_exponent(BALL_17, 2.0, 0.5)), log_s=-1.0)
@settings(max_examples=120, deadline=None)
def test_modular_bound_exceeds_every_row_modular(case, log_s):
    # the bound estimate_c0 skips rows by, which charges every node the
    # worst exponent
    grid, p = case
    pc = conjugate(p)
    s = 10.0**log_s
    moments, _ = _green_rows(grid)
    _, rows = dense_green_rows(grid)
    exact = _modular_values(rows / s, grid, pc)
    assert np.all(_modular_bound(moments, s, pc) >= exact * (1 - 1e-12))
    # a NaN moment gives a NaN bound, which keeps its row
    bad = moments.copy()
    bad[:, 0] = np.nan
    assert np.isnan(_modular_bound(bad, s, pc)[0])


def screened_c0(grid, p):
    """c0 with every Green's row generated, in p = 2 order, and screened at
    the running best norm: `estimate_c0` before rows were skipped."""
    pc = conjugate(p)
    moments, rows = _green_rows(grid)
    order = np.argsort(moments[1])[::-1]
    best = 0.0
    for start in range(0, order.size, _GREEN_BLOCK):
        block = rows(order[start:start + _GREEN_BLOCK])
        if best > 0.0:
            with np.errstate(over="ignore"):
                block = block[_modular_values(block / best, grid, pc) > 1.0]
        if len(block):
            best = max(best, float(np.max(
                _luxemburg_of_values(block, grid, pc).value)))
    return (1.0 / p.p_minus + 1.0 / pc.p_minus) * best


def _identity_exponent(grid, kind):
    if kind == "p2":
        return constant_exponent(grid, 2.0)
    if kind == "benchmark":
        return affine_exponent(grid, 2.0, 0.5)
    if kind == "affine":
        return affine_exponent(grid, 1.6, 0.9)
    if kind == "falling":
        # on the 17-node 2 x 0.5 rectangle the row of largest norm is the
        # first after the first block, with modular 1.01 at its best norm
        return affine_exponent(grid, 2.0, -0.1)
    rng = np.random.default_rng(grid.n)
    return tabulated_exponent(grid, rng.uniform(1.6, 3.5, grid.size))


@pytest.mark.parametrize("kind", ["p2", "benchmark", "affine", "falling",
                                  "table"])
@pytest.mark.parametrize("domain, n", GREEN_GRIDS
                         + [(Domain("rectangle"), 33)])
def test_skipping_rows_keeps_c0_bit_identical(domain, n, kind):
    grid = build_grid(domain, n)
    p = _identity_exponent(grid, kind)
    assert estimate_c0(grid, p) == screened_c0(grid, p)


def _generated_rows(monkeypatch, grid, p):
    """The interior indices of the Green's rows estimate_c0 generates on
    grid, and its c0."""
    generated = []

    def counting_green_rows(grid):
        moments, rows = _green_rows(grid)

        def counted(idx):
            generated.extend(idx)
            return rows(idx)
        return moments, counted

    monkeypatch.setattr(certificate, "_green_rows", counting_green_rows)
    c0 = estimate_c0(grid, p)
    return np.array(generated, dtype=int), c0


def test_c0_generates_few_rows(monkeypatch):
    # the bound is exact at p = 2; the benchmark exponent visits one row
    # of each mirror pair and skips most of those (174 of 961 generated on
    # the doubled 17 x 17 grid), and p+ <= 2 skips fewer (277 of 961)
    def count(grid, p):
        return _generated_rows(monkeypatch, grid, p)[0].size

    for n, most in ((17, 43), (33, 174)):
        grid = build_grid(Domain("rectangle"), n)
        assert count(grid, affine_exponent(grid, 2.0, 0.5)) <= most
    assert count(grid, constant_exponent(grid, 2.0)) == _GREEN_BLOCK
    assert count(grid, affine_exponent(grid, 1.5, 0.3)) <= 277


@pytest.mark.parametrize("node, mirrored", [((8, 4), False),
                                            ((4, 8), True)])
def test_c0_takes_the_mirror_only_when_it_holds(monkeypatch, node, mirrored):
    # p = 2 + x1/2 on the 17 x 17 square with one node raised by 1e-3: off
    # the centre column x2 = 1/2 it breaks the mirror x2 -> 1 - x2, and
    # every row must stay in play; on it the mirror holds
    grid = build_grid(Domain("rectangle"), 17)
    vals = (2.0 + grid.x1 / 2).reshape(grid.shape)
    vals[node] += 1e-3
    p = tabulated_exponent(grid, vals.ravel())
    idx, c0 = _generated_rows(monkeypatch, grid, p)
    m = grid.n - 2
    assert np.all(2 * (idx % m) < m) == mirrored
    assert c0 == pytest.approx(all_rows_c0(grid, p), rel=1e-10)


@pytest.mark.parametrize("domain, n, exponent", [
    (Domain("rectangle"), 33, lambda g: affine_exponent(g, 3.0, 2.0)),
    (Domain("rectangle", a=2.0, b=0.5), 17,
     lambda g: constant_exponent(g, 3.0)),
])
def test_mirrored_c0_matches_solving_every_row(domain, n, exponent):
    # the mirror in x2 alone (p = 3 + 2 x1, where it changes which row sets
    # the best norm first), and in both axes (constant p)
    grid = build_grid(domain, n)
    p = exponent(grid)
    c0 = estimate_c0(grid, p)
    assert c0 == pytest.approx(all_rows_c0(grid, p), rel=1e-13)


def test_certify_spike_is_feasible():
    grid = build_grid(Domain("interval"), 129)
    inst = spike_instance(grid)
    fine = spike_instance(build_grid(Domain("interval"), 257))
    cert = certify(inst, r=5.0, h=1.2, fine=fine)
    assert cert.feasible
    assert cert.converged
    lo, hi = cert.lambda_interval
    assert 0 < lo < hi
    assert lo == pytest.approx(1.0 / cert.beta_h, rel=1e-12)
    assert hi == pytest.approx(1.0 / cert.alpha_r, rel=1e-12)
    assert all(cert.checks.values())


def test_certify_bounded_load_is_infeasible(interval_grid):
    # slowly varying F cannot separate beta from alpha on the interval
    inst = make_instance(interval_grid, nl_name="rational_bump")
    cert = certify(inst, r=1.0, h=1.0)
    assert not cert.feasible
    assert "beta_gt_alpha" in cert.reason


def test_certify_r_bound_violation():
    grid = build_grid(Domain("interval"), 65)
    inst = spike_instance(grid)
    cert = certify(inst, r=1e6, h=1.2)
    assert not cert.checks["r_bound"]
    assert not cert.feasible


@pytest.mark.parametrize("domain, p_value, h, where", [
    # J(vbar) ~ (h lam1)^p / p with lam1 = 9.87 underflows to 0 at
    # h = 0.01 and overflows at h = 100
    (Domain("interval"), 400.0, 0.01, "at h = 0.01"),
    (Domain("interval"), 400.0, 100.0, "at h = 100"),
    # J(vbar) is positive and finite only for h lam1 in (0.86, 1.15),
    # which falls between two heights of the scan when lam1 = 5.78
    (Domain("ball_radial", N=2, R=1.0), 20000.0, None, "at every scanned h"),
])
def test_certify_reports_a_test_function_it_cannot_evaluate(domain, p_value,
                                                            h, where):
    inst = make_instance(build_grid(domain, 33), p_value=p_value)
    cert = certify(inst, 1.0, h)
    assert not cert.feasible
    assert cert.reason == "J(vbar) is not in (0, inf), or Phi(vbar) / " \
        "J(vbar) is not finite, " + where
    assert cert.beta_h is cert.J_vbar is cert.Phi_vbar_lower is None
    json.dumps(dataclasses.asdict(cert), allow_nan=False)


def test_certify_requires_eligible_exponent(ball_grid):
    # N = 2 needs p_minus > 1; fake an instance with p close to 1
    grid = build_grid(Domain("ball_radial", N=5, R=1.0), 65)
    inst = make_instance(grid)  # p = 2 <= N/2 = 2.5
    with pytest.raises(ValueError):
        certify(inst, 1.0, 1.0)


def test_certificate_json_roundtrip():
    grid = build_grid(Domain("interval"), 65)
    cert = certify(spike_instance(grid), r=5.0, h=1.2)
    doc = json.loads(json.dumps(dataclasses.asdict(cert), allow_nan=False))
    assert doc["lambda_interval"] == list(cert.lambda_interval)
    assert doc["checks"] == cert.checks


def ridge_rectangle(M, n=9):
    """A 9x9 rectangle, p(x) = 2 + x1/2, under the ridge load of height M."""
    grid = build_grid(Domain("rectangle", a=1.0, b=1.0), n)
    p = affine_exponent(grid, 2.0, 0.5)
    nl = builtin_nonlinearity(
        "separable", grid, constant_exponent(grid, 1.5), alpha=1.0,
        g=lambda t: spike_g(t, M=M), G=lambda t: spike_G(t, M=M), zeros=())
    return ProblemInstance(grid, p, make_power_family(1.0, p), nl, 1.0)


# both ridges pick h = 10^(1/6), the first height whose r-bound holds
# that has the best ratio; at M = 40 beta <= alpha there, as on the
# benchmark's rectangle, and the taller ridge is feasible
@pytest.mark.parametrize("M, beta_fails", [(40.0, True), (4000.0, False)])
def test_certify_h_scan_matches_per_h_oracle(M, beta_fails):
    # the scan written out with one full certificate per candidate h:
    # heights whose r-bound holds rank first, then those whose J(vbar) and
    # beta_h are usable, then the larger ratio
    inst, r = ridge_rectangle(M), 5.0
    best = None
    for h in H_GRID:
        c = certify(inst, r, float(h))
        usable = c.beta_h is not None
        ratio = ((c.beta_h / c.alpha_r) if c.alpha_r else np.inf) \
            if usable else -np.inf
        rank = usable + c.checks["r_bound"]
        if best is None or rank > best[0] or (
                rank == best[0] and ratio > best[1] + 1e-15):
            best = (rank, ratio, float(h))
    fine = ridge_rectangle(M, n=17)
    want = certify(inst, r, best[2], fine=fine)
    assert best[2] == pytest.approx(10 ** (1 / 6), rel=1e-12)
    assert want.checks["r_bound"]
    assert want.checks["beta_gt_alpha"] != beta_fails
    assert certify(inst, r, None, fine=fine) == want


#: the ridge table shifted down by 0.1: g(0) = -0.05, so F < 0 near t = 0
RIDGE_T = np.linspace(0.0, 4.0, 1601)
DIPPED_RIDGE = {"xi": 40.05, "g_t": RIDGE_T.tolist(),
                "g_values": (spike_g(RIDGE_T) - 0.1).tolist()}


@pytest.mark.parametrize("inst, h", [
    *[(spike_instance(build_grid(Domain("interval"), n)), 1.2)
      for n in (101, 201, 401)],
    *[(ridge_rectangle(4000.0, n), None) for n in (9, 17, 33)],
    *[(table_problem(DIPPED_RIDGE, n), 1.2) for n in (101, 201)],
])
def test_printed_interval_is_backed_by_its_test_function(inst, h):
    # the theorem's conditions, read off the vbar that the certificate
    # names with the grid's own J and Phi: r < J(vbar), and the lower end
    # is at least J(vbar) / Phi(vbar).  F may dip below 0 on [0, h]
    r = 5.0
    cert = certify(inst, r, h)
    assert cert.feasible
    vbar = build_test_function(cert.h, inst.grid)
    J, Phi = energy_J(inst, vbar), load_Phi(inst, vbar)
    assert r < J
    assert cert.lambda_interval[0] >= J / Phi
    assert cert.lambda_interval[0] == pytest.approx(J / Phi, rel=1e-12)


def test_certify_rejects_a_fine_problem_on_another_grid():
    inst = ridge_rectangle(40.0)
    assert certify(inst, 5.0, 1.0).converged is None
    for fine in (inst, ridge_rectangle(40.0, n=15),
                 spike_instance(build_grid(Domain("interval"), 17))):
        with pytest.raises(ValueError, match="doubled grid"):
            certify(inst, 5.0, 1.0, fine=fine)


#: the two grids of the uniqueness property: the interval at 101 nodes and
#: the 17 x 17 unit square
UNIQUENESS_GRIDS = {"interval": ({"kind": "interval"}, 101),
                    "square": ({"kind": "rectangle", "a": 1.0, "b": 1.0},
                               17)}


def ridge_table_problem(domain, eps, M, c, sigma):
    """p = 2, theta = 1 and the ridge g = eps + M exp(-((t - c)/sigma)^2)
    tabulated on [0, c + 6 sigma] at 801 nodes (flat past the last), on
    one of UNIQUENESS_GRIDS, at lambda = 1.  The table is the load, so its
    Lip(g) is the steepest segment's slope."""
    kind, n = UNIQUENESS_GRIDS[domain]
    t = np.linspace(0.0, c + 6.0 * sigma, 801)
    g = eps + M * np.exp(-(((t - c) / sigma) ** 2))
    return build_problem(load_config({
        "schema": 1, "domain": kind, "grid_n": n,
        "exponent": {"kind": "constant", "value": 2.0},
        "potential": {"family": "power", "theta": 1.0},
        "nonlinearity": {"kind": "table", "q": 1.5, "alpha": 1.0,
                         "g_t": t.tolist(), "g_values": g.tolist()}}),
        lam=1.0, verify=False)


def uniqueness_threshold(inst):
    """lambda_u, below which the discrete problem has one critical point:
    the zero of the modulus mu(lambda), which is linear in lambda, read
    off mu(1) and mu(2) (a ProblemInstance refuses lambda = 0)."""
    mu1 = solver.uniqueness_modulus(inst)
    mu2 = solver.uniqueness_modulus(dataclasses.replace(inst, lam=2.0))
    return mu1 / (mu1 - mu2) + 1.0


@settings(max_examples=60, deadline=None)
@given(domain=st.sampled_from(sorted(UNIQUENESS_GRIDS)),
       eps=st.floats(0.01, 1.0), M=st.floats(1.0, 5000.0),
       c=st.floats(0.1, 3.0), sigma=st.floats(0.02, 1.0),
       log_r=st.floats(-3.0, 3.0))
# feasible: the ridge of criterion 08 and the tall ridge on the square
@example(domain="interval", eps=0.05, M=40.0, c=1.0, sigma=0.05,
         log_r=np.log10(5.0))
@example(domain="square", eps=0.05, M=4000.0, c=1.0, sigma=0.05,
         log_r=np.log10(5.0))
def test_a_feasible_certificate_lies_above_the_uniqueness_threshold(
        domain, eps, M, c, sigma, log_r):
    """Below lambda_u (`uniqueness_threshold`) the discrete problem has
    exactly one critical point, so no three-solution interval may start
    there: every feasible certificate, with its h scanned, has
    lo >= lambda_u.  The certificate records lambda_u, read off the
    solver's modulus here, and its above_uniqueness check compares the
    interval's would-be lower end 1 / beta_h with it."""
    inst = ridge_table_problem(domain, eps, M, c, sigma)
    cert = certify(inst, 10.0 ** log_r)
    lam_u = uniqueness_threshold(inst)
    assert cert.lambda_unique == pytest.approx(lam_u, rel=1e-9, abs=1e-12)
    if cert.beta_h is not None and cert.beta_h > 0.0:
        assert cert.checks["above_uniqueness"] == (
            1.0 / cert.beta_h >= cert.lambda_unique)
    if cert.feasible:
        assert cert.checks["above_uniqueness"]
        assert cert.lambda_interval[0] >= lam_u


def test_the_uniqueness_threshold_at_its_limits():
    """lambda_u is "inf" where Lip(g) = 0 and a_t_min > 0 (the beam: one
    solution at every lambda, so no interval passes), 0 where a_t_min
    vanishes (p = 2.5), and null where Lip(g) is unknown, where the check
    holds and the spike's interval stands."""
    grid = build_grid(Domain("interval"), 65)
    beam = certify(make_instance(grid), 1.0, 1.0)
    assert beam.lambda_unique == "inf"
    assert not beam.checks["above_uniqueness"] and not beam.feasible
    json.dumps(dataclasses.asdict(beam), allow_nan=False)
    assert solver.uniqueness_threshold(
        make_instance(grid, p_value=2.5)) == 0.0
    spike = spike_instance(grid)
    unknown = dataclasses.replace(spike, nonlinearity=dataclasses.replace(
        spike.nonlinearity, lip=None))
    cert = certify(unknown, 5.0, 1.2)
    assert cert.lambda_unique is None and cert.checks["above_uniqueness"]
    assert cert.lambda_interval == certify(spike, 5.0, 1.2).lambda_interval

"""Potential families, growth constants and the hypothesis checker."""

import json
from dataclasses import asdict, replace
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from pxbiharm.config import build_problem, load_config, tabulated_g
from pxbiharm.exponents import (
    affine_exponent,
    constant_exponent,
    tabulated_exponent,
)
from pxbiharm.grids import Domain, build_grid
from pxbiharm.potentials import (
    SLOPE_FLOOR,
    PotentialSpec,
    _h5_excess,
    _witness,
    builtin_nonlinearity,
    make_perturbed_family,
    make_power_family,
    verify_hypotheses,
)

from conftest import spike_dg, spike_g, spike_lip


@pytest.fixture(scope="module")
def grid():
    return build_grid(Domain("interval"), 33)


def test_power_family_closed_form_constants(grid):
    p = constant_exponent(grid, 2.0)
    spec = make_power_family(1.0, p)
    assert spec.c2 == 1.0


def test_power_family_a_and_A(grid):
    p = constant_exponent(grid, 3.0)
    spec = make_power_family(2.0, p)
    t = np.array([-2.0, 0.0, 1.5])
    for ti in t:
        a = spec.a(ti)
        assert np.allclose(a, 2.0 * abs(ti) * ti)
        assert np.allclose(spec.A(ti), 2.0 * abs(ti) ** 3 / 3.0)
        # A' = a by central differences
        dt = 1e-6
        fd = (spec.A(ti + dt) - spec.A(ti - dt)) / (2 * dt)
        assert np.allclose(fd, a, atol=1e-6)


def test_power_family_rejects_nonpositive_theta(grid):
    p = constant_exponent(grid, 2.0)
    with pytest.raises(ValueError):
        make_power_family(0.0, p)


def test_perturbed_standard_reduces_to_power_at_p2(grid):
    # (1 + t^2)^0 * t = t, so A = theta t^2 / 2
    p = constant_exponent(grid, 2.0)
    spec = make_perturbed_family(1.5, p, "standard")
    for t in (-1.0, 0.3, 2.0):
        assert spec.A(t)[0] == pytest.approx(1.5 * t * t / 2, rel=1e-8)


@pytest.mark.parametrize("variant", ["standard", "paper_literal"])
@pytest.mark.parametrize("p_value", [1.3, 1.7, 2.5, 4.2])
def test_perturbed_closed_form_A_matches_quadrature(grid, variant, p_value):
    # reference: A(t) = int_0^t a(s) ds by adaptive quadrature, down to the
    # smallest t of the hypothesis sampler, where (1+t^2)^{e+1} - 1 rounds
    # to 0 in the plain closed form
    spec = make_perturbed_family(1.3, constant_exponent(grid, p_value),
                                 variant)
    th, pv = spec.theta[0], spec.p.values[0]
    for t in (-1e-8, 1e-8, -0.3, 0.7, 1.0, -2.5, 6.0):
        want = quad(lambda s: float(spec.a_eval(th, pv, s)), 0.0, t,
                    epsrel=1e-12, epsabs=0.0, limit=200)[0]
        assert want > 0.0
        assert float(spec.A_eval(th, pv, t)) == pytest.approx(want, rel=1e-10)


def test_perturbed_literal_singular_at_p2(grid):
    p = constant_exponent(grid, 2.0)
    with pytest.raises(ValueError):
        make_perturbed_family(1.0, p, "paper_literal")


def test_perturbed_literal_constants_satisfy_bounds(grid):
    # at p = 3, inside (2, 3 + sqrt 5), |a| grows like |t|^{2e+1} with
    # e = p/(p-2), faster than |t|^{p-1}, and the sups c1 and c3 of
    # _ratio_extremes are inf; the bounds are checked where both are
    # finite, p < 2 and p > 3 + sqrt 5
    p = constant_exponent(grid, 3.0)
    c1, c3 = direct_extremes(1.0, p, "paper_literal")[:2].max(axis=1)
    assert c1 == c3 == np.inf
    t = np.linspace(-10, 10, 201)
    t = t[t != 0]
    for p_value in (1.5, 1.8, 5.5, 8.0):
        p = constant_exponent(grid, p_value)
        spec = make_perturbed_family(1.0, p, "paper_literal")
        c1, c3 = direct_extremes(1.0, p, "paper_literal")[:2].max(axis=1)
        assert np.isfinite(c1) and np.isfinite(c3)
        a_vals = spec.a_eval(1.0, p_value, t)
        A_vals = spec.A_eval(1.0, p_value, t)
        assert np.all(np.abs(a_vals) <=
                      c1 * (1.0 + np.abs(t) ** (p_value - 1.0)))
        assert np.all(np.abs(A_vals) <=
                      c3 * (np.abs(t) + np.abs(t) ** p_value))


def test_unknown_variant_rejected(grid):
    p = constant_exponent(grid, 3.0)
    with pytest.raises(ValueError):
        make_perturbed_family(1.0, p, "cubic")


def test_hypotheses_pass_for_power_family(grid):
    p = affine_exponent(grid, 2.0, 0.5)
    spec = make_power_family(1.0, p)
    q = constant_exponent(grid, 1.5)
    nl = builtin_nonlinearity("rational_bump", grid, q)
    report = verify_hypotheses(spec, nl)
    assert report.all_pass, report.status


def test_a_hand_built_spec_leaves_H2_to_H4_unverifiable(grid):
    # a(t) = t - t^3 is not monotone, but a spec built by hand declares no
    # witnesses, so its constants and slope cannot be read as verdicts
    p = constant_exponent(grid, 2.0)
    spec = PotentialSpec(
        family="power", theta=np.ones(grid.size), p=p, variant=None, c2=1.0,
        a_eval=lambda th, pv, t: th * (t - t**3),
        A_eval=lambda th, pv, t: th * (t**2 / 2 - t**4 / 4),
    )
    report = verify_hypotheses(spec, None)
    assert report.status == {"H1": "pass", "H2": "unverifiable",
                             "H3": "unverifiable", "H4": "unverifiable",
                             "H5": "unverifiable"}
    assert report.witnesses == {}
    # nor does it declare the slope the solver reads
    with pytest.raises(ValueError, match="'power' spec declares no a_t"):
        spec.a_t(np.zeros(grid.size))


H3_FAMILIES = {
    "power_p2": lambda g: make_power_family(1.0, constant_exponent(g, 2.0)),
    "power_affine": lambda g: make_power_family(
        1.0 + g.x1, affine_exponent(g, 1.5, 2.0)),
    "standard_p1.5": lambda g: make_perturbed_family(
        1.2, constant_exponent(g, 1.5)),
    "standard_affine": lambda g: make_perturbed_family(
        1.2, affine_exponent(g, 2.5, 0.5)),
    "literal_p3": lambda g: make_perturbed_family(
        1.0, constant_exponent(g, 3.0), "paper_literal"),
    "literal_p1.5": lambda g: make_perturbed_family(
        1.0, constant_exponent(g, 1.5), "paper_literal"),
    "literal_affine": lambda g: make_perturbed_family(
        1.0 + g.x1, affine_exponent(g, 1.3, 0.37), "paper_literal"),
}


@pytest.mark.parametrize("family", sorted(H3_FAMILIES))
def test_h3_reads_a_t_min(grid, family):
    """H3 holds exactly when the closed-form inf of the slope is >= 0; a
    paper_literal exponent below 2 fails it, with its witness at the dip
    s = -3/(2e+1), where the slope of a is a_t_min < 0."""
    spec = H3_FAMILIES[family](grid)
    report = verify_hypotheses(spec, None)
    failing = family.startswith("literal_p1") or family == "literal_affine"
    assert report.status["H3"] == ("fail" if failing else "pass")
    assert failing == bool(np.any(spec.a_t_min < 0.0))
    if failing:
        w = report.witnesses["H3"]
        i = int(np.argmin(spec.a_t_min))
        e = spec.p.values[i] / (spec.p.values[i] - 2.0)
        assert w.x == grid.x1[i] and w.rhs == 0.0
        assert w.t == pytest.approx(np.sqrt(-3.0 / (2.0 * e + 1.0)),
                                    rel=1e-14)
        assert w.lhs == spec.a_t_min[i] < 0.0
        dt = 1e-6
        slope = (spec.a_eval(spec.theta[i], spec.p.values[i], w.t + dt)
                 - spec.a_eval(spec.theta[i], spec.p.values[i], w.t - dt)) \
            / (2 * dt)
        assert slope == pytest.approx(w.lhs, rel=1e-6)


def test_hypotheses_h5_unverifiable_without_nonlinearity(grid):
    p = constant_exponent(grid, 2.0)
    spec = make_power_family(1.0, p)
    report = verify_hypotheses(spec, None)
    assert report.status["H5"] == "unverifiable"
    assert not report.all_pass


def test_h5_fails_when_q_exceeds_p_minus(grid):
    p = constant_exponent(grid, 2.0)
    spec = make_power_family(1.0, p)
    q = constant_exponent(grid, 2.5)  # q^+ >= p^-
    nl = builtin_nonlinearity("const:1", grid, q)
    report = verify_hypotheses(spec, nl)
    assert report.status["H5"] == "fail"


@pytest.mark.parametrize("name", ["const:2", "rational_bump", "exp_abs"])
def test_builtin_antiderivative_consistency(grid, name):
    q = constant_exponent(grid, 1.5)
    nl = builtin_nonlinearity(name, grid, q)
    dt = 1e-5
    for t in (-2.0, -0.3, 0.7, 4.0):
        fd = (nl.F(t + dt) - nl.F(t - dt)) / (2 * dt)
        assert np.allclose(fd, nl.f(t), atol=1e-7)


def test_builtins_nonzero_at_origin(grid):
    q = constant_exponent(grid, 1.5)
    for name in ("const:1", "rational_bump", "exp_abs"):
        nl = builtin_nonlinearity(name, grid, q)
        assert np.all(np.abs(nl.f(0.0)) > 0)


def test_separable_requires_g_and_G(grid):
    q = constant_exponent(grid, 1.5)
    with pytest.raises(ValueError):
        builtin_nonlinearity("separable", grid, q, alpha=1.0)


def test_separable_nodal_alpha_on_every_domain():
    g = lambda t: 1.0 / (1.0 + np.asarray(t, float) ** 2) + 1.0
    G = lambda t: np.arctan(t) + np.asarray(t, float)
    for domain, n in [(Domain("interval"), 9), (Domain("ball_radial", N=2), 9),
                      (Domain("rectangle", a=2.0, b=1.0), 5)]:
        grid = build_grid(domain, n)
        alpha = np.arange(1.0, grid.size + 1.0)
        q = constant_exponent(grid, 1.5)
        nl = builtin_nonlinearity("separable", grid, q, alpha=alpha, g=g, G=G)
        t = np.linspace(-2.0, 2.0, grid.size)
        assert np.array_equal(nl.f(t), alpha * g(t))
        assert np.array_equal(nl.F(t), alpha * G(t))
        # one row of t values for every node, as the samplers call it
        tt = np.array([-1.0, 0.5, 3.0])
        assert np.array_equal(nl.f(tt[None, :]),
                              alpha[:, None] * g(tt)[None, :])
    const = builtin_nonlinearity("separable", grid, q, alpha=2.0, g=g, G=G)
    assert np.all(const.f(1.0) == 2.0 * g(1.0))


@pytest.mark.parametrize("name, sup_g", [("const:-3", 3.0), ("const:0", 0.0),
                                         ("rational_bump", 2.0),
                                         ("exp_abs", 2.0)])
def test_xi_defaults_to_max_alpha_sup_g_in_closed_form(grid, name, sup_g):
    alpha = np.linspace(-1.5, 0.5, grid.size)
    nl = builtin_nonlinearity(name, grid, constant_exponent(grid, 1.5),
                              alpha=alpha)
    assert np.all(nl.xi == 1.5 * sup_g)
    assert nl.zeros.size == 0


def test_separable_load_without_xi_leaves_H5_unverifiable(grid):
    # a t-grid of spacing 5 on [-1e4, 1e4] reads sup g = 0.05 for this
    # ridge, whose peak is 40.05
    p = constant_exponent(grid, 2.0)
    nl = builtin_nonlinearity(
        "separable", grid, constant_exponent(grid, 1.5),
        g=lambda t: 0.05 + 40.0 * np.exp(-((np.abs(t) - 1.0) / 0.05) ** 2),
        G=lambda t: 0.05 * np.asarray(t, float), zeros=())
    assert nl.xi is None
    report = verify_hypotheses(make_power_family(1.0, p), nl)
    assert report.status["H5"] == "unverifiable"
    # a declared xi is not enough: this g has no knots to check it on
    report = verify_hypotheses(make_power_family(1.0, p),
                               replace(nl, xi=np.full(grid.size, 40.05)))
    assert report.status["H5"] == "unverifiable"


def test_unknown_builtin_rejected(grid):
    q = constant_exponent(grid, 1.5)
    with pytest.raises(ValueError):
        builtin_nonlinearity("sawtooth", grid, q)


EPS = np.finfo(float).eps
# every family at p < 2, p = 2, p > 2 and a variable p; 1.5 + x is 2 at
# the node x = 0.5 of the 21-node interval, and 1.52 + x never is (the
# paper_literal exponent p/(p-2) is singular there)
SLOPE_CASES = {
    f"{family}-{name}": (family, p)
    for family, exponents in [
        ("power", {"p1.5": 1.5, "p2": 2.0, "p3": 3.0, "var": (1.5, 1.0)}),
        ("standard", {"p1.5": 1.5, "p2": 2.0, "p3": 3.0, "var": (1.5, 1.0)}),
        ("paper_literal", {"p1.5": 1.5, "p3": 3.0, "var": (1.52, 1.0)}),
    ] for name, p in exponents.items()}


def secant_slopes(fun, t):
    """(a(t_k+1) - a(t_k)) / (t_k+1 - t_k) along the last axis, and the
    rounding error bound 4 eps (|a(t_k)| + |a(t_k+1)|) / (t_k+1 - t_k) of
    each.  Each secant slope is the derivative somewhere between."""
    a = fun(t)
    dt = np.diff(t)
    return np.diff(a, axis=-1) / dt, \
        4 * EPS * (np.abs(a[..., 1:]) + np.abs(a[..., :-1])) / dt


@pytest.mark.parametrize("case", sorted(SLOPE_CASES))
def test_a_t_min_is_the_inf_of_the_sampled_slope(case):
    """a_t_min never exceeds a secant slope of a(x, .) on a dense t-grid
    (spacing 1e-3, log-spaced down to 1e-8 and out to 1e6), and where it is
    not 0 (attained at t = 0, or at the dip of a paper_literal exponent
    below 2) a sampled slope comes within 1e-4 theta of it."""
    family, pv = SLOPE_CASES[case]
    grid = build_grid(Domain("interval"), 21)
    p = (constant_exponent(grid, pv) if np.isscalar(pv)
         else affine_exponent(grid, *pv))
    theta = 0.5 + grid.nodes
    spec = (make_power_family(theta, p) if family == "power"
            else make_perturbed_family(theta, p, family))
    ends = np.concatenate([np.geomspace(1e-8, 1e-3, 100),
                           np.geomspace(20.0, 1e6, 400)])
    t = np.unique(np.concatenate([-ends, np.linspace(-20.0, 20.0, 40001),
                                  ends]))
    with np.errstate(over="ignore", invalid="ignore"):
        slope, err = secant_slopes(
            lambda t: spec.a_eval(theta[:, None], p.values[:, None], t), t)
    # (1+t^2)^e overflows for large paper_literal exponents
    slope = np.where(np.isfinite(slope), slope, np.inf)
    assert np.all(spec.a_t_min[:, None] <= slope + err)
    attained = spec.a_t_min != 0.0
    gap = np.min(slope, axis=1) - spec.a_t_min
    assert np.all(gap[attained] <= 1e-4 * theta[attained])
    positive = {"power": p.values == 2.0, "standard": p.values >= 2.0,
                "paper_literal": p.values > 2.0}[family]
    assert np.array_equal(spec.a_t_min > 0.0, positive)
    assert np.all(spec.a_t_min[~positive] <= 0.0)


def assert_secants_between_slopes(fun, slope, t):
    """Each secant slope of fun between neighbours of t (along its last
    axis) lies between the declared slopes at its two ends, within the
    secant's rounding bound and 1e-12 of the larger end.  By the mean value
    theorem it is the slope somewhere between them, so this holds exactly
    where the slope is monotone between neighbours, as it is on every t
    below."""
    secant, err = secant_slopes(fun, t)
    d = slope(t)
    lo = np.minimum(d[..., 1:], d[..., :-1])
    hi = np.maximum(d[..., 1:], d[..., :-1])
    tol = err + 1e-12 * np.maximum(np.abs(lo), np.abs(hi))
    assert np.all(secant >= lo - tol)
    assert np.all(secant <= hi + tol)


def on_nodes(fun, grid):
    """fun of the nodewise API applied at every node to the same t."""
    return lambda t: fun(np.broadcast_to(t, (grid.size,) + np.shape(t)))


# t > 0 from above the floor out to 1e3, a ratio of 1.0033 apart
SLOPE_T = np.geomspace(2.0 * SLOPE_FLOOR, 1e3, 6001)
ROOT = 3.0 + np.sqrt(5.0)      # where paper_literal's growth exponent is 0


# paper_literal is singular at p = 2
@pytest.mark.parametrize("family, pv", [
    (family, pv) for family in ("power", "standard", "paper_literal")
    for pv in (1.5, 2.0, 2.5, 3.0, ROOT - 1e-9, ROOT + 1e-9)
    if (family, pv) != ("paper_literal", 2.0)])
def test_a_t_is_the_slope_of_a(family, pv):
    """The declared a_t brackets every secant slope of a on a log grid of
    each sign (and, for the perturbed families, through 0 and the dip of
    a_t where e < -1/2); below SLOPE_FLOOR it is a_t at the floor."""
    grid = build_grid(Domain("interval"), 5)
    p = constant_exponent(grid, pv)
    theta = 0.5 + grid.nodes
    spec = (make_power_family(theta, p) if family == "power"
            else make_perturbed_family(theta, p, family))
    a, a_t = on_nodes(spec.a, grid), on_nodes(spec.a_t, grid)
    if family == "power":         # |t|^{p-2} is singular or kinked at 0
        for t in (SLOPE_T, -SLOPE_T[::-1]):
            assert_secants_between_slopes(a, a_t, t)
        tiny = np.array([0.0, 1e-300, 1e-9, SLOPE_FLOOR / 2, SLOPE_FLOOR])
        floor = a_t(np.full(1, SLOPE_FLOOR))
        assert np.array_equal(a_t(np.concatenate([tiny, -tiny])),
                              np.repeat(floor, 2 * tiny.size, axis=1))
        return
    e = pv / (pv - 2.0) if family == "paper_literal" else (pv - 2.0) / 2.0
    t = np.concatenate([[0.0], SLOPE_T,
                        [np.sqrt(-3.0 / (2.0 * e + 1.0))] if e < -0.5 else []])
    t = np.unique(np.concatenate([-t, t]))
    assert_secants_between_slopes(a, a_t, t)


def table_segments(block):
    """Nine points inside each segment of a table and past its last node,
    one row per segment: its g is linear along each row."""
    tg = np.append(block["g_t"], block["g_t"][-1] + 1.0)
    return np.array([np.linspace(lo, hi, 11)[1:-1]
                     for lo, hi in zip(tg[:-1], tg[1:])])


@pytest.mark.parametrize("name", ["const:2.5", "rational_bump", "exp_abs",
                                  "table", "spike"])
def test_f_t_is_the_slope_of_f(grid, name):
    """The declared f_t = alpha g' brackets every secant slope of f, with
    alpha of both signs: on a dense grid through 0 and the extrema of g'
    for rational_bump, on each sign apart for exp_abs and the conftest
    spike (kinked at 0), and inside each segment for a table."""
    alpha = np.linspace(-1.5, 2.0, grid.size)
    q = constant_exponent(grid, 1.5)
    pos = np.geomspace(1e-9, 50.0, 4001)
    if name == "table":
        g, G, dg, zeros, knots = tabulated_g(H5_TABLES["sign_changes"])
        nl = builtin_nonlinearity("separable", grid, q, alpha=alpha, g=g,
                                  G=G, dg=dg, zeros=zeros, knots=knots)
        rows = table_segments(H5_TABLES["sign_changes"])
        ts = [rows, -rows[:, ::-1]]
    elif name == "spike":
        nl = builtin_nonlinearity("separable", grid, q, alpha=alpha,
                                  g=spike_g, G=spike_g, dg=spike_dg)
        peaks = 1.0 + np.array([-1.0, 1.0]) * 0.05 / np.sqrt(2.0)
        t = np.unique(np.concatenate([pos, np.linspace(0.5, 1.5, 20001),
                                      peaks]))
        ts = [t, -t[::-1]]
    else:
        nl = builtin_nonlinearity(name, grid, q, alpha=alpha)
        ts = [pos, -pos[::-1]]
        if name == "rational_bump":
            t = np.concatenate([np.linspace(0.0, 5.0, 5001), pos,
                                [1.0 / np.sqrt(3.0)]])
            ts = [np.unique(np.concatenate([-t, t]))]
    for t in ts:
        assert_secants_between_slopes(on_nodes(nl.f, grid),
                                      on_nodes(nl.f_t, grid), t)
    # every g is even, and its slope at 0 is 0
    assert np.array_equal(nl.f_t(np.zeros(grid.size)), np.zeros(grid.size))


def test_f_t_of_a_load_without_g_prime_names_the_load(grid):
    nl = builtin_nonlinearity("separable", grid, constant_exponent(grid, 1.5),
                              g=spike_g, G=spike_g, zeros=())
    with pytest.raises(ValueError, match="'separable' load declares no g'"):
        nl.f_t(np.zeros(grid.size))


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def table_load(name):
    cfg = load_config(str(CONFIGS / name))
    return cfg.nonlinearity, build_problem(cfg, verify=False).nonlinearity


@pytest.mark.parametrize("name", ["const:2.5", "const:-1", "rational_bump",
                                  "exp_abs", "spike", "bump_dim1.json",
                                  "spike_ridge.json"])
def test_lip_bounds_the_sampled_slopes_of_g(grid, name):
    """Lip(g) is at least every secant slope of g on a dense t-grid and at
    most 1e-6 above the steepest: the builtins, the conftest spike (a
    separable load that declares it) and both shipped tables, sampled at
    their nodes, the midpoints and past the last node."""
    t = np.concatenate([np.linspace(-5.0, 5.0, 200001),
                        np.geomspace(1e-9, 60.0, 400)])
    if name.endswith(".json"):
        block, nl = table_load(name)
        nodes = np.asarray(block["g_t"])
        t = np.concatenate([nodes, (nodes[1:] + nodes[:-1]) / 2,
                            [nodes[-1] + 1.0], -nodes])
        g, lip = nl.g, nl.lip
    elif name == "spike":
        g, lip = spike_g, spike_lip()
    else:
        nl = builtin_nonlinearity(name, grid, constant_exponent(grid, 1.5))
        g, lip = nl.g, nl.lip
    slope, err = secant_slopes(g, np.unique(t))
    steepest = np.max(np.abs(slope))
    assert np.all(np.abs(slope) <= lip + err)
    assert steepest >= lip - 1e-6 * max(lip, 1.0)


def test_a_separable_load_leaves_lip_unknown(grid):
    nl = builtin_nonlinearity("separable", grid, constant_exponent(grid, 1.5),
                              g=spike_g, G=spike_g, zeros=())
    assert nl.lip is None


def reference_a_t_min(family, theta, pv):
    """inf_t d/dt a(x, t) in closed form: theta at p = 2 for `power`, else
    0; for the perturbed families the inf of theta (1+t^2)^{e-1}
    (1 + (2e+1) t^2)."""
    if family == "power":
        return np.where(pv == 2.0, theta, 0.0)
    e = pv / (pv - 2.0) if family == "paper_literal" else (pv - 2.0) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        dip = -2.0 * (2.0 * (e - 1.0) / (2.0 * e + 1.0)) ** (e - 1.0)
    return theta * np.where(e >= 0.0, 1.0, np.where(e < -0.5, dip, 0.0))


PARITY_DOMAINS = {"interval": (Domain("interval"), 21),
                  "rectangle": (Domain("rectangle", a=2.0, b=0.7), 7),
                  "ball": (Domain("ball_radial", N=3, R=0.8), 15)}
# none of them is 2 at a node, where paper_literal is singular
PARITY_EXPONENTS = {
    "constant": lambda g: constant_exponent(g, 3.0),
    "affine": lambda g: affine_exponent(g, 1.5, 0.4),
    "table": lambda g: tabulated_exponent(g, 2.2 + 0.3 * np.sin(3 * g.x1)),
}




@pytest.mark.parametrize("domain", sorted(PARITY_DOMAINS))
@pytest.mark.parametrize("exponent", sorted(PARITY_EXPONENTS))
@pytest.mark.parametrize("per_node", [False, True], ids=["scalar", "nodes"])
@pytest.mark.parametrize("family", ["power", "standard", "paper_literal"])
def test_builders_declare_the_closed_forms(domain, exponent, per_node,
                                           family):
    """power's c2 = min(1, theta-) and every family's a_t_min."""
    grid = build_grid(*PARITY_DOMAINS[domain])
    p = PARITY_EXPONENTS[exponent](grid)
    theta = 0.7 + grid.x1 if per_node else 1.3
    spec = (make_power_family(theta, p) if family == "power"
            else make_perturbed_family(theta, p, family))
    if family == "power":
        assert spec.c2 == min(1.0, spec.theta.min())
    assert np.array_equal(spec.a_t_min,
                          reference_a_t_min(family, spec.theta, p.values))


def log_growth_ratios(theta, p, e, log_t):
    """log of theta times each growth ratio of a = theta (1+t^2)^e t with
    d = 1, per node (rows of theta, p, e) and |t| = exp(log_t): |a| /
    (1 + |t|^{p-1}), |A| / (|t| + |t|^p), a t / |t|^p and p A / |t|^p.  In
    logs, so that nothing overflows on |t| in [1e-150, 1e150]."""
    u = 2.0 * log_t                              # log s, s = t^2
    log1p_s = np.logaddexp(0.0, u)
    x = (e + 1.0) * log1p_s                      # log (1+s)^{e+1}
    log_A = np.maximum(x, 0.0) + np.log(-np.expm1(-np.abs(x))) \
        - np.log(2.0 * np.abs(e + 1.0))
    log_a = e * log1p_s + u / 2.0
    return np.log(theta) + np.stack([
        log_a - np.logaddexp(0.0, (p - 1.0) * u / 2.0),
        log_A - np.logaddexp(u / 2.0, p * u / 2.0),
        log_a + (1.0 - p) * u / 2.0,
        np.log(p) + log_A - p * u / 2.0])


def dense_extremes(theta, p, e):
    """(sup c1 ratio, sup c3 ratio, inf c2 ratio) over the nodes and a
    log-spaced sample of |t| in [1e-150, 1e150], refined 1000-fold around
    each node's extreme; inf where the ratio still grows at the top end."""
    th, pv, ev = theta[:, None], p[:, None], e[:, None]
    log_t = np.linspace(np.log(1e-150), np.log(1e150), 3001)
    logs = log_growth_ratios(th, pv, ev, log_t)
    logs[2:] = -logs[2:]                         # c2 is an inf
    out = []
    for kind in range(4):
        j = np.argmax(logs[kind], axis=1)
        step = log_t[1] - log_t[0]
        fine = log_t[np.maximum(j - 1, 0), None] \
            + 2.0 * step * np.linspace(0.0, 1.0, 2001)
        refined = log_growth_ratios(th, pv, ev, fine)[kind]
        best = np.maximum(logs[kind].max(axis=1),
                          (refined if kind < 2 else -refined).max(axis=1))
        growing = logs[kind][:, -1] - logs[kind][:, -100] > 1.0
        out.append(np.where(growing, np.inf, best))
    sup1, sup3 = np.exp(out[0].max()), np.exp(out[1].max())
    return sup1, sup3, np.exp(-np.maximum(out[2], out[3]).max())


RATIO_CASES = [(variant, p0) for variant in ("standard", "paper_literal")
               for p0 in (1.3, 1.7, 2.5, 2.85, 2.9, 3.0, 3.5, 4.2, 6.0, 8.0)]
# paper_literal's extrema move to t -> 0 as p -> 2
RATIO_CASES += [("paper_literal", 1.999), ("paper_literal", 2.001)]
# p is 2 at no node of the 11-node interval, where paper_literal is
# singular
RATIO_EXPONENTS = {
    "constant": lambda g, p0: constant_exponent(g, p0),
    "affine": lambda g, p0: affine_exponent(g, p0, 0.37),
    "table": lambda g, p0: tabulated_exponent(
        g, p0 + 0.2 * np.sin(3 * g.x1)),
}


@pytest.mark.parametrize("exponent", sorted(RATIO_EXPONENTS))
@pytest.mark.parametrize("variant, p0", RATIO_CASES)
def test_growth_constants_bound_every_ratio_and_are_tight(variant, p0,
                                                          exponent):
    """c1 and c3, the sups of _ratio_extremes' kinds 0 and 1, are >= and
    the family's c2 <= every ratio of a and A as the family evaluates them
    on |t| in [1e-8, 1e8] (up to 1e-12 relative rounding), and each is
    within 1e-6 relative of the extreme of a dense log-space sample of |t|
    in [1e-150, 1e150], or 1e-12 absolute where that extreme is a limit 0;
    c1 and c3 are inf exactly where a ratio grows without bound."""
    grid = build_grid(Domain("interval"), 11)
    p = RATIO_EXPONENTS[exponent](grid, p0)
    theta = 0.8 + 0.5 * grid.x1
    spec = make_perturbed_family(theta, p, variant)
    c1, c3 = direct_extremes(theta, p, variant)[:2].max(axis=1)
    th, pv = theta[:, None], p.values[:, None]
    t = np.geomspace(1e-8, 1e8, 20001)
    with np.errstate(over="ignore", invalid="ignore"):
        a, A = spec.a_eval(th, pv, t), spec.A_eval(th, pv, t)
        ratios = [np.abs(a) / (1.0 + t ** (pv - 1.0)),
                  np.abs(A) / (t + t**pv),
                  np.minimum(a * t, pv * A) / t**pv]
    # a ratio overflows only where it grows without bound
    ratios = [np.nan_to_num(r, nan=np.inf) for r in ratios]
    assert np.all(ratios[0] <= c1 * (1.0 + 1e-12))
    assert np.all(ratios[1] <= c3 * (1.0 + 1e-12))
    assert np.all(ratios[2] >= spec.c2 * (1.0 - 1e-12))
    e = (p.values / (p.values - 2.0) if variant == "paper_literal"
         else (p.values - 2.0) / 2.0)
    for got, want in zip((c1, c3, spec.c2),
                         dense_extremes(theta, p.values, e)):
        assert got == pytest.approx(want, rel=1e-6, abs=1e-12)


#: relative slack (as a factor e^{+-slack}) on every extreme of a growth
#: ratio: it covers the floating-point error of a root and of the ratio
#: evaluated there, and a limit's overshoot past the bracketing grid (see
#: _ratio_extremes)
_EXTREMUM_SLACK = 1e-9


# Each growth ratio of a = theta (1+s)^e t, with s = t^2 and d = 1, is per
# unit theta a numerator, a t = s (1+s)^e or A = ((1+s)^w - 1) / (2w) with
# w = e + 1, over a denominator, |t| + |t|^p or |t|^p:
#   kind 0, c1   |a| / (1 + |t|^{p-1}) = a t / (|t| + |t|^p)    sup
#   kind 1, c3   |A| / (|t| + |t|^p)                           sup
#   kind 2, c2   a t / |t|^p                                   inf
#   kind 3, c2   p A / |t|^p                                   inf
# and c2 takes the lower inf.  The families build c2 in closed form; these
# extremes, found by a numeric search, are the tests' reference.  Their
# derivatives d log / d log s are 1 + e sigma and phi for the numerators,
# 1/2 + k tau and p/2 for the denominators, with sigma = s/(1+s),
# phi = w sigma / (1 - (1+s)^{-w})
# (monotone in s, from 1 to max(w, 0)), k = (p-1)/2 and tau = s^k/(1+s^k).
# None is monotone in general: c3's ratio peaks inside for standard p above
# about 2.88 (at 1.0219 / p, s = 6.5, for p = 3), c1's for p > 3, and both
# for paper_literal p < 2 and p > 3 + sqrt 5.
#: log-spaced nodes of s on which the interior extrema are bracketed
_BRACKET_NODES = 61
_ILLINOIS_STEPS = 6


def _dlog_ratio(u, p, e, kind):
    """d log r / d log s at u = log s of the ratio of each kind; all four
    arguments broadcast."""
    s = np.exp(u)
    sigma, w, k = s / (1.0 + s), e + 1.0, (p - 1.0) / 2.0
    phi = w * sigma / -np.expm1(-w * np.log1p(s))
    return (np.where(kind % 2, phi, 1.0 + e * sigma)
            - np.where(kind < 2, 1.0 + k + k * np.tanh(k * u / 2.0), p) / 2.0)


def _log_ratio(u, p, e, kind):
    """log r at u = log s of the ratio of each kind, broadcast as in
    _dlog_ratio."""
    log1p_s, w = np.log1p(np.exp(u)), e + 1.0
    log_A = np.log(np.expm1(w * log1p_s) / (2.0 * w))
    return (np.where(kind % 2, log_A, u + e * log1p_s)
            + np.where(kind == 3, np.log(p), 0.0)
            - np.where(kind < 2, np.logaddexp(u / 2.0, p * u / 2.0),
                       p * u / 2.0))


def _ratio_extremes(p, e, x1, kinds):
    """The extreme (sup for kinds 0 and 1, inf for 2 and 3) of the ratio of
    each kind (rows) for each p (1-D, with its e and the exponent
    x1 = e + 1 - p/2 of every ratio's growth as s -> inf), and the |t|
    where it is attained (0 or inf for a limit).

    It is the best of the two limits, in closed form, and of the interior
    extrema.  Those are bracketed by the sign changes of d log r / d log s
    on a log-spaced grid of s from 1e-6 / max(1, |e|)^2 (paper_literal's
    extrema move to 0 as p -> 2) to 1e10, and found by Illinois iterations;
    log r there is raised by the bracket's width times |d log r / d log s|
    at the iterate, which bounds the rest to first order.  A pair of
    extrema closer than the grid's spacing is missed; in c3's ratio, the
    only one with two, the maximum stays below the limit until they are
    more than 1.6 apart in log s.  Past 1e10 a ratio moves monotonically
    to its limit, or overshoots it by about 1e-10 (standard p just above
    3).  The result is widened by the factor exp(+-_EXTREMUM_SLACK)."""
    kinds = np.asarray(kinds)
    sense = np.where(kinds < 2, 1.0, -1.0)
    lo = np.log(1e-6) - 2.0 * np.log(np.maximum(1.0, np.abs(e)))
    u = lo[:, None] + (np.log(1e10) - lo)[:, None] * np.linspace(
        0.0, 1.0, _BRACKET_NODES)
    # (1+s)^{-w} overflows for w < 0 and large s, where phi -> 0
    with np.errstate(over="ignore", divide="ignore"):
        d = sense[:, None, None] * _dlog_ratio(u, p[:, None], e[:, None],
                                                kinds[:, None, None])
        row_kind, row, j = np.nonzero((d[..., :-1] > 0.0)
                                      & (d[..., 1:] <= 0.0))
        kind, sgn, pr, er = kinds[row_kind], sense[row_kind], p[row], e[row]
        a, b = u[row, j], u[row, j + 1]
        fa, fb = d[row_kind, row, j], d[row_kind, row, j + 1]
        for _ in range(_ILLINOIS_STEPS):
            c = b - fb * (b - a) / (fb - fa)
            fc = sgn * _dlog_ratio(c, pr, er, kind)
            flip = fc * fb < 0.0
            a, fa = np.where(flip, b, a), np.where(flip, fb, 0.5 * fa)
            b, fb = c, fc
        # scores: sense * log r, the higher the better
        found = sgn * _log_ratio(b, pr, er, kind) + np.abs(b - a) * np.abs(fb)
        w = e + 1.0
        balanced = np.array([np.ones_like(p), 0.5 / w, np.ones_like(p),
                             p / w / 2.0])[kinds]
        at_zero = np.where(kinds[:, None] < 2, 0.0, np.where(
            p < 2.0, 0.0, np.where(p > 2.0, np.inf, 1.0)))
        at_inf = np.where(x1 > 0.0, np.inf, np.where(x1 < 0.0, 0.0, balanced))
        score_0 = sense[:, None] * np.log(at_zero)
        score_inf = sense[:, None] * np.log(at_inf)
    inner = np.full(score_0.shape, -np.inf)
    np.maximum.at(inner, (row_kind, row), found)
    t_inner = np.zeros(score_0.shape)
    top = found == inner[row_kind, row]
    t_inner[row_kind[top], row[top]] = np.exp(b[top] / 2.0)
    best = np.maximum(np.maximum(score_0, score_inf), inner)
    t = np.where(best == score_0, 0.0,
                 np.where(best == score_inf, np.inf, t_inner))
    return np.exp(sense[:, None] * (best + _EXTREMUM_SLACK)), t


def direct_extremes(theta, p, variant):
    """Per node, theta times each of the four ratio extremes of the family
    (rows: c1, c3, c2 from a t, c2 from p A), from one direct
    _ratio_extremes call over all kinds."""
    pu, inv = np.unique(p.values, return_inverse=True)
    return theta * _ratio_extremes(pu, *oracle_exponents(pu, variant),
                                   [0, 1, 2, 3])[0][:, inv]


def oracle_exponents(p, variant):
    """e and the growth exponent x1 for each p, by the variant's own
    formulas, as _ratio_extremes takes them."""
    if variant == "paper_literal":
        return p / (p - 2.0), (6.0 * p - p**2 - 4.0) / (2.0 * (p - 2.0))
    return (p - 2.0) / 2.0, np.zeros_like(p)


#: p swept for the closed-form c2: both sides of 2 and of 3 + sqrt 5, where
#: paper_literal's interior minimum leaves for t -> inf, up to 9, and
#: standard's p = 2, where both limits are 1
C2_CASES = [(variant, p) for variant in ("standard", "paper_literal")
            for p in np.concatenate([np.linspace(1.01, 9.0, 41), [
                1.999, 2.0 - 1e-6, 2.0 + 1e-6, 2.001, 3.0,
                3.0 + np.sqrt(5.0) - 1e-9, 3.0 + np.sqrt(5.0) + 1e-9]])]
C2_CASES.append(("standard", 2.0))


@pytest.mark.parametrize("variant, p_value", C2_CASES)
def test_closed_form_c2_is_the_searched_inf(grid, variant, p_value):
    """The family's c2 and its H4 witness t against the numeric search of
    _ratio_extremes: c2 is the lower of the kind-2 and kind-3 infs to 2e-9
    relative, and the kind-3 inf is never below the kind-2 inf beyond the
    slack (a t >= R |t|^p integrates to p A >= R |t|^p).  The limits are
    exact: 0 at t = 0 for p < 2, 1 at t = inf for standard p >= 2 (p = 2
    included, where the ratio is 1 at every t) and 0 at t = inf past
    3 + sqrt 5.  An interior t is where min(a t, p A) / |t|^p reads c2;
    the search's iterate lies within 1e-5 of it."""
    e, x1 = oracle_exponents(np.array([p_value]), variant)
    (r2, r3), (t2, _) = _ratio_extremes(np.array([p_value]), e, x1, [2, 3])
    assert r3[0] >= r2[0] * np.exp(-_EXTREMUM_SLACK)
    spec = make_perturbed_family(1.0, constant_exponent(grid, p_value),
                                 variant)
    t = spec.witnesses["H4"].t
    assert spec.c2 == pytest.approx(min(r2[0], r3[0]), rel=2e-9, abs=0.0)
    if variant == "standard":
        assert spec.c2 == (1.0 if p_value >= 2.0 else 0.0)
    if spec.c2 == 0.0 or variant == "standard":
        assert t == (0.0 if p_value < 2.0 else "inf")
    else:
        assert 0.0 < t < np.inf
        assert t == pytest.approx(t2[0], rel=1e-5)
        ratio = min(spec.a_eval(1.0, p_value, t) * t,
                    p_value * spec.A_eval(1.0, p_value, t)) / t**p_value
        # c2 is rounded down by 4 eps, and a and A each round by a few ulps
        assert ratio == pytest.approx(spec.c2,
                                      rel=16.0 * np.finfo(float).eps)


def test_the_perturbed_a_keeps_its_accuracy_where_e_is_large(grid):
    """a = theta (1+t^2)^e t at paper_literal p = 2 + 1e-6, where e is
    about 2e6, and at its H4 witness t, about 5e-7, against a 50-digit
    evaluation: within 4 eps.  Rounding 1 + t^2 before the power would
    cost about e eps (4.5e-11 here)."""
    p = 2.0 + 1e-6
    spec = make_perturbed_family(1.0, constant_exponent(grid, p),
                                 "paper_literal")
    t = spec.witnesses["H4"].t
    assert 4e-7 < t < 6e-7
    got = Decimal(float(spec.a_eval(1.0, p, t)))
    with localcontext() as ctx:
        ctx.prec = 50
        e = Decimal(p) / (Decimal(p) - 2)
        exact = (e * (1 + Decimal(t) ** 2).ln()).exp() * Decimal(t)
        assert abs(got / exact - 1) <= 4 * Decimal(np.finfo(float).eps)


#: p swept for each variant; paper_literal fails H2 for 2 < p < 3 + sqrt 5,
#: and these include both sides of either end
H2_SWEEP = {
    "standard": np.linspace(1.15, 8.05, 24),
    "paper_literal": np.concatenate([np.linspace(1.15, 8.05, 24), [
        1.999, 2.001, 2.4, 3.0, 4.0, 5.2, 3.0 + np.sqrt(5.0) - 1e-9,
        3.0 + np.sqrt(5.0) + 1e-9]])}


@pytest.mark.parametrize("exponent", sorted(RATIO_EXPONENTS))
@pytest.mark.parametrize("variant", sorted(H2_SWEEP))
def test_h2_from_the_growth_exponent_is_c1_being_finite(variant, exponent):
    """Over a sweep of p, H2 read from the growth exponent passes exactly
    where c1 is finite, and fails with the witness at the node where c1
    is attained: the first with an infinite ratio, its limit t -> inf,
    lhs 2e + 1 and rhs p - 1."""
    grid = build_grid(Domain("interval"), 11)
    theta = 0.8 + 0.5 * grid.x1
    fails = []
    for p0 in H2_SWEEP[variant]:
        p = RATIO_EXPONENTS[exponent](grid, p0)
        report = verify_hypotheses(make_perturbed_family(theta, p, variant),
                                   None)
        c1_nodes = direct_extremes(theta, p, variant)[0]
        ok = report.status["H2"] == "pass"
        assert ok == np.isfinite(c1_nodes.max())
        fails.append(not ok)
        if not ok:
            i = int(np.argmax(c1_nodes))
            pv = p.values[i]
            e = pv / (pv - 2.0)
            assert report.witnesses["H2"] == _witness(
                grid.x1[i], np.inf, 2.0 * e + 1.0, pv - 1.0)
    sweep = H2_SWEEP[variant]
    if variant == "standard":
        assert not any(fails)
    elif exponent == "constant":
        assert fails == list((2.0 < sweep) & (sweep < 3.0 + np.sqrt(5.0)))


def test_h2_reads_the_growth_exponent_not_an_overflowing_c1(grid):
    """theta the largest float overflows c1 = theta sup ratio to inf (the
    ratio peaks above 1 for p = 4), but |a| still grows like the H2 bound:
    H2 passes."""
    theta, p = np.finfo(float).max, constant_exponent(grid, 4.0)
    with np.errstate(over="ignore"):
        assert direct_extremes(theta, p, "standard")[0].max() == np.inf
    spec = make_perturbed_family(theta, p)
    assert verify_hypotheses(spec, None).status["H2"] == "pass"


H5_TABLES = {
    "sign_changes": {"g_t": [0.0, 1.0, 2.0, 3.0],
                     "g_values": [1.0, -2.0, 0.5, -1.0]},
    "late_peak": {"g_t": [0.0, 12.0, 12.5, 13.0],
                  "g_values": [0.0, 0.0, 100.0, 0.0]},
    "rising_end": {"g_t": [0.0, 0.5, 4.0], "g_values": [0.2, -0.1, 3.0]},
}


@pytest.mark.parametrize("table", sorted(H5_TABLES))
@pytest.mark.parametrize("q", [1.5, 2.0, 2.5, 3.5])
def test_h5_excess_is_the_sup_over_t(grid, table, q):
    """sup_t |alpha g(t)| - zeta |t|^{q-1} per node from the table's knots
    (and each segment's critical point for q > 2) is at least the excess
    at every t of a dense sample through the knots and past the last, at
    most 1e-6 above the sampled max, and attained at the reported t."""
    g, G, _, zeros, knots = tabulated_g(H5_TABLES[table])
    alpha = np.linspace(-2.0, 1.5, grid.size)
    zeta = 0.7
    nl = builtin_nonlinearity("separable", grid, constant_exponent(grid, q),
                              zeta=zeta, alpha=alpha, g=g, G=G, zeros=zeros,
                              knots=knots)
    excess, at = _h5_excess(nl)
    t = np.concatenate([np.linspace(0.0, 30.0, 300001), knots[0]])
    sampled = np.max(np.abs(alpha)[:, None] * np.abs(g(t))
                     - zeta * t ** (q - 1.0), axis=1)
    assert np.all(sampled <= excess + 1e-12)
    assert np.all(excess <= sampled + 1e-6)
    assert np.allclose(np.abs(alpha) * np.abs(g(at)) - zeta * at ** (q - 1.0),
                       excess, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name, g0", [("const:-3", 3.0),
                                      ("rational_bump", 2.0),
                                      ("exp_abs", 2.0)])
def test_h5_of_a_builtin_load_compares_alpha_g0_with_xi(grid, name, g0):
    """|g| peaks at t = 0 and does not increase in |t|, so H5 holds exactly
    when max |alpha| |g(0)| <= xi, with the witness at t = 0."""
    alpha = np.linspace(-1.5, 0.5, grid.size)
    spec = make_power_family(1.0, constant_exponent(grid, 2.0))
    q = constant_exponent(grid, 1.5)
    for xi, want in ((1.5 * g0, "pass"), (1.5 * g0 - 1e-6, "fail")):
        nl = builtin_nonlinearity(name, grid, q, xi=xi, alpha=alpha)
        report = verify_hypotheses(spec, nl)
        assert report.status["H5"] == want
    w = report.witnesses["H5"]
    assert (w.x, w.t, w.lhs, w.rhs) == (grid.x1[0], 0.0, 1.5 * g0,
                                        1.5 * g0 - 1e-6)


@pytest.mark.parametrize("variant, p_value, theta, t_want", [
    ("standard", 1.5, 1.0, 0.0), ("paper_literal", 6.0, 1.0, "inf"),
    ("paper_literal", 3.0, 0.2, None)])
def test_h4_witness_is_where_c2_is_attained(grid, variant, p_value, theta,
                                            t_want):
    """c2 < 1 fails H4 at the t of the c2 ratio's inf: the limit t -> 0
    (standard p < 2), t -> inf (paper_literal p > 3 + sqrt 5), or the
    interior minimum, where min(a t, p A) / |t|^p reads c2."""
    spec = make_perturbed_family(theta, constant_exponent(grid, p_value),
                                 variant)
    report = verify_hypotheses(spec, None)
    assert report.status["H4"] == "fail"
    w = report.witnesses["H4"]
    assert (w.lhs, w.rhs) == (spec.c2, 1.0)
    if t_want is not None:
        assert w.t == t_want and spec.c2 == 0.0
    else:
        a, A = spec.a_eval(theta, p_value, w.t), spec.A_eval(theta, p_value,
                                                             w.t)
        ratio = min(a * w.t, p_value * A) / w.t**p_value
        assert 0.0 < spec.c2 < 1.0
        assert ratio == pytest.approx(spec.c2, rel=1e-8)


def test_witnesses_name_one_node_of_a_rectangle():
    """On a 13 x 13 rectangle 13 nodes share each x1, so a witness carries
    both coordinates of the node where its hypothesis fails."""
    grid = build_grid(Domain("rectangle", a=2.0, b=1.0), 13)
    weak, heavy = 13 * 4 + 9, 13 * 7 + 2
    theta = np.full(grid.size, 1.5)
    theta[weak] = 0.5
    alpha = np.full(grid.size, 0.5)
    alpha[heavy] = 2.0
    spec = make_power_family(theta, affine_exponent(grid, 2.5, 0.5))
    nl = builtin_nonlinearity("const:1", grid, constant_exponent(grid, 1.5),
                              xi=1.0, alpha=alpha)
    report = verify_hypotheses(spec, nl)
    assert report.status["H4"] == report.status["H5"] == "fail"
    for name, k in (("H4", weak), ("H5", heavy)):
        w = report.witnesses[name]
        assert w.x == tuple(grid.nodes[k])
        assert np.flatnonzero(np.all(grid.nodes == w.x, axis=1)) == [k]
    assert json.loads(json.dumps(asdict(report.witnesses["H4"])))["x"] == \
        list(grid.nodes[weak])

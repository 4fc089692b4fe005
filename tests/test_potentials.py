"""Potential families, growth constants and the hypothesis checker."""

import json
from dataclasses import asdict, replace
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
    PotentialSpec,
    _h5_excess,
    builtin_nonlinearity,
    make_perturbed_family,
    make_power_family,
    verify_hypotheses,
)

from conftest import spike_g, spike_lip


@pytest.fixture(scope="module")
def grid():
    return build_grid(Domain("interval"), 33)


def test_power_family_closed_form_constants(grid):
    p = constant_exponent(grid, 2.0)
    spec = make_power_family(1.0, p)
    assert spec.c1 == 1.0
    assert spec.c2 == 1.0
    assert spec.c3 == 0.5  # theta_max / p_minus
    assert np.all(spec.d == 0.0)


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
    # e = p/(p-2), faster than |t|^{p-1}, and c1 = c3 = inf; the bounds are
    # checked where both are finite, p < 2 and p > 3 + sqrt 5
    spec = make_perturbed_family(1.0, constant_exponent(grid, 3.0),
                                 "paper_literal")
    assert spec.c1 == spec.c3 == np.inf
    t = np.linspace(-10, 10, 201)
    t = t[t != 0]
    for p_value in (1.5, 1.8, 5.5, 8.0):
        spec = make_perturbed_family(1.0, constant_exponent(grid, p_value),
                                     "paper_literal")
        assert np.isfinite(spec.c1) and np.isfinite(spec.c3)
        a_vals = spec.a_eval(1.0, p_value, t)
        A_vals = spec.A_eval(1.0, p_value, t)
        assert np.all(np.abs(a_vals) <=
                      spec.c1 * (spec.d[0] + np.abs(t) ** (p_value - 1.0)))
        assert np.all(np.abs(A_vals) <=
                      spec.c3 * (np.abs(t) + np.abs(t) ** p_value))


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
        family="power", theta=np.ones(grid.size), p=p, variant=None,
        c1=2.0, c2=1.0, c3=1.0, d=np.ones(grid.size),
        a_eval=lambda th, pv, t: th * (t - t**3),
        A_eval=lambda th, pv, t: th * (t**2 / 2 - t**4 / 4),
    )
    report = verify_hypotheses(spec, None)
    assert report.status == {"H1": "pass", "H2": "unverifiable",
                             "H3": "unverifiable", "H4": "unverifiable",
                             "H5": "unverifiable"}
    assert report.witnesses == {}


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
    """power's c1 = max(1, theta+), c2 = min(1, theta-), c3 = theta+ / p-
    and d = 0; d = 1 for the perturbed families; every family's a_t_min."""
    grid = build_grid(*PARITY_DOMAINS[domain])
    p = PARITY_EXPONENTS[exponent](grid)
    theta = 0.7 + grid.x1 if per_node else 1.3
    spec = (make_power_family(theta, p) if family == "power"
            else make_perturbed_family(theta, p, family))
    if family == "power":
        th = spec.theta
        assert (spec.c1, spec.c2, spec.c3) == (
            max(1.0, th.max()), min(1.0, th.min()), th.max() / p.p_minus)
    assert np.array_equal(spec.d, np.full(grid.size,
                                          float(family != "power")))
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
    """c1 and c3 are >= and c2 <= every ratio of a and A as the family
    evaluates them on |t| in [1e-8, 1e8] (up to 1e-12 relative rounding),
    and each is within 1e-6 relative of the extreme of a dense log-space
    sample of |t| in [1e-150, 1e150], or 1e-12 absolute where that extreme
    is a limit 0; c1 and c3 are inf exactly where a ratio grows without
    bound."""
    grid = build_grid(Domain("interval"), 11)
    p = RATIO_EXPONENTS[exponent](grid, p0)
    theta = 0.8 + 0.5 * grid.x1
    spec = make_perturbed_family(theta, p, variant)
    th, pv = theta[:, None], p.values[:, None]
    t = np.geomspace(1e-8, 1e8, 20001)
    with np.errstate(over="ignore", invalid="ignore"):
        a, A = spec.a_eval(th, pv, t), spec.A_eval(th, pv, t)
        ratios = [np.abs(a) / (1.0 + t ** (pv - 1.0)),
                  np.abs(A) / (t + t**pv),
                  np.minimum(a * t, pv * A) / t**pv]
    # a ratio overflows only where it grows without bound
    ratios = [np.nan_to_num(r, nan=np.inf) for r in ratios]
    assert np.all(ratios[0] <= spec.c1 * (1.0 + 1e-12))
    assert np.all(ratios[1] <= spec.c3 * (1.0 + 1e-12))
    assert np.all(ratios[2] >= spec.c2 * (1.0 - 1e-12))
    e = (p.values / (p.values - 2.0) if variant == "paper_literal"
         else (p.values - 2.0) / 2.0)
    for got, want in zip((spec.c1, spec.c3, spec.c2),
                         dense_extremes(theta, p.values, e)):
        assert got == pytest.approx(want, rel=1e-6, abs=1e-12)


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
    g, G, zeros, knots = tabulated_g(H5_TABLES[table])
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

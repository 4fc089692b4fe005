"""Potential families, growth constants and the hypothesis checker."""

from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from pxbiharm.config import build_problem, load_config
from pxbiharm.exponents import (
    affine_exponent,
    constant_exponent,
    tabulated_exponent,
)
from pxbiharm.grids import Domain, build_grid
from pxbiharm.potentials import (
    PotentialSpec,
    _t_grid,
    builtin_nonlinearity,
    d_norm_conjugate,
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
    p = constant_exponent(grid, 3.0)
    spec = make_perturbed_family(1.0, p, "paper_literal")
    t = np.linspace(-10, 10, 201)
    t = t[t != 0]
    a_vals = spec.a_eval(spec.theta[:1], p.values[:1], t)
    A_vals = spec.A_eval(spec.theta[:1], p.values[:1], t)
    assert np.all(np.abs(a_vals) <=
                  spec.c1 * (spec.d[0] + np.abs(t) ** 2.0) + 1e-9)
    assert np.all(np.abs(A_vals) <=
                  spec.c3 * (np.abs(t) + np.abs(t) ** 3.0) + 1e-9)


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


def test_hypotheses_record_monotonicity_failure(grid):
    # deliberately non-monotone a(t) = t - t^3 must fail H3 with a witness
    p = constant_exponent(grid, 2.0)
    spec = PotentialSpec(
        family="power", theta=np.ones(grid.size), p=p, variant=None,
        c1=2.0, c2=1.0, c3=1.0, d=np.ones(grid.size),
        a_eval=lambda th, pv, t: th * (t - t**3),
        A_eval=lambda th, pv, t: th * (t**2 / 2 - t**4 / 4),
    )
    report = verify_hypotheses(spec, None)
    assert report.status["H3"] == "fail"
    w = report.witnesses["H3"]
    assert w.lhs <= 0.0  # the recorded product violates monotonicity


def t_subsample():
    t = _t_grid()
    return t[:: max(1, len(t) // 40)]


def h3_all_pairs(spec):
    """The reference: (a(x, t) - a(x, s))(t - s) > 0 for every node and
    every pair t != s of the subsampled t-grid."""
    t_sub = t_subsample()
    a_sub = spec.a_eval(spec.theta[:, None], spec.p.values[:, None],
                        t_sub[None, :])
    diff_a = a_sub[:, :, None] - a_sub[:, None, :]
    diff_t = t_sub[None, :, None] - t_sub[None, None, :]
    ok = (diff_a * diff_t > 0.0) | (np.abs(diff_t) < 1e-12)
    return "pass" if np.all(ok) else "fail"


def scalar_potential(grid, a):
    """theta = 1, p = 2 and a(x, t) = a(t)."""
    return PotentialSpec(
        family="power", theta=np.ones(grid.size),
        p=constant_exponent(grid, 2.0), variant=None,
        c1=2.0, c2=1.0, c3=1.0, d=np.ones(grid.size),
        a_eval=lambda th, pv, t: th * a(t),
        A_eval=lambda th, pv, t: th * t**2 / 2)


H3_FAMILIES = {
    "power_p2": lambda g: make_power_family(1.0, constant_exponent(g, 2.0)),
    "power_affine": lambda g: make_power_family(
        1.0 + g.x1, affine_exponent(g, 1.5, 2.0)),
    "perturbed_standard": lambda g: make_perturbed_family(
        1.2, affine_exponent(g, 2.5, 0.5)),
    "perturbed_literal": lambda g: make_perturbed_family(
        1.0, constant_exponent(g, 3.0), "paper_literal"),
    "t_minus_t3": lambda g: scalar_potential(g, lambda t: t - t**3),
    # increasing at both ends of [-10, 10], decreasing where cos t > 1/3:
    # the first failing pair of the all-pairs order is not a neighbouring one
    "t_minus_3sin": lambda g: scalar_potential(g, lambda t: t - 3 * np.sin(t)),
    "flat": lambda g: scalar_potential(g, lambda t: 0.0 * t),
}


@pytest.mark.parametrize("family", sorted(H3_FAMILIES))
def test_h3_neighbouring_pairs_match_every_pair(grid, family):
    spec = H3_FAMILIES[family](grid)
    report = verify_hypotheses(spec, None)
    assert report.status["H3"] == h3_all_pairs(spec)
    if report.status["H3"] == "fail":
        # the witness is a neighbouring pair of the subsample that violates
        # strict monotonicity
        w = report.witnesses["H3"]
        t_sub = t_subsample()
        j = int(np.searchsorted(t_sub, w.t))
        assert (t_sub[j], t_sub[j + 1]) == (w.t, w.s)
        a_t, a_s = spec.a_eval(1.0, 2.0, np.array([w.t, w.s]))
        assert w.lhs == (a_s - a_t) * (w.s - w.t) <= 0.0


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


def test_unknown_builtin_rejected(grid):
    q = constant_exponent(grid, 1.5)
    with pytest.raises(ValueError):
        builtin_nonlinearity("sawtooth", grid, q)


def test_d_norm_is_zero_for_power_family(grid):
    p = constant_exponent(grid, 2.0)
    spec = make_power_family(1.0, p)
    assert d_norm_conjugate(spec) == 0.0


def test_d_norm_for_unit_weight(grid):
    # d = 1 on [0,1] with conjugate exponent 2: |1|_2 = 1
    p = constant_exponent(grid, 2.0)
    spec = make_perturbed_family(1.0, p, "standard")
    assert d_norm_conjugate(spec) == pytest.approx(1.0, rel=1e-10)


def test_tsampler_grid_contains_origin_and_extremes():
    t = _t_grid()
    assert 0.0 in t
    assert t.min() == -10.0 and t.max() == 10.0
    assert np.all(np.diff(t) > 0)
    # 81 linear points (0 among them) and 25 log points a side, which
    # share only the ends +-10
    assert t.size == 81 + 2 * 25 - 2


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


def dispatched_growth_constants(spec, T=10.0, n_linear=81, n_log=25):
    """The reference: (c1, c2, c3, d) as they were computed after each
    family was built, by one function that dispatched on spec.family:
    closed forms for `power`; otherwise a fit on the nonzero t of a grid of
    n_linear points on [-T, T] refined by n_log log-spaced points a side,
    widened by 5% (c1, c3 up, c2 down)."""
    if spec.family == "power":
        theta_max = float(spec.theta.max())
        return (max(1.0, theta_max), min(1.0, float(spec.theta.min())),
                theta_max / spec.p.p_minus, np.zeros(spec.p.grid.size))
    lin = np.linspace(-T, T, n_linear)
    logs = np.geomspace(1e-8, T, n_log)
    t = np.unique(np.concatenate([lin, logs, -logs, [0.0]]))
    tt = t[t != 0.0][None, :]
    th, pv = spec.theta[:, None], spec.p.values[:, None]
    a_vals = spec.a_eval(th, pv, tt)
    A_vals = spec.A_eval(th, pv, tt)
    c1 = float(np.max(np.abs(a_vals) / (1.0 + np.abs(tt) ** (pv - 1.0))))
    c3 = float(np.max(np.abs(A_vals) / (np.abs(tt) + np.abs(tt) ** pv)))
    c2 = float(np.min(
        np.minimum(a_vals * tt, pv * A_vals) / np.abs(tt) ** pv))
    return c1 * 1.05, c2 * 0.95, c3 * 1.05, np.ones(spec.p.grid.size)


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
def test_builders_match_the_dispatched_growth_constants(domain, exponent,
                                                        per_node, family):
    grid = build_grid(*PARITY_DOMAINS[domain])
    p = PARITY_EXPONENTS[exponent](grid)
    theta = 0.7 + grid.x1 if per_node else 1.3
    spec = (make_power_family(theta, p) if family == "power"
            else make_perturbed_family(theta, p, family))
    c1, c2, c3, d = dispatched_growth_constants(spec)
    assert (spec.c1, spec.c2, spec.c3) == (c1, c2, c3)
    assert np.array_equal(spec.d, d)
    assert np.array_equal(spec.a_t_min,
                          reference_a_t_min(family, spec.theta, p.values))

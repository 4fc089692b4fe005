"""Leray-Lions potential families a(x,t), antiderivatives A(x,t), growth
constants, and the structural-hypothesis checker.

Built-in families:
  * power:            a = theta(x) |t|^{p(x)-2} t      (closed-form A)
  * perturbed_power:  a = theta(x) (1+t^2)^e t with e = (p-2)/2 ("standard")
                      or e = p/(p-2) ("paper_literal", singular at p = 2);
                      A = theta ((1+t^2)^{e+1} - 1) / (2(e+1)) in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exponents import ExponentField
from .grids import nodewise

__all__ = [
    "PotentialSpec",
    "NonlinearitySpec",
    "HypothesisReport",
    "make_power_family",
    "make_perturbed_family",
    "verify_hypotheses",
    "builtin_nonlinearity",
]

#: relative slack (as a factor e^{+-slack}) on every extreme of a growth
#: ratio: it covers the floating-point error of a root and of the ratio
#: evaluated there, and a limit's overshoot past the bracketing grid (see
#: _ratio_extremes).  The closed forms take none
_EXTREMUM_SLACK = 1e-9
#: slack of the H1 and H5 comparisons
_TOL = 1e-9


@dataclass
class PotentialSpec:
    """A potential family with its antiderivative and growth data.

    a_eval / A_eval take (theta_node, p_node, t) and are vectorized; the
    nodewise wrappers `a` and `A` broadcast over the grid, with the nodes
    on t's leading axis (one column per further index, as x[:, None]).
    a_t_min holds inf_t d/dt a(x, t) per node in closed form, None where
    it is unknown.  witnesses maps H2, H3 and H4 to the Witness where the
    family's c1, a_t_min and c2 are attained, which verify_hypotheses
    reports when that hypothesis fails; it is None for a hand-built spec,
    whose H2-H4 cannot be verified.
    """

    family: str
    theta: np.ndarray
    p: ExponentField
    variant: str | None
    c1: float
    c2: float
    c3: float
    d: np.ndarray
    a_eval: callable = field(repr=False, default=None)
    A_eval: callable = field(repr=False, default=None)
    a_t_min: np.ndarray = field(repr=False, default=None)
    witnesses: dict | None = field(repr=False, default=None)

    def a(self, t) -> np.ndarray:
        """a(x, t) at every node; t is a scalar or has the nodes on its
        leading axis."""
        t = np.asarray(t, float)
        return self.a_eval(nodewise(self.theta, t),
                           nodewise(self.p.values, t), t)

    def A(self, t) -> np.ndarray:
        t = np.asarray(t, float)
        return self.A_eval(nodewise(self.theta, t),
                           nodewise(self.p.values, t), t)


@dataclass
class NonlinearitySpec:
    """Caratheodory right-hand side f(x, t) = alpha(x) g(t) with
    antiderivative F(x, t) = alpha(x) G(t), and the growth data of the
    |f| <= xi(x) + zeta |t|^{q(x)-1} bound.  alpha has one value per node;
    `f` and `F` evaluate at every node, with the nodes on t's leading axis
    (one column per further index), as PotentialSpec.a.  lip is
    sup |g'|, None where it is unknown.  knots = (t, v, slope) is a function
    of |t|, linear between the knots 0 = t_0 < t_1 < ..., flat past the
    last (slope[j] on [t_j, t_j+1], 0 past the last), whose absolute value
    bounds |g| and equals it where |g| peaks: g itself for a table, the
    constant |g(0)| for a built-in g.  H5 is checked on it exactly; None
    leaves H5 unverifiable."""

    name: str
    alpha: np.ndarray
    g: callable = field(repr=False)
    G: callable = field(repr=False)
    xi: np.ndarray = None
    zeta: float = 1.0
    q: ExponentField = None
    zeros: np.ndarray | None = None  # the t where g changes sign
    lip: float | None = None
    knots: tuple | None = field(repr=False, default=None)

    def f(self, t) -> np.ndarray:
        t = np.asarray(t, float)
        return nodewise(self.alpha, t) * self.g(t)

    def F(self, t) -> np.ndarray:
        t = np.asarray(t, float)
        return nodewise(self.alpha, t) * self.G(t)

    def F_range(self, lo: float, hi: float):
        """Per-node (min, max) of F(x, .) over [lo, hi]: G is monotone
        between the zeros of g, so its extremes lie at lo, hi or a zero."""
        if self.zeros is None:
            raise ValueError(f"the {self.name!r} load declares no zeros of "
                             f"g, so the range of F is unknown")
        inside = self.zeros[(self.zeros > lo) & (self.zeros < hi)]
        G = self.G(np.concatenate([[lo, hi], inside]))
        lo_F, hi_F = self.alpha * np.min(G), self.alpha * np.max(G)
        return np.minimum(lo_F, hi_F), np.maximum(lo_F, hi_F)


@dataclass(frozen=True)
class Witness:
    """Where a hypothesis fails: the node x, the t there, and the two sides
    of its inequality.  x is the node's coordinate on an interval or a
    ball (its radius) and its (x1, x2) on a rectangle, so it names one
    node.  t = "inf" (which JSON can hold) stands for the limit
    |t| -> infinity, where lhs and rhs are the growth exponents in |t| of
    the two sides."""

    x: float | tuple
    t: float | str
    lhs: float
    rhs: float


def _witness(node, t, lhs, rhs) -> Witness:
    """The Witness at node, a row of `Grid.nodes`."""
    x = float(node) if np.ndim(node) == 0 else tuple(map(float, node))
    return Witness(x, "inf" if t == np.inf else float(t), float(lhs),
                   float(rhs))


@dataclass
class HypothesisReport:
    status: dict          # name -> "pass" | "fail" | "unverifiable"
    witnesses: dict       # name -> Witness for failures

    @property
    def all_pass(self) -> bool:
        return all(v == "pass" for v in self.status.values())


def _power_a(theta, p, t):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = theta * np.abs(t) ** (p - 2.0) * t
    return np.where(np.asarray(t) == 0.0, 0.0, out)


def _power_A(theta, p, t):
    return theta * np.abs(t) ** p / p


def make_power_family(theta, p: ExponentField) -> PotentialSpec:
    """a = theta |t|^{p-2} t with closed-form antiderivative and constants:
    c1 = max(1, theta+), c2 = min(1, theta-), c3 = theta+ / p- and d = 0."""
    theta = np.broadcast_to(np.asarray(theta, float), (p.grid.size,)).copy()
    if np.any(theta <= 0):
        raise ValueError("theta must be strictly positive")
    theta_max = float(theta.max())
    # d/dt a = theta (p-1) |t|^{p-2}: theta at p = 2, else its inf is 0, at
    # t = 0 for p > 2 and as |t| -> inf for p < 2
    a_t_min = np.where(p.values == 2.0, theta, 0.0)
    x, pv = p.grid.nodes, p.values
    i, j = int(np.argmin(theta)), int(np.argmin(a_t_min))
    return PotentialSpec(
        family="power",
        theta=theta,
        p=p,
        variant=None,
        c1=max(1.0, theta_max),
        c2=min(1.0, float(theta.min())),
        c3=theta_max / p.p_minus,
        d=np.zeros(p.grid.size),
        a_eval=_power_a,
        A_eval=_power_A,
        a_t_min=a_t_min,
        # |a| grows like the bound, and min(a t, p A) = theta |t|^p at every t
        witnesses={"H2": _witness(x[i], np.inf, pv[i] - 1.0, pv[i] - 1.0),
                   "H3": _witness(x[j], 0.0 if pv[j] >= 2.0 else np.inf,
                                  a_t_min[j], 0.0),
                   "H4": _witness(x[i], 1.0, min(1.0, theta[i]), 1.0)},
    )


def _perturbed_exponent(p, variant):
    if variant == "paper_literal":
        return p / (p - 2.0)
    return (p - 2.0) / 2.0


def _perturbed_slope_min(e):
    """(inf, argmin |t|) over t of (1+t^2)^{e-1} (1 + (2e+1) t^2), the
    slope of (1+t^2)^e t.  In s = t^2 its derivative has the sign of
    e (3 + (2e+1) s): for e >= 0 the inf is 1 at s = 0; for -1/2 <= e < 0
    it is the limit 0 as s -> inf; for e < -1/2 the minimum is at the dip
    s = -3/(2e+1), where it is -2 (2(e-1)/(2e+1))^{e-1} < 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        dip = -2.0 * (2.0 * (e - 1.0) / (2.0 * e + 1.0)) ** (e - 1.0)
        dip_t = np.sqrt(-3.0 / (2.0 * e + 1.0))
    return (np.where(e >= 0.0, 1.0, np.where(e < -0.5, dip, 0.0)),
            np.where(e >= 0.0, 0.0, np.where(e < -0.5, dip_t, np.inf)))


# Each growth ratio of a = theta (1+s)^e t, with s = t^2 and d = 1, is per
# unit theta a numerator, a t = s (1+s)^e or A = ((1+s)^w - 1) / (2w) with
# w = e + 1, over a denominator, |t| + |t|^p or |t|^p:
#   kind 0, c1   |a| / (1 + |t|^{p-1}) = a t / (|t| + |t|^p)    sup
#   kind 1, c3   |A| / (|t| + |t|^p)                           sup
#   kind 2, c2   a t / |t|^p                                   inf
#   kind 3, c2   p A / |t|^p                                   inf
# and c2 takes the lower inf.  Their derivatives d log / d log s are 1 + e
# sigma and phi for the numerators, 1/2 + k tau and p/2 for the
# denominators, with sigma = s/(1+s), phi = w sigma / (1 - (1+s)^{-w})
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


def make_perturbed_family(theta, p: ExponentField,
                          variant: str = "standard") -> PotentialSpec:
    """a = theta (1+t^2)^e t; A in closed form; c1, c2 and c3 the exact
    extremes of their ratios (_ratio_extremes), computed once per distinct
    p, with d = 1."""
    if variant not in ("standard", "paper_literal"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "paper_literal" and np.any(np.abs(p.values - 2.0) < 1e-12):
        raise ValueError("paper_literal variant has a singular exponent at p = 2")
    theta = np.broadcast_to(np.asarray(theta, float), (p.grid.size,)).copy()
    if np.any(theta <= 0):
        raise ValueError("theta must be strictly positive")

    def a_eval(th, pv, t):
        e = _perturbed_exponent(pv, variant)
        return th * (1.0 + t**2) ** e * t

    def A_eval(th, pv, t):
        # theta ((1+t^2)^{e+1} - 1) / (2(e+1)), in a form that keeps its
        # relative accuracy as t -> 0 (the plain form rounds to 0 at 1e-8)
        e1 = _perturbed_exponent(pv, variant) + 1.0
        return th * np.expm1(e1 * np.log1p(t**2)) / (2.0 * e1)

    pu, inv = np.unique(p.values, return_inverse=True)
    e = _perturbed_exponent(pu, variant)
    if variant == "standard":
        # e + 1 - p/2 = 0: every ratio has a finite limit as t -> inf.
        # Both c2 ratios, (1 + 1/s)^e and ((1+s)^{p/2} - 1) / s^{p/2}, fall
        # in s to 1 for p >= 2, and rise from 0 for p < 2
        ratio = _ratio_extremes(pu, e, np.zeros_like(pu), [0, 1])[0]
        c2_ratio = np.where(pu >= 2.0, 1.0, 0.0)
        c2_at = np.where(pu >= 2.0, np.inf, 0.0)
    else:
        ratio, at = _ratio_extremes(
            pu, e, (6.0 * pu - pu**2 - 4.0) / (2.0 * (pu - 2.0)),
            [0, 1, 2, 3])
        lower = ratio[2] <= ratio[3]
        c2_ratio = np.where(lower, ratio[2], ratio[3])
        c2_at = np.where(lower, at[2], at[3])
    c1_nodes, c3_nodes = theta * ratio[0][inv], theta * ratio[1][inv]
    c2_nodes = theta * c2_ratio[inv]
    slope_min, slope_at = _perturbed_slope_min(e)
    a_t_min = theta * slope_min[inv]
    x = p.grid.nodes
    i, j, k = (int(np.argmax(c1_nodes)), int(np.argmin(a_t_min)),
               int(np.argmin(c2_nodes)))
    return PotentialSpec(
        family="perturbed_power",
        theta=theta,
        p=p,
        variant=variant,
        c1=float(c1_nodes[i]),
        c2=float(c2_nodes[k]),
        c3=float(c3_nodes.max()),
        d=np.ones(p.grid.size),
        a_eval=a_eval,
        A_eval=A_eval,
        a_t_min=a_t_min,
        # c1 is finite unless its ratio diverges as |t| -> inf, where |a|
        # grows like |t|^{2e+1} and the H2 bound like |t|^{p-1}
        witnesses={
            "H2": _witness(x[i], np.inf, 2.0 * e[inv[i]] + 1.0,
                           p.values[i] - 1.0),
            "H3": _witness(x[j], slope_at[inv[j]], a_t_min[j], 0.0),
            "H4": _witness(x[k], c2_at[inv[k]], c2_nodes[k], 1.0)},
    )


def _h5_excess(nl: NonlinearitySpec):
    """Per node, the sup over t of |alpha g(t)| - zeta |t|^{q-1} on the
    load's knots and a |t| where it is attained, computed once per distinct
    (|alpha|, q).  On a segment |g| is convex, and so is -zeta t^{q-1} for
    q <= 2: the sup is at a knot.  For q > 2 the excess is concave where |g|
    is linear, and each segment adds its critical point
    (|alpha slope| / (zeta (q-1)))^{1/(q-2)}, clipped into it.  Past the last
    knot g is flat and the excess falls."""
    t, v, slope = nl.knots
    # the (|alpha|, q) pairs as complex numbers, which np.unique orders and
    # compares as pairs
    pairs, inv = np.unique(np.abs(nl.alpha) + 1j * nl.q.values,
                           return_inverse=True)
    alpha, q = pairs.real[:, None], pairs.imag[:, None]
    cand = np.broadcast_to(t, (pairs.size, t.size))
    if nl.zeta > 0.0 and np.any(q > 2.0):
        with np.errstate(divide="ignore", over="ignore"):
            crit = (alpha * np.abs(slope) / (nl.zeta * (q - 1.0))) \
                ** (1.0 / (q - 2.0))
        crit = np.clip(crit, t, np.append(t[1:], np.inf))
        cand = np.concatenate([cand, np.where(q > 2.0, crit, t)], axis=1)
    excess = alpha * np.abs(np.interp(cand, t, v)) \
        - nl.zeta * cand ** (q - 1.0)
    best = np.argmax(excess, axis=1)[:, None]
    return (np.take_along_axis(excess, best, 1)[inv, 0],
            np.take_along_axis(cand, best, 1)[inv, 0])


def verify_hypotheses(spec: PotentialSpec,
                      nl: NonlinearitySpec | None) -> HypothesisReport:
    """The structural hypotheses, read from the declared data with no
    sampling: H1 from a(x, 0); H2 from c1 being finite; H3, strict
    monotonicity of t -> a(x, t), from a_t_min >= 0 (the built-in families'
    slope vanishes only at isolated t); H4 from c2 >= 1; H5 exactly on the
    load's knots (`_h5_excess`), with q+ < p-.  H2-H4 of a hand-built spec
    (no witnesses) and H5 of a load without xi or knots are "unverifiable".
    Failures are data, not errors; each carries a witness.
    """
    x = spec.p.grid.nodes
    a0 = spec.a_eval(spec.theta, spec.p.values, 0.0)
    i = int(np.argmax(np.abs(a0)))
    checks = {"H1": (abs(a0[i]) <= _TOL, _witness(x[i], 0.0, a0[i], 0.0))}
    if spec.witnesses is not None:
        checks["H2"] = (np.isfinite(spec.c1), spec.witnesses["H2"])
        checks["H3"] = (np.all(spec.a_t_min >= 0.0), spec.witnesses["H3"])
        checks["H4"] = (spec.c2 >= 1.0, spec.witnesses["H4"])
    if nl is not None and nl.xi is not None and nl.knots is not None:
        excess, t = _h5_excess(nl)
        j = int(np.argmax(excess - nl.xi))
        bound = nl.zeta * t[j] ** (nl.q.values[j] - 1.0)
        checks["H5"] = (excess[j] <= nl.xi[j] + _TOL, _witness(
            x[j], t[j], excess[j] + bound, nl.xi[j] + bound))
        if checks["H5"][0] and not nl.q.p_plus < spec.p.p_minus:
            checks["H5"] = (False, _witness(x[0], 0.0, nl.q.p_plus,
                                            spec.p.p_minus))

    status, witnesses = {}, {}
    for name in ("H1", "H2", "H3", "H4", "H5"):
        ok, witness = checks.get(name, (None, None))
        status[name] = ("unverifiable" if ok is None
                        else "pass" if ok else "fail")
        if status[name] == "fail":
            witnesses[name] = witness
    return HypothesisReport(status, witnesses)


# ---------------------------------------------------------------------------
# built-in nonlinearities

def _const_field(grid, v):
    return np.broadcast_to(np.asarray(v, float), (grid.size,)).copy()


#: (g, G, sup|g|, sup|g'|) of each built-in load with a fixed g; both have
#: g > 0, peaking at t = 0.  |g'| = 2|t|/(1+t^2)^2 peaks at t = 1/sqrt(3),
#: and e^{-|t|} <= 1
_BUILTIN_G = {
    "rational_bump": (lambda t: 1.0 / (1.0 + t**2) + 1.0,
                      lambda t: np.arctan(t) + t, 2.0, 3.0 * np.sqrt(3.0) / 8),
    "exp_abs": (lambda t: np.exp(-np.abs(t)) + 1.0,
                lambda t: np.sign(t) * (1.0 - np.exp(-np.abs(t))) + t, 2.0,
                1.0),
}


def builtin_nonlinearity(name: str, grid, q: ExponentField,
                         xi=None, zeta: float = 1.0,
                         alpha=None, g=None, G=None,
                         zeros=None, knots=None) -> NonlinearitySpec:
    """Right-hand sides alpha(x) g(t); the fixed g all have g(0) != 0.

    Names: "const:<c>" (g = c), "rational_bump" (1/(1+t^2) + 1),
    "exp_abs" (e^{-|t|} + 1), "separable" (the given g, G, and the t
    where g changes sign as `zeros`, which `F_range` reads).  alpha is a
    number or one value per node and defaults to 1; xi defaults to
    max|alpha| sup|g| for a fixed g and to None (H5 unverifiable).  A fixed
    g, whose |g| peaks at 0 and does not increase in |t|, carries the knots
    of the constant |g(0)| and its Lipschitz constant `lip`.  A separable g
    that is piecewise linear passes its `knots` (see NonlinearitySpec) and
    gets lip = max|slope|; any other declares lip with dataclasses.replace,
    or leaves it unknown.
    """
    if zeta < 0.0:
        raise ValueError(f"zeta must be nonnegative, got {zeta!r}")
    sup_g = lip = None
    if name.startswith("const:"):
        c = float(name.split(":", 1)[1])
        g, G = lambda t: np.full(np.shape(t), c), lambda t: c * t
        sup_g, lip = abs(c), 0.0
    elif name in _BUILTIN_G:
        g, G, sup_g, lip = _BUILTIN_G[name]
    elif name != "separable":
        raise ValueError(f"unknown builtin nonlinearity {name!r}")
    if g is None or G is None:
        raise ValueError("separable nonlinearity needs g and G")
    alpha = _const_field(grid, 1.0 if alpha is None else alpha)
    if sup_g is not None:  # a fixed g never changes sign
        zeros, knots = (), (np.zeros(1), np.full(1, sup_g), np.zeros(1))
        if xi is None:
            xi = float(np.max(np.abs(alpha))) * sup_g
    elif knots is not None:
        lip = float(np.max(np.abs(knots[2])))
    return NonlinearitySpec(
        name=name, alpha=alpha, g=g, G=G,
        xi=None if xi is None else _const_field(grid, xi), zeta=zeta, q=q,
        zeros=None if zeros is None else np.asarray(zeros, float), lip=lip,
        knots=knots)

"""Leray-Lions potential families a(x,t), antiderivatives A(x,t), growth
constants, and the structural-hypothesis checker.

Built-in families:
  * power:            a = theta(x) |t|^{p(x)-2} t      (closed-form A)
  * perturbed_power:  a = theta(x) (1+t^2)^e t with e = (p-2)/2 ("standard")
                      or e = p/(p-2) ("paper_literal", singular at p = 2);
                      A = theta ((1+t^2)^{e+1} - 1) / (2(e+1)) in closed form.
Each family declares its slope a_t = d/dt a and builds its growth constant
c2 in closed form as well; no slope or growth constant is found by a
numeric search.  Each load declares g' next to g and G.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exponents import ExponentField
from .grids import nodal_field, nodewise

__all__ = [
    "PotentialSpec",
    "NonlinearitySpec",
    "HypothesisReport",
    "make_power_family",
    "make_perturbed_family",
    "verify_hypotheses",
    "builtin_nonlinearity",
]

#: slack of the H1 and H5 comparisons
_TOL = 1e-9
#: |t| below which the power family's slope theta (p-1) |t|^{p-2} is taken
#: at |t| = SLOPE_FLOOR: it is singular at t = 0 for p < 2 and vanishes
#: there for p > 2, and the floor keeps the Newton Hessian regular at
#: Lu = 0 for every p
SLOPE_FLOOR = 1e-6


@dataclass
class PotentialSpec:
    """A potential family with its antiderivative and growth data.

    a_eval / a_t_eval / A_eval take (theta_node, p_node, t) and are
    vectorized; the nodewise wrappers `a`, `a_t` (d/dt a, in closed form)
    and `A` broadcast over the grid, with the nodes on t's leading axis
    (one column per further index, as x[:, None]).  A hand-built spec
    without a_t_eval cannot be solved: the Newton Hessian reads a_t.
    a_t_min holds inf_t d/dt a(x, t) per node in closed form, None where it
    is unknown; growth holds per node the exponent of |t| in the growth of
    |a| / |t|^{p-1} as |t| -> inf, so H2's constant c1 is infinite
    exactly where it is positive.  witnesses maps H2, H3 and H4 to the
    Witness where growth, a_t_min and c2 fail first or are attained, which
    verify_hypotheses reports when that hypothesis fails; it is None for a
    hand-built spec, whose H2-H4 cannot be verified.
    """

    family: str
    theta: np.ndarray
    p: ExponentField
    c2: float
    a_eval: callable = field(repr=False, default=None)
    A_eval: callable = field(repr=False, default=None)
    a_t_eval: callable = field(repr=False, default=None)
    a_t_min: np.ndarray = field(repr=False, default=None)
    growth: np.ndarray = field(repr=False, default=None)
    witnesses: dict | None = field(repr=False, default=None)

    def _at_nodes(self, kernel, t) -> np.ndarray:
        t = np.asarray(t, float)
        return kernel(nodewise(self.theta, t), nodewise(self.p.values, t), t)

    def a(self, t) -> np.ndarray:
        """a(x, t) at every node; t is a scalar or has the nodes on its
        leading axis."""
        return self._at_nodes(self.a_eval, t)

    def a_t(self, t) -> np.ndarray:
        """d/dt a(x, t) at every node, as `a`."""
        if self.a_t_eval is None:
            raise ValueError(f"this {self.family!r} spec declares no a_t "
                             f"(a_t_eval), so the slope of a is unknown")
        return self._at_nodes(self.a_t_eval, t)

    def A(self, t) -> np.ndarray:
        return self._at_nodes(self.A_eval, t)


@dataclass
class NonlinearitySpec:
    """Caratheodory right-hand side f(x, t) = alpha(x) g(t) with
    antiderivative F(x, t) = alpha(x) G(t), and the growth data of the
    |f| <= xi(x) + zeta |t|^{q(x)-1} bound.  alpha has one value per node;
    `f` and `F` evaluate at every node, with the nodes on t's leading axis
    (one column per further index), as PotentialSpec.a, and so does
    `f_t` = alpha g', where the load declares g' as `dg`.  lip is
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
    dg: callable | None = field(repr=False, default=None)
    xi: np.ndarray = None
    zeta: float = 1.0
    q: ExponentField = None
    zeros: np.ndarray | None = None  # the t where g changes sign
    lip: float | None = None
    knots: tuple | None = field(repr=False, default=None)

    def _at_nodes(self, fn, t) -> np.ndarray:
        t = np.asarray(t, float)
        return nodewise(self.alpha, t) * fn(t)

    def f(self, t) -> np.ndarray:
        return self._at_nodes(self.g, t)

    def F(self, t) -> np.ndarray:
        return self._at_nodes(self.G, t)

    def f_t(self, t) -> np.ndarray:
        """d/dt f(x, t) = alpha(x) g'(t)."""
        if self.dg is None:
            raise ValueError(f"the {self.name!r} load declares no g' (dg), "
                             f"so the slope of f is unknown")
        return self._at_nodes(self.dg, t)

    def F_sup(self, lo: float, hi: float) -> np.ndarray:
        """Per-node sup of F(x, .) over [lo, hi]: G is monotone between the
        zeros of g, so its extremes lie at lo, hi or a zero."""
        if self.zeros is None:
            raise ValueError(f"the {self.name!r} load declares no zeros of "
                             f"g, so the sup of F is unknown")
        inside = self.zeros[(self.zeros > lo) & (self.zeros < hi)]
        G = self.G(np.concatenate([[lo, hi], inside]))
        return np.maximum(self.alpha * np.min(G), self.alpha * np.max(G))


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
    # an a past the largest float is inf, which the solver's residual
    # checks stop on
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = theta * np.abs(t) ** (p - 2.0) * t
    return np.where(np.asarray(t) == 0.0, 0.0, out)


def _power_a_t(theta, p, t):
    # past the largest float it is inf, as a is
    with np.errstate(over="ignore"):
        return theta * (p - 1.0) * np.maximum(np.abs(t), SLOPE_FLOOR) \
            ** (p - 2.0)


def _power_A(theta, p, t):
    # an A past the largest float is inf, which the energy's callers test
    with np.errstate(over="ignore"):
        return theta * np.abs(t) ** p / p


def make_power_family(theta, p: ExponentField) -> PotentialSpec:
    """a = theta |t|^{p-2} t with closed-form antiderivative and constants:
    c2 = min(1, theta-) and growth 0."""
    theta = nodal_field(p.grid, theta)
    if np.any(theta <= 0):
        raise ValueError("theta must be strictly positive")
    # a_t = theta (p-1) |t|^{p-2}: theta at p = 2, else its inf is 0, at
    # t = 0 for p > 2 and as |t| -> inf for p < 2
    a_t_min = np.where(p.values == 2.0, theta, 0.0)
    x, pv = p.grid.nodes, p.values
    i, j = int(np.argmin(theta)), int(np.argmin(a_t_min))
    return PotentialSpec(
        family="power",
        theta=theta,
        p=p,
        c2=min(1.0, float(theta.min())),
        a_eval=_power_a,
        A_eval=_power_A,
        a_t_eval=_power_a_t,
        a_t_min=a_t_min,
        growth=np.zeros(p.grid.size),
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


#: relative margin by which the interior minimum of the c2 ratio is
#: rounded down, so that c2 stays a lower bound: against a 60-digit
#: evaluation of the exact minimum, the rounding of sigma, log and exp
#: came to at most 1.6 eps (10,000 p in (2, 50], p down to 2 + 1e-11,
#: and every float within 300 ulps of 3 + sqrt 5)
_ROUND_DOWN = 4.0 * np.finfo(float).eps


def _perturbed_c2(p, e, x1):
    """(R, t) per node (p, its e and x1 = e + 1 - p/2): R is the inf
    over t of min(a t, p A) / (theta |t|^p) for a = theta (1+t^2)^e t, and
    t the |t| where it is attained (0 or inf for a limit).

    If a(t) t >= R theta |t|^p for every t, then a(t) >= R theta t^{p-1}
    for t > 0 and, integrating, p A(t) >= R theta |t|^p: the p A ratio is
    never the lower, and R = inf over s = t^2 > 0 of s^{1-p/2} (1+s)^e.
    Its log has slope 1 - p/2 + e s/(1+s) in log s.  For p < 2 the inf is
    the limit 0 at t = 0.  For p > 2 and x1 > 0 (paper_literal with
    2 < p < 3 + sqrt 5) the slope vanishes at s/(1+s) = sigma =
    (p - 2)/(2e) < 1, where R = sigma^{1-p/2} (1 - sigma)^{-x1} > 1 is
    rounded down by _ROUND_DOWN, at t = sqrt((p - 2) / (2 x1)).
    Otherwise the ratio falls to its limit as t -> inf, 1 where x1 = 0
    (standard, p >= 2) and 0 where x1 < 0; these stay exact."""
    at = np.where(p < 2.0, 0.0, np.inf)
    ratio = np.minimum(at, x1 >= 0.0)
    # x1 is 0 for standard and below 0 for paper_literal with p < 2, so
    # x1 > 0 only where p > 2
    inner = np.flatnonzero(x1 > 0.0)
    if inner.size:
        # x1 > 0 is at least 2^-53 (see make_perturbed_family) and e < 2
        # where it is that small, so sigma = 1 - x1/e rounds below 1
        pi, xi = p[inner], x1[inner]
        sigma = (pi - 2.0) / (2.0 * e[inner])
        ratio[inner] = (1.0 - _ROUND_DOWN) * np.exp(
            (1.0 - pi / 2.0) * np.log(sigma) - xi * np.log1p(-sigma))
        at[inner] = np.sqrt((pi - 2.0) / (2.0 * xi))
    return ratio, at


def make_perturbed_family(theta, p: ExponentField,
                          variant: str = "standard") -> PotentialSpec:
    """a = theta (1+t^2)^e t; A in closed form; c2 in closed form
    (_perturbed_c2), computed at every node.  growth is the exponent
    x1 = e + 1 - p/2 at which every ratio grows as |t| -> inf: 0 for
    standard, (6p - p^2 - 4) / (2(p - 2)) for paper_literal."""
    if variant not in ("standard", "paper_literal"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "paper_literal" and np.any(np.abs(p.values - 2.0) < 1e-12):
        raise ValueError("paper_literal variant has a singular exponent at p = 2")
    theta = nodal_field(p.grid, theta)
    if np.any(theta <= 0):
        raise ValueError("theta must be strictly positive")

    def a_eval(th, pv, t):
        # (1+t^2)^e through log1p, as in A_eval: rounding 1 + t^2 first
        # would cost a relative error of about e eps
        e = _perturbed_exponent(pv, variant)
        return th * np.exp(e * np.log1p(t**2)) * t

    def a_t_eval(th, pv, t):
        # (1+t^2)^{e-1} through log1p, as in a_eval
        e = _perturbed_exponent(pv, variant)
        s = t**2
        return th * np.exp((e - 1.0) * np.log1p(s)) \
            * (1.0 + (2.0 * e + 1.0) * s)

    def A_eval(th, pv, t):
        # theta ((1+t^2)^{e+1} - 1) / (2(e+1)), in a form that keeps its
        # relative accuracy as t -> 0 (the plain form rounds to 0 at 1e-8)
        e1 = _perturbed_exponent(pv, variant) + 1.0
        return th * np.expm1(e1 * np.log1p(t**2)) / (2.0 * e1)

    e = _perturbed_exponent(p.values, variant)
    # exactly 0 for standard (p - 2 is exact), and exact for paper_literal
    # near its root 3 + sqrt 5, where e - p/2 is near -1: a positive x1
    # there is at least 2^-53
    x1 = e - p.values / 2.0 + 1.0
    c2_ratio, c2_at = _perturbed_c2(p.values, e, x1)
    c2_nodes = theta * c2_ratio
    slope_min, slope_at = _perturbed_slope_min(e)
    a_t_min = theta * slope_min
    x = p.grid.nodes
    i, j, k = (int(np.argmax(x1 > 0.0)), int(np.argmin(a_t_min)),
               int(np.argmin(c2_nodes)))
    return PotentialSpec(
        family="perturbed_power",
        theta=theta,
        p=p,
        c2=float(c2_nodes[k]),
        a_eval=a_eval,
        A_eval=A_eval,
        a_t_eval=a_t_eval,
        a_t_min=a_t_min,
        growth=x1,
        # H2 fails first at node i, where |a| grows like |t|^{2e+1} and the
        # H2 bound like |t|^{p-1}
        witnesses={
            "H2": _witness(x[i], np.inf, 2.0 * e[i] + 1.0, p.values[i] - 1.0),
            "H3": _witness(x[j], slope_at[j], a_t_min[j], 0.0),
            "H4": _witness(x[k], c2_at[k], c2_nodes[k], 1.0)},
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
    # |g| at the knots is |v|; only the critical points are interpolated
    g_abs = np.broadcast_to(np.abs(v), cand.shape)
    if nl.zeta > 0.0 and np.any(q > 2.0):
        with np.errstate(divide="ignore", over="ignore"):
            crit = (alpha * np.abs(slope) / (nl.zeta * (q - 1.0))) \
                ** (1.0 / (q - 2.0))
        crit = np.where(q > 2.0, np.clip(crit, t, np.append(t[1:], np.inf)),
                        t)
        cand = np.concatenate([cand, crit], axis=1)
        g_abs = np.concatenate([g_abs, np.abs(np.interp(crit, t, v))], axis=1)
    # past the largest float the bound is inf, and the excess -inf
    with np.errstate(over="ignore"):
        bound = cand ** (q - 1.0)
    excess = alpha * g_abs - (nl.zeta * bound if nl.zeta else 0.0)
    best = np.argmax(excess, axis=1)[:, None]
    return (np.take_along_axis(excess, best, 1)[inv, 0],
            np.take_along_axis(cand, best, 1)[inv, 0])


def verify_hypotheses(spec: PotentialSpec,
                      nl: NonlinearitySpec | None) -> HypothesisReport:
    """The structural hypotheses, read from the declared data with no
    sampling: H1 from a(x, 0); H2, a finite c1, from the growth exponent
    `spec.growth` being <= 0 at every node (c1 itself is not computed); H3,
    strict monotonicity of t -> a(x, t), from a_t_min >= 0 (the built-in
    families' slope vanishes only at isolated t); H4 from c2 >= 1; H5
    exactly on the load's knots (`_h5_excess`), with q+ < p-.  H2-H4 of a
    hand-built spec (no witnesses) are "unverifiable", and so is H5 of a
    load without xi or knots unless q+ >= p- fails it.  Failures are data,
    not errors; each carries a witness.
    """
    x = spec.p.grid.nodes
    a0 = spec.a(0.0)
    i = int(np.argmax(np.abs(a0)))
    checks = {"H1": (abs(a0[i]) <= _TOL, _witness(x[i], 0.0, a0[i], 0.0))}
    if spec.witnesses is not None:
        checks["H2"] = (not np.any(spec.growth > 0.0), spec.witnesses["H2"])
        checks["H3"] = (np.all(spec.a_t_min >= 0.0), spec.witnesses["H3"])
        checks["H4"] = (spec.c2 >= 1.0, spec.witnesses["H4"])
    if nl is not None and nl.xi is not None and nl.knots is not None:
        excess, t = _h5_excess(nl)
        j = int(np.argmax(excess - nl.xi))
        bound = nl.zeta * t[j] ** (nl.q.values[j] - 1.0)
        checks["H5"] = (excess[j] <= nl.xi[j] + _TOL, _witness(
            x[j], t[j], excess[j] + bound, nl.xi[j] + bound))
    # q+ < p- is decided for every load; a failed bound on the knots keeps
    # its own witness
    if (nl is not None and checks.get("H5", (True,))[0]
            and not nl.q.p_plus < spec.p.p_minus):
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

#: (g, G, g', sup|g|, sup|g'|) of each built-in load with a fixed g; both
#: have g > 0, peaking at t = 0.  |g'| = 2|t|/(1+t^2)^2 peaks at
#: t = 1/sqrt(3), and e^{-|t|} <= 1
_BUILTIN_G = {
    "rational_bump": (lambda t: 1.0 / (1.0 + t**2) + 1.0,
                      lambda t: np.arctan(t) + t,
                      # -2t/(1+t^2)^2, one factor at a time, so that it
                      # overflows only where t^2 does
                      lambda t: -2.0 * (t / (1.0 + t**2)) / (1.0 + t**2),
                      2.0, 3.0 * np.sqrt(3.0) / 8),
    "exp_abs": (lambda t: np.exp(-np.abs(t)) + 1.0,
                lambda t: np.sign(t) * (1.0 - np.exp(-np.abs(t))) + t,
                lambda t: -np.sign(t) * np.exp(-np.abs(t)), 2.0, 1.0),
}


def builtin_nonlinearity(name: str, grid, q: ExponentField,
                         xi=None, zeta: float = 1.0,
                         alpha=None, g=None, G=None, dg=None,
                         zeros=None, knots=None) -> NonlinearitySpec:
    """Right-hand sides alpha(x) g(t); the fixed g all have g(0) != 0.

    Names: "const:<c>" (g = c), "rational_bump" (1/(1+t^2) + 1),
    "exp_abs" (e^{-|t|} + 1), "separable" (the given g, G, its slope g'
    as `dg`, which the solver reads, and the t where g changes sign as
    `zeros`, which `F_sup` reads).  A fixed g declares g' in closed
    form (0 at the kink t = 0 of exp_abs).  alpha is a
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
        if not np.isfinite(c):
            raise ValueError(f"const:<c> needs a finite c, got {name!r}")
        g, G = lambda t: np.full(np.shape(t), c), lambda t: c * t
        dg = lambda t: np.zeros(np.shape(t))  # noqa: E731
        sup_g, lip = abs(c), 0.0
    elif name in _BUILTIN_G:
        g, G, dg, sup_g, lip = _BUILTIN_G[name]
    elif name != "separable":
        raise ValueError(f"unknown builtin nonlinearity {name!r}")
    if g is None or G is None:
        raise ValueError("separable nonlinearity needs g and G")
    alpha = nodal_field(grid, 1.0 if alpha is None else alpha)
    if sup_g is not None:  # a fixed g never changes sign
        zeros, knots = (), (np.zeros(1), np.full(1, sup_g), np.zeros(1))
        if xi is None:
            xi = float(np.max(np.abs(alpha))) * sup_g
    elif knots is not None:
        lip = float(np.max(np.abs(knots[2])))
    return NonlinearitySpec(
        name=name, alpha=alpha, g=g, G=G, dg=dg,
        xi=None if xi is None else nodal_field(grid, xi), zeta=zeta, q=q,
        zeros=None if zeros is None else np.asarray(zeros, float), lip=lip,
        knots=knots)

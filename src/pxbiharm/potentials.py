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

from .exponents import ExponentField, conjugate
from .grids import GridFunction, nodewise
from .spaces import luxemburg_norm

__all__ = [
    "PotentialSpec",
    "NonlinearitySpec",
    "HypothesisReport",
    "make_power_family",
    "make_perturbed_family",
    "verify_hypotheses",
    "builtin_nonlinearity",
]

_FIT_MARGIN = 0.05  # safety margin on sampled growth-constant fits


@dataclass
class PotentialSpec:
    """A potential family with its antiderivative and growth data.

    a_eval / A_eval take (theta_node, p_node, t) and are vectorized; the
    nodewise wrappers `a` and `A` broadcast over the grid, with the nodes
    on t's leading axis (one column per further index, as x[:, None]).
    a_t_min holds inf_t d/dt a(x, t) per node in closed form, None where
    it is unknown.
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
    sup |g'|, None where it is unknown."""

    name: str
    alpha: np.ndarray
    g: callable = field(repr=False)
    G: callable = field(repr=False)
    xi: np.ndarray = None
    zeta: float = 1.0
    q: ExponentField = None
    zeros: np.ndarray | None = None  # the t where g changes sign
    lip: float | None = None

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
    x: float
    t: float
    s: float | None
    lhs: float
    rhs: float


@dataclass
class HypothesisReport:
    status: dict          # name -> "pass" | "fail" | "unverifiable"
    witnesses: dict       # name -> Witness for failures

    @property
    def all_pass(self) -> bool:
        return all(v == "pass" for v in self.status.values())


def _t_grid() -> np.ndarray:
    """The t sample of the hypothesis checks and the sampled fits: 81
    linear points on [-10, 10], refined by 25 log-spaced points a side
    down to 1e-8, and 0."""
    logs = np.geomspace(1e-8, 10.0, 25)
    return np.unique(np.concatenate([np.linspace(-10.0, 10.0, 81), logs,
                                     -logs, [0.0]]))


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
        # d/dt a = theta (p-1) |t|^{p-2}: theta at p = 2, else its inf is 0
        a_t_min=np.where(p.values == 2.0, theta, 0.0),
    )


def _perturbed_exponent(p, variant):
    if variant == "paper_literal":
        return p / (p - 2.0)
    return (p - 2.0) / 2.0


def _perturbed_slope_min(e):
    """inf over t of (1+t^2)^{e-1} (1 + (2e+1) t^2), the slope of
    (1+t^2)^e t.  In s = t^2 its derivative has the sign of
    e (3 + (2e+1) s): for e >= 0 the inf is 1 at s = 0; for
    -1/2 <= e < 0 it is the limit 0; for e < -1/2 the minimum is at
    s = -3/(2e+1), where it is -2 (2(e-1)/(2e+1))^{e-1} < 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        dip = -2.0 * (2.0 * (e - 1.0) / (2.0 * e + 1.0)) ** (e - 1.0)
    return np.where(e >= 0.0, 1.0, np.where(e < -0.5, dip, 0.0))


def make_perturbed_family(theta, p: ExponentField,
                          variant: str = "standard") -> PotentialSpec:
    """a = theta (1+t^2)^e t; A in closed form, constants by fit."""
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

    c1, c2, c3 = _sampled_fit(theta, p, a_eval, A_eval)
    return PotentialSpec(
        family="perturbed_power",
        theta=theta,
        p=p,
        variant=variant,
        c1=c1,
        c2=c2,
        c3=c3,
        d=np.ones(p.grid.size),
        a_eval=a_eval,
        A_eval=A_eval,
        a_t_min=theta * _perturbed_slope_min(
            _perturbed_exponent(p.values, variant)),
    )


def _sampled_fit(theta, p: ExponentField, a_eval, A_eval):
    """(c1, c2, c3) of the H2, H4 and c3 bounds with d = 1, fitted on the
    nonzero t of `_t_grid` and widened by `_FIT_MARGIN` (c1, c3 inflated,
    c2 deflated)."""
    t = _t_grid()
    tt = t[t != 0.0][None, :]
    th, pv = theta[:, None], p.values[:, None]
    a_vals = a_eval(th, pv, tt)
    A_vals = A_eval(th, pv, tt)
    c1 = float(np.max(np.abs(a_vals) / (1.0 + np.abs(tt) ** (pv - 1.0))))
    c3 = float(np.max(np.abs(A_vals) / (np.abs(tt) + np.abs(tt) ** pv)))
    c2 = float(np.min(
        np.minimum(a_vals * tt, pv * A_vals) / np.abs(tt) ** pv
    ))
    return (c1 * (1.0 + _FIT_MARGIN), c2 * (1.0 - _FIT_MARGIN),
            c3 * (1.0 + _FIT_MARGIN))


def verify_hypotheses(spec: PotentialSpec,
                      nl: NonlinearitySpec | None) -> HypothesisReport:
    """Sample the structural inequalities on an x*t (and t*s) product grid,
    with slack 1e-9.

    The monotonicity condition is checked in its strict monotone form
    (a(x,t) - a(x,s))(t - s) > 0 for t != s.  Failures are data, not
    errors; each failure carries a witness point.
    """
    t, tol = _t_grid(), 1e-9
    x = spec.p.grid.x1
    th = spec.theta[:, None]
    pv = spec.p.values[:, None]
    tt = t[None, :]

    status, witnesses = {}, {}

    def record(name, ok_mask, lhs, rhs, t_axis, s_vals=None):
        if np.all(ok_mask):
            status[name] = "pass"
            return
        status[name] = "fail"
        idx = np.unravel_index(np.argmin(ok_mask), ok_mask.shape)
        witnesses[name] = Witness(
            x=float(x[idx[0]]),
            t=float(t_axis[idx[1]]),
            s=None if s_vals is None else float(s_vals[idx[-1]]),
            lhs=float(np.asarray(lhs)[idx]),
            rhs=float(np.asarray(rhs)[idx]),
        )

    # H1: a(x, 0) = 0
    a0 = spec.a_eval(spec.theta, spec.p.values, 0.0)
    if np.all(np.abs(a0) <= tol):
        status["H1"] = "pass"
    else:
        status["H1"] = "fail"
        i = int(np.argmax(np.abs(a0)))
        witnesses["H1"] = Witness(float(x[i]), 0.0, None, float(a0[i]), 0.0)

    a_vals = spec.a_eval(th, pv, tt)
    A_vals = spec.A_eval(th, pv, tt)

    # H2: |a| <= c1 (d + |t|^{p-1})
    rhs2 = spec.c1 * (spec.d[:, None] + np.abs(tt) ** (pv - 1.0))
    record("H2", np.abs(a_vals) <= rhs2 + tol, np.abs(a_vals), rhs2, t)

    # H3: strict monotonicity of t -> a(x, t).  On the sorted sample,
    # (a(t) - a(s))(t - s) > 0 holds for every pair exactly when it holds
    # for every neighbouring pair
    t_sub = t[:: max(1, len(t) // 40)]
    a_sub = spec.a_eval(th, pv, t_sub[None, :])
    prod = np.diff(a_sub, axis=1) * np.diff(t_sub)
    record("H3", prod > 0.0, prod, np.zeros_like(prod), t_sub, t_sub[1:])

    # H4: c2 |t|^p <= min{a t, p A}
    lhs4 = spec.c2 * np.abs(tt) ** pv
    rhs4 = np.minimum(a_vals * tt, pv * A_vals)
    mask_nz = np.abs(tt) > 0
    record("H4", (lhs4 <= rhs4 + tol) | ~mask_nz, lhs4, rhs4, t)
    if not np.isfinite(spec.c2) or spec.c2 < 1.0:
        status["H4"] = "fail"
        witnesses.setdefault(
            "H4", Witness(float(x[0]), 0.0, None, spec.c2, 1.0)
        )

    # H5: |f| <= xi + zeta |t|^{q-1}
    if nl is None or nl.xi is None:
        status["H5"] = "unverifiable"
    else:
        f_vals = nl.f(tt)
        rhs5 = nl.xi[:, None] + nl.zeta * np.abs(tt) ** (nl.q.values[:, None] - 1.0)
        record("H5", np.abs(f_vals) <= rhs5 + tol, np.abs(f_vals), rhs5, t)
        if not (1.0 < nl.q.p_minus <= nl.q.p_plus < spec.p.p_minus):
            status["H5"] = "fail"
            witnesses.setdefault(
                "H5", Witness(float(x[0]), 0.0, None, nl.q.p_plus, spec.p.p_minus)
            )

    return HypothesisReport(status, witnesses)


def d_norm_conjugate(spec: PotentialSpec) -> float:
    """|d|_{p(x)/(p(x)-1)}: Luxemburg norm of the H2 weight with the
    conjugate exponent."""
    d_fun = GridFunction(spec.p.grid, spec.d.copy(), bc="none")
    return luxemburg_norm(d_fun, conjugate(spec.p)).value


# ---------------------------------------------------------------------------
# built-in nonlinearities

def _const_field(grid, v):
    return np.broadcast_to(np.asarray(v, float), (grid.size,)).copy()


#: (g, G, sup|g|, sup|g'|) of each built-in load with a fixed g; both have
#: g > 0.  |g'| = 2|t|/(1+t^2)^2 peaks at t = 1/sqrt(3), and e^{-|t|} <= 1
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
                         zeros=None) -> NonlinearitySpec:
    """Right-hand sides alpha(x) g(t); the fixed g all have g(0) != 0.

    Names: "const:<c>" (g = c), "rational_bump" (1/(1+t^2) + 1),
    "exp_abs" (e^{-|t|} + 1), "separable" (the given g, G, and the t
    where g changes sign as `zeros`, which `F_range` reads).  alpha is a
    number or one value per node and defaults to 1; xi defaults to
    max|alpha| sup|g| for a fixed g and to None (H5 unverifiable).  A fixed
    g carries its Lipschitz constant `lip`; a separable load declares it
    with dataclasses.replace, or leaves it unknown.
    """
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
        zeros = ()
        if xi is None:
            xi = float(np.max(np.abs(alpha))) * sup_g
    return NonlinearitySpec(
        name=name, alpha=alpha, g=g, G=G,
        xi=None if xi is None else _const_field(grid, xi), zeta=zeta, q=q,
        zeros=None if zeros is None else np.asarray(zeros, float), lip=lip)

"""Modular, Luxemburg norm, sup norm and the Holder inequality on grid
functions.

The working norm on the fourth-order space is the Luxemburg norm of the
discrete Laplacian (`laplacian_norm`): ||u|| = inf{ mu > 0 :
int |Delta u / mu|^{p(x)} dx <= 1 }.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ExponentField, conjugate
from .grids import Grid, GridFunction, integrate, laplacian

__all__ = [
    "NormResult",
    "HolderReport",
    "modular",
    "luxemburg_norm",
    "laplacian_norm",
    "sup_norm",
    "check_holder",
]

#: Newton steps on log mu before the Luxemburg solver gives up
_MAX_ITER = 100
#: a Newton step on log mu below this (relative to max(1, |log mu|)) ends
#: the iteration; the error after it is of the order of its square
_STEP_TOL = 1e-12


@dataclass(frozen=True)
class NormResult:
    """A Luxemburg norm: `value` is an upper end whose modular was evaluated
    and is <= 1, and `iterations` counts the Newton steps.  For a batch of
    rows `value` is an array and `iterations` is summed over the rows."""

    value: float | np.ndarray
    iterations: int


@dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    holds: bool


def _modular_values(vals: np.ndarray, grid: Grid, p: ExponentField):
    """int |v|^{p(x)} dx for one row (a float) or each row of a batch."""
    out = (np.abs(vals) ** p.values) @ grid.weights
    return float(out) if out.ndim == 0 else out


def modular(u: GridFunction, p: ExponentField) -> float:
    """rho_{p(x)}(u) = int |u|^{p(x)} dx by quadrature."""
    if u.grid is not p.grid:
        raise ValueError("grid mismatch between function and exponent")
    return _modular_values(u.values, u.grid, p)


def _luxemburg_of_values(vals: np.ndarray, grid: Grid,
                         p: ExponentField) -> NormResult:
    """Solve modular(v/mu) = 1 for mu, for each row v of `vals` (a 1-D
    input is one row), by a safeguarded Newton iteration on s = log mu.

    Each row is first scaled to unit sup norm (the norm is homogeneous).
    f(s) = log modular(v/e^s) = log sum_j w_j |v_j|^{p_j} e^{-p_j s} is a
    log-sum-exp of lines with slopes -p_j: convex and decreasing, with
    slope in [-p+, -p-], so the root lies in [f(0)/p+, f(0)/p-] (ends
    ordered by the sign of f(0)).  The iteration starts at the end where
    f >= 0; a tangent of a convex f lies below it, so every Newton iterate
    stays left of the root and climbs to it (about 5 evaluations).  A step leaving
    the bracket is replaced by bisection.  From the last iterate s, where
    f(s) >= 0, the slope bound puts the root below s + f(s)/p-.  The
    modular of v / mu is evaluated in plain form at that upper end, which
    is widened until the modular is <= 1, so the returned norm is that
    end, never just an iterate.
    """
    vals = np.abs(np.asarray(vals, dtype=float))
    batch = vals.reshape(-1, vals.shape[-1])
    amax = batch.max(axis=1)
    live = amax > 0.0
    rows = batch[live] / amax[live, None]
    pv, lo_p, hi_p = p.values, p.p_minus, p.p_plus
    with np.errstate(divide="ignore"):
        a = np.log(grid.weights) + pv * np.log(rows)

    def f_and_slope(s, idx):
        z = a[idx] - pv * s[:, None]
        zmax = z.max(axis=1)
        e = np.exp(z - zmax[:, None])
        tot = e.sum(axis=1)
        return zmax + np.log(tot), -(e @ pv) / tot

    f0, _ = f_and_slope(np.zeros(len(rows)), slice(None))
    lo = np.minimum(f0 / hi_p, f0 / lo_p)        # f(lo) >= 0
    hi = np.maximum(f0 / hi_p, f0 / lo_p)        # f(hi) <= 0
    f_lo = np.zeros(len(rows))
    s, last_step = lo.copy(), np.full(len(rows), np.inf)
    steps = np.zeros(len(rows), dtype=int)
    todo = np.arange(len(rows))
    for _ in range(_MAX_ITER):
        st = s[todo]
        f, slope = f_and_slope(st, todo)
        steps[todo] += 1
        left = f >= 0.0
        lo[todo] = np.where(left, st, lo[todo])
        f_lo[todo] = np.where(left, f, f_lo[todo])
        hi[todo] = np.where(left, hi[todo], st)
        # a row ends one evaluation after its step fell below the tolerance
        done = last_step[todo] <= _STEP_TOL * np.maximum(1.0, np.abs(st))
        nxt = st - f / slope
        last_step[todo] = np.abs(nxt - st)
        inside = (nxt >= lo[todo]) & (nxt <= hi[todo])
        s[todo] = np.where(inside, nxt, 0.5 * (lo[todo] + hi[todo]))
        todo = todo[~done]
        if todo.size == 0:
            break
    else:
        raise RuntimeError("Luxemburg Newton iteration did not converge")

    value = np.zeros(len(batch))
    value[live] = amax[live] * np.exp(np.minimum(hi, lo + f_lo / lo_p))
    widen = 4.0 * np.finfo(float).eps
    bad = np.flatnonzero(live)
    for _ in range(60):
        m = _modular_values(batch[bad] / value[bad, None], grid, p)
        bad = bad[m > 1.0]
        if bad.size == 0:
            break
        value[bad] *= 1.0 + widen
        widen *= 2.0
    else:
        raise RuntimeError("Luxemburg upper end could not be certified")
    if vals.ndim == 1:
        return NormResult(float(value[0]), int(steps.sum()))
    return NormResult(value, int(steps.sum()))


def luxemburg_norm(u: GridFunction, p: ExponentField) -> NormResult:
    """|u|_{p(x)}: the Luxemburg norm of the nodal values."""
    if u.grid is not p.grid:
        raise ValueError("grid mismatch between function and exponent")
    return _luxemburg_of_values(u.values, u.grid, p)


def laplacian_norm(u: GridFunction, p: ExponentField) -> NormResult:
    """||u||: Luxemburg norm of the discrete Laplacian (requires Navier bc)."""
    if u.bc != "navier":
        raise ValueError("laplacian_norm requires Navier boundary conditions")
    du = laplacian(u.grid, u)
    return _luxemburg_of_values(du.values, u.grid, p)


def laplacian_modular(u: GridFunction, p: ExponentField) -> float:
    """rho_{p(x)}(u) on the fourth-order space: int |Delta u|^{p(x)} dx."""
    du = laplacian(u.grid, u)
    return _modular_values(du.values, u.grid, p)


def sup_norm(u: GridFunction) -> float:
    return float(np.max(np.abs(u.values)))


def check_holder(u: GridFunction, v: GridFunction, p: ExponentField,
                 tol: float = 1e-10) -> HolderReport:
    """Holder inequality |int uv| <= (1/p^- + 1/p'^-) |u|_{p(x)} |v|_{p'(x)}."""
    if u.grid is not v.grid or u.grid is not p.grid:
        raise ValueError("grid mismatch")
    pc = conjugate(p)
    lhs = abs(integrate(u.grid, u.values * v.values))
    rhs = (1.0 / p.p_minus + 1.0 / pc.p_minus) \
        * luxemburg_norm(u, p).value * luxemburg_norm(v, pc).value
    return HolderReport(lhs, rhs, lhs <= rhs + tol)

"""The modular and the Luxemburg norm on nodal values.

`modular` and `luxemburg_norm` take nodal values, one row of p.grid.size
values or a batch of rows, on the grid of the exponent p.  The working
norm on the fourth-order space is the Luxemburg norm of the discrete
Laplacian, ||u|| = inf{ mu > 0 : int |Delta u / mu|^{p(x)} dx <= 1 }, which
is luxemburg_norm(L @ u, p) with L = grid.laplacian_matrix().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ExponentField

__all__ = ["NormResult", "modular", "luxemburg_norm"]

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


def _nodal(values, p: ExponentField) -> np.ndarray:
    """values as floats, ValueError unless the last axis has one value per
    node of p's grid (a single value would broadcast)."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 0 or vals.shape[-1] != p.grid.size:
        raise ValueError(f"values of shape {vals.shape} do not match the "
                         f"exponent's grid of {p.grid.size} nodes")
    return vals


def modular(values, p: ExponentField):
    """rho_{p(x)}(v) = int |v|^{p(x)} dx by quadrature, for one row (a
    float) or each row of a batch.  A modular past the largest float is
    inf, which every caller's comparison with 1 reads correctly."""
    with np.errstate(over="ignore"):
        out = (np.abs(_nodal(values, p)) ** p.values) @ p.grid.weights
    return float(out) if out.ndim == 0 else out


def luxemburg_norm(values, p: ExponentField) -> NormResult:
    """|v|_{p(x)}: the Luxemburg norm of each row v of `values` (a 1-D
    input is one row; ValueError on a non-finite value).  It solves
    modular(v/mu) = 1 for mu by a safeguarded Newton iteration on
    s = log mu.

    A row whose sup is below 1/2 is first multiplied by the power of two
    2^-k that puts its sup in [1/2, 1), which is exact, and its norm is
    multiplied back by 2^k at the end, rounded up where it is subnormal,
    so a nonzero row with a subnormal sup gets a positive norm.  The
    result is the same, bit for bit, wherever the norm is normal.  Each
    row is then scaled to unit sup norm (the norm is homogeneous).
    f(s) = log modular(v/e^s) = log sum_j w_j |v_j|^{p_j} e^{-p_j s} is a
    log-sum-exp of lines with slopes -p_j: convex and decreasing, with
    slope in [-p+, -p-], so the root lies in [f(0)/p+, f(0)/p-] (ends
    ordered by the sign of f(0)).  The iteration starts at the end where
    f >= 0; a tangent of a convex f lies below it, so every Newton iterate
    stays left of the root and climbs to it (about 5 evaluations).  A step
    leaving the bracket is replaced by bisection.  From the last iterate s,
    where f(s) >= 0, the slope bound puts the root below s + f(s)/p-.  The
    modular of v / mu is evaluated in plain form at that upper end, which
    is widened until the modular is <= 1, so the returned norm is that
    end, never just an iterate.
    """
    vals = np.abs(_nodal(values, p))
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite nodal values")
    batch = vals.reshape(-1, vals.shape[-1])
    amax = batch.max(axis=1)
    k = np.minimum(np.frexp(amax)[1], 0)
    if np.any(k < 0):
        np.ldexp(batch, -k[:, None], out=batch)   # a view of np.abs's copy
        amax = np.ldexp(amax, -k)
    live = amax > 0.0
    rows = batch[live] / amax[live, None]
    pv, lo_p, hi_p = p.values, p.p_minus, p.p_plus
    with np.errstate(divide="ignore"):
        a = np.log(p.grid.weights) + pv * np.log(rows)

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
        m = modular(batch[bad] / value[bad, None], p)
        bad = bad[m > 1.0]
        if bad.size == 0:
            break
        value[bad] *= 1.0 + widen
        widen *= 2.0
    else:
        raise RuntimeError("Luxemburg upper end could not be certified")
    scaled, value = value, np.ldexp(value, k)
    low = np.ldexp(value, -k) < scaled
    value[low] = np.nextafter(value[low], np.inf)
    if vals.ndim == 1:
        return NormResult(float(value[0]), int(steps.sum()))
    return NormResult(value, int(steps.sum()))


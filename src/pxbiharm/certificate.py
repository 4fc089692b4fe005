"""Explicit three-solution certificates for the fourth-order problem.

Computes every constant of the admissible lambda-interval (gamma_r, the
embedding constant c0, alpha_r, beta_h) and decides feasibility, by one
construction on every domain, the interval included.

The interval is that of the three-critical-points theorem of Bonanno and
Marano (Appl. Anal. 89, 2010), which needs one test function vbar with
r < J(vbar) and Phi(vbar) / J(vbar) > alpha_r, and then gives
lambda in (J(vbar) / Phi(vbar), 1 / alpha_r).  Here vbar = h phi_1, the
first eigenvector of -L on the interior scaled to sup h, and J(vbar) and
Phi(vbar) are the grid's own quadratures, rounded outwards by a
floating-point slack.  Below the uniqueness threshold lambda_u
(`solver.uniqueness_threshold`) the discrete problem has one critical
point, so an interval is printed only when it starts at or above
lambda_u.  The record also carries the inradius D, the unit ball volume
w and the annulus measure L.

Every interval is a claim about the discrete problem on the certificate's
grid: c0 is the constant of that grid's discrete Green's function on every
domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import PointTerms, ProblemInstance
from .exponents import ExponentField, conjugate
from .grids import (Domain, Grid, first_mode, integrate, sine_eigenvalues,
                    unit_ball_volume)
from .solver import uniqueness_threshold
from .spaces import luxemburg_norm, modular

__all__ = [
    "Certificate",
    "inradius",
    "compute_L",
    "gamma_r",
    "alpha_r",
    "certify",
    "estimate_c0",
]

#: relative change under grid doubling below which a certificate is stamped
#: "converged"
_CONVERGENCE_RTOL = 5e-3

#: the test-function heights `certify` scans when it is given no h
H_GRID = np.geomspace(1e-2, 1e2, 25)

#: ulps allowed for the evaluation of each term of J(vbar) and Phi(vbar),
#: on top of the rounding bound of their sums (`_rounded_sum`)
_TERM_ULPS = 8

#: Green's-function rows generated and screened at a time in `estimate_c0`,
#: among the rows that `_modular_bound` does not skip.  A block's
#: temporaries take about 8 n^2 _GREEN_BLOCK bytes, 70 KB at n = 33: below
#: glibc's initial 128 KB mmap threshold, so they are reused from the heap,
#: where blocks of 32 were mapped afresh for every block (certify on a
#: 17 x 17 rectangle: 10,250 minor faults per command, 700 with 8).
#: Larger blocks also raise peak memory
_GREEN_BLOCK = 8

#: a row is skipped only when its modular bound is below 1 by this much,
#: far more than the rounding of the bound and of the screening modular
_SKIP_MARGIN = 1e-9


@dataclass
class Certificate:
    r: float | None
    h: float
    D: float
    w: float
    L: float
    gamma_r: float | None
    c0: float
    alpha_r: float | None
    beta_h: float | None
    lambda_interval: tuple | None
    checks: dict
    converged: bool | None = None
    lambda_unique: float | str | None = None
    J_vbar: float | None = None
    Phi_vbar_lower: float | None = None
    reason: str | None = None

    @property
    def feasible(self) -> bool:
        return self.lambda_interval is not None


def inradius(domain: Domain) -> float:
    """D: the exact inradius of a supported domain."""
    if domain.kind == "interval":
        return 0.5
    if domain.kind == "rectangle":
        return min(domain.a, domain.b) / 2
    return domain.R  # ball_radial


def compute_L(N: int, D: float) -> float:
    """Measure of an annulus of radii D/2 and D: w (D^N - (D/2)^N)."""
    return unit_ball_volume(N) * (D**N - (D / 2) ** N)


def gamma_r(p: ExponentField, r: float) -> float:
    """gamma_r = max{(p^+ r)^{1/p^+}, (p^+ r)^{1/p^-}}."""
    base = p.p_plus * r
    return max(base ** (1.0 / p.p_plus), base ** (1.0 / p.p_minus))


def _test_function_bounds(inst: ProblemInstance, heights):
    """(J_lo, J_up, Phi_lo): J(vbar) rounded down and up and Phi(vbar)
    rounded down for vbar = h phi_1 at each of heights, all in one pass,
    from the terms A(L vbar) and F(vbar) of `energy.PointTerms`."""
    grid = inst.grid
    pt = PointTerms(inst, first_mode(grid)[:, None]
                    * np.asarray(heights, float))
    with np.errstate(over="ignore", invalid="ignore"):
        J_lo, J_up = _rounded_sum(grid, pt.A)
        Phi_lo = _rounded_sum(grid, pt.F)[0]
    return J_lo, J_up, Phi_lo


def _rounded_sum(grid: Grid, terms: np.ndarray):
    """(lo, hi): the quadrature sum_i w_i terms_i of each column, widened by
    (m + _TERM_ULPS) eps sum_i |w_i terms_i| for m nodes, the standard
    bound on the rounding of an m-term sum plus _TERM_ULPS ulps for each
    term's evaluation.  This is floating point, not interval arithmetic:
    the rounding of J's stencil sums L vbar, which cancel, is not bounded
    apart (against extended precision it stayed below a tenth of the
    slack up to 1601 nodes)."""
    total = grid.weights @ terms
    slack = (grid.size + _TERM_ULPS) * np.finfo(float).eps \
        * (grid.weights @ np.abs(terms))
    return total - slack, total + slack


def _beta(J_lo, J_up, Phi_lo):
    """beta_h = Phi_lo / J_up at each height, NaN where vbar cannot serve:
    where J(vbar) is not in (0, inf) or the ratio is not finite."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        beta = Phi_lo / J_up
    return np.where((J_lo > 0.0) & np.isfinite(J_up) & np.isfinite(beta),
                    beta, np.nan)


def alpha_r(inst: ProblemInstance, r: float, c0: float) -> float:
    """alpha_r = (1/r) int sup_{|t| <= c0 gamma_r} F(x, t) dx."""
    if r <= 0:
        raise ValueError("r must be positive")
    bound = c0 * gamma_r(inst.p, r)
    return integrate(inst.grid, inst.nonlinearity.F_sup(-bound, bound)) / r


def estimate_c0(grid: Grid, p: ExponentField) -> float:
    """c0: the embedding constant in
    ||u||_inf <= c0 ||u|| of the discrete problem on this grid.  With G
    the inverse of the interior Laplacian, u = G (Lu) on the interior, so
    u_i = int (G_i/w) Lu dx and Holder's inequality gives
    c0 = (1/p- + 1/p'-) max_i |G_i/w|_{p'(x)}, sharp for p = 2.

    The rows are visited by their p = 2 value L2_i = sum_j G_ij^2 / w_j,
    largest first, in blocks of `_GREEN_BLOCK`.  A row whose modular at
    the best norm so far is <= 1 cannot exceed it and is not solved.
    Whenever the best norm grows, every row still to visit whose modular
    bound at it is <= 1 - `_SKIP_MARGIN` is dropped before it is
    generated; its modular is <= 1 too, so c0 is the same as when every
    row is generated and screened.  The bound is `_modular_bound`, which
    charges every node the worst exponent p'- (exact at constant p' = 2).

    On an interval or a rectangle, G is symmetric under the reflection of
    each axis (x -> 1 - x, x1 -> a - x1, x2 -> b - x2).  Where p' (all its
    nodal values, shaped as the grid) is unchanged by a reflection, a row
    and its mirror image have the same norm, so only the rows with
    i <= m - 1 - i on that axis (m interior nodes a side) are visited:
    about half for a rectangle's exponent of x1 alone, a quarter for a
    constant one.  An exponent whose values break a mirror visits every
    row on that axis.
    """
    pc = conjugate(p)
    moments, rows = _green_rows(grid)
    todo = np.argsort(moments[1])[::-1]
    if grid.domain.kind != "ball_radial":
        q, m = pc.values.reshape(grid.shape), grid.n - 2
        keep = np.ones(todo.size, bool)
        for axis, i in enumerate(np.unravel_index(todo, (m,) * q.ndim)):
            if np.array_equal(q, np.flip(q, axis)):
                keep &= 2 * i < m
        todo = todo[keep]
    best = 0.0
    while todo.size:
        block = rows(todo[:_GREEN_BLOCK])
        todo = todo[_GREEN_BLOCK:]
        if best > 0.0:
            with np.errstate(over="ignore"):
                block = block[modular(block / best, pc) > 1.0]
        if len(block):
            norm = float(np.max(luxemburg_norm(block, pc).value))
            if norm > best:
                best = norm
                bound = _modular_bound(moments[:, todo], best, pc)
                # written so that a NaN bound keeps its row
                todo = todo[~(bound <= 1.0 - _SKIP_MARGIN)]
    return (1.0 / p.p_minus + 1.0 / pc.p_minus) * best


def _modular_bound(moments: np.ndarray, mu: float, q: ExponentField):
    """An upper bound on the modular int |G_i/(w mu)|^{q(x)} dx of each
    row from its moments (L1, L2, M) of `_green_rows`.

    With v = G_i/(w mu), |v|^q <= max(1, M/mu)^{q+ - q-} |v|^{q-}, and
    int |v|^{q-} is at most (L1/mu)^{2 - q-} (L2/mu^2)^{q- - 1} for
    q- <= 2 (Lyapunov's inequality between the exponents 1 and 2) and
    (M/mu)^{q- - 2} L2/mu^2 for q- > 2.  At constant q = 2 it is exact.
    """
    l1, l2, top = moments[0] / mu, moments[1] / mu**2, moments[2] / mu
    lo, hi = q.p_minus, q.p_plus
    with np.errstate(over="ignore"):
        if lo <= 2.0:
            body = l1 ** (2.0 - lo) * l2 ** (lo - 1.0)
        else:
            body = top ** (lo - 2.0) * l2
        return np.maximum(1.0, top) ** (hi - lo) * body


def _green_rows(grid: Grid):
    """(moments, rows) for the interior rows G_i / w of the inverse
    Laplacian.  moments is (L1, L2, M) stacked, three closed-form values
    per interior row: L1_i = sum_j |G_ij|, L2_i = sum_j G_ij^2 / w_j and
    M_i = max_j |G_ij| / w_j.  rows(idx) returns the rows idx as
    full-grid arrays, zero on the boundary.

    On a rectangle the 5-point Laplacian is diagonal in the orthonormal
    sine basis S (one matrix for both axes, as both have n nodes), with
    eigenvalues lam = lx + ly of -L, so G_i = S (S[i1] (x) S[i2] / lam) S.
    G is entrywise of one sign (the inverse of an M-matrix), so L1 = |G| 1
    = S ((S 1 S) / lam) S, one Poisson solve of the all-ones field.  By
    the discrete maximum principle the row maximum is the diagonal,
    M = (S^2 (1/lam) S^2) / w with the constant interior weight w.  On the
    interval and the radial ball G is the dense inverse of the interior
    block, and the moments are read from it.
    """
    n = grid.n
    interior = grid.interior_mask
    w_in = grid.weights[interior]
    if grid.domain.kind == "rectangle":
        m = n - 2
        k = np.arange(1, m + 1)
        S = np.sqrt(2.0 / (n - 1)) * np.sin(np.pi * np.outer(k, k) / (n - 1))
        lam = sine_eigenvalues(grid)
        S2 = S**2

        def rows(idx):
            i1, i2 = np.divmod(idx, m)
            g = S @ (S[i1][:, :, None] * S[i2][:, None, :] / lam) @ S
            out = np.zeros((len(idx), n, n))
            out[:, 1:-1, 1:-1] = g / w_in.reshape(m, m)
            return out.reshape(len(idx), n * n)

        moments = np.stack([
            (S @ ((S @ np.ones((m, m)) @ S) / lam) @ S).ravel(),
            (S2 @ (1.0 / lam**2) @ S2).ravel() / w_in,
            (S2 @ (1.0 / lam) @ S2).ravel() / w_in,
        ])
    else:
        G = np.linalg.inv(
            grid.laplacian_matrix()[interior][:, interior].toarray())
        absG = np.abs(G)
        moments = np.stack([absG.sum(axis=1), (G**2) @ (1.0 / w_in),
                            (absG / w_in).max(axis=1)])

        def rows(idx):
            out = np.zeros((len(idx), n))
            out[:, interior] = G[idx] / w_in
            return out
    return moments, rows


def _scan_h(inst: ProblemInstance, r: float, alpha: float) -> float:
    """The h of H_GRID with the largest beta_h / alpha_r among the heights
    whose r-bound holds, else among those where vbar can serve (`_beta`),
    else the first; a later h wins only if its ratio exceeds the best by
    more than 1e-15."""
    J_lo, J_up, Phi_lo = _test_function_bounds(inst, H_GRID)
    beta = _beta(J_lo, J_up, Phi_lo)
    usable = ~np.isnan(beta)
    rank = usable.astype(int) + (usable & (r < J_lo))
    ratio = np.where(usable, beta / alpha if alpha else np.inf, -np.inf)
    best = 0
    for k in range(1, len(H_GRID)):
        if rank[k] > rank[best] or (
                rank[k] == rank[best] and ratio[k] > ratio[best] + 1e-15):
            best = k
    return float(H_GRID[best])


def certify(inst: ProblemInstance, r: float, h: float | None = None,
            fine: ProblemInstance | None = None) -> Certificate:
    """Full certificate: all constants, the r-bound, beta > alpha and
    above-uniqueness checks, and the admissible lambda-interval when all
    hold: above_uniqueness holds where lambda_u is unknown or the
    interval's lower end 1 / beta_h is at least lambda_u.  The test function
    is vbar = h phi_1 (`grids.first_mode`); with h=None its height is
    chosen by `_scan_h`.  J(vbar) and Phi(vbar) are the grid's own
    (`_test_function_bounds`): the r-bound reads r < J(vbar) rounded down,
    and beta_h = Phi(vbar) / J(vbar), rounded down, is the reciprocal of
    the interval's lower end.

    `fine` is the same problem on the doubled grid (2n - 1 nodes per axis
    of the same domain).  When it is given, `converged` records whether
    alpha_r and beta_h agree on both grids to `_CONVERGENCE_RTOL`;
    otherwise it is None.  c0 and alpha_r are computed once per grid.  The
    doubled grid computes beta_h first, and its c0 and alpha_r only when
    beta_h agreed: where beta_h does not, the verdict is False already."""
    if not inst.p.certificate_eligible(inst.grid.domain.dim):
        raise ValueError("certificate requires p_minus > N/2")
    if fine is not None and (fine.grid.domain != inst.grid.domain
                             or fine.grid.n != 2 * inst.grid.n - 1):
        raise ValueError("fine must be the problem on the doubled grid "
                         "(2n - 1 nodes per axis) of the same domain")
    c0 = estimate_c0(inst.grid, inst.p)
    alpha = alpha_r(inst, r, c0)
    scanned = h is None
    if scanned:
        h = _scan_h(inst, r, alpha)
    bounds = _test_function_bounds(inst, [h])
    beta = float(_beta(*bounds)[0])
    J_lo, J_up, Phi_lo = (float(b[0]) for b in bounds)
    usable = not np.isnan(beta)
    lam_u = uniqueness_threshold(inst)
    checks = {
        "r_bound": usable and r < J_lo,
        "beta_gt_alpha": usable and beta > alpha > 0.0,
        "above_uniqueness": lam_u is None or (
            usable and beta > 0.0 and 1.0 / beta >= float(lam_u)),
    }
    feasible = all(checks.values())
    interval = (1.0 / beta, 1.0 / alpha) if feasible else None
    reason = None
    if not usable:
        reason = ("J(vbar) is not in (0, inf), or Phi(vbar) / J(vbar) is "
                  "not finite, at " + ("every scanned h" if scanned
                                       else f"h = {h:g}"))
    elif not feasible:
        reason = "; ".join(k for k, v in checks.items() if not v)

    converged = None
    if fine is not None:
        fine_beta = float(_beta(*_test_function_bounds(fine, [h]))[0])
        converged = _close(beta, fine_beta) and _close(
            alpha, alpha_r(fine, r, estimate_c0(fine.grid, fine.p)))

    N = inst.grid.domain.dim
    D = inradius(inst.grid.domain)
    return Certificate(
        r=r, h=h, D=D, w=unit_ball_volume(N), L=compute_L(N, D),
        gamma_r=gamma_r(inst.p, r), c0=c0,
        alpha_r=alpha, beta_h=beta if usable else None,
        lambda_interval=interval, checks=checks, converged=converged,
        lambda_unique=lam_u, J_vbar=J_up if usable else None,
        Phi_vbar_lower=Phi_lo if usable else None, reason=reason,
    )


def _close(a, b):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale < _CONVERGENCE_RTOL

"""Explicit three-solution certificates for the fourth-order problem.

Computes every constant of the admissible lambda-interval (gamma_r, the
embedding constant c0, alpha_r, beta_h), decides feasibility, and provides
the dedicated 1D interval with its constant k.

The interval is that of the three-critical-points theorem of Bonanno and
Marano (Appl. Anal. 89, 2010), which needs one test function vbar with
r < J(vbar) and Phi(vbar) / J(vbar) > alpha_r, and then gives
lambda in (J(vbar) / Phi(vbar), 1 / alpha_r).  Here vbar = h phi_1, the
first eigenvector of -L on the interior scaled to sup h, and J(vbar) and
Phi(vbar) are the grid's own quadratures, rounded outwards by a
floating-point slack.  The record also carries the inradius D with its
centre x0, the unit ball volume w and the annulus measure L.

Every interval is a claim about the discrete problem on the certificate's
grid: c0 is the "discrete-green" constant of that grid on every domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import ProblemInstance
from .exponents import ExponentField, conjugate
from .grids import (Domain, Grid, GridFunction, first_mode, integrate,
                    sine_eigenvalues, unit_ball_volume)
from .potentials import NonlinearitySpec
from .spaces import _luxemburg_of_values, _modular_values

__all__ = [
    "Certificate",
    "inradius",
    "compute_L",
    "gamma_r",
    "build_test_function",
    "alpha_r",
    "certify",
    "estimate_c0",
    "dim1_certificate",
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
    N: int
    D: float
    x0: tuple
    w: float
    L: float
    gamma_r: float | None
    c0: float
    c0_provenance: str
    alpha_r: float | None
    beta_h: float | None
    lambda_interval: tuple | None
    checks: dict
    converged: bool | None = None
    k: float | None = None           # 1D path
    l: float | None = None           # 1D path
    nu: float | None = None          # 1D path
    J_vbar: float | None = None
    Phi_vbar_lower: float | None = None
    reason: str | None = None

    @property
    def feasible(self) -> bool:
        return self.lambda_interval is not None


def inradius(domain: Domain):
    """(D, x0): exact inradius of a supported domain and an attaining center."""
    if domain.kind == "interval":
        return 0.5, (0.5,)
    if domain.kind == "rectangle":
        return min(domain.a, domain.b) / 2, (domain.a / 2, domain.b / 2)
    return domain.R, (0.0,)  # ball_radial


def compute_L(N: int, D: float) -> float:
    """Measure of the annulus B(x0,D) \\ B(x0,D/2): w (D^N - (D/2)^N)."""
    return unit_ball_volume(N) * (D**N - (D / 2) ** N)


def gamma_r(p: ExponentField, r: float) -> float:
    """gamma_r = max{(p^+ r)^{1/p^+}, (p^+ r)^{1/p^-}}."""
    base = p.p_plus * r
    return max(base ** (1.0 / p.p_plus), base ** (1.0 / p.p_minus))


def build_test_function(h: float, grid: Grid) -> GridFunction:
    """vbar = h phi_1, with phi_1 the first eigenvector of -L on the
    interior scaled to sup 1 (`grids.first_mode`): the certificate's test
    function and the solver's structured start."""
    return GridFunction(grid, h * first_mode(grid), bc="navier")


def _test_function_bounds(inst: ProblemInstance, heights):
    """(J_lo, J_up, Phi_lo): J(vbar) rounded down and up and Phi(vbar)
    rounded down for vbar = h phi_1 at each of heights, all in one pass,
    by the quadrature of `energy.energy_J` and `energy.load_Phi`."""
    grid = inst.grid
    V = first_mode(grid)[:, None] * np.asarray(heights, float)
    with np.errstate(over="ignore", invalid="ignore"):
        J_lo, J_up = _rounded_sum(
            grid, inst.potential.A(grid.laplacian_matrix() @ V))
        Phi_lo = _rounded_sum(grid, inst.nonlinearity.F(V))[0]
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
    sup_F = inst.nonlinearity.F_range(-bound, bound)[1]
    return integrate(inst.grid, sup_F) / r


def estimate_c0(grid: Grid, p: ExponentField):
    """(c0, "discrete-green"): the embedding constant in
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
    row is generated and screened.  The bound is the smaller of two
    closed forms: `_modular_bound`, which charges every node the worst
    exponent p'- (exact at constant p' = 2), and, where p' varies and
    p'- < 2, `_young_bound`, which charges each node with p'_j <= 2 its
    own exponent by Young's inequality.

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
    moments, rows, green = _green_rows(grid)
    young = _young_terms(grid, pc, green)
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
                block = block[_modular_values(block / best, grid, pc) > 1.0]
        if len(block):
            norm = float(np.max(_luxemburg_of_values(block, grid, pc).value))
            if norm > best:
                best = norm
                bound = _row_bound(moments[:, todo], best, pc,
                                   None if young is None else young[:, todo])
                # written so that a NaN bound keeps its row
                todo = todo[~(bound <= 1.0 - _SKIP_MARGIN)]
    return (1.0 / p.p_minus + 1.0 / pc.p_minus) * best, "discrete-green"


def _row_bound(moments: np.ndarray, mu: float, q: ExponentField,
               young: np.ndarray | None):
    """The smaller of `_modular_bound` and, given the rows'
    `_young_terms`, `_young_bound`; NaN where either is NaN."""
    bound = _modular_bound(moments, mu, q)
    if young is not None:
        bound = np.minimum(bound, _young_bound(young, moments, mu, q))
    return bound


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


def _young_betas(q: ExponentField) -> np.ndarray:
    """The Young parameters beta of `_young_terms` and `_young_bound`, as a
    column: 12 log-spaced values in [(q- - 1)/2, 2].  Any beta > 0 gives a
    valid bound.  Young's v^q <= alpha v + beta v^2 is tight where
    beta = (q - 1) v^{q-2}, and v near 1 holds the modular mass of the rows
    near the best norm.  Each beta costs one Poisson solve per grid, a
    12 x 961 x 8 B = 92 KB table on the 33 x 33 grid (below glibc's 128 KB
    mmap threshold)."""
    return np.geomspace((q.p_minus - 1.0) / 2.0, 2.0, 12)[:, None]


def _young_terms(grid: Grid, q: ExponentField, green):
    """T[k, i] = sum_j alpha_j(beta_k) |G_ij| for each beta_k of
    `_young_betas`, the mu-free part of `_young_bound`, or None where that
    bound cannot beat `_modular_bound`: a constant q, where its minimum over
    beta is the Lyapunov bound, and q- >= 2, where no node has an alpha.

    For 1 <= q_j <= 2 and beta > 0, Young's inequality gives
    v^q_j <= alpha_j(beta) v + beta v^2 for every v >= 0, with
    alpha_j = (2 - q_j) ((q_j - 1)/beta)^{(q_j-1)/(2-q_j)}; at q_j = 2,
    alpha_j is 0 for beta >= 1 and no alpha_j exists for beta < 1, whose
    terms are inf.  Nodes with q_j > 2 take alpha_j = 0 and are charged in
    `_young_bound`.  The rounding of alpha_j enters the bound weighted by
    2 - q_j, so it stays a few ulps of v^q_j however large the exponent
    grows as q_j -> 2.
    """
    if q.is_constant or q.p_minus >= 2.0:
        return None
    qv = q.values[grid.interior_mask]
    beta = _young_betas(q)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        alpha = (2.0 - qv) * ((qv - 1.0) / beta) ** ((qv - 1.0) / (2.0 - qv))
    alpha[:, qv > 2.0] = 0.0
    alpha[:, qv == 2.0] = np.where(beta >= 1.0, 0.0, np.inf)
    ok = np.all(np.isfinite(alpha), axis=1)
    terms = np.full(alpha.shape, np.inf)
    terms[ok] = green(alpha[ok])
    return terms


def _young_bound(terms: np.ndarray, moments: np.ndarray, mu: float,
                 q: ExponentField):
    """An upper bound on the modular int |G_i/(w mu)|^{q(x)} dx of each
    row from its `_young_terms` and moments (L1, L2, M).

    With v = |G_i|/(w mu), a node with q_j <= 2 has
    v_j^q_j <= alpha_j v_j + beta v_j^2, and one with q_j > 2 has
    v_j^q_j <= K v_j^2 with K = max(1, M/mu)^{q+ - 2}, as in
    `_modular_bound`.  Summed with the weights w_j, the modular is at most
    T_i(beta)/mu + max(beta, K) L2_i/mu^2, taken at the best beta of
    `_young_betas`, the same beta as `_young_terms`.
    """
    coef = _young_betas(q)
    if q.p_plus > 2.0:
        with np.errstate(over="ignore"):
            coef = np.maximum(
                coef, np.maximum(1.0, moments[2] / mu) ** (q.p_plus - 2.0))
    return np.min(terms / mu + coef * (moments[1] / mu**2), axis=0)


def _green_rows(grid: Grid):
    """(moments, rows, green) for the interior rows G_i / w of the inverse
    Laplacian.  moments is (L1, L2, M) stacked, three closed-form values
    per interior row: L1_i = sum_j |G_ij|, L2_i = sum_j G_ij^2 / w_j and
    M_i = max_j |G_ij| / w_j.  rows(idx) returns the rows idx as
    full-grid arrays, zero on the boundary.  green(f) returns |G| f_k, one
    Poisson solve, for each interior field f_k (the rows of f).

    On a rectangle the 5-point Laplacian is diagonal in the orthonormal
    sine basis S (one matrix for both axes, as both have n nodes), with
    eigenvalues lam = lx + ly of -L, so G_i = S (S[i1] (x) S[i2] / lam) S
    and |G| f = S ((S f S) / lam) S, since G is entrywise of one sign (the
    inverse of an M-matrix); L1 = |G| 1.  By the discrete maximum
    principle the row maximum is the diagonal, M = (S^2 (1/lam) S^2) / w
    with the constant interior weight w.  On the interval and the radial
    ball G is the dense inverse of the interior block, and the moments
    are read from it.
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

        def green(f):
            f = f.reshape(len(f), m, m)
            return (S @ ((S @ f @ S) / lam) @ S).reshape(len(f), m * m)

        def rows(idx):
            i1, i2 = np.divmod(idx, m)
            g = S @ (S[i1][:, :, None] * S[i2][:, None, :] / lam) @ S
            out = np.zeros((len(idx), n, n))
            out[:, 1:-1, 1:-1] = g / w_in.reshape(m, m)
            return out.reshape(len(idx), n * n)

        moments = np.stack([
            green(np.ones((1, m * m)))[0],
            (S2 @ (1.0 / lam**2) @ S2).ravel() / w_in,
            (S2 @ (1.0 / lam) @ S2).ravel() / w_in,
        ])
    else:
        G = np.linalg.inv(
            grid.laplacian_matrix()[interior][:, interior].toarray())
        absG = np.abs(G)
        moments = np.stack([absG.sum(axis=1), (G**2) @ (1.0 / w_in),
                            (absG / w_in).max(axis=1)])

        def green(f):
            return f @ absG.T

        def rows(idx):
            out = np.zeros((len(idx), n))
            out[:, interior] = G[idx] / w_in
            return out
    return moments, rows, green


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
    """Full certificate: all constants, the r-bound and beta > alpha checks,
    and the admissible lambda-interval when both hold.  The test function
    is vbar = h phi_1 (`build_test_function`); with h=None its height is
    chosen by `_scan_h`.  J(vbar) and Phi(vbar) are the grid's own
    (`_test_function_bounds`): the r-bound reads r < J(vbar) rounded down,
    and beta_h = Phi(vbar) / J(vbar), rounded down, is the reciprocal of
    the interval's lower end.

    `fine` is the same problem on the doubled grid (2n - 1 nodes per axis
    of the same domain).  When it is given, `converged` records whether
    alpha_r and beta_h agree on both grids to `_CONVERGENCE_RTOL`;
    otherwise it is None.  c0 and alpha_r are computed once per grid; the
    doubled grid computes only them and beta_h."""
    if not inst.p.certificate_eligible(inst.grid.domain.dim):
        raise ValueError("certificate requires p_minus > N/2")
    if fine is not None and (fine.grid.domain != inst.grid.domain
                             or fine.grid.n != 2 * inst.grid.n - 1):
        raise ValueError("fine must be the problem on the doubled grid "
                         "(2n - 1 nodes per axis) of the same domain")
    c0, c0_provenance = estimate_c0(inst.grid, inst.p)
    alpha = alpha_r(inst, r, c0)
    scanned = h is None
    if scanned:
        h = _scan_h(inst, r, alpha)
    bounds = _test_function_bounds(inst, [h])
    beta = float(_beta(*bounds)[0])
    J_lo, J_up, Phi_lo = (float(b[0]) for b in bounds)
    usable = not np.isnan(beta)
    checks = {
        "r_bound": usable and r < J_lo,
        "beta_gt_alpha": usable and beta > alpha > 0.0,
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
        fine_alpha = alpha_r(fine, r, estimate_c0(fine.grid, fine.p)[0])
        fine_beta = float(_beta(*_test_function_bounds(fine, [h]))[0])
        converged = _close(alpha, fine_alpha) and _close(beta, fine_beta)

    N = inst.grid.domain.dim
    D, x0 = inradius(inst.grid.domain)
    return Certificate(
        r=r, h=h, N=N, D=D, x0=tuple(x0), w=unit_ball_volume(N),
        L=compute_L(N, D), gamma_r=gamma_r(inst.p, r),
        c0=c0, c0_provenance=c0_provenance,
        alpha_r=alpha, beta_h=beta if usable else None,
        lambda_interval=interval, checks=checks, converged=converged,
        J_vbar=J_up if usable else None,
        Phi_vbar_lower=Phi_lo if usable else None, reason=reason,
    )


def _close(a, b):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale < _CONVERGENCE_RTOL


def dim1_certificate(nl: NonlinearitySpec, p: ExponentField,
                     l: float, h: float, c3: float) -> Certificate:
    """The dedicated 1D certificate for (|u''|^{p(x)-2} u'')'' =
    lambda alpha(x) g(u) on (0,1), with the load nl on p's grid.

    Feasible iff G(l)/l^{p+} < k G(h)/h^{p+} with
    k = (1/(p+ c3)) (3/8)^{p+} alpha_0/||alpha||_1; the side condition
    l <= 1 <= (8h/3)^{p-/p+} (1/4)^{1/p+} and the vanishing-growth
    condition g(t) |t|^{-nu} -> 0 are checked and recorded.
    """
    grid, g, alpha_vals = p.grid, nl.g, nl.alpha
    if grid.domain.kind != "interval":
        raise ValueError("the dedicated 1D certificate needs an interval grid")
    if np.any(alpha_vals <= 0):
        raise ValueError("alpha must be positive")
    g0 = float(np.asarray(g(0.0)))
    checks = {}
    reason = None
    if g0 == 0.0:
        checks["g0_nonzero"] = False
        reason = "g(0) = 0"
    else:
        checks["g0_nonzero"] = True

    # vanishing growth: exists nu in [0, p^- - 1) with g(t) |t|^{-nu} -> 0,
    # probed by sampling at |t| in {1e2, 1e3, 1e4}
    nu = None
    probes = np.array([1e2, 1e3, 1e4])
    for cand in np.linspace(0.0, p.p_minus - 1.0, 21)[:-1]:
        ratios = np.abs(np.asarray(g(probes), float)) / probes**cand
        if np.all(np.diff(ratios) < 0) and ratios[-1] < 1e-2:
            nu = float(cand)
            break
    checks["nu_growth"] = nu is not None

    pp = p.p_plus
    side = (l <= 1.0 + 1e-12) and \
        (1.0 <= (8 * h / 3) ** (p.p_minus / pp) * 0.25 ** (1.0 / pp) + 1e-12)
    checks["side_condition"] = bool(side)

    alpha_0 = float(alpha_vals.min())
    alpha_l1 = integrate(grid, np.abs(alpha_vals))
    k = (1.0 / (pp * c3)) * (3.0 / 8.0) ** pp * alpha_0 / alpha_l1

    G_h = float(np.asarray(nl.G(h)))
    G_l = float(np.asarray(nl.G(l)))
    feas_ratio = (G_l / l**pp) < (k * G_h / h**pp)
    checks["G_ratio"] = bool(feas_ratio)

    feasible = feas_ratio and checks["g0_nonzero"]
    if feasible:
        lo = (8.0 / 3.0) ** pp * h**pp * c3 / (alpha_0 * G_h)
        hi = l**pp / (pp * alpha_l1 * G_l)
        interval = (lo, hi)
    else:
        interval = None
        if reason is None:
            reason = "G(l)/l^{p+} >= k G(h)/h^{p+}"

    D, x0 = inradius(grid.domain)
    return Certificate(
        r=l**pp / pp, h=h, N=1, D=D, x0=tuple(x0),
        w=unit_ball_volume(1), L=compute_L(1, D),
        gamma_r=l, c0=0.25, c0_provenance="analytic",
        alpha_r=None, beta_h=None,
        lambda_interval=interval, checks=checks,
        k=k, l=l, nu=nu, reason=reason,
    )

"""Multi-start critical-point search: damped Newton descent on the energy,
and deflated Newton to find distinct weak solutions.

Both run one Newton core: the energy Hessian is assembled in LAPACK band
storage and solved by banded LU with partial pivoting (dgbsv).  The
deflated search advances all its pending starts as one batch, one column
each of a nodes x starts array, and commits their results in start order,
so it returns what running them one at a time returns.  Where a closed-form
monotonicity modulus proves the critical point unique, the search stops at
the descent's point.  Accepted points
must pass a clean (undeflated) residual check against the solver
tolerance, raised only where the rounding floor of the residual lies above
it; deflation only steers the iteration away from already-found solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dgbsv

from .energy import ProblemInstance, residual_vector, total_energy
from .grids import GridFunction, laplacian_floor

__all__ = [
    "CriticalPoint",
    "SolutionSet",
    "acceptance_threshold",
    "minimize",
    "uniqueness_modulus",
    "deflate_and_search",
    "lambda_sweep",
]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000
DISTINCTNESS = 1e-3       # pairwise sup-norm distance threshold
DEFLATION_POWER = 2.0
DEFLATION_SHIFT = 1.0
FLOOR_FACTOR = 4.0        # accepted residual: up to this many rounding floors
NEWTON_MAX_ITER = 100
STEP_TOL = 1e-12          # relative Newton step at which iteration stops
ARMIJO = 1e-4             # sufficient decrease of the descent's line search
EPS = np.finfo(float).eps


@dataclass
class CriticalPoint:
    u: GridFunction
    energy: float
    residual_norm: float
    starts_used: int = 1
    converged: bool = True
    threshold: float = DEFAULT_TOL   # residual bound the point was held to


@dataclass
class SolutionSet:
    points: list = field(default_factory=list)
    uniqueness_modulus: float | None = None

    @property
    def pairwise_dist(self) -> np.ndarray:
        k = len(self.points)
        d = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                d[i, j] = d[j, i] = float(np.max(np.abs(
                    self.points[i].u.values - self.points[j].u.values)))
        return d

    def is_distinct(self, values: np.ndarray, threshold: float) -> bool:
        return all(
            float(np.max(np.abs(p.u.values - values))) > threshold
            for p in self.points
        )

    def sort(self):
        self.points.sort(key=lambda p: (p.energy, tuple(p.u.values)))


def _lift(inst, z):
    vals = np.zeros(inst.grid.size)
    vals[inst.grid.interior_mask] = z
    return GridFunction(inst.grid, vals, bc="navier")


def _slope(fun, t):
    """Elementwise central difference of an elementwise function.  The step
    never falls below 1e-6, which keeps a_t finite (about 1e-6^{p-2}) at
    t = 0 where p < 2 and a_t is singular."""
    d = 1e-6 * np.maximum(np.abs(t), 1.0)
    return (fun(t + d) - fun(t - d)) / (2.0 * d)


def _linearise(inst, values, Lu=None):
    """Lu, a_t(Lu) and f_t(u) at the nodal values (nodes on the leading
    axis); Lu is L @ values where the caller has it already."""
    if Lu is None:
        Lu = inst.grid.laplacian_matrix() @ values
    a_t = _slope(inst.potential.a, Lu)
    f_t = _slope(inst.nonlinearity.f, values)
    return Lu, a_t, f_t


class _Hessian:
    """Interior block of the energy Hessian
    L^T W diag(a_t(Lu)) L - lambda W diag(f_t(u)) in LAPACK band storage:
    entry (i, j) sits in row 2k + i - j, column j of a (3k+1, m) array, k
    the bandwidth (2 on intervals and balls, 2(n-2) on an n x n rectangle)
    and the top k rows room for the LU fill-in.  The pattern is fixed by
    the grid, so the band position of every product L[r,i] L[r,j] is laid
    out once; each Newton step only sums the products times (W a_t)[r]
    into the band, one band per start."""

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        self.interior = inst.grid.interior_mask
        Li = inst.grid.laplacian_matrix()[:, self.interior].tocsr()
        # every pair (a, b) of stored entries that share a row r of L
        cnt = np.diff(Li.indptr)
        sq = cnt * cnt
        t = np.arange(sq.sum()) - np.repeat(np.cumsum(sq) - sq, sq)
        first = np.repeat(Li.indptr[:-1], sq)
        per_row = np.repeat(cnt, sq)
        a, b = first + t // per_row, first + t % per_row
        self.row = np.repeat(np.arange(Li.shape[0]), sq)
        self.coef = Li.data[a] * Li.data[b]
        i, j = Li.indices[a], Li.indices[b]
        self.k = int(np.max(np.abs(i - j), initial=0))
        self.diag = 2 * self.k           # band row of the diagonal
        self.shape = (3 * self.k + 1, Li.shape[1])
        # flat column-major band position of entry (i, j)
        self.pos = j * self.shape[0] + self.diag + i - j

    def bands(self, values: np.ndarray, Lu: np.ndarray | None = None,
              convex: bool = False):
        """The band at each column of values (nodes x starts), each built
        only when the caller asks for it; with convex, the band of the
        Hessian's convex part L^T W diag(a_t) L + lambda W max(-f_t, 0).
        Lu is L @ values where the caller has it already."""
        inst = self.inst
        w = inst.grid.weights[:, None]
        _, a_t, f_t = _linearise(inst, values, Lu)
        if convex:
            f_t = np.minimum(f_t, 0.0)
        # one contiguous row per start, for the gather by self.row
        wa = np.ascontiguousarray((w * a_t).T)
        wf = np.ascontiguousarray((inst.lam * (w * f_t)[self.interior]).T)
        del a_t, f_t
        for wa_b, wf_b in zip(wa, wf):
            yield self._band(wa_b, wf_b)

    def _band(self, wa: np.ndarray, wf: np.ndarray) -> np.ndarray:
        band = np.bincount(self.pos, self.coef * wa[self.row],
                           minlength=self.shape[0] * self.shape[1])
        band = band.reshape(self.shape, order="F")
        band[self.diag] -= wf
        return band

    def steps(self, values: np.ndarray, rhs: np.ndarray,
              Lu: np.ndarray | None = None,
              convex: bool = False) -> np.ndarray:
        """Row b solves H(values[:, b]) x = rhs[b].  Each band is factored
        before the next one is built, so one band is alive at a time."""
        bands = self.bands(values, Lu, convex)
        x = np.empty(rhs.shape)
        for b in range(len(rhs)):
            x[b] = self.solve(next(bands), rhs[b])
        return x

    def solve(self, band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The solution of H x = rhs by banded LU with partial pivoting
        (dgbsv), all NaN where the factor is exactly singular.  The LU
        factor overwrites the band, and x may overwrite rhs."""
        _, _, x, info = dgbsv(self.k, self.k, band, rhs,
                              overwrite_ab=True, overwrite_b=True)
        if info < 0:
            raise ValueError(f"dgbsv: illegal argument {-info}")
        return x if info == 0 else np.full_like(x, np.nan)


def acceptance_threshold(inst: ProblemInstance, values: np.ndarray,
                         tol: float = DEFAULT_TOL) -> float:
    """max(tol, FLOOR_FACTOR * floor), where floor is the rounding error
    eps * |L|^T W (|a(Lu)| + |a_t(Lu)| |L||u|) + eps * lambda W |f(u)| of
    the residual's own terms (sup over the interior).  The floor grows
    like h^-3, so an absolute tol alone is unreachable on fine grids; where
    the floor is below tol/FLOOR_FACTOR the threshold is exactly tol."""
    L = inst.grid.laplacian_matrix()
    absL = abs(L)
    w = inst.grid.weights
    Lu, a_t, _ = _linearise(inst, values)
    terms = absL.T @ (w * (np.abs(inst.potential.a(Lu))
                           + np.abs(a_t) * (absL @ np.abs(values))))
    terms += inst.lam * w * np.abs(inst.nonlinearity.f(values))
    floor = EPS * float(np.max(terms[inst.grid.interior_mask]))
    return max(tol, FLOOR_FACTOR * floor)


def _energy_floor(inst: ProblemInstance, values: np.ndarray) -> float:
    """FLOOR_FACTOR times the rounding error
    eps * W (|A(Lu)| + |a(Lu)| |L||u|) + eps * lambda W (|F(u)| + |f(u) u|)
    of the total energy's own terms, the analogue of acceptance_threshold's
    floor: energy differences below it cannot be measured."""
    L = inst.grid.laplacian_matrix()
    pot, nl = inst.potential, inst.nonlinearity
    u = np.abs(values)
    Lu = L @ values
    terms = np.abs(pot.A(Lu)) + np.abs(pot.a(Lu)) * (abs(L) @ u)
    terms += inst.lam * (np.abs(nl.F(values)) + np.abs(nl.f(values)) * u)
    return FLOOR_FACTOR * EPS * float(np.dot(inst.grid.weights, terms))


def _deflation_scale(z, step, w, known):
    """Sherman-Morrison factor tau of shifted-power deflation: the Newton
    step of M(u) F(u), M = prod_j (||u - u_j||^-q + s) in the weighted l2
    norm, is tau times the undeflated step, tau = 1 / (1 - grad(log M).step)."""
    q, s = DEFLATION_POWER, DEFLATION_SHIFT
    dot = 0.0
    for r in known:
        e = z - r
        nrm2 = float(np.dot(w, e * e))
        if nrm2 == 0.0:
            return 0.0
        m = nrm2 ** (-q / 2) + s
        dot -= q * nrm2 ** (-q / 2 - 1) * float(np.dot(w, e * step)) / m
    return 1.0 / (1.0 - dot)


def _newton(inst, Z, tol, hessian: _Hessian, known=(), done=None):
    """Newton iteration on the interior gradient with the banded Hessian,
    one start per column of Z (interior nodes x starts).  The pending
    columns advance together, each by the arithmetic of a run on its own.
    With known roots (interior values) every step is deflated away from
    them.  A column stops at tol, before a non-finite iterate, when its
    step is below STEP_TOL relative to u (the residual is then at its
    rounding floor), or after NEWTON_MAX_ITER steps.  As column b stops,
    done(b, z) may return True: the columns after b are then not needed
    and stop with it.  Returns the last iterates, shaped as Z."""
    interior = inst.grid.interior_mask
    L = inst.grid.laplacian_matrix()
    w = inst.grid.weights[interior]
    Z = np.array(Z.T)                      # one contiguous row per start
    pending = np.ones(len(Z), dtype=bool)

    def stop(rows):                        # rows in ascending order
        for b in map(int, rows):
            if pending[b]:
                pending[b] = False
                if done is not None and done(b, Z[b]):
                    pending[b + 1:] = False

    for _ in range(NEWTON_MAX_ITER):
        cols = np.flatnonzero(pending)
        if not len(cols):
            break
        V = np.zeros((inst.grid.size, len(cols)))
        V[interior] = Z[cols].T
        Lu = L @ V
        R = residual_vector(inst, V, Lu)[interior].T
        stop(cols[~np.all(np.isfinite(R), axis=1)
                  | (np.max(np.abs(R), axis=1) <= tol)])
        go = pending[cols]
        if not go.all():
            V, Lu, R = V[:, go], Lu[:, go], R[go]
        rows = cols[go]
        steps = hessian.steps(V, -R, Lu)
        for b, step in zip(rows, steps):
            step *= _deflation_scale(Z[b], step, w, known)
        new = Z[rows] + steps
        finite = np.all(np.isfinite(new), axis=1)
        Z[rows[finite]] = new[finite]
        small = np.max(np.abs(steps), axis=1) <= STEP_TOL * np.maximum(
            1.0, np.max(np.abs(new), axis=1))
        stop(rows[~finite | small])
    stop(np.flatnonzero(pending))
    return Z.T


def _critical_point(inst, z, tol, starts_used=1) -> CriticalPoint:
    """Clean (undeflated) residual check against the acceptance threshold.
    A point whose energy is not finite is never converged: its threshold
    grows with the overflowing terms."""
    u = _lift(inst, z)
    rn = float(np.max(np.abs(residual_vector(inst, u.values))))
    thr = acceptance_threshold(inst, u.values, tol)
    e = total_energy(inst, u)
    return CriticalPoint(u, e, rn, starts_used,
                         converged=bool(rn <= thr and np.isfinite(e)),
                         threshold=thr)


def minimize(inst: ProblemInstance, u0: GridFunction,
             tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> CriticalPoint:
    """Damped Newton descent on the total energy, at most max_iter steps.
    Where the Newton step is no descent direction (near a saddle) it steps
    with the Hessian's convex part L^T W diag(a_t) L + lambda W max(-f_t, 0)
    instead, which is positive definite.  Armijo backtracking on the energy
    sets the step length, unless the predicted decrease lies below the
    energy's rounding floor; each trial energy is evaluated once.  Stops as
    _newton does, or when no step length lowers the energy."""
    interior = inst.grid.interior_mask
    hessian = _Hessian(inst)
    z = u0.values[interior]
    e = total_energy(inst, _lift(inst, z))
    L = inst.grid.laplacian_matrix()
    for _ in range(max_iter):
        vals = _lift(inst, z).values
        Lu = L @ vals
        r = residual_vector(inst, vals, Lu)[interior]
        if not np.all(np.isfinite(r)) or np.max(np.abs(r)) <= tol:
            break
        V, Lu = vals[:, None], Lu[:, None]
        step = hessian.steps(V, -r[None], Lu)[0]
        if not np.dot(r, step) < 0.0:
            step = hessian.steps(V, -r[None], Lu, convex=True)[0]
        if not np.all(np.isfinite(step)):
            break
        # a decrease below the energy's rounding floor cannot be measured:
        # there the full step is taken
        slope, t = float(np.dot(r, step)), 1.0
        floor = _energy_floor(inst, vals)
        trial = total_energy(inst, _lift(inst, z + step))
        while -slope > floor and trial > e + ARMIJO * t * slope:
            t *= 0.5
            if t < EPS:
                return _critical_point(inst, z, tol)
            trial = total_energy(inst, _lift(inst, z + t * step))
        z, e = z + t * step, trial
        if t * np.max(np.abs(step)) <= STEP_TOL * max(
                1.0, float(np.max(np.abs(z)))):
            break
    return _critical_point(inst, z, tol)


def uniqueness_modulus(inst: ProblemInstance) -> float | None:
    """mu = min_i a_t_min,i nu^2 - lambda max_i |alpha_i| Lip(g), the
    monotonicity modulus of the discrete problem; None where a_t_min or
    Lip(g) is unknown or mu is not finite.

    For z, y that vanish on the boundary and v = z - y, the mean value
    theorem and ||L v||_W >= nu ||v||_W (`grids.laplacian_floor`) give
    (grad E(z) - grad E(y)).v
      = sum_r w_r (a(Lz) - a(Ly))_r (Lv)_r - lambda sum_r w_r f_r v_r
      >= min a_t_min ||Lv||_W^2 - lambda max|alpha| Lip(g) ||v||_W^2
      >= mu ||v||_W^2,
    with f_r = alpha_r (g(z_r) - g(y_r)).  With mu > 0 the gradient is
    strongly monotone, so the discrete energy has exactly one critical
    point (in exact arithmetic)."""
    a_min, lip = inst.potential.a_t_min, inst.nonlinearity.lip
    if a_min is None or lip is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(np.min(a_min) * laplacian_floor(inst.grid) ** 2
                   - inst.lam * np.max(np.abs(inst.nonlinearity.alpha)) * lip)
    return mu if np.isfinite(mu) else None


def _fourier_start(inst, rng, amplitude: float, n_modes: int = 5):
    """Fixed-seed smooth random start satisfying the Navier conditions."""
    grid = inst.grid
    if grid.domain.kind == "interval":
        x = grid.nodes
        vals = np.zeros(grid.size)
        for k in range(1, n_modes + 1):
            vals += rng.standard_normal() * np.sin(k * np.pi * x)
    elif grid.domain.kind == "rectangle":
        x = grid.nodes[:, 0] / grid.domain.a
        y = grid.nodes[:, 1] / grid.domain.b
        vals = np.zeros(grid.size)
        for k in range(1, n_modes + 1):
            for m in range(1, n_modes + 1):
                vals += rng.standard_normal() * np.sin(k * np.pi * x) \
                    * np.sin(m * np.pi * y)
    else:
        r = grid.nodes / grid.domain.R
        vals = rng.standard_normal() * (1 - r**2)
        for k in range(2, n_modes + 1):
            vals += rng.standard_normal() * (1 - r**2) ** k
        vals[grid.boundary_mask] = 0.0
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals *= amplitude * abs(rng.standard_normal()) / peak
    return GridFunction(grid, vals, bc="navier")


def _structured_starts(inst, vbar_scale: float):
    """Zero-adjacent perturbation plus +/- the certificate's test function."""
    from .certificate import build_test_function

    grid = inst.grid
    tiny = np.zeros(grid.size)
    tiny[grid.interior_mask] = 1e-3
    vb = build_test_function(vbar_scale, grid)
    return [GridFunction(grid, tiny, bc="navier"), vb,
            GridFunction(grid, -vb.values, bc="navier")]


def deflate_and_search(inst: ProblemInstance, k_max: int = 6,
                       n_starts: int = 12, seed: int = 0,
                       tol: float = DEFAULT_TOL,
                       vbar_scale: float = 1.0,
                       max_iter: int = DEFAULT_MAX_ITER) -> SolutionSet:
    """Deflated Newton from deterministic starts: each step is deflated
    away from the solutions found so far (shifted power deflation in the
    weighted l2 norm), and a point is accepted when its clean residual
    passes the acceptance threshold and it is sup-norm distinct from every
    solution found.  The pending starts run as one batch, and their results
    are committed in start order: the starts after the first accepted one
    run again, deflated against the larger set, so the result is that of
    running the starts one at a time.  max_iter caps the descent from the
    near-zero start.  When the descent's point is accepted and
    `uniqueness_modulus` is positive, it is the only critical point and
    the search ends there."""
    interior = inst.grid.interior_mask
    found = SolutionSet(uniqueness_modulus=uniqueness_modulus(inst))
    starts = _structured_starts(inst, vbar_scale)

    # the descent from the near-zero start first.  It ends at a local
    # minimiser, not necessarily the global one: on the ridge load at
    # n = 201, lambda = 30.25 it stops at E = -0.0095, while the global
    # minimiser, found from +vbar, has E = -7.67
    base = minimize(inst, starts[0], tol=tol, max_iter=max_iter)
    if base.converged:
        found.points.append(base)
        mu = found.uniqueness_modulus
        if mu is not None and mu > 0.0:
            return found

    rng = np.random.default_rng(seed)
    amp = max(vbar_scale, 10 * DISTINCTNESS)
    starts += [_fourier_start(inst, rng, amp) for _ in range(n_starts)]
    hessian = _Hessian(inst)
    Z = np.column_stack([s.values[interior] for s in starts])
    first = 0                    # the first start not yet committed
    while first < len(starts) and len(found.points) < k_max:
        known = [p.u.values[interior] for p in found.points]
        tried = {}               # batch column -> (point, accepted)

        def done(b, z):
            pt = _critical_point(inst, z, tol, starts_used=first + b + 1)
            ok = pt.converged and found.is_distinct(pt.u.values, DISTINCTNESS)
            tried[b] = pt, ok
            return ok            # the later starts must run again

        _newton(inst, Z[:, first:], tol, hessian, known, done)
        accepted = [b for b, (_, ok) in tried.items() if ok]
        if not accepted:
            break
        b = min(accepted)
        found.points.append(tried[b][0])
        first += b + 1
    found.sort()
    return found


def lambda_sweep(inst: ProblemInstance, interval, m: int,
                 straddle: bool = True, **search):
    """Run deflate_and_search, with the keywords search (k_max, n_starts,
    seed, tol, vbar_scale, max_iter), at m log-spaced lambda values across
    [lo*0.5, hi*2] (straddling the certified interval) and tabulate the
    counts and energies; deterministic for a fixed seed."""
    if m < 2:
        raise ValueError("need at least two lambda values")
    lo, hi = interval
    if straddle:
        lo, hi = 0.5 * lo, 2.0 * hi
    lambdas = np.geomspace(lo, hi, m)
    rows = []
    for lam in lambdas:
        sols = deflate_and_search(replace(inst, lam=float(lam)), **search)
        rows.append({
            "lambda": float(lam),
            "n_solutions": len(sols.points),
            "energies": [p.energy for p in sols.points],
            "residuals": [p.residual_norm for p in sols.points],
            "uniqueness_modulus": sols.uniqueness_modulus,
        })
    return rows

"""Structured grids, quadrature and the Navier-boundary discrete Laplacian.

Supported domains: the unit interval [0,1], axis-aligned rectangles
[0,a]x[0,b] and radially symmetric balls (reduced to a 1D radial grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Domain",
    "Grid",
    "GridFunction",
    "build_grid",
    "laplacian_floor",
    "sine_eigenvalues",
    "first_mode",
    "nodal_field",
    "nodewise",
    "integrate",
]


def unit_ball_volume(N: int) -> float:
    """Volume of the unit ball in R^N, pi^{N/2} / ((N/2) Gamma(N/2))."""
    return math.pi ** (N / 2) / ((N / 2) * math.gamma(N / 2))


@dataclass(frozen=True)
class Domain:
    """Geometry tag plus its parameters.

    kind: "interval" (fixed to [0,1]), "rectangle" ([0,a]x[0,b]) or
    "ball_radial" (ball of radius R in R^N, radial coordinate only).
    """

    kind: str
    a: float = 1.0
    b: float = 1.0
    N: int = 2
    R: float = 1.0

    def __post_init__(self):
        if self.kind not in ("interval", "rectangle", "ball_radial"):
            raise ValueError(f"unsupported domain kind: {self.kind!r}")
        if self.kind == "rectangle" and (self.a <= 0 or self.b <= 0):
            raise ValueError("rectangle sides must be positive")
        if self.kind == "ball_radial" and (self.N < 1 or self.R <= 0):
            raise ValueError("ball_radial needs N >= 1 and R > 0")

    @property
    def dim(self) -> int:
        """Spatial dimension N of the modeled domain."""
        if self.kind == "interval":
            return 1
        if self.kind == "rectangle":
            return 2
        return self.N


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform structured grid with quadrature weights.

    nodes is (M,) for 1D kinds and (M, 2) for the rectangle; values arrays
    are flat with M entries (rectangle row-major, shape (n, n)).  The
    boundary is the set of rows where Delta u = 0 is imposed (Navier), the
    empty rows of the Laplacian.
    """

    domain: Domain
    n: int
    nodes: np.ndarray
    weights: np.ndarray
    spacing: tuple
    shape: tuple
    _lap: sp.csr_matrix = field(repr=False, compare=False)

    def __post_init__(self):
        # both masks are built once, read-only, so no caller can change them
        mask = np.diff(self._lap.indptr) == 0
        interior = ~mask
        mask.flags.writeable = interior.flags.writeable = False
        object.__setattr__(self, "_boundary", mask)
        object.__setattr__(self, "_interior", interior)

    @property
    def size(self) -> int:
        return self.weights.size

    @property
    def x1(self) -> np.ndarray:
        """The first coordinate of every node: x1 on a rectangle, the node
        itself on the interval, the radius on the ball."""
        return self.nodes if self.nodes.ndim == 1 else self.nodes[:, 0]

    @property
    def boundary_mask(self) -> np.ndarray:
        return self._boundary

    @property
    def interior_mask(self) -> np.ndarray:
        return self._interior

    def laplacian_matrix(self) -> sp.csr_matrix:
        return self._lap

    def laplacian_transpose(self) -> sp.csc_matrix:
        """The transpose of laplacian_matrix(), built on first use: only
        the residual reads it, so a grid that is never solved on never
        pays for it."""
        return self._lap_t

    @cached_property
    def _lap_t(self) -> sp.csc_matrix:
        return self._lap.T

    @cached_property
    def abs_laplacian(self) -> sp.csr_matrix:
        """|L| entrywise, for the solver's rounding floors: built on first
        use, so a grid that is never solved on never pays for it."""
        return abs(self._lap)

    @cached_property
    def band_layout(self) -> "BandLayout":
        """The band layout of L^T D L on the interior (`_band_layout`):
        built on first use, and then shared by every problem on the grid."""
        return _band_layout(self)


class BandLayout(NamedTuple):
    """Where L^T D L (D diagonal) on the interior goes in LAPACK band
    storage, fixed by the grid.  For each product p of two stored entries
    L[r,i], L[r,j] in one row r of L (i, j interior columns): row[p] = r,
    coef[p] = L[r,i] L[r,j], and pos[p] is the flat column-major position
    of entry (i, j), at row diag + i - j and column j of a `shape` =
    (3k+1, m) array, with k the bandwidth, diag = 2k, and the top k rows
    room for the LU fill-in."""

    row: np.ndarray
    coef: np.ndarray
    k: int
    diag: int
    shape: tuple
    pos: np.ndarray


def _band_layout(grid: Grid) -> BandLayout:
    Li = grid.laplacian_matrix()[:, grid.interior_mask].tocsr()
    # every pair (a, b) of stored entries that share a row r of L
    cnt = np.diff(Li.indptr)
    sq = cnt * cnt
    t = np.arange(sq.sum()) - np.repeat(np.cumsum(sq) - sq, sq)
    first = np.repeat(Li.indptr[:-1], sq)
    per_row = np.repeat(cnt, sq)
    a, b = first + t // per_row, first + t % per_row
    i, j = Li.indices[a], Li.indices[b]
    k = int(np.max(np.abs(i - j), initial=0))
    shape = (3 * k + 1, Li.shape[1])
    row, coef = np.repeat(np.arange(Li.shape[0]), sq), Li.data[a] * Li.data[b]
    pos = j * shape[0] + 2 * k + i - j
    # shared by every problem on the grid, so read-only
    row.flags.writeable = coef.flags.writeable = pos.flags.writeable = False
    return BandLayout(row, coef, k, 2 * k, shape, pos)


def _stencil(size: int, rows: np.ndarray, offsets, coefs) -> sp.csr_matrix:
    """The size x size CSR matrix holding coefs[k, j] in row rows[k] (int32,
    ascending), column rows[k] + offsets[j] (offsets ascending); coefs may
    be one row shared by all rows, which is then tiled.  Zero coefficients
    are not stored, and every row not in rows is empty."""
    offsets = np.asarray(offsets, dtype=np.int32)
    keep = coefs != 0.0
    if coefs.ndim == 1:
        data = np.empty((rows.size, np.count_nonzero(keep)))
        data[:] = coefs[keep]
        cols, per_row = rows[:, None] + offsets[keep], data.shape[1]
    else:
        data, cols = coefs[keep], (rows[:, None] + offsets)[keep]
        per_row = keep.sum(axis=1)
    counts = np.zeros(size + 1, dtype=np.int32)
    counts[rows + 1] = per_row
    return sp.csr_matrix(
        (data.ravel(), cols.ravel(), np.cumsum(counts, dtype=np.int32)),
        shape=(size, size))


def _trapezoid(x: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights on the uniform nodes x."""
    h = x[1] - x[0]
    w = np.full(x.size, h)
    w[0] = w[-1] = h / 2
    return w


def _interval_grid(domain: Domain, n: int) -> Grid:
    x = np.linspace(0.0, 1.0, n)
    h = x[1] - x[0]
    L = _stencil(n, np.arange(1, n - 1, dtype=np.int32), (-1, 0, 1),
                 np.array([1.0, -2.0, 1.0]) / h**2)
    return Grid(domain, n, x, _trapezoid(x), (h,), (n,), L)


def _rectangle_grid(domain: Domain, n: int) -> Grid:
    x = np.linspace(0.0, domain.a, n)
    y = np.linspace(0.0, domain.b, n)
    hx, hy = x[1] - x[0], y[1] - y[0]
    # node k = i n + j is (x_i, y_j), written through an (n, n, 2) view
    nodes = np.empty((n * n, 2))
    view = nodes.reshape(n, n, 2)
    view[..., 0], view[..., 1] = x[:, None], y
    weights = np.outer(_trapezoid(x), _trapezoid(y)).ravel()
    cx, cy = 1.0 / hx**2, 1.0 / hy**2
    inner = np.arange(1, n - 1, dtype=np.int32)
    rows = (inner[:, None] * n + inner).ravel()
    L = _stencil(n * n, rows, (-n, -1, 0, 1, n),
                 np.array([cx, cy, -2.0 * (cx + cy), cy, cx]))
    return Grid(domain, n, nodes, weights, (hx, hy), (n, n), L)


def _ball_radial_grid(domain: Domain, n: int) -> Grid:
    """Finite-volume radial grid: cell volumes as weights, flux-form Laplacian.

    Weights are exact shell volumes, so they sum to |ball| exactly and the
    weighted Laplacian is self-adjoint on the Navier subspace.  The stencil
    is exact on radially symmetric quadratics c + b*r^2.
    """
    N, R = domain.N, domain.R
    r = np.linspace(0.0, R, n)
    h = r[1] - r[0]
    wN = unit_ball_volume(N)
    faces = np.concatenate([[0.0], r[:-1] + h / 2, [R]])
    vol = wN * (faces[1:] ** N - faces[:-1] ** N)

    # surface areas of cell i's inner and outer faces, wN * N * r^{N-1};
    # the center cell has no inner flux (symmetry)
    outer = wN * N * faces[1:-1] ** (N - 1)
    inner = np.append(0.0, outer[:-1])
    coefs = np.column_stack([inner, -(inner + outer), outer]) \
        / (h * vol[:-1, None])
    L = _stencil(n, np.arange(n - 1, dtype=np.int32), (-1, 0, 1), coefs)
    return Grid(domain, n, r, vol, (h,), (n,), L)


_BUILDERS = {"interval": _interval_grid, "rectangle": _rectangle_grid,
             "ball_radial": _ball_radial_grid}

#: the largest coefficient of L a grid may have: ||L||_inf, twice it,
#: has a finite square
_COEF_MAX = 0.5 * math.sqrt(np.finfo(float).max)


def _size(domain: Domain) -> str:
    if domain.kind == "rectangle":
        return f"the rectangle [0, {domain.a:g}] x [0, {domain.b:g}]"
    if domain.kind == "ball_radial":
        return f"the ball of radius R = {domain.R:g} in R^{domain.N}"
    return "the interval [0, 1]"


def build_grid(domain: Domain, n: int) -> Grid:
    """Uniform grid with quadrature weights on a supported domain.

    ValueError where the domain is too small or too large for n nodes per
    axis: where a weight is not positive and finite, or ||L||_inf (twice
    the largest coefficient of L, as each row of L sums to zero) squared is
    not finite, which keeps every coefficient, and the products and sums of
    them that `laplacian_floor` and `first_mode` form, finite.  The grid is
    built with NumPy's floating-point errors raised, not warned, so that an
    overflow or a division by zero stops it without a RuntimeWarning.
    MemoryError, naming the grid, where its arrays do not fit in memory."""
    if n < 5:
        raise ValueError("need at least 5 nodes per axis")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            grid = _BUILDERS[domain.kind](domain, n)
    except FloatingPointError:
        grid = None
    except MemoryError as exc:
        raise MemoryError(f"the grid of {n} nodes per axis on {_size(domain)} "
                          f"does not fit in memory") from exc
    # a NaN fails every comparison
    if grid is None or not (
            0.0 < grid.weights.min() and grid.weights.max() < np.inf
            and np.abs(grid._lap.data).max() <= _COEF_MAX):
        raise ValueError(
            f"{_size(domain)} is too small or too large for {n} nodes per "
            "axis: the grid's Laplacian or quadrature weights overflow or "
            "vanish")
    return grid


def sine_eigenvalues(grid: Grid) -> np.ndarray:
    """The eigenvalues of -L on the interior of an interval or a rectangle
    in closed form, (4/h^2) sin^2(k pi / (2(n-1))) for k = 1..n-2 on each
    axis, with the sine basis as eigenvectors.  On a rectangle they are the
    (n-2) x (n-2) array of the sums lx_k + ly_l of the two axes' values."""
    k = np.arange(1, grid.n - 1)
    half = np.sin(np.pi * k / (2 * (grid.n - 1))) ** 2
    if grid.domain.kind == "interval":
        return 4 * half / grid.spacing[0] ** 2
    if grid.domain.kind == "rectangle":
        hx, hy = grid.spacing
        return 4 * half[:, None] / hx**2 + 4 * half[None, :] / hy**2
    raise ValueError("the sine basis diagonalises L on intervals and "
                     "rectangles only")


def _radial_block(grid: Grid):
    """(diag, off): the radial ball's symmetric tridiagonal interior block
    T = W^1/2 (-L) W^-1/2, whose off-diagonal is -sqrt(L_i,i+1 L_i+1,i)."""
    inner = grid.laplacian_matrix()[grid.interior_mask][:, grid.interior_mask]
    return -inner.diagonal(), -np.sqrt(inner.diagonal(1) * inner.diagonal(-1))


#: rounding margin of `laplacian_floor`, in units of eps ||T||_inf with T
#: the symmetric interior block W^1/2 (-L) W^-1/2
_FLOOR_MARGIN = 64.0


def laplacian_floor(grid: Grid) -> float:
    """nu: a lower bound on the smallest eigenvalue of -L on the interior
    in the W inner product, so that ||L v||_W >= nu ||v||_W for every v
    that vanishes on the boundary.

    W L is symmetric on the interior, so nu is the smallest eigenvalue of
    T = W^1/2 (-L) W^-1/2: in closed form on the interval and the
    rectangle (`sine_eigenvalues`, where W is constant on the interior and
    T = -L), by bisection on the radial ball's tridiagonal T
    (`_radial_block`).  _FLOOR_MARGIN eps ||T||_inf is
    subtracted; it covers the rounding of L's stored entries and weights
    (by Weyl's inequality, as ||T||_2 <= ||T||_inf) and of the computed
    eigenvalue."""
    if grid.domain.kind == "ball_radial":
        # imported here: loading scipy.linalg with grids, ahead of the
        # solver, moves the allocator's heap layout, and set-up on a 13 x 13
        # rectangle went from about 310 to 530 minor faults
        from scipy.linalg import eigvalsh_tridiagonal

        diag, off = _radial_block(grid)
        low = eigvalsh_tridiagonal(diag, off, select="i",
                                   select_range=(0, 0))[0]
        norm = np.max(diag + np.append(-off, 0.0) + np.append(0.0, -off))
    else:
        low = np.min(sine_eigenvalues(grid))
        norm = sum(4.0 / h**2 for h in grid.spacing)
    return float(low - _FLOOR_MARGIN * np.finfo(float).eps * norm)


def first_mode(grid: Grid) -> np.ndarray:
    """phi_1: the eigenvector of -L on the interior for its smallest
    eigenvalue, positive, scaled to sup 1 and zero on the boundary.  On an
    interval or a rectangle it is the first sine of `sine_eigenvalues`'
    basis, sin(pi k / (n-1)) on each axis; on the radial ball it is
    W^-1/2 y for the first eigenvector y of `_radial_block`'s T."""
    interior = grid.interior_mask
    if grid.domain.kind == "ball_radial":
        from scipy.linalg import eigh_tridiagonal

        # T times 4^e, with h = m 2^e and m in [1/2, 1): an exact scaling
        # to entries of order 1, which leaves the eigenvector as it is.  On
        # a tiny ball (R = 1.7e-75, entries of order 1e152) the unscaled
        # solve returns NaN without a warning
        scale = np.ldexp(1.0, 2 * int(np.frexp(grid.spacing[0])[1]))
        diag, off = _radial_block(grid)
        y = eigh_tridiagonal(diag * scale, off * scale, select="i",
                             select_range=(0, 0))[1][:, 0]
        inner = y / np.sqrt(grid.weights[interior])
    else:
        inner = np.sin(np.pi * np.arange(1, grid.n - 1) / (grid.n - 1))
        if grid.domain.kind == "rectangle":
            inner = np.outer(inner, inner).ravel()
    phi = np.zeros(grid.size)
    phi[interior] = inner / inner[np.argmax(np.abs(inner))]
    return phi


@dataclass
class GridFunction:
    """A Navier field, the form a found point is reported in: finite nodal
    values, zero on the boundary (roundoff-level values snapped to 0)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.size,):
            raise ValueError("values do not match the grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite nodal values")
        b = self.grid.boundary_mask
        scale = max(1.0, float(np.max(np.abs(self.values))))
        if np.any(np.abs(self.values[b]) > 1e-12 * scale):
            raise ValueError("Navier bc requires zero boundary values")
        self.values[b] = 0.0  # snap roundoff-level boundary values


def nodal_field(grid: Grid, value) -> np.ndarray:
    """A fresh, writeable float array of grid.size values from a number or
    one value per node; ValueError on any other length."""
    out = np.empty(grid.size)
    out[...] = value
    return out


def nodewise(node_values: np.ndarray, values) -> np.ndarray:
    """node_values (one per node) shaped to broadcast over the trailing
    axes of values, whose leading axis is the nodes (as x[:, None])."""
    tail = (1,) * (np.ndim(values) - 1)
    return node_values.reshape(node_values.shape + tail)


def integrate(grid: Grid, g) -> float:
    """Quadrature: weighted nodal sum."""
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.size,):
        raise ValueError("field length does not match the grid")
    return float(np.dot(grid.weights, g))

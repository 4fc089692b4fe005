"""Grids: quadrature weights, discrete Laplacians, boundary handling."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from pxbiharm.grids import (
    Domain,
    GridFunction,
    build_grid,
    first_mode,
    integrate,
    laplacian_floor,
    nodal_field,
    sine_eigenvalues,
    unit_ball_volume,
)


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
    assert unit_ball_volume(2) == pytest.approx(np.pi, abs=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4 * np.pi / 3, abs=1e-14)


@pytest.mark.parametrize("domain", [
    Domain("interval"),
    Domain("rectangle", a=2.0, b=0.5),
    Domain("ball_radial", N=2, R=1.0),
    Domain("ball_radial", N=3, R=0.7),
])
def test_weights_sum_to_volume(domain):
    grid = build_grid(domain, 65)
    if domain.kind == "ball_radial":
        volume = unit_ball_volume(domain.N) * domain.R ** domain.N
    else:
        volume = domain.a * domain.b if domain.kind == "rectangle" else 1.0
    assert float(np.sum(grid.weights)) == pytest.approx(volume, rel=1e-13)


def test_interval_quadrature_exact_on_linear():
    grid = build_grid(Domain("interval"), 33)
    # trapezoid is exact on piecewise linear integrands
    assert integrate(grid, 3.0 * grid.nodes + 1.0) == pytest.approx(
        2.5, abs=1e-14)


def test_interval_laplacian_exact_on_quadratics():
    grid = build_grid(Domain("interval"), 41)
    u = GridFunction(grid, grid.nodes * (1.0 - grid.nodes))
    du = grid.laplacian_matrix() @ u.values
    assert np.allclose(du[grid.interior_mask], -2.0, atol=1e-10)
    assert np.all(du[grid.boundary_mask] == 0.0)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_radial_laplacian_exact_on_quadratics(N):
    grid = build_grid(Domain("ball_radial", N=N, R=1.0), 51)
    u = GridFunction(grid, 1.0 - grid.nodes**2)
    du = grid.laplacian_matrix() @ u.values
    # Delta (a - r^2) = -2N for the radial Laplacian in R^N
    assert np.allclose(du[grid.interior_mask], -2.0 * N, atol=1e-9)


def test_rectangle_laplacian_on_separable_quadratic():
    grid = build_grid(Domain("rectangle"), 33)
    x, y = grid.nodes[:, 0], grid.nodes[:, 1]
    u = GridFunction(grid, x * (1 - x) * y * (1 - y))
    du = grid.laplacian_matrix() @ u.values
    exact = -2.0 * y * (1 - y) - 2.0 * x * (1 - x)
    mask = grid.interior_mask
    assert np.allclose(du[mask], exact[mask], atol=1e-9)


def test_ball_weighted_laplacian_self_adjoint():
    grid = build_grid(Domain("ball_radial", N=2, R=1.0), 65)
    L = grid.laplacian_matrix().toarray()
    W = np.diag(grid.weights)
    M = W @ L
    interior = grid.interior_mask
    A = M[np.ix_(interior, interior)]
    assert np.max(np.abs(A - A.T)) < 1e-11


def test_navier_function_rejects_nonzero_boundary():
    grid = build_grid(Domain("interval"), 17)
    with pytest.raises(ValueError):
        GridFunction(grid, np.ones(grid.size))


def test_navier_function_snaps_roundoff_boundary():
    grid = build_grid(Domain("interval"), 17)
    vals = np.sin(np.pi * grid.nodes)  # boundary ~1e-16, not exact zero
    u = GridFunction(grid, vals)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0


def test_gridfunction_shape_and_finite_checks():
    grid = build_grid(Domain("interval"), 17)
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros(grid.size - 1))
    bad = np.zeros(grid.size)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(grid, bad)


def test_build_grid_rejects_tiny_n():
    with pytest.raises(ValueError):
        build_grid(Domain("interval"), 3)


@pytest.mark.parametrize("domain, size", [
    (Domain("rectangle", a=1e-160), "rectangle [0, 1e-160] x [0, 1]"),
    (Domain("rectangle", b=1e-160), "rectangle [0, 1] x [0, 1e-160]"),
    (Domain("ball_radial", R=1e-160), "radius R = 1e-160 in R^2"),
    (Domain("rectangle", a=1e200, b=1e200), "[0, 1e+200] x [0, 1e+200]"),
    (Domain("ball_radial", N=3, R=1e200), "radius R = 1e+200 in R^3"),
    # coefficients about 1e181: finite, but not their products
    (Domain("ball_radial", R=1e-90), "radius R = 1e-90"),
], ids=["tiny_a", "tiny_b", "tiny_R", "huge_rectangle", "huge_ball",
        "ball_of_1e-90"])
def test_build_grid_rejects_a_domain_too_small_or_large(domain, size):
    """Overflow, a division by zero or a vanishing weight is bad input,
    named by the domain's size and n, and no grid warns on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            build_grid(domain, 9)
    assert size in str(err.value) and "9 nodes per axis" in str(err.value)


@pytest.mark.parametrize("domain", [Domain("rectangle", a=1e-70),
                                    Domain("ball_radial", R=1e-70),
                                    Domain("ball_radial", N=60, R=1.0)])
def test_a_grid_that_builds_has_a_finite_floor_and_mode(domain):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = build_grid(domain, 9)
        assert 0.0 < laplacian_floor(grid) < np.inf
        assert np.all(np.isfinite(first_mode(grid)))


def test_first_mode_of_a_tiny_ball_is_the_unit_balls():
    """On a ball of radius 1.7e-75 (interior block entries about 1e152)
    the mode is finite and positive, and equals the R = 1 mode to
    rounding: the eigenvector does not depend on the radius."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = first_mode(build_grid(Domain("ball_radial", N=2, R=1.699e-75),
                                     21))
    unit = first_mode(build_grid(Domain("ball_radial", N=2, R=1.0), 21))
    assert np.all(np.isfinite(tiny)) and np.max(tiny) == 1.0
    assert np.all(tiny[:-1] > 0.0)
    assert np.max(np.abs(tiny - unit)) <= 64 * np.finfo(float).eps


def test_unsupported_domain_kind():
    with pytest.raises(ValueError):
        Domain("simplex")


@pytest.mark.parametrize("value", [2.5, [1.0, 2.0, 3.0, 4.0, 5.0],
                                   np.arange(5.0)],
                         ids=["number", "list", "ndarray"])
def test_nodal_field_is_a_fresh_writeable_array(value):
    grid = build_grid(Domain("interval"), 5)
    field = nodal_field(grid, value)
    assert field.dtype == float and field.shape == (5,)
    assert np.array_equal(field, np.broadcast_to(value, (5,)))
    assert field.flags.writeable and field.flags.owndata
    field[:] = -1.0
    assert not np.any(np.asarray(value) == -1.0)
    assert np.array_equal(nodal_field(grid, value),
                          np.broadcast_to(value, (5,)))


@pytest.mark.parametrize("value", [[1.0, 2.0], np.ones(6)])
def test_nodal_field_rejects_a_wrong_length(value):
    with pytest.raises(ValueError):
        nodal_field(build_grid(Domain("interval"), 5), value)


def test_integrate_rejects_mismatched_length():
    grid = build_grid(Domain("interval"), 17)
    with pytest.raises(ValueError):
        integrate(grid, np.zeros(5))


def reference_laplacian(domain, n):
    """The Navier Laplacian assembled entry by entry in LIL format: the
    interior stencils, then every boundary row set to zero."""
    if domain.kind == "interval":
        h = 1.0 / (n - 1)
        L = sp.diags([np.full(n - 1, 1.0 / h**2), np.full(n, -2.0 / h**2),
                      np.full(n - 1, 1.0 / h**2)], [-1, 0, 1], format="lil")
        boundary = [0, n - 1]
    elif domain.kind == "rectangle":
        hx, hy = domain.a / (n - 1), domain.b / (n - 1)
        T = sp.diags([np.ones(n - 1), np.full(n, -2.0), np.ones(n - 1)],
                     [-1, 0, 1])
        L = (sp.kron(T / hx**2, sp.identity(n))
             + sp.kron(sp.identity(n), T / hy**2)).tolil()
        idx = np.arange(n * n).reshape(n, n)
        boundary = np.unique(np.concatenate(
            [idx[0], idx[-1], idx[:, 0], idx[:, -1]]))
    else:
        N, R = domain.N, domain.R
        r = np.linspace(0.0, R, n)
        h = r[1] - r[0]
        wN = unit_ball_volume(N)
        faces = np.concatenate([[0.0], r[:-1] + h / 2, [R]])
        vol = wN * (faces[1:] ** N - faces[:-1] ** N)
        area = wN * N * faces[1:-1] ** (N - 1)
        L = sp.lil_matrix((n, n))
        for i in range(1, n - 1):
            L[i, i - 1] += area[i - 1] / (h * vol[i])
            L[i, i] -= (area[i - 1] + area[i]) / (h * vol[i])
            L[i, i + 1] += area[i] / (h * vol[i])
        L[0, 0] = -area[0] / (h * vol[0])
        L[0, 1] = area[0] / (h * vol[0])
        boundary = [n - 1]
    for i in boundary:
        L[i, :] = 0.0
    return L.tocsr()


@pytest.mark.parametrize("domain", [
    Domain("interval"),
    Domain("rectangle"),
    Domain("rectangle", a=2.0, b=0.5),
    Domain("ball_radial", N=2, R=1.0),
    Domain("ball_radial", N=3, R=0.7),
])
@pytest.mark.parametrize("n", [5, 13, 33])
def test_laplacian_matches_entrywise_reference(domain, n):
    L = build_grid(domain, n).laplacian_matrix()
    ref = reference_laplacian(domain, n)
    assert np.array_equal(L.indptr, ref.indptr)
    assert np.array_equal(L.indices, ref.indices)
    assert np.array_equal(L.data, ref.data)


@pytest.mark.parametrize("domain, n, n_boundary", [
    (Domain("interval"), 9, 2),
    (Domain("rectangle", a=2.0, b=1.0), 7, 24),
    (Domain("ball_radial", N=2, R=1.0), 9, 1),
])
def test_masks_are_built_once_and_read_only(domain, n, n_boundary):
    grid = build_grid(domain, n)
    boundary, interior = grid.boundary_mask, grid.interior_mask
    assert grid.boundary_mask is boundary and grid.interior_mask is interior
    assert boundary.sum() == n_boundary
    assert np.array_equal(interior, ~boundary)
    for mask in (boundary, interior):
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0] = not mask[0]


def _zero_rows(L, rows):
    """L with the given rows emptied: a diagonal 0/1 mask multiplies the
    stored values, and the zeros it leaves are dropped."""
    L = L.tocsr()
    L.sort_indices()
    keep = np.ones(L.shape[0])
    keep[rows] = 0.0
    L.data *= np.repeat(keep, np.diff(L.indptr))
    L.eliminate_zeros()
    return L


def assembled_grid(domain, n):
    """(L, weights, nodes) as the grids were built by whole-matrix
    assembly: sp.diags or sp.kron of the full operator, then the boundary
    rows, chosen per kind, emptied by _zero_rows."""
    if domain.kind == "interval":
        x = np.linspace(0.0, 1.0, n)
        h = x[1] - x[0]
        w = np.full(n, h)
        w[0] = w[-1] = h / 2
        L = sp.diags([np.full(n - 1, 1.0 / h**2), np.full(n, -2.0 / h**2),
                      np.full(n - 1, 1.0 / h**2)], [-1, 0, 1], format="csr")
        return _zero_rows(L, [0, n - 1]), w, x
    if domain.kind == "rectangle":
        x = np.linspace(0.0, domain.a, n)
        y = np.linspace(0.0, domain.b, n)
        hx, hy = x[1] - x[0], y[1] - y[0]
        X, Y = np.meshgrid(x, y, indexing="ij")
        wx = np.full(n, hx)
        wx[0] = wx[-1] = hx / 2
        wy = np.full(n, hy)
        wy[0] = wy[-1] = hy / 2
        T = sp.diags([np.ones(n - 1), np.full(n, -2.0), np.ones(n - 1)],
                     [-1, 0, 1])
        L = (sp.kron(T / hx**2, sp.identity(n))
             + sp.kron(sp.identity(n), T / hy**2))
        bmask = np.zeros((n, n), dtype=bool)
        bmask[0, :] = bmask[-1, :] = bmask[:, 0] = bmask[:, -1] = True
        return (_zero_rows(L, bmask.ravel()), np.outer(wx, wy).ravel(),
                np.column_stack([X.ravel(), Y.ravel()]))
    N, R = domain.N, domain.R
    r = np.linspace(0.0, R, n)
    h = r[1] - r[0]
    wN = unit_ball_volume(N)
    faces = np.concatenate([[0.0], r[:-1] + h / 2, [R]])
    vol = wN * (faces[1:] ** N - faces[:-1] ** N)
    area = wN * N * faces[1:-1] ** (N - 1)
    cell = h * vol
    lower = np.append(area[:-1] / cell[1:-1], 0.0)
    main = np.concatenate([[-area[0] / cell[0]],
                           -(area[:-1] + area[1:]) / cell[1:-1], [0.0]])
    upper = np.append(area[0] / cell[0], area[1:] / cell[1:-1])
    L = sp.diags([lower, main, upper], [-1, 0, 1], format="csr")
    return _zero_rows(L, [n - 1]), vol, r


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("domain", [
    Domain("interval"),
    Domain("rectangle"),
    Domain("rectangle", a=2.0, b=0.7),
    Domain("ball_radial", N=1, R=1.0),
    Domain("ball_radial", N=2, R=1.0),
    Domain("ball_radial", N=3, R=0.7),
])
@pytest.mark.parametrize("n", [5, 6, 17, 33])
def test_stencil_grid_matches_whole_matrix_assembly(domain, n):
    """Bit for bit, with int32 indices and C-ordered nodes; the transpose
    is built on first use."""
    grid = build_grid(domain, n)
    assert "_lap_t" not in grid.__dict__
    L, LT = grid.laplacian_matrix(), grid.laplacian_transpose()
    assert LT is grid.laplacian_transpose()
    ref, weights, nodes = assembled_grid(domain, n)
    for mat, want in ((L, ref), (LT, ref.T)):
        assert type(mat) is type(want)
        assert mat.indices.dtype == mat.indptr.dtype == np.int32
        for part in ("data", "indices", "indptr"):
            assert _same_bytes(getattr(mat, part), getattr(want, part))
    assert _same_bytes(grid.weights, weights)
    assert _same_bytes(grid.nodes, nodes) and grid.nodes.flags.c_contiguous
    assert np.array_equal(grid.boundary_mask, np.diff(L.indptr) == 0)
    interior = np.flatnonzero(grid.interior_mask)
    assert np.all(L.diagonal()[interior] != 0.0)


FLOOR_GRIDS = (
    [(Domain("interval"), n) for n in (5, 9, 33, 201)]
    + [(Domain("rectangle", a=2.0, b=0.7), n) for n in (5, 9, 17)]
    + [(Domain("ball_radial", N=N, R=1.0), n)
       for N in (2, 3) for n in (5, 9, 33, 101)])


@pytest.mark.parametrize("domain, n", FLOOR_GRIDS)
def test_laplacian_floor_is_the_smallest_eigenvalue(domain, n):
    """nu against the dense T = W^1/2 (-L) W^-1/2 on the interior: never
    above its smallest eigenvalue or its smallest singular value (the
    bound ||L v||_W >= nu ||v||_W needs the latter), and within 1e-9 of
    both.  On intervals and rectangles the sine eigenvalues are the whole
    spectrum."""
    grid = build_grid(domain, n)
    inner = grid.interior_mask
    root = np.sqrt(grid.weights[inner])
    T = -grid.laplacian_matrix()[inner][:, inner].toarray() \
        * root[:, None] / root[None, :]
    eig = np.sort(np.linalg.eigvals(T).real)
    low = min(eig[0], np.min(np.linalg.svd(T, compute_uv=False)))
    nu = laplacian_floor(grid)
    assert low * (1.0 - 1e-9) <= nu <= low
    if domain.kind != "ball_radial":
        lam = np.sort(sine_eigenvalues(grid).ravel())
        assert np.allclose(lam, eig, rtol=0.0, atol=1e-12 * eig[-1])


@pytest.mark.parametrize("domain, n", [
    (Domain("interval"), 65), (Domain("interval"), 64),
    (Domain("rectangle", a=2.0, b=0.7), 17),
    (Domain("rectangle", a=2.0, b=0.7), 16),
    (Domain("ball_radial", N=2, R=1.0), 65),
    (Domain("ball_radial", N=3, R=0.7), 33)])
def test_first_mode_is_the_first_eigenvector(domain, n):
    """phi_1 has sup 1, is positive inside and zero on the boundary, and
    -L phi_1 = lam1 phi_1 on the interior up to rounding, with lam1 the
    smallest eigenvalue of the dense interior block."""
    grid = build_grid(domain, n)
    phi = first_mode(grid)
    inner = grid.interior_mask
    assert np.max(np.abs(phi)) == 1.0
    assert np.all(phi[inner] > 0.0) and np.all(phi[~inner] == 0.0)
    block = grid.laplacian_matrix()[inner][:, inner].toarray()
    lam1 = np.min(np.linalg.eigvals(-block).real)
    scale = np.max(np.sum(np.abs(block), axis=1))
    assert np.max(np.abs(-(block @ phi[inner]) - lam1 * phi[inner])) \
        <= 64 * np.finfo(float).eps * scale

"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (to the real stderr, so the lines
survive pytest capture) and then asserts.  Criterion 8 runs the full
multiplicity experiment and writes its sweep table to
artifacts/multiplicity_sweep.csv before asserting the pass bar.
"""

import json
import os
import sys
import time

import numpy as np
import pytest
from scipy.special import j1, jn_zeros

from pxbiharm import cli
from pxbiharm.certificate import certify
from pxbiharm.energy import PointTerms, ProblemInstance
from pxbiharm.exponents import affine_exponent, conjugate, constant_exponent
from pxbiharm.grids import Domain, GridFunction, build_grid, first_mode
from pxbiharm.potentials import builtin_nonlinearity, make_power_family
from pxbiharm.solver import lambda_sweep, minimize
from pxbiharm.spaces import luxemburg_norm, modular

from conftest import gradient_check, make_instance, spike_instance

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "artifacts")
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.fixture
def report(capfd):
    """One PASS/FAIL line per criterion, written past pytest's capture."""

    def _report(num, desc, ok):
        line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
        with capfd.disabled():
            print(line, file=sys.stderr)
        assert ok, line

    return _report


def _interior_noise(grid, rng, scale=1.0):
    vals = np.zeros(grid.size)
    vals[grid.interior_mask] = scale * rng.standard_normal(
        int(grid.interior_mask.sum()))
    return vals


def test_criterion_01_luxemburg_matches_classical_lp(report):
    grid = build_grid(Domain("interval"), 1024)
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for p_const in (1.5, 2.0, 3.0):
        p = constant_exponent(grid, p_const)
        for _ in range(100):
            u = rng.standard_normal(grid.size)
            classical = float(np.dot(grid.weights, np.abs(u) ** p_const)
                              ** (1.0 / p_const))
            worst = max(worst, abs(luxemburg_norm(u, p).value - classical))
    elapsed = time.perf_counter() - t0
    report(1, f"Luxemburg vs classical L^p, max abs err {worst:.2e}, "
              f"{elapsed:.1f}s", worst < 1e-10 and elapsed < 5.0)


def test_criterion_02_modular_norm_equivalences(report):
    grid = build_grid(Domain("interval"), 65)
    exponents = [constant_exponent(grid, 2.3),
                 affine_exponent(grid, 2.0, 1.0)]
    L = grid.laplacian_matrix()
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    ok = True
    for case in range(300):
        p = exponents[case % 2]
        u = _interior_noise(grid, rng)
        nrm = luxemburg_norm(L @ u, p).value
        if nrm == 0.0:
            continue
        for target, rel in ((0.5, "lt"), (1.0, "eq"), (2.0, "gt")):
            m = modular(L @ (u * (target / nrm)), p)
            if rel == "lt":
                ok &= m < 1.0 + 1e-8
            elif rel == "gt":
                ok &= m > 1.0 - 1e-8
            else:
                ok &= abs(m - 1.0) < 1e-8
            lo = min(target**p.p_minus, target**p.p_plus)
            hi = max(target**p.p_minus, target**p.p_plus)
            ok &= lo - 1e-8 <= m <= hi + 1e-8
    elapsed = time.perf_counter() - t0
    report(2, f"modular/norm equivalences over 300 cases, {elapsed:.1f}s",
           ok and elapsed < 10.0)


def test_criterion_03_holder(report):
    grid = build_grid(Domain("interval"), 257)
    p = affine_exponent(grid, 2.0, 1.0)  # p(x) = 2 + x
    pc = conjugate(p)
    rng = np.random.default_rng(2)
    violations = 0
    for _ in range(200):
        u = rng.standard_normal(grid.size)
        v = rng.standard_normal(grid.size)
        # |int uv| <= (1/p^- + 1/p'^-) |u|_{p(x)} |v|_{p'(x)}
        rhs = (1.0 / p.p_minus + 1.0 / pc.p_minus) \
            * luxemburg_norm(u, p).value * luxemburg_norm(v, pc).value
        if not abs(grid.weights @ (u * v)) <= rhs + 1e-10:
            violations += 1
    report(3, f"Holder inequality, {violations} violations in 200 pairs",
           violations == 0)


def test_criterion_04_gradient_fidelity(report):
    grid = build_grid(Domain("interval"), 65)
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    worst = 0.0
    for p in (constant_exponent(grid, 2.0),
              affine_exponent(grid, 2.0, 0.5)):
        spec = make_power_family(1.0, p)
        q = constant_exponent(grid, 1.5)
        for name in ("const:1", "rational_bump", "exp_abs"):
            nl = builtin_nonlinearity(name, grid, q)
            inst = ProblemInstance(grid, p, spec, nl, 1.0)
            for _ in range(3):
                u = GridFunction(grid, _interior_noise(grid, rng))
                worst = max(worst, gradient_check(inst, u, n_directions=3,
                                                  rng=rng))
    elapsed = time.perf_counter() - t0
    report(4, f"weak residual vs finite differences, max rel err "
              f"{worst:.2e}, {elapsed:.1f}s", worst < 1e-6 and elapsed < 10.0)


def test_criterion_05_coercivity_witness(report):
    grid = build_grid(Domain("interval"), 65)
    p = affine_exponent(grid, 2.0, 0.5)
    inst = ProblemInstance(grid, p, make_power_family(1.0, p),
                           builtin_nonlinearity(
                               "const:1", grid,
                               constant_exponent(grid, 1.5)), 1.0)
    L = grid.laplacian_matrix()
    rng = np.random.default_rng(4)
    checked, ok = 0, True
    while checked < 100:
        u = _interior_noise(grid, rng)
        nrm = luxemburg_norm(L @ u, p).value
        if nrm == 0.0:
            continue
        # moderate norms above 1 keep the bisection error below the slack
        target = 1.0 + 3.0 * rng.random()
        u = u * (target / nrm)
        nrm = luxemburg_norm(L @ u, p).value
        if nrm <= 1.0:
            continue
        checked += 1
        ok &= PointTerms(inst, u).J >= nrm**p.p_minus / p.p_plus - 1e-8
    report(5, "coercivity witness J(u) >= ||u||^{p-}/p+ on 100 fields", ok)


def test_criterion_06_test_function_sandwich(report):
    # J(vbar) of the grid's first eigenvector, h = 0.7, p = 2, theta = 1,
    # against its continuum value: h^2 pi^4 / 4 for h sin(pi x) on the
    # interval and h^2 j0^4 pi J1(j0)^2 / 2 for h J0(j0 r) on the unit disk
    h = 0.7
    j0 = jn_zeros(0, 1)[0]
    ok = True
    details = []
    for domain, want in (
            (Domain("interval"), h**2 * np.pi**4 / 4),
            (Domain("ball_radial", N=2, R=1.0),
             h**2 * j0**4 * np.pi * j1(j0) ** 2 / 2)):
        grid = build_grid(domain, 257)
        got = PointTerms(make_instance(grid), h * first_mode(grid)).J
        rel = abs(got - want) / want
        ok &= rel < 1e-4
        details.append(f"{domain.kind}: rel {rel:.2e}")
    report(6, "J(vbar) against its continuum value at n=257, "
              + "; ".join(details), ok)


def test_criterion_07_certificate_arithmetic_oracle(report):
    grid = build_grid(Domain("interval"), 257)
    inst = make_instance(grid)  # p = 2, theta = 1, f = 1
    # vbar = h sin(pi x) on the grid: beta_h = Phi/J in closed form
    m = grid.n - 1
    lam1 = 4 * m**2 * np.sin(np.pi / (2 * m)) ** 2
    beta_err = max(
        abs(certify(inst, 1.0, h).beta_h * m * h * lam1**2
            / (4 / np.tan(np.pi / (2 * m))) - 1.0)
        for h in (0.25, 0.5, 1.0, 2.0))
    report(7, f"beta oracle rel err {beta_err:.2e}", beta_err < 1e-12)


def test_criterion_08_end_to_end_multiplicity(report):
    """Faithful run of the 1D multiplicity experiment.

    Certifies the lambda-interval for the ridge load
    g(t) = 0.05 + 40 exp(-((|t|-1)/0.05)^2) (`spike_g`), scans 7
    log-spaced lambda inside it with the deflated solver, writes the sweep
    table artifact, and asserts the >= 3 distinct solutions pass bar.

    The bounded load 1/(1+t^2) + 1 cannot meet this bar: its monotonicity
    modulus (`solver.uniqueness_modulus`) is positive for every
    lambda < 149 at n = 201, so the discrete solution is unique there.
    """
    t0 = time.perf_counter()
    grid = build_grid(Domain("interval"), 201)
    h = 1.2
    inst = spike_instance(grid)
    cert = certify(inst, r=5.0, h=h)
    assert cert.feasible, "certificate interval must be nonempty"
    lo, hi = cert.lambda_interval

    rows = lambda_sweep(inst, np.geomspace(lo, hi, 7), k_max=4, n_starts=3,
                        seed=0, vbar_scale=h)
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    cli.write_sweep_csv(os.path.join(ARTIFACT_DIR, "multiplicity_sweep.csv"),
                        rows)
    for row in rows:
        print(f"    lambda={row['lambda']:.6f}  "
              f"solutions={row['n_solutions']}", file=sys.__stderr__)

    elapsed = time.perf_counter() - t0
    best = max(row["n_solutions"] for row in rows)
    report(8, f"multiplicity sweep over ({lo:.4f}, {hi:.4f}), best count "
              f"{best}, table at artifacts/multiplicity_sweep.csv, "
              f"{elapsed:.0f}s", best >= 3 and elapsed < 120.0)


def test_criterion_09_beam_closed_form(report):
    grid = build_grid(Domain("interval"), 201)
    inst = make_instance(grid)
    pt = minimize(inst, np.zeros(grid.size))
    x = grid.nodes
    exact = x**4 / 24 - x**3 / 12 + x / 24
    err = float(np.max(np.abs(pt.u.values - exact)))
    report(9, f"beam closed form, sup err {err:.2e}",
           pt.converged and err < 1e-4)


def test_criterion_10_sweep_determinism(tmp_path, monkeypatch, report):
    """Two sweeps of the shipped ridge config at n = 41, whose certificate
    is feasible, write the same CSV bytes."""
    monkeypatch.chdir(tmp_path)
    with open(os.path.join(CONFIG_DIR, "spike_ridge.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(grid_n=41, solver={"n_starts": 2, "k_max": 2, "sweep_m": 3,
                                  "seed": 7})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "a.json")]) == cli.EXIT_OK
    first = (tmp_path / "sweep.csv").read_bytes()
    assert cli.main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "b.json")]) == cli.EXIT_OK
    second = (tmp_path / "sweep.csv").read_bytes()
    report(10, f"byte-identical sweep CSV over two runs "
               f"({len(first)} bytes)", first == second and len(first) > 0)

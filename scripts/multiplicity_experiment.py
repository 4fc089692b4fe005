#!/usr/bin/env python3
"""Multiplicity experiment: certified lambda-intervals versus the number of
critical points the deflated solver actually finds.

Runs two fixtures on the unit interval with the p = 2 power potential:

  * bounded: g(t) = 1/(1+t^2) + 1.  The solver's monotonicity modulus
    mu = nu^2 - lambda Lip(g), with Lip(g) = 3 sqrt(3)/8 and nu^2 = 97.4 at
    n = 101, is positive for every lambda below lambda_u = 149.9, so the
    discrete problem has exactly one solution there.  The script prints
    the general certificate's verdict (infeasible) and lambda_u, and sweeps
    nothing.
  * ridge: g(t) = 0.05 + 40 exp(-((|t|-1)/0.05)^2).  The general
    certificate is feasible near lambda ~ 25.9..219 and the deflated Newton
    search finds the three branches (small, mountain-pass, large) at every
    lambda of the sweep.

Writes artifacts/multiplicity_ridge.csv.
"""

import argparse
import os
import sys

import numpy as np
from scipy.special import erf

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from pxbiharm.certificate import certify  # noqa: E402
from pxbiharm.cli import write_sweep_csv  # noqa: E402
from pxbiharm.energy import ProblemInstance  # noqa: E402
from pxbiharm.exponents import constant_exponent  # noqa: E402
from pxbiharm.grids import Domain, build_grid  # noqa: E402
from pxbiharm.potentials import builtin_nonlinearity, make_power_family  # noqa: E402
from pxbiharm.solver import lambda_sweep, uniqueness_threshold  # noqa: E402

ARTIFACTS = os.path.join(os.path.dirname(__file__), os.pardir, "artifacts")


def ridge_g(t):
    t = np.asarray(t, float)
    return 0.05 + 40.0 * np.exp(-(((np.abs(t) - 1.0) / 0.05) ** 2))


def ridge_G(t):
    """Antiderivative of ridge_g from 0, in closed form."""
    a = np.abs(np.asarray(t, float))
    return np.sign(t) * (0.05 * a + 40.0 * 0.05 * np.sqrt(np.pi) / 2.0 * (
        erf((a - 1.0) / 0.05) + erf(1.0 / 0.05)))


def ridge_dg(t):
    """ridge_g' in closed form, which the solver's Hessian reads."""
    t = np.asarray(t, float)
    s = (np.abs(t) - 1.0) / 0.05
    return -np.sign(t) * (2.0 * 40.0 / 0.05) * s * np.exp(-s**2)


def run_sweep(inst, interval, m, vbar_scale, n_starts, seed, path):
    """lambda_sweep across the interval itself, printed and written to
    path."""
    rows = lambda_sweep(inst, np.geomspace(*interval, m), k_max=5,
                        n_starts=n_starts, seed=seed, vbar_scale=vbar_scale)
    for r in rows:
        print(f"  lambda={r['lambda']:10.6f}  solutions={r['n_solutions']}  "
              f"energies={['%.4g' % e for e in r['energies']]}  "
              f"mu={r['uniqueness_modulus']}")
    write_sweep_csv(path, rows)
    print(f"  wrote {path}")
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid-n", type=int, default=101)
    ap.add_argument("--sweep-m", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    os.makedirs(ARTIFACTS, exist_ok=True)
    grid = build_grid(Domain("interval"), args.grid_n)
    p = constant_exponent(grid, 2.0)
    spec = make_power_family(1.0, p)
    q = constant_exponent(grid, 1.5)

    print("bounded fixture: g = 1/(1+t^2) + 1")
    nl = builtin_nonlinearity("rational_bump", grid, q)
    inst = ProblemInstance(grid, p, spec, nl, 1.0)
    cert = certify(inst, r=1.0, h=0.15)
    print(f"  certified interval: {cert.lambda_interval} ({cert.reason})")
    lam_u = float(uniqueness_threshold(inst))
    print(f"  one solution for every lambda < {lam_u:.6g}")

    print("ridge fixture: g = 0.05 + 40 exp(-((|t|-1)/0.05)^2)")
    nl2 = builtin_nonlinearity("separable", grid, q, alpha=1.0,
                               g=ridge_g, G=ridge_G, dg=ridge_dg, zeros=())
    inst0 = ProblemInstance(grid, p, spec, nl2, 1.0)
    cert2 = certify(inst0, r=5.0, h=1.2)
    print(f"  certified interval: {cert2.lambda_interval}")
    rows2 = run_sweep(inst0, cert2.lambda_interval, args.sweep_m,
                      vbar_scale=1.2, n_starts=8, seed=args.seed,
                      path=os.path.join(ARTIFACTS, "multiplicity_ridge.csv"))

    best = max(r["n_solutions"] for r in rows2)
    print(f"ridge fixture best count inside the interval: {best}")


if __name__ == "__main__":
    main()

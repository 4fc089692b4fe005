#!/usr/bin/env python3
"""Certificate walkthrough: prints every constant of the lambda-interval
construction for a feasible and an infeasible fixture, with the test
function's J(vbar) and Phi(vbar) that the interval's lower end reads."""

import os
import sys

import numpy as np
from scipy.special import erf

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from pxbiharm.certificate import certify  # noqa: E402
from pxbiharm.energy import ProblemInstance  # noqa: E402
from pxbiharm.exponents import constant_exponent  # noqa: E402
from pxbiharm.grids import Domain, build_grid  # noqa: E402
from pxbiharm.potentials import builtin_nonlinearity, make_power_family  # noqa: E402


def ridge_g(t):
    t = np.asarray(t, float)
    return 0.05 + 40.0 * np.exp(-(((np.abs(t) - 1.0) / 0.05) ** 2))


def ridge_G(t):
    """Antiderivative of ridge_g from 0, in closed form."""
    a = np.abs(np.asarray(t, float))
    return np.sign(t) * (0.05 * a + 40.0 * 0.05 * np.sqrt(np.pi) / 2.0 * (
        erf((a - 1.0) / 0.05) + erf(1.0 / 0.05)))


def show(cert):
    print(f"  N={cert.N}  D={cert.D}  x0={cert.x0}  w={cert.w:.6f}  "
          f"L={cert.L:.6f}")
    print(f"  c0={cert.c0:.6f} ({cert.c0_provenance})  "
          f"gamma_r={cert.gamma_r:.6f}")
    print(f"  alpha_r={cert.alpha_r:.6g}  beta_h={cert.beta_h:.6g}")
    print(f"  test function h phi_1 at h={cert.h:g}: J(vbar)={cert.J_vbar:.6g} "
          f"(rounded up)  Phi(vbar)={cert.Phi_vbar_lower:.6g} (rounded down)")
    print(f"  checks: {cert.checks}  converged: {cert.converged}")
    if cert.feasible:
        lo, hi = cert.lambda_interval
        print(f"  admissible lambda-interval: ({lo:.6g}, {hi:.6g})")
    else:
        print(f"  infeasible: {cert.reason}")


def main():
    for domain in (Domain("interval"), Domain("ball_radial", N=2, R=1.0)):
        grid = build_grid(domain, 129)
        p = constant_exponent(grid, 2.0)
        spec = make_power_family(1.0, p)
        q = constant_exponent(grid, 1.5)

        print(f"== {domain.kind}: ridge load (feasible) ==")
        nl = builtin_nonlinearity("separable", grid, q, alpha=1.0,
                                  g=ridge_g, G=ridge_G, zeros=())
        inst = ProblemInstance(grid, p, spec, nl, 1.0)
        show(certify(inst, r=5.0, h=1.2))

        print(f"== {domain.kind}: bounded load (infeasible) ==")
        nl2 = builtin_nonlinearity("rational_bump", grid, q)
        inst2 = ProblemInstance(grid, p, spec, nl2, 1.0)
        show(certify(inst2, r=1.0, h=1.0))
        print()


if __name__ == "__main__":
    main()

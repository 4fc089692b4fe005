"""The benchmark's workloads: the CLI command each runs, why it was chosen,
and how its output is checked.

Every workload goes through `pxbiharm.cli.main`, the entry point a user
calls. Grids are smaller than the shipped configs so that one command takes
a few seconds and a run can take the median of several; the problems,
certificates and solver settings are otherwise those of the configs.

BENCHMARK.json lists rect_certify and rect_solve, which between them
measure every layer. Command time on a shared 2-core machine drifts by up
to a third between runs minutes apart, so each listed workload is one more
chance for a steadiness check to fail on drift alone; the 1D sweeps run by
name or through `--workload all`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BUMP = "configs/bump_dim1.json"
RIDGE = "configs/spike_ridge.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple          # CLI subcommand and its fixed arguments
    ok_exits: tuple         # exit codes the workload accepts
    config: Callable[[Path], dict]
    check: Callable         # (doc, payload, searches) -> list of failures
    min_per_lambda: int = 0


def _load(root: Path, rel: str) -> dict:
    with open(root / rel, encoding="utf-8") as fh:
        return json.load(fh)


def _with_grid(rel: str, n: int):
    def build(root: Path) -> dict:
        doc = _load(root, rel)
        doc["grid_n"] = n
        return doc
    return build


def _rect_certify(root: Path) -> dict:
    return {
        "schema": 1,
        "domain": {"kind": "rectangle", "a": 1.0, "b": 1.0},
        "grid_n": 17,
        "exponent": {"kind": "affine", "a": 2.0, "b": 0.5},
        "potential": {"family": "power", "theta": 1.0},
        "nonlinearity": _load(root, RIDGE)["nonlinearity"],
        "certificate": {"r": 50.0, "h_scan": True},
    }


def _rect_solve(root: Path) -> dict:
    return {
        "schema": 1,
        "domain": {"kind": "rectangle", "a": 1.0, "b": 1.0},
        "grid_n": 13,
        "exponent": {"kind": "affine", "a": 2.5, "b": 0.5},
        "potential": {"family": "perturbed_power", "theta": 1.2},
        "nonlinearity": {"kind": "builtin:rational_bump", "q": 1.5},
        "solver": {"n_starts": 2, "k_max": 3},
    }


# ---------------------------------------------------------------------------
# output checks; each returns a list of failure messages (empty = correct)

def check_solutions(searches, tol: float, min_count: int):
    """Re-check every accepted solution of every lambda-solve: clean weak
    residual within the solver tolerance, pairwise sup-distinct, and at
    least `min_count` per lambda. Returns one list of failures per solve."""
    from pxbiharm import energy, solver

    out = []
    for inst, sols in searches:
        bad = []
        for i, pt in enumerate(sols.points):
            res = energy.weak_residual(inst, pt.u).values
            r = float(np.max(np.abs(res)))
            if not r <= tol:
                bad.append(f"lambda={inst.lam:g}: solution {i} "
                           f"residual {r:.3g}")
        d = sols.pairwise_dist
        off = d[~np.eye(len(d), dtype=bool)]
        if off.size and not off.min() > solver.DISTINCTNESS:
            bad.append(f"lambda={inst.lam:g}: solutions closer than "
                       f"{solver.DISTINCTNESS:g} in sup norm")
        if len(sols.points) < min_count:
            bad.append(f"lambda={inst.lam:g}: {len(sols.points)} solutions, "
                       f"expected at least {min_count}")
        out.append(bad)
    return out


def _check_sweep_rows(doc, payload, searches):
    bad = []
    rows = payload["rows"]
    m = doc["solver"]["sweep_m"]
    if len(rows) != m or len(searches) != m:
        bad.append(f"{len(rows)} sweep rows and {len(searches)} solves, "
                   f"expected {m}")
    lo, hi = payload["lambda_interval"]
    if not 0 < lo < hi:
        bad.append(f"empty interval {lo, hi}")
    lams = np.geomspace(0.5 * lo, 2.0 * hi, m)
    for row, lam, (inst, sols) in zip(rows, lams, searches):
        if not (math.isclose(row["lambda"], lam, rel_tol=1e-12)
                and math.isclose(inst.lam, lam, rel_tol=1e-12)
                and row["n_solutions"] == len(sols.points)):
            bad.append(f"row {row['lambda']:g} does not match its solve")
    return bad


def _check_dim1(doc, payload, searches):
    """The dedicated 1D interval in closed form,
    [(8/3)^p h^p c3 / (alpha G(h)), l^p / (p alpha G(l))] with
    c3 = theta / p and G(t) = arctan t + t, the antiderivative of the
    load 1/(1+t^2) + 1 that the config tabulates. The tolerance covers the
    trapezoid error of the tabulated G."""
    bad = _check_sweep_rows(doc, payload, searches)
    p = doc["exponent"]["value"]
    theta = doc["potential"]["theta"]
    alpha = doc["nonlinearity"]["alpha"]
    h, l = doc["certificate"]["h"], doc["certificate"]["l"]

    def G(t):
        return math.atan(t) + t

    want = ((8 / 3) ** p * h ** p * (theta / p) / (alpha * G(h)),
            l ** p / (p * alpha * G(l)))
    got = payload["lambda_interval"]
    if not all(math.isclose(g, w, rel_tol=1e-3) for g, w in zip(got, want)):
        bad.append(f"1D interval {got} differs from closed form {want}")
    return bad


def _check_solve(doc, payload, searches):
    if (len(searches) != 1
            or payload["n_solutions"] != len(searches[0][1].points)):
        return ["solve output does not match its search"]
    return []


def _check_certify(doc, payload, searches):
    """Finite positive constants and a well-formed interval when one is
    given. c0, alpha, beta and the interval are deliberately not pinned:
    c0 is a randomised estimate due to be replaced."""
    bad = []
    for key in ("c0", "D", "L", "w", "gamma_r", "alpha_r", "beta_h"):
        v = payload.get(key)
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            bad.append(f"certificate {key} = {v!r}")
    iv = payload.get("lambda_interval")
    if iv is not None and not 0 < iv[0] < iv[1] < math.inf:
        bad.append(f"certificate interval {iv}")
    if searches:
        bad.append("certify called the solver")
    return bad


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="dim1_sweep",
            why="1D bounded load with a unique solution (the criterion-08 "
                "experiment): solver and energy do nearly all the work and "
                "every deflated start is wasted",
            command=("sweep",),
            ok_exits=(0,),
            config=_with_grid(BUMP, 41),
            check=_check_dim1,
            min_per_lambda=1,
        ),
        Workload(
            name="ridge_sweep",
            why="1D ridge load with several solutions per lambda: deflation "
                "and the distinctness test do real work; the general "
                "certificate with its grid-doubling check takes a small share",
            command=("sweep",),
            ok_exits=(0,),
            config=_with_grid(RIDGE, 41),
            check=_check_sweep_rows,
            min_per_lambda=2,
        ),
        Workload(
            name="rect_certify",
            why="2D certificate h-scan with variable p: the randomised c0 "
                "search and Luxemburg bisections do all the work; the solver "
                "is never called",
            command=("certify",),
            # the h-scan ignores the r-bound check, so this exits 1 today
            ok_exits=(0, 1),
            config=_rect_certify,
            check=_check_certify,
        ),
        Workload(
            name="rect_solve",
            why="2D solve with the perturbed potential: the only workload "
                "that runs the per-node quad antiderivative, in set-up and "
                "in every L-BFGS energy evaluation",
            command=("solve", "--lambda", "1"),
            ok_exits=(0,),
            config=_rect_solve,
            check=_check_solve,
            min_per_lambda=1,
        ),
    )
}


# Which end-to-end metric each per-layer metric should move, and on which
# workloads. "not" lists the workloads where the prediction is no change.
LAYER_MAP = {
    "solver.*": ("wall_s", "dim1_sweep ridge_sweep rect_solve",
                 "not rect_certify"),
    "solver.evals_per_solution": (
        "wall_s", "falls on dim1_sweep when deflation or early stopping "
        "stops wasting starts", ""),
    "energy.*": ("wall_s", "dim1_sweep ridge_sweep rect_solve",
                 "not rect_certify"),
    "spaces.*": ("wall_s", "rect_certify",
                 "not dim1_sweep ridge_sweep (c0 = 1/4 is analytic in 1D)"),
    "certificate.*": ("wall_s", "rect_certify, a small share of ridge_sweep",
                      "not rect_solve"),
    "potentials.*": ("setup_s and wall_s", "rect_solve",
                     "a negligible share elsewhere"),
    "grids.*": ("setup_s", "all; wall_s on rect_certify (doubled grid)", ""),
    "config.*": ("setup_s", "the part not explained by grids and potentials",
                 ""),
    "cli.self_s": ("wall_s", "the CLI's own work: h-scan loop, CSV and JSON "
                   "output", ""),
}

"""Command-line front end.

Subcommands: check-spaces, hypotheses, certify, solve, sweep.
Machine-readable JSON goes to stdout (or --out); human text to stderr.
Exit codes: 0 success/feasible, 1 infeasible-but-valid, 2 invalid input.

The argument parser is built on the first `main(argv)` call and reused,
and `main` keeps no state between calls, so one process may run any
number of commands.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys

import numpy as np

from . import certificate as cert
from . import config as cfgmod
from . import potentials as pot
from . import solver as sol
from . import spaces
from .config import ConfigError
from .energy import ProblemInstance
from .grids import GridFunction

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_BAD_INPUT = 2


def _emit(payload: dict, out_path: str | None):
    # a non-finite number is not JSON: json.dumps raises ValueError (exit 2)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _info(msg: str):
    print(msg, file=sys.stderr)


def _load(args) -> cfgmod.RunConfig:
    return cfgmod.override(cfgmod.load_config(args.config), args.grid_n,
                           args.seed, getattr(args, "lam", None))


# ---------------------------------------------------------------------------

def cmd_check_spaces(args) -> int:
    cfg = _load(args)
    inst = cfgmod.build_problem(cfg, lam=1.0, verify=False)
    grid, p = inst.grid, inst.p
    rng = np.random.default_rng(cfg.solver.seed)
    checks = {}

    def rand_u(bc="navier"):
        vals = np.zeros(grid.size)
        vals[grid.interior_mask] = rng.standard_normal(
            int(grid.interior_mask.sum()))
        return GridFunction(grid, vals, bc=bc)

    # Lemma 2.2(1): norm-vs-modular trichotomy under exact rescaling
    ok = True
    for _ in range(20):
        u = rand_u()
        nrm = spaces.laplacian_norm(u, p).value
        if nrm == 0:
            continue
        for target, rel in ((0.5, "lt"), (1.0, "eq"), (2.0, "gt")):
            su = GridFunction(grid, u.values * (target / nrm), bc="navier")
            m = spaces.laplacian_modular(su, p)
            if rel == "lt":
                ok &= m < 1.0
            elif rel == "gt":
                ok &= m > 1.0
            else:
                ok &= abs(m - 1.0) < 1e-8
    checks["lemma_modular_trichotomy"] = bool(ok)

    # modular sandwich between ||u||^{p-} and ||u||^{p+}; fields are
    # rescaled to moderate norms so the norm's solver error stays below the slack
    ok = True
    for _ in range(20):
        u = rand_u()
        nrm = spaces.laplacian_norm(u, p).value
        if nrm == 0:
            continue
        target = 0.5 + 2.0 * rng.random()
        u = GridFunction(grid, u.values * (target / nrm), bc="navier")
        nrm = spaces.laplacian_norm(u, p).value
        m = spaces.laplacian_modular(u, p)
        lo = min(nrm**p.p_minus, nrm**p.p_plus)
        hi = max(nrm**p.p_minus, nrm**p.p_plus)
        ok &= lo - 1e-8 <= m <= hi + 1e-8
    checks["lemma_modular_sandwich"] = bool(ok)

    # homogeneity and triangle inequality of the Luxemburg norm
    ok = True
    for _ in range(20):
        u, v = rand_u("none"), rand_u("none")
        c = float(rng.standard_normal())
        nu = spaces.luxemburg_norm(u, p).value
        ok &= abs(spaces.luxemburg_norm(
            GridFunction(grid, c * u.values), p).value - abs(c) * nu) < 1e-8
        nv = spaces.luxemburg_norm(v, p).value
        nsum = spaces.luxemburg_norm(
            GridFunction(grid, u.values + v.values), p).value
        ok &= nsum <= nu + nv + 1e-8
    checks["norm_axioms"] = bool(ok)

    # Holder inequality on random pairs
    ok = True
    for _ in range(50):
        rep = spaces.check_holder(rand_u("none"), rand_u("none"), p)
        ok &= rep.holds
    checks["holder"] = bool(ok)

    payload = {"checks": checks, "all_pass": all(checks.values())}
    _emit(payload, args.out)
    return EXIT_OK if payload["all_pass"] else EXIT_INFEASIBLE


def cmd_hypotheses(args) -> int:
    cfg = _load(args)
    inst = cfgmod.build_problem(cfg, lam=1.0, verify=False)
    report = pot.verify_hypotheses(inst.potential, inst.nonlinearity)
    payload = {
        "status": report.status,
        "witnesses": {
            k: dataclasses.asdict(v) for k, v in report.witnesses.items()
        },
        "all_pass": report.all_pass,
    }
    _emit(payload, args.out)
    return EXIT_OK if report.all_pass else EXIT_INFEASIBLE


def _certify_from_config(cfg: cfgmod.RunConfig, inst: ProblemInstance):
    block = cfg.certificate
    if block.get("dim1"):
        return cert.dim1_certificate(
            inst.nonlinearity, inst.p, l=block.get("l", 1.0), h=block["h"],
            c3=inst.potential.c3)
    scan = block.get("h_scan") or "h" not in block
    # the same config on the doubled grid, for the convergence check, which
    # reads only alpha_r and beta_h there
    fine = cfgmod.build_problem(
        dataclasses.replace(cfg, grid_n=2 * inst.grid.n - 1), verify=False)
    certificate = cert.certify(inst, block.get("r", 1.0),
                               None if scan else block["h"], fine=fine)
    if scan:
        _info(f"h-scan selected h = {certificate.h:g}")
    return certificate


def cmd_certify(args) -> int:
    cfg = _load(args)
    inst = cfgmod.build_problem(cfg, lam=1.0, verify=True)
    certificate = _certify_from_config(cfg, inst)
    _emit(dataclasses.asdict(certificate), args.out)
    return EXIT_OK if certificate.feasible else EXIT_INFEASIBLE


def _write_solutions_csv(path: str, inst: ProblemInstance, sols):
    """One row per node: its coordinates and every solution's value there.
    csv writes each Python float as str(float), which is its repr, so
    float() reads every cell back exactly."""
    grid = inst.grid
    nodes = grid.nodes.reshape(grid.size, -1)
    values = [p.u.values for p in sols.points]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        header = ["x1", "x2"] if grid.domain.kind == "rectangle" else ["x"]
        wr.writerow(header + [f"u{i}" for i in range(len(values))])
        wr.writerows(np.column_stack([nodes, *values]).tolist())


def _search_keywords(cfg: cfgmod.RunConfig) -> dict:
    """The keywords of `solver.deflate_and_search`, for solve and sweep."""
    s = cfg.solver
    return dict(k_max=s.k_max, n_starts=s.n_starts, seed=s.seed, tol=s.tol,
                vbar_scale=cfg.certificate.get("h", 1.0), max_iter=s.max_iter)


def cmd_solve(args) -> int:
    cfg = _load(args)
    if cfg.lam is None:
        raise ConfigError("solve needs lambda (pass --lambda or config)")
    inst = cfgmod.build_problem(cfg, verify=True)
    sols = sol.deflate_and_search(inst, **_search_keywords(cfg))
    _write_solutions_csv(cfg.output.solutions_csv, inst, sols)
    payload = {
        "lambda": inst.lam,
        "n_solutions": len(sols.points),
        "energies": [p.energy for p in sols.points],
        "residual_norms": [p.residual_norm for p in sols.points],
        "thresholds": [p.threshold for p in sols.points],
        "uniqueness_modulus": sols.uniqueness_modulus,
        "solutions_csv": cfg.output.solutions_csv,
    }
    _emit(payload, args.out)
    return EXIT_OK if sols.points else EXIT_INFEASIBLE


def write_sweep_csv(path: str, rows):
    """The sweep table of lambda_sweep's rows: lambda, the solution count
    and the energies joined by ';', every float as its repr."""
    table = [["lambda", "n_solutions", "energies"]]
    table += [[row["lambda"], row["n_solutions"],
               ";".join(map(repr, row["energies"]))] for row in rows]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)


def cmd_sweep(args) -> int:
    cfg = _load(args)
    inst = cfgmod.build_problem(cfg, lam=1.0, verify=True)
    certificate = _certify_from_config(cfg, inst)
    if not certificate.feasible:
        _info("certificate interval is empty; nothing to sweep")
        _emit(dataclasses.asdict(certificate), args.out)
        return EXIT_INFEASIBLE
    rows = sol.lambda_sweep(inst, certificate.lambda_interval,
                            cfg.solver.sweep_m, **_search_keywords(cfg))
    write_sweep_csv(cfg.output.sweep_csv, rows)
    payload = {
        "lambda_interval": list(certificate.lambda_interval),
        "rows": rows,
        "sweep_csv": cfg.output.sweep_csv,
    }
    _emit(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pxbiharm",
        description="Variable-exponent norms, three-solution certificates "
                    "and deflated solvers for fourth-order problems",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("check-spaces", cmd_check_spaces),
        ("hypotheses", cmd_hypotheses),
        ("certify", cmd_certify),
        ("solve", cmd_solve),
        ("sweep", cmd_sweep),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--grid-n", dest="grid_n", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "solve":
            p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    # the cached parser is safe to share: parse_args returns a fresh
    # Namespace and changes no parser state
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        _info(f"error: {exc}")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

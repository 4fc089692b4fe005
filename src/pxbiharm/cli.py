"""Command-line front end.

Subcommands: check-spaces, hypotheses, certify, solve, sweep.
Machine-readable JSON goes to stdout (or --out); human text to stderr.
Exit codes: 0 success/feasible, 1 infeasible-but-valid, 2 invalid input,
a problem too large for memory included.

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
from .exponents import conjugate

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
    """The norm/modular relations of the variable-exponent spaces and
    Holder's inequality (Fan and Zhao 2001), each decided on one batch of
    random fields, zero on the boundary, one per row; the working norm of
    u is luxemburg_norm(L @ u, p)."""
    cfg = _load(args)
    inst = cfgmod.build_problem(cfg, verify=False)
    grid, p = inst.grid, inst.p
    # the sandwich rescales fields to norms up to 2.5
    if p.p_plus * np.log(2.5) > np.log(np.finfo(float).max):
        raise ValueError(f"p+ = {p.p_plus:g} is too large for check-spaces: "
                         "2.5^p+ overflows")
    rng = np.random.default_rng(cfg.solver.seed)
    L, inner = grid.laplacian_matrix(), grid.interior_mask
    checks = {}

    def fields(k):
        U = np.zeros((k, grid.size))
        U[:, inner] = rng.standard_normal((k, int(inner.sum())))
        return U

    def laplacians(k):
        """L u of k fields, with their norms (grid_n >= 5 leaves interior
        nodes, and L is one-to-one there, so no norm is 0)."""
        LU = (L @ fields(k).T).T
        return LU, spaces.luxemburg_norm(LU, p).value

    # Lemma 2.2(1): norm-vs-modular trichotomy under exact rescaling
    LU, nrm = laplacians(20)
    scale = np.array([0.5, 1.0, 2.0]) / nrm[:, None]
    m = spaces.modular(LU[:, None, :] * scale[:, :, None], p)
    checks["lemma_modular_trichotomy"] = bool(
        np.all(m[:, 0] < 1.0) and np.all(np.abs(m[:, 1] - 1.0) < 1e-8)
        and np.all(m[:, 2] > 1.0))

    # modular sandwich between ||u||^{p-} and ||u||^{p+}; fields are
    # rescaled to moderate norms so the norm's solver error stays below the
    # relative slack
    LU, nrm = laplacians(20)
    LU *= ((0.5 + 2.0 * rng.random(20)) / nrm)[:, None]
    m = spaces.modular(LU, p)
    powers = spaces.luxemburg_norm(LU, p).value[:, None] \
        ** np.array([p.p_minus, p.p_plus])
    checks["lemma_modular_sandwich"] = bool(np.all(
        (powers.min(axis=1) * (1 - 1e-8) <= m)
        & (m <= powers.max(axis=1) * (1 + 1e-8))))

    # homogeneity and triangle inequality of the Luxemburg norm
    U, V, c = fields(20), fields(20), rng.standard_normal(20)
    nu, ncu, nv, nsum = spaces.luxemburg_norm(
        np.concatenate([U, c[:, None] * U, V, U + V]), p).value.reshape(4, -1)
    checks["norm_axioms"] = bool(np.all(np.abs(ncu - np.abs(c) * nu) < 1e-8)
                                 and np.all(nsum <= nu + nv + 1e-8))

    # Holder: |int uv| <= (1/p^- + 1/p'^-) |u|_{p(x)} |v|_{p'(x)}
    U, V, pc = fields(50), fields(50), conjugate(p)
    rhs = (1.0 / p.p_minus + 1.0 / pc.p_minus) \
        * spaces.luxemburg_norm(U, p).value \
        * spaces.luxemburg_norm(V, pc).value
    checks["holder"] = bool(np.all(np.abs((U * V) @ grid.weights)
                                   <= rhs + 1e-10))

    payload = {"checks": checks, "all_pass": all(checks.values())}
    _emit(payload, args.out)
    return EXIT_OK if payload["all_pass"] else EXIT_INFEASIBLE


def cmd_hypotheses(args) -> int:
    cfg = _load(args)
    inst = cfgmod.build_problem(cfg, verify=False)
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
    inst = cfgmod.build_problem(cfg, verify=True)
    certificate = _certify_from_config(cfg, inst)
    _emit(dataclasses.asdict(certificate), args.out)
    return EXIT_OK if certificate.feasible else EXIT_INFEASIBLE


def _write_solutions_csv(path: str, inst: ProblemInstance, sols):
    """One row per node: its coordinates and every solution's value there,
    each cell the repr of its float, so float() reads every cell back
    exactly; the bytes are those of csv.writer with lineterminator "\n".
    A node coordinate repeats across rows (n times on an n x n
    rectangle), so each distinct one, by bit pattern (-0.0 keeps its own
    repr), is repr'd once."""
    grid = inst.grid
    nodes = np.ascontiguousarray(grid.nodes, float).reshape(grid.size, -1)
    bits, where = np.unique(nodes.view(np.int64), return_inverse=True)
    coords = np.array([repr(x) for x in bits.view(float).tolist()],
                      dtype=object)[where.reshape(nodes.shape)]
    columns = [c.tolist() for c in coords.T]
    columns += [list(map(repr, p.u.values.tolist())) for p in sols.points]
    header = ["x1", "x2"] if grid.domain.kind == "rectangle" else ["x"]
    header += [f"u{i}" for i in range(len(sols.points))]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _search_keywords(cfg: cfgmod.RunConfig) -> dict:
    """The keywords of `solver.deflate_and_search`, for solve and sweep
    (which starts from its certificate's h in place of vbar_scale)."""
    s = cfg.solver
    return dict(k_max=s.k_max, n_starts=s.n_starts, seed=s.seed, tol=s.tol,
                vbar_scale=cfg.certificate.get("h", 1.0))


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
    inst = cfgmod.build_problem(cfg, verify=True)
    certificate = _certify_from_config(cfg, inst)
    if not certificate.feasible:
        _info("certificate interval is empty; nothing to sweep")
        _emit(dataclasses.asdict(certificate), args.out)
        return EXIT_INFEASIBLE
    search = dict(_search_keywords(cfg), vbar_scale=certificate.h)
    # log-spaced across [lo/2, 2 hi], straddling the certified interval
    lo, hi = certificate.lambda_interval
    rows = sol.lambda_sweep(
        inst, np.geomspace(0.5 * lo, 2.0 * hi, cfg.solver.sweep_m), **search)
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
    except MemoryError as exc:
        _info(f"error: out of memory: {exc}")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

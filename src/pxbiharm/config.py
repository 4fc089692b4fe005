"""Run configuration: a single versioned JSON document parsed into
dataclasses, with strict unknown-key rejection."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import exponents as ex
from . import potentials as pot
from .grids import Domain, Grid, build_grid

__all__ = ["ConfigError", "RunConfig", "load_config", "override",
           "build_problem", "tabulated_g", "field_on_grid"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _require_keys(block: dict, allowed: set, required: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


# value checks: each takes (value, where) and returns the value in the type
# the builders expect, or raises ConfigError

def _number(value, where):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _positive(value, where):
    value = _number(value, where)
    if value <= 0:
        raise ConfigError(f"{where} must be positive, got {value!r}")
    return value


def _integer(minimum):
    def check(value, where):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < minimum:
            raise ConfigError(
                f"{where} must be an integer >= {minimum}, got {value!r}")
        return value
    return check


def _numbers(value, where):
    """A non-empty flat list of finite numbers, as a float array."""
    try:
        arr = np.array(value) if isinstance(value, list) else None
    except ValueError:
        arr = None
    if arr is None or arr.ndim != 1 or arr.size == 0 \
            or arr.dtype.kind not in "if" or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where} must be a list of finite numbers")
    return arr.astype(float)


def _field(value, where):
    """A number, or one number per node."""
    if isinstance(value, list):
        return _numbers(value, where)
    return _number(value, where)


def _optional_field(value, where):
    return None if value is None else _field(value, where)


def _text(value, where):
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _flag(value, where):
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


#: block -> (key -> check, required keys)
_BLOCKS = {
    "domain": ({"kind": _text, "a": _number, "b": _number,
                "N": _integer(1), "R": _number}, {"kind"}),
    "exponent": ({"kind": _text, "value": _number, "a": _number,
                  "b": _number, "values": _numbers}, {"kind"}),
    "potential": ({"family": _text, "theta": _field, "variant": _text},
                  {"family"}),
    "nonlinearity": ({"kind": _text, "xi": _optional_field, "zeta": _number,
                      "q": _number, "alpha": _field, "g_t": _numbers,
                      "g_values": _numbers}, {"kind"}),
    "certificate": ({"r": _positive, "h": _positive, "h_scan": _flag},
                    set()),
    "solver": ({"tol": _positive, "max_iter": _integer(1),
                "n_starts": _integer(0), "k_max": _integer(1),
                "seed": _integer(0), "sweep_m": _integer(2)}, set()),
    "output": ({"solutions_csv": _text, "sweep_csv": _text}, set()),
}
_grid_n = _integer(5)

_LOAD = ("q", "alpha", "xi", "zeta")
#: block -> (the key that selects its kind, kind -> (the other keys that
#: kind reads, the keys it needs)).  Every "builtin:<name>" load is looked
#: up as "builtin:"
_KINDS = {
    "domain": ("kind", {"interval": ((), ()), "rectangle": (("a", "b"), ()),
                        "ball_radial": (("N", "R"), ())}),
    "exponent": ("kind", {"constant": (("value",), ("value",)),
                          "affine": (("a", "b"), ("a", "b")),
                          "table": (("values",), ("values",))}),
    "potential": ("family", {"power": (("theta",), ()),
                             "perturbed_power": (("theta", "variant"), ())}),
    "nonlinearity": ("kind", {
        "table": (_LOAD + ("g_t", "g_values"), ("g_t", "g_values")),
        "builtin:": (_LOAD, ())}),
}


def _block(doc: dict, name: str) -> dict:
    """doc[name] (empty when absent) with its keys and value types checked,
    and, in a block with kinds, each key read or needed by its kind."""
    block = doc.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be an object, got {block!r}")
    checks, required = _BLOCKS[name]
    _require_keys(block, set(checks), required, name)
    block = {k: checks[k](v, f"{name}.{k}") for k, v in block.items()}
    if name not in _KINDS:
        return block
    selector, kinds = _KINDS[name]
    kind = block[selector]
    entry = "builtin:" if kind.startswith("builtin:") else kind
    if entry not in kinds:
        raise ConfigError(f"unknown {name}.{selector} {kind!r}")
    reads, needs = kinds[entry]
    foreign = sorted(set(block) - {selector, *reads})
    if foreign:
        raise ConfigError(f"{name} keys {foreign} are not read with "
                          f"{name}.{selector} = {json.dumps(kind)}: "
                          + ", ".join(f"{name}.{k}" for k in foreign))
    missing = sorted(set(needs) - set(block))
    if missing:
        raise ConfigError(f"with {name}.{selector} = {json.dumps(kind)}, "
                          f"{name} needs "
                          + ", ".join(f"{name}.{k}" for k in missing))
    return block


@dataclass
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 10_000
    n_starts: int = 12
    k_max: int = 6
    seed: int = 0
    sweep_m: int = 7


@dataclass
class OutputConfig:
    solutions_csv: str = "solutions.csv"
    sweep_csv: str = "sweep.csv"


@dataclass
class RunConfig:
    domain: dict
    grid_n: int
    exponent: dict
    potential: dict
    nonlinearity: dict
    certificate: dict = field(default_factory=dict)
    solver: SolverConfig = field(default_factory=SolverConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    lam: float | None = None


def load_config(path_or_dict) -> RunConfig:
    if isinstance(path_or_dict, dict):
        doc = path_or_dict
    else:
        with open(path_or_dict, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("a config must be a JSON object")

    _require_keys(
        doc,
        {"schema", "domain", "grid_n", "exponent", "potential",
         "nonlinearity", "certificate", "solver", "output", "lambda"},
        {"schema", "domain", "grid_n", "exponent", "potential",
         "nonlinearity"},
        "config",
    )
    if isinstance(doc["schema"], bool) or doc["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {doc['schema']!r}")
    blocks = {name: _block(doc, name) for name in _BLOCKS}
    if blocks["certificate"].get("h_scan") is False \
            and "h" not in blocks["certificate"]:
        raise ConfigError("certificate.h_scan = false needs certificate.h, "
                          "the height to certify at")

    return override(RunConfig(
        domain=blocks["domain"],
        grid_n=_grid_n(doc["grid_n"], "grid_n"),
        exponent=blocks["exponent"],
        potential=blocks["potential"],
        nonlinearity=blocks["nonlinearity"],
        certificate=blocks["certificate"],
        solver=SolverConfig(**blocks["solver"]),
        output=OutputConfig(**blocks["output"]),
    ), lam=doc.get("lambda"))


def override(cfg: RunConfig, grid_n=None, seed=None,
             lam=None) -> RunConfig:
    """cfg with each value given replacing grid_n, solver.seed or lambda,
    checked by the same rule as in a config file."""
    if grid_n is not None:
        cfg.grid_n = _grid_n(grid_n, "grid_n")
    if seed is not None:
        cfg.solver.seed = _BLOCKS["solver"][0]["seed"](seed, "solver.seed")
    if lam is not None:
        cfg.lam = _positive(lam, "lambda")
    return cfg


def build_exponent(cfg: RunConfig, grid: Grid) -> ex.ExponentField:
    e = cfg.exponent
    try:
        if e["kind"] == "constant":
            return ex.constant_exponent(grid, e["value"])
        if e["kind"] == "affine":
            return ex.affine_exponent(grid, e["a"], e["b"])
        xs = np.linspace(0.0, 1.0, len(e["values"]))
        coords = grid.x1
        span = coords.max() - coords.min()
        rel = (coords - coords.min()) / (span if span else 1.0)
        return ex.tabulated_exponent(grid, np.interp(rel, xs, e["values"]))
    except ValueError as exc:
        raise ConfigError(f"invalid exponent block: {exc}") from exc


def _resample(values: np.ndarray, coarse: Grid, fine: Grid) -> np.ndarray:
    """Piecewise-linear interpolation of nodal values onto another grid of
    the same domain: separable along x2, then x1, on a rectangle, along the
    nodes otherwise."""
    if coarse.domain.kind != "rectangle":
        return np.interp(fine.nodes, coarse.nodes, values)
    xc, yc = coarse.nodes[::coarse.n, 0], coarse.nodes[:coarse.n, 1]
    xf, yf = fine.nodes[::fine.n, 0], fine.nodes[:fine.n, 1]
    v = np.array([np.interp(yf, yc, row)
                  for row in np.reshape(values, coarse.shape)])
    return np.array([np.interp(xf, xc, col) for col in v.T]).T.ravel()


def field_on_grid(value, grid: Grid, where: str):
    """A field of the config on `grid`.  A number is returned as it is; a
    list of m values holds the nodal values on the m-node grid of the same
    domain (k x k = m nodes on a rectangle, k >= 5 as for grid_n) and is
    interpolated piecewise-linearly onto `grid`."""
    if not isinstance(value, np.ndarray) or value.size == grid.size:
        return value
    axes = len(grid.shape)
    k = math.isqrt(value.size) if axes == 2 else value.size
    if k < 5 or k ** axes != value.size:
        raise ConfigError(f"{where} has {value.size} values, which is the "
                          f"node count of no grid on this domain")
    return _resample(value, build_grid(grid.domain, k), grid)


def build_potential(cfg: RunConfig, p: ex.ExponentField) -> pot.PotentialSpec:
    b = cfg.potential
    theta = field_on_grid(b.get("theta", 1.0), p.grid, "potential.theta")
    try:
        if b["family"] == "power":
            return pot.make_power_family(theta, p)
        return pot.make_perturbed_family(
            theta, p, b.get("variant", "standard"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def tabulated_g(block: dict):
    """(g, G, dg, zeros, knots) of a table nonlinearity block: g(t)
    interpolates the (g_t, g_values) samples at |t| and keeps its end value
    past the last node; G is its exact antiderivative, piecewise quadratic
    and odd in t; dg is g', sign(t) times the slope of the segment that |t|
    lies in (0 at t = 0); zeros holds the t where g changes sign (table
    nodes where g = 0 and crossings inside a segment, both signs); knots =
    (g_t, g_values, slope) with each segment's slope, 0 past the last node,
    which dg, Lip(g) and the H5 check read (see NonlinearitySpec)."""
    tg = np.asarray(block["g_t"], float)
    gv = np.asarray(block["g_values"], float)
    if tg.size != gv.size or tg.size < 2:
        raise ConfigError("tabulated g needs matching g_t/g_values")
    dt = np.diff(tg)
    if tg[0] != 0.0 or np.any(dt <= 0.0):
        raise ConfigError("nonlinearity.g_t must start at 0 and strictly "
                          "increase")
    with np.errstate(over="ignore", invalid="ignore"):
        slope = np.append(np.diff(gv) / dt, 0.0)
        Gtab = np.concatenate([[0.0],
                               np.cumsum(dt * 0.5 * (gv[1:] + gv[:-1]))])
    if not (np.all(np.isfinite(slope)) and np.all(np.isfinite(Gtab))):
        raise ConfigError("nonlinearity.g_t/g_values: a segment slope or "
                          "the cumulative G of the table is not finite")

    def segment(t):
        return np.searchsorted(tg, np.abs(t), side="right") - 1

    def G(t):
        i = segment(t)
        d = np.abs(t) - tg[i]
        return np.sign(t) * (Gtab[i] + d * (gv[i] + 0.5 * slope[i] * d))

    def dg(t):
        return np.sign(t) * slope[segment(t)]

    cross = gv[:-1] * gv[1:] < 0.0
    z = np.concatenate([tg[gv == 0.0],
                        tg[:-1][cross] - gv[:-1][cross] / slope[:-1][cross]])
    g = lambda t: np.interp(np.abs(t), tg, gv)  # noqa: E731
    return g, G, dg, np.unique(np.concatenate([-z, z])), (tg, gv, slope)


def build_nonlinearity(cfg: RunConfig, grid: Grid,
                       p: ex.ExponentField) -> pot.NonlinearitySpec:
    b = cfg.nonlinearity
    q = ex.constant_exponent(grid, b.get("q", 1.5))
    if not q.p_plus < p.p_minus:
        raise ConfigError("nonlinearity exponent q must satisfy q^+ < p^-")
    xi = field_on_grid(b.get("xi"), grid, "nonlinearity.xi")
    alpha = field_on_grid(b.get("alpha", 1.0), grid, "nonlinearity.alpha")
    if b["kind"] == "table":
        name, (g, G, dg, zeros, knots) = "separable", tabulated_g(b)
        if xi is None:  # sup|g| of a piecewise-linear g with flat ends
            xi = np.max(np.abs(alpha)) * np.max(np.abs(knots[1]))
    else:
        name = b["kind"].split(":", 1)[1]
        g = G = dg = zeros = knots = None
    try:
        return pot.builtin_nonlinearity(
            name, grid, q, xi=xi, zeta=b.get("zeta", 1.0),
            alpha=alpha, g=g, G=G, dg=dg, zeros=zeros, knots=knots)
    except ValueError as exc:
        raise ConfigError(
            f"invalid nonlinearity block with nonlinearity.kind = "
            f"{json.dumps(b['kind'])}: {exc}") from exc


def build_problem(cfg: RunConfig, lam: float | None = None,
                  verify: bool = True):
    """Grid, exponent, potential, nonlinearity and a ProblemInstance.  With
    verify, a config whose hypotheses do not all pass is refused."""
    from .energy import ProblemInstance

    grid = build_grid(Domain(**cfg.domain), cfg.grid_n)
    p = build_exponent(cfg, grid)
    spec = build_potential(cfg, p)
    nl = build_nonlinearity(cfg, grid, p)
    lam = lam if lam is not None else (cfg.lam if cfg.lam is not None else 1.0)
    if verify:
        status = pot.verify_hypotheses(spec, nl).status
        failed = [f"{k} ({v})" for k, v in status.items() if v != "pass"]
        if failed:
            raise ConfigError(f"hypotheses do not hold: {', '.join(failed)}; "
                              f"run the hypotheses subcommand for witnesses")
    return ProblemInstance(grid, p, spec, nl, lam)

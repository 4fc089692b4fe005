"""Spans around the public functions of each pxbiharm module, recorded from
the benchmark's own files, and the per-layer metrics derived from them.

A span is (name, parent, start, end); spans of one command share an op
index. Wrappers are installed where each caller looks a name up: names a
module imported with `from .x import f` are replaced in that module too,
`spaces.laplacian_norm` is looked up in `spaces` at call time, and
`PotentialSpec.A` is a method on the class.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager

# span name -> (calls metric, self-seconds metric); several spans may share
# a metric. Only names that exist in the measured version are wrapped.
LAYER_SPANS = {
    "grids.build_grid": ("grids.build_calls", "grids.build_s"),
    "config.load_config": (None, "config.load_s"),
    "config.build_problem": (None, "config.build_problem_s"),
    "potentials.make_power_family": (None, "potentials.family_s"),
    "potentials.make_perturbed_family": (None, "potentials.family_s"),
    "potentials.verify_hypotheses": (None, "potentials.verify_s"),
    "potentials.PotentialSpec.A": ("potentials.A_calls", "potentials.A_s"),
    "energy.residual_vector": ("energy.residual_calls", "energy.residual_s"),
    "energy.total_energy": ("energy.energy_calls", "energy.energy_s"),
    "spaces.luxemburg_norm": ("spaces.norm_calls", "spaces.norm_s"),
    "spaces.laplacian_norm": ("spaces.norm_calls", "spaces.norm_s"),
    "certificate.certify": ("certificate.certify_calls",
                            "certificate.certify_s"),
    "certificate.estimate_c0": ("certificate.c0_calls", "certificate.c0_s"),
    "certificate.alpha_r": (None, "certificate.alpha_s"),
    "certificate.dim1_certificate": (None, "certificate.dim1_s"),
    "solver.minimize": ("solver.minimize_calls", "solver.minimize_s"),
    "solver.deflate_and_search": ("solver.search_calls", "solver.search_s"),
    "solver.lambda_sweep": (None, "solver.sweep_s"),
    # scipy as the solver module calls it: hybr root solves and L-BFGS
    "solver.opt.root": ("solver.root_calls", "solver.root_s"),
    "solver.opt.minimize": (None, "solver.lbfgs_s"),
}

# counts read from return values
EXTRA_COUNTS = ("spaces.bisect_iters", "solver.not_converged")
# counters that must repeat exactly for a fixed seed
DETERMINISTIC = ("energy.residual_calls", "energy.energy_calls",
                 "spaces.bisect_iters", "solver.solutions_found")
_UNITS = {"_calls": "count", "_s": "s", "bisect_iters": "count",
          "not_converged": "count", "solutions_found": "count",
          "evals_per_solution": "evals/solution", "spans": "count"}


def unit(metric: str) -> str:
    return next(u for suffix, u in _UNITS.items() if metric.endswith(suffix))


def _norm_result(counts, res):
    counts["spaces.bisect_iters"] += res.iterations


def _minimize_result(counts, res):
    counts["solver.not_converged"] += not res.converged


def _root_result(counts, res):
    counts["solver.not_converged"] += not res.success


ON_RESULT = {
    "spaces.luxemburg_norm": _norm_result,
    "spaces.laplacian_norm": _norm_result,
    "solver.minimize": _minimize_result,
    "solver.opt.root": _root_result,
}


class _ModuleProxy(types.ModuleType):
    """Stands in for a module inside one caller, with some names wrapped."""

    def __init__(self, module, overrides):
        super().__init__(module.__name__)
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.ops = []          # per op: list of [name, parent, start, end]
        self.counts = []       # per op: Counter of EXTRA_COUNTS
        self._stack = []

    def begin_op(self):
        self.ops.append([])
        self.counts.append(Counter())

    def _wrap(self, name, fn):
        on_result = ON_RESULT.get(name)
        stack, clock, tracer = self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            spans = tracer.ops[-1]
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if on_result is not None:
                on_result(tracer.counts[-1], res)
            return res

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        import pxbiharm  # noqa: F401  (loads all submodules)
        from pxbiharm import potentials, solver

        mods = [m for k, m in sys.modules.items()
                if k == "pxbiharm" or k.startswith("pxbiharm.")]
        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for name in LAYER_SPANS:
            modname, _, fn_name = name.partition(".")
            if "." in fn_name:
                continue
            mod = sys.modules.get(f"pxbiharm.{modname}")
            fn = getattr(mod, fn_name, None)
            if fn is None:
                continue
            traced = self._wrap(name, fn)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        patch(m, attr, traced)
        if hasattr(potentials.PotentialSpec, "A"):
            patch(potentials.PotentialSpec, "A", self._wrap(
                "potentials.PotentialSpec.A", potentials.PotentialSpec.A))
        opt = getattr(solver, "opt", None)
        if isinstance(opt, types.ModuleType):
            patch(solver, "opt", _ModuleProxy(opt, {
                "root": self._wrap("solver.opt.root", opt.root),
                "minimize": self._wrap("solver.opt.minimize", opt.minimize),
            }))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    # -- analysis ----------------------------------------------------------

    @staticmethod
    def self_times(spans):
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, _, t0, t1), c in zip(spans, child)]

    def op_metrics(self, k: int, op_wall: float, solutions: int) -> dict:
        """Per-layer metrics of op k, whose command took op_wall seconds
        and accepted `solutions` solutions."""
        spans = self.ops[k]
        out = {}
        for calls, secs in LAYER_SPANS.values():
            if calls:
                out[calls] = 0
            out[secs] = 0.0
        top = 0.0
        for (name, parent, t0, t1), s in zip(spans, self.self_times(spans)):
            calls, secs = LAYER_SPANS[name]
            if calls:
                out[calls] += 1
            out[secs] += s
            if parent < 0:
                top += t1 - t0
        for key in EXTRA_COUNTS:
            out[key] = self.counts[k][key]
        out["solver.solutions_found"] = solutions
        out["solver.evals_per_solution"] = (
            out["energy.residual_calls"] / solutions if solutions else 0.0)
        out["cli.self_s"] = op_wall - top
        out["trace.spans"] = len(spans)
        return out

    def write(self, path):
        """All spans as gzipped JSON lines, with their self time."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for k, spans in enumerate(self.ops):
                for i, ((name, parent, t0, t1), s) in enumerate(
                        zip(spans, self.self_times(spans))):
                    fh.write(json.dumps(
                        {"op": k, "id": i, "parent": parent, "name": name,
                         "start": t0, "end": t1, "self": s}) + "\n")

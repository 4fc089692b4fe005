#!/usr/bin/env python3
"""Run the five CLI subcommands on two source trees and print every
command whose stdout, stderr, exit code or written files differ.

    python3 scripts/compare_outputs.py A B

A and B are repository roots, each with its own src/pxbiharm.  The inputs
are this repository's configs/*.json, the rect_certify and rect_solve
configs of bench/workloads.py, rect_certify on the 33 x 33 grid, three
variants of configs/*.json with a perturbed_power potential and the
spike_ridge config on a disk (ball_radial, N = 2, 33 nodes), so both trees
run the same configs.  Each command runs as `python -m pxbiharm.cli` in a
fresh temporary directory, with that tree's src on PYTHONPATH and one BLAS
thread.  Where an output that differs is a JSON object on both sides (a
report on stdout or in an --out file), the top-level keys added, removed
or changed are named.  Where the two sides of an output (a JSON value, a
changed key of a JSON object, or a .csv file, whose cells may hold
;-separated lists) differ only in their numbers, the largest relative
difference of those numbers is printed next to it, so a change at
rounding level reads as one.  Exits 1 if any command differs.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

COMMANDS = (["check-spaces"], ["hypotheses"], ["certify"],
            ["solve", "--lambda", "1"], ["sweep"])


def configs() -> dict:
    docs = {path.stem: json.loads(path.read_text())
            for path in sorted((ROOT / "configs").glob("*.json"))}
    for name in ("rect_certify", "rect_solve"):
        docs[name] = WORKLOADS[name].config(ROOT)
    # its certify converges, so it builds the 65 x 65 grid's c0, on a
    # varying p' with p'- < 2
    docs["rect_certify_33"] = dict(docs["rect_certify"], grid_n=33)
    # paper_literal at p = 3 fails H2 (lhs 7, rhs 2), and with theta = 0.2
    # also H4, at c2's interior minimum; the bounded load's general 1D
    # certificate runs on a standard perturbed potential
    for suffix, theta in (("", 1.0), ("_theta02", 0.2)):
        docs[f"beam_literal_p3{suffix}"] = dict(
            docs["beam"], exponent={"kind": "constant", "value": 3.0},
            potential={"family": "perturbed_power",
                       "variant": "paper_literal", "theta": theta})
    # the ball's dense Green's inverse, first_mode's eigensolve and
    # laplacian_floor's bisection; its certify converges, so it builds the
    # 65-node grid's c0
    docs["ball_ridge"] = dict(
        docs["spike_ridge"], grid_n=33,
        domain={"kind": "ball_radial", "N": 2, "R": 1.0})
    bump = next(name for name in docs if name.startswith("bump"))
    docs[f"{bump}_perturbed"] = dict(
        docs[bump], exponent={"kind": "constant", "value": 2.5},
        potential={"family": "perturbed_power", "theta": 1.0})
    return docs


def run(tree: str, name: str, doc: dict, command: list) -> dict:
    """Exit code, stdout, stderr and every file the command wrote."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "pxbiharm.cli", command[0],
             "--config", cfg.name, *command[1:]],
            cwd=tmp, env=env, capture_output=True)
        out = {str(path.relative_to(tmp)): path.read_bytes()
               for path in sorted(Path(tmp).rglob("*"))
               if path.is_file() and path != cfg}
    out.update({"exit code": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr})
    return out


def leaves(value):
    """The numbers of a parsed JSON value or CSV in order, and its shape:
    the value with each number replaced by None."""
    if isinstance(value, (dict, list)):
        items = sorted(value.items()) if isinstance(value, dict) \
            else enumerate(value)
        parts = [(k, *leaves(v)) for k, v in items]
        shape = [(k, s) for k, _, s in parts]
        return [x for _, ns, _ in parts for x in ns], shape
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)], None
    return [], value


def largest_rel(a, b):
    """The largest relative difference of the numbers of a and b where
    they differ only in their numbers, else None."""
    (na, sa), (nb, sb) = leaves(a), leaves(b)
    if sa != sb or not na:
        return None
    worst = 0.0
    for x, y in zip(na, nb):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        d = abs(x - y) / max(abs(x), abs(y))
        worst = max(worst, d if math.isfinite(d) else math.inf)
    return worst


def with_rel(label: str, a, b) -> str:
    rel = largest_rel(a, b)
    return label if rel is None else f"{label} (max rel {rel:.1e})"


def parse_csv(data: bytes):
    """Rows of cells, each cell split at ';', as floats where they parse."""
    def cell(token):
        try:
            return float(token)
        except ValueError:
            return token
    return [[cell(t) for field in line.split(",") for t in field.split(";")]
            for line in data.decode().splitlines()]


def describe(key: str, a, b) -> str:
    """key, followed by the top-level keys that were added, removed or
    changed where a and b both parse as JSON objects, and by the largest
    relative difference where only numbers differ."""
    if key.endswith(".csv") and a is not None and b is not None:
        return with_rel(key, parse_csv(a), parse_csv(b))
    try:
        ja, jb = json.loads(a), json.loads(b)
    except (TypeError, ValueError):
        return key
    if not (isinstance(ja, dict) and isinstance(jb, dict)):
        return with_rel(key, ja, jb)
    changed = sorted(k for k in ja.keys() & jb.keys() if ja[k] != jb[k])
    parts = [f"{label} {sorted(keys)}" for label, keys in (
        ("added", jb.keys() - ja.keys()),
        ("removed", ja.keys() - jb.keys())) if keys]
    if changed:
        parts.append("changed [" + ", ".join(
            with_rel(repr(k), ja[k], jb[k]) for k in changed) + "]")
    return f"{key} ({'; '.join(parts) or 'the same JSON'})"


def main(a: str, b: str) -> int:
    pairs = differ = 0
    for name, doc in configs().items():
        for command in COMMANDS:
            pairs += 1
            ra, rb = run(a, name, doc, command), run(b, name, doc, command)
            keys = [describe(k, ra.get(k), rb.get(k))
                    for k in sorted(ra.keys() | rb.keys())
                    if ra.get(k) != rb.get(k)]
            if keys:
                differ += 1
                print(f"{name} {' '.join(command)}: {', '.join(keys)} differ")
    print(f"{pairs} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))

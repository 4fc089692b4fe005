#!/usr/bin/env python3
"""Run the five CLI subcommands on two source trees and print every
command whose stdout, stderr, exit code or written files differ.

    python3 scripts/compare_outputs.py A B

A and B are repository roots, each with its own src/pxbiharm.  The inputs
are this repository's configs/*.json and the rect_certify and rect_solve
configs of bench/workloads.py, so both trees run the same configs.  Each
command runs as `python -m pxbiharm.cli` in a fresh temporary directory,
with that tree's src on PYTHONPATH and one BLAS thread.  Exits 1 if any
command differs.
"""

import json
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


def main(a: str, b: str) -> int:
    pairs = differ = 0
    for name, doc in configs().items():
        for command in COMMANDS:
            pairs += 1
            ra, rb = run(a, name, doc, command), run(b, name, doc, command)
            keys = [k for k in sorted(ra.keys() | rb.keys())
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

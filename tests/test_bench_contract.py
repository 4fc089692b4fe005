"""The benchmark's contract: each workload that BENCHMARK.json lists runs
one command of bench/run.py's Runner without a failed operation.

The harness reads names of the program (the CLI's --seed, the config keys
its workloads set, the certificate's fields, `solver.deflate_and_search`,
`energy.weak_residual`, `SolutionSet.pairwise_dist`, ...); a change that
drops one fails every operation of a workload, and this test with it.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LISTED = [w["name"] for w in
          json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def bench_run():
    """bench/run.py loaded by path; the environment variables it sets at
    import, the paths it puts on sys.path and its `workloads` module are
    restored afterwards."""
    environ, path = dict(os.environ), list(sys.path)
    had_workloads = "workloads" in sys.modules
    spec = importlib.util.spec_from_file_location(
        "bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
        if not had_workloads:
            sys.modules.pop("workloads", None)


@pytest.mark.parametrize("name", LISTED)
def test_a_listed_workload_runs_without_a_failed_operation(
        bench_run, tmp_path, name):
    runner = bench_run.Runner(bench_run.WORKLOADS[name], tmp_path)
    op = runner.command(seed=1)
    assert op["failed"] == 0, op["failures"]
    assert op["attempted"] >= 1

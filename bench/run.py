"""Benchmark of the pxbiharm certify -> solve -> sweep pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Each workload runs one CLI command (`pxbiharm.cli.main`, in-process,
closed loop: one command at a time) repeatedly for S seconds and checks
every output. The seed reaches the program only as the CLI's `--seed`,
i.e. `solver.seed`, which picks the solver's random Fourier starts. With
--trace 0, command k of a run gets solver seed 1000 * seed + k: the work
of one 2D solve moves by up to 15% with its starts, so the run covers
many start sets instead of the luck of one. With --trace 1 every command
gets `seed` itself, so each count repeats exactly. The seed does not reach
`rect_certify`, whose c0 search seed is fixed inside `certificate`.

--trace 0 prints the end-to-end metrics: mean command wall time, mean
set-up time (load_config + build_problem(verify=True)) and the peak RSS of
this process. Both times are scaled to a fixed machine speed: the effective
speed of a shared host's core drifts by a third and more over minutes, so
a fixed reference loop (see `_reference_chunk`) is timed for REF_SLICE
seconds between any two commands, and both means are multiplied by
REF_CHUNK_S / (mean reference chunk time of the run). The unscaled means
and that speed factor are printed in the `# raw` line.

--trace 1 alternates untraced and traced commands and prints per-layer
counts and self times (see tracing.py), the tracing overhead, and writes
every span to .bench_out/. The last line of stdout is one JSON object;
earlier lines starting with '#' are informational. The `# ops` line
records every command's wall time, its CPU time in this process (which
tracks wall time closely, so a slow command is slow code, not time spent
descheduled), every reference slice's mean chunk time and every command's
solution count.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are capped before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SLICE = 0.2      # s of set-up repetitions before each command, at least
REF_SLICE = 0.8        # s of reference chunks between two commands, at least
REF_CHUNK_S = 0.04     # nominal time of one reference chunk, in s

sys.path.insert(0, str(HERE))
from workloads import LAYER_MAP, WORKLOADS, check_solutions  # noqa: E402


def _import_program():
    """Import pxbiharm from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pxbiharm
    from pxbiharm import cli, config, solver

    if Path(pxbiharm.__file__).resolve().parent != src / "pxbiharm":
        raise ImportError(f"pxbiharm imported from {pxbiharm.__file__}, "
                          f"not from {src}")
    return cli, config, solver


_REF_X = np.linspace(0.1, 1.0, 1000)


def _reference_chunk() -> float:
    """Time one fixed chunk of interpreter arithmetic and small-array numpy
    work, the mix of the program's own inner loops. It takes 0.035 to
    0.06 s on a 2-vCPU Xeon VM, by the moment's speed of the host."""
    t0 = time.perf_counter()
    s = 0.0
    for _ in range(2000):
        s += float(np.sum(np.abs(_REF_X) ** 2.3 * _REF_X))
    for i in range(300000):
        s += (i % 7) * 0.5
    return time.perf_counter() - t0


def _reference_slice() -> float:
    """Mean reference chunk time over at least REF_SLICE seconds."""
    chunks, t0 = [], time.perf_counter()
    while not chunks or time.perf_counter() - t0 < REF_SLICE:
        chunks.append(_reference_chunk())
    return statistics.fmean(chunks)


def _environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": os.environ["OMP_NUM_THREADS"],
    }


@contextlib.contextmanager
def _capture_searches(solver, into: list):
    """Keep (instance, SolutionSet) of every deflate_and_search call so the
    accepted solutions can be re-checked after the timed command."""
    orig = solver.deflate_and_search

    def capture(inst, *args, **kwargs):
        res = orig(inst, *args, **kwargs)
        into.append((inst, res))
        return res

    solver.deflate_and_search = capture
    try:
        yield
    finally:
        solver.deflate_and_search = orig


class Runner:
    def __init__(self, workload, tmp: Path):
        self.cli, self.config, self.solver = _import_program()
        self.w = workload
        self.doc = workload.config(ROOT)
        self.doc["output"] = {"solutions_csv": str(tmp / "solutions.csv"),
                              "sweep_csv": str(tmp / "sweep.csv")}
        self.cfg_path = tmp / "config.json"
        self.cfg_path.write_text(json.dumps(self.doc), encoding="utf-8")
        self.out_path = tmp / "out.json"
        self.log_path = tmp / "stderr.log"
        self.argv = [*workload.command, "--config", str(self.cfg_path),
                     "--out", str(self.out_path)]
        self.tol = self.config.load_config(str(self.cfg_path)).solver.tol

    def setup_once(self) -> float:
        t0 = time.perf_counter()
        cfg = self.config.load_config(str(self.cfg_path))
        self.config.build_problem(cfg, verify=True)
        return time.perf_counter() - t0

    def command(self, seed: int, tracer=None) -> dict:
        """Run the CLI command once with solver seed `seed`; return its
        wall and CPU time and check result.

        An operation is the command itself plus each lambda-solve in it;
        `attempted`/`failed` count both."""
        searches = []
        self.out_path.unlink(missing_ok=True)
        traced = tracer.installed() if tracer else contextlib.nullcontext()
        err = None
        with open(self.log_path, "a", encoding="utf-8") as log, \
                contextlib.redirect_stderr(log), \
                _capture_searches(self.solver, searches), traced:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = self.cli.main([*self.argv, "--seed", str(seed)])
            except Exception as exc:  # a traceback is a failed operation
                rc, err = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        failures = []
        if err or rc not in self.w.ok_exits:
            failures.append(err or f"exit code {rc}")
        else:
            try:
                payload = json.loads(self.out_path.read_text(encoding="utf-8"))
                failures += self.w.check(self.doc, payload, searches)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                failures.append(f"malformed output: {exc!r}")
        per_solve = check_solutions(searches, self.tol, self.w.min_per_lambda)
        return {
            "wall": wall,
            "cpu": cpu,
            "attempted": 1 + len(searches),
            "failed": bool(failures) + sum(bool(b) for b in per_solve),
            "failures": failures + [m for b in per_solve for m in b],
            "solutions": sum(len(s.points) for _, s in searches),
        }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        runner = Runner(w, tmp)
        print("# env " + json.dumps(_environment()))
        print(f"# workload {name}: {w.why}")
        if trace:
            return _traced(runner, name, seed, seconds)
        return _untraced(runner, seed, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _report_failures(ops):
    for o in ops:
        for msg in o["failures"]:
            print(f"# FAILED: {msg}")


def _untraced(runner: Runner, seed: int, seconds: float) -> dict:
    # set-ups, commands and reference slices are interleaved, so that all
    # three sample the same stretch of the machine's varying speed. Means,
    # not medians: the host flips between a fast and a slow speed within
    # seconds, so each time is a mixture of the two, and the median of
    # such samples jumps between the modes where the mean does not.
    setups, ops, refs = [], [], [_reference_slice()]
    t_start = time.perf_counter()
    while not ops or time.perf_counter() - t_start < seconds:
        n, t_slice = len(setups), time.perf_counter()
        while len(setups) == n or time.perf_counter() - t_slice < SETUP_SLICE:
            setups.append(runner.setup_once())
        ops.append(runner.command(1000 * seed + len(ops)))
        refs.append(_reference_slice())
    wall = statistics.fmean(o["wall"] for o in ops)
    setup = statistics.fmean(setups)
    speed = REF_CHUNK_S / statistics.fmean(refs)

    attempted = sum(o["attempted"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    _report_failures(ops)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("# ops " + json.dumps({
        "wall_s": [round(o["wall"], 4) for o in ops],
        "cpu_s": [round(o["cpu"], 4) for o in ops],
        "ref_s": [round(r, 5) for r in refs],
        "solutions_found": [o["solutions"] for o in ops],
        "setups": len(setups)}))
    print("# raw " + json.dumps({"wall_s": wall, "setup_s": setup,
                                 "speed": speed}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall * speed, "unit": "s"},
            "setup_s": {"value": setup * speed, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        },
    }


def _traced(runner: Runner, name: str, seed: int, seconds: float) -> dict:
    from tracing import DETERMINISTIC, Tracer, unit

    tracer = Tracer()
    plain, traced = [], []
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < seconds:
        plain.append(runner.command(seed))
        tracer.begin_op()
        traced.append(runner.command(seed, tracer))

    per_op = [tracer.op_metrics(k, o["wall"], o["solutions"])
              for k, o in enumerate(traced)]
    # every traced command does the same work, so each count repeats
    # exactly and its median is that count
    metrics = {key: {"value": statistics.median_low(m[key] for m in per_op),
                     "unit": unit(key)} for key in per_op[0]}
    metrics["trace.overhead_s"] = {
        "value": statistics.median([o["wall"] for o in traced])
        - statistics.median([o["wall"] for o in plain]), "unit": "s"}
    path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl.gz"
    tracer.write(path)
    ops = plain + traced
    _report_failures(ops)
    print(f"# spans written to {path.relative_to(ROOT)}")
    print("# counters per traced op " + json.dumps(
        {key: [m[key] for m in per_op] for key in DETERMINISTIC}))
    print("# layer map " + json.dumps(LAYER_MAP))
    failed = sum(o["failed"] for o in ops)
    return {
        "correct": failed == 0,
        "attempted": sum(o["attempted"] for o in ops),
        "failed": failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh process; a table of the end-to-end
    metrics with units, then one JSON object keyed by workload.

    failed_frac is failed/attempted of the result; solutions_found, which
    is 0 on rect_certify and so cannot be a bounded metric of the result,
    is read from the `# ops` record of the same run."""
    results, rc = {}, 0
    print(f"{'workload':<14}{'wall_s':>10}{'setup_s':>10}"
          f"{'solutions_found':>17}{'peak_rss_mb':>13}{'failed_frac':>13}")
    print(f"{'':<14}{'s':>10}{'s':>10}{'count':>17}{'MB':>13}{'1':>13}")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        res = json.loads(lines[-1])
        ops = next(json.loads(x[len("# ops "):]) for x in lines
                   if x.startswith("# ops "))
        res["solutions_found"] = ops["solutions_found"][0]
        res["failed_frac"] = res["failed"] / res["attempted"]
        m = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"{name:<14}{m['wall_s']:>10.3f}{m['setup_s']:>10.4f}"
              f"{res['solutions_found']:>17}"
              f"{m['peak_rss_mb']:>13.1f}{res['failed_frac']:>13.3f}")
        results[name] = res
        rc |= not res["correct"]
    print(json.dumps(results))
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="a whole number >= 0")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

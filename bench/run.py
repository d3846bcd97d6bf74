"""lsgnn benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload train-wide --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's own src/ directory.  With --trace 0 the last
line of standard output is the JSON result with every end-to-end metric;
with --trace 1 it carries the per-layer metrics instead.  The line before
it holds the provenance block, sample counts and percentiles.
"""

from __future__ import annotations

import os

# Cap BLAS/OpenMP pools before numpy loads; recorded in the provenance block.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import dataclasses
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")
RUNS_DIR = os.path.join(BENCH_DIR, ".runs")

# Before every iteration, set-up is repeated until it has taken this long
# (at least once), so its samples span the whole run like the iterations.
SETUP_ROUND_SECONDS = 0.1
# After every iteration, eval is repeated (untraced) until the iteration's
# evals have taken this long, for enough eval_s samples on small graphs.
EVAL_ROUND_SECONDS = 0.15

# Timings are reported as the fastest sample of the run.  On a shared
# host the speed of the same code swings by up to half as other tenants'
# load comes and goes; the fastest sample is the one those swings
# disturbed least, while the median moves with how much of the run fell
# into slow phases.
TIMINGS = ("wall_s", "setup_s", "eval_s")

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "eval_s": "s",
    "test_acc": "ratio",
    "peak_rss_mb": "MB",
}


def _import_package():
    """Import lsgnn from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "lsgnn", "__init__.py")):
        raise SystemExit(f"error: no lsgnn package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import lsgnn

    if os.path.dirname(os.path.dirname(os.path.abspath(lsgnn.__file__))) != SRC:
        raise SystemExit(f"error: imported lsgnn from {lsgnn.__file__}, not from {SRC}")


def ensure_inputs(workload, seed: int) -> str:
    """Generate the workload's inputs once per (sizes, seed), in a child
    process; later runs reuse the cached directory."""
    directory = os.path.join(CACHE_DIR, f"{workload.name}-{workload.key()}-s{seed}")
    if os.path.isdir(directory):
        return directory
    tmp = f"{directory}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    spec = json.dumps(dataclasses.asdict(workload.spec))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, BENCH_DIR]))
    child = subprocess.run(
        [sys.executable, "-m", "workloads", workload.name, str(seed), tmp, spec], env=env, timeout=300
    )
    if child.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise SystemExit(f"error: input generation for {workload.name} seed {seed} failed")
    os.replace(tmp, directory)
    return directory


def summarize(values: list[float]) -> dict:
    """Minimum, median, the highest of p90/p99/p99.9 with at least ten
    samples beyond it (None when there are too few), the sample count and
    the samples themselves."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    for q in (99.9, 99.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            tail = {"q": q, "value": ordered[min(n - 1, int(q / 100.0 * n))]}
            break
    return {"min": ordered[0], "median": statistics.median(ordered), "tail": tail, "samples": n, "values": values}


def _openblas_version() -> str:
    import numpy

    try:
        return numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run from an exported tree that has none."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def measure(workload, inputs, seconds: float, traced: bool, expected: dict) -> dict:
    """The closed loop.  Untraced: iterate until `seconds` have passed,
    each iteration preceded by a round of set-up.
    Traced: alternate untraced and traced iterations, untraced first, for
    at least one of each; only traced ones feed the per-layer metrics.

    The first iteration's output digests are the reference every later
    iteration must match byte for byte, so a traced iteration that changed
    a result fails its check.
    """
    import spans
    import workloads

    tracer = spans.Tracer()
    out = os.path.join(RUNS_DIR, f"{workload.name}-{os.getpid()}")
    samples = {"wall_s": [], "setup_s": [], "eval_s": [], "test_acc": []}
    traced_walls, untraced_walls = [], []
    layer_iterations, calls = [], {}
    reference = None
    attempted = failed = 0
    failures: list[str] = []
    started = time.perf_counter()
    try:
        while True:
            trace_this = traced and attempted % 2 == 1
            attempted += 1
            tracer.reset()
            try:
                setup = []
                while not setup or sum(setup) < SETUP_ROUND_SECONDS:
                    setup.append(workloads.setup_once(inputs))
                samples["setup_s"] += setup
                if trace_this:
                    with tracer.installed():
                        outcome = workloads.run_iteration(inputs, out)
                else:
                    outcome = workloads.run_iteration(inputs, out)
                extra_evals, problems = workloads.repeat_eval(
                    inputs, out, EVAL_ROUND_SECONDS - outcome.eval_s, outcome.digests["eval/report.csv"]
                )
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                failures.append(f"iteration {attempted}: {type(exc).__name__}: {exc}")
            else:
                problems += outcome.problems
                problems += workloads.check_accuracy(workload, inputs.seed, outcome, expected)
                if reference is None:
                    reference = outcome.digests
                elif outcome.digests != reference:
                    changed = sorted(k for k in reference if outcome.digests.get(k) != reference[k])
                    problems.append(f"outputs differ from the first iteration: {changed}")
                if problems:
                    failed += 1
                    failures.append(f"iteration {attempted}: " + "; ".join(problems))
                else:
                    samples["wall_s"].append(outcome.wall_s)
                    samples["eval_s"] += [outcome.eval_s] + extra_evals
                    samples["test_acc"].append(outcome.test_acc)
                    if trace_this:
                        traced_walls.append(outcome.wall_s)
                        layer_iterations.append(spans.iteration_metrics(tracer.spans, outcome.wall_s))
                        for metric, values in spans.call_durations_ms(tracer.spans).items():
                            calls.setdefault(metric, []).extend(values)
                    else:
                        untraced_walls.append(outcome.wall_s)
            done = time.perf_counter() - started >= seconds
            if done and (not traced or attempted >= 2):
                break
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if traced and layer_iterations and untraced_walls:
        overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
        layers = spans.per_layer_metrics(layer_iterations, calls, overhead)
    else:
        layers = None
    return {
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "layers": layers,
    }


def run_benchmark(workload, seed: int, seconds: float, traced: bool, expected: dict) -> tuple[dict, dict]:
    """Prepare inputs, time set-up, run the loop; returns the details block
    and the result object."""
    import spans
    import workloads

    directory = ensure_inputs(workload, seed)
    inputs = workloads.load_inputs(workload, seed, directory)
    result = measure(workload, inputs, seconds, traced, expected)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = result["samples"]
    failed = result["failed"]
    if not samples["wall_s"]:
        failed = max(failed, 1)

    if traced:
        layers = result["layers"] or {}
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in spans.PER_LAYER_UNITS.items()}
    else:
        values = {name: min(v) if name in TIMINGS else statistics.median(v) for name, v in samples.items() if v}
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in E2E_UNITS.items()}

    details = {
        "workload": workload.name,
        "provenance": provenance(seed),
        "summary": {name: summarize(v) for name, v in samples.items() if v},
        "failures": result["failures"],
    }
    return details, {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    sys.path.insert(0, BENCH_DIR)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    details, result = run_benchmark(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workloads.load_expected()
    )
    for failure in details["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of lpmerit: time to a certified answer, and a traced per-layer run.

Run from the root of a source checkout:

    python3 bench/run.py --workload optimal-large --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout, never from an
installed copy.  BLAS is pinned to one thread through this process's own
environment before numpy loads.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
run record, and with ``--trace 1`` the spans, go to ``bench/out/``.
"""

from __future__ import annotations

import os

# Must precede the first numpy import anywhere in the process.
_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _name in _THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Fewest set-ups per untraced run; set-up time is their median.
SETUP_MIN = 3


def import_lpmerit() -> dict:
    """Import the package from this checkout's ``src/``; exit 2 if it is not there."""
    if not (SRC / "lpmerit" / "__init__.py").is_file():
        print(f"error: no lpmerit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"lpmerit.{name}") for name in tracing.MODULES}
    package_dir = Path(modules["solver"].__file__).resolve().parent
    if package_dir != SRC / "lpmerit":
        print(f"error: lpmerit was imported from {package_dir}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return modules


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        },
        "thread_pinning": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def _another_round(start: float, round_start: float, seconds: float) -> bool:
    """Whether at least half of a round as long as the last one still fits.

    Whole rounds keep each problem's share of the operations the same in
    every run; this rule keeps the run's length closest to ``seconds``.
    """
    now = time.perf_counter()
    return now - start + (now - round_start) / 2 <= seconds


def run_rounds(workload, items, seconds: float) -> list:
    """Solve every item once per round, for about ``seconds``; at least one round."""
    outcomes = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        outcomes += [workload.run(item) for item in items]
        if not _another_round(start, round_start, seconds):
            return outcomes


def _mean_seconds(outcomes) -> float | None:
    """Mean wall time of the operations that did not fail; None if there are none.

    The mean, not the median: the machine runs at two speeds about a factor
    of two apart, in phases of seconds to minutes, so one run's solve times
    fall in two clusters.  Their median jumps from one cluster to the other
    when the slow phases pass half of the run; the mean, the run's solve time
    over its solve count, moves in proportion to their share.
    """
    seconds = [o.seconds for o in outcomes if not o.failed]
    return statistics.fmean(seconds) if seconds else None


def _median_seconds(outcomes) -> float | None:
    """Median wall time of the operations that did not fail; None if there are none."""
    seconds = [o.seconds for o in outcomes if not o.failed]
    return statistics.median(seconds) if seconds else None


def _cert_digits(outcomes) -> float | None:
    residuals = [o.worst_residual for o in outcomes if not o.failed]
    if not residuals:
        return None
    return -math.log10(max(max(residuals), sys.float_info.min))


def untraced_run(workload, seed: int, seconds: float, workdir: Path):
    """Set up afresh before every round, so that set-up and solves are timed
    over the same stretch of the run and the machine's slow and fast phases
    weigh on both alike; set up again at the end if fewer than SETUP_MIN ran."""
    setup_times, errors, outcomes = [], [], []

    def set_up():
        # A fresh directory for each set-up: ext4 flushes a file that is
        # truncated and rewritten when it is closed, which made rewrites slow
        # and erratic.
        setup_dir = workdir / f"setup-{len(setup_times)}"
        setup_dir.mkdir()
        start = time.perf_counter()
        items = workload.setup(seed, setup_dir)
        setup_times.append(time.perf_counter() - start)
        errors.extend(workload.check_inputs(items))
        return items

    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        items = set_up()
        outcomes += [workload.run(item) for item in items]
        del items  # so that two rounds' problems never count in the peak RSS
        if not _another_round(start, round_start, seconds):
            break
    while len(setup_times) < SETUP_MIN:
        set_up()
    ok = [o for o in outcomes if not o.failed]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (_mean_seconds(outcomes), "s"),
        "cert_digits": (_cert_digits(outcomes), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "setup_s_samples": setup_times,
        "solve_s_samples": len(ok),
        "solve_s_median": _median_seconds(outcomes),
        "solve_seconds": [o.seconds for o in outcomes],
        "rounds": len(outcomes) // workload.count,
    }
    return outcomes, errors, metrics, extra


def traced_run(workload, seed: int, seconds: float, workdir: Path, mods: dict):
    tracer = tracing.Tracer()
    start = time.perf_counter()
    with tracing.installed(tracer, mods):
        items = workload.setup(seed, workdir)
    errors = workload.check_inputs(items)
    # One untraced round before the traced one, so that neither side pays
    # the process's first-call costs alone.
    untraced = [workload.run(item) for item in items]
    with tracing.installed(tracer, mods):
        traced = [workload.run(item) for item in items]
    untraced += run_rounds(workload, items, seconds - (time.perf_counter() - start))

    expected = {o.problem_seed: o.iterations for o in untraced if o.solved}
    for o in traced:
        if o.solved and expected.get(o.problem_seed, o.iterations) != o.iterations:
            errors.append(
                f"problem {o.problem_seed}: {o.iterations} iterations traced, "
                f"{expected[o.problem_seed]} untraced"
            )

    stats = tracing.self_times(tracer.spans)
    metrics = {}
    for name in tracing.TRACED_NAMES:
        calls, self_seconds = stats.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (1000.0 * self_seconds, "ms")

    def calls(name):
        return stats.get(name, (0, 0.0))[0]

    solve_steps = sum(o.iterations for o in traced if o.solved)
    homogeneous_steps = tracing.calls_under(
        tracer.spans, "linsys.solve_dense", "solver.solve_homogeneous"
    )
    steps = solve_steps + homogeneous_steps
    armijo_calls = calls("solver.armijo_search")
    solved_untraced = [o for o in untraced if o.solved]
    traced_s, untraced_s = _mean_seconds(traced), _mean_seconds(untraced)
    metrics.update(
        {
            "merit.evals_per_step": (
                (calls("merit.value_at") + calls("merit.gradient_at")) / steps if steps else None,
                "ratio",
            ),
            "solver.iterations": (solve_steps, "count"),
            "solver.iter_ms": (
                statistics.median(1000.0 * o.seconds / o.iterations for o in solved_untraced)
                if solved_untraced
                else None,
                "ms",
            ),
            "solver.armijo.probes_per_step": (
                tracing.calls_under(tracer.spans, "merit.value_at", "solver.armijo_search")
                / armijo_calls
                if armijo_calls
                else None,
                "ratio",
            ),
            "solver.mu_escalations": (calls("linsys.build_reduced") - solve_steps, "count"),
            "solver.dense_fallbacks": (
                tracing.calls_under(tracer.spans, "linsys.solve_dense", "solver.solve"),
                "count",
            ),
            "serialize.bytes_written": (tracer.bytes_written, "bytes"),
            "trace_overhead_s": (
                traced_s - untraced_s if traced_s is not None and untraced_s is not None else None,
                "s",
            ),
        }
    )
    extra = {
        "homogeneous_steps": homogeneous_steps,
        "spans": len(tracer.spans),
        "untraced_rounds": len(untraced) // len(items),
    }
    return traced + untraced, errors, metrics, extra, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mods = import_lpmerit()
    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.make_workload(args.workload, mods)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = None
    try:
        if args.trace:
            outcomes, errors, metrics, extra, tracer = traced_run(
                workload, args.seed, args.seconds, workdir, mods
            )
        else:
            outcomes, errors, metrics, extra = untraced_run(
                workload, args.seed, args.seconds, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if o.failed]
    errors += [e for o in outcomes for e in o.errors]
    # Only the known homogeneous-label fault may fail an operation; any other
    # failure (a crash, IterationLimit, NumericalFailure) is a wrong result.
    errors += [o.failure for o in failed if not o.known_fault]
    if len(failed) == len(outcomes):
        errors.append("no operation gave an answer that could be checked")
    correct = not errors
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "problem_seeds": workload.problem_seeds(args.seed),
        "size": [workload.m, workload.n],
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
        "iterations": {str(o.problem_seed): o.iterations for o in outcomes if o.solved},
        "labels": dict(Counter(o.label for o in outcomes if o.label is not None)),
        "errors": errors[:20],
        "failures": [o.failure for o in failed][:20],
        "environment": environment(),
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.csv")

    for message in errors[:10]:
        print(f"check: {message}", file=sys.stderr)
    for message in sorted(set(o.failure for o in failed if o.known_fault)):
        print(f"failed (known fault): {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        shown = "none" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>16s} {unit}")
    if not args.trace and extra["solve_s_median"] is not None:
        print(
            f"solve_s is the mean of {extra['solve_s_samples']} solves; "
            f"their median is {extra['solve_s_median']:.6g} s"
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(outcomes),
                "failed": len(failed),
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs made from the seed, one solve per operation.

The optimal workloads derive their problem seeds from the run's seed; the
``unbounded-escalate`` panel is the same for every seed.

Every workload builds its problems with the package's own generator, writes
them with ``save_problem`` (and reads the optimal ones back with
``load_problem``), then solves each problem once per round.  Each solve is
checked by ``checks`` against the generator's certificate.  The package's
functions are always looked up as module attributes at call time, so that a
tracer installed on those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks


@dataclass
class Outcome:
    """One solve: wall seconds, iterations reported, and what went wrong.

    ``failure`` says why the operation gave no acceptable answer (None if it
    did); ``errors`` lists the checks its answer did not pass.  ``known_fault``
    marks the one failure the benchmark expects, the homogeneous label of
    ``unbounded-escalate`` (see ``checks.check_homogeneous_label``).
    """

    problem_seed: int
    seconds: float
    iterations: int = 0
    failure: str | None = None
    known_fault: bool = False
    errors: list[str] = field(default_factory=list)
    worst_residual: float = 0.0
    label: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure is not None

    @property
    def solved(self) -> bool:
        """The solver ran to its end, so iterations and timing are its own."""
        return not self.failed or self.known_fault


def _failure(problem_seed: int, seconds: float, message: str) -> Outcome:
    return Outcome(problem_seed=problem_seed, seconds=seconds, failure=message)


class Workload:
    """``count`` problems of size (m, n) per round, their seeds derived from the run's."""

    def __init__(self, lpmerit_modules, m: int, n: int, count: int):
        self.mods = lpmerit_modules
        self.m, self.n, self.count = m, n, count

    def problem_seeds(self, seed: int) -> list[int]:
        return [seed * self.count + i for i in range(self.count)]


class OptimalWorkload(Workload):
    """Homotopy solves, default config without trace, of problems with a known optimum."""

    def __init__(self, lpmerit_modules, m: int, n: int, count: int):
        super().__init__(lpmerit_modules, m, n, count)
        solver = lpmerit_modules["solver"]
        self.config = solver.SolverConfig(solver.Algorithm.HOMOTOPY, trace=False)

    def setup(self, seed: int, workdir: Path) -> list:
        problems, serialize = self.mods["problems"], self.mods["serialize"]
        items = []
        for problem_seed in self.problem_seeds(seed):
            generated = problems.generate_optimal_lp(self.m, self.n, problem_seed)
            path = workdir / f"optimal-{problem_seed}.json"
            serialize.save_problem(path, generated)
            items.append((problem_seed, generated, serialize.load_problem(path)))
        return items

    def check_inputs(self, items) -> list[str]:
        errors = []
        for problem_seed, generated, loaded in items:
            for name in ("A", "b", "c"):
                if not np.array_equal(getattr(generated.lp, name), getattr(loaded.lp, name)):
                    errors.append(f"problem {problem_seed}: {name} changed in the file round trip")
        return errors

    def run(self, item) -> Outcome:
        problem_seed, generated, loaded = item
        solver = self.mods["solver"]
        start = time.perf_counter()
        try:
            outcome = solver.solve(loaded.lp, self.config)
        except Exception:  # a crash is a failed operation, not the end of the run
            return _failure(problem_seed, time.perf_counter() - start, traceback.format_exc())
        seconds = time.perf_counter() - start
        status = outcome.status.value
        if status in ("IterationLimit", "NumericalFailure"):
            return _failure(problem_seed, seconds, f"problem {problem_seed}: {status}")
        lp, point = generated.lp, outcome.point
        errors, worst = checks.check_optimal(
            lp.A, lp.b, lp.c, generated.known_optimum.x, status, point.x, point.lam, point.s
        )
        return Outcome(
            problem_seed=problem_seed,
            seconds=seconds,
            iterations=outcome.iterations,
            errors=[f"problem {problem_seed}: {e}" for e in errors],
            worst_residual=worst,
        )


class UnboundedEscalateWorkload(Workload):
    """In-process ``lpmerit solve --homogeneous-escalate`` on unbounded problem files.

    The problems are the same for every ``--seed``: the homogeneous label is
    wrong on a fixed subset of them (s = 2 and 8 of s = 0..9), and only a
    fixed panel keeps that failure the same share of every run.
    """

    def __init__(self, lpmerit_modules, m: int, n: int, count: int):
        super().__init__(lpmerit_modules, m, n, count)
        self._calls = itertools.count()

    def problem_seeds(self, seed: int) -> list[int]:
        return list(range(self.count))

    def setup(self, seed: int, workdir: Path) -> list:
        problems, serialize = self.mods["problems"], self.mods["serialize"]
        items = []
        for problem_seed in self.problem_seeds(seed):
            generated = problems.generate_unbounded_lp(self.m, self.n, problem_seed)
            path = workdir / f"unbounded-{problem_seed}.json"
            serialize.save_problem(path, generated)
            items.append((problem_seed, generated, path))
        return items

    def check_inputs(self, items) -> list[str]:
        errors = []
        for problem_seed, generated, _ in items:
            lp = generated.lp
            errors += [
                f"problem {problem_seed}: {e}"
                for e in checks.check_ray(lp.A, lp.c, generated.known_ray)
            ]
        return errors

    def run(self, item) -> Outcome:
        problem_seed, generated, path = item
        cli = self.mods["cli"]
        # New output files on every call: the CLI would otherwise truncate
        # and rewrite the last call's files, which ext4 flushes on close.
        stem = f"{path.stem}-{next(self._calls)}"
        trace_path = path.with_name(f"{stem}.trace.csv")
        report_path = path.with_name(f"{stem}.report.json")
        argv = [
            "solve",
            "--input", str(path),
            "--homogeneous-escalate",
            "--trace", str(trace_path),
            "--report", str(report_path),
        ]
        printed = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                exit_code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            return _failure(problem_seed, time.perf_counter() - start, traceback.format_exc())
        seconds = time.perf_counter() - start
        if exit_code not in (0, 10):
            return _failure(problem_seed, seconds, f"problem {problem_seed}: exit code {exit_code}")
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        lp = generated.lp
        errors, worst = checks.check_unbounded(lp.A, lp.b, exit_code, report)
        iterations = int(report.get("iterations", -1))
        errors += checks.check_trace_csv(trace_path.read_text(encoding="utf-8"), iterations)
        label = (report.get("homogeneous") or {}).get("status")
        if f"homogeneous escalation: {label}" not in printed.getvalue():
            errors.append("printed summary disagrees with the report's homogeneous status")
        label_errors = checks.check_homogeneous_label(report)
        return Outcome(
            problem_seed=problem_seed,
            seconds=seconds,
            iterations=iterations,
            failure=f"problem {problem_seed}: {label_errors[0]}" if label_errors else None,
            known_fault=bool(label_errors),
            errors=[f"problem {problem_seed}: {e}" for e in errors],
            worst_residual=worst,
            label=label,
        )


#: name -> (workload class, m, n, problems per round)
WORKLOADS = {
    "optimal-large": (OptimalWorkload, 300, 450, 3),
    "optimal-small": (OptimalWorkload, 5, 10, 60),
    "unbounded-escalate": (UnboundedEscalateWorkload, 150, 450, 10),
}


def make_workload(name: str, lpmerit_modules):
    cls, m, n, count = WORKLOADS[name]
    return cls(lpmerit_modules, m, n, count)

"""Spans around the public functions of lpmerit, installed from outside the package.

The tracer replaces a function at the module (or class) attribute that its
callers look up at call time, so the package itself is not edited.  Each call
records one span ``(name, start, end, parent)`` in memory; ``parent`` is the
index of the innermost enclosing traced call, or -1.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder; ``patch`` wraps a function, ``uninstall`` restores all."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.bytes_written = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, *, count_bytes: bool = False):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count_bytes:
                self.bytes_written += len(result.encode("utf-8"))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, *, count_bytes: bool = False) -> None:
        """Replace ``owner.attr`` by a traced wrapper; classmethods stay classmethods."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__))
        else:
            wrapped = self.wrap(name, original, count_bytes=count_bytes)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as CSV: name,start_s,end_s,parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


#: The lpmerit modules whose functions are traced.
MODULES = ("problems", "merit", "linsys", "solver", "serialize", "cli")

#: (module, attribute, span name) for every traced lpmerit function.  A
#: function imported by name into another module is patched there as well,
#: because that module's global is what its calls resolve.
TARGETS = (
    ("solver", "residuals", "problems.residuals"),
    ("cli", "residuals", "problems.residuals"),
    ("problems", "PrimalDualPoint.from_vector", "problems.point_from_vector"),
    ("problems", "HomogeneousPoint.from_vector", "problems.point_from_vector"),
    ("problems", "generate_optimal_lp", "problems.generate"),
    ("problems", "generate_unbounded_lp", "problems.generate"),
    ("merit", "value_at", "merit.value_at"),
    ("merit", "gradient_at", "merit.gradient_at"),
    ("merit", "penalty_diagonal_at", "merit.penalty_diagonal_at"),
    ("merit", "hessian_base", "merit.hessian_base"),
    ("solver", "build_reduced", "linsys.build_reduced"),
    ("solver", "solve_structured", "linsys.solve_structured"),
    ("solver", "solve_dense", "linsys.solve_dense"),
    ("linsys", "cholesky_rank_one_update", "linsys.cholesky_rank_one_update"),
    ("linsys", "cho_solve", "linsys.cho_solve"),
    ("solver", "solve", "solver.solve"),
    ("cli", "solve", "solver.solve"),
    ("solver", "solve_homogeneous", "solver.solve_homogeneous"),
    ("cli", "solve_homogeneous", "solver.solve_homogeneous"),
    ("solver", "armijo_search", "solver.armijo_search"),
    ("serialize", "save_problem", "serialize.save_problem"),
    ("serialize", "load_problem", "serialize.load_problem"),
    ("serialize", "dumps", "serialize.dumps"),
    ("cli", "main", "cli.main"),
)

#: Every span name, in reporting order.
TRACED_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


@contextlib.contextmanager
def installed(tracer: Tracer, lpmerit_modules):
    """Trace every function in ``TARGETS`` for the duration of the block.

    ``lpmerit_modules`` maps short module names to the imported modules.
    ``serialize.dumps`` also counts the bytes of the text it returns.
    """
    try:
        for module, attr, name in TARGETS:
            owner = lpmerit_modules[module]
            *path, attr = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            tracer.patch(owner, attr, name, count_bytes=name == "serialize.dumps")
        yield tracer
    finally:
        tracer.uninstall()


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, summed self seconds).

    A span's self time is its duration minus the durations of the spans whose
    parent it is; grandchildren are already inside those children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for index, (name, start, end, parent) in enumerate(spans):
        entry = totals[name]
        entry[0] += 1
        entry[1] += (end - start) - child_time[index]
    return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}


def calls_under(spans, name: str, parent_name: str) -> int:
    """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
    return sum(
        1
        for span_name, _, _, parent in spans
        if span_name == name and parent >= 0 and spans[parent][0] == parent_name
    )

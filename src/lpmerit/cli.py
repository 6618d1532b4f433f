"""Command line front end: generate problems, run solves, check solutions.

The front end restates nothing the library owns.  A ``solve`` flag that is
left out keeps ``SolverConfig``'s default, the report's config lists the
fields of ``SolverConfig.read_fields``, the trace CSV has one column per
``IterationRecord`` field, and points are written and read by ``serialize``.

``check`` judges a point by the four scale-free relative KKT residuals of
``problems.kkt_residuals``, one output row each:

* primal  ||Ax - b|| / (1 + ||b||)
* dual    ||A'lam + s - c|| / (1 + ||c||)
* gap     |c.x - b.lam| / (1 + |c.x| + |b.lam|)
* sign    max(0, -min x, -min s)

Exit codes separate mathematical outcomes from operational failures:

* 0   success (solve: certified optimal)
* 1   check: a residual above ``problems.KKT_TOL`` (1e-6)
* 2   invalid flags or invalid input content
* 3   I/O failure
* 10  solve: certified no optimal solution
* 11  solve: iteration limit
* 12  solve: numerical failure, or no starting point because A A' overflows
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from enum import Enum

from . import serialize
from .errors import FactorizationFailure, LpMeritError
from .problems import (
    KKT_TOL,
    GeneratedProblem,
    generate_optimal_lp,
    generate_unbounded_lp,
    kkt_residuals,
    residuals,
)
from .solver import (
    Algorithm,
    Classification,
    IterationRecord,
    SolveStatus,
    SolverConfig,
    solve,
    solve_homogeneous,
)

#: The trace columns: the fields of IterationRecord, in declaration order.
_TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(IterationRecord))
TRACE_HEADER = ",".join("iter" if name == "k" else name for name in _TRACE_FIELDS)

#: The solve flags that set a SolverConfig field, by field name; a flag that
#: is not given leaves the field at SolverConfig's default.
_CONFIG_FLAGS = ("nu0", "max_iter", "tol_grad", "tol_f")

_STATUS_EXIT = {
    SolveStatus.OPTIMAL: 0,
    SolveStatus.NO_OPTIMAL_SOLUTION: 10,
    SolveStatus.ITERATION_LIMIT: 11,
    SolveStatus.NUMERICAL_FAILURE: 12,
}


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _cell(value) -> str:
    if value is None:
        return ""
    return str(value) if isinstance(value, int) else _fmt(value)


def _write_trace(path, trace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in trace:
            fh.write(",".join(_cell(getattr(r, name)) for name in _TRACE_FIELDS) + "\n")


def _config_document(config: SolverConfig) -> dict:
    """The SolverConfig fields that the algorithm reads but ``trace``, in
    declaration order, enums by value."""
    values = {name: getattr(config, name) for name in config.read_fields() if name != "trace"}
    return {name: v.value if isinstance(v, Enum) else v for name, v in values.items()}


def cmd_gen(args) -> int:
    try:
        if args.kind == "optimal":
            problem = generate_optimal_lp(args.m, args.n, args.seed)
        else:
            problem = generate_unbounded_lp(args.m, args.n, args.seed)
    except LpMeritError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        serialize.save_problem(args.out, problem)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {args.kind} problem (m={args.m}, n={args.n}, seed={args.seed}) to {args.out}")
    return 0


def _load_problem(path) -> GeneratedProblem | int:
    try:
        return serialize.load_problem(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 3
    except (LpMeritError, ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid problem file {path}: {exc}", file=sys.stderr)
        return 2


def cmd_solve(args) -> int:
    problem = _load_problem(args.input)
    if isinstance(problem, int):
        return problem
    given = {name: getattr(args, name) for name in _CONFIG_FLAGS}
    given = {name: value for name, value in given.items() if value is not None}
    try:
        config = SolverConfig(Algorithm(args.alg), trace=args.trace is not None, **given)
    except LpMeritError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    x_star = problem.known_optimum.x if problem.known_optimum is not None else None
    try:
        outcome = solve(problem.lp, config, x_star=x_star)
    except FactorizationFailure as exc:
        # only the least-squares start raises it, when A A' overflows
        print(f"error: no starting point: {exc}", file=sys.stderr)
        return _STATUS_EXIT[SolveStatus.NUMERICAL_FAILURE]

    report = {
        "status": outcome.status.value,
        "classification": (
            outcome.classification.value if outcome.classification is not None else None
        ),
        "final_f": outcome.final_f,
        "final_grad_norm": outcome.final_grad_norm,
        "iterations": outcome.iterations,
        "polished": outcome.polished,
        "polish_attempts": outcome.polish_attempts,
        "ray": outcome.ray,
        "ray_verified_at": outcome.ray_verified_at,
        "objective_primal": float(problem.lp.c @ outcome.point.x),
        "objective_dual": float(problem.lp.b @ outcome.point.lam),
        "point": serialize.point_document(outcome.point),
        "config": _config_document(config),
    }
    if args.homogeneous_escalate and outcome.status is SolveStatus.NO_OPTIMAL_SOLUTION:
        # a primal-feasible no-optimum point carries the dual-infeasibility ray
        unbounded = outcome.classification is Classification.PRIMAL_FEASIBLE_DUAL_INFEASIBLE
        hom_point, hom_status = solve_homogeneous(
            problem.lp, config, near=outcome.point if unbounded else None
        )
        report["homogeneous"] = {
            "status": hom_status.value,
            "tau": hom_point.tau,
            "kappa": hom_point.kappa,
        }
        print(f"homogeneous escalation: {hom_status.value}")
    try:
        if args.trace:
            _write_trace(args.trace, outcome.trace)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(serialize.dumps(report))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    print(
        f"{outcome.status.value}: iterations={outcome.iterations} "
        f"f={outcome.final_f:.3e} grad_inf={outcome.final_grad_norm:.3e}"
        + (" stopped-by=polished-vertex" if outcome.polished else "")
        + (
            f" ray-verified-at={outcome.ray_verified_at}"
            if outcome.ray_verified_at is not None
            else ""
        )
        + (
            f" classification={outcome.classification.value}"
            if outcome.classification is not None
            else ""
        )
    )
    return _STATUS_EXIT[outcome.status]


def cmd_check(args) -> int:
    problem = _load_problem(args.input)
    if isinstance(problem, int):
        return problem
    try:
        doc = serialize.load_document(args.solution)
        # a bare point, a solve report, or a problem file with its known optimum
        for key in ("point", "known_optimum"):
            if isinstance(doc.get(key), dict):
                doc = doc[key]
                break
        point = serialize.point_from_document(doc, problem.lp.n, problem.lp.m, "solution")
    except OSError as exc:
        print(f"error: cannot read {args.solution}: {exc}", file=sys.stderr)
        return 3
    except (LpMeritError, ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid solution file {args.solution}: {exc}", file=sys.stderr)
        return 2
    kkt = kkt_residuals(problem.lp, point.x, point.lam, point.s, residuals(problem.lp, point))
    for name, value in kkt.items():
        print(f"{name:6s} = {value:.6e}  [{'ok' if value <= KKT_TOL else 'FAIL'}]")
    print(f"tolerance = {KKT_TOL:.6e} (KKT_TOL)")
    return 0 if all(value <= KKT_TOL for value in kkt.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpmerit",
        description="Linear programming by unconstrained minimization of a merit function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random problem file")
    gen.add_argument("--m", type=int, required=True, help="number of constraints")
    gen.add_argument("--n", type=int, required=True, help="number of variables")
    gen.add_argument("--seed", type=int, default=0, help="PRNG seed")
    gen.add_argument("--kind", choices=["optimal", "unbounded"], default="optimal")
    gen.add_argument("--out", required=True, help="output problem file (JSON)")
    gen.set_defaults(func=cmd_gen)

    slv = sub.add_parser("solve", help="solve a problem file")
    slv.add_argument("--input", required=True, help="problem file (JSON)")
    slv.add_argument(
        "--alg",
        choices=[a.value for a in Algorithm],
        default=Algorithm.HOMOTOPY.value,
        help="solver variant (default: homotopy)",
    )
    # no defaults here: a flag left out keeps SolverConfig's default
    slv.add_argument(
        "--nu0",
        type=float,
        help="initial homotopy weight (default 0.05, from the least-squares start); "
        "0 runs on the base merit",
    )
    slv.add_argument("--max-iter", type=int)
    slv.add_argument("--tol-grad", type=float)
    slv.add_argument("--tol-f", type=float)
    slv.add_argument("--trace", default=None, help="write per-iteration trace CSV here")
    slv.add_argument("--report", default=None, help="write outcome report JSON here")
    slv.add_argument(
        "--homogeneous-escalate",
        action="store_true",
        help="on a certified no-optimum outcome, classify via the homogeneous embedding, "
        "started at the run's dual-infeasibility ray when it is classified "
        "PrimalFeasibleDualInfeasible and at the all-ones point otherwise",
    )
    slv.set_defaults(func=cmd_solve)

    chk = sub.add_parser("check", help="check a solution against a problem")
    chk.add_argument("--input", required=True, help="problem file (JSON)")
    chk.add_argument("--solution", required=True, help="solution file (JSON)")
    chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own checks and tracer: ``python3 -m pytest bench``."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import lpmerit  # noqa: E402
from lpmerit import cli, generate_optimal_lp, generate_unbounded_lp, serialize, solver  # noqa: E402


@pytest.fixture(scope="module")
def optimal():
    return generate_optimal_lp(5, 10, 3)


@pytest.fixture(scope="module")
def unbounded():
    return generate_unbounded_lp(3, 8, 4)


def _check_optimal(problem, status="Optimal", x=None, lam=None, s=None):
    lp, opt = problem.lp, problem.known_optimum
    return checks.check_optimal(
        lp.A,
        lp.b,
        lp.c,
        opt.x,
        status,
        opt.x if x is None else x,
        opt.lam if lam is None else lam,
        opt.s if s is None else s,
    )


class TestCheckOptimal:
    def test_known_optimum_passes(self, optimal):
        errors, worst = _check_optimal(optimal)
        assert errors == []
        assert worst < 1e-14

    def test_flipped_status_is_rejected(self, optimal):
        errors, _ = _check_optimal(optimal, status="NoOptimalSolution")
        assert any("status" in e for e in errors)

    @pytest.mark.parametrize("block", ["x", "lam", "s"])
    def test_perturbed_point_is_rejected(self, optimal, block):
        opt = optimal.known_optimum
        perturbed = {"x": opt.x, "lam": opt.lam, "s": opt.s}
        perturbed[block] = perturbed[block] + 1e-2
        errors, worst = _check_optimal(optimal, **perturbed)
        assert errors
        assert worst > checks.KKT_TOL

    def test_negative_entries_are_rejected(self, optimal):
        x = optimal.known_optimum.x.copy()
        x[np.argmin(x)] = -1e-2
        errors, _ = _check_optimal(optimal, x=x)
        assert any("neg_x" in e for e in errors)

    def test_wrong_objective_is_rejected(self, optimal):
        # A x stays b along the null space of A, but c.x moves.
        _, _, vt = np.linalg.svd(optimal.lp.A)
        x = optimal.known_optimum.x + 0.5 * vt[-1]
        errors, _ = _check_optimal(optimal, x=x)
        assert any("objective" in e for e in errors)


def _report(problem, *, x=None, classification="PrimalFeasibleDualInfeasible", tau=0.0, kappa=1.0):
    x = problem.feasible_point if x is None else x
    return {
        "status": "NoOptimalSolution",
        "classification": classification,
        "point": {"x": list(x)},
        "homogeneous": {"status": "DualInfeasible", "tau": tau, "kappa": kappa},
    }


class TestCheckUnbounded:
    def test_feasible_point_passes(self, unbounded):
        errors, worst = checks.check_unbounded(unbounded.lp.A, unbounded.lp.b, 10, _report(unbounded))
        assert errors == []
        assert worst < 1e-12

    def test_optimal_exit_code_is_rejected(self, unbounded):
        errors, _ = checks.check_unbounded(unbounded.lp.A, unbounded.lp.b, 0, _report(unbounded))
        assert any("exit code" in e for e in errors)

    def test_flipped_classification_is_rejected(self, unbounded):
        report = _report(unbounded, classification="Unclassified")
        errors, _ = checks.check_unbounded(unbounded.lp.A, unbounded.lp.b, 10, report)
        assert any("classification" in e for e in errors)

    def test_flipped_homogeneous_pair_is_rejected(self, unbounded):
        report = _report(unbounded, tau=1.0, kappa=1e-9)
        errors, _ = checks.check_unbounded(unbounded.lp.A, unbounded.lp.b, 10, report)
        assert any("homogeneous" in e for e in errors)

    def test_homogeneous_label_is_checked_apart(self, unbounded):
        report = _report(unbounded)
        assert checks.check_homogeneous_label(report) == []
        report["homogeneous"]["status"] = "OptimalRecovered"
        errors, _ = checks.check_unbounded(unbounded.lp.A, unbounded.lp.b, 10, report)
        assert errors == []
        assert checks.check_homogeneous_label(report) == [
            "homogeneous status OptimalRecovered, expected DualInfeasible"
        ]
        del report["homogeneous"]
        assert checks.check_homogeneous_label(report)

    def test_perturbed_point_is_rejected(self, unbounded):
        x = unbounded.feasible_point + 0.1
        errors, worst = checks.check_unbounded(
            unbounded.lp.A, unbounded.lp.b, 10, _report(unbounded, x=x)
        )
        assert any("primal" in e for e in errors)
        assert worst > checks.PRIMAL_EVIDENCE_TOL


class TestCheckRay:
    def test_generator_ray_passes(self, unbounded):
        assert checks.check_ray(unbounded.lp.A, unbounded.lp.c, unbounded.known_ray) == []

    def test_each_property_is_required(self, unbounded):
        A, c, d = unbounded.lp.A, unbounded.lp.c, unbounded.known_ray
        assert checks.check_ray(A, c, d + 0.1) == ["ray: A d is not zero"]
        assert "ray: d is not positive" in checks.check_ray(A, c, np.where(np.arange(d.size) == 0, -d, d))
        assert checks.check_ray(A, -c, d) == ["ray: c.d is not negative"]


def test_trace_csv_rows_match_iterations():
    text = "iter,f,grad_norm,mu\n0,1,1,1\n1,1,1,1\n"
    assert checks.check_trace_csv(text, 1) == []
    assert checks.check_trace_csv(text, 2) == ["trace: 2 rows, expected 3"]
    assert checks.check_trace_csv("x\n0\n", 0) == ["trace: header missing"]


class TestSelfTimes:
    def test_synthetic_call_tree(self):
        # root [0, 10] -> a [1, 3], b [4, 9] -> a [5, 6]; then a lone a [11, 12]
        spans = [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 3.0, 0),
            ("b", 4.0, 9.0, 0),
            ("a", 5.0, 6.0, 2),
            ("a", 11.0, 12.0, -1),
        ]
        stats = tracing.self_times(spans)
        assert stats["root"] == (1, pytest.approx(10.0 - 2.0 - 5.0))
        assert stats["b"] == (1, pytest.approx(5.0 - 1.0))
        assert stats["a"] == (3, pytest.approx(2.0 + 1.0 + 1.0))
        total_self = sum(seconds for _, seconds in stats.values())
        assert total_self == pytest.approx(10.0 + 1.0)  # the root trees' wall time
        assert tracing.calls_under(spans, "a", "b") == 1
        assert tracing.calls_under(spans, "a", "root") == 1

    def test_wrapped_calls_nest_and_restore(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

        class Owner:
            @staticmethod
            def leaf():
                return "ab"

            @staticmethod
            def outer():
                return Owner.leaf() + Owner.leaf()

            @classmethod
            def make(cls):
                return cls.leaf()

        originals = Owner.__dict__["leaf"], Owner.__dict__["make"]
        tracer.patch(Owner, "leaf", "leaf", count_bytes=True)
        tracer.patch(Owner, "make", "make")
        wrapped_outer = tracer.wrap("outer", Owner.outer)
        assert wrapped_outer() == "abab"
        assert Owner.make() == "ab"
        tracer.uninstall()
        assert (Owner.__dict__["leaf"], Owner.__dict__["make"]) == originals
        names = [(name, parent) for name, _, _, parent in tracer.spans]
        assert names == [("outer", -1), ("leaf", 0), ("leaf", 0), ("make", -1), ("leaf", 3)]
        # outer spans ticks 0..5 and holds two leaves of one tick each
        assert tracing.self_times(tracer.spans)["outer"] == (1, 3.0)
        assert tracer.bytes_written == 6


def test_installed_traces_lpmerit_and_restores_it(tmp_path):
    modules = {name: getattr(lpmerit, name) for name in tracing.MODULES}
    before = {(module, attr): getattr(modules[module], attr) for module, attr, _ in tracing.TARGETS if "." not in attr}
    tracer = tracing.Tracer()
    problem = generate_unbounded_lp(3, 8, 4)
    path = tmp_path / "p.json"
    with tracing.installed(tracer, modules):
        serialize.save_problem(path, problem)
        assert cli.main(["solve", "--input", str(path), "--homogeneous-escalate"]) == 10
    after = {(module, attr): getattr(modules[module], attr) for module, attr in before}
    assert after == before
    assert not hasattr(solver.PrimalDualPoint.from_vector, "__wrapped__")
    stats = tracing.self_times(tracer.spans)
    for name in ("cli.main", "solver.solve", "solver.solve_homogeneous", "linsys.solve_dense",
                 "merit.hessian_base", "problems.point_from_vector", "serialize.load_problem"):
        assert stats[name][0] >= 1, name
    assert tracer.bytes_written == len(path.read_text(encoding="utf-8").encode("utf-8"))

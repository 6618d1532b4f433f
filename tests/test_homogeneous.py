"""The homogeneous embedding: trivial stationarity, recovery, infeasibility detection."""

import numpy as np
import pytest
from helpers import point_kkt

import lpmerit.solver as solver_module
from lpmerit import (
    KKT_TOL,
    Algorithm,
    HomogeneousPoint,
    HomogeneousStatus,
    MeritKind,
    MeritSpec,
    SolverConfig,
    StandardFormLp,
    brute_force_optimum,
    eval_gradient,
    eval_value,
    generate_optimal_lp,
    generate_unbounded_lp,
    recover_primal_dual,
    solve_homogeneous,
)

CFG = SolverConfig(Algorithm.HOMOTOPY)


def test_origin_is_stationary():
    lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
    spec = MeritSpec(MeritKind.HOMOGENEOUS, q=2.1)
    zero = HomogeneousPoint([0.0, 0.0], [0.0], [0.0, 0.0], 0.0, 0.0)
    assert eval_value(spec, lp, zero) == 0.0
    np.testing.assert_array_equal(eval_gradient(spec, lp, zero), np.zeros(7))


def test_desk_problem_recovers_an_optimal_point():
    lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
    point, status = solve_homogeneous(lp, CFG)
    assert status is HomogeneousStatus.OPTIMAL_RECOVERED
    recovered = recover_primal_dual(point)
    kkt = point_kkt(lp, recovered)
    assert max(kkt.values()) <= KKT_TOL, kkt


def test_generated_problem_recovers_an_optimal_point():
    prob = generate_optimal_lp(3, 6, 0)
    point, status = solve_homogeneous(prob.lp, CFG)
    if status is HomogeneousStatus.OPTIMAL_RECOVERED:
        recovered = recover_primal_dual(point)
        kkt = point_kkt(prob.lp, recovered)
        assert max(kkt.values()) <= KKT_TOL, kkt
    else:
        assert status is HomogeneousStatus.INCONCLUSIVE


def test_primal_infeasible_desk_problem():
    """x1 + x2 = -1 with x >= 0 is infeasible; the embedding should prove it
    via b.lam > 0, or at worst stay inconclusive."""
    lp = StandardFormLp([[1.0, 1.0]], [-1.0], [1.0, 0.0])
    assert brute_force_optimum(lp) is None
    point, status = solve_homogeneous(lp, CFG)
    assert status in (HomogeneousStatus.PRIMAL_INFEASIBLE, HomogeneousStatus.INCONCLUSIVE)
    if status is HomogeneousStatus.PRIMAL_INFEASIBLE:
        assert lp.b @ point.lam > 0.0


def test_unbounded_problem_detected_as_dual_infeasible():
    prob = generate_unbounded_lp(3, 8, 1)
    point, status = solve_homogeneous(prob.lp, CFG)
    assert status is HomogeneousStatus.DUAL_INFEASIBLE
    assert -(prob.lp.c @ point.x) > 0.0


@pytest.mark.parametrize("seed", [2, 8])
def test_decaying_tau_is_not_labelled_optimal(seed):
    """On these problems the gradient test stops with tau near 3e-6 and kappa
    near 1; the larger of the two must decide the label."""
    prob = generate_unbounded_lp(150, 450, seed)
    point, status = solve_homogeneous(prob.lp, CFG)
    assert status is HomogeneousStatus.DUAL_INFEASIBLE
    assert point.kappa > point.tau


def test_benchmark_panel_is_dual_infeasible_in_five_dense_steps(monkeypatch):
    """Pins the homogeneous escalation on the panel of the benchmark's
    unbounded workload: the label and the number of Newton solves."""
    calls = []
    real_dense = solver_module.solve_dense

    def counting(*args, **kwargs):
        calls.append(args[3])
        return real_dense(*args, **kwargs)

    monkeypatch.setattr(solver_module, "solve_dense", counting)
    config = SolverConfig(Algorithm.HOMOTOPY)
    for seed in range(10):
        calls.clear()
        lp = generate_unbounded_lp(150, 450, seed).lp
        _, status = solve_homogeneous(lp, config)
        assert status is HomogeneousStatus.DUAL_INFEASIBLE
        assert len(calls) == 5


@pytest.mark.parametrize(
    "algorithm,expected",
    [
        (Algorithm.HOMOTOPY, [9, 8, 9, 8, 8]),
        (Algorithm.LM_ADAPTIVE, [43, 73, 51, 55, 43]),
    ],
)
def test_small_unbounded_step_counts_are_pinned(algorithm, expected, monkeypatch):
    """Newton solves to a DualInfeasible label on small unbounded problems,
    with Armijo (constant mu) and with full steps (adaptive mu)."""
    calls = []
    real_dense = solver_module.solve_dense

    def counting(*args, **kwargs):
        calls.append(args[3])
        return real_dense(*args, **kwargs)

    monkeypatch.setattr(solver_module, "solve_dense", counting)
    counts = []
    for seed in range(len(expected)):
        calls.clear()
        lp = generate_unbounded_lp(3, 8, seed).lp
        _, status = solve_homogeneous(lp, SolverConfig(algorithm))
        assert status is HomogeneousStatus.DUAL_INFEASIBLE
        counts.append(len(calls))
    assert counts == expected


def test_recover_requires_positive_tau():
    with pytest.raises(ValueError):
        recover_primal_dual(HomogeneousPoint([1.0], [1.0], [1.0], 0.0, 1.0))

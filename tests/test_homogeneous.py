"""The homogeneous embedding: trivial stationarity, recovery, infeasibility
detection, and the start at a primal-dual run's ray."""

import numpy as np
import pytest
from helpers import point_kkt, primal_infeasible_lp

import lpmerit.solver as solver_module
from lpmerit import (
    KKT_TOL,
    Algorithm,
    Classification,
    DimensionMismatch,
    HomogeneousPoint,
    HomogeneousStatus,
    MeritKind,
    MeritSpec,
    PrimalDualPoint,
    SolveStatus,
    SolverConfig,
    StandardFormLp,
    brute_force_optimum,
    generate_optimal_lp,
    generate_unbounded_lp,
    recover_primal_dual,
    solve,
    solve_homogeneous,
)
from lpmerit.merit import gradient_at, value_at

CFG = SolverConfig(Algorithm.HOMOTOPY)


@pytest.fixture
def dense_calls(monkeypatch):
    """The mu of every solve_dense call the solver makes, one entry each."""
    calls = []
    real_dense = solver_module.solve_dense

    def counting(*args, **kwargs):
        calls.append(args[3])
        return real_dense(*args, **kwargs)

    monkeypatch.setattr(solver_module, "solve_dense", counting)
    return calls


def test_origin_is_stationary():
    lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
    spec = MeritSpec(MeritKind.HOMOGENEOUS, q=2.1)
    zero = HomogeneousPoint([0.0, 0.0], [0.0], [0.0, 0.0], 0.0, 0.0)
    assert value_at(spec, lp, zero.as_vector()) == 0.0
    np.testing.assert_array_equal(gradient_at(spec, lp, zero.as_vector()), np.zeros(7))


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


def test_benchmark_panel_is_dual_infeasible_in_five_dense_steps(dense_calls):
    """Pins the run from all-ones on the panel of the benchmark's unbounded
    workload: the label and the number of Newton solves."""
    config = SolverConfig(Algorithm.HOMOTOPY)
    for seed in range(10):
        dense_calls.clear()
        lp = generate_unbounded_lp(150, 450, seed).lp
        _, status = solve_homogeneous(lp, config)
        assert status is HomogeneousStatus.DUAL_INFEASIBLE
        assert len(dense_calls) == 5


def test_benchmark_panel_from_the_ray_is_dual_infeasible_in_one_dense_step(dense_calls):
    """Started at the dual-infeasibility ray of the primal-dual run, as the
    CLI's escalation is, each problem of the panel takes at most one Newton
    solve, none where the start already passes the gradient test, and tau
    stays at rounding level beside kappa near one."""
    config = SolverConfig(Algorithm.HOMOTOPY)
    counts = []
    for seed in range(10):
        lp = generate_unbounded_lp(150, 450, seed).lp
        outcome = solve(lp, config)
        assert outcome.classification is Classification.PRIMAL_FEASIBLE_DUAL_INFEASIBLE
        dense_calls.clear()
        point, status = solve_homogeneous(lp, config, near=outcome.point)
        assert status is HomogeneousStatus.DUAL_INFEASIBLE
        counts.append(len(dense_calls))
        assert abs(point.tau) <= 1e-8 and abs(point.kappa - 1.0) <= 1e-8
    assert counts == [1, 1, 1, 1, 1, 1, 1, 0, 1, 1]


@pytest.mark.parametrize(
    "algorithm,expected",
    [
        (Algorithm.HOMOTOPY, [9, 8, 9, 8, 8]),
        (Algorithm.LM_ADAPTIVE, [43, 73, 51, 55, 43]),
    ],
)
def test_small_unbounded_step_counts_are_pinned(algorithm, expected, dense_calls):
    """Newton solves to a DualInfeasible label on small unbounded problems,
    with Armijo (constant mu) and with full steps (adaptive mu)."""
    counts = []
    for seed in range(len(expected)):
        dense_calls.clear()
        lp = generate_unbounded_lp(3, 8, seed).lp
        _, status = solve_homogeneous(lp, SolverConfig(algorithm))
        assert status is HomogeneousStatus.DUAL_INFEASIBLE
        counts.append(len(dense_calls))
    assert counts == expected


@pytest.mark.parametrize(
    "algorithm,expected",
    [
        (Algorithm.HOMOTOPY, [1, 1, 0, 0, 1, 1]),
        (Algorithm.LM_ADAPTIVE, [1, 1, 0, 0, 1, 1]),
    ],
)
def test_small_unbounded_step_counts_from_the_ray_are_pinned(algorithm, expected, dense_calls):
    """The same problems, one more seed, started at the ray of a primal-dual
    run with the same algorithm: at most one Newton solve each, and none
    where the start already passes the gradient test."""
    config = SolverConfig(algorithm)
    counts = []
    for seed in range(len(expected)):
        lp = generate_unbounded_lp(3, 8, seed).lp
        outcome = solve(lp, config)
        dense_calls.clear()
        _, status = solve_homogeneous(lp, config, near=outcome.point)
        assert status is HomogeneousStatus.DUAL_INFEASIBLE
        counts.append(len(dense_calls))
    assert counts == expected


def _assert_same_run(first, second):
    (point_a, status_a), (point_b, status_b) = first, second
    assert status_a is status_b
    assert point_a.as_vector().tobytes() == point_b.as_vector().tobytes()


def test_an_optimal_point_leaves_the_all_ones_start():
    """At a verified optimum d = max(A'lam + s - c, 0) is rounding, here
    with c.d < 0; it names no ray, so the run is the one from all-ones."""
    lp = generate_optimal_lp(5, 10, 0).lp
    outcome = solve(lp, CFG)
    assert outcome.status is SolveStatus.OPTIMAL
    d = np.maximum(lp.A.T @ outcome.point.lam + outcome.point.s - lp.c, 0.0)
    assert lp.c @ d < 0.0
    _assert_same_run(solve_homogeneous(lp, CFG), solve_homogeneous(lp, CFG, near=outcome.point))


@pytest.mark.parametrize("seed", range(4))
def test_a_primal_infeasible_point_leaves_the_all_ones_start(seed):
    """An Unclassified no-optimum point of a primal-infeasible problem has
    c.d > 0: no ray, the all-ones run, and its PrimalInfeasible label."""
    lp = primal_infeasible_lp(20, 30, seed)
    outcome = solve(lp, CFG)
    assert outcome.status is SolveStatus.NO_OPTIMAL_SOLUTION
    assert outcome.classification is Classification.UNCLASSIFIED
    d = np.maximum(lp.A.T @ outcome.point.lam + outcome.point.s - lp.c, 0.0)
    assert lp.c @ d > 0.0
    cold = solve_homogeneous(lp, CFG)
    assert cold[1] is HomogeneousStatus.PRIMAL_INFEASIBLE
    _assert_same_run(cold, solve_homogeneous(lp, CFG, near=outcome.point))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_direction_names_no_ray(bad):
    """The rule of the ray start and of solve's ray check rejects a d with
    an inf or nan entry, whatever the sign of c_j there, c.d = -inf where
    c_j < 0 included, though the generator's ray passes it."""
    generated = generate_unbounded_lp(3, 8, 0)
    lp = generated.lp
    assert solver_module._ray_objective(lp, generated.known_ray) is not None
    for j in (int(np.argmin(lp.c)), int(np.argmax(lp.c))):
        d = generated.known_ray.copy()
        d[j] = bad
        assert solver_module._ray_objective(lp, d) is None


def test_near_of_the_wrong_size_is_rejected():
    lp = generate_unbounded_lp(3, 8, 0).lp
    near = PrimalDualPoint(np.ones(8), np.ones(2), np.ones(8))
    with pytest.raises(DimensionMismatch):
        solve_homogeneous(lp, CFG, near=near)


def test_recover_requires_positive_tau():
    with pytest.raises(ValueError):
        recover_primal_dual(HomogeneousPoint([1.0], [1.0], [1.0], 0.0, 1.0))

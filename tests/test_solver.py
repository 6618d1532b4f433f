"""Iteration drivers: line search, schedules, termination, classification."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import duplicated_row_lp, point_kkt

import lpmerit.linsys as linsys_module
import lpmerit.merit as merit_module
import lpmerit.solver as solver_module
from lpmerit import (
    Algorithm,
    Classification,
    DimensionMismatch,
    FactorizationFailure,
    HomogeneousPoint,
    HomogeneousStatus,
    KKT_TOL,
    InvalidConfig,
    MeritKind,
    MeritSpec,
    NotDescentDirection,
    PrimalDualPoint,
    SolverConfig,
    SolveStatus,
    StandardFormLp,
    armijo_search,
    brute_force_optimum,
    generate_optimal_lp,
    generate_unbounded_lp,
    is_dual_ray,
    least_squares_start,
    residuals,
    solve,
    solve_homogeneous,
)
from lpmerit.linsys import project_ray


#: The homotopy from nu0 = 0: constant mu with Armijo on the base merit.
BASE_MERIT = SolverConfig(Algorithm.HOMOTOPY, nu0=0.0)
#: The two Armijo schemes, the homotopy from its default nu0 = 0.05 and from
#: nu0 = 0, and every scheme.  Each takes its own iterates.
ARMIJO = [SolverConfig(Algorithm.HOMOTOPY), BASE_MERIT]
SCHEMES = [SolverConfig(Algorithm.LM_ADAPTIVE)] + ARMIJO


def scheme_id(value):
    """The test id of a config: its algorithm, and nu0 where it is 0."""
    if isinstance(value, SolverConfig):
        return str(value.algorithm) + ("-nu0=0" if value.nu0 == 0.0 else "")
    return None


def no_vertex(lp, basis):
    """A stand-in for linsys._basic_vertex, patched where solver looks it up,
    that finds no vertex, so that no polish attempt verifies and a run keeps
    the loop's own iterates."""
    return None


def log_vertex_calls(monkeypatch):
    """(basis, whether a vertex was found) for every call of _basic_vertex in solver."""
    log = []
    basic_vertex = solver_module._basic_vertex

    def logging_vertex(lp, basis):
        vertex = basic_vertex(lp, basis)
        log.append((list(basis), vertex is not None))
        return vertex

    monkeypatch.setattr(solver_module, "_basic_vertex", logging_vertex)
    return log


class PartitionPolish(solver_module._Polish):
    """The earlier polish rule, the reference of the never-later property:
    the partition B = {j : x_j > s_j} is tried only when it has m columns,
    equals the previous iterate's and is new."""

    def __call__(self, z, spec):
        n, m = self.lp.n, self.lp.m
        basis = np.flatnonzero(z[:n] > z[n + m :])
        previous, self.previous = self.previous, basis
        if basis.size != m or not np.array_equal(basis, previous):
            return None
        return self._attempt(basis, spec)


class StablePolish(solver_module._Polish):
    """The rule without the look-ahead, the reference of the never-later
    test: the top-m basis is tried only once it equals the previous
    iterate's and is new."""

    def __call__(self, z, spec):
        n, m = self.lp.n, self.lp.m
        basis = np.sort(np.argpartition(z[n + m :] - z[:n], m - 1)[:m])
        previous, self.previous = self.previous, basis
        if not np.array_equal(basis, previous):
            return None
        return self._attempt(basis, spec)


def equal_last_columns_lp():
    """A (3, 6) problem whose last two columns are equal, so that every basis
    holding both is singular.  As in generate_optimal_lp, b and c come from a
    known strictly complementary optimum, here supported on the first three
    columns."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 6))
    A[:, 5] = A[:, 4]
    x = np.concatenate([rng.uniform(0.5, 1.5, size=3), np.zeros(3)])
    s = np.concatenate([np.zeros(3), rng.uniform(0.5, 1.5, size=3)])
    lam = rng.standard_normal(3)
    return StandardFormLp(A, A @ x, A.T @ lam + s)


class TestArmijo:
    def test_full_step_accepted_on_quadratic(self):
        alpha, stagnated = armijo_search(lambda t: t * t, 1.0, -1.0, -2.0, 1.0)
        assert alpha == 1.0 and not stagnated

    def test_halved_step_on_overshooting_direction(self):
        """f(t) = t^2 from t = 1 along -3: the full step lands at f(-2) = 4 and
        fails, the halved step lands at f(-0.5) = 0.25 and passes."""
        alpha, stagnated = armijo_search(lambda t: t * t, 1.0, -3.0, -6.0, 1.0)
        assert alpha == 0.5 and not stagnated

    def test_stagnation_on_flat_objective(self):
        # flat at zero: at f0 = 1 the bound f0 + c1*alpha*slope rounds to f0
        # once alpha < 1e-12, and the flat probe would pass
        alpha, stagnated = armijo_search(lambda t: 0.0, 0.0, -1.0, -1.0, 0.0)
        assert stagnated
        assert alpha == 0.5**60

    def test_stagnation_on_flat_objective_at_a_nonzero_level(self):
        # at f0 = 1 the bound f0 + c1*alpha*slope rounds to f0 once
        # c1*alpha is under half an ulp of 1; a flat probe must still fail
        alpha, stagnated = armijo_search(lambda t: 1.0, 0.0, -1.0, -1.0, 1.0)
        assert stagnated
        assert alpha == 0.5**60

    def test_rejects_non_descent_direction(self):
        with pytest.raises(NotDescentDirection):
            armijo_search(lambda t: t * t, 1.0, 1.0, 2.0, 1.0)


class TestConfig:
    def test_variant_defaults(self):
        assert solver_module._Q == {Algorithm.LM_ADAPTIVE: 3.0, Algorithm.HOMOTOPY: 2.1}
        assert (solver_module._MU, solver_module._THETA) == (1e-9, 0.8)
        assert solver_module._HESSIAN_LIPSCHITZ == 1.0
        assert (solver_module.VALUE_TOL, solver_module.GRADIENT_TOL) == (1e-16, 1e-10)
        assert solver_module.NO_OPTIMUM_TOL == 1e-8
        assert SolverConfig(Algorithm.HOMOTOPY).nu0 == 0.05
        assert BASE_MERIT.nu0 == 0.0

    # each case keeps, as its own id, the name pytest gave it by position,
    # so that removing a case renames no other
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"nu0": -1.0}, id="kwargs0"),
            pytest.param({"nu0": math.nan}, id="kwargs1"),
            pytest.param({"max_iter": -1}, id="kwargs3"),
            pytest.param({"nu0": math.inf}, id="kwargs4"),
            pytest.param({"nu0": -math.inf}, id="kwargs5"),
            pytest.param({"max_iter": 5.0}, id="kwargs8"),
            pytest.param({"max_iter": True}, id="kwargs9"),
            pytest.param({"max_iter": "5"}, id="kwargs15"),
            pytest.param({"max_iter": None}, id="kwargs16"),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            SolverConfig(Algorithm.HOMOTOPY, **kwargs)

    def test_an_algorithm_given_by_name_is_rejected(self):
        with pytest.raises(InvalidConfig, match="algorithm must be an Algorithm"):
            SolverConfig("homotopy")

    @pytest.mark.parametrize(
        "algorithm,name,value",
        [(Algorithm.LM_ADAPTIVE, "nu0", 5.0)],
    )
    def test_a_setting_the_algorithm_never_reads_is_rejected(self, algorithm, name, value):
        """Such a setting would change nothing in the run; at its default it
        is accepted, and it is left out of the fields the algorithm reads."""
        with pytest.raises(InvalidConfig, match=f"{algorithm.value} never reads {name}"):
            SolverConfig(algorithm, **{name: value})
        config = SolverConfig(algorithm, **{name: getattr(SolverConfig(algorithm), name)})
        assert name not in config.read_fields()

    @pytest.mark.parametrize(
        "name,value",
        [
            ("q", 3.0),
            ("mu_const", 1e-9),
            ("theta", 0.8),
            ("hessian_lipschitz", 1.0),
            ("tol_grad", 1e-10),
            ("tol_f", 1e-16),
        ],
    )
    def test_a_fixed_setting_is_not_a_field(self, name, value):
        """q, mu, theta, L and the stopping thresholds are solver constants;
        passing one fails loudly, even at its fixed value, instead of being
        ignored."""
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            SolverConfig(Algorithm.HOMOTOPY, **{name: value})


class TestSolve:
    @pytest.mark.parametrize("config", ARMIJO, ids=scheme_id)
    def test_matches_enumeration_oracle(self, config):
        lps = [generate_optimal_lp(3, 6, seed).lp for seed in range(5)]
        for lp in lps + [equal_last_columns_lp()]:
            _, oracle_value = brute_force_optimum(lp)
            out = solve(lp, config)
            assert out.status is SolveStatus.OPTIMAL
            value = float(lp.c @ out.point.x)
            assert abs(value - oracle_value) <= 1e-6 * (1.0 + abs(oracle_value))

    @pytest.mark.parametrize("config", ARMIJO, ids=scheme_id)
    def test_objective_strictly_decreases_with_armijo(self, config):
        prob = generate_optimal_lp(4, 9, 3)
        out = solve(prob.lp, config)
        values = [r.f for r in out.trace]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_homotopy_schedule_is_exact(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_FULL_STEP_SHRINK", 1.0)
        prob = generate_optimal_lp(3, 6, 1)
        cfg = SolverConfig(Algorithm.HOMOTOPY, nu0=1.0)
        out = solve(prob.lp, cfg)
        nu = 1.0
        for record in out.trace:
            assert record.nu == nu
            nu *= 0.8

    def test_homotopy_decay_follows_the_step_length(self):
        """nu falls by _THETA after a backtracked step and by half of it after
        a full one; the run takes both kinds of step."""
        prob = generate_optimal_lp(5, 10, 0)
        cfg = SolverConfig(Algorithm.HOMOTOPY)
        out = solve(prob.lp, cfg)
        assert out.status is SolveStatus.OPTIMAL
        steps = list(zip(out.trace, out.trace[1:]))
        for row, following in steps:
            theta = solver_module._THETA
            factor = theta * 0.5 if row.alpha == 1.0 else theta
            assert following.nu == factor * row.nu
        alphas = {row.alpha == 1.0 for row, _ in steps}
        assert alphas == {True, False}

    def test_adaptive_mu_follows_the_gradient_norm(self):
        prob = generate_optimal_lp(3, 6, 2)
        cfg = SolverConfig(Algorithm.LM_ADAPTIVE, max_iter=40)
        out = solve(prob.lp, cfg)
        for record in out.trace:
            assert record.mu == math.sqrt(record.grad_norm / 2.0)

    def test_unbounded_problem_is_certified(self):
        prob = generate_unbounded_lp(3, 8, 0)
        out = solve(prob.lp, BASE_MERIT)
        s2 = prob.lp.scale**2
        assert out.status is SolveStatus.NO_OPTIMAL_SOLUTION
        assert out.final_grad_norm <= 1e-10 * s2
        assert out.final_f >= 1e-8 * s2
        assert out.classification is Classification.PRIMAL_FEASIBLE_DUAL_INFEASIBLE

    def test_iteration_limit_and_trace_length(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_basic_vertex", no_vertex)
        prob = generate_optimal_lp(3, 6, 4)
        out = solve(prob.lp, SolverConfig(Algorithm.HOMOTOPY, nu0=0.0, max_iter=3))
        assert out.status is SolveStatus.ITERATION_LIMIT
        assert out.iterations == 3
        assert len(out.trace) == out.iterations + 1

    def test_trace_can_be_disabled(self):
        prob = generate_optimal_lp(3, 6, 5)
        out = solve(prob.lp, SolverConfig(Algorithm.HOMOTOPY, nu0=0.0, trace=False))
        assert out.trace == []
        assert out.status is SolveStatus.OPTIMAL

    def test_rel_err_column_present_with_reference(self):
        prob = generate_optimal_lp(3, 6, 6)
        out = solve(prob.lp, BASE_MERIT, x_star=prob.known_optimum.x)
        assert all(r.rel_err_x is not None for r in out.trace)
        assert out.trace[-1].rel_err_x < out.trace[0].rel_err_x

    @pytest.mark.parametrize("trace", [True, False])
    def test_wrong_length_reference_is_rejected_before_iterating(self, trace, monkeypatch):
        evaluated = []
        monkeypatch.setattr(merit_module, "evaluate", lambda *args: evaluated.append(args))
        lp = generate_optimal_lp(3, 6, 0).lp
        with pytest.raises(DimensionMismatch):
            solve(lp, SolverConfig(Algorithm.HOMOTOPY, trace=trace), x_star=np.ones(7))
        assert evaluated == []

    def test_final_point_meets_value_implied_bounds(self):
        """Every residual is bounded by the merit value: the three norms by
        sqrt(2 f) and the negative parts by (q(q-1) f)^(1/q)."""
        prob = generate_optimal_lp(4, 9, 7)
        cfg = BASE_MERIT
        out = solve(prob.lp, cfg)
        assert out.status is SolveStatus.OPTIMAL
        slack = 1e-12 * prob.lp.scale
        gamma, rho, sigma = residuals(prob.lp, out.point)
        eps_norm = math.sqrt(2.0 * out.final_f) + slack
        assert abs(gamma) <= eps_norm
        assert np.linalg.norm(rho) <= eps_norm
        assert np.linalg.norm(sigma) <= eps_norm
        q = solver_module._Q[cfg.algorithm]
        eps_sign = (q * (q - 1.0) * out.final_f) ** (1.0 / q) + slack
        assert out.point.x.min() >= -eps_sign
        assert out.point.s.min() >= -eps_sign

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_numerical_failure_on_divergent_start(self):
        """With b x 1e200 the least-squares start has x of size 1e200, and
        the merit overflows already there, so the run ends at its start,
        before its first trace row."""
        lp = generate_optimal_lp(3, 6, 8).lp
        divergent = StandardFormLp(lp.A, lp.b * 1e200, lp.c)
        out = solve(divergent, BASE_MERIT)
        assert out.status is SolveStatus.NUMERICAL_FAILURE
        assert out.iterations == 0
        assert out.trace == []
        start = least_squares_start(divergent)
        assert np.abs(start[:6]).max() > 1e199
        np.testing.assert_array_equal(out.point.as_vector(), start)

    @pytest.mark.parametrize("config", SCHEMES, ids=scheme_id)
    def test_runs_start_at_the_least_squares_point(self, config):
        lp = generate_optimal_lp(5, 10, 0).lp
        out = solve(lp, replace(config, max_iter=0))
        assert out.status is SolveStatus.ITERATION_LIMIT
        assert out.point.as_vector().tobytes() == least_squares_start(lp).tobytes()

    @pytest.mark.parametrize("m,n,seed", [(5, 10, 0), (20, 30, 1), (50, 75, 2)])
    def test_rank_deficient_problem_is_solved(self, m, n, seed):
        """The last row of A repeats its first; AA' is singular, yet the
        start factors and the run ends at a verified optimum."""
        lp = duplicated_row_lp(m, n, seed)
        out = solve(lp, SolverConfig(Algorithm.HOMOTOPY, trace=False))
        assert out.status is SolveStatus.OPTIMAL
        assert max(point_kkt(lp, out.point).values()) <= KKT_TOL

    def test_dominant_entry_ends_at_a_verified_optimum(self):
        """One entry of 1e10 makes VALUE_TOL * scale^2 about 1e4: the merit
        test alone passed the all-zero point, whose dual residual is 0.59.  The
        least-squares start is optimal to within a dual residual of 1e-10."""
        lp = StandardFormLp([[1e10, 1.0]], [0.0], [1.0, 1.0])
        out = solve(lp, SolverConfig(Algorithm.HOMOTOPY))
        assert out.status is SolveStatus.OPTIMAL
        assert point_kkt(lp, out.point)["dual"] <= 1e-9

    def test_a_point_that_misses_the_kkt_tolerance_does_not_stop_the_run(self, monkeypatch):
        """With every relative KKT residual faked above KKT_TOL, the merit
        test alone would end the run Optimal; the kernel is consulted only
        then, and the run goes on to the iteration limit."""
        calls = []

        def failing_kkt(lp, x, lam, s, res):
            calls.append(x.size)
            return {"primal": 2.0 * KKT_TOL}

        monkeypatch.setattr(solver_module, "kkt_residuals", failing_kkt)
        lp = generate_optimal_lp(5, 10, 0).lp
        out = solve(lp, SolverConfig(Algorithm.HOMOTOPY, max_iter=40, trace=False))
        assert out.status is SolveStatus.ITERATION_LIMIT
        assert 0 < len(calls) <= out.iterations + out.polish_attempts

    def test_constant_mu_reaches_the_oracle_optimum(self):
        prob = generate_optimal_lp(3, 6, 10)
        _, oracle_value = brute_force_optimum(prob.lp)
        out = solve(prob.lp, BASE_MERIT)
        assert out.status is SolveStatus.OPTIMAL
        value = float(prob.lp.c @ out.point.x)
        assert abs(value - oracle_value) <= 1e-6 * (1.0 + abs(oracle_value))


class TestFactorizationFailures:
    """The mu-escalation ladder, reached by fakes of the two linear solves
    that raise FactorizationFailure; the merit kind picks which one.  The
    polish is stubbed out in the solve tests: the look-ahead at the start
    verifies the vertex of (3, 6, 0), which would end the run before any
    step."""

    CFG = SolverConfig(Algorithm.HOMOTOPY, nu0=0.0, max_iter=1)

    @staticmethod
    def _failing(calls, accept=lambda args: False, solve_fn=None):
        """A linear solve that records its arguments in ``calls`` and raises
        FactorizationFailure unless ``accept(args)``; then ``solve_fn`` runs."""

        def fake(*args, **kwargs):
            calls.append(args)
            if accept(args):
                return solve_fn(*args, **kwargs)
            raise FactorizationFailure("fake")

        return fake

    def test_mu_escalates_tenfold_until_accepted(self, monkeypatch):
        """The lam entries of the diagonal d are exactly mu at a base-merit
        point, since lam has no penalty; d[6] is the first of them at n = 6."""
        calls = []
        fake = self._failing(
            calls, lambda args: args[0][6] >= 1e-6, solver_module.solve_structured
        )
        monkeypatch.setattr(solver_module, "solve_structured", fake)
        monkeypatch.setattr(solver_module, "_basic_vertex", no_vertex)
        out = solve(generate_optimal_lp(3, 6, 0).lp, self.CFG)
        assert out.status is SolveStatus.ITERATION_LIMIT
        tried = [args[0][6] for args in calls]
        np.testing.assert_allclose(tried, [1e-9, 1e-8, 1e-7, 1e-6], rtol=1e-12)

    def test_solve_reports_numerical_failure_when_every_attempt_fails(self, monkeypatch):
        structured, dense = [], []
        monkeypatch.setattr(solver_module, "solve_structured", self._failing(structured))
        monkeypatch.setattr(solver_module, "solve_dense", self._failing(dense))
        monkeypatch.setattr(solver_module, "_basic_vertex", no_vertex)
        out = solve(generate_optimal_lp(3, 6, 0).lp, self.CFG)
        assert out.status is SolveStatus.NUMERICAL_FAILURE
        assert out.iterations == 0
        assert (len(structured), len(dense)) == (solver_module._MAX_MU_ESCALATIONS + 1, 0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_ends_in_numerical_failure(self, bad, monkeypatch):
        """A NaN or inf in the penalty diagonal fails every factorization,
        structured and dense, instead of escaping as scipy's ValueError."""
        monkeypatch.setattr(
            merit_module, "penalty_diagonal_at", lambda spec, lp, z: np.full(z.size, bad)
        )
        monkeypatch.setattr(solver_module, "_basic_vertex", no_vertex)
        out = solve(generate_optimal_lp(3, 6, 0).lp, self.CFG)
        assert out.status is SolveStatus.NUMERICAL_FAILURE
        assert out.iterations == 0

    def test_homogeneous_is_inconclusive_when_every_attempt_fails(self, monkeypatch):
        dense = []
        monkeypatch.setattr(solver_module, "solve_dense", self._failing(dense))
        prob = generate_unbounded_lp(3, 8, 1)
        point, status = solve_homogeneous(prob.lp, self.CFG)
        assert status is HomogeneousStatus.INCONCLUSIVE
        assert len(dense) == solver_module._MAX_MU_ESCALATIONS + 1
        np.testing.assert_array_equal(point.as_vector(), np.ones(2 * 8 + 3 + 2))


class TestFailurePathsOnRealInputs:
    """Each way a Newton step can end a run, reached by a real input: the mu
    ladder and a stagnated Armijo search by a badly scaled A, a non-descent
    step by row scaling.  Armijo stagnation is also reached by a fake merit
    value, which pins the probe count."""

    @staticmethod
    def _count_attempts(monkeypatch):
        calls = {"structured": 0, "dense": 0}
        build_reduced, solve_dense = solver_module.build_reduced, solver_module.solve_dense

        def counting_build_reduced(*args):
            calls["structured"] += 1
            return build_reduced(*args)

        def counting_solve_dense(*args):
            calls["dense"] += 1
            return solve_dense(*args)

        monkeypatch.setattr(solver_module, "build_reduced", counting_build_reduced)
        monkeypatch.setattr(solver_module, "solve_dense", counting_solve_dense)
        return calls

    @staticmethod
    def _scaled(scale):
        lp = generate_optimal_lp(5, 10, 0).lp
        return StandardFormLp(lp.A * scale, lp.b * scale, lp.c)

    def test_ladder_escalates_and_then_steps(self, monkeypatch):
        calls = self._count_attempts(monkeypatch)
        out = solve(self._scaled(1e7), SolverConfig(Algorithm.HOMOTOPY, trace=False))
        assert out.iterations >= 1
        # a polished run's last iterate is the vertex, not a Newton step
        assert calls["structured"] > out.iterations - out.polished
        assert calls["dense"] == 0

    def test_exhausted_ladder_is_a_numerical_failure(self, monkeypatch):
        """A and b x 1e14: the merit test alone passes the least-squares
        start, since VALUE_TOL * scale^2 grows with A, but its KKT residuals
        do not, so the run takes a step and every rung of the ladder fails."""
        calls = self._count_attempts(monkeypatch)
        out = solve(self._scaled(1e14), SolverConfig(Algorithm.HOMOTOPY, trace=False))
        assert out.status is SolveStatus.NUMERICAL_FAILURE
        assert out.iterations == 0
        assert calls == {"structured": solver_module._MAX_MU_ESCALATIONS + 1, "dense": 0}

    def test_non_descent_step_ends_the_run_early(self, monkeypatch):
        slopes = []
        newton_step = solver_module._newton_step

        def recording_newton_step(spec, lp, z, mu, g):
            delta = newton_step(spec, lp, z, mu, g)
            slopes.append(float(g @ delta))
            return delta

        monkeypatch.setattr(solver_module, "_newton_step", recording_newton_step)
        lp = generate_optimal_lp(20, 30, 0).lp
        rows = np.logspace(-4, 4, 20)
        config = SolverConfig(Algorithm.HOMOTOPY, trace=False)
        out = solve(StandardFormLp(lp.A * rows[:, None], lp.b * rows, lp.c), config)
        assert out.status is SolveStatus.ITERATION_LIMIT
        assert out.iterations < config.max_iter
        assert len(slopes) == out.iterations + 1
        assert slopes[-1] >= 0.0 and all(slope < 0.0 for slope in slopes[:-1])

    def test_stagnated_armijo_search_on_a_real_input_ends_the_run(self, monkeypatch):
        """A and b x 1e12: at the third iterate every probe down to 2**-60
        fails."""
        searches = []
        armijo = solver_module.armijo_search

        def recording_armijo(*args):
            searches.append(armijo(*args))
            return searches[-1]

        monkeypatch.setattr(solver_module, "armijo_search", recording_armijo)
        out = solve(self._scaled(1e12), SolverConfig(Algorithm.HOMOTOPY, trace=False))
        assert out.status is SolveStatus.ITERATION_LIMIT
        assert len(searches) == out.iterations + 1
        assert searches[-1] == (0.5**60, True)
        assert not any(stagnated for _, stagnated in searches[:-1])

    def test_stagnated_armijo_search_ends_the_run(self, monkeypatch):
        probes = []

        def infinite_value(*args):
            probes.append(args)
            return math.inf

        monkeypatch.setattr(merit_module, "value_at", infinite_value)
        # the look-ahead at the start would verify the vertex before any step
        monkeypatch.setattr(solver_module, "_basic_vertex", no_vertex)
        out = solve(generate_optimal_lp(3, 6, 0).lp, BASE_MERIT)
        assert out.status is SolveStatus.ITERATION_LIMIT
        assert out.iterations == 0
        assert len(probes) == 61


class TestNonFiniteSteps:
    """A Newton step holding a NaN, faked in place of the linear solves, ends
    the run before its slope is tested.  ``solve`` runs with the polish
    stubbed out, whose look-ahead would verify the start's vertex."""

    CFG = BASE_MERIT

    def test_solve_reports_numerical_failure(self, monkeypatch):
        def nan_step(d, rhs, lp):
            return np.full(rhs.shape, np.nan)

        monkeypatch.setattr(solver_module, "solve_structured", nan_step)
        monkeypatch.setattr(solver_module, "_basic_vertex", no_vertex)
        out = solve(generate_optimal_lp(3, 6, 0).lp, self.CFG)
        assert out.status is SolveStatus.NUMERICAL_FAILURE
        assert out.iterations == 0

    def test_homogeneous_is_inconclusive(self, monkeypatch):
        calls = []

        def nan_step(spec, lp, point, mu, rhs):
            calls.append(mu)
            return np.full(rhs.shape, np.nan)

        monkeypatch.setattr(solver_module, "solve_dense", nan_step)
        point, status = solve_homogeneous(generate_unbounded_lp(3, 8, 1).lp, self.CFG)
        assert status is HomogeneousStatus.INCONCLUSIVE
        assert len(calls) == 1
        np.testing.assert_array_equal(point.as_vector(), np.ones(2 * 8 + 3 + 2))


class TestOneEvaluationPerIterate:
    """merit.evaluate runs once per iterate and once per polish vertex that
    fails the stopping test, gradient_at never runs, value_at runs only as an
    Armijo probe, and the point is built only at exit."""

    @staticmethod
    def _instrument(monkeypatch):
        counts = {"evaluate": 0, "gradient_at": 0, "value_at_outside_armijo": 0}
        in_armijo = []
        evaluate, gradient_at = merit_module.evaluate, merit_module.gradient_at
        value_at, armijo = merit_module.value_at, solver_module.armijo_search

        def counting_evaluate(*args):
            counts["evaluate"] += 1
            return evaluate(*args)

        def counting_gradient_at(*args):
            counts["gradient_at"] += 1
            return gradient_at(*args)

        def watched_value_at(*args):
            if not in_armijo:
                counts["value_at_outside_armijo"] += 1
            return value_at(*args)

        def marked_armijo(*args, **kwargs):
            in_armijo.append(True)
            try:
                return armijo(*args, **kwargs)
            finally:
                in_armijo.pop()

        monkeypatch.setattr(merit_module, "evaluate", counting_evaluate)
        monkeypatch.setattr(merit_module, "gradient_at", counting_gradient_at)
        monkeypatch.setattr(merit_module, "value_at", watched_value_at)
        monkeypatch.setattr(solver_module, "armijo_search", marked_armijo)
        return counts

    @staticmethod
    def _count_from_vector(monkeypatch, cls):
        calls = []
        from_vector = cls.from_vector

        def counting(_cls, *args):
            calls.append(args)
            return from_vector(*args)

        monkeypatch.setattr(cls, "from_vector", classmethod(counting))
        return calls

    def _assert_counts(self, config, status, monkeypatch):
        counts = self._instrument(monkeypatch)
        calls = log_vertex_calls(monkeypatch)
        built = self._count_from_vector(monkeypatch, PrimalDualPoint)
        out = solve(generate_optimal_lp(5, 10, 0).lp, config)
        assert out.status is status
        assert out.polished is (status is SolveStatus.OPTIMAL)
        # each basis is tried once, and each vertex found is evaluated once
        assert len({tuple(basis) for basis, _ in calls}) == len(calls)
        vertices = sum(found for _, found in calls)
        assert vertices >= 1
        assert counts == {
            "evaluate": out.iterations + 1 + vertices - out.polished,
            "gradient_at": 0,
            "value_at_outside_armijo": 0,
        }
        assert len(built) == 1

    @pytest.mark.parametrize("config", ARMIJO, ids=scheme_id)
    def test_solve(self, config, monkeypatch):
        self._assert_counts(replace(config, trace=False), SolveStatus.OPTIMAL, monkeypatch)

    @pytest.mark.parametrize("config", ARMIJO, ids=scheme_id)
    def test_each_failed_vertex_costs_one_evaluation(self, config, monkeypatch):
        """No vertex passes this stopping test, so each one evaluated fails."""
        monkeypatch.setattr(solver_module, "VALUE_TOL", 1e-300)
        monkeypatch.setattr(solver_module, "GRADIENT_TOL", 1e-300)
        config = replace(config, trace=False, max_iter=40)
        self._assert_counts(config, SolveStatus.ITERATION_LIMIT, monkeypatch)

    @pytest.mark.parametrize("config", SCHEMES, ids=scheme_id)
    def test_traced_solve_reads_rows_from_the_iterate(self, config, monkeypatch):
        """Trace rows take the residuals merit.evaluate computed: the point
        is built only at exit, and the last row, at the returned point,
        matches residuals() there bit for bit."""
        built = self._count_from_vector(monkeypatch, PrimalDualPoint)
        prob = generate_optimal_lp(5, 10, 1)
        out = solve(prob.lp, replace(config, max_iter=60), x_star=prob.known_optimum.x)
        assert len(built) == 1
        assert len(out.trace) == out.iterations + 1
        gamma, rho, sigma = residuals(prob.lp, out.point)
        last = out.trace[-1]
        expected = (
            abs(gamma),
            float(np.linalg.norm(rho)),
            float(np.linalg.norm(sigma)),
            float(out.point.x.min()),
            float(out.point.s.min()),
        )
        observed = (last.gap, last.primal_res, last.dual_res, last.min_x, last.min_s)
        assert np.array(observed).tobytes() == np.array(expected).tobytes()

    def test_solve_homogeneous(self, monkeypatch):
        counts = self._instrument(monkeypatch)
        built = self._count_from_vector(monkeypatch, HomogeneousPoint)
        steps = []
        solve_dense = solver_module.solve_dense

        def counting_dense(*args):
            steps.append(args[3])
            return solve_dense(*args)

        monkeypatch.setattr(solver_module, "solve_dense", counting_dense)
        prob = generate_unbounded_lp(3, 8, 1)
        _, status = solve_homogeneous(prob.lp, SolverConfig(Algorithm.HOMOTOPY))
        assert status is HomogeneousStatus.DUAL_INFEASIBLE
        assert counts == {
            "evaluate": len(steps) + 1,
            "gradient_at": 0,
            "value_at_outside_armijo": 0,
        }
        assert len(built) == 1


class TestIterates:
    """The per-problem cache of A'A and the iterates it feeds."""

    HOMOTOPY = SolverConfig(Algorithm.HOMOTOPY)

    def test_two_solves_of_one_problem_agree_and_keep_the_gram_matrix(self):
        lp = generate_optimal_lp(20, 30, 4).lp
        first = solve(lp, self.HOMOTOPY)
        gram = lp.gram
        second = solve(lp, self.HOMOTOPY)
        assert lp.gram is gram
        assert not gram.flags.writeable
        assert np.array_equal(gram, lp.A.T @ lp.A)
        assert first.status is second.status is SolveStatus.OPTIMAL
        assert first.iterations == second.iterations
        assert (first.final_f, first.final_grad_norm) == (second.final_f, second.final_grad_norm)
        assert np.array_equal(first.point.as_vector(), second.point.as_vector())

    @pytest.mark.parametrize(
        "m,n,expected",
        [
            (5, 10, [82, 73, 78, 70, 97, 81, 73, 71, 74, 74]),
            (50, 75, [81, 80, 82]),
        ],
    )
    def test_homotopy_iteration_counts_are_pinned(self, m, n, expected, monkeypatch):
        """The fixed schedule nu_k = 0.8**k, with no extra shrink after a full
        step, and no polish."""
        monkeypatch.setattr(solver_module, "_FULL_STEP_SHRINK", 1.0)
        monkeypatch.setattr(solver_module, "_basic_vertex", no_vertex)
        outcomes = [
            solve(generate_optimal_lp(m, n, seed).lp, self.HOMOTOPY)
            for seed in range(len(expected))
        ]
        assert [out.status for out in outcomes] == [SolveStatus.OPTIMAL] * len(expected)
        assert [out.iterations for out in outcomes] == expected

    @pytest.mark.parametrize(
        "m,n,expected",
        [
            (5, 10, [24, 19, 23, 18, 25, 23, 19, 18, 22, 20]),
            (50, 75, [24, 33, 29]),
        ],
    )
    def test_default_homotopy_iteration_counts_are_pinned(self, m, n, expected, monkeypatch):
        """The loop's own iterates: with no vertex to try, every run ends on
        the merit test."""
        monkeypatch.setattr(solver_module, "_basic_vertex", no_vertex)
        outcomes = [
            solve(generate_optimal_lp(m, n, seed).lp, self.HOMOTOPY)
            for seed in range(len(expected))
        ]
        assert [out.status for out in outcomes] == [SolveStatus.OPTIMAL] * len(expected)
        assert [out.iterations for out in outcomes] == expected

    @pytest.mark.parametrize("m,n,seeds", [(5, 10, 60), (20, 30, 20)])
    def test_default_decay_takes_no_more_iterations_than_the_fixed_one(
        self, m, n, seeds, monkeypatch
    ):
        config = SolverConfig(Algorithm.HOMOTOPY, trace=False)
        lps = [generate_optimal_lp(m, n, seed).lp for seed in range(seeds)]
        outcomes = [solve(lp, config) for lp in lps]
        monkeypatch.setattr(solver_module, "_FULL_STEP_SHRINK", 1.0)
        fixed = [solve(lp, config).iterations for lp in lps]
        assert [out.status for out in outcomes] == [SolveStatus.OPTIMAL] * seeds
        assert [
            seed for seed, out in enumerate(outcomes) if out.iterations > fixed[seed]
        ] == []

    def test_constant_mu_iteration_counts_are_pinned(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_basic_vertex", no_vertex)
        expected = [13, 10, 10, 9, 10, 9, 8, 9, 9, 12]
        config = SolverConfig(Algorithm.HOMOTOPY, nu0=0.0, trace=False)
        outcomes = [solve(generate_optimal_lp(5, 10, seed).lp, config) for seed in range(10)]
        assert [out.status for out in outcomes] == [SolveStatus.OPTIMAL] * len(expected)
        assert [out.iterations for out in outcomes] == expected


class TestNonFiniteGuards:
    """The two finiteness exits of the iteration loop that no real input is
    known to reach, each reached by a fake merit evaluation."""

    def test_non_finite_surrogate_with_a_finite_base_merit(self, monkeypatch):
        """The run ends at that iterate, reporting its base merit value and
        the max-norm of its base gradient."""
        lp = generate_optimal_lp(3, 6, 0).lp
        g_base = np.full(2 * lp.n + lp.m, 0.5)
        g_base[0] = -0.75

        def fake_evaluate(spec, lp, z):
            return (1.0, g_base), (math.nan, np.zeros(z.size)), residuals(
                lp, PrimalDualPoint.from_vector(z, lp.n, lp.m)
            )

        monkeypatch.setattr(merit_module, "evaluate", fake_evaluate)
        out = solve(lp, SolverConfig(Algorithm.HOMOTOPY))
        assert out.status is SolveStatus.NUMERICAL_FAILURE
        assert out.iterations == 0
        assert out.final_f == 1.0
        assert out.final_grad_norm == 0.75

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_full_step_keeps_the_last_finite_iterate(self, monkeypatch):
        """lm-adaptive full steps of 1e308 from the least-squares start, whose
        entries round away beside 1e308: the second step overflows, and the
        run ends at the first instead of building a point from inf."""
        lp = generate_optimal_lp(3, 6, 0).lp
        size = 2 * lp.n + lp.m
        g = np.full(size, -1e-3)

        def fake_evaluate(spec, lp, z):
            return (1.0, g), (1.0, g), residuals(lp, PrimalDualPoint.from_vector(z, lp.n, lp.m))

        monkeypatch.setattr(merit_module, "evaluate", fake_evaluate)
        monkeypatch.setattr(
            solver_module, "_newton_step", lambda spec, lp, z, mu, g: np.full(z.size, 1e308)
        )
        out = solve(lp, SolverConfig(Algorithm.LM_ADAPTIVE, trace=False))
        assert out.status is SolveStatus.NUMERICAL_FAILURE
        assert out.iterations == 1
        np.testing.assert_array_equal(out.point.as_vector(), np.full(size, 1e308))


class TestPolish:
    """The polish step of solve: a stable square partition is tried once as
    a basic vertex, which ends the run only when it verifies, and leaves the
    iterates untouched otherwise."""

    HOMOTOPY = SolverConfig(Algorithm.HOMOTOPY)

    @staticmethod
    def _rows(out):
        return [tuple(vars(row).values()) for row in out.trace]

    def _assert_same_run(self, lp, config, monkeypatch):
        """The run with the polish ends exactly as the run without it."""
        polished = solve(lp, config)
        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "_basic_vertex", no_vertex)
            plain = solve(lp, config)
        assert not polished.polished
        assert (polished.status, polished.iterations) == (plain.status, plain.iterations)
        assert polished.point.as_vector().tobytes() == plain.point.as_vector().tobytes()
        assert self._rows(polished) == self._rows(plain)

    #: The counts of the earlier rule, ``PartitionPolish`` in place of
    #: ``_Polish``, which tried B = {j : x_j > s_j} only when |B| = m; the
    #: top-m rule stops no later on any of them.
    PARTITION_RULE_COUNTS = {
        (HOMOTOPY, 5, 10): [13, 4, 4, 5, 17, 2, 3, 4, 8, 3],
        (HOMOTOPY, 50, 75): [10, 16, 7],
        (BASE_MERIT, 5, 10): [10, 7, 7, 4, 6, 2, 3, 4, 5, 6],
    }

    @pytest.mark.parametrize(
        "config,m,n,expected",
        [
            (HOMOTOPY, 5, 10, [2, 1, 1, 3, 1, 1, 1, 2, 1, 3]),
            (HOMOTOPY, 50, 75, [5, 11, 4]),
            (BASE_MERIT, 5, 10, [2, 1, 1, 2, 1, 1, 1, 3, 1, 4]),
        ],
        ids=scheme_id,
    )
    def test_polished_iteration_counts_are_pinned(self, config, m, n, expected):
        partition_rule = self.PARTITION_RULE_COUNTS[config, m, n]
        assert len(expected) == len(partition_rule)
        assert all(new <= old for new, old in zip(expected, partition_rule))
        config = replace(config, trace=False)
        outcomes = [
            solve(generate_optimal_lp(m, n, seed).lp, config) for seed in range(len(expected))
        ]
        assert [(out.status, out.polished) for out in outcomes] == [
            (SolveStatus.OPTIMAL, True)
        ] * len(expected)
        assert [out.iterations for out in outcomes] == expected

    def test_polished_vertex_is_the_last_row(self):
        """The vertex is iterate k + 1; its row comes from the evaluation
        that verified it, at nu decayed by _THETA, and the row before it
        took no Newton step."""
        prob = generate_optimal_lp(5, 10, 6)
        out = solve(prob.lp, self.HOMOTOPY, x_star=prob.known_optimum.x)
        assert out.polished and out.status is SolveStatus.OPTIMAL
        assert len(out.trace) == out.iterations + 1
        before, last = out.trace[-2:]
        assert before.alpha == 0.0 and last.alpha == 0.0
        assert last.nu == before.nu * solver_module._THETA
        q = solver_module._Q[self.HOMOTOPY.algorithm]
        surrogate = MeritSpec(MeritKind.PRIMAL_DUAL, q=q, nu=last.nu)
        assert last.f == merit_module.value_at(surrogate, prob.lp, out.point.as_vector())
        assert max(last.gap, last.primal_res, last.dual_res, last.rel_err_x) < 1e-12
        assert last.min_x == last.min_s == 0.0
        assert out.final_f <= solver_module.VALUE_TOL * prob.lp.scale**2

    def test_polish_is_not_attempted_at_the_iteration_limit(self, monkeypatch):
        log = log_vertex_calls(monkeypatch)
        lp = generate_optimal_lp(5, 10, 6).lp
        first = solve(lp, self.HOMOTOPY)
        assert first.polished and len(log) == 1
        log.clear()
        out = solve(lp, SolverConfig(Algorithm.HOMOTOPY, max_iter=first.iterations - 1))
        assert log == []
        assert out.status is SolveStatus.ITERATION_LIMIT and not out.polished
        assert out.iterations == first.iterations - 1

    def test_singular_basis_leaves_the_run_as_it_was(self, monkeypatch):
        """Column 6 duplicates column 1, which is basic at the optimum; the
        iterates keep the two alike, so the basis {1, 2, 6} is tried once it
        is stable (the look-ahead's LU has already screened it out at the
        start), and LU finds an exactly zero pivot in it, quietly.  The
        basis {1, 2, 3} verifies next; stopped before that attempt, the run
        is the run without the polish."""
        lp = generate_optimal_lp(3, 6, 1).lp
        A = np.column_stack([lp.A, lp.A[:, 1]])
        dup = StandardFormLp(A, lp.b, np.append(lp.c, lp.c[1]))
        log = log_vertex_calls(monkeypatch)
        out = solve(dup, self.HOMOTOPY)
        assert out.polished
        assert log == [([1, 2, 6], False), ([1, 2, 3], True)]
        assert out.polish_attempts == len(log)
        log.clear()
        config = SolverConfig(Algorithm.HOMOTOPY, max_iter=out.iterations - 1)
        self._assert_same_run(dup, config, monkeypatch)
        assert log == [([1, 2, 6], False)]
        assert solver_module._basic_vertex(dup, np.array([1, 2, 6])) is None
        assert solver_module._look_ahead_basis(dup, np.array([1, 2, 6])) is None

    def test_ill_conditioned_basis_is_rejected_quietly(self):
        """Column 2 is column 1 plus 1e-13 times a fixed vector: A_B is
        nonsingular with condition number about 2e13, and its vertex has
        entries near +-5e12."""
        lp = generate_optimal_lp(3, 6, 1).lp
        A = lp.A.copy()
        A[:, 2] = A[:, 1] + 1e-13 * np.array([1.0, -2.0, 0.5])
        basis = np.array([1, 2, 3])
        assert np.linalg.cond(A[:, basis]) > 1e12
        x_B = np.linalg.solve(A[:, basis], lp.b)
        assert x_B.max() > 1e12 and x_B.min() < -1e12
        assert solver_module._basic_vertex(StandardFormLp(A, lp.b, lp.c), basis) is None

    def test_sign_infeasible_vertex_leaves_the_run_as_it_was(self, monkeypatch):
        """On (5, 10, 36) the first basis tried has a vertex with x_B < 0
        or s_N < 0; the second one verifies.  Stopped before the second
        attempt, the run is the run without the polish."""
        prob = generate_optimal_lp(5, 10, 36)
        log = log_vertex_calls(monkeypatch)
        out = solve(prob.lp, self.HOMOTOPY)
        assert out.polished
        assert [found for _, found in log] == [False, True]
        lp, basis = prob.lp, log[0][0]
        x_B = np.linalg.solve(lp.A[:, basis], lp.b)
        s = lp.c - lp.A.T @ np.linalg.solve(lp.A[:, basis].T, lp.c[basis])
        s[basis] = 0.0
        assert min(x_B.min(), s.min()) < 0.0
        config = SolverConfig(Algorithm.HOMOTOPY, max_iter=out.iterations - 1)
        self._assert_same_run(prob.lp, config, monkeypatch)

    def test_scaled_problem_is_solved_to_machine_precision(self):
        """A and b x 1e4 loosen VALUE_TOL * scale^2 by 1e8: the merit test
        alone stopped at relative x error 0.158."""
        prob = generate_optimal_lp(20, 30, 0)
        lp = StandardFormLp(prob.lp.A * 1e4, prob.lp.b * 1e4, prob.lp.c)
        out = solve(lp, self.HOMOTOPY)
        assert out.status is SolveStatus.OPTIMAL and out.polished
        x_star = prob.known_optimum.x
        assert np.linalg.norm(out.point.x - x_star) <= 1e-12 * np.linalg.norm(x_star)

    def test_refined_vertex_has_rounding_level_residuals(self):
        """On (300, 450, 114), c.x* = -0.069 against terms of size 1e3, so
        the gap is relative to about 1.  The plain LU solves left primal and
        dual residuals of 4e-15 and an exact gap c.x - b.lam of 1.4e-12; the
        refinement step takes them to 3e-16, 2e-16 and 1e-14."""
        lp = generate_optimal_lp(300, 450, 114).lp
        out = solve(lp, SolverConfig(Algorithm.HOMOTOPY, trace=False))
        assert out.status is SolveStatus.OPTIMAL and out.polished
        kkt = point_kkt(lp, out.point)
        assert max(kkt["primal"], kkt["dual"]) <= 1e-15
        # the exact gap reaches 1e-14 only with a long double wider than double
        if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
            x, lam = out.point.x, out.point.lam
            cx = sum(Fraction(ci) * Fraction(xi) for ci, xi in zip(lp.c, x))
            blam = sum(Fraction(bi) * Fraction(li) for bi, li in zip(lp.b, lam))
            assert abs(float(cx - blam)) / (1.0 + abs(float(cx)) + abs(float(blam))) <= 1e-13

    @pytest.mark.parametrize("m,n", [(5, 10), (20, 30)])
    def test_adaptive_mu_reaches_a_verified_optimum(self, m, n):
        """LM_ADAPTIVE within the default max_iter, where the merit test alone
        ended at the iteration limit."""
        config = SolverConfig(Algorithm.LM_ADAPTIVE, trace=False)
        for seed in range(10):
            lp = generate_optimal_lp(m, n, seed).lp
            out = solve(lp, config)
            assert out.status is SolveStatus.OPTIMAL, seed
            kkt = point_kkt(lp, out.point)
            assert max(kkt.values()) <= 1e-12, seed

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 12),
        extra=st.integers(1, 12),
        seed=st.integers(0, 10_000),
        config=st.sampled_from(ARMIJO),
    )
    def test_polished_point_is_an_exact_vertex(self, m, extra, seed, config):
        lp = generate_optimal_lp(m, m + extra, seed).lp
        out = solve(lp, replace(config, trace=False))
        if not out.polished:
            return
        x, s = out.point.x, out.point.s
        assert out.status is SolveStatus.OPTIMAL
        assert x.min() >= 0.0 and s.min() >= 0.0
        # x_N = 0 and s_B = 0 for a basis B of m columns
        assert np.count_nonzero(s == 0.0) >= m
        assert np.all(x[s != 0.0] == 0.0)
        assert np.count_nonzero(x) <= m
        kkt = point_kkt(lp, out.point)
        assert max(kkt.values()) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 12),
        extra=st.integers(2, 12),  # an unbounded problem needs n >= m + 2
        seed=st.integers(0, 10_000),
        config=st.sampled_from(SCHEMES),
        generate=st.sampled_from([generate_optimal_lp, generate_unbounded_lp]),
    )
    def test_top_m_basis_never_stops_later(self, m, extra, seed, config, generate):
        """Whenever B = {j : x_j > s_j} has m columns it is the top-m basis,
        so every basis the partition rule tries is tried at the same iterate
        or earlier, and a failed attempt leaves the iterates as they were.
        A run thus ends no later than under the partition rule, with the
        same status, or Optimal where that rule ran out of iterations; a run
        that the polish did not stop is the same run bit for bit."""
        lp = generate(m, m + extra, seed).lp
        config = replace(config, trace=False)
        out = solve(lp, config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver_module, "_Polish", PartitionPolish)
            reference = solve(lp, config)
        assert out.iterations <= reference.iterations
        assert out.status is reference.status or (
            out.status is SolveStatus.OPTIMAL
            and reference.status is SolveStatus.ITERATION_LIMIT
        )
        if not out.polished:
            assert not reference.polished
            assert out.iterations == reference.iterations
            assert out.point.as_vector().tobytes() == reference.point.as_vector().tobytes()

    @pytest.mark.parametrize("m,n,seeds", [(5, 10, 60), (20, 30, 20)])
    def test_look_ahead_never_stops_later(self, m, n, seeds, monkeypatch):
        """With the look-ahead stubbed to find nothing, every run is the run
        of the stable rule alone bit for bit: status, iterations, attempts,
        point and trace.  With it, every run keeps its status and ends no
        later, and the (5, 10) panel ends 111 iterations earlier in all."""
        config = SolverConfig(Algorithm.HOMOTOPY)
        lps = [generate_optimal_lp(m, n, seed).lp for seed in range(seeds)]
        ahead = [solve(lp, config) for lp in lps]
        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "_Polish", StablePolish)
            stable = [solve(lp, config) for lp in lps]
        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "_look_ahead_basis", lambda lp, basis: None)
            screened_out = [solve(lp, config) for lp in lps]
        for plain, reference in zip(screened_out, stable):
            assert (plain.status, plain.iterations, plain.polished, plain.polish_attempts) == (
                reference.status,
                reference.iterations,
                reference.polished,
                reference.polish_attempts,
            )
            assert plain.point.as_vector().tobytes() == reference.point.as_vector().tobytes()
            assert self._rows(plain) == self._rows(reference)
        assert [out.status for out in ahead] == [out.status for out in stable]
        assert [
            seed for seed, (out, ref) in enumerate(zip(ahead, stable))
            if out.iterations > ref.iterations
        ] == []
        if (m, n) == (5, 10):
            assert sum(out.iterations for out in stable) == 230
            assert sum(out.iterations for out in ahead) == 119

    def test_a_basis_the_look_ahead_names_is_factored_once(self, monkeypatch):
        """When the look-ahead names T itself, _basic_vertex refines the
        plain solves of its LU: across the runs, getrf meets every A_B once,
        the named ones included, and the runs still polish."""
        factored, named = [], []
        getrf, look_ahead = linsys_module._getrf, solver_module._look_ahead_basis

        def counting_getrf(a, *args, **kwargs):
            factored.append(np.asarray(a).tobytes())
            return getrf(a, *args, **kwargs)

        def logging_look_ahead(lp, basis):
            ahead = look_ahead(lp, basis)
            if ahead is not None and ahead.tolist() == basis.tolist():
                named.append(lp.A[:, basis].tobytes())
            return ahead

        monkeypatch.setattr(linsys_module, "_getrf", counting_getrf)
        monkeypatch.setattr(solver_module, "_look_ahead_basis", logging_look_ahead)
        for seed in range(10):
            factored.clear()
            named_before = len(named)
            out = solve(generate_optimal_lp(5, 10, seed).lp, SolverConfig(Algorithm.HOMOTOPY))
            assert out.polished
            assert len(factored) == len(set(factored))
            assert all(factored.count(a_b) == 1 for a_b in named[named_before:])
        assert len(named) >= 3

    def test_look_ahead_runs_at_the_start_and_after_one_index_moves(self, monkeypatch):
        """Fed iterates whose top-m bases go {0, 1}, {2, 3}, {2, 4}, {2, 4},
        the polish looks ahead at the start and after the one-index move
        only, and tries the stable basis directly; a basis that the look-ahead
        screens out is not counted as tried."""
        lp = generate_optimal_lp(2, 5, 0).lp
        looked, tried = [], []
        monkeypatch.setattr(
            solver_module,
            "_look_ahead_basis",
            lambda lp, basis: looked.append(basis.tolist()),
        )
        monkeypatch.setattr(
            solver_module, "_basic_vertex", lambda lp, basis: tried.append(basis.tolist())
        )
        polish = solver_module._Polish(lp, stop=None)
        spec = MeritSpec(MeritKind.PRIMAL_DUAL, q=2.1)
        for top in ([0, 1], [2, 3], [2, 4], [2, 4]):
            x = np.zeros(lp.n)
            x[top] = 1.0
            assert polish(np.concatenate([x, np.zeros(lp.m), -x]), spec) is None
        assert looked == [[0, 1], [2, 4]]
        assert tried == [[2, 4]]
        assert polish.tried == {np.array([2, 4]).tobytes()}

    @pytest.mark.parametrize(
        "case",
        [
            pytest.param((5, 10, 0, "columns", np.logspace(-4, 4, 10)), id="columns-1e-4..1e4"),
            pytest.param((5, 10, 2, "uniform", 1e8), id="A,b-x1e8"),
            pytest.param((5, 10, 2, "uniform", 1e10), id="A,b-x1e10"),
            pytest.param((10, 15, 1, "rows", np.logspace(-4, 4, 10)), id="rows-1e-4..1e4"),
        ],
    )
    def test_look_ahead_polishes_badly_scaled_inputs(self, case):
        """Inputs on which the run without the look-ahead ends
        IterationLimit: the columns of A and c of (5, 10, 0) scaled by
        logspace(-4, 4) (at 500 iterations, KKT 1.9e-5), A and b of
        (5, 10, 2) x 1e8 and x 1e10 (at iteration 0, on a first Newton step
        that climbs), the rows of A and b of (10, 15, 1) scaled by
        logspace(-4, 4).  Each now ends at a verified vertex; the scaled
        uniform and row inputs at iteration 1, the start's look-ahead."""
        m, n, seed, kind, factor = case
        prob = generate_optimal_lp(m, n, seed)
        A, b, c = prob.lp.A, prob.lp.b, prob.lp.c
        if kind == "columns":
            lp = StandardFormLp(A * factor, b, c * factor)
        elif kind == "rows":
            lp = StandardFormLp(A * factor[:, None], b * factor, c)
        else:
            lp = StandardFormLp(A * factor, b * factor, c)
        out = solve(lp, SolverConfig(Algorithm.HOMOTOPY, trace=False))
        assert out.status is SolveStatus.OPTIMAL and out.polished
        assert max(point_kkt(lp, out.point).values()) <= 1e-12
        assert out.iterations == (19 if kind == "columns" else 1)


class TestRayCheck:
    """The dual-ray check of solve: a screen at every iterate, a
    projection and the kernel only where the screen passes, and after the
    first verified ray no polish and one more factor in each nu decay."""

    #: The unbounded-escalate panel: iterations and the iterate whose ray
    #: verified (111 iterations in all, 11 or 12 each, without the check).
    PANEL_ITERATIONS = [9, 8, 8, 8, 8, 9, 7, 10, 8, 8]
    PANEL_VERIFIED_AT = [5, 4, 3, 3, 4, 5, 2, 3, 3, 3]

    @staticmethod
    def _spy(monkeypatch):
        """Counts of the projections and kernel calls that solve makes."""
        counts = {"project_ray": 0, "is_dual_ray": 0}
        for name in counts:
            real = getattr(solver_module, name)

            def counting(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(solver_module, name, counting)
        return counts

    @pytest.mark.parametrize("config", SCHEMES, ids=scheme_id)
    def test_optimal_runs_only_pay_the_screen(self, config, monkeypatch):
        """No iterate of a problem with an optimum passes the screen, so no
        run projects or calls the kernel, and none reports a ray."""
        counts = self._spy(monkeypatch)
        config = replace(config, trace=False)
        for m, n, seeds in [(5, 10, 60), (20, 30, 20), (300, 450, 3)]:
            for seed in range(seeds):
                out = solve(generate_optimal_lp(m, n, seed).lp, config)
                assert out.ray is None and out.ray_verified_at is None
        assert counts == {"project_ray": 0, "is_dual_ray": 0}

    @pytest.mark.parametrize("seed", [0, 2])
    def test_no_iterate_of_a_c_scaled_input_verifies(self, seed, monkeypatch):
        """c x 1e8 on (5, 10, seed), which has an optimum: neither the raw d
        nor its projection passes the kernel at any iterate."""
        prob = generate_optimal_lp(5, 10, seed).lp
        lp = StandardFormLp(prob.A, prob.b, prob.c * 1e8)
        sigmas = []
        real_evaluate = merit_module.evaluate

        def recording(spec, lp, z):
            evaluation = real_evaluate(spec, lp, z)
            sigmas.append(evaluation[2][2])
            return evaluation

        monkeypatch.setattr(merit_module, "evaluate", recording)
        out = solve(lp, SolverConfig(Algorithm.HOMOTOPY))
        assert out.ray is None and out.ray_verified_at is None
        assert len(sigmas) == out.iterations + 1
        for sigma in sigmas:
            d = np.maximum(-sigma, 0.0)
            assert not is_dual_ray(lp, d)
            if d.max() > 0.0:
                assert not is_dual_ray(lp, project_ray(lp, d))

    def test_panel_verifies_a_ray_and_stops_polishing(self, monkeypatch):
        """On the panel the ray verifies at iterate 2 to 5, the polish is
        tried at the iterates before it only, and the runs end earlier with
        the same label."""
        calls = []

        class CountingPolish(solver_module._Polish):
            def __call__(self, z, spec):
                calls.append(None)
                return super().__call__(z, spec)

        monkeypatch.setattr(solver_module, "_Polish", CountingPolish)
        config = SolverConfig(Algorithm.HOMOTOPY, trace=False)
        iterations, verified_at = [], []
        for seed in range(10):
            lp = generate_unbounded_lp(150, 450, seed).lp
            calls.clear()
            out = solve(lp, config)
            assert out.status is SolveStatus.NO_OPTIMAL_SOLUTION
            assert out.classification is Classification.PRIMAL_FEASIBLE_DUAL_INFEASIBLE
            assert is_dual_ray(lp, out.ray)
            assert len(calls) == out.ray_verified_at
            assert not out.polished
            iterations.append(out.iterations)
            verified_at.append(out.ray_verified_at)
        assert iterations == self.PANEL_ITERATIONS
        assert verified_at == self.PANEL_VERIFIED_AT

    @pytest.mark.parametrize("seed", [0, 7])
    def test_certified_decay_takes_one_more_factor(self, seed):
        """nu falls by _THETA or _THETA * _FULL_STEP_SHRINK, as the step
        length says, and from the verified iterate on by one more
        _THETA * _FULL_STEP_SHRINK."""
        out = solve(generate_unbounded_lp(150, 450, seed).lp, SolverConfig(Algorithm.HOMOTOPY))
        full = solver_module._THETA * solver_module._FULL_STEP_SHRINK
        for row, following in zip(out.trace, out.trace[1:]):
            factor = full if row.alpha == 1.0 else solver_module._THETA
            extra = full if row.k >= out.ray_verified_at else 1.0
            assert following.nu == row.nu * (factor * extra)

    @pytest.mark.parametrize("config", SCHEMES, ids=scheme_id)
    @pytest.mark.parametrize("m,n", [(30, 90), (10, 30)])
    def test_a_run_that_ends_holding_a_verified_ray_has_no_optimum(
        self, m, n, config, monkeypatch
    ):
        """A and b x 1e4 on unbounded problems: the ray verifies within the
        first ten iterates, but the value stays below the no-optimum
        threshold, which grows with ||A||_F^2, so the stop test decides
        nothing and the run ends on a failed step or at max_iter.  A run
        that ends IterationLimit while it holds a verified ray reports
        NoOptimalSolution, classified by the primal residual, with the ray;
        with the check stubbed out the same runs end IterationLimit."""
        config = replace(config, trace=False)
        for seed in range(3):
            lp = generate_unbounded_lp(m, n, seed).lp
            lp = StandardFormLp(lp.A * 1e4, lp.b * 1e4, lp.c)
            out = solve(lp, config)
            assert out.status is SolveStatus.NO_OPTIMAL_SOLUTION
            assert out.classification is Classification.PRIMAL_FEASIBLE_DUAL_INFEASIBLE
            assert out.ray_verified_at <= 10 and is_dual_ray(lp, out.ray)
            with monkeypatch.context() as patch:
                patch.setattr(solver_module._RayCheck, "__call__", lambda self, k, res: False)
                unchecked = solve(lp, config)
            assert unchecked.status is SolveStatus.ITERATION_LIMIT
            assert unchecked.ray is None

    def test_the_adaptive_scheme_verifies_a_ray_and_keeps_its_iterates(self, monkeypatch):
        """LM_ADAPTIVE runs the check too; its nu is 0, so a verified ray
        only ends the polish: the run is the one in which no ray verifies,
        bit for bit, with no more polish attempts."""
        lp = generate_unbounded_lp(3, 8, 0).lp
        config = SolverConfig(Algorithm.LM_ADAPTIVE)
        out = solve(lp, config)
        assert out.status is SolveStatus.NO_OPTIMAL_SOLUTION
        assert out.ray_verified_at is not None and is_dual_ray(lp, out.ray)
        monkeypatch.setattr(solver_module._RayCheck, "__call__", lambda self, k, res: False)
        unchecked = solve(lp, config)
        assert unchecked.ray is None
        assert (out.status, out.iterations) == (unchecked.status, unchecked.iterations)
        assert out.point.as_vector().tobytes() == unchecked.point.as_vector().tobytes()
        # repr tells -0.0 from 0.0 and gives every float in full
        assert repr(out.trace) == repr(unchecked.trace)
        assert out.polish_attempts <= unchecked.polish_attempts

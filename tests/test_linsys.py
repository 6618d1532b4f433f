"""Structured Newton solves against the dense reference path."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from helpers import random_homogeneous, random_primal_dual

from lpmerit import linsys
from lpmerit import (
    FactorizationFailure,
    HomogeneousPoint,
    KindMismatch,
    MeritKind,
    MeritSpec,
    NonPositiveRegularization,
    PrimalDualPoint,
    ReducedSystem,
    StandardFormLp,
    build_reduced,
    cholesky_rank_one_update,
    eval_gradient,
    eval_hessian,
    generate_optimal_lp,
    generate_unbounded_lp,
    solve_dense,
    solve_structured,
)

BASE3 = MeritSpec(MeritKind.BASE, q=3.0)
HOMOGENEOUS3 = MeritSpec(MeritKind.HOMOGENEOUS, q=3.0)


def _random_point(spec, rng, n, m, scale=1.0):
    draw = random_homogeneous if spec.kind is MeritKind.HOMOGENEOUS else random_primal_dual
    return draw(rng, n, m, scale=scale)


class TestBuildReduced:
    def test_nonnegative_point_gives_pure_mu_diagonals(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        p = PrimalDualPoint([0.5, 0.2], [0.3], [0.1, 0.4])
        system = build_reduced(BASE3, lp, p.as_vector(), 1e-2, eval_gradient(BASE3, lp, p))
        np.testing.assert_array_equal(system.d1, [1e-2, 1e-2])
        np.testing.assert_array_equal(system.d2, [1e-2])
        np.testing.assert_array_equal(system.d3, [1e-2, 1e-2])

    def test_negative_x_feeds_the_penalty_diagonal(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        p = PrimalDualPoint([-2.0, 1.0], [0.0], [0.5, 0.5])
        system = build_reduced(BASE3, lp, p.as_vector(), 0.5, eval_gradient(BASE3, lp, p))
        np.testing.assert_array_equal(system.d1, [2.5, 0.5])

    def test_homotopy_adds_two_nu_to_the_lambda_block(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        spec = MeritSpec(MeritKind.HOMOTOPY, q=3.0, nu=0.1)
        p = PrimalDualPoint([0.0, 0.0], [0.7], [0.0, 0.0])
        system = build_reduced(spec, lp, p.as_vector(), 1e-9, eval_gradient(spec, lp, p))
        np.testing.assert_allclose(system.d2, [1e-9 + 0.2], rtol=0, atol=0)

    def test_rhs_is_negative_gradient(self):
        prob = generate_optimal_lp(3, 6, 0)
        p = random_primal_dual(np.random.default_rng(1), 6, 3)
        g = eval_gradient(BASE3, prob.lp, p)
        system = build_reduced(BASE3, prob.lp, p.as_vector(), 1e-3, g)
        np.testing.assert_array_equal(
            np.concatenate([system.rhs_x, system.rhs_lam, system.rhs_s]), -g
        )
        np.testing.assert_array_equal(system.v, np.concatenate([prob.lp.c, -prob.lp.b]))

    def test_requires_positive_mu(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        with pytest.raises(NonPositiveRegularization):
            build_reduced(BASE3, lp, PrimalDualPoint.zeros(2, 1).as_vector(), 0.0, np.zeros(5))

    def test_rejects_homogeneous_spec(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        with pytest.raises(KindMismatch):
            build_reduced(
                MeritSpec(MeritKind.HOMOGENEOUS, q=3.0),
                lp,
                PrimalDualPoint.zeros(2, 1).as_vector(),
                1.0,
                np.zeros(5),
            )


class TestRankOneUpdate:
    def test_identity_plus_e1(self):
        factor = cholesky_rank_one_update(np.eye(2), np.array([1.0, 0.0]))
        np.testing.assert_allclose(factor, np.diag([np.sqrt(2.0), 1.0]), rtol=1e-15)

    def test_zero_vector_is_identity_operation(self):
        L = np.linalg.cholesky(np.array([[4.0, 1.0], [1.0, 3.0]]))
        np.testing.assert_array_equal(cholesky_rank_one_update(L, np.zeros(2)), L)

    def test_matches_refactorization(self):
        """Oracle: refactorize M + v v' from scratch and compare factors."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = rng.integers(2, 12)
            R = rng.standard_normal((k, k))
            M = R @ R.T + np.eye(k)
            v = rng.standard_normal(k) * rng.uniform(0.5, 20.0)
            updated = cholesky_rank_one_update(np.linalg.cholesky(M), v)
            target = M + np.outer(v, v)
            err = np.linalg.norm(updated @ updated.T - target, "fro")
            assert err <= 1e-10 * np.linalg.norm(target, "fro")
            assert np.all(np.diag(updated) > 0)
            assert np.allclose(updated, np.tril(updated))

    def test_input_factor_is_not_mutated(self):
        L = np.linalg.cholesky(np.array([[2.0, 0.5], [0.5, 1.0]]))
        before = L.copy()
        cholesky_rank_one_update(L, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(L, before)


class TestSolveDense:
    def test_desk_3x3_system(self):
        """(H + I) delta = (1,1,1) on the 1x1 desk problem at the origin; the
        system matrix is [[3,-1,0],[-1,3,1],[0,1,2]] with determinant 13, so
        delta = (6, 5, 4)/13 (recomputed independently)."""
        lp = StandardFormLp([[1.0]], [1.0], [1.0], allow_square=True)
        delta = solve_dense(BASE3, lp, PrimalDualPoint.zeros(1, 1).as_vector(), 1.0, np.ones(3))
        np.testing.assert_allclose(delta, np.array([6.0, 5.0, 4.0]) / 13.0, rtol=1e-12)

    def test_zero_rhs_gives_zero(self):
        prob = generate_optimal_lp(3, 6, 1)
        delta = solve_dense(BASE3, prob.lp, PrimalDualPoint.zeros(6, 3).as_vector(), 1e-2, np.zeros(15))
        np.testing.assert_array_equal(delta, np.zeros(15))

    def test_residual_is_tiny(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            prob = generate_optimal_lp(4, 9, seed)
            p = random_primal_dual(rng, 9, 4)
            rhs = rng.standard_normal(22)
            delta = solve_dense(BASE3, prob.lp, p.as_vector(), 1e-3, rhs)
            from lpmerit import eval_hessian

            H = eval_hessian(BASE3, prob.lp, p).full()
            H[np.diag_indices_from(H)] += 1e-3
            res = np.linalg.norm(H @ delta - rhs)
            assert res <= 1e-12 * (1.0 + np.linalg.norm(rhs))

    def test_requires_positive_mu(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        with pytest.raises(NonPositiveRegularization):
            solve_dense(BASE3, lp, PrimalDualPoint.zeros(2, 1).as_vector(), -1.0, np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises_factorization_failure(self, bad, monkeypatch):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        monkeypatch.setattr(
            linsys.merit, "penalty_diagonal_at", lambda spec, lp, z: np.full(z.size, bad)
        )
        with pytest.raises(FactorizationFailure):
            solve_dense(BASE3, lp, PrimalDualPoint.zeros(2, 1).as_vector(), 1.0, np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -2.0])
    def test_bad_s_block_raises_factorization_failure(self, bad, monkeypatch):
        """The eliminated s block is checked on its own: a NaN, an inf or a
        non-positive d_s = 1 + diag[s] never reaches the factored remainder."""
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])

        def s_block_only(spec, lp, z):
            d = np.zeros(z.size)
            d[lp.n + lp.m : 2 * lp.n + lp.m] = bad
            return d

        monkeypatch.setattr(linsys.merit, "penalty_diagonal_at", s_block_only)
        with pytest.raises(FactorizationFailure):
            solve_dense(BASE3, lp, PrimalDualPoint.zeros(2, 1).as_vector(), 1.0, np.zeros(5))

    @pytest.mark.parametrize(
        "spec",
        [BASE3, MeritSpec(MeritKind.HOMOTOPY, q=2.1, nu=0.3), HOMOGENEOUS3],
        ids=lambda spec: spec.kind.name,
    )
    def test_matches_an_independent_dense_solve(self, spec):
        """Oracle: np.linalg.solve on the full hessian + mu*I, with no block
        eliminated.  Points with negative entries make every block of the
        penalty diagonal, tau and kappa included, nonzero."""
        rng = np.random.default_rng(31)
        for seed in range(5):
            prob = generate_optimal_lp(4, 9, seed)
            point = _random_point(spec, rng, 9, 4, scale=2.0)
            H = eval_hessian(spec, prob.lp, point).full()
            H[np.diag_indices_from(H)] += 1e-3
            rhs = rng.standard_normal(H.shape[0])
            expected = np.linalg.solve(H, rhs)
            delta = solve_dense(spec, prob.lp, point.as_vector(), 1e-3, rhs)
            assert np.linalg.norm(delta - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_homogeneous_full_system_residual_at_tiny_mu(self):
        """At mu = 1e-9 the eliminated solve, refined once against the full
        base, must satisfy the full homogeneous system near round-off."""
        rng = np.random.default_rng(22)
        for seed in range(10):
            generate = generate_unbounded_lp if seed % 2 else generate_optimal_lp
            lp = generate(8, 20, seed).lp
            point = random_homogeneous(rng, 20, 8, scale=2.0)
            g = eval_gradient(HOMOGENEOUS3, lp, point)
            delta = solve_dense(HOMOGENEOUS3, lp, point.as_vector(), 1e-9, -g)
            H = eval_hessian(HOMOGENEOUS3, lp, point).full()
            H[np.diag_indices_from(H)] += 1e-9
            res = np.linalg.norm(H @ delta + g)
            assert res <= 1e-12 * (1.0 + np.linalg.norm(g))

    @pytest.mark.parametrize("spec", [BASE3, HOMOGENEOUS3], ids=lambda spec: spec.kind.name)
    def test_one_factorization_without_the_s_block(self, spec, monkeypatch):
        """Only the remainder over (x, lam[, tau, kappa]) is factored, and the
        solve and its refinement take one triangular solve each."""
        factored, solved = [], []

        def counting_factor(M, **kwargs):
            factored.append(M.shape)
            return cho_factor(M, **kwargs)

        def counting_solve(factor, rhs, **kwargs):
            solved.append(np.shape(rhs))
            return cho_solve(factor, rhs, **kwargs)

        monkeypatch.setattr(linsys, "cho_factor", counting_factor)
        monkeypatch.setattr(linsys, "cho_solve", counting_solve)
        prob = generate_optimal_lp(4, 9, 2)
        point = _random_point(spec, np.random.default_rng(5), 9, 4)
        g = eval_gradient(spec, prob.lp, point)
        solve_dense(spec, prob.lp, point.as_vector(), 1e-6, -g)
        order = 9 + 4 + (2 if spec.kind is MeritKind.HOMOGENEOUS else 0)
        assert factored == [(order, order)]
        assert solved == [(order,), (order,)]

    def test_first_call_allocates_less_than_one_full_base(self):
        """The first solve on a fresh problem builds and caches the base of
        order n+m+2 only: its traced peak stays below the size of one
        (2n+m+2)^2 float64 matrix.  A'A, the problem's own cached Gram matrix
        that the structured solve shares, is formed before tracing starts."""
        m, n = 150, 450
        lp = generate_unbounded_lp(m, n, 0).lp
        point = HomogeneousPoint.ones(n, m)
        g = eval_gradient(HOMOGENEOUS3, lp, point)
        lp.gram
        tracemalloc.start()
        try:
            solve_dense(HOMOGENEOUS3, lp, point.as_vector(), 1e-9, -g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * n + m + 2) ** 2 * 8


def _structured_vs_dense(spec, lp, point, mu):
    g = eval_gradient(spec, lp, point)
    system = build_reduced(spec, lp, point.as_vector(), mu, g)
    dx, dlam, ds = solve_structured(system, lp)
    delta = np.concatenate([dx, dlam, ds])
    dense = solve_dense(spec, lp, point.as_vector(), mu, -g)
    assert np.linalg.norm(delta - dense) <= 1e-8 * (1.0 + np.linalg.norm(dense))


def _reduced_reference(system, lp, reference):
    """Solve the reduced (n+m) system (M + v v') u = r independently of
    solve_structured: either through the Cholesky factor of M updated by
    cholesky_rank_one_update, or through the Sherman-Morrison identity with
    dense solves against M."""
    A, m, n = lp.A, lp.m, lp.n
    shift = 1.0 + system.d3
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A.T @ A + np.diag(system.d1)
    M[n:, n:] = (A * (system.d3 / shift)) @ A.T + np.diag(system.d2)
    r = np.concatenate([system.rhs_x, system.rhs_lam - A @ (system.rhs_s / shift)])
    v = system.v
    if reference == "cholesky-update":
        L = cholesky_rank_one_update(np.linalg.cholesky(M), v)
        return cho_solve((L, True), r)
    u0 = np.linalg.solve(M, r)
    y = np.linalg.solve(M, v)
    return u0 - y * (v @ u0) / (1.0 + v @ y)


class TestSolveStructured:
    @pytest.mark.parametrize("reference", ["cholesky-update", "sherman-morrison"])
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 6), (5, 8), (10, 30)])
    def test_matches_dense_solve(self, m, n, reference):
        """The structured step matches the dense full-system solve, and its
        (dx, dlam) part matches a reduced-system solve that absorbs the
        rank-one coupling by ``reference``."""
        rng = np.random.default_rng(100 * m + n)
        for seed in range(5):
            prob = generate_optimal_lp(m, n, seed)
            point = random_primal_dual(rng, n, m, scale=2.0)
            mu = 10.0 ** rng.uniform(-6, -1)
            spec = (
                MeritSpec(MeritKind.HOMOTOPY, q=2.1, nu=0.3) if seed % 2 else BASE3
            )
            _structured_vs_dense(spec, prob.lp, point, mu)
            system = build_reduced(
                spec, prob.lp, point.as_vector(), mu, eval_gradient(spec, prob.lp, point)
            )
            dx, dlam, _ = solve_structured(system, prob.lp)
            u = np.concatenate([dx, dlam])
            expected = _reduced_reference(system, prob.lp, reference)
            assert np.linalg.norm(u - expected) <= 1e-8 * (1.0 + np.linalg.norm(expected))

    def test_full_system_residual_at_tiny_mu(self):
        """At mu = 1e-9 the system is too ill-conditioned for forward
        comparison, but the structured solution must still satisfy the full
        system to a small relative residual."""
        from lpmerit import eval_hessian

        rng = np.random.default_rng(21)
        for seed in range(10):
            prob = generate_optimal_lp(8, 20, seed)
            point = random_primal_dual(rng, 20, 8, scale=2.0)
            g = eval_gradient(BASE3, prob.lp, point)
            system = build_reduced(BASE3, prob.lp, point.as_vector(), 1e-9, g)
            dx, dlam, ds = solve_structured(system, prob.lp)
            delta = np.concatenate([dx, dlam, ds])
            H = eval_hessian(BASE3, prob.lp, point).full()
            H[np.diag_indices_from(H)] += 1e-9
            res = np.linalg.norm(H @ delta + g)
            assert res <= 1e-10 * (1.0 + np.linalg.norm(g))

    def test_large_coupling_vector(self):
        """Stress the rank-one path with ||c|| = 1e3."""
        prob = generate_optimal_lp(5, 8, 9)
        c = prob.lp.c * (1e3 / np.linalg.norm(prob.lp.c))
        lp = StandardFormLp(prob.lp.A, prob.lp.b, c)
        rng = np.random.default_rng(10)
        for _ in range(2):
            point = random_primal_dual(rng, 8, 5)
            _structured_vs_dense(BASE3, lp, point, 1e-4)

    def test_decoupled_when_v_is_zero(self):
        """With b = 0 and c = 0 the rank-one coupling vanishes; the structured
        path must reproduce the plain block-diagonal solve."""
        lp = StandardFormLp([[1.0, 1.0]], [0.0], [0.0, 0.0])
        system = ReducedSystem(
            d1=np.ones(2),
            d2=np.ones(1),
            d3=np.ones(2),
            rhs_x=np.array([1.0, 0.0]),
            rhs_lam=np.zeros(1),
            rhs_s=np.zeros(2),
            v=np.zeros(3),
        )
        dx, dlam, ds = solve_structured(system, lp)
        A = lp.A
        full = np.zeros((5, 5))
        full[:2, :2] = A.T @ A + np.eye(2)
        full[2:3, 2:3] = A @ A.T + np.eye(1)
        full[2:3, 3:] = A
        full[3:, 2:3] = A.T
        full[3:, 3:] = 2.0 * np.eye(2)
        expected = np.linalg.solve(full, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(np.concatenate([dx, dlam, ds]), expected, atol=1e-12)

    def test_factorization_sizes_are_instrumented(self, monkeypatch):
        factored = []
        factor = linsys._factor

        def recording_factor(M):
            factored.append(M.shape)
            return factor(M)

        monkeypatch.setattr(linsys, "_factor", recording_factor)
        prob = generate_optimal_lp(4, 9, 2)
        point = random_primal_dual(np.random.default_rng(5), 9, 4)
        system = build_reduced(
            BASE3, prob.lp, point.as_vector(), 1e-6, eval_gradient(BASE3, prob.lp, point)
        )
        solve_structured(system, prob.lp)
        assert factored == [(9, 9), (4, 4)]

    def test_descent_direction(self):
        """(hessian + mu I) is positive definite, so the step opposes the gradient."""
        rng = np.random.default_rng(6)
        for seed in range(20):
            prob = generate_optimal_lp(3, 7, seed)
            point = random_primal_dual(rng, 7, 3, scale=2.0)
            mu = 10.0 ** rng.uniform(-9, -1)
            g = eval_gradient(BASE3, prob.lp, point)
            system = build_reduced(BASE3, prob.lp, point.as_vector(), mu, g)
            dx, dlam, ds = solve_structured(system, prob.lp)
            assert g @ np.concatenate([dx, dlam, ds]) < 0.0

    def test_invariant_breach_raises_factorization_failure(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        bad = ReducedSystem(
            d1=np.array([-1e3, -1e3]),  # violates positivity, block not SPD
            d2=np.ones(1),
            d3=np.ones(2),
            rhs_x=np.zeros(2),
            rhs_lam=np.zeros(1),
            rhs_s=np.zeros(2),
            v=np.zeros(3),
        )
        with pytest.raises(FactorizationFailure):
            solve_structured(bad, lp)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_raises_factorization_failure(self, bad):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        system = ReducedSystem(
            d1=np.array([bad, 1.0]),
            d2=np.ones(1),
            d3=np.ones(2),
            rhs_x=np.zeros(2),
            rhs_lam=np.zeros(1),
            rhs_s=np.zeros(2),
            v=np.zeros(3),
        )
        with pytest.raises(FactorizationFailure):
            solve_structured(system, lp)

    def test_four_triangular_solves_per_step(self, monkeypatch):
        """M^{-1}v and the first solve share one two-column solve per block;
        the refinement solve takes one more per block."""
        calls = []

        def counting(factor, rhs, **kwargs):
            calls.append(np.shape(rhs))
            return cho_solve(factor, rhs, **kwargs)

        monkeypatch.setattr(linsys, "cho_solve", counting)
        prob = generate_optimal_lp(4, 9, 2)
        point = random_primal_dual(np.random.default_rng(5), 9, 4)
        g = eval_gradient(BASE3, prob.lp, point)
        solve_structured(build_reduced(BASE3, prob.lp, point.as_vector(), 1e-6, g), prob.lp)
        assert calls == [(9, 2), (4, 2), (9,), (4,)]

    def test_problem_gram_matrix_is_left_unchanged(self):
        prob = generate_optimal_lp(4, 9, 3)
        before = prob.lp.gram.copy()
        point = random_primal_dual(np.random.default_rng(8), 9, 4)
        g = eval_gradient(BASE3, prob.lp, point)
        solve_structured(build_reduced(BASE3, prob.lp, point.as_vector(), 1e-6, g), prob.lp)
        assert np.array_equal(prob.lp.gram, before)


class TestInputGuards:
    def test_solve_dense_rejects_a_rhs_of_the_wrong_shape(self):
        lp = generate_optimal_lp(3, 6, 0).lp
        z = np.zeros(2 * lp.n + lp.m)
        with pytest.raises(ValueError, match="rhs must have shape"):
            solve_dense(BASE3, lp, z, 1e-3, np.zeros(z.size + 1))

    def test_rank_one_update_rejects_inconsistent_sizes(self):
        with pytest.raises(ValueError, match="inconsistent"):
            cholesky_rank_one_update(np.eye(3), np.ones(2))

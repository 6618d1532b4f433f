"""Both Newton solves against an explicit-Hessian oracle."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve
from helpers import (
    duplicated_row_lp,
    eval_hessian,
    filled_point,
    random_homogeneous,
    random_primal_dual,
    reference_look_ahead_basis,
)

from lpmerit import linsys
from lpmerit.merit import gradient_at
from lpmerit import (
    FactorizationFailure,
    HomogeneousPoint,
    KindMismatch,
    MeritKind,
    MeritSpec,
    NonPositiveRegularization,
    PrimalDualPoint,
    StandardFormLp,
    build_reduced,
    cholesky_rank_one_update,
    generate_optimal_lp,
    generate_unbounded_lp,
    least_squares_start,
    solve_dense,
    solve_structured,
)

BASE3 = MeritSpec(MeritKind.PRIMAL_DUAL, q=3.0)
HOMOTOPY3 = MeritSpec(MeritKind.PRIMAL_DUAL, q=2.1, nu=0.3)
HOMOGENEOUS3 = MeritSpec(MeritKind.HOMOGENEOUS, q=3.0)
#: A homogeneous point of the (1, 2) problems below, as a flat iterate.
ONES_2_1 = filled_point(HomogeneousPoint, 2, 1, 1.0).as_vector()


def _random_point(spec, rng, n, m, scale=1.0):
    draw = random_homogeneous if spec.kind is MeritKind.HOMOGENEOUS else random_primal_dual
    return draw(rng, n, m, scale=scale)


def _oracle(spec, lp, point, mu, rhs):
    """np.linalg.solve on eval_hessian's full J'J + diag + mu*I: no block is
    eliminated, and no code is shared with either Newton solve."""
    H = eval_hessian(spec, lp, point).full()
    H[np.diag_indices_from(H)] += mu
    return np.linalg.solve(H, rhs)


def _newton_solve(spec, lp, z, mu, rhs):
    """The Newton solve of the merit kind, as the solver picks it."""
    if spec.kind is MeritKind.HOMOGENEOUS:
        return solve_dense(spec, lp, z, mu, rhs)
    return solve_structured(*build_reduced(spec, lp, z, mu, -rhs), lp)


class TestBuildReduced:
    def test_nonnegative_point_gives_pure_mu_diagonals(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        z = PrimalDualPoint([0.5, 0.2], [0.3], [0.1, 0.4]).as_vector()
        d, _ = build_reduced(BASE3, lp, z, 1e-2, gradient_at(BASE3, lp, z))
        np.testing.assert_array_equal(d, [1e-2] * 5)

    def test_negative_x_feeds_the_penalty_diagonal(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        z = PrimalDualPoint([-2.0, 1.0], [0.0], [0.5, 0.5]).as_vector()
        d, _ = build_reduced(BASE3, lp, z, 0.5, gradient_at(BASE3, lp, z))
        np.testing.assert_array_equal(d[:2], [2.5, 0.5])

    def test_homotopy_adds_two_nu_to_the_lambda_block(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        spec = MeritSpec(MeritKind.PRIMAL_DUAL, q=3.0, nu=0.1)
        z = PrimalDualPoint([0.0, 0.0], [0.7], [0.0, 0.0]).as_vector()
        d, _ = build_reduced(spec, lp, z, 1e-9, gradient_at(spec, lp, z))
        np.testing.assert_allclose(d[2:3], [1e-9 + 0.2], rtol=0, atol=0)

    def test_rhs_is_negative_gradient(self):
        prob = generate_optimal_lp(3, 6, 0)
        p = random_primal_dual(np.random.default_rng(1), 6, 3)
        g = gradient_at(BASE3, prob.lp, p.as_vector())
        _, rhs = build_reduced(BASE3, prob.lp, p.as_vector(), 1e-3, g)
        np.testing.assert_array_equal(rhs, -g)

    def test_requires_positive_mu(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        origin = filled_point(PrimalDualPoint, 2, 1, 0.0).as_vector()
        with pytest.raises(NonPositiveRegularization):
            build_reduced(BASE3, lp, origin, 0.0, np.zeros(5))

    def test_rejects_homogeneous_spec(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        with pytest.raises(KindMismatch):
            build_reduced(
                MeritSpec(MeritKind.HOMOGENEOUS, q=3.0),
                lp,
                filled_point(PrimalDualPoint, 2, 1, 0.0).as_vector(),
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
        """(H + I) delta = ones on the 1x1 desk problem at the origin.  For
        the primal-dual merit the matrix is [[3,-1,0],[-1,3,1],[0,1,2]] with
        determinant 13, so delta = (6, 5, 4)/13: the oracle and the
        structured solve give it, and solve_dense rejects the spec.  For the
        homogeneous merit it is [[3,-1,0,-1,1],[-1,3,1,-1,-1],[0,1,2,-1,0],
        [-1,-1,-1,3,0],[1,-1,0,0,2]] with determinant 35, so
        delta = (6, 7, 4, 8, 4)/7 (both recomputed independently)."""
        lp = StandardFormLp([[1.0]], [1.0], [1.0], allow_square=True)
        origin = filled_point(PrimalDualPoint, 1, 1, 0.0)
        expected = np.array([6.0, 5.0, 4.0]) / 13.0
        oracle = _oracle(BASE3, lp, origin, 1.0, np.ones(3))
        np.testing.assert_allclose(oracle, expected, rtol=1e-12)
        delta = _newton_solve(BASE3, lp, origin.as_vector(), 1.0, np.ones(3))
        np.testing.assert_allclose(delta, expected, rtol=1e-12)
        with pytest.raises(KindMismatch):
            solve_dense(BASE3, lp, origin.as_vector(), 1.0, np.ones(3))
        z = HomogeneousPoint([0.0], [0.0], [0.0], 0.0, 0.0).as_vector()
        delta = solve_dense(HOMOGENEOUS3, lp, z, 1.0, np.ones(5))
        np.testing.assert_allclose(delta, np.array([6.0, 7.0, 4.0, 8.0, 4.0]) / 7.0, rtol=1e-12)

    @pytest.mark.parametrize("spec", [BASE3, HOMOTOPY3], ids=["base", "homotopy"])
    def test_rejects_primal_dual_spec(self, spec):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        origin = filled_point(PrimalDualPoint, 2, 1, 0.0).as_vector()
        with pytest.raises(KindMismatch, match="only the homogeneous merit"):
            solve_dense(spec, lp, origin, 1.0, np.zeros(5))

    def test_zero_rhs_gives_zero(self):
        prob = generate_optimal_lp(3, 6, 1)
        z = filled_point(HomogeneousPoint, 6, 3, 1.0).as_vector()
        delta = solve_dense(HOMOGENEOUS3, prob.lp, z, 1e-2, np.zeros(17))
        np.testing.assert_array_equal(delta, np.zeros(17))

    def test_residual_is_tiny(self):
        """The primal-dual case, which solve_dense no longer serves, checked
        on the structured solve against the explicit Hessian; the homogeneous
        residual is checked at tiny mu below."""
        rng = np.random.default_rng(4)
        for seed in range(10):
            prob = generate_optimal_lp(4, 9, seed)
            p = random_primal_dual(rng, 9, 4)
            rhs = rng.standard_normal(22)
            delta = _newton_solve(BASE3, prob.lp, p.as_vector(), 1e-3, rhs)
            H = eval_hessian(BASE3, prob.lp, p).full()
            H[np.diag_indices_from(H)] += 1e-3
            res = np.linalg.norm(H @ delta - rhs)
            assert res <= 1e-12 * (1.0 + np.linalg.norm(rhs))

    def test_requires_positive_mu(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        with pytest.raises(NonPositiveRegularization):
            solve_dense(HOMOGENEOUS3, lp, ONES_2_1, -1.0, np.zeros(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises_factorization_failure(self, bad, monkeypatch):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        monkeypatch.setattr(
            linsys.merit, "penalty_diagonal_at", lambda spec, lp, z: np.full(z.size, bad)
        )
        with pytest.raises(FactorizationFailure):
            solve_dense(HOMOGENEOUS3, lp, ONES_2_1, 1.0, np.zeros(7))

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
            solve_dense(HOMOGENEOUS3, lp, ONES_2_1, 1.0, np.zeros(7))

    @pytest.mark.parametrize(
        "spec", [BASE3, HOMOTOPY3, HOMOGENEOUS3], ids=["BASE", "HOMOTOPY", "HOMOGENEOUS"]
    )
    def test_matches_an_independent_dense_solve(self, spec):
        """Oracle: np.linalg.solve on the full hessian + mu*I, with no block
        eliminated, against the Newton solve of each merit: solve_dense for
        the homogeneous one, solve_structured for the base merit and its
        nu-surrogate.  Points with negative entries make every block of the
        penalty diagonal, tau and kappa included, nonzero."""
        rng = np.random.default_rng(31)
        for seed in range(5):
            prob = generate_optimal_lp(4, 9, seed)
            point = _random_point(spec, rng, 9, 4, scale=2.0)
            rhs = rng.standard_normal(point.as_vector().size)
            expected = _oracle(spec, prob.lp, point, 1e-3, rhs)
            delta = _newton_solve(spec, prob.lp, point.as_vector(), 1e-3, rhs)
            assert np.linalg.norm(delta - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_homogeneous_full_system_residual_at_tiny_mu(self):
        """At mu = 1e-9 the eliminated solve, refined once against the full
        base, must satisfy the full homogeneous system near round-off."""
        rng = np.random.default_rng(22)
        for seed in range(10):
            generate = generate_unbounded_lp if seed % 2 else generate_optimal_lp
            lp = generate(8, 20, seed).lp
            point = random_homogeneous(rng, 20, 8, scale=2.0)
            g = gradient_at(HOMOGENEOUS3, lp, point.as_vector())
            delta = solve_dense(HOMOGENEOUS3, lp, point.as_vector(), 1e-9, -g)
            H = eval_hessian(HOMOGENEOUS3, lp, point).full()
            H[np.diag_indices_from(H)] += 1e-9
            res = np.linalg.norm(H @ delta + g)
            assert res <= 1e-12 * (1.0 + np.linalg.norm(g))

    @pytest.mark.parametrize(
        "spec,factored_orders,solved_shapes",
        [
            pytest.param(BASE3, [(9, 9), (4, 4)], [(9, 2), (4, 2), (9,), (4,)], id="BASE"),
            pytest.param(HOMOGENEOUS3, [(15, 15)], [(15,), (15,)], id="HOMOGENEOUS"),
        ],
    )
    def test_one_factorization_without_the_s_block(
        self, spec, factored_orders, solved_shapes, monkeypatch
    ):
        """Neither kind's Newton solve factors a matrix that holds the s
        block.  solve_dense factors only the remainder over (x, lam, tau,
        kappa), and the solve and its refinement take one triangular solve
        each; the structured solve factors the n x n and m x m blocks."""
        factored, solved = [], []
        factor, triangular_solve = linsys._factor, linsys.cho_solve

        def counting_factor(M):
            factored.append(M.shape)
            return factor(M)

        def counting_solve(F, rhs):
            solved.append(np.shape(rhs))
            return triangular_solve(F, rhs)

        monkeypatch.setattr(linsys, "_factor", counting_factor)
        monkeypatch.setattr(linsys, "cho_solve", counting_solve)
        prob = generate_optimal_lp(4, 9, 2)
        point = _random_point(spec, np.random.default_rng(5), 9, 4)
        g = gradient_at(spec, prob.lp, point.as_vector())
        _newton_solve(spec, prob.lp, point.as_vector(), 1e-6, -g)
        assert factored == factored_orders
        assert solved == solved_shapes

    def test_first_call_allocates_less_than_one_full_base(self):
        """The first solve on a fresh problem builds and caches the base of
        order n+m+2 only: its traced peak stays below the size of one
        (2n+m+2)^2 float64 matrix.  A'A, the problem's own cached Gram matrix
        that the structured solve shares, is formed before tracing starts."""
        m, n = 150, 450
        lp = generate_unbounded_lp(m, n, 0).lp
        point = filled_point(HomogeneousPoint, n, m, 1.0)
        g = gradient_at(HOMOGENEOUS3, lp, point.as_vector())
        lp.gram
        tracemalloc.start()
        try:
            solve_dense(HOMOGENEOUS3, lp, point.as_vector(), 1e-9, -g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * n + m + 2) ** 2 * 8


def _structured_vs_oracle(spec, lp, point, mu):
    g = gradient_at(spec, lp, point.as_vector())
    delta = solve_structured(*build_reduced(spec, lp, point.as_vector(), mu, g), lp)
    expected = _oracle(spec, lp, point, mu, -g)
    assert np.linalg.norm(delta - expected) <= 1e-8 * (1.0 + np.linalg.norm(expected))


def _reduced_reference(d, rhs, lp, reference):
    """Solve the reduced (n+m) system (M + v v') u = r, with v = (c; -b),
    independently of solve_structured: either through the Cholesky factor of
    M updated by cholesky_rank_one_update, or through the Sherman-Morrison
    identity with dense solves against M."""
    A, m, n = lp.A, lp.m, lp.n
    d1, d2, d3 = d[:n], d[n : n + m], d[n + m :]
    shift = 1.0 + d3
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A.T @ A + np.diag(d1)
    M[n:, n:] = (A * (d3 / shift)) @ A.T + np.diag(d2)
    r = np.concatenate([rhs[:n], rhs[n : n + m] - A @ (rhs[n + m :] / shift)])
    v = np.concatenate([lp.c, -lp.b])
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
        """The structured step matches the oracle's full-system solve, and its
        (dx, dlam) part matches a reduced-system solve that absorbs the
        rank-one coupling by ``reference``."""
        rng = np.random.default_rng(100 * m + n)
        for seed in range(5):
            prob = generate_optimal_lp(m, n, seed)
            point = random_primal_dual(rng, n, m, scale=2.0)
            mu = 10.0 ** rng.uniform(-6, -1)
            spec = HOMOTOPY3 if seed % 2 else BASE3
            _structured_vs_oracle(spec, prob.lp, point, mu)
            z = point.as_vector()
            d, rhs = build_reduced(spec, prob.lp, z, mu, gradient_at(spec, prob.lp, z))
            u = solve_structured(d, rhs, prob.lp)[: n + m]
            expected = _reduced_reference(d, rhs, prob.lp, reference)
            assert np.linalg.norm(u - expected) <= 1e-8 * (1.0 + np.linalg.norm(expected))

    def test_full_system_residual_at_tiny_mu(self):
        """At mu = 1e-9 the system is too ill-conditioned for forward
        comparison, but the structured solution must still satisfy the full
        system to a small relative residual."""
        rng = np.random.default_rng(21)
        for seed in range(10):
            prob = generate_optimal_lp(8, 20, seed)
            point = random_primal_dual(rng, 20, 8, scale=2.0)
            g = gradient_at(BASE3, prob.lp, point.as_vector())
            d, rhs = build_reduced(BASE3, prob.lp, point.as_vector(), 1e-9, g)
            delta = solve_structured(d, rhs, prob.lp)
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
            _structured_vs_oracle(BASE3, lp, point, 1e-4)

    def test_decoupled_when_v_is_zero(self):
        """With b = 0 and c = 0 the rank-one coupling vanishes; the structured
        path must reproduce the plain block-diagonal solve."""
        lp = StandardFormLp([[1.0, 1.0]], [0.0], [0.0, 0.0])
        rhs = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        delta = solve_structured(np.ones(5), rhs, lp)
        A = lp.A
        full = np.zeros((5, 5))
        full[:2, :2] = A.T @ A + np.eye(2)
        full[2:3, 2:3] = A @ A.T + np.eye(1)
        full[2:3, 3:] = A
        full[3:, 2:3] = A.T
        full[3:, 3:] = 2.0 * np.eye(2)
        np.testing.assert_allclose(delta, np.linalg.solve(full, rhs), atol=1e-12)

    def test_factorization_sizes_are_instrumented(self, monkeypatch):
        factored = []
        factor = linsys._factor

        def recording_factor(M):
            factored.append(M.shape)
            return factor(M)

        monkeypatch.setattr(linsys, "_factor", recording_factor)
        prob = generate_optimal_lp(4, 9, 2)
        point = random_primal_dual(np.random.default_rng(5), 9, 4)
        g = gradient_at(BASE3, prob.lp, point.as_vector())
        solve_structured(*build_reduced(BASE3, prob.lp, point.as_vector(), 1e-6, g), prob.lp)
        assert factored == [(9, 9), (4, 4)]

    def test_descent_direction(self):
        """(hessian + mu I) is positive definite, so the step opposes the gradient."""
        rng = np.random.default_rng(6)
        for seed in range(20):
            prob = generate_optimal_lp(3, 7, seed)
            point = random_primal_dual(rng, 7, 3, scale=2.0)
            mu = 10.0 ** rng.uniform(-9, -1)
            g = gradient_at(BASE3, prob.lp, point.as_vector())
            d, rhs = build_reduced(BASE3, prob.lp, point.as_vector(), mu, g)
            assert g @ solve_structured(d, rhs, prob.lp) < 0.0

    def test_invariant_breach_raises_factorization_failure(self):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        d = np.array([-1e3, -1e3, 1.0, 1.0, 1.0])  # negative D1: the x block is not SPD
        with pytest.raises(FactorizationFailure):
            solve_structured(d, np.zeros(5), lp)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_raises_factorization_failure(self, bad):
        lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
        d = np.array([bad, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(FactorizationFailure):
            solve_structured(d, np.zeros(5), lp)

    def test_four_triangular_solves_per_step(self, monkeypatch):
        """M^{-1}v and the first solve share one two-column solve per block;
        the refinement solve takes one more per block."""
        calls = []
        triangular_solve = linsys.cho_solve

        def counting(factor, rhs):
            calls.append(np.shape(rhs))
            return triangular_solve(factor, rhs)

        monkeypatch.setattr(linsys, "cho_solve", counting)
        prob = generate_optimal_lp(4, 9, 2)
        point = random_primal_dual(np.random.default_rng(5), 9, 4)
        g = gradient_at(BASE3, prob.lp, point.as_vector())
        solve_structured(*build_reduced(BASE3, prob.lp, point.as_vector(), 1e-6, g), prob.lp)
        assert calls == [(9, 2), (4, 2), (9,), (4,)]

    def test_problem_gram_matrix_is_left_unchanged(self):
        prob = generate_optimal_lp(4, 9, 3)
        before = prob.lp.gram.copy()
        point = random_primal_dual(np.random.default_rng(8), 9, 4)
        g = gradient_at(BASE3, prob.lp, point.as_vector())
        solve_structured(*build_reduced(BASE3, prob.lp, point.as_vector(), 1e-6, g), prob.lp)
        assert np.array_equal(prob.lp.gram, before)


class TestLeastSquaresStart:
    @pytest.mark.parametrize("m,n,seed", [(5, 10, 0), (20, 30, 1), (50, 75, 2)])
    def test_equations_and_gap_hold_to_rounding(self, m, n, seed):
        """The shift delta = m eps (1 + ||A||_F^2) leaves a primal residual of
        about delta times the solved vector, 1.3e-13 relative at (20, 30);
        the dual equation holds by construction and the gap is exact in exact
        arithmetic, shift and all."""
        lp = generate_optimal_lp(m, n, seed).lp
        z = least_squares_start(lp)
        x, lam, s = z[:n], z[n : n + m], z[n + m :]
        assert np.linalg.norm(lp.A @ x - lp.b) <= 1e-11 * (1.0 + np.linalg.norm(lp.b))
        assert np.linalg.norm(lp.A.T @ lam + s - lp.c) <= 1e-14 * (1.0 + np.linalg.norm(lp.c))
        cx, blam = lp.c @ x, lp.b @ lam
        assert abs(cx - blam) <= 1e-13 * (1.0 + abs(cx) + abs(blam))

    def test_is_the_pseudoinverse_point(self):
        lp = generate_optimal_lp(5, 10, 3).lp
        z = least_squares_start(lp)
        pinv = np.linalg.pinv(lp.A)
        np.testing.assert_allclose(z[:10], pinv @ lp.b, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(z[10:15], pinv.T @ lp.c, rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(z[15:], lp.c - lp.A.T @ z[10:15])

    def test_factors_once_and_solves_both_columns_together(self, monkeypatch):
        calls = []
        potrs = linsys._potrs

        def recording_potrs(factor, rhs, **kwargs):
            calls.append(rhs.shape)
            return potrs(factor, rhs, **kwargs)

        monkeypatch.setattr(linsys, "_potrs", recording_potrs)
        least_squares_start(generate_optimal_lp(5, 10, 0).lp)
        assert calls == [(5, 2)]

    @pytest.mark.parametrize("m,n,seed", [(5, 10, 0), (20, 30, 1), (50, 75, 2)])
    def test_rank_deficient_A_factors(self, m, n, seed):
        """AA' is singular; its shift delta lets Cholesky through, and the
        consistent b is still met to about delta."""
        lp = duplicated_row_lp(m, n, seed)
        assert np.linalg.matrix_rank(lp.A) == m - 1
        z = least_squares_start(lp)
        assert np.isfinite(z).all()
        x = z[:n]
        assert np.linalg.norm(lp.A @ x - lp.b) <= 1e-10 * (1.0 + np.linalg.norm(lp.b))

    def test_zero_matrix_starts_at_zero_x_and_lam(self):
        lp = StandardFormLp(np.zeros((1, 3)), [1.0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(least_squares_start(lp), [0, 0, 0, 0, 1, 2, 3])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_gram_matrix_raises(self):
        lp = generate_optimal_lp(3, 6, 0).lp
        with pytest.raises(FactorizationFailure, match="not finite"):
            least_squares_start(StandardFormLp(lp.A * 1e160, lp.b, lp.c))


class TestLookAheadBasis:
    """Hand-built problems A = [I | N], each reaching one outcome of the
    crossover from the basis {0, ..., m-1}, where A_B = I, x_B = b and
    s_N = c_N - N'c_B."""

    BASIS = np.array([0, 1])

    @staticmethod
    def _lp(N, b, c):
        N = np.array(N, dtype=float)
        return StandardFormLp(np.hstack([np.eye(N.shape[0]), N]), b, c)

    #: x_B = (-2, -1) and s_N = (2, 2): two dual-simplex pivots, x_0 and then
    #: x_1 leaving, reach the optimal basis {2, 3} through {1, 2}, whose
    #: x_B = (-1, 2).
    TWO_PIVOTS = ([[-1.0, 0.0], [0.0, -1.0]], [-2.0, -1.0], [1.0, 1.0, 1.0, 1.0])

    def test_a_sign_feasible_basis_is_returned_as_is(self):
        lp = self._lp([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0], [0.0, 0.0, 1.0, 1.0])
        assert linsys._look_ahead_basis(lp, self.BASIS).tolist() == [0, 1]

    def test_a_primal_infeasible_dual_feasible_basis_takes_a_dual_simplex_pivot(self):
        """x_B = (-1, 2), s_N = (1, 3): x_0 leaves, and alpha, row 0 of A,
        is -1 and -2 on columns 2 and 3, whose ratios 1 and 1.5 let column
        2 enter.  The neighbour {1, 2} is the optimal basis."""
        lp = self._lp([[-1.0, -2.0], [1.0, 1.0]], [-1.0, 2.0], [0.0, 0.0, 1.0, 3.0])
        neighbour = linsys._look_ahead_basis(lp, self.BASIS)
        assert neighbour.tolist() == [1, 2]
        vertex = linsys._basic_vertex(lp, neighbour)
        np.testing.assert_allclose(vertex, [0, 1, 1, 0, -1, 0, 1, 0, 0, 1])

    def test_a_dual_infeasible_primal_feasible_basis_takes_a_primal_simplex_pivot(self):
        """x_B = (2, 1), s_N = (-1, 1): column 2 enters with d = (1, 1),
        whose ratios 2 and 1 let x_1 leave.  The neighbour {0, 2} is the
        optimal basis."""
        lp = self._lp([[1.0, 1.0], [1.0, 0.0]], [2.0, 1.0], [0.0, 0.0, -1.0, 1.0])
        neighbour = linsys._look_ahead_basis(lp, self.BASIS)
        assert neighbour.tolist() == [0, 2]
        vertex = linsys._basic_vertex(lp, neighbour)
        np.testing.assert_allclose(vertex, [1, 0, 1, 0, 0, -1, 0, 1, 0, 1])

    def test_negative_entries_on_both_sides_take_a_criss_cross_pivot(self):
        """x_B = (-1, 2), s_N = (2, -1): the least index with a negative
        entry is 0, so x_0 leaves, and the least j with alpha_j < 0 in row
        0 of A, column 2, enters.  The neighbour {1, 2} is the optimal
        basis, where the one-pivot look-ahead gave nothing."""
        lp = self._lp([[-1.0, 1.0], [1.0, 1.0]], [-1.0, 2.0], [0.0, 0.0, 2.0, -1.0])
        assert reference_look_ahead_basis(lp, self.BASIS) is None
        neighbour = linsys._look_ahead_basis(lp, self.BASIS)
        assert neighbour.tolist() == [1, 2]
        vertex = linsys._basic_vertex(lp, neighbour)
        np.testing.assert_allclose(vertex, [0, 1, 1, 0, -2, 0, 2, 0, 0, 1])

    def test_a_two_pivot_chain_reaches_the_vertex(self):
        lp = self._lp(*self.TWO_PIVOTS)
        assert reference_look_ahead_basis(lp, self.BASIS).tolist() == [1, 2]
        basis = linsys._look_ahead_basis(lp, self.BASIS)
        assert basis.tolist() == [2, 3]
        np.testing.assert_allclose(
            linsys._basic_vertex(lp, basis), [0, 0, 2, 1, -1, -1, 2, 2, 0, 0]
        )

    def test_the_pivot_budget_stops_the_chain(self, monkeypatch):
        """With one pivot allowed, the chain ends at {1, 2}, the basis the
        one-pivot look-ahead named, and brings its LU along; its x_1 = -1
        leaves no vertex."""
        monkeypatch.setattr(linsys, "_CROSSOVER_PIVOTS", 1)
        lp = self._lp(*self.TWO_PIVOTS)
        basis = linsys._look_ahead_basis(lp, self.BASIS)
        assert basis.tolist() == [1, 2]
        assert isinstance(basis, linsys._FactoredBasis)
        np.testing.assert_array_equal(basis.factors[4], [-1.0, 2.0])
        assert linsys._basic_vertex(lp, basis) is None

    def test_the_violation_gate_stops_the_chain(self, monkeypatch):
        """x_B = (-3, -1, -1): x_0 leaves and column 3 = (-1, 1, 1) enters,
        the first pivot from the start; {1, 2, 3} has x_B = (-4, -4, 3), two
        negative entries.  With two pivots allowed, one is left there, so the
        chain ends at it; with the default eight it goes on, and reaches the
        optimal basis {3, 4, 5}."""
        lp = self._lp(
            [[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]],
            [-3.0, -1.0, -1.0],
            [0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
        )
        start = np.array([0, 1, 2])
        assert linsys._look_ahead_basis(lp, start).tolist() == [3, 4, 5]
        monkeypatch.setattr(linsys, "_CROSSOVER_PIVOTS", 2)
        basis = linsys._look_ahead_basis(lp, start)
        assert basis.tolist() == [1, 2, 3]
        np.testing.assert_array_equal(basis.factors[4], [-4.0, -4.0, 3.0])

    def test_negative_entries_on_both_sides_beyond_the_gate_give_nothing(self):
        """A = [I | -I] with b = -1 and c_N = (-1, -1, -1, -1, 1): all five
        x_B and four s_N are negative, nine entries against eight pivots, so
        the chain does not start."""
        lp = self._lp(-np.eye(5), -np.ones(5), [0.0] * 5 + [-1.0, -1.0, -1.0, -1.0, 1.0])
        assert linsys._CROSSOVER_PIVOTS == 8
        assert linsys._look_ahead_basis(lp, np.arange(5)) is None

    def test_a_singular_basis_gives_nothing(self):
        lp = self._lp([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0], [0.0, 0.0, 1.0, 1.0])
        A = lp.A.copy()
        A[:, 1] = A[:, 0]
        assert linsys._look_ahead_basis(StandardFormLp(A, lp.b, lp.c), self.BASIS) is None

    @pytest.mark.parametrize(
        "N,b,c",
        [
            # x_0 < 0, but row 0 of A has no negative entry: Ax = b has no x >= 0
            ([[1.0, 1.0], [1.0, 0.0]], [-1.0, 2.0], [0.0, 0.0, 1.0, 1.0]),
            # s_2 < 0, but column 2 has no positive entry: the ray is unbounded
            ([[-1.0, 1.0], [0.0, 1.0]], [1.0, 2.0], [0.0, 0.0, -1.0, 3.0]),
            # x_0 < 0 and s_2 < 0; x_0 has the least index, and row 0 of A
            # has no negative entry
            ([[1.0, 1.0], [1.0, 0.0]], [-1.0, 2.0], [0.0, 0.0, -1.0, 1.0]),
        ],
        ids=["dual-ratio", "primal-ratio", "criss-cross"],
    )
    def test_an_empty_ratio_test_gives_nothing(self, N, b, c):
        assert linsys._look_ahead_basis(self._lp(N, b, c), self.BASIS) is None

    def test_a_non_finite_vertex_gives_nothing(self):
        """A nonzero pivot of 1e-300 puts x_0 = 1e10 / 1e-300 at inf."""
        lp = self._lp([[1.0, 0.0], [0.0, 1.0]], [1e10, 2.0], [0.0, 0.0, 1.0, 1.0])
        A = lp.A.copy()
        A[0, 0] = 1e-300
        assert linsys._look_ahead_basis(StandardFormLp(A, lp.b, lp.c), self.BASIS) is None

    def test_each_basis_of_the_chain_is_factored_once(self, monkeypatch):
        """The chain {0, 1}, {1, 2}, {2, 3} factors each A_B once and solves
        without refinement: two plain solves per basis and one per pivot.
        ``_basic_vertex`` then refines the LU that the chain ended on,
        factoring nothing, to the vertex that a fresh factorization gives."""
        factored, solves = [], []
        getrf, getrs = linsys._getrf, linsys._getrs

        def counting_getrf(a, *args, **kwargs):
            factored.append(np.asarray(a).tobytes())
            return getrf(a, *args, **kwargs)

        def counting_getrs(*args, **kwargs):
            solves.append(None)
            return getrs(*args, **kwargs)

        monkeypatch.setattr(linsys, "_getrf", counting_getrf)
        monkeypatch.setattr(linsys, "_getrs", counting_getrs)
        lp = self._lp(*self.TWO_PIVOTS)
        basis = linsys._look_ahead_basis(lp, self.BASIS)
        assert factored == [lp.A[:, b].tobytes() for b in ([0, 1], [1, 2], [2, 3])]
        assert len(solves) == 3 * 2 + 2
        vertex = linsys._basic_vertex(lp, basis)
        assert len(factored) == 3 and len(solves) == 3 * 2 + 2 + 2
        fresh = linsys._basic_vertex(lp, np.array(basis))
        assert len(factored) == 4
        assert vertex.tobytes() == fresh.tobytes()


class TestInputGuards:
    def test_solve_dense_rejects_a_rhs_of_the_wrong_shape(self):
        lp = generate_optimal_lp(3, 6, 0).lp
        z = np.zeros(2 * lp.n + lp.m + 2)
        with pytest.raises(ValueError, match="rhs must have shape"):
            solve_dense(HOMOGENEOUS3, lp, z, 1e-3, np.zeros(z.size + 1))

    def test_rank_one_update_rejects_inconsistent_sizes(self):
        with pytest.raises(ValueError, match="inconsistent"):
            cholesky_rank_one_update(np.eye(3), np.ones(2))

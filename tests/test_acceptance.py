"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Criteria with quantitative targets use scaled-down problem sizes
whose expected behavior is deterministic under the fixed seeds below.
"""

import time

import numpy as np
from helpers import central_gradient, central_jacobian, eval_hessian, filled_point, point_kkt

from lpmerit import linsys, solver
from lpmerit.merit import gradient_at, value_at
from lpmerit import (
    KKT_TOL,
    Algorithm,
    Classification,
    HomogeneousPoint,
    HomogeneousStatus,
    MeritKind,
    MeritSpec,
    PrimalDualPoint,
    SolverConfig,
    SolveStatus,
    StandardFormLp,
    brute_force_optimum,
    build_reduced,
    generate_optimal_lp,
    generate_unbounded_lp,
    recover_primal_dual,
    residuals,
    solve,
    solve_homogeneous,
    solve_structured,
)

BASE3 = MeritSpec(MeritKind.PRIMAL_DUAL, q=3.0)


def _no_stop(monkeypatch):
    """Set the stopping thresholds so tight that no stopping rule fires; used
    where a criterion quantifies behavior across a fixed number of iterations."""
    monkeypatch.setattr(solver, "VALUE_TOL", 1e-300)
    monkeypatch.setattr(solver, "GRADIENT_TOL", 1e-300)


def _report(num, description, failures, elapsed, budget):
    ok = not failures and elapsed < budget
    print(
        f"[acceptance] criterion {num:2d} ({description}): "
        f"{'PASS' if ok else 'FAIL'}  [{elapsed:.1f}s of {budget:.0f}s]"
    )
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])
    assert elapsed < budget, f"criterion {num}: took {elapsed:.1f}s, budget {budget}s"


def test_criterion_1_merit_vanishes_at_known_optima():
    t0 = time.perf_counter()
    failures = []
    cases = [(3, 6, seed) for seed in range(100)] + [(10, 30, seed) for seed in range(20)]
    for m, n, seed in cases:
        prob = generate_optimal_lp(m, n, seed)
        s2 = prob.lp.scale**2
        value = value_at(BASE3, prob.lp, prob.known_optimum.as_vector())
        grad_inf = np.abs(gradient_at(BASE3, prob.lp, prob.known_optimum.as_vector())).max()
        if not value <= 1e-20 * s2:
            failures.append(f"value {value:.2e} at ({m},{n}) seed {seed}")
        if not grad_inf <= 1e-12 * s2:
            failures.append(f"grad {grad_inf:.2e} at ({m},{n}) seed {seed}")
    _report(1, "zero merit and gradient at known optima", failures, time.perf_counter() - t0, 5.0)


def _derivative_specs():
    specs = []
    for q in (2.1, 3.0):
        for nu in (0.0, 0.1):
            specs.append(MeritSpec(MeritKind.PRIMAL_DUAL, q=q, nu=nu))
        specs.append(MeritSpec(MeritKind.HOMOGENEOUS, q=q))
    return specs


def _check_derivatives(specs, n_points, failures):
    prob = generate_optimal_lp(3, 5, 2024)
    rng = np.random.default_rng(99)
    for spec in specs:
        dim = 13 + (2 if spec.kind is MeritKind.HOMOGENEOUS else 0)

        def point_of(z):
            if spec.kind is MeritKind.HOMOGENEOUS:
                return HomogeneousPoint.from_vector(z, 5, 3)
            return PrimalDualPoint.from_vector(z, 5, 3)

        for i in range(n_points):
            z = rng.standard_normal(dim)
            g = gradient_at(spec, prob.lp, z)
            g_fd = central_gradient(lambda zz: value_at(spec, prob.lp, zz), z)
            rel = np.abs(g - g_fd).max() / (1.0 + np.abs(g).max())
            if not rel <= 1e-5:
                failures.append(f"gradient {spec.kind.value} q={spec.q} nu={spec.nu}: {rel:.2e}")
            full = eval_hessian(spec, prob.lp, point_of(z)).full()
            h_fd = central_jacobian(
                lambda zz: gradient_at(spec, prob.lp, zz), z
            )
            tol = 1e-4 * (1.0 + np.linalg.norm(full, "fro"))
            err = np.abs(full - h_fd).max()
            if not err <= tol:
                failures.append(f"hessian {spec.kind.value} q={spec.q} nu={spec.nu}: {err:.2e}")


def test_criterion_2_derivatives_match_finite_differences():
    t0 = time.perf_counter()
    failures = []
    _check_derivatives(_derivative_specs(), 50, failures)
    _report(2, "analytic derivatives vs central differences", failures, time.perf_counter() - t0, 10.0)


def test_criterion_3_hessian_is_one_lipschitz_for_q3():
    t0 = time.perf_counter()
    failures = []
    prob = generate_optimal_lp(5, 8, 7)
    rng = np.random.default_rng(17)
    for i in range(100):
        u = rng.standard_normal(21) * 2.0
        v = rng.standard_normal(21) * 2.0
        Hu = eval_hessian(BASE3, prob.lp, PrimalDualPoint.from_vector(u, 8, 5)).full()
        Hv = eval_hessian(BASE3, prob.lp, PrimalDualPoint.from_vector(v, 8, 5)).full()
        if not np.linalg.norm(Hu - Hv, "fro") <= np.linalg.norm(u - v) + 1e-12:
            failures.append(f"pair {i}")
    _report(3, "Hessian 1-Lipschitz bound at q=3", failures, time.perf_counter() - t0, 5.0)


def test_criterion_4_base_matrix_rank_bound():
    t0 = time.perf_counter()
    failures = []
    sizes = [(3, 6), (5, 15), (10, 30), (8, 20)]
    for i in range(20):
        m, n = sizes[i % len(sizes)]
        prob = generate_optimal_lp(m, n, 1000 + i)
        H = eval_hessian(BASE3, prob.lp, filled_point(PrimalDualPoint, n, m, 0.0)).base
        svals = np.linalg.svd(H, compute_uv=False)
        rank = int((svals > 1e-10 * svals[0]).sum())
        if rank > m + n + 1:
            failures.append(f"rank {rank} > {m + n + 1} at ({m},{n})")
    _report(4, "iterate-independent block rank <= m+n+1", failures, time.perf_counter() - t0, 5.0)


def test_criterion_5_structured_solve_matches_dense(monkeypatch):
    t0 = time.perf_counter()
    failures = []
    factored = []
    factor = linsys._factor

    def recording_factor(M):
        factored.append(M.shape[0])
        return factor(M)

    monkeypatch.setattr(linsys, "_factor", recording_factor)
    sizes = [(2, 4), (3, 6), (5, 8), (8, 20), (10, 30)]
    rng = np.random.default_rng(23)
    for i in range(100):
        m, n = sizes[i % len(sizes)]
        prob = generate_optimal_lp(m, n, 2000 + i)
        lp = prob.lp
        if i % 10 == 0:
            c = lp.c * (1e3 / np.linalg.norm(lp.c))
            lp = StandardFormLp(lp.A, lp.b, c)
        spec = MeritSpec(MeritKind.PRIMAL_DUAL, q=2.1, nu=0.3) if i % 3 else BASE3
        point = PrimalDualPoint.from_vector(2.0 * rng.standard_normal(2 * n + m), n, m)
        # mu below ~1e-6 pushes cond(hessian + mu I) past 1e10 at random points,
        # where forward agreement of two backward-stable solvers is no longer
        # measurable at 1e-8; the tiny-mu regime is covered by residual tests.
        mu = 10.0 ** rng.uniform(-6, -1)
        z = point.as_vector()
        d, rhs = build_reduced(spec, lp, z, mu, gradient_at(spec, lp, z))
        factored.clear()
        delta = solve_structured(d, rhs, lp)
        orders = list(factored)
        # the oracle: the explicit J'J + diag + mu*I, with no block eliminated
        H = eval_hessian(spec, lp, point).full()
        H[np.diag_indices_from(H)] += mu
        dense = np.linalg.solve(H, -gradient_at(spec, lp, z))
        if not np.linalg.norm(delta - dense) <= 1e-8 * (1.0 + np.linalg.norm(dense)):
            failures.append(f"instance {i} at ({m},{n})")
        if orders != [n, m]:
            failures.append(f"instrumentation breach at instance {i}: factored orders {orders}")
    _report(5, "structured solve vs dense oracle", failures, time.perf_counter() - t0, 10.0)


def test_criterion_6_high_accuracy_convergence(monkeypatch):
    _no_stop(monkeypatch)
    t0 = time.perf_counter()
    failures = []
    configs = {
        "constant-mu": SolverConfig(Algorithm.HOMOTOPY, nu0=0.0, max_iter=200),
        "homotopy": SolverConfig(Algorithm.HOMOTOPY, max_iter=200),
    }
    for (m, n), seed in [((20, 30), 1), ((50, 75), 2), ((100, 150), 3)]:
        prob = generate_optimal_lp(m, n, seed)
        for name, cfg in configs.items():
            out = solve(prob.lp, cfg, x_star=prob.known_optimum.x)
            best = min(r.rel_err_x for r in out.trace)
            if not best <= 1e-8:
                failures.append(f"{name} at ({m},{n}): best rel err {best:.2e}")
    _report(6, "1e-8 relative error within 200 iterations", failures, time.perf_counter() - t0, 60.0)


def test_criterion_7_adaptive_regularization_decreases_monotonically(monkeypatch):
    _no_stop(monkeypatch)
    t0 = time.perf_counter()
    failures = []
    prob = generate_optimal_lp(20, 30, 4)
    cfg = SolverConfig(Algorithm.LM_ADAPTIVE, max_iter=2000)
    out = solve(prob.lp, cfg)
    values = np.array([r.f for r in out.trace])
    if len(values) != 2001:
        failures.append(f"expected 2001 trace rows, got {len(values)}")
    if not np.all(np.diff(values) <= 0.0):
        worst = float(np.diff(values).max())
        failures.append(f"value increased by {worst:.2e}")
    if not values[-1] < 1e-2 * values[0]:
        failures.append(f"final {values[-1]:.2e} vs initial {values[0]:.2e}")
    _report(7, "adaptive-mu full steps are monotone", failures, time.perf_counter() - t0, 30.0)


def test_criterion_8_unbounded_problems_are_certified():
    t0 = time.perf_counter()
    failures = []
    for (m, n), seed in [((10, 30), 5), ((50, 150), 6)]:
        prob = generate_unbounded_lp(m, n, seed)
        s2 = prob.lp.scale**2
        out = solve(prob.lp, SolverConfig(Algorithm.HOMOTOPY, nu0=0.0))
        if out.status is not SolveStatus.NO_OPTIMAL_SOLUTION:
            failures.append(f"({m},{n}): status {out.status.value}")
            continue
        if not out.final_grad_norm <= 1e-10 * s2:
            failures.append(f"({m},{n}): grad {out.final_grad_norm:.2e}")
        if not out.final_f >= 1e-8 * s2:
            failures.append(f"({m},{n}): value {out.final_f:.2e}")
        _, rho, _ = residuals(prob.lp, out.point)
        if not np.linalg.norm(rho) <= 1e-6 * prob.lp.scale:
            failures.append(f"({m},{n}): primal residual {np.linalg.norm(rho):.2e}")
        if out.classification is not Classification.PRIMAL_FEASIBLE_DUAL_INFEASIBLE:
            failures.append(f"({m},{n}): classification {out.classification}")
    _report(8, "unbounded detection and classification", failures, time.perf_counter() - t0, 60.0)


def test_criterion_9_solver_matches_enumeration_oracle():
    t0 = time.perf_counter()
    failures = []
    sizes = [(2, 5), (3, 6), (2, 6), (3, 7), (4, 8)]
    for i in range(50):
        m, n = sizes[i % len(sizes)]
        prob = generate_optimal_lp(m, n, 3000 + i)
        _, oracle_value = brute_force_optimum(prob.lp)
        out = solve(prob.lp, SolverConfig(Algorithm.HOMOTOPY, nu0=0.0))
        value = float(prob.lp.c @ out.point.x)
        if not abs(value - oracle_value) <= 1e-6 * (1.0 + abs(oracle_value)):
            failures.append(
                f"({m},{n}) seed {3000 + i}: solver {value:.9f} vs oracle {oracle_value:.9f}"
            )
    _report(9, "objective matches vertex enumeration", failures, time.perf_counter() - t0, 10.0)


def test_criterion_10_homogeneous_embedding():
    t0 = time.perf_counter()
    failures = []
    lp = StandardFormLp([[1.0, 1.0]], [1.0], [1.0, 0.0])
    spec = MeritSpec(MeritKind.HOMOGENEOUS, q=3.0)
    zero = HomogeneousPoint([0.0, 0.0], [0.0], [0.0, 0.0], 0.0, 0.0)
    if value_at(spec, lp, zero.as_vector()) != 0.0:
        failures.append("value at the trivial point is not exactly zero")
    if np.abs(gradient_at(spec, lp, zero.as_vector())).max() != 0.0:
        failures.append("gradient at the trivial point is not exactly zero")

    _check_derivatives(
        [MeritSpec(MeritKind.HOMOGENEOUS, q=q) for q in (2.1, 3.0)], 50, failures
    )

    point, status = solve_homogeneous(lp, SolverConfig(Algorithm.HOMOTOPY))
    if status is HomogeneousStatus.OPTIMAL_RECOVERED:
        recovered = recover_primal_dual(point)
        kkt = point_kkt(lp, recovered)
        if not max(kkt.values()) <= KKT_TOL:
            failures.append(f"recovered point violates optimality: {kkt}")
    elif status is not HomogeneousStatus.INCONCLUSIVE:
        failures.append(f"unexpected status {status.value}")
    _report(10, "homogeneous embedding model", failures, time.perf_counter() - t0, 10.0)

"""Iteration drivers: regularized Newton on the merit function.

Two regularization policies are provided.  ``LM_ADAPTIVE`` sets
mu_k = sqrt(L * ||grad||_2 / 2) and takes full steps, the setting with a
global worst-case guarantee for q = 3.  ``LM_CONSTANT`` keeps a small fixed
mu and backtracks with Armijo.  ``HOMOTOPY`` runs the constant-mu scheme on
the nu-modified merit while decaying nu by theta each iteration, so the
surrogate approaches the base merit.

Termination is always measured on the base merit: its value certifies the
optimality residuals, and a vanishing gradient with a value bounded away from
zero certifies that no primal-dual optimum exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import merit
from .errors import FactorizationFailure, InvalidConfig, NotDescentDirection
from .linsys import build_reduced, solve_dense, solve_structured
from .merit import MeritKind, MeritSpec
from .problems import HomogeneousPoint, PrimalDualPoint, StandardFormLp, residuals

#: Scale-relative primal-residual threshold below which a certified
#: no-optimum outcome is attributed to dual infeasibility (unboundedness).
PRIMAL_FEASIBLE_TOL = 1e-6

#: Escalation ladder for failed factorizations: mu <- max(10 mu, 1e-12),
#: at most this many times, then one dense attempt.
_MAX_MU_ESCALATIONS = 20


class Algorithm(Enum):
    LM_ADAPTIVE = "lm-adaptive"
    LM_CONSTANT = "lm-const"
    HOMOTOPY = "homotopy"


class LineSearchRule(Enum):
    PURE_NEWTON = "pure-newton"
    ARMIJO = "armijo"


class SolveStatus(Enum):
    OPTIMAL = "Optimal"
    NO_OPTIMAL_SOLUTION = "NoOptimalSolution"
    ITERATION_LIMIT = "IterationLimit"
    NUMERICAL_FAILURE = "NumericalFailure"


class Classification(Enum):
    PRIMAL_FEASIBLE_DUAL_INFEASIBLE = "PrimalFeasibleDualInfeasible"
    UNCLASSIFIED = "Unclassified"


class HomogeneousStatus(Enum):
    OPTIMAL_RECOVERED = "OptimalRecovered"
    DUAL_INFEASIBLE = "DualInfeasible"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SolverConfig:
    """Algorithm variant, schedules, and stopping tolerances.

    ``q`` and ``line_search`` default per variant: the adaptive scheme pairs
    with q = 3 and full steps, the constant-mu schemes with q = 2.1 and
    Armijo backtracking.  Stopping thresholds are scale-relative: optimal
    needs value <= tol_f * scale^2 and grad <= tol_grad * scale^2; a certified
    no-optimum needs the same gradient bound with value >= tol_no_opt * scale^2.
    """

    algorithm: Algorithm
    q: float | None = None
    mu_const: float = 1e-9
    hessian_lipschitz: float = 1.0
    theta: float = 0.8
    nu0: float = 1.0
    line_search: LineSearchRule | None = None
    armijo_c1: float = 1e-4
    armijo_shrink: float = 0.5
    max_backtracks: int = 60
    max_iter: int = 500
    tol_grad: float = 1e-10
    tol_f: float = 1e-16
    tol_no_opt: float = 1e-8
    trace: bool = True

    def __post_init__(self):
        if self.q is None:
            object.__setattr__(
                self, "q", 3.0 if self.algorithm is Algorithm.LM_ADAPTIVE else 2.1
            )
        if self.line_search is None:
            default = (
                LineSearchRule.PURE_NEWTON
                if self.algorithm is Algorithm.LM_ADAPTIVE
                else LineSearchRule.ARMIJO
            )
            object.__setattr__(self, "line_search", default)
        if not self.q > 2.0:
            raise InvalidConfig(f"q must exceed 2, got {self.q}")
        if not 0.0 < self.theta < 1.0:
            raise InvalidConfig(f"theta must lie in (0, 1), got {self.theta}")
        if not self.nu0 > 0.0:
            raise InvalidConfig(f"nu0 must be positive, got {self.nu0}")
        if not self.mu_const > 0.0:
            raise InvalidConfig(f"mu_const must be positive, got {self.mu_const}")
        if not self.hessian_lipschitz > 0.0:
            raise InvalidConfig("hessian_lipschitz must be positive")
        if not (self.tol_grad > 0.0 and self.tol_f > 0.0 and self.tol_no_opt > 0.0):
            raise InvalidConfig("tolerances must be positive")
        if not 0.0 < self.armijo_c1 < 1.0:
            raise InvalidConfig(f"armijo_c1 must lie in (0, 1), got {self.armijo_c1}")
        if not 0.0 < self.armijo_shrink < 1.0:
            raise InvalidConfig(
                f"armijo_shrink must lie in (0, 1), got {self.armijo_shrink}"
            )
        if self.max_backtracks < 0 or self.max_iter < 0:
            raise InvalidConfig("max_backtracks and max_iter must be nonnegative")


@dataclass
class IterationRecord:
    """One trace row; ``f`` and ``grad_norm`` refer to the objective being minimized."""

    k: int
    f: float
    grad_norm: float
    mu: float
    nu: float
    alpha: float
    gap: float
    primal_res: float
    dual_res: float
    min_x: float
    min_s: float
    rel_err_x: float | None = None


@dataclass
class SolveOutcome:
    status: SolveStatus
    point: PrimalDualPoint
    final_f: float
    final_grad_norm: float
    iterations: int
    classification: Classification | None = None
    trace: list[IterationRecord] = field(default_factory=list)


def armijo_search(
    objective,
    p,
    delta,
    slope: float,
    f0: float,
    *,
    alpha0: float = 1.0,
    c1: float = 1e-4,
    shrink: float = 0.5,
    max_backtracks: int = 60,
):
    """Backtracking line search with the sufficient-decrease condition.

    Probes alpha0 * shrink**j for j = 0..max_backtracks and returns the first
    (hence largest) step with objective(p + alpha*delta) <= f0 + c1*alpha*slope,
    where ``f0`` is objective(p) and ``slope`` the directional derivative at ``p``.
    Returns (alpha, stagnated); when every probe fails, the last probe is
    returned with stagnated=True.  Raises NotDescentDirection if slope >= 0.
    """
    if not slope < 0.0:
        raise NotDescentDirection(f"directional derivative must be negative, got {slope}")
    alpha = alpha0
    for j in range(max_backtracks + 1):
        if objective(p + alpha * delta) <= f0 + c1 * alpha * slope:
            return alpha, False
        if j < max_backtracks:
            alpha *= shrink
    return alpha, True


def _newton_step(spec, lp, point, mu, g):
    """Solve (hessian + mu*I) delta = -g, escalating mu on factorization failure.

    Primal-dual merits take the structured solve; the homogeneous merit takes
    solve_dense, which eliminates only the s block, since its two border rows
    fall outside the reduced system.
    Each failure sets mu <- max(10 mu, 1e-12); once the ladder is exhausted, one
    dense attempt is made, whose FactorizationFailure propagates.
    """
    for _ in range(_MAX_MU_ESCALATIONS + 1):
        try:
            if spec.kind is MeritKind.HOMOGENEOUS:
                return solve_dense(spec, lp, point, mu, -g)
            return np.concatenate(solve_structured(build_reduced(spec, lp, point, mu, g), lp))
        except FactorizationFailure:
            mu = max(10.0 * mu, 1e-12)
    return solve_dense(spec, lp, point, mu, -g)


def _step(spec, lp, config, point, z, f, g, mu):
    """One damped Newton step from ``z``, given the objective's value f and gradient g.

    Returns (alpha, z_next, None) on success, or (None, None, status) with
    the status that ends the run: a failed factorization, a non-finite step or
    a non-finite iterate is a numerical failure, a non-descent direction or an
    Armijo search that stagnates without decrease is an iteration limit.
    """
    try:
        delta = _newton_step(spec, lp, point, mu, g)
    except FactorizationFailure:
        return None, None, SolveStatus.NUMERICAL_FAILURE
    # the back-substitutions skip scipy's finiteness check, so a NaN or inf
    # in the right-hand side or its refinement residual surfaces here
    if not np.isfinite(delta).all():
        return None, None, SolveStatus.NUMERICAL_FAILURE
    slope = float(g @ delta)
    if not slope < 0.0:
        return None, None, SolveStatus.ITERATION_LIMIT
    alpha = 1.0
    if config.line_search is LineSearchRule.ARMIJO:

        def objective(zz):
            return merit.value_at(spec, lp, zz)

        alpha, stagnated = armijo_search(
            objective,
            z,
            delta,
            slope,
            f,
            c1=config.armijo_c1,
            shrink=config.armijo_shrink,
            max_backtracks=config.max_backtracks,
        )
        # a stagnated probe is only taken if it still strictly decreases
        if stagnated and not objective(z + alpha * delta) < f:
            return None, None, SolveStatus.ITERATION_LIMIT
    z_next = z + alpha * delta
    if not np.isfinite(z_next).all():
        return None, None, SolveStatus.NUMERICAL_FAILURE
    return alpha, z_next, None


def solve(
    lp: StandardFormLp,
    config: SolverConfig,
    start: PrimalDualPoint | None = None,
    *,
    x_star: np.ndarray | None = None,
) -> SolveOutcome:
    """Minimize the merit function and classify the outcome.

    ``start`` defaults to the all-zero point.  ``x_star``, when known, adds
    the relative primal error to each trace row.  The returned status follows
    the scale-relative thresholds in :class:`SolverConfig`; on a certified
    no-optimum outcome, a near-zero primal residual is the evidence used to
    report the problem as primal feasible but dual infeasible.
    """
    n, m = lp.n, lp.m
    if start is None:
        start = PrimalDualPoint.zeros(n, m)
    if start.x.shape != (n,) or start.lam.shape != (m,):
        raise InvalidConfig(
            f"start has sizes (n={start.x.size}, m={start.lam.size}), "
            f"problem has (n={n}, m={m})"
        )
    base_spec = MeritSpec(MeritKind.BASE, q=config.q)
    scale2 = lp.scale**2
    tol_f = config.tol_f * scale2
    tol_grad = config.tol_grad * scale2
    tol_no_opt = config.tol_no_opt * scale2
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=float)
        x_star_norm = float(np.linalg.norm(x_star))

    z = start.as_vector()
    nu = config.nu0 if config.algorithm is Algorithm.HOMOTOPY else 0.0
    status = SolveStatus.ITERATION_LIMIT
    trace: list[IterationRecord] = []
    iterations = 0
    f_base = math.inf
    g_base_inf = math.inf

    for k in range(config.max_iter + 1):
        iterations = k
        point = PrimalDualPoint.from_vector(z, n, m)
        f_base = merit.value_at(base_spec, lp, z)
        g_base = merit.gradient_at(base_spec, lp, z)
        if not (math.isfinite(f_base) and np.isfinite(g_base).all()):
            status = SolveStatus.NUMERICAL_FAILURE
            break
        g_base_inf = float(np.abs(g_base).max())

        if config.algorithm is Algorithm.HOMOTOPY:
            cur_spec = MeritSpec(MeritKind.HOMOTOPY, q=config.q, nu=nu)
            f_cur, g_cur = merit.homotopy_from_base(cur_spec, lp, z, f_base, g_base)
            if not (math.isfinite(f_cur) and np.isfinite(g_cur).all()):
                status = SolveStatus.NUMERICAL_FAILURE
                break
        else:
            cur_spec, f_cur, g_cur = base_spec, f_base, g_base
        g_cur_norm = float(np.linalg.norm(g_cur))

        if config.algorithm is Algorithm.LM_ADAPTIVE:
            mu_k = math.sqrt(config.hessian_lipschitz * g_cur_norm / 2.0)
        else:
            mu_k = config.mu_const

        record = None
        if config.trace:
            gamma, rho, sigma = residuals(lp, point)
            record = IterationRecord(
                k=k,
                f=f_cur,
                grad_norm=g_cur_norm,
                mu=mu_k,
                nu=nu,
                alpha=0.0,
                gap=abs(gamma),
                primal_res=float(np.linalg.norm(rho)),
                dual_res=float(np.linalg.norm(sigma)),
                min_x=float(point.x.min()),
                min_s=float(point.s.min()),
                rel_err_x=(
                    float(np.linalg.norm(point.x - x_star)) / x_star_norm
                    if x_star is not None and x_star_norm > 0
                    else None
                ),
            )
            trace.append(record)

        if f_base <= tol_f and g_base_inf <= tol_grad:
            status = SolveStatus.OPTIMAL
            break
        if g_base_inf <= tol_grad and f_base >= tol_no_opt:
            status = SolveStatus.NO_OPTIMAL_SOLUTION
            break
        if k == config.max_iter:
            status = SolveStatus.ITERATION_LIMIT
            break
        if mu_k <= 0.0:
            # exact-zero gradient with the value inside the undecided band
            status = SolveStatus.ITERATION_LIMIT
            break

        alpha, z_next, failure = _step(cur_spec, lp, config, point, z, f_cur, g_cur, mu_k)
        if failure is not None:
            status = failure
            break
        if record is not None:
            record.alpha = alpha
        z = z_next
        if config.algorithm is Algorithm.HOMOTOPY:
            nu *= config.theta

    point = PrimalDualPoint.from_vector(z, n, m)
    classification = None
    if status is SolveStatus.NO_OPTIMAL_SOLUTION:
        _, rho, _ = residuals(lp, point)
        primal_res = float(np.linalg.norm(rho))
        classification = (
            Classification.PRIMAL_FEASIBLE_DUAL_INFEASIBLE
            if primal_res <= PRIMAL_FEASIBLE_TOL * lp.scale
            else Classification.UNCLASSIFIED
        )
    return SolveOutcome(
        status=status,
        point=point,
        final_f=f_base,
        final_grad_norm=g_base_inf,
        iterations=iterations,
        classification=classification,
        trace=trace,
    )


def solve_homogeneous(
    lp: StandardFormLp, config: SolverConfig, start: HomogeneousPoint
) -> tuple[HomogeneousPoint, HomogeneousStatus]:
    """Minimize the homogeneous-embedding merit and classify the solution.

    The caller must supply ``start``: the all-zero point is a global minimizer
    of this merit, so starting there returns it unchanged (Inconclusive).
    Iterations use solve_dense, which eliminates only the s block and factors
    the remainder over (x, lam, tau, kappa), since the structured elimination
    does not cover the two extra dense rows.  On gradient convergence, tau
    and kappa decide the outcome; sign tests use the same classification
    threshold so that round-off cannot flip a branch.  A run that stops before
    convergence, on a failed factorization or a non-finite step included, is
    Inconclusive.
    """
    n, m = lp.n, lp.m
    if start.x.shape != (n,) or start.lam.shape != (m,):
        raise InvalidConfig(
            f"start has sizes (n={start.x.size}, m={start.lam.size}), "
            f"problem has (n={n}, m={m})"
        )
    spec = MeritSpec(MeritKind.HOMOGENEOUS, q=config.q)
    scale2 = lp.scale**2
    tol_grad = config.tol_grad * scale2
    z = start.as_vector()
    converged = False
    for k in range(config.max_iter + 1):
        point = HomogeneousPoint.from_vector(z, n, m)
        f = merit.value_at(spec, lp, z)
        g = merit.gradient_at(spec, lp, z)
        if not (math.isfinite(f) and np.isfinite(g).all()):
            break
        g_inf = float(np.abs(g).max())
        if g_inf <= tol_grad:
            converged = True
            break
        if k == config.max_iter:
            break
        if config.algorithm is Algorithm.LM_ADAPTIVE:
            mu_k = math.sqrt(config.hessian_lipschitz * np.linalg.norm(g) / 2.0)
            if mu_k <= 0.0:
                converged = True
                break
        else:
            mu_k = config.mu_const
        _, z_next, failure = _step(spec, lp, config, point, z, f, g, mu_k)
        if failure is not None:
            break
        z = z_next

    point = HomogeneousPoint.from_vector(z, n, m)
    if not converged:
        return point, HomogeneousStatus.INCONCLUSIVE
    eps_class = 1e-6 * (1.0 + float(np.abs(z).max()))
    # the larger of tau and kappa decides: a decaying tau with kappa near one
    # is a certificate of infeasibility, not an optimum
    if point.tau > eps_class and point.tau >= point.kappa:
        return point, HomogeneousStatus.OPTIMAL_RECOVERED
    if point.kappa > eps_class:
        if -float(lp.c @ point.x) > eps_class:
            return point, HomogeneousStatus.DUAL_INFEASIBLE
        if float(lp.b @ point.lam) > eps_class:
            return point, HomogeneousStatus.PRIMAL_INFEASIBLE
    return point, HomogeneousStatus.INCONCLUSIVE


def recover_primal_dual(point: HomogeneousPoint) -> PrimalDualPoint:
    """Rescale a tau-positive homogeneous solution to a primal-dual point."""
    if not point.tau > 0.0:
        raise ValueError(f"recovery needs tau > 0, got tau={point.tau}")
    return PrimalDualPoint(point.x / point.tau, point.lam / point.tau, point.s / point.tau)

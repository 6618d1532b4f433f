"""The iteration driver: regularized Newton on the merit function.

One loop serves ``solve`` (the primal-dual merit) and ``solve_homogeneous``
(the homogeneous embedding).  It evaluates each flat iterate once, through
``merit.evaluate``, and builds a point object only at exit.

Two regularization policies are provided.  ``LM_ADAPTIVE`` sets
mu_k = sqrt(L * ||grad||_2 / 2) and takes full steps, the setting with a
global worst-case guarantee for q = 3.  ``HOMOTOPY`` keeps a small fixed mu,
backtracks with Armijo, and minimizes the nu-modified merit from nu = nu0,
decaying nu by theta after a backtracked step and by theta * _FULL_STEP_SHRINK
after a full one, where the Newton model fitted the iterate.  That merit is
the base merit at nu = 0, so nu0 = 0 is the constant-mu method on it.

``solve`` starts at the least-squares point of ``linsys.least_squares_start``,
where Ax = b, A'lam + s = c and c.x = b.lam hold to rounding and only the
signs of x and s are left to fix; from there nu0 = 0.05 suffices.

Termination is measured on the base merit and the KKT kernel: a small value
and gradient end the run as Optimal only when every relative KKT residual of
``problems.kkt_residuals`` is at most ``KKT_TOL``, and a vanishing gradient
with a value bounded away from zero certifies that no primal-dual optimum
exists.

``solve`` also tries to polish each iterate onto a vertex before that test.
The m indices with the largest x_j - s_j at the iterate name a basis B; when
it equals the previous iterate's and has not been tried before,
``linsys._basic_vertex`` gives, from one LU factorization of A_B, the vertex
x_B = A_B^{-1} b, x_N = 0, lam = A_B^{-T} c_B, s = c - A'lam with s_B = 0
(the optimal-face projection of Mehrotra & Ye, Math. Prog. 1993, on a square
basis), each solve refined once on the same factors with a long-double
residual.  The vertex is
accepted only when x >= 0 and s >= 0 exactly, every entry is finite and the
same stopping test returns Optimal at it; it then becomes the final iterate.
A vertex that fails leaves the iterates as they were.  Whenever the
partition {j : x_j > s_j} has m columns it is this B, so the rule tries
every basis that partition would, at the same iterate or earlier, and no
run ends later than it would by waiting for exactly m x_j above their s_j.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from enum import Enum

import numpy as np

from . import merit
from .errors import DimensionMismatch, FactorizationFailure, InvalidConfig, NotDescentDirection
from .linsys import (
    _basic_vertex,
    build_reduced,
    least_squares_start,
    solve_dense,
    solve_structured,
)
from .merit import MeritKind, MeritSpec
from .problems import (
    KKT_TOL,
    HomogeneousPoint,
    PrimalDualPoint,
    StandardFormLp,
    kkt_residuals,
    residuals,
)

#: Scale-relative primal-residual threshold below which a certified
#: no-optimum outcome is attributed to dual infeasibility (unboundedness).
PRIMAL_FEASIBLE_TOL = 1e-6

#: Scale-relative merit value at or above which a vanishing gradient
#: certifies that no primal-dual optimum exists.
NO_OPTIMUM_TOL = 1e-8

#: Escalation ladder for failed factorizations: mu <- max(10 mu, 1e-12),
#: at most this many times; the last failure ends the run.
_MAX_MU_ESCALATIONS = 20

#: Armijo line search: sufficient-decrease constant, step shrink factor and
#: number of backtracks from the full step.
_C1 = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 60

#: HOMOTOPY decays nu by theta after a backtracked step and by
#: theta * _FULL_STEP_SHRINK after a full one; 1.0 gives nu_k = nu0 * theta**k.
_FULL_STEP_SHRINK = 0.5


class Algorithm(Enum):
    LM_ADAPTIVE = "lm-adaptive"
    HOMOTOPY = "homotopy"


#: The SolverConfig fields that each algorithm never reads: LM_ADAPTIVE sets
#: mu from hessian_lipschitz and keeps nu at 0, HOMOTOPY keeps mu at mu_const.
_UNREAD = {
    Algorithm.LM_ADAPTIVE: ("mu_const", "theta", "nu0"),
    Algorithm.HOMOTOPY: ("hessian_lipschitz",),
}


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

    ``q`` defaults to 3 for the adaptive scheme, which takes full steps, and
    to 2.1 for the homotopy, which backtracks with Armijo.  Every number must
    be finite.  Stopping thresholds are scale-relative: optimal needs value
    <= tol_f * scale^2 and grad <= tol_grad * scale^2, and then every
    relative KKT residual at most ``KKT_TOL``; a certified no-optimum needs
    the same gradient bound with value >= NO_OPTIMUM_TOL * scale^2.
    ``max_iter`` must be a nonnegative integer.  HOMOTOPY starts nu at
    ``nu0`` >= 0, by default 0.05, which suffices from the least-squares
    start; 0 runs on the base merit throughout.  It multiplies nu by
    ``theta``, in (0, 1), after a backtracked step and by half of it after a
    full one.  A field that the algorithm never reads, as stated in
    ``_UNREAD``, must keep its default.
    """

    algorithm: Algorithm
    q: float | None = None
    mu_const: float = 1e-9
    hessian_lipschitz: float = 1.0
    theta: float = 0.8
    nu0: float = 0.05
    max_iter: int = 500
    tol_grad: float = 1e-10
    tol_f: float = 1e-16
    trace: bool = True

    def __post_init__(self):
        if self.algorithm not in _UNREAD:
            raise InvalidConfig(f"algorithm must be an Algorithm, got {self.algorithm!r}")
        for f in fields(self):
            if f.name in _UNREAD[self.algorithm] and getattr(self, f.name) != f.default:
                raise InvalidConfig(
                    f"{self.algorithm.value} never reads {f.name}; leave it at {f.default}"
                )
        if self.q is None:
            object.__setattr__(
                self, "q", 3.0 if self.algorithm is Algorithm.LM_ADAPTIVE else 2.1
            )
        if not (math.isfinite(self.q) and self.q > 2.0):
            raise InvalidConfig(f"q must be finite and exceed 2, got {self.q}")
        if not 0.0 < self.theta < 1.0:
            raise InvalidConfig(f"theta must lie in (0, 1), got {self.theta}")
        if not (math.isfinite(self.nu0) and self.nu0 >= 0.0):
            raise InvalidConfig(f"nu0 must be finite and nonnegative, got {self.nu0}")
        for name in ("mu_const", "hessian_lipschitz", "tol_grad", "tol_f"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidConfig(f"{name} must be finite and positive, got {value}")
        integral = isinstance(self.max_iter, numbers.Integral) and not isinstance(
            self.max_iter, bool
        )
        if not (integral and self.max_iter >= 0):
            raise InvalidConfig(f"max_iter must be a nonnegative integer, got {self.max_iter!r}")

    def read_fields(self) -> tuple[str, ...]:
        """The names of the fields that the algorithm reads, in declaration order."""
        return tuple(f.name for f in fields(self) if f.name not in _UNREAD[self.algorithm])


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
    #: Whether the run stopped at a polished vertex, its final iterate.
    polished: bool = False
    #: How many bases the polish tried, the verified one included.
    polish_attempts: int = 0


def armijo_search(objective, p, delta, slope: float, f0: float):
    """Backtracking line search with the sufficient-decrease condition.

    Probes _SHRINK**j for j = 0.._MAX_BACKTRACKS and returns the first (hence
    largest) step with objective(p + alpha*delta) <= f0 + _C1*alpha*slope,
    where ``f0`` is objective(p) and ``slope`` the directional derivative at ``p``.
    The probe must also lie strictly below f0: once _C1*alpha*|slope| is under
    half an ulp of f0 the bound rounds to f0, and a flat probe would pass.
    Returns (alpha, stagnated); when every probe fails, the last probe is
    returned with stagnated=True.  Raises NotDescentDirection if slope >= 0.
    """
    if not slope < 0.0:
        raise NotDescentDirection(f"directional derivative must be negative, got {slope}")
    alpha = 1.0
    for j in range(_MAX_BACKTRACKS + 1):
        f = objective(p + alpha * delta)
        if f < f0 and f <= f0 + _C1 * alpha * slope:
            return alpha, False
        if j < _MAX_BACKTRACKS:
            alpha *= _SHRINK
    return alpha, True


def _newton_step(spec, lp, z, mu, g):
    """Solve (hessian + mu*I) delta = -g at ``z``, escalating mu on factorization failure.

    The merit kind picks the one solve: the primal-dual merit takes the
    structured solve; the homogeneous merit takes solve_dense, which
    eliminates only the s block, since its two border rows fall outside the
    reduced system.  Each failure sets mu <- max(10 mu, 1e-12); the
    FactorizationFailure of the last rung propagates.
    """
    for rung in range(_MAX_MU_ESCALATIONS + 1):
        try:
            if spec.kind is MeritKind.HOMOGENEOUS:
                return solve_dense(spec, lp, z, mu, -g)
            return solve_structured(*build_reduced(spec, lp, z, mu, g), lp)
        except FactorizationFailure:
            if rung == _MAX_MU_ESCALATIONS:
                raise
            mu = max(10.0 * mu, 1e-12)


def _step(spec, lp, config, z, f, g, mu):
    """One damped Newton step from ``z``, given the objective's value f and gradient g.

    LM_ADAPTIVE takes full steps, HOMOTOPY backtracks with Armijo.  Returns
    (alpha, z_next, None) on success, or (None, None, status) with the status
    that ends the run: a failed factorization, a non-finite step or a
    non-finite iterate is a numerical failure, a non-descent direction or a
    stagnated Armijo search is an iteration limit.
    """
    try:
        delta = _newton_step(spec, lp, z, mu, g)
    except FactorizationFailure:
        return None, None, SolveStatus.NUMERICAL_FAILURE
    # the back-substitutions check nothing for finiteness, so a NaN or inf
    # in the right-hand side or its refinement residual surfaces here
    if not np.isfinite(delta).all():
        return None, None, SolveStatus.NUMERICAL_FAILURE
    slope = float(g @ delta)
    if not slope < 0.0:
        return None, None, SolveStatus.ITERATION_LIMIT
    alpha = 1.0
    if config.algorithm is not Algorithm.LM_ADAPTIVE:
        alpha, stagnated = armijo_search(
            lambda zz: merit.value_at(spec, lp, zz), z, delta, slope, f
        )
        if stagnated:
            return None, None, SolveStatus.ITERATION_LIMIT
    z_next = z + alpha * delta
    if not np.isfinite(z_next).all():
        return None, None, SolveStatus.NUMERICAL_FAILURE
    return alpha, z_next, None


class _Polish:
    """The polish attempt of ``solve`` at each iterate.

    The basis guessed at ``z`` is T, the m indices with the largest
    x_j - s_j, in increasing order.  It is tried once it is stable: equal to
    the previous iterate's T.  Keeps that previous T and every basis already
    tried: the vertex depends on the basis alone, so each is tried at most
    once.

    This rule stops no later than trying the partition B = {j : x_j > s_j}
    when |B| = m: then B is the set of the m positive x_j - s_j, so T = B,
    and every basis B would try is tried at the same iterate or earlier.  A
    failed attempt leaves the iterates as they were, and whether a vertex
    verifies depends on its basis alone, so no run ends later or with a
    worse status.
    """

    def __init__(self, lp, stop):
        self.lp, self.stop = lp, stop
        self.previous = np.empty(0, dtype=np.intp)
        self.tried = set()
        self.verified = False

    def __call__(self, z, spec):
        """``_attempt`` at the top-m basis of ``z`` if it equals the previous
        iterate's; otherwise None."""
        n, m = self.lp.n, self.lp.m
        basis = np.sort(np.argpartition(z[n + m :] - z[:n], m - 1)[:m])
        previous, self.previous = self.previous, basis
        if not np.array_equal(basis, previous):
            return None
        return self._attempt(basis, spec)

    def _attempt(self, basis, spec):
        """(vertex, its ``merit.evaluate`` at ``spec``) if ``basis`` is new
        and its vertex passes the stopping test as Optimal on the base
        merit; otherwise None."""
        key = basis.tobytes()
        if key in self.tried:
            return None
        self.tried.add(key)
        vertex = _basic_vertex(self.lp, basis)
        if vertex is None:
            return None
        evaluation = merit.evaluate(spec, self.lp, vertex)
        (f, g), _, res = evaluation
        if self.stop(vertex, f, float(np.abs(g).max()), res) is not SolveStatus.OPTIMAL:
            return None
        self.verified = True
        return vertex, evaluation


def _minimize(lp, config, spec, z, stop, *, record=None, polish=None):
    """The iteration loop of ``solve`` and ``solve_homogeneous``.

    Minimizes the merit ``spec`` at nu = 0 from the flat iterate ``z``.  While
    nu > 0, starting from ``spec.nu``, steps are taken on the nu-surrogate,
    whose nu decays by theta after a backtracked step and by
    theta * _FULL_STEP_SHRINK after a full one; one ``merit.evaluate`` call
    gives it with the merit at nu = 0.
    ``stop(z, f, g_inf, res)`` returns the status that ends the run at the
    iterate ``z``, with residuals ``res``, or None.  ``record``, if given,
    returns the trace row of an iterate from its residuals; its alpha is set
    once the step is taken.
    ``polish``, if given, is a ``_Polish`` tried at each iterate below
    ``max_iter`` before ``stop``; a vertex it returns is the next iterate,
    with the evaluation it returns, and ``stop`` ends the run there.  Its
    row keeps alpha 0, and nu decays by theta, as after a backtracked step.
    Returns (z, k, f, g_inf, status) at the last finite iterate; f is the
    last merit value and g_inf the last finite gradient max-norm.
    """

    def spec_at(weight):
        return replace(spec, nu=weight)

    nu = spec.nu
    g_inf = math.inf
    pending = None  # the evaluation of a verified vertex, the next iterate
    for k in range(config.max_iter + 1):
        cur_spec = spec_at(nu)
        (f, g), (f_cur, g_cur), res = pending or merit.evaluate(cur_spec, lp, z)
        if not (math.isfinite(f) and np.isfinite(g).all()):
            return z, k, f, g_inf, SolveStatus.NUMERICAL_FAILURE
        g_inf = float(np.abs(g).max())
        if not (math.isfinite(f_cur) and np.isfinite(g_cur).all()):
            return z, k, f, g_inf, SolveStatus.NUMERICAL_FAILURE
        g_cur_norm = float(np.linalg.norm(g_cur))

        if config.algorithm is Algorithm.LM_ADAPTIVE:
            mu = math.sqrt(config.hessian_lipschitz * g_cur_norm / 2.0)
        else:
            mu = config.mu_const

        row = record(k, z, res, f_cur, g_cur_norm, mu, nu) if record is not None else None
        if polish is not None and k < config.max_iter:
            verified = polish(z, spec_at(nu * config.theta))
            if verified is not None:
                z, pending = verified
                nu *= config.theta
                continue
        status = stop(z, f, g_inf, res)
        # mu = 0 only at a zero gradient whose value ``stop`` leaves undecided
        if status is None and (k == config.max_iter or mu <= 0.0):
            status = SolveStatus.ITERATION_LIMIT
        if status is not None:
            return z, k, f, g_inf, status

        alpha, z_next, failure = _step(cur_spec, lp, config, z, f_cur, g_cur, mu)
        if failure is not None:
            return z, k, f, g_inf, failure
        if row is not None:
            row.alpha = alpha
        z = z_next
        nu *= config.theta * _FULL_STEP_SHRINK if alpha == 1.0 else config.theta


def solve(
    lp: StandardFormLp, config: SolverConfig, *, x_star: np.ndarray | None = None
) -> SolveOutcome:
    """Minimize the merit function from the least-squares point and classify the outcome.

    ``x_star``, when known, adds the relative primal error to each trace
    row.  The returned status follows the scale-relative thresholds in
    :class:`SolverConfig`, and Optimal also needs every relative KKT
    residual at most ``KKT_TOL``, computed once per such decision from the
    iterate's own residuals; an iterate that misses it does not stop the
    run.  On a certified no-optimum outcome, a near-zero primal residual is
    the evidence used to report the problem as primal feasible but dual
    infeasible.  Raises FactorizationFailure when AA' overflows, so that the
    start cannot be formed.
    """
    n, m = lp.n, lp.m
    scale2 = lp.scale**2
    tol_f = config.tol_f * scale2
    tol_grad = config.tol_grad * scale2
    tol_no_opt = NO_OPTIMUM_TOL * scale2
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=float)
        if x_star.shape != (n,):
            raise DimensionMismatch(f"x_star must have shape ({n},), got {x_star.shape}")
        x_star_norm = float(np.linalg.norm(x_star))

    def stop(z, f, g_inf, res):
        if g_inf <= tol_grad:
            if f <= tol_f:
                kkt = kkt_residuals(lp, z[:n], z[n : n + m], z[n + m :], res)
                return SolveStatus.OPTIMAL if max(kkt.values()) <= KKT_TOL else None
            if f >= tol_no_opt:
                return SolveStatus.NO_OPTIMAL_SOLUTION
        return None

    trace: list[IterationRecord] = []

    def record(k, z, res, f, grad_norm, mu, nu):
        gamma, rho, sigma = res
        x, s = z[:n], z[n + m :]
        row = IterationRecord(
            k=k,
            f=f,
            grad_norm=grad_norm,
            mu=mu,
            nu=nu,
            alpha=0.0,
            gap=abs(gamma),
            primal_res=float(np.linalg.norm(rho)),
            dual_res=float(np.linalg.norm(sigma)),
            min_x=float(x.min()),
            min_s=float(s.min()),
            rel_err_x=(
                float(np.linalg.norm(x - x_star)) / x_star_norm
                if x_star is not None and x_star_norm > 0
                else None
            ),
        )
        trace.append(row)
        return row

    nu = config.nu0 if config.algorithm is Algorithm.HOMOTOPY else 0.0
    polish = _Polish(lp, stop)
    z, iterations, f, g_inf, status = _minimize(
        lp, config, MeritSpec(MeritKind.PRIMAL_DUAL, q=config.q, nu=nu),
        least_squares_start(lp), stop,
        record=record if config.trace else None, polish=polish,
    )
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
        final_f=f,
        final_grad_norm=g_inf,
        iterations=iterations,
        classification=classification,
        trace=trace,
        polished=polish.verified,
        polish_attempts=len(polish.tried),
    )


def solve_homogeneous(
    lp: StandardFormLp, config: SolverConfig
) -> tuple[HomogeneousPoint, HomogeneousStatus]:
    """Minimize the homogeneous-embedding merit and classify the solution.

    The run starts at the all-ones point, since the all-zero point is a global
    minimizer of this merit.  It stops on the gradient test alone, and
    ``config.algorithm`` picks only the mu rule and the line search: nu is 0
    whatever ``nu0`` is.  Iterations use solve_dense, which eliminates only
    the s block and factors the remainder over (x, lam, tau, kappa), since the
    structured elimination does not cover the two extra dense rows.  On
    gradient convergence, tau and kappa decide the outcome; sign tests use the
    same classification threshold so that round-off cannot flip a branch.  A
    run that stops before convergence, on a failed factorization or a
    non-finite step included, is Inconclusive.
    """
    tol_grad = config.tol_grad * lp.scale**2

    def stop(z, f, g_inf, res):
        return SolveStatus.OPTIMAL if g_inf <= tol_grad else None

    z, _, _, _, status = _minimize(
        lp, config, MeritSpec(MeritKind.HOMOGENEOUS, q=config.q),
        np.ones(2 * lp.n + lp.m + 2), stop,
    )
    point = HomogeneousPoint.from_vector(z, lp.n, lp.m)
    if status is not SolveStatus.OPTIMAL:
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

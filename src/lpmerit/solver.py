"""The iteration driver: regularized Newton on the merit function.

One loop serves ``solve`` (the primal-dual merit) and ``solve_homogeneous``
(the homogeneous embedding).  It evaluates each flat iterate once, through
``merit.evaluate``, and builds a point object only at exit.

Two regularization policies are provided, each with fixed constants.
``LM_ADAPTIVE`` sets mu_k = sqrt(L * ||grad||_2 / 2) with
L = ``_HESSIAN_LIPSCHITZ`` and takes full steps on the merit with q = 3, the
setting with a global worst-case guarantee.  ``HOMOTOPY`` keeps mu at
``_MU``, backtracks with Armijo, and minimizes the nu-modified merit with
q = 2.1 from nu = nu0, decaying nu by ``_THETA`` after a backtracked step and
by ``_THETA * _FULL_STEP_SHRINK`` after a full one, where the Newton model
fitted the iterate.  That merit is the base merit at nu = 0, so nu0 = 0 is
the constant-mu method on it.

``solve`` starts at the least-squares point of ``linsys.least_squares_start``,
where Ax = b, A'lam + s = c and c.x = b.lam hold to rounding and only the
signs of x and s are left to fix; from there nu0 = 0.05 suffices.

Termination is measured on the base merit and the KKT kernel, with fixed
scale-relative thresholds: a value within ``VALUE_TOL`` and a gradient
within ``GRADIENT_TOL`` end the run as Optimal only when every relative KKT
residual of ``problems.kkt_residuals`` is at most ``KKT_TOL``, and a gradient
within ``GRADIENT_TOL`` with a value of at least ``NO_OPTIMUM_TOL``
certifies that no primal-dual optimum exists.

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

The polish also looks ahead, at the start and whenever B differs from the
previous iterate's in exactly one index and is new, by a bounded crossover
from B in ``linsys._look_ahead_basis`` (after Megiddo, ORSA J. Comput.
1991, and Bixby & Saltzman, Oper. Res. Lett. 1994): at most
``linsys._CROSSOVER_PIVOTS`` pivots, each basis screened with one unrefined
LU, a dual-simplex pivot when only x_B has a negative entry, a
primal-simplex pivot when only s has one, and Terlaky's least-index
criss-cross pivot (Optimization 1985) when both have.  The chain goes on
only while a basis has no more negative entries than pivots left, so a B
far from a vertex costs one LU.  The basis it ends on takes the same
refined attempt, which refines the chain's last LU and solves instead of
factoring A_B again.  A B that the crossover rejects is not marked tried,
so every stable B is still tried when it would have been, and the
look-ahead only adds attempts, each of which leaves the iterates as they
were when it fails: no run ends later or with a worse status than without
it.  On ``generate_optimal_lp(5, 10, s)``, s = 0..59, the crossover from
the least-squares start's B ends every run at iteration 1.

``solve`` also checks each iterate for a dual-infeasibility ray
(``_RayCheck``, the test that PDLP applies to its iterates: Applegate,
Diaz, Lubin & Hinder, SIAM J. Optim. 2024).  The candidate
d = max(A'lam + s - c, 0) comes from the iterate's residuals.  A screen of
O(n) work and one product A d passes it only when c.d < 0,
||d|| > KKT_TOL * (1 + ||c||) and ||A d|| <= _RAY_SCREEN * ||A||_F ||d||;
only then is d projected onto null(A_P), P its entries above 1e-3 max d
(``linsys.project_ray``), and the projection verified by
``problems.is_dual_ray``.  A problem with a ray has no optimum, so from the
first iterate whose ray verifies on, the certified phase, the polish is no
longer tried and each decay of nu takes one more factor
_THETA * _FULL_STEP_SHRINK: a full step shrinks nu by 0.16 instead of 0.4.
The stopping test and the classification are as before, and the ray and
the iterate where it verified are reported; a run that would end
IterationLimit while it holds a verified ray ends NoOptimalSolution
instead, since the ray certifies that no optimum exists.  A run in which no
ray verifies is the run without the check bit for bit.  Both schemes run the
check; LM_ADAPTIVE, whose nu stays 0, only stops polishing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from . import merit
from .errors import DimensionMismatch, FactorizationFailure, InvalidConfig, NotDescentDirection
from .linsys import (
    _basic_vertex,
    _look_ahead_basis,
    build_reduced,
    least_squares_start,
    project_ray,
    solve_dense,
    solve_structured,
)
from .merit import MeritKind, MeritSpec
from .problems import (
    KKT_TOL,
    HomogeneousPoint,
    PrimalDualPoint,
    StandardFormLp,
    _all_finite,
    _norm,
    is_dual_ray,
    kkt_residuals,
    residuals,
)

#: Scale-relative primal-residual threshold below which a certified
#: no-optimum outcome is attributed to dual infeasibility (unboundedness).
PRIMAL_FEASIBLE_TOL = 1e-6

#: Scale-relative merit value and gradient max-norm at or below which an
#: iterate stops the run: as Optimal when its KKT residuals pass ``KKT_TOL``.
VALUE_TOL = 1e-16
GRADIENT_TOL = 1e-10

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

#: HOMOTOPY decays nu by _THETA after a backtracked step and by
#: _THETA * _FULL_STEP_SHRINK after a full one; a shrink of 1.0 would give
#: nu_k = nu0 * _THETA**k.
_THETA = 0.8
_FULL_STEP_SHRINK = 0.5

#: HOMOTOPY's constant regularization mu, and its default initial nu.
_MU = 1e-9
_NU0 = 0.05

#: LM_ADAPTIVE's Lipschitz constant L of the Hessian in mu_k = sqrt(L * ||grad|| / 2).
_HESSIAN_LIPSCHITZ = 1.0

#: The ray screen passes a candidate d only when ||A d|| is at most this
#: times ||A||_F ||d||: for a Gaussian A a random direction gives about
#: 1/sqrt(n), and the iterates of problems with an optimum gave 0.037 to
#: 0.19, against 1.1e-4 to 6.3e-3 on the benchmark's unbounded panel.
_RAY_SCREEN = 1e-2


class Algorithm(Enum):
    LM_ADAPTIVE = "lm-adaptive"
    HOMOTOPY = "homotopy"


#: The hinge power q of each algorithm's merit: 3 for the adaptive scheme,
#: which takes full steps, and 2.1 for the homotopy, which backtracks.
_Q = {Algorithm.LM_ADAPTIVE: 3.0, Algorithm.HOMOTOPY: 2.1}


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
    """Algorithm variant, homotopy start, and iteration budget.

    The rest of each variant is fixed: the hinge power ``_Q``, the
    homotopy's ``_MU`` and ``_THETA``, and the adaptive scheme's
    ``_HESSIAN_LIPSCHITZ``, and so are the stopping thresholds
    ``VALUE_TOL``, ``GRADIENT_TOL``, ``NO_OPTIMUM_TOL`` and ``KKT_TOL``.
    ``max_iter`` must be a nonnegative integer.  HOMOTOPY starts nu at a
    finite ``nu0`` >= 0, by default 0.05, which suffices from the
    least-squares start; 0 runs on the base merit throughout.  LM_ADAPTIVE
    never reads ``nu0``, so it must keep its default there.
    """

    algorithm: Algorithm
    nu0: float = _NU0
    max_iter: int = 500
    trace: bool = True

    def __post_init__(self):
        if not isinstance(self.algorithm, Algorithm):
            raise InvalidConfig(f"algorithm must be an Algorithm, got {self.algorithm!r}")
        if "nu0" not in self.read_fields() and self.nu0 != _NU0:
            raise InvalidConfig(f"{self.algorithm.value} never reads nu0; leave it at {_NU0}")
        if not (math.isfinite(self.nu0) and self.nu0 >= 0.0):
            raise InvalidConfig(f"nu0 must be finite and nonnegative, got {self.nu0}")
        integral = isinstance(self.max_iter, numbers.Integral) and not isinstance(
            self.max_iter, bool
        )
        if not (integral and self.max_iter >= 0):
            raise InvalidConfig(f"max_iter must be a nonnegative integer, got {self.max_iter!r}")

    def read_fields(self) -> tuple[str, ...]:
        """The names of the fields that the algorithm reads, in declaration order."""
        unread = "nu0" if self.algorithm is Algorithm.LM_ADAPTIVE else None
        return tuple(f.name for f in fields(self) if f.name != unread)


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
    #: How many bases the polish tried with the refined vertex, the verified
    #: one included; the look-ahead's unrefined screens are not counted.
    polish_attempts: int = 0
    #: The first dual-infeasibility ray that verified, projected onto
    #: null(A_P), and the iteration at which it verified; None when none did.
    ray: np.ndarray | None = None
    ray_verified_at: int | None = None


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
    # in the right-hand side or its refinement residual surfaces here: a
    # non-finite entry of delta makes the slope inf or NaN, so only a
    # non-finite slope, which also comes of an overflow, needs the full test
    slope = float(g.dot(delta))
    if not math.isfinite(slope) and not np.isfinite(delta).all():
        return None, None, SolveStatus.NUMERICAL_FAILURE
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
    if not _all_finite(z_next):
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

    At the start and whenever T differs from the previous T in exactly one
    index and is new, the polish also looks ahead: ``_look_ahead_basis``
    runs a crossover of at most ``linsys._CROSSOVER_PIVOTS`` pivots from T,
    one unrefined LU per basis, and names the basis it ends on, T itself
    when T's vertex has the right signs; that basis takes the same
    ``_attempt``, with the chain's LU.  A T that the crossover rejects is
    not marked tried, so it is still attempted once it is stable, and the
    stable attempts are exactly those of the rule without the look-ahead,
    or earlier.  The look-ahead thus only adds attempts, and by the
    argument above no run ends later or with a worse status.
    """

    def __init__(self, lp, stop):
        self.lp, self.stop = lp, stop
        self.previous = np.empty(0, dtype=np.intp)
        self.tried = set()
        self.verified = False

    def __call__(self, z, spec):
        """``_attempt`` at the top-m basis T of ``z`` if it equals the
        previous iterate's; at the basis that ``_look_ahead_basis`` returns
        for a new T at the start or one index away from the previous T;
        otherwise None."""
        n, m = self.lp.n, self.lp.m
        basis = (z[n + m :] - z[:n]).argpartition(m - 1)[:m]
        basis.sort()
        previous, self.previous = self.previous, basis
        key = basis.tobytes()
        if key == previous.tobytes():
            return self._attempt(basis, spec)
        if key in self.tried:
            return None
        if previous.size:
            # T is one index away from the previous T when m - 1 of its
            # indices are in the previous T
            member = np.zeros(n, dtype=bool)
            member[previous] = True
            if np.count_nonzero(member[basis]) != m - 1:
                return None
        ahead = _look_ahead_basis(self.lp, basis)
        if ahead is None:
            return None
        return self._attempt(ahead, spec)

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


class _RayCheck:
    """The dual-ray test of ``solve`` at each iterate, until one verifies.

    The candidate is d = max(A'lam + s - c, 0) = max(-sigma, 0), from the
    iterate's residuals.  A cheap screen, O(n) and one product A d, passes
    it only when c.d < 0, ||d|| > KKT_TOL * (1 + ||c||) (the rule of
    ``_ray_start``) and ||A d|| <= _RAY_SCREEN * ||A||_F ||d||.  Only then
    does ``project_ray`` project it onto null(A_P), with one Cholesky
    factorization, and ``is_dual_ray`` verify the result.  The first ray
    that verifies is kept with its iteration.
    """

    def __init__(self, lp):
        self.lp = lp
        self.screen = _RAY_SCREEN * lp.norms[0]
        self.ray = None
        self.verified_at = None

    def __call__(self, k, res):
        """Whether the iterate ``k`` with residuals ``res`` gives a verified ray."""
        lp = self.lp
        d = np.maximum(-res[2], 0.0)
        if _ray_objective(lp, d) is None:
            return False
        if not _norm(lp.A.dot(d)) <= self.screen * _norm(d):
            return False
        try:
            ray = project_ray(lp, d)
        except FactorizationFailure:
            return False
        if not is_dual_ray(lp, ray):
            return False
        self.ray, self.verified_at = ray, k
        return True


def _minimize(lp, config, spec, z, stop, *, record=None, polish=None, ray=None):
    """The iteration loop of ``solve`` and ``solve_homogeneous``.

    Minimizes the merit ``spec`` at nu = 0 from the flat iterate ``z``.  While
    nu > 0, starting from ``spec.nu``, steps are taken on the nu-surrogate,
    whose nu decays by _THETA after a backtracked step and by
    _THETA * _FULL_STEP_SHRINK after a full one; one ``merit.evaluate`` call
    gives it with the merit at nu = 0.
    ``stop(z, f, g_inf, res)`` returns the status that ends the run at the
    iterate ``z``, with residuals ``res``, or None.  ``record``, if given,
    returns the trace row of an iterate from its residuals; its alpha is set
    once the step is taken.
    ``polish``, if given, is a ``_Polish`` tried at each iterate below
    ``max_iter`` before ``stop``; a vertex it returns is the next iterate,
    with the evaluation it returns.  ``stop`` has found it Optimal, so the
    run ends there without a second test, unless the polish at that iterate
    returns another vertex.  Its row keeps alpha 0, and nu decays by
    _THETA, as after a backtracked step.
    ``ray``, if given, is a ``_RayCheck`` run at each iterate, before the
    polish, until it verifies a dual-infeasibility ray.  From that iterate on
    the problem has no optimum, so no vertex can verify: the polish is no
    longer tried, and each decay of nu, if nu > 0, takes one more factor
    _THETA * _FULL_STEP_SHRINK.  A run in which no ray verifies is the run
    without ``ray`` bit for bit.
    Returns (z, k, f, g_inf, status) at the last finite iterate; f is the
    last merit value and g_inf the last finite gradient max-norm.
    """

    kind, q = spec.kind, spec.q
    adaptive = config.algorithm is Algorithm.LM_ADAPTIVE
    nu = spec.nu
    g_inf = math.inf
    pending = None  # the evaluation of a verified vertex, the next iterate
    certified = 1.0  # the extra nu decay once a ray has verified
    for k in range(config.max_iter + 1):
        cur_spec = spec if nu == spec.nu else MeritSpec(kind, q, nu)
        if pending is None:
            (f, g), (f_cur, g_cur), res = merit.evaluate(cur_spec, lp, z)
            status = None
        else:
            # the polish returns a vertex only once ``stop`` has found it Optimal
            (f, g), (f_cur, g_cur), res = pending
            status = SolveStatus.OPTIMAL
        # a NaN or inf entry makes a norm NaN or inf, so only a norm that is
        # not finite, which also comes of an overflow, needs the full test
        g_max = float(np.abs(g).max())
        if not (math.isfinite(f) and math.isfinite(g_max)):
            return z, k, f, g_inf, SolveStatus.NUMERICAL_FAILURE
        g_inf = g_max
        g_cur_norm = _norm(g_cur)
        if not (
            math.isfinite(f_cur) and (math.isfinite(g_cur_norm) or np.isfinite(g_cur).all())
        ):
            return z, k, f, g_inf, SolveStatus.NUMERICAL_FAILURE

        mu = math.sqrt(_HESSIAN_LIPSCHITZ * g_cur_norm / 2.0) if adaptive else _MU

        row = record(k, z, res, f_cur, g_cur_norm, mu, nu) if record is not None else None
        if ray is not None and ray(k, res):
            polish = ray = None
            certified = _THETA * _FULL_STEP_SHRINK
        if polish is not None and k < config.max_iter:
            verified = polish(z, MeritSpec(kind, q, nu * _THETA))
            if verified is not None:
                z, pending = verified
                nu *= _THETA
                continue
        if status is None:
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
        nu *= (_THETA * _FULL_STEP_SHRINK if alpha == 1.0 else _THETA) * certified


def solve(
    lp: StandardFormLp, config: SolverConfig, *, x_star: np.ndarray | None = None
) -> SolveOutcome:
    """Minimize the merit function from the least-squares point and classify the outcome.

    ``x_star``, when known, adds the relative primal error to each trace
    row.  Optimal needs value <= VALUE_TOL * scale^2 and gradient max-norm
    <= GRADIENT_TOL * scale^2, and then every relative KKT residual at most
    ``KKT_TOL``, computed once per such decision from the iterate's own
    residuals; an iterate that misses it does not stop the run.  A certified
    no-optimum needs the same gradient bound with value >= NO_OPTIMUM_TOL *
    scale^2; a near-zero primal residual then is the evidence used to report
    the problem as primal feasible but dual infeasible.  Each iterate is
    also checked for a dual-infeasibility ray (``_RayCheck``); the first
    that verifies is returned with its iteration, and from it on the run
    neither polishes nor decays nu at the old rate.  A run that ends
    IterationLimit while it holds a verified ray is NoOptimalSolution,
    classified by the same primal-residual rule.  Raises
    FactorizationFailure when AA' overflows, so that the start cannot be
    formed.
    """
    n, m = lp.n, lp.m
    scale2 = lp.scale**2
    tol_f = VALUE_TOL * scale2
    tol_grad = GRADIENT_TOL * scale2
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
    ray = _RayCheck(lp)
    z, iterations, f, g_inf, status = _minimize(
        lp, config, MeritSpec(MeritKind.PRIMAL_DUAL, q=_Q[config.algorithm], nu=nu),
        least_squares_start(lp), stop,
        record=record if config.trace else None, polish=polish, ray=ray,
    )
    point = PrimalDualPoint.from_vector(z, n, m)
    # a verified ray certifies that no optimum exists, also when the run
    # stopped on a failed step or at max_iter
    if status is SolveStatus.ITERATION_LIMIT and ray.ray is not None:
        status = SolveStatus.NO_OPTIMAL_SOLUTION
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
        ray=ray.ray,
        ray_verified_at=ray.verified_at,
    )


def _ray_objective(lp: StandardFormLp, d: np.ndarray) -> float | None:
    """c.d for a candidate ray ``d``, or None unless d and c.d are finite,
    c.d < 0 and ||d|| > KKT_TOL * (1 + ||c||).

    The norm bound keeps the rounding-level d of a dual-feasible point, such
    as a verified optimum, whose c.d may be negative, from passing for a ray.
    c.d is tested first, as ``solve`` runs this at every iterate and c.d >= 0
    at most iterates of a problem with an optimum: a finite c.d already
    means a finite d, since an inf or nan entry of d makes the sum inf or nan.
    """
    cd = float(lp.c.dot(d))
    if not (math.isfinite(cd) and cd < 0.0):
        return None
    if not _norm(d) > KKT_TOL * (1.0 + lp.norms[2]):
        return None
    return cd


def _ray_start(lp: StandardFormLp, near: PrimalDualPoint) -> np.ndarray | None:
    """The homogeneous start x = d / (-c.d), lam = 0, s = 0, tau = 0,
    kappa = 1 from d = max(A'lam + s - c, 0) at ``near``, or None unless
    ``_ray_objective`` passes d.

    There gamma and sigma of the embedding are exactly zero and rho = -Ax is
    as small as A d: at a primal-dual run's certified no-optimum with a
    feasible primal, d is its dual-infeasibility ray to rounding.
    """
    if near.lam.shape != (lp.m,) or near.s.shape != (lp.n,):
        raise DimensionMismatch(
            f"near has sizes (m={near.lam.size}, n={near.s.size}), "
            f"problem has (m={lp.m}, n={lp.n})"
        )
    d = np.maximum(lp.A.T @ near.lam + near.s - lp.c, 0.0)
    cd = _ray_objective(lp, d)
    if cd is None:
        return None
    z = np.zeros(2 * lp.n + lp.m + 2)
    z[: lp.n] = d / -cd
    z[-1] = 1.0
    return z


def solve_homogeneous(
    lp: StandardFormLp, config: SolverConfig, *, near: PrimalDualPoint | None = None
) -> tuple[HomogeneousPoint, HomogeneousStatus]:
    """Minimize the homogeneous-embedding merit and classify the solution.

    The run starts at the all-ones point, since the all-zero point is a global
    minimizer of this merit, unless ``near`` is given and names a ray:
    d = max(A'lam + s - c, 0) at ``near`` has c.d < 0 and fails the dual KKT
    test.  Then it starts at x = d / (-c.d), kappa = 1 and the rest zero (see
    ``_ray_start``).  ``near`` is meant to be the point of a ``solve`` run
    classified PrimalFeasibleDualInfeasible; at any other point whose d is
    no ray the run is the one from all-ones.  It stops on the gradient test
    alone, and ``config.algorithm`` picks only the mu rule and the line search: nu is 0
    whatever ``nu0`` is.  Iterations use solve_dense, which eliminates only
    the s block and factors the remainder over (x, lam, tau, kappa), since the
    structured elimination does not cover the two extra dense rows.  On
    gradient convergence, tau and kappa decide the outcome; sign tests use the
    same classification threshold so that round-off cannot flip a branch.  A
    run that stops before convergence, on a failed factorization or a
    non-finite step included, is Inconclusive.
    """
    tol_grad = GRADIENT_TOL * lp.scale**2

    def stop(z, f, g_inf, res):
        return SolveStatus.OPTIMAL if g_inf <= tol_grad else None

    start = _ray_start(lp, near) if near is not None else None
    z, _, _, _, status = _minimize(
        lp, config, MeritSpec(MeritKind.HOMOGENEOUS, q=_Q[config.algorithm]),
        np.ones(2 * lp.n + lp.m + 2) if start is None else start, stop,
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

"""Primal-dual linear programming via a single unconstrained minimization.

A standard-form LP and its dual are solved jointly by minimizing a convex,
twice continuously differentiable merit function whose zeros are exactly the
primal-dual optimal pairs.  Regularized Newton iterations with structured
linear solves drive the minimization; a positive minimum certifies that no
optimal pair exists, and the homogeneous embedding separates primal from dual
infeasibility.
"""

from .errors import (
    DimensionMismatch,
    FactorizationFailure,
    InstanceTooLarge,
    InvalidConfig,
    KindMismatch,
    LpMeritError,
    NonFiniteEntry,
    NonPositiveRegularization,
    NotDescentDirection,
    ShapeViolation,
)
from .linsys import (
    build_reduced,
    cholesky_rank_one_update,
    least_squares_start,
    solve_dense,
    solve_structured,
)
from .merit import MeritKind, MeritSpec
from .problems import (
    GENERATOR_NAME,
    KKT_TOL,
    RAY_TOL,
    GeneratedProblem,
    HomogeneousPoint,
    PrimalDualPoint,
    ProblemKind,
    StandardFormLp,
    brute_force_optimum,
    certificate_residuals,
    generate_optimal_lp,
    generate_unbounded_lp,
    is_dual_ray,
    kkt_residuals,
    residuals,
)
from .serialize import load_problem, save_problem
from .solver import (
    Algorithm,
    Classification,
    HomogeneousStatus,
    IterationRecord,
    SolveOutcome,
    SolveStatus,
    SolverConfig,
    armijo_search,
    recover_primal_dual,
    solve,
    solve_homogeneous,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "Classification",
    "DimensionMismatch",
    "FactorizationFailure",
    "GENERATOR_NAME",
    "GeneratedProblem",
    "HomogeneousPoint",
    "HomogeneousStatus",
    "InstanceTooLarge",
    "InvalidConfig",
    "IterationRecord",
    "KKT_TOL",
    "KindMismatch",
    "LpMeritError",
    "MeritKind",
    "MeritSpec",
    "NonFiniteEntry",
    "NonPositiveRegularization",
    "NotDescentDirection",
    "PrimalDualPoint",
    "ProblemKind",
    "RAY_TOL",
    "ShapeViolation",
    "SolveOutcome",
    "SolveStatus",
    "SolverConfig",
    "StandardFormLp",
    "armijo_search",
    "brute_force_optimum",
    "build_reduced",
    "certificate_residuals",
    "cholesky_rank_one_update",
    "generate_optimal_lp",
    "generate_unbounded_lp",
    "is_dual_ray",
    "kkt_residuals",
    "least_squares_start",
    "load_problem",
    "recover_primal_dual",
    "residuals",
    "save_problem",
    "solve",
    "solve_dense",
    "solve_homogeneous",
    "solve_structured",
]

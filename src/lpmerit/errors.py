"""Exception types shared across the package."""


class LpMeritError(Exception):
    """Base class for all lpmerit errors."""


class DimensionMismatch(LpMeritError, ValueError):
    """Array shapes are inconsistent with the problem dimensions."""


class NonFiniteEntry(LpMeritError, ValueError):
    """An input array contains NaN or infinite entries."""


class ShapeViolation(LpMeritError, ValueError):
    """Problem dimensions violate m >= 1, n >= 1, m < n."""


class InstanceTooLarge(LpMeritError, ValueError):
    """Problem exceeds the size guard of the enumeration oracle."""


class KindMismatch(LpMeritError, TypeError):
    """A point, or a Newton solve, does not match the merit kind: build_reduced
    takes only the primal-dual merit, solve_dense only the homogeneous one."""


class NonPositiveRegularization(LpMeritError, ValueError):
    """Levenberg-Marquardt parameter must be strictly positive."""


class FactorizationFailure(LpMeritError, RuntimeError):
    """A Cholesky factorization failed: the matrix is not numerically SPD, or not finite."""


class NotDescentDirection(LpMeritError, ValueError):
    """Line search requires a direction with negative directional derivative."""


class InvalidConfig(LpMeritError, ValueError):
    """Solver or merit configuration violates its invariants."""

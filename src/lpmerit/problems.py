"""Standard-form linear programs, synthetic generators, and a vertex-enumeration oracle.

A problem is the triple (A, b, c) of the primal

    min c.x   subject to  A x = b,  x >= 0,

whose dual is  max b.lam  subject to  A'lam + s = c,  s >= 0.  The solver
iterates over joint primal-dual points (x, lam, s), which may be infeasible;
the homogeneous embedding additionally carries the scaling pair (tau, kappa).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    InstanceTooLarge,
    InvalidConfig,
    NonFiniteEntry,
    ShapeViolation,
)

#: PRNG behind the generators; recorded in problem files so that seeds are
#: only treated as reproducible by readers using the same generator.
GENERATOR_NAME = "numpy-pcg64"

BRUTE_FORCE_MAX_N = 12
_BASIS_FEASIBILITY_SLACK = 1e-9
_BASIS_SINGULARITY_CUTOFF = 1e-10


class StandardFormLp:
    """Immutable problem data (A, b, c) with m constraints and n variables.

    Arrays are copied and marked read-only.  ``allow_square`` permits the
    m == n corner used by tiny desk examples; m > n is always rejected.
    """

    def __init__(self, A, b, c, *, allow_square: bool = False):
        A = np.array(A, dtype=float, order="C")
        b = np.array(b, dtype=float)
        c = np.array(c, dtype=float)
        if A.ndim != 2:
            raise DimensionMismatch(f"A must be a 2-d matrix, got ndim={A.ndim}")
        m, n = A.shape
        if b.shape != (m,):
            raise DimensionMismatch(f"b must have shape ({m},), got {b.shape}")
        if c.shape != (n,):
            raise DimensionMismatch(f"c must have shape ({n},), got {c.shape}")
        for name, arr in (("A", A), ("b", b), ("c", c)):
            if not np.isfinite(arr).all():
                raise NonFiniteEntry(f"{name} contains NaN or infinite entries")
        if m < 1 or n < 1:
            raise ShapeViolation(f"need m >= 1 and n >= 1, got ({m}, {n})")
        if m > n or (m == n and not allow_square):
            raise ShapeViolation(f"need m < n (got m={m}, n={n})")
        for arr in (A, b, c):
            arr.flags.writeable = False
        self.A = A
        self.b = b
        self.c = c
        self.m, self.n = m, n

    @cached_property
    def scale(self) -> float:
        """Problem magnitude 1 + ||A||_F + ||b||_2 + ||c||_2 used by relative tolerances."""
        return 1.0 + float(
            np.linalg.norm(self.A, "fro")
            + np.linalg.norm(self.b)
            + np.linalg.norm(self.c)
        )

    @cached_property
    def gram(self) -> np.ndarray:
        """The n x n Gram matrix A'A, computed once per problem and read-only."""
        G = self.A.T @ self.A
        G.flags.writeable = False
        return G

    def __repr__(self):
        return f"StandardFormLp(m={self.m}, n={self.n})"


def _freeze_blocks(point) -> None:
    """Check the x, lam and s blocks of a point and store them as read-only
    float vectors.

    Raises DimensionMismatch unless each block is 1-d and x and s match, and
    NonFiniteEntry on a NaN or infinite entry.
    """
    for name in ("x", "lam", "s"):
        v = np.array(getattr(point, name), dtype=float)
        if v.shape != (v.size,):
            raise DimensionMismatch(f"{name} must have shape ({v.size},), got {v.shape}")
        if not np.isfinite(v).all():
            raise NonFiniteEntry(f"{name} contains NaN or infinite entries")
        v.flags.writeable = False
        object.__setattr__(point, name, v)
    if point.x.shape != point.s.shape:
        raise DimensionMismatch(f"x and s must match, got {point.x.shape} and {point.s.shape}")


@dataclass(frozen=True)
class PrimalDualPoint:
    """Joint iterate (x, lam, s); no sign constraint, entries must be finite."""

    x: np.ndarray
    lam: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        _freeze_blocks(self)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.lam, self.s])

    @classmethod
    def from_vector(cls, z, n: int, m: int) -> "PrimalDualPoint":
        z = np.asarray(z, dtype=float)
        if z.shape != (2 * n + m,):
            raise DimensionMismatch(f"expected length {2 * n + m}, got {z.shape}")
        return cls(z[:n], z[n : n + m], z[n + m :])


@dataclass(frozen=True)
class HomogeneousPoint:
    """Iterate (x, lam, s, tau, kappa) of the homogeneous embedding."""

    x: np.ndarray
    lam: np.ndarray
    s: np.ndarray
    tau: float
    kappa: float

    def __post_init__(self):
        _freeze_blocks(self)
        if not (np.isfinite(self.tau) and np.isfinite(self.kappa)):
            raise NonFiniteEntry("tau and kappa must be finite")
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "kappa", float(self.kappa))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.lam, self.s, [self.tau, self.kappa]])

    @classmethod
    def from_vector(cls, z, n: int, m: int) -> "HomogeneousPoint":
        z = np.asarray(z, dtype=float)
        if z.shape != (2 * n + m + 2,):
            raise DimensionMismatch(f"expected length {2 * n + m + 2}, got {z.shape}")
        return cls(z[:n], z[n : n + m], z[n + m : 2 * n + m], z[2 * n + m], z[2 * n + m + 1])


def residuals(lp: StandardFormLp, point: PrimalDualPoint):
    """Return (gamma, rho, sigma): duality gap, primal residual, dual residual.

    gamma = c.x - b.lam,  rho = b - A x,  sigma = c - A'lam - s.
    """
    if point.x.shape != (lp.n,) or point.lam.shape != (lp.m,):
        raise DimensionMismatch(
            f"point has sizes (n={point.x.size}, m={point.lam.size}), "
            f"problem has (n={lp.n}, m={lp.m})"
        )
    gamma = float(lp.c @ point.x - lp.b @ point.lam)
    rho = lp.b - lp.A @ point.x
    sigma = lp.c - lp.A.T @ point.lam - point.s
    return gamma, rho, sigma


#: A point is optimal when each of its kkt_residuals is at most this.
KKT_TOL = 1e-6


def kkt_residuals(lp: StandardFormLp, x, lam, s, res) -> dict:
    """The four scale-free relative KKT residuals of the point (x, lam, s),
    from its ``res = (gamma, rho, sigma)`` as ``residuals`` gives them, at
    O(m + n) cost:

    primal ||Ax - b|| / (1 + ||b||),  dual ||A'lam + s - c|| / (1 + ||c||),
    gap |c.x - b.lam| / (1 + |c.x| + |b.lam|),  sign max(0, -min x, -min s).

    The blocks may be views of a flat iterate; nothing is validated.
    """
    gamma, rho, sigma = res
    cx, blam = float(lp.c @ x), float(lp.b @ lam)
    return {
        "primal": float(np.linalg.norm(rho)) / (1.0 + float(np.linalg.norm(lp.b))),
        "dual": float(np.linalg.norm(sigma)) / (1.0 + float(np.linalg.norm(lp.c))),
        "gap": abs(gamma) / (1.0 + abs(cx) + abs(blam)),
        "sign": max(0.0, -float(x.min()), -float(s.min())),
    }


class ProblemKind(Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class GeneratedProblem:
    """A problem plus whatever certificate its construction guarantees.

    Optimal problems carry ``known_optimum``; unbounded ones carry the
    recession ray ``known_ray`` together with a strictly feasible point.
    """

    lp: StandardFormLp
    known_optimum: PrimalDualPoint | None
    known_ray: np.ndarray | None
    feasible_point: np.ndarray | None
    seed: int
    kind: ProblemKind
    generator: str = GENERATOR_NAME


def check_seed(seed: int) -> None:
    """Raise InvalidConfig unless ``seed`` lies in [0, 2**64), as a problem file holds it."""
    if not 0 <= seed < 2**64:
        raise InvalidConfig(f"seed must be in [0, 2**64), got {seed}")


def _rng(seed: int) -> np.random.Generator:
    check_seed(seed)
    return np.random.default_rng(seed)


def generate_optimal_lp(m: int, n: int, seed: int) -> GeneratedProblem:
    """Generate a random problem with an exactly known strictly complementary optimum.

    A is i.i.d. standard normal.  A support set B of size m is drawn; the
    optimal x is uniform in (0.5, 1.5) on B and zero elsewhere, the optimal s
    is uniform in (0.5, 1.5) off B and zero on it, and lam is standard normal.
    Setting b = A x and c = A'lam + s then makes (x, lam, s) optimal by
    construction, with x and s complementary on disjoint supports.  The same
    seed reproduces the problem bit for bit.
    """
    if not 1 <= m < n:
        raise ShapeViolation(f"need 1 <= m < n, got ({m}, {n})")
    rng = _rng(seed)
    A = rng.standard_normal((m, n))
    support = rng.permutation(n)[:m]
    x = np.zeros(n)
    x[support] = rng.uniform(0.5, 1.5, size=m)
    s = np.zeros(n)
    off = np.ones(n, dtype=bool)
    off[support] = False
    s[off] = rng.uniform(0.5, 1.5, size=n - m)
    lam = rng.standard_normal(m)
    b = A @ x
    c = A.T @ lam + s
    return GeneratedProblem(
        lp=StandardFormLp(A, b, c),
        known_optimum=PrimalDualPoint(x, lam, s),
        known_ray=None,
        feasible_point=None,
        seed=int(seed),
        kind=ProblemKind.OPTIMAL,
    )


def generate_unbounded_lp(m: int, n: int, seed: int) -> GeneratedProblem:
    """Generate a random primal-unbounded (hence dual-infeasible) problem.

    The first n-1 columns of A are standard normal and the last column is
    -A' d' for a positive ray d', so d = (d', 1) > 0 satisfies A d = 0.  A
    positive x0 defines b = A x0, keeping the primal feasible, and c is
    adjusted so that c.d < 0: the objective decreases without bound along d.
    """
    if not 1 <= m < n - 1:
        raise ShapeViolation(f"need 1 <= m < n - 1, got ({m}, {n})")
    rng = _rng(seed)
    A_head = rng.standard_normal((m, n - 1))
    d_head = rng.uniform(0.5, 1.5, size=n - 1)
    last_col = -(A_head @ d_head)
    A = np.hstack([A_head, last_col[:, None]])
    ray = np.concatenate([d_head, [1.0]])
    x0 = rng.uniform(0.5, 1.5, size=n)
    b = A @ x0
    c = rng.standard_normal(n)
    if c @ ray >= 0:
        c = c - ((c @ ray + 1.0) / (ray @ ray)) * ray
    ray.flags.writeable = False
    x0.flags.writeable = False
    return GeneratedProblem(
        lp=StandardFormLp(A, b, c),
        known_optimum=None,
        known_ray=ray,
        feasible_point=x0,
        seed=int(seed),
        kind=ProblemKind.UNBOUNDED,
    )


def brute_force_optimum(lp: StandardFormLp):
    """Enumerate basic solutions and return (x, value) minimizing c.x, or None.

    Every m-subset B of columns is tried; A_B x_B = b is solved unless A_B is
    numerically singular (smallest singular value below 1e-10 of the largest),
    and candidates must satisfy x >= -1e-9.  On unbounded problems this still
    returns the best vertex value; it is not an unboundedness oracle.
    """
    if lp.n > BRUTE_FORCE_MAX_N:
        raise InstanceTooLarge(
            f"enumeration oracle limited to n <= {BRUTE_FORCE_MAX_N}, got n={lp.n}"
        )
    best_x = None
    best_value = np.inf
    for cols in itertools.combinations(range(lp.n), lp.m):
        sub = lp.A[:, cols]
        svals = np.linalg.svd(sub, compute_uv=False)
        if svals[0] == 0.0 or svals[-1] <= _BASIS_SINGULARITY_CUTOFF * svals[0]:
            continue
        xb = np.linalg.solve(sub, lp.b)
        if xb.min() < -_BASIS_FEASIBILITY_SLACK:
            continue
        x = np.zeros(lp.n)
        x[list(cols)] = xb
        value = float(lp.c @ x)
        if value < best_value:
            best_x, best_value = x, value
    if best_x is None:
        return None
    return best_x, best_value

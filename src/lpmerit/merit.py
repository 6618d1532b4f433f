"""Merit functions measuring primal-dual optimality violation, with exact derivatives.

Two kinds share one interface:

* ``PRIMAL_DUAL`` with weight nu >= 0: half the squared duality gap plus half
  the squared primal and dual residuals, plus hinge penalties
  max(-x_j, 0)**q and max(-s_j, 0)**q scaled by 1/(q(q-1)); for nu > 0 also
  nu*||lam||^2 and nu-weighted hinge penalties on the positive parts of x
  and s, which give the Hessian a positive diagonal away from coordinate
  zeros.  At nu = 0 it is the base merit: convex, twice continuously
  differentiable for q > 2, and zero exactly on the primal-dual optimal set.
* ``HOMOGENEOUS``: the base construction applied to the self-dual embedding
  in (x, lam, s, tau, kappa), whose residuals are c.x - b.lam + kappa,
  b*tau - A x and c*tau - A'lam - s.  It takes no nu.

The solver works on flat iterates.  ``evaluate`` computes the residuals
(gamma, rho, sigma) once and returns them together with two value-gradient
pairs: the merit at nu = 0 and the merit of the given spec, which differ only
when nu > 0.  ``value_at`` and ``gradient_at`` reuse the same code.  Every
hinge power max(-t, 0)**p, and the nu-weighted max(t, 0)**p, comes from one
helper over the sign-constrained coordinates.  The residuals are affine, so
the Hessian is J'J for their constant Jacobian J plus a nonnegative diagonal
recomputed per point.  ``eval_hessian`` forms J'J from an explicit J; the
homogeneous Newton solve needs only the block of J'J over
(x, lam, tau, kappa), which ``hessian_base`` caches per problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from weakref import WeakKeyDictionary

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, KindMismatch
from .problems import HomogeneousPoint, PrimalDualPoint, StandardFormLp

#: Any intermediate term beyond this saturates the value to +inf so that
#: divergent line-search probes fail cleanly instead of propagating NaNs.
OVERFLOW_LIMIT = 1e300


class MeritKind(Enum):
    PRIMAL_DUAL = "primal-dual"
    HOMOGENEOUS = "homogeneous"


@dataclass(frozen=True)
class MeritSpec:
    """Which merit function to evaluate; ``nu`` > 0 only for PRIMAL_DUAL."""

    kind: MeritKind
    q: float = 3.0
    nu: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.q) and self.q > 2.0):
            raise InvalidConfig(
                f"q must be finite and exceed 2 for twice differentiability, got {self.q}"
            )
        if not (math.isfinite(self.nu) and self.nu >= 0.0):
            raise InvalidConfig(f"nu must be finite and nonnegative, got {self.nu}")
        if self.kind is MeritKind.HOMOGENEOUS and self.nu > 0.0:
            raise InvalidConfig(f"the homogeneous merit takes no nu, got {self.nu}")


@dataclass(frozen=True)
class HessianParts:
    """Hessian as iterate-independent ``base`` = J'J plus diag(``diag_add``)."""

    base: np.ndarray
    diag_add: np.ndarray

    def full(self) -> np.ndarray:
        out = self.base.copy()
        out[np.diag_indices_from(out)] += self.diag_add
        return out


def _expect_length(lp, spec, z):
    size = 2 * lp.n + lp.m
    if spec.kind is MeritKind.HOMOGENEOUS:
        size += 2
    if z.shape != (size,):
        raise DimensionMismatch(f"expected point of length {size}, got {z.shape}")


def _hinge_powers(spec, lp, z, p):
    """(max(-t, 0)**p, max(t, 0)**p) in the layout of ``z``, where t is ``z``
    with the sign-free lam block set to zero; both come from one power of |t|.
    The second is None unless ``spec`` has nu > 0."""
    t = z.copy()
    t[lp.n : lp.n + lp.m] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.power(np.abs(t), p)
    neg = np.where(t < 0, a, 0.0)
    if spec.nu > 0.0:
        return neg, np.where(t > 0, a, 0.0)
    return neg, None


# ---------------------------------------------------------------------------
# flat-vector evaluation: evaluate at the solver's iterates, value_at at its
# Armijo probes, both on one residual computation
# ---------------------------------------------------------------------------


def _residuals(spec, lp, z):
    """(gamma, rho, sigma, A x, A' lam) at the flat iterate ``z``."""
    _expect_length(lp, spec, z)
    A, b, c, n, m = lp.A, lp.b, lp.c, lp.n, lp.m
    x, lam, s = z[:n], z[n : n + m], z[n + m : 2 * n + m]
    with np.errstate(over="ignore", invalid="ignore"):
        Ax, ATlam = A @ x, A.T @ lam
        if spec.kind is MeritKind.HOMOGENEOUS:
            tau, kappa = z[-2], z[-1]
            return float(c @ x - b @ lam + kappa), b * tau - Ax, c * tau - ATlam - s, Ax, ATlam
        return float(c @ x - b @ lam), b - Ax, c - ATlam - s, Ax, ATlam


def _values(spec, lp, z, gamma, rho, sigma):
    """(value at nu = 0, value of ``spec``), the second adding the nu terms
    to the first; sums over x and over the rest are kept apart."""
    q, n, m = spec.q, lp.n, lp.m
    neg, pos = _hinge_powers(spec, lp, z, q)
    with np.errstate(over="ignore", invalid="ignore"):
        penalty = (neg[:n].sum() + neg[n + m :].sum()) / (q * (q - 1.0))
        f0 = _saturating_sum(
            [0.5 * gamma * gamma, 0.5 * float(rho @ rho), 0.5 * float(sigma @ sigma), penalty]
        )
        if pos is None:
            return f0, f0
        lam = z[n : n + m]
        nu_penalty = spec.nu * (pos[:n].sum() + pos[n + m :].sum()) / (q * (q - 1.0))
        return f0, _saturating_sum([spec.nu * float(lam @ lam), nu_penalty], f0)


def _gradients(spec, lp, z, gamma, rho, sigma, Ax, ATlam):
    """(gradient at nu = 0, gradient of ``spec``), in the layout of ``z``."""
    A, b, c, q, n, m = lp.A, lp.b, lp.c, spec.q, lp.n, lp.m
    neg, pos = _hinge_powers(spec, lp, z, q - 1)
    tail = -sigma
    if spec.kind is MeritKind.HOMOGENEOUS:
        w = float(Ax @ b + (ATlam + z[n + m : -2]) @ c - (b @ b + c @ c) * z[-2])
        tail = np.concatenate([tail, [-w, gamma]])
    g0 = np.concatenate([gamma * c - A.T @ rho, -gamma * b - A @ sigma, tail]) - neg / (q - 1.0)
    if pos is None:
        return g0, g0
    nu_part = spec.nu * pos / (q - 1.0)
    nu_part[n : n + m] = 2.0 * spec.nu * z[n : n + m]
    return g0, g0 + nu_part


def evaluate(spec: MeritSpec, lp: StandardFormLp, z: np.ndarray):
    """``((f0, g0), (f, g), (gamma, rho, sigma))`` at the flat iterate ``z``,
    from one residual computation: the value and gradient at nu = 0 (the base
    merit for a PRIMAL_DUAL spec) and of ``spec``, each pair equal to
    value_at and gradient_at of its spec bit for bit, and the residuals both
    were built on."""
    gamma, rho, sigma, Ax, ATlam = _residuals(spec, lp, z)
    f0, f = _values(spec, lp, z, gamma, rho, sigma)
    g0, g = _gradients(spec, lp, z, gamma, rho, sigma, Ax, ATlam)
    return (f0, g0), (f, g), (gamma, rho, sigma)


def value_at(spec: MeritSpec, lp: StandardFormLp, z: np.ndarray) -> float:
    """Merit value at the flat iterate ``z``; saturates to +inf on overflow."""
    return _values(spec, lp, z, *_residuals(spec, lp, z)[:3])[1]


def gradient_at(spec: MeritSpec, lp: StandardFormLp, z: np.ndarray) -> np.ndarray:
    """Analytic gradient at the flat iterate ``z``."""
    return _gradients(spec, lp, z, *_residuals(spec, lp, z))[1]


def _saturating_sum(terms, total=0.0):
    """``total`` plus the terms in order; +inf once a term is not finite or
    exceeds OVERFLOW_LIMIT."""
    for t in terms:
        if not math.isfinite(t) or t > OVERFLOW_LIMIT:
            return math.inf
        total += t
    return total


def penalty_diagonal_at(spec: MeritSpec, lp: StandardFormLp, z: np.ndarray) -> np.ndarray:
    """The nonnegative diagonal added to the base Hessian at ``z``."""
    _expect_length(lp, spec, z)
    neg, pos = _hinge_powers(spec, lp, z, spec.q - 2)
    if pos is None:
        return neg
    d = neg + spec.nu * pos
    d[lp.n : lp.n + lp.m] = 2.0 * spec.nu
    return d


_BASE_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def hessian_base(lp: StandardFormLp) -> np.ndarray:
    """The block of the homogeneous merit's J'J over (x, lam, tau, kappa), of
    order n+m+2.  The s block left out is the identity, coupled to the lam
    rows through A and to the tau row through -c.  Cached per problem and
    read-only."""
    H = _BASE_CACHE.get(lp)
    if H is None:
        A, b, c, m, n = lp.A, lp.b, lp.c, lp.m, lp.n
        p = n + m  # the tau column is p, the kappa column p + 1
        H = np.zeros((p + 2, p + 2))
        H[:n, :n] = np.outer(c, c) + lp.gram
        H[:n, n:p] = -np.outer(c, b)
        H[n:p, :n] = -np.outer(b, c)
        H[n:p, n:p] = np.outer(b, b) + A @ A.T
        H[:n, p] = -(A.T @ b)
        H[n:p, p] = -(A @ c)
        H[p, p] = float(b @ b + c @ c)
        H[:n, p + 1] = c
        H[n:p, p + 1] = -b
        H[p + 1, p + 1] = 1.0
        H[p:, :p] = H[:p, p:].T
        H.flags.writeable = False
        _BASE_CACHE[lp] = H
    return H


def _jacobian(spec, lp):
    """The constant Jacobian of (gamma, rho, sigma) in the layout of the flat
    iterate: one row for gamma, then m for rho and n for sigma."""
    A, b, c, m, n = lp.A, lp.b, lp.c, lp.m, lp.n
    p, t = n + m, 2 * n + m  # the s block is [p, t), tau and kappa follow
    J = np.zeros((1 + m + n, t + 2 if spec.kind is MeritKind.HOMOGENEOUS else t))
    J[0, :n], J[0, n:p] = c, -b
    J[1 : 1 + m, :n] = -A
    J[1 + m :, n:p] = -A.T
    J[1 + m :, p:t] = -np.eye(n)
    if spec.kind is MeritKind.HOMOGENEOUS:
        J[1 : 1 + m, t] = b
        J[1 + m :, t] = c
        J[0, t + 1] = 1.0
    return J


# ---------------------------------------------------------------------------
# point-based interface
# ---------------------------------------------------------------------------


def _point_vector(spec, point):
    expected = HomogeneousPoint if spec.kind is MeritKind.HOMOGENEOUS else PrimalDualPoint
    if not isinstance(point, expected):
        raise KindMismatch(f"{spec.kind.name} merit requires a {expected.__name__}")
    return point.as_vector()


def eval_hessian(spec: MeritSpec, lp: StandardFormLp, point) -> HessianParts:
    z = _point_vector(spec, point)
    J = _jacobian(spec, lp)
    return HessianParts(base=J.T @ J, diag_add=penalty_diagonal_at(spec, lp, z))

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

The solver works on flat iterates.  One kernel, ``_kernel``, computes all
of the merit at one iterate: the residuals (gamma, rho, sigma) once, |t| and
the sign masks of the sign-constrained coordinates t once, and from them,
under one ``np.errstate``, the hinge powers max(-t, 0)**p and their
nu-weighted mirror max(t, 0)**p for p = q (the value), q - 1 (the gradient)
and q - 2 (the Newton diagonal), as each caller asks.  ``evaluate`` returns the residuals
with two value-gradient pairs, the merit at nu = 0 and the merit of the
given spec, which differ only when nu > 0; ``value_at``, ``gradient_at`` and
``penalty_diagonal_at`` are thin wrappers over the same kernel, so each
equals its part of ``evaluate`` bit for bit.  The residuals are affine, so
the Hessian is J'J for their constant Jacobian J plus that nonnegative
diagonal; the homogeneous Newton solve needs only the block of J'J over
(x, lam, tau, kappa), which ``hessian_base`` caches per problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from weakref import WeakKeyDictionary

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .problems import StandardFormLp

#: Any intermediate term beyond this saturates the value to +inf so that
#: divergent line-search probes fail cleanly instead of propagating NaNs.
OVERFLOW_LIMIT = 1e300

_sum = np.add.reduce

#: Rows -1 and 1: their product with t is positive where t < 0 and t > 0.
_SIGNS = np.array([[-1.0], [1.0]])


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


def _kernel(spec, lp, z, *, value=False, gradient=False, diagonal=False):
    """The merit ``spec`` at the flat iterate ``z``, in the parts asked for.

    Returns (res, values, gradients, diag): res = (gamma, rho, sigma, A x,
    A' lam) unless only the diagonal is asked for; values = (f0, f) and
    gradients = (g0, g), the value and gradient at nu = 0 and of ``spec``,
    when ``value`` and ``gradient`` are set; diag, the Hessian's penalty
    diagonal, when ``diagonal`` is.  Parts not asked for are None.

    t is ``z`` with the sign-free lam block set to zero.  |t| and the sign
    masks, the rows t < 0 and, for nu > 0, t > 0, are formed once; each
    power p then takes one ``np.power`` of |t| and one ``np.where`` through
    the masks, whose rows are max(-t, 0)**p and max(t, 0)**p.  Sums over x
    and over the rest are kept apart, and taken for every row in one
    reduction each.  Everything runs under one errstate: an overflow here
    saturates the value (``_saturating_sum``) or leaves a non-finite entry
    for the caller.
    """
    size = 2 * lp.n + lp.m
    homogeneous = spec.kind is MeritKind.HOMOGENEOUS
    if homogeneous:
        size += 2
    if z.shape != (size,):
        raise DimensionMismatch(f"expected point of length {size}, got {z.shape}")
    A, b, c, q, nu, n, m = lp.A, lp.b, lp.c, spec.q, spec.nu, lp.n, lp.m
    p = n + m  # the lam block is [n, p)
    res = values = gradients = diag = None
    with np.errstate(over="ignore", invalid="ignore"):
        # the mask rows t < 0 and, for nu > 0, t > 0 (-t > 0 is t < 0, for
        # -0.0 and NaN too); a power p of |t| through them gives the rows
        # max(-t, 0)**p and max(t, 0)**p
        magnitude = np.abs(z)
        signs = _SIGNS * z > 0.0 if nu > 0.0 else z[None] < 0.0
        signs[:, n:p] = False

        def hinge(power):
            return np.where(signs, np.power(magnitude, power), 0.0)

        if value or gradient:
            x, lam, s = z[:n], z[n:p], z[p : p + n]
            Ax, ATlam = A.dot(x), A.T.dot(lam)
            if homogeneous:
                tau = z[-2]
                gamma = float(c.dot(x)) - float(b.dot(lam)) + float(z[-1])
                rho, sigma = b * tau - Ax, c * tau - ATlam - s
            else:
                gamma = float(c.dot(x)) - float(b.dot(lam))
                rho, sigma = b - Ax, c - ATlam - s
            res = gamma, rho, sigma, Ax, ATlam

        if value:
            hinge_q = hinge(q)
            sums = _sum(hinge_q[:, :n], axis=1) + _sum(hinge_q[:, p:], axis=1)
            penalty = sums[0] / (q * (q - 1.0))
            squares = 0.5 * float(rho.dot(rho)), 0.5 * float(sigma.dot(sigma))
            f0 = _saturating_sum([0.5 * gamma * gamma, *squares, penalty])
            if nu > 0.0:
                nu_penalty = nu * sums[1] / (q * (q - 1.0))
                values = f0, _saturating_sum([nu * float(lam.dot(lam)), nu_penalty], f0)
            else:
                values = f0, f0

        if gradient:
            hinge_g = hinge(q - 1)
            tail = -sigma
            if homogeneous:
                w = float(Ax @ b + (ATlam + z[p:-2]) @ c - (b @ b + c @ c) * tau)
                tail = np.concatenate([tail, [-w, gamma]])
            g0 = np.concatenate([gamma * c - A.T.dot(rho), -gamma * b - A.dot(sigma), tail])
            g0 -= hinge_g[0] / (q - 1.0)
            if nu > 0.0:
                nu_part = nu * hinge_g[1] / (q - 1.0)
                nu_part[n:p] = 2.0 * nu * lam
                gradients = g0, g0 + nu_part
            else:
                gradients = g0, g0

        if diagonal:
            hinge_d = hinge(q - 2)
            diag = hinge_d[0]
            if nu > 0.0:
                diag = diag + nu * hinge_d[1]
                diag[n:p] = 2.0 * nu
    return res, values, gradients, diag


def evaluate(spec: MeritSpec, lp: StandardFormLp, z: np.ndarray):
    """``((f0, g0), (f, g), (gamma, rho, sigma))`` at the flat iterate ``z``,
    from one residual computation: the value and gradient at nu = 0 (the base
    merit for a PRIMAL_DUAL spec) and of ``spec``, each pair equal to
    value_at and gradient_at of its spec bit for bit, and the residuals both
    were built on."""
    res, (f0, f), (g0, g), _ = _kernel(spec, lp, z, value=True, gradient=True)
    return (f0, g0), (f, g), res[:3]


def value_at(spec: MeritSpec, lp: StandardFormLp, z: np.ndarray) -> float:
    """Merit value at the flat iterate ``z``; saturates to +inf on overflow."""
    return _kernel(spec, lp, z, value=True)[1][1]


def gradient_at(spec: MeritSpec, lp: StandardFormLp, z: np.ndarray) -> np.ndarray:
    """Analytic gradient at the flat iterate ``z``."""
    return _kernel(spec, lp, z, gradient=True)[2][1]


def penalty_diagonal_at(spec: MeritSpec, lp: StandardFormLp, z: np.ndarray) -> np.ndarray:
    """The nonnegative diagonal added to the base Hessian at ``z``."""
    return _kernel(spec, lp, z, diagonal=True)[3]


def _saturating_sum(terms, total=0.0):
    """``total`` plus the terms in order; +inf once a term is not finite or
    exceeds OVERFLOW_LIMIT."""
    for t in terms:
        if not math.isfinite(t) or t > OVERFLOW_LIMIT:
            return math.inf
        total += t
    return total


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

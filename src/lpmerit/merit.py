"""Merit functions measuring primal-dual optimality violation, with exact derivatives.

Three variants share one interface:

* ``BASE``: half the squared duality gap plus half the squared primal and dual
  residuals, plus hinge penalties max(-x_j, 0)**q and max(-s_j, 0)**q scaled
  by 1/(q(q-1)).  Convex, twice continuously differentiable for q > 2, and
  zero exactly on the primal-dual optimal set.
* ``HOMOTOPY``: the base function plus nu*||lam||^2 and nu-weighted hinge
  penalties on the positive parts of x and s.  For nu > 0 the Hessian gains a
  positive diagonal away from coordinate zeros; at nu = 0 it coincides with
  ``BASE`` exactly.
* ``HOMOGENEOUS``: the same construction applied to the self-dual embedding in
  (x, lam, s, tau, kappa), whose residuals are c.x - b.lam + kappa,
  b*tau - A x and c*tau - A'lam - s.

The solver works on flat iterates.  ``evaluate`` computes the residuals
(gamma, rho, sigma) once and returns them together with two value-gradient
pairs: the merit at nu = 0 and the merit of the given spec, which differ only
for a HOMOTOPY spec with nu > 0.  ``value_at`` and ``gradient_at`` reuse the
same code.  Every hinge power max(-t, 0)**p, and the nu-weighted max(t, 0)**p,
comes from one helper over the sign-constrained coordinates.  The Hessian
splits into an iterate-independent base matrix (cached per problem) plus a
nonnegative diagonal that is recomputed per point.
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
    BASE = "base"
    HOMOTOPY = "homotopy"
    HOMOGENEOUS = "homogeneous"


@dataclass(frozen=True)
class MeritSpec:
    """Which merit function to evaluate; ``nu`` is honoured only by HOMOTOPY."""

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


@dataclass(frozen=True)
class HessianParts:
    """Hessian as iterate-independent ``base`` plus diag(``diag_add``)."""

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
    The second is None unless ``spec`` is HOMOTOPY with nu > 0."""
    t = z.copy()
    t[lp.n : lp.n + lp.m] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.power(np.abs(t), p)
    neg = np.where(t < 0, a, 0.0)
    if spec.kind is MeritKind.HOMOTOPY and spec.nu > 0.0:
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
    from one residual computation: the value and gradient at nu = 0 (the BASE
    merit for a HOMOTOPY spec, ``spec`` itself otherwise) and of ``spec``,
    each pair equal to value_at and gradient_at of its spec bit for bit, and
    the residuals both were built on."""
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


def _build_primal_dual_base(lp: StandardFormLp, border: int = 0) -> np.ndarray:
    """The primal-dual base, as the leading block of a zero matrix with
    ``border`` further rows and columns."""
    A, b, c, m, n = lp.A, lp.b, lp.c, lp.m, lp.n
    t = 2 * n + m
    H = np.zeros((t + border, t + border))
    H[:n, :n] = np.outer(c, c) + lp.gram
    H[:n, n : n + m] = -np.outer(c, b)
    H[n : n + m, :n] = -np.outer(b, c)
    H[n : n + m, n : n + m] = np.outer(b, b) + A @ A.T
    H[n : n + m, n + m : t] = A
    H[n + m : t, n : n + m] = A.T
    H[n + m : t, n + m : t] = np.eye(n)
    return H


def _build_homogeneous_base(lp: StandardFormLp) -> np.ndarray:
    A, b, c, m, n = lp.A, lp.b, lp.c, lp.m, lp.n
    H = _build_primal_dual_base(lp, border=2)
    it, ik = 2 * n + m, 2 * n + m + 1
    H[:n, it] = -(A.T @ b)
    H[it, :n] = H[:n, it]
    H[n : n + m, it] = -(A @ c)
    H[it, n : n + m] = H[n : n + m, it]
    H[n + m : 2 * n + m, it] = -c
    H[it, n + m : 2 * n + m] = -c
    H[it, it] = float(b @ b + c @ c)
    H[:n, ik] = c
    H[ik, :n] = c
    H[n : n + m, ik] = -b
    H[ik, n : n + m] = -b
    H[ik, ik] = 1.0
    return H


def hessian_base(spec: MeritSpec, lp: StandardFormLp) -> np.ndarray:
    """The iterate-independent Hessian block, cached per problem and read-only."""
    key = "homogeneous" if spec.kind is MeritKind.HOMOGENEOUS else "primal_dual"
    per_problem = _BASE_CACHE.get(lp)
    if per_problem is None:
        per_problem = {}
        _BASE_CACHE[lp] = per_problem
    H = per_problem.get(key)
    if H is None:
        builder = (
            _build_homogeneous_base if key == "homogeneous" else _build_primal_dual_base
        )
        H = builder(lp)
        H.flags.writeable = False
        per_problem[key] = H
    return H


# ---------------------------------------------------------------------------
# point-based interface
# ---------------------------------------------------------------------------


def _point_vector(spec, point):
    if spec.kind is MeritKind.HOMOGENEOUS:
        if not isinstance(point, HomogeneousPoint):
            raise KindMismatch("HOMOGENEOUS merit requires a HomogeneousPoint")
    else:
        if not isinstance(point, PrimalDualPoint):
            raise KindMismatch(f"{spec.kind.name} merit requires a PrimalDualPoint")
    return point.as_vector()


def eval_value(spec: MeritSpec, lp: StandardFormLp, point) -> float:
    return value_at(spec, lp, _point_vector(spec, point))


def eval_gradient(spec: MeritSpec, lp: StandardFormLp, point) -> np.ndarray:
    return gradient_at(spec, lp, _point_vector(spec, point))


def eval_hessian(spec: MeritSpec, lp: StandardFormLp, point) -> HessianParts:
    z = _point_vector(spec, point)
    return HessianParts(
        base=hessian_base(spec, lp), diag_add=penalty_diagonal_at(spec, lp, z)
    )

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

The solver works on flat iterates: ``evaluate`` returns the value and the
gradient at one iterate from a single computation of the residuals
(gamma, rho, sigma), and ``value_at`` and ``gradient_at`` reuse that residual
code.  The Hessian splits into an iterate-independent base matrix (cached per
problem) plus a nonnegative diagonal that is recomputed per point.
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
        if not self.q > 2.0:
            raise InvalidConfig(f"q must exceed 2 for twice differentiability, got {self.q}")
        if not self.nu >= 0.0:
            raise InvalidConfig(f"nu must be nonnegative, got {self.nu}")


@dataclass(frozen=True)
class HessianParts:
    """Hessian as iterate-independent ``base`` plus diag(``diag_add``)."""

    base: np.ndarray
    diag_add: np.ndarray

    def full(self) -> np.ndarray:
        out = self.base.copy()
        out[np.diag_indices_from(out)] += self.diag_add
        return out


def _hinge_pow(t: np.ndarray, p: float) -> np.ndarray:
    """max(-t, 0)**p, evaluated only on negative entries so fractional p is safe."""
    out = np.zeros_like(t)
    neg = t < 0
    if neg.any():
        out[neg] = np.power(-t[neg], p)
    return out


def _pos_pow(t: np.ndarray, p: float) -> np.ndarray:
    """max(t, 0)**p with the same masked evaluation."""
    out = np.zeros_like(t)
    pos = t > 0
    if pos.any():
        out[pos] = np.power(t[pos], p)
    return out


def _hinge_pow_scalar(t: float, p: float) -> float:
    return float((-t) ** p) if t < 0 else 0.0


def _expect_length(lp, spec, z):
    size = 2 * lp.n + lp.m
    if spec.kind is MeritKind.HOMOGENEOUS:
        size += 2
    if z.shape != (size,):
        raise DimensionMismatch(f"expected point of length {size}, got {z.shape}")


def _split(lp, z):
    n, m = lp.n, lp.m
    return z[:n], z[n : n + m], z[n + m : 2 * n + m]


# ---------------------------------------------------------------------------
# flat-vector evaluation: evaluate at the solver's iterates, value_at at its
# Armijo probes, both on one residual computation
# ---------------------------------------------------------------------------


def _residuals(spec, lp, z):
    """(gamma, rho, sigma, A x, A' lam) at the flat iterate ``z``."""
    _expect_length(lp, spec, z)
    A, b, c = lp.A, lp.b, lp.c
    x, lam, s = _split(lp, z)
    with np.errstate(over="ignore", invalid="ignore"):
        Ax, ATlam = A @ x, A.T @ lam
        if spec.kind is MeritKind.HOMOGENEOUS:
            tau, kappa = z[-2], z[-1]
            return float(c @ x - b @ lam + kappa), b * tau - Ax, c * tau - ATlam - s, Ax, ATlam
        return float(c @ x - b @ lam), b - Ax, c - ATlam - s, Ax, ATlam


def _value(spec, lp, z, gamma, rho, sigma):
    q = spec.q
    x, lam, s = _split(lp, z)
    with np.errstate(over="ignore", invalid="ignore"):
        penalty = _hinge_pow(x, q).sum() + _hinge_pow(s, q).sum()
        if spec.kind is MeritKind.HOMOGENEOUS:
            penalty = penalty + _hinge_pow_scalar(z[-2], q) + _hinge_pow_scalar(z[-1], q)
        terms = [
            0.5 * gamma * gamma,
            0.5 * float(rho @ rho),
            0.5 * float(sigma @ sigma),
            penalty / (q * (q - 1.0)),
        ]
        if spec.kind is MeritKind.HOMOTOPY and spec.nu > 0.0:
            terms += _nu_terms(spec, x, lam, s)
    return _saturating_sum(terms)


def _gradient(spec, lp, z, gamma, rho, sigma, Ax, ATlam):
    A, b, c, q = lp.A, lp.b, lp.c, spec.q
    x, lam, s = _split(lp, z)
    gx = gamma * c - A.T @ rho - _hinge_pow(x, q - 1) / (q - 1.0)
    gl = -gamma * b - A @ sigma
    gs = -sigma - _hinge_pow(s, q - 1) / (q - 1.0)
    if spec.kind is MeritKind.HOMOGENEOUS:
        tau, kappa = z[-2], z[-1]
        w = float(Ax @ b + (ATlam + s) @ c - (b @ b + c @ c) * tau)
        gt = -w - _hinge_pow_scalar(tau, q - 1) / (q - 1.0)
        gk = gamma - _hinge_pow_scalar(kappa, q - 1) / (q - 1.0)
        return np.concatenate([gx, gl, gs, [gt, gk]])
    g = np.concatenate([gx, gl, gs])
    if spec.kind is MeritKind.HOMOTOPY and spec.nu > 0.0:
        g += _nu_gradient(spec, x, lam, s)
    return g


def evaluate(spec: MeritSpec, lp: StandardFormLp, z: np.ndarray) -> tuple[float, np.ndarray]:
    """Merit value and gradient at the flat iterate ``z``, from one residual
    computation; equal to (value_at, gradient_at) bit for bit."""
    r = _residuals(spec, lp, z)
    return _value(spec, lp, z, *r[:3]), _gradient(spec, lp, z, *r)


def value_at(spec: MeritSpec, lp: StandardFormLp, z: np.ndarray) -> float:
    """Merit value at the flat iterate ``z``; saturates to +inf on overflow."""
    return _value(spec, lp, z, *_residuals(spec, lp, z)[:3])


def gradient_at(spec: MeritSpec, lp: StandardFormLp, z: np.ndarray) -> np.ndarray:
    """Analytic gradient at the flat iterate ``z``."""
    return _gradient(spec, lp, z, *_residuals(spec, lp, z))


def homotopy_from_base(
    spec: MeritSpec, lp: StandardFormLp, z: np.ndarray, f_base: float, g_base: np.ndarray
) -> tuple[float, np.ndarray]:
    """HOMOTOPY value and gradient at ``z`` from the BASE ones at the same ``z``.

    ``f_base`` and ``g_base`` must be value_at and gradient_at of the BASE
    merit with the same q.  The nu terms are added in the order value_at and
    gradient_at use, with the same saturation, so both results equal theirs
    bit for bit; the gradient is returned even when the value saturates.
    """
    if spec.kind is not MeritKind.HOMOTOPY:
        raise KindMismatch(f"expected a HOMOTOPY spec, got {spec.kind.name}")
    _expect_length(lp, spec, z)
    if spec.nu == 0.0:
        return f_base, g_base
    x, lam, s = _split(lp, z)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _nu_terms(spec, x, lam, s)
    return _saturating_sum(terms, f_base), g_base + _nu_gradient(spec, x, lam, s)


def _nu_terms(spec, x, lam, s):
    """The two value terms the HOMOTOPY merit adds to the BASE merit."""
    q, nu = spec.q, spec.nu
    return [
        nu * float(lam @ lam),
        nu * (_pos_pow(x, q).sum() + _pos_pow(s, q).sum()) / (q * (q - 1.0)),
    ]


def _nu_gradient(spec, x, lam, s):
    """The gradient of the two HOMOTOPY terms, in (x, lam, s) order."""
    q, nu = spec.q, spec.nu
    return np.concatenate(
        [
            nu * _pos_pow(x, q - 1) / (q - 1.0),
            2.0 * nu * lam,
            nu * _pos_pow(s, q - 1) / (q - 1.0),
        ]
    )


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
    q, m = spec.q, lp.m
    x, lam, s = _split(lp, z)
    dx = _hinge_pow(x, q - 2)
    dl = np.zeros(m)
    ds = _hinge_pow(s, q - 2)
    if spec.kind is MeritKind.HOMOGENEOUS:
        tau, kappa = z[-2], z[-1]
        return np.concatenate(
            [dx, dl, ds, [_hinge_pow_scalar(tau, q - 2), _hinge_pow_scalar(kappa, q - 2)]]
        )
    if spec.kind is MeritKind.HOMOTOPY and spec.nu > 0.0:
        dx = dx + spec.nu * _pos_pow(x, q - 2)
        dl = dl + 2.0 * spec.nu
        ds = ds + spec.nu * _pos_pow(s, q - 2)
    return np.concatenate([dx, dl, ds])


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

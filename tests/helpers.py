"""Shared test utilities: finite-difference oracles, the explicit-Hessian
oracle, a reference merit kernel, random and constant point factories, the
KKT residuals of a point, a rank-deficient problem and a primal-infeasible
one."""

import math
from dataclasses import dataclass

import numpy as np

from lpmerit import (
    DimensionMismatch,
    HomogeneousPoint,
    KindMismatch,
    MeritKind,
    PrimalDualPoint,
    StandardFormLp,
    generate_optimal_lp,
    kkt_residuals,
    residuals,
)


def central_gradient(f, z, h=1e-6):
    """Central-difference gradient of a scalar function of a flat vector."""
    g = np.zeros_like(z)
    for i in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2.0 * h)
    return g


def central_jacobian(gfun, z, h=1e-6):
    """Central-difference Jacobian of a vector function; columns are directions."""
    cols = []
    for j in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[j] += h
        zm[j] -= h
        cols.append((gfun(zp) - gfun(zm)) / (2.0 * h))
    return np.stack(cols, axis=1)


def random_primal_dual(rng, n, m, scale=1.0):
    return PrimalDualPoint(
        scale * rng.standard_normal(n),
        scale * rng.standard_normal(m),
        scale * rng.standard_normal(n),
    )


def random_homogeneous(rng, n, m, scale=1.0):
    return HomogeneousPoint(
        scale * rng.standard_normal(n),
        scale * rng.standard_normal(m),
        scale * rng.standard_normal(n),
        float(scale * rng.standard_normal()),
        float(scale * rng.standard_normal()),
    )


def filled_point(point_type, n, m, value):
    """A PrimalDualPoint or HomogeneousPoint of sizes (n, m) whose every
    entry, tau and kappa included, is ``value``."""
    size = 2 * n + m + (2 if point_type is HomogeneousPoint else 0)
    return point_type.from_vector(np.full(size, float(value)), n, m)


def point_kkt(lp, point):
    """The four relative KKT residuals of a PrimalDualPoint."""
    return kkt_residuals(lp, point.x, point.lam, point.s, residuals(lp, point))


def duplicated_row_lp(m, n, seed):
    """generate_optimal_lp(m, n, seed) with the last row of A replaced by its
    first, so that A has rank m - 1, and b and c rebuilt from the known
    optimum, so that the problem keeps it."""
    prob = generate_optimal_lp(m, n, seed)
    A = prob.lp.A.copy()
    A[-1] = A[0]
    opt = prob.known_optimum
    return StandardFormLp(A, A @ opt.x, A.T @ opt.lam + opt.s)


def primal_infeasible_lp(m, n, seed):
    """A problem with no x >= 0 solving Ax = b: the columns of a Gaussian A
    with A'y > 0 are negated, so A'y <= 0, and b = 5 y / ||y|| plus 0.1
    times Gaussian noise, so b.y > 0 (Farkas); c is uniform in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    A[:, A.T @ y > 0] *= -1.0
    b = 5.0 * y / np.linalg.norm(y) + 0.1 * rng.standard_normal(m)
    c = rng.uniform(0.5, 2.0, n)
    return StandardFormLp(A, b, c)


# ---------------------------------------------------------------------------
# the explicit-Hessian oracle: J'J from the constant Jacobian J of the
# residuals, plus the penalty diagonal of the reference kernel below
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HessianParts:
    """Hessian as iterate-independent ``base`` = J'J plus diag(``diag_add``)."""

    base: np.ndarray
    diag_add: np.ndarray

    def full(self) -> np.ndarray:
        out = self.base.copy()
        out[np.diag_indices_from(out)] += self.diag_add
        return out


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


def _point_vector(spec, point):
    expected = HomogeneousPoint if spec.kind is MeritKind.HOMOGENEOUS else PrimalDualPoint
    if not isinstance(point, expected):
        raise KindMismatch(f"{spec.kind.name} merit requires a {expected.__name__}")
    return point.as_vector()


def eval_hessian(spec, lp, point) -> HessianParts:
    """The Hessian of the merit ``spec`` at ``point``, J'J from an explicit J."""
    z = _point_vector(spec, point)
    J = _jacobian(spec, lp)
    return HessianParts(base=J.T @ J, diag_add=reference_penalty_diagonal(spec, lp, z))


# ---------------------------------------------------------------------------
# the reference merit kernel: the separate residual, value, gradient and
# diagonal functions that lpmerit.merit's fused kernel replaced, against
# which it is checked bit for bit
# ---------------------------------------------------------------------------

_OVERFLOW_LIMIT = 1e300


def _expect_length(lp, spec, z):
    size = 2 * lp.n + lp.m
    if spec.kind is MeritKind.HOMOGENEOUS:
        size += 2
    if z.shape != (size,):
        raise DimensionMismatch(f"expected point of length {size}, got {z.shape}")


def _saturating_sum(terms, total=0.0):
    for t in terms:
        if not math.isfinite(t) or t > _OVERFLOW_LIMIT:
            return math.inf
        total += t
    return total


def reference_hinge_powers(spec, lp, z, p):
    """(max(-t, 0)**p, max(t, 0)**p) in the layout of ``z``, where t is ``z``
    with the sign-free lam block set to zero; the second is None unless
    ``spec`` has nu > 0."""
    t = z.copy()
    t[lp.n : lp.n + lp.m] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.power(np.abs(t), p)
    neg = np.where(t < 0, a, 0.0)
    if spec.nu > 0.0:
        return neg, np.where(t > 0, a, 0.0)
    return neg, None


def reference_residuals(spec, lp, z):
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


def reference_values(spec, lp, z, gamma, rho, sigma):
    """(value at nu = 0, value of ``spec``)."""
    q, n, m = spec.q, lp.n, lp.m
    neg, pos = reference_hinge_powers(spec, lp, z, q)
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


def reference_gradients(spec, lp, z, gamma, rho, sigma, Ax, ATlam):
    """(gradient at nu = 0, gradient of ``spec``), in the layout of ``z``."""
    A, b, c, q, n, m = lp.A, lp.b, lp.c, spec.q, lp.n, lp.m
    neg, pos = reference_hinge_powers(spec, lp, z, q - 1)
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


def reference_penalty_diagonal(spec, lp, z):
    """The nonnegative diagonal added to the base Hessian at ``z``."""
    _expect_length(lp, spec, z)
    neg, pos = reference_hinge_powers(spec, lp, z, spec.q - 2)
    if pos is None:
        return neg
    d = neg + spec.nu * pos
    d[lp.n : lp.n + lp.m] = 2.0 * spec.nu
    return d

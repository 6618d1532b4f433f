"""Shared test utilities: finite-difference oracles, random and constant
point factories, the KKT residuals of a point, a rank-deficient problem and
a primal-infeasible one."""

import numpy as np

from lpmerit import (
    HomogeneousPoint,
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

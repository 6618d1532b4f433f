"""Shared test utilities: finite-difference oracles, random point factories,
the KKT residuals of a point and a rank-deficient problem."""

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

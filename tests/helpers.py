"""Shared test utilities: finite-difference oracles and random point factories."""

import numpy as np

from lpmerit import HomogeneousPoint, PrimalDualPoint


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

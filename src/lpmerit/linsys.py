"""Regularized Newton systems: a structured block solve and a solve on the Hessian base.

The system (hessian + mu*I) delta = -gradient has a rank-one-plus-structured
matrix: after eliminating the s block it reduces to a block-diagonal matrix
diag(A'A + D1, A*W*A' + D2) with W = D3 (I + D3)^{-1}, corrected by the
rank-one term v v' with v = (c; -b).  Only n x n and m x m Cholesky
factorizations are required: A'A is cached per problem, A*W*A' is formed by a
symmetric rank-k update, and both factors are kept in LAPACK's column-major
layout.  The rank-one term is absorbed by a Sherman-Morrison correction whose
two right-hand sides are solved together, followed by one step of iterative
refinement on the reduced system.

solve_dense covers every merit, the homogeneous one included, on the cached
Hessian base over (x, lam[, tau, kappa]) and its s coupling.  It eliminates
only the s block, whose diagonal is exact, and forms and factors one dense
matrix, the remainder of order n+m(+2); the full (2n+m(+2))^2 Hessian is
never built.
The homogeneous merit does not take the structured path: with the (tau, kappa)
rows as a border, a Sherman-Morrison correction through A'A + mu*I, which is
nearly singular along null(A) at small mu, cancels catastrophically.

The back-substitutions skip scipy's finiteness check, since each factor comes
from a matrix that cho_factor has checked; a non-finite right-hand side gives
a non-finite step, which the caller must test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import merit
from .errors import FactorizationFailure, KindMismatch, NonPositiveRegularization
from .merit import MeritKind, MeritSpec
from .problems import StandardFormLp


@dataclass(frozen=True)
class ReducedSystem:
    """The eliminated Newton system: positive diagonals, rhs blocks, coupling v."""

    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    rhs_x: np.ndarray
    rhs_lam: np.ndarray
    rhs_s: np.ndarray
    v: np.ndarray


def build_reduced(
    spec: MeritSpec, lp: StandardFormLp, z: np.ndarray, mu: float, g: np.ndarray
) -> ReducedSystem:
    """Assemble diagonals and right-hand side of the reduced system at ``z``.

    D1, D2, D3 are the penalty diagonal at the flat iterate ``z`` plus mu
    (all strictly positive for mu > 0); the right-hand side is the negative
    merit gradient ``g`` at ``z``, split into (x, lam, s) blocks.  Not
    defined for the HOMOGENEOUS merit, whose extra dense rows fall outside
    this elimination; use solve_dense there.
    """
    if spec.kind is MeritKind.HOMOGENEOUS:
        raise KindMismatch("the reduced system covers only primal-dual merits")
    if not mu > 0.0:
        raise NonPositiveRegularization(f"mu must be positive, got {mu}")
    diag = merit.penalty_diagonal_at(spec, lp, z)
    n, m = lp.n, lp.m
    return ReducedSystem(
        d1=mu + diag[:n],
        d2=mu + diag[n : n + m],
        d3=mu + diag[n + m :],
        rhs_x=-g[:n],
        rhs_lam=-g[n : n + m],
        rhs_s=-g[n + m :],
        v=np.concatenate([lp.c, -lp.b]),
    )


def cholesky_rank_one_update(factor: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Given lower-triangular L with M = L L', return the factor of M + v v'.

    O(k^2) sweep of Givens-like eliminations; M + v v' is SPD whenever M is,
    so the update cannot break down.  A standalone utility: no solve path
    calls it.
    """
    L = np.array(factor, dtype=float)
    w = np.array(v, dtype=float).ravel()
    k = L.shape[0]
    if L.shape != (k, k) or w.shape != (k,):
        raise ValueError(f"factor {L.shape} and vector {w.shape} are inconsistent")
    for j in range(k):
        ljj = L[j, j]
        r = np.hypot(ljj, w[j])
        c = r / ljj
        s = w[j] / ljj
        L[j, j] = r
        if j + 1 < k:
            col = (L[j + 1 :, j] + s * w[j + 1 :]) / c
            w[j + 1 :] = c * w[j + 1 :] - s * col
            L[j + 1 :, j] = col
    return L


def solve_structured(system: ReducedSystem, lp: StandardFormLp):
    """Solve the full regularized Newton system via the eliminated form.

    Returns (dx, dlam, ds).  The n x n block is the problem's cached Gram
    matrix A'A plus D1; the m x m block A W A' + D2 is built as B B' with
    B = A sqrt(W), which BLAS forms with a symmetric rank-k update.  Both are
    Cholesky-factored in LAPACK's column-major layout.  The rank-one coupling
    v v' is absorbed by a Sherman-Morrison correction, whose denominator
    1 + v'M^{-1}v is at least one; M^{-1}v and the first solve share one
    two-column triangular solve per block.  One step of iterative refinement
    on the reduced (n+m) system keeps its residual near round-off at tiny mu.
    Raises FactorizationFailure when a block is not numerically SPD or not
    finite.
    """
    A, m, n = lp.A, lp.m, lp.n
    d1, d2 = system.d1, system.d2
    shift = 1.0 + system.d3
    B = A * np.sqrt(system.d3 / shift)
    # both blocks are symmetric, so their transposes are the column-major
    # copies that LAPACK factors in place; the refinement residual below
    # applies the blocks through A'A and B instead
    M_x = lp.gram.copy().T
    M_x[np.diag_indices(n)] += d1
    M_lam = (B @ B.T).T
    M_lam[np.diag_indices(m)] += d2
    F_x = _factor(M_x)
    F_lam = _factor(M_lam)
    v = system.v

    # _factor has checked both blocks for NaN and inf, so their factors are finite
    def block_solve(r):
        return np.concatenate(
            [
                cho_solve(F_x, r[:n], check_finite=False),
                cho_solve(F_lam, r[n:], check_finite=False),
            ]
        )

    rhs = np.concatenate([system.rhs_x, system.rhs_lam - A @ (system.rhs_s / shift)])
    y, u0 = block_solve(np.column_stack([v, rhs])).T
    denominator = 1.0 + float(v @ y)

    def rank_one_corrected(w):
        return w - y * (float(v @ w) / denominator)

    u = rank_one_corrected(u0)
    ux, ul = u[:n], u[n:]
    applied = np.concatenate([lp.gram @ ux + d1 * ux, B @ (B.T @ ul) + d2 * ul])
    applied += v * float(v @ u)
    u += rank_one_corrected(block_solve(rhs - applied))
    dx, dlam = u[:n], u[n:]
    ds = (system.rhs_s - A.T @ dlam) / shift
    return dx, dlam, ds


def solve_dense(
    spec: MeritSpec, lp: StandardFormLp, z: np.ndarray, mu: float, rhs: np.ndarray
) -> np.ndarray:
    """Solve (hessian + mu*I) delta = ``rhs`` at ``z`` on the cached Hessian base.

    The Newton solve of the homogeneous merit, and the reference that the
    structured solve is tested against.  The full Hessian's s block is the
    identity, coupled only to the lam rows (and, in the homogeneous merit,
    the tau row) through C = ``merit.s_coupling``, so it is eliminated
    exactly: with d_s = 1 + diag[s], the remainder over (x, lam[, tau,
    kappa]) is R = K + diag - (C/sqrt(d_s)) (C/sqrt(d_s))', where K is
    ``merit.hessian_base``, of order n+m or n+m+2, the only matrix formed and
    factored; s is recovered as (r_s - C'y) / d_s.  Cholesky is backward
    stable under this symmetric reordering.  One step of iterative
    refinement, with the residual of the full system applied blockwise from
    K, C and the diagonal, keeps it near round-off.  Raises
    FactorizationFailure when R is not numerically SPD or not finite, or d_s
    is not finite and positive.
    """
    if not mu > 0.0:
        raise NonPositiveRegularization(f"mu must be positive, got {mu}")
    K, C = merit.hessian_base(spec, lp), merit.s_coupling(spec, lp)
    diag = merit.penalty_diagonal_at(spec, lp, z) + mu
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != diag.shape:
        raise ValueError(f"rhs must have shape {diag.shape}, got {rhs.shape}")
    n, p, t = lp.n, lp.n + lp.m, 2 * lp.n + lp.m  # the s block is [p, t)
    coupled = slice(n, n + C.shape[0])  # the rows of K that meet s
    d_s = 1.0 + diag[p:t]
    if not (np.isfinite(d_s) & (d_s > 0.0)).all():
        raise FactorizationFailure("the s block is not finite and positive")
    d = np.concatenate([diag[:p], diag[t:]])
    # K is symmetric, so the transpose of its copy is the column-major form
    R = K.copy().T
    R[np.diag_indices_from(R)] += d
    G = C / np.sqrt(d_s)
    R[coupled, coupled] -= G @ G.T
    factor = _factor(R)

    def eliminated_solve(r_y, r_s):
        y = r_y.copy()
        y[coupled] -= C @ (r_s / d_s)
        y = cho_solve(factor, y, check_finite=False)
        return y, (r_s - C.T @ y[coupled]) / d_s

    r_y, r_s = np.concatenate([rhs[:p], rhs[t:]]), rhs[p:t]
    y, w = eliminated_solve(r_y, r_s)
    res_y = r_y - (K @ y + d * y)
    res_y[coupled] -= C @ w
    dy, dw = eliminated_solve(res_y, r_s - (C.T @ y[coupled] + d_s * w))
    y += dy
    return np.concatenate([y[:p], w + dw, y[p:]])


def _factor(M: np.ndarray):
    """Lower Cholesky factor of ``M``, in place, in the form cho_solve takes.

    ``M`` should be column-major so that LAPACK needs no copy.  Raises
    FactorizationFailure when ``M`` is not numerically SPD or holds a NaN or
    inf (scipy's finiteness check raises ValueError for the latter).
    """
    try:
        return cho_factor(M, lower=True, overwrite_a=True)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise FactorizationFailure(f"Cholesky factorization failed: {exc}") from exc

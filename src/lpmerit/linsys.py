"""Every factorization: the least-squares start, one regularized Newton solve
per merit kind, and the polish's LU.

For the primal-dual merit, the system (hessian + mu*I) delta = -gradient has
a rank-one-plus-structured matrix: after eliminating the s block it reduces
to a block-diagonal matrix diag(A'A + D1, A*W*A' + D2) with
W = D3 (I + D3)^{-1}, corrected by the rank-one term v v' with v = (c; -b).
Only n x n and m x m Cholesky factorizations are required: A'A is cached per
problem, A*W*A' is formed by a symmetric rank-k update, and both factors are
kept in LAPACK's column-major layout.  The rank-one term is absorbed by a
Sherman-Morrison correction whose two right-hand sides are solved together,
followed by one step of iterative refinement on the reduced system;
build_reduced and solve_structured do this.

solve_dense is the Newton solve of the homogeneous merit, on the cached
Hessian block over (x, lam, tau, kappa).  It eliminates only the s block,
whose diagonal is exact, and forms and factors one dense matrix, the
remainder of order n+m+2; the full (2n+m+2)^2 Hessian is never built.
The homogeneous merit does not take the structured path: with the (tau, kappa)
rows as a border, a Sherman-Morrison correction through A'A + mu*I, which is
nearly singular along null(A) at small mu, cancels catastrophically.
Both Newton solves return the flat step.

least_squares_start gives solve its starting point from one m x m Cholesky
factorization of A A'.

The polish takes two LU factorizations of a square basis A_B.
``_basic_vertex`` gives its vertex, each solve refined once in long double.
``_look_ahead_basis`` screens a basis with plain solves and no refinement, and
reuses its one LU for a dual- or primal-simplex pivot to a neighbour.

LAPACK is bound once and called directly, without scipy's per-call wrappers:
potrf and potrs for the start and the Newton solves, getrf and getrs for the
polish's ``_basic_vertex`` and ``_look_ahead_basis``.  ``_factor`` checks each
matrix for NaN and inf before potrf; the Cholesky back-substitutions check
nothing, since each factor comes from a checked matrix, so a non-finite
right-hand side gives a non-finite step, which the caller must test.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import merit
from .errors import FactorizationFailure, KindMismatch, NonPositiveRegularization
from .merit import MeritKind, MeritSpec
from .problems import StandardFormLp

_potrf, _potrs, _getrf, _getrs = get_lapack_funcs(
    ("potrf", "potrs", "getrf", "getrs"), dtype=np.float64
)


def least_squares_start(lp: StandardFormLp) -> np.ndarray:
    """The least-squares primal-dual point (x0, lam0, s0) as a flat iterate.

    x0 = A'(AA')^{-1} b is the least-norm solution of Ax = b, lam0 =
    (AA')^{-1} A c the least-squares solution of A'lam = c, and s0 =
    c - A'lam0.  At it Ax = b and A'lam + s = c hold to rounding, and so does
    c.x0 = b.lam0, since both equal c'A'(AA')^{-1}b; only the signs of x and
    s are left to fix (Mehrotra's starting point without his positivity
    shift, SIAM J. Optim. 1992).  AA' + delta*I is factored once, and both
    right-hand sides b and Ac are solved in one two-column potrs.  Raises
    FactorizationFailure when AA' overflows.
    """
    A = lp.A
    # AA' is symmetric, so its transpose is the column-major copy potrf takes
    M = (A @ A.T).T
    # delta covers Cholesky's backward error on AA', m*eps*||A||_F^2 with
    # ||A||_F^2 = trace(AA'), so that a rank-deficient A factors; the 1 keeps
    # it positive at A = 0, where the start is x0 = lam0 = 0
    M[np.diag_indices(lp.m)] += lp.m * np.finfo(float).eps * (1.0 + M.trace())
    y = cho_solve(_factor(M), np.column_stack([lp.b, A @ lp.c]))
    lam = y[:, 1]
    return np.concatenate([A.T @ y[:, 0], lam, lp.c - A.T @ lam])


def build_reduced(
    spec: MeritSpec, lp: StandardFormLp, z: np.ndarray, mu: float, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The regularized diagonal and the right-hand side of the Newton system at ``z``.

    Returns (d, rhs): d is mu plus the penalty diagonal at the flat iterate
    ``z``, strictly positive for mu > 0, and rhs is the negative merit
    gradient ``g`` at ``z``; solve_structured takes both.  Not defined for
    the HOMOGENEOUS merit, whose extra dense rows fall outside this
    elimination; use solve_dense there.
    """
    if spec.kind is MeritKind.HOMOGENEOUS:
        raise KindMismatch("the reduced system covers only the primal-dual merit")
    if not mu > 0.0:
        raise NonPositiveRegularization(f"mu must be positive, got {mu}")
    return mu + merit.penalty_diagonal_at(spec, lp, z), -g


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


def solve_structured(d: np.ndarray, rhs: np.ndarray, lp: StandardFormLp) -> np.ndarray:
    """Solve the full regularized Newton system via the eliminated form.

    ``d`` and ``rhs`` are the (x, lam, s) diagonal and right-hand side of
    build_reduced; returns the flat step (dx, dlam, ds).  With D1, D2, D3
    the blocks of ``d``, the n x n block is the problem's cached Gram
    matrix A'A plus D1; the m x m block A W A' + D2 is built as B B' with
    B = A sqrt(W), which BLAS forms with a symmetric rank-k update.  Both are
    Cholesky-factored in LAPACK's column-major layout.  The rank-one coupling
    v v', v = (c; -b), is absorbed by a Sherman-Morrison correction, whose
    denominator 1 + v'M^{-1}v is at least one; M^{-1}v and the first solve
    share one two-column triangular solve per block.  One step of iterative
    refinement on the reduced (n+m) system keeps its residual near round-off
    at tiny mu.  Raises FactorizationFailure when a block is not numerically
    SPD or not finite.
    """
    A, m, n = lp.A, lp.m, lp.n
    d1, d2, d3 = d[:n], d[n : n + m], d[n + m :]
    rhs_s = rhs[n + m :]
    shift = 1.0 + d3
    B = A * np.sqrt(d3 / shift)
    # both blocks are symmetric, so their transposes are the column-major
    # copies that LAPACK factors in place; the refinement residual below
    # applies the blocks through A'A and B instead
    M_x = lp.gram.copy().T
    M_x[np.diag_indices(n)] += d1
    M_lam = (B @ B.T).T
    M_lam[np.diag_indices(m)] += d2
    F_x = _factor(M_x)
    F_lam = _factor(M_lam)
    v = np.concatenate([lp.c, -lp.b])

    # _factor has checked both blocks for NaN and inf, so their factors are finite
    def block_solve(r):
        return np.concatenate([cho_solve(F_x, r[:n]), cho_solve(F_lam, r[n:])])

    r = np.concatenate([rhs[:n], rhs[n : n + m] - A @ (rhs_s / shift)])
    y, u0 = block_solve(np.column_stack([v, r])).T
    denominator = 1.0 + float(v @ y)

    def rank_one_corrected(w):
        return w - y * (float(v @ w) / denominator)

    u = rank_one_corrected(u0)
    ux, ul = u[:n], u[n:]
    applied = np.concatenate([lp.gram @ ux + d1 * ux, B @ (B.T @ ul) + d2 * ul])
    applied += v * float(v @ u)
    u += rank_one_corrected(block_solve(r - applied))
    ds = (rhs_s - A.T @ u[n:]) / shift
    return np.concatenate([u, ds])


def solve_dense(
    spec: MeritSpec, lp: StandardFormLp, z: np.ndarray, mu: float, rhs: np.ndarray
) -> np.ndarray:
    """Solve (hessian + mu*I) delta = ``rhs`` at ``z`` for the homogeneous merit.

    The full Hessian's s block is the identity, coupled only to the lam and
    tau rows, through C = [A; -c], so it is eliminated exactly: with
    d_s = 1 + diag[s], the remainder over (x, lam, tau, kappa) is
    R = K + diag - (C/sqrt(d_s)) (C/sqrt(d_s))', where K is
    ``merit.hessian_base``, of order n+m+2, the only matrix formed and
    factored; s is recovered as (r_s - C'y) / d_s.  C is stacked once, for
    G = C/sqrt(d_s), and otherwise applied through A and c.  Cholesky is
    backward stable under this symmetric reordering.  One step of iterative
    refinement, with the residual of the full system applied blockwise from
    K, C and the diagonal, keeps it near round-off.  Raises KindMismatch for
    a primal-dual spec, whose solve is solve_structured, and
    FactorizationFailure when R is not numerically SPD or not finite, or d_s
    is not finite and positive.
    """
    if spec.kind is not MeritKind.HOMOGENEOUS:
        raise KindMismatch("solve_dense covers only the homogeneous merit")
    if not mu > 0.0:
        raise NonPositiveRegularization(f"mu must be positive, got {mu}")
    A, c, K = lp.A, lp.c, merit.hessian_base(lp)
    diag = merit.penalty_diagonal_at(spec, lp, z) + mu
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != diag.shape:
        raise ValueError(f"rhs must have shape {diag.shape}, got {rhs.shape}")
    n, p, t = lp.n, lp.n + lp.m, 2 * lp.n + lp.m  # the s block is [p, t)
    coupled = slice(n, p + 1)  # the lam and tau rows of K, which meet s
    d_s = 1.0 + diag[p:t]
    if not (np.isfinite(d_s) & (d_s > 0.0)).all():
        raise FactorizationFailure("the s block is not finite and positive")
    d = np.concatenate([diag[:p], diag[t:]])
    # K is symmetric, so the transpose of its copy is the column-major form
    R = K.copy().T
    R[np.diag_indices_from(R)] += d
    G = np.vstack([A, -c])
    G /= np.sqrt(d_s)
    R[coupled, coupled] -= G @ G.T
    factor = _factor(R)

    def eliminated_solve(r_y, r_s):
        y, v = r_y.copy(), r_s / d_s
        y[n:p] -= A @ v  # y[coupled] -= C v, with C = [A; -c]
        y[p] += c @ v
        y = cho_solve(factor, y)
        return y, (r_s - (A.T @ y[n:p] - c * y[p])) / d_s

    r_y, r_s = np.concatenate([rhs[:p], rhs[t:]]), rhs[p:t]
    y, w = eliminated_solve(r_y, r_s)
    res_y = r_y - (K @ y + d * y)
    res_y[n:p] -= A @ w
    res_y[p] += c @ w
    dy, dw = eliminated_solve(res_y, r_s - (A.T @ y[n:p] - c * y[p] + d_s * w))
    y += dy
    return np.concatenate([y[:p], w + dw, y[p:]])


def _factor(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``M``, in place, in the form cho_solve takes.

    ``M`` should be column-major so that LAPACK needs no copy; the entries
    above the diagonal are left as they were.  Raises FactorizationFailure
    when ``M`` holds a NaN or inf or is not numerically SPD.
    """
    if not np.isfinite(M).all():
        raise FactorizationFailure("Cholesky factorization failed: the matrix is not finite")
    factor, info = _potrf(M, lower=1, overwrite_a=1, clean=0)
    if info != 0:
        raise FactorizationFailure(f"Cholesky factorization failed: potrf info {info}")
    return factor


def cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L' y = ``rhs`` for the lower factor L from ``_factor``.

    ``rhs`` is a vector or a matrix of columns.  No finiteness check.
    """
    return _potrs(factor, rhs, lower=1)[0]


def _basic_vertex(lp, basis):
    """The vertex of the square basis ``basis`` as a flat iterate, or None.

    x_B = A_B^{-1} b and lam = A_B^{-T} c_B from one LU factorization, with
    x_N = 0 and s = c - A'lam but s_B = 0 exactly.  Each solve takes one step
    of iterative refinement on the same factors, its residual accumulated in
    long double (Moler, JACM 1967): the plain LU solves leave residuals that
    grow with the pivots and, on a problem whose objective nearly cancels,
    a duality gap far above rounding; the step brings both down to the
    rounding of the data wherever long double is wider than double.  None
    when A_B has an exactly zero pivot, or the vertex has a non-finite entry
    or a negative x or s; an ill-conditioned A_B is left to those tests and
    the caller's.
    """
    A_B = lp.A[:, basis]
    c_B = lp.c[basis]
    lu, piv, info = _getrf(A_B)
    if info != 0:
        return None
    x_B, _ = _getrs(lu, piv, lp.b)
    lam, _ = _getrs(lu, piv, c_B, trans=1)
    wide = A_B.astype(np.longdouble)
    with np.errstate(over="ignore", invalid="ignore"):
        x_B += _getrs(lu, piv, (lp.b - wide @ x_B).astype(np.float64))[0]
        lam += _getrs(lu, piv, (c_B - wide.T @ lam).astype(np.float64), trans=1)[0]
        s = lp.c - lp.A.T @ lam
    s[basis] = 0.0
    z = np.concatenate([np.zeros(lp.n), lam, s])
    z[basis] = x_B
    if not (np.isfinite(z).all() and x_B.min() >= 0.0 and s.min() >= 0.0):
        return None
    return z


def _look_ahead_basis(lp, basis):
    """The basis that the polish should try in place of ``basis``, or None.

    One LU factorization of A_B, with plain solves and no refinement, gives
    the vertex x_B = A_B^{-1} b and s = c - A'A_B^{-T} c_B, s_B = 0.  When
    x_B >= 0 and s >= 0 it returns ``basis``.  When only x_B has a negative
    entry it takes one dual-simplex pivot: the most negative x_r leaves, and
    the nonbasic j with alpha_j < 0 that minimizes s_j / -alpha_j enters,
    where alpha = A'A_B^{-T} e_r is row r of A_B^{-1} A.  When only s has a
    negative entry it takes one primal-simplex pivot: the most negative s_j
    enters, and the i with d_i > 0 that minimizes x_i / d_i leaves, where
    d = A_B^{-1} a_j.  Both pivots reuse the one LU.  None when A_B has an
    exactly zero pivot, the vertex has a non-finite entry, both sides have a
    negative entry or the ratio test is empty.  The returned basis, sorted,
    is a guess only: ``_basic_vertex`` and the caller's test decide on it.
    """
    A = lp.A
    lu, piv, info = _getrf(A[:, basis])
    if info != 0:
        return None
    # an overflow gives an inf or NaN, which the finiteness test or the
    # ratio tests reject, so it needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
        x_B = _getrs(lu, piv, lp.b)[0]
        s = lp.c - A.T @ _getrs(lu, piv, lp.c[basis], trans=1)[0]
        s[basis] = 0.0
        if not (np.isfinite(x_B).all() and np.isfinite(s).all()):
            return None
        primal, dual = x_B.min() >= 0.0, s.min() >= 0.0
        if primal and dual:
            return basis
        if primal == dual:
            return None
        if dual:
            leaving = int(np.argmin(x_B))
            e_r = np.zeros(lp.m)
            e_r[leaving] = 1.0
            alpha = A.T @ _getrs(lu, piv, e_r, trans=1)[0]
            alpha[basis] = 0.0
            candidates = np.flatnonzero(alpha < 0.0)
            if candidates.size == 0:
                return None
            entering = candidates[np.argmin(s[candidates] / -alpha[candidates])]
        else:
            entering = int(np.argmin(s))
            d = _getrs(lu, piv, A[:, entering])[0]
            candidates = np.flatnonzero(d > 0.0)
            if candidates.size == 0:
                return None
            leaving = candidates[np.argmin(x_B[candidates] / d[candidates])]
    neighbour = basis.copy()
    neighbour[leaving] = entering
    return np.sort(neighbour)

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
factorization of A A' + delta*I, and project_ray projects a candidate dual
ray onto null(A_P) from the same factorization of the columns P that carry
it.

The polish factors a square basis A_B with LU.  ``_look_ahead_basis`` is a
bounded crossover: it screens a basis with one LU, plain solves and no
refinement (``_screen``), and reuses that LU for one dual-simplex,
primal-simplex or criss-cross pivot to a neighbour (``_pivot``), for at
most ``_CROSSOVER_PIVOTS`` pivots.  ``_basic_vertex`` gives a basis's
vertex, each solve refined once in long double; the basis the crossover
ends on brings its LU and plain solves along, so each basis the polish
tries is factored once.

The hot paths call ``ndarray.dot``, the same BLAS call as ``@`` at about
half its dispatch cost on small arrays, and write their results into
per-call buffers instead of concatenating; the diagonals of the blocks are
updated through a strided view, without index arrays.

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
from .problems import StandardFormLp, _all_finite

_potrf, _potrs, _getrf, _getrs = get_lapack_funcs(
    ("potrf", "potrs", "getrf", "getrs"), dtype=np.float64
)

#: project_ray keeps the entries of a candidate ray above this fraction of
#: its largest.
_RAY_SUPPORT = 1e-3

_EPS = float(np.finfo(float).eps)

#: The most pivots that the polish's crossover, ``_look_ahead_basis``,
#: takes from the top-m basis.
_CROSSOVER_PIVOTS = 8


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
    A, n, m = lp.A, lp.n, lp.m
    # both right-hand sides, as the columns of the column-major array potrs takes
    rhs = np.empty((m, 2), order="F")
    rhs[:, 0] = lp.b
    rhs[:, 1] = A.dot(lp.c)
    y = cho_solve(_row_gram_factor(A), rhs)
    z = np.empty(2 * n + m)
    z[:n] = A.T.dot(y[:, 0])
    z[n : n + m] = y[:, 1]
    z[n + m :] = lp.c - A.T.dot(y[:, 1])
    return z


def _row_gram_factor(A: np.ndarray) -> np.ndarray:
    """The Cholesky factor of AA' + delta*I for the rows of ``A``.

    delta = m*eps*(1 + trace(AA')) covers Cholesky's backward error on AA',
    m*eps*||A||_F^2 with ||A||_F^2 = trace(AA'), so that a rank-deficient A
    factors; the 1 keeps it positive at A = 0.  Raises FactorizationFailure
    when AA' overflows.
    """
    m = A.shape[0]
    # AA' is symmetric, so its transpose is the column-major copy potrf takes
    M = A.dot(A.T).T
    diagonal = _diagonal(M)
    diagonal += m * _EPS * (1.0 + M.trace())
    return _factor(M)


def _diagonal(M: np.ndarray) -> np.ndarray:
    """A writable view of the diagonal of the square contiguous matrix ``M``,
    of either memory order."""
    return M.ravel(order="K")[:: M.shape[0] + 1]


def project_ray(lp: StandardFormLp, d: np.ndarray) -> np.ndarray:
    """The projection of a candidate dual ray ``d`` >= 0 onto null(A_P).

    P = {j : d_j > _RAY_SUPPORT * max d} keeps the entries that carry the
    ray; off P the result is exactly zero, and on P it is
    d_P - A_P'(A_P A_P' + delta*I)^{-1} A_P d_P, the least-squares projection
    from one Cholesky factorization with the delta of least_squares_start.
    ``problems.is_dual_ray`` decides on it.  Raises FactorizationFailure
    when A_P A_P' overflows.
    """
    support = np.flatnonzero(d > _RAY_SUPPORT * d.max())
    A_P = lp.A[:, support]
    d_P = d[support]
    ray = np.zeros(lp.n)
    ray[support] = d_P - A_P.T @ cho_solve(_row_gram_factor(A_P), A_P @ d_P)
    return ray


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
    v v', v = (c; -b) (the problem's cached ``coupling``), is absorbed by a
    Sherman-Morrison correction, whose denominator 1 + v'M^{-1}v is at least
    one; M^{-1}v and the first solve share one two-column triangular solve
    per block.  One step of iterative refinement on the reduced (n+m) system
    keeps its residual near round-off at tiny mu.  Raises
    FactorizationFailure when a block is not numerically SPD or not finite.
    """
    A, m, n, v = lp.A, lp.m, lp.n, lp.coupling
    p = n + m
    d1, d2, d3 = d[:n], d[n:p], d[p:]
    rhs_s = rhs[p:]
    shift = 1.0 + d3
    B = A * np.sqrt(d3 / shift)
    # both blocks are symmetric, so their transposes are the column-major
    # copies that LAPACK factors in place; the refinement residual below
    # applies the blocks through A'A and B instead
    M_x = lp.gram.copy().T
    diagonal = _diagonal(M_x)
    diagonal += d1
    M_lam = B.dot(B.T).T
    diagonal = _diagonal(M_lam)
    diagonal += d2
    F_x = _factor(M_x)
    F_lam = _factor(M_lam)

    # _factor has checked both blocks for NaN and inf, so their factors are
    # finite; each block solve writes the rows of its block in place
    def block_solve(r):
        r[:n] = cho_solve(F_x, r[:n])
        r[n:] = cho_solve(F_lam, r[n:])
        return r

    # the columns v and r, column-major, so that each block solve takes both;
    # r is kept apart, since the solve overwrites them
    vr = np.empty((p, 2), order="F")
    vr[:, 0] = v
    vr[:n, 1] = rhs[:n]
    np.subtract(rhs[n:p], A.dot(rhs_s / shift), out=vr[n:, 1])
    r = vr[:, 1].copy()
    y, u0 = block_solve(vr).T
    denominator = 1.0 + float(v.dot(y))

    def rank_one_corrected(w):
        return w - y * (float(v.dot(w)) / denominator)

    u = rank_one_corrected(u0)
    ux, ul = u[:n], u[n:]
    applied = np.empty(p)
    np.add(lp.gram.dot(ux), d1 * ux, out=applied[:n])
    np.add(B.dot(B.T.dot(ul)), d2 * ul, out=applied[n:])
    applied += v * float(v.dot(u))
    r -= applied
    u += rank_one_corrected(block_solve(r))
    step = np.empty(p + n)
    step[:p] = u
    np.divide(rhs_s - A.T.dot(u[n:]), shift, out=step[p:])
    return step


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
    if not _all_finite(M):
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


class _FactoredBasis(np.ndarray):
    """A basis, as the sorted index array, that carries its LU factors.

    ``_look_ahead_basis`` returns the basis its crossover ends on as one:
    ``factors`` = (A_B, c_B, lu, piv, x_B, lam) holds the gathered columns,
    the LU factors of A_B and the plain solves x_B = A_B^{-1} b and
    lam = A_B^{-T} c_B, which ``_basic_vertex`` refines instead of factoring
    A_B again.  It is read, never written, so a basis tried twice gives the
    same vertex twice.
    """

    factors = None


def _basic_vertex(lp, basis):
    """The vertex of the square basis ``basis`` as a flat iterate, or None.

    x_B = A_B^{-1} b and lam = A_B^{-T} c_B from one LU factorization, with
    x_N = 0 and s = c - A'lam but s_B = 0 exactly; a basis that
    ``_look_ahead_basis`` returned factored brings both plain solves with
    it, and A_B is not factored again.  Each solve takes one step of
    iterative refinement on the same factors, its residual accumulated in
    long double (Moler, JACM 1967): the plain LU solves leave residuals that
    grow with the pivots and, on a problem whose objective nearly cancels,
    a duality gap far above rounding; the step brings both down to the
    rounding of the data wherever long double is wider than double.  None
    when A_B has an exactly zero pivot, or the vertex has a non-finite entry
    or a negative x or s; an ill-conditioned A_B is left to those tests and
    the caller's.
    """
    factors = getattr(basis, "factors", None) or _factored(lp, basis)
    if factors is None:
        return None
    A_B, c_B, lu, piv, x_B, lam = factors
    n, p = lp.n, lp.n + lp.m
    wide = A_B.astype(np.longdouble)
    z = np.zeros(p + n)
    s = z[p:]
    with np.errstate(over="ignore", invalid="ignore"):
        x_B = x_B + _getrs(lu, piv, (lp.b - wide.dot(x_B)).astype(np.float64))[0]
        lam = lam + _getrs(lu, piv, (c_B - wide.T.dot(lam)).astype(np.float64), trans=1)[0]
        np.subtract(lp.c, lp.A.T.dot(lam), out=s)
    s[basis] = 0.0
    z[n:p] = lam
    z[basis] = x_B
    if not (_all_finite(z) and x_B.min() >= 0.0 and s.min() >= 0.0):
        return None
    return z


def _factored(lp, basis):
    """The factors (A_B, c_B, lu, piv, x_B, lam) of the square basis
    ``basis``, as a ``_FactoredBasis`` carries them, from one LU
    factorization and the plain solves x_B = A_B^{-1} b and
    lam = A_B^{-T} c_B; None when A_B has an exactly zero pivot."""
    A_B = lp.A.take(basis, axis=1)
    lu, piv, info = _getrf(A_B)
    if info != 0:
        return None
    c_B = lp.c[basis]
    return A_B, c_B, lu, piv, _getrs(lu, piv, lp.b)[0], _getrs(lu, piv, c_B, trans=1)[0]


def _screen(lp, basis):
    """(factors, s) for the square basis ``basis``, unrefined: the factors
    of ``_factored`` and s = c - A'lam with s_B = 0.  None when A_B has an
    exactly zero pivot or x_B or s has a non-finite entry."""
    factors = _factored(lp, basis)
    if factors is None:
        return None
    s = lp.c - lp.A.T.dot(factors[5])
    s[basis] = 0.0
    if not (_all_finite(factors[4]) and _all_finite(s)):
        return None
    return factors, s


def _pivot(lp, basis, factors, s, negative_x, negative_s):
    """(leaving position, entering index) of one pivot from the screened
    ``basis``, or None when the pivot's ratio test is empty.  ``negative_x``
    and ``negative_s`` are the positions in x_B and the indices in s of the
    negative entries, not both empty.

    When only x_B has a negative entry it is a dual-simplex pivot: the most
    negative x_r leaves, and the nonbasic j with alpha_j < 0 that minimizes
    s_j / -alpha_j enters, where alpha = A'A_B^{-T} e_r is row r of
    A_B^{-1} A.  When only s has one it is a primal-simplex pivot: the most
    negative s_j enters, and the i with d_i > 0 that minimizes x_i / d_i
    leaves, where d = A_B^{-1} a_j.  When both have one it is Terlaky's
    least-index criss-cross pivot (Optimization 1985), with no ratio test:
    the least index k whose x_k or s_k is negative moves; a basic k leaves
    for the least j with alpha_j < 0, a nonbasic k enters for the least
    basic i with d_i > 0.  Each reuses the LU of ``factors``.
    """
    A = lp.A
    _, _, lu, piv, x_B, _ = factors
    criss_cross = negative_x.size > 0 and negative_s.size > 0
    if criss_cross:
        # ``basis`` is sorted, so its least index with x_k < 0 comes first
        row = negative_x[0] if basis[negative_x[0]] < negative_s[0] else None
    else:
        row = int(np.argmin(x_B)) if negative_x.size else None
    if row is not None:
        e_r = np.zeros(lp.m)
        e_r[row] = 1.0
        alpha = A.T @ _getrs(lu, piv, e_r, trans=1)[0]
        alpha[basis] = 0.0
        candidates = np.flatnonzero(alpha < 0.0)
        if candidates.size == 0:
            return None
        if criss_cross:
            return row, candidates[0]
        return row, candidates[np.argmin(s[candidates] / -alpha[candidates])]
    entering = negative_s[0] if criss_cross else int(np.argmin(s))
    d = _getrs(lu, piv, A[:, entering])[0]
    candidates = np.flatnonzero(d > 0.0)
    if candidates.size == 0:
        return None
    if criss_cross:
        return candidates[0], entering
    return candidates[np.argmin(x_B[candidates] / d[candidates])], entering


def _look_ahead_basis(lp, basis):
    """The basis that the polish should try in place of ``basis``, or None.

    A bounded crossover from ``basis``, the sorted top-m basis T: each basis
    of the chain is screened once by ``_screen``, with one LU and plain
    solves, and one ``_pivot`` on that LU moves to the next, for at most
    ``_CROSSOVER_PIVOTS`` pivots.  The chain ends at the first basis whose
    x_B >= 0 and s >= 0, at the budget, at an empty ratio test, or where the
    basis has more negative entries in x_B and s together than pivots left:
    such a basis is far from a vertex of the right signs, and its pivots
    would be wasted LU work.  A first pivot from T whose negative entries
    lie on one side only is taken whatever their number.  The basis the
    chain ends on is returned as a ``_FactoredBasis`` that carries its LU
    and plain solves, so that ``_basic_vertex`` refines them without a
    second factorization; it is a guess only, which ``_basic_vertex`` and
    the caller's test decide on.  None when the chain ends on T with a
    negative entry, or a basis of the chain has an exactly zero pivot or a
    non-finite vertex.
    """
    start = basis
    # an overflow gives an inf or NaN, which the finiteness test or the
    # ratio tests reject, so it needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
        screened = _screen(lp, basis)
        if screened is None:
            return None
        for left in range(_CROSSOVER_PIVOTS, -1, -1):
            factors, s = screened
            negative_x = np.flatnonzero(factors[4] < 0.0)
            negative_s = np.flatnonzero(s < 0.0)
            violations = negative_x.size + negative_s.size
            if violations == 0 or left == 0:
                break
            one_sided_start = basis is start and not (negative_x.size and negative_s.size)
            if violations > left and not one_sided_start:
                break
            move = _pivot(lp, basis, factors, s, negative_x, negative_s)
            if move is None:
                break
            leaving, entering = move
            neighbour = basis.copy()
            neighbour[leaving] = entering
            basis = np.sort(neighbour)
            screened = _screen(lp, basis)
            if screened is None:
                return None
    if basis is start and violations:
        return None
    named = basis.view(_FactoredBasis)
    named.factors = factors
    return named

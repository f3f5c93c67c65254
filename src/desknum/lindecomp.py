"""Linear systems, factorizations, eigenproblems, SVD, PCA, least squares.

Direct solvers (Gaussian elimination with partial pivoting, run as an LU
factorization, QR, Cholesky, explicit inverse), stationary and Krylov
iterations (Jacobi, Gauss-Seidel, conjugate gradient), eigenproblems, SVD,
PCA, and polynomial least squares on a Vandermonde system.

One Householder reflector kernel serves QR, least squares, the SVD and the
Hessenberg reduction: QR and least squares triangularize an augmented row
list ([A | I] gives [R | Q^T], [A | b] gives [R | Q^T b]). One one-sided
Jacobi kernel serves symmetric eig (on S + |S|_inf I for the symmetric
part S, which is positive semidefinite), svd (on the R of a QR) and pca
(the SVD of the centered data); shifted QR on the Hessenberg form with
inverse-iteration eigenvectors is left to non-symmetric input, where
mirrored entries differ by more than 1e-9 of the largest entry. All
triangular solves end in one back-substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import sub
from typing import Sequence, Union

from .errors import (
    BadRank,
    NoConvergence,
    NotSpd,
    RankDeficient,
    ShapeMismatch,
    Singular,
    ZeroDiagonal,
)
from .ndcore import Matrix, Vector, _checked_floats, _dot, _matvec, _norm2, _norm_inf

# relative pivot threshold shared by the pivoted factorizations
_PIVOT_REL = 1e-12


@dataclass(frozen=True)
class LuFactors:
    """P*A = L*U with unit-diagonal L; sign is the permutation parity."""

    l: Matrix
    u: Matrix
    perm: list[int]
    sign: int


@dataclass(frozen=True)
class QrFactors:
    q: Matrix
    r: Matrix


@dataclass(frozen=True)
class EigResult:
    """Eigenvalues descending; vectors holds unit columns in matching order."""

    values: list[float]
    vectors: Matrix


@dataclass(frozen=True)
class SvdResult:
    u: Matrix
    sigma: list[float]
    v: Matrix


@dataclass(frozen=True)
class IterConfig:
    tol: float = 1e-10
    max_iter: int = 100


@dataclass(frozen=True)
class IterReport:
    iterations: int
    residual: float
    converged: bool


VecLike = Union[Vector, Sequence[float]]


def _require_square(a: Matrix, who: str) -> None:
    if a.rows != a.cols:
        raise ShapeMismatch(f"{who} needs a square matrix, got {a.rows}x{a.cols}")


def _vec_list(b: VecLike) -> list[float]:
    if isinstance(b, Vector):
        return list(b.data)
    return [float(x) for x in b]


def _maxabs(rows: list[list[float]]) -> float:
    return max((abs(x) for row in rows for x in row), default=0.0)


def _symmetric(rows: list[list[float]]) -> bool:
    # relative to the largest entry, so the verdict does not depend on scale
    n, tol = len(rows), 1e-9 * _maxabs(rows)
    return all(abs(rows[i][j] - rows[j][i]) <= tol for i in range(n) for j in range(i))


def _residual_inf(arows: list[list[float]], x: list[float], b: list[float]) -> float:
    return _norm_inf([ax - bi for ax, bi in zip(_matvec(arows, x), b)])


# factorizations


def lu(a: Matrix) -> LuFactors:
    """Partially pivoted Doolittle factorization P*A = L*U."""
    _require_square(a, "lu")
    n = a.rows
    u = a.to_rows()
    thresh = _PIVOT_REL * _maxabs(u)
    lo = [[0.0] * n for _ in range(n)]
    perm = list(range(n))
    sign = 1
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(u[i][k]))
        if abs(u[p][k]) <= thresh:
            raise Singular("pivot below threshold: matrix is singular to working precision")
        if p != k:
            u[k], u[p] = u[p], u[k]
            lo[k][:k], lo[p][:k] = lo[p][:k], lo[k][:k]
            perm[k], perm[p] = perm[p], perm[k]
            sign = -sign
        pivot = u[k][k]
        for i in range(k + 1, n):
            m = u[i][k] / pivot
            lo[i][k] = m
            u[i][k] = 0.0
            if m != 0.0:
                urow_k = u[k]
                urow_i = u[i]
                for j in range(k + 1, n):
                    urow_i[j] -= m * urow_k[j]
    for i in range(n):
        lo[i][i] = 1.0
    return LuFactors(Matrix.from_rows(lo), Matrix.from_rows(u), perm, sign)


def _forward_substitute(lo: list[list[float]], b: list[float]) -> list[float]:
    # lower-triangular L y = b; a unit diagonal divides exactly
    y = [0.0] * len(b)
    for i, row in enumerate(lo):
        y[i] = (b[i] - math.fsum(row[j] * y[j] for j in range(i))) / row[i]
    return y


def _back_substitute(u: list[list[float]], y: list[float]) -> list[float]:
    # upper-triangular U x = y; U may carry extra (augmented) columns
    n = len(y)
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        row = u[i]
        x[i] = (y[i] - math.fsum(row[j] * x[j] for j in range(i + 1, n))) / row[i]
    return x


def _solve_lu_factors(lrows, urows, perm: list[int], b: list[float]) -> list[float]:
    return _back_substitute(urows, _forward_substitute(lrows, [b[p] for p in perm]))


# Householder reflector kernel


def _reflector(rows: list[list[float]], top: int, k: int):
    """Reflector zeroing column k below row top: (v, alpha, v^T v), or None."""
    nx = math.sqrt(math.fsum(rows[i][k] * rows[i][k] for i in range(top, len(rows))))
    if nx <= 1e-300:
        return None
    alpha = -nx if rows[top][k] >= 0 else nx
    v = [rows[i][k] for i in range(top, len(rows))]
    v[0] -= alpha
    vtv = math.fsum(x * x for x in v)
    if vtv <= 1e-300:
        return None
    return v, alpha, vtv


def _reflect_left(rows, top: int, v: list[float], vtv: float, j0: int) -> None:
    # H = I - 2 v v^T / v^T v on rows top.. of columns j0..
    for j in range(j0, len(rows[0])):
        s = 2.0 * math.fsum(v[i] * rows[top + i][j] for i in range(len(v))) / vtv
        if s != 0.0:
            for i in range(len(v)):
                rows[top + i][j] -= s * v[i]


def _reflect_right(rows, top: int, v: list[float], vtv: float) -> None:
    # the same H from the right, on columns top.. of every row
    for row in rows:
        s = 2.0 * math.fsum(row[top + i] * v[i] for i in range(len(v))) / vtv
        if s != 0.0:
            for i in range(len(v)):
                row[top + i] -= s * v[i]


def _triangularize(r: list[list[float]], n: int) -> list[tuple]:
    """Reduce the first n columns of augmented rows r to upper-triangular form;
    returns the reflectors applied, as (k, v, v^T v)."""
    m = len(r)
    applied = []
    for k in range(min(m - 1, n)):
        ref = _reflector(r, k, k)
        if ref is None:
            continue
        v, alpha, vtv = ref
        _reflect_left(r, k, v, vtv, k)
        r[k][k] = alpha
        for i in range(k + 1, m):
            r[i][k] = 0.0
        applied.append((k, v, vtv))
    return applied


def _householder_ls(rows: list[list[float]], rhs: list[float]):
    """Reduce [A | rhs] to [R | Q^T rhs]; returns those rows and Q^T rhs cut to n."""
    n = len(rows[0])
    r = [row + [y] for row, y in zip(rows, rhs)]
    _triangularize(r, n)
    return r, [row[n] for row in r[:n]]


def qr(a: Matrix) -> QrFactors:
    """Householder QR of a square matrix; R diagonal signs are not normalized."""
    _require_square(a, "qr")
    m = a.rows
    # the reflectors that take A to R take I to Q^T
    r = [row + e for row, e in zip(a.to_rows(), Matrix.identity(m).to_rows())]
    _triangularize(r, m)
    q = [[row[m + i] for row in r] for i in range(m)]
    return QrFactors(Matrix.from_rows(q), Matrix.from_rows([row[:m] for row in r]))


def cholesky(a: Matrix) -> Matrix:
    """Lower-triangular L with A = L*L^T; input must be SPD."""
    _require_square(a, "cholesky")
    n = a.rows
    rows = a.to_rows()
    if not _symmetric(rows):
        raise NotSpd("matrix is not symmetric")
    lo = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = rows[i][j] - math.fsum(lo[i][k] * lo[j][k] for k in range(j))
            if i == j:
                if s <= 0.0:
                    raise NotSpd("matrix is not positive definite")
                lo[i][i] = math.sqrt(s)
            else:
                lo[i][j] = s / lo[j][j]
    return Matrix.from_rows(lo)


def det(a: Matrix) -> float:
    """Determinant as sign * product of U's diagonal; singular input gives 0."""
    _require_square(a, "det")
    try:
        f = lu(a)
    except Singular:
        return 0.0
    p = float(f.sign)
    for i in range(a.rows):
        p *= f.u.get(i, i)
    return p


def inv(a: Matrix) -> Matrix:
    _require_square(a, "inv")
    f = lu(a)
    n = a.rows
    lrows, urows = f.l.to_rows(), f.u.to_rows()
    cols = []
    for j in range(n):
        e = [0.0] * n
        e[j] = 1.0
        cols.append(_solve_lu_factors(lrows, urows, f.perm, e))
    return Matrix.from_rows([[cols[j][i] for j in range(n)] for i in range(n)])


# direct solves


def solve_direct(a: Matrix, b: VecLike, method: str = "gauss") -> Vector:
    """Solve A x = b by gauss, lu, qr, cholesky, or inverse."""
    _require_square(a, "solve_direct")
    bv = _vec_list(b)
    if len(bv) != a.rows:
        raise ShapeMismatch(f"rhs length {len(bv)} does not match {a.rows} rows")
    n = a.rows
    if method in ("gauss", "lu"):
        # Gaussian elimination with partial pivoting is the LU factorization
        f = lu(a)
        return Vector(_solve_lu_factors(f.l.to_rows(), f.u.to_rows(), f.perm, bv))
    if method == "qr":
        arows = a.to_rows()
        r, y = _householder_ls(arows, bv)
        thresh = _PIVOT_REL * _maxabs(arows)
        if any(abs(r[i][i]) <= thresh for i in range(n)):
            raise Singular("R has a negligible diagonal entry")
        return Vector(_back_substitute(r, y))
    if method == "cholesky":
        lo = cholesky(a).to_rows()
        # L y = b, then L^T x = y on the rows of L^T
        y = _forward_substitute(lo, bv)
        return Vector(_back_substitute([list(col) for col in zip(*lo)], y))
    if method == "inverse":
        m = inv(a)
        return Vector(_matvec(m.to_rows(), bv))
    raise ValueError(f"unknown direct method {method!r}")


# iterative solves


def solve_iterative(
    a: Matrix,
    b: VecLike,
    x0: VecLike,
    method: str = "jacobi",
    cfg: IterConfig = IterConfig(),
) -> tuple[Vector, IterReport]:
    """Iterate until the step (or residual) drops below cfg.tol.

    Never raises on slow convergence: the report carries converged=False
    when the budget runs out.
    """
    _require_square(a, "solve_iterative")
    if cfg.tol <= 0 or cfg.max_iter < 1:
        raise ValueError("tol must be positive and max_iter at least 1")
    bv = _vec_list(b)
    xv = _vec_list(x0)
    n = a.rows
    if len(bv) != n or len(xv) != n:
        raise ShapeMismatch("rhs/start length does not match matrix size")
    arows = a.to_rows()

    if method in ("jacobi", "gauss_seidel"):
        for i in range(n):
            if arows[i][i] == 0.0:
                raise ZeroDiagonal(f"zero diagonal entry at row {i}")
        x = list(xv)
        res = _residual_inf(arows, x, bv)
        if res < cfg.tol:
            return Vector(x), IterReport(0, res, True)
        for k in range(1, cfg.max_iter + 1):
            if method == "jacobi":
                new = [
                    (
                        bv[i]
                        - math.fsum(arows[i][j] * x[j] for j in range(n) if j != i)
                    )
                    / arows[i][i]
                    for i in range(n)
                ]
                step = max(abs(u - v) for u, v in zip(new, x))
                x = new
            else:
                step = 0.0
                for i in range(n):
                    s = bv[i] - math.fsum(
                        arows[i][j] * x[j] for j in range(n) if j != i
                    )
                    nxt = s / arows[i][i]
                    step = max(step, abs(nxt - x[i]))
                    x[i] = nxt
            res = _residual_inf(arows, x, bv)
            if step < cfg.tol or res < cfg.tol:
                return Vector(x), IterReport(k, res, True)
        return Vector(x), IterReport(cfg.max_iter, res, False)

    if method == "cg":
        x = list(xv)
        r = [bi - axi for bi, axi in zip(bv, _matvec(arows, x))]
        res = _norm_inf(r)
        if res < cfg.tol:
            return Vector(x), IterReport(0, res, True)
        p = list(r)
        rs = _dot(r, r)
        for k in range(1, cfg.max_iter + 1):
            ap = _matvec(arows, p)
            curv = _dot(p, ap)
            if curv <= 0.0:
                raise NotSpd("nonpositive curvature direction: matrix is not SPD")
            alpha = rs / curv
            step = 0.0
            for i in range(n):
                dx = alpha * p[i]
                x[i] += dx
                step = max(step, abs(dx))
                r[i] -= alpha * ap[i]
            res = _norm_inf(r)
            if step < cfg.tol or res < cfg.tol:
                return Vector(x), IterReport(k, _residual_inf(arows, x, bv), True)
            rs_new = _dot(r, r)
            beta = rs_new / rs
            p = [r[i] + beta * p[i] for i in range(n)]
            rs = rs_new
        return Vector(x), IterReport(cfg.max_iter, _residual_inf(arows, x, bv), False)

    raise ValueError(f"unknown iterative method {method!r}")


# eigenvalues and eigenvectors


def _hessenberg(rows: list[list[float]], n: int) -> list[list[float]]:
    h = [row[:] for row in rows]
    for k in range(n - 2):
        ref = _reflector(h, k + 1, k)
        if ref is None:
            continue
        v, _, vtv = ref
        # left reflection on rows k+1.., then the mirror from the right
        _reflect_left(h, k + 1, v, vtv, 0)
        _reflect_right(h, k + 1, v, vtv)
    return h


def _qr_step(h: list[list[float]], m: int, mu: float) -> None:
    # one shifted QR sweep, in place, on the leading (m+1) block
    for i in range(m + 1):
        h[i][i] -= mu
    rots = []
    for k in range(m):
        a_, b_ = h[k][k], h[k + 1][k]
        r = math.hypot(a_, b_)
        if r <= 1e-300:
            c, s = 1.0, 0.0
        else:
            c, s = a_ / r, b_ / r
        rots.append((c, s))
        if s != 0.0:
            for j in range(k, m + 1):
                x, y = h[k][j], h[k + 1][j]
                h[k][j] = c * x + s * y
                h[k + 1][j] = c * y - s * x
    for k, (c, s) in enumerate(rots):
        if s != 0.0:
            for i in range(min(k + 2, m) + 1):
                x, y = h[i][k], h[i][k + 1]
                h[i][k] = c * x + s * y
                h[i][k + 1] = c * y - s * x
    for i in range(m + 1):
        h[i][i] += mu


def _eig_values(rows: list[list[float]], n: int) -> list[float]:
    h = _hessenberg(rows, n)
    tiny = 1e-300
    vals: list[float] = []
    m = n - 1
    sweeps = 0
    since_deflation = 0
    budget = 300 * n + 60
    while m >= 0:
        if m == 0:
            vals.append(h[0][0])
            m -= 1
            continue
        if abs(h[m][m - 1]) <= 1e-12 * (abs(h[m - 1][m - 1]) + abs(h[m][m]) + tiny):
            vals.append(h[m][m])
            m -= 1
            since_deflation = 0
            continue
        isolated2 = m == 1 or abs(h[m - 1][m - 2]) <= 1e-12 * (
            abs(h[m - 2][m - 2]) + abs(h[m - 1][m - 1]) + tiny
        )
        if isolated2:
            a_, b_, c_, d_ = h[m - 1][m - 1], h[m - 1][m], h[m][m - 1], h[m][m]
            half = 0.5 * (a_ - d_)
            disc = half * half + b_ * c_
            if disc < 0.0:
                raise NoConvergence("complex eigenvalue pair encountered")
            s = math.sqrt(disc)
            mid = 0.5 * (a_ + d_)
            vals.append(mid + s)
            vals.append(mid - s)
            m -= 2
            since_deflation = 0
            continue
        if sweeps >= budget:
            raise NoConvergence("eigenvalue iteration exhausted its sweep budget")
        a_, b_, c_, d_ = h[m - 1][m - 1], h[m - 1][m], h[m][m - 1], h[m][m]
        half = 0.5 * (a_ - d_)
        disc = half * half + b_ * c_
        if disc >= 0.0:
            s = math.sqrt(disc)
            mid = 0.5 * (a_ + d_)
            r1, r2 = mid + s, mid - s
            mu = r1 if abs(r1 - d_) <= abs(r2 - d_) else r2
        else:
            mu = d_
        if since_deflation > 0 and since_deflation % 12 == 0:
            # occasional ad-hoc shift to break shift cycling
            mu = d_ + abs(h[m][m - 1])
        _qr_step(h, m, mu)
        sweeps += 1
        since_deflation += 1
    return vals


def _sign_fix(v: list[float]) -> list[float]:
    # the entry of largest magnitude (the first, on ties) becomes positive
    return [-x for x in v] if max(v, key=abs) < 0.0 else v


def _inverse_iteration(
    rows: list[list[float]],
    n: int,
    lam: float,
    idx: int,
) -> list[float]:
    res_tol = 1e-9 * (1.0 + abs(lam))
    best_v: list[float] | None = None
    best_res = math.inf
    for attempt in range(n + 2):
        if attempt < n:
            v = [0.0] * n
            v[(idx + attempt) % n] = 1.0
        else:
            v = [1.0 / math.sqrt(n)] * n
        eps = (1e-11 + 1e-9 * attempt) * (1.0 + abs(lam))
        shifted = [row[:] for row in rows]
        for i in range(n):
            shifted[i][i] -= lam + eps
        try:
            f = lu(Matrix.from_rows(shifted))
        except Singular:
            continue
        lrows, urows = f.l.to_rows(), f.u.to_rows()
        for _ in range(40):
            w = _solve_lu_factors(lrows, urows, f.perm, v)
            nw = _norm2(w)
            if nw <= 1e-250:
                break
            v = [x / nw for x in w]
            av = _matvec(rows, v)
            res = max(abs(av[i] - lam * v[i]) for i in range(n))
            if res < best_res:
                best_res = res
                best_v = list(v)
            if res <= res_tol:
                return _sign_fix(list(v))
    if best_v is None:
        # fully defective direction; fall back to a basis vector
        best_v = [0.0] * n
        best_v[idx % n] = 1.0
    return _sign_fix(best_v)


# one-sided Jacobi kernel shared by symmetric eig, svd and pca

# rounding leaves a freshly rotated pair with |x^T y| up to about
# 2 eps |x| |y|, so a pair counts as orthogonal below twice that
_JACOBI_TOL = 4.0 * math.ulp(1.0)
_JACOBI_SWEEPS = 60


def _scaled(rows: list[list[float]]) -> tuple[list[list[float]], float]:
    """rows times the power of two 2^-e that puts the largest magnitude in
    [1, 2), and 2^e: exact, and no square, sum or shift of it overflows."""
    e = math.frexp(_maxabs(rows))[1] - 1
    return [list(map(math.ldexp, row, repeat(-e))) for row in rows], math.ldexp(1.0, e)


def _jacobi(cols: list[list[float]]) -> tuple[list[list[float]], list[list[float]]]:
    """One-sided (Hestenes) Jacobi on the columns of A: rotate column pairs,
    and the same pairs of V = I, until W = A V has orthogonal columns, in
    the sense |x^T y| <= _JACOBI_TOL |x| |y| (Demmel & Veselic 1992; Drmac
    & Veselic 2008). Returns the columns of W and of V, each pair signed so
    that V's column has the _sign_fix sign."""
    m, n = len(cols[0]), len(cols)
    # rotate the columns of [A; I], caching the squared norms of their A parts
    cols = [list(c) + [float(i == j) for i in range(n)] for j, c in enumerate(cols)]
    nn = [_dot(c[:m], c) for c in cols]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                x, y = cols[p], cols[q]
                g = _dot(x[:m], y)
                a, b = nn[p], nn[q]
                # a norm product that underflows marks a column that is
                # numerically zero next to the largest entry, which is >= 1
                if abs(g) <= _JACOBI_TOL * math.sqrt(a) * math.sqrt(b) or a * b == 0.0:
                    continue
                rotated = True
                zeta = (b - a) / (2.0 * g)
                t = math.copysign(1.0 / (abs(zeta) + math.hypot(1.0, zeta)), zeta)
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                cols[p] = [c * u - s * v for u, v in zip(x, y)]
                cols[q] = [s * u + c * v for u, v in zip(x, y)]
                # the shorter column loses t*g; recompute a norm that cancels
                a -= t * g
                b += t * g
                nn[p] = a if a > 0.25 * nn[p] else _dot(cols[p][:m], cols[p])
                nn[q] = b if b > 0.25 * nn[q] else _dot(cols[q][:m], cols[q])
        if not rotated:
            # flipping a whole column of [W; V] keeps A V = W
            cols = [[-x for x in c] if max(c[m:], key=abs) < 0.0 else c for c in cols]
            return [c[:m] for c in cols], [c[m:] for c in cols]
    raise NoConvergence("Jacobi rotations did not converge")


def eig(a: Matrix) -> EigResult:
    """Eigenvalues (descending) and unit eigenvector columns.

    Handles real spectra; a provably complex pair raises NoConvergence.
    """
    _require_square(a, "eig")
    n = a.rows
    rows = a.to_rows()
    if _symmetric(rows):
        # B = S + tau I, for the symmetric part S and tau = |S|_inf, is
        # positive semidefinite, so its right singular vectors are
        # eigenvectors of S, with Rayleigh quotients for eigenvalues
        srows, f = _scaled(rows)
        srows = [[0.5 * (x + y) for x, y in zip(*rc)] for rc in zip(srows, zip(*srows))]
        tau = max(math.fsum(map(abs, row)) for row in srows)
        b = [row[:] for row in srows]
        for j in range(n):
            b[j][j] += tau
        _, vcols = _jacobi(b)
        lam = [_dot(v, _matvec(srows, v)) for v in vcols]
        order = sorted(range(n), key=lam.__getitem__, reverse=True)
        vals = [lam[j] * f for j in order]
        vecs = [vcols[j] for j in order]
    else:
        vals = sorted(_eig_values(rows, n), reverse=True)
        vecs = [_inverse_iteration(rows, n, lam, idx) for idx, lam in enumerate(vals)]
    vectors = Matrix.from_rows([list(r) for r in zip(*vecs)])
    return EigResult(_checked_floats(vals, "eigenvalues"), vectors)


# SVD and PCA


def _svd(rows: list[list[float]], k: int):
    """Rows of U (at least its first k columns), sigma descending and rows
    of V for the thin SVD of scaled rows. For m >= n, Jacobi on the R of a
    Householder QR gives R V = W with orthogonal columns, sigma = |W| and
    U = Q [W / sigma; 0], completed where sigma is zero."""
    m, n = len(rows), len(rows[0])
    if m < n:
        vrows, sigma, urows = _svd([list(c) for c in zip(*rows)], m)
        return urows, sigma, vrows
    r = [row[:] for row in rows]
    reflectors = _triangularize(r, n)
    wcols, vcols = _jacobi([list(c) for c in zip(*r[:n])])
    norms = list(map(_norm2, wcols))
    order = sorted(range(n), key=norms.__getitem__, reverse=True)
    smax = norms[order[0]]
    sigma = [norms[j] if norms[j] > 1e-12 * smax else 0.0 for j in order]
    ucols = [[x / s for x in wcols[j]] for j, s in zip(order, sigma[:k]) if s > 0.0]
    rank = len(ucols)
    if rank < k:
        # triangularizing [U | I] turns I into Q^T, whose rows rank.. complete U
        eye = Matrix.identity(n).to_rows()
        aug = [[u[i] for u in ucols] + e for i, e in enumerate(eye)]
        _triangularize(aug, rank)
        ucols += [aug[j][rank:] for j in range(rank, k)]
    urows = [list(row) for row in zip(*ucols)] + [[0.0] * k for _ in range(m - n)]
    for j, v, vtv in reversed(reflectors):
        _reflect_left(urows, j, v, vtv, 0)
    return urows, sigma, [list(row) for row in zip(*(vcols[j] for j in order))]


def svd(a: Matrix) -> SvdResult:
    """Thin SVD A = U diag(sigma) V^T with sigma descending and >= 0."""
    rows, f = _scaled(a.to_rows())
    urows, sigma, vrows = _svd(rows, min(a.rows, a.cols))
    sigma = _checked_floats([s * f for s in sigma], "singular values")
    return SvdResult(Matrix.from_rows(urows), sigma, Matrix.from_rows(vrows))


def pca(x: Matrix, k: int) -> Matrix:
    """Project mean-centered rows onto the top-k principal axes: the first k
    columns of U Sigma in the SVD of the centered data."""
    n, d = x.rows, x.cols
    if not 1 <= k <= min(n - 1, d):
        raise BadRank(f"component count {k} outside [1, {min(n - 1, d)}]")
    rows, f = _scaled(x.to_rows())
    means = [math.fsum(c) / n for c in zip(*rows)]
    xc = [list(map(sub, row, means)) for row in rows]
    urows, sigma, _ = _svd(xc, k)
    scores = [[u * s * f for u, s in zip(row, sigma[:k])] for row in urows]
    return Matrix.from_rows(scores)


# least squares


def polyfit(xs: VecLike, ys: VecLike, degree: int) -> Vector:
    """Least-squares polynomial coefficients, highest degree first."""
    xv = _vec_list(xs)
    yv = _vec_list(ys)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    p = degree + 1
    if len(xv) != len(yv):
        raise ShapeMismatch("xs and ys lengths differ")
    if len(xv) < p:
        raise ShapeMismatch(f"need at least {p} samples for degree {degree}")
    vand = [[x ** (degree - j) for j in range(p)] for x in xv]
    r, qty = _householder_ls(vand, yv)
    thresh = 1e-12 * max(1.0, _maxabs(vand))
    if any(abs(r[i][i]) <= thresh for i in range(p)):
        raise RankDeficient("Vandermonde system is rank deficient")
    return Vector(_back_substitute(r, qty))

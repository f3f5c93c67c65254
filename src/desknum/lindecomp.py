"""Linear systems, factorizations, eigenproblems, SVD, PCA, least squares.

Direct solvers (Gaussian elimination with partial pivoting, run as an LU
factorization, QR, Cholesky, explicit inverse), stationary and Krylov
iterations (Jacobi, Gauss-Seidel, conjugate gradient), eigenvalues by shifted
QR on the Hessenberg form with inverse-iteration eigenvectors, SVD through the
smaller Gram matrix, PCA, and polynomial least squares on a Vandermonde
system.

One Householder reflector kernel serves QR, least squares and the Hessenberg
reduction: QR and least squares triangularize an augmented row list
([A | I] gives [R | Q^T], [A | b] gives [R | Q^T b]), and the Hessenberg
reduction applies each reflector from both sides. All triangular solves end
in one back-substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .ndcore import Matrix, Vector, _dot, _matvec, _norm2, _norm_inf

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


def _triangularize(r: list[list[float]], n: int) -> None:
    """Reduce the first n columns of augmented rows r to upper-triangular form."""
    m = len(r)
    for k in range(min(m - 1, n)):
        ref = _reflector(r, k, k)
        if ref is None:
            continue
        v, alpha, vtv = ref
        _reflect_left(r, k, v, vtv, k)
        r[k][k] = alpha
        for i in range(k + 1, m):
            r[i][k] = 0.0


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
    sym_tol = 1e-9 * (1.0 + _maxabs(rows))
    for i in range(n):
        for j in range(i):
            if abs(rows[i][j] - rows[j][i]) > sym_tol:
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
    idx = max(range(len(v)), key=lambda i: abs(v[i]))
    return [-x for x in v] if v[idx] < 0.0 else v


def _project_out(v: list[float], basis: list[list[float]]) -> None:
    for u in basis:
        c = _dot(u, v)
        if c != 0.0:
            for i in range(len(v)):
                v[i] -= c * u[i]


def _inverse_iteration(
    rows: list[list[float]],
    n: int,
    lam: float,
    idx: int,
    ortho: list[list[float]],
) -> list[float]:
    res_tol = 1e-9 * (1.0 + abs(lam))
    best_v: list[float] | None = None
    best_res = math.inf
    for attempt in range(n + 2):
        if attempt < n:
            start = [0.0] * n
            start[(idx + attempt) % n] = 1.0
        else:
            start = [1.0] * n
        eps = (1e-11 + 1e-9 * attempt) * (1.0 + abs(lam))
        shifted = [row[:] for row in rows]
        for i in range(n):
            shifted[i][i] -= lam + eps
        try:
            f = lu(Matrix.from_rows(shifted))
        except Singular:
            continue
        lrows, urows = f.l.to_rows(), f.u.to_rows()
        v = list(start)
        _project_out(v, ortho)
        nv = _norm2(v)
        if nv <= 1e-8:
            continue
        v = [x / nv for x in v]
        for _ in range(40):
            w = _solve_lu_factors(lrows, urows, f.perm, v)
            _project_out(w, ortho)
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


def eig(a: Matrix) -> EigResult:
    """Eigenvalues (descending) and unit eigenvector columns.

    Handles real spectra; a provably complex pair raises NoConvergence.
    """
    _require_square(a, "eig")
    n = a.rows
    rows = a.to_rows()
    scale = _maxabs(rows)
    symmetric = all(
        abs(rows[i][j] - rows[j][i]) <= 1e-9 * (1.0 + scale)
        for i in range(n)
        for j in range(i)
    )
    if n == 1:
        return EigResult([rows[0][0]], Matrix.from_rows([[1.0]]))
    vals = sorted(_eig_values(rows, n), reverse=True)
    vecs: list[list[float]] = []
    for idx, lam in enumerate(vals):
        if symmetric:
            cluster = [
                vecs[j]
                for j in range(idx)
                if abs(vals[j] - lam) <= 1e-8 * (1.0 + abs(lam))
            ]
        else:
            cluster = []
        vecs.append(_inverse_iteration(rows, n, lam, idx, cluster))
    if symmetric:
        # a final orthonormalization pass; cheap insurance for tight spectra
        for i in range(len(vecs)):
            v = list(vecs[i])
            _project_out(v, vecs[:i])
            nv = _norm2(v)
            if nv > 1e-8:
                vecs[i] = _sign_fix([x / nv for x in v])
            else:
                for j in range(n):
                    cand = [0.0] * n
                    cand[j] = 1.0
                    _project_out(cand, vecs[:i])
                    nc = _norm2(cand)
                    if nc > 0.5:
                        vecs[i] = _sign_fix([x / nc for x in cand])
                        break
    cols = Matrix.from_rows([[vecs[j][i] for j in range(len(vecs))] for i in range(n)])
    return EigResult(vals, cols)


# SVD and PCA


def _complete_orthonormal(cols: list[list[float]], dim: int, need: int) -> list[list[float]]:
    out = [list(c) for c in cols]
    j = 0
    while len(out) < need and j < dim:
        cand = [0.0] * dim
        cand[j] = 1.0
        _project_out(cand, out)
        nc = _norm2(cand)
        if nc > 1e-6:
            out.append([x / nc for x in cand])
        j += 1
    if len(out) < need:
        raise NoConvergence("failed to complete an orthonormal basis")
    return out


def svd(a: Matrix) -> SvdResult:
    """Thin SVD A = U diag(sigma) V^T with sigma descending and >= 0."""
    m, n = a.rows, a.cols
    arows = a.to_rows()
    k = min(m, n)
    use_ata = n <= m
    dim = n if use_ata else m
    acols = [list(c) for c in zip(*arows)]
    side, other = (acols, arows) if use_ata else (arows, acols)
    # Gram matrix of the smaller side, symmetrized against rounding
    g = [[0.0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1):
            s = _dot(side[i], side[j])
            g[i][j] = s
            g[j][i] = s
    eres = eig(Matrix.from_rows(g))
    sigma = [math.sqrt(lam) if lam > 0.0 else 0.0 for lam in eres.values[:k]]
    smax = sigma[0] if sigma else 0.0
    sigma = [s if s > 1e-12 * smax else 0.0 for s in sigma]
    small = [[eres.vectors.get(i, j) for i in range(dim)] for j in range(k)]
    derived: list[list[float] | None] = []
    other_dim = m if use_ata else n
    for i, s in enumerate(sigma):
        if s > 0.0:
            derived.append([x / s for x in _matvec(other, small[i])])
        else:
            derived.append(None)
    known = [d for d in derived if d is not None]
    filled = _complete_orthonormal(known, other_dim, k)
    fill_iter = iter(filled[len(known):])
    derived_full = [d if d is not None else next(fill_iter) for d in derived]
    if use_ata:
        u_cols, v_cols = derived_full, small
    else:
        u_cols, v_cols = small, derived_full
    u = Matrix.from_rows([[u_cols[j][i] for j in range(k)] for i in range(m)])
    v = Matrix.from_rows([[v_cols[j][i] for j in range(k)] for i in range(n)])
    return SvdResult(u, sigma, v)


def pca(x: Matrix, k: int) -> Matrix:
    """Project mean-centered rows onto the top-k covariance eigenvectors."""
    n, d = x.rows, x.cols
    if not 1 <= k <= min(n - 1, d):
        raise BadRank(f"component count {k} outside [1, {min(n - 1, d)}]")
    rows = x.to_rows()
    means = [math.fsum(rows[i][j] for i in range(n)) / n for j in range(d)]
    xc = [[rows[i][j] - means[j] for j in range(d)] for i in range(n)]
    xcols = [list(c) for c in zip(*xc)]
    cov = [[0.0] * d for _ in range(d)]
    for p in range(d):
        for q in range(p + 1):
            s = _dot(xcols[p], xcols[q]) / (n - 1)
            cov[p][q] = s
            cov[q][p] = s
    vecs = eig(Matrix.from_rows(cov)).vectors
    top = [vecs.col(j) for j in range(k)]
    return Matrix.from_rows([_matvec(top, row) for row in xc])


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

"""Linear systems, factorizations, eigenproblems, SVD, PCA, least squares.

Direct solvers (Gaussian elimination with partial pivoting, run as an LU
factorization, QR, Cholesky, explicit inverse), stationary and Krylov
iterations (Jacobi, Gauss-Seidel, conjugate gradient), eigenproblems, SVD,
PCA, and polynomial least squares on a Vandermonde system.

The dense kernels are dot products over lists (the "ijk forms" of Dongarra,
Gustavson & Karp, SIAM Review 26, 1984). LU runs in left-looking Crout
order, each entry a row of L times a column of U. One Householder kernel
reflects column lists for QR, least squares, the SVD and the Hessenberg
reduction; QR and least squares reduce A's columns and then I to Q^T or b
to Q^T b. One one-sided
Jacobi kernel serves symmetric eig (on S + |S|_inf I for the symmetric
part S, which is positive semidefinite), svd (on the R of a QR) and pca
(the SVD of the centered data). Non-symmetric input, where mirrored
entries differ by more than 1e-9 of the largest entry, goes to the real
Schur form T = Z^T A Z by shifted QR on the Hessenberg form; each
eigenvector is Z y, with y from a back-substitution on T. Eigenproblems,
the SVD and PCA run on the input scaled by a power of two, so their
results do not depend on its scale. All triangular solves end in one
back-substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, mul, sub
from typing import Sequence, Union

from .errors import (
    BadRank,
    NoConvergence,
    NonFinite,
    NotSpd,
    RankDeficient,
    ShapeMismatch,
    Singular,
    ZeroDiagonal,
)
from .ndcore import (
    Matrix,
    Vector,
    _checked_float,
    _checked_floats,
    _count,
    _dot,
    _finite,
    _fsum,
    _matvec,
    _norm2,
    _norm_inf,
    _positive,
    _trusted,
    _vec,
)

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


def _maxabs(rows: list[list[float]]) -> float:
    return max(map(abs, chain.from_iterable(rows)), default=0.0)


def _scaled(rows: list[list[float]]) -> tuple[list[list[float]], float]:
    """rows times the power of two 2^-e that puts the largest magnitude in
    [1, 2), and 2^e: exact, and no square, sum or shift of it overflows."""
    big = _maxabs(rows)
    if not math.isfinite(big):
        raise NonFinite(f"entry of magnitude {big} cannot be scaled")
    e = math.frexp(big)[1] - 1
    return [list(map(math.ldexp, row, repeat(-e))) for row in rows], math.ldexp(1.0, e)


def _symmetric(rows: list[list[float]]) -> bool:
    # relative to the largest entry, so the verdict does not depend on scale
    n, tol = len(rows), 1e-9 * _maxabs(rows)
    return all(abs(rows[i][j] - rows[j][i]) <= tol for i in range(n) for j in range(i))


def _residual_inf(arows: list[list[float]], x: list[float], b: list[float]) -> float:
    return _norm_inf([ax - bi for ax, bi in zip(_matvec(arows, x), b)])


# factorizations


def _lu_rows(rows: list[list[float]]):
    """Partially pivoted LU in left-looking Crout order: step k forms the
    pivot candidates of column k and then row k of U, each entry
    a_ij - sum(map(mul, L_i, Ucol_j)) over the first k entries. Returns
    (L rows, U rows, perm, sign) with P*A = L*U and a unit diagonal in L."""
    n = len(rows)
    thresh = _PIVOT_REL * _maxabs(rows)
    a = list(rows)
    lrows: list[list[float]] = [[] for _ in range(n)]
    ucols: list[list[float]] = [[] for _ in range(n)]
    urows = []
    perm = list(range(n))
    sign = 1
    for k in range(n):
        c = [ai[k] - sum(map(mul, li, ucols[k])) for ai, li in zip(a[k:], lrows[k:])]
        mags = list(map(abs, c))
        p = mags.index(max(mags))
        if mags[p] <= thresh:
            raise Singular("pivot below threshold: matrix is singular to working precision")
        if p:
            q = k + p
            a[k], a[q] = a[q], a[k]
            lrows[k], lrows[q] = lrows[q], lrows[k]
            perm[k], perm[q] = perm[q], perm[k]
            c[0], c[p] = c[p], c[0]
            sign = -sign
        lk, ak = lrows[k], a[k]
        urow = c[:1] + [ak[j] - sum(map(mul, lk, ucols[j])) for j in range(k + 1, n)]
        for uc, x in zip(ucols[k:], urow):
            uc.append(x)
        for li, x in zip(lrows[k + 1 :], c[1:]):
            li.append(x / c[0])
        urows.append([0.0] * k + urow)
    # a non-finite L entry reaches U once its row becomes the pivot row
    _finite(chain.from_iterable(urows), "U factor")
    lrows = [li + [1.0] + [0.0] * (n - 1 - i) for i, li in enumerate(lrows)]
    return lrows, urows, perm, sign


def lu(a: Matrix) -> LuFactors:
    """Partially pivoted P*A = L*U in left-looking Crout order, unit-diagonal L."""
    _require_square(a, "lu")
    # _lu_rows has checked U, which every non-finite L entry reaches
    lrows, urows, perm, sign = _lu_rows(a.to_rows())
    return LuFactors(_trusted(lrows), _trusted(urows), perm, sign)


def _forward_substitute(lo: list[list[float]], b: list[float]) -> list[float]:
    # lower-triangular L y = b; a unit diagonal divides exactly
    y: list[float] = []
    for row, bi in zip(lo, b):
        y.append((bi - _dot(row, y, "triangular solve")) / row[len(y)])
    return y


def _back_substitute(u: list[list[float]], y: list[float]) -> list[float]:
    # upper-triangular U x = y, from the last row up
    x = [0.0] * len(y)
    for i in reversed(range(len(y))):
        x[i] = (y[i] - _dot(u[i][i + 1 :], x[i + 1 :], "triangular solve")) / u[i][i]
    return x


def _solve_lu_factors(lrows, urows, perm: list[int], b: list[float]) -> list[float]:
    return _back_substitute(urows, _forward_substitute(lrows, [b[p] for p in perm]))


def _lu_solve(rows: list[list[float]], b: list[float]) -> list[float]:
    # A x = b for the rows of a square A, by its L, U and perm
    return _solve_lu_factors(*_lu_rows(rows)[:3], b)


# Householder reflector kernel, on column lists


def _reflector(x: list[float]):
    """(v, alpha, v^T v) for H = I - 2 v v^T / v^T v with H x = (alpha, 0, ...),
    or None for x = 0. v is x scaled by a power of two, so |x|^2, v^T v and v.c
    cannot overflow or underflow; elsewhere every rounding is the unscaled one."""
    (v,), f = _scaled([x])
    nx = _norm2(v, "Householder vector")
    if nx == 0.0:
        return None
    alpha = -nx if v[0] >= 0 else nx
    v[0] -= alpha
    return v, alpha * f, _dot(v, v, "Householder vector")


def _reflect(cols: list[list[float]], top: int, v: list[float], vtv: float) -> None:
    # H on entries top.. of each list; the sum overflows, or meets entries
    # that overflowed earlier, where H c is not representable
    for c in cols:
        seg = c[top:]
        s = 2.0 * _dot(v, seg, "Householder reflection") / vtv
        if s != 0.0:
            c[top:] = map(sub, seg, map(mul, repeat(s), v))


def _triangularize(cols: list[list[float]], n: int) -> list[tuple]:
    """Reduce the first n column lists to upper-triangular form, reflecting
    the later ones with them; returns the reflectors applied, as (k, v, v^T v)."""
    m = len(cols[0])
    applied = []
    for k in range(min(m - 1, n)):
        ref = _reflector(cols[k][k:])
        if ref is None:
            continue
        v, alpha, vtv = ref
        _reflect(cols[k + 1 :], k, v, vtv)
        cols[k][k:] = [alpha] + [0.0] * (m - k - 1)
        applied.append((k, v, vtv))
    return applied


def _rows(cols: list[list[float]], n: int) -> list[list[float]]:
    """The first n rows of the matrix with columns cols."""
    return [list(r) for r in zip(*cols)][:n]


def _householder_ls(cols: list[list[float]], rhs: list[float], err):
    """Least squares by reducing [A | rhs], A given by its columns
    (overwritten), to [R | Q^T rhs]; raises err when a diagonal entry of R
    is at most _PIVOT_REL * max |A| in magnitude."""
    n, thresh = len(cols), _PIVOT_REL * _maxabs(cols)
    cols.append(list(rhs))
    _triangularize(cols, n)
    if any(abs(cols[i][i]) <= thresh for i in range(n)):
        raise err
    return _back_substitute(_rows(cols[:n], n), cols[n][:n])


def qr(a: Matrix) -> QrFactors:
    """Householder QR of a square matrix; R diagonal signs are not normalized."""
    _require_square(a, "qr")
    m = a.rows
    # the reflectors that take A to R take I to Q^T, whose columns are Q's rows
    cols = [a.col(j) for j in range(m)] + Matrix.identity(m).to_rows()
    _triangularize(cols, m)
    return QrFactors(Matrix.from_rows(cols[m:]), Matrix.from_rows(_rows(cols[:m], m)))


def cholesky(a: Matrix) -> Matrix:
    """Lower-triangular L with A = L*L^T; input must be SPD."""
    _require_square(a, "cholesky")
    n = a.rows
    rows = a.to_rows()
    if not _symmetric(rows):
        raise NotSpd("matrix is not symmetric")
    lo: list[list[float]] = []
    for i, arow in enumerate(rows):
        # the first i entries of row i of L; for SPD A each is at most
        # sqrt(a_ii) in magnitude, so one that overflows marks A as not SPD
        try:
            li = _forward_substitute(lo, arow)
            s = arow[i] - _dot(li, li, "Cholesky pivot")
        except NonFinite:
            s = -math.inf
        if s <= 0.0:
            raise NotSpd("matrix is not positive definite")
        li.append(math.sqrt(s))
        lo.append(li)
    return Matrix.from_rows([li + [0.0] * (n - 1 - i) for i, li in enumerate(lo)])


def det(a: Matrix) -> float:
    """Determinant as sign * product of U's diagonal; singular input gives 0."""
    _require_square(a, "det")
    try:
        _, urows, _, sign = _lu_rows(a.to_rows())
    except Singular:
        return 0.0
    return _checked_float(
        math.prod((row[i] for i, row in enumerate(urows)), start=float(sign)), "determinant"
    )


def inv(a: Matrix) -> Matrix:
    _require_square(a, "inv")
    lrows, urows, perm, _ = _lu_rows(a.to_rows())
    eye = Matrix.identity(a.rows).to_rows()
    cols = [_solve_lu_factors(lrows, urows, perm, e) for e in eye]
    return Matrix.from_rows(_rows(cols, a.rows))


# direct solves


def solve_direct(a: Matrix, b: VecLike, method: str = "gauss") -> Vector:
    """Solve A x = b by gauss, lu, qr, cholesky, or inverse."""
    _require_square(a, "solve_direct")
    bv = _vec(b, "b")
    if len(bv) != a.rows:
        raise ShapeMismatch(f"rhs length {len(bv)} does not match {a.rows} rows")
    n = a.rows
    if method in ("gauss", "lu"):
        # Gaussian elimination with partial pivoting is the LU factorization
        return Vector(_lu_solve(a.to_rows(), bv))
    if method == "qr":
        cols = [a.col(j) for j in range(n)]
        singular = Singular("R has a negligible diagonal entry")
        return Vector(_householder_ls(cols, bv, singular))
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
    _positive(cfg.tol, "tol")
    _count(cfg.max_iter, "max_iter", 1)
    bv = _vec(b, "b")
    xv = _vec(x0, "x0")
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
            # Jacobi reads the previous iterate, Gauss-Seidel the one it updates
            old = list(x)
            src = old if method == "jacobi" else x
            what = f"{method} sweep {k}"
            for i, (row, bi) in enumerate(zip(arows, bv)):
                # the terms j != i, from the slices on either side of i; an
                # entry that overflows fails this sum or the residual below
                off = chain(map(mul, row[:i], src), map(mul, row[i + 1 :], src[i + 1 :]))
                x[i] = (bi - _fsum(off, what)) / row[i]
            step = max(map(abs, map(sub, x, old)))
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
        # r and p carry the factor 2^-e that puts |r0|_inf in [1/2, 1), so
        # r^T r and p^T A p do not overflow or underflow with the scale of b;
        # a power of two scales exactly, so the steps keep their rounding.
        # tol <= |r0|_inf, so tol 2^-e < 1
        e = math.frexp(res)[1]
        r = [math.ldexp(v, -e) for v in r]
        p = list(r)
        tol_r = math.ldexp(cfg.tol, -e)
        rs = _dot(r, r, "CG residual norm")
        for k in range(1, cfg.max_iter + 1):
            ap = _matvec(arows, p)
            curv = _dot(p, ap, "CG curvature")
            if curv <= 0.0:
                raise NotSpd("nonpositive curvature direction: matrix is not SPD")
            alpha = rs / curv
            r = [ri - alpha * api for ri, api in zip(r, ap)]
            try:
                dx = [math.ldexp(alpha * v, e) for v in p]
            except OverflowError:
                raise NonFinite(f"CG step overflows at iteration {k}") from None
            x = list(map(add, x, dx))
            if max(map(abs, dx)) < cfg.tol or _norm_inf(r) < tol_r:
                return Vector(x), IterReport(k, _residual_inf(arows, x, bv), True)
            rs_new = _dot(r, r, "CG residual norm")
            beta = rs_new / rs
            p = [r[i] + beta * p[i] for i in range(n)]
            rs = rs_new
        return Vector(x), IterReport(cfg.max_iter, _residual_inf(arows, x, bv), False)

    raise ValueError(f"unknown iterative method {method!r}")


# eigenvalues and eigenvectors


def _hessenberg(rows: list[list[float]], n: int):
    """Rows of H = Z^T A Z, upper Hessenberg, and of the orthogonal Z."""
    h = [row[:] for row in rows]
    z = Matrix.identity(n).to_rows()
    for k in range(n - 2):
        ref = _reflector([row[k] for row in h[k + 1 :]])
        if ref is None:
            continue
        v, _, vtv = ref
        # H A H: the kernel on the columns, then on the rows; Z H on Z's rows
        cols = [list(c) for c in zip(*h)]
        _reflect(cols, k + 1, v, vtv)
        h = _rows(cols, n)
        _reflect(h, k + 1, v, vtv)
        _reflect(z, k + 1, v, vtv)
    return h, z


def _rotate(x: list[float], y: list[float], c: float, s: float):
    """The plane rotation (x, y) -> (c x + s y, c y - s x) of two lists."""
    return [c * a + s * b for a, b in zip(x, y)], [c * b - s * a for a, b in zip(x, y)]


def _rotate_rows(t: list[list[float]], k: int, c: float, s: float) -> None:
    # rows k and k+1 of T, from column k on, by the transposed rotation
    t[k][k:], t[k + 1][k:] = _rotate(t[k][k:], t[k + 1][k:], c, s)


def _rotate_cols(t, zcols, k: int, c: float, s: float, top: int) -> None:
    # columns k and k+1 of T's rows 0..top, and of Z, by the rotation
    for row in t[: top + 1]:
        a, b = row[k], row[k + 1]
        row[k], row[k + 1] = c * a + s * b, c * b - s * a
    zcols[k], zcols[k + 1] = _rotate(zcols[k], zcols[k + 1], c, s)


def _qr_sweep(t, zcols, m: int, mu: float) -> None:
    """One explicitly shifted QR sweep on the leading (m+1) block of T; each
    rotation also reaches the rest of T's rows and Z, so T = Z^T A Z holds."""
    for i in range(m + 1):
        t[i][i] -= mu
    rots = []
    for k in range(m):
        r = math.hypot(t[k][k], t[k + 1][k])
        c, s = (t[k][k] / r, t[k + 1][k] / r) if r else (1.0, 0.0)
        rots.append((c, s))
        if s != 0.0:
            _rotate_rows(t, k, c, s)
    for k, (c, s) in enumerate(rots):
        if s != 0.0:
            _rotate_cols(t, zcols, k, c, s, min(k + 2, m))
    for i in range(m + 1):
        t[i][i] += mu


def _block(t: list[list[float]], m: int):
    """(half, mid, s) for the 2x2 block of rows m-1 and m, whose eigenvalues
    are mid +- s; s is None for a complex pair."""
    a_, d_ = t[m - 1][m - 1], t[m][m]
    half = 0.5 * (a_ - d_)
    disc = half * half + t[m - 1][m] * t[m][m - 1]
    return half, 0.5 * (a_ + d_), math.sqrt(disc) if disc >= 0.0 else None


def _split_2x2(t, zcols, m: int) -> None:
    """Triangularize the isolated block of rows m-1 and m with one rotation,
    whose first column is the eigenvector of the closed-form mid + s; the
    diagonal becomes mid + s and mid - s."""
    p = m - 1
    half, mid, s = _block(t, m)
    if s is None:
        raise NoConvergence("complex eigenvalue pair encountered")
    # of the two null vectors of the block minus (mid + s), the one whose
    # first entry does not cancel
    x, y = (s + half, t[m][p]) if half >= 0.0 else (t[p][m], s - half)
    r = math.hypot(x, y)
    if r:
        _rotate_rows(t, p, x / r, y / r)
        _rotate_cols(t, zcols, p, x / r, y / r, m)
    t[p][p], t[m][m] = mid + s, mid - s


def _negligible(x: float, a: float, d: float) -> bool:
    return abs(x) <= 1e-12 * (abs(a) + abs(d))


def _real_schur(rows: list[list[float]], n: int):
    """Real Schur form T = Z^T A Z of scaled rows, by shifted QR on the
    Hessenberg form; returns T's rows and Z's columns. T's upper triangle,
    with the eigenvalues on its diagonal, is the Schur form; the entries
    below it are deflated or rounding residue and are never read. A complex
    pair raises NoConvergence."""
    t, z = _hessenberg(rows, n)
    zcols = [list(c) for c in zip(*z)]
    m = n - 1
    sweeps = 0
    since_deflation = 0
    budget = 300 * n + 60
    while m > 0:
        if _negligible(t[m][m - 1], t[m - 1][m - 1], t[m][m]):
            m -= 1
            since_deflation = 0
            continue
        if m == 1 or _negligible(t[m - 1][m - 2], t[m - 2][m - 2], t[m - 1][m - 1]):
            _split_2x2(t, zcols, m)
            m -= 2
            since_deflation = 0
            continue
        if sweeps >= budget:
            raise NoConvergence("eigenvalue iteration exhausted its sweep budget")
        _, mid, s = _block(t, m)
        d_ = t[m][m]
        if s is None:
            mu = d_
        else:
            r1, r2 = mid + s, mid - s
            mu = r1 if abs(r1 - d_) <= abs(r2 - d_) else r2
        if since_deflation > 0 and since_deflation % 12 == 0:
            # occasional ad-hoc shift to break shift cycling
            mu = d_ + abs(t[m][m - 1])
        _qr_sweep(t, zcols, m, mu)
        sweeps += 1
        since_deflation += 1
    return t, zcols


def _sign_fix(v: list[float]) -> list[float]:
    # the entry of largest magnitude (the first, on ties) becomes positive
    return [-x for x in v] if max(v, key=abs) < 0.0 else v


def _schur_vectors(t: list[list[float]], zcols: list[list[float]]) -> list[list[float]]:
    """Unit eigenvectors Z y for upper-triangular T: y solves the leading
    block of (T - t_kk I) y = 0 with y_k = 1, every pivot kept at least
    eps |T| in magnitude (LAPACK trevc)."""
    smin = math.ulp(1.0) * _maxabs(t)
    zrows = _rows(zcols, len(t))
    vecs = []
    for k, tk in enumerate(t):
        lam = tk[k]
        u = [row[:k] for row in t[:k]]
        for i, ui in enumerate(u):
            d = ui[i] - lam
            ui[i] = d if abs(d) >= smin else math.copysign(smin, d)
        y = _back_substitute(u, [-row[k] for row in t[:k]]) + [1.0]
        (v,), _ = _scaled([_matvec(zrows, y)])
        nv = _norm2(v, "eigenvector")
        vecs.append(_sign_fix([x / nv for x in v]))
    return vecs


# one-sided Jacobi kernel shared by symmetric eig, svd and pca

# rounding leaves a freshly rotated pair with |x^T y| up to about
# 2 eps |x| |y|, so a pair counts as orthogonal below twice that
_JACOBI_TOL = 4.0 * math.ulp(1.0)
_JACOBI_SWEEPS = 60


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
                # (x, y) -> (c x - s y, s x + c y) is the rotation by -s, to
                # the bit: negation is exact and addition commutes
                cols[p], cols[q] = _rotate(x, y, c, -s)
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
    srows, f = _scaled(rows)
    if _symmetric(rows):
        # B = S + tau I, for the symmetric part S and tau = |S|_inf, is
        # positive semidefinite, so its right singular vectors are
        # eigenvectors of S, with Rayleigh quotients for eigenvalues
        srows = [[0.5 * (x + y) for x, y in zip(*rc)] for rc in zip(srows, zip(*srows))]
        tau = max(_fsum(map(abs, row), "row sum") for row in srows)
        b = [row[:] for row in srows]
        for j in range(n):
            b[j][j] += tau
        _, vecs = _jacobi(b)
        lam = [_dot(v, _matvec(srows, v)) for v in vecs]
    else:
        t, zcols = _real_schur(srows, n)
        lam = [row[i] for i, row in enumerate(t)]
        vecs = _schur_vectors(t, zcols)
    order = sorted(range(n), key=lam.__getitem__, reverse=True)
    vals = _checked_floats([lam[j] * f for j in order], "eigenvalues")
    return EigResult(vals, Matrix.from_rows(_rows([vecs[j] for j in order], n)))


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
    cols = [list(c) for c in zip(*rows)]
    reflectors = _triangularize(cols, n)
    wcols, vcols = _jacobi([c[:n] for c in cols])
    norms = [_norm2(c, "singular value") for c in wcols]
    order = sorted(range(n), key=norms.__getitem__, reverse=True)
    smax = norms[order[0]]
    sigma = [norms[j] if norms[j] > 1e-12 * smax else 0.0 for j in order]
    ucols = [[x / s for x in wcols[j]] for j, s in zip(order, sigma[:k]) if s > 0.0]
    rank = len(ucols)
    if rank < k:
        # triangularizing [U | I] turns I into Q^T, whose rows rank.. complete U
        aug = [c[:] for c in ucols] + Matrix.identity(n).to_rows()
        _triangularize(aug, rank)
        ucols += _rows(aug[rank:], k)[rank:]
    ucols = [c + [0.0] * (m - n) for c in ucols]
    for j, v, vtv in reversed(reflectors):
        _reflect(ucols, j, v, vtv)
    return _rows(ucols, m), sigma, _rows([vcols[j] for j in order], n)


def svd(a: Matrix) -> SvdResult:
    """Thin SVD A = U diag(sigma) V^T with sigma descending and >= 0."""
    rows, f = _scaled(a.to_rows())
    urows, sigma, vrows = _svd(rows, min(a.rows, a.cols))
    sigma = _checked_floats([s * f for s in sigma], "singular values")
    return SvdResult(Matrix.from_rows(urows), sigma, Matrix.from_rows(vrows))


def pca(x: Matrix, k: int) -> Matrix:
    """Project mean-centered rows onto the top-k principal axes: the first k
    columns of U Sigma in the SVD of the centered data."""
    _count(k, "component count", 1, min(x.rows - 1, x.cols), BadRank)
    rows, f = _scaled(x.to_rows())
    means = [_fsum(c, "column sum") / x.rows for c in zip(*rows)]
    xc = [list(map(sub, row, means)) for row in rows]
    urows, sigma, _ = _svd(xc, k)
    scores = [[u * s * f for u, s in zip(row, sigma[:k])] for row in urows]
    return Matrix.from_rows(scores)


# least squares


def polyfit(xs: VecLike, ys: VecLike, degree: int) -> Vector:
    """Least-squares polynomial coefficients, highest degree first."""
    _count(degree, "degree")
    xv = _vec(xs, "xs")
    yv = _vec(ys, "ys")
    p = degree + 1
    if len(xv) != len(yv):
        raise ShapeMismatch("xs and ys lengths differ")
    if len(xv) < p:
        raise ShapeMismatch(f"need at least {p} samples for degree {degree}")
    try:
        vand = [[x ** (degree - j) for x in xv] for j in range(p)]
    except OverflowError:
        raise NonFinite(f"Vandermonde entry x^{degree} overflows") from None
    # each column times its own power of two, so the rank test is relative
    # to every column and the coefficients unscale exactly
    scaled = [_scaled([c]) for c in vand]
    cols = [c for (c,), _ in scaled]
    deficient = RankDeficient("Vandermonde system is rank deficient")
    coef = _householder_ls(cols, yv, deficient)
    return Vector([x / f for x, (_, f) in zip(coef, scaled)])

"""Solvers, factorizations, eigen/SVD/PCA, polyfit: goldens and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desknum import lindecomp as ld
from desknum.errors import (
    BadRank,
    NoConvergence,
    NonFinite,
    NotSpd,
    RankDeficient,
    ShapeMismatch,
    Singular,
    ZeroDiagonal,
)
from desknum.ndcore import Matrix, Vector, matmul, transpose

A22 = Matrix.from_rows([[1, 2], [3, 4]])
SINGULAR3 = Matrix.from_rows([[1, 2, 3], [2, 3, 4], [3, 4, 5]])


def mat_close(m: Matrix, want, tol):
    w = np.asarray(want, dtype=float)
    got = np.array(m.to_rows())
    assert got.shape == w.shape
    assert np.max(np.abs(got - w)) <= tol, (got, w)


def rand_spd(rng, n, shift=None):
    b = rng.standard_normal((n, n))
    a = b @ b.T + (shift if shift is not None else n) * np.eye(n)
    return Matrix.from_rows(a.tolist())


# direct solves


def test_solve_direct_golden_all_applicable_methods():
    b = [5, 6]
    for method in ("gauss", "lu", "qr", "inverse"):
        x = ld.solve_direct(A22, b, method)
        assert abs(x[0] - (-4.0)) <= 1e-8 and abs(x[1] - 4.5) <= 1e-8


def test_solve_direct_cholesky_route():
    a = Matrix.from_rows([[4, 1], [1, 3]])
    x = ld.solve_direct(a, [1, 2], "cholesky")
    assert abs(x[0] - 1 / 11) <= 1e-10 and abs(x[1] - 7 / 11) <= 1e-10


def test_solve_identity_returns_rhs():
    b = [3.5, -1.25, 0.75]
    for method in ("gauss", "lu", "qr", "cholesky", "inverse"):
        x = ld.solve_direct(Matrix.identity(3), b, method)
        assert max(abs(u - v) for u, v in zip(x, b)) <= 1e-12


def test_singular_system_raises():
    b = [9, 12, 15]
    for method in ("gauss", "lu", "qr", "inverse"):
        with pytest.raises(Singular):
            ld.solve_direct(SINGULAR3, b, method)
    # the same matrix is symmetric indefinite, so this route reports NotSpd
    with pytest.raises(NotSpd):
        ld.solve_direct(SINGULAR3, b, "cholesky")


def test_all_methods_agree_on_random_spd():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rand_spd(rng, 5)
        b = rng.standard_normal(5).tolist()
        sols = [
            ld.solve_direct(a, b, m).data
            for m in ("gauss", "lu", "qr", "cholesky", "inverse")
        ]
        for s in sols[1:]:
            assert max(abs(u - v) for u, v in zip(s, sols[0])) <= 1e-7
        bn = max(abs(v) for v in b)
        arr = np.array(a.to_rows())
        res = np.max(np.abs(arr @ np.array(sols[0]) - np.array(b)))
        assert res <= 1e-8 * (1 + bn)


def test_solve_shape_errors():
    with pytest.raises(ShapeMismatch):
        ld.solve_direct(Matrix(2, 3, range(6)), [1, 2])
    with pytest.raises(ShapeMismatch):
        ld.solve_direct(A22, [1, 2, 3])


# factorizations


def test_lu_identity_and_reconstruction():
    f = ld.lu(Matrix.identity(3))
    assert f.l.to_rows() == Matrix.identity(3).to_rows()
    assert f.u.to_rows() == Matrix.identity(3).to_rows()
    assert f.perm == [0, 1, 2] and f.sign == 1

    rng = np.random.default_rng(2)
    for _ in range(20):
        arr = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        a = Matrix.from_rows(arr.tolist())
        f = ld.lu(a)
        pa = np.array(a.to_rows())[f.perm]
        rec = np.array(f.l.to_rows()) @ np.array(f.u.to_rows())
        assert np.max(np.abs(pa - rec)) <= 1e-9
        assert all(f.l.get(i, i) == 1.0 for i in range(5))


def test_qr_golden_diag_magnitudes():
    a = Matrix.from_rows([[12, -51, 4], [6, 167, -68], [-4, 24, -41]])
    f = ld.qr(a)
    diag = sorted(abs(f.r.get(i, i)) for i in range(3))
    assert np.allclose(diag, [14, 35, 175], atol=1e-9)


def test_qr_invariants_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        arr = rng.standard_normal((4, 4))
        f = ld.qr(Matrix.from_rows(arr.tolist()))
        q = np.array(f.q.to_rows())
        r = np.array(f.r.to_rows())
        assert np.max(np.abs(q.T @ q - np.eye(4))) <= 1e-9
        assert np.max(np.abs(q @ r - arr)) <= 1e-9
        assert np.max(np.abs(np.tril(r, -1))) <= 1e-12


def check_qr(arr, f):
    q = np.array(f.q.to_rows())
    r = np.array(f.r.to_rows())
    n = len(arr)
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-12
    assert np.max(np.abs(q @ r - np.asarray(arr, dtype=float))) <= 1e-12 * max(1.0, np.max(np.abs(arr)))
    assert np.all(np.tril(r, -1) == 0.0)


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],  # zero first column: reflector skipped
        [[0, 0, 1], [3, 6, 1], [4, 8, 2]],  # step 0 zeroes column 1 below row 1 exactly
        [[2, 1, 1], [0, 3, 1], [0, 0, 4]],  # already upper triangular
        [[1e-200, 1], [0, 1]],  # v^T v underflows: second guard skips
    ],
)
def test_qr_skipped_and_reduced_columns(rows):
    check_qr(rows, ld.qr(Matrix.from_rows(rows)))


def test_one_by_one_householder_paths():
    for val in (3.0, -2.0):
        f = ld.qr(Matrix.from_rows([[val]]))
        assert f.q.to_rows() == [[1.0]] and f.r.to_rows() == [[val]]
    assert ld.solve_direct(Matrix.from_rows([[4.0]]), [2.0], "qr").data == [0.5]
    assert ld.polyfit([2.0], [5.0], 0).data == [5.0]
    with pytest.raises(Singular):
        ld.solve_direct(Matrix.from_rows([[0.0]]), [1.0], "qr")


def test_solve_qr_and_polyfit_on_a_zero_column():
    with pytest.raises(Singular, match="R has a negligible diagonal entry"):
        ld.solve_direct(Matrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 6]]), [1, 2, 3], "qr")
    with pytest.raises(RankDeficient, match="Vandermonde system is rank deficient"):
        ld.polyfit([0, 0, 0], [1, 2, 3], 1)
    # the second reflector sees a zero column once the first is applied
    with pytest.raises(Singular):
        ld.solve_direct(Matrix.from_rows([[0, 0, 1], [3, 6, 1], [4, 8, 2]]), [1, 2, 3], "qr")


# Exact outputs on one fixed integer input, recorded before the Householder
# and back-substitution loops were merged into shared kernels. A change in the
# order of any floating-point operation in these paths fails here.
PIN_A = [[4, 1, 0, 2], [1, 5, 1, 0], [0, 1, 3, 1], [2, 0, 1, 6]]
PIN_B = [1, 2, 3, 4]
PIN_Q = [
    [-0.8728715609439697, 0.14847846772912465, 0.12402130627499375, -0.44795992935294293],
    [-0.21821789023599242, -0.9502621934663978, 0.1597562589305004, 0.1544689411561872],
    [0.0, -0.20786985482077452, -0.9228026009274959, -0.3243847764279932],
    [-0.43643578047198484, 0.17817416127494964, -0.32792074201523774, 0.8186853881277921],
]
PIN_R = [
    [-4.58257569495584, -1.9639610121239315, -0.6546536707079772, -4.364357804719848],
    [0.0, -4.810702354423639, -1.3956975966537717, 1.1581320482871726],
    [0.0, 0.0, -2.9365722858672245, -2.6422844404689343],
    [0.0, 0.0, 0.0, 3.6918076936328728],
]
PIN_SOLVE = {
    "gauss": [-0.11297071129707115, 0.2803347280334728, 0.7112970711297072, 0.5857740585774058],
    "lu": [-0.11297071129707115, 0.2803347280334728, 0.7112970711297072, 0.5857740585774058],
    "qr": [-0.11297071129707122, 0.280334728033473, 0.7112970711297066, 0.585774058577406],
    "cholesky": [-0.1129707112970712, 0.28033472803347276, 0.7112970711297071, 0.585774058577406],
    "inverse": [-0.11297071129707112, 0.28033472803347276, 0.7112970711297071, 0.5857740585774058],
}
PIN_POLY = [1.821428571428571, -0.5642857142857141, -1.4857142857142858]
PIN_INV = [
    [0.3305439330543933, -0.07949790794979078, 0.06694560669456065, -0.1213389121338912],
    [-0.0794979079497908, 0.23430962343096232, -0.09205020920502091, 0.04184100418410041],
    [0.06694560669456065, -0.0920502092050209, 0.3933054393305439, -0.08786610878661086],
    [-0.1213389121338912, 0.0418410041841004, -0.08786610878661084, 0.22175732217573219],
]


def test_exact_value_pin():
    a = Matrix.from_rows(PIN_A)
    f = ld.qr(a)
    assert f.q.to_rows() == PIN_Q
    assert f.r.to_rows() == PIN_R
    for method, want in PIN_SOLVE.items():
        assert ld.solve_direct(a, PIN_B, method).data == want, method
    assert ld.polyfit([-2, -1, 0, 1, 2, 3], [7, 1, -2, 0, 5, 13], 2).data == PIN_POLY
    assert ld.inv(a).to_rows() == PIN_INV


def test_cholesky_golden():
    a = Matrix.from_rows([[4, 12, -16], [12, 37, -43], [-16, -43, 98]])
    lo = ld.cholesky(a)
    mat_close(lo, [[2, 0, 0], [6, 1, 0], [-8, 5, 3]], 1e-12)
    rec = matmul(lo, transpose(lo))
    mat_close(rec, a.to_rows(), 1e-9)


def test_cholesky_rejects_non_spd():
    with pytest.raises(NotSpd):
        ld.cholesky(Matrix.from_rows([[1, 2], [3, 4]]))
    with pytest.raises(NotSpd):
        ld.cholesky(Matrix.from_rows([[1, 2], [2, 1]]))
    # symmetry is judged relative to the largest entry: the lower triangle
    # alone would be positive definite
    with pytest.raises(NotSpd):
        ld.cholesky(Matrix.from_rows([[4e-10, 1e-10], [2e-10, 4e-10]]))


# determinant and inverse


def test_det_goldens():
    assert abs(ld.det(A22) - (-2.0)) <= 1e-12
    assert ld.det(Matrix.identity(4)) == 1.0
    assert ld.det(SINGULAR3) == 0.0


def test_det_multiplicative():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        ma, mb = Matrix.from_rows(a.tolist()), Matrix.from_rows(b.tolist())
        lhs = ld.det(matmul(ma, mb))
        rhs = ld.det(ma) * ld.det(mb)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_inv_golden():
    mat_close(ld.inv(A22), [[-2, 1], [1.5, -0.5]], 1e-12)
    with pytest.raises(Singular):
        ld.inv(SINGULAR3)


def test_inv_roundtrip_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        arr = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        a = Matrix.from_rows(arr.tolist())
        prod = matmul(a, ld.inv(a))
        mat_close(prod, np.eye(4), 1e-8)


# iterative solves


def test_iterative_golden_all_methods():
    a = Matrix.from_rows([[4, 1], [1, 3]])
    for method in ("jacobi", "gauss_seidel", "cg"):
        x, rep = ld.solve_iterative(a, [1, 2], [0, 0], method)
        assert rep.converged and rep.iterations <= 100
        assert abs(x[0] - 1 / 11) <= 1e-8 and abs(x[1] - 7 / 11) <= 1e-8
        assert math.isfinite(rep.residual)


def test_iterative_diagonal_one_sweep():
    a = Matrix.from_rows([[2, 0], [0, 5]])
    for method in ("jacobi", "gauss_seidel"):
        x, rep = ld.solve_iterative(a, [4, 10], [0, 0], method)
        assert rep.converged and rep.iterations == 1
        assert x.data == [2.0, 2.0]


def test_jacobi_divergence_reported_not_raised():
    x, rep = ld.solve_iterative(A22, [5, 6], [0, 0], "jacobi")
    assert not rep.converged
    assert rep.iterations == 100


def test_iterative_errors():
    with pytest.raises(ZeroDiagonal):
        ld.solve_iterative(Matrix.from_rows([[0, 1], [1, 1]]), [1, 1], [0, 0], "jacobi")
    with pytest.raises(NotSpd):
        ld.solve_iterative(Matrix.from_rows([[1, 2], [2, 1]]), [1, -1], [0, 0], "cg")


def test_cg_random_spd_eight_iterations():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rand_spd(rng, 8)
        b = rng.standard_normal(8).tolist()
        x, rep = ld.solve_iterative(
            a, b, [0.0] * 8, "cg", ld.IterConfig(tol=1e-9, max_iter=100)
        )
        assert rep.converged
        assert rep.iterations <= 8
        assert rep.residual < 1e-8


# eigenproblems


def eig_residual(a: Matrix, res: ld.EigResult) -> float:
    arr = np.array(a.to_rows())
    vecs = np.array(res.vectors.to_rows())
    worst = 0.0
    for j, lam in enumerate(res.values):
        v = vecs[:, j]
        worst = max(worst, np.max(np.abs(arr @ v - lam * v)) / (1 + abs(lam)))
    return worst


def test_eig_goldens_2x2():
    cases = [
        ([[1, 2], [3, 4]], [5.37228132, -0.37228132]),
        ([[1, 2], [2, 3]], [4.23606798, -0.23606798]),
        ([[4, -2], [1, 1]], [3.0, 2.0]),
    ]
    for rows, want in cases:
        res = ld.eig(Matrix.from_rows(rows))
        assert np.allclose(res.values, want, rtol=0, atol=1e-8)
        assert eig_residual(Matrix.from_rows(rows), res) <= 1e-9


def test_eig_identity():
    res = ld.eig(Matrix.identity(3))
    assert res.values == [1.0, 1.0, 1.0]
    vecs = np.array(res.vectors.to_rows())
    assert np.max(np.abs(vecs.T @ vecs - np.eye(3))) <= 1e-15


def test_eig_symmetric_trace_det_and_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10):
        b = rng.standard_normal((5, 5))
        arr = (b + b.T) / 2
        a = Matrix.from_rows(arr.tolist())
        res = ld.eig(a)
        assert sorted(res.values, reverse=True) == res.values
        assert abs(math.fsum(res.values) - np.trace(arr)) <= 1e-13
        d = ld.det(a)
        prod = math.prod(res.values)
        assert abs(prod - d) <= 1e-13 * max(1.0, abs(d))
        want = np.sort(np.linalg.eigvalsh(arr))[::-1]
        assert np.allclose(res.values, want, rtol=0, atol=1e-13)
        assert eig_residual(a, res) <= 1e-13


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_eig_nonsymmetric_real_spectrum_against_numpy(n):
    # P diag(d) P^-1 with distinct real d: the Hessenberg reduction does real work
    rng = np.random.default_rng(40 + n)
    p = np.eye(n) + 0.4 * rng.standard_normal((n, n))
    d = rng.permutation(np.arange(1, n + 1)) * 1.5 - 4.0 + 0.1 * rng.uniform(size=n)
    arr = p @ np.diag(d) @ np.linalg.inv(p)
    a = Matrix.from_rows(arr.tolist())
    res = ld.eig(a)
    want = np.sort(np.linalg.eigvals(arr).real)[::-1]
    assert np.allclose(res.values, want, rtol=0, atol=1e-8 * np.max(np.abs(arr)))
    vecs = np.array(res.vectors.to_rows())
    assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, atol=1e-12)
    assert eig_residual(a, res) <= 1e-8


def test_eig_complex_spectrum_raises():
    with pytest.raises(NoConvergence):
        ld.eig(Matrix.from_rows([[0, -1], [1, 0]]))


# SVD


def test_svd_identity_and_diag():
    res = ld.svd(Matrix.identity(3))
    assert res.sigma == [1.0, 1.0, 1.0]
    res = ld.svd(Matrix.from_rows([[3, 0], [0, 2]]))
    assert np.allclose(res.sigma, [3, 2], rtol=0, atol=1e-15)


def test_svd_wide_golden():
    a = Matrix.from_rows([[3, 1, 1], [-1, 3, 1]])
    res = ld.svd(a)
    assert np.allclose(res.sigma, [math.sqrt(12), math.sqrt(10)], rtol=0, atol=1e-14)
    u = np.array(res.u.to_rows())
    v = np.array(res.v.to_rows())
    rec = u @ np.diag(res.sigma) @ v.T
    assert np.max(np.abs(rec - np.array(a.to_rows()))) <= 1e-14
    assert np.max(np.abs(u.T @ u - np.eye(2))) <= 1e-15
    assert np.max(np.abs(v.T @ v - np.eye(2))) <= 1e-15


def test_svd_rank_deficient_completion():
    a = Matrix.from_rows([[1, 2], [2, 4]])
    res = ld.svd(a)
    assert abs(res.sigma[0] - 5.0) <= 1e-14
    assert res.sigma[1] == 0.0
    u = np.array(res.u.to_rows())
    v = np.array(res.v.to_rows())
    assert np.max(np.abs(u.T @ u - np.eye(2))) <= 1e-15
    assert np.max(np.abs(v.T @ v - np.eye(2))) <= 1e-15
    rec = u @ np.diag(res.sigma) @ v.T
    assert np.max(np.abs(rec - np.array(a.to_rows()))) <= 1e-14


def test_svd_random_against_oracle():
    rng = np.random.default_rng(12)
    for shape in [(4, 4), (6, 3), (3, 6), (5, 2)]:
        arr = rng.standard_normal(shape)
        res = ld.svd(Matrix.from_rows(arr.tolist()))
        want = np.linalg.svd(arr, compute_uv=False)
        assert np.allclose(res.sigma, want, rtol=0, atol=1e-13)
        k = min(shape)
        u = np.array(res.u.to_rows())
        v = np.array(res.v.to_rows())
        assert np.max(np.abs(u.T @ u - np.eye(k))) <= 1e-14
        assert np.max(np.abs(v.T @ v - np.eye(k))) <= 1e-14
        rec = u @ np.diag(res.sigma) @ v.T
        assert np.max(np.abs(rec - arr)) <= 1e-13
        # squared singular values are the Gram spectrum
        gram_eigs = np.sort(np.linalg.eigvalsh(arr.T @ arr))[::-1][:k]
        assert np.allclose(np.array(res.sigma) ** 2, gram_eigs, rtol=0, atol=1e-12)


# PCA


def test_pca_against_eigh_oracle_up_to_column_sign():
    rows = [[2.5, 2.4, 1.2], [0.5, 0.7, 0.8], [2.2, 2.9, 1.1]]
    arr = np.array(rows)
    xc = arr - arr.mean(axis=0)
    vals, vecs = np.linalg.eigh(np.cov(xc.T))
    order = np.argsort(vals)[::-1]
    want = xc @ vecs[:, order][:, :2]
    got = np.array(ld.pca(Matrix.from_rows(rows), 2).to_rows())
    for j in range(2):
        col = got[:, j]
        diff = min(
            np.max(np.abs(col - want[:, j])), np.max(np.abs(col + want[:, j]))
        )
        assert diff <= 1e-14


def test_pca_axis_aligned():
    x = Matrix.from_rows([[1, 5], [2, 5], [3, 5]])
    got = np.array(ld.pca(x, 1).to_rows())
    assert np.allclose(got.ravel(), [-1, 0, 1], rtol=0, atol=1e-15)


def test_pca_full_rank_preserves_distances():
    rng = np.random.default_rng(14)
    arr = rng.standard_normal((6, 3))
    proj = np.array(ld.pca(Matrix.from_rows(arr.tolist()), 3).to_rows())
    centered = arr - arr.mean(axis=0)
    for i in range(6):
        for j in range(i):
            d0 = np.linalg.norm(centered[i] - centered[j])
            d1 = np.linalg.norm(proj[i] - proj[j])
            assert abs(d0 - d1) <= 1e-13


def test_pca_bad_rank():
    x = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(BadRank):
        ld.pca(x, 0)
    with pytest.raises(BadRank):
        ld.pca(x, 3)


# Jacobi eig/SVD against numpy: rounding allows a few eps * |A|, so every
# bound is 1e-12 * |A|. Scales of 1e-300 and 1e300 reach the power-of-two
# scaling, low-rank inputs the completion of U, repeated eigenvalues the
# choice of a basis inside an eigenspace.


def random_symmetric(rng, n, kind):
    if kind == "plain":
        b = rng.standard_normal((n, n))
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        if kind == "repeated":
            d = rng.choice([-2.0, 0.0, 1.0], n)
        else:
            d = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, 0, n)
        b = (q * d) @ q.T
    return (b + b.T) / 2


def orth_error(cols):
    return np.max(np.abs(cols.T @ cols - np.eye(cols.shape[1])))


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=12),
    kind=st.sampled_from(["plain", "repeated", "graded"]),
    scale=st.sampled_from([1e-300, 1.0, 1e300]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eig_symmetric_property_against_eigh(n, kind, scale, seed):
    arr = random_symmetric(np.random.default_rng(seed), n, kind) * scale
    res = ld.eig(Matrix.from_rows(arr.tolist()))
    lam = np.array(res.values)
    vecs = np.array(res.vectors.to_rows())
    tol = 1e-12 * np.linalg.norm(arr, 2)
    assert np.all(lam[:-1] >= lam[1:])
    assert np.max(np.abs(lam - np.sort(np.linalg.eigvalsh(arr))[::-1])) <= tol
    assert np.max(np.abs(arr @ vecs - vecs * lam)) <= tol
    assert orth_error(vecs) <= 1e-12
    # sign convention: the entry of largest magnitude is positive
    assert all(vecs[np.argmax(np.abs(vecs[:, j])), j] > 0 for j in range(n))


@pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-30, 1e-100])
def test_eig_symmetry_verdict_does_not_depend_on_scale(scale):
    # a non-symmetric matrix with small entries takes the Hessenberg path;
    # Jacobi on its symmetric part would give 5.41e-10 and -0.41e-10 at 1e-10.
    # Only the eigenvalues are checked: inverse iteration on that path uses
    # absolute tolerances, so its eigenvectors degrade at small scales.
    arr = scale * np.array([[1.0, 2.0], [3.0, 4.0]])
    res = ld.eig(Matrix.from_rows(arr.tolist()))
    want = np.sort(np.linalg.eigvals(arr).real)[::-1]
    assert np.max(np.abs(np.array(res.values) - want)) <= 1e-14 * scale


@pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-300])
def test_eig_nearly_symmetric_against_eigvals(scale):
    # asymmetry below the 1e-9 relative verdict moves the eigenvalues only
    # to second order, so they match the non-symmetric oracle to rounding
    rng = np.random.default_rng(7)
    sym = random_symmetric(rng, 6, "plain")
    skew = rng.standard_normal((6, 6))
    arr = (sym + 1e-11 * (skew - skew.T)) * scale
    res = ld.eig(Matrix.from_rows(arr.tolist()))
    want = np.sort(np.linalg.eigvals(sym + 1e-11 * (skew - skew.T)).real)[::-1]
    assert np.max(np.abs(np.array(res.values) / scale - want)) <= 1e-12 * np.max(np.abs(want))
    assert orth_error(np.array(res.vectors.to_rows())) <= 1e-14


def check_svd(arr, res):
    u, v, sigma = np.array(res.u.to_rows()), np.array(res.v.to_rows()), np.array(res.sigma)
    k = min(arr.shape)
    assert u.shape == (arr.shape[0], k) and v.shape == (arr.shape[1], k)
    assert np.all(sigma[:-1] >= sigma[1:]) and np.all(sigma >= 0.0)
    assert orth_error(u) <= 1e-12 and orth_error(v) <= 1e-12
    tol = 1e-12 * np.linalg.norm(arr, 2)
    assert np.max(np.abs((u * sigma) @ v.T - arr)) <= tol
    assert np.max(np.abs(sigma - np.linalg.svd(arr, compute_uv=False))) <= tol
    return sigma


@settings(deadline=None, max_examples=80)
@given(
    m=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=12),
    rank=st.integers(min_value=0, max_value=12),
    scale=st.sampled_from([1e-300, 1.0, 1e300]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_svd_property_against_numpy(m, n, rank, scale, seed):
    rng = np.random.default_rng(seed)
    if rank >= min(m, n):
        arr = rng.standard_normal((m, n))
    else:
        arr = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    arr = arr * scale
    check_svd(arr, ld.svd(Matrix.from_rows(arr.tolist())))


GRADED_SIGMA = np.array([1.0, 1e-3, 1e-7, 1e-10])


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), wide=st.booleans())
def test_svd_graded_spectrum(seed, wide):
    # U diag(GRADED_SIGMA) V^T as the benchmark builds it. Building and
    # rounding the entries alone moves each sigma by a few eps * sigma_1
    # (a relative 1e-6 at 1e-10; up to 5 eps at sigma_1 over 8,000 cases),
    # so sigma is held to 4e-15 * sigma_1; the Gram-matrix SVD missed 1e-10
    # by 100% and more. U and V stay orthonormal to 1e-12.
    rng = np.random.default_rng(seed)
    ucols, _ = np.linalg.qr(rng.standard_normal((8, 4)))
    vcols, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    arr = (ucols * GRADED_SIGMA) @ vcols.T
    if wide:
        arr = arr.T
    sigma = check_svd(arr, ld.svd(Matrix.from_rows(arr.tolist())))
    assert np.max(np.abs(sigma - GRADED_SIGMA)) <= 4e-15


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=2, max_value=12),
    d=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pca_property_against_svd(n, d, seed):
    arr = np.random.default_rng(seed).standard_normal((n, d))
    k = min(n - 1, d)
    got = np.array(ld.pca(Matrix.from_rows(arr.tolist()), k).to_rows())
    xc = arr - arr.mean(axis=0)
    u, s, _ = np.linalg.svd(xc)
    want = u[:, :k] * s[:k]
    signs = np.where(np.sum(got * want, axis=0) < 0, -1.0, 1.0)
    assert np.max(np.abs(got * signs - want)) <= 1e-12 * s[0]


def test_overflow_gives_finite_result_or_non_finite():
    # the true singular values are 8e307 * sqrt(2), below the float maximum
    res = ld.svd(Matrix.from_rows([[8e307, 8e307], [8e307, -8e307]]))
    assert np.allclose(res.sigma, 8e307 * math.sqrt(2), rtol=1e-15, atol=0)
    assert orth_error(np.array(res.u.to_rows())) <= 1e-15
    assert orth_error(np.array(res.v.to_rows())) <= 1e-15
    # the top eigenvalue, 2e308, overflows
    with pytest.raises(NonFinite):
        ld.eig(Matrix.from_rows([[1e308, 1e308], [1e308, 1e308]]))
    # principal axes (1, 1) and (1, -1) / sqrt(2); the first projection
    # reaches 8e307 * sqrt(2)
    rows = [[8e307, 8e307], [-8e307, -8e307], [1e307, -1e307], [-1e307, 1e307]]
    proj = np.abs(np.array(ld.pca(Matrix.from_rows(rows), 2).to_rows()))
    want = math.sqrt(2) * np.array([[8e307, 0], [8e307, 0], [0, 1e307], [0, 1e307]])
    assert np.max(np.abs(proj - want)) <= 1e-15 * 8e307
    with pytest.raises(NonFinite):
        ld.pca(Matrix.from_rows([[1.5e308, 1.5e308], [-1.5e308, -1.5e308], [0.0, 0.0]]), 1)


# polynomial least squares


def test_polyfit_exact_quadratic():
    xs = [-2, -1, 0, 1, 2]
    ys = [x * x - 2 * x + 1 for x in xs]
    c = ld.polyfit(xs, ys, 2)
    assert np.allclose(c.data, [1, -2, 1], atol=1e-9)


def test_polyfit_degree_zero_is_mean():
    c = ld.polyfit([0, 1, 2, 3], [1.0, 2.0, 4.0, 5.0], 0)
    assert abs(c[0] - 3.0) <= 1e-12


def test_polyfit_noisy_against_normal_equations():
    rng = np.random.default_rng(21)
    xs = rng.uniform(-3, 3, 100)
    ys = xs**2 - 2 * xs + 1 + rng.standard_normal(100)
    c = ld.polyfit(xs.tolist(), ys.tolist(), 2)
    assert np.max(np.abs(np.array(c.data) - [1, -2, 1])) <= 0.5
    # independent route: normal equations on the same sample
    v = np.vander(xs, 3)
    want = np.linalg.solve(v.T @ v, v.T @ ys)
    assert np.allclose(c.data, want, atol=1e-8)


def test_polyfit_rank_deficient():
    with pytest.raises(RankDeficient):
        ld.polyfit([0, 0, 1, 1], [1, 1, 2, 2], 2)
    with pytest.raises(ShapeMismatch):
        ld.polyfit([0, 1], [1, 2], 2)

"""Solvers, factorizations, eigen/SVD/PCA, polyfit: goldens and invariants."""

import math
import random
from fractions import Fraction

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

import oracles
import pins
from pins import gauss_rows

EPS = math.ulp(1.0)
A22 = Matrix.from_rows([[1, 2], [3, 4]])
SINGULAR3 = Matrix.from_rows([[1, 2, 3], [2, 3, 4], [3, 4, 5]])


def mat_close(m: Matrix, want, tol):
    got = m.to_rows()
    assert oracles.max_diff(got, want) <= tol, (got, want)


def gauss_spd(rng, n, shift):
    """B B^T + shift I for a Gaussian B, rounded once."""
    b = gauss_rows(rng, n, n)
    return oracles.rounded(
        [[x + shift * (i == j) for j, x in enumerate(row)] for i, row in enumerate(oracles.matmul(b, oracles.transpose(b)))]
    )


def rand_spd(rng, n):
    return Matrix.from_rows(gauss_spd(rng, n, n))


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
    rng = random.Random(5)
    for _ in range(20):
        a = rand_spd(rng, 5)
        b = [rng.gauss(0.0, 1.0) for _ in range(5)]
        sols = [
            ld.solve_direct(a, b, m).data
            for m in ("gauss", "lu", "qr", "cholesky", "inverse")
        ]
        for s in sols[1:]:
            assert max(abs(u - v) for u, v in zip(s, sols[0])) <= 1e-7
        bn = max(abs(v) for v in b)
        res = oracles.max_abs([oracles.residual(a.to_rows(), sols[0], b)])
        assert res <= 1e-8 * (1 + bn)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=12),
    method=st.sampled_from(["gauss", "lu", "qr", "cholesky", "inverse"]),
    scale=st.sampled_from([1e-10, 1.0, 1e10]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_solve_direct_backward_error_property(n, method, scale, seed):
    # every direct route is normwise backward stable on these inputs: the
    # worst over 3,000 seeds was 1.8 n eps (inverse), 0.7 (cholesky), 0.5
    # (qr) and 0.24 (gauss, lu)
    rng = random.Random(seed)
    arr = gauss_spd(rng, n, n) if method == "cholesky" else gauss_rows(rng, n, n)
    rows = [[x * scale for x in row] for row in arr]
    b = [rng.gauss(0.0, 1.0) * scale for _ in range(n)]
    x = ld.solve_direct(Matrix.from_rows(rows), b, method).data
    assert oracles.backward_error(rows, x, b) <= 4 * n * EPS


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

    rng = random.Random(2)
    for _ in range(20):
        arr = [[x + 5 * (i == j) for j, x in enumerate(row)] for i, row in enumerate(gauss_rows(rng, 5, 5))]
        a = Matrix.from_rows(arr)
        f = ld.lu(a)
        pa = [a.to_rows()[p] for p in f.perm]
        assert oracles.max_diff(pa, oracles.matmul(f.l.to_rows(), f.u.to_rows())) <= 1e-9
        assert all(f.l.get(i, i) == 1.0 for i in range(5))


def test_qr_golden_diag_magnitudes():
    a = Matrix.from_rows([[12, -51, 4], [6, 167, -68], [-4, 24, -41]])
    f = ld.qr(a)
    diag = sorted(abs(f.r.get(i, i)) for i in range(3))
    assert oracles.allclose(diag, [14, 35, 175], atol=1e-9)


def below_diagonal(r):
    return [x for i, row in enumerate(r) for x in row[:i]]


def test_qr_invariants_random():
    rng = random.Random(3)
    for _ in range(20):
        arr = gauss_rows(rng, 4, 4)
        f = ld.qr(Matrix.from_rows(arr))
        q, r = f.q.to_rows(), f.r.to_rows()
        assert oracles.max_abs(oracles.gram_defect(q)) <= 1e-9
        assert oracles.max_diff(oracles.matmul(q, r), arr) <= 1e-9
        assert max(map(abs, below_diagonal(r))) <= 1e-12


def check_qr(arr, f):
    q, r = f.q.to_rows(), f.r.to_rows()
    assert oracles.max_abs(oracles.gram_defect(q)) <= 1e-12
    assert oracles.max_diff(oracles.matmul(q, r), arr) <= 1e-12 * max(1.0, oracles.max_abs(arr))
    assert all(x == 0.0 for x in below_diagonal(r))


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],  # zero first column: reflector skipped
        [[0, 0, 1], [3, 6, 1], [4, 8, 2]],  # step 0 zeroes column 1 below row 1 exactly
        [[2, 1, 1], [0, 3, 1], [0, 0, 4]],  # already upper triangular
        [[1e-200, 1], [0, 1]],  # v^T v would underflow without the scaling
        [[1e200, 1], [1, 1]],  # |x|^2 would overflow without the scaling
    ],
)
def test_qr_skipped_and_reduced_columns(rows):
    check_qr(rows, ld.qr(Matrix.from_rows(rows)))


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e160, 1e200, 1e300])
def test_qr_and_qr_solve_at_extreme_scales(scale):
    # each reflector is scaled by a power of two: unscaled, |x|^2 overflowed
    # from 1e160 up (ValueError from fsum), and at 1e-150 and below v^T v or
    # |x| fell under the absolute 1e-300 guards, so reflectors were skipped
    # and R was not triangular
    arr = [[scale * x for x in row] for row in [[2.0, 1.0, -1.0], [1.0, -3.0, 2.0], [-1.0, 2.0, 4.0]]]
    a = Matrix.from_rows(arr)
    f = ld.qr(a)
    q, r = f.q.to_rows(), f.r.to_rows()
    # the oracle's R has a positive diagonal
    q_ref, r_ref = oracles.qr(arr)
    signs = [math.copysign(1.0, r[i][i]) for i in range(3)]
    assert oracles.max_diff([[x * s for x, s in zip(row, signs)] for row in q], q_ref) <= 1e-14
    assert oracles.max_diff([[x * s for x in row] for row, s in zip(r, signs)], r_ref) <= 1e-14 * scale
    assert all(x == 0.0 for x in below_diagonal(r))
    x = ld.solve_direct(a, [1.0, 2.0, 3.0], "qr").data
    want = [float(v) for v in oracles.solve(arr, [1.0, 2.0, 3.0])]
    assert max(abs(u - v) for u, v in zip(x, want)) <= 1e-14 * max(map(abs, want))


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
# order of any floating-point operation in these paths fails here. The
# LU-derived entries ("gauss", "lu", "inverse" and PIN_INV) were recorded
# again when LU moved to Crout order, which rounds each U entry once per
# dot product instead of once per elimination step.
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
    "gauss": [-0.11297071129707115, 0.2803347280334728, 0.7112970711297071, 0.5857740585774059],
    "lu": [-0.11297071129707115, 0.2803347280334728, 0.7112970711297071, 0.5857740585774059],
    "qr": [-0.11297071129707122, 0.280334728033473, 0.7112970711297066, 0.585774058577406],
    "cholesky": [-0.1129707112970712, 0.28033472803347276, 0.7112970711297071, 0.585774058577406],
    "inverse": [-0.11297071129707115, 0.2803347280334728, 0.7112970711297071, 0.5857740585774059],
}
PIN_POLY = [1.821428571428571, -0.5642857142857141, -1.4857142857142858]
PIN_INV = [
    [0.33054393305439334, -0.07949790794979078, 0.06694560669456066, -0.12133891213389122],
    [-0.0794979079497908, 0.23430962343096232, -0.09205020920502091, 0.04184100418410042],
    [0.06694560669456066, -0.0920502092050209, 0.3933054393305439, -0.08786610878661087],
    [-0.12133891213389122, 0.04184100418410041, -0.08786610878661087, 0.22175732217573224],
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
    # |l_ij| <= sqrt(a_ii) for SPD A, so an entry of L that overflows marks
    # A as not SPD; the 4x4 raised NonFinite, from L's nan entries
    tiny, big = 1e-300, 1e300
    for a in (
        [[tiny, big], [big, big]],
        [[tiny, 0, 1e-150, big], [0, tiny, -1e-150, big], [1e-150, -1e-150, 3, 0], [big, big, 0, 1]],
    ):
        with pytest.raises(NotSpd):
            ld.cholesky(Matrix.from_rows(a))


# determinant and inverse


def test_det_goldens():
    assert abs(ld.det(A22) - (-2.0)) <= 1e-12
    assert ld.det(Matrix.identity(4)) == 1.0
    assert ld.det(SINGULAR3) == 0.0


def test_det_multiplicative():
    rng = random.Random(9)
    for _ in range(20):
        ma, mb = Matrix.from_rows(gauss_rows(rng, 4, 4)), Matrix.from_rows(gauss_rows(rng, 4, 4))
        lhs = ld.det(matmul(ma, mb))
        rhs = ld.det(ma) * ld.det(mb)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_inv_golden():
    mat_close(ld.inv(A22), [[-2, 1], [1.5, -0.5]], 1e-12)
    with pytest.raises(Singular):
        ld.inv(SINGULAR3)


def test_inv_roundtrip_random():
    rng = random.Random(4)
    for _ in range(20):
        a = Matrix.from_rows([[x + 4 * (i == j) for j, x in enumerate(row)] for i, row in enumerate(gauss_rows(rng, 4, 4))])
        prod = matmul(a, ld.inv(a))
        mat_close(prod, Matrix.identity(4).to_rows(), 1e-8)


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


def test_iterative_overflow_raises_nonfinite_for_both_methods():
    # |a_ij| > |a_ii| off the diagonal: the iterates grow until they overflow
    a = Matrix.from_rows([[1, 3], [3, 1]])
    # the residual of x0 sums +inf and -inf here; a bare ValueError escaped
    big = 1e308
    cancelling = Matrix.from_rows([[1, big, big], [big, 1, 0], [big, 0, 1]])
    for method in ("jacobi", "gauss_seidel"):
        x, rep = ld.solve_iterative(a, [1, 1], [0, 0], method, ld.IterConfig(1e-10, 50))
        assert not rep.converged and all(map(math.isfinite, x))
        with pytest.raises(NonFinite):
            ld.solve_iterative(a, [1, 1], [0, 0], method, ld.IterConfig(1e-10, 2000))
        with pytest.raises(NonFinite):
            ld.solve_iterative(cancelling, [0, 0, 0], [0, 2, -2], method)


def test_non_finite_vector_input_is_named_at_entry():
    # a NaN start vector used to surface as an overflow at sweep 1
    for method in ("jacobi", "gauss_seidel", "cg"):
        with pytest.raises(NonFinite, match="x0"):
            ld.solve_iterative(Matrix.identity(2), [1, 1], [math.nan, 0], method)
    with pytest.raises(NonFinite, match="b contains"):
        ld.solve_direct(A22, [math.inf, 1])
    with pytest.raises(NonFinite, match="ys"):
        ld.polyfit([0, 1, 2], [0, math.nan, 1], 1)


def test_iterative_errors():
    with pytest.raises(ZeroDiagonal):
        ld.solve_iterative(Matrix.from_rows([[0, 1], [1, 1]]), [1, 1], [0, 0], "jacobi")
    with pytest.raises(NotSpd):
        ld.solve_iterative(Matrix.from_rows([[1, 2], [2, 1]]), [1, -1], [0, 0], "cg")


@pytest.mark.parametrize("method", ["jacobi", "gauss_seidel"])
def test_step_exactly_at_tol_does_not_converge(method):
    # one sweep from 0 moves each entry by exactly 1.0 and leaves the
    # residual at 2.0: neither is below tol = 1.0
    x, rep = ld.solve_iterative(Matrix.from_rows([[1, 2], [2, 1]]), [1, 1], [0, 0], method, ld.IterConfig(1.0, 1))
    assert max(map(abs, x)) == 1.0
    assert (rep.iterations, rep.residual, rep.converged) == (1, 2.0, False)


def test_cg_step_exactly_at_tol_does_not_converge():
    # one step on diag(1, 3) moves x by exactly 0.5 = tol, and the scaled
    # residual sits exactly at its own tol
    x, rep = ld.solve_iterative(Matrix.from_rows([[1, 0], [0, 3]]), [1, 1], [0, 0], "cg", ld.IterConfig(0.5, 1))
    assert x.data == [0.5, 0.5]
    assert (rep.iterations, rep.converged) == (1, False)


def test_real_schur_stops_at_its_sweep_budget(monkeypatch):
    # the budget is 300 n + 60 sweeps; this 5x5 exhausts it
    rows = pins._budget_draw()
    calls = []
    sweep = ld._qr_sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(ld, "_qr_sweep", counted)
    with pytest.raises(NoConvergence, match="sweep budget"):
        ld.eig(Matrix.from_rows(rows))
    assert len(rows) == 5 and len(calls) == 300 * 5 + 60


def test_cg_random_spd_eight_iterations():
    rng = random.Random(6)
    for _ in range(10):
        a = rand_spd(rng, 8)
        b = [rng.gauss(0.0, 1.0) for _ in range(8)]
        x, rep = ld.solve_iterative(
            a, b, [0.0] * 8, "cg", ld.IterConfig(tol=1e-9, max_iter=100)
        )
        assert rep.converged
        assert rep.iterations <= 8
        assert rep.residual < 1e-8


def test_cg_solves_systems_far_from_unit_scale():
    # r^T r and p^T A p overflowed or underflowed here: at 1e150 CG returned
    # x0 as converged, at 1e-150 it raised NotSpd, and at 1e308 NonFinite
    def close(x, want, ulps):
        return all(abs(a - w) <= ulps * math.ulp(w) for a, w in zip(x, want))

    for s, tol in ((1e150, 1e-10), (1e-150, 1e-160)):
        a = Matrix.from_rows([[2 * s, s], [s, 3 * s]])
        x, rep = ld.solve_iterative(a, [s, 2 * s], [0, 0], "cg", ld.IterConfig(tol, 100))
        assert rep.converged and close(x, [0.2, 0.6], 4)
    b = [1e308, 1e308]
    x, rep = ld.solve_iterative(Matrix.identity(2), b, [0, 0], "cg")
    assert rep.converged and x.data == b
    x, rep = ld.solve_iterative(Matrix.from_rows([[1e308, 0], [0, 1e308]]), b, [0, 0], "cg")
    assert rep.converged and close(x, [1.0, 1.0], 1)
    # x = [1e318, 0] is not representable
    with pytest.raises(NonFinite, match="^CG step overflows at iteration 1$"):
        ld.solve_iterative(Matrix.from_rows([[1e-10, 0], [0, 1]]), [1e308, 0], [0, 0], "cg")


# eigenproblems


def eig_residual(a: Matrix, res: ld.EigResult) -> float:
    # max over j of |A v_j - lam_j v_j|_inf / (1 + |lam_j|), the residual exact
    r = oracles.eigen_residual(a.to_rows(), res.vectors.to_rows(), res.values)
    return max(float(max(map(abs, col))) / (1 + abs(lam)) for col, lam in zip(zip(*r), res.values))


def test_eig_goldens_2x2():
    cases = [
        ([[1, 2], [3, 4]], [5.37228132, -0.37228132]),
        ([[1, 2], [2, 3]], [4.23606798, -0.23606798]),
        ([[4, -2], [1, 1]], [3.0, 2.0]),
    ]
    for rows, want in cases:
        res = ld.eig(Matrix.from_rows(rows))
        assert oracles.allclose(res.values, want, rtol=0, atol=1e-8)
        assert eig_residual(Matrix.from_rows(rows), res) <= 1e-9


def test_eig_identity():
    res = ld.eig(Matrix.identity(3))
    assert res.values == [1.0, 1.0, 1.0]
    assert oracles.max_abs(oracles.gram_defect(res.vectors.to_rows())) <= 1e-15
    # upper triangular: the Hessenberg reduction skips its zero column
    a = Matrix.from_rows([[1, 2, 3], [0, 4, 5], [0, 0, 6]])
    res = ld.eig(a)
    assert res.values == [6.0, 4.0, 1.0]
    assert eig_residual(a, res) <= 1e-15


def test_eig_symmetric_trace_det_and_oracle():
    rng = random.Random(8)
    for _ in range(10):
        arr = random_symmetric(rng, 5, "plain")
        a = Matrix.from_rows(arr)
        res = ld.eig(a)
        assert sorted(res.values, reverse=True) == res.values
        assert abs(math.fsum(res.values) - math.fsum(arr[i][i] for i in range(5))) <= 1e-13
        d = ld.det(a)
        prod = math.prod(res.values)
        assert abs(prod - d) <= 1e-13 * max(1.0, abs(d))
        # every eigenvalue within 1e-13 of the exact spectrum
        assert oracles.symmetric_eigen_bound(arr, res.vectors.to_rows(), res.values) <= 1e-13
        assert eig_residual(a, res) <= 1e-13


def random_real_spectrum(rng, n):
    """P diag(d) P^-1, exact and rounded once, with distinct real d, |d| >=
    0.5, so that the Hessenberg reduction does real work; and d, sorted
    decreasing, as the oracle."""
    p = [[(i == j) + 0.4 * rng.gauss(0.0, 1.0) for j in range(n)] for i in range(n)]
    d = [k * 1.5 - 4.0 + 0.1 * rng.random() for k in rng.sample(range(1, n + 1), n)]
    return oracles.similar(p, d), sorted(d, reverse=True)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_eig_nonsymmetric_real_spectrum_against_numpy(n):
    arr, want = random_real_spectrum(random.Random(40 + n), n)
    a = Matrix.from_rows(arr)
    res = ld.eig(a)
    assert oracles.allclose(res.values, want, rtol=0, atol=1e-8 * oracles.max_abs(arr))
    assert oracles.allclose(oracles.unit_defects(res.vectors.to_rows()), 0.0, atol=1e-12)
    assert eig_residual(a, res) <= 1e-8


def test_eig_complex_spectrum_raises():
    with pytest.raises(NoConvergence):
        ld.eig(Matrix.from_rows([[0, -1], [1, 0]]))


# one sweep cannot orthogonalize the columns of this matrix, so with the
# sweep budget cut to one the Jacobi kernel must raise, not hand back the
# rotations it has made


@pytest.mark.parametrize("call", [ld.svd, ld.eig], ids=["svd", "eig_sym"])
def test_jacobi_sweep_budget_exhausted_raises(call, monkeypatch):
    b = gauss_rows(random.Random(7), 6, 6)
    a = Matrix.from_rows([[x + y for x, y in zip(row, col)] for row, col in zip(b, zip(*b))])
    before = list(a.data)
    call(a)  # converges within the default budget
    monkeypatch.setattr(ld, "_JACOBI_SWEEPS", 1)
    with pytest.raises(NoConvergence, match="^Jacobi rotations did not converge$"):
        call(a)
    assert a.data == before


# Over 12,000 such runs (n = 2-12, the three scales) the worst eigenvalue
# error was 1.5e-12 |A| and the worst residual 1.3e-12 |A|.
@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=2, max_value=12),
    scale=st.sampled_from([1e-300, 1.0, 1e300]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eig_nonsymmetric_property_against_eigvals(n, scale, seed):
    unit, d = random_real_spectrum(random.Random(seed), n)
    arr = [[x * scale for x in row] for row in unit]
    res = ld.eig(Matrix.from_rows(arr))
    lam, vecs = res.values, res.vectors.to_rows()
    tol = 1e-11 * oracles.max_abs(arr)
    assert lam == sorted(lam, reverse=True)
    assert max(abs(x - y * scale) for x, y in zip(lam, d)) <= tol
    assert max(oracles.unit_defects(vecs)) <= 1e-15
    assert oracles.max_abs(oracles.eigen_residual(arr, vecs, lam)) <= tol


@pytest.mark.parametrize("k", [-1000, 1000])
@pytest.mark.parametrize("n", [2, 3, 6, 12])
def test_eig_nonsymmetric_power_of_two_equivariance(n, k):
    arr, _ = random_real_spectrum(random.Random(70 + n), n)
    big = [[x * 2.0**k for x in row] for row in arr]
    assert [[x * 2.0**-k for x in row] for row in big] == arr  # no entry left the normal range
    res = ld.eig(Matrix.from_rows(arr))
    got = ld.eig(Matrix.from_rows(big))
    assert got.values == [math.ldexp(x, k) for x in res.values]
    assert list(map(float.hex, got.vectors.data)) == list(map(float.hex, res.vectors.data))


# SVD


def test_svd_identity_and_diag():
    res = ld.svd(Matrix.identity(3))
    assert res.sigma == [1.0, 1.0, 1.0]
    res = ld.svd(Matrix.from_rows([[3, 0], [0, 2]]))
    assert oracles.allclose(res.sigma, [3, 2], rtol=0, atol=1e-15)


def test_svd_wide_golden():
    a = Matrix.from_rows([[3, 1, 1], [-1, 3, 1]])
    res = ld.svd(a)
    assert oracles.allclose(res.sigma, [math.sqrt(12), math.sqrt(10)], rtol=0, atol=1e-14)
    u, v = res.u.to_rows(), res.v.to_rows()
    assert oracles.max_diff(reconstruct(u, res.sigma, v), a.to_rows()) <= 1e-14
    assert oracles.max_abs(oracles.gram_defect(u)) <= 1e-15
    assert oracles.max_abs(oracles.gram_defect(v)) <= 1e-15


def test_svd_rank_deficient_completion():
    a = Matrix.from_rows([[1, 2], [2, 4]])
    res = ld.svd(a)
    assert abs(res.sigma[0] - 5.0) <= 1e-14
    assert res.sigma[1] == 0.0
    u, v = res.u.to_rows(), res.v.to_rows()
    assert oracles.max_abs(oracles.gram_defect(u)) <= 1e-15
    assert oracles.max_abs(oracles.gram_defect(v)) <= 1e-15
    assert oracles.max_diff(reconstruct(u, res.sigma, v), a.to_rows()) <= 1e-14


def reconstruct(u, sigma, v):
    """U diag(sigma) V^T exactly."""
    return oracles.matmul([[x * Fraction(s) for x, s in zip(row, sigma)] for row in oracles.exact(u)], oracles.transpose(v))


def test_svd_random_against_oracle():
    rng = random.Random(12)
    for shape in [(4, 4), (6, 3), (3, 6), (5, 2)]:
        arr = gauss_rows(rng, *shape)
        res = ld.svd(Matrix.from_rows(arr))
        u, v = res.u.to_rows(), res.v.to_rows()
        # every sigma_j within bound_j of the exact singular value
        bounds = oracles.singular_value_bounds(arr, u, res.sigma, v)
        assert max(bounds) <= 1e-13
        assert oracles.max_abs(oracles.gram_defect(u)) <= 1e-14
        assert oracles.max_abs(oracles.gram_defect(v)) <= 1e-14
        assert oracles.max_diff(reconstruct(u, res.sigma, v), arr) <= 1e-13
        # squared singular values are the Gram spectrum: the exact
        # eigenvalues of A^T A are the squares of A's singular values
        for s, b in zip(res.sigma, bounds):
            assert float(abs(Fraction(s * s) - Fraction(s) ** 2)) + b * (2 * s + b) <= 1e-12


# PCA


def test_pca_against_eigh_oracle_up_to_column_sign():
    rows = [[2.5, 2.4, 1.2], [0.5, 0.7, 0.8], [2.2, 2.9, 1.1]]
    want = oracles.pca(rows, 2)
    got = ld.pca(Matrix.from_rows(rows), 2).to_rows()
    for col, ref in zip(zip(*got), zip(*want)):
        diff = min(max(abs(x - y) for x, y in zip(col, ref)), max(abs(x + y) for x, y in zip(col, ref)))
        assert diff <= 1e-14


def test_pca_axis_aligned():
    x = Matrix.from_rows([[1, 5], [2, 5], [3, 5]])
    got = ld.pca(x, 1).data
    assert oracles.allclose(got, [-1, 0, 1], rtol=0, atol=1e-15)


def test_pca_full_rank_preserves_distances():
    arr = gauss_rows(random.Random(14), 6, 3)
    proj = ld.pca(Matrix.from_rows(arr), 3).to_rows()
    # centering moves no distance, so the exact ones of the input are the oracle
    def distance(p, q):
        return oracles.frobenius([[Fraction(x) - Fraction(y) for x, y in zip(p, q)]])

    for i in range(6):
        for j in range(i):
            assert abs(distance(arr[i], arr[j]) - distance(proj[i], proj[j])) <= 1e-13


def test_pca_bad_rank():
    x = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(BadRank):
        ld.pca(x, 0)
    with pytest.raises(BadRank):
        ld.pca(x, 3)


# Jacobi eig/SVD against the exact spectra: rounding allows a few eps * |A|,
# so every bound is 1e-12 * |A|, with a lower bound on |A|_2 (so no bound
# grows). Scales of 1e-300 and 1e300 reach the power-of-two scaling,
# low-rank inputs the completion of U, repeated eigenvalues the choice of a
# basis inside an eigenspace.


def random_symmetric(rng, n, kind):
    if kind == "plain":
        b = gauss_rows(rng, n, n)
    else:
        q, _ = oracles.qr(gauss_rows(rng, n, n))
        if kind == "repeated":
            d = [rng.choice([-2.0, 0.0, 1.0]) for _ in range(n)]
        else:
            d = [rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, 0) for _ in range(n)]
        b = oracles.rounded(oracles.matmul([[x * dk for x, dk in zip(row, d)] for row in oracles.exact(q)], oracles.transpose(q)))
    return [[(x + y) / 2 for x, y in zip(row, col)] for row, col in zip(b, zip(*b))]


def orth_error(cols):
    return oracles.max_abs(oracles.gram_defect(cols))


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=12),
    kind=st.sampled_from(["plain", "repeated", "graded"]),
    scale=st.sampled_from([1e-300, 1.0, 1e300]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eig_symmetric_property_against_eigh(n, kind, scale, seed):
    arr = [[x * scale for x in row] for row in random_symmetric(random.Random(seed), n, kind)]
    res = ld.eig(Matrix.from_rows(arr))
    lam, vecs = res.values, res.vectors.to_rows()
    tol = 1e-12 * oracles.norm2_lower(arr)
    assert lam == sorted(lam, reverse=True)
    assert oracles.symmetric_eigen_bound(arr, vecs, lam) <= tol
    assert oracles.max_abs(oracles.eigen_residual(arr, vecs, lam)) <= tol
    assert orth_error(vecs) <= 1e-12
    # sign convention: the entry of largest magnitude is positive
    assert all(max(col, key=abs) > 0 for col in zip(*vecs))


@pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-30, 1e-100])
def test_eig_symmetry_verdict_does_not_depend_on_scale(scale):
    # a non-symmetric matrix with small entries takes the Hessenberg path;
    # Jacobi on its symmetric part would give 5.41e-10 and -0.41e-10 at 1e-10
    arr = [[scale * x for x in row] for row in [[1.0, 2.0], [3.0, 4.0]]]
    res = ld.eig(Matrix.from_rows(arr))
    # each value within 1e-14 * scale of its own exact eigenvalue
    assert oracles.isolates(arr, res.values, 1e-14 * scale)
    vecs = res.vectors.to_rows()
    assert oracles.max_abs(oracles.eigen_residual(arr, vecs, res.values)) <= 1e-15 * scale
    assert oracles.max_diff(vecs, ld.eig(A22).vectors.to_rows()) <= 1e-15


@pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-300])
def test_eig_nearly_symmetric_against_eigvals(scale):
    # asymmetry below the 1e-9 relative verdict moves the eigenvalues only
    # to second order, so they match the non-symmetric oracle to rounding
    rng = random.Random(7)
    sym = random_symmetric(rng, 6, "plain")
    skew = gauss_rows(rng, 6, 6)
    unit = [[x + 1e-11 * (y - z) for x, y, z in zip(*rows)] for rows in zip(sym, skew, zip(*skew))]
    res = ld.eig(Matrix.from_rows([[x * scale for x in row] for row in unit]))
    got = [v / scale for v in res.values]
    # each within 1e-12 * max|eigenvalue| of its own exact eigenvalue of the unscaled matrix
    assert oracles.isolates(unit, got, 1e-12 * max(map(abs, got)))
    assert orth_error(res.vectors.to_rows()) <= 1e-14


def check_svd(arr, res):
    u, v, sigma = res.u.to_rows(), res.v.to_rows(), res.sigma
    m, n = len(arr), len(arr[0])
    k = min(m, n)
    assert (len(u), len(u[0]), len(v), len(v[0])) == (m, k, n, k)
    assert sigma == sorted(sigma, reverse=True) and min(sigma) >= 0.0
    assert orth_error(u) <= 1e-12 and orth_error(v) <= 1e-12
    tol = 1e-12 * oracles.norm2_lower(arr)
    assert oracles.max_diff(reconstruct(u, sigma, v), arr) <= tol
    assert max(oracles.singular_value_bounds(arr, u, sigma, v)) <= tol
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
    rng = random.Random(seed)
    if rank >= min(m, n):
        arr = gauss_rows(rng, m, n)
    elif rank == 0:
        arr = [[0.0] * n for _ in range(m)]
    else:
        arr = oracles.rounded(oracles.matmul(gauss_rows(rng, m, rank), gauss_rows(rng, rank, n)))
    arr = [[x * scale for x in row] for row in arr]
    check_svd(arr, ld.svd(Matrix.from_rows(arr)))


GRADED_SIGMA = [1.0, 1e-3, 1e-7, 1e-10]


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), wide=st.booleans())
def test_svd_graded_spectrum(seed, wide):
    # U diag(GRADED_SIGMA) V^T as the benchmark builds it. Building and
    # rounding the entries alone moves each sigma by a few eps * sigma_1
    # (a relative 1e-6 at 1e-10; up to 5 eps at sigma_1 over 8,000 cases),
    # so sigma is held to 4e-15 * sigma_1; the Gram-matrix SVD missed 1e-10
    # by 100% and more. U and V stay orthonormal to 1e-12.
    rng = random.Random(seed)
    ucols, _ = oracles.qr(gauss_rows(rng, 8, 4))
    vcols, _ = oracles.qr(gauss_rows(rng, 4, 4))
    arr = oracles.rounded(reconstruct(ucols, GRADED_SIGMA, vcols))
    if wide:
        arr = oracles.transpose(arr)
    sigma = check_svd(arr, ld.svd(Matrix.from_rows(arr)))
    assert max(abs(s - t) for s, t in zip(sigma, GRADED_SIGMA)) <= 4e-15


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=2, max_value=12),
    d=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pca_property_against_svd(n, d, seed):
    arr = gauss_rows(random.Random(seed), n, d)
    k = min(n - 1, d)
    got = ld.pca(Matrix.from_rows(arr), k).to_rows()
    # the oracle's columns are u_j s_j, so the first one's norm is s_1
    want = oracles.pca(arr, k)
    s0 = oracles.frobenius([[row[0] for row in want]])
    for col, ref in zip(zip(*got), zip(*want)):
        sign = -1.0 if math.fsum(x * y for x, y in zip(col, ref)) < 0 else 1.0
        assert max(abs(sign * x - y) for x, y in zip(col, ref)) <= 1e-12 * s0


def test_overflow_gives_finite_result_or_non_finite():
    # the true singular values are 8e307 * sqrt(2), below the float maximum
    res = ld.svd(Matrix.from_rows([[8e307, 8e307], [8e307, -8e307]]))
    assert oracles.allclose(res.sigma, 8e307 * math.sqrt(2), rtol=1e-15, atol=0)
    assert orth_error(res.u.to_rows()) <= 1e-15
    assert orth_error(res.v.to_rows()) <= 1e-15
    # the top eigenvalue, 2e308, overflows
    with pytest.raises(NonFinite):
        ld.eig(Matrix.from_rows([[1e308, 1e308], [1e308, 1e308]]))
    # principal axes (1, 1) and (1, -1) / sqrt(2); the first projection
    # reaches 8e307 * sqrt(2)
    rows = [[8e307, 8e307], [-8e307, -8e307], [1e307, -1e307], [-1e307, 1e307]]
    proj = [[abs(x) for x in row] for row in ld.pca(Matrix.from_rows(rows), 2).to_rows()]
    want = [[math.sqrt(2) * x for x in row] for row in [[8e307, 0], [8e307, 0], [0, 1e307], [0, 1e307]]]
    assert oracles.max_diff(proj, want) <= 1e-15 * 8e307
    with pytest.raises(NonFinite):
        ld.pca(Matrix.from_rows([[1.5e308, 1.5e308], [-1.5e308, -1.5e308], [0.0, 0.0]]), 1)
    # x^2 overflows while the Vandermonde columns are built
    with pytest.raises(NonFinite):
        ld.polyfit([1e160, 2e160, 3e160], [1, 2, 3], 2)
    # the eigenvalues 1.316e308 and 6.84e307 are finite; on the scaled
    # input b * c in the 2x2 formula no longer overflows
    rows = [[1e308, 1e308], [1e307, 1e308]]
    res = ld.eig(Matrix.from_rows(rows))
    assert oracles.isolates(rows, res.values, [1e-15 * abs(v) for v in res.values])
    assert eig_residual(Matrix.from_rows(rows), res) <= 1e-15
    # scaled, the Hessenberg reduction no longer overflows; numpy.linalg.eigvals
    # gives this matrix the complex pair 3.9e306 +- 7.9e307 i
    big = [[1e308, 1e308, 9e307, -9e307], [1, -9e307, 1e308, 9e307], [1, 9e307, 0, 0], [1e308, 9e307, -9e307, -9e307]]
    with pytest.raises(NoConvergence):
        ld.eig(Matrix.from_rows(big))


def test_det_overflow_raises_non_finite():
    with pytest.raises(NonFinite, match="^determinant is not finite: inf$"):
        ld.det(Matrix.from_rows([[1e200, 0.0], [0.0, 1e200]]))
    assert ld.det(Matrix.from_rows([[2.0**500, 0.0], [0.0, -(2.0**523)]])) == -(2.0**1023)


def test_lu_factor_overflow_raises_non_finite():
    # every entry is finite, but U[1][1] = 1e308 + 1e308 overflows
    a = Matrix.from_rows([[1e308, 1e308], [-1e308, 1e308]])
    calls = (lambda: ld.lu(a), lambda: ld.det(a), lambda: ld.solve_direct(a, [1.0, 1.0], "lu"))
    for call in calls:
        with pytest.raises(NonFinite, match="^U factor contains a non-finite entry: inf$"):
            call()


def test_householder_reflection_overflow_raises_non_finite():
    # the reflector is scaled, but H applied to a column of 1e308s is not:
    # its sum v.c overflows
    calls = (
        lambda: ld.qr(Matrix.from_rows([[1.0, 1e308, 1e308]] * 3)),
        lambda: ld.polyfit([1.0, 2.0, 3.0], [1e308] * 3, 1),
    )
    for call in calls:
        with pytest.raises(NonFinite, match="^Householder reflection overflows$"):
            call()


# past one panel of ld._WY_BLOCK = 32 reflectors, the reflectors of each
# panel but the last reach the later columns as one compact-WY block


@pytest.mark.parametrize("n", [33, 64, 65])
def test_qr_solve_past_one_panel_is_backward_stable(n):
    # n = 33 takes 32 reflectors, one panel; 64 and 65 take a block and a panel
    rng = random.Random(n)
    rows, b = gauss_rows(rng, n, n), [rng.gauss(0.0, 1.0) for _ in range(n)]
    x = ld.solve_direct(Matrix.from_rows(rows), b, "qr").data
    assert oracles.backward_error(rows, x, b) <= 4 * n * EPS


def test_qr_factors_past_one_panel():
    n = 40
    arr = gauss_rows(random.Random(n), n, n)
    f = ld.qr(Matrix.from_rows(arr))
    q, r = f.q.to_rows(), f.r.to_rows()
    assert orth_error(q) <= n * EPS
    # A - Q R exactly, a column at a time
    gap = max(oracles.max_abs([oracles.residual(q, rc, ac)]) for rc, ac in zip(zip(*r), zip(*arr)))
    assert gap <= n * EPS * oracles.norm2_lower(arr)
    assert all(x == 0.0 for x in below_diagonal(r))


@pytest.mark.parametrize("m, n", [(120, 40), (70, 65)])
def test_svd_past_one_panel(m, n):
    # R comes from a blocked reduction, and U from the blocked back-application
    arr = gauss_rows(random.Random(m * n), m, n)
    res = ld.svd(Matrix.from_rows(arr))
    u, v = res.u.to_rows(), res.v.to_rows()
    assert orth_error(u) <= 4 * n * EPS and orth_error(v) <= 4 * n * EPS
    assert max(oracles.singular_value_bounds(arr, u, res.sigma, v)) <= 40 * n * EPS * oracles.norm2_lower(arr)


@pytest.mark.parametrize("k", [-600, 600])
def test_blocked_householder_power_of_two_equivariance(k):
    rng = random.Random(65)
    rows, b = gauss_rows(rng, 65, 65), [rng.gauss(0.0, 1.0) for _ in range(65)]
    big, bb = pins.scaled_rows(rows, 2.0**k), [x * 2.0**k for x in b]
    x = ld.solve_direct(Matrix.from_rows(rows), b, "qr").data
    assert list(map(float.hex, ld.solve_direct(Matrix.from_rows(big), bb, "qr").data)) == list(map(float.hex, x))
    f, g = ld.qr(Matrix.from_rows(rows)), ld.qr(Matrix.from_rows(big))
    assert list(map(float.hex, g.q.data)) == list(map(float.hex, f.q.data))
    assert list(map(float.hex, g.r.data)) == [math.ldexp(x, k).hex() for x in f.r.data]


@pytest.mark.parametrize("n", [8, 40])
def test_householder_overflow_past_one_panel(n):
    # v.c overflows for the last column, of 1e308s: at n = 8 in the fsum of
    # the reflection, at n = 40 in the block update that follows the panel
    a = Matrix.from_rows([[1.0] * (n - 1) + [1e308]] * n)
    for call in (lambda: ld.qr(a), lambda: ld.solve_direct(a, [1.0] * n, "qr")):
        with pytest.raises(NonFinite, match="^Householder reflection overflows$"):
            call()


@pytest.mark.parametrize("block", [1, 2, 3])
def test_householder_blocks_of_any_width(block, monkeypatch):
    # narrow blocks put every panel boundary within reach of small inputs
    monkeypatch.setattr(ld, "_WY_BLOCK", block)
    rng = random.Random(block)
    for n in range(1, 9):
        rows, b = gauss_rows(rng, n, n), [rng.gauss(0.0, 1.0) for _ in range(n)]
        x = ld.solve_direct(Matrix.from_rows(rows), b, "qr").data
        assert oracles.backward_error(rows, x, b) <= 4 * n * EPS
        check_qr(rows, ld.qr(Matrix.from_rows(rows)))
        tall = gauss_rows(rng, n + 2, n)
        res = ld.svd(Matrix.from_rows(tall))
        u, v = res.u.to_rows(), res.v.to_rows()
        assert orth_error(u) <= 4 * n * EPS and orth_error(v) <= 4 * n * EPS
        assert max(oracles.singular_value_bounds(tall, u, res.sigma, v)) <= 40 * n * EPS * oracles.norm2_lower(tall)


@pytest.mark.parametrize(
    "method,scale,seed",
    # each seed's triangular solve overflows in fsum: the first raised a bare
    # OverflowError, the second a bare ValueError (-inf + inf)
    [("lu", 1.7e308, 71), ("lu", 1.7e308, 80), ("qr", 1e306, 791), ("qr", 1e306, 256)],
)
def test_triangular_solve_overflow_raises_non_finite(method, scale, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8) if method == "qr" else rng.randint(2, 8)
    a = Matrix.from_rows([[rng.uniform(-1, 1) * scale for _ in range(n)] for _ in range(n)])
    b = [rng.uniform(-1, 1) * scale for _ in range(n)]
    with pytest.raises(NonFinite, match="^triangular solve "):
        ld.solve_direct(a, b, method)


# polynomial least squares


def test_polyfit_exact_quadratic():
    xs = [-2, -1, 0, 1, 2]
    ys = [x * x - 2 * x + 1 for x in xs]
    c = ld.polyfit(xs, ys, 2)
    assert oracles.allclose(c.data, [1, -2, 1], atol=1e-9)


def test_polyfit_degree_zero_is_mean():
    c = ld.polyfit([0, 1, 2, 3], [1.0, 2.0, 4.0, 5.0], 0)
    assert abs(c[0] - 3.0) <= 1e-12


def test_polyfit_noisy_against_normal_equations():
    rng = random.Random(21)
    xs = [rng.uniform(-3, 3) for _ in range(100)]
    ys = [x**2 - 2 * x + 1 + rng.gauss(0.0, 1.0) for x in xs]
    c = ld.polyfit(xs, ys, 2)
    assert max(abs(x - y) for x, y in zip(c.data, [1, -2, 1])) <= 0.5
    # independent route: normal equations on the same sample, solved exactly
    assert oracles.allclose(c.data, oracles.polyfit(xs, ys, 2), atol=1e-8)


@pytest.mark.parametrize(
    "scale,degrees",
    # the degrees stop where numpy, the former oracle, failed: its column
    # norms overflow from degree 2 at 1e100, and below about 1e-50
    # numpy.polyfit can hang
    [(1e-10, range(5)), (1e100, range(2))],
)
def test_polyfit_small_and_large_abscissae_against_numpy(scale, degrees):
    # each Vandermonde column is judged relative to itself, so these
    # well-posed fits are not refused as rank deficient
    rng = random.Random(23)
    u = [rng.uniform(-2.0, 2.0) for _ in range(12)]
    for deg in degrees:
        coeffs = [rng.gauss(0.0, 1.0) for _ in range(deg + 1)]
        ys = [math.fsum(c * x ** (deg - j) for j, c in enumerate(coeffs)) + 0.1 * rng.gauss(0.0, 1.0) for x in u]
        xs = [x * scale for x in u]
        got = ld.polyfit(xs, ys, deg).data
        want = oracles.polyfit(xs, ys, deg)
        assert all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(got, want)), deg


def test_polyfit_rank_deficient():
    with pytest.raises(RankDeficient):
        ld.polyfit([0, 0, 1, 1], [1, 1, 2, 2], 2)
    with pytest.raises(ShapeMismatch):
        ld.polyfit([0, 1], [1, 2], 2)

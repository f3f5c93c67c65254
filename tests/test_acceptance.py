"""End-to-end acceptance gate: twelve numbered contract checks.

Each test pins one deliverable with its agreed tolerances, so
`pytest -v tests/test_acceptance.py` prints one pass/fail line per item.
Every golden is derived from the data or from the algorithm's closed form.
Where a golden is a rounded table or a step count, the test also checks the
property that fixes it independently of the code under test: the centered
Gram matrix for the PCA projection in item 4, the contraction law for
gradient descent in item 9.
"""

import math
import random
from operator import mul

import pytest

from desknum import dynamics, interp, lindecomp, microlearn, ndcore
from desknum import numcli, optimize, quadrature, roots, spectral
from desknum.errors import NonFinite, NotSpd, Singular, Unstable
from desknum.ndcore import Matrix, Vector, matmul
from desknum.spectral import ComplexVec, Image2D

import oracles

A22 = Matrix.from_rows([[1.0, 2.0], [3.0, 4.0]])


def close(got, want, tol):
    assert abs(got - want) <= tol, (got, want, tol)


def rel_close(got, want, tol=1e-10):
    assert abs(got - want) <= tol * abs(want), (got, want)


def test_c01_dense_matrix_goldens():
    inv = lindecomp.inv(A22)
    want = [-2.0, 1.0, 1.5, -0.5]
    assert max(abs(a - b) for a, b in zip(inv.data, want)) <= 1e-12
    close(lindecomp.det(A22), -2.0, 1e-12)

    b22 = Matrix.from_rows([[5.0, 6.0], [7.0, 8.0]])
    assert matmul(A22, b22).data == [19.0, 22.0, 43.0, 50.0]

    a23 = Matrix.from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    b32 = Matrix.from_rows([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
    assert matmul(a23, b32).data == [58.0, 64.0, 139.0, 154.0]

    rng = random.Random(0)
    for _ in range(100):
        a = Matrix.from_rows(
            [[rng.uniform(-1, 1) for _ in range(16)] for _ in range(16)]
        )
        b = Matrix.from_rows(
            [[rng.uniform(-1, 1) for _ in range(16)] for _ in range(16)]
        )
        fast = matmul(a, b, algo="strassen")
        slow = matmul(a, b)
        assert max(abs(u - v) for u, v in zip(fast.data, slow.data)) <= 1e-9


def test_c02_norms_metrics_and_error_pair():
    v = [1.0, 2.0, 3.0]
    w = [4.0, 5.0, 6.0]
    assert ndcore.norm(v, "l1") == 6.0
    rel_close(ndcore.norm(v, "l2"), 3.7416573867739413)
    rel_close(ndcore.norm(A22, "frobenius"), 5.477225575051661)
    rel_close(ndcore.cosine_similarity(v, w), 0.9746318461970762)
    rel_close(ndcore.euclidean_distance(v, w), 5.196152422706632)
    assert ndcore.dot(v, w) == 32.0
    assert list(ndcore.cross3(v, w)) == [-3.0, 6.0, -3.0]

    pair = ndcore.error_metrics(math.pi, 22.0 / 7.0)
    rel_close(pair.absolute, 0.0012644892673496777)
    # the relative error follows its definition (absolute over |exact|);
    # the widely quoted 0.0004024993... constant is only correct to six
    # significant digits, so it is matched at that precision
    rel_close(pair.relative, pair.absolute / math.pi)
    close(pair.relative, 0.000402499, 5e-9)


def test_c03_linear_solvers():
    b = [5.0, 6.0]
    want = [-4.0, 4.5]
    for method in ("gauss", "lu", "qr", "inverse"):
        x = lindecomp.solve_direct(A22, b, method)
        assert max(abs(u - v) for u, v in zip(x, want)) <= 1e-8
    # cholesky needs a symmetric positive definite system; the normal
    # equations A^T A x = A^T b keep the same solution
    ata = matmul(Matrix.from_rows([[1.0, 3.0], [2.0, 4.0]]), A22)
    atb = [1.0 * 5 + 3 * 6, 2.0 * 5 + 4 * 6]
    x = lindecomp.solve_direct(ata, atb, "cholesky")
    assert max(abs(u - v) for u, v in zip(x, want)) <= 1e-8

    spd = Matrix.from_rows([[4.0, 1.0], [1.0, 3.0]])
    for method in ("jacobi", "gauss_seidel", "cg"):
        x, rep = lindecomp.solve_iterative(spd, [1.0, 2.0], [0.0, 0.0], method)
        assert rep.converged and rep.iterations <= 100
        close(x[0], 1.0 / 11.0, 1e-8)
        close(x[1], 7.0 / 11.0, 1e-8)

    singular = Matrix.from_rows([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 4.0, 5.0]])
    for method in ("gauss", "lu", "qr", "inverse"):
        with pytest.raises(Singular):
            lindecomp.solve_direct(singular, [9.0, 12.0, 15.0], method)
    with pytest.raises(NotSpd):
        lindecomp.solve_direct(singular, [9.0, 12.0, 15.0], "cholesky")


def _align_columns_to(got, want):
    # flip each column's sign to best match the target before comparing
    signs = [-1.0 if math.fsum(map(mul, g, w)) < 0.0 else 1.0 for g, w in zip(zip(*got), zip(*want))]
    return [[s * v for s, v in zip(signs, row)] for row in got]


def test_c04_eigen_svd_pca():
    cases = [
        ([[1.0, 2.0], [3.0, 4.0]], [5.37228132, -0.37228132]),
        ([[1.0, 2.0], [2.0, 3.0]], [4.23606798, -0.23606798]),
        ([[4.0, -2.0], [1.0, 1.0]], [3.0, 2.0]),
    ]
    for rows, want in cases:
        res = lindecomp.eig(Matrix.from_rows(rows))
        for got, w in zip(res.values, want):
            close(got, w, 1e-6)

    res = lindecomp.svd(Matrix.from_rows([[3.0, 1.0, 1.0], [-1.0, 3.0, 1.0]]))
    close(res.sigma[0], math.sqrt(12.0), 1e-6)
    close(res.sigma[1], math.sqrt(10.0), 1e-6)

    x_rows = [[2.5, 2.4, 1.2], [0.5, 0.7, 0.8], [2.2, 2.9, 1.1]]
    got = lindecomp.pca(Matrix.from_rows(x_rows), 2).to_rows()
    # independent oracle: the principal axes of the exact centered data
    oracle = oracles.pca(x_rows, 2)
    assert oracles.max_diff(_align_columns_to(got, oracle), oracle) <= 1e-9
    # golden projection, up to column sign. With n = 3 samples the centered
    # data has rank 2, so two components keep every row and the projected
    # rows must reproduce the centered Gram matrix Xc Xc^T exactly (total
    # sum of squares 761/150). That invariant pins the table without an
    # eigensolver: a mistyped golden, or one from a different scaling
    # convention, fails it (1e-9 on the golden allows for its rounding to ten
    # decimals).
    golden = [
        [0.8300261681, 0.2942993642],
        [-1.8070180390, -0.0155358329],
        [0.9769918709, -0.2787635313],
    ]
    x = oracles.exact(x_rows)
    xc = [[v - sum(col) / 3 for v, col in zip(row, zip(*x))] for row in x]
    gram = oracles.matmul(xc, oracles.transpose(xc))
    assert oracles.max_diff(oracles.matmul(golden, oracles.transpose(golden)), gram) <= 1e-9
    assert oracles.max_diff(oracles.matmul(got, oracles.transpose(got)), gram) <= 1e-10
    assert oracles.max_diff(_align_columns_to(got, golden), golden) <= 1e-8


def _estimated_order(errors):
    es = [e for e in errors if 1e-12 < e < 0.9]
    assert len(es) >= 3, es
    e0, e1, e2 = es[-3], es[-2], es[-1]
    return math.log(e2 / e1) / math.log(e1 / e0)


def test_c05_root_finding():
    f = lambda x: x * x - 4.0
    df = lambda x: 2.0 * x
    close(roots.bisection(f, 1.0, 3.0, tol=1e-5).root, 2.0, 1e-5)
    close(roots.newton_scalar(f, df, 3.0, tol=1e-5).root, 2.0, 1e-5)
    close(roots.secant(f, 1.0, 3.0, tol=1e-5).root, 2.0, 1e-5)
    close(roots.fixed_point(lambda x: 0.5 * (x + 4.0 / x), 3.0, tol=1e-5).root,
          2.0, 1e-5)

    system = lambda v: [v[0] ** 2 + v[1] ** 2 - 1.0, v[1] - v[0] ** 2]
    y_want = (math.sqrt(5.0) - 1.0) / 2.0
    x_want = math.sqrt(y_want)
    for rep in (
        roots.newton_system(system, None, [1.0, 1.0]),
        roots.broyden(system, [0.5, 0.5]),
    ):
        close(rep.root[0], x_want, 1e-6)
        close(rep.root[1], y_want, 1e-6)

    # bracket halving is exact binary arithmetic on [1, 3]
    widths = []
    rep = roots.bisection(f, 1.0, 3.0, tol=1e-6)
    assert rep.converged
    lo, hi = 1.0, 3.0
    for _ in range(rep.iterations):
        mid = 0.5 * (lo + hi)
        if (lo * lo - 4.0) * (mid * mid - 4.0) <= 0.0:
            hi = mid
        else:
            lo = mid
        widths.append(hi - lo)
    for k, w in enumerate(widths):
        assert w == 2.0 * 0.5 ** (k + 1)

    seen = []

    def tracked(x):
        seen.append(x)
        return x * x - 4.0

    roots.newton_scalar(tracked, df, 3.0, tol=1e-13)
    assert _estimated_order([abs(x - 2.0) for x in seen]) >= 1.8
    seen.clear()
    roots.secant(tracked, 1.0, 3.0, tol=1e-13)
    assert 1.3 <= _estimated_order([abs(x - 2.0) for x in seen]) <= 1.8


def test_c06_interpolation():
    rng = random.Random(6)
    for _ in range(1000):
        k = rng.randint(3, 6)
        xs = sorted(rng.uniform(-3.0, 3.0) for _ in range(k))
        if min(b - a for a, b in zip(xs, xs[1:])) < 1e-2:
            continue
        ys = [rng.uniform(-5.0, 5.0) for _ in range(k)]
        x = rng.uniform(xs[0], xs[-1])
        lag = interp.lagrange_eval(xs, ys, x)
        dd = interp.newton_dd_eval(interp.newton_dd_build(xs, ys), x)
        assert abs(lag - dd) <= 1e-9

    knots_x, knots_y = [0.0, 1.0, 2.0], [1.0, 3.0, 2.0]
    # oracle: coefficients from the Vandermonde system
    vand = Matrix.from_rows([[1.0, x, x * x] for x in knots_x])
    coef = lindecomp.solve_direct(vand, knots_y, "gauss")
    want = coef[0] + coef[1] * 1.5 + coef[2] * 2.25
    close(want, 2.875, 1e-12)
    close(interp.lagrange_eval(knots_x, knots_y, 1.5), 2.875, 1e-12)
    close(interp.newton_dd_eval(interp.newton_dd_build(knots_x, knots_y), 1.5),
          2.875, 1e-12)

    rng = random.Random(7)
    xs = sorted(rng.uniform(0.0, 10.0) for _ in range(7))
    ys = [rng.uniform(-3.0, 3.0) for _ in xs]
    s = interp.cubic_spline_build(xs, ys)
    second = lambda i, t: 2.0 * s.coeffs[i][2] + 6.0 * s.coeffs[i][3] * t
    for i in range(len(xs) - 2):
        h = xs[i + 1] - xs[i]
        assert abs(second(i, h) - second(i + 1, 0.0)) <= 1e-9
    for x, y in zip(xs, ys):
        close(interp.cubic_spline_eval(s, x), y, 1e-12)


def test_c07_quadrature():
    close(quadrature.trapezoid_fn(math.sin, 0.0, math.pi, 1000), 2.0, 2e-6)
    close(quadrature.simpson(math.sin, 0.0, math.pi, 1000), 2.0, 1e-10)
    close(quadrature.simpson(lambda x: x**3, 0.0, 2.0, 100), 4.0, 1e-12)
    close(quadrature.simpson(lambda x: x * x, 0.0, 3.0, 100), 9.0, 1e-12)

    for n in range(2, 11):
        for d in range(2 * n):
            got = quadrature.gauss_legendre(lambda x, d=d: x**d, -1.0, 1.0, n)
            want = 0.0 if d % 2 else 2.0 / (d + 1)
            close(got, want, 1e-12)

    fpr = [0.0, 0.1, 0.4, 0.8, 1.0]
    tpr = [0.0, 0.4, 0.7, 0.9, 1.0]
    close(quadrature.trapezoid_samples(fpr, tpr), 0.695, 1e-12)


def test_c08_spectral():
    rng = random.Random(8)
    for n in (2, 8, 64, 256, 1024):
        sig = ComplexVec(
            [rng.uniform(-1, 1) for _ in range(n)],
            [rng.uniform(-1, 1) for _ in range(n)],
        )
        fast = spectral.fft(sig)
        slow = spectral.dft(sig)
        worst = max(
            math.hypot(a - b, c - d)
            for a, b, c, d in zip(fast.re, slow.re, fast.im, slow.im)
        )
        assert worst <= 1e-9 * n

    out = spectral.fft(ComplexVec.from_real([1.0, 2.0, 3.0, 4.0]))
    want = [(10.0, 0.0), (-2.0, 2.0), (-2.0, 0.0), (-2.0, -2.0)]
    for k, (re, im) in enumerate(want):
        close(out.re[k], re, 1e-12)
        close(out.im[k], im, 1e-12)

    sig = [rng.uniform(-1, 1) for _ in range(256)]
    spec = spectral.fft(ComplexVec.from_real(sig))
    time_energy = math.fsum(v * v for v in sig)
    freq_energy = math.fsum(
        r * r + i * i for r, i in zip(spec.re, spec.im)
    ) / 256.0
    rel_close(freq_energy, time_energy, 1e-9)

    f = [rng.uniform(-1, 1) for _ in range(17)]
    g = [rng.uniform(-1, 1) for _ in range(9)]
    direct = spectral.convolve_direct(f, g)
    viafft = spectral.convolve_fft(f, g)
    assert max(abs(a - b) for a, b in zip(direct, viafft)) <= 1e-9
    assert list(spectral.convolve_direct([1.0, 2.0, 3.0], [0.0, 1.0, 0.5])) == [
        0.0, 1.0, 2.5, 4.0, 1.5,
    ]

    fs, n = 1000.0, 1024
    tone = [math.sin(2 * math.pi * 50.0 * k / fs) for k in range(n)]
    assert abs(spectral.peak_frequency(tone, fs) - 50.0) <= fs / n

    fs, n = 1024.0, 1024
    two = [
        math.sin(2 * math.pi * 50.0 * k / fs)
        + math.sin(2 * math.pi * 120.0 * k / fs)
        for k in range(n)
    ]
    kept = spectral.lowpass1d(two, fs, 100.0)
    low = [math.sin(2 * math.pi * 50.0 * k / fs) for k in range(n)]
    assert max(abs(a - b) for a, b in zip(kept, low)) < 0.02


def test_c09_optimizers():
    # the advertised first step descends x^2 while reporting (x+2)^2
    traj = optimize.gd_minimize(lambda v: [2.0 * v[0]], [10.0], 0.1, 1)
    x1 = traj[1][0]
    assert x1 == 8.0
    assert (x1 + 2.0) ** 2 == 100.0

    traj = optimize.gd_minimize(lambda v: [2.0 * v[0] + 4.0], [10.0], 0.1, 100)
    xs = [p[0] for p in traj]
    # exact contraction law x_k = -2 + 12 * 0.8^k
    close(xs[50], -2.0 + 12.0 * 0.8**50, 1e-9)
    assert abs(xs[100] + 2.0) < 1e-4

    # one Newton step on a quadratic lands exactly on the minimizer; the
    # gradient there is zero, so the solver stops after that step
    assert 10.0 - (2.0 * 10.0 + 4.0) / 2.0 == -2.0
    rep = optimize.newton_minimize(
        lambda v: [2.0 * v[0] + 4.0], lambda v: Matrix.from_rows([[2.0]]), [10.0]
    )
    assert rep.x[0] == -2.0 and rep.converged and rep.iterations == 1
    rep = optimize.newton_minimize(
        lambda v: [2.0 * (v[0] - 3.0), 2.0 * (v[1] - 2.0)],
        lambda v: Matrix.from_rows([[2.0, 0.0], [0.0, 2.0]]),
        [0.0, 0.0],
    )
    assert list(rep.x) == [3.0, 2.0] and rep.converged and rep.iterations == 1

    # each derivative-free or quasi-Newton route reaches the minimizer at
    # its own advertised accuracy: 1e-6 for the gradient-based pair, 1e-3
    # for the simplex method (its f-spread rule stalls on exact ties)
    fq = lambda v: (v[0] + 2.0) ** 2
    gq = lambda v: [2.0 * v[0] + 4.0]
    close(optimize.bfgs_minimize(fq, gq, [10.0]).x[0], -2.0, 1e-6)
    close(optimize.lbfgs_minimize(fq, gq, [10.0]).x[0], -2.0, 1e-6)
    close(optimize.nelder_mead(fq, [0.0]).x[0], -2.0, 1e-3)

    rosen = lambda v: (1.0 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2
    rosen_g = lambda v: [
        -2.0 * (1.0 - v[0]) - 400.0 * v[0] * (v[1] - v[0] ** 2),
        200.0 * (v[1] - v[0] ** 2),
    ]
    rep = optimize.bfgs_minimize(rosen, rosen_g, [-1.2, 1.0], tol=1e-8,
                                 max_iter=500)
    close(rep.x[0], 1.0, 1e-4)
    close(rep.x[1], 1.0, 1e-4)

    clipped = optimize.clip_by_norm([1.2, 0.7, 0.5], 1.0)
    close(math.sqrt(math.fsum(v * v for v in clipped)), 1.0, 1e-12)

    step = optimize.Schedule("step", 0.1)
    assert optimize.lr_at(step, 9) == 0.1
    assert optimize.lr_at(step, 10) == 0.05
    cos = optimize.Schedule("cosine_warm_restarts", 0.1)
    assert optimize.lr_at(cos, 0) == 0.1
    assert optimize.lr_at(cos, 10) == 0.1
    close(optimize.lr_at(cos, 5), 0.05, 1e-12)

    rng = random.Random(0)
    data_x = [2.0 * rng.random() for _ in range(100)]
    data_y = [2.0 * x + 1.0 + 0.1 * rng.gauss(0.0, 1.0) for x in data_x]
    theta = optimize.sgd_linreg(data_x, data_y, batch=10, eta=0.1, iters=200,
                                seed=1)
    close(theta[0], 1.0, 0.2)
    close(theta[1], 2.0, 0.2)

    # by the contraction law, |x_k + 2| = 12 * 0.8^k first drops below 1e-4
    # at k* = ceil(log(1e-4 / 12) / log(0.8)) = 53 (12 * 0.8^50 = 1.713e-4);
    # the trajectory must cross the 1e-4 target at exactly that step
    k_star = math.ceil(math.log(1e-4 / 12.0) / math.log(0.8))
    assert k_star == 53
    first = next(k for k, x in enumerate(xs) if abs(x + 2.0) < 1e-4)
    assert first == k_star, (first, k_star)


def _stiff_exact(t):
    return (
        3.0
        - (2000.0 / 999.0) * math.exp(-t)
        - (997.0 / 999.0) * math.exp(-1000.0 * t)
    )


def test_c10_initial_value_problems():
    decay = lambda t, y: [-2.0 * y[0]]
    exact = math.exp(-2.0)
    tr = dynamics.euler_solve(dynamics.IvpProblem(decay, 0.0, (1.0,), 0.1, 1.0))
    assert abs(tr.final[0] - exact) < 0.05
    tr = dynamics.rk4_solve(dynamics.IvpProblem(decay, 0.0, (1.0,), 0.1, 1.0))
    assert abs(tr.final[0] - exact) < 1e-5
    half = dynamics.rk4_solve(dynamics.IvpProblem(decay, 0.0, (1.0,), 0.05, 1.0))
    ratio = abs(tr.final[0] - exact) / abs(half.final[0] - exact)
    assert 12.0 <= ratio <= 20.0

    stiff = lambda t, y: [-1000.0 * y[0] + 3000.0 - 2000.0 * math.exp(-t)]
    with pytest.raises(NonFinite):
        dynamics.euler_solve(dynamics.IvpProblem(stiff, 0.0, (0.0,), 0.01, 5.0))
    tr = dynamics.backward_euler_solve(
        dynamics.IvpProblem(stiff, 0.0, (0.0,), 0.01, 5.0)
    )
    assert abs(tr.final[0] - _stiff_exact(5.0)) < 0.01

    lif = dynamics.lif_simulate(
        dynamics.LifParams(tau_m=10.0, v_rest=-65.0, r_m=10.0, current=20.0),
        0.1,
        100.0,
    )
    close(lif.final[0], 135.0, 0.5)

    p = dynamics.HeatProblem(
        alpha=0.01,
        length=10.0,
        nx=100,
        nt=500,
        t_total=1.0,
        u0=lambda x: math.sin(math.pi * x / 10.0),
    )
    res = dynamics.heat1d_explicit(p)
    decay_factor = math.exp(-0.01 * (math.pi / 10.0) ** 2 * 1.0)
    worst = max(
        abs(u - math.sin(math.pi * x / 10.0) * decay_factor)
        for x, u in zip(res.xs, res.u)
    )
    assert worst < 1e-2

    with pytest.raises(Unstable) as exc_info:
        dynamics.HeatProblem(
            alpha=0.01, length=1.0, nx=100, nt=10, t_total=1.0,
            u0=lambda x: 0.0,
        )
    assert "unstable" in str(exc_info.value)


def _fd_gradients(p, x, y, h=1e-6):
    d_w, d_b = [], []
    for l, w in enumerate(p.weights):
        rows = w.to_rows()
        grad = [[0.0] * w.cols for _ in range(w.rows)]
        for i in range(w.rows):
            for j in range(w.cols):
                for sign in (1.0, -1.0):
                    rows[i][j] = w.get(i, j) + sign * h
                    ws = list(p.weights)
                    ws[l] = Matrix.from_rows(rows)
                    q = microlearn.MlpParams(p.sizes, tuple(ws), p.biases)
                    grad[i][j] += sign * microlearn.mlp_loss(q, x, y) / (2 * h)
                rows[i][j] = w.get(i, j)
        d_w.append(grad)
    for l, b in enumerate(p.biases):
        grad = [0.0] * len(b)
        for j in range(len(b)):
            for sign in (1.0, -1.0):
                vals = list(b.data)
                vals[j] = b[j] + sign * h
                bs = list(p.biases)
                bs[l] = Vector(vals)
                q = microlearn.MlpParams(p.sizes, p.weights, tuple(bs))
                grad[j] += sign * microlearn.mlp_loss(q, x, y) / (2 * h)
        d_b.append(grad)
    return d_w, d_b


def test_c11_micro_ml():
    xor_x = Matrix.from_rows(
        [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
    )
    xor_y = Matrix.from_rows([[0.0], [1.0], [1.0], [0.0]])
    converged = False
    for seed in (0, 1, 2):
        params = microlearn.mlp_init([3, 4, 1], seed)
        trained, _ = microlearn.mlp_train(params, xor_x, xor_y, 0.5, 10000)
        if microlearn.mlp_loss(trained, xor_x, xor_y) < 0.05:
            converged = True
            break
    assert converged

    rng = random.Random(11)
    for seed in (3, 4):
        p = microlearn.mlp_init([2, 3, 1], seed)
        x = Matrix.from_rows(
            [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(4)]
        )
        y = Matrix.from_rows([[rng.uniform(0.1, 0.9)] for _ in range(4)])
        dw, db = microlearn.mlp_gradients(p, x, y)
        fw, fb = _fd_gradients(p, x, y)
        for got_m, want_rows in zip(dw, fw):
            for i, row in enumerate(want_rows):
                for j, want in enumerate(row):
                    close(got_m.get(i, j), want, 1e-5)
        for got_v, want_row in zip(db, fb):
            for got, want in zip(got_v, want_row):
                close(got, want, 1e-5)

    batch = Matrix.from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    out = microlearn.batchnorm_forward(
        batch, microlearn.BatchNormParams.identity(3)
    )
    for j in range(3):
        col = out.col(j)
        close(col[0], -1.2247, 1e-4)
        close(col[1], 0.0, 1e-4)
        close(col[2], 1.2247, 1e-4)

    env = microlearn.GridEnv.default()
    q = microlearn.q_learn(env, 0.1, 0.9, 0.1, 1000, seed=0)
    path = microlearn.greedy_rollout(q, env, start=0, max_steps=5)
    assert path[-1] == env.goal_state
    assert len(path) - 1 <= 5
    # every entry bounded by max |reward| / (1 - discount)
    assert all(abs(v) <= 10.0 / (1.0 - 0.9) + 1e-9 for v in q.values.data)


CLI_RUNS = [
    ["linalg", "--op", "matmul"],
    ["solve", "--method", "cg"],
    ["eig"],
    ["roots", "--f", "x2m4", "--method", "newton"],
    ["interp", "--method", "lagrange", "--num", "9"],
    ["integrate", "--method", "gauss", "--f", "sin", "--a", "0", "--b", "1",
     "--n", "6"],
    ["fft", "--n", "64", "--freq", "4", "--fs", "64"],
    ["optimize", "--objective", "bowl2d", "--method", "momentum",
     "--iters", "20"],
    ["ode", "--problem", "stiff", "--method", "backward_euler"],
    ["heat", "--alpha", "0.01", "--L", "10", "--nx", "21", "--nt", "100",
     "--t", "1"],
    ["xor", "--epochs", "50", "--seed", "1"],
    ["qlearn", "--episodes", "100", "--seed", "2"],
]


def test_c12_cli_determinism_and_exit_codes(tmp_path, capsys):
    for args in CLI_RUNS:
        rc_a = numcli.run(args)
        out_a = capsys.readouterr().out
        rc_b = numcli.run(args)
        out_b = capsys.readouterr().out
        assert rc_a == rc_b == 0, args
        assert out_a.encode() == out_b.encode(), args
        assert out_a != ""

    img = Image2D(8, 8, [float((3 * k) % 256 % 250) for k in range(64)])
    src = tmp_path / "img.pgm"
    src.write_bytes(numcli.write_pgm(img))
    outs = []
    for name in ("a.pgm", "b.pgm"):
        dst = tmp_path / name
        rc = numcli.run(
            ["image-lowpass", "--in", str(src), "--keep", "3",
             "--out", str(dst)]
        )
        capsys.readouterr()
        assert rc == 0
        outs.append(dst.read_bytes())
    assert outs[0] == outs[1]

    assert numcli.run(["no-such-command"]) == 1
    err = capsys.readouterr().err
    assert err != ""
    assert numcli.run(["roots", "--f", "x2m4"]) == 1
    capsys.readouterr()

    rc = numcli.run(
        ["heat", "--alpha", "0.01", "--L", "1", "--nx", "100", "--nt", "10",
         "--t", "1"]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "unstable" in err
    rc = numcli.run(["ode", "--problem", "stiff", "--method", "euler"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "NonFinite" in err

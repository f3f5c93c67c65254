"""Optimizer tests: update-rule goldens, schedules, and minimizer runs."""

import math
import random
import re

import pytest

from desknum import lindecomp, optimize as opt, quadrature, roots
from desknum.errors import (
    EmptyInput,
    LineSearchFailure,
    MaxIterations,
    NonFinite,
    NumericsError,
    ShapeMismatch,
    SingularHessian,
)
from desknum.ndcore import Matrix, Vector, cosine_similarity, norm


def quad1d(x):
    return x * x + 4.0 * x + 4.0


def quad1d_grad(v):
    return [2.0 * v[0] + 4.0]


def rosen(v):
    x, y = v
    return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2


def rosen_grad(v):
    x, y = v
    return [-2.0 * (1.0 - x) - 400.0 * x * (y - x * x), 200.0 * (y - x * x)]


# plain gradient descent


def test_gd_first_step_golden():
    # gradient 2x from x0=10 lands on 8 exactly; the quadratic
    # x^2+4x+4 evaluates to 100 there
    traj = opt.gd_minimize(lambda v: [2.0 * v[0]], [10.0], 0.1, 1)
    assert traj[1].data[0] == 8.0
    assert quad1d(traj[1].data[0]) == 100.0


def test_gd_geometric_contraction():
    traj = opt.gd_minimize(quad1d_grad, [10.0], 0.1, 60)
    for k in (1, 5, 20, 50, 60):
        assert abs((traj[k].data[0] + 2.0) - 12.0 * 0.8**k) <= 1e-9


def test_gd_stationary_start():
    traj = opt.gd_minimize(quad1d_grad, [-2.0], 0.1, 10)
    assert all(p.data[0] == -2.0 for p in traj)


def test_gd_trajectory_shape():
    traj = opt.gd_minimize(quad1d_grad, [3.0], 0.05, 7)
    assert len(traj) == 8
    assert traj[0].data == [3.0]


def test_gd_divergence():
    with pytest.raises(NonFinite):
        opt.gd_minimize(lambda v: [2.0 * v[0]], [1.0], 2.0, 100)


# stateless steppers


def test_momentum_beta_zero_is_gd():
    cfg = opt.OptConfig(eta=0.1, beta=0.0)
    theta, state = opt.optimizer_step(
        "momentum", [1.0, -2.0], [3.0, 5.0], opt.OptState.zeros(2), cfg
    )
    assert theta.data == [1.0 - 0.3, -2.0 - 0.5]
    assert state.t == 1


def test_adam_first_step_signlike():
    cfg = opt.OptConfig(eta=0.1)
    for g in (3.0, -7.0, 0.25):
        theta, _ = opt.optimizer_step(
            "adam", [1.0], [g], opt.OptState.zeros(1), cfg
        )
        assert abs((theta.data[0] - 1.0) + 0.1 * math.copysign(1.0, g)) <= 1e-6


def test_adam_first_step_independent_of_betas():
    cfg0 = opt.OptConfig(eta=0.05, beta1=0.9, beta2=0.999)
    ref, _ = opt.optimizer_step("adam", [2.0], [1.7], opt.OptState.zeros(1), cfg0)
    for b1, b2 in [(0.0, 0.0), (0.5, 0.8), (0.99, 0.9999)]:
        cfg = opt.OptConfig(eta=0.05, beta1=b1, beta2=b2)
        got, _ = opt.optimizer_step("adam", [2.0], [1.7], opt.OptState.zeros(1), cfg)
        assert abs(got.data[0] - ref.data[0]) <= 1e-9


def test_adagrad_steps_shrink():
    cfg = opt.OptConfig(eta=0.1)
    th, st = opt.optimizer_step("adagrad", [5.0], [2.0], opt.OptState.zeros(1), cfg)
    first = abs(th.data[0] - 5.0)
    th2, _ = opt.optimizer_step("adagrad", th.data, [2.0], st, cfg)
    second = abs(th2.data[0] - th.data[0])
    assert second < first


def test_rmsprop_matches_formula():
    cfg = opt.OptConfig(eta=0.01, beta=0.9)
    g = 3.0
    th, st = opt.optimizer_step("rmsprop", [1.0], [g], opt.OptState.zeros(1), cfg)
    e = 0.1 * g * g
    assert abs(th.data[0] - (1.0 - 0.01 * g / math.sqrt(e + 1e-8))) <= 1e-15
    assert abs(st.sq_avg.data[0] - e) <= 1e-15


def test_adamw_decoupled_decay():
    lam = 0.01
    plain = opt.OptConfig(eta=0.1)
    decay = opt.OptConfig(eta=0.1, weight_decay=lam)
    theta0 = [4.0]
    a, _ = opt.optimizer_step("adam", theta0, [2.0], opt.OptState.zeros(1), plain)
    w, _ = opt.optimizer_step("adamw", theta0, [2.0], opt.OptState.zeros(1), decay)
    assert abs(w.data[0] - (a.data[0] - 0.1 * lam * 4.0)) <= 1e-15


def test_every_strategy_descends_on_quadratic():
    # momentum is run overdamped (beta <= 4/9); at larger beta the
    # velocity overshoots the minimum and f rises, by design
    for kind, cfg in [
        ("momentum", opt.OptConfig(eta=0.1, beta=0.4)),
        ("adagrad", opt.OptConfig(eta=0.1)),
        ("rmsprop", opt.OptConfig(eta=0.1)),
        ("adam", opt.OptConfig(eta=0.1)),
        ("adamw", opt.OptConfig(eta=0.1)),
    ]:
        th = [10.0]
        st = opt.OptState.zeros(1)
        prev = quad1d(th[0])
        for _ in range(50):
            v, st = opt.optimizer_step(kind, th, [2.0 * th[0] + 4.0], st, cfg)
            th = v.data
            cur = quad1d(th[0])
            assert cur < prev, kind
            prev = cur
        assert st.t == 50


def test_optimizer_step_shape_errors():
    cfg = opt.OptConfig(eta=0.1)
    with pytest.raises(ShapeMismatch):
        opt.optimizer_step("adam", [1.0, 2.0], [1.0], opt.OptState.zeros(2), cfg)
    with pytest.raises(ShapeMismatch):
        opt.optimizer_step("adam", [1.0, 2.0], [1.0, 1.0], opt.OptState.zeros(3), cfg)
    with pytest.raises(ValueError):
        opt.optimizer_step("sgdish", [1.0], [1.0], opt.OptState.zeros(1), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        opt.OptConfig(eta=0.0)
    with pytest.raises(ValueError):
        opt.OptConfig(eta=0.1, beta=1.0)
    with pytest.raises(ValueError):
        opt.OptConfig(eta=0.1, weight_decay=-0.1)
    # nan < 0 is False, so only the finiteness gate refuses nan here, not adamw
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFinite, match=f"^weight_decay is not finite: {bad!r}$"):
            opt.OptConfig(eta=0.1, weight_decay=bad)


@pytest.mark.parametrize("t_mult", [0, -1])
def test_schedule_period_must_grow(t_mult):
    # lr_at multiplies the restart period by t_mult until it passes t, which
    # it never does for t_mult < 1; only the construction runs here, since
    # lr_at would not return on such a schedule
    with pytest.raises(ValueError, match=f"^t_mult must be >= 1, got {t_mult}$"):
        opt.Schedule("cosine_warm_restarts", 0.1, t_mult=t_mult)
    with pytest.raises(ValueError, match="^t_mult must be an int, got 0.5$"):
        opt.Schedule("cosine_warm_restarts", 0.1, t_mult=0.5)


# learning-rate schedules


def test_step_schedule_golden():
    sched = opt.Schedule("step", eta0=0.1, drop_factor=0.5, drop_epoch=10)
    assert opt.lr_at(sched, 0) == 0.1
    assert opt.lr_at(sched, 9) == 0.1
    assert opt.lr_at(sched, 10) == 0.05
    assert opt.lr_at(sched, 20) == 0.025
    vals = [opt.lr_at(sched, t) for t in range(60)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_exponential_schedule():
    flat = opt.Schedule("exponential", eta0=0.3, lam=0.0)
    assert all(opt.lr_at(flat, t) == 0.3 for t in range(20))
    decaying = opt.Schedule("exponential", eta0=0.3, lam=0.1)
    for t in (0, 1, 7, 40):
        assert abs(opt.lr_at(decaying, t) - 0.3 * math.exp(-0.1 * t)) <= 1e-15


def test_cosine_warm_restarts():
    sched = opt.Schedule(
        "cosine_warm_restarts", eta0=0.1, eta_min=0.001, t0=10, t_mult=2
    )
    assert abs(opt.lr_at(sched, 0) - 0.1) <= 1e-15
    assert abs(opt.lr_at(sched, 5) - (0.1 + 0.001) / 2.0) <= 1e-15
    # restarts at t0 and t0 + t0*t_mult
    assert abs(opt.lr_at(sched, 10) - 0.1) <= 1e-15
    assert abs(opt.lr_at(sched, 30) - 0.1) <= 1e-15
    for t in range(100):
        lr = opt.lr_at(sched, t)
        assert 0.001 - 1e-15 <= lr <= 0.1 + 1e-15
    # end of a cycle approaches the floor
    assert opt.lr_at(sched, 29) < 0.002


# gradient clipping


def test_clip_golden():
    # ||[0.5,0.7,1.2]|| = sqrt(2.18) > 1, so every component scales
    # by exactly 1/sqrt(2.18)
    out = opt.clip_by_norm([0.5, 0.7, 1.2], 1.0)
    scale = 1.0 / math.sqrt(2.18)
    expected = [0.5 * scale, 0.7 * scale, 1.2 * scale]
    assert out.data == pytest.approx(expected, abs=1e-15)
    assert abs(norm(out) - 1.0) <= 1e-12
    assert abs(cosine_similarity(out, [0.5, 0.7, 1.2]) - 1.0) <= 1e-12


def test_clip_identity_and_zero():
    small = opt.clip_by_norm([0.1, 0.2], 1.0)
    assert small.data == [0.1, 0.2]
    zeros = opt.clip_by_norm([0.0, 0.0, 0.0], 2.0)
    assert zeros.data == [0.0, 0.0, 0.0]


def test_clip_idempotent():
    once = opt.clip_by_norm([3.0, -4.0], 1.5)
    twice = opt.clip_by_norm(once.data, 1.5)
    assert once.data == twice.data


def test_clip_overflowing_norm_raises_non_finite():
    # finite squares whose sum passes the float maximum
    with pytest.raises(NonFinite, match="^gradient norm overflows$"):
        opt.clip_by_norm([1e154, 1e154], 1.0)


# newton


def test_newton_one_step_1d():
    # the step lands on the minimizer, where the gradient is exactly zero,
    # so the 1e-15 gradient exit stops the iteration after that one step
    res = opt.newton_minimize(quad1d_grad, lambda v: Matrix.from_rows([[2.0]]), [0.0])
    assert res.x.data[0] == -2.0
    assert res.converged and res.iterations == 1


def test_newton_one_step_bowl():
    def grad(v):
        return [2.0 * (v[0] - 3.0), 2.0 * (v[1] - 2.0)]

    def hess(v):
        return Matrix.from_rows([[2.0, 0.0], [0.0, 2.0]])

    res = opt.newton_minimize(grad, hess, [0.0, 0.0])
    assert res.x.data == [3.0, 2.0]


def test_newton_starts_converged():
    res = opt.newton_minimize(
        quad1d_grad, lambda v: Matrix.from_rows([[2.0]]), [-2.0]
    )
    assert res.iterations == 0 and res.converged


def test_newton_singular_hessian():
    with pytest.raises(SingularHessian):
        opt.newton_minimize(
            quad1d_grad, lambda v: Matrix.from_rows([[0.0]]), [1.0]
        )


def test_newton_max_iterations():
    # wrong-sign curvature pushes the iterate away from the minimum
    with pytest.raises(MaxIterations):
        opt.newton_minimize(
            quad1d_grad, lambda v: Matrix.from_rows([[-2.0]]), [1.0], max_iter=50
        )


# quasi-newton


def test_bfgs_quadratic_golden():
    res = opt.bfgs_minimize(
        lambda v: quad1d(v[0]), quad1d_grad, [0.0], tol=1e-8
    )
    assert abs(res.x.data[0] + 2.0) <= 1e-6
    assert res.fval == pytest.approx(0.0, abs=1e-12)


def test_lbfgs_quadratic_golden():
    res = opt.lbfgs_minimize(
        lambda v: quad1d(v[0]), quad1d_grad, [0.0], tol=1e-8
    )
    assert abs(res.x.data[0] + 2.0) <= 1e-6


def test_bfgs_rosenbrock():
    res = opt.bfgs_minimize(rosen, rosen_grad, [-1.2, 1.0], tol=1e-8, max_iter=500)
    assert abs(res.x.data[0] - 1.0) <= 1e-4
    assert abs(res.x.data[1] - 1.0) <= 1e-4


def test_lbfgs_rosenbrock():
    res = opt.lbfgs_minimize(rosen, rosen_grad, [-1.2, 1.0], tol=1e-8, max_iter=500)
    assert abs(res.x.data[0] - 1.0) <= 1e-4
    assert abs(res.x.data[1] - 1.0) <= 1e-4


def test_bfgs_inverse_hessian_estimate():
    q = [[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]]

    def f(x):
        return 0.5 * sum(x[i] * q[i][j] * x[j] for i in range(3) for j in range(3))

    def g(x):
        return [sum(q[i][j] * x[j] for j in range(3)) for i in range(3)]

    res = opt.bfgs_minimize(f, g, [1.0, -2.0, 3.0], tol=1e-12, max_iter=200)
    h = res.state.h_inv
    # symmetric to machine precision after every update
    for i in range(3):
        for j in range(3):
            assert abs(h.get(i, j) - h.get(j, i)) <= 1e-9
    # with backtracking (inexact) steps the estimate is only a coarse
    # approximation of the true inverse; exact line searches would
    # reproduce it to machine precision on a quadratic
    q_inv = lindecomp.inv(Matrix.from_rows(q))
    for i in range(3):
        for j in range(3):
            assert abs(h.get(i, j) - q_inv.get(i, j)) <= 0.1


def test_lbfgs_memory_bound():
    res = opt.lbfgs_minimize(
        rosen, rosen_grad, [-1.2, 1.0], memory=3, tol=1e-8, max_iter=500
    )
    assert len(res.state.pairs) <= 3
    assert abs(res.x.data[0] - 1.0) <= 1e-4


def test_quasi_newton_zero_iterations_at_minimum():
    res = opt.bfgs_minimize(lambda v: quad1d(v[0]), quad1d_grad, [-2.0])
    assert res.iterations == 0 and res.converged


@pytest.mark.parametrize("name, model", [("bfgs", "_DenseInverse"), ("lbfgs", "_PairBuffer")])
def test_quasi_newton_restarts_at_exact_minimizer(monkeypatch, name, model):
    # the first Armijo step (t = 1/2) lands exactly on x = 0, where g = 0 makes
    # d'g = 0: every later step restarts from H = I (BFGS) or from an empty
    # pair buffer (L-BFGS), takes the null step and stays at 0 with tol = 0
    built = []

    class Counted(getattr(opt, model)):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(opt, model, Counted)
    seen = []

    def f(v):
        seen.append(v[0])
        return v[0] * v[0]

    minimize = opt.bfgs_minimize if name == "bfgs" else opt.lbfgs_minimize
    with pytest.raises(MaxIterations, match="^no convergence in 5 iterations$"):
        minimize(f, lambda v: [2.0 * v[0]], [1.0], tol=0.0, max_iter=5)
    assert seen == [1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert len(built) == 5  # the start and four restarts


def test_line_search_failure():
    # gradient deliberately points away from descent; no step length
    # can satisfy sufficient decrease
    with pytest.raises(LineSearchFailure):
        opt.bfgs_minimize(lambda v: v[0], lambda v: [-1.0], [0.0])


# nelder-mead


def test_nelder_mead_quadratic():
    res = opt.nelder_mead(lambda v: quad1d(v[0]), [0.0], tol=1e-10, max_iter=1000)
    assert abs(res.x.data[0] + 2.0) <= 1e-3
    assert res.converged


def test_nelder_mead_sphere_3d():
    c = [1.0, -2.0, 0.5]
    res = opt.nelder_mead(
        lambda v: sum((a - b) ** 2 for a, b in zip(v, c)),
        [0.0, 0.0, 0.0],
        tol=1e-12,
        max_iter=2000,
    )
    assert max(abs(a - b) for a, b in zip(res.x.data, c)) <= 1e-3


def test_nelder_mead_flat_simplex_far_from_minimum():
    # from (-1, -1) the simplex goes flat on one level set near (0.3, 0.35),
    # where the gradient is still 0.05; the minimizer is (1/3, 1/3)
    def f(v):
        x, y = v
        return 0.5 * (2 * x * x + 2 * x * y + 2 * y * y) - x - y

    res = opt.nelder_mead(f, [-1.0, -1.0])
    assert res.converged
    assert max(abs(v - 1.0 / 3.0) for v in res.x.data) <= 1e-4


def test_nelder_mead_flat_simplex_3d():
    q = [[14, 8, 6], [8, 10, 6], [6, 6, 6]]

    def f(v):
        return 0.5 * math.fsum(v[i] * q[i][j] * v[j] for i in range(3) for j in range(3)) - math.fsum(v)

    res = opt.nelder_mead(f, [-2.0, 0.0, 0.0])
    assert res.converged
    grad = [math.fsum(q[i][j] * res.x[j] for j in range(3)) - 1.0 for i in range(3)]
    assert max(abs(g) for g in grad) <= 1e-3
    assert max(abs(a - b) for a, b in zip(res.x.data, [0.0, 0.0, 1.0 / 6.0])) <= 1e-3


def test_nelder_mead_constant():
    res = opt.nelder_mead(lambda v: 7.0, [1.5, 2.5])
    assert res.x.data == [1.5, 2.5]
    assert res.converged and res.iterations == 0


def test_nelder_mead_overflowing_centroid_raises_nonfinite():
    # a bare OverflowError escaped the centroid's fsum
    with pytest.raises(NonFinite, match="^simplex centroid overflows$"):
        opt.nelder_mead(lambda v: 1e-10 * v[0], [1e308, 1e308])


def test_nelder_mead_max_iterations():
    with pytest.raises(MaxIterations):
        opt.nelder_mead(lambda v: quad1d(v[0]), [50.0], tol=1e-12, max_iter=2)


# sgd linear regression demo


def make_line_data(n=100, noise=0.1, seed=0):
    rng = random.Random(seed)
    xs = [2.0 * rng.random() for _ in range(n)]
    ys = [2.0 * x + 1.0 + noise * rng.gauss(0.0, 1.0) for x in xs]
    return xs, ys


def test_sgd_linreg_recovers_line():
    xs, ys = make_line_data()
    theta = opt.sgd_linreg(xs, ys, batch=10, eta=0.1, iters=200, seed=1)
    assert abs(theta.data[0] - 1.0) <= 0.2
    assert abs(theta.data[1] - 2.0) <= 0.2


def test_sgd_linreg_deterministic():
    xs, ys = make_line_data()
    a = opt.sgd_linreg(xs, ys, 10, 0.1, 50, seed=3)
    b = opt.sgd_linreg(xs, ys, 10, 0.1, 50, seed=3)
    assert a.data == b.data


def test_sgd_linreg_zero_iters_is_seeded_init():
    theta = opt.sgd_linreg([0.0, 1.0], [1.0, 3.0], 2, 0.1, 0, seed=9)
    rng = random.Random(9)
    assert theta.data == [rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)]


def test_sgd_linreg_full_batch_monotone_loss():
    xs = [0.0, 1.0]
    ys = [1.0, 3.0]  # exact line y = 2x + 1

    def loss(th):
        return sum((th.data[0] + th.data[1] * x - y) ** 2 for x, y in zip(xs, ys))

    losses = [
        loss(opt.sgd_linreg(xs, ys, batch=2, eta=0.05, iters=k, seed=4))
        for k in range(20)
    ]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_sgd_linreg_errors():
    with pytest.raises(ShapeMismatch):
        opt.sgd_linreg([1.0, 2.0], [1.0], 1, 0.1, 5, seed=0)
    with pytest.raises(ShapeMismatch):
        opt.sgd_linreg([1.0, 2.0], [1.0, 2.0], 3, 0.1, 5, seed=0)
    with pytest.raises(ShapeMismatch):
        opt.sgd_linreg([1.0, 2.0], [1.0, 2.0], 0, 0.1, 5, seed=0)


# a NaN in the objective, gradient or residual must fail every convergence
# test: each callback value goes through ndcore's gate, which names it

NAN_SECOND = [0.0, math.nan]


def _nan_inside(x):
    # finite at the bracket ends 0 and 1, NaN everywhere in between
    return x - 0.5 if x in (0.0, 1.0) else math.nan


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: opt.newton_minimize(lambda x: NAN_SECOND, lambda x: Matrix.identity(2), [1.0, 1.0]), "F(x)"),
        (lambda: opt.bfgs_minimize(lambda x: 0.0, lambda x: NAN_SECOND, [1.0, 1.0]), "gradient"),
        (lambda: opt.lbfgs_minimize(lambda x: 0.0, lambda x: NAN_SECOND, [1.0, 1.0]), "gradient"),
        (lambda: opt.bfgs_minimize(lambda x: math.nan, lambda x: [1.0, 1.0], [1.0, 1.0]), "objective"),
        (lambda: opt.lbfgs_minimize(lambda x: math.nan, lambda x: [1.0, 1.0], [1.0, 1.0]), "objective"),
        (lambda: opt.nelder_mead(lambda x: math.nan, [1.0, 1.0]), "objective"),
        (lambda: roots.newton_system(lambda x: NAN_SECOND, None, [1.0, 1.0]), "F(x)"),
        (lambda: roots.broyden(lambda x: NAN_SECOND, [1.0, 1.0]), "F(x)"),
        (lambda: roots.bisection(lambda x: math.nan, 0.0, 1.0), "f(a)"),
        (lambda: roots.bisection(_nan_inside, 0.0, 1.0), "f(c)"),
        (lambda: roots.secant(_nan_inside, 0.0, 1.0), "f(x2)"),
        (lambda: roots.newton_scalar(lambda x: x * x - 2.0, lambda x: math.nan, 1.0), "derivative"),
        # f(x +- 1e-6) = inf both times, so the central quotient is inf - inf
        (lambda: roots.newton_scalar(lambda x: x * x, None, 1e308), "derivative"),
    ],
    ids=[
        "newton_minimize",
        "bfgs",
        "lbfgs",
        "bfgs-objective",
        "lbfgs-objective",
        "nelder_mead-objective",
        "newton_system",
        "broyden",
        "bisection-ends",
        "bisection-inside",
        "secant",
        "newton_scalar",
        "newton_scalar-fd",
    ],
)
def test_nan_in_second_entry_is_not_convergence(call, what):
    with pytest.raises(NonFinite, match=f"^{re.escape(what)} (contains a non-finite entry|is not finite): nan$"):
        call()


# Vector inputs are read through the Vector's own list, never a copy, so
# no routine may write to it


def test_vector_inputs_come_back_unchanged():
    x0, b = Vector([0.5, 0.5]), Vector([1.0, 2.0])
    xs, ys = Vector([0.0, 1.0, 2.0, 3.0]), Vector([1.0, 0.0, 2.0, 5.0])
    theta, g = Vector([1.0, -2.0]), Vector([0.5, 0.25])
    a = Matrix.from_rows([[4.0, 1.0], [1.0, 3.0]])

    def bowl(v):
        return (v[0] - 1.0) ** 2 + (v[1] + 1.0) ** 2

    def bowl_grad(v):
        return [2.0 * (v[0] - 1.0), 2.0 * (v[1] + 1.0)]

    lindecomp.solve_direct(a, b, "qr")
    for method in ("jacobi", "gauss_seidel", "cg"):
        lindecomp.solve_iterative(a, b, x0, method)
    lindecomp.polyfit(xs, ys, 2)
    opt.gd_minimize(bowl_grad, x0, 0.1, 5)
    opt.optimizer_step("adam", theta, g, opt.OptState.zeros(2), opt.OptConfig(0.1))
    opt.clip_by_norm(g, 0.1)
    opt.newton_minimize(bowl_grad, lambda v: Matrix.from_rows([[2.0, 0.0], [0.0, 2.0]]), x0)
    opt.bfgs_minimize(bowl, bowl_grad, x0)
    opt.lbfgs_minimize(bowl, bowl_grad, x0)
    opt.nelder_mead(bowl, x0)
    opt.sgd_linreg(xs, ys, 2, 0.01, 5, seed=0)
    roots.newton_system(bowl_grad, None, x0)
    roots.broyden(bowl_grad, x0)
    quadrature.trapezoid_samples(xs, ys)
    assert x0.data == [0.5, 0.5] and b.data == [1.0, 2.0]
    assert xs.data == [0.0, 1.0, 2.0, 3.0] and ys.data == [1.0, 0.0, 2.0, 5.0]
    assert theta.data == [1.0, -2.0] and g.data == [0.5, 0.25]


def scribbling_grad(v):
    # a callback that writes into its argument
    g = [2.0 * (v[0] - 1.0), 2.0 * (v[1] + 1.0)]
    v[0] = 7.0
    return g


def scribbling_f(v):
    f = (v[0] - 1.0) ** 2 + (v[1] + 1.0) ** 2
    v[0] = 7.0
    return f


@pytest.mark.parametrize(
    "call",
    [
        lambda x0: opt.gd_minimize(scribbling_grad, x0, 0.1, 3),
        lambda x0: opt.newton_minimize(scribbling_grad, lambda v: Matrix.identity(2), x0),
        lambda x0: opt.bfgs_minimize(scribbling_f, scribbling_grad, x0),
        lambda x0: opt.lbfgs_minimize(scribbling_f, scribbling_grad, x0),
        lambda x0: opt.nelder_mead(scribbling_f, x0),
        lambda x0: roots.newton_system(scribbling_grad, None, x0),
        lambda x0: roots.broyden(scribbling_grad, x0),
    ],
    ids=["gd", "newton_minimize", "bfgs", "lbfgs", "nelder_mead", "newton_system", "broyden"],
)
def test_callbacks_never_receive_the_callers_vector(call):
    x0 = Vector([0.5, 0.5])
    try:
        call(x0)
    except NumericsError:
        pass  # the scribbled iterate may well not converge
    assert x0.data == [0.5, 0.5]


@pytest.mark.parametrize(
    "call",
    [
        lambda x0: roots.newton_system(lambda v: list(v), None, x0),
        lambda x0: roots.broyden(lambda v: list(v), x0),
    ],
    ids=["newton_system", "broyden"],
)
def test_system_root_finders_check_x0_at_entry(call):
    # an empty x0 raised a bare ValueError from max() in newton_system and
    # ShapeMismatch for a 0x0 matrix in broyden; a NaN surfaced as
    # non-finite matrix data
    with pytest.raises(EmptyInput, match="x0"):
        call([])
    with pytest.raises(NonFinite, match="x0"):
        call([math.nan, 1.0])

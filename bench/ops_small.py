"""small-ops: thousands of calls on tiny objects.

Every numcli subcommand at its default or fixture flags, plus direct calls
into optimize, roots, autodiff, interp, quadrature, microlearn and
dynamics. Per-object overhead (float re-checks, dataclass validation,
argparse) dominates here, not flops.
"""

from __future__ import annotations

import math
import random

import cli
import oracles as orc
from harness import Op, all_of, holds, within

CLI_RUNS = [
    ["linalg", "--op", "matmul"],
    ["linalg", "--op", "det"],
    ["linalg", "--op", "inv"],
    *(["solve", "--method", m] for m in
      ("gauss", "lu", "qr", "inverse", "cholesky", "jacobi", "gauss_seidel", "cg")),
    ["eig"],
    *(["roots", "--f", "x2m4", "--method", m] for m in ("bisection", "newton", "secant", "fixed_point")),
    *(["roots", "--f", "circlepara", "--method", m] for m in ("system", "broyden")),
    *(["interp", "--method", m] for m in ("lagrange", "newton", "spline", "linear")),
    *(["integrate", "--method", m, "--f", "sin", "--a", "0", "--b", "3.14159", "--n", "64"]
      for m in ("trapezoid", "simpson")),
    ["integrate", "--method", "gauss", "--f", "sin", "--a", "0", "--b", "1", "--n", "6"],
    ["fft"],
    ["optimize", "--objective", "rosenbrock", "--method", "adam", "--iters", "50"],
    ["optimize", "--objective", "bowl2d", "--method", "momentum", "--iters", "20"],
    ["ode", "--problem", "stiff", "--method", "backward_euler"],
    ["ode", "--problem", "decay", "--method", "rk4"],
    ["heat", "--alpha", "0.01", "--L", "10", "--nx", "21", "--nt", "100", "--t", "1"],
    ["xor"],
    ["qlearn"],
]
FIXTURE_IMAGE = [(3 * k) % 256 % 250 for k in range(64)]  # 8x8, as in the CLI tests
QUAD_DIM = 6
MIN_TOL = {"bfgs": 1e-5, "lbfgs": 1e-5, "newton": 1e-5, "nelder_mead": 1e-3}
# the default 500 iterations do not always reach tol in 6 dimensions
NELDER_MEAD_ITERS = 5000
GRAD_DIM = 20
GRAD_EVALS = 50
JAC_EVALS = 20
SPLINE_KNOTS = 60
SPLINE_EVALS = 200
GAUSS_ORDERS = (2, 3, 5, 8, 12, 16)
MLP_SIZES = (3, 6, 1)
MLP_EPOCHS = 300
MLP_ETA = 0.5
Q_EPISODES = 400
STEPS = 200


def cli_name(argv) -> str:
    return "cli_" + "_".join(a for a in argv if not a.startswith("--"))


def cli_ops(ctx) -> list[Op]:
    ops = [cli.golden_op(ctx, cli_name(argv), argv) for argv in CLI_RUNS]
    ops.append(cli.image_lowpass_op(
        ctx, "cli_image-lowpass_fixture", 8, 8, FIXTURE_IMAGE, 3,
        [(r, c) for r in range(8) for c in range(8)],
    ))
    return ops


# optimize and autodiff


def _ad_gradient(tr, ad, fexpr, x):
    _, tape = tr.call("autodiff", ad.record, fexpr, x)
    return tr.call("autodiff", ad.gradient, tape).partials


def _rosenbrock():
    def f(x):
        return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

    def fexpr(a, b):
        return (1.0 - a) ** 2 + 100.0 * (b - a**2) ** 2

    def hess(x):
        return [
            [2.0 - 400.0 * (x[1] - 3.0 * x[0] ** 2), -400.0 * x[0]],
            [-400.0 * x[0], 200.0],
        ]

    return f, fexpr, hess, [-1.2, 1.0], [1.0, 1.0]


def _quadratic(rng):
    q = orc.spd_rows(rng, QUAD_DIM)
    c = [rng.uniform(-1.0, 1.0) for _ in range(QUAD_DIM)]
    n = QUAD_DIM

    def f(x):
        return 0.5 * math.fsum(x[i] * q[i][j] * x[j] for i in range(n) for j in range(n)) - math.fsum(
            ci * xi for ci, xi in zip(c, x)
        )

    def fexpr(*x):
        total = 0.0
        for i in range(n):
            inner = q[i][0] * x[0]
            for j in range(1, n):
                inner = inner + q[i][j] * x[j]
            total = total + (0.5 * inner - c[i]) * x[i]
        return total

    x0 = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    return f, fexpr, (lambda x: q), x0, orc.gauss_solve(q, c), (q, c, x0)


def _minimize_op(ctx, method, problem, f, fexpr, hess, x0, x_star, inputs):
    dk = ctx.dk
    opt, ad, nd = dk.optimize, dk.autodiff, dk.ndcore
    tol = MIN_TOL[method]

    def run(tr):
        grad = lambda x: _ad_gradient(tr, ad, fexpr, x)  # noqa: E731
        if method == "bfgs":
            return tr.call("optimize", opt.bfgs_minimize, f, grad, x0)
        if method == "lbfgs":
            return tr.call("optimize", opt.lbfgs_minimize, f, grad, x0)
        if method == "nelder_mead":
            return tr.call("optimize", opt.nelder_mead, f, x0, max_iter=NELDER_MEAD_ITERS)
        hessian = lambda x: tr.call("ndcore", nd.Matrix.from_rows, hess(x))  # noqa: E731
        return tr.call("optimize", opt.newton_minimize, grad, hessian, x0)

    def check(res):
        err = orc.max_abs([a - b for a, b in zip(res.x.data, x_star)]) / max(1.0, orc.max_abs(x_star))
        chk = all_of(holds(res.converged, f"{method} converged"), within(err, tol, f"{method} minimizer error"))
        chk.extra["iterations"] = res.iterations
        return chk

    metric = f"optimize.{method}_iterations"
    return Op(
        f"{method}_{problem}",
        run=run,
        check=check,
        inputs=inputs,
        produces=[metric],
        kernel=lambda seconds, chk: {metric: chk.extra["iterations"]},
    )


def _system(rng):
    """F(x) = Q x + 0.1 sin(x) - c with Q diagonally dominant: one root."""
    q = orc.spd_rows(rng, 3)
    c = [rng.uniform(-1.0, 1.0) for _ in range(3)]

    def f_vec(x):
        return [math.fsum(q[i][j] * x[j] for j in range(3)) + 0.1 * math.sin(x[i]) - c[i] for i in range(3)]

    return q, c, f_vec


def _root_ops(ctx, rng) -> list[Op]:
    dk = ctx.dk
    rt, ad = dk.roots, dk.autodiff
    q, c, f_vec = _system(rng)

    def f_expr(*x):
        return [
            q[i][0] * x[0] + q[i][1] * x[1] + q[i][2] * x[2] + 0.1 * ad.sin(x[i]) - c[i]
            for i in range(3)
        ]

    def circle(v):
        return [v[0] ** 2 + v[1] ** 2 - 1.0, v[1] - v[0] ** 2]

    def circle_expr(a, b):
        return [a * a + b * b - 1.0, b - a * a]

    problems = [("circlepara", circle, circle_expr, [1.0, 1.0]), ("system3", f_vec, f_expr, [0.0, 0.0, 0.0])]
    ops = []
    for method in ("newton_system", "broyden"):
        for pname, fv, fe, x0 in problems:
            def run(tr, method=method, fv=fv, fe=fe, x0=x0):
                if method == "broyden":
                    return tr.call("roots", rt.broyden, fv, x0, tol=1e-10)
                jac = lambda x: tr.call("autodiff", ad.jacobian, fe, x)  # noqa: E731
                return tr.call("roots", rt.newton_system, fv, jac, x0, tol=1e-10)

            def check(rep, fv=fv, method=method):
                resid = orc.max_abs(fv(list(rep.root.data)))
                chk = all_of(holds(rep.converged, f"{method} converged"), within(resid, 1e-9, f"{method} |F(x)|"))
                chk.extra["iterations"] = rep.iterations
                return chk

            metric = f"roots.{method}_iterations"
            ops.append(Op(
                f"{method}_{pname}",
                run=run,
                check=check,
                inputs=(q, c, x0),
                produces=[metric],
                kernel=lambda seconds, chk, metric=metric: {metric: chk.extra["iterations"]},
            ))
    ops.append(_jacobian_op(ctx, rng, f_expr, q))
    return ops


def _jacobian_op(ctx, rng, f_expr, q):
    ad = ctx.dk.autodiff
    points = orc.uniform_rows(rng, JAC_EVALS, 3)

    def run(tr):
        return [tr.call("autodiff", ad.jacobian, f_expr, x) for x in points]

    def check(jacs):
        worst = 0.0
        for x, jm in zip(points, jacs):
            got = jm.to_rows()
            want = [[q[i][j] + (0.1 * math.cos(x[i]) if i == j else 0.0) for j in range(3)] for i in range(3)]
            worst = max(worst, max(abs(a - b) for ra, rb in zip(got, want) for a, b in zip(ra, rb)))
        return within(worst / orc.max_abs([v for r in q for v in r]), 1e-14, "jacobian vs analytic")

    return Op("autodiff_jacobian", run=run, check=check, inputs=(points,))


def _gradient_op(ctx, rng):
    ad = ctx.dk.autodiff
    w = [rng.uniform(-1.0, 1.0) for _ in range(GRAD_DIM)]
    points = orc.uniform_rows(rng, GRAD_EVALS, GRAD_DIM)

    def fexpr(*x):
        total = 0.1 * x[0]
        for i in range(GRAD_DIM - 1):
            total = total + w[i] * ad.sin(x[i]) * x[i + 1]
        return total + ad.exp(0.1 * x[GRAD_DIM - 1])

    def exact(x):
        g = [0.0] * GRAD_DIM
        g[0] += 0.1
        for i in range(GRAD_DIM - 1):
            g[i] += w[i] * math.cos(x[i]) * x[i + 1]
            g[i + 1] += w[i] * math.sin(x[i])
        g[-1] += 0.1 * math.exp(0.1 * x[-1])
        return g

    def run(tr):
        return [_ad_gradient(tr, ad, fexpr, x) for x in points]

    def check(grads):
        worst = max(abs(a - b) for x, g in zip(points, grads) for a, b in zip(g, exact(x)))
        return within(worst, 1e-13, "reverse-mode gradient vs analytic")

    return Op(
        "autodiff_gradient",
        run=run,
        check=check,
        inputs=(w, points),
        produces=["autodiff.gradient_us"],
        kernel=lambda seconds, chk: {"autodiff.gradient_us": seconds / GRAD_EVALS * 1e6},
    )


# interp and quadrature


def _spline_op(ctx, rng):
    ip = ctx.dk.interp
    xs = sorted(rng.uniform(0.0, 10.0) for _ in range(SPLINE_KNOTS))
    ys = [math.sin(x) + rng.gauss(0.0, 0.05) for x in xs]
    at = sorted(rng.uniform(xs[0], xs[-1]) for _ in range(SPLINE_EVALS))

    def run(tr):
        s = tr.call("interp", ip.cubic_spline_build, xs, ys)
        return s, [tr.call("interp", ip.cubic_spline_eval, s, x) for x in at]

    def check(out):
        s, values = out
        co = s.coeffs
        n = len(co)
        h = [xs[i + 1] - xs[i] for i in range(n)]
        scale = [max(orc.max_abs([p[k] for p in co]), 1e-300) for k in range(4)]
        knot = max(abs(co[i][0] - ys[i]) for i in range(n))
        ends = [co[i][0] + h[i] * (co[i][1] + h[i] * (co[i][2] + h[i] * co[i][3])) for i in range(n)]
        value = max(abs(e - y) for e, y in zip(ends, ys[1:])) / scale[0]
        slope = max(abs(co[i][1] + 2 * co[i][2] * h[i] + 3 * co[i][3] * h[i] ** 2 - co[i + 1][1]) for i in range(n - 1)) / scale[1]
        curve = max(abs(co[i][2] + 3 * co[i][3] * h[i] - co[i + 1][2]) for i in range(n - 1)) / scale[2]
        natural = max(abs(co[0][2]), abs(co[-1][2] + 3 * co[-1][3] * h[-1])) / scale[2]
        evals = 0.0
        for x, v in zip(at, values):
            i = max(j for j in range(n) if xs[j] <= x)
            a, b, c, d = co[i]
            t = x - xs[i]
            evals = max(evals, abs(v - (a + t * (b + t * (c + t * d)))))
        return all_of(
            holds(tuple(s.xs) == tuple(xs) and knot == 0.0, "spline passes through the knots"),
            within(value, 1e-10, "spline continuous"),
            within(slope, 1e-10, "spline slope continuous"),
            within(curve, 1e-10, "spline curvature continuous"),
            within(natural, 1e-10, "natural end conditions"),
            within(evals / scale[0], 1e-14, "spline evaluation"),
        )

    return Op("spline", run=run, check=check, inputs=(xs, ys, at))


def _gauss_op(ctx, rng):
    qd = ctx.dk.quadrature
    cases = []
    for n in GAUSS_ORDERS:
        coeffs = [rng.uniform(-1.0, 1.0) for _ in range(2 * n)]
        a = rng.uniform(-2.0, 0.0)
        b = a + rng.uniform(0.5, 3.0)
        cases.append((n, coeffs, a, b))

    def run(tr):
        out = []
        for n, coeffs, a, b in cases:
            poly = lambda x, cs=coeffs: math.fsum(c * x**k for k, c in enumerate(cs))  # noqa: E731
            out.append(tr.call("quadrature", qd.gauss_legendre, poly, a, b, n))
        return out

    def check(values):
        worst = 0.0
        for (n, coeffs, a, b), v in zip(cases, values):
            exact = math.fsum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))
            scale = math.fsum(abs(c) * (max(abs(a), abs(b)) ** k) for k, c in enumerate(coeffs)) * (b - a)
            worst = max(worst, abs(v - exact) / scale)
        return within(worst, 1e-13, "Gauss-Legendre exact on degree 2n-1")

    return Op("gauss_legendre", run=run, check=check, inputs=cases)


# microlearn


def _mlp_reference(weights, biases, xs, ys, eta, epochs):
    """Full-batch gradient descent on mean squared error, written out."""
    weights = [[list(r) for r in w] for w in weights]
    biases = [list(b) for b in biases]
    batch, outs = len(xs), len(ys[0])
    history = []
    for _ in range(epochs):
        acts = [xs]
        for w, b in zip(weights, biases):
            prev = acts[-1]
            acts.append([
                [orc.sigmoid(math.fsum(p[i] * w[i][j] for i in range(len(w))) + b[j]) for j in range(len(b))]
                for p in prev
            ])
        out = acts[-1]
        history.append(math.fsum((out[s][j] - ys[s][j]) ** 2 for s in range(batch) for j in range(outs)) / (batch * outs))
        delta = [[2.0 / (batch * outs) * (out[s][j] - ys[s][j]) * out[s][j] * (1 - out[s][j]) for j in range(outs)] for s in range(batch)]
        for layer in range(len(weights) - 1, -1, -1):
            prev, w = acts[layer], weights[layer]
            gw = [[math.fsum(prev[s][i] * delta[s][j] for s in range(batch)) for j in range(len(w[0]))] for i in range(len(w))]
            gb = [math.fsum(delta[s][j] for s in range(batch)) for j in range(len(w[0]))]
            if layer:
                delta = [
                    [math.fsum(w[i][j] * delta[s][j] for j in range(len(w[0]))) * prev[s][i] * (1 - prev[s][i]) for i in range(len(w))]
                    for s in range(batch)
                ]
            weights[layer] = [[v - eta * g for v, g in zip(r, gr)] for r, gr in zip(w, gw)]
            biases[layer] = [v - eta * g for v, g in zip(biases[layer], gb)]
    return weights, biases, history


def _mlp_op(ctx, rng):
    ml, nd = ctx.dk.microlearn, ctx.dk.ndcore
    init_seed = rng.randrange(1 << 30)
    xs = [[float(rng.randrange(2)), float(rng.randrange(2)), 1.0] for _ in range(8)]
    ys = [[float(int(a) ^ int(b))] for a, b, _ in xs]
    x, y = nd.Matrix.from_rows(xs), nd.Matrix.from_rows(ys)
    p0 = ml.mlp_init(MLP_SIZES, init_seed)

    def check(out):
        params, history = out
        w0 = [w.to_rows() for w in p0.weights]
        b0 = [list(b.data) for b in p0.biases]
        weights, biases, want = _mlp_reference(w0, b0, xs, ys, MLP_ETA, MLP_EPOCHS)
        loss_err = max(abs(a - b) / b for a, b in zip(history, want))
        got_w = [v for w in params.weights for v in w.data] + [v for b in params.biases for v in b.data]
        want_w = [v for w in weights for r in w for v in r] + [v for b in biases for v in b]
        param_err = orc.max_abs([a - b for a, b in zip(got_w, want_w)]) / orc.max_abs(want_w)
        return all_of(
            holds(len(history) == MLP_EPOCHS, "one loss per epoch"),
            within(loss_err, 1e-9, "loss history vs reference training"),
            within(param_err, 1e-9, "trained weights vs reference training"),
        )

    return Op(
        "mlp_train",
        run=lambda tr: tr.call("microlearn", ml.mlp_train, p0, x, y, MLP_ETA, MLP_EPOCHS),
        check=check,
        inputs=(init_seed, xs),
        produces=["microlearn.mlp_epoch_us"],
        kernel=lambda seconds, chk: {"microlearn.mlp_epoch_us": seconds / MLP_EPOCHS * 1e6},
    )


def _q_reference(rewards, goal, alpha, gamma, eps, episodes, seed):
    rng = random.Random(seed)
    n_states, n_actions = len(rewards), len(rewards[0])
    q = [[0.0] * n_actions for _ in range(n_states)]
    for _ in range(episodes):
        state = rng.randrange(n_states)
        while state != goal:
            if rng.random() < eps:
                action = rng.randrange(n_actions)
            else:
                action = max(range(n_actions), key=lambda a: (q[state][a], -a))
            nxt = (state + 1) % n_states
            q[state][action] += alpha * (rewards[state][action] + gamma * max(q[nxt]) - q[state][action])
            state = nxt
    return q


def _q_op(ctx, rng):
    ml = ctx.dk.microlearn
    env = ml.GridEnv.default()
    seed = rng.randrange(1 << 30)
    alpha, gamma, eps = 0.1, 0.9, rng.uniform(0.05, 0.3)

    def check(table):
        want = _q_reference(env.rewards.to_rows(), env.goal_state, alpha, gamma, eps, Q_EPISODES, seed)
        got = table.values.to_rows()
        err = max(abs(a - b) for ra, rb in zip(got, want) for a, b in zip(ra, rb))
        return within(err / max(1.0, orc.max_abs([v for r in want for v in r])), 1e-12, "Q table vs reference")

    return Op(
        "q_learn",
        run=lambda tr: tr.call("microlearn", ml.q_learn, env, alpha, gamma, eps, Q_EPISODES, seed),
        check=check,
        inputs=(seed, eps),
        produces=["microlearn.q_learn_s"],
        kernel=lambda seconds, chk: {"microlearn.q_learn_s": seconds},
    )


# dynamics


def _backward_euler_op(ctx, rng):
    dy = ctx.dk.dynamics
    lam = rng.uniform(200.0, 2000.0)
    h = 0.01
    rhs = lambda t, y: [-lam * (y[0] - math.cos(t)) - math.sin(t)]  # noqa: E731
    problem = dy.IvpProblem(rhs, 0.0, (rng.uniform(0.0, 2.0),), h, STEPS * h)

    def check(traj):
        ts, ys = traj.ts, traj.ys.to_rows()
        worst = max(
            abs(ys[k + 1][0] - ys[k][0] - (ts[k + 1] - ts[k]) * rhs(ts[k + 1], ys[k + 1])[0])
            / max(1.0, abs(ys[k + 1][0]))
            for k in range(len(ts) - 1)
        )
        return all_of(holds(len(ts) == STEPS + 1, "step count"), within(worst, 1e-10, "implicit step residual"))

    return Op(
        "backward_euler",
        run=lambda tr: tr.call("dynamics", dy.backward_euler_solve, problem),
        check=check,
        inputs=(lam, problem.y0),
        produces=["dynamics.backward_euler_step_us"],
        kernel=lambda seconds, chk: {"dynamics.backward_euler_step_us": seconds / STEPS * 1e6},
    )


def _rk4_op(ctx, rng):
    dy = ctx.dk.dynamics
    omega, zeta = rng.uniform(1.0, 5.0), rng.uniform(0.0, 0.5)
    h = 0.01
    rhs = lambda t, y: [y[1], -omega * omega * y[0] - 2.0 * zeta * omega * y[1]]  # noqa: E731
    y0 = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    problem = dy.IvpProblem(rhs, 0.0, y0, h, STEPS * h)

    def check(traj):
        y = list(y0)
        want = [y]
        ts = traj.ts
        for a, b in zip(ts, ts[1:]):
            s = b - a
            k1 = rhs(a, y)
            k2 = rhs(a + s / 2, [v + s / 2 * k for v, k in zip(y, k1)])
            k3 = rhs(a + s / 2, [v + s / 2 * k for v, k in zip(y, k2)])
            k4 = rhs(b, [v + s * k for v, k in zip(y, k3)])
            y = [v + s / 6 * (p + 2 * q + 2 * r + w) for v, p, q, r, w in zip(y, k1, k2, k3, k4)]
            want.append(y)
        got = traj.ys.to_rows()
        err = max(abs(a - b) for ra, rb in zip(got, want) for a, b in zip(ra, rb))
        grid = max(abs(t - k * h) for k, t in enumerate(ts))
        return all_of(
            holds(len(ts) == STEPS + 1 and grid <= 1e-12, "time grid"),
            within(err / orc.max_abs([v for r in want for v in r]), 1e-12, "RK4 vs reference recurrence"),
        )

    return Op(
        "rk4",
        run=lambda tr: tr.call("dynamics", dy.rk4_solve, problem),
        check=check,
        inputs=(omega, zeta, y0),
        produces=["dynamics.rk4_step_us"],
        kernel=lambda seconds, chk: {"dynamics.rk4_step_us": seconds / STEPS * 1e6},
    )


def _heat_op(ctx, rng):
    dy = ctx.dk.dynamics
    nx, nt, length = 41, 2 * STEPS, 1.0
    alpha = rng.uniform(0.005, 0.02)
    ratio = rng.uniform(0.2, 0.45)
    dx = length / (nx - 1)
    t_total = nt * ratio * dx * dx / alpha
    problem = dy.HeatProblem(alpha, length, nx, nt, t_total, lambda x: math.sin(math.pi * x / length))

    def check(res):
        r = problem.stability_factor
        decay = (1.0 - 4.0 * r * math.sin(math.pi * dx / (2.0 * length)) ** 2) ** nt
        want = [decay * math.sin(math.pi * x / length) for x in res.xs]
        want[0], want[-1] = math.sin(0.0), math.sin(math.pi * res.xs[-1] / length)
        err = orc.max_abs([a - b for a, b in zip(res.u.data, want)]) / orc.max_abs(want)
        return within(err, 1e-11, "heat vs exact discrete solution")

    return Op(
        "heat",
        run=lambda tr: tr.call("dynamics", dy.heat1d_explicit, problem),
        check=check,
        inputs=(alpha, ratio),
        produces=["dynamics.heat_step_us"],
        kernel=lambda seconds, chk: {"dynamics.heat_step_us": seconds / nt * 1e6},
    )


def build(ctx) -> list[Op]:
    seed = ctx.seed
    ops = cli_ops(ctx)
    rng = orc.rng_for(seed, "quadratic")
    f, fexpr, hess, x0, x_star, inputs = _quadratic(rng)
    rf, rfexpr, rhess, rx0, rx_star = _rosenbrock()
    for method in ("bfgs", "lbfgs", "nelder_mead", "newton"):
        ops.append(_minimize_op(ctx, method, "rosenbrock", rf, rfexpr, rhess, rx0, rx_star, ()))
        ops.append(_minimize_op(ctx, method, "quadratic", f, fexpr, hess, x0, x_star, inputs))
    ops += _root_ops(ctx, orc.rng_for(seed, "roots"))
    ops.append(_gradient_op(ctx, orc.rng_for(seed, "gradient")))
    ops.append(_spline_op(ctx, orc.rng_for(seed, "spline")))
    ops.append(_gauss_op(ctx, orc.rng_for(seed, "gauss")))
    ops.append(_mlp_op(ctx, orc.rng_for(seed, "mlp")))
    ops.append(_q_op(ctx, orc.rng_for(seed, "qlearn")))
    ops.append(_backward_euler_op(ctx, orc.rng_for(seed, "backward_euler")))
    ops.append(_rk4_op(ctx, orc.rng_for(seed, "rk4")))
    ops.append(_heat_op(ctx, orc.rng_for(seed, "heat")))
    return ops

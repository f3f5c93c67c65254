"""Gradient-based and derivative-free minimizers.

First-order steppers (momentum, adagrad, rmsprop, adam, adamw) are
pure functions over caller-owned state. Momentum uses the
convex-combination form v = beta*v + (1-beta)*g. Epsilon sits inside
the square root for adagrad/rmsprop and outside for adam; adamw
subtracts eta*lambda*theta on top of the adam step.

newton_minimize is the Newton iteration of roots on grad(x) = 0, with
the Hessian as Jacobian: each step solves H s = -g by LU instead of
forming an inverse, and it stops on the same rule as newton_system.
bfgs_minimize and lbfgs_minimize run one quasi-Newton loop, `_quasi_newton`,
and differ only in their model of the inverse Hessian H: dense rows (BFGS)
or the last `memory` (s, y) pairs (L-BFGS). Each step goes along -H g, or
along -g from H = I when -H g does not descend, by backtracking Armijo line
search (c = 1e-4, halving). The model then takes in s and y; a pair with
y's <= _CURVATURE_GUARD leaves H as it is in BFGS and drops the oldest pair
in L-BFGS. The loop stops when ||g||_inf < tol, checked at x0 too.
Every objective value that bfgs_minimize, lbfgs_minimize and nelder_mead
see, trial points included, must be finite, or NonFinite is raised.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from . import roots
from .errors import (
    LineSearchFailure,
    MaxIterations,
    NonFinite,
    ShapeMismatch,
    SingularHessian,
)
from .ndcore import (
    Matrix,
    Vector,
    _bounded,
    _checked_float,
    _checked_floats,
    _dot,
    _fsums,
    _matvec,
    _norm2,
    _norm_inf,
    _vec,
)

VecFn = Callable[[Sequence[float]], Sequence[float]]

_CURVATURE_GUARD = 1e-10
_ARMIJO_C = 1e-4


@dataclass(frozen=True)
class OptConfig:
    eta: float
    beta: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        for name in ("beta", "beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")


@dataclass(frozen=True)
class OptState:
    velocity: Vector
    accum: Vector
    sq_avg: Vector
    m: Vector
    vhat_raw: Vector
    t: int

    @classmethod
    def zeros(cls, n: int) -> "OptState":
        def z() -> Vector:
            return Vector([0.0] * n)

        return cls(z(), z(), z(), z(), z(), 0)


@dataclass(frozen=True)
class Schedule:
    kind: str
    eta0: float
    drop_factor: float = 0.5
    drop_epoch: int = 10
    lam: float = 0.0
    eta_min: float = 0.0
    eta_max: float | None = None
    t0: int = 10
    t_mult: int = 2

    def __post_init__(self):
        if self.kind not in ("step", "exponential", "cosine_warm_restarts"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.drop_epoch < 1 or self.t0 < 1:
            raise ValueError("drop_epoch and t0 must be >= 1")
        if self.eta_max is not None and self.eta_min > self.eta_max:
            raise ValueError("need eta_min <= eta_max")


@dataclass(frozen=True)
class QuasiNewtonState:
    """Either a dense inverse-Hessian estimate or an (s, y) ring buffer."""

    h_inv: Matrix | None = None
    pairs: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...] = ()
    memory: int = 0


@dataclass(frozen=True)
class MinimizeResult:
    x: Vector
    iterations: int
    residual: float  # last gradient sup-norm; simplex f-spread for nelder_mead
    converged: bool
    fval: float | None = None
    state: QuasiNewtonState | None = None


def gd_minimize(
    grad: VecFn, x0: Sequence[float], eta: float, iters: int
) -> list[Vector]:
    if eta <= 0:
        raise ValueError("eta must be positive")
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    # a copy: callbacks receive x, and may not reach a Vector's own list
    x = list(_vec(x0, "x0"))
    traj = [Vector(x)]
    for _ in range(iters):
        g = list(grad(x))
        if len(g) != len(x):
            raise ShapeMismatch("gradient size differs from parameter size")
        x = [p - eta * q for p, q in zip(x, g)]
        if not _bounded(x):
            raise NonFinite("gradient descent diverged")
        traj.append(Vector(x))
    return traj


def optimizer_step(
    kind: str,
    theta: Sequence[float],
    g: Sequence[float],
    state: OptState,
    cfg: OptConfig,
) -> tuple[Vector, OptState]:
    th = _vec(theta, "theta")
    gr = _vec(g, "g")
    n = len(th)
    if len(gr) != n:
        raise ShapeMismatch("gradient size differs from parameter size")
    for field in (state.velocity, state.accum, state.sq_avg, state.m, state.vhat_raw):
        if len(field) != n:
            raise ShapeMismatch("optimizer state sized for a different parameter count")
    t = state.t + 1

    if kind == "momentum":
        v = [cfg.beta * a + (1.0 - cfg.beta) * b for a, b in zip(state.velocity, gr)]
        new = [p - cfg.eta * q for p, q in zip(th, v)]
        return Vector(new), replace(state, velocity=Vector(v), t=t)

    if kind == "adagrad":
        acc = [a + b * b for a, b in zip(state.accum, gr)]
        new = [p - cfg.eta * q / math.sqrt(a + cfg.eps) for p, q, a in zip(th, gr, acc)]
        return Vector(new), replace(state, accum=Vector(acc), t=t)

    if kind == "rmsprop":
        e = [cfg.beta * a + (1.0 - cfg.beta) * b * b for a, b in zip(state.sq_avg, gr)]
        new = [p - cfg.eta * q / math.sqrt(a + cfg.eps) for p, q, a in zip(th, gr, e)]
        return Vector(new), replace(state, sq_avg=Vector(e), t=t)

    if kind in ("adam", "adamw"):
        m = [cfg.beta1 * a + (1.0 - cfg.beta1) * b for a, b in zip(state.m, gr)]
        v = [cfg.beta2 * a + (1.0 - cfg.beta2) * b * b for a, b in zip(state.vhat_raw, gr)]
        mc = 1.0 - cfg.beta1**t
        vc = 1.0 - cfg.beta2**t
        new = [
            p - cfg.eta * (mm / mc) / (math.sqrt(vv / vc) + cfg.eps)
            for p, mm, vv in zip(th, m, v)
        ]
        if kind == "adamw":
            new = [p2 - cfg.eta * cfg.weight_decay * p for p2, p in zip(new, th)]
        return Vector(new), replace(state, m=Vector(m), vhat_raw=Vector(v), t=t)

    raise ValueError(f"unknown optimizer kind {kind!r}")


def lr_at(sched: Schedule, t: int) -> float:
    if t < 0:
        raise ValueError("t must be nonnegative")
    if sched.kind == "step":
        return sched.eta0 * sched.drop_factor ** (t // sched.drop_epoch)
    if sched.kind == "exponential":
        return sched.eta0 * math.exp(-sched.lam * t)
    # cosine annealing with warm restarts: walk the cycle lengths
    # t0, t0*t_mult, t0*t_mult^2, ... to locate the current cycle
    eta_max = sched.eta0 if sched.eta_max is None else sched.eta_max
    t_cur = t
    period = sched.t0
    while t_cur >= period:
        t_cur -= period
        period *= sched.t_mult
    return sched.eta_min + 0.5 * (eta_max - sched.eta_min) * (
        1.0 + math.cos(math.pi * t_cur / period)
    )


def clip_by_norm(g: Sequence[float], threshold: float) -> Vector:
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    gr = _vec(g, "g")
    norm = _norm2(gr, "gradient norm")
    if norm <= threshold:
        return Vector(gr)
    scale = threshold / norm
    return Vector([v * scale for v in gr])


def newton_minimize(
    grad: VecFn,
    hess: Callable[[Sequence[float]], Matrix],
    x0: Sequence[float],
    tol: float = 1e-8,
    max_iter: int = 100,
) -> MinimizeResult:
    """Newton's method on grad(x) = 0 with the Jacobian hess(x): the
    iteration and stopping rule of roots.newton_system."""
    model = lambda x, g, s: hess(x).to_rows()  # noqa: E731
    rep = roots._newton(
        grad, model, x0, tol, max_iter, SingularHessian, "no convergence in {} iterations"
    )
    return MinimizeResult(rep.root, rep.iterations, rep.residual, True)


def _finite_objective(f):
    # f with every value it returns gated: a NaN objective fails no
    # comparison the line search or the simplex makes, so it must raise
    return lambda x: _checked_float(f(x), "objective")


def _armijo(f, x, fx, g, d):
    # backtracking halving until sufficient decrease
    slope = _dot(g, d)
    t = 1.0
    while t > 1e-20:
        x_new = [p + t * q for p, q in zip(x, d)]
        f_new = f(x_new)
        if f_new <= fx + _ARMIJO_C * t * slope:
            return x_new, f_new
        t *= 0.5
    raise LineSearchFailure("backtracking found no sufficient decrease")


def _quasi_newton(f, grad, x0, tol, max_iter, new_model) -> MinimizeResult:
    """The quasi-Newton loop of the module docstring. new_model(n) is H = I_n,
    with direction(g) = -H g, update(s, y, rho) for rho = 1/y's, or None for a
    pair past the curvature guard, and state(), the QuasiNewtonState returned."""
    x = list(_vec(x0, "x0"))
    f = _finite_objective(f)
    g = _checked_floats(grad(x), "gradient")
    fx = f(x)
    model = new_model(len(x))
    k = 0
    while not _norm_inf(g) < tol:
        if k >= max_iter:
            raise MaxIterations(f"no convergence in {max_iter} iterations")
        k += 1
        d = model.direction(g)
        if _dot(d, g) >= 0.0:
            # stale curvature made the direction non-descending; restart from I
            model = new_model(len(x))
            d = [-v for v in g]
        x_new, f_new = _armijo(f, x, fx, g, d)
        g_new = _checked_floats(grad(x_new), "gradient")
        s = [a - b for a, b in zip(x_new, x)]
        y = [a - b for a, b in zip(g_new, g)]
        ys = _dot(y, s)
        model.update(s, y, 1.0 / ys if ys > _CURVATURE_GUARD else None)
        x, g, fx = x_new, g_new, f_new
    return MinimizeResult(Vector(x), k, _norm_inf(g), True, fx, model.state())


class _DenseInverse:
    """BFGS: H as a dense list of rows."""

    def __init__(self, n):
        self.h = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]

    def direction(self, g):
        return [-v for v in _matvec(self.h, g)]

    def update(self, s, y, rho):
        if rho is None:
            return
        h, n = self.h, len(s)
        hy = _matvec(h, y)
        yhy = _dot(y, hy)
        # H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T, expanded
        for i in range(n):
            for j in range(n):
                h[i][j] += (
                    rho * rho * yhy * s[i] * s[j]
                    + rho * s[i] * s[j]
                    - rho * (s[i] * hy[j] + hy[i] * s[j])
                )
        for i in range(n):
            for j in range(i + 1, n):
                h[i][j] = h[j][i] = 0.5 * (h[i][j] + h[j][i])

    def state(self):
        return QuasiNewtonState(h_inv=Matrix.from_rows(self.h))


class _PairBuffer(deque):
    """L-BFGS: H from the last maxlen pairs (s, y) by the two-loop recursion."""

    def direction(self, g):
        q = [-v for v in g]
        if not self:
            return q
        alphas = []
        for s, y in reversed(self):
            rho = 1.0 / _dot(y, s)
            alpha = rho * _dot(s, q)
            alphas.append((rho, alpha, s, y))
            q = [a - alpha * b for a, b in zip(q, y)]
        s_last, y_last = self[-1]
        gamma = _dot(s_last, y_last) / _dot(y_last, y_last)
        q = [gamma * v for v in q]
        for rho, alpha, s, y in reversed(alphas):
            beta = rho * _dot(y, q)
            q = [a + (alpha - beta) * b for a, b in zip(q, s)]
        return q

    def update(self, s, y, rho):
        if rho is not None:
            self.append((tuple(s), tuple(y)))  # drops the oldest when full
        elif self:
            # Armijo steps can land where y's = s'y <= 0; the pair is
            # unusable and the remembered model is going stale, so age
            # out the oldest entry instead of crawling on it forever
            self.popleft()

    def state(self):
        return QuasiNewtonState(pairs=tuple(self), memory=self.maxlen)


def bfgs_minimize(
    f: Callable[[Sequence[float]], float],
    grad: VecFn,
    x0: Sequence[float],
    tol: float = 1e-6,
    max_iter: int = 200,
) -> MinimizeResult:
    return _quasi_newton(f, grad, x0, tol, max_iter, _DenseInverse)


def lbfgs_minimize(
    f: Callable[[Sequence[float]], float],
    grad: VecFn,
    x0: Sequence[float],
    memory: int = 10,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> MinimizeResult:
    if memory < 1:
        raise ValueError("memory must be >= 1")
    return _quasi_newton(f, grad, x0, tol, max_iter, lambda n: _PairBuffer(maxlen=memory))


def _initial_simplex(f, x: list[float]):
    simplex = [list(x)]
    for i in range(len(x)):
        p = list(x)
        p[i] += 0.05 * p[i] if p[i] != 0.0 else 0.00025
        simplex.append(p)
    return simplex, [f(p) for p in simplex]


def nelder_mead(
    f: Callable[[Sequence[float]], float],
    x0: Sequence[float],
    tol: float = 1e-8,
    max_iter: int = 500,
) -> MinimizeResult:
    """Downhill simplex; stops when the simplex f-spread drops below tol.

    A flat simplex can lie on one level set far from the minimum, so it is
    accepted only when freshly built, or when a restart from its best vertex
    no longer lowers f by more than tol (Kelley, SIAM J. Optim. 10, 1999).
    """
    x = _vec(x0, "x0")
    n = len(x)
    f = _finite_objective(f)
    simplex, fvals = _initial_simplex(f, x)
    fresh = True
    f_restart = math.inf  # best f when the simplex was last rebuilt

    for k in range(max_iter + 1):
        order = sorted(range(n + 1), key=lambda i: fvals[i])
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        spread = fvals[-1] - fvals[0]
        if spread < tol:
            if fresh or f_restart - fvals[0] <= tol:
                return MinimizeResult(Vector(simplex[0]), k, spread, True, fvals[0])
            f_restart = fvals[0]
            simplex, fvals = _initial_simplex(f, simplex[0])
            continue
        if k == max_iter:
            break
        fresh = False
        centroid = [c / n for c in _fsums(zip(*simplex[:n]), "simplex centroid")]
        worst = simplex[-1]
        reflected = [c + (c - w) for c, w in zip(centroid, worst)]
        fr = f(reflected)
        if fvals[0] <= fr < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, fr
            continue
        if fr < fvals[0]:
            expanded = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            fe = f(expanded)
            if fe < fr:
                simplex[-1], fvals[-1] = expanded, fe
            else:
                simplex[-1], fvals[-1] = reflected, fr
            continue
        if fr < fvals[-1]:
            outside = [c + 0.5 * (r - c) for c, r in zip(centroid, reflected)]
            fo = f(outside)
            if fo <= fr:
                simplex[-1], fvals[-1] = outside, fo
                continue
        else:
            inside = [c + 0.5 * (w - c) for c, w in zip(centroid, worst)]
            fi = f(inside)
            if fi < fvals[-1]:
                simplex[-1], fvals[-1] = inside, fi
                continue
        best = simplex[0]
        for i in range(1, n + 1):
            simplex[i] = [b + 0.5 * (p - b) for b, p in zip(best, simplex[i])]
            fvals[i] = f(simplex[i])
    raise MaxIterations(f"no convergence in {max_iter} iterations")


def sgd_linreg(
    xs: Sequence[float],
    ys: Sequence[float],
    batch: int,
    eta: float,
    iters: int,
    seed: int,
) -> Vector:
    """Mini-batch SGD for y = theta0 + theta1*x; returns [intercept, slope].

    Parameters start from two standard-normal draws and batches are
    sampled with replacement, all from one generator seeded here, so a
    given seed fixes the whole trajectory.  When batch equals the data
    size every step uses the whole dataset, which makes the loss a
    convex quadratic descent (with-replacement resampling would break
    that monotonicity).
    """
    data_x = _vec(xs, "xs")
    data_y = _vec(ys, "ys")
    if len(data_x) != len(data_y):
        raise ShapeMismatch(f"{len(data_x)} inputs but {len(data_y)} targets")
    if not 1 <= batch <= len(data_x):
        raise ShapeMismatch("batch must be in [1, len(xs)]")
    if eta <= 0:
        raise ValueError("eta must be positive")
    rng = random.Random(seed)
    theta0 = rng.gauss(0.0, 1.0)
    theta1 = rng.gauss(0.0, 1.0)
    n = len(data_x)
    full = list(range(n))
    for _ in range(iters):
        idx = full if batch == n else [rng.randrange(n) for _ in range(batch)]
        g0 = 0.0
        g1 = 0.0
        for i in idx:
            err = theta0 + theta1 * data_x[i] - data_y[i]
            g0 += err
            g1 += err * data_x[i]
        theta0 -= eta * 2.0 * g0 / batch
        theta1 -= eta * 2.0 * g1 / batch
    return Vector([theta0, theta1])

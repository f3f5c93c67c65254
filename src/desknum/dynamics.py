"""Initial-value ODE integrators and small dynamical-system demos.

Explicit Euler, classical RK4, and backward Euler share one uniform
time grid (the last step shrinks to land on t_end exactly). Backward
Euler solves its per-step implicit equation with roots.newton_system
(undamped, finite-difference Jacobian) and accepts the step on the
residual of the Newton report, which is what makes it usable on stiff
problems where the explicit update blows up.

The demos are thin wrappers: a leaky integrate-and-fire membrane, a
first-order low-pass step response, and an explicit finite-difference
solver for the 1D heat equation with frozen Dirichlet ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from . import roots
from .errors import (
    MaxIterations,
    NewtonFailure,
    NonFinite,
    ShapeMismatch,
    SingularJacobian,
    Unstable,
)
from .ndcore import Matrix, Vector, _bounded, _checked_float, _checked_floats, _count, _positive

StateFn = Callable[[float, Sequence[float]], Sequence[float]]

# per-step implicit residual allowed for backward Euler
_IMPLICIT_TOL = 1e-10

# the grid and trajectory take about 160 bytes per step for a one-component
# state, so at most about 160 MB
_MAX_STEPS = 10**6


@dataclass(frozen=True)
class IvpProblem:
    """dy/dt = f(t, y) from y(t0) = y0, integrated to t_end in steps h."""

    f: StateFn
    t0: float
    y0: Tuple[float, ...]
    h: float
    t_end: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "y0", tuple(_checked_floats(self.y0, "y0")))
        if not self.y0:
            raise ShapeMismatch("state must have at least one component")
        object.__setattr__(self, "h", _positive(self.h, "h"))
        for name in ("t0", "t_end"):
            object.__setattr__(self, name, _checked_float(getattr(self, name), name))
        # at least one step, with _grid's own slack, and few enough that
        # the grid and the trajectory fit in memory
        if not 1.0 - 1e-9 <= (self.t_end - self.t0) / self.h <= _MAX_STEPS:
            raise ValueError(f"(t_end - t0) / h must be between 1 and {_MAX_STEPS}")


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus one state row per grid point."""

    ts: Tuple[float, ...]
    ys: Matrix

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def final(self) -> Vector:
        return Vector(self.ys.row(self.ys.rows - 1))

    def component(self, j: int) -> list:
        """Single state variable sampled over the whole grid."""
        return self.ys.col(j)


@dataclass(frozen=True)
class LifParams:
    """Leaky integrate-and-fire constants: tau_m (ms), mV, MOhm, uA."""

    tau_m: float
    v_rest: float
    r_m: float
    current: float

    def __post_init__(self) -> None:
        for name in ("tau_m", "r_m"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))


@dataclass(frozen=True)
class HeatProblem:
    """Explicit scheme for u_t = alpha u_xx on [0, L] with nx points.

    The stability factor alpha*dt/dx^2 must stay below 1/2; violating
    it raises Unstable at construction, before any stepping happens.
    """

    alpha: float
    length: float
    nx: int
    nt: int
    t_total: float
    u0: Callable[[float], float]

    def __post_init__(self) -> None:
        for name in ("alpha", "length", "t_total"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        _count(self.nx, "nx", 3)
        _count(self.nt, "nt", 1)
        if self.stability_factor >= 0.5:
            raise Unstable(
                f"the scheme is unstable: alpha*dt/dx^2 = "
                f"{self.stability_factor:.6g} >= 0.5"
            )

    @property
    def dx(self) -> float:
        return self.length / (self.nx - 1)

    @property
    def dt(self) -> float:
        return self.t_total / self.nt

    @property
    def stability_factor(self) -> float:
        dx2 = self.dx * self.dx
        if dx2 == 0.0:
            raise Unstable("dx^2 underflows to 0, so alpha*dt/dx^2 is unbounded")
        return self.alpha * self.dt / dx2


@dataclass(frozen=True)
class HeatResult:
    xs: Tuple[float, ...]
    u: Vector
    snapshots: Tuple[Tuple[float, Vector], ...] = ()


def _grid(t0: float, h: float, t_end: float) -> list:
    # t_k = t0 + k*h computed by multiplication, not accumulation, so
    # rounding does not drift over long runs
    m = int(math.floor((t_end - t0) / h + 1e-9))
    ts = [t0 + k * h for k in range(m + 1)]
    if abs(ts[-1] - t_end) <= 1e-9 * h:
        ts[-1] = t_end
    else:
        ts.append(t_end)
    return ts


def _eval_rhs(f: StateFn, t: float, y: Sequence[float]) -> list:
    out = [float(v) for v in f(t, y)]
    if len(out) != len(y):
        raise ShapeMismatch(
            f"f returned {len(out)} components for a {len(y)}-dim state"
        )
    return out


# each step function advances y from time t to time b


def _euler_step(f: StateFn, t: float, b: float, y: list) -> list:
    h = b - t
    fy = _eval_rhs(f, t, y)
    return [yi + h * fi for yi, fi in zip(y, fy)]


def _rk4_step(f: StateFn, t: float, b: float, y: list) -> list:
    h = b - t
    k1 = _eval_rhs(f, t, y)
    k2 = _eval_rhs(f, t + h / 2.0, [yi + h / 2.0 * v for yi, v in zip(y, k1)])
    k3 = _eval_rhs(f, t + h / 2.0, [yi + h / 2.0 * v for yi, v in zip(y, k2)])
    k4 = _eval_rhs(f, t + h, [yi + h * v for yi, v in zip(y, k3)])
    return [
        yi + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    ]


def _integrate(step, p: IvpProblem) -> Trajectory:
    ts = _grid(p.t0, p.h, p.t_end)
    y = list(p.y0)
    rows = [list(y)]
    for a, b in zip(ts, ts[1:]):
        y = step(p.f, a, b, y)
        if not _bounded(y):
            raise NonFinite(f"state diverged near t = {b:.6g}")
        rows.append(list(y))
    return Trajectory(tuple(ts), Matrix.from_rows(rows))


def _backward_euler_step(f: StateFn, t: float, b: float, y: list) -> list:
    h = b - t

    def implicit(z):
        fz = _eval_rhs(f, b, z)
        return [zi - yi - h * fi for zi, yi, fi in zip(z, y, fz)]

    try:
        report = roots.newton_system(implicit, None, y, tol=1e-12, max_iter=50)
    except (MaxIterations, SingularJacobian) as exc:
        raise NewtonFailure(f"implicit step at t = {b:.6g} failed") from exc
    if report.residual > _IMPLICIT_TOL:
        raise NewtonFailure(
            f"implicit step at t = {b:.6g} stalled at residual {report.residual:.3g}"
        )
    return report.root.data


def euler_solve(p: IvpProblem) -> Trajectory:
    """Explicit Euler: y_{n+1} = y_n + h f(t_n, y_n)."""
    return _integrate(_euler_step, p)


def rk4_solve(p: IvpProblem) -> Trajectory:
    """Classical fourth-order Runge-Kutta with weights (1,2,2,1)/6."""
    return _integrate(_rk4_step, p)


def backward_euler_solve(p: IvpProblem) -> Trajectory:
    """Implicit Euler: solve y_{n+1} = y_n + h f(t_{n+1}, y_{n+1}).

    Each step runs a Newton iteration (finite-difference Jacobian)
    seeded at the previous state; the accepted state must satisfy the
    implicit equation to 1e-10 in the sup norm.
    """
    return _integrate(_backward_euler_step, p)


def lif_simulate(params: LifParams, h: float, t_end: float) -> Trajectory:
    """Membrane potential of a leaky integrate-and-fire neuron.

    Integrates tau_m dV/dt = -(V - V_rest) + R_m I from V(0) = V_rest
    with RK4. Constant input current, no spike threshold or reset, so
    V relaxes toward V_rest + R_m I with time constant tau_m.
    """

    def rhs(t, v):
        return [
            (-(v[0] - params.v_rest) + params.r_m * params.current) / params.tau_m
        ]

    return rk4_solve(IvpProblem(rhs, 0.0, (params.v_rest,), h, t_end))


def lti_step_response(k: float, tau: float, h: float, t_end: float) -> Trajectory:
    """Unit-step response of tau y' + y = k from rest (y(0) = 0)."""
    tau = _positive(tau, "tau")

    def rhs(t, y):
        return [(k - y[0]) / tau]

    return rk4_solve(IvpProblem(rhs, 0.0, (0.0,), h, t_end))


def heat1d_explicit(
    p: HeatProblem, snapshot_every: Optional[int] = None
) -> HeatResult:
    """March the explicit heat scheme for nt steps and return u(x, T).

    Interior points get u_i += r (u_{i+1} - 2 u_i + u_{i-1}) with
    r = alpha dt/dx^2; the two boundary values never change from u0
    (Dirichlet). snapshot_every > 0 also records every k-th profile.
    """
    if snapshot_every is not None:
        _count(snapshot_every, "snapshot_every", 1)
    xs = [i * p.dx for i in range(p.nx)]
    xs[-1] = p.length
    u = [float(p.u0(x)) for x in xs]
    r = p.stability_factor
    shots = []
    for n in range(1, p.nt + 1):
        nxt = list(u)
        for i in range(1, p.nx - 1):
            nxt[i] = u[i] + r * (u[i + 1] - 2.0 * u[i] + u[i - 1])
        u = nxt
        if snapshot_every and n % snapshot_every == 0:
            shots.append((n * p.dt, Vector(u)))
    return HeatResult(tuple(xs), Vector(u), tuple(shots))

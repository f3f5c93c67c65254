"""Scalar and vector root finding.

Bisection, Newton (analytic or finite-difference derivative), secant, and
fixed-point iteration for scalars; Newton and Broyden for square nonlinear
systems. Finders return a RootReport on success and raise MaxIterations when
the budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from . import lindecomp
from .errors import (
    FlatSecant,
    MaxIterations,
    NonFinite,
    NoSignChange,
    Singular,
    SingularApproximation,
    SingularJacobian,
    ZeroDerivative,
)
from .ndcore import (
    Matrix,
    Vector,
    _bounded,
    _checked_float,
    _dot,
    _matvec,
    _norm2,
    _norm_inf,
    _vec,
)


@dataclass(frozen=True)
class RootReport:
    root: Union[float, Vector]
    iterations: int
    residual: float
    converged: bool


def bisection(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-5,
    max_iter: int = 100,
) -> RootReport:
    """Halve [a, b] keeping a sign change; return the midpoint at tolerance."""
    a, b = _checked_float(a, "a"), _checked_float(b, "b")
    fa, fb = f(a), f(b)
    if fa * fb >= 0:
        raise NoSignChange("f(a) and f(b) must have opposite signs")
    for k in range(1, max_iter + 1):
        c = (a + b) / 2.0
        fc = f(c)
        if fc == 0.0 or (b - a) / 2.0 <= tol:
            return RootReport(c, k, abs(fc), True)
        if fa * fc < 0:
            b = c
        else:
            a, fa = c, fc
    raise MaxIterations(f"bisection did not converge in {max_iter} iterations")


def newton_scalar(
    f: Callable[[float], float],
    df: Optional[Callable[[float], float]],
    x0: float,
    tol: float = 1e-5,
    max_iter: int = 100,
) -> RootReport:
    """Newton steps x - f(x)/f'(x); df=None uses a central difference."""
    h = 1e-6
    x = _checked_float(x0, "x0")
    for k in range(1, max_iter + 1):
        d = df(x) if df is not None else (f(x + h) - f(x - h)) / (2.0 * h)
        if abs(d) < 1e-14:
            raise ZeroDerivative(f"derivative vanished at x={x}")
        x_new = x - f(x) / d
        if abs(x_new - x) < tol:
            return RootReport(x_new, k, abs(f(x_new)), True)
        x = x_new
    raise MaxIterations(f"newton did not converge in {max_iter} iterations")


def secant(
    f: Callable[[float], float],
    x0: float,
    x1: float,
    tol: float = 1e-5,
    max_iter: int = 100,
) -> RootReport:
    x0, x1 = _checked_float(x0, "x0"), _checked_float(x1, "x1")
    f0, f1 = f(x0), f(x1)
    for k in range(1, max_iter + 1):
        if abs(f1 - f0) < tol:
            raise FlatSecant("function values too close for a secant step")
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if abs(x2 - x1) < tol:
            return RootReport(x2, k, abs(f(x2)), True)
        f2 = f(x2)
        if f2 == 0.0:
            return RootReport(x2, k, 0.0, True)
        x0, f0, x1, f1 = x1, f1, x2, f2
    raise MaxIterations(f"secant did not converge in {max_iter} iterations")


def fixed_point(
    g: Callable[[float], float],
    x0: float,
    tol: float = 1e-5,
    max_iter: int = 100,
) -> RootReport:
    """Iterate x <- g(x) until the update defect |g(x) - x| drops below tol."""
    x = _checked_float(x0, "x0")
    for k in range(1, max_iter + 1):
        gx = g(x)
        if not _bounded((gx,)):
            raise NonFinite(f"iteration diverged at step {k}")
        if abs(gx - x) < tol:
            return RootReport(gx, k, abs(gx - x), True)
        x = gx
    raise MaxIterations(f"fixed point not reached in {max_iter} iterations")


VecFn = Callable[[Sequence[float]], Sequence[float]]


def _fd_jacobian(f_vec: VecFn, x: list[float], fx: list[float]) -> Matrix:
    h = 1e-7
    n = len(x)
    cols = []
    for j in range(n):
        xp = list(x)
        xp[j] += h
        fp = f_vec(xp)
        cols.append([(fp[i] - fx[i]) / h for i in range(n)])
    return Matrix.from_rows([[cols[j][i] for j in range(n)] for i in range(n)])


def newton_system(
    f_vec: VecFn,
    jac: Optional[Callable[[Sequence[float]], Matrix]],
    x0: Union[Vector, Sequence[float]],
    tol: float = 1e-6,
    max_iter: int = 100,
) -> RootReport:
    """Solve F(x)=0 by J delta = -F steps; stop when ||delta||_2 < tol."""
    # a copy: callbacks receive x, and may not reach a Vector's own list
    x = list(_vec(x0, "x0"))
    fx = [float(v) for v in f_vec(x)]
    if _norm_inf(fx) <= 1e-15:
        return RootReport(Vector(x), 0, _norm_inf(fx), True)
    for k in range(1, max_iter + 1):
        j = jac(x) if jac is not None else _fd_jacobian(f_vec, x, fx)
        try:
            delta = lindecomp.solve_direct(j, [-v for v in fx], "lu")
        except Singular as exc:
            raise SingularJacobian(str(exc)) from exc
        x = [xi + di for xi, di in zip(x, delta)]
        fx = [float(v) for v in f_vec(x)]
        if _norm_inf(fx) <= 1e-15:
            return RootReport(Vector(x), k, _norm_inf(fx), True)
        if _norm2(delta.data) < tol:
            return RootReport(Vector(x), k, _norm_inf(fx), True)
    raise MaxIterations(f"newton system did not converge in {max_iter} iterations")


def broyden(
    f_vec: VecFn,
    x0: Union[Vector, Sequence[float]],
    b0: Optional[Matrix] = None,
    tol: float = 1e-6,
    max_iter: int = 100,
) -> RootReport:
    """Quasi-Newton with the rank-one update B += ((y - B s) s^T)/(s^T s)."""
    x = list(_vec(x0, "x0"))
    n = len(x)
    jac = Matrix.identity(n) if b0 is None else b0
    fx = [float(v) for v in f_vec(x)]
    if _norm_inf(fx) <= 1e-15:
        return RootReport(Vector(x), 0, _norm_inf(fx), True)
    for k in range(1, max_iter + 1):
        try:
            s = lindecomp.solve_direct(jac, [-v for v in fx], "lu").data
        except Singular as exc:
            raise SingularApproximation(str(exc)) from exc
        x_new = [xi + si for xi, si in zip(x, s)]
        f_new = [float(v) for v in f_vec(x_new)]
        if _norm_inf(f_new) <= 1e-15:
            return RootReport(Vector(x_new), k, _norm_inf(f_new), True)
        if _norm2(s) < tol:
            return RootReport(Vector(x_new), k, _norm_inf(f_new), True)
        y = [a - b for a, b in zip(f_new, fx)]
        brows = jac.to_rows()
        bs = _matvec(brows, s)
        sts = _dot(s, s)
        upd = [
            [brows[i][j] + (y[i] - bs[i]) * s[j] / sts for j in range(n)]
            for i in range(n)
        ]
        jac = Matrix.from_rows(upd)
        x, fx = x_new, f_new
    raise MaxIterations(f"broyden did not converge in {max_iter} iterations")

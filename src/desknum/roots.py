"""Scalar and vector root finding.

Bisection, Newton (analytic or finite-difference derivative), secant, and
fixed-point iteration for scalars; Newton and Broyden for square nonlinear
systems. Finders return a RootReport on success and raise MaxIterations when
the budget runs out.

Newton and Broyden for systems, and optimize.newton_minimize, run one
iteration, `_newton`, and differ only in their Jacobian model: analytic,
forward differences, Broyden's rank-one secant update, or the Hessian.
Each model gives J as row lists (a caller's jac or hess through to_rows()),
which the loop requires finite and square, n x n for n unknowns and n
equations. Each step solves J s = -F by the LU of lindecomp on those rows;
the iteration stops when ||F||_inf <= 1e-15 (checked at x0 too) or
||s||_2 < tol.
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
    ShapeMismatch,
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
    _checked_floats,
    _count,
    _dot,
    _fd_columns,
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
    _count(max_iter, "max_iter")
    a, b = _checked_float(a, "a"), _checked_float(b, "b")
    fa, fb = _checked_float(f(a), "f(a)"), _checked_float(f(b), "f(b)")
    if fa * fb >= 0:
        raise NoSignChange("f(a) and f(b) must have opposite signs")
    for k in range(1, max_iter + 1):
        c = (a + b) / 2.0
        fc = _checked_float(f(c), "f(c)")
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
    _count(max_iter, "max_iter")
    x = _checked_float(x0, "x0")
    for k in range(1, max_iter + 1):
        d = df(x) if df is not None else _fd_columns(lambda v: [f(v[0])], [x], 1e-6)[0][0]
        d = _checked_float(d, "derivative")
        if abs(d) < 1e-14:
            raise ZeroDerivative(f"derivative vanished at x={x}")
        x_new = x - _checked_float(f(x), "f(x)") / d
        if abs(x_new - x) < tol:
            return RootReport(x_new, k, abs(_checked_float(f(x_new), "f(x)")), True)
        x = x_new
    raise MaxIterations(f"newton did not converge in {max_iter} iterations")


def secant(
    f: Callable[[float], float],
    x0: float,
    x1: float,
    tol: float = 1e-5,
    max_iter: int = 100,
) -> RootReport:
    _count(max_iter, "max_iter")
    x0, x1 = _checked_float(x0, "x0"), _checked_float(x1, "x1")
    f0, f1 = _checked_float(f(x0), "f(x0)"), _checked_float(f(x1), "f(x1)")
    for k in range(1, max_iter + 1):
        if abs(f1 - f0) < tol:
            raise FlatSecant("function values too close for a secant step")
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if abs(x2 - x1) < tol:
            return RootReport(x2, k, abs(_checked_float(f(x2), "f(x2)")), True)
        f2 = _checked_float(f(x2), "f(x2)")
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
    _count(max_iter, "max_iter")
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


def _newton(f_vec, model, x0, tol, max_iter, singular, stalled) -> RootReport:
    """The Newton iteration of the module docstring. model(x, F(x), s) gives
    the rows of J at x, where s is the step that led to x (None at x0);
    Singular is raised again as `singular`, and MaxIterations with
    stalled.format(max_iter)."""
    _count(max_iter, "max_iter")
    # a copy: callbacks receive x, and may not reach a Vector's own list
    x = list(_vec(x0, "x0"))
    fx = _checked_floats(f_vec(x), "F(x)")
    if _norm_inf(fx) <= 1e-15:
        return RootReport(Vector(x), 0, _norm_inf(fx), True)
    n, s = len(x), None
    for k in range(1, max_iter + 1):
        # J and the step pass the gates of a Matrix and a Vector
        j = [_checked_floats(row, "matrix data") for row in model(x, fx, s)]
        if {len(fx), len(j), *map(len, j)} != {n}:
            shape = f"{len(j)}x{len(j[0]) if j else 0} for F of length {len(fx)}"
            raise ShapeMismatch(f"Newton step needs a square Jacobian, got {shape} and x of length {n}")
        try:
            s = _checked_floats(lindecomp._lu_solve(j, [-v for v in fx]), "vector data")
        except Singular as exc:
            raise singular(str(exc)) from exc
        x = [xi + si for xi, si in zip(x, s)]
        fx = _checked_floats(f_vec(x), "F(x)")
        if _norm_inf(fx) <= 1e-15 or _norm2(s, "Newton step") < tol:
            return RootReport(Vector(x), k, _norm_inf(fx), True)
    raise MaxIterations(stalled.format(max_iter))


def newton_system(
    f_vec: VecFn,
    jac: Optional[Callable[[Sequence[float]], Matrix]],
    x0: Union[Vector, Sequence[float]],
    tol: float = 1e-6,
    max_iter: int = 100,
) -> RootReport:
    """Solve F(x)=0 by J delta = -F steps; stop when ||delta||_2 < tol."""
    if jac is None:
        model = lambda x, fx, s: zip(*_fd_columns(f_vec, x, 1e-7, fx))  # noqa: E731
    else:
        model = lambda x, fx, s: jac(x).to_rows()  # noqa: E731
    stalled = "newton system did not converge in {} iterations"
    return _newton(f_vec, model, x0, tol, max_iter, SingularJacobian, stalled)


def broyden(
    f_vec: VecFn,
    x0: Union[Vector, Sequence[float]],
    b0: Optional[Matrix] = None,
    tol: float = 1e-6,
    max_iter: int = 100,
) -> RootReport:
    """Quasi-Newton with the rank-one update B += ((y - B s) s^T)/(s^T s)."""
    rows = (Matrix.identity(len(_vec(x0, "x0"))) if b0 is None else b0).to_rows()
    f_old: list[float] = []

    def secant_model(x, fx, s):
        # s, the step to x, did not stop the iteration: ||s||_2 >= tol
        if s is not None:
            bs, sts = _matvec(rows, s), _dot(s, s)
            for row, fi, fo, bsi in zip(rows, fx, f_old, bs):
                r = fi - fo - bsi
                row[:] = [b + r * sj / sts for b, sj in zip(row, s)]
        f_old[:] = fx
        return rows

    stalled = "broyden did not converge in {} iterations"
    return _newton(f_vec, secant_model, x0, tol, max_iter, SingularApproximation, stalled)

"""Polynomial, spline, and piecewise linear interpolation.

Lagrange and Newton divided-difference forms build the same unique
polynomial; both are provided because their evaluation costs differ
(Lagrange is O(n^2) per query, Newton is O(n) after an O(n^2) build).
Cubic splines use natural boundary conditions (second derivative zero
at both ends). Piecewise linear evaluation clamps outside the hull.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DuplicateKnots,
    SizeMismatch,
    TooFewPoints,
    UnsortedKnots,
)
from .ndcore import _checked_float, _vec

# knots closer than this are considered the same point
_KNOT_TOL = 1e-12


def _as_points(xs: Sequence[float], ys: Sequence[float]):
    kx = _vec(xs, "xs")
    ky = _vec(ys, "ys")
    if len(kx) != len(ky):
        raise SizeMismatch(f"{len(kx)} knots but {len(ky)} values")
    return kx, ky


def _check_distinct(xs: Sequence[float]) -> None:
    ordered = sorted(xs)
    for a, b in zip(ordered, ordered[1:]):
        if abs(b - a) < _KNOT_TOL:
            raise DuplicateKnots(f"knots {a} and {b} coincide")


def _check_increasing(xs: Sequence[float]) -> None:
    for a, b in zip(xs, xs[1:]):
        if b - a < _KNOT_TOL:
            raise UnsortedKnots("knots must be strictly increasing")


@dataclass(frozen=True)
class DividedDiffPoly:
    """Newton-form interpolant; coeffs[k] is the k-th divided difference."""

    xs: tuple[float, ...]
    coeffs: tuple[float, ...]


@dataclass(frozen=True)
class CubicSpline:
    """Natural cubic spline: on [xs[i], xs[i+1]] the piece is
    a + b*t + c*t^2 + d*t^3 with t = x - xs[i]."""

    xs: tuple[float, ...]
    coeffs: tuple[tuple[float, float, float, float], ...]


def lagrange_eval(xs: Sequence[float], ys: Sequence[float], x: float) -> float:
    """Evaluate the unique interpolating polynomial at x via the basis
    product formula. Exact at the knots by construction."""
    x = _checked_float(x, "x")
    kx, ky = _as_points(xs, ys)
    _check_distinct(kx)
    total = 0.0
    for i, (xi, yi) in enumerate(zip(kx, ky)):
        basis = 1.0
        for j, xj in enumerate(kx):
            if j != i:
                basis *= (x - xj) / (xi - xj)
        total += yi * basis
    return _checked_float(total, "interpolated value")


def newton_dd_build(xs: Sequence[float], ys: Sequence[float]) -> DividedDiffPoly:
    kx, ky = _as_points(xs, ys)
    _check_distinct(kx)
    # column-by-column divided-difference table, kept in place
    table = list(ky)
    coeffs = [table[0]]
    for order in range(1, len(kx)):
        for i in range(len(kx) - order):
            table[i] = (table[i + 1] - table[i]) / (kx[i + order] - kx[i])
        coeffs.append(table[0])
    return DividedDiffPoly(tuple(kx), tuple(coeffs))


def newton_dd_eval(p: DividedDiffPoly, x: float) -> float:
    x = _checked_float(x, "x")
    result = p.coeffs[-1]
    for i in range(len(p.coeffs) - 2, -1, -1):
        result = result * (x - p.xs[i]) + p.coeffs[i]
    return result


def cubic_spline_build(xs: Sequence[float], ys: Sequence[float]) -> CubicSpline:
    kx, ky = _as_points(xs, ys)
    if len(kx) < 3:
        raise TooFewPoints("cubic spline needs at least 3 knots")
    _check_increasing(kx)
    n = len(kx) - 1
    h = [kx[i + 1] - kx[i] for i in range(n)]
    a = list(ky)

    # natural boundary: c[0] = c[n] = 0, interior c from the
    # tridiagonal continuity system, solved by a forward sweep
    alpha = [0.0] * (n + 1)
    for i in range(1, n):
        alpha[i] = 3.0 * (a[i + 1] - a[i]) / h[i] - 3.0 * (a[i] - a[i - 1]) / h[i - 1]
    ell = [1.0] * (n + 1)
    mu = [0.0] * (n + 1)
    z = [0.0] * (n + 1)
    for i in range(1, n):
        ell[i] = 2.0 * (kx[i + 1] - kx[i - 1]) - h[i - 1] * mu[i - 1]
        mu[i] = h[i] / ell[i]
        z[i] = (alpha[i] - h[i - 1] * z[i - 1]) / ell[i]

    c = [0.0] * (n + 1)
    b = [0.0] * n
    d = [0.0] * n
    for j in range(n - 1, -1, -1):
        c[j] = z[j] - mu[j] * c[j + 1]
        b[j] = (a[j + 1] - a[j]) / h[j] - h[j] * (c[j + 1] + 2.0 * c[j]) / 3.0
        d[j] = (c[j + 1] - c[j]) / (3.0 * h[j])

    pieces = tuple((a[j], b[j], c[j], d[j]) for j in range(n))
    return CubicSpline(tuple(kx), pieces)


def _segment(xs: Sequence[float], x: float) -> int:
    i = bisect.bisect_right(xs, x) - 1
    return max(0, min(i, len(xs) - 2))


def cubic_spline_eval(s: CubicSpline, x: float) -> float:
    """Evaluate the spline; outside the hull the boundary piece is
    extended as-is (cubic extrapolation)."""
    x = _checked_float(x, "x")
    i = _segment(s.xs, x)
    a, b, c, d = s.coeffs[i]
    t = x - s.xs[i]
    return a + t * (b + t * (c + t * d))


def linear_interp(xs: Sequence[float], ys: Sequence[float], x: float) -> float:
    x = _checked_float(x, "x")
    kx, ky = _as_points(xs, ys)
    if len(kx) < 2:
        raise TooFewPoints("piecewise linear interpolation needs 2 knots")
    _check_increasing(kx)
    if x <= kx[0]:
        return ky[0]
    if x >= kx[-1]:
        return ky[-1]
    i = _segment(kx, x)
    frac = (x - kx[i]) / (kx[i + 1] - kx[i])
    return ky[i] + (ky[i + 1] - ky[i]) * frac

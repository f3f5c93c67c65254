"""Finite-difference derivatives and one-dimensional quadrature.

Integration rules: composite trapezoid (callable or sampled data),
composite Simpson, and Gauss-Legendre. Gauss nodes are found at runtime
by Newton iteration on the Legendre recurrence, so no tabulated
constants are needed; rules are memoized per order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    BadOrder,
    BadPartition,
    NonFinite,
    OddPartition,
    ShapeMismatch,
    TooFewPoints,
    UnsortedKnots,
)
from .ndcore import _checked_float, _fsum, _vec

Fn = Callable[[float], float]

_SCHEMES = ("forward", "backward", "central")

_MAX_GAUSS_ORDER = 64


def finite_diff(f: Fn, x: float, h: float = 1e-5, scheme: str = "central") -> float:
    """Difference quotient of f at x. central is second order in h,
    forward and backward are first order."""
    x, h = _checked_float(x, "x"), _checked_float(h, "h")
    if h <= 0:
        raise ValueError("step h must be positive")
    if scheme == "forward":
        d = (f(x + h) - f(x)) / h
    elif scheme == "backward":
        d = (f(x) - f(x - h)) / h
    elif scheme == "central":
        d = (f(x + h) - f(x - h)) / (2.0 * h)
    else:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {_SCHEMES}")
    return _checked_float(d, f"{scheme} difference quotient")


def _width(a: float, b: float) -> float:
    w = b - a
    if math.isinf(w):
        raise NonFinite(f"interval width b - a overflows for a = {a!r}, b = {b!r}")
    return w


def trapezoid_fn(f: Fn, a: float, b: float, n: int) -> float:
    a, b = _checked_float(a, "a"), _checked_float(b, "b")
    if n < 1:
        raise BadPartition("need at least one subinterval")
    if not a < b:
        raise BadPartition("need a < b")
    h = _width(a, b) / n
    # f's values are listed first, so f's own errors pass the sum's gate
    interior = _fsum([f(a + i * h) for i in range(1, n)], "trapezoid sum")
    return _checked_float((h / 2.0) * (f(a) + 2.0 * interior + f(b)), "trapezoid rule")


def trapezoid_samples(xs: Sequence[float], ys: Sequence[float]) -> float:
    xs = _vec(xs, "xs")
    ys = _vec(ys, "ys")
    if len(xs) != len(ys):
        raise ShapeMismatch(f"{len(xs)} abscissae but {len(ys)} ordinates")
    if len(xs) < 2:
        raise TooFewPoints("need at least two samples")
    for p, q in zip(xs, xs[1:]):
        if q < p:
            raise UnsortedKnots("sample abscissae must be nondecreasing")
    terms = [(xs[i + 1] - xs[i]) * (ys[i] + ys[i + 1]) / 2.0 for i in range(len(xs) - 1)]
    return _fsum(terms, "trapezoid sum")


def simpson(f: Fn, a: float, b: float, n: int) -> float:
    a, b = _checked_float(a, "a"), _checked_float(b, "b")
    if n % 2 != 0:
        raise OddPartition("n must be even")
    if n < 2:
        raise BadPartition("need at least two subintervals")
    if not a < b:
        raise BadPartition("need a < b")
    h = _width(a, b) / n
    acc = [f(a), f(b)]
    acc.extend(4.0 * f(a + i * h) for i in range(1, n, 2))
    acc.extend(2.0 * f(a + i * h) for i in range(2, n, 2))
    return _checked_float((h / 3.0) * _fsum(acc, "simpson sum"), "simpson rule")


@dataclass(frozen=True)
class GaussRule:
    """Gauss-Legendre nodes and weights on [-1, 1]."""

    n: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]


def _legendre_pair(n: int, x: float) -> tuple[float, float]:
    # returns (P_n(x), P_n'(x)) via the three-term recurrence
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@functools.lru_cache(maxsize=None)
def gauss_rule(n: int) -> GaussRule:
    if not 1 <= n <= _MAX_GAUSS_ORDER:
        raise BadOrder(f"order must be in [1, {_MAX_GAUSS_ORDER}], got {n}")
    nodes = []
    weights = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre_pair(n, x)
            step = p / dp
            x -= step
            if abs(step) < 1e-15:
                break
        _, dp = _legendre_pair(n, x)
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return GaussRule(n, tuple(nodes), tuple(weights))


def gauss_legendre(f: Fn, a: float, b: float, n: int) -> float:
    a, b = _checked_float(a, "a"), _checked_float(b, "b")
    rule = gauss_rule(n)
    mid = (a + b) / 2.0
    half = _width(a, b) / 2.0
    terms = [w * f(mid + half * x) for x, w in zip(rule.nodes, rule.weights)]
    return _checked_float(half * _fsum(terms, "gauss_legendre sum"), "gauss_legendre rule")

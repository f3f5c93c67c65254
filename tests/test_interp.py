"""Interpolation tests with independent polynomial and sine oracles."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desknum import interp
from desknum.errors import (
    DuplicateKnots,
    SizeMismatch,
    TooFewPoints,
    UnsortedKnots,
)

import oracles


def vandermonde_eval(xs, ys, x):
    """Oracle: solve the Vandermonde system exactly and evaluate, rounded once."""
    coeff = oracles.solve([[Fraction(xi) ** k for k in range(len(xs))] for xi in xs], ys)
    return float(sum(c * Fraction(x) ** k for k, c in enumerate(coeff)))


def separated_knots(rng, count, lo=-5.0, hi=5.0, min_gap=0.25):
    while True:
        pts = sorted(rng.uniform(lo, hi) for _ in range(count))
        if all(b - a >= min_gap for a, b in zip(pts, pts[1:])):
            return pts


# lagrange


def test_lagrange_golden_quadratic():
    xs, ys = [0.0, 1.0, 2.0], [1.0, 3.0, 2.0]
    oracle = vandermonde_eval(xs, ys, 1.5)
    assert abs(oracle - 2.875) <= 1e-12
    assert abs(interp.lagrange_eval(xs, ys, 1.5) - 2.875) <= 1e-12


def test_lagrange_exact_at_knots():
    xs, ys = [0.0, 1.0, 2.0, 3.5], [1.0, 3.0, 2.0, -4.0]
    for xi, yi in zip(xs, ys):
        assert interp.lagrange_eval(xs, ys, xi) == yi


def test_lagrange_single_point_is_constant():
    for x in (-10.0, 0.0, 3.7):
        assert interp.lagrange_eval([2.0], [5.5], x) == 5.5


def test_lagrange_duplicate_knots():
    with pytest.raises(DuplicateKnots):
        interp.lagrange_eval([0.0, 1.0, 1.0 + 1e-13], [1.0, 2.0, 3.0], 0.5)


def test_lagrange_length_mismatch():
    with pytest.raises(SizeMismatch):
        interp.lagrange_eval([0.0, 1.0], [1.0], 0.5)


# newton divided differences


def test_newton_dd_golden_matches_lagrange():
    xs, ys = [0.0, 1.0, 2.0], [1.0, 3.0, 2.0]
    p = interp.newton_dd_build(xs, ys)
    assert abs(interp.newton_dd_eval(p, 1.5) - 2.875) <= 1e-12


def test_newton_dd_leading_coefficient_is_first_value():
    p = interp.newton_dd_build([1.0, 2.0, 4.0], [7.0, -1.0, 3.0])
    assert p.coeffs[0] == 7.0


def test_newton_dd_two_points_midpoint():
    p = interp.newton_dd_build([0.0, 2.0], [1.0, 5.0])
    assert interp.newton_dd_eval(p, 1.0) == 3.0


def test_newton_dd_reproduces_knots():
    rng = random.Random(7)
    xs = separated_knots(rng, 6)
    ys = [rng.uniform(-5, 5) for _ in xs]
    p = interp.newton_dd_build(xs, ys)
    for xi, yi in zip(xs, ys):
        assert abs(interp.newton_dd_eval(p, xi) - yi) <= 1e-10


def test_lagrange_newton_agree_on_random_cases():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randint(2, 8)
        xs = separated_knots(rng, n)
        ys = [rng.uniform(-5, 5) for _ in xs]
        x = rng.uniform(xs[0], xs[-1])
        p = interp.newton_dd_build(xs, ys)
        assert abs(interp.lagrange_eval(xs, ys, x) - interp.newton_dd_eval(p, x)) <= 1e-9


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_polynomial_reproduction(degree, seed):
    rng = random.Random(seed)
    coeffs = [rng.uniform(-2, 2) for _ in range(degree + 1)]

    def poly(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    xs = separated_knots(rng, degree + 1, lo=-3.0, hi=3.0, min_gap=0.3)
    ys = [poly(x) for x in xs]
    p = interp.newton_dd_build(xs, ys)
    for _ in range(20):
        x = rng.uniform(xs[0], xs[-1])
        assert abs(interp.newton_dd_eval(p, x) - poly(x)) < 1e-8
        assert abs(interp.lagrange_eval(xs, ys, x) - poly(x)) < 1e-8


# cubic splines


def spline_second_derivative(s, i, t):
    _, _, c, d = s.coeffs[i]
    return 2.0 * c + 6.0 * d * t


def test_spline_reproduces_knots():
    xs = [i * math.pi / 8 for i in range(9)]
    ys = [math.sin(x) for x in xs]
    s = interp.cubic_spline_build(xs, ys)
    for xi, yi in zip(xs, ys):
        assert abs(interp.cubic_spline_eval(s, xi) - yi) <= 1e-12


def test_spline_is_line_for_linear_data():
    xs = [0.0, 1.0, 2.0, 4.0, 7.0]
    ys = [2.0 * x + 1.0 for x in xs]
    s = interp.cubic_spline_build(xs, ys)
    for x in [-2.0, 0.0, 0.3, 1.5, 3.9, 6.2, 7.0, 9.5]:
        assert abs(interp.cubic_spline_eval(s, x) - (2.0 * x + 1.0)) <= 1e-10


def test_spline_sine_midpoint_error():
    xs = [i * math.pi / 8 for i in range(9)]
    ys = [math.sin(x) for x in xs]
    s = interp.cubic_spline_build(xs, ys)
    worst = 0.0
    for k in range(100):
        x = (k + 0.5) * math.pi / 100
        worst = max(worst, abs(interp.cubic_spline_eval(s, x) - math.sin(x)))
    assert worst < 1e-3


def test_spline_c2_continuity_and_natural_ends():
    rng = random.Random(3)
    xs = separated_knots(rng, 7, lo=0.0, hi=10.0, min_gap=0.5)
    ys = [rng.uniform(-3, 3) for _ in xs]
    s = interp.cubic_spline_build(xs, ys)
    n = len(xs) - 1
    for i in range(n - 1):
        h = xs[i + 1] - xs[i]
        left = spline_second_derivative(s, i, h)
        right = spline_second_derivative(s, i + 1, 0.0)
        assert abs(left - right) < 1e-9
    assert abs(spline_second_derivative(s, 0, 0.0)) < 1e-9
    assert abs(spline_second_derivative(s, n - 1, xs[n] - xs[n - 1])) < 1e-9


def test_spline_first_derivative_continuity():
    rng = random.Random(5)
    xs = separated_knots(rng, 6, lo=-4.0, hi=4.0, min_gap=0.5)
    ys = [rng.uniform(-3, 3) for _ in xs]
    s = interp.cubic_spline_build(xs, ys)
    for i in range(len(xs) - 2):
        h = xs[i + 1] - xs[i]
        _, b, c, d = s.coeffs[i]
        left = b + 2.0 * c * h + 3.0 * d * h * h
        right = s.coeffs[i + 1][1]
        assert abs(left - right) < 1e-9


def test_spline_errors():
    with pytest.raises(TooFewPoints):
        interp.cubic_spline_build([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(UnsortedKnots):
        interp.cubic_spline_build([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])


# piecewise linear


def test_linear_interp_golden():
    xs, ys = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 0.0, 3.0]
    assert interp.linear_interp(xs, ys, 0.5) == 1.5
    assert interp.linear_interp(xs, ys, 2.5) == 1.5


def test_linear_interp_knots_exact():
    xs, ys = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 0.0, 3.0]
    for xi, yi in zip(xs, ys):
        assert interp.linear_interp(xs, ys, xi) == yi


def test_linear_interp_clamps():
    xs, ys = [0.0, 1.0, 2.0], [4.0, -1.0, 2.0]
    assert interp.linear_interp(xs, ys, -5.0) == 4.0
    assert interp.linear_interp(xs, ys, 99.0) == 2.0


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=50, deadline=None)
def test_linear_interp_monotone_within_segment(t1, t2):
    xs, ys = [0.0, 1.0, 3.0], [1.0, 5.0, 2.0]
    lo, hi = sorted((t1, t2))
    v_lo = interp.linear_interp(xs, ys, lo)
    v_hi = interp.linear_interp(xs, ys, hi)
    assert v_lo <= v_hi + 1e-12


def test_linear_interp_unsorted():
    with pytest.raises(UnsortedKnots):
        interp.linear_interp([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], 0.5)

"""Quadrature and finite-difference tests against closed-form oracles."""

import math

import pytest

from desknum import quadrature
from desknum.errors import (
    BadOrder,
    BadPartition,
    NonFinite,
    OddPartition,
    ShapeMismatch,
    UnsortedKnots,
)


# finite differences


def test_central_diff_sin():
    got = quadrature.finite_diff(math.sin, math.pi / 4, 1e-5, "central")
    assert abs(got - math.cos(math.pi / 4)) <= 1e-8


def test_forward_diff_bivariate_partials():
    # partials of x^2 + 3xy + y^2 at (1,2) are 8 (in x) and 7 (in y);
    # a forward quotient adds h times half the pure second derivative (=1)
    def f2(x, y):
        return x * x + 3 * x * y + y * y

    dx = quadrature.finite_diff(lambda x: f2(x, 2.0), 1.0, 1e-5, "forward")
    dy = quadrature.finite_diff(lambda y: f2(1.0, y), 2.0, 1e-5, "forward")
    assert abs(dx - 8.00001) <= 1e-4
    assert abs(dy - 7.00001) <= 1e-4


def test_backward_diff_linear_exactish():
    got = quadrature.finite_diff(lambda x: 3.0 * x - 1.0, 2.0, 1e-5, "backward")
    assert abs(got - 3.0) <= 1e-9


def test_any_scheme_constant_is_zero():
    for scheme in ("forward", "backward", "central"):
        assert quadrature.finite_diff(lambda x: 4.25, 1.3, 1e-5, scheme) == 0.0


@pytest.mark.parametrize("scheme", ["forward", "backward", "central"])
def test_finite_diff_overflow_raises_nonfinite(scheme):
    # x +- h is finite, but f there overflows; central would return inf - inf
    with pytest.raises(NonFinite, match=f"{scheme} difference quotient"):
        quadrature.finite_diff(lambda x: x * x, 1.0, 1e308, scheme)


def test_finite_diff_argument_errors():
    with pytest.raises(ValueError):
        quadrature.finite_diff(math.sin, 0.0, 0.0, "central")
    with pytest.raises(ValueError):
        quadrature.finite_diff(math.sin, 0.0, 1e-5, "sideways")


def test_central_diff_is_second_order():
    exact = math.cos(math.pi / 4)
    h = 1e-3
    prev = abs(quadrature.finite_diff(math.sin, math.pi / 4, h, "central") - exact)
    for _ in range(5):
        h /= 2.0
        cur = abs(quadrature.finite_diff(math.sin, math.pi / 4, h, "central") - exact)
        ratio = prev / cur
        assert 3.2 <= ratio <= 4.8
        prev = cur


# trapezoid


def test_trapezoid_sin_golden():
    assert abs(quadrature.trapezoid_fn(math.sin, 0.0, math.pi, 1000) - 2.0) <= 2e-6


def test_trapezoid_constant_exact():
    got = quadrature.trapezoid_fn(lambda x: 3.5, 1.0, 4.0, 7)
    assert got == 3.5 * 3.0


def test_trapezoid_linear_exact_any_n():
    for n in (1, 2, 5, 17):
        got = quadrature.trapezoid_fn(lambda x: 2.0 * x + 1.0, 0.0, 4.0, n)
        assert abs(got - 20.0) <= 1e-12


def test_trapezoid_bad_partition():
    with pytest.raises(BadPartition):
        quadrature.trapezoid_fn(math.sin, 0.0, 1.0, 0)
    with pytest.raises(BadPartition):
        quadrature.trapezoid_fn(math.sin, 1.0, 0.0, 10)


def test_trapezoid_samples_auc():
    fpr = [0.0, 0.1, 0.4, 0.8, 1.0]
    tpr = [0.0, 0.4, 0.7, 0.9, 1.0]
    by_hand = math.fsum(
        (fpr[i + 1] - fpr[i]) * (tpr[i] + tpr[i + 1]) / 2.0 for i in range(4)
    )
    got = quadrature.trapezoid_samples(fpr, tpr)
    assert got == by_hand
    assert abs(got - 0.695) <= 1e-12


def test_trapezoid_samples_two_points_and_zeros():
    assert quadrature.trapezoid_samples([0.0, 2.0], [1.0, 3.0]) == 4.0
    assert quadrature.trapezoid_samples([0.0, 1.0, 5.0], [0.0, 0.0, 0.0]) == 0.0


def test_trapezoid_samples_matches_fn_on_uniform_grid():
    n = 64
    xs = [i * math.pi / n for i in range(n + 1)]
    ys = [math.sin(x) for x in xs]
    diff = quadrature.trapezoid_samples(xs, ys) - quadrature.trapezoid_fn(
        math.sin, 0.0, math.pi, n
    )
    assert abs(diff) <= 1e-12


def test_trapezoid_samples_errors():
    with pytest.raises(ShapeMismatch):
        quadrature.trapezoid_samples([0.0, 1.0], [1.0])
    with pytest.raises(UnsortedKnots):
        quadrature.trapezoid_samples([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "xs,ys",
    [
        # these returned nan and inf
        ([0.0, 1.0], [math.nan, 1.0]),
        ([0.0, math.inf], [1.0, 1.0]),
        # finite samples whose width overflows
        ([-1e308, 1e308], [1.0, 1.0]),
    ],
)
def test_trapezoid_samples_never_returns_non_finite(xs, ys):
    with pytest.raises(NonFinite):
        quadrature.trapezoid_samples(xs, ys)


# simpson


def test_simpson_sin_golden():
    assert abs(quadrature.simpson(math.sin, 0.0, math.pi, 1000) - 2.0) <= 1e-10


def test_simpson_cubic_exact():
    assert quadrature.simpson(lambda x: x**3, 0.0, 2.0, 2) == 4.0


def test_simpson_square_golden():
    assert abs(quadrature.simpson(lambda x: x * x, 0.0, 3.0, 2) - 9.0) <= 1e-12
    assert abs(quadrature.simpson(lambda x: x * x, 0.0, 3.0, 100) - 9.0) <= 1e-12


def test_simpson_odd_partition():
    # n = 1 is named by its parity, not by the count's least of 1
    for n in (1, 3):
        with pytest.raises(OddPartition):
            quadrature.simpson(math.sin, 0.0, 1.0, n)


def test_simpson_bad_partition():
    with pytest.raises(BadPartition):
        quadrature.simpson(math.sin, 1.0, 0.0, 4)


def test_richardson_ratios():
    def trap_err(n):
        return abs(quadrature.trapezoid_fn(math.sin, 0.0, math.pi, n) - 2.0)

    def simp_err(n):
        return abs(quadrature.simpson(math.sin, 0.0, math.pi, n) - 2.0)

    for n in (64, 128):
        ratio = trap_err(n) / trap_err(2 * n)
        assert 4.0 * 0.85 <= ratio <= 4.0 * 1.15
    for n in (16, 32):
        ratio = simp_err(n) / simp_err(2 * n)
        assert 16.0 * 0.85 <= ratio <= 16.0 * 1.15


# gauss-legendre


def test_gauss_rule_invariants():
    for n in range(1, 21):
        rule = quadrature.gauss_rule(n)
        assert len(rule.nodes) == n and len(rule.weights) == n
        assert abs(math.fsum(rule.weights) - 2.0) <= 1e-12
        for x, w in zip(rule.nodes, rule.weights):
            assert -1.0 < x < 1.0
            assert w > 0.0
        for i in range(n):
            assert abs(rule.nodes[i] + rule.nodes[n - 1 - i]) <= 1e-12


def test_gauss_rule_cached():
    assert quadrature.gauss_rule(5) is quadrature.gauss_rule(5)


def test_gauss_odd_quintic_zero():
    assert abs(quadrature.gauss_legendre(lambda x: x**5, -1.0, 1.0, 3)) <= 1e-14


def test_gauss_quartic_golden():
    assert abs(quadrature.gauss_legendre(lambda x: x**4, -1.0, 1.0, 3) - 0.4) <= 1e-12


def test_gauss_sin_golden():
    assert abs(quadrature.gauss_legendre(math.sin, 0.0, math.pi, 8) - 2.0) <= 1e-10


def test_gauss_monomial_exactness():
    for n in range(1, 13):
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            got = quadrature.gauss_legendre(lambda x, k=k: x**k, -1.0, 1.0, n)
            assert abs(got - exact) <= 1e-12, (n, k)


def test_gauss_high_order_still_accurate():
    assert abs(quadrature.gauss_legendre(math.sin, 0.0, math.pi, 64) - 2.0) <= 1e-12


@pytest.mark.parametrize("f", [math.sin, lambda x: x], ids=["sin", "identity"])
@pytest.mark.parametrize(
    "rule", [quadrature.trapezoid_fn, quadrature.simpson, quadrature.gauss_legendre]
)
def test_overflowing_width_raises_nonfinite(rule, f):
    # both endpoints are finite, but b - a overflows to inf
    with pytest.raises(NonFinite, match="width"):
        rule(f, -1e308, 1e308, 4)
    # b - a is finite, but the weighted sum of |x| overflows
    with pytest.raises(NonFinite):
        rule(abs, -8e307, 8e307, 4)


def test_gauss_bad_order():
    with pytest.raises(BadOrder):
        quadrature.gauss_rule(0)
    with pytest.raises(BadOrder):
        quadrature.gauss_rule(65)

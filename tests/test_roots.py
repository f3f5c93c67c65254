"""Root finders: goldens, bracket invariants, empirical convergence orders."""

import math

import pytest

from desknum import lindecomp, optimize, roots
from desknum.errors import (
    FlatSecant,
    MaxIterations,
    NonFinite,
    NoSignChange,
    ShapeMismatch,
    SingularApproximation,
    SingularJacobian,
    ZeroDerivative,
)
from desknum.ndcore import Matrix

# closed form for the circle/parabola intersection in the first quadrant
X2_STAR = (math.sqrt(5) - 1) / 2
X1_STAR = math.sqrt(X2_STAR)


def circle_para(v):
    x, y = v[0], v[1]
    return [x * x + y * y - 1.0, x * x - y]


def circle_para_jac(v):
    x, y = v[0], v[1]
    return Matrix.from_rows([[2 * x, 2 * y], [2 * x, -1.0]])


def estimated_order(errors):
    es = [e for e in errors if 1e-12 < e < 0.9]
    assert len(es) >= 3, es
    e0, e1, e2 = es[-3], es[-2], es[-1]
    return math.log(e2 / e1) / math.log(e1 / e0)


# bisection


def test_bisection_golden():
    rep = roots.bisection(lambda x: x * x - 4, 1.0, 3.0, tol=1e-5)
    assert rep.converged
    assert abs(rep.root - 2.0) <= 1e-5
    assert rep.residual <= 10 * 1e-5 * (1 + abs(rep.root))


def test_bisection_odd_function():
    rep = roots.bisection(lambda x: x, -1.0, 2.0, tol=1e-6)
    assert abs(rep.root) <= 1e-5


def test_bisection_no_sign_change():
    with pytest.raises(NoSignChange):
        roots.bisection(lambda x: x * x + 1, 0.0, 1.0)


def test_bisection_bracket_invariant_exact():
    calls = []

    def f(x):
        calls.append(x)
        return x * x - 4

    roots.bisection(f, 1.0, 3.5, tol=1e-9, max_iter=100)
    assert calls[0] == 1.0 and calls[1] == 3.5
    mids = calls[2:]
    a, b = 1.0, 3.5

    def g(x):
        return x * x - 4

    for k, c in enumerate(mids, start=1):
        assert c == (a + b) / 2.0
        if g(a) * g(c) < 0:
            b = c
        else:
            a = c
        assert g(a) * g(b) <= 0
        assert (b - a) == 2.5 / 2.0**k


def test_bisection_max_iterations():
    with pytest.raises(MaxIterations):
        roots.bisection(lambda x: x, -1.0, 2.0, tol=1e-9, max_iter=3)


# newton


def test_newton_golden():
    rep = roots.newton_scalar(lambda x: x * x - 4, lambda x: 2 * x, 3.0, tol=1e-8)
    assert abs(rep.root - 2.0) <= 1e-8
    assert rep.converged


def test_newton_sqrt():
    rep = roots.newton_scalar(
        lambda x: x * x - 25, lambda x: 2 * x, 12.5, tol=1e-8
    )
    assert abs(rep.root - 5.0) <= 1e-10


def test_newton_fd_derivative_matches_analytic():
    rep_fd = roots.newton_scalar(lambda x: math.cos(x) - x, None, 1.0, tol=1e-10)
    rep_an = roots.newton_scalar(
        lambda x: math.cos(x) - x, lambda x: -math.sin(x) - 1, 1.0, tol=1e-10
    )
    assert abs(rep_fd.root - rep_an.root) <= 1e-8


def test_newton_linear_immediate():
    rep = roots.newton_scalar(lambda x: x - 4.0, lambda x: 1.0, 4.0)
    assert rep.iterations <= 1 and rep.root == 4.0


def test_newton_zero_derivative():
    with pytest.raises(ZeroDerivative):
        roots.newton_scalar(lambda x: x * x - 4, lambda x: 2 * x, 0.0)


def test_newton_max_iterations():
    # no real root; the step size never drops below 1
    with pytest.raises(MaxIterations):
        roots.newton_scalar(lambda x: x * x + 1, lambda x: 2 * x, 3.0)


def test_newton_order_at_least_quadratic_ish():
    xs = []

    def f(x):
        xs.append(x)
        return x * x - 4

    roots.newton_scalar(f, lambda x: 2 * x, 3.0, tol=1e-13)
    errors = [abs(x - 2.0) for x in xs]
    assert estimated_order(errors) >= 1.8


# secant


def test_secant_golden():
    rep = roots.secant(lambda x: x * x - 4, 1.0, 3.0, tol=1e-5)
    assert abs(rep.root - 2.0) <= 1e-5
    with pytest.raises(MaxIterations, match="^secant did not converge in 2 iterations$"):
        roots.secant(lambda x: x * x - 4, 1.0, 3.0, tol=1e-13, max_iter=2)


def test_secant_linear_one_step():
    rep = roots.secant(lambda x: 2 * x - 6, 0.0, 1.0)
    assert rep.iterations == 1 and rep.root == 3.0 and rep.residual == 0.0


def test_secant_flat():
    with pytest.raises(FlatSecant):
        roots.secant(lambda x: 1.0, 0.0, 1.0)


def test_secant_order_superlinear():
    xs = []

    def f(x):
        xs.append(x)
        return x * x - 4

    roots.secant(f, 1.0, 3.0, tol=1e-13)
    errors = [abs(x - 2.0) for x in xs]
    order = estimated_order(errors)
    assert 1.3 <= order <= 1.8


# fixed point


def test_fixed_point_golden():
    rep = roots.fixed_point(lambda x: 0.5 * (x + 4 / x), 3.0, tol=1e-5)
    assert abs(rep.root - 2.0) <= 1e-5


def test_fixed_point_identity():
    rep = roots.fixed_point(lambda x: x, 1.5)
    assert rep.iterations == 1 and rep.root == 1.5


def test_fixed_point_divergence():
    with pytest.raises(NonFinite):
        roots.fixed_point(lambda x: 2 * x, 1.0)


def test_fixed_point_max_iterations():
    # bounded non-contractive map: hops around without settling
    with pytest.raises(MaxIterations):
        roots.fixed_point(lambda x: 1.0 - x, 0.25, tol=1e-8)


# systems


def test_newton_system_golden_fd_and_analytic():
    for jac in (None, circle_para_jac):
        rep = roots.newton_system(circle_para, jac, [0.5, 0.5])
        assert rep.converged
        assert abs(rep.root[0] - X1_STAR) <= 1e-8
        assert abs(rep.root[1] - X2_STAR) <= 1e-8
        assert rep.residual <= 1e-8


def test_newton_system_linear_one_iteration():
    a = [[2.0, 1.0], [1.0, 3.0]]
    b = [4.0, 7.0]

    def f(v):
        return [
            a[0][0] * v[0] + a[0][1] * v[1] - b[0],
            a[1][0] * v[0] + a[1][1] * v[1] - b[1],
        ]

    rep = roots.newton_system(f, lambda v: Matrix.from_rows(a), [0.0, 0.0])
    assert rep.iterations == 1
    assert rep.root.data == [1.0, 2.0]


def line2(v):
    return [v[0] - 1.0, v[1] + 0.5]


@pytest.mark.parametrize(
    "solve",
    [
        lambda: roots.newton_system(lambda v: [v[0] - 1.0], None, [0.5, 0.5]),
        lambda: roots.newton_system(lambda v: [v[0] - 1.0, v[1], v[0] + v[1]], None, [0.5, 0.5]),
        lambda: roots.newton_system(line2, lambda v: Matrix(2, 3, range(1, 7)), [0.5, 0.5]),
        lambda: roots.newton_system(line2, lambda v: Matrix.identity(3), [0.5, 0.5]),
        lambda: roots.broyden(line2, [0.5, 0.5], b0=Matrix.identity(3)),
        lambda: optimize.newton_minimize(line2, lambda v: Matrix(1, 2, [1.0, 0.0]), [0.5, 0.5]),
    ],
    ids=["1x2", "3x2", "jac_2x3", "jac_3x3", "broyden_b0_3x3", "hess_1x2"],
)
def test_newton_system_fd_jacobian_of_non_square_system(solve):
    # the forward-difference Jacobian keeps F's shape, as an analytic one
    # does; F with fewer outputs than inputs once raised a bare IndexError.
    # A jac, b0 or hess whose shape does not match x fails the same check
    with pytest.raises(ShapeMismatch, match="square"):
        solve()


def test_newton_loop_solves_on_rows(monkeypatch):
    # each step is one LU solve on row lists, with no Matrix built
    def forbidden(*args, **kwargs):
        raise AssertionError("Matrix round trip in the Newton loop")

    monkeypatch.setattr(lindecomp, "solve_direct", forbidden)
    monkeypatch.setattr(Matrix, "from_rows", forbidden)
    for rep in (roots.newton_system(circle_para, None, [0.5, 0.5]), roots.broyden(circle_para, [0.5, 0.5])):
        assert abs(rep.root[0] - X1_STAR) <= 1e-6 and abs(rep.root[1] - X2_STAR) <= 1e-6


def test_newton_system_singular_jacobian():
    def f(v):
        return [v[0] ** 2, v[1] ** 2]

    def jz(v):
        return Matrix.from_rows([[0.0, 0.0], [0.0, 0.0]])

    with pytest.raises(SingularJacobian):
        roots.newton_system(f, jz, [1.0, 1.0])


def test_broyden_golden_and_agreement_with_newton():
    rep_b = roots.broyden(circle_para, [0.5, 0.5])
    assert rep_b.converged
    assert abs(rep_b.root[0] - X1_STAR) <= 1e-6
    assert abs(rep_b.root[1] - X2_STAR) <= 1e-6
    rep_n = roots.newton_system(circle_para, circle_para_jac, [0.5, 0.5])
    assert abs(rep_b.root[0] - rep_n.root[0]) <= 1e-6
    assert abs(rep_b.root[1] - rep_n.root[1]) <= 1e-6


def test_broyden_linear_exact_start():
    a = Matrix.from_rows([[2.0, 1.0], [1.0, 3.0]])

    def f(v):
        return [2 * v[0] + v[1] - 4, v[0] + 3 * v[1] - 7]

    rep = roots.broyden(f, [0.0, 0.0], b0=a)
    assert rep.iterations == 1
    assert rep.root.data == [1.0, 2.0]


def test_broyden_already_converged():
    rep = roots.broyden(circle_para, [X1_STAR, X2_STAR], tol=1e-6)
    assert rep.iterations == 0 or rep.residual <= 1e-9


def test_broyden_singular_start():
    with pytest.raises(SingularApproximation):
        roots.broyden(circle_para, [0.5, 0.5], b0=Matrix.zeros(2, 2))


def test_reports_residual_bound():
    reps = [
        roots.bisection(lambda x: x * x - 4, 1.0, 3.0, tol=1e-5),
        roots.newton_scalar(lambda x: x * x - 4, lambda x: 2 * x, 3.0),
        roots.secant(lambda x: x * x - 4, 1.0, 3.0),
        roots.fixed_point(lambda x: 0.5 * (x + 4 / x), 3.0),
    ]
    for rep in reps:
        assert rep.converged
        r = abs(rep.root) if isinstance(rep.root, float) else max(map(abs, rep.root))
        assert rep.residual <= 10 * 1e-5 * (1 + r) * 10

"""ODE/PDE integrator tests against closed-form solutions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desknum import dynamics as dyn
from desknum import roots
from desknum.errors import NewtonFailure, NonFinite, ShapeMismatch, Unstable


def decay(t):
    # dy/dt = -2y, y(0) = 1
    return math.exp(-2.0 * t)


def decay_rhs(t, y):
    return [-2.0 * y[0]]


def stiff_rhs(t, y):
    return [-1000.0 * y[0] + 3000.0 - 2000.0 * math.exp(-t)]


def stiff_exact(t):
    # solve y' + 1000y = 3000 - 2000 e^-t with y(0)=0: particular parts
    # 3 and -(2000/999) e^-t, homogeneous -(997/999) e^-1000t
    return (
        3.0
        - (2000.0 / 999.0) * math.exp(-t)
        - (997.0 / 999.0) * math.exp(-1000.0 * t)
    )


def solve(solver, f, y0, h, t_end):
    return solver(dyn.IvpProblem(f, 0.0, tuple(y0), h, t_end))


# grid and problem validation


def test_grid_uniform_spacing():
    tr = solve(dyn.euler_solve, decay_rhs, [1.0], 0.1, 1.0)
    assert len(tr.ts) == 11
    assert tr.ts[0] == 0.0 and tr.ts[-1] == 1.0
    for a, b in zip(tr.ts, tr.ts[1:]):
        assert abs((b - a) - 0.1) <= 1e-12
    assert tr.ys.rows == len(tr.ts)


def test_grid_short_last_step():
    tr = solve(dyn.euler_solve, lambda t, y: [1.0], [0.0], 0.3, 1.0)
    assert tr.ts[-1] == 1.0
    assert abs(tr.ts[-2] - 0.9) <= 1e-12
    # f = 1 integrated exactly by Euler regardless of the ragged step
    assert abs(tr.final[0] - 1.0) <= 1e-12


def test_problem_validation():
    f = decay_rhs
    with pytest.raises(ValueError):
        dyn.IvpProblem(f, 0.0, (1.0,), -0.1, 1.0)
    with pytest.raises(ValueError):
        dyn.IvpProblem(f, 0.0, (1.0,), 0.1, 0.0)
    with pytest.raises(ValueError):
        dyn.IvpProblem(f, 0.0, (1.0,), 2.0, 1.0)
    with pytest.raises(ValueError):
        # h within the old absolute 1e-12 slack of the span
        dyn.IvpProblem(f, 0.0, (1.0,), 5e-13, 1e-15)
    with pytest.raises(ShapeMismatch):
        dyn.IvpProblem(f, 0.0, (), 0.1, 1.0)


@pytest.mark.parametrize(
    "t0, h, t_end",
    [
        (math.nan, 0.1, 1.0),
        (0.0, math.nan, 1.0),
        (0.0, 0.1, math.nan),
        (-math.inf, 0.1, 1.0),
        (0.0, math.inf, 1.0),
        (0.0, 0.1, math.inf),
    ],
)
def test_problem_rejects_non_finite_times(t0, h, t_end):
    # h = nan used to pass and then fail in the grid's int() conversion;
    # the finiteness gate names the argument
    with pytest.raises(NonFinite, match="^(t0|h|t_end) is not finite: "):
        dyn.IvpProblem(decay_rhs, t0, (1.0,), h, t_end)


@pytest.mark.parametrize(
    "t0, h, t_end",
    [(0.0, 5e-324, 1.0), (-1e308, 1.0, 1e308), (0.0, 1e-200, 1.0), (0.0, 0.1, 1e10)],
)
def test_problem_rejects_a_span_of_too_many_steps(t0, h, t_end):
    # (t_end - t0) / h overflows, or is finite but would need a grid of up
    # to 1e200 points, built whole before the first step
    with pytest.raises(ValueError, match=r"^\(t_end - t0\) / h must be between 1 and 1000000$"):
        dyn.IvpProblem(decay_rhs, t0, (1.0,), h, t_end)


def test_problem_accepts_one_step_and_the_step_bound():
    for h, t_end in ((1.0, 1.0), (1.0, 1e6)):
        dyn.IvpProblem(decay_rhs, 0.0, (1.0,), h, t_end)


def test_rhs_shape_checked():
    bad = lambda t, y: [1.0, 2.0]
    with pytest.raises(ShapeMismatch):
        solve(dyn.euler_solve, bad, [0.0], 0.1, 1.0)


# explicit euler


def test_euler_decay_error_bound():
    tr = solve(dyn.euler_solve, decay_rhs, [1.0], 0.1, 1.0)
    assert abs(tr.final[0] - decay(1.0)) < 0.05


def test_euler_zero_rhs_constant():
    tr = solve(dyn.euler_solve, lambda t, y: [0.0, 0.0], [2.0, -3.0], 0.25, 2.0)
    for i in range(tr.ys.rows):
        assert tr.ys.row(i) == [2.0, -3.0]


def test_euler_first_order_ratio():
    def err(h):
        return abs(solve(dyn.euler_solve, decay_rhs, [1.0], h, 1.0).final[0] - decay(1.0))

    ratio = err(0.1) / err(0.05)
    assert 1.6 <= ratio <= 2.4


# rk4


def test_rk4_decay_error_bound():
    tr = solve(dyn.rk4_solve, decay_rhs, [1.0], 0.1, 1.0)
    assert abs(tr.final[0] - decay(1.0)) < 1e-5


def test_rk4_fourth_order_ratio():
    def err(h):
        return abs(solve(dyn.rk4_solve, decay_rhs, [1.0], h, 1.0).final[0] - decay(1.0))

    ratio = err(0.1) / err(0.05)
    assert 12.0 <= ratio <= 20.0


def test_rk4_exact_on_polynomial_rhs():
    # state-independent f(t) = t integrates to t^2/2 with zero
    # truncation error
    tr = solve(dyn.rk4_solve, lambda t, y: [t], [0.0], 0.25, 2.0)
    assert abs(tr.final[0] - 2.0) <= 1e-12


def test_rk4_zero_rhs_constant():
    tr = solve(dyn.rk4_solve, lambda t, y: [0.0], [5.0], 0.1, 1.0)
    assert all(v == 5.0 for v in tr.component(0))


def test_component_rejects_an_index_outside_the_state():
    # component(2) of a 2-component state once returned component 0 from
    # the second grid point on
    tr = solve(dyn.rk4_solve, lambda t, y: [0.0, 0.0], [5.0, 6.0], 0.5, 1.0)
    assert tr.component(1) == [6.0, 6.0, 6.0]
    for j in (2, -1):
        with pytest.raises(IndexError, match=rf"^column index must be in \[0, 1\], got {j}$"):
            tr.component(j)


# stiff problem: explicit blows up, implicit does not


def test_explicit_euler_diverges_on_stiff():
    # amplification per step is |1 - 1000 h| = 9 at h = 0.01
    with pytest.raises(NonFinite):
        solve(dyn.euler_solve, stiff_rhs, [0.0], 0.01, 5.0)


def test_backward_euler_tracks_stiff_solution():
    tr = solve(dyn.backward_euler_solve, stiff_rhs, [0.0], 0.01, 5.0)
    values = tr.component(0)
    assert max(abs(v) for v in values) < 10.0
    assert abs(tr.final[0] - stiff_exact(5.0)) < 0.01
    assert abs(tr.final[0] - 2.99328) < 0.02


def test_backward_euler_unconditionally_stable():
    for lam_h in (1.0, 10.0, 100.0):
        tr = solve(
            dyn.backward_euler_solve,
            lambda t, y, lam=lam_h: [-lam * y[0]],
            [1.0],
            1.0,
            20.0,
        )
        ys = tr.component(0)
        assert all(abs(a) >= abs(b) - 1e-15 for a, b in zip(ys, ys[1:]))


def test_backward_euler_zero_rhs():
    tr = solve(dyn.backward_euler_solve, lambda t, y: [0.0], [4.0], 0.5, 2.0)
    assert all(v == 4.0 for v in tr.component(0))


def test_backward_euler_calls_rhs_only_inside_newton(monkeypatch):
    # each step's Newton solve calls the rhs once at the start and n + 1
    # times per iteration (n finite-difference columns and the new point);
    # the step reads its residual from the report and makes no more calls
    calls, expected = [0], [0]

    def rhs(t, y):
        calls[0] += 1
        return [-50.0 * (y[0] - math.cos(t)), -2.0 * y[1] + 0.1 * y[0] ** 2]

    real = roots.newton_system

    def counted(*args, **kwargs):
        rep = real(*args, **kwargs)
        expected[0] += 1 + rep.iterations * 3
        return rep

    monkeypatch.setattr(roots, "newton_system", counted)
    tr = solve(dyn.backward_euler_solve, rhs, [1.0, 0.5], 0.1, 1.0)
    assert len(tr.ts) == 11
    assert calls[0] == expected[0]


def test_backward_euler_newton_failure():
    # f = 2y at h = 0.5 makes the implicit equation's derivative
    # 1 - h*2 = 0: the inner Newton sees a singular 1x1 Jacobian
    with pytest.raises(NewtonFailure):
        solve(dyn.backward_euler_solve, lambda t, y: [2.0 * y[0]], [1.0], 0.5, 2.0)


# leaky integrate-and-fire


def lif_closed_form(p, t):
    # tau dV/dt = -(V - V_rest) + R I from V(0) = V_rest
    return p.v_rest + p.r_m * p.current * (1.0 - math.exp(-t / p.tau_m))


def test_lif_settles_to_steady_state():
    p = dyn.LifParams(tau_m=10.0, v_rest=-65.0, r_m=10.0, current=20.0)
    tr = dyn.lif_simulate(p, 0.1, 100.0)
    assert abs(tr.final[0] - 135.0) < 0.5
    assert tr.ys.get(0, 0) == -65.0


def test_lif_matches_closed_form_everywhere():
    p = dyn.LifParams(tau_m=10.0, v_rest=-65.0, r_m=10.0, current=20.0)
    tr = dyn.lif_simulate(p, 0.1, 100.0)
    worst = max(
        abs(v - lif_closed_form(p, t)) for t, v in zip(tr.ts, tr.component(0))
    )
    assert worst <= 1e-6


def test_lif_one_time_constant():
    p = dyn.LifParams(tau_m=10.0, v_rest=-65.0, r_m=10.0, current=20.0)
    tr = dyn.lif_simulate(p, 0.1, 20.0)
    i = tr.ts.index(10.0)
    rise = tr.ys.get(i, 0) - p.v_rest
    target = (1.0 - math.exp(-1.0)) * p.r_m * p.current
    assert abs(rise - target) <= 0.01 * target


def test_lif_zero_current_stays_at_rest():
    p = dyn.LifParams(tau_m=10.0, v_rest=-65.0, r_m=10.0, current=0.0)
    tr = dyn.lif_simulate(p, 0.5, 20.0)
    assert all(v == -65.0 for v in tr.component(0))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-200.0, max_value=200.0, allow_nan=False))
def test_lif_translation_invariant_in_v_rest(shift):
    base = dyn.LifParams(tau_m=10.0, v_rest=-65.0, r_m=10.0, current=20.0)
    moved = dyn.LifParams(tau_m=10.0, v_rest=-65.0 + shift, r_m=10.0, current=20.0)
    a = dyn.lif_simulate(base, 0.5, 30.0).component(0)
    b = dyn.lif_simulate(moved, 0.5, 30.0).component(0)
    assert max(abs((x + shift) - y) for x, y in zip(a, b)) <= 1e-9


def test_lif_params_validation():
    with pytest.raises(ValueError):
        dyn.LifParams(tau_m=0.0, v_rest=-65.0, r_m=10.0, current=20.0)
    with pytest.raises(ValueError):
        dyn.LifParams(tau_m=10.0, v_rest=-65.0, r_m=-1.0, current=20.0)


# heat equation


def sine_bump(x):
    return math.sin(math.pi * x / 10.0)


def make_heat(nt=500):
    return dyn.HeatProblem(
        alpha=0.01, length=10.0, nx=100, nt=nt, t_total=1.0, u0=sine_bump
    )


def test_heat_matches_separated_solution():
    res = dyn.heat1d_explicit(make_heat())
    # u(x,t) = sin(pi x/L) e^{-alpha (pi/L)^2 t} solves the PDE with
    # these boundary values
    factor = math.exp(-0.01 * (math.pi / 10.0) ** 2 * 1.0)
    worst = max(
        abs(u - sine_bump(x) * factor) for x, u in zip(res.xs, res.u.data)
    )
    assert worst < 1e-2


def test_heat_boundaries_frozen():
    res = dyn.heat1d_explicit(make_heat())
    assert res.u.data[0] == sine_bump(0.0)
    assert res.u.data[-1] == sine_bump(10.0)


def test_heat_max_principle():
    res = dyn.heat1d_explicit(make_heat(), snapshot_every=50)
    peaks = [max(abs(v) for v in snap.data) for _, snap in res.snapshots]
    assert len(peaks) == 10
    assert all(a >= b - 1e-15 for a, b in zip(peaks, peaks[1:]))


def test_heat_zero_initial_condition():
    p = dyn.HeatProblem(
        alpha=0.01, length=10.0, nx=50, nt=100, t_total=1.0, u0=lambda x: 0.0
    )
    res = dyn.heat1d_explicit(p)
    assert all(v == 0.0 for v in res.u.data)


def test_heat_unstable_configuration():
    # alpha dt/dx^2 = 0.6 with dx = dt = 1
    with pytest.raises(Unstable) as exc:
        dyn.HeatProblem(
            alpha=0.6, length=2.0, nx=3, nt=1, t_total=1.0, u0=lambda x: 0.0
        )
    assert "unstable" in str(exc.value)


def test_heat_underflowing_dx_is_unstable():
    # dx = 5e-202, so dx^2 underflows to 0; the factor used to divide by it
    with pytest.raises(Unstable, match="dx\\^2 underflows to 0"):
        dyn.HeatProblem(0.01, 1e-200, 21, 100, 1.0, sine_bump)


def test_heat_validation():
    with pytest.raises(ValueError):
        dyn.HeatProblem(0.0, 10.0, 50, 100, 1.0, sine_bump)
    with pytest.raises(ValueError):
        dyn.HeatProblem(0.01, 10.0, 2, 100, 1.0, sine_bump)
    with pytest.raises(ValueError):
        dyn.HeatProblem(0.01, 10.0, 50, 0, 1.0, sine_bump)
    with pytest.raises(ValueError):
        dyn.heat1d_explicit(make_heat(), snapshot_every=0)


@pytest.mark.parametrize("nx, nt", [(21.0, 100), (21, 100.0), ("21", 100)],
                         ids=["float-nx", "float-nt", "str-nx"])
def test_heat_counts_must_be_ints(nx, nt):
    # accepted, a float count makes heat1d_explicit raise a bare TypeError
    # from range
    what, bad = ("nt", nt) if isinstance(nx, int) else ("nx", nx)
    with pytest.raises(ValueError, match=rf"^{what} must be an int, got {bad!r}$"):
        dyn.HeatProblem(0.01, 10.0, nx, nt, 1.0, sine_bump)


# first-order step response


def test_lti_reaches_dc_gain():
    k, tau = 2.0, 1.5
    tr = dyn.lti_step_response(k, tau, 0.01, 5.0 * tau)
    assert abs(tr.final[0] - k) < 0.01 * k


def test_lti_one_time_constant():
    k, tau = 2.0, 1.5
    tr = dyn.lti_step_response(k, tau, 0.01, 3.0)
    i = tr.ts.index(1.5)
    assert abs(tr.ys.get(i, 0) - k * (1.0 - math.exp(-1.0))) <= 1e-3


def test_lti_zero_gain():
    tr = dyn.lti_step_response(0.0, 1.0, 0.1, 2.0)
    assert all(v == 0.0 for v in tr.component(0))


def test_lti_validation():
    with pytest.raises(ValueError):
        dyn.lti_step_response(1.0, 0.0, 0.1, 1.0)

"""Matrix/vector kernel: goldens, error contracts, algebraic properties."""

import math
import random
from fractions import Fraction
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desknum import autodiff, dynamics, interp, lindecomp, microlearn, ndcore, optimize, quadrature, roots, spectral
from desknum.errors import (
    BadArchitecture,
    BadCutoff,
    BadKeep,
    BadOrder,
    BadPartition,
    BadRank,
    DivisionByZero,
    EmptyInput,
    NonFinite,
    RelativeUndefined,
    ShapeMismatch,
    SizeMismatch,
    ZeroNorm,
)
from desknum.ndcore import Matrix, Vector

import oracles
from pins import gauss_rows

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)

# magnitudes below ~1e-154 underflow when squared, so keep clear of them
nonunderflow_floats = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-100, max_value=1e6),
    st.floats(min_value=-1e6, max_value=-1e-100),
)


def assert_matrix_close(m: Matrix, rows, tol=1e-12):
    got = m.to_rows()
    assert len(got) == len(rows)
    for ra, rb in zip(got, rows):
        assert len(ra) == len(rb)
        for x, y in zip(ra, rb):
            assert abs(x - y) <= tol, (got, rows)


# construction and accessors


def test_matrix_rejects_non_finite():
    with pytest.raises(NonFinite):
        Matrix(1, 2, [1.0, float("nan")])
    with pytest.raises(NonFinite):
        Matrix.from_rows([[1.0, float("inf")]])
    with pytest.raises(NonFinite):
        Vector([float("-inf")])


# every caller input goes through ndcore._checked_floats, whose message
# names the input and its first non-finite entry

_W23 = Matrix.from_rows([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
_KNOTS = [0.0, 1.0, 2.0]

_NAMED_INPUTS = [
    pytest.param(lambda v: ndcore._checked_floats([1, v, math.nan], "values"), "values", id="checked_floats"),
    pytest.param(lambda v: spectral.convolve_direct([1.0, v], [1.0]), "f", id="convolve_direct-f"),
    pytest.param(lambda v: spectral.convolve_direct([1.0], [v]), "g", id="convolve_direct-g"),
    pytest.param(lambda v: spectral.convolve_fft([v], [1.0]), "f", id="convolve_fft-f"),
    pytest.param(lambda v: spectral.convolve_fft([1.0], [2.0, v]), "g", id="convolve_fft-g"),
    pytest.param(lambda v: spectral.convolve_circular([v], [1.0], 4), "f", id="convolve_circular-f"),
    pytest.param(lambda v: spectral.convolve_circular([1.0], [v], 4), "g", id="convolve_circular-g"),
    pytest.param(lambda v: spectral.lowpass1d([1.0, v, 0.0, 0.0], 8.0, 1.0), "signal", id="lowpass1d"),
    pytest.param(lambda v: spectral.spectrum([1.0, 0.0, v, 0.0], 0.1), "signal", id="spectrum"),
    pytest.param(lambda v: spectral.peak_frequency([v, 1.0, 0.0, -1.0], 8.0), "signal", id="peak_frequency"),
    pytest.param(lambda v: spectral.ComplexVec([v, 1.0], [0.0, 0.0]), "re", id="ComplexVec-re"),
    pytest.param(lambda v: spectral.ComplexVec([0.0, 1.0], [0.0, v]), "im", id="ComplexVec-im"),
    pytest.param(lambda v: spectral.Image2D(1, 2, [0.0, v]), "data", id="Image2D"),
    pytest.param(lambda v: interp.lagrange_eval([0.0, v], [1.0, 2.0], 0.5), "xs", id="lagrange_eval"),
    pytest.param(lambda v: interp.newton_dd_build(_KNOTS, [1.0, v, 2.0]), "ys", id="newton_dd_build"),
    pytest.param(lambda v: interp.cubic_spline_build([0.0, 1.0, v], [1.0, 2.0, 3.0]), "xs", id="cubic_spline_build"),
    pytest.param(lambda v: interp.linear_interp(_KNOTS, [v, 1.0, 2.0], 0.5), "ys", id="linear_interp"),
    pytest.param(lambda v: autodiff.record(lambda a, b: a * b, [1.0, v]), "inputs", id="record"),
    pytest.param(lambda v: autodiff.jacobian(lambda a: [a], [v]), "x", id="jacobian"),
    pytest.param(lambda v: autodiff.hessian_fd(lambda a: a * a, [v]), "x", id="hessian_fd"),
    pytest.param(lambda v: microlearn.affine(_W23, [v, 1.0], [0.0] * 3), "x", id="affine-x"),
    pytest.param(lambda v: microlearn.affine(_W23, [0.0, 1.0], [0.0, v, 0.0]), "b", id="affine-b"),
    pytest.param(lambda v: dynamics.IvpProblem(lambda t, y: y, 0.0, (v,), 0.1, 1.0), "y0", id="IvpProblem"),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call, what", _NAMED_INPUTS)
def test_non_finite_input_is_named_at_entry(call, what, bad):
    with pytest.raises(NonFinite) as info:
        call(bad)
    assert str(info.value) == f"{what} contains a non-finite entry: {bad!r}"


# scalar inputs go through ndcore._checked_float; before it, a NaN
# endpoint or start point was integrated, iterated or interpolated into a
# silent NaN, a bare ValueError or a misleading MaxIterations


def _x2m2(x):
    return x * x - 2.0


_SPLINE = interp.cubic_spline_build(_KNOTS, [1.0, 3.0, 2.0])

_NAMED_SCALARS = [
    pytest.param(lambda v: ndcore._checked_float(v, "value"), "value", id="checked_float"),
    pytest.param(lambda v: quadrature.finite_diff(math.sin, v), "x", id="finite_diff-x"),
    pytest.param(lambda v: quadrature.finite_diff(math.sin, 1.0, v), "h", id="finite_diff-h"),
    pytest.param(lambda v: autodiff.hessian_fd(lambda a: a * a, [1.0], v), "h", id="hessian_fd-h"),
    pytest.param(lambda v: quadrature.trapezoid_fn(math.sin, v, 1.0, 8), "a", id="trapezoid_fn"),
    pytest.param(lambda v: quadrature.simpson(math.sin, 0.0, v, 8), "b", id="simpson"),
    pytest.param(lambda v: quadrature.gauss_legendre(math.sin, v, 1.0, 4), "a", id="gauss_legendre"),
    pytest.param(lambda v: roots.bisection(_x2m2, v, 2.0), "a", id="bisection"),
    pytest.param(lambda v: roots.newton_scalar(_x2m2, None, v), "x0", id="newton_scalar"),
    pytest.param(lambda v: roots.secant(_x2m2, v, 2.0), "x0", id="secant"),
    pytest.param(lambda v: roots.fixed_point(math.cos, v), "x0", id="fixed_point"),
    pytest.param(lambda v: interp.lagrange_eval(_KNOTS, [1.0, 3.0, 2.0], v), "x", id="lagrange_eval"),
    pytest.param(
        lambda v: interp.newton_dd_eval(interp.newton_dd_build(_KNOTS, [1.0, 3.0, 2.0]), v),
        "x",
        id="newton_dd_eval",
    ),
    pytest.param(lambda v: interp.cubic_spline_eval(_SPLINE, v), "x", id="cubic_spline_eval"),
    pytest.param(lambda v: interp.linear_interp(_KNOTS, [1.0, 3.0, 2.0], v), "x", id="linear_interp"),
    pytest.param(lambda v: ndcore.ew_binary(_W23, v, "add"), "scalar operand", id="ew_binary"),
    pytest.param(lambda v: ndcore.error_metrics(v, 1.0), "exact", id="error_metrics-exact"),
    pytest.param(lambda v: ndcore.error_metrics(1.0, v), "approx", id="error_metrics-approx"),
    pytest.param(lambda v: spectral.fft_freqs(8, v), "sample spacing", id="fft_freqs"),
    pytest.param(lambda v: spectral.spectrum([1.0, 0.0, 2.0, 0.0], v), "sample spacing", id="spectrum-spacing"),
    pytest.param(lambda v: spectral.peak_frequency([0.0, 1.0, 0.0, -1.0], v), "sample rate", id="peak_frequency-rate"),
    pytest.param(lambda v: spectral.lowpass1d([1.0, 0.0, 2.0, 0.0], v, 1.0), "sample rate", id="lowpass1d-rate"),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call, what", _NAMED_SCALARS)
def test_non_finite_scalar_is_named_at_entry(call, what, bad):
    with pytest.raises(NonFinite) as info:
        call(bad)
    assert str(info.value) == f"{what} is not finite: {bad!r}"


# computed values go through ndcore._finite and ndcore._fsums: fsum's
# OverflowError (a finite sum past the float maximum) and ValueError
# (inf - inf), and a non-finite sum, all raise NonFinite naming the value


def test_computed_value_gate():
    assert ndcore._fsums([[1e308, -1e308, 1.0], [0.1] * 10], "sums") == [1.0, 1.0]
    assert ndcore._fsum(iter([2.0**-1074, 3.0]), "sum") == math.fsum([2.0**-1074, 3.0])
    cases = [
        ([[1.0], [1e308, 1e308]], "sums overflows"),
        ([[math.inf, -math.inf]], "sums overflows"),
        ([[1.0], [math.inf, 1.0]], "sums contains a non-finite entry: inf"),
        ([[math.nan]], "sums contains a non-finite entry: nan"),
    ]
    for groups, text in cases:
        with pytest.raises(NonFinite) as info:
            ndcore._fsums(groups, "sums")
        assert str(info.value) == text
    values = [1.0, -2.0]
    assert ndcore._finite(values, "values") is values
    with pytest.raises(NonFinite, match=r"^values contains a non-finite entry: -inf$"):
        ndcore._finite(iter([1.0, -math.inf, math.nan]), "values")


def test_callback_errors_pass_the_sum_gate():
    # a quadrature rule lists f's values before summing them, so an error
    # of f's own (log 0 at the interior node 0.5) is not reported as an overflow
    def f(x):
        return math.log(abs(x - 0.5))

    for rule in (quadrature.trapezoid_fn, quadrature.simpson):
        with pytest.raises(ValueError, match="math domain error"):
            rule(f, 0.0, 1.0, 4)


def test_bounded_is_the_divergence_test():
    limit = ndcore.DIVERGE_LIMIT
    assert ndcore._bounded([limit, -limit, 0.0]) and ndcore._bounded([])
    for v in (math.nextafter(limit, math.inf), -math.inf, math.nan):
        assert not ndcore._bounded([1.0, v])


def test_matrix_rejects_bad_shape():
    with pytest.raises(SizeMismatch):
        Matrix(2, 2, [1.0, 2.0, 3.0])
    with pytest.raises(ShapeMismatch):
        Matrix.from_rows([[1.0, 2.0], [3.0]])
    with pytest.raises(ShapeMismatch):
        Matrix(0, 3, [])
    with pytest.raises(EmptyInput):
        Vector([])


def test_matrix_dims_must_be_integers():
    # float dimensions whose product matched the data length once built a
    # Matrix, and its to_rows() then raised a bare TypeError; an Image2D has
    # the same rule, or fft2 raises it and write_pgm writes the header "2 2.0"
    for rows, cols, data in ((2.0, 1, [1.0, 2.0]), (1, 2.0, [1.0, 2.0]), (2.0, 1.5, [1.0, 2.0, 3.0]),
                             (2.0, 2, [0.0] * 4), (2, 2.0, [0.0] * 4), (2, "2", [0.0] * 4)):
        with pytest.raises(ShapeMismatch, match="^matrix dims must be positive integers"):
            Matrix(rows, cols, data)
        with pytest.raises(ShapeMismatch, match=f"^image dims must be positive integers, got {rows!r}x{cols!r}$"):
            spectral.Image2D(rows, cols, data)
    with pytest.raises(ShapeMismatch, match="integers"):
        ndcore.reshape(Matrix(1, 2, [1.0, 2.0]), 2.0, 1.0)


def test_zeros_and_identity_check_dims_before_building_data():
    # the data list was sized by the dims first, so a float dim raised a bare
    # TypeError from [0.0] * (rows * cols) instead of the constructor's error
    for make in (lambda: Matrix.zeros(2.0, 1), lambda: Matrix.zeros(1, "2"), lambda: Matrix.identity(2.0)):
        with pytest.raises(ShapeMismatch, match="^matrix dims must be positive integers, got "):
            make()
    with pytest.raises(ShapeMismatch, match="got 0x2"):
        Matrix.zeros(0, 2)
    with pytest.raises(ShapeMismatch, match="^image dims must be positive integers, got 0x2$"):
        spectral.Image2D(0, 2, [])


def _line(v):
    return [v[0] - 1.0]


def _bowl(v):
    return v[0] * v[0]


def _bowl_grad(v):
    return [2.0 * v[0]]


_X = Matrix(1, 1, [0.5])
_Q = microlearn.QTable(Matrix.zeros(5, 2))
_IMG = spectral.Image2D(4, 4, [float(i % 5) for i in range(16)])

# a count argument of each call: (call, name, least, most or None, error
# outside [least, most]); 4 is a valid value, and each iteration budget of 4
# is enough
_COUNTS = {
    "gauss_rule": (quadrature.gauss_rule, "order", 1, quadrature._MAX_GAUSS_ORDER, BadOrder),
    "trapezoid_fn": (lambda n: quadrature.trapezoid_fn(math.sin, 0.0, 1.0, n), "n", 1, None, BadPartition),
    # simpson's least is 1: an even n >= 1 is an n >= 2, and n = 1 raises OddPartition
    "simpson": (lambda n: quadrature.simpson(math.sin, 0.0, 1.0, n), "n", 1, None, BadPartition),
    "fft_freqs": (spectral.fft_freqs, "n", 1, None, ShapeMismatch),
    "convolve_circular": (lambda n: spectral.convolve_circular([1.0, 2.0], [3.0], n), "period n", 2, None,
                          ValueError),
    "polyfit": (lambda k: lindecomp.polyfit([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 5.0, 4.0], k),
                "degree", 0, None, ValueError),
    "pca": (lambda k: lindecomp.pca(Matrix(5, 4, [float(i * i % 7) for i in range(20)]), k),
            "component count", 1, 4, BadRank),
    "spectral_pool2d": (lambda k: spectral.spectral_pool2d(_IMG, k), "keep", 1, 4, BadKeep),
    "bisection": (lambda k: roots.bisection(lambda x: x - 1.0, 0.0, 2.0, max_iter=k), "max_iter", 0, None,
                  ValueError),
    "newton_scalar": (lambda k: roots.newton_scalar(lambda x: x - 1.0, lambda x: 1.0, 0.0, max_iter=k),
                      "max_iter", 0, None, ValueError),
    "secant": (lambda k: roots.secant(lambda x: x - 1.0, 0.0, 2.0, max_iter=k), "max_iter", 0, None, ValueError),
    "fixed_point": (lambda k: roots.fixed_point(lambda x: 1.0, 0.0, max_iter=k), "max_iter", 0, None, ValueError),
    "newton_system": (lambda k: roots.newton_system(_line, None, [0.0], max_iter=k), "max_iter", 0, None,
                      ValueError),
    "broyden": (lambda k: roots.broyden(_line, [0.0], max_iter=k), "max_iter", 0, None, ValueError),
    "newton_minimize": (lambda k: optimize.newton_minimize(
        _bowl_grad, lambda v: Matrix.from_rows([[2.0]]), [1.0], max_iter=k), "max_iter", 0, None, ValueError),
    "bfgs_minimize": (lambda k: optimize.bfgs_minimize(_bowl, _bowl_grad, [1.0], max_iter=k), "max_iter", 0, None,
                      ValueError),
    "lbfgs_minimize": (lambda k: optimize.lbfgs_minimize(_bowl, _bowl_grad, [1.0], max_iter=k), "max_iter", 0,
                       None, ValueError),
    "lbfgs_minimize.memory": (lambda k: optimize.lbfgs_minimize(_bowl, _bowl_grad, [1.0], memory=k), "memory", 1,
                              None, ValueError),
    "nelder_mead": (lambda k: optimize.nelder_mead(_bowl, [0.0], tol=1.0, max_iter=k), "max_iter", 0, None,
                    ValueError),
    "gd_minimize": (lambda k: optimize.gd_minimize(_bowl_grad, [1.0], 0.1, k), "iters", 0, None, ValueError),
    "solve_iterative": (lambda k: lindecomp.solve_iterative(
        Matrix.identity(1), [1.0], [0.0], "jacobi", lindecomp.IterConfig(max_iter=k)), "max_iter", 1, None,
        ValueError),
    "mlp_init": (lambda k: microlearn.mlp_init([3, k, 1], 0), "layer size", 1, None, BadArchitecture),
    "mlp_train": (lambda k: microlearn.mlp_train(microlearn.mlp_init([1, 1], 0), _X, _X, 0.1, k), "epochs", 0,
                  None, ValueError),
    "q_learn": (lambda k: microlearn.q_learn(microlearn.GridEnv.default(), 0.1, 0.9, 0.1, k, 0), "episodes", 0,
                None, ValueError),
    "greedy_rollout.start": (lambda k: microlearn.greedy_rollout(_Q, microlearn.GridEnv.default(), start=k),
                             "start", 0, 4, ValueError),
    "greedy_rollout.max_steps": (lambda k: microlearn.greedy_rollout(
        _Q, microlearn.GridEnv.default(), max_steps=k), "max_steps", 0, None, ValueError),
    "BatchNormParams.identity": (microlearn.BatchNormParams.identity, "n", 0, None, ValueError),
    "HeatProblem.nx": (lambda k: dynamics.HeatProblem(0.01, 10.0, k, 100, 1.0, math.sin), "nx", 3, None,
                       ValueError),
    "HeatProblem.nt": (lambda k: dynamics.HeatProblem(0.01, 10.0, 21, k, 1.0, math.sin), "nt", 1, None,
                       ValueError),
    "heat1d_explicit": (lambda k: dynamics.heat1d_explicit(
        dynamics.HeatProblem(0.01, 10.0, 21, 8, 1.0, math.sin), snapshot_every=k), "snapshot_every", 1, None,
        ValueError),
    "sgd_linreg.batch": (lambda k: optimize.sgd_linreg([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], k, 0.1, 2, 0),
                         "batch", 1, 4, ShapeMismatch),
    "sgd_linreg.iters": (lambda k: optimize.sgd_linreg([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], 1, 0.1, k, 0),
                         "iters", 0, None, ValueError),
    "OptState.zeros": (optimize.OptState.zeros, "n", 0, None, ValueError),
    "Schedule.drop_epoch": (lambda k: optimize.Schedule("step", 0.1, drop_epoch=k), "drop_epoch", 1, None,
                            ValueError),
    "Schedule.t0": (lambda k: optimize.Schedule("cosine_warm_restarts", 0.1, t0=k), "t0", 1, None, ValueError),
    "Schedule.t_mult": (lambda k: optimize.Schedule("cosine_warm_restarts", 0.1, t_mult=k), "t_mult", 1, None,
                        ValueError),
    "lr_at": (lambda k: optimize.lr_at(optimize.Schedule("step", 0.1), k), "t", 0, None, ValueError),
}


@pytest.mark.parametrize("bad", [4.0, "4", None], ids=repr)
@pytest.mark.parametrize("call", sorted(_COUNTS))
def test_counts_that_are_not_integers_raise_value_error(call, bad):
    # these raised a bare TypeError from range() or a slice, or a later and
    # wrong error; gauss_rule(4.0) returned the rule cached for 4, mlp_init
    # took int() of each size, and heat1d_explicit(snapshot_every=2.5)
    # recorded 20 snapshots; any numbers.Integral is a count
    make = _COUNTS[call][0]
    make(4)
    if call == "heat1d_explicit" and bad is None:
        # None is the default of snapshot_every: no snapshots
        assert make(None).snapshots == ()
        return
    with pytest.raises(ValueError, match=f"must be an int, got {bad!r}$"):
        make(bad)


@pytest.mark.parametrize("call", sorted(_COUNTS))
def test_counts_outside_their_bounds_raise_their_error(call):
    # a negative budget used to run: sgd_linreg(iters=-1) returned its random
    # start, greedy_rollout(max_steps=-1) the start alone, and max_iter=-1
    # raised MaxIterations for not converging in -1 iterations
    make, what, least, most, err = _COUNTS[call]
    bound = f">= {least}" if most is None else rf"in \[{least}, {most}\]"
    for bad in [least - 1] + ([] if most is None else [most + 1]):
        with pytest.raises(err, match=f"^{what} must be {bound}, got {bad}$"):
            make(bad)


# a parameter of each call that must exceed 0: (call, name, error for <= 0)
_POSITIVE = {
    "finite_diff.h": (lambda v: quadrature.finite_diff(math.sin, 0.0, v), "h", ValueError),
    "hessian_fd.h": (lambda v: autodiff.hessian_fd(lambda a: a * a, [1.0], v), "h", ValueError),
    "OptConfig.eta": (lambda v: optimize.OptConfig(eta=v), "eta", ValueError),
    "OptConfig.eps": (lambda v: optimize.OptConfig(eta=0.1, eps=v), "eps", ValueError),
    "gd_minimize.eta": (lambda v: optimize.gd_minimize(_bowl_grad, [1.0], v, 2), "eta", ValueError),
    "sgd_linreg.eta": (lambda v: optimize.sgd_linreg([0.0, 1.0], [1.0, 2.0], 1, v, 2, 0), "eta", ValueError),
    "mlp_train.eta": (lambda v: microlearn.mlp_train(microlearn.mlp_init([1, 1], 0), _X, _X, v, 1), "eta",
                      ValueError),
    "clip_by_norm.threshold": (lambda v: optimize.clip_by_norm([1.0], v), "threshold", ValueError),
    "LifParams.tau_m": (lambda v: dynamics.LifParams(v, -65.0, 10.0, 2.0), "tau_m", ValueError),
    "LifParams.r_m": (lambda v: dynamics.LifParams(10.0, -65.0, v, 2.0), "r_m", ValueError),
    "HeatProblem.alpha": (lambda v: dynamics.HeatProblem(v, 10.0, 21, 100, 1.0, math.sin), "alpha", ValueError),
    "HeatProblem.length": (lambda v: dynamics.HeatProblem(0.01, v, 21, 100, 1.0, math.sin), "length",
                           ValueError),
    "HeatProblem.t_total": (lambda v: dynamics.HeatProblem(0.01, 10.0, 21, 100, v, math.sin), "t_total",
                            ValueError),
    "lti_step_response.tau": (lambda v: dynamics.lti_step_response(1.0, v, 0.1, 1.0), "tau", ValueError),
    "BatchNormParams.eps": (lambda v: microlearn.BatchNormParams.identity(2, v), "eps", ValueError),
    "solve_iterative.tol": (lambda v: lindecomp.solve_iterative(
        Matrix.identity(1), [1.0], [0.0], "jacobi", lindecomp.IterConfig(tol=v)), "tol", ValueError),
    "fft_freqs.d": (lambda v: spectral.fft_freqs(4, v), "sample spacing", BadCutoff),
    "spectrum.sample_spacing": (lambda v: spectral.spectrum(_SIG, v), "sample spacing", BadCutoff),
    "peak_frequency.sample_rate": (lambda v: spectral.peak_frequency(_SIG, v), "sample rate", BadCutoff),
    "lowpass1d.sample_rate": (lambda v: spectral.lowpass1d(_SIG, v, 1.0), "sample rate", BadCutoff),
    "Schedule.eta0": (lambda v: optimize.Schedule("step", v), "eta0", ValueError),
    "Schedule.drop_factor": (lambda v: optimize.Schedule("step", 0.1, drop_factor=v), "drop_factor", ValueError),
}
_SIG = [0.0, 1.0, 0.0, -1.0]


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("call", sorted(_POSITIVE))
def test_positive_parameters(call, bad):
    # nan fails every comparison, so a bare `<= 0` test lets it through; the
    # finiteness gate comes first and names it
    make, what, err = _POSITIVE[call]
    if math.isfinite(bad):
        with pytest.raises(err, match=f"^{what} must be positive$"):
            make(bad)
    else:
        with pytest.raises(NonFinite, match=f"^{what} is not finite: {bad!r}$"):
            make(bad)


# a float argument of each call that an interval bounds, or that Schedule took
# unchecked: nan fails every comparison, so a nan got the range error or was
# accepted; the finiteness gate now names it: (call, name)
_INTERVALS = {
    "q_learn.alpha": (lambda v: microlearn.q_learn(microlearn.GridEnv.default(), v, 0.9, 0.1, 3, 0), "alpha"),
    "q_learn.gamma_disc": (lambda v: microlearn.q_learn(microlearn.GridEnv.default(), 0.1, v, 0.1, 3, 0),
                           "gamma_disc"),
    "q_learn.eps_explore": (lambda v: microlearn.q_learn(microlearn.GridEnv.default(), 0.1, 0.9, v, 3, 0),
                            "eps_explore"),
    "OptConfig.beta": (lambda v: optimize.OptConfig(0.1, beta=v), "beta"),
    "OptConfig.beta1": (lambda v: optimize.OptConfig(0.1, beta1=v), "beta1"),
    "OptConfig.beta2": (lambda v: optimize.OptConfig(0.1, beta2=v), "beta2"),
    "lowpass1d.cutoff": (lambda v: spectral.lowpass1d(_SIG, 8.0, v), "cutoff"),
    "IvpProblem.t0": (lambda v: dynamics.IvpProblem(lambda t, y: y, v, (1.0,), 0.1, 1.0), "t0"),
    "IvpProblem.t_end": (lambda v: dynamics.IvpProblem(lambda t, y: y, 0.0, (1.0,), 0.1, v), "t_end"),
    "Schedule.lam": (lambda v: optimize.Schedule("exponential", 0.1, lam=v), "lam"),
    "Schedule.eta_min": (lambda v: optimize.Schedule("cosine_warm_restarts", 0.1, eta_min=v), "eta_min"),
    "Schedule.eta_max": (lambda v: optimize.Schedule("cosine_warm_restarts", 0.1, eta_max=v), "eta_max"),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("call", sorted(_INTERVALS))
def test_interval_arguments_are_gated_for_nan(call, bad):
    make, what = _INTERVALS[call]
    with pytest.raises(NonFinite, match=f"^{what} is not finite: {bad!r}$"):
        make(bad)


def test_matrix_accessors():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.get(1, 2) == 6.0
    assert m.row(0) == [1.0, 2.0, 3.0]
    assert m.col(1) == [2.0, 5.0]
    assert Matrix.identity(2).to_rows() == [[1.0, 0.0], [0.0, 1.0]]


_M22 = Matrix.from_rows([[1, 2], [3, 4]])


# an index outside the shape once read another entry of the row-major data:
# get(0, 3) returned 4.0, and get(1, -1) 2.0, the last entry of the row above
@pytest.mark.parametrize("i, j", [(0, 2), (0, 3), (1, -1), (-1, 0), (2, 0)])
def test_matrix_get_rejects_an_index_outside_the_shape(i, j):
    with pytest.raises(IndexError, match=r"index must be in \[0, 1\], got -?\d$"):
        _M22.get(i, j)


# row(-1) and row(2) returned [], not a row
@pytest.mark.parametrize("i", [-1, 2, 5])
def test_matrix_row_rejects_an_index_outside_the_shape(i):
    with pytest.raises(IndexError, match=rf"^row index must be in \[0, 1\], got {i}$"):
        _M22.row(i)


# col(2) returned [3.0], the later entries of column 0, and col(-1) [4.0]
@pytest.mark.parametrize("j", [-1, 2, 3])
def test_matrix_col_rejects_an_index_outside_the_shape(j):
    with pytest.raises(IndexError, match=rf"^column index must be in \[0, 1\], got {j}$"):
        _M22.col(j)


# element-wise ops and reductions


def test_ew_add_golden():
    a = Matrix(1, 3, [1, 2, 3])
    b = Matrix(1, 3, [4, 5, 6])
    assert ndcore.ew_binary(a, b, "add").data == [5.0, 7.0, 9.0]


def test_ew_mul_golden():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[5, 6], [7, 8]])
    assert_matrix_close(ndcore.ew_binary(a, b, "mul"), [[5, 12], [21, 32]])


def test_ew_sub_against_numpy():
    # each difference is the exact one rounded once
    rng = random.Random(16)
    a, b = gauss_rows(rng, 3, 4), gauss_rows(rng, 3, 4)
    ma, mb = Matrix.from_rows(a), Matrix.from_rows(b)
    fa, fb = oracles.exact(a), oracles.exact(b)
    assert ndcore.ew_binary(ma, mb, "sub").data == [float(x - y) for ra, rb in zip(fa, fb) for x, y in zip(ra, rb)]
    assert ndcore.ew_binary(ma, 2.5, "sub").data == [float(x - Fraction(2.5)) for row in fa for x in row]


def test_ew_scalar_broadcast():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert_matrix_close(ndcore.ew_binary(a, 2, "mul"), [[2, 4], [6, 8]])
    assert_matrix_close(ndcore.ew_binary(a, 2, "div"), [[0.5, 1], [1.5, 2]])


def test_ew_errors():
    a = Matrix(1, 2, [1, 2])
    with pytest.raises(ShapeMismatch):
        ndcore.ew_binary(a, Matrix(2, 1, [1, 2]), "add")
    with pytest.raises(DivisionByZero):
        ndcore.ew_binary(a, Matrix(1, 2, [1, 0]), "div")
    with pytest.raises(DivisionByZero):
        ndcore.ew_binary(a, 0, "div")


def test_reduce_golden():
    v = Vector([1, -2, 3, 4])
    assert ndcore.reduce(v, "sum") == 6.0
    assert ndcore.reduce(v, "mean") == 1.5
    assert ndcore.reduce(v, "max") == 4.0
    assert ndcore.reduce(v, "min") == -2.0
    with pytest.raises(EmptyInput):
        ndcore.reduce([], "sum")


# matrix multiplication


def test_matmul_square_golden():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[5, 6], [7, 8]])
    assert_matrix_close(ndcore.matmul(a, b), [[19, 22], [43, 50]])


def test_matmul_rect_golden():
    a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    b = Matrix.from_rows([[7, 8], [9, 10], [11, 12]])
    assert_matrix_close(ndcore.matmul(a, b), [[58, 64], [139, 154]])


def test_matmul_shape_error():
    with pytest.raises(ShapeMismatch):
        ndcore.matmul(Matrix(2, 3, range(6)), Matrix(2, 3, range(6)))


def test_strassen_matches_naive_random():
    rng = random.Random(7)
    for _ in range(100):
        a = gauss_rows(rng, 16, 16)
        b = gauss_rows(rng, 16, 16)
        got = ndcore.matmul(Matrix.from_rows(a), Matrix.from_rows(b), algo="strassen")
        assert oracles.max_diff(got.to_rows(), oracles.matmul(a, b)) <= 1e-9


def _strassen_shapes(monkeypatch):
    # record the (m, k, n) of every Strassen level, recursive calls included
    shapes = []
    inner = ndcore._strassen

    def spy(a, b):
        shapes.append((len(a), len(b), len(b[0])))
        return inner(a, b)

    monkeypatch.setattr(ndcore, "_strassen", spy)
    return shapes


def test_strassen_rectangular_and_above_cutoff(monkeypatch):
    # a small cutoff makes these shapes recurse through odd and even levels
    monkeypatch.setattr(ndcore, "STRASSEN_CUTOFF", 4)
    shapes = _strassen_shapes(monkeypatch)
    rng = random.Random(11)
    for shape in [(5, 7, 3), (17, 17, 17), (33, 40, 37), (1, 9, 1), (1, 40, 1)]:
        m, k, n = shape
        a = gauss_rows(rng, m, k)
        b = gauss_rows(rng, k, n)
        got = ndcore.matmul(Matrix.from_rows(a), Matrix.from_rows(b), algo="strassen")
        assert got.rows == m and got.cols == n
        assert oracles.max_diff(got.to_rows(), oracles.matmul(a, b)) <= 1e-8
    # 17 pads to 18, halves to 9, pads to 10, halves to 5, pads to 6, halves to 3
    assert {(17,) * 3, (18,) * 3, (9,) * 3, (10,) * 3, (5,) * 3, (6,) * 3, (3,) * 3} <= set(shapes)
    # 33x40x37 pads only its odd dimensions
    assert (33, 40, 37) in shapes and (34, 40, 38) in shapes and (17, 20, 19) in shapes


def test_strassen_thin_operand_skips_recursion(monkeypatch):
    # one dimension at or below the cutoff: the cubic kernel runs unpadded
    shapes = _strassen_shapes(monkeypatch)
    c = ndcore.STRASSEN_CUTOFF
    a = Matrix(c + 1, 3, [float(i % 7) for i in range(3 * (c + 1))])
    b = Matrix(3, c + 1, [float(i % 5) for i in range(3 * (c + 1))])
    assert ndcore.matmul(a, b, "strassen") == ndcore.matmul(a, b, "naive")
    assert shapes == [(c + 1, 3, c + 1)]


def test_strassen_just_above_real_cutoff(monkeypatch):
    shapes = _strassen_shapes(monkeypatch)
    n = ndcore.STRASSEN_CUTOFF + 1
    rng = random.Random(13)
    a = gauss_rows(rng, n, n)
    b = gauss_rows(rng, n, n)
    got = ndcore.matmul(Matrix.from_rows(a), Matrix.from_rows(b), algo="strassen")
    assert oracles.max_diff(got.to_rows(), oracles.matmul(a, b)) <= 1e-10
    # one odd level padded by one, then seven products on the cubic kernel
    h = (n + 1) // 2
    assert shapes == [(n,) * 3, (n + 1,) * 3] + [(h,) * 3] * 7


EPS = math.ulp(1.0)
# Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.), Thm 23.3:
# max|C - fl(C)| <= 12**levels * (n0**2 + 5*n0) * u * max|A| * max|B|. Up to 12
# at cutoff 4 there are at most two halvings, and no base block dimension
# exceeds 12.
STRASSEN_BOUND = 12**2 * (12**2 + 5 * 12) * (EPS / 2)


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["naive", "strassen"]),
    st.data(),
)
@settings(deadline=None, max_examples=50)
def test_matmul_property_against_exact(m, k, n, algo, data):
    a = data.draw(st.lists(nonunderflow_floats, min_size=m * k, max_size=m * k))
    b = data.draw(st.lists(nonunderflow_floats, min_size=k * n, max_size=k * n))
    with mock.patch.object(ndcore, "STRASSEN_CUTOFF", 4):
        got = ndcore.matmul(Matrix(m, k, a), Matrix(k, n, b), algo).to_rows()
    # exact rational product as the reference, so no oracle rounding eats the bound
    rows_a, rows_b = [a[i * k:(i + 1) * k] for i in range(m)], [b[p * n:(p + 1) * n] for p in range(k)]
    want = oracles.matmul(rows_a, rows_b)
    err = [[abs(Fraction(g) - w) for g, w in zip(rg, rw)] for rg, rw in zip(got, want)]
    if algo == "naive":
        # recursive summation: |C - fl(C)| <= gamma_k |A||B| < k eps |A||B|
        abs_ab = oracles.matmul([list(map(abs, r)) for r in rows_a], [list(map(abs, r)) for r in rows_b])
        assert all(e <= k * Fraction(EPS) * s for re, rs in zip(err, abs_ab) for e, s in zip(re, rs))
    else:
        assert oracles.max_abs(err) <= STRASSEN_BOUND * max(map(abs, a)) * max(map(abs, b))


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["naive", "strassen"]),
    st.data(),
)
@settings(deadline=None, max_examples=50)
def test_matmul_exact_on_integers(m, k, n, algo, data):
    # every product, block sum and partial sum is an integer below 2**53
    ints = st.integers(min_value=-1000, max_value=1000)
    a = data.draw(st.lists(ints, min_size=m * k, max_size=m * k))
    b = data.draw(st.lists(ints, min_size=k * n, max_size=k * n))
    with mock.patch.object(ndcore, "STRASSEN_CUTOFF", 4):
        got = ndcore.matmul(Matrix(m, k, a), Matrix(k, n, b), algo)
    want = oracles.matmul([a[i * k:(i + 1) * k] for i in range(m)], [b[p * n:(p + 1) * n] for p in range(k)])
    assert got.to_rows() == oracles.rounded(want)


@pytest.mark.parametrize("algo", ["naive", "strassen"])
def test_matmul_overflow_raises_non_finite(monkeypatch, algo):
    monkeypatch.setattr(ndcore, "STRASSEN_CUTOFF", 4)
    for n in (2, 9):
        a = Matrix(n, n, [1e200] * (n * n))
        with pytest.raises(NonFinite):
            ndcore.matmul(a, a, algo)


# transpose / reshape


def test_transpose_golden():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert ndcore.transpose(m).to_rows() == [[1, 4], [2, 5], [3, 6]]


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
@settings(deadline=None, max_examples=50)
def test_transpose_involution(r, c, data):
    flat = data.draw(st.lists(finite_floats, min_size=r * c, max_size=r * c))
    m = Matrix(r, c, flat)
    assert ndcore.transpose(ndcore.transpose(m)) == m


def test_reshape_row_major():
    m = Matrix(2, 3, [1, 2, 3, 4, 5, 6])
    r = ndcore.reshape(m, 3, 2)
    assert r.to_rows() == [[1, 2], [3, 4], [5, 6]]
    assert r.data == m.data
    with pytest.raises(SizeMismatch):
        ndcore.reshape(m, 4, 2)


# vector geometry


def test_dot_cross_golden():
    assert ndcore.dot([1, 2, 3], [4, 5, 6]) == 32.0
    assert ndcore.cross3([1, 2, 3], [4, 5, 6]).data == [-3.0, 6.0, -3.0]
    with pytest.raises(ShapeMismatch):
        ndcore.dot([1, 2], [1, 2, 3])
    with pytest.raises(ShapeMismatch):
        ndcore.cross3([1, 2], [1, 2, 3])


@given(st.lists(finite_floats, min_size=3, max_size=3), st.lists(finite_floats, min_size=3, max_size=3))
@settings(deadline=None, max_examples=50)
def test_cross_orthogonal_to_inputs(a, b):
    c = ndcore.cross3(a, b)
    scale = max(1.0, ndcore.norm(a) * ndcore.norm(b))
    assert abs(ndcore.dot(a, c)) <= 1e-6 * scale
    assert abs(ndcore.dot(b, c)) <= 1e-6 * scale


# norms, similarity, distance


def test_norm_goldens():
    assert ndcore.norm([1, -2, 3], "l1") == 6.0
    assert abs(ndcore.norm([1, 2, 3], "l2") - 3.7416573867739413) <= 1e-15
    frob = ndcore.norm(Matrix.from_rows([[1, 2], [3, 4]]), "frobenius")
    assert abs(frob - 5.477225575051661) <= 1e-15


def test_cosine_and_distance_goldens():
    cs = ndcore.cosine_similarity([1, 2, 3], [4, 5, 6])
    assert abs(cs - 0.9746318461970762) <= 1e-15
    d = ndcore.euclidean_distance([1, 2, 3], [4, 5, 6])
    assert abs(d - 5.196152422706632) <= 1e-15
    with pytest.raises(ZeroNorm):
        ndcore.cosine_similarity([0, 0], [1, 2])


@given(st.lists(finite_floats, min_size=1, max_size=8))
@settings(deadline=None, max_examples=50)
def test_norm_squared_is_self_dot(v):
    n2 = ndcore.norm(v, "l2") ** 2
    assert abs(n2 - ndcore.dot(v, v)) <= 1e-6 * max(1.0, n2)


@given(st.lists(nonunderflow_floats, min_size=1, max_size=8))
@settings(deadline=None, max_examples=50)
def test_norm_zero_iff_zero_vector(v):
    n = ndcore.norm(v, "l2")
    assert n >= 0.0
    assert (n == 0.0) == all(x == 0.0 for x in v)


def test_cosine_bounds_against_numpy():
    rng = random.Random(3)
    for _ in range(50):
        a, b = gauss_rows(rng, 2, 5)
        cs = ndcore.cosine_similarity(a, b)
        # the exact dot product and squared norms, rounded before the last two steps
        dot = sum(map(mul, map(Fraction, a), map(Fraction, b)))
        norms = sum(Fraction(x) ** 2 for x in a) * sum(Fraction(x) ** 2 for x in b)
        want = float(dot) / math.sqrt(float(norms))
        assert abs(cs - want) <= 1e-12
        assert -1.0 - 1e-12 <= cs <= 1.0 + 1e-12


# error metrics


def test_error_metrics_golden():
    pair = ndcore.error_metrics(math.pi, 22 / 7)
    assert pair.absolute == 0.0012644892673496777
    # relative follows the definition exactly; the commonly quoted constant
    # 0.000402499... is only good to six significant digits
    assert pair.relative == pair.absolute / math.pi
    assert abs(pair.relative - 0.000402499) <= 5e-9


def test_error_metrics_exact_self():
    pair = ndcore.error_metrics(2.5, 2.5)
    assert pair.absolute == 0.0 and pair.relative == 0.0


def test_error_metrics_overflow_raises_non_finite():
    # the absolute error 2e308 and the relative error 1 / 5e-324 overflow
    for exact, approx, what in ((1e308, -1e308, "absolute error"), (5e-324, 1.0, "relative error")):
        with pytest.raises(NonFinite, match=f"^{what} is not finite: inf$"):
            ndcore.error_metrics(exact, approx)


# the public sums go through the same gate: a finite input whose sum, product
# or square overflows raises NonFinite, not a bare OverflowError or ValueError,
# and no inf comes back

_BIG = 1e308


def test_reduce_overflow_raises_non_finite():
    # the mean of [B, B] is representable, but its sum is not
    for kind in ("sum", "mean"):
        with pytest.raises(NonFinite, match="^sum overflows$"):
            ndcore.reduce([_BIG, _BIG], kind)


def test_norm_overflow_raises_non_finite():
    with pytest.raises(NonFinite, match="^l1 norm overflows$"):
        ndcore.norm([_BIG, _BIG], "l1")
    with pytest.raises(NonFinite, match="^l2 norm contains a non-finite entry: inf$"):
        ndcore.norm([_BIG, _BIG])
    # each square is finite, their sum is not
    with pytest.raises(NonFinite, match="^frobenius norm overflows$"):
        ndcore.norm(Matrix.from_rows([[1e154, 1e154]]), "frobenius")


def test_dot_overflow_raises_non_finite():
    # the products are inf and -inf, whose sum fsum reports as a ValueError
    with pytest.raises(NonFinite, match="^dot product overflows$"):
        ndcore.dot([_BIG, _BIG], [_BIG, -_BIG])
    with pytest.raises(NonFinite, match="^dot product contains a non-finite entry: inf$"):
        ndcore.dot([_BIG, _BIG], [_BIG, _BIG])


def test_cosine_similarity_overflow_raises_non_finite():
    # the norms overflow; inf / inf came back as nan, and a finite dot
    # product over an infinite norm as 0.0
    with pytest.raises(NonFinite, match="^l2 norm contains a non-finite entry: inf$"):
        ndcore.cosine_similarity([_BIG, _BIG], [_BIG, _BIG])
    with pytest.raises(NonFinite, match="^l2 norm contains a non-finite entry: inf$"):
        ndcore.cosine_similarity([_BIG, 0.0], [1.0, 1.0])


def test_euclidean_distance_overflow_raises_non_finite():
    # B - (-B) is inf; 1e200 ** 2 raises OverflowError while the sum runs
    with pytest.raises(NonFinite, match="^squared distance contains a non-finite entry: inf$"):
        ndcore.euclidean_distance([_BIG, _BIG], [-_BIG, -_BIG])
    with pytest.raises(NonFinite, match="^squared distance overflows$"):
        ndcore.euclidean_distance([1e200], [0.0])


def test_error_metrics_zero_exact():
    with pytest.raises(RelativeUndefined):
        ndcore.error_metrics(0.0, 1.0)

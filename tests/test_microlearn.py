"""Neural-net, batchnorm, and Q-learning tests with FD oracles."""

import functools
import math
import random
import re
import traceback
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desknum import microlearn as ml
from desknum.errors import BadArchitecture, NonFinite, ShapeMismatch, TooSmallBatch
from desknum.ndcore import Matrix, Vector

XOR_X = Matrix.from_rows([[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
XOR_Y = Matrix.from_rows([[0.0], [1.0], [1.0], [0.0]])


# sigmoid


def test_sigmoid_range_and_symmetry():
    for x in (-30.0, -2.0, 0.0, 0.5, 10.0):
        s = ml.sigmoid(x)
        assert 0.0 < s < 1.0
        assert abs(s + ml.sigmoid(-x) - 1.0) <= 1e-15
    assert ml.sigmoid(0.0) == 0.5


def test_sigmoid_stable_at_extremes():
    assert ml.sigmoid(-800.0) == 0.0
    assert ml.sigmoid(800.0) == 1.0


def test_sigmoid_derivative_identity():
    # closed-form slope e^-x/(1+e^-x)^2 equals a(1-a) at a = sigmoid(x)
    for x in (-5.0, -1.0, -0.3, 0.0, 0.7, 2.0, 6.0):
        ex = math.exp(-x)
        direct = ex / (1.0 + ex) ** 2
        assert abs(ml.sigmoid_derivative(ml.sigmoid(x)) - direct) <= 1e-12
        fd = (ml.sigmoid(x + 1e-6) - ml.sigmoid(x - 1e-6)) / 2e-6
        assert abs(direct - fd) <= 1e-6


# initialization


def test_mlp_init_shapes():
    p = ml.mlp_init([3, 4, 1], seed=0)
    assert (p.weights[0].rows, p.weights[0].cols) == (3, 4)
    assert (p.weights[1].rows, p.weights[1].cols) == (4, 1)
    assert p.biases[0].data == [0.0, 0.0, 0.0, 0.0]
    assert p.biases[1].data == [0.0]


def test_mlp_init_deterministic():
    a = ml.mlp_init([2, 5, 2], seed=42)
    b = ml.mlp_init([2, 5, 2], seed=42)
    assert all(x == y for x, y in zip(a.weights[0].data, b.weights[0].data))
    assert all(x == y for x, y in zip(a.weights[1].data, b.weights[1].data))
    c = ml.mlp_init([2, 5, 2], seed=43)
    assert any(x != y for x, y in zip(a.weights[0].data, c.weights[0].data))


def test_mlp_init_rejects_bad_architecture():
    with pytest.raises(BadArchitecture):
        ml.mlp_init([3], seed=0)
    with pytest.raises(BadArchitecture):
        ml.mlp_init([3, 0, 1], seed=0)


def test_mlp_params_shape_chain_checked():
    with pytest.raises(ShapeMismatch):
        ml.MlpParams(
            (2, 3), (Matrix.zeros(3, 2),), (Vector([0.0, 0.0, 0.0]),)
        )


def test_mlp_params_needs_two_sizes():
    with pytest.raises(BadArchitecture):
        ml.MlpParams((3,), (), ())


def test_mlp_params_sizes_are_the_ints_of_the_weight_shapes():
    # 1.0 == 1 and True == 1 passed the shape checks, and every MLP call on
    # such a net then raised a bare TypeError; they now run as (1, 1) does
    x, y = Matrix.from_rows([[0.5], [-2.0]]), Matrix.from_rows([[1.0], [0.0]])
    runs = []
    for sizes in ((1, 1), (1.0, 1.0), (True, True)):
        p = ml.MlpParams(sizes, (Matrix.from_rows([[0.5]]),), (Vector([0.0]),))
        assert p.sizes == (1, 1) and all(type(n) is int for n in p.sizes)
        (g_w,), (g_b,) = ml.mlp_gradients(p, x, y)
        trained, history = ml.mlp_train(p, x, y, 0.5, 3)
        values = ml.mlp_forward(p, x)[1].data + [ml.mlp_loss(p, x, y)] + g_w.data + g_b.data
        values += history + trained.weights[0].data + trained.biases[0].data
        runs.append([v.hex() for v in values])
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


# forward pass


def zero_net(sizes):
    weights = tuple(
        Matrix.zeros(a, b) for a, b in zip(sizes, sizes[1:])
    )
    biases = tuple(Vector([0.0] * b) for b in sizes[1:])
    return ml.MlpParams(tuple(sizes), weights, biases)


def test_forward_zero_net_gives_half():
    p = zero_net([3, 4, 1])
    acts, out = ml.mlp_forward(p, XOR_X)
    assert all(v == 0.5 for a in acts for v in a.data)
    assert (out.rows, out.cols) == (4, 1)


def test_forward_monotone_in_preactivation():
    # single 1->1 layer, weight 1, bias 0: activation climbs toward 1
    p = ml.MlpParams((1, 1), (Matrix.from_rows([[1.0]]),), (Vector([0.0]),))
    xs = [-4.0, -1.0, 0.0, 2.0, 8.0, 30.0]
    _, out = ml.mlp_forward(p, Matrix.from_rows([[v] for v in xs]))
    col = out.col(0)
    assert all(a < b for a, b in zip(col, col[1:]))
    assert col[-1] > 0.999999
    assert all(0.0 < v < 1.0 for v in col)


def test_forward_shape_mismatch():
    p = ml.mlp_init([3, 4, 1], seed=0)
    with pytest.raises(ShapeMismatch):
        ml.mlp_forward(p, Matrix.from_rows([[1.0, 2.0]]))


def test_affine_golden():
    w = Matrix.from_rows([[1.0, 2.0], [3.0, 4.0]])
    out = ml.affine(w, [5.0, 6.0], [1.0, 1.0])
    assert out.data == [18.0, 40.0]


def test_affine_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ml.affine(Matrix.from_rows([[1.0, 2.0]]), [1.0], [0.0])


# gradients against central differences


def fd_loss_gradients(p, x, y, h=1e-6):
    d_w = []
    d_b = []
    for l, w in enumerate(p.weights):
        rows = w.to_rows()
        grad = [[0.0] * w.cols for _ in range(w.rows)]
        for i in range(w.rows):
            for j in range(w.cols):
                for sign in (1.0, -1.0):
                    rows[i][j] = w.get(i, j) + sign * h
                    ws = list(p.weights)
                    ws[l] = Matrix.from_rows(rows)
                    q = ml.MlpParams(p.sizes, tuple(ws), p.biases)
                    grad[i][j] += sign * ml.mlp_loss(q, x, y) / (2.0 * h)
                rows[i][j] = w.get(i, j)
        d_w.append(grad)
    for l, b in enumerate(p.biases):
        grad = [0.0] * len(b)
        for j in range(len(b)):
            for sign in (1.0, -1.0):
                vals = list(b.data)
                vals[j] = b[j] + sign * h
                bs = list(p.biases)
                bs[l] = Vector(vals)
                q = ml.MlpParams(p.sizes, p.weights, tuple(bs))
                grad[j] += sign * ml.mlp_loss(q, x, y) / (2.0 * h)
        d_b.append(grad)
    return d_w, d_b


def test_backprop_matches_central_differences():
    rng = random.Random(6)
    for seed in (1, 2, 3):
        p = ml.mlp_init([2, 3, 1], seed=seed)
        x = Matrix.from_rows(
            [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(5)]
        )
        y = Matrix.from_rows([[rng.random()] for _ in range(5)])
        got_w, got_b = ml.mlp_gradients(p, x, y)
        want_w, want_b = fd_loss_gradients(p, x, y)
        for l in range(2):
            for i in range(got_w[l].rows):
                for j in range(got_w[l].cols):
                    assert abs(got_w[l].get(i, j) - want_w[l][i][j]) <= 1e-5
            for j in range(len(got_b[l])):
                assert abs(got_b[l][j] - want_b[l][j]) <= 1e-5


def test_gradients_shape_mismatch():
    p = ml.mlp_init([3, 4, 1], seed=0)
    with pytest.raises(ShapeMismatch):
        ml.mlp_gradients(p, XOR_X, Matrix.from_rows([[0.0], [1.0]]))


# targets with too few rows or too many columns
BAD_XOR_TARGETS = (
    Matrix.from_rows([[0.0], [1.0]]),
    Matrix.from_rows([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
)


def test_targets_checked_by_loss_gradients_and_train():
    p = ml.mlp_init([3, 4, 1], seed=0)
    for y in BAD_XOR_TARGETS:
        with pytest.raises(ShapeMismatch):
            ml.mlp_loss(p, XOR_X, y)
        with pytest.raises(ShapeMismatch):
            ml.mlp_gradients(p, XOR_X, y)
        for epochs in (0, 1):
            with pytest.raises(ShapeMismatch):
                ml.mlp_train(p, XOR_X, y, 0.5, epochs)


def test_features_checked_by_loss_gradients_and_train():
    p = ml.mlp_init([3, 4, 1], seed=0)
    x = Matrix.from_rows([[0.0, 1.0]] * 4)
    with pytest.raises(ShapeMismatch):
        ml.mlp_loss(p, x, XOR_Y)
    with pytest.raises(ShapeMismatch):
        ml.mlp_gradients(p, x, XOR_Y)
    with pytest.raises(ShapeMismatch):
        ml.mlp_train(p, x, XOR_Y, 0.5, 0)


# the compiled kernel against the per-sample, per-unit formulas written
# out: every dot product folds its products left to right from 0.0 in input
# order (builtin sum up to CPython 3.11, which compensates from 3.12). The
# kernel appends one gradient row per sample, in parameter order, and sums
# all of them in one reduction per epoch, an fsum per parameter over the
# batch in sample order; fsum is correctly rounded, so the sums equal the
# per-layer ones below, and the two must agree to the last bit on any
# CPython


def _dot(terms):
    return functools.reduce(add, terms, 0.0)


def _reference_forward(w, b, xs):
    """Activations of every layer, the inputs first."""
    acts = [xs]
    for wl, bl in zip(w, b):
        layer = []
        for a in acts[-1]:
            row = []
            for j in range(len(bl)):
                dot = _dot(a[i] * wl[i][j] for i in range(len(a)))
                row.append(ml.sigmoid(dot + bl[j]))
            layer.append(row)
        acts.append(layer)
    return acts


def _reference_pass(w, b, xs, ys):
    """Loss and (weight, bias) gradients of one full-batch pass."""
    acts = _reference_forward(w, b, xs)
    out, batch, outs = acts[-1], len(xs), len(ys[0])
    loss = math.fsum(
        (out[s][j] - ys[s][j]) ** 2 for s in range(batch) for j in range(outs)
    ) / (batch * outs)
    delta = [
        [
            2.0 / (batch * outs) * (out[s][j] - ys[s][j]) * ml.sigmoid_derivative(out[s][j])
            for j in range(outs)
        ]
        for s in range(batch)
    ]
    g_w, g_b = [None] * len(w), [None] * len(w)
    for l in reversed(range(len(w))):
        prev, wl = acts[l], w[l]
        g_w[l] = [
            [math.fsum(prev[s][i] * delta[s][j] for s in range(batch)) for j in range(len(wl[0]))]
            for i in range(len(wl))
        ]
        g_b[l] = [math.fsum(delta[s][j] for s in range(batch)) for j in range(len(wl[0]))]
        hidden = []
        for s in range(batch):
            row = []
            for i in range(len(wl)):
                dot = _dot(delta[s][j] * wl[i][j] for j in range(len(wl[0])))
                row.append(dot * ml.sigmoid_derivative(prev[s][i]))
            hidden.append(row)
        delta = hidden
    return loss, g_w, g_b


def _reference_train(w, b, xs, ys, eta, epochs):
    """Pre-step losses and the parameters after `epochs` gradient steps."""
    history = []
    for _ in range(epochs):
        loss, g_w, g_b = _reference_pass(w, b, xs, ys)
        history.append(loss)
        w = [[[v - eta * g for v, g in zip(r, gr)] for r, gr in zip(wl, gl)] for wl, gl in zip(w, g_w)]
        b = [[v - eta * g for v, g in zip(bl, gl)] for bl, gl in zip(b, g_b)]
    return history, w, b


def _hexes(value):
    # float.hex of every float in nested lists, in order
    if isinstance(value, float):
        return [value.hex()]
    return [h for v in value for h in _hexes(v)]


_FEATURE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-3.0, 3.0))


@st.composite
def _mlp_cases(draw):
    sizes = draw(st.lists(st.integers(1, 7), min_size=2, max_size=4))
    batch = draw(st.integers(1, 8))
    xs = draw(st.lists(st.lists(_FEATURE, min_size=sizes[0], max_size=sizes[0]), min_size=batch, max_size=batch))
    ys = [[draw(st.floats(0.0, 1.0)) for _ in range(sizes[-1])] for _ in range(batch)]
    return sizes, draw(st.integers(0, 2**32)), xs, ys, draw(st.sampled_from([0.1, 0.5, 3.0]))


@settings(max_examples=60, deadline=None)
@given(_mlp_cases(), st.integers(1, 4))
def test_kernel_bits_match_per_sample_formulas(case, epochs):
    sizes, seed, xs, ys, eta = case
    p = ml.mlp_init(sizes, seed)
    x, y = Matrix.from_rows(xs), Matrix.from_rows(ys)
    w = [m.to_rows() for m in p.weights]
    b = [list(v.data) for v in p.biases]
    _, g_w0, g_b0 = _reference_pass(w, b, xs, ys)
    history, w, b = _reference_train(w, b, xs, ys, eta, epochs)
    got_gw, got_gb = ml.mlp_gradients(p, x, y)
    trained, got_history = ml.mlp_train(p, x, y, eta, epochs)
    got_grads = [[m.to_rows() for m in got_gw], [v.data for v in got_gb]]
    assert _hexes(got_grads) == _hexes([g_w0, g_b0])
    assert _hexes(got_history) == _hexes(history)
    got_params = [[m.to_rows() for m in trained.weights], [v.data for v in trained.biases]]
    assert _hexes(got_params) == _hexes([w, b])


# layouts the strategy above rarely or never draws: batch 1 through 1 -> 1
# layers, where every sum and gradient of the kernel has a single term, and
# nets wider than the strategy allows: 3000 inputs, past the nesting depth
# at which CPython 3.10 to 3.12 stop compiling one chain of +, and 250
# outputs, whose hidden deltas each sum 250 terms in several links


@pytest.mark.parametrize(
    "sizes, batch",
    [([1, 1], 1), ([1, 1, 1], 1), ([9, 12, 1], 10), ([30, 40, 1], 12), ([3000, 2], 2), ([3, 2, 250], 3)],
)
def test_kernel_edge_layouts_match_per_sample_formulas(sizes, batch):
    rng = random.Random(f"{sizes}x{batch}")
    xs = [[rng.uniform(-3.0, 3.0) for _ in range(sizes[0])] for _ in range(batch)]
    ys = [[rng.random() for _ in range(sizes[-1])] for _ in range(batch)]
    p = ml.mlp_init(sizes, 17)
    x, y = Matrix.from_rows(xs), Matrix.from_rows(ys)
    w = [m.to_rows() for m in p.weights]
    b = [list(v.data) for v in p.biases]
    got_acts, got_out = ml.mlp_forward(p, x)
    want_acts = _reference_forward(w, b, xs)
    assert _hexes([m.to_rows() for m in got_acts]) == _hexes(want_acts[1:])
    assert _hexes(got_out.to_rows()) == _hexes(want_acts[-1])
    loss, g_w, g_b = _reference_pass(w, b, xs, ys)
    assert ml.mlp_loss(p, x, y).hex() == loss.hex()
    got_gw, got_gb = ml.mlp_gradients(p, x, y)
    assert _hexes([[m.to_rows() for m in got_gw], [v.data for v in got_gb]]) == _hexes([g_w, g_b])
    trained, got_history = ml.mlp_train(p, x, y, 0.5, 3)
    history, w, b = _reference_train(w, b, xs, ys, 0.5, 3)
    assert _hexes(got_history) == _hexes(history)
    got_params = [[m.to_rows() for m in trained.weights], [v.data for v in trained.biases]]
    assert _hexes(got_params) == _hexes([w, b])


def test_nonfinite_traceback_shows_the_compiled_line():
    # inf - inf in the one pre-activation: the output gate of the kernel
    # compiled for sizes (2, 1) raises, and the frame names its source
    p = ml.MlpParams((2, 1), (Matrix.from_rows([[2.0], [-2.0]]),), (Vector([0.0]),))
    with pytest.raises(NonFinite, match="network output") as info:
        ml.mlp_forward(p, Matrix.from_rows([[1e308, 1e308]]))
    frames = [f for f in traceback.extract_tb(info.value.__traceback__) if f.filename == "<mlp 2-1>"]
    assert [f.line for f in frames] == ['_finite(A1, "network output")']
    # an overflowing first step of a training run: the update gate inside
    # the compiled epoch loop raises, and the frame shows that line
    p = ml.MlpParams((1, 1), (Matrix.from_rows([[0.0]]),), (Vector([0.0]),))
    x, y = Matrix.from_rows([[1e308], [1e307]]), Matrix.from_rows([[1.0], [1.0]])
    with pytest.raises(NonFinite, match="updated parameters") as info:
        ml.mlp_train(p, x, y, 1e3, 3)
    frames = [f for f in traceback.extract_tb(info.value.__traceback__) if f.filename == "<mlp 1-1>"]
    assert [f.line for f in frames] == ['_finite(P, "updated parameters")']


def test_second_train_on_the_same_sizes_reuses_the_kernel():
    # 8 outputs, more than any other test draws: the forward pass, the loss,
    # the gradients and two training runs on this shape compile it once
    x = Matrix.from_rows([[0.5, -1.0], [2.0, 0.0]])
    y = Matrix.from_rows([[1.0, 0.0] * 4, [0.0, 1.0] * 4])
    before = ml._kernel.cache_info()
    p = ml.mlp_init([2, 3, 8], 0)
    ml.mlp_forward(p, x)
    ml.mlp_loss(p, x, y)
    ml.mlp_gradients(p, x, y)
    ml.mlp_train(p, x, y, 0.5, 2)
    ml.mlp_train(ml.mlp_init([2, 3, 8], 1), x, y, 0.5, 2)
    after = ml._kernel.cache_info()
    assert (after.hits, after.misses) == (before.hits + 4, before.misses + 1)


# training


def test_train_zero_epochs_is_noop():
    p = ml.mlp_init([3, 4, 1], seed=0)
    q, hist = ml.mlp_train(p, XOR_X, XOR_Y, 0.5, 0)
    assert hist == []
    assert all(a == b for a, b in zip(q.weights[0].data, p.weights[0].data))
    assert all(a == b for a, b in zip(q.biases[0].data, p.biases[0].data))


def test_train_xor_converges():
    p = ml.mlp_init([3, 4, 1], seed=0)
    trained, hist = ml.mlp_train(p, XOR_X, XOR_Y, 0.5, 10000)
    assert len(hist) == 10000
    assert ml.mlp_loss(trained, XOR_X, XOR_Y) < 0.05


def test_train_loss_windows_nonincreasing():
    p = ml.mlp_init([3, 4, 1], seed=0)
    _, hist = ml.mlp_train(p, XOR_X, XOR_Y, 0.5, 3000)
    for k in range(1000, 2900):
        assert hist[k + 100] <= hist[k] + 1e-9


def test_train_validation():
    p = ml.mlp_init([3, 4, 1], seed=0)
    with pytest.raises(ValueError):
        ml.mlp_train(p, XOR_X, XOR_Y, 0.0, 10)
    with pytest.raises(ValueError, match="^epochs must be >= 0, got -1$"):
        ml.mlp_train(p, XOR_X, XOR_Y, 0.5, -1)


@pytest.mark.parametrize("count", [2.5, 2.0, "3", None, -1], ids=repr)
def test_counts_must_be_nonnegative_ints(count):
    # a float or str count once reached range() or the comparison and raised
    # a bare TypeError; it is refused before the compiled loop runs
    if count == -1:
        rule = "must be >= 0, got -1"
    else:
        rule = f"must be an int, got {count!r}"
    p = ml.mlp_init([3, 4, 1], seed=0)
    with pytest.raises(ValueError, match=f"^epochs {re.escape(rule)}$"):
        ml.mlp_train(p, XOR_X, XOR_Y, 0.5, count)
    with pytest.raises(ValueError, match=f"^episodes {re.escape(rule)}$"):
        ml.q_learn(ml.GridEnv.default(), 0.1, 0.9, 0.1, count, seed=0)


def test_train_rejects_nan_and_infinite_eta():
    p = ml.mlp_init([3, 4, 1], seed=0)
    for eta in (math.nan, math.inf, -math.inf):
        for epochs in (0, 1):
            with pytest.raises(NonFinite, match="^eta is not finite: "):
                ml.mlp_train(p, XOR_X, XOR_Y, eta, epochs)


def test_overflowing_squared_error_raises_nonfinite():
    # (a - t)^2 overflows for a target above about 1.3e154; the sum of two
    # finite squares near 1e308 overflows in fsum
    p = ml.mlp_init([3, 4, 1], seed=0)
    for ys in ([[2e154], [0.0], [0.0], [0.0]], [[1e154], [1e154], [0.0], [0.0]]):
        y = Matrix.from_rows(ys)
        with pytest.raises(NonFinite):
            ml.mlp_loss(p, XOR_X, y)
        with pytest.raises(NonFinite):
            ml.mlp_train(p, XOR_X, y, 0.5, 1)


@pytest.mark.parametrize("epochs", [1, 5])
def test_train_overflowing_update_raises_nonfinite(epochs):
    # zero first-layer weights keep every unit unsaturated, so the input
    # of 1e308 reaches the weight gradient and the first step overflows,
    # also where more epochs remain in the compiled loop
    single = ml.MlpParams((1, 1), (Matrix.from_rows([[0.0]]),), (Vector([0.0]),))
    hidden = ml.MlpParams(
        (1, 2, 1),
        (Matrix.from_rows([[0.0, 0.0]]), Matrix.from_rows([[1.0], [1.0]])),
        (Vector([0.0, 0.0]), Vector([0.0])),
    )
    cases = (
        (single, [[1e308], [1e307]], [[1.0], [1.0]], 1e3),
        (hidden, [[1e308]], [[1.0]], 100.0),
    )
    for p, xs, ys, eta in cases:
        x, y = Matrix.from_rows(xs), Matrix.from_rows(ys)
        assert ml.mlp_train(p, x, y, eta, 0)[1] == []
        with pytest.raises(NonFinite, match="^updated parameters contains a non-finite entry"):
            ml.mlp_train(p, x, y, eta, epochs)


def test_gradient_sum_overflow_raises_nonfinite():
    # the weight gradient of a zero net on inputs of 1e308 sums products
    # that are inf and -inf (fsum raised a bare ValueError) or finite with
    # an overflowing total (a bare OverflowError)
    p = ml.MlpParams((1, 1), (Matrix.from_rows([[0.0]]),), (Vector([0.0]),))
    cases = (
        ([[1e308], [-1e308]], [[1e150], [1e150]]),
        ([[1e308], [1e308]], [[-4.0], [-4.0]]),
    )
    for xs, ys in cases:
        x, y = Matrix.from_rows(xs), Matrix.from_rows(ys)
        with pytest.raises(NonFinite, match="weight gradient overflows"):
            ml.mlp_gradients(p, x, y)
        with pytest.raises(NonFinite, match="weight gradient overflows"):
            ml.mlp_train(p, x, y, 0.5, 1)


def test_bias_gradient_overflow_raises_nonfinite():
    # a last-layer weight of 1e9, offset by its bias, scales the first
    # layer's deltas to -3e307: every weight gradient stays finite and the
    # first layer's bias gradient overflows its fsum. The loss overflows
    # too, so training stops earlier, at the squared error
    p = ml.MlpParams(
        (1, 1, 1), (Matrix.from_rows([[1.0]]), Matrix.from_rows([[1e9]])), (Vector([0.0]), Vector([-5e8]))
    )
    x, y = Matrix.from_rows([[1e-300]] * 8), Matrix.from_rows([[2e300]] * 8)
    with pytest.raises(NonFinite, match="^bias gradient overflows$"):
        ml.mlp_gradients(p, x, y)
    with pytest.raises(NonFinite, match="^squared error overflows$"):
        ml.mlp_train(p, x, y, 0.5, 1)


def test_gradient_gates_run_from_the_last_layer():
    # three weight layers: the last layer's gradients are finite, the middle
    # layer's weight and bias gradients and the first layer's bias gradient
    # overflow. The middle layer's weight gradient is named, as it is the
    # first of them going back, weights before biases
    p = ml.MlpParams(
        (1, 1, 1, 1),
        tuple(Matrix.from_rows([[w]]) for w in (1.0, 2.0, 1e300)),
        tuple(Vector([b]) for b in (0.0, -1.0, -5e299)),
    )
    x, y = Matrix.from_rows([[0.0]] * 16), Matrix.from_rows([[-3.2e9]] * 16)
    assert math.isfinite(ml.mlp_loss(p, x, y))
    with pytest.raises(NonFinite, match="^weight gradient overflows$"):
        ml.mlp_gradients(p, x, y)
    with pytest.raises(NonFinite, match="^weight gradient overflows$"):
        ml.mlp_train(p, x, y, 0.5, 1)


def test_train_huge_eta_on_xor_saturates_without_overflow():
    # saturated sigmoids give zero gradients, so even eta = 1.7e308 keeps
    # every update finite: this is not an overflow case
    p = ml.mlp_init([3, 4, 1], seed=0)
    trained, history = ml.mlp_train(p, XOR_X, XOR_Y, 1.7e308, 20)
    assert len(history) == 20
    assert all(math.isfinite(v) for w in trained.weights for v in w.data)


# batch normalization


def test_batchnorm_golden_batch():
    x = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    out = ml.batchnorm_forward(x, ml.BatchNormParams.identity(3))
    # each column has mu in (4,5,6) and biased variance 6, so the
    # standardized entries are -3, 0, 3 over sqrt(6 + eps)
    c = 3.0 / math.sqrt(6.0 + 1e-5)
    for j in range(3):
        col = out.col(j)
        assert abs(col[0] + c) <= 1e-12
        assert abs(col[1]) <= 1e-12
        assert abs(col[2] - c) <= 1e-12
        assert abs(col[0] + 1.2247) <= 1e-4
        assert abs(col[2] - 1.2247) <= 1e-4


def test_batchnorm_standardizes_random_batches():
    rng = random.Random(5)
    for _ in range(50):
        rows = rng.randrange(3, 9)
        cols = rng.randrange(1, 5)
        x = Matrix.from_rows(
            [[rng.uniform(-5, 5) for _ in range(cols)] for _ in range(rows)]
        )
        p = ml.BatchNormParams.identity(cols, eps=1e-12)
        out = ml.batchnorm_forward(x, p)
        for j in range(cols):
            col = out.col(j)
            mu = math.fsum(col) / rows
            var = math.fsum((v - mu) ** 2 for v in col) / rows
            assert abs(mu) <= 1e-9
            assert abs(var - 1.0) <= 1e-6


def test_batchnorm_idempotent():
    # the second pass divides by sqrt(1 + eps), an eps/2 relative
    # shift, so eps must sit well below the 1e-6 tolerance
    x = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    p = ml.BatchNormParams.identity(3, eps=1e-9)
    once = ml.batchnorm_forward(x, p)
    twice = ml.batchnorm_forward(once, p)
    worst = max(abs(a - b) for a, b in zip(once.data, twice.data))
    assert worst <= 1e-6


def test_batchnorm_zero_gamma_gives_beta():
    x = Matrix.from_rows([[1.0, 2.0], [3.0, 4.0]])
    p = ml.BatchNormParams(Vector([0.0, 0.0]), Vector([0.25, -1.5]))
    out = ml.batchnorm_forward(x, p)
    assert out.col(0) == [0.25, 0.25]
    assert out.col(1) == [-1.5, -1.5]


def test_batchnorm_overflowing_variance_raises_nonfinite():
    # a bare OverflowError escaped; the outputs, about +-1, are representable,
    # so this stays open for a scaled mean and variance
    x = Matrix.from_rows([[1e308], [-1e308]])
    with pytest.raises(NonFinite, match="^batch variance overflows$"):
        ml.batchnorm_forward(x, ml.BatchNormParams.identity(1))


def test_batchnorm_constant_column():
    x = Matrix.from_rows([[7.0], [7.0], [7.0]])
    p = ml.BatchNormParams(Vector([1.0]), Vector([0.5]))
    out = ml.batchnorm_forward(x, p)
    assert all(abs(v - 0.5) <= 1e-12 for v in out.col(0))


def test_batchnorm_errors():
    with pytest.raises(TooSmallBatch):
        ml.batchnorm_forward(
            Matrix.from_rows([[1.0, 2.0]]), ml.BatchNormParams.identity(2)
        )
    with pytest.raises(ShapeMismatch):
        ml.batchnorm_forward(
            Matrix.from_rows([[1.0], [2.0]]), ml.BatchNormParams.identity(2)
        )
    with pytest.raises(ShapeMismatch):
        ml.BatchNormParams(Vector([1.0]), Vector([0.0, 0.0]))
    with pytest.raises(ValueError):
        ml.BatchNormParams(Vector([1.0]), Vector([0.0]), eps=0.0)


# q-learning


def test_q_learn_deterministic():
    env = ml.GridEnv.default()
    a = ml.q_learn(env, 0.1, 0.9, 0.1, 300, seed=7)
    b = ml.q_learn(env, 0.1, 0.9, 0.1, 300, seed=7)
    assert all(x == y for x, y in zip(a.values.data, b.values.data))


def test_q_learn_zero_episodes():
    env = ml.GridEnv.default()
    q = ml.q_learn(env, 0.1, 0.9, 0.1, 0, seed=0)
    assert all(v == 0.0 for v in q.values.data)


def test_q_learn_rollout_reaches_goal():
    env = ml.GridEnv.default()
    q = ml.q_learn(env, 0.1, 0.9, 0.1, 1000, seed=0)
    assert all(math.isfinite(v) for v in q.values.data)
    path = ml.greedy_rollout(q, env, start=0)
    assert path[-1] == 4
    assert len(path) - 1 <= 5


def test_q_values_respect_discount_bound():
    env = ml.GridEnv.default()
    r_max = max(abs(v) for v in env.rewards.data)
    bound = r_max / (1.0 - 0.9) + r_max
    for seed in range(5):
        q = ml.q_learn(env, 0.1, 0.9, 0.1, 500, seed=seed)
        assert all(abs(v) <= bound for v in q.values.data)


def test_q_learn_myopic_fixed_point():
    # alpha=1, gamma=0 overwrites Q(s,a) with the immediate reward on
    # every visit; greedy tie-breaking visits action 0 first, then
    # switches where reward favors action 1
    env = ml.GridEnv.default()
    q = ml.q_learn(env, 1.0, 0.0, 0.0, 200, seed=3)
    assert q.values.row(0) == [-1.0, 0.0]
    assert q.values.row(3) == [-1.0, 1.0]
    assert q.values.get(1, 0) == 0.0
    assert q.values.get(2, 0) == 0.0
    assert q.values.row(4) == [0.0, 0.0]


def test_q_learn_validation():
    env = ml.GridEnv.default()
    with pytest.raises(ValueError):
        ml.q_learn(env, 0.0, 0.9, 0.1, 10, seed=0)
    with pytest.raises(ValueError):
        ml.q_learn(env, 0.1, 1.0, 0.1, 10, seed=0)
    with pytest.raises(ValueError):
        ml.q_learn(env, 0.1, 0.9, 1.5, 10, seed=0)
    with pytest.raises(ValueError, match="^episodes must be >= 0, got -1$"):
        ml.q_learn(env, 0.1, 0.9, 0.1, -1, seed=0)


def test_best_action_tie_breaks_low():
    q = ml.QTable(Matrix.zeros(5, 2))
    assert q.best_action(0) == 0


def test_rollout_respects_step_cap():
    env = ml.GridEnv.default()
    q = ml.QTable(Matrix.zeros(5, 2))
    path = ml.greedy_rollout(q, env, start=0, max_steps=2)
    assert path == [0, 1, 2]


@pytest.mark.parametrize("start", [5, 7, -1])
def test_rollout_start_must_be_a_state(start):
    # a start outside the table has no row of q, and max() of an empty row
    # names no argument
    env = ml.GridEnv.default()
    with pytest.raises(ValueError, match=rf"^start must be in \[0, 4\], got {start}$"):
        ml.greedy_rollout(ml.QTable(Matrix.zeros(5, 2)), env, start=start)

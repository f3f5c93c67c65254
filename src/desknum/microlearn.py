"""Micro machine-learning demos built on the dense kernels.

A fully-connected sigmoid network trained by full-batch gradient
descent on mean-squared error, a batch-normalization forward pass,
and tabular Q-learning on a five-state ring environment. Everything
is deterministic given an explicit seed.

The network trains in one private kernel per tuple of layer sizes: Python
source generated for those sizes, compiled once and cached, `_kernel` (the
standard library's dataclasses builds `__init__` the same way). It holds
the whole training loop, unrolled over units inside a loop over samples
inside a loop over epochs, so its text grows with the weights, not with
the batch or the epochs, and every weight, activation and delta is a local
variable from the first epoch to the last. One pass over the samples runs
each one forward and back. The forward pass, the loss and the gradients
are the same function, returning early. Activations are sample-major and
weights row-major, as in `Matrix`. Dot products add their terms left to
right from 0.0 in input order, the adds builtin sum makes up to CPython
3.11 (it compensates from 3.12), so the bits are the same on every
CPython. Each sample appends one gradient row, its weight products and
deltas in parameter order, and each epoch forms every gradient in one
reduction, an fsum per parameter over the batch in sample order. Every
value that leaves an epoch (outputs, loss, gradients, updated parameters)
is checked where it is formed and raises NonFinite. A gradient that fails
is named as if each layer's gradients were gated in turn, the last layer
first and its weights before its biases: the failing reduction is replayed
that way. A traceback through the kernel names its file `<mlp 3-4-1>` and
shows the generated line.
"""

from __future__ import annotations

import functools
import linecache
import math
import random
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from math import exp, isfinite
from operator import add, mul, sub
from typing import Iterable, List, Sequence, Tuple

from .autodiff import sigmoid_value as sigmoid
from .errors import BadArchitecture, NonFinite, ShapeMismatch, TooSmallBatch
from .ndcore import (
    Matrix, Vector, _checked_float, _checked_floats, _count, _finite, _fsum, _fsums, _positive,
)


def sigmoid_derivative(a: float) -> float:
    """Slope of the logistic expressed through its output: a(1-a)."""
    return a * (1.0 - a)


@dataclass(frozen=True)
class MlpParams:
    """Layer sizes plus one weight matrix and bias vector per layer."""

    sizes: Tuple[int, ...]
    weights: Tuple[Matrix, ...]
    biases: Tuple[Vector, ...]

    def __post_init__(self) -> None:
        n_layers = len(self.sizes) - 1
        if n_layers < 1:
            raise BadArchitecture("need at least two layers, all sizes >= 1")
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise ShapeMismatch("one weight matrix and bias per layer required")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if (w.rows, w.cols) != (self.sizes[l], self.sizes[l + 1]):
                raise ShapeMismatch(
                    f"layer {l} weights are {w.rows}x{w.cols}, "
                    f"expected {self.sizes[l]}x{self.sizes[l + 1]}"
                )
            if len(b) != self.sizes[l + 1]:
                raise ShapeMismatch(f"layer {l} bias has length {len(b)}")
        # the compiled kernel is built from the sizes: keep the ints of the
        # weight shapes, not a 1.0 or True that compared equal to them
        object.__setattr__(self, "sizes", (self.weights[0].rows, *(w.cols for w in self.weights)))


def mlp_init(sizes: Sequence[int], seed: int) -> MlpParams:
    """Standard-normal weights and zero biases from one seeded stream."""
    sizes = tuple(_count(s, "layer size", 1, err=BadArchitecture) for s in sizes)
    if len(sizes) < 2:
        raise BadArchitecture("need at least two layers, all sizes >= 1")
    rng = random.Random(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        rows = [[rng.gauss(0.0, 1.0) for _ in range(fan_out)] for _ in range(fan_in)]
        weights.append(Matrix.from_rows(rows))
        biases.append(Vector([0.0] * fan_out))
    return MlpParams(sizes, tuple(weights), tuple(biases))


def affine(w: Matrix, x: Sequence[float], b: Sequence[float]) -> Vector:
    """Single-sample pre-activation W x + b."""
    xs = _checked_floats(x, "x")
    bs = _checked_floats(b, "b")
    if w.cols != len(xs) or w.rows != len(bs):
        raise ShapeMismatch(
            f"{w.rows}x{w.cols} weights cannot map {len(xs)} inputs "
            f"to {len(bs)} outputs"
        )
    # each row's products left to right from 0.0, then the bias, as the
    # kernel's dot products: builtin sum compensates from CPython 3.12
    return Vector([functools.reduce(add, map(mul, row, xs), 0.0) + bi for row, bi in zip(w.to_rows(), bs)])


# both branches of `sigmoid`, inlined
_SIGMOID = "1.0 / (1.0 + exp(-v)) if v >= 0.0 else (z := exp(v)) / (1.0 + z)"


def _tuple(terms: Iterable[str]) -> str:
    # with a trailing comma, so that a single term still forms a tuple
    return ", ".join(terms) + ","


# terms per link of a long sum: the compiler recurses once per + of a
# chain, and gives up near 3,000 on CPython 3.10 to 3.12
_LINK = 100


def _sum(terms: List[str]) -> str:
    # left to right from 0.0, so that -0.0 sums to 0.0: the adds builtin sum
    # makes up to CPython 3.11, without its tuple and call. A longer sum is
    # a tuple of links, each adding its terms to the running total s
    if len(terms) <= _LINK:
        return f"(0.0 + {' + '.join(terms)})"
    starts = range(0, len(terms), _LINK)
    links = (f"s := {'s' if k else '0.0'} + {' + '.join(terms[k:k + _LINK])}" for k in starts)
    return f"({_tuple(links)})[-1]"


def _source(sizes: Tuple[int, ...]) -> str:
    """Python source of the training loop of the net with these layer sizes.

    Unrolled over units inside a loop over samples, inside a loop over
    epochs. Layer l has activations a{l}_{i} (the inputs are layer 0) and,
    going back, deltas d{l}_{i}; w{l}_{i}_{j} weighs unit i of layer l into
    unit j of layer l + 1, whose bias is b{l}_{j}. P holds every weight,
    layer by layer, then every bias; each epoch unpacks it into those
    names. A{l} holds the activations of layer l for the batch. G holds one
    row per sample, in the order of P: the weight products a{l}_{i} *
    d{l+1}_{j} layer by layer, then the deltas. One _fsums over its columns
    gives every gradient of the epoch; when it raises, _gradient_gates
    names the failure. Only ints from range() enter the text.
    """
    a, d = ([[f"{c}{l}_{i}" for i in range(n)] for l, n in enumerate(sizes)] for c in "ad")
    w = [[[f"w{l}_{i}_{j}" for j in range(m)] for i in range(k)]
         for l, (k, m) in enumerate(zip(sizes, sizes[1:]))]
    b = [[f"b{l}_{j}" for j in range(m)] for l, m in enumerate(sizes[1:])]
    out, layers, ins, outs = len(w), range(len(w)), sizes[0], sizes[-1]
    targets = [f"t_{j}" for j in range(outs)]
    ends = [0, *accumulate([len(wl) * len(wl[0]) for wl in w] + [len(bl) for bl in b])]
    src = [
        "def mlp(W, B, X, T=None, eta=None, epochs=1):",
        f"    P = ({_tuple(f'*{c}[{l}]' for c in 'WB' for l in layers)})",
        # placeholder targets for a forward pass, which skips the backward pass
        f"    Y = repeat(({'0.0, ' * outs})) if T is None else zip(*[iter(T)] * {outs})",
        f"    pairs, scale, history = list(zip(zip(*[iter(X)] * {ins}), Y)), 2.0 / (len(X) // {ins} * {outs}), []",
        "    for _ in range(epochs):",
        f"        {_tuple(chain(*chain(*w), *b))} = P",
    ]
    src.append(f"        {_tuple(f'A{l + 1}' for l in layers)} G = {'[], ' * out}[]")
    src.append(f"        for ({_tuple(a[0])}), ({_tuple(targets)}) in pairs:")
    for l, wl in enumerate(w):
        for j, unit in enumerate(a[l + 1]):
            src.append(f"            v = {_sum([f'{x} * {wi[j]}' for x, wi in zip(a[l], wl)])} + {b[l][j]}")
            src.append(f"            {unit} = {_SIGMOID}")
        src.append(f"            A{l + 1} += {_tuple(a[l + 1])}")
    src += ["            if T is None:", "                continue"]
    for delta, y, t in zip(d[out], a[out], targets):
        src.append(f"            {delta} = scale * ({y} - {t}) * ({y} * (1.0 - {y}))")
    for l in reversed(layers[1:]):
        for i, x in enumerate(a[l]):
            dot = _sum([f"{dj} * {wij}" for dj, wij in zip(d[l + 1], w[l][i])])
            src.append(f"            d{l}_{i} = {dot} * ({x} * (1.0 - {x}))")
    # the sample's gradient row, in the order of P
    products = (f"{x} * {dj}" for l in layers for x in a[l] for dj in d[l + 1])
    src.append(f"            G.append(({_tuple(chain(products, *d[1:]))}))")
    slices = [f"[{i}:{j}]" for i, j in zip(ends, ends[1:])]
    src += [
        # a NaN pre-activation reaches every later unit of its sample
        f"        if not all(map(isfinite, A{out})):",
        f'            _finite(A{out}, "network output")',
        "        if T is None:",
        f"            return [{_tuple(f'A{l + 1}' for l in layers)}]",
        "        if eta is not None:",
        f"            history.append(_mse(A{out}, T))",
        # one fsum per parameter over the batch; a failure is named by the
        # per-layer gates, replayed in their order
        "        try:",
        '            g = _fsums(zip(*G), "gradient")',
        "        except NonFinite:",
        f"            _gradient_gates(G, ({_tuple(map(str, ends))}))",
        "            raise",
        "        if eta is None:",
        f"            return [{_tuple(f'g{s}' for s in slices[:out])}], [{_tuple(f'g{s}' for s in slices[out:])}]",
        "        P = tuple(map(sub, P, map(mul, repeat(eta), g)))",
        "        if not all(map(isfinite, P)):",
        '            _finite(P, "updated parameters")',
        f"    return [{_tuple(f'P{s}' for s in slices)}], history",
    ]
    return "\n".join(src) + "\n"


def _gradient_gates(G: List[tuple], ends: Tuple[int, ...]) -> None:
    """Raise the NonFinite of the first gradient that fails going back: the
    weights of the last layer, then its biases, then the layer before. G
    holds one gradient row per sample, and ends the bounds of each layer's
    weights and then biases within a row, as in P."""
    columns = list(zip(*G))
    layers = len(ends) // 2
    try:
        for l in reversed(range(layers)):
            _fsums(columns[ends[l]:ends[l + 1]], "weight gradient")
            _fsums(columns[ends[layers + l]:ends[layers + l + 1]], "bias gradient")
    except NonFinite as exc:
        raise exc from None


@functools.lru_cache(maxsize=None)
def _kernel(sizes: Tuple[int, ...]):
    """The compiled training loop for these layer sizes, built once per process.

    mlp(W, B, X) returns the activations of every layer after the inputs,
    mlp(W, B, X, T) the weight and bias gradients, and mlp(W, B, X, T, eta,
    epochs) the weights and then the biases of each layer after that many
    steps, with the loss before each step. Each epoch sums all its
    gradients in one reduction over the samples' gradient rows; a
    non-finite one raises the NonFinite of the per-layer gates, last layer
    first, weights before biases. W and B are lists of the
    row-major weights and of the biases, X and T the sample-major inputs
    and targets. The source is kept in linecache under its file name, so
    that a traceback shows the line. The cache holds one function and its
    source for each shape a process uses.
    """
    source = _source(sizes)
    name = f"<mlp {'-'.join(map(str, sizes))}>"
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    namespace: dict = {}
    exec(compile(source, name, "exec"), globals(), namespace)
    return namespace["mlp"]


def _args(p: MlpParams, x: Matrix, y: Matrix | None = None) -> list:
    """The kernel's weights, biases, inputs and, given y, targets."""
    if x.cols != p.sizes[0]:
        raise ShapeMismatch(f"{x.cols} features fed to a {p.sizes[0]}-input net")
    if y is not None and (y.cols != p.sizes[-1] or y.rows != x.rows):
        raise ShapeMismatch(f"targets are {y.rows}x{y.cols}, expected {x.rows}x{p.sizes[-1]}")
    args = [[w.data for w in p.weights], [b.data for b in p.biases], x.data]
    return args if y is None else args + [y.data]


def _mse(out: List[float], targets: List[float]) -> float:
    # float pow raises OverflowError past the float maximum, as fsum does
    return _fsum(map(pow, map(sub, out, targets), repeat(2)), "squared error") / len(out)


def mlp_forward(p: MlpParams, x: Matrix) -> Tuple[Tuple[Matrix, ...], Matrix]:
    """Run the batch through every layer; returns (activations, output)."""
    acts = _kernel(p.sizes)(*_args(p, x))
    mats = tuple(Matrix(x.rows, m, a) for m, a in zip(p.sizes[1:], acts))
    return mats, mats[-1]


def mlp_loss(p: MlpParams, x: Matrix, y: Matrix) -> float:
    """Mean squared error of the network output against targets."""
    *args, targets = _args(p, x, y)
    return _mse(_kernel(p.sizes)(*args)[-1], targets)


def mlp_gradients(
    p: MlpParams, x: Matrix, y: Matrix
) -> Tuple[Tuple[Matrix, ...], Tuple[Vector, ...]]:
    """Exact gradients of the mean-squared error over the batch.

    Deltas flow backwards: the output delta is 2(a-y)/(batch*outputs)
    times sigma', hidden deltas are (delta W^T) * sigma', and each
    layer's gradient is (previous activation)^T delta with bias
    gradients the column sums. The first epoch of the compiled loop
    that `mlp_train` runs, stopped before its update.
    """
    g_w, g_b = _kernel(p.sizes)(*_args(p, x, y))
    weights = tuple(Matrix(w.rows, w.cols, g) for w, g in zip(p.weights, g_w))
    return weights, tuple(map(Vector, g_b))


def mlp_train(
    p: MlpParams, x: Matrix, y: Matrix, eta: float, epochs: int
) -> Tuple[MlpParams, List[float]]:
    """Full-batch gradient descent; history holds the pre-step loss.

    Checks its arguments once, then runs every epoch in one call of the
    compiled loop, which keeps the parameters in local variables: per
    sample a forward and a backward pass, then the loss, the gradients and
    the update. An update that overflows raises NonFinite at its epoch.
    """
    eta = _positive(eta, "eta")
    _count(epochs, "epochs")
    trained, history = _kernel(p.sizes)(*_args(p, x, y), eta, epochs)
    weights = tuple(Matrix(w.rows, w.cols, r) for w, r in zip(p.weights, trained))
    biases = tuple(map(Vector, trained[len(weights):]))
    return MlpParams(p.sizes, weights, biases), history


@dataclass(frozen=True)
class BatchNormParams:
    gamma: Vector
    beta: Vector
    eps: float = 1e-5

    def __post_init__(self) -> None:
        if len(self.gamma) != len(self.beta):
            raise ShapeMismatch("gamma and beta must have the same length")
        object.__setattr__(self, "eps", _positive(self.eps, "eps"))

    @classmethod
    def identity(cls, n: int, eps: float = 1e-5) -> "BatchNormParams":
        _count(n, "n")
        return cls(Vector([1.0] * n), Vector([0.0] * n), eps)


def batchnorm_forward(x: Matrix, p: BatchNormParams) -> Matrix:
    """Column-wise standardization then scale/shift: gamma x_hat + beta.

    Uses the biased variance (divisor n); eps keeps the denominator
    away from zero for constant columns.
    """
    if x.rows < 2:
        raise TooSmallBatch(f"batch of {x.rows} cannot be normalized")
    if len(p.gamma) != x.cols:
        raise ShapeMismatch(f"{len(p.gamma)} scales for {x.cols} features")
    rows = x.to_rows()
    out = [[0.0] * x.cols for _ in range(x.rows)]
    for j in range(x.cols):
        col = [rows[i][j] for i in range(x.rows)]
        mu = _fsum(col, "batch mean") / len(col)
        # the OverflowError of ** 2 is raised inside the gate
        var = _fsum(((v - mu) ** 2 for v in col), "batch variance") / len(col)
        denom = math.sqrt(var + p.eps)
        for i in range(x.rows):
            out[i][j] = p.gamma[j] * (col[i] - mu) / denom + p.beta[j]
    return Matrix.from_rows(out)


@dataclass(frozen=True)
class GridEnv:
    """Five-state ring: every action advances the state by one."""

    rewards: Matrix
    goal_state: int

    @classmethod
    def default(cls) -> "GridEnv":
        table = [[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-1.0, 1.0], [10.0, -10.0]]
        return cls(Matrix.from_rows(table), 4)

    @property
    def n_states(self) -> int:
        return self.rewards.rows

    @property
    def n_actions(self) -> int:
        return self.rewards.cols

    def step(self, state: int, action: int) -> Tuple[int, float]:
        return (state + 1) % self.n_states, self.rewards.get(state, action)


@dataclass(frozen=True)
class QTable:
    values: Matrix

    def best_action(self, state: int) -> int:
        # index finds the first of equal values: ties go to the lowest action
        row = self.values.row(state)
        return row.index(max(row))


def q_learn(
    env: GridEnv,
    alpha: float,
    gamma_disc: float,
    eps_explore: float,
    episodes: int,
    seed: int,
) -> QTable:
    """Tabular Q-learning with epsilon-greedy exploration.

    Each episode starts at a random state and runs until the goal;
    the update is Q(s,a) += alpha (r + gamma max_a' Q(s',a') - Q(s,a)).
    """
    if not 0.0 < (alpha := _checked_float(alpha, "alpha")) <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if not 0.0 <= (gamma_disc := _checked_float(gamma_disc, "gamma_disc")) < 1.0:
        raise ValueError("gamma_disc must be in [0, 1)")
    if not 0.0 <= (eps_explore := _checked_float(eps_explore, "eps_explore")) <= 1.0:
        raise ValueError("eps_explore must be in [0, 1]")
    _count(episodes, "episodes")
    rng = random.Random(seed)
    q = [[0.0] * env.n_actions for _ in range(env.n_states)]
    for _ in range(episodes):
        state = rng.randrange(env.n_states)
        while state != env.goal_state:
            if rng.random() < eps_explore:
                action = rng.randrange(env.n_actions)
            else:
                action = q[state].index(max(q[state]))  # as best_action
            nxt, reward = env.step(state, action)
            q[state][action] += alpha * (
                reward + gamma_disc * max(q[nxt]) - q[state][action]
            )
            state = nxt
    return QTable(Matrix.from_rows(q))


def greedy_rollout(
    q: QTable, env: GridEnv, start: int = 0, max_steps: int = 10
) -> List[int]:
    """States visited when always taking the best known action."""
    _count(start, "start", 0, env.n_states - 1)
    _count(max_steps, "max_steps")
    path = [start]
    state = start
    for _ in range(max_steps):
        if state == env.goal_state:
            break
        state, _ = env.step(state, q.best_action(state))
        path.append(state)
    return path

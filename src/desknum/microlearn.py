"""Micro machine-learning demos built on the dense kernels.

A fully-connected sigmoid network trained by full-batch gradient
descent on mean-squared error, a batch-normalization forward pass,
and tabular Q-learning on a five-state ring environment. Everything
is deterministic given an explicit seed.

The network runs on one private kernel over flat, batch-wide lists:
activations are sample-major and weights row-major, as in `Matrix`. The
layout of every layer depends only on the layer sizes and the batch, so
each public MLP call builds it once, `_plan`: per layer, itemgetter
gathers that pick the inputs and weights at every (sample, unit, input)
triple for the forward pass, and the deltas and inputs at every (sample,
input, unit) triple for the backward pass. An epoch then lays each layer
out with one C-level call per gather and makes one map(mul, ...) over the
triples. Dot products are grouped builtin sums, which add left to right
from 0 as a per-sample loop does, and gradients are grouped fsums over the
batch. Every value that leaves the kernel (outputs, gradients, updated
parameters) is checked where it is formed and raises NonFinite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain, repeat
from math import exp
from operator import add, itemgetter, mul, sub
from typing import Iterable, Iterator, List, Sequence, Tuple

from .autodiff import sigmoid_value as sigmoid
from .errors import BadArchitecture, ShapeMismatch, TooSmallBatch
from .ndcore import Matrix, Vector, _checked_floats, _finite, _fsum, _fsums


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
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise ShapeMismatch("one weight matrix and bias per layer required")
        for l in range(n_layers):
            w, b = self.weights[l], self.biases[l]
            if (w.rows, w.cols) != (self.sizes[l], self.sizes[l + 1]):
                raise ShapeMismatch(
                    f"layer {l} weights are {w.rows}x{w.cols}, "
                    f"expected {self.sizes[l]}x{self.sizes[l + 1]}"
                )
            if len(b) != self.sizes[l + 1]:
                raise ShapeMismatch(f"layer {l} bias has length {len(b)}")


def mlp_init(sizes: Sequence[int], seed: int) -> MlpParams:
    """Standard-normal weights and zero biases from one seeded stream."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
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
    return Vector([sum(map(mul, row, xs)) + bi for row, bi in zip(w.to_rows(), bs)])


def _groups(flat: Iterable[float], k: int) -> Iterator[tuple]:
    return zip(*[iter(flat)] * k)


def _gather(indices: Sequence[int]):
    """seq -> the tuple of seq[i] for every i of indices, in one C-level call."""
    if len(indices) == 1:
        # itemgetter of a single index returns the item, not a 1-tuple
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


def _plan(sizes: Sequence[int], batch: int) -> list:
    """Per layer (k inputs, m units): k, m, the gathers of inputs and weights
    at every (sample, unit, input) and of deltas and inputs at every (sample,
    input, unit). They depend only on the sizes and the batch."""
    plan = []
    for k, m in zip(sizes, sizes[1:]):
        fwd = [(s * k + i, i * m + j) for s in range(batch) for j in range(m) for i in range(k)]
        bwd = [(s * m + j, s * k + i) for s in range(batch) for i in range(k) for j in range(m)]
        plan.append((k, m, *map(_gather, zip(*fwd)), *map(_gather, zip(*bwd))))
    return plan


def _params(p: MlpParams) -> Tuple[list, list]:
    # the row-major weights and the biases of every layer, for the kernel
    return [w.data for w in p.weights], [b.data for b in p.biases]


def _inputs(p: MlpParams, x: Matrix) -> List[float]:
    if x.cols != p.sizes[0]:
        raise ShapeMismatch(f"{x.cols} features fed to a {p.sizes[0]}-input net")
    return x.data


def _targets(p: MlpParams, x: Matrix, y: Matrix) -> List[float]:
    if y.cols != p.sizes[-1] or y.rows != x.rows:
        raise ShapeMismatch(
            f"targets are {y.rows}x{y.cols}, expected {x.rows}x{p.sizes[-1]}"
        )
    return y.data


def _forward(plan: list, w_rows: list, biases: list, x: List[float]) -> list:
    """Activations of every layer, the inputs first.

    A NaN pre-activation reaches every later unit of its sample, so
    checking the output catches a NaN anywhere in the net.
    """
    acts = [x]
    batch = len(x) // plan[0][0]
    for (k, _, inputs_at, weights_at, _, _), w, b in zip(plan, w_rows, biases):
        # one product per (sample, unit, input), one sum per (sample, unit)
        prods = map(mul, inputs_at(acts[-1]), weights_at(w))
        pre = map(add, map(sum, _groups(prods, k)), b * batch)
        # both branches of `sigmoid`, inlined
        acts.append(
            [1.0 / (1.0 + exp(-v)) if v >= 0.0 else (z := exp(v)) / (1.0 + z) for v in pre]
        )
    _finite(acts[-1], "network output")
    return acts


def _mse(out: List[float], targets: List[float]) -> float:
    # float pow raises OverflowError past the float maximum, as fsum does
    return _fsum(map(pow, map(sub, out, targets), repeat(2)), "squared error") / len(out)


def _backward(plan: list, w_rows: list, acts: list, targets: list) -> tuple:
    """Per-layer weight gradients, row-major, and bias gradients."""
    out = acts[-1]
    scale = 2.0 / len(out)
    delta = [scale * (a - t) * (a * (1.0 - a)) for a, t in zip(out, targets)]
    g_w, g_b = [], []
    for l in reversed(range(len(w_rows))):
        k, m, _, _, deltas_at, inputs_at = plan[l]
        prev = acts[l]
        spread = deltas_at(delta)
        # each gradient is an fsum over the batch, checked as it is formed,
        # before the next sums run
        prods = map(mul, inputs_at(prev), spread)
        g_w.append(_fsums(zip(*_groups(prods, k * m)), "weight gradient"))
        g_b.append(_fsums(zip(*_groups(delta, m)), "bias gradient"))
        if l:
            back = map(mul, spread, w_rows[l] * (len(prev) // k))
            sums = map(sum, _groups(back, m))
            delta = [v * (a * (1.0 - a)) for v, a in zip(sums, prev)]
    return g_w[::-1], g_b[::-1]


def mlp_forward(p: MlpParams, x: Matrix) -> Tuple[Tuple[Matrix, ...], Matrix]:
    """Run the batch through every layer; returns (activations, output)."""
    acts = _forward(_plan(p.sizes, x.rows), *_params(p), _inputs(p, x))
    mats = tuple(Matrix(x.rows, m, a) for m, a in zip(p.sizes[1:], acts[1:]))
    return mats, mats[-1]


def mlp_loss(p: MlpParams, x: Matrix, y: Matrix) -> float:
    """Mean squared error of the network output against targets."""
    rows, targets = _inputs(p, x), _targets(p, x, y)
    return _mse(_forward(_plan(p.sizes, x.rows), *_params(p), rows)[-1], targets)


def mlp_gradients(
    p: MlpParams, x: Matrix, y: Matrix
) -> Tuple[Tuple[Matrix, ...], Tuple[Vector, ...]]:
    """Exact gradients of the mean-squared error over the batch.

    Deltas flow backwards: the output delta is 2(a-y)/(batch*outputs)
    times sigma', hidden deltas are (delta W^T) * sigma', and each
    layer's gradient is (previous activation)^T delta with bias
    gradients the column sums. One forward and one backward pass of
    the list kernel that `mlp_train` runs every epoch.
    """
    rows, targets = _inputs(p, x), _targets(p, x, y)
    plan, (w_rows, biases) = _plan(p.sizes, x.rows), _params(p)
    acts = _forward(plan, w_rows, biases, rows)
    g_w, g_b = _backward(plan, w_rows, acts, targets)
    return (
        tuple(Matrix(w.rows, w.cols, g) for w, g in zip(p.weights, g_w)),
        tuple(Vector(g) for g in g_b),
    )


def mlp_train(
    p: MlpParams, x: Matrix, y: Matrix, eta: float, epochs: int
) -> Tuple[MlpParams, List[float]]:
    """Full-batch gradient descent; history holds the pre-step loss.

    Checks its arguments once, then each epoch makes one forward pass,
    which also gives the loss, one backward pass and a list update. An
    update that overflows raises NonFinite at its epoch.
    """
    if not 0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    if epochs < 0:
        raise ValueError("epochs must be nonnegative")
    rows, targets = _inputs(p, x), _targets(p, x, y)
    plan, (w_rows, biases) = _plan(p.sizes, x.rows), _params(p)
    history: List[float] = []
    for _ in range(epochs):
        acts = _forward(plan, w_rows, biases, rows)
        history.append(_mse(acts[-1], targets))
        g_w, g_b = _backward(plan, w_rows, acts, targets)
        w_rows = [[w - eta * g for w, g in zip(*pair)] for pair in zip(w_rows, g_w)]
        biases = [[b - eta * g for b, g in zip(*pair)] for pair in zip(biases, g_b)]
        _finite(chain(*w_rows, *biases), "updated parameters")
    weights = tuple(Matrix(w.rows, w.cols, r) for w, r in zip(p.weights, w_rows))
    return MlpParams(p.sizes, weights, tuple(Vector(b) for b in biases)), history


@dataclass(frozen=True)
class BatchNormParams:
    gamma: Vector
    beta: Vector
    eps: float = 1e-5

    def __post_init__(self) -> None:
        if len(self.gamma) != len(self.beta):
            raise ShapeMismatch("gamma and beta must have the same length")
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    @classmethod
    def identity(cls, n: int, eps: float = 1e-5) -> "BatchNormParams":
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
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if not 0.0 <= gamma_disc < 1.0:
        raise ValueError("gamma_disc must be in [0, 1)")
    if not 0.0 <= eps_explore <= 1.0:
        raise ValueError("eps_explore must be in [0, 1]")
    if episodes < 0:
        raise ValueError("episodes must be nonnegative")
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
    path = [start]
    state = start
    for _ in range(max_steps):
        if state == env.goal_state:
            break
        state, _ = env.step(state, q.best_action(state))
        path.append(state)
    return path

"""Micro machine-learning demos built on the dense kernels.

A fully-connected sigmoid network trained by full-batch gradient
descent on mean-squared error, a batch-normalization forward pass,
and tabular Q-learning on a five-state ring environment. Everything
is deterministic given an explicit seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .autodiff import sigmoid_value as sigmoid
from .errors import BadArchitecture, ShapeMismatch, TooSmallBatch
from .ndcore import Matrix, Vector, matmul


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
    xs = [float(v) for v in x]
    bs = [float(v) for v in b]
    if w.cols != len(xs) or w.rows != len(bs):
        raise ShapeMismatch(
            f"{w.rows}x{w.cols} weights cannot map {len(xs)} inputs "
            f"to {len(bs)} outputs"
        )
    return Vector(
        [sum(w.get(i, j) * xs[j] for j in range(w.cols)) + bs[i] for i in range(w.rows)]
    )


def _forward_rows(p: MlpParams, rows: List[List[float]]) -> List[List[List[float]]]:
    # returns activations per layer, each batch x width, input excluded
    acts = []
    cur = rows
    for w, b in zip(p.weights, p.biases):
        wr = w.to_rows()
        nxt = []
        for sample in cur:
            z = [
                sum(sample[i] * wr[i][j] for i in range(w.rows)) + b[j]
                for j in range(w.cols)
            ]
            nxt.append([sigmoid(v) for v in z])
        acts.append(nxt)
        cur = nxt
    return acts


def mlp_forward(p: MlpParams, x: Matrix) -> Tuple[Tuple[Matrix, ...], Matrix]:
    """Run the batch through every layer; returns (activations, output)."""
    if x.cols != p.sizes[0]:
        raise ShapeMismatch(f"{x.cols} features fed to a {p.sizes[0]}-input net")
    acts = [Matrix.from_rows(a) for a in _forward_rows(p, x.to_rows())]
    return tuple(acts), acts[-1]


def mlp_loss(p: MlpParams, x: Matrix, y: Matrix) -> float:
    """Mean squared error of the network output against targets."""
    _, out = mlp_forward(p, x)
    total = math.fsum(
        (out.get(i, j) - y.get(i, j)) ** 2
        for i in range(out.rows)
        for j in range(out.cols)
    )
    return total / (out.rows * out.cols)


def mlp_gradients(
    p: MlpParams, x: Matrix, y: Matrix
) -> Tuple[Tuple[Matrix, ...], Tuple[Vector, ...]]:
    """Exact gradients of the mean-squared error over the batch.

    Deltas flow backwards: the output delta is 2(a-y)/(batch*outputs)
    times sigma', hidden deltas are (delta W^T) * sigma', and each
    layer's gradient is (previous activation)^T delta with bias
    gradients the column sums.
    """
    if y.cols != p.sizes[-1] or y.rows != x.rows:
        raise ShapeMismatch(
            f"targets are {y.rows}x{y.cols}, expected {x.rows}x{p.sizes[-1]}"
        )
    xs = x.to_rows()
    acts = _forward_rows(p, xs)
    batch = x.rows
    scale = 2.0 / (batch * p.sizes[-1])
    out = acts[-1]
    delta = [
        [
            scale * (out[s][j] - y.get(s, j)) * sigmoid_derivative(out[s][j])
            for j in range(p.sizes[-1])
        ]
        for s in range(batch)
    ]
    d_weights: List[Matrix] = [None] * len(p.weights)
    d_biases: List[Vector] = [None] * len(p.biases)
    for l in range(len(p.weights) - 1, -1, -1):
        prev = xs if l == 0 else acts[l - 1]
        fan_in, fan_out = p.sizes[l], p.sizes[l + 1]
        d_weights[l] = Matrix.from_rows(
            [
                [
                    math.fsum(prev[s][i] * delta[s][j] for s in range(batch))
                    for j in range(fan_out)
                ]
                for i in range(fan_in)
            ]
        )
        d_biases[l] = Vector(
            [math.fsum(delta[s][j] for s in range(batch)) for j in range(fan_out)]
        )
        if l > 0:
            wr = p.weights[l].to_rows()
            delta = [
                [
                    sum(delta[s][j] * wr[i][j] for j in range(fan_out))
                    * sigmoid_derivative(acts[l - 1][s][i])
                    for i in range(fan_in)
                ]
                for s in range(batch)
            ]
    return tuple(d_weights), tuple(d_biases)


def mlp_train(
    p: MlpParams, x: Matrix, y: Matrix, eta: float, epochs: int
) -> Tuple[MlpParams, List[float]]:
    """Full-batch gradient descent; history holds the pre-step loss."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if epochs < 0:
        raise ValueError("epochs must be nonnegative")
    history: List[float] = []
    for _ in range(epochs):
        history.append(mlp_loss(p, x, y))
        d_w, d_b = mlp_gradients(p, x, y)
        weights = tuple(
            Matrix(
                w.rows,
                w.cols,
                [wv - eta * gv for wv, gv in zip(w.data, g.data)],
            )
            for w, g in zip(p.weights, d_w)
        )
        biases = tuple(
            Vector([bv - eta * gv for bv, gv in zip(b.data, g.data)])
            for b, g in zip(p.biases, d_b)
        )
        p = MlpParams(p.sizes, weights, biases)
    return p, history


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
        mu = math.fsum(col) / len(col)
        var = math.fsum((v - mu) ** 2 for v in col) / len(col)
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
        # ties go to the lowest action index
        best = 0
        for j in range(1, self.values.cols):
            if self.values.get(state, j) > self.values.get(state, best):
                best = j
        return best


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
                action = 0
                for j in range(1, env.n_actions):
                    if q[state][j] > q[state][action]:
                        action = j
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

"""Reverse-mode automatic differentiation on scalar expression tapes.

Expressions are built from input variables with overloaded operators plus the
unary helpers exp/log/sin/cos/tanh/sigmoid. Recording evaluates eagerly: each
expression carries its value, and the tape keeps only what the backward sweep
reads, the parents and local partials of each entry, in two parallel lists.
The n inputs are entries 0..n-1, so a single backward sweep yields all input
partials as the first n adjoints. Jacobians reuse one tape with one sweep per
output; Hessians are central differences of the gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Sequence, Union

from .errors import DomainError, NonFinite
from .ndcore import Matrix, _checked_floats, _fd_columns, _positive


_MIXED = "cannot mix expressions from different tapes"


@dataclass(frozen=True)
class Grad:
    """Partials aligned with the tape's input order."""

    partials: list[float]


class Tape:
    """Append-only record of elementary ops in topological order.

    Entry i is parents[i], the indices of its operands, and partials[i], the
    local partial of its value with respect to each. Entries 0..n-1 are the n
    inputs, with no parents; constants likewise have none. The values live on
    the Expr handles, since the backward sweep never reads them.
    """

    def __init__(self, n: int) -> None:
        self.parents: list[tuple[int, ...]] = [()] * n
        self.partials: list[tuple[float, ...]] = [()] * n
        self.input_indices = range(n)
        self.output_index: int = -1

    def _emit(self, op: str, parents: tuple[int, ...], partials: tuple[float, ...], value: float) -> "Expr":
        if not math.isfinite(value):
            raise NonFinite(f"{op} produced a non-finite value")
        for d in partials:
            if not math.isfinite(d):
                raise NonFinite(f"{op} produced a non-finite partial")
        self.parents.append(parents)
        self.partials.append(partials)
        return Expr(self, len(self.parents) - 1, value)

    def _const(self, value: float) -> "Expr":
        return self._emit("const", (), (), value)


class Expr:
    """Handle to one tape entry and its value; arithmetic on it extends the tape."""

    __slots__ = ("tape", "index", "value")

    def __init__(self, tape: Tape, index: int, value: float):
        self.tape = tape
        self.index = index
        self.value = value

    def _coerce(self, other: Union["Expr", int, float]) -> "Expr":
        if isinstance(other, Expr):
            if other.tape is not self.tape:
                raise ValueError(_MIXED)
            return other
        return self.tape._const(float(other))

    def __add__(self, other):
        o = self._coerce(other)
        return self.tape._emit("add", (self.index, o.index), (1.0, 1.0), self.value + o.value)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return self.tape._emit("sub", (self.index, o.index), (1.0, -1.0), self.value - o.value)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        return self.tape._emit(
            "mul", (self.index, o.index), (o.value, self.value), self.value * o.value
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.value == 0.0:
            raise DomainError("division by zero while recording")
        inv = 1.0 / o.value
        return self.tape._emit(
            "div",
            (self.index, o.index),
            (inv, -self.value * inv * inv),
            self.value * inv,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o.__truediv__(self)

    def __pow__(self, exponent):
        if isinstance(exponent, Expr):
            raise TypeError("only constant exponents are supported")
        c = float(exponent)
        try:
            val = math.pow(self.value, c)
            if c == 0.0:
                d = 0.0
            else:
                d = c * math.pow(self.value, c - 1.0)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"pow_const outside the real domain: {exc}") from exc
        except OverflowError as exc:
            raise NonFinite("pow_const overflow") from exc
        return self.tape._emit("pow_const", (self.index,), (d,), val)

    def __neg__(self):
        return self.tape._emit("neg", (self.index,), (-1.0,), -self.value)


def _unary(e: Expr, op: str, value: float, partial: float) -> Expr:
    return e.tape._emit(op, (e.index,), (partial,), value)


def exp(e: Expr) -> Expr:
    try:
        v = math.exp(e.value)
    except OverflowError as exc:
        raise NonFinite("exp overflow") from exc
    return _unary(e, "exp", v, v)


def log(e: Expr) -> Expr:
    if e.value <= 0.0:
        raise DomainError(f"log of non-positive value {e.value}")
    return _unary(e, "log", math.log(e.value), 1.0 / e.value)


def sin(e: Expr) -> Expr:
    return _unary(e, "sin", math.sin(e.value), math.cos(e.value))


def cos(e: Expr) -> Expr:
    return _unary(e, "cos", math.cos(e.value), -math.sin(e.value))


def tanh(e: Expr) -> Expr:
    t = math.tanh(e.value)
    return _unary(e, "tanh", t, 1.0 - t * t)


def sigmoid_value(x: float) -> float:
    """Numerically stable logistic function for plain floats."""
    if x >= 0.0:
        z = math.exp(-x)
        return 1.0 / (1.0 + z)
    z = math.exp(x)
    return z / (1.0 + z)


def sigmoid(e: Expr) -> Expr:
    s = sigmoid_value(e.value)
    return _unary(e, "sigmoid", s, s * (1.0 - s))


def _on_tape(f: Callable[..., Sequence[Expr]], x: Sequence[float], what: str) -> tuple[Tape, list[Expr]]:
    """A tape whose inputs 0..n-1 hold x, and the outputs of f on them, each
    plain-float output recorded as a constant entry. An output recorded on
    another tape raises ValueError."""
    xs = _checked_floats(x, what)
    tape = Tape(len(xs))
    outs = f(*map(Expr, repeat(tape), tape.input_indices, xs))
    outs = [o if isinstance(o, Expr) else tape._const(float(o)) for o in outs]
    if any(o.tape is not tape for o in outs):
        raise ValueError(_MIXED)
    return tape, outs


def record(f: Callable[..., Expr], inputs: Sequence[float]) -> tuple[float, Tape]:
    """Evaluate f on fresh tape inputs; return (value, tape)."""
    tape, (out,) = _on_tape(lambda *e: [f(*e)], inputs, "inputs")
    tape.output_index = out.index
    return out.value, tape


def _backward(tape: Tape, seed: int) -> list[float]:
    parents, partials = tape.parents, tape.partials
    adj = [0.0] * len(parents)
    adj[seed] = 1.0
    # entries after the seed cannot reach it, so their adjoints stay zero
    for i in range(seed, -1, -1):
        a = adj[i]
        if a != 0.0:
            for p, d in zip(parents[i], partials[i]):
                adj[p] += a * d
    return adj


def gradient(tape: Tape) -> Grad:
    """One reverse sweep: partials of the output w.r.t. every input."""
    adj = _backward(tape, tape.output_index)
    # each partial on the tape is finite, their products along a path need not be
    return Grad(_checked_floats(adj[: len(tape.input_indices)], "gradient"))


def jacobian(f: Callable[..., Sequence[Expr]], x: Sequence[float]) -> Matrix:
    """m x n Jacobian of a vector-valued expression family at x."""
    tape, outs = _on_tape(f, x, "x")
    n = len(tape.input_indices)
    return Matrix.from_rows([_backward(tape, out.index)[:n] for out in outs])


def hessian_fd(f: Callable[..., Expr], x: Sequence[float], h: float = 1e-5) -> Matrix:
    """Central finite differences of the reverse-mode gradient, symmetrized."""
    h = _positive(h, "h")
    xs = _checked_floats(x, "x")
    n = len(xs)
    cols = _fd_columns(lambda v: gradient(record(f, v)[1]).partials, xs, h)
    out = [[(cols[j][i] + cols[i][j]) / 2.0 for j in range(n)] for i in range(n)]
    return Matrix.from_rows(out)

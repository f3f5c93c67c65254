"""Deterministic command-line front end over the library demos.

Every subcommand writes CSV (or ASCII PGM for images) to --out or
standard output. There is no randomness beyond explicit --seed flags,
so identical invocations produce byte-identical artifacts.

Exit codes: 0 success, 1 usage error, 2 numeric failure (the message
starts with the error class name).
"""

from __future__ import annotations

import argparse
import bisect
import functools
from array import array
import math
import sys
from itertools import accumulate, repeat
from operator import add, mul, sub, truediv
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from . import (
    dynamics,
    interp,
    lindecomp,
    microlearn,
    optimize,
    quadrature,
    roots,
    spectral,
)
from .errors import MalformedCsv, MalformedPgm, NonFinite, NumericsError
from .ndcore import Matrix, matmul
from .spectral import Image2D


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse normally exits the process on bad flags; surface the
    # message instead so run() can map it to exit code 1
    def error(self, message):
        raise _UsageError(message)


# serialization helpers


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    f = float(v)
    if not math.isfinite(f):
        raise NonFinite("refusing to serialize a non-finite value")
    return format(f, ".17g")


def _csv(first: str, rows: Iterable[Sequence], width: int) -> bytes:
    """The line `first`, then each row of `width` cells comma-separated with
    17 significant digits; newline line ends."""
    lines = [first]
    for row in rows:
        if len(row) != width:
            raise MalformedCsv(
                f"row of {len(row)} cells under {width} headers"
            )
        lines.append(",".join(_fmt_cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def write_csv(headers: Sequence[str], rows: Sequence[Sequence]) -> bytes:
    """Comma-separated table, newline line ends, 17 significant digits."""
    return _csv(",".join(str(h) for h in headers), rows, len(headers))


def _ascii_lines(data: bytes, what: str, first: str) -> List[str]:
    """The lines of an ASCII file, without the empty one after a final newline."""
    try:
        lines = data.decode("ascii").split("\n")
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{what} must be ASCII") from exc
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise MalformedCsv(f"missing {first}")
    return lines


def read_csv(data: bytes) -> Tuple[List[str], List[List[float]]]:
    """Inverse of write_csv; all data cells parse as floats."""
    lines = _ascii_lines(data, "CSV", "header row")
    headers = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(headers):
            raise MalformedCsv(f"expected {len(headers)} cells, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise MalformedCsv(f"bad numeric cell in row: {ln!r}") from exc
    return headers, rows


def write_matrix_csv(m: Matrix) -> bytes:
    """Dimensions line `r,c`, then one CSV row per matrix row."""
    return _csv(f"{m.rows},{m.cols}", m.to_rows(), m.cols)


def read_matrix_csv(data: bytes) -> Matrix:
    lines = _ascii_lines(data, "matrix CSV", "dimensions line")
    try:
        r, c = (int(v) for v in lines[0].split(","))
        rows = [[float(cell) for cell in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        raise MalformedCsv("matrix CSV must be `rows,cols` then rows") from exc
    if len(rows) != r or any(len(row) != c for row in rows):
        raise MalformedCsv(f"expected a {r}x{c} body")
    return Matrix.from_rows(rows)


# one shared string per pixel value, so a large image makes no new strings
_PIXEL_TOKENS = tuple(map(str, range(256)))


def write_pgm(img: Image2D) -> bytes:
    """ASCII P2, maxval 255, pixel lines kept at 70 characters or less."""
    values = list(map(round, img.data))
    if (
        max(map(abs, map(sub, img.data, values))) > 1e-6
        or min(values) < 0
        or max(values) > 255
    ):
        bad = next(
            v for v, n in zip(img.data, values) if abs(v - n) > 1e-6 or not 0 <= n <= 255
        )
        raise MalformedPgm(f"pixel {bad!r} is not an integer in [0, 255]")
    return _pgm_bytes(img.rows, img.cols, values)


def _pgm_bytes(rows: int, cols: int, values: Sequence[int]) -> bytes:
    """write_pgm's bytes for pixels already known to be ints in [0, 255]."""
    tokens = list(map(_PIXEL_TOKENS.__getitem__, values))
    # ends[i] is the width of tokens[:i] with one space after each, so a
    # line tokens[s:e] is ends[e] - ends[s] - 1 wide; each line takes as
    # many tokens as fit in 70 columns
    ends = array("q", accumulate(map(add, map(len, tokens), repeat(1)), initial=0))
    lines = ["P2", f"{cols} {rows}", "255"]
    start = 0
    while start < len(tokens):
        end = bisect.bisect_right(ends, ends[start] + 71, start + 1) - 1
        lines.append(" ".join(tokens[start:end]))
        start = end
    return ("\n".join(lines) + "\n").encode("ascii")


def read_pgm(data: bytes) -> Image2D:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedPgm("PGM must be ASCII (P2)") from exc
    if "#" in text:
        # strip end-of-line comments before tokenizing
        text = "\n".join(line.split("#", 1)[0] for line in text.split("\n"))
    tokens = text.split()
    if not tokens or tokens[0] != "P2":
        raise MalformedPgm("only ASCII PGM (magic P2) is supported")
    if len(tokens) < 4:
        raise MalformedPgm("truncated PGM header")
    try:
        cols, rows, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        pixels = list(map(int, tokens[4:]))
    except ValueError as exc:
        raise MalformedPgm("non-integer token in PGM") from exc
    if cols < 1 or rows < 1:
        raise MalformedPgm(f"PGM dimensions must be positive, got {cols}x{rows}")
    if maxval != 255:
        raise MalformedPgm(f"maxval must be 255, got {maxval}")
    if len(pixels) != rows * cols:
        raise MalformedPgm(f"expected {rows * cols} pixels, got {len(pixels)}")
    if min(pixels) < 0 or max(pixels) > 255:
        raise MalformedPgm("pixel outside [0, 255]")
    return spectral._image(rows, cols, list(map(float, pixels)))


# named built-in functions (no expression parser by design)

_SCALAR_FUNCS = {
    # name: (f, df, fixed-point g, antiderivative, bracket, x0, x1)
    "x2m4": (
        lambda x: x * x - 4.0,
        lambda x: 2.0 * x,
        lambda x: 0.5 * (x + 4.0 / x),
        lambda x: x**3 / 3.0 - 4.0 * x,
        (0.0, 3.0),
        3.0,
        1.0,
    ),
    "quad": (
        lambda x: x * x + 4.0 * x + 4.0,
        lambda x: 2.0 * x + 4.0,
        None,
        lambda x: x**3 / 3.0 + 2.0 * x * x + 4.0 * x,
        (-5.0, 0.0),
        0.0,
        1.0,
    ),
    "sin": (
        math.sin,
        math.cos,
        lambda x: x + math.sin(x),
        lambda x: -math.cos(x),
        (2.0, 4.0),
        3.0,
        2.0,
    ),
}


def _circlepara(v):
    # unit circle meets the parabola y = x^2
    return [v[0] ** 2 + v[1] ** 2 - 1.0, v[1] - v[0] ** 2]


_OBJECTIVES = {
    # name: (x0, f, grad)
    "quadratic1d": (
        [10.0],
        lambda v: v[0] ** 2 + 4.0 * v[0] + 4.0,
        lambda v: [2.0 * v[0] + 4.0],
    ),
    "bowl2d": (
        [0.0, 0.0],
        lambda v: (v[0] - 3.0) ** 2 + (v[1] - 2.0) ** 2,
        lambda v: [2.0 * (v[0] - 3.0), 2.0 * (v[1] - 2.0)],
    ),
    "rosenbrock": (
        [-1.2, 1.0],
        lambda v: (1.0 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2,
        lambda v: [
            -2.0 * (1.0 - v[0]) - 400.0 * v[0] * (v[1] - v[0] ** 2),
            200.0 * (v[1] - v[0] ** 2),
        ],
    ),
}


# subcommand handlers, each returning the bytes for --out


# the 2x2 matrix that linalg, solve and eig use when no --in file is given
_FIXTURE = ((1.0, 2.0), (3.0, 4.0))
# the symmetric positive definite system of solve's Cholesky and iterative runs
_SPD = ((4.0, 1.0), (1.0, 3.0))


def _matrix_in(ns) -> Matrix:
    """The matrix of --in, or the fixture without one."""
    if ns.infile:
        return read_matrix_csv(Path(ns.infile).read_bytes())
    return Matrix.from_rows(_FIXTURE)


def _report(headers: List[str], values: List[float], rep) -> bytes:
    """One row: the solution, then the iteration report of the solver."""
    return write_csv(
        headers + ["iterations", "residual", "converged"],
        [values + [rep.iterations, rep.residual, int(rep.converged)]],
    )


def _cmd_linalg(ns) -> bytes:
    if ns.op == "matmul":
        b = Matrix.from_rows([[5.0, 6.0], [7.0, 8.0]])
        return write_matrix_csv(matmul(Matrix.from_rows(_FIXTURE), b))
    target = _matrix_in(ns)
    if ns.op == "det":
        return write_csv(["det"], [[lindecomp.det(target)]])
    return write_matrix_csv(lindecomp.inv(target))


# solve's --method choices: the direct methods, then the iterative ones
_DIRECT = ("gauss", "lu", "qr", "inverse", "cholesky")
_ITERATIVE = ("jacobi", "gauss_seidel", "cg")


def _cmd_solve(ns) -> bytes:
    if ns.method in _DIRECT:
        a, b = (_SPD, [1.0, 2.0]) if ns.method == "cholesky" else (_FIXTURE, [5.0, 6.0])
        x = lindecomp.solve_direct(Matrix.from_rows(a), b, ns.method)
        return write_csv(["x0", "x1"], [list(x.data)])
    x, rep = lindecomp.solve_iterative(
        Matrix.from_rows(_SPD), [1.0, 2.0], [0.0, 0.0], ns.method
    )
    return _report(["x0", "x1"], list(x.data), rep)


def _cmd_eig(ns) -> bytes:
    res = lindecomp.eig(_matrix_in(ns))
    return write_csv(["lambda"], [[v] for v in res.values])


def _cmd_roots(ns) -> bytes:
    if ns.method in ("system", "broyden"):
        if ns.func != "circlepara":
            raise _UsageError(f"method {ns.method} requires --f circlepara")
        if ns.method == "system":
            rep = roots.newton_system(_circlepara, None, [1.0, 1.0], tol=ns.tol)
        else:
            rep = roots.broyden(_circlepara, [1.0, 1.0], tol=ns.tol)
        return _report(["x0", "x1"], list(rep.root.data), rep)
    if ns.func not in _SCALAR_FUNCS:
        raise _UsageError(f"method {ns.method} requires a scalar function")
    f, df, g, _, bracket, x0, x1 = _SCALAR_FUNCS[ns.func]
    if ns.method == "bisection":
        rep = roots.bisection(f, bracket[0], bracket[1], tol=ns.tol)
    elif ns.method == "newton":
        rep = roots.newton_scalar(f, df, x0, tol=ns.tol)
    elif ns.method == "secant":
        rep = roots.secant(f, x0, x1, tol=ns.tol)
    else:
        if g is None:
            raise _UsageError(f"no fixed-point form registered for {ns.func}")
        rep = roots.fixed_point(g, x0, tol=ns.tol)
    return _report(["root"], [rep.root], rep)


def _cmd_interp(ns) -> bytes:
    if ns.knots:
        headers, rows = read_csv(Path(ns.knots).read_bytes())
        if len(headers) != 2:
            raise MalformedCsv("knot CSV needs exactly two columns (x, y)")
        if not rows:
            raise MalformedCsv("knot CSV has no data rows")
        xs = [r[0] for r in rows]
        ys = [r[1] for r in rows]
    else:
        xs, ys = [0.0, 1.0, 2.0], [1.0, 3.0, 2.0]
    lo = ns.lo if ns.lo is not None else xs[0]
    hi = ns.hi if ns.hi is not None else xs[-1]
    if ns.num < 2 or hi <= lo:
        raise _UsageError("need --num >= 2 and --hi > --lo")
    if ns.method == "newton":
        poly = interp.newton_dd_build(xs, ys)
        eval_at = lambda x: interp.newton_dd_eval(poly, x)
    elif ns.method == "spline":
        spline = interp.cubic_spline_build(xs, ys)
        eval_at = lambda x: interp.cubic_spline_eval(spline, x)
    elif ns.method == "linear":
        eval_at = lambda x: interp.linear_interp(xs, ys, x)
    else:
        eval_at = lambda x: interp.lagrange_eval(xs, ys, x)
    step = (hi - lo) / (ns.num - 1)
    samples = [lo + k * step for k in range(ns.num - 1)] + [hi]
    return write_csv(["x", "y"], [[x, eval_at(x)] for x in samples])


_RULES = {
    "trapezoid": quadrature.trapezoid_fn,
    "simpson": quadrature.simpson,
    "gauss": quadrature.gauss_legendre,
}


def _cmd_integrate(ns) -> bytes:
    f, _, _, antider, _, _, _ = _SCALAR_FUNCS[ns.func]
    value = _RULES[ns.method](f, ns.a, ns.b, ns.n)
    exact = antider(ns.b) - antider(ns.a)
    return write_csv(
        ["value", "exact", "abs_error"], [[value, exact, abs(value - exact)]]
    )


def _cmd_fft(ns) -> bytes:
    if ns.infile:
        headers, rows = read_csv(Path(ns.infile).read_bytes())
        if len(headers) != 1:
            raise MalformedCsv("signal CSV must have exactly one column")
        signal = [r[0] for r in rows]
    else:
        signal = [
            math.sin(2.0 * math.pi * ns.freq * k / ns.fs) for k in range(ns.n)
        ]
    spec = spectral.spectrum(signal, 1.0 / ns.fs)
    out = []
    for k in range(len(spec.bins)):
        re, im = spec.bins.re[k], spec.bins.im[k]
        out.append([spec.freqs[k], re, im, math.hypot(re, im)])
    return write_csv(["freq", "re", "im", "magnitude"], out)


def _cmd_image_lowpass(ns) -> bytes:
    img = read_pgm(Path(ns.infile).read_bytes())
    if ns.spectrum:
        field = spectral.fft2(img)
        mags: List[float] = []
        for rowv in field:
            mags += map(math.log1p, map(math.hypot, rowv.re, rowv.im))
        lo, hi = min(mags), max(mags)
        span = hi - lo
        if span > 0:
            # 255 (m - lo) / span lies in [0, 255] up to rounding, so its
            # rounded value is a pixel
            scaled = map(mul, repeat(255.0), map(sub, mags, repeat(lo)))
            shot = list(map(round, map(truediv, scaled, repeat(span))))
        else:
            shot = [0] * len(mags)
        Path(ns.spectrum).write_bytes(_pgm_bytes(img.rows, img.cols, shot))
        pooled = spectral._pool_field(field, ns.keep)
    else:
        pooled = spectral.spectral_pool2d(img, ns.keep)
    pixels = list(map(round, pooled.data))
    if min(pixels) < 0 or max(pixels) > 255:
        pixels = list(map(min, repeat(255), map(max, repeat(0), pixels)))
    return _pgm_bytes(pooled.rows, pooled.cols, pixels)


def _cmd_optimize(ns) -> bytes:
    x0, f, grad = _OBJECTIVES[ns.objective]
    if ns.schedule == "constant":
        lr_of = lambda t: ns.eta
    else:
        sched = optimize.Schedule(
            ns.schedule if ns.schedule != "cosine" else "cosine_warm_restarts",
            eta0=ns.eta,
            lam=0.01,
        )
        lr_of = lambda t: optimize.lr_at(sched, t)
    theta = list(x0)
    state = optimize.OptState.zeros(len(theta))
    rows = [[0] + theta + [f(theta), lr_of(0)]]
    for t in range(ns.iters):
        lr = lr_of(t)
        g = grad(theta)
        if ns.method == "gd":
            theta = [p - lr * gi for p, gi in zip(theta, g)]
        else:
            cfg = optimize.OptConfig(eta=lr)
            vec, state = optimize.optimizer_step(ns.method, theta, g, state, cfg)
            theta = list(vec.data)
        rows.append([t + 1] + theta + [f(theta), lr_of(t + 1)])
    headers = ["step"] + [f"x{i}" for i in range(len(theta))] + ["f", "lr"]
    return write_csv(headers, rows)


_ODE_PROBLEMS = {
    # name: (rhs, y0, default h, default t_end)
    "decay": (lambda t, y: [-2.0 * y[0]], (1.0,), 0.1, 1.0),
    "stiff": (
        lambda t, y: [-1000.0 * y[0] + 3000.0 - 2000.0 * math.exp(-t)],
        (0.0,),
        0.01,
        5.0,
    ),
    "lif": (
        lambda t, y: [(-(y[0] - (-65.0)) + 10.0 * 20.0) / 10.0],
        (-65.0,),
        0.1,
        100.0,
    ),
    "lti": (lambda t, y: [(2.0 - y[0]) / 1.5], (0.0,), 0.01, 7.5),
}

_ODE_SOLVERS = {
    "euler": dynamics.euler_solve,
    "rk4": dynamics.rk4_solve,
    "backward_euler": dynamics.backward_euler_solve,
}


def _cmd_ode(ns) -> bytes:
    rhs, y0, def_h, def_t = _ODE_PROBLEMS[ns.problem]
    h = ns.h if ns.h is not None else def_h
    t_end = ns.t_end if ns.t_end is not None else def_t
    traj = _ODE_SOLVERS[ns.method](dynamics.IvpProblem(rhs, 0.0, y0, h, t_end))
    headers = ["t"] + [f"y{i}" for i in range(len(y0))]
    rows = [[t] + traj.ys.row(i) for i, t in enumerate(traj.ts)]
    return write_csv(headers, rows)


def _cmd_heat(ns) -> bytes:
    problem = dynamics.HeatProblem(
        alpha=ns.alpha,
        length=ns.length,
        nx=ns.nx,
        nt=ns.nt,
        t_total=ns.t,
        u0=lambda x: math.sin(math.pi * x / ns.length),
    )
    res = dynamics.heat1d_explicit(problem)
    return write_csv(
        ["x", "u"], [[x, u] for x, u in zip(res.xs, res.u.data)]
    )


def _cmd_xor(ns) -> bytes:
    x = Matrix.from_rows([[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
    y = Matrix.from_rows([[0.0], [1.0], [1.0], [0.0]])
    params = microlearn.mlp_init([3, 4, 1], ns.seed)
    _, history = microlearn.mlp_train(params, x, y, ns.eta, ns.epochs)
    return write_csv(
        ["epoch", "loss"], [[i, loss] for i, loss in enumerate(history)]
    )


def _cmd_qlearn(ns) -> bytes:
    env = microlearn.GridEnv.default()
    q = microlearn.q_learn(
        env, ns.alpha, ns.gamma, ns.epsilon, ns.episodes, ns.seed
    )
    rows = [[s] + q.values.row(s) for s in range(env.n_states)]
    headers = ["state"] + [f"q{a}" for a in range(env.n_actions)]
    return write_csv(headers, rows)


def build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    shared.add_argument("--out", default=None)
    # only the subcommands that draw random numbers take --seed
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)

    parser = _Parser(prog="numcli", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("linalg", parents=[shared])
    p.add_argument("--op", choices=["matmul", "det", "inv"], required=True)
    p.add_argument("--in", dest="infile", default=None)
    p.set_defaults(handler=_cmd_linalg)

    p = sub.add_parser("solve", parents=[shared])
    p.add_argument("--method", choices=_DIRECT + _ITERATIVE, required=True)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("eig", parents=[shared])
    p.add_argument("--in", dest="infile", default=None)
    p.set_defaults(handler=_cmd_eig)

    p = sub.add_parser("roots", parents=[shared])
    p.add_argument(
        "--f", dest="func", choices=["x2m4", "quad", "sin", "circlepara"],
        required=True,
    )
    p.add_argument(
        "--method",
        choices=["bisection", "newton", "secant", "fixed_point", "system", "broyden"],
        required=True,
    )
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(handler=_cmd_roots)

    p = sub.add_parser("interp", parents=[shared])
    p.add_argument(
        "--method", choices=["lagrange", "newton", "spline", "linear"],
        required=True,
    )
    p.add_argument("--knots", default=None)
    p.add_argument("--num", type=int, default=50)
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.set_defaults(handler=_cmd_interp)

    p = sub.add_parser("integrate", parents=[shared])
    p.add_argument("--method", choices=_RULES, required=True)
    p.add_argument("--f", dest="func", choices=sorted(_SCALAR_FUNCS), required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("fft", parents=[shared])
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--freq", type=float, default=8.0)
    p.add_argument("--fs", type=float, default=128.0)
    p.set_defaults(handler=_cmd_fft)

    p = sub.add_parser("image-lowpass", parents=[shared])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--keep", type=int, required=True)
    p.add_argument("--spectrum", default=None)
    p.set_defaults(handler=_cmd_image_lowpass)

    p = sub.add_parser("optimize", parents=[shared])
    p.add_argument("--objective", choices=sorted(_OBJECTIVES), required=True)
    p.add_argument(
        "--method",
        choices=["gd", "momentum", "adagrad", "rmsprop", "adam", "adamw"],
        required=True,
    )
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument(
        "--schedule",
        choices=["constant", "step", "exponential", "cosine"],
        default="constant",
    )
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("ode", parents=[shared])
    p.add_argument("--problem", choices=sorted(_ODE_PROBLEMS), required=True)
    p.add_argument("--method", choices=_ODE_SOLVERS, required=True)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.set_defaults(handler=_cmd_ode)

    p = sub.add_parser("heat", parents=[shared])
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--L", dest="length", type=float, required=True)
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--nt", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(handler=_cmd_heat)

    p = sub.add_parser("xor", parents=[seeded, shared])
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=10000)
    p.set_defaults(handler=_cmd_xor)

    p = sub.add_parser("qlearn", parents=[seeded, shared])
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--episodes", type=int, default=1000)
    p.set_defaults(handler=_cmd_qlearn)

    return parser


# Building the argparse tree takes milliseconds, longer than a small
# subcommand's own work. Parsing reads the tree and never changes it, so
# run() builds one on first use and every later call in the process reuses it.
_parser = functools.lru_cache(maxsize=None)(build_parser)


def run(argv: Sequence[str]) -> int:
    # ValueError is the library's argument check, so a flag value out of its
    # range is a usage error; ArithmeticError (ZeroDivisionError, the
    # OverflowError of float **) is a numeric failure named by its class
    try:
        ns = _parser().parse_args(list(argv))
        payload = ns.handler(ns)
        if ns.out:
            Path(ns.out).write_bytes(payload)
        else:
            sys.stdout.write(payload.decode("ascii"))
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (_UsageError, OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NumericsError, ArithmeticError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())

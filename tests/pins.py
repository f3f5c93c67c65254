"""The pin corpus: seeded cases whose every output is recorded exactly.

Each case is a callable and an argument builder under a name such as
`lindecomp.qr.3.x1e-300` or `cli.xor`. One renderer writes a float as
float.hex (every bit, the sign of a zero too), a count or a flag as str and
a raised exception as `Class: message`, one value per line of the record.

Builtin sum adds floats left to right up to CPython 3.11 and with
compensation from 3.12, and matmul, LU and the Householder update past one
panel use it. The cases whose bits that changes, the groups in
SUM_DEPENDENT, have one record per summation behaviour,
pins/sum-plain.json and pins/sum-compensated.json, picked by probing the
running interpreter. Every other case has the same bits on
every CPython and is recorded once, in pins/shared.json.

`python tests/pins.py` re-records the shared record and the running
interpreter's summation record, each case in the file its name selects, and
prints each moved value: case, index, old and new hex, distance in ulps. A
change that moves bits on purpose commits the re-recorded files; that diff
is its declaration. Only the standard library, desknum and the suite's own
oracles are imported, so the corpus records and runs where pytest is missing.
"""

import contextlib
import functools
import io
import json
import math
import os
import random
import struct
import sys
from operator import add, mul, sub, truediv

if __name__ == "__main__":
    # record the checkout's own source, not an installed copy
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from desknum import autodiff, dynamics, interp, numcli, quadrature, roots, spectral
from desknum import lindecomp as ld
from desknum import microlearn as ml
from desknum import ndcore as nd
from desknum import optimize as opt
from desknum.ndcore import Matrix, Vector
from desknum.spectral import ComplexVec, Image2D

import oracles

PINS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins")

CASES = {}  # name -> (callable, argument builder)


def case(name, fn, build=tuple):
    assert name not in CASES, name
    CASES[name] = (fn, build)


def seeded(group, fn, names, count):
    """Cases group.name.k for k < count, each calling fn(name, k)."""
    for name in names:
        for k in range(count):
            case(f"{group}.{name}.{k}", fn, lambda n=name, k=k: (n, k))


def summation():
    """'plain' where builtin sum adds floats left to right, else 'compensated'."""
    return "compensated" if sum([1.0, 1e100, 1.0, -1e100]) else "plain"


# the groups of cases whose bits differ between the two summation records;
# every other case holds the same bits on every CPython
SUM_DEPENDENT = ("sweep.matmul.", "sweep.inv.", "sweep.solve_inverse.", "sweep.det.", "sweep.solve_gauss.",
                 "sweep.solve_lu.", "lindecomp.wide.")


def read(record):
    """The cases of pins/<record>.json, or {} where it is missing."""
    try:
        with open(os.path.join(PINS_DIR, f"{record}.json")) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def render(name):
    """The outputs of one case as text, one entry per value."""
    fn, build = CASES[name]
    try:
        values = fn(*build())
    except Exception as exc:  # the error and its text are the recorded outcome
        return [f"{type(exc).__name__}: {exc}"]
    return [v.hex() if isinstance(v, float) else str(v) for v in values]


def _ordinal(x):
    # adjacent floats have adjacent ordinals, across zero too
    u = struct.unpack("<q", struct.pack("<d", x))[0]
    return u if u >= 0 else -(u & 0x7FFFFFFFFFFFFFFF)


def _floats(text):
    if text in ("inf", "-inf", "nan") or text.lstrip("-").startswith("0x"):
        return [float.fromhex(text)]
    try:  # a CSV line of the CLI
        return [float(f) for f in text.split(",")]
    except ValueError:
        return None


def ulps(old, new):
    """Largest distance in ulps between the floats of two entries, or None."""
    a, b = _floats(old), _floats(new)
    if a is None or b is None or len(a) != len(b) or any(map(math.isnan, a + b)):
        return None
    return max(abs(_ordinal(x) - _ordinal(y)) for x, y in zip(a, b))


def moved(name, old, new):
    """One line per value of case `name` that differs from its record."""
    if old is None:
        return [f"{name}: not recorded"]
    lines = []
    for k in range(max(len(old), len(new))):
        a = old[k] if k < len(old) else "(none)"
        b = new[k] if k < len(new) else "(none)"
        if a != b:
            d = ulps(a, b)
            lines.append(f"{name} [{k}]: {a} -> {b}" + ("" if d is None else f" ({d} ulp)"))
    return lines


def load():
    """Every case recorded for the running interpreter."""
    return {**read("shared"), **read(f"sum-{summation()}")}


def main():
    old, new = load(), {name: render(name) for name in sorted(CASES)}
    report = [line for name, values in new.items() for line in moved(name, old.get(name), values)]
    report += [f"{name}: no longer a case" for name in sorted(old.keys() - new.keys())]
    dependent = {name for name in new if name.startswith(SUM_DEPENDENT)}
    records = {"shared": new.keys() - dependent, f"sum-{summation()}": dependent}
    os.makedirs(PINS_DIR, exist_ok=True)
    for record, names in records.items():
        with open(os.path.join(PINS_DIR, f"{record}.json"), "w") as fh:
            json.dump({name: new[name] for name in names}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("\n".join(report + [f"{len(report)} changes in {len(new)} cases; wrote {' and '.join(records)}"]))


# generators, shared with the tests that draw seeded inputs


def uniform_rows(rng, m, n):
    return [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(m)]


def gauss_rows(rng, m, n):
    return [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(m)]


def spd_rows(rng, n):
    b = uniform_rows(rng, n, n)
    return [[math.fsum(map(mul, bi, bj)) + n * (i == j) for j, bj in enumerate(b)] for i, bi in enumerate(b)]


def real_spectrum_rows(rng, n):
    # P diag(d) P^-1 in exact rationals, for a diagonally dominant integer P
    p = [[rng.randint(-2, 2) + 6 * (i == j) for j in range(n)] for i in range(n)]
    return oracles.similar(p, rng.sample(range(-9, 10), n))


def scaled_rows(rows, s):
    return [[x * s for x in row] for row in rows]


def random_cvec(rng, n):
    return ComplexVec(
        [rng.uniform(-1, 1) for _ in range(n)],
        [rng.uniform(-1, 1) for _ in range(n)],
    )


def seeded_system(rng, n):
    """F(x) = Q x + a sin(x) + 0.3 x^3 - c with Q diagonally dominant, its
    Jacobian and a start."""
    q = [[rng.uniform(-1.0, 1.0) + (3.0 * n if i == j else 0.0) for j in range(n)] for i in range(n)]
    c = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    a = rng.uniform(0.1, 2.0)

    def f(x):
        return [
            math.fsum(q[i][j] * x[j] for j in range(n)) + a * math.sin(x[i]) + 0.3 * x[i] ** 3 - c[i]
            for i in range(n)
        ]

    def jac(x):
        return Matrix.from_rows(
            [[q[i][j] + (a * math.cos(x[i]) + 0.9 * x[i] ** 2 if i == j else 0.0) for j in range(n)] for i in range(n)]
        )

    return f, jac, [rng.uniform(-1.5, 1.5) for _ in range(n)]


def seeded_objective(rng, n):
    """f(x) = sum w (x - c)^2 + (x - c)^4 / 4 + a sin(sum x), not convex where
    a is large, its gradient and a start."""
    c = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    w = [rng.uniform(0.05, 20.0) for _ in range(n)]
    a = rng.uniform(0.0, 4.0)

    def f(x):
        r = [xi - ci for xi, ci in zip(x, c)]
        return math.fsum(wi * ri * ri + 0.25 * ri**4 for wi, ri in zip(w, r)) + a * math.sin(math.fsum(x))

    def grad(x):
        t = a * math.cos(math.fsum(x))
        return [2.0 * wi * (xi - ci) + (xi - ci) ** 3 + t for wi, xi, ci in zip(w, x, c)]

    return f, grad, [rng.uniform(-3.0, 3.0) for _ in range(n)]


def _taped(f, xs):
    value, tape = autodiff.record(f, xs)
    return [value] + autodiff.gradient(tape).partials


# lindecomp: the Householder, Cholesky, one-sided Jacobi and Hessenberg paths
# at four scales. Non-symmetric eig records only its eigenvalues; its
# eigenvectors are held bit for bit by the power-of-two equivariance test.


@functools.lru_cache(maxsize=None)
def _decomp_inputs(name):
    rng = random.Random(name)
    if name in ("qr", "solve_qr"):
        return [(uniform_rows(rng, n, n), uniform_rows(rng, 1, n)[0]) for n in (1, 2, 3, 4, 5, 6, 8)]
    if name == "polyfit":
        return [
            ([rng.uniform(-2.0, 2.0) for _ in range(m)], uniform_rows(rng, 1, m)[0], deg)
            for m, deg in ((1, 0), (3, 1), (5, 2), (8, 3), (12, 4))
        ]
    if name == "svd":
        shapes = ((1, 1), (3, 2), (2, 3), (5, 5), (7, 3), (3, 7), (6, 4))
        cases = [uniform_rows(rng, m, n) for m, n in shapes]
        return cases + [[row, row, [-x for x in row]] for row in uniform_rows(rng, 1, 4)]
    if name == "pca":
        return [(uniform_rows(rng, n, d), min(n - 1, d)) for n, d in ((3, 2), (5, 3), (8, 4), (4, 6))]
    if name == "cholesky":
        return [spd_rows(rng, n) for n in (1, 2, 3, 5, 8)]
    return [real_spectrum_rows(rng, n) for n in (2, 3, 4, 5, 6)] + [uniform_rows(rng, 4, 4)]


def _decomp(name, k, s):
    c = _decomp_inputs(name)[k]
    if name == "qr":
        f = ld.qr(Matrix.from_rows(scaled_rows(c[0], s)))
        return f.q.data + f.r.data
    if name == "solve_qr":
        return ld.solve_direct(Matrix.from_rows(scaled_rows(c[0], s)), [x * s for x in c[1]], "qr").data
    if name == "polyfit":
        xs, ys, deg = c
        return ld.polyfit([x * s for x in xs], [y * s for y in ys], deg).data
    if name == "svd":
        res = ld.svd(Matrix.from_rows(scaled_rows(c, s)))
        return res.u.data + res.sigma + res.v.data
    if name == "pca":
        return ld.pca(Matrix.from_rows(scaled_rows(c[0], s)), c[1]).data
    if name == "cholesky":
        return ld.cholesky(Matrix.from_rows(scaled_rows(c, s))).data
    return ld.eig(Matrix.from_rows(scaled_rows(c, s))).values


for _name in ("cholesky", "eig", "pca", "polyfit", "qr", "solve_qr", "svd"):
    for _k in range(len(_decomp_inputs(_name))):
        for _s in (1e-300, 1e-10, 1.0, 1e300):
            case(f"lindecomp.{_name}.{_k}.x{_s:g}", _decomp, lambda n=_name, k=_k, s=_s: (n, k, s))


# at and past one Householder panel of 32 reflectors: QR solves at n = 33
# (32 reflectors, still one panel) and 65, and the singular values of a
# 48 x 40, at the four scales; vectors only, to keep the records small


def _wide(name, s):
    rng = random.Random(f"wide-{name}")
    if name == "svd_48x40":
        return ld.svd(Matrix.from_rows(scaled_rows(uniform_rows(rng, 48, 40), s))).sigma
    n = int(name[len("solve_qr_"):])
    a, b = uniform_rows(rng, n, n), uniform_rows(rng, 1, n)[0]
    return ld.solve_direct(Matrix.from_rows(scaled_rows(a, s)), [x * s for x in b], "qr").data


for _name in ("solve_qr_33", "solve_qr_65", "svd_48x40"):
    for _s in (1e-300, 1e-10, 1.0, 1e300):
        case(f"lindecomp.wide.{_name}.x{_s:g}", _wide, lambda n=_name, s=_s: (n, s))


def _budget_draw():
    # draws of n from [3, 4, 5, 6] and n x n uniform(-1, 1) entries from
    # random.Random(1): about 7 in 3,000 exhaust the real-Schur sweep budget,
    # and draw 1143, a 5x5, is the first
    rng = random.Random(1)
    for _ in range(1143):
        n = rng.choice([3, 4, 5, 6])
        uniform_rows(rng, n, n)
    n = rng.choice([3, 4, 5, 6])
    return uniform_rows(rng, n, n)


case("lindecomp.eig.budget", lambda: ld.eig(Matrix.from_rows(_budget_draw())).values)


# the iterative solvers on one 4x4 system: iterates, residual, count, flag


ITER_A = [[5, 1, -1, 2], [1, 6, 2, 0], [-1, 2, 7, 1], [2, 0, 1, 4]]
ITER_B = [1, -2, 3, 0.5]


def _iterate(rows, b, x0, method, cfg):
    x, rep = ld.solve_iterative(Matrix.from_rows(rows), b, x0, method, cfg)
    return x.data + [rep.residual, rep.iterations, rep.converged]


for _m in ("cg", "gauss_seidel", "jacobi"):
    case(f"iterative.{_m}", _iterate, lambda m=_m: (ITER_A, ITER_B, [0, 0, 0, 0], m, ld.IterConfig(1e-12, 200)))
# the budget runs out: CG reports converged=False rather than raising
case(
    "lindecomp.cg_budget",
    _iterate,
    lambda: ([[4, 1, 0, 0], [1, 4, 1, 0], [0, 1, 4, 1], [0, 0, 1, 4]], [1, 2, 3, 4], [0] * 4, "cg", ld.IterConfig(1e-12, 1)),
)


# finite differences: finite_diff in each scheme, hessian_fd on seeded tapes
# and newton_scalar with df=None on seeded scalar equations


def _fd(name, k):
    rng = random.Random(f"{name}-{k}")
    a, b, c = rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(-5.0, 5.0)
    x = [rng.uniform(-2.0, 2.0) for _ in range(1 + k % 3)]
    h = (1e-5, 1e-3, 1e-7, 1e-9)[k % 4]

    def f(t):
        return t**3 + a * math.sin(b * t) - c

    def g(*v):
        return sum(a * vi**4 + b * vi * vi for vi in v) + c * autodiff.sin(v[0] * v[-1]) + autodiff.exp(0.3 * v[-1])

    if name == "finite_diff":
        return [quadrature.finite_diff(f, x[0], h, scheme) for scheme in ("forward", "backward", "central")]
    if name == "hessian_fd":
        return autodiff.hessian_fd(g, x, h=h).data
    rep = roots.newton_scalar(f, None, 3.0 * x[0], tol=(1e-5, 1e-10, 1e-14)[k % 3])
    return [rep.root, rep.residual, rep.iterations]


seeded("fd", _fd, ("finite_diff", "hessian_fd", "newton_scalar"), 12)


# BFGS and L-BFGS on seeded objectives: x, the residual, fval, the
# inverse-Hessian estimate or (s, y) pairs, the count and the model's size


def _quasi_newton(name, k):
    rng = random.Random(f"{name}-{k}")
    f, grad, x0 = seeded_objective(rng, 1 + k % 4)
    tol, max_iter = (1e-6, 200) if k % 4 else (1e-11, 30)
    if name == "bfgs":
        res = opt.bfgs_minimize(f, grad, x0, tol=tol, max_iter=max_iter)
        model = res.state.h_inv.data
    else:
        res = opt.lbfgs_minimize(f, grad, x0, memory=1 + k % 3, tol=tol, max_iter=max_iter)
        model = [v for s, y in res.state.pairs for v in s + y]
    return list(res.x.data) + [res.residual, res.fval] + model + [res.iterations, len(model), res.state.memory]


seeded("quasi_newton", _quasi_newton, ("bfgs", "lbfgs"), 12)


# the Newton-type solvers on seeded systems: the root, the residual and the
# count, so a change anywhere in the iteration shows


def _newton(name, k):
    rng = random.Random(f"{name}-{k}")
    n = 1 + k % 4
    if name == "backward_euler":
        lam = rng.uniform(1.0, 3000.0)

        def rhs(t, y):
            return [-lam * (yi - math.cos(t + i)) - math.sin(t) - 0.1 * yi**3 for i, yi in enumerate(y)]

        y0 = tuple(rng.uniform(-2.0, 2.0) for _ in range(n))
        return dynamics.backward_euler_solve(dynamics.IvpProblem(rhs, 0.0, y0, 0.01, 0.1)).ys.data
    f, jac, x0 = seeded_system(rng, n)
    if name == "newton_system":
        rep = roots.newton_system(f, jac if k % 2 else None, x0, tol=1e-12)
    else:
        rep = roots.broyden(f, x0, b0=jac(x0) if k % 2 else None, tol=1e-10, max_iter=30)
    return rep.root.data + [rep.residual, rep.iterations]


seeded("newton", _newton, ("backward_euler", "broyden", "newton_system"), 8)
# Newton converges on every step, but its residual stays above the
# acceptance bound: the stall raise
case(
    "newton.backward_euler.stall",
    lambda: dynamics.backward_euler_solve(dynamics.IvpProblem(lambda t, y: [-1e6 * y[0]], 0.0, (1e6,), 0.1, 0.3)).ys.data,
)


# the exits of the Newton step: a Jacobian that is not finite or not square
# (from differences, from jac, from b0 or from hess) and a step that overflows


def _line(v):
    return [v[0] - 1.0, v[1] + 0.5]


for _name, _call in (
    ("fd_nan", lambda: roots.newton_system(lambda v: [math.nan if v[0] > 0.5 else v[0] - 1.0], None, [0.5])),
    ("fd_1x2", lambda: roots.newton_system(lambda v: [v[0] - 1.0], None, [0.5, 0.5])),
    ("fd_3x2", lambda: roots.newton_system(lambda v: [v[0] - 1.0, v[1], v[0] + v[1]], None, [0.5, 0.5])),
    ("jac_2x3", lambda: roots.newton_system(_line, lambda v: Matrix(2, 3, range(1, 7)), [0.5, 0.5])),
    ("jac_3x3", lambda: roots.newton_system(_line, lambda v: Matrix.identity(3), [0.5, 0.5])),
    ("broyden_b0_3x3", lambda: roots.broyden(_line, [0.5, 0.5], b0=Matrix.identity(3))),
    ("hess_1x2", lambda: opt.newton_minimize(_line, lambda v: Matrix(1, 2, [1.0, 0.0]), [0.5, 0.5])),
    (
        "step_overflow",
        lambda: roots.newton_system(
            lambda v: [1e300, v[1]], lambda v: Matrix.from_rows([[1.01e-12, 0.0], [0.0, 1.0]]), [0.0, 0.0]
        ),
    ),
):
    case(f"newton.err.{_name}", lambda c=_call: [c()])


# spectral: transforms, filters and pooling, with zero-heavy inputs whose
# exact cancellations bring signed zeros to the outputs. The twiddles come
# from cmath.exp, so the records assume a correctly rounded libm (as glibc's).


def _field_floats(field):
    return [f for row in field for f in row.re + row.im]


def _spectrum(sig):
    spec = spectral.spectrum(sig, 0.125)
    return spec.bins.re + spec.bins.im + list(spec.freqs)


SPECTRAL_OUTPUTS = {
    "fft": lambda x: _field_floats([spectral.fft(x)]),
    "ifft": lambda x: _field_floats([spectral.ifft(x)]),
    "spectrum": _spectrum,
    "lowpass": lambda sig: spectral.lowpass1d(sig, 8.0, 1.5).data,
    "convolve": lambda sig, g: spectral.convolve_fft(sig, g).data,
    "fft2": lambda img: _field_floats(spectral.fft2(img)),
    "ifft2": lambda field: _field_floats(spectral.ifft2(field)),
    "pool": lambda img, keep: spectral.spectral_pool2d(img, keep).data,
}


def _spectral_cases():
    # every case draws its inputs from one generator, in this order
    rng = random.Random(20241)

    def add(name, op, *args):
        case(f"spectral.{name}", SPECTRAL_OUTPUTS[op], lambda: args)

    def zero_heavy(n):
        pick = (0.0, -0.0, 1.0, -1.0, 0.5)
        return ComplexVec([rng.choice(pick) for _ in range(n)], [rng.choice(pick) for _ in range(n)])

    for n in (1, 2, 8, 1024):
        x, z = random_cvec(rng, n), zero_heavy(n)
        sig = [rng.uniform(-1, 1) for _ in range(n)]
        g = [rng.uniform(-1, 1) for _ in range(3)]
        for op in ("fft", "ifft"):
            add(f"{op}{n}", op, x)
            add(f"{op}{n}_zeros", op, z)
        add(f"spectrum{n}", "spectrum", sig)
        add(f"lowpass{n}", "lowpass", sig)
        add(f"convolve{n}", "convolve", sig, g)
    for rows, cols in ((1, 8), (8, 1), (4, 16), (16, 4), (32, 32)):
        shape = f"{rows}x{cols}"
        img = Image2D(rows, cols, [float(rng.randrange(256)) for _ in range(rows * cols)])
        add(f"fft2_{shape}", "fft2", img)
        add(f"ifft2_{shape}", "ifft2", [random_cvec(rng, cols) for _ in range(rows)])
        add(f"ifft2_{shape}_zeros", "ifft2", [zero_heavy(cols) for _ in range(rows)])
        for keep in sorted({1, min(rows, cols)}):
            add(f"pool_{shape}_{keep}", "pool", img, keep)


_spectral_cases()


def _real_input_cases():
    # real inputs to fft, one with -0.0 imaginary parts, and convolutions of
    # shapes that overlap-add takes as one block (5x3), two blocks (30x10)
    # and many (the others, the kernel the longer argument in 3x100)
    rng = random.Random(20242)

    def add(name, op, *args):
        case(f"spectral.{name}", SPECTRAL_OUTPUTS[op], lambda: args)

    for n in (1, 2, 8, 1024):
        add(f"fft{n}_real", "fft", ComplexVec.from_real([rng.uniform(-1, 1) for _ in range(n)]))
    for n in (1, 8):
        add(f"fft{n}_real_negzero", "fft", ComplexVec([rng.uniform(-1, 1) for _ in range(n)], [-0.0] * n))
    for na, nb in ((5, 3), (30, 10), (100, 3), (3, 100), (20, 1)):
        f = [rng.uniform(-1, 1) for _ in range(na)]
        add(f"convolve_{na}x{nb}", "convolve", f, [rng.uniform(-1, 1) for _ in range(nb)])


_real_input_cases()


# the MLP: loss history, trained weights and biases, the initial net's
# gradients and loss, for two hidden layers, a batch of one and inputs with
# signed zeros


def _mlp(sizes, seed, batch, eta, epochs):
    rng = random.Random(seed)
    p = ml.mlp_init(sizes, seed)
    pick = (0.0, -0.0, 1.0, -1.0)

    def feature(k):
        return rng.choice(pick) if k % 3 == 0 else rng.uniform(-2, 2)

    x = Matrix.from_rows([[feature(k) for k in range(sizes[0])] for _ in range(batch)])
    y = Matrix.from_rows([[rng.random() for _ in range(sizes[-1])] for _ in range(batch)])
    d_w, d_b = ml.mlp_gradients(p, x, y)
    trained, history = ml.mlp_train(p, x, y, eta, epochs)
    _, out = ml.mlp_forward(trained, x)
    values = list(history) + [ml.mlp_loss(p, x, y), ml.mlp_loss(trained, x, y)]
    for group in (trained.weights, trained.biases, d_w, d_b, (out,)):
        for m in group:
            values.extend(m.data)
    return values


case("mlp.xor_3-4-1", _mlp, lambda: ([3, 4, 1], 0, 4, 0.5, 300))
case("mlp.deep_2-5-3-2", _mlp, lambda: ([2, 5, 3, 2], 11, 6, 2.0, 200))
case("mlp.batch1_4-1", _mlp, lambda: ([4, 1], 5, 1, 0.1, 200))
case("mlp.wide_1-7-7-1", _mlp, lambda: ([1, 7, 7, 1], 23, 8, 0.5, 150))


# microlearn.affine: one sample through 3 x n weights, n = 2..8, each row
# added left to right like the MLP kernel


def _affine(name, k):
    rng = random.Random(f"{name}-{k}")
    n = 2 + k % 7
    w, x, b = uniform_rows(rng, 3, n), uniform_rows(rng, 1, n)[0], uniform_rows(rng, 1, 3)[0]
    return ml.affine(Matrix.from_rows(w), x, b).data


seeded("microlearn", _affine, ("affine",), 12)


# the MLP's gates and their order: nets and batches that trip the output,
# squared-error, gradient and update gates, each through every public call


def _net(*layers):
    """MlpParams from (weight rows, bias) per layer."""
    weights = tuple(Matrix.from_rows(w) for w, _ in layers)
    sizes = (weights[0].rows,) + tuple(w.cols for w in weights)
    return ml.MlpParams(sizes, weights, tuple(Vector(b) for _, b in layers))


XOR_ROWS = [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]]
MLP_GATES = {
    # inf - inf in the one pre-activation
    "nan_output": (lambda: _net(([[2.0], [-2.0]], [0.0])), [[1e308, 1e308]], [[0.5]], 0.5),
    # one square overflows, or two finite squares overflow their fsum
    "squared_error.0": (lambda: ml.mlp_init([3, 4, 1], 0), XOR_ROWS, [[2e154], [0.0], [0.0], [0.0]], 0.5),
    "squared_error.1": (lambda: ml.mlp_init([3, 4, 1], 0), XOR_ROWS, [[1e154], [1e154], [0.0], [0.0]], 0.5),
    # weight-gradient products inf and -inf, or finite with an overflowing fsum
    "gradient_sum.0": (lambda: _net(([[0.0]], [0.0])), [[1e308], [-1e308]], [[1e150], [1e150]], 0.5),
    "gradient_sum.1": (lambda: _net(([[0.0]], [0.0])), [[1e308], [1e308]], [[-4.0], [-4.0]], 0.5),
    # an infinite output delta: every gradient is infinite, and the gate that
    # fires first (last layer, weights before biases) names -inf, not inf
    "gradient_order": (lambda: _net(([[1.0, 1.0]], [0.0, 0.0]), ([[-1.0], [-1.0]], [0.0])), [[1.0]], [[1.7e308]], 0.5),
    # a last-layer weight of 1e9, offset by its bias, scales the first
    # layer's deltas to -3e307: their products with inputs of 1e-300 stay
    # small and their bias gradient's fsum overflows (loss and train stop
    # earlier, at the squared error)
    "bias_gradient": (lambda: _net(([[1.0]], [0.0]), ([[1e9]], [-5e8])), [[1e-300]] * 8, [[2e300]] * 8, 0.5),
    # three weight layers: the last layer's gradients are finite and the
    # middle layer's finite weight products overflow their fsum, ahead of
    # its bias gradient and the first layer's
    "middle_layer": (lambda: _net(([[1.0]], [0.0]), ([[2.0]], [-1.0]), ([[1e300]], [-5e299])), [[0.0]] * 16,
                     [[-3.2e9]] * 16, 0.5),
    # finite gradients, an overflowing first step
    "update.0": (lambda: _net(([[0.0]], [0.0])), [[1e308], [1e307]], [[1.0], [1.0]], 1e3),
    "update.1": (lambda: _net(([[0.0, 0.0]], [0.0, 0.0]), ([[1.0], [1.0]], [0.0])), [[1e308]], [[1.0]], 100.0),
}


def _mlp_gate(gate, call):
    net, xs, ys, eta = MLP_GATES[gate]
    p, x, y = net(), Matrix.from_rows(xs), Matrix.from_rows(ys)
    if call == "forward":
        return ml.mlp_forward(p, x)[1].data
    if call == "loss":
        return [ml.mlp_loss(p, x, y)]
    if call == "gradients":
        return [v for group in ml.mlp_gradients(p, x, y) for m in group for v in m.data]
    trained, history = ml.mlp_train(p, x, y, eta, 1)
    return history + [v for group in (trained.weights, trained.biases) for m in group for v in m.data]


for _gate in MLP_GATES:
    for _call in ("forward", "loss", "gradients", "train"):
        case(f"mlp.err.{_gate}.{_call}", _mlp_gate, lambda g=_gate, c=_call: (g, c))


# numcli: the exit code and stdout of each fixed-flag run of the small-ops
# benchmark (a copy of its list, so that either can change alone)


CLI_RUNS = [
    *(["linalg", "--op", op] for op in ("matmul", "det", "inv")),
    *(["solve", "--method", m] for m in ("gauss", "lu", "qr", "inverse", "cholesky", "jacobi", "gauss_seidel", "cg")),
    ["eig"],
    *(["roots", "--f", "x2m4", "--method", m] for m in ("bisection", "newton", "secant", "fixed_point")),
    *(["roots", "--f", "circlepara", "--method", m] for m in ("system", "broyden")),
    *(["interp", "--method", m] for m in ("lagrange", "newton", "spline", "linear")),
    *(["integrate", "--method", m, "--f", "sin", "--a", "0", "--b", "3.14159", "--n", "64"]
      for m in ("trapezoid", "simpson")),
    ["integrate", "--method", "gauss", "--f", "sin", "--a", "0", "--b", "1", "--n", "6"],
    ["fft"],
    ["optimize", "--objective", "rosenbrock", "--method", "adam", "--iters", "50"],
    ["optimize", "--objective", "bowl2d", "--method", "momentum", "--iters", "20"],
    ["ode", "--problem", "stiff", "--method", "backward_euler"],
    ["ode", "--problem", "decay", "--method", "rk4"],
    ["heat", "--alpha", "0.01", "--L", "10", "--nx", "21", "--nt", "100", "--t", "1"],
    ["xor"],
    ["qlearn"],
]


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = numcli.run(argv)
    return [rc] + out.getvalue().splitlines() + [f"stderr: {line}" for line in err.getvalue().splitlines()]


for _argv in CLI_RUNS:
    case("cli." + "_".join(a for a in _argv if not a.startswith("--")), _cli, lambda a=_argv: (a,))


# a seeded sweep over routines no case above reaches: n = 1..6 at three scales


def _sweep(routine, seed, s):
    rng = random.Random(f"sweep-{seed}")
    n = 1 + seed % 6
    a, spd, b = uniform_rows(rng, n, n), spd_rows(rng, n), uniform_rows(rng, 1, n)[0]
    a, spd, b = Matrix.from_rows(scaled_rows(a, s)), Matrix.from_rows(scaled_rows(spd, s)), [x * s for x in b]
    if routine.startswith("solve_"):
        method = routine[len("solve_"):]
        return ld.solve_direct(spd if method == "cholesky" else a, b, method).data
    if routine == "inv":
        return ld.inv(a).data
    if routine == "det":
        return [ld.det(a)]
    if routine in ("jacobi", "gauss_seidel", "cg"):
        x, rep = ld.solve_iterative(spd, b, [0.0] * n, routine)
        return x.data + [rep.residual, rep.iterations, rep.converged]
    if routine == "matmul":
        return nd.matmul(a, spd).data
    if routine == "dot":
        return [nd.dot(a.row(0), b)]
    if routine == "cosine_similarity":
        return [nd.cosine_similarity(a.row(0), b)]
    if routine == "batchnorm_forward":
        return ml.batchnorm_forward(a, ml.BatchNormParams.identity(n)).data
    w = [rng.uniform(0.5, 2.0) for _ in range(n)]
    res = opt.nelder_mead(lambda v: math.fsum(wi * (vi - bi) ** 2 for wi, vi, bi in zip(w, v, b)), a.row(0))
    return res.x.data + [res.fval, res.residual, res.iterations, res.converged]


SWEEP_ROUTINES = (
    "solve_gauss", "solve_lu", "solve_inverse", "solve_cholesky", "inv", "det", "jacobi", "gauss_seidel", "cg",
    "matmul", "dot", "cosine_similarity", "batchnorm_forward", "nelder_mead",
)
for _routine in SWEEP_ROUTINES:
    for _seed in range(12):
        for _s in (1e-20, 1.0, 1e20):
            case(f"sweep.{_routine}.{_seed}.x{_s:g}", _sweep, lambda r=_routine, k=_seed, s=_s: (r, k, s))


# autodiff operators and exits no other case reaches


for _name, _f, _xs in (
    ("rsub", lambda x: 1 - x, [0.75]),
    ("rtruediv", lambda x: 1 / x, [0.75]),
    ("neg", lambda x: -x, [0.75]),
    ("pow_zero", lambda x, y: x**0 * y, [0.75, -2.0]),
    # the value 1e200 is finite, its partial -1e400 is not
    ("div_partial_overflow", lambda x, y: x / y, [1.0, 1e-200]),
    ("pow_overflow", lambda x: x**2, [1e200]),
    # each partial is finite, their product along the path is not
    ("gradient_overflow", lambda x: (x * 1e200) * 1e200, [1e-300]),
):
    case(f"autodiff.{_name}", _taped, lambda f=_f, xs=_xs: (f, xs))


# autodiff on seeded random expression trees that use every op of the tape:
# constants on either side of + - * /, ** with 0, integer and fractional
# exponents, and exp, log, sin, cos, tanh, sigmoid. log and the negative or
# fractional powers act on a shifted square, so most trees stay in domain.
# gradient.k records the value and the gradient of one tree; jacobian.k
# records the Jacobian of one to three trees, and every fourth family has a
# plain-float output, which the tape records as a constant.


def _tree(rng, n, depth):
    """A random expression of n inputs as nested tuples, evaluated by _eval."""
    kind = "x" if depth == 0 else rng.choice(("x", "op", "op", "pow", "unary", "unary"))
    if kind == "x":
        return ("x", rng.randrange(n))
    a = _tree(rng, n, depth - 1)
    if kind == "op":
        b = _tree(rng, n, depth - 1)
        side = rng.choice(("both", "left", "right"))
        c = rng.uniform(-2.0, 2.0)
        return ("op", rng.choice((add, sub, mul, truediv)), c if side == "left" else a, c if side == "right" else b)
    shift = rng.uniform(0.5, 2.0)
    if kind == "pow":
        k = rng.choice((0, 1, 2, 3, -1, 0.5, 1.5, -0.5))
        return ("pow", k, a, shift if k < 0 or k != int(k) else None)
    g = rng.choice((autodiff.exp, autodiff.log, autodiff.sin, autodiff.cos, autodiff.tanh, autodiff.sigmoid))
    return ("unary", g, a, shift if g is autodiff.log else None)


def _eval(t, xs):
    if t[0] == "x":
        return xs[t[1]]
    if t[0] == "op":
        return t[1](*(_eval(s, xs) if isinstance(s, tuple) else s for s in t[2:]))
    e = _eval(t[2], xs)  # a pow or unary node: (kind, exponent or op, operand, shift)
    if t[3] is not None:
        e = e * e + t[3]
    return t[1](e) if t[0] == "unary" else e ** t[1]


def _autodiff(name, k):
    rng = random.Random(f"autodiff-{name}-{k}")
    n = 1 + k % 4
    trees = [_tree(rng, n, 2 + k % 3) for _ in range(1 if name == "gradient" else 1 + k % 3)]
    xs = [rng.uniform(-1.5, 1.5) for _ in range(n)]
    if name == "gradient":
        return _taped(lambda *v: _eval(trees[0], v), xs)
    consts = [rng.uniform(-2.0, 2.0)] if k % 4 == 3 else []
    return autodiff.jacobian(lambda *v: [_eval(t, v) for t in trees] + consts, xs).data


seeded("autodiff", _autodiff, ("gradient", "jacobian"), 24)
# the true value -5e308 is not representable
case("interp.lagrange_overflow", lambda: [interp.lagrange_eval([0, 1], [1e308, -1e308], 3.0)])


if __name__ == "__main__":
    main()

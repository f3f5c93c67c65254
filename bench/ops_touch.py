"""One light, checked call into every layer, made by every workload.

It keeps each layer's self time and call count measured on every
workload; on the workloads that do not stress a layer, the prediction for
that layer is "no change". Together these calls take a few milliseconds.
"""

from __future__ import annotations

import math

import cli
import oracles as orc
from harness import Op, all_of, within


def build(ctx) -> list[Op]:
    dk = ctx.dk
    rng = orc.rng_for(ctx.seed, "touch")
    a_rows, b_rows = orc.uniform_rows(rng, 4, 4), orc.uniform_rows(rng, 4, 4)
    a, b = dk.ndcore.Matrix.from_rows(a_rows), dk.ndcore.Matrix.from_rows(b_rows)
    rhs = [rng.uniform(-1.0, 1.0) for _ in range(4)]
    signal = [rng.uniform(-1.0, 1.0) for _ in range(64)]
    cv = dk.spectral.ComplexVec.from_real(signal)
    zs = [rng.uniform(-6.0, 6.0) for _ in range(8)]
    g = [rng.uniform(-3.0, 3.0) for _ in range(5)]
    knots = sorted(rng.uniform(0.0, 4.0) for _ in range(5))
    values = [rng.uniform(-1.0, 1.0) for _ in range(5)]
    at = rng.uniform(knots[0], knots[-1])
    point = [rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)]

    def product_error(c):
        want = [[math.fsum(a_rows[i][k] * b_rows[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
        return orc.max_abs([x - y for rx, ry in zip(c.to_rows(), want) for x, y in zip(rx, ry)])

    def fft_checks(out):
        ref = dk.spectral.dft(cv)
        exact = [orc.dft_bin(signal, [0.0] * 64, k) for k in range(64)]
        scale = math.fsum(abs(v) for v in signal)
        return all_of(
            within(orc.max_abs([x - y for x, y in zip(out.re + out.im, ref.re + ref.im)]) / scale, 1e-13, "fft vs dft"),
            within(max(abs(complex(out.re[k], out.im[k]) - exact[k]) for k in range(64)) / scale, 1e-13, "fft vs exact DFT"),
        )

    def rk4_check(traj):
        factor = 1.0 - 0.1 + 0.1**2 / 2 - 0.1**3 / 6 + 0.1**4 / 24
        return within(orc.max_abs([y - factor**k for k, (y,) in enumerate(traj.ys.to_rows())]), 1e-14, "RK4 on y' = -y")

    def clip_check(out):
        norm = math.sqrt(math.fsum(v * v for v in g))
        want = [v * min(1.0, 2.0 / norm) for v in g]
        return within(orc.max_abs([x - y for x, y in zip(out.data, want)]), 1e-14, "clip_by_norm")

    def grad_fn(tr):
        _, tape = tr.call("autodiff", dk.autodiff.record, lambda x, y: x * y + dk.autodiff.sin(x), point)
        return tr.call("autodiff", dk.autodiff.gradient, tape).partials

    def linear_check(v):
        i = max(j for j in range(4) if knots[j] <= at)
        want = values[i] + (values[i + 1] - values[i]) * (at - knots[i]) / (knots[i + 1] - knots[i])
        return within(abs(v - want), 1e-14, "linear interpolation")

    numcli_op = cli.golden_op(ctx, "cli_linalg_det", ["linalg", "--op", "det"])
    numcli_op.name = "touch_numcli"
    numcli_op.produces = cli.COUNT_METRICS
    kernel = numcli_op.kernel
    numcli_op.kernel = lambda seconds, chk: {k: v for k, v in kernel(seconds, chk).items() if k in cli.COUNT_METRICS}

    return [
        Op("touch_ndcore", lambda tr: tr.call("ndcore", dk.ndcore.matmul, a, b),
           lambda c: within(product_error(c), 1e-14, "4x4 product")),
        Op("touch_lindecomp", lambda tr: tr.call("lindecomp", dk.lindecomp.solve_direct, a, rhs, "lu"),
           lambda x: within(orc.max_abs([p - q for p, q in zip(orc.matvec(a_rows, x.data), rhs)]), 1e-13, "4x4 solve")),
        Op("touch_spectral", lambda tr: tr.call("spectral", dk.spectral.fft, cv), fft_checks),
        Op("touch_microlearn", lambda tr: [tr.call("microlearn", dk.microlearn.sigmoid, z) for z in zs],
           lambda out: within(orc.max_abs([p - orc.sigmoid(z) for p, z in zip(out, zs)]), 1e-15, "sigmoid")),
        Op("touch_dynamics",
           lambda tr: tr.call("dynamics", dk.dynamics.rk4_solve, dk.dynamics.IvpProblem(lambda t, y: [-y[0]], 0.0, (1.0,), 0.1, 1.0)),
           rk4_check),
        Op("touch_optimize", lambda tr: tr.call("optimize", dk.optimize.clip_by_norm, g, 2.0), clip_check),
        Op("touch_autodiff", grad_fn,
           lambda d: within(max(abs(d[0] - point[1] - math.cos(point[0])), abs(d[1] - point[0])), 1e-15, "gradient")),
        Op("touch_roots",
           lambda tr: tr.call("roots", dk.roots.newton_scalar, lambda x: x * x - 2.0, lambda x: 2.0 * x, 1.0, tol=1e-14),
           lambda rep: within(abs(rep.root - math.sqrt(2.0)), 1e-15, "newton on x^2 - 2")),
        Op("touch_interp", lambda tr: tr.call("interp", dk.interp.linear_interp, knots, values, at), linear_check),
        Op("touch_quadrature", lambda tr: tr.call("quadrature", dk.quadrature.gauss_legendre, lambda x: x**3, 0.0, 1.0, 2),
           lambda v: within(abs(v - 0.25), 1e-15, "2-point Gauss on x^3")),
        numcli_op,
    ]

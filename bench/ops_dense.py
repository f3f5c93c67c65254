"""dense-linalg: a few large dense problems through ndcore and lindecomp.

spectral and microlearn get only the light touch every workload makes,
so FFT and MLP changes should leave this workload's numbers unchanged.
"""

from __future__ import annotations

import math

import oracles as orc
from harness import Op, all_of, holds, within

SOLVE_N = 200
SPD_N = 100
EIG_N = 40
SVD_SHAPE = (120, 40)
PCA_K = 5
GRADED_SIGMA = (1.0, 1e-3, 1e-7, 1e-10)
GRADED_ROWS = 8
GRADED_CASES = 5
# Tolerances sit 100x (graded: 15x) above the worst the Gram-matrix SVD
# and the inverse-iteration eigenvectors reached over 60 seeds; their
# actual accuracy is reported as digits, so a more accurate algorithm
# shows there.
SVD_TOL = 1e-7
GRADED_TOL = 1e-5
EIG_TOL = 1e-7


def _freivalds(rows_a, rows_b, rows_c, xs) -> float:
    """Relative error of C = A B seen through A (B x) = C x."""
    worst = 0.0
    for x in xs:
        y = orc.matvec(rows_a, orc.matvec(rows_b, x))
        z = orc.matvec(rows_c, x)
        scale = max(orc.abs_matvec(rows_a, orc.abs_matvec(rows_b, x)))
        worst = max(worst, orc.max_abs([p - q for p, q in zip(y, z)]) / scale)
    return worst


def _backward_error(rows, x, b) -> float:
    r = [bi - ai for bi, ai in zip(b, orc.matvec(rows, x))]
    norm_a = max(math.fsum(abs(v) for v in row) for row in rows)
    return orc.max_abs(r) / (norm_a * orc.max_abs(x) + orc.max_abs(b))


def _matmul_op(nd, n, algo, a_rows, b_rows, probes):
    a, b = nd.Matrix.from_rows(a_rows), nd.Matrix.from_rows(b_rows)
    name = f"matmul_{algo}_{n}"
    metric = f"ndcore.{name}_s"
    produces = [metric]
    if (algo, n) == ("naive", 128):
        produces.append("ndcore.matmul_naive_128_mflops")

    def kernel(seconds, chk):
        out = {metric: seconds}
        if len(produces) > 1:
            out[produces[1]] = 2.0 * n**3 / seconds / 1e6
        return out

    return Op(
        name,
        run=lambda tr: tr.call("ndcore", nd.matmul, a, b, algo),
        check=lambda c: within(
            _freivalds(a_rows, b_rows, c.to_rows(), probes), 1e-11, "A(Bx) vs Cx"
        ),
        inputs=(a_rows, b_rows, probes),
        produces=produces,
        kernel=kernel,
    )


def _timed(metric):
    return lambda seconds, chk: {metric: seconds}


def _check_lu(rows, probes):
    def check(f):
        lo, up = f.l.to_rows(), f.u.to_rows()
        pa = [rows[p] for p in f.perm]
        worst = 0.0
        for x in probes:
            y = orc.matvec(pa, x)
            z = orc.matvec(lo, orc.matvec(up, x))
            scale = max(orc.abs_matvec(lo, orc.abs_matvec(up, x)))
            worst = max(worst, orc.max_abs([p - q for p, q in zip(y, z)]) / scale)
        return within(worst, 1e-12, "P A x vs L (U x)")

    return check


def _check_cholesky(rows, probes):
    def check(low):
        lo = low.to_rows()
        n = len(lo)
        upper = orc.max_abs([lo[i][j] for i in range(n) for j in range(i + 1, n)])
        worst = 0.0
        for x in probes:
            ltx = [math.fsum(lo[i][j] * x[i] for i in range(n)) for j in range(n)]
            z = orc.matvec(lo, ltx)
            y = orc.matvec(rows, x)
            scale = max(orc.abs_matvec(rows, x))
            worst = max(worst, orc.max_abs([p - q for p, q in zip(y, z)]) / scale)
        return all_of(
            holds(upper == 0.0, "L is lower triangular"),
            within(worst, 1e-12, "A x vs L (L^T x)"),
        )

    return check


def _check_cg(rows, b):
    def check(out):
        x, rep = out
        chk = all_of(
            holds(rep.converged, "CG converged"),
            within(_backward_error(rows, x.data, b), 1e-10, "CG backward error"),
        )
        chk.extra["lindecomp.cg_iterations"] = rep.iterations
        return chk

    return check


def _columns(m):
    rows = m.to_rows()
    return [[rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]


def _orth_error(cols) -> float:
    k = len(cols)
    return max(
        abs(math.fsum(a * b for a, b in zip(cols[i], cols[j])) - (1.0 if i == j else 0.0))
        for i in range(k)
        for j in range(i + 1)
    )


def _descending(values) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


def _check_eig(rows):
    def check(res):
        lam = list(res.values)
        vecs = _columns(res.vectors)
        scale = orc.max_abs(lam)
        resid = max(
            math.sqrt(math.fsum((p - l * q) ** 2 for p, q in zip(orc.matvec(rows, v), v)))
            for l, v in zip(lam, vecs)
        )
        chk = all_of(
            within(resid / scale, EIG_TOL, "eigen-residual |Av - lv| / |A|"),
            within(_orth_error(vecs), EIG_TOL, "eigenvector orthonormality"),
            holds(_descending(lam), "descending order"),
        )
        chk.extra["lindecomp.eig_digits"] = chk.digits
        return chk

    return check


def _reconstruction(rows, u, sigma, v) -> float:
    ucols, vcols = _columns(u), _columns(v)
    k = len(sigma)
    worst = 0.0
    for i, row in enumerate(rows):
        for j, aij in enumerate(row):
            approx = math.fsum(ucols[t][i] * sigma[t] * vcols[t][j] for t in range(k))
            worst = max(worst, abs(aij - approx))
    return worst / orc.max_abs([x for r in rows for x in r])


def _check_svd(rows):
    def check(res):
        sigma = list(res.sigma)
        return all_of(
            within(_reconstruction(rows, res.u, sigma, res.v), SVD_TOL, "|A - U S V^T| / |A|"),
            within(_orth_error(_columns(res.u)), SVD_TOL, "U orthonormality"),
            within(_orth_error(_columns(res.v)), SVD_TOL, "V orthonormality"),
            holds(_descending(sigma) and min(sigma) >= 0.0, "sigma descending and nonnegative"),
        )

    return check


def _check_graded(cases):
    def check(results):
        checks, relative = [], 0.0
        for rows, res in zip(cases, results):
            sigma = list(res.sigma)
            normwise = max(abs(s - t) for s, t in zip(sigma, GRADED_SIGMA)) / GRADED_SIGMA[0]
            relative = max([relative] + [abs(s - t) / t for s, t in zip(sigma, GRADED_SIGMA)])
            checks += [
                within(_reconstruction(rows, res.u, sigma, res.v), GRADED_TOL, "graded |A - U S V^T| / |A|"),
                within(normwise, GRADED_TOL, "graded sigma error / sigma_1"),
            ]
        chk = all_of(*checks)
        chk.extra["lindecomp.svd_graded_digits"] = max(0.0, -math.log10(max(relative, 1e-16)))
        return chk

    return check


def _check_pca(rows, directions):
    n, d = len(rows), len(rows[0])
    means = [math.fsum(r[j] for r in rows) / n for j in range(d)]
    xc = [[r[j] - means[j] for j in range(d)] for r in rows]
    trace = math.fsum(x * x for r in xc for x in r) / (n - 1)
    spread = max(
        math.fsum(v * v for v in orc.matvec(xc, u)) / (n - 1) for u in directions
    )

    def check(proj):
        cols = _columns(proj)
        k = len(cols)
        cov = [[math.fsum(a * b for a, b in zip(cols[i], cols[j])) / (n - 1) for j in range(k)] for i in range(k)]
        top = cov[0][0]
        centre = max(abs(math.fsum(c)) / n for c in cols) / math.sqrt(top)
        offdiag = max((abs(cov[i][j]) for i in range(k) for j in range(i)), default=0.0) / top
        diag = [cov[i][i] for i in range(k)]
        return all_of(
            within(centre, 1e-12, "projected columns are centred"),
            within(offdiag, SVD_TOL, "projected covariance is diagonal"),
            holds(_descending(diag), "variances descending"),
            within(max(0.0, sum(diag) / trace - 1.0), 1e-12, "captured variance <= total"),
            within(max(0.0, spread / top - 1.0), 1e-12, "top variance >= sampled directions"),
        )

    return check


def build(ctx) -> list[Op]:
    dk, seed = ctx.dk, ctx.seed
    nd, ld = dk.ndcore, dk.lindecomp
    ops: list[Op] = []

    for n in (64, 128, 256):
        rng = orc.rng_for(seed, "matmul", str(n))
        a_rows, b_rows = orc.uniform_rows(rng, n, n), orc.uniform_rows(rng, n, n)
        probes = orc.uniform_rows(rng, 2, n)
        for algo in ("naive", "strassen"):
            ops.append(_matmul_op(nd, n, algo, a_rows, b_rows, probes))

    rng = orc.rng_for(seed, "dense", str(SOLVE_N))
    rows = orc.uniform_rows(rng, SOLVE_N, SOLVE_N)
    b = [rng.uniform(-1.0, 1.0) for _ in range(SOLVE_N)]
    probes = orc.uniform_rows(rng, 2, SOLVE_N)
    a = nd.Matrix.from_rows(rows)
    ops.append(Op(
        "lu_200",
        run=lambda tr: tr.call("lindecomp", ld.lu, a),
        check=_check_lu(rows, probes),
        inputs=(rows, probes),
        produces=["lindecomp.lu_200_s"],
        kernel=_timed("lindecomp.lu_200_s"),
    ))
    for method in ("gauss", "lu", "qr"):
        ops.append(Op(
            f"solve_{method}_200",
            run=lambda tr, m=method: tr.call("lindecomp", ld.solve_direct, a, b, m),
            check=lambda x: within(_backward_error(rows, x.data, b), 1e-12, "solve backward error"),
            inputs=(rows, b),
            produces=[f"lindecomp.solve_{method}_200_s"],
            kernel=_timed(f"lindecomp.solve_{method}_200_s"),
        ))

    rng = orc.rng_for(seed, "spd", str(SPD_N))
    spd = orc.spd_rows(rng, SPD_N)
    spd_b = [rng.uniform(-1.0, 1.0) for _ in range(SPD_N)]
    spd_probes = orc.uniform_rows(rng, 2, SPD_N)
    s = nd.Matrix.from_rows(spd)
    cg_cfg = ld.IterConfig(tol=1e-12, max_iter=10 * SPD_N)
    ops.append(Op(
        "cholesky_100",
        run=lambda tr: tr.call("lindecomp", ld.cholesky, s),
        check=_check_cholesky(spd, spd_probes),
        inputs=(spd, spd_probes),
    ))
    ops.append(Op(
        "cg_100",
        run=lambda tr: tr.call("lindecomp", ld.solve_iterative, s, spd_b, [0.0] * SPD_N, "cg", cg_cfg),
        check=_check_cg(spd, spd_b),
        inputs=(spd, spd_b),
        produces=["lindecomp.cg_iterations"],
        kernel=lambda seconds, chk: {"lindecomp.cg_iterations": chk.extra["lindecomp.cg_iterations"]},
    ))

    rng = orc.rng_for(seed, "eig", str(EIG_N))
    sym = orc.symmetric_rows(rng, EIG_N)
    sym_m = nd.Matrix.from_rows(sym)
    ops.append(Op(
        "eig_sym_40",
        run=lambda tr: tr.call("lindecomp", ld.eig, sym_m),
        check=_check_eig(sym),
        inputs=(sym,),
        produces=["lindecomp.eig_sym_40_s", "lindecomp.eig_digits"],
        kernel=lambda seconds, chk: {
            "lindecomp.eig_sym_40_s": seconds,
            "lindecomp.eig_digits": chk.extra["lindecomp.eig_digits"],
        },
    ))

    rng = orc.rng_for(seed, "svd", "x".join(map(str, SVD_SHAPE)))
    xrows = orc.uniform_rows(rng, *SVD_SHAPE)
    directions = []
    for _ in range(8):
        u = [rng.gauss(0.0, 1.0) for _ in range(SVD_SHAPE[1])]
        nu = math.sqrt(math.fsum(v * v for v in u))
        directions.append([v / nu for v in u])
    x = nd.Matrix.from_rows(xrows)
    ops.append(Op(
        "svd_120x40",
        run=lambda tr: tr.call("lindecomp", ld.svd, x),
        check=_check_svd(xrows),
        inputs=(xrows,),
        produces=["lindecomp.svd_120x40_s"],
        kernel=_timed("lindecomp.svd_120x40_s"),
    ))
    ops.append(Op(
        "pca_120x40",
        run=lambda tr: tr.call("lindecomp", ld.pca, x, PCA_K),
        check=_check_pca(xrows, directions),
        inputs=(xrows, directions),
        produces=["lindecomp.pca_120x40_s"],
        kernel=_timed("lindecomp.pca_120x40_s"),
    ))

    rng = orc.rng_for(seed, "graded")
    k = len(GRADED_SIGMA)
    cases = []
    for _ in range(GRADED_CASES):
        ucols = orc.orthonormal_columns(rng, GRADED_ROWS, k)
        vcols = orc.orthonormal_columns(rng, k, k)
        cases.append([
            [math.fsum(ucols[t][i] * GRADED_SIGMA[t] * vcols[t][j] for t in range(k)) for j in range(k)]
            for i in range(GRADED_ROWS)
        ])
    graded = [nd.Matrix.from_rows(rows) for rows in cases]
    ops.append(Op(
        "svd_graded",
        run=lambda tr: [tr.call("lindecomp", ld.svd, g) for g in graded],
        check=_check_graded(cases),
        inputs=cases,
        produces=["lindecomp.svd_graded_digits"],
        kernel=lambda seconds, chk: {
            "lindecomp.svd_graded_digits": chk.extra["lindecomp.svd_graded_digits"]
        },
    ))
    return ops

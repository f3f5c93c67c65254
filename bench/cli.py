"""numcli operations, run in-process with stdout captured and files in a temp dir.

A CLI output must exit 0, print nothing (it goes to ``--out``) and match
the values recorded from the seed code in ``goldens.json``. A changed
sha256 with matching values is counted in numcli.artifact_hash_mismatches
and is not a failure: a declared summation-order change may alter bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os

import oracles as orc
from harness import Check, Op, all_of, holds, within

GOLDEN_SAMPLE_ROWS = 12
VALUE_TOL = 1e-9


def _run_cli(ctx, tr, argv, paths):
    for path in paths:
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = tr.call("numcli", ctx.dk.numcli.run, argv)
    files = []
    for path in paths:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files.append(fh.read())
        else:
            files.append(b"")
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def golden_sample(data: bytes) -> dict:
    """What goldens.json keeps of one artifact: its hash, size and some rows."""
    table = orc.parse_table(data)
    n = len(table)
    if n <= GOLDEN_SAMPLE_ROWS:
        picks = range(n)
    else:
        picks = sorted({0, 1, 2, n // 4, n // 2, 3 * n // 4, n - 3, n - 2, n - 1})
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "rows": n,
        "sample": {str(i): table[i] for i in picks},
    }


def _value_error(table, golden) -> float:
    """Largest cell error against the recorded rows, relative to each cell
    (or to 1e-6 of the largest recorded value, for cells near zero)."""
    cells = [c for row in golden["sample"].values() for c in row if isinstance(c, float)]
    floor = 1e-6 * max((abs(c) for c in cells), default=1.0)
    worst = 0.0
    for i, want_row in golden["sample"].items():
        got_row = table[int(i)]
        if len(got_row) != len(want_row):
            return math.inf
        for got, want in zip(got_row, want_row):
            if isinstance(want, float) and isinstance(got, float):
                worst = max(worst, abs(got - want) / max(abs(want), floor))
            elif got != want:
                return math.inf
    return worst


def _outcome_checks(res) -> list[Check]:
    return [
        holds(res["rc"] == 0, f"exit code {res['rc']}: {res['stderr'].strip()[:200]}"),
        holds(res["stdout"] == "", "nothing printed when --out is given"),
    ]


def _kernel(sub):
    def kernel(seconds, chk):
        return {
            f"numcli.{sub}_s": seconds,
            "numcli.bytes_out": chk.extra["bytes"],
            "numcli.artifact_hash_mismatches": chk.extra["hash_mismatch"],
        }

    return kernel


COUNT_METRICS = ("numcli.bytes_out", "numcli.artifact_hash_mismatches")


def golden_op(ctx, name: str, argv: list[str]) -> Op:
    """A subcommand at fixed flags, checked against its recorded output."""
    out = os.path.join(ctx.tmp, name + ".out")
    full = list(argv) + ["--out", out]
    golden = ctx.goldens.get(name)
    sub = argv[0]

    def check(res):
        data = res["files"][0]
        checks = _outcome_checks(res)
        if golden is None:
            checks.append(holds(False, "no recorded output for this op in goldens.json"))
            mismatch = 0
        else:
            table = orc.parse_table(data)
            checks.append(holds(len(table) == golden["rows"], "row count matches the recording"))
            if len(table) == golden["rows"]:
                checks.append(within(_value_error(table, golden), VALUE_TOL, "values vs recording"))
            mismatch = int(hashlib.sha256(data).hexdigest() != golden["sha256"])
        chk = all_of(*checks)
        chk.extra.update(bytes=len(data), hash_mismatch=mismatch)
        return chk

    return Op(
        name,
        run=lambda tr: _run_cli(ctx, tr, full, [out]),
        check=check,
        inputs=(argv,),
        produces=(f"numcli.{sub}_s",) + COUNT_METRICS,
        kernel=_kernel(sub),
    )


def image_lowpass_op(ctx, name, rows, cols, pixels, keep, picks) -> Op:
    """``numcli image-lowpass --spectrum`` on a generated PGM.

    The pooled image is checked at ``picks`` against the exact low-band
    inverse DFT, rounded and clamped as the CLI does; pixels within 1e-6 of
    a rounding tie are skipped. The spectrum image must put the DC term,
    the largest magnitude of a nonnegative image, at 255 and its minimum at 0.
    """
    src = os.path.join(ctx.tmp, name + ".pgm")
    with open(src, "wb") as fh:
        fh.write(orc.pgm_bytes(cols, rows, pixels))
    out = os.path.join(ctx.tmp, name + ".out.pgm")
    spec = os.path.join(ctx.tmp, name + ".spectrum.pgm")
    argv = ["image-lowpass", "--in", src, "--keep", str(keep), "--spectrum", spec, "--out", out]
    golden = ctx.goldens.get(name)
    floats = [float(p) for p in pixels]

    def check(res):
        checks = _outcome_checks(res)
        pooled, spectrum = res["files"]
        pcols, prows, got = orc.parse_pgm(pooled)
        scols, srows, shot = orc.parse_pgm(spectrum)
        low = orc.dft2_low(floats, rows, cols, keep)
        worst = 0
        for r, c in picks:
            v = orc.pooled_pixel(low, rows, cols, r, c)
            if abs(abs(v - math.floor(v)) - 0.5) > 1e-6:
                worst = max(worst, abs(got[r * cols + c] - min(255, max(0, round(v)))))
        checks += [
            holds((pcols, prows, scols, srows) == (cols, rows, cols, rows), "output image shapes"),
            holds(worst == 0, f"pooled pixels off by up to {worst}"),
            holds(shot[0] == 255 and min(shot) == 0, "spectrum scaled with DC at 255"),
        ]
        mismatch = 0
        if golden is not None:
            mismatch = int(hashlib.sha256(pooled + spectrum).hexdigest() != golden["sha256"])
        chk = all_of(*checks)
        chk.extra.update(bytes=len(pooled) + len(spectrum), hash_mismatch=mismatch)
        return chk

    return Op(
        name,
        run=lambda tr: _run_cli(ctx, tr, argv, [out, spec]),
        check=check,
        inputs=(rows, cols, pixels, keep, picks),
        produces=("numcli.image-lowpass_s",) + COUNT_METRICS,
        kernel=_kernel("image-lowpass"),
    )

"""spectral-image: real signals and images through spectral and numcli.

lindecomp gets only the light touch every workload makes. Real-input
FFT packing and 2-D transform copies show here and nowhere else.
"""

from __future__ import annotations

import math

import cli
import oracles as orc
from harness import Op, all_of, holds, within

N = 1 << 14
CONV = (4096, 257)
SIDE = 128
KEEP = 16
SAMPLE_RATE = 1024.0
CUTOFF = 100.0
SPOT_BINS = 6
SPOT_PIXELS = 32


def _signal(rng) -> list[float]:
    """A few seeded tones above and below the low-pass cutoff, plus noise."""
    tones = [(rng.uniform(5.0, 500.0), rng.uniform(0.2, 1.0), rng.uniform(0, 2 * math.pi)) for _ in range(6)]
    return [
        math.fsum(a * math.sin(2 * math.pi * f * t / SAMPLE_RATE + p) for f, a, p in tones)
        + rng.gauss(0.0, 0.1)
        for t in range(N)
    ]


def _image(rng) -> list[int]:
    """Smooth seeded blobs plus noise, as integer pixels in [0, 255]."""
    blobs = [(rng.uniform(0, SIDE), rng.uniform(0, SIDE), rng.uniform(8, 40), rng.uniform(40, 200)) for _ in range(5)]
    pixels = []
    for r in range(SIDE):
        for c in range(SIDE):
            v = sum(h * math.exp(-((r - y) ** 2 + (c - x) ** 2) / (2 * s * s)) for y, x, s, h in blobs)
            pixels.append(max(0, min(255, int(v + rng.uniform(0.0, 30.0)))))
    return pixels


def _spots(rng, n, count):
    return sorted({0, 1, n // 2 - 1, n - 1} | {rng.randrange(n) for _ in range(count)})


def _bins_error(re, im, bins_re, bins_im, spots) -> float:
    """Largest error at the spot bins against the exact DFT, over sum |x|."""
    scale = math.fsum(math.hypot(a, b) for a, b in zip(re, im))
    worst = max(abs(complex(bins_re[k], bins_im[k]) - orc.dft_bin(re, im, k)) for k in spots)
    return worst / scale


def _parseval(re, im, bins_re, bins_im) -> float:
    energy = math.fsum(a * a + b * b for a, b in zip(re, im))
    spectral_energy = math.fsum(a * a + b * b for a, b in zip(bins_re, bins_im))
    return abs(spectral_energy / len(re) - energy) / energy


def _fft_op(sp, x, spots):
    cv = sp.ComplexVec.from_real(x)
    zeros = [0.0] * N

    def check(out):
        back = sp.ifft(out)
        roundtrip = orc.max_abs([a - b for a, b in zip(back.re, x)] + back.im) / orc.max_abs(x)
        return all_of(
            within(_bins_error(x, zeros, out.re, out.im, spots), 1e-12, "fft bins vs exact DFT"),
            within(_parseval(x, zeros, out.re, out.im), 1e-12, "fft Parseval"),
            within(roundtrip, 1e-12, "ifft(fft(x)) vs x"),
        )

    return Op(
        "fft_16384",
        run=lambda tr: tr.call("spectral", sp.fft, cv),
        check=check,
        inputs=(x, spots),
        produces=["spectral.fft_16384_s", "spectral.fft_16384_mflops"],
        kernel=lambda seconds, chk: {
            "spectral.fft_16384_s": seconds,
            "spectral.fft_16384_mflops": 5.0 * N * math.log2(N) / seconds / 1e6,
        },
    )


def _spectrum_op(sp, x, spots):
    zeros = [0.0] * N
    spacing = 1.0 / SAMPLE_RATE

    def check(out):
        freqs_ok = len(out.freqs) == N and all(
            abs(out.freqs[k] - (k if k < N // 2 else k - N) / (N * spacing)) <= 1e-12 * SAMPLE_RATE
            for k in range(N)
        )
        return all_of(
            within(_bins_error(x, zeros, out.bins.re, out.bins.im, spots), 1e-12, "spectrum bins vs exact DFT"),
            holds(freqs_ok and out.sample_spacing == spacing, "spectrum frequency axis"),
        )

    return Op(
        "spectrum_16384",
        run=lambda tr: tr.call("spectral", sp.spectrum, x, spacing),
        check=check,
        inputs=(x, spots),
        produces=["spectral.spectrum_16384_s"],
        kernel=lambda seconds, chk: {"spectral.spectrum_16384_s": seconds},
    )


def _lowpass_op(sp, x, spots):
    zeros = [0.0] * N
    scale = math.fsum(abs(v) for v in x)

    def passes(k):
        return min(k, N - k) * SAMPLE_RATE / N <= CUTOFF

    def check(out):
        y = list(out.data)
        worst = max(
            abs(orc.dft_bin(y, zeros, k) - (orc.dft_bin(x, zeros, k) if passes(k) else 0j))
            for k in spots
        )
        return within(worst / scale, 1e-12, "low-pass bins vs masked exact DFT")

    return Op(
        "lowpass1d_16384",
        run=lambda tr: tr.call("spectral", sp.lowpass1d, x, SAMPLE_RATE, CUTOFF),
        check=check,
        inputs=(x, spots),
        produces=["spectral.lowpass1d_16384_s"],
        kernel=lambda seconds, chk: {"spectral.lowpass1d_16384_s": seconds},
    )


def _convolve_op(sp, f, g, picks):
    norm = math.sqrt(math.fsum(v * v for v in f)) * math.sqrt(math.fsum(v * v for v in g))

    def check(out):
        y = list(out.data)
        worst = 0.0
        for i in picks:
            want = math.fsum(f[i - j] * g[j] for j in range(len(g)) if 0 <= i - j < len(f))
            worst = max(worst, abs(y[i] - want))
        return all_of(
            holds(len(y) == len(f) + len(g) - 1, "convolution length"),
            within(worst / norm, 1e-12, "convolution vs direct sums"),
        )

    return Op(
        "convolve_fft_4096",
        run=lambda tr: tr.call("spectral", sp.convolve_fft, f, g),
        check=check,
        inputs=(f, g, picks),
        produces=["spectral.convolve_fft_4096_s"],
        kernel=lambda seconds, chk: {"spectral.convolve_fft_4096_s": seconds},
    )


def _dft2_at(pixels, u, v) -> complex:
    total_re, total_im = [], []
    for r in range(SIDE):
        for c in range(SIDE):
            ang = 2 * math.pi * ((u * r) % SIDE + (v * c) % SIDE) / SIDE
            p = pixels[r * SIDE + c]
            total_re.append(p * math.cos(ang))
            total_im.append(-p * math.sin(ang))
    return complex(math.fsum(total_re), math.fsum(total_im))


def _fft2_op(sp, pixels, spots):
    img = sp.Image2D(SIDE, SIDE, pixels)
    scale = math.fsum(pixels)
    energy = math.fsum(p * p for p in pixels)

    def check(field):
        worst = max(abs(complex(field[u].re[v], field[u].im[v]) - _dft2_at(pixels, u, v)) for u, v in spots)
        total = math.fsum(a * a + b * b for row in field for a, b in zip(row.re, row.im))
        return all_of(
            holds(len(field) == SIDE and all(len(row) == SIDE for row in field), "fft2 shape"),
            within(worst / scale, 1e-12, "fft2 coefficients vs exact 2-D DFT"),
            within(abs(total / (SIDE * SIDE) - energy) / energy, 1e-12, "fft2 Parseval"),
        )

    return Op(
        "fft2_128",
        run=lambda tr: tr.call("spectral", sp.fft2, img),
        check=check,
        inputs=(pixels, spots),
        produces=["spectral.fft2_128_s"],
        kernel=lambda seconds, chk: {"spectral.fft2_128_s": seconds},
    )


def _pool_op(sp, pixels, picks):
    img = sp.Image2D(SIDE, SIDE, pixels)
    scale = orc.max_abs(pixels)

    def check(out):
        low = orc.dft2_low(pixels, SIDE, SIDE, KEEP)
        worst = max(abs(out.get(r, c) - orc.pooled_pixel(low, SIDE, SIDE, r, c)) for r, c in picks)
        return all_of(
            holds((out.rows, out.cols) == (SIDE, SIDE), "pooled image shape"),
            within(worst / scale, 1e-12, "pooled pixels vs exact low-band inverse"),
        )

    return Op(
        "spectral_pool2d_128",
        run=lambda tr: tr.call("spectral", sp.spectral_pool2d, img, KEEP),
        check=check,
        inputs=(pixels, picks),
        produces=["spectral.spectral_pool2d_128_s"],
        kernel=lambda seconds, chk: {"spectral.spectral_pool2d_128_s": seconds},
    )


def _pixel_picks(rng):
    corners = {(0, 0), (0, SIDE - 1), (SIDE - 1, 0), (SIDE - 1, SIDE - 1)}
    return sorted(corners | {(rng.randrange(SIDE), rng.randrange(SIDE)) for _ in range(SPOT_PIXELS)})


def build(ctx) -> list[Op]:
    sp, seed = ctx.dk.spectral, ctx.seed
    ops: list[Op] = []

    rng = orc.rng_for(seed, "fft")
    ops.append(_fft_op(sp, _signal(rng), _spots(rng, N, SPOT_BINS)))
    rng = orc.rng_for(seed, "spectrum")
    ops.append(_spectrum_op(sp, _signal(rng), _spots(rng, N, SPOT_BINS)))
    rng = orc.rng_for(seed, "lowpass")
    ops.append(_lowpass_op(sp, _signal(rng), _spots(rng, N, SPOT_BINS)))

    rng = orc.rng_for(seed, "convolve")
    f = [rng.uniform(-1.0, 1.0) for _ in range(CONV[0])]
    g = [rng.uniform(-1.0, 1.0) for _ in range(CONV[1])]
    m = CONV[0] + CONV[1] - 1
    picks = sorted({0, CONV[1] - 1, CONV[0] - 1, m - 1} | {rng.randrange(m) for _ in range(32)})
    ops.append(_convolve_op(sp, f, g, picks))

    rng = orc.rng_for(seed, "fft2")
    pixels = _image(rng)
    spots = sorted({(0, 0), (1, 0), (0, 1)} | {(rng.randrange(SIDE), rng.randrange(SIDE)) for _ in range(3)})
    ops.append(_fft2_op(sp, [float(p) for p in pixels], spots))

    rng = orc.rng_for(seed, "pool")
    pixels = _image(rng)
    picks = _pixel_picks(rng)
    ops.append(_pool_op(sp, [float(p) for p in pixels], picks))

    rng = orc.rng_for(seed, "image-lowpass")
    pixels = _image(rng)
    ops.append(cli.image_lowpass_op(ctx, "cli_image_lowpass_128", SIDE, SIDE, pixels, KEEP, _pixel_picks(rng)))
    return ops

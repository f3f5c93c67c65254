"""Transform and convolution tests; numpy.fft is the independent oracle."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desknum import spectral
from desknum.errors import (
    BadCutoff,
    BadKeep,
    NoPeak,
    NonFinite,
    NotPowerOfTwo,
    ShapeMismatch,
)
from desknum.spectral import ComplexVec, Image2D


def as_np(x: ComplexVec) -> np.ndarray:
    return np.asarray(x.re) + 1j * np.asarray(x.im)


def random_cvec(rng, n) -> ComplexVec:
    return ComplexVec(
        [rng.uniform(-1, 1) for _ in range(n)],
        [rng.uniform(-1, 1) for _ in range(n)],
    )


# dft


def test_dft_impulse_flat():
    out = spectral.dft(ComplexVec.from_real([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(as_np(out), np.ones(4), atol=1e-12)


def test_dft_golden_1234():
    out = as_np(spectral.dft(ComplexVec.from_real([1.0, 2.0, 3.0, 4.0])))
    expected = np.array([10.0, -2.0 + 2.0j, -2.0, -2.0 - 2.0j])
    assert np.allclose(out, expected, atol=1e-12)
    assert np.allclose(out, np.fft.fft([1.0, 2.0, 3.0, 4.0]), atol=1e-12)


def test_dft_constant():
    out = as_np(spectral.dft(ComplexVec.from_real([2.5] * 8)))
    assert abs(out[0] - 20.0) <= 1e-12
    assert np.all(np.abs(out[1:]) <= 1e-12)


# fft / ifft


def test_fft_matches_dft_all_pow2_sizes():
    rng = random.Random(11)
    n = 1
    while n <= 1024:
        x = random_cvec(rng, n)
        got = as_np(spectral.fft(x))
        ref = as_np(spectral.dft(x))
        assert np.max(np.abs(got - ref)) <= 1e-9 * n
        assert np.allclose(got, np.fft.fft(as_np(x)), atol=1e-9 * n)
        n *= 2


def test_fft_golden_1234():
    out = as_np(spectral.fft(ComplexVec.from_real([1.0, 2.0, 3.0, 4.0])))
    assert np.allclose(out, [10.0, -2.0 + 2.0j, -2.0, -2.0 - 2.0j], atol=1e-12)


def test_fft_delta_all_ones():
    out = as_np(spectral.fft(ComplexVec.from_real([1.0] + [0.0] * 15)))
    assert np.allclose(out, np.ones(16), atol=1e-12)


def test_ifft_inverts_fft():
    rng = random.Random(3)
    x = random_cvec(rng, 64)
    back = as_np(spectral.ifft(spectral.fft(x)))
    assert np.max(np.abs(back - as_np(x))) <= 1e-10


def test_fft_rejects_non_pow2():
    with pytest.raises(NotPowerOfTwo):
        spectral.fft(ComplexVec.from_real([1.0, 2.0, 3.0]))
    with pytest.raises(NotPowerOfTwo):
        spectral.ifft(ComplexVec.from_real([1.0, 2.0, 3.0]))


def test_parseval():
    rng = random.Random(17)
    x = random_cvec(rng, 256)
    xs = as_np(x)
    spec = as_np(spectral.fft(x))
    time_energy = float(np.sum(np.abs(xs) ** 2))
    freq_energy = float(np.sum(np.abs(spec) ** 2)) / 256
    assert abs(time_energy - freq_energy) <= 1e-9 * time_energy


def test_fft_linearity():
    rng = random.Random(23)
    x, y = random_cvec(rng, 128), random_cvec(rng, 128)
    a, b = 2.5, -1.25
    combo = ComplexVec(
        [a * p + b * q for p, q in zip(x.re, y.re)],
        [a * p + b * q for p, q in zip(x.im, y.im)],
    )
    lhs = as_np(spectral.fft(combo))
    rhs = a * as_np(spectral.fft(x)) + b * as_np(spectral.fft(y))
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_real_input_conjugate_symmetry():
    rng = random.Random(31)
    x = ComplexVec.from_real([rng.uniform(-1, 1) for _ in range(64)])
    spec = as_np(spectral.fft(x))
    for k in range(1, 64):
        assert abs(spec[k] - np.conj(spec[64 - k])) <= 1e-10


# frequency grids


def test_fft_freqs_golden():
    assert spectral.fft_freqs(4, 1.0) == [0.0, 0.25, -0.5, -0.25]
    assert spectral.fft_freqs(1, 1.0) == [0.0]


def test_fft_freqs_matches_numpy():
    for n, d in [(4, 1.0), (5, 1.0), (8, 0.25), (7, 2.0), (16, 0.001)]:
        assert np.allclose(spectral.fft_freqs(n, d), np.fft.fftfreq(n, d), atol=0)


def test_fftshift():
    assert spectral.fftshift([0, 1, 2, 3]) == [2, 3, 0, 1]
    assert spectral.fftshift([0, 1, 2, 3, 4]) == [3, 4, 0, 1, 2]
    assert spectral.fftshift([7]) == [7]
    assert list(np.fft.fftshift([0, 1, 2, 3, 4])) == spectral.fftshift([0, 1, 2, 3, 4])


# convolution


def test_convolve_direct_golden():
    out = spectral.convolve_direct([1.0, 2.0, 3.0], [0.0, 1.0, 0.5])
    assert out.data == [0.0, 1.0, 2.5, 4.0, 1.5]


def test_convolve_delta_identity():
    f = [3.0, -1.0, 2.0, 7.0]
    assert spectral.convolve_direct(f, [1.0]).data == f
    assert np.allclose(spectral.convolve_fft(f, [1.0]).data, f, atol=1e-12)


def test_convolve_commutative_and_distributive():
    rng = random.Random(5)
    f = [rng.uniform(-2, 2) for _ in range(9)]
    g = [rng.uniform(-2, 2) for _ in range(5)]
    h = [rng.uniform(-2, 2) for _ in range(5)]
    fg = spectral.convolve_direct(f, g).data
    gf = spectral.convolve_direct(g, f).data
    assert np.allclose(fg, gf, atol=1e-12)
    gh_sum = [a + b for a, b in zip(g, h)]
    lhs = spectral.convolve_direct(f, gh_sum).data
    rhs = [
        a + b
        for a, b in zip(
            spectral.convolve_direct(f, g).data, spectral.convolve_direct(f, h).data
        )
    ]
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_convolve_direct_matches_numpy():
    rng = random.Random(9)
    for _ in range(20):
        f = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 12))]
        g = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 12))]
        assert np.allclose(
            spectral.convolve_direct(f, g).data, np.convolve(f, g), atol=1e-10
        )


def test_convolve_fft_golden_and_matches_direct():
    out = spectral.convolve_fft([1.0, 2.0, 3.0], [0.0, 1.0, 0.5])
    assert np.allclose(out.data, [0.0, 1.0, 2.5, 4.0, 1.5], atol=1e-9)
    rng = random.Random(13)
    for m, n in [(1, 1), (2, 3), (17, 31), (128, 129), (257, 64)]:
        f = [rng.uniform(-3, 3) for _ in range(m)]
        g = [rng.uniform(-3, 3) for _ in range(n)]
        got = spectral.convolve_fft(f, g).data
        ref = spectral.convolve_direct(f, g).data
        assert len(got) == m + n - 1
        assert np.max(np.abs(np.array(got) - np.array(ref))) <= 1e-9


def test_convolve_circular_golden():
    out = spectral.convolve_circular([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 0.0, 1.0], 4)
    assert out.data == [8.0, 8.0, 12.0, 12.0]


def test_convolve_circular_matches_wrapped_linear():
    rng = random.Random(21)
    f = [rng.uniform(-2, 2) for _ in range(6)]
    g = [rng.uniform(-2, 2) for _ in range(4)]
    n = 6
    linear = np.convolve(f, g)
    wrapped = np.zeros(n)
    for i, v in enumerate(linear):
        wrapped[i % n] += v
    assert np.allclose(spectral.convolve_circular(f, g, n).data, wrapped, atol=1e-10)


def test_convolve_circular_period_too_small():
    with pytest.raises(ValueError):
        spectral.convolve_circular([1.0, 2.0, 3.0], [1.0], 2)


# 2d transforms


def test_fft2_zeros_and_impulse():
    zero = Image2D(4, 4, [0.0] * 16)
    field = spectral.fft2(zero)
    assert all(abs(v) == 0.0 for row in field for v in row.re + row.im)
    impulse = Image2D(4, 4, [1.0] + [0.0] * 15)
    field = spectral.fft2(impulse)
    mags = [math.hypot(a, b) for row in field for a, b in zip(row.re, row.im)]
    assert np.allclose(mags, 1.0, atol=1e-12)


def test_fft2_constant_dc():
    img = Image2D(4, 8, [3.0] * 32)
    field = spectral.fft2(img)
    assert abs(field[0].re[0] - 4 * 8 * 3.0) <= 1e-9
    total = sum(
        math.hypot(a, b) for row in field for a, b in zip(row.re, row.im)
    )
    assert abs(total - 96.0) <= 1e-9  # everything except DC is zero


def test_fft2_matches_numpy():
    rng = random.Random(29)
    img = Image2D(8, 4, [rng.uniform(0, 255) for _ in range(32)])
    field = spectral.fft2(img)
    got = np.array([as_np(row) for row in field])
    ref = np.fft.fft2(np.array(img.data).reshape(8, 4))
    assert np.max(np.abs(got - ref)) <= 1e-8


def test_ifft2_inverts_fft2():
    rng = random.Random(37)
    img = Image2D(8, 8, [rng.uniform(-5, 5) for _ in range(64)])
    back = spectral.ifft2(spectral.fft2(img))
    for r in range(8):
        for c in range(8):
            assert abs(back[r].re[c] - img.get(r, c)) <= 1e-9
            assert abs(back[r].im[c]) <= 1e-9


def test_fft2_rejects_non_pow2():
    with pytest.raises(NotPowerOfTwo):
        spectral.fft2(Image2D(4, 3, [0.0] * 12))


def test_image2d_validation():
    with pytest.raises(ShapeMismatch):
        Image2D(2, 2, [1.0, 2.0, 3.0])


# filtering


def two_tone(n, fs, f1, f2):
    return [
        math.sin(2 * math.pi * f1 * k / fs) + math.sin(2 * math.pi * f2 * k / fs)
        for k in range(n)
    ]


def test_lowpass_keeps_low_tone():
    n, fs = 1024, 1024.0
    sig = two_tone(n, fs, 50.0, 120.0)
    out = spectral.lowpass1d(sig, fs, 100.0)
    target = [math.sin(2 * math.pi * 50.0 * k / fs) for k in range(n)]
    worst = max(abs(a - b) for a, b in zip(out.data, target))
    assert worst < 0.02
    # both tones sit on exact bins here, so the split is nearly perfect
    assert worst < 1e-9


def test_lowpass_passthrough_and_zero():
    n, fs = 256, 256.0
    sig = [math.sin(2 * math.pi * 10.0 * k / fs) for k in range(n)]
    out = spectral.lowpass1d(sig, fs, 100.0)
    assert max(abs(a - b) for a, b in zip(out.data, sig)) <= 1e-9
    zeros = spectral.lowpass1d([0.0] * 64, 64.0, 10.0)
    assert max(abs(v) for v in zeros.data) == 0.0


def test_lowpass_preserves_retained_bins():
    rng = random.Random(41)
    n, fs = 128, 128.0
    sig = [rng.uniform(-1, 1) for _ in range(n)]
    out = spectral.lowpass1d(sig, fs, 20.0)
    before = np.fft.fft(sig)
    after = np.fft.fft(out.data)
    freqs = np.fft.fftfreq(n, 1.0 / fs)
    kept = np.abs(freqs) <= 20.0
    assert np.max(np.abs(after[kept] - before[kept])) <= 1e-9
    assert np.max(np.abs(after[~kept])) <= 1e-9


@settings(deadline=None, max_examples=60)
@given(
    p=st.integers(min_value=1, max_value=10),
    fs=st.sampled_from([1.0, 3.0, 7.3, 1000.0, 44100.0]),
    edge=st.floats(min_value=0.0, max_value=1.0),
    on_bin=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_lowpass_zeroes_exactly_the_fft_freqs_mask(p, fs, edge, on_bin, seed):
    # a cutoff on a bin frequency, computed as fft_freqs computes it, must
    # keep that bin; every bin of a random signal carries energy, so one
    # bin zeroed or kept by mistake moves the output far beyond rounding
    n = 1 << p
    d = 1.0 / fs
    if on_bin:
        cutoff = (1 + int(edge * (n // 2 - 1))) / (n * d)
    else:
        cutoff = fs / 2 * min(max(edge, 1e-9), 1 - 1e-9)
    if not 0 < cutoff < fs / 2:
        return
    rng = random.Random(seed)
    sig = [rng.uniform(-1, 1) for _ in range(n)]
    spec = np.fft.fft(sig)
    spec[np.abs(np.array(spectral.fft_freqs(n, d))) > cutoff] = 0.0
    got = np.array(spectral.lowpass1d(sig, fs, cutoff).data)
    assert np.max(np.abs(got - np.fft.ifft(spec).real)) <= 1e-13 * n


def test_lowpass_errors():
    with pytest.raises(NotPowerOfTwo):
        spectral.lowpass1d([1.0, 2.0, 3.0], 8.0, 1.0)
    for bad in (0.0, -1.0, 4.0, 5.0):
        with pytest.raises(BadCutoff):
            spectral.lowpass1d([1.0] * 8, 8.0, bad)


# pooling


def test_spectral_pool_identity_cases():
    rng = random.Random(43)
    img = Image2D(8, 8, [rng.uniform(0, 1) for _ in range(64)])
    full = spectral.spectral_pool2d(img, 8)
    assert max(abs(a - b) for a, b in zip(full.data, img.data)) <= 1e-9
    flat = Image2D(4, 4, [7.0] * 16)
    pooled = spectral.spectral_pool2d(flat, 2)
    assert max(abs(v - 7.0) for v in pooled.data) <= 1e-9


def test_spectral_pool_matches_numpy_mask_oracle():
    rng = random.Random(47)
    img = Image2D(8, 8, [rng.uniform(-3, 3) for _ in range(64)])
    keep = 4
    ref = np.fft.fft2(np.array(img.data).reshape(8, 8))
    ref[keep:, :] = 0
    ref[:, keep:] = 0
    ref = np.real(np.fft.ifft2(ref))
    got = spectral.spectral_pool2d(img, keep)
    assert np.max(np.abs(np.array(got.data).reshape(8, 8) - ref)) <= 1e-9


def test_spectral_pool_bad_keep():
    img = Image2D(4, 4, [0.0] * 16)
    for bad in (0, 5):
        with pytest.raises(BadKeep):
            spectral.spectral_pool2d(img, bad)


# peaks and spectra


def test_peak_frequency_50hz():
    fs, n = 1000.0, 1024
    sig = [math.sin(2 * math.pi * 50.0 * k / fs) for k in range(n)]
    got = spectral.peak_frequency(sig, fs)
    assert abs(got - 50.0) <= fs / n


def test_peak_frequency_5hz():
    fs, n = 500.0, 512
    sig = [math.sin(2 * math.pi * 5.0 * k / fs) for k in range(n)]
    got = spectral.peak_frequency(sig, fs)
    assert abs(got - 5.0) <= fs / n


def test_peak_frequency_dc_raises():
    with pytest.raises(NoPeak):
        spectral.peak_frequency([4.0] * 64, 64.0)


def test_spectrum_builder():
    sig = [1.0, 2.0, 3.0, 4.0]
    spec = spectral.spectrum(sig, 0.5)
    assert spec.freqs == (0.0, 0.5, -1.0, -0.5)
    assert np.allclose(as_np(spec.bins), np.fft.fft(sig), atol=1e-12)


# shapes, oracles and error order


def random_image(rng, rows, cols) -> Image2D:
    return Image2D(rows, cols, [rng.uniform(-3, 3) for _ in range(rows * cols)])


def pooled_oracle(img: Image2D, keep: int) -> np.ndarray:
    ref = np.fft.fft2(np.array(img.data).reshape(img.rows, img.cols))
    ref[keep:, :] = 0
    ref[:, keep:] = 0
    return np.real(np.fft.ifft2(ref))


SHAPES = [(1, 1), (1, 16), (16, 1), (1, 8), (8, 1), (4, 16), (16, 4), (2, 32), (32, 8)]


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_fft2_ifft2_pool_non_square_match_numpy(rows, cols):
    rng = random.Random(rows * 100 + cols)
    img = random_image(rng, rows, cols)
    arr = np.array(img.data).reshape(rows, cols)
    field = spectral.fft2(img)
    got = np.array([as_np(row) for row in field])
    assert got.shape == (rows, cols)
    assert np.max(np.abs(got - np.fft.fft2(arr))) <= 1e-12 * rows * cols * 3
    spec = [random_cvec(rng, cols) for _ in range(rows)]
    spec_np = np.array([as_np(row) for row in spec])
    back = np.array([as_np(row) for row in spectral.ifft2(spec)])
    assert np.max(np.abs(back - np.fft.ifft2(spec_np))) <= 1e-13 * (rows + cols)
    for keep in sorted({1, min(rows, cols)}):
        pooled = spectral.spectral_pool2d(img, keep)
        assert (pooled.rows, pooled.cols) == (rows, cols)
        diff = np.array(pooled.data).reshape(rows, cols) - pooled_oracle(img, keep)
        assert np.max(np.abs(diff)) <= 1e-12 * 3


@settings(deadline=None, max_examples=60)
@given(
    p=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fft_ifft_property_against_numpy(p, seed):
    n = 1 << p
    rng = random.Random(seed)
    x = random_cvec(rng, n)
    xs = as_np(x)
    # radix-2 rounding grows like log2(n) * eps * sum|x|
    bound = 4e-16 * (p + 1) * float(np.sum(np.abs(xs)))
    assert np.max(np.abs(as_np(spectral.fft(x)) - np.fft.fft(xs))) <= bound
    assert np.max(np.abs(as_np(spectral.ifft(x)) - np.fft.ifft(xs))) <= bound / n


def test_overflow_raises_non_finite():
    big = 1e308
    cvec = ComplexVec([big] * 8, [big] * 8)
    img = Image2D(4, 8, [big] * 32)
    with pytest.raises(NonFinite):
        spectral.fft(cvec)
    with pytest.raises(NonFinite):
        spectral.ifft(cvec)
    with pytest.raises(NonFinite):
        spectral.fft2(img)
    with pytest.raises(NonFinite):
        spectral.ifft2([cvec] * 4)
    for keep in (1, 4):
        with pytest.raises(NonFinite):
            spectral.spectral_pool2d(img, keep)
    with pytest.raises(NonFinite):
        spectral.convolve_fft([big] * 5, [big] * 3)
    with pytest.raises(NonFinite):
        spectral.lowpass1d([big] * 16, 16.0, 3.0)


def test_pool_overflow_in_discarded_bins_only():
    # rows [a, -a] give [0, 2a]; the column pass overflows only in column
    # 1 (2a + 2a), which keep=1 discards. The pool checks the bins it keeps
    # and its output, and the kept DC bin is exactly 0.
    a = 0.6e308
    img = Image2D(2, 2, [a, -a, a, -a])
    with pytest.raises(NonFinite):
        spectral.fft2(img)
    assert spectral.spectral_pool2d(img, 1).data == [0.0] * 4


def test_pool_error_order():
    img = Image2D(4, 3, [1.0] * 12)
    with pytest.raises(NotPowerOfTwo):
        spectral.spectral_pool2d(img, 2)
    for bad in (0, 4):
        with pytest.raises(BadKeep):
            spectral.spectral_pool2d(img, bad)
    with pytest.raises(BadKeep):
        spectral.spectral_pool2d(Image2D(3, 4, [1.0] * 12), 4)


# exact-value pin: sha256 of the outputs' float.hex strings, recorded
# before the batched kernel replaced the per-butterfly loop, so any change
# of a bit, a signed zero included, fails. The twiddles come from
# cmath.exp, so the pin assumes a correctly rounded libm (as glibc's).


def _pin_outputs() -> dict[str, list[float]]:
    rng = random.Random(20241)
    out: dict[str, list[float]] = {}

    def cvec_floats(v: ComplexVec) -> list[float]:
        return v.re + v.im

    def field_floats(field) -> list[float]:
        return [f for row in field for f in cvec_floats(row)]

    def zero_heavy(n: int) -> ComplexVec:
        # exact cancellations, so signed zeros reach the outputs
        pick = (0.0, -0.0, 1.0, -1.0, 0.5)
        return ComplexVec([rng.choice(pick) for _ in range(n)], [rng.choice(pick) for _ in range(n)])

    for n in (1, 2, 8, 1024):
        x = random_cvec(rng, n)
        out[f"fft{n}"] = cvec_floats(spectral.fft(x))
        out[f"ifft{n}"] = cvec_floats(spectral.ifft(x))
        x = zero_heavy(n)
        out[f"fft{n}_zeros"] = cvec_floats(spectral.fft(x))
        out[f"ifft{n}_zeros"] = cvec_floats(spectral.ifft(x))
        sig = [rng.uniform(-1, 1) for _ in range(n)]
        spec = spectral.spectrum(sig, 0.125)
        out[f"spectrum{n}"] = cvec_floats(spec.bins) + list(spec.freqs)
        out[f"lowpass{n}"] = spectral.lowpass1d(sig, 8.0, 1.5).data
        g = [rng.uniform(-1, 1) for _ in range(3)]
        out[f"convolve{n}"] = spectral.convolve_fft(sig, g).data
    for rows, cols in ((1, 8), (8, 1), (4, 16), (16, 4), (32, 32)):
        img = Image2D(rows, cols, [float(rng.randrange(256)) for _ in range(rows * cols)])
        out[f"fft2_{rows}x{cols}"] = field_floats(spectral.fft2(img))
        field = [random_cvec(rng, cols) for _ in range(rows)]
        out[f"ifft2_{rows}x{cols}"] = field_floats(spectral.ifft2(field))
        field = [zero_heavy(cols) for _ in range(rows)]
        out[f"ifft2_{rows}x{cols}_zeros"] = field_floats(spectral.ifft2(field))
        for keep in sorted({1, min(rows, cols)}):
            out[f"pool_{rows}x{cols}_{keep}"] = spectral.spectral_pool2d(img, keep).data
    return out


def _hex_digest(values: list[float]) -> str:
    return hashlib.sha256(" ".join(map(float.hex, values)).encode()).hexdigest()


PIN_DIGESTS = {
    "fft1": "19687882625737e04b059a1b53ba5bb1b0b8df5d8ea3bee2b5ef447cb055af63",
    "ifft1": "19687882625737e04b059a1b53ba5bb1b0b8df5d8ea3bee2b5ef447cb055af63",
    "fft1_zeros": "cc3537c52927d42d1f3f70ca5a078b35f171aee2264d2959d82023d486534adb",
    "ifft1_zeros": "10d402f72f781531b1d506ce5d6f1244c4d6e6f660b54884eb63f5f14888bee2",
    "spectrum1": "2edc0058bc37a67fb8a5a495f37aefd0bc01506f112e836a42a2944ed977ac1c",
    "lowpass1": "19986b5ffcd7bb3ba416761f31687a5e58204a58438124f412e99665b21aaed7",
    "convolve1": "415ec0a8c51afa895e24feb3b69d8be8f087b2f7362e2ce05cdb6df11b5501b2",
    "fft2": "bd75d5616548e3dc6ad3ae1d0d59bfe5acc8c1ccd9e22bcca833aef14cb1f388",
    "ifft2": "88b47c7540b5844c0dc8ed7b34f17c59224f36162220fb68544e39ee6276ccb1",
    "fft2_zeros": "a48ac552fad0d0b867f697f7af3efc7fe1f1d72a45b7671a0bc3a8c864340edd",
    "ifft2_zeros": "3b70f52ff061961786f4f2e37a6449e866ca719be6878b5914f05d17f8ba5fa6",
    "spectrum2": "019bdd76c3045c05af93d8066f436f353ff7daea4f6ba8d8e1390042071ca03f",
    "lowpass2": "4cadcf4eb26ab6af9cb1c7068358c604e23385336f9627866c088195f3edd780",
    "convolve2": "b050eaaff43faf2677af04db4c517b7b696c7c574bb19b01d5e556c7475b36d3",
    "fft8": "97792f05fb1bb5df636e03bc990eae74766e2a5b505b32a0fc0fb37ecb948d2b",
    "ifft8": "e2536564512768bb496b448a3f7ff4d3c7878dc4f437d12b3571fe01040b077a",
    "fft8_zeros": "0c90b0d607c7f44816383cf7de3daaea3ecc21cf7130d17440c1f88763f5de24",
    "ifft8_zeros": "1e08926f02027b9c89132fd764c296179abadecb596d8d39b83083efd50d53b6",
    "spectrum8": "7da17669e2735c37fcea4e8266731fec0360a0a4adcd247d9952cc0e436895a2",
    "lowpass8": "a4cf42ff66e5430af518b1cd6eed4302b8e55ae8511af0458d8535b5023d68e2",
    "convolve8": "778ed2c34b92f2db623287d7b693fd4b87a5e519524e80d3039271792a4658af",
    "fft1024": "b809449fc8c3ab04a083050952da4f1c62d270d209830c6d638b81c9814dbe9d",
    "ifft1024": "a26883093e0cdb9fd93fa1d252043f6d74019c58dcb9fda064a523629ee3aa21",
    "fft1024_zeros": "aa7c087a07a8933abc8d1d345684508115d58d3be1d71d261fd7ae70c0d226f9",
    "ifft1024_zeros": "1d4c588419e2053f32900697ae9d66066b2b2e406d27d771606fa86745035f04",
    "spectrum1024": "efff710d0a18fdea1ba43cc460b4384d794f58f1f65fd6697476fc3ccbe29388",
    "lowpass1024": "6a3d2c5d71a5c453d6aa46b49cad2757007806028932e9d2441915e3cc3bc634",
    "convolve1024": "276f51042ca8aef2187d543e3a4be261a50b9cb9d900f555e154d9364e70aa99",
    "fft2_1x8": "11ddc6906fdbd59229f2ee8f60a66624a5e680b67afb372aa50d34f9f3b35b69",
    "ifft2_1x8": "3f51bb96ef188d9c7436c2bafae455edac77d9baa6ea7106fac403c2b018579d",
    "ifft2_1x8_zeros": "3403ed0d28072fb5884e73c3c0b20e5d7f6bd8b6724865ca61ff1cb78334eb4a",
    "pool_1x8_1": "58bc4ea00dca3383981382ac9163143ffad9a91b50ab22481e45c3b4cb6e4553",
    "fft2_8x1": "d3988a969b801004916e746a121b45233e175b90920eb307b8f43795712270a8",
    "ifft2_8x1": "59c8154c6a0695208bf41498b03745efa996ef07c039d4803df640283d0264fa",
    "ifft2_8x1_zeros": "53bc372227b1487e14a187f296a93cfc4e8b1ff206147b45744c89e54f68f98c",
    "pool_8x1_1": "ddf84e96725b6828be32686fb34f98906a0facc511c746bc7299b7fa5662fb1f",
    "fft2_4x16": "c43d9f0db2d9d4330415fa493a19ca2c694026bebb08adf931e960d698775bc1",
    "ifft2_4x16": "15ad66fbf54b6d018756256bf2a0a6705288fadb5944213b48fe0915b78cc592",
    "ifft2_4x16_zeros": "30e4e87a4bf0cf2cf20953a73c27ccc707ba022154162910ce6af95e9fc19e67",
    "pool_4x16_1": "01e0c79527fd2c8d8114f113633df9291b07e4a297367a3a8901fbdfcbd2a178",
    "pool_4x16_4": "36746ac1c33f480cd555a81f06613f604d99a642c75a87466253f06d021a42d2",
    "fft2_16x4": "2e1efcff0baa4166193fac24aa9465abdd6499a4349bcc534e2a1daf0395a82d",
    "ifft2_16x4": "397a56eada92480a992ab6e8dce590536cb8a4d421aac91c0077f1a7cdd9db85",
    "ifft2_16x4_zeros": "f585cab66209a7f694322aaf9dc24f044688553c4e31c28ae88b8231d55216c0",
    "pool_16x4_1": "a966eeb50e2f6eb1814d0abe9fce10222c0657be1f11759134d9463407912f76",
    "pool_16x4_4": "b9a6dc7708e63289242cd42fb6072356095d111ab6dfcd2b036f3393968c94cc",
    "fft2_32x32": "2e8be43e49006700e2102d0da79662e201f4bddf7e8a84517436bd9531966148",
    "ifft2_32x32": "fe015df96eb123c81cda97c70bc37265fe96f92c1db02c829b495454e18137a2",
    "ifft2_32x32_zeros": "dac4189525725ad852cb1280c0b55cebf56b4423163a599a5356e5438beebc1b",
    "pool_32x32_1": "7546db7b852b399967b24a4501483e6d107b158fca33cd1ffb7354c458d448a8",
    "pool_32x32_32": "f325dc5f5b8c07b0e1d6e1b54b31f929925f3978e8b99b545f37c16cbffa97ed",
}


def test_exact_value_pin():
    got = {name: _hex_digest(vals) for name, vals in _pin_outputs().items()}
    assert got.keys() == PIN_DIGESTS.keys()
    for name, digest in PIN_DIGESTS.items():
        assert got[name] == digest, name

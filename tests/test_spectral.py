"""Transform and convolution tests; a 38-digit DFT and an exact convolution
(tests/oracles.py) are the independent oracles."""

import cmath
import math
import random
from array import array

import pytest
from hypothesis import example, given, settings
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

import oracles
from pins import random_cvec


def as_list(x: ComplexVec) -> list[complex]:
    return [complex(r, i) for r, i in zip(x.re, x.im)]


def flat(field) -> list[complex]:
    return [z for row in field for z in as_list(row)]


def worst(got, want) -> float:
    """max |got_k - want_k| over two sequences of one length."""
    got, want = list(got), list(want)
    assert len(got) == len(want)
    return max(abs(a - b) for a, b in zip(got, want))


# dft


def test_dft_impulse_flat():
    out = spectral.dft(ComplexVec.from_real([1.0, 0.0, 0.0, 0.0]))
    assert oracles.allclose(as_list(out), 1.0, atol=1e-12)


def test_dft_golden_1234():
    out = as_list(spectral.dft(ComplexVec.from_real([1.0, 2.0, 3.0, 4.0])))
    expected = [10.0, -2.0 + 2.0j, -2.0, -2.0 - 2.0j]
    assert oracles.allclose(out, expected, atol=1e-12)
    assert oracles.allclose(out, oracles.fft([1.0, 2.0, 3.0, 4.0]), atol=1e-12)


def test_dft_constant():
    out = as_list(spectral.dft(ComplexVec.from_real([2.5] * 8)))
    assert abs(out[0] - 20.0) <= 1e-12
    assert all(abs(z) <= 1e-12 for z in out[1:])


# fft / ifft


def test_fft_matches_dft_all_pow2_sizes():
    rng = random.Random(11)
    n = 1
    while n <= 1024:
        x = random_cvec(rng, n)
        got = as_list(spectral.fft(x))
        ref = as_list(spectral.dft(x))
        assert worst(got, ref) <= 1e-9 * n
        assert oracles.allclose(got, oracles.fft(as_list(x)), atol=1e-9 * n)
        n *= 2


def test_fft_golden_1234():
    out = as_list(spectral.fft(ComplexVec.from_real([1.0, 2.0, 3.0, 4.0])))
    assert oracles.allclose(out, [10.0, -2.0 + 2.0j, -2.0, -2.0 - 2.0j], atol=1e-12)


def test_fft_delta_all_ones():
    out = as_list(spectral.fft(ComplexVec.from_real([1.0] + [0.0] * 15)))
    assert oracles.allclose(out, 1.0, atol=1e-12)


def test_ifft_inverts_fft():
    rng = random.Random(3)
    x = random_cvec(rng, 64)
    back = as_list(spectral.ifft(spectral.fft(x)))
    assert worst(back, as_list(x)) <= 1e-10


def test_fft_rejects_non_pow2():
    with pytest.raises(NotPowerOfTwo):
        spectral.fft(ComplexVec.from_real([1.0, 2.0, 3.0]))
    with pytest.raises(NotPowerOfTwo):
        spectral.ifft(ComplexVec.from_real([1.0, 2.0, 3.0]))


def test_parseval():
    rng = random.Random(17)
    x = random_cvec(rng, 256)
    time_energy = math.fsum(v * v for v in x.re + x.im)
    spec = spectral.fft(x)
    freq_energy = math.fsum(v * v for v in spec.re + spec.im) / 256
    assert abs(time_energy - freq_energy) <= 1e-9 * time_energy


def test_fft_linearity():
    rng = random.Random(23)
    x, y = random_cvec(rng, 128), random_cvec(rng, 128)
    a, b = 2.5, -1.25
    combo = ComplexVec(
        [a * p + b * q for p, q in zip(x.re, y.re)],
        [a * p + b * q for p, q in zip(x.im, y.im)],
    )
    lhs = as_list(spectral.fft(combo))
    rhs = [a * p + b * q for p, q in zip(as_list(spectral.fft(x)), as_list(spectral.fft(y)))]
    assert worst(lhs, rhs) <= 1e-9


def test_real_input_conjugate_symmetry():
    rng = random.Random(31)
    x = ComplexVec.from_real([rng.uniform(-1, 1) for _ in range(64)])
    spec = as_list(spectral.fft(x))
    for k in range(1, 64):
        assert abs(spec[k] - spec[64 - k].conjugate()) <= 1e-10


# frequency grids


def test_fft_freqs_golden():
    assert spectral.fft_freqs(4, 1.0) == [0.0, 0.25, -0.5, -0.25]
    assert spectral.fft_freqs(1, 1.0) == [0.0]


def test_fft_freqs_matches_numpy():
    for n, d in [(4, 1.0), (5, 1.0), (8, 0.25), (7, 2.0), (16, 0.001)]:
        assert oracles.allclose(spectral.fft_freqs(n, d), oracles.fftfreq(n, d), atol=0)


def test_fft_freqs_bit_identical_to_per_bin_formula():
    for d in (1, 0.1, 1 / 3, 1e-300, 1e300):
        for n in range(1, 1101):
            split = (n + 1) // 2
            want = [k / (n * d) if k < split else (k - n) / (n * d) for k in range(n)]
            got = spectral.fft_freqs(n, d)
            assert array("d", got).tobytes() == array("d", want).tobytes(), (n, d)


def test_spacing_and_rate_must_be_positive():
    sig = [0.0, 1.0, 0.0, -1.0]
    calls = [
        (lambda v: spectral.fft_freqs(4, v), "sample spacing"),
        (lambda v: spectral.spectrum(sig, v), "sample spacing"),
        (lambda v: spectral.peak_frequency(sig, v), "sample rate"),
        (lambda v: spectral.lowpass1d(sig, v, 1.0), "sample rate"),
    ]
    for call, what in calls:
        for bad in (0.0, -0.0, -1.0):
            with pytest.raises(BadCutoff, match=f"^{what} must be positive$"):
                call(bad)


def test_fft_freqs_overflow_raises_non_finite():
    # a subnormal spacing puts 1 / (n d) past the float maximum; the spacing
    # that peak_frequency derives from a rate of 1e-320 is inf itself
    with pytest.raises(NonFinite, match="^frequency axis contains a non-finite entry: inf$"):
        spectral.fft_freqs(8, 1e-320)
    with pytest.raises(NonFinite, match="^frequency axis"):
        spectral.spectrum([1.0, 0.0, 2.0, 0.0], 1e-320)
    with pytest.raises(NonFinite, match="^sample spacing is not finite: inf$"):
        spectral.peak_frequency([0.0, 1.0, 0.0, -1.0], 1e-320)


def test_fftshift():
    assert spectral.fftshift([0, 1, 2, 3]) == [2, 3, 0, 1]
    assert spectral.fftshift([0, 1, 2, 3, 4]) == [3, 4, 0, 1, 2]
    assert spectral.fftshift([7]) == [7]
    # numpy.fft.fftshift rolls by n // 2
    for n in range(1, 9):
        assert spectral.fftshift(range(n)) == list(range(n - n // 2, n)) + list(range(n - n // 2))


# convolution


def test_convolve_direct_golden():
    out = spectral.convolve_direct([1.0, 2.0, 3.0], [0.0, 1.0, 0.5])
    assert out.data == [0.0, 1.0, 2.5, 4.0, 1.5]


def test_convolve_delta_identity():
    f = [3.0, -1.0, 2.0, 7.0]
    assert spectral.convolve_direct(f, [1.0]).data == f
    assert oracles.allclose(spectral.convolve_fft(f, [1.0]).data, f, atol=1e-12)


def test_convolve_commutative_and_distributive():
    rng = random.Random(5)
    f = [rng.uniform(-2, 2) for _ in range(9)]
    g = [rng.uniform(-2, 2) for _ in range(5)]
    h = [rng.uniform(-2, 2) for _ in range(5)]
    fg = spectral.convolve_direct(f, g).data
    gf = spectral.convolve_direct(g, f).data
    assert oracles.allclose(fg, gf, atol=1e-12)
    gh_sum = [a + b for a, b in zip(g, h)]
    lhs = spectral.convolve_direct(f, gh_sum).data
    rhs = [
        a + b
        for a, b in zip(
            spectral.convolve_direct(f, g).data, spectral.convolve_direct(f, h).data
        )
    ]
    assert oracles.allclose(lhs, rhs, atol=1e-9)


def test_convolve_direct_matches_numpy():
    rng = random.Random(9)
    for _ in range(20):
        f = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 12))]
        g = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 12))]
        assert oracles.allclose(
            spectral.convolve_direct(f, g).data, oracles.convolve(f, g), atol=1e-10
        )


def test_convolve_fft_golden_and_matches_direct():
    out = spectral.convolve_fft([1.0, 2.0, 3.0], [0.0, 1.0, 0.5])
    assert oracles.allclose(out.data, [0.0, 1.0, 2.5, 4.0, 1.5], atol=1e-9)
    rng = random.Random(13)
    for m, n in [(1, 1), (2, 3), (17, 31), (128, 129), (257, 64)]:
        f = [rng.uniform(-3, 3) for _ in range(m)]
        g = [rng.uniform(-3, 3) for _ in range(n)]
        got = spectral.convolve_fft(f, g).data
        ref = spectral.convolve_direct(f, g).data
        assert len(got) == m + n - 1
        assert worst(got, ref) <= 1e-9


def test_convolve_circular_golden():
    out = spectral.convolve_circular([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 0.0, 1.0], 4)
    assert out.data == [8.0, 8.0, 12.0, 12.0]


def test_convolve_circular_matches_wrapped_linear():
    rng = random.Random(21)
    f = [rng.uniform(-2, 2) for _ in range(6)]
    g = [rng.uniform(-2, 2) for _ in range(4)]
    n = 6
    wrapped = [0.0] * n
    for i, v in enumerate(oracles.convolve(f, g)):
        wrapped[i % n] += v
    assert oracles.allclose(spectral.convolve_circular(f, g, n).data, wrapped, atol=1e-10)


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
    assert oracles.allclose(mags, 1.0, atol=1e-12)


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
    ref = oracles.fft2([img.data[r * 4:(r + 1) * 4] for r in range(8)])
    assert worst(flat(field), [z for row in ref for z in row]) <= 1e-8


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
    with pytest.raises(ShapeMismatch,
                       match=r"^image dims must be positive integers, got 0x2$"):
        Image2D(0, 2, [])


@pytest.mark.parametrize("rows, cols", [(2.0, 2), (2, 2.0), (2, "2")],
                         ids=["float-rows", "float-cols", "str-cols"])
def test_image2d_rejects_non_int_dimensions(rows, cols):
    # accepted, a float dimension makes fft2 raise a bare TypeError and
    # write_pgm write the header "2 2.0"
    want = rf"^image dims must be positive integers, got {rows!r}x{cols!r}$"
    with pytest.raises(ShapeMismatch, match=want):
        Image2D(rows, cols, [0.0, 1.0, 2.0, 3.0])


# an index outside the shape once read another pixel: get(0, 3) of a 2x2
# image returned the pixel at (1, 1)
@pytest.mark.parametrize("r, c", [(0, 3), (0, 2), (-1, 0), (2, 0)])
def test_image2d_get_rejects_an_index_outside_the_shape(r, c):
    img = Image2D(2, 2, [1.0, 2.0, 3.0, 4.0])
    assert img.get(1, 1) == 4.0
    with pytest.raises(IndexError, match=r"index must be in \[0, 1\], got -?\d$"):
        img.get(r, c)


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
    before = oracles.fft(sig)
    after = oracles.fft(out.data)
    kept = [abs(f) <= 20.0 for f in oracles.fftfreq(n, 1.0 / fs)]
    assert max(abs(a - b) for a, b, k in zip(after, before, kept) if k) <= 1e-9
    assert max(abs(a) for a, k in zip(after, kept) if not k) <= 1e-9


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
    spec = [0.0 if abs(f) > cutoff else z for z, f in zip(oracles.fft(sig), spectral.fft_freqs(n, d))]
    got = spectral.lowpass1d(sig, fs, cutoff).data
    assert worst(got, (z.real for z in oracles.fft(spec, inverse=True))) <= 1e-13 * n


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
    got = spectral.spectral_pool2d(img, keep)
    assert worst(got.data, pooled_oracle(img, keep)) <= 1e-9


@pytest.mark.parametrize("rows,cols", [(8, 4), (16, 16), (32, 8), (4, 2)])
def test_pool_of_fft2_field_is_bit_identical(rows, cols):
    # numcli image-lowpass --spectrum pools the fft2 field; its bytes must
    # match the plain pool for every keep, also past cols/2 + 1
    rng = random.Random(rows * 64 + cols)
    img = random_image(rng, rows, cols)
    field = spectral.fft2(img)
    for keep in range(1, min(rows, cols) + 1):
        assert spectral._pool_field(field, keep).data == spectral.spectral_pool2d(img, keep).data


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
    assert oracles.allclose(as_list(spec.bins), oracles.fft(sig), atol=1e-12)


# shapes, oracles and error order


def random_image(rng, rows, cols) -> Image2D:
    return Image2D(rows, cols, [rng.uniform(-3, 3) for _ in range(rows * cols)])


def pooled_oracle(img: Image2D, keep: int) -> list[float]:
    return oracles.pools(img.data, img.rows, img.cols, keep)[-1]


SHAPES = [(1, 1), (1, 16), (16, 1), (1, 8), (8, 1), (4, 16), (16, 4), (2, 32), (32, 8)]


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_fft2_ifft2_pool_non_square_match_numpy(rows, cols):
    rng = random.Random(rows * 100 + cols)
    img = random_image(rng, rows, cols)
    arr = [img.data[r * cols:(r + 1) * cols] for r in range(rows)]
    field = spectral.fft2(img)
    assert [len(row.re) for row in field] == [cols] * rows
    assert worst(flat(field), [z for row in oracles.fft2(arr) for z in row]) <= 1e-12 * rows * cols * 3
    spec = [random_cvec(rng, cols) for _ in range(rows)]
    back = flat(spectral.ifft2(spec))
    assert worst(back, [z for row in oracles.fft2([as_list(r) for r in spec], inverse=True) for z in row]) <= 1e-13 * (
        rows + cols)
    pools = oracles.pools(img.data, rows, cols, min(rows, cols))
    for keep in sorted({1, min(rows, cols)}):
        pooled = spectral.spectral_pool2d(img, keep)
        assert (pooled.rows, pooled.cols) == (rows, cols)
        assert worst(pooled.data, pools[keep - 1]) <= 1e-12 * 3


@settings(deadline=None, max_examples=60)
@given(
    p=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fft_ifft_property_against_numpy(p, seed):
    n = 1 << p
    rng = random.Random(seed)
    x = random_cvec(rng, n)
    xs = as_list(x)
    # radix-2 rounding grows like log2(n) * eps * sum|x|
    bound = 4e-16 * (p + 1) * math.fsum(map(abs, xs))
    assert worst(as_list(spectral.fft(x)), oracles.fft(xs)) <= bound
    assert worst(as_list(spectral.ifft(x)), oracles.fft(xs, inverse=True)) <= bound / n


@settings(deadline=None, max_examples=60)
@given(
    p=st.integers(min_value=0, max_value=12),
    row_bits=st.integers(min_value=0, max_value=12),
    keep_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(p=12, row_bits=0, keep_frac=1.0, seed=1)
@example(p=12, row_bits=1, keep_frac=1.0, seed=2)
@example(p=12, row_bits=11, keep_frac=0.0, seed=3)
@example(p=12, row_bits=12, keep_frac=0.0, seed=4)
@example(p=1, row_bits=1, keep_frac=0.5, seed=5)
@example(p=0, row_bits=0, keep_frac=0.0, seed=6)
def test_real_input_transforms_property_against_numpy(p, row_bits, keep_frac, seed):
    # the fft bound above on every real-input path: log2(n) * eps * sum|x|
    # on spectra, over n on outputs that come back through an inverse
    n = 1 << p
    rng = random.Random(seed)
    x = [rng.uniform(-1, 1) for _ in range(n)]
    bound = 4e-16 * (p + 1) * math.fsum(map(abs, x))

    spec = oracles.fft(x)
    assert worst(as_list(spectral.spectrum(x, 1.0).bins), spec) <= bound

    if n > 1:
        cutoff = rng.uniform(0.01, 0.49)
        ref = [0.0 if abs(f) > cutoff else z for z, f in zip(spec, oracles.fftfreq(n, 1.0))]
        got = spectral.lowpass1d(x, 1.0, cutoff).data
        assert worst(got, (z.real for z in oracles.fft(ref, inverse=True))) <= bound / n

    g = [rng.uniform(-1, 1) for _ in range(rng.randint(1, n))]
    size = 1 << (n + len(g) - 2).bit_length()
    q = size.bit_length() - 1
    conv_bound = 4e-16 * (q + 1) * math.fsum(map(abs, x)) * math.fsum(map(abs, g))
    got = spectral.convolve_fft(x, g).data
    assert worst(got, oracles.convolve(x, g)) <= conv_bound / size

    rows = 1 << min(row_bits, p)
    cols = n // rows
    img = Image2D(rows, cols, x)
    field = oracles.fft2([x[r * cols:(r + 1) * cols] for r in range(rows)])
    assert worst(flat(spectral.fft2(img)), [z for row in field for z in row]) <= bound
    keep = 1 + int(keep_frac * (min(rows, cols) - 1))
    pooled = spectral.spectral_pool2d(img, keep).data
    assert worst(pooled, pooled_oracle(img, keep)) <= bound / n


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
        with pytest.raises(NonFinite, match="^pooled image contains a non-finite entry"):
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


@pytest.mark.parametrize("a", [1e308, 1.7e308])
def test_pool_near_float_max_keeps_exact_zero_dc(a):
    # the kept DC bin is a - a + a - a = 0 exactly; the discarded bins are
    # 2a and 4a, which overflow, so no kept value may be formed from them
    img = Image2D(2, 2, [a, -a, a, -a])
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


POOL_SHAPES = [(1 << a, 1 << b) for a in range(7) for b in range(7)]


def pool_error_ratio(img: Image2D, keep: int, want: list[float]) -> float:
    """Largest pooled-pixel error against the oracle's pool `want` over the
    property bound 4e-16 (p + 1) sum|x| / n of
    test_real_input_transforms_property_against_numpy."""
    n = img.rows * img.cols
    bound = 4e-16 * n.bit_length() * math.fsum(map(abs, img.data)) / n
    return worst(spectral.spectral_pool2d(img, keep).data, want) / bound


@pytest.mark.parametrize("rows,cols", POOL_SHAPES)
def test_pool_every_shape_and_keep_within_property_bound(rows, cols):
    rng = random.Random(rows * 1000 + cols)
    img = random_image(rng, rows, cols)
    pools = oracles.pools(img.data, rows, cols, min(rows, cols))
    for keep in range(1, min(rows, cols) + 1):
        assert pool_error_ratio(img, keep, pools[keep - 1]) <= 1.0, keep


def complex_pool(img: Image2D, keep: int) -> list[float] | None:
    """Real part of the full complex 2-D inverse of the zero-padded band:
    rows first, then every column. None where any entry is not finite."""
    rows, cols = img.rows, img.cols
    a: list[complex] = []
    for row in spectral._fft2_band(img, keep, keep):
        a += row + [0j] * (cols - keep)
    spectral._fft_inplace(a, inverse=True, block=cols)
    t: list[complex] = []
    for c in range(cols):
        t += a[c::cols] + [0j] * (rows - keep)
    spectral._fft_inplace(t, inverse=True, block=rows)
    if not all(map(cmath.isfinite, t)):
        return None
    return [t[c * rows + r].real for r in range(rows) for c in range(cols)]


@pytest.mark.parametrize("scale", [1e300, 1e306, 1e307, 5e307, 1e308, 1.7e308])
def test_pool_near_float_max_finite_where_complex_inverse_is(scale):
    # the Hermitian path inverts rows first, as complex_pool does, from a
    # halved band, so no image that complex_pool pools to finite pixels
    # may raise here
    rng = random.Random(int(math.log2(scale)))
    for rows, cols in [(1, 8), (8, 1), (2, 2), (4, 4), (4, 16), (16, 4), (8, 8)]:
        for signed in (True, False):
            lo = -1.0 if signed else 0.0
            x = [rng.uniform(lo, 1.0) * scale for _ in range(rows * cols)]
            img = Image2D(rows, cols, x)
            unit = Image2D(rows, cols, [v / scale for v in x])
            pools = oracles.pools(unit.data, rows, cols, min(rows, cols))
            for keep in range(1, min(rows, cols) + 1):
                ref = complex_pool(img, keep)
                try:
                    got = spectral.spectral_pool2d(img, keep).data
                except NonFinite:
                    assert ref is None, (rows, cols, keep, signed)
                    continue
                if ref is not None:
                    n = rows * cols
                    bound = 4e-16 * n.bit_length() * math.fsum(map(abs, unit.data)) / n
                    assert worst((v / scale for v in got), pools[keep - 1]) <= bound

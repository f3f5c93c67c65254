"""DFT/FFT engine with convolution and frequency-domain filtering.

Conventions: forward transform unscaled, inverse scaled by 1/n, so a
round trip is the identity. dft is the O(n^2) definition and doubles as
the correctness oracle for the iterative radix-2 fft. Public transforms
reject non-power-of-two lengths; only convolve_fft pads internally
(and crops back) by contract.

Every transform runs through one kernel, _fft_inplace: a batched,
stage-vectorised iterative radix-2 FFT (Cooley & Tukey, 1965). It
transforms every aligned block of a flat list in one call, permutes
through a cached bit-reversal table, and does each stage's butterflies
as slice operations over whichever is shorter, the blocks or the
twiddles. Each element still gets exactly u + v*w, u - v*w and z*scale
with the twiddles of _roots, so results do not depend on the batching.

Real input takes half the work (Sorensen, Jones, Heideman & Burrus,
1987). _rfft_rows packs each real row of length n as even + i*odd
samples, runs one batched complex FFT of length n/2 over all rows and
splits the result into bins 0..n/2; _irfft_rows merges a Hermitian half
spectrum the same way and runs one half-length inverse. The split and
merge factors come from the first half of _roots; no other table is cached.
spectrum, peak_frequency, lowpass1d and convolve_fft use this pair; fft2
transforms the real rows, then only columns 0..cols/2, and fills the
other columns from the conjugate symmetry of a real image's spectrum;
spectral_pool2d computes only the bins its mask keeps (output pruning,
Markel 1971) and inverts their Hermitian part: complex inverses of only
the rows that hold a kept bin, then _irfft_rows down each column.

Computed spectra are checked for finiteness once, as complex values,
and stored without a second pass through the ComplexVec constructor,
which keeps its checks for values from outside.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass
from itertools import repeat
from operator import add, attrgetter, mul, neg, sub, truediv
from typing import Sequence

from .errors import (
    BadCutoff,
    BadKeep,
    NoPeak,
    NotPowerOfTwo,
    NonFinite,
    ShapeMismatch,
)
from .ndcore import Vector, _checked_float, _checked_floats, _finite, _transpose, _vec


class ComplexVec:
    """Complex sequence stored as parallel real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Sequence[float], im: Sequence[float]):
        re = _checked_floats(re, "re")
        im = _checked_floats(im, "im")
        if len(re) != len(im):
            raise ShapeMismatch(f"re has {len(re)} entries, im has {len(im)}")
        self.re = re
        self.im = im

    @classmethod
    def from_real(cls, values: Sequence[float]) -> "ComplexVec":
        values = list(values)
        return cls(values, [0.0] * len(values))

    def __len__(self) -> int:
        return len(self.re)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ComplexVec):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ComplexVec({self.re!r}, {self.im!r})"


@dataclass(frozen=True)
class Spectrum:
    """FFT bins paired with their frequency axis."""

    bins: ComplexVec
    freqs: tuple[float, ...]
    sample_spacing: float


class Image2D:
    """Row-major real image with positive dimensions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[float]):
        # ints, as for Matrix, or fft2 fails on them with a bare TypeError
        if not (isinstance(rows, int) and isinstance(cols, int)):
            raise ShapeMismatch(f"image dimensions must be ints, got {rows!r}x{cols!r}")
        if rows < 1 or cols < 1:
            raise ShapeMismatch("image dimensions must be positive")
        data = _checked_floats(data, "data")
        if len(data) != rows * cols:
            raise ShapeMismatch(f"expected {rows * cols} pixels, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self.data = data

    def get(self, r: int, c: int) -> float:
        return self.data[r * self.cols + c]


def _image(rows: int, cols: int, data: list[float]) -> Image2D:
    """Image2D of pixels already checked as rows * cols finite floats,
    stored without a second pass through the constructor's checks."""
    img = Image2D.__new__(Image2D)
    img.rows = rows
    img.cols = cols
    img.data = data
    return img


_real = attrgetter("real")
_imag = attrgetter("imag")


def _to_complex(x: ComplexVec) -> list[complex]:
    return list(map(complex, x.re, x.im))


def _from_complex(xs: Sequence[complex]) -> ComplexVec:
    """ComplexVec of computed values, checked once instead of by __init__."""
    if not all(map(cmath.isfinite, xs)):
        raise NonFinite("complex entries must be finite")
    out = ComplexVec.__new__(ComplexVec)
    out.re = list(map(_real, xs))
    out.im = list(map(_imag, xs))
    return out


def _require_pow2(n: int) -> None:
    if n < 1 or n & (n - 1):
        raise NotPowerOfTwo(f"length {n} is not a power of two")


def _require_keep(rows: int, cols: int, keep: int) -> None:
    if not 1 <= keep <= min(rows, cols):
        raise BadKeep(f"keep must be in [1, {min(rows, cols)}]")


@functools.lru_cache(maxsize=None)
def _roots(n: int) -> tuple[complex, ...]:
    # e^{-2pi i k/n}; shared by dft (full table) and fft (strided)
    return tuple(cmath.exp(-2j * math.pi * k / n) for k in range(n))


def dft(x: ComplexVec) -> ComplexVec:
    """Direct O(n^2) transform from the definition."""
    xs = _to_complex(x)
    n = len(xs)
    table = _roots(n)
    out = []
    for k in range(n):
        acc = 0j
        for t, xt in enumerate(xs):
            acc += xt * table[(k * t) % n]
        out.append(acc)
    return _from_complex(out)


@functools.lru_cache(maxsize=None)
def _bit_reversal(n: int) -> tuple[int, ...]:
    # rev[i] is i with its log2(n) bits reversed
    rev = [0]
    while len(rev) < n:
        rev = [2 * r for r in rev] + [2 * r + 1 for r in rev]
    return tuple(rev)


@functools.lru_cache(maxsize=None)
def _twiddles(n: int, inverse: bool) -> tuple[complex, ...]:
    # first half of _roots(n), conjugated for the inverse
    half = _roots(n)[: n // 2]
    return tuple(w.conjugate() for w in half) if inverse else half


def _fft_inplace(a: list[complex], inverse: bool, block: int = 0) -> None:
    """Transform each aligned block of length `block` (default: all of a)."""
    total = len(a)
    n = block or total
    if n > 1:
        rev = _bit_reversal(n)
        for base in range(0, total, n):
            a[base : base + n] = map(a[base : base + n].__getitem__, rev)
    tw = _twiddles(n, inverse)
    size = 2
    while size <= n:
        half = size // 2
        w = tw[:: n // size]
        if half < total // size:
            # fewer twiddles than blocks: one strided butterfly per twiddle
            for k in range(half):
                lo = a[k::size]
                v = list(map(mul, a[k + half :: size], repeat(w[k])))
                a[k::size] = map(add, lo, v)
                a[k + half :: size] = map(sub, lo, v)
        else:
            for start in range(0, total, size):
                mid, end = start + half, start + size
                lo = a[start:mid]
                v = list(map(mul, a[mid:end], w))
                a[start:mid] = map(add, lo, v)
                a[mid:end] = map(sub, lo, v)
        size *= 2
    if inverse:
        a[:] = map(mul, a, repeat(1.0 / n))


_conj = complex.conjugate


def _split_factors(n: int) -> tuple[complex, ...]:
    """-i W^k for k = 1..n/2 - 1 with W = e^{-2 pi i/n}: W^(k + n/4) below
    k = n/4 and -W^(k - n/4) from there on. Both come from the first half of
    _roots; its entries past n/2 have larger angles, whose rounding gives
    them up to 2.8 ulp of error against 1.6 ulp below n/2."""
    q = n // 4
    roots = _roots(n)
    return roots[q + 1 : 2 * q] + tuple(map(neg, roots[:q]))


def _fold(v: list[complex], step: int, h: int, m: int, w: Sequence[complex]) -> list[complex]:
    """A + B + (A - B) * w for k = 1..m in each row of v (rows of `step`
    entries), with A = v[k] and B = conj v[h - k]: the butterfly that both
    splits a packed spectrum and merges a half spectrum back."""
    a: list[complex] = []
    b: list[complex] = []
    for base in range(0, len(v), step):
        a += v[base + 1 : base + 1 + m]
        b += v[base + h - 1 : base + h - 1 - m : -1]
    b = list(map(_conj, b))
    return list(map(add, map(add, a, b), map(mul, map(sub, a, b), w)))


def _rfft_rows(data: Sequence[float], rows: int, cols: int, take: int) -> list[complex]:
    """First `take` bins of the FFT of each real row of the row-major data.

    Each row is packed as z = even + i*odd, and all rows go through one
    batched FFT of length h = cols/2. With A = Z[k] and B = conj Z[h - k],
    bin k is A/2 + B/2 + (A/2 - B/2) * (-i W^k) (Sorensen et al., 1987);
    Z is halved first, so no partial sum overflows where the bin does not.
    Bins 0 and h are real, and bins above h are conj X[cols - k]."""
    if cols == 1:
        return list(map(complex, data))
    h = cols // 2
    z = list(map(complex, data[0::2], data[1::2]))
    _fft_inplace(z, inverse=False, block=h)
    ends = [(c.real + c.imag, c.real - c.imag) for c in z[::h]]
    z = list(map(mul, z, repeat(0.5)))
    m = min(take, h) - 1  # bins 1..m come from the split
    mid = _fold(z, h, h, m, _split_factors(cols)[:m] * rows)
    out: list[complex] = []
    for r, (x0, xh) in enumerate(ends):
        x = mid[r * m : r * m + m]
        out.append(complex(x0))
        out += x
        if take > h:
            out.append(complex(xh))
            out += map(_conj, x[cols - take : h - 1][::-1])
    return out


def _irfft_rows(half: Sequence[complex], rows: int, n: int) -> list[float]:
    """Inverse FFT (scaled by 1/n) of each Hermitian spectrum in half, given
    by its bins 0..n/2, as one real row-major list.

    Undoes the split of _rfft_rows: with A = X[k] and B = conj X[h - k],
    Z[k] = A/2 + B/2 + (A/2 - B/2) * (i W^-k), and one batched inverse of
    length h = n/2 gives the even samples as its real parts and the odd
    ones as its imaginary parts. Only the real parts of bins 0 and h count."""
    if n == 1:
        return list(map(_real, half))
    h = n // 2
    step = h + 1
    xh = list(map(mul, half, repeat(0.5)))
    # i W^-k = -i W^(h - k): the split factors reversed
    mid = _fold(xh, step, h, h - 1, _split_factors(n)[::-1] * rows)
    z: list[complex] = []
    for r in range(rows):
        x0 = xh[r * step].real
        x1 = xh[r * step + h].real
        z.append(complex(x0 + x1, x0 - x1))
        z += mid[r * (h - 1) : (r + 1) * (h - 1)]
    _fft_inplace(z, inverse=True, block=h)
    out = [0.0] * (2 * len(z))
    out[0::2] = map(_real, z)
    out[1::2] = map(_imag, z)
    return out


def fft(x: ComplexVec) -> ComplexVec:
    _require_pow2(len(x))
    a = _to_complex(x)
    _fft_inplace(a, inverse=False)
    return _from_complex(a)


def ifft(x: ComplexVec) -> ComplexVec:
    _require_pow2(len(x))
    a = _to_complex(x)
    _fft_inplace(a, inverse=True)
    return _from_complex(a)


def _positive(value: float, what: str) -> float:
    """A sample spacing or rate: finite (NonFinite) and positive (BadCutoff)."""
    value = _checked_float(value, what)
    if value <= 0:
        raise BadCutoff(f"{what} must be positive")
    return value


def fft_freqs(n: int, d: float = 1.0) -> list[float]:
    if n < 1:
        raise ShapeMismatch("need n >= 1")
    d = _positive(d, "sample spacing")
    split = (n + 1) // 2
    nd = n * d
    freqs = list(map(truediv, range(split), repeat(nd))) + list(
        map(truediv, range(split - n, 0), repeat(nd))
    )
    # a subnormal spacing puts 1 / (n d) past the float maximum
    return _finite(freqs, "frequency axis")


def fftshift(v: Sequence[float]) -> list[float]:
    v = list(v)
    k = len(v) // 2
    if k == 0:
        return v
    return v[-k:] + v[:-k]


def convolve_direct(f: Sequence[float], g: Sequence[float]) -> Vector:
    a = _vec(f, "f")
    b = _vec(g, "g")
    out = [0.0] * (len(a) + len(b) - 1)
    for i, fi in enumerate(a):
        for j, gj in enumerate(b):
            out[i + j] += fi * gj
    return Vector(out)


def convolve_fft(f: Sequence[float], g: Sequence[float]) -> Vector:
    a = _vec(f, "f")
    b = _vec(g, "g")
    m = len(a) + len(b) - 1
    size = 1
    while size < m:
        size *= 2
    take = size // 2 + 1
    both = _rfft_rows(a + [0.0] * (size - len(a)) + b + [0.0] * (size - len(b)), 2, size, take)
    prod = list(map(mul, both[:take], both[take:]))
    return Vector(_irfft_rows(prod, 1, size)[:m])


def convolve_circular(f: Sequence[float], g: Sequence[float], n: int) -> Vector:
    a = _vec(f, "f")
    b = _vec(g, "g")
    if n < max(len(a), len(b)):
        raise ValueError("period n must cover both inputs")
    out = [0.0] * n
    for i, fi in enumerate(a):
        for j, gj in enumerate(b):
            out[(i + j) % n] += fi * gj
    return Vector(out)


def fft2(img: Image2D) -> list[ComplexVec]:
    """Separable transform: the real FFT of each row, then each column."""
    _require_pow2(img.rows)
    _require_pow2(img.cols)
    return list(map(_from_complex, _fft2_band(img, img.rows, img.cols)))


def _fft2_band(img: Image2D, height: int, width: int) -> list[list[complex]]:
    """The first `height` rows of fft2(img), each cut to its first `width`
    bins. Only columns 0..cols/2 are transformed; the columns above follow
    from the symmetry F[u][v] = conj F[-u][cols - v] of a real image."""
    rows, cols = img.rows, img.cols
    low = min(width, cols // 2 + 1)
    t = _transpose(_rfft_rows(img.data, rows, cols, low), low)
    _fft_inplace(t, inverse=False, block=rows)
    band = [t[u::rows] for u in range(height)]
    if width > low:
        for u, row in enumerate(band):
            mirror = t[-u % rows :: rows]
            row += map(_conj, mirror[cols - width + 1 : cols // 2][::-1])
    return band


def ifft2(field: Sequence[ComplexVec]) -> list[ComplexVec]:
    rows = len(field)
    _require_pow2(rows)
    cols = len(field[0])
    _require_pow2(cols)
    for row in field:
        if len(row) != cols:
            raise ShapeMismatch("ragged field")
    grid: list[complex] = []
    for row in field:
        grid += map(complex, row.re, row.im)
    _fft_inplace(grid, inverse=True, block=cols)
    t = _transpose(grid, cols)
    _fft_inplace(t, inverse=True, block=rows)
    return [_from_complex(t[r::rows]) for r in range(rows)]


def lowpass1d(signal: Sequence[float], sample_rate: float, cutoff: float) -> Vector:
    """Zero every FFT bin whose frequency magnitude exceeds the cutoff,
    then transform back. Conjugate partners share one |freq|, so the
    mask keeps the output real."""
    data = _vec(signal, "signal")
    n = len(data)
    _require_pow2(n)
    sample_rate = _positive(sample_rate, "sample rate")
    if not 0 < cutoff < sample_rate / 2:
        raise BadCutoff("cutoff must lie in (0, sample_rate/2)")
    half = _rfft_rows(data, 1, n, n // 2 + 1)
    # |fft_freqs(n, d)[k]| is min(k, n - k) / (n * d), non-decreasing in
    # min(k, n - k), so the bins above the cutoff form one band around n/2
    d = 1.0 / sample_rate
    keep = bisect.bisect_right(range(n // 2 + 1), cutoff, key=lambda m: m / (n * d))
    half[keep:] = [0j] * (n // 2 + 1 - keep)
    return Vector(_irfft_rows(half, 1, n))


def spectral_pool2d(img: Image2D, keep: int) -> Image2D:
    """Keep the keep x keep lowest-index corner of fft2(img), zero the rest
    and return the real part of its inverse. Only the kept bins of each
    row and the kept columns are transformed forward; the real part is
    the exact inverse of the band's Hermitian part (see _pool_band), so
    no imaginary part is computed on the way back."""
    rows, cols = img.rows, img.cols
    _require_keep(rows, cols, keep)
    _require_pow2(rows)
    _require_pow2(cols)
    return _pool_band(_fft2_band(img, keep, keep), rows, cols)


def _pool_field(field: Sequence[ComplexVec], keep: int) -> Image2D:
    """spectral_pool2d from the already computed fft2 of the image."""
    rows, cols = len(field), len(field[0])
    _require_keep(rows, cols, keep)
    band = [list(map(complex, row.re[:keep], row.im[:keep])) for row in field[:keep]]
    return _pool_band(band, rows, cols)


def _pool_band(band: list[list[complex]], rows: int, cols: int) -> Image2D:
    """Re ifft2 of a rows x cols spectrum B that is zero outside the keep x
    keep corner `band`, computed as the inverse of B's Hermitian part
    H[u][v] = (B[u][v] + conj B[-u][-v]) / 2, which is real.

    Row u of H is nonzero only if u < keep or rows - u < keep; only those
    of rows 0..rows/2 are built and inverted, in one batched transform, and
    the other rows stay exact 0j. Each column of the result is then
    Hermitian in u, and _irfft_rows turns its bins 0..rows/2 into pixels.
    The band is halved first, so each partial sum over a row of H is the
    mean of the matching sums over the rows of B it comes from: the row
    pass overflows only where a complex inverse of B, rows first, does."""
    keep = len(band)
    h = rows // 2 + 1
    built: list[int] = []
    t: list[complex] = []
    for u in range(h):
        w = -u % rows
        if u >= keep and w >= keep:
            continue
        row = [0j] * cols
        if u < keep:
            row[:keep] = map(mul, band[u], repeat(0.5))
        if w < keep:
            # conj B[w][v'] / 2 lands in column -v' of row u
            m = list(map(mul, map(_conj, band[w]), repeat(0.5)))
            row[0] += m[0]
            lo = cols - keep + 1
            row[lo:] = map(add, row[lo:], m[:0:-1])
        built.append(u)
        t += row
    _fft_inplace(t, inverse=True, block=cols)
    half = [0j] * (cols * h)
    for j, u in enumerate(built):
        half[u::h] = t[j * cols : (j + 1) * cols]
    out = _finite(_irfft_rows(half, cols, rows), "pooled image")
    return _image(rows, cols, _transpose(out, rows))


def spectrum(signal: Sequence[float], sample_spacing: float) -> Spectrum:
    data = _vec(signal, "signal")
    _require_pow2(len(data))
    bins = _from_complex(_rfft_rows(data, 1, len(data), len(data)))
    freqs = tuple(fft_freqs(len(data), sample_spacing))
    return Spectrum(bins, freqs, sample_spacing)


def peak_frequency(signal: Sequence[float], sample_rate: float) -> float:
    """Frequency of the strongest non-DC bin on the nonnegative half."""
    spec = spectrum(signal, 1.0 / _positive(sample_rate, "sample rate"))
    bins, freqs, n = spec.bins, spec.freqs, len(spec.freqs)
    best_k = -1
    best_mag = 0.0
    # ascending frequency scan, so exact ties keep the lowest frequency
    for k in range(1, (n + 1) // 2):
        mag = math.hypot(bins.re[k], bins.im[k])
        if mag > best_mag:
            best_k = k
            best_mag = mag
    floor = 1e-12 * max(1.0, math.hypot(bins.re[0], bins.im[0]))
    if best_k < 0 or best_mag <= floor:
        raise NoPeak("no non-DC spectral content")
    return freqs[best_k]

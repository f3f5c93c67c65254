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
fft2 is one batched pass over the rows and one over the transposed
columns; spectral_pool2d computes only the bins its mask keeps (output
pruning, Markel 1971).
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass
from itertools import repeat
from operator import add, attrgetter, mul, sub
from typing import Sequence

from .errors import (
    BadCutoff,
    BadKeep,
    NoPeak,
    NotPowerOfTwo,
    NonFinite,
    ShapeMismatch,
)
from .ndcore import Vector


class ComplexVec:
    """Complex sequence stored as parallel real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Sequence[float], im: Sequence[float]):
        re = list(map(float, re))
        im = list(map(float, im))
        if len(re) != len(im):
            raise ShapeMismatch(f"re has {len(re)} entries, im has {len(im)}")
        if not (all(map(math.isfinite, re)) and all(map(math.isfinite, im))):
            raise NonFinite("complex entries must be finite")
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
        if rows < 1 or cols < 1:
            raise ShapeMismatch("image dimensions must be positive")
        data = list(map(float, data))
        if len(data) != rows * cols:
            raise ShapeMismatch(f"expected {rows * cols} pixels, got {len(data)}")
        if not all(map(math.isfinite, data)):
            raise NonFinite("pixel values must be finite")
        self.rows = rows
        self.cols = cols
        self.data = data

    def get(self, r: int, c: int) -> float:
        return self.data[r * self.cols + c]


_real = attrgetter("real")
_imag = attrgetter("imag")


def _to_complex(x: ComplexVec) -> list[complex]:
    return list(map(complex, x.re, x.im))


def _from_complex(xs: Sequence[complex]) -> ComplexVec:
    return ComplexVec(list(map(_real, xs)), list(map(_imag, xs)))


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


def fft_freqs(n: int, d: float = 1.0) -> list[float]:
    if n < 1:
        raise ShapeMismatch("need n >= 1")
    if d <= 0:
        raise BadCutoff("sample spacing must be positive")
    split = (n + 1) // 2
    return [k / (n * d) if k < split else (k - n) / (n * d) for k in range(n)]


def fftshift(v: Sequence[float]) -> list[float]:
    v = list(v)
    k = len(v) // 2
    if k == 0:
        return v
    return v[-k:] + v[:-k]


def convolve_direct(f: Sequence[float], g: Sequence[float]) -> Vector:
    a = Vector(list(f)).data
    b = Vector(list(g)).data
    out = [0.0] * (len(a) + len(b) - 1)
    for i, fi in enumerate(a):
        for j, gj in enumerate(b):
            out[i + j] += fi * gj
    return Vector(out)


def convolve_fft(f: Sequence[float], g: Sequence[float]) -> Vector:
    a = Vector(list(f)).data
    b = Vector(list(g)).data
    m = len(a) + len(b) - 1
    size = 1
    while size < m:
        size *= 2
    both = list(map(complex, a)) + [0j] * (size - len(a))
    both += map(complex, b)
    both += [0j] * (size - len(b))
    _fft_inplace(both, inverse=False, block=size)
    prod = list(map(mul, both[:size], both[size:]))
    _fft_inplace(prod, inverse=True)
    return Vector(list(map(_real, prod[:m])))


def convolve_circular(f: Sequence[float], g: Sequence[float], n: int) -> Vector:
    a = Vector(list(f)).data
    b = Vector(list(g)).data
    if n < max(len(a), len(b)):
        raise ValueError("period n must cover both inputs")
    out = [0.0] * n
    for i, fi in enumerate(a):
        for j, gj in enumerate(b):
            out[(i + j) % n] += fi * gj
    return Vector(out)


def fft2(img: Image2D) -> list[ComplexVec]:
    """Separable transform: FFT each row, then each column."""
    _require_pow2(img.rows)
    _require_pow2(img.cols)
    return _fft2_grid(list(map(complex, img.data)), img.rows, img.cols, inverse=False)


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
    return _fft2_grid(grid, rows, cols, inverse=True)


def _transpose(a: list[complex], cols: int, take: int) -> list[complex]:
    """First `take` columns of the row-major a (row length cols), column by column."""
    out: list[complex] = []
    for c in range(take):
        out += a[c::cols]
    return out


def _fft2_grid(grid: list[complex], rows: int, cols: int, inverse: bool) -> list[ComplexVec]:
    _fft_inplace(grid, inverse, block=cols)
    t = _transpose(grid, cols, cols)
    _fft_inplace(t, inverse, block=rows)
    return [_from_complex(t[r::rows]) for r in range(rows)]


def lowpass1d(signal: Sequence[float], sample_rate: float, cutoff: float) -> Vector:
    """Zero every FFT bin whose frequency magnitude exceeds the cutoff,
    then transform back. Conjugate partners share one |freq|, so the
    mask keeps the output real."""
    data = Vector(list(signal)).data
    n = len(data)
    _require_pow2(n)
    if not 0 < cutoff < sample_rate / 2:
        raise BadCutoff("cutoff must lie in (0, sample_rate/2)")
    a = list(map(complex, data))
    _fft_inplace(a, inverse=False)
    # |fft_freqs(n, d)[k]| is min(k, n - k) / (n * d), non-decreasing in
    # min(k, n - k), so the bins above the cutoff form one band around n/2
    d = 1.0 / sample_rate
    keep = bisect.bisect_right(range(n // 2 + 1), cutoff, key=lambda m: m / (n * d))
    a[keep : n - keep + 1] = [0j] * (n - 2 * keep + 1)
    _fft_inplace(a, inverse=True)
    return Vector(list(map(_real, a)))


def spectral_pool2d(img: Image2D, keep: int) -> Image2D:
    """Keep the keep x keep lowest-index corner of fft2(img), zero the rest
    and transform back. Only the kept columns are transformed forward."""
    rows, cols = img.rows, img.cols
    _require_keep(rows, cols, keep)
    _require_pow2(rows)
    _require_pow2(cols)
    a = list(map(complex, img.data))
    _fft_inplace(a, inverse=False, block=cols)
    low = _transpose(a, cols, keep)
    _fft_inplace(low, inverse=False, block=rows)
    return _pool_band([low[r::rows] for r in range(keep)], rows, cols)


def _pool_field(field: Sequence[ComplexVec], keep: int) -> Image2D:
    """spectral_pool2d from the already computed fft2 of the image."""
    rows, cols = len(field), len(field[0])
    _require_keep(rows, cols, keep)
    band = [list(map(complex, row.re[:keep], row.im[:keep])) for row in field[:keep]]
    return _pool_band(band, rows, cols)


def _pool_band(band: list[list[complex]], rows: int, cols: int) -> Image2D:
    """Inverse fft2 of a rows x cols spectrum that is zero outside the
    keep x keep corner `band`. A row of zeros transforms to exact +0j,
    so only the keep nonzero rows are row-transformed."""
    keep = len(band)
    a: list[complex] = []
    for row in band:
        a += row
        a += [0j] * (cols - keep)
    _fft_inplace(a, inverse=True, block=cols)
    t: list[complex] = []
    for c in range(cols):
        t += a[c::cols]
        t += [0j] * (rows - keep)
    _fft_inplace(t, inverse=True, block=rows)
    if not all(map(cmath.isfinite, t)):
        raise NonFinite("complex entries must be finite")
    return Image2D(rows, cols, list(map(_real, _transpose(t, rows, rows))))


def spectrum(signal: Sequence[float], sample_spacing: float) -> Spectrum:
    data = Vector(list(signal)).data
    _require_pow2(len(data))
    if sample_spacing <= 0:
        raise BadCutoff("sample spacing must be positive")
    bins = fft(ComplexVec.from_real(data))
    freqs = tuple(fft_freqs(len(data), sample_spacing))
    return Spectrum(bins, freqs, sample_spacing)


def peak_frequency(signal: Sequence[float], sample_rate: float) -> float:
    """Frequency of the strongest non-DC bin on the nonnegative half."""
    data = Vector(list(signal)).data
    n = len(data)
    _require_pow2(n)
    bins = fft(ComplexVec.from_real(data))
    freqs = fft_freqs(n, 1.0 / sample_rate)
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

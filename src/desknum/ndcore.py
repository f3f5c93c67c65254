"""Dense matrix/vector kernel.

Row-major real-valued matrices and vectors with element-wise arithmetic,
reductions, naive (row-by-column dot product) and Strassen multiplication
(rectangular, zero-padded by one row or column at each odd level),
transpose/reshape, vector geometry, norms, and absolute/relative error
metrics. Everything is a pure function over immutable values.

Four decisions are made here and nowhere else. `_checked_floats` is the one
gate for floats from outside: every caller input in the package is converted
by float() and required finite there (through `_vec` where an empty input is
an error, and through `_checked_float` for a single scalar), and NonFinite
names the input and its first bad entry.
`_finite`, `_fsum` and `_fsums` are the same gate for computed values:
`_finite` requires values finite, and `_fsum` (one sum) and `_fsums` (a batch
of sums) add with math.fsum and turn its overflow and invalid-operation
exceptions (IEEE 754-2019 section 7) and a non-finite sum into NonFinite.
Every compensated sum in the package goes through one of the two, so the
internal helpers `_dot`, `_norm2` and `_matvec` are gated too.
`_bounded` is the one divergence test: an iterate is data while every entry
is within DIVERGE_LIMIT in magnitude.
`_fd_columns` is the one finite-difference kernel of the solvers: the
derivative of newton_scalar, the Jacobian of newton_system and the Hessian of
autodiff.hessian_fd are its columns, each at the step its caller passes.
The argument rules live here too: `_count` for every count, index or
iteration budget (any numbers.Integral, else ValueError, and then within the
caller's bounds, 0 and up by default, else the caller's error class), `_dims`
for the dimensions of a Matrix or an Image2D (positive ints, else
ShapeMismatch), and `_positive` for every step, rate or scale that must
exceed 0 (NonFinite for nan and inf, then the caller's error class for a
value <= 0). A float that an interval bounds is read through
`_checked_float` inside its comparison, so nan, which fails every
comparison, raises NonFinite rather than the range error or nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, filterfalse
from numbers import Integral
from operator import add, mul, sub, truediv
from typing import Iterable, Sequence, Union

from .errors import (
    DivisionByZero,
    EmptyInput,
    NonFinite,
    RelativeUndefined,
    ShapeMismatch,
    SizeMismatch,
    ZeroNorm,
)

# Strassen recurses only while every dimension exceeds this size. Up to 64
# one level loses to the cubic kernel and from 128 to 256 it is within a few
# percent of it (measured crossover, see CHANGES.md).
STRASSEN_CUTOFF = 192

# iterates past this magnitude are treated as divergence, not data
DIVERGE_LIMIT = 1e12


def _finite(values, what: str):
    """values, unchanged, once each entry is found finite in one pass.
    The gates below, which run once per small object or sum on hot paths,
    test first and call this only to name a failure."""
    bad = next(filterfalse(math.isfinite, values), None)
    if bad is not None:
        raise NonFinite(f"{what} contains a non-finite entry: {bad!r}")
    return values


def _fsums(groups: Iterable[Iterable[float]], what: str) -> list[float]:
    """math.fsum of each group, each required finite. fsum raises
    OverflowError when a finite sum overflows and ValueError on inf - inf;
    a group that calls back into user code is evaluated by the caller
    first, so the callback's own errors pass."""
    try:
        sums = list(map(math.fsum, groups))
    except (OverflowError, ValueError):
        raise NonFinite(f"{what} overflows") from None
    return sums if all(map(math.isfinite, sums)) else _finite(sums, what)


def _fsum(terms: Iterable[float], what: str) -> float:
    """math.fsum of terms, required finite, as one group of _fsums."""
    try:
        s = math.fsum(terms)
    except (OverflowError, ValueError):
        raise NonFinite(f"{what} overflows") from None
    return s if math.isfinite(s) else _finite((s,), what)[0]


def _checked_floats(values: Iterable[float], what: str) -> list[float]:
    out = list(map(float, values))
    return out if all(map(math.isfinite, out)) else _finite(out, what)


def _checked_float(value: float, what: str) -> float:
    f = float(value)
    if not math.isfinite(f):
        raise NonFinite(f"{what} is not finite: {f!r}")
    return f


def _count(value: int, what: str, least: int = 0, most: int | None = None, err=ValueError) -> int:
    # any Integral passes, as an int; a float, str or None raises here, before
    # range() or a slice would raise a bare TypeError; then err unless
    # least <= value <= most. An int skips the Integral test, an ABC check
    # that costs some 0.4 us a call (CPython 3.11, x86-64 Xeon), 25 times the
    # type test, on the hot path of Matrix.get
    if type(value) is not int:
        if not isinstance(value, Integral):
            raise ValueError(f"{what} must be an int, got {value!r}")
        value = int(value)
    if value < least or most is not None and value > most:
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise err(f"{what} must be {bound}, got {value}")
    return value


def _positive(value: float, what: str, err: type = ValueError) -> float:
    # a step, rate or scale: NonFinite for nan and inf, then err for <= 0
    value = _checked_float(value, what)
    if value <= 0:
        raise err(f"{what} must be positive")
    return value


def _bounded(values: Iterable[float]) -> bool:
    # false for NaN too, which fails every comparison
    return all(abs(v) <= DIVERGE_LIMIT for v in values)


def _fd_columns(f, x: list[float], h: float, fx=None) -> list[list[float]]:
    """Column j is the difference quotient of the list-valued f along x_j:
    forward from fx = f(x) if given, else central, f(x + h e_j) called first."""
    cols = []
    for j in range(len(x)):
        xp = list(x)
        xp[j] += h
        fp = f(xp)
        if fx is None:
            xm = list(x)
            xm[j] -= h
            cols.append([(a - b) / (2.0 * h) for a, b in zip(fp, f(xm))])
        else:
            cols.append([(a - b) / h for a, b in zip(fp, fx)])
    return cols


def _dims(rows: int, cols: int, what: str = "matrix") -> None:
    # ints, or to_rows() and the slices of row() and col() raise TypeError
    if not (isinstance(rows, int) and isinstance(cols, int)) or rows < 1 or cols < 1:
        raise ShapeMismatch(f"{what} dims must be positive integers, got {rows!r}x{cols!r}")


class Matrix:
    """Dense rows x cols matrix stored row-major as float64."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[float]):
        _dims(rows, cols)
        checked = _checked_floats(data, "matrix data")
        if len(checked) != rows * cols:
            raise SizeMismatch(
                f"data length {len(checked)} does not match {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        self.data = checked

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Matrix":
        if not rows:
            raise EmptyInput("matrix needs at least one row")
        ncols = len(rows[0])
        flat: list[float] = []
        for r in rows:
            if len(r) != ncols:
                raise ShapeMismatch("ragged rows in matrix literal")
            flat.extend(r)
        return cls(len(rows), ncols, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        _dims(rows, cols)  # before the data list is sized by them
        return cls(rows, cols, [0.0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i * n + i] = 1.0
        return m

    def get(self, i: int, j: int) -> float:
        return self.data[_count(i, "row index", 0, self.rows - 1, IndexError) * self.cols
                         + _count(j, "column index", 0, self.cols - 1, IndexError)]

    def row(self, i: int) -> list[float]:
        i = _count(i, "row index", 0, self.rows - 1, IndexError)
        return self.data[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> list[float]:
        return self.data[_count(j, "column index", 0, self.cols - 1, IndexError) :: self.cols]

    def to_rows(self) -> list[list[float]]:
        c = self.cols
        return [self.data[i * c : i * c + c] for i in range(self.rows)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Matrix({self.to_rows()!r})"


def _trusted(rows: list[list[float]]) -> Matrix:
    """Matrix of rows already checked as equal-length lists of finite
    floats, stored without a second pass through the constructor's checks."""
    m = Matrix.__new__(Matrix)
    m.rows = len(rows)
    m.cols = len(rows[0])
    m.data = list(chain.from_iterable(rows))
    return m


class Vector:
    """Real vector of length >= 1 with finite entries."""

    __slots__ = ("data",)

    def __init__(self, data: Sequence[float]):
        checked = _checked_floats(data, "vector data")
        if not checked:
            raise EmptyInput("vector needs at least one entry")
        self.data = checked

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self):
        return iter(self.data)

    def __getitem__(self, i):
        return self.data[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Vector):
            return self.data == other.data
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Vector({self.data!r})"


@dataclass(frozen=True)
class ErrorPair:
    """Absolute and relative error of an approximation."""

    absolute: float
    relative: float


Scalar = Union[int, float]


def _vec(v: Union[Vector, Sequence[float]], what: str = "vector") -> list[float]:
    if isinstance(v, Vector):
        return v.data
    data = _checked_floats(v, what)
    if not data:
        raise EmptyInput(f"{what} must be nonempty")
    return data


_EW_OPS = {"add": add, "sub": sub, "mul": mul, "div": truediv}


def ew_binary(a: Matrix, b: Union[Matrix, Scalar], op: str) -> Matrix:
    """Element-wise add/sub/mul/div with scalar broadcasting on b."""
    fn = _EW_OPS.get(op)
    if fn is None:
        raise ValueError(f"unknown element-wise op {op!r}")
    if isinstance(b, Matrix):
        if (a.rows, a.cols) != (b.rows, b.cols):
            raise ShapeMismatch(
                f"shape {a.rows}x{a.cols} does not match {b.rows}x{b.cols}"
            )
        bdata = b.data
    else:
        bdata = [_checked_float(b, "scalar operand")] * len(a.data)
    if fn is truediv and 0.0 in bdata:
        raise DivisionByZero("zero divisor entry")
    return Matrix(a.rows, a.cols, list(map(fn, a.data, bdata)))


def reduce(v: Union[Vector, Sequence[float]], kind: str) -> float:
    """Fold a vector down to one value: sum, mean, max, or min."""
    data = _vec(v)
    if kind == "sum":
        return _fsum(data, "sum")
    if kind == "mean":
        return _fsum(data, "sum") / len(data)
    if kind == "max":
        return max(data)
    if kind == "min":
        return min(data)
    raise ValueError(f"unknown reduction {kind!r}")


def _naive_ll(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    # cubic kernel on list-of-lists: each entry is a row-by-column dot product
    # summed over k = 0, 1, ... from zero. The columns of b get fresh (exact)
    # float objects so the inner loop reads them in allocation order, which
    # matters once b no longer fits in cache.
    bt = [[x * 1.0 for x in col] for col in zip(*b)]
    return [[sum(map(mul, arow, bcol)) for bcol in bt] for arow in a]


# vector helpers for internal kernels; callers validate first


def _dot(a: Sequence[float], b: Sequence[float], what: str = "dot product") -> float:
    return _fsum(map(mul, a, b), what)


def _norm2(v: Sequence[float], what: str = "l2 norm") -> float:
    return math.sqrt(_fsum((x * x for x in v), what))


def _norm_inf(v: Sequence[float]) -> float:
    # callers pass gated values: max() would skip a NaN that does not come first
    return max(map(abs, v))


def _matvec(rows: Sequence[Sequence[float]], x: Sequence[float]) -> list[float]:
    return _fsums((map(mul, r, x) for r in rows), "matrix-vector product")


def _ll_add(a, b):
    return [list(map(add, ra, rb)) for ra, rb in zip(a, b)]


def _ll_sub(a, b):
    return [list(map(sub, ra, rb)) for ra, rb in zip(a, b)]


def _pad(rows: list[list[float]], nrows: int, ncols: int) -> list[list[float]]:
    # zero-extend to nrows x ncols
    width = len(rows[0])
    out = [row + [0.0] * (ncols - width) for row in rows]
    out += [[0.0] * ncols for _ in range(nrows - len(rows))]
    return out


def _strassen(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    m, k, n = len(a), len(b), len(b[0])
    if min(m, k, n) <= STRASSEN_CUTOFF:
        return _naive_ll(a, b)
    if m % 2 or k % 2 or n % 2:
        # odd level: one zero row or column per odd dimension, then crop
        full = _strassen(_pad(a, m + m % 2, k + k % 2), _pad(b, k + k % 2, n + n % 2))
        return [row[:n] for row in full[:m]]
    hm, hk, hn = m // 2, k // 2, n // 2
    a11 = [row[:hk] for row in a[:hm]]
    a12 = [row[hk:] for row in a[:hm]]
    a21 = [row[:hk] for row in a[hm:]]
    a22 = [row[hk:] for row in a[hm:]]
    b11 = [row[:hn] for row in b[:hk]]
    b12 = [row[hn:] for row in b[:hk]]
    b21 = [row[:hn] for row in b[hk:]]
    b22 = [row[hn:] for row in b[hk:]]
    m1 = _strassen(_ll_add(a11, a22), _ll_add(b11, b22))
    m2 = _strassen(_ll_add(a21, a22), b11)
    m3 = _strassen(a11, _ll_sub(b12, b22))
    m4 = _strassen(a22, _ll_sub(b21, b11))
    m5 = _strassen(_ll_add(a11, a12), b22)
    m6 = _strassen(_ll_sub(a21, a11), _ll_add(b11, b12))
    m7 = _strassen(_ll_sub(a12, a22), _ll_add(b21, b22))
    c11 = _ll_add(_ll_sub(_ll_add(m1, m4), m5), m7)
    c12 = _ll_add(m3, m5)
    c21 = _ll_add(m2, m4)
    c22 = _ll_add(_ll_add(_ll_sub(m1, m2), m3), m6)
    out = [c11[i] + c12[i] for i in range(hm)]
    out += [c21[i] + c22[i] for i in range(hm)]
    return out


def matmul(a: Matrix, b: Matrix, algo: str = "naive") -> Matrix:
    """Matrix product; algo is "naive" or "strassen".

    Strassen halves all three dimensions while each exceeds STRASSEN_CUTOFF,
    padding an odd dimension with one zero row or column at that level and
    cropping the result, and multiplies the blocks with the cubic kernel.
    Operands with any dimension at or below the cutoff go to the cubic kernel
    unpadded.
    """
    if a.cols != b.rows:
        raise ShapeMismatch(
            f"inner dims differ: {a.rows}x{a.cols} vs {b.rows}x{b.cols}"
        )
    if algo == "naive":
        out = _naive_ll(a.to_rows(), b.to_rows())
    elif algo == "strassen":
        out = _strassen(a.to_rows(), b.to_rows())
    else:
        raise ValueError(f"unknown matmul algorithm {algo!r}")
    return Matrix.from_rows(out)


def _transpose(flat: list, cols: int) -> list:
    """The row-major `flat` (rows of length cols), column by column."""
    out = []
    for c in range(cols):
        out += flat[c::cols]
    return out


def transpose(a: Matrix) -> Matrix:
    return Matrix(a.cols, a.rows, _transpose(a.data, a.cols))


def reshape(a: Matrix, r: int, c: int) -> Matrix:
    """Row-major reinterpretation; the flat data sequence is unchanged."""
    if r * c != a.rows * a.cols:
        raise SizeMismatch(f"cannot reshape {a.rows}x{a.cols} into {r}x{c}")
    return Matrix(r, c, a.data)


def dot(a: Union[Vector, Sequence[float]], b: Union[Vector, Sequence[float]]) -> float:
    va, vb = _vec(a), _vec(b)
    if len(va) != len(vb):
        raise ShapeMismatch(f"lengths differ: {len(va)} vs {len(vb)}")
    return _dot(va, vb)


def cross3(a: Union[Vector, Sequence[float]], b: Union[Vector, Sequence[float]]) -> Vector:
    va, vb = _vec(a), _vec(b)
    if len(va) != 3 or len(vb) != 3:
        raise ShapeMismatch("cross product needs two length-3 vectors")
    return Vector(
        [
            va[1] * vb[2] - va[2] * vb[1],
            va[2] * vb[0] - va[0] * vb[2],
            va[0] * vb[1] - va[1] * vb[0],
        ]
    )


def _flat(x: Union[Matrix, Vector, Sequence[float]]) -> list[float]:
    if isinstance(x, Matrix):
        return x.data
    return _vec(x)


def norm(x: Union[Matrix, Vector, Sequence[float]], kind: str = "l2") -> float:
    """L1 or L2 norm of a vector; Frobenius norm of a matrix (= L2 of its data)."""
    data = _flat(x)
    if kind == "l1":
        return _fsum(map(abs, data), "l1 norm")
    if kind in ("l2", "frobenius"):
        return _norm2(data, f"{kind} norm")
    raise ValueError(f"unknown norm kind {kind!r}")


def cosine_similarity(a, b) -> float:
    va, vb = _vec(a), _vec(b)
    if len(va) != len(vb):
        raise ShapeMismatch(f"lengths differ: {len(va)} vs {len(vb)}")
    na, nb = _norm2(va), _norm2(vb)
    if na == 0.0 or nb == 0.0:
        raise ZeroNorm("cosine similarity undefined for zero-norm input")
    return _dot(va, vb) / (na * nb)


def euclidean_distance(a, b) -> float:
    va, vb = _vec(a), _vec(b)
    if len(va) != len(vb):
        raise ShapeMismatch(f"lengths differ: {len(va)} vs {len(vb)}")
    # ** 2, not x * x, whose last bit differs for some subnormal squares; the
    # generator raises the OverflowError of ** inside the gate
    squares = ((x - y) ** 2 for x, y in zip(va, vb))
    return math.sqrt(_fsum(squares, "squared distance"))


def error_metrics(exact: float, approx: float) -> ErrorPair:
    """Absolute error |exact - approx| and its value relative to |exact|."""
    exact, approx = _checked_float(exact, "exact"), _checked_float(approx, "approx")
    absolute = _checked_float(abs(exact - approx), "absolute error")
    if exact == 0.0:
        raise RelativeUndefined("relative error undefined when exact value is 0")
    return ErrorPair(absolute, _checked_float(absolute / abs(exact), "relative error"))

"""Independent reference computations for the tests: standard library only.

Nothing here imports desknum, so these functions can judge its results.
There are three kinds of reference:

- Exact. A float is a dyadic rational, so products, residuals, inverses,
  solves, least-squares fits and convolutions are computed exactly, in
  `fractions.Fraction` or integers, and rounded once.
- Rigorous bounds, where the exact answer is irrational: Weyl's theorem
  for the eigenvalues of a symmetric matrix and the singular values of any
  matrix, and sign changes of the exact characteristic polynomial for the
  real eigenvalues of a non-symmetric one.
- 38-digit `decimal` arithmetic, rounded once: the DFT (radix 2, with the
  pi, cos and sin recipes of the `decimal` documentation), QR by
  Gram-Schmidt and principal components by Jacobi rotations. Their own
  error is some 1e-36 relative, far below every tolerance they serve.
"""

import decimal
import functools
import math
import numbers
from decimal import Decimal
from fractions import Fraction
from itertools import repeat
from operator import mul

CTX = decimal.Context(prec=38, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def allclose(got, want, rtol=1e-05, atol=1e-08):
    """numpy.allclose: |got_k - want_k| <= atol + rtol |want_k| for every k,
    and as many entries in each; a number as `want` stands for every entry."""
    got = list(got)
    want = [want] * len(got) if isinstance(want, numbers.Number) else list(want)
    return len(got) == len(want) and all(abs(g - w) <= atol + rtol * abs(w) for g, w in zip(got, want))


# exact arithmetic


def exact(m):
    """The rows of m as Fractions."""
    return [[Fraction(x) for x in row] for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


def rounded(m):
    """The rows of m, each entry rounded once to a float."""
    return [[float(x) for x in row] for row in m]


def _integers(m):
    """Integer rows and one denominator d with m[i][j] = rows[i][j] / d."""
    ratios = [[x.as_integer_ratio() for x in row] for row in m]
    d = math.lcm(*(den for row in ratios for _, den in row))
    return [[num * (d // den) for num, den in row] for row in ratios], d


def _bits(m):
    return max((abs(x) for row in m for x in row), default=0).bit_length()


def _width(bits):
    """Whole bytes for a signed digit of `bits` bits, with a bit to spare."""
    return (bits + 2 + 7) // 8 * 8


def _offset(count, w):
    """sum(2**(w - 1) * 2**(w k)) for k < count."""
    return (1 << (w - 1)) * ((1 << (w * count)) - 1) // ((1 << w) - 1)


def _pack(digits, w):
    """sum(d_k * 2**(w k)) for integers |d_k| < 2**(w - 1): each d_k is
    shifted to a nonnegative w-bit digit, and the shift taken off once."""
    half, step = 1 << (w - 1), w // 8
    raw = b"".join((d + half).to_bytes(step, "little") for d in digits)
    return int.from_bytes(raw, "little") - _offset(len(digits), w)


def _unpack(value, count, w):
    """The count digits d_k of value = sum(d_k * 2**(w k)), |d_k| < 2**(w - 1)."""
    half, step = 1 << (w - 1), w // 8
    raw = (value + _offset(count, w)).to_bytes(count * step, "little")
    return [int.from_bytes(raw[k * step:(k + 1) * step], "little") - half for k in range(count)]


def matmul(a, b):
    """The product of two matrices given as rows, exactly. Each row of B is
    packed into one integer, one w-bit digit per entry (Kronecker
    substitution), so a row of A B is a sum of integer multiples of them."""
    (ia, da), (ib, db) = _integers(a), _integers(b)
    w = _width(_bits(ia) + _bits(ib) + len(ib).bit_length())
    packed = [_pack(row, w) for row in ib]
    return [[Fraction(c, da * db) for c in _unpack(sum(map(mul, row, packed)), len(ib[0]), w)] for row in ia]


def _gauss_jordan(a, b):
    """A^-1 B exactly, for square A; ZeroDivisionError if A is singular."""
    n = len(a)
    aug = [ra + rb for ra, rb in zip(exact(a), exact(b))]
    for k in range(n):
        p = next((i for i in range(k, n) if aug[i][k]), None)
        if p is None:
            raise ZeroDivisionError("singular matrix")
        aug[k], aug[p] = aug[p], aug[k]
        aug[k] = [x / aug[k][k] for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def solve(a, b):
    """The solution of A x = b exactly."""
    return [row[0] for row in _gauss_jordan(a, [[v] for v in b])]


def similar(p, d):
    """P diag(d) P^-1 rounded once: the exact matrix has the spectrum d."""
    pd = [[x * Fraction(dk) for x, dk in zip(row, d)] for row in exact(p)]
    identity = [[int(i == j) for j in range(len(p))] for i in range(len(p))]
    return rounded(matmul(pd, _gauss_jordan(p, identity)))


def residual(a, x, b):
    """b - A x exactly."""
    return [Fraction(bi) - ax for bi, (ax,) in zip(b, matmul(a, [[v] for v in x]))]


def backward_error(a, x, b):
    """|b - A x|_inf / (|A|_inf |x|_inf + |b|_inf), with the residual exact
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, Thm 7.1)."""
    r = residual(a, x, b)
    norm_a = max(math.fsum(map(abs, row)) for row in a)
    return float(max(map(abs, r))) / (norm_a * max(map(abs, x)) + max(map(abs, b)))


def polyfit(xs, ys, deg):
    """numpy.polyfit: least-squares coefficients, highest power first, from
    the normal equations solved exactly and rounded once."""
    v = [[Fraction(x) ** (deg - j) for j in range(deg + 1)] for x in xs]
    vt = transpose(v)
    rhs = [row[0] for row in matmul(vt, [[y] for y in ys])]
    return [float(c) for c in solve(matmul(vt, v), rhs)]


def fftfreq(n, d):
    """numpy.fft.fftfreq: k / (n d), with k - n for k >= (n + 1) // 2, exact
    and rounded once (as the quotient of two integers is)."""
    num, den = d.as_integer_ratio()
    return [(k if k < (n + 1) // 2 else k - n) * den / (n * num) for k in range(n)]


def convolve(f, g):
    """numpy.convolve: the full linear convolution of two sequences, exact
    and rounded once. Each sequence is packed into one integer, one w-bit
    digit per entry, so a single integer product forms every sum."""
    ((a,), da), ((b,), db) = _integers([f]), _integers([g])
    w = _width(_bits([a]) + _bits([b]) + min(len(a), len(b)).bit_length())
    return [c / (da * db) for c in _unpack(_pack(a, w) * _pack(b, w), len(a) + len(b) - 1, w)]


# bounds for eigenvalues and singular values


def max_abs(m):
    """The largest |entry| of a matrix given as rows, as a float."""
    return float(max((abs(x) for row in m for x in row), default=0))


def max_diff(a, b):
    """max |a_ij - b_ij| of two matrices of one shape given as rows, exact
    and rounded once."""
    (ia, da), (ib, db) = _integers(a), _integers(b)
    if [len(row) for row in ia] != [len(row) for row in ib]:
        raise ValueError("the matrices differ in shape")
    return max(abs(x * db - y * da) for ra, rb in zip(ia, ib) for x, y in zip(ra, rb)) / (da * db)


def _sqrt(q):
    """sqrt of a nonnegative rational as a float, at any magnitude."""
    with decimal.localcontext(CTX):
        return float(_dec(q).sqrt())


def frobenius(m):
    """The Frobenius norm of a matrix given as rows, from the exact sum of squares."""
    return _sqrt(sum(x * x for row in exact(m) for x in row))


def norm2_lower(a):
    """A lower bound on the spectral norm: max(max|a_ij|, |A|_F / sqrt(min(m, n)))."""
    return max(max_abs(a), frobenius(a) / math.sqrt(min(len(a), len(a[0]))))


def gram_defect(v):
    """V^T V - I exactly, for V given as rows (one column per vector)."""
    g = matmul(transpose(v), v)
    for i, row in enumerate(g):
        row[i] -= 1
    return g


def unit_defects(v):
    """| |v_j|_2 - 1 | for each column j of V, from the exact sum of squares."""
    sums = [sum(x * x for x in col) for col in transpose(exact(v))]
    return [float(abs(s - 1)) / (1.0 + math.sqrt(float(s))) for s in sums]


def eigen_residual(a, v, lam):
    """A V - V diag(lam) exactly, for V given as rows."""
    av = matmul(a, v)
    return [[x - Fraction(y) * Fraction(l) for x, y, l in zip(r, vr, lam)] for r, vr in zip(av, v)]


def symmetric_eigen_bound(a, v, lam):
    """A bound on |alpha_j - lam_j| for every j, where alpha are the
    eigenvalues of the symmetric matrix A sorted as lam is, and V (square,
    as rows) holds the eigenvector estimates.

    With R = A V - V diag(lam), d = |V^T V - I|_F < 1 and the polar form
    V = Q P (Q orthogonal, |P - I|_2 <= d, sigma_min(P) >= 1 - d),
    A Q - Q diag(lam) = R P^-1 + Q (P diag(lam) P^-1 - diag(lam)), so by
    Weyl's theorem on A and Q diag(lam) Q^T the sorted eigenvalues differ
    by at most (|R|_F + 2 d max|lam|) / (1 - d). For d = 0 this is Kahan's
    residual bound (Parlett, The Symmetric Eigenvalue Problem, 1998, 11.5).
    """
    d = frobenius(gram_defect(v))
    if d >= 1.0:
        return math.inf
    return (frobenius(eigen_residual(a, v, lam)) + 2.0 * d * max(map(abs, lam), default=0.0)) / (1.0 - d)


def singular_value_bounds(a, u, s, v):
    """Bounds on |sigma_j(A) - s_j| for each j, for A ~ U diag(s) V^T with
    U (m x k) and V (n x k) as rows and s sorted decreasing.

    Weyl's theorem moves each singular value by at most |A - U S V^T|_F,
    and the singular values of U S V^T lie between (1 - d_U)(1 - d_V) s_j
    and (1 + d_U)(1 + d_V) s_j for the defects d = |V^T V - I|_F
    (Ostrowski's multiplicative form)."""
    us = [[Fraction(x) * Fraction(sj) for x, sj in zip(row, s)] for row in u]
    rec = matmul(us, transpose(v))
    gap = frobenius([[x - y for x, y in zip(rr, ar)] for rr, ar in zip(rec, exact(a))])
    du, dv = frobenius(gram_defect(u)), frobenius(gram_defect(v))
    return [gap + (du + dv + du * dv) * sj for sj in s]


def _charpoly(a):
    """Coefficients c_0 = 1, c_1, ..., c_n of det(t I - A) = sum c_k t^(n-k),
    exactly (Faddeev-LeVerrier)."""
    n = len(a)
    m, coeffs = exact([[int(i == j) for j in range(n)] for i in range(n)]), [Fraction(1)]
    for k in range(1, n + 1):
        am = matmul(a, m)
        coeffs.append(-sum(am[i][i] for i in range(n)) / k)
        m = [[x + coeffs[-1] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(am)]
    return coeffs


def isolates(a, centers, radii):
    """True when the n intervals [c - r, c + r] are pairwise disjoint and the
    characteristic polynomial of the n x n matrix A changes sign (or
    vanishes) across each. Each then holds exactly one eigenvalue: so every
    eigenvalue of A is real and lies within r of its centre. A number as
    `radii` stands for every interval."""
    coeffs = _charpoly(a)
    if isinstance(radii, numbers.Number):
        radii = [radii] * len(centers)
    spans = sorted((Fraction(c) - Fraction(r), Fraction(c) + Fraction(r)) for c, r in zip(centers, radii))

    def p(t):
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * t + c
        return acc

    return (
        len(spans) == len(a)
        and all(hi < lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        and all(p(lo) * p(hi) <= 0 for lo, hi in spans)
    )


# 38-digit decimal arithmetic


def _dec(q):
    """A rational as a Decimal, rounded to the current context."""
    return Decimal(q.numerator) / q.denominator


def _pi():
    """The `decimal` documentation's recipe, two digits beyond CTX."""
    with decimal.localcontext(CTX) as ctx:
        ctx.prec += 2
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        return s


def _series(x, i, s):
    """The cos (i = 0, s = 1) or sin (i = 1, s = x) Taylor series of the
    `decimal` documentation's recipes, two digits beyond CTX."""
    with decimal.localcontext(CTX) as ctx:
        ctx.prec += 2
        lasts, fact, num, sign = 0, 1, s, 1
        while s != lasts:
            lasts = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign *= -1
            s += num / fact * sign
        return s


@functools.lru_cache(maxsize=None)
def _roots(n):
    """(cos, sin) of 2 pi j / n for j < n. The series run on the first
    octant only; the symmetries of the circle give the rest exactly."""
    with decimal.localcontext(CTX):
        turn = 2 * _pi()
        angles = [turn * j / n for j in range(n if n % 8 else n // 8 + 1)]
        octant = [(+_series(x, 0, 1), +_series(x, 1, x)) for x in angles]
        if n % 8:
            return tuple(octant)
        q = n // 4
        quarter = [octant[j] if 8 * j <= n else octant[q - j][::-1] for j in range(q)]
        turns = ((1, 1, False), (-1, 1, True), (-1, -1, False), (1, -1, True))
        out = []
        for j in range(n):
            t, m = divmod(j, q)
            c, s = quarter[m]
            sc, ss, swap = turns[t]
            out.append((sc * s, ss * c) if swap else (sc * c, ss * s))
        return tuple(out)


@functools.lru_cache(maxsize=None)
def _bit_reversal(n):
    bits = n.bit_length() - 1
    return tuple(int(format(i, f"0{bits}b")[::-1], 2) for i in range(n))


def _dft(re, im, inverse):
    """Radix-2 DFT of Decimal lists in place, e^(-2 pi i jk/n) forward, +
    and a factor 1/n inverse; call inside CTX."""
    n = len(re)
    if n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    if n == 1:
        return
    order = _bit_reversal(n)
    re[:], im[:] = [re[i] for i in order], [im[i] for i in order]

    def butterflies(a, b, cs, ss):
        # x[a] + w x[b] and x[a] - w x[b], w = c + i s, over slices a and b
        ar, ai, br, bi = re[a], im[a], re[b], im[b]
        tr = [c * x - s * y for c, s, x, y in zip(cs, ss, br, bi)]
        ti = [c * y + s * x for c, s, x, y in zip(cs, ss, br, bi)]
        re[a], im[a] = [x + t for x, t in zip(ar, tr)], [y + t for y, t in zip(ai, ti)]
        re[b], im[b] = [x - t for x, t in zip(ar, tr)], [y - t for y, t in zip(ai, ti)]

    roots, sign, size = _roots(n), 1 if inverse else -1, 2
    while size <= n:
        half, stride = size // 2, n // size
        cs = [roots[k * stride][0] for k in range(half)]
        ss = [sign * roots[k * stride][1] for k in range(half)]
        # loop over whichever is fewer, the twiddles or the blocks
        if half <= stride:
            for k in range(half):
                butterflies(slice(k, n, size), slice(k + half, n, size), repeat(cs[k]), repeat(ss[k]))
        else:
            for start in range(0, n, size):
                butterflies(slice(start, start + half), slice(start + half, start + size), cs, ss)
        size *= 2
    if inverse:
        re[:] = [v / n for v in re]
        im[:] = [v / n for v in im]


def _complex(re, im):
    return [complex(float(r), float(i)) for r, i in zip(re, im)]


def fft(x, inverse=False):
    """numpy.fft.fft of a sequence of numbers (numpy.fft.ifft if inverse),
    its length a power of two, at 38 digits and rounded once."""
    zs = [complex(z) for z in x]
    with decimal.localcontext(CTX):
        re, im = [Decimal(z.real) for z in zs], [Decimal(z.imag) for z in zs]
        _dft(re, im, inverse)
        return _complex(re, im)


def _dft2(re, im, rows, cols, inverse):
    """2-D DFT of row-major Decimal lists: every row, then every column."""
    for r in range(rows if cols > 1 else 0):
        sl = slice(r * cols, (r + 1) * cols)
        a, b = re[sl], im[sl]
        _dft(a, b, inverse)
        re[sl], im[sl] = a, b
    for c in range(cols if rows > 1 else 0):
        sl = slice(c, rows * cols, cols)
        a, b = re[sl], im[sl]
        _dft(a, b, inverse)
        re[sl], im[sl] = a, b


def fft2(m, inverse=False):
    """numpy.fft.fft2 of a matrix of numbers given as rows (numpy.fft.ifft2
    if inverse), each side a power of two, at 38 digits and rounded once."""
    rows, cols = len(m), len(m[0])
    zs = [complex(z) for row in m for z in row]
    with decimal.localcontext(CTX):
        re, im = [Decimal(z.real) for z in zs], [Decimal(z.imag) for z in zs]
        _dft2(re, im, rows, cols, inverse)
        flat = _complex(re, im)
    return [flat[r * cols:(r + 1) * cols] for r in range(rows)]


def pools(x, rows, cols, last):
    """For keep = 1 .. last: the real part of the inverse 2-D DFT of the
    spectrum of the row-major image x with every bin outside [0, keep)^2
    zeroed, as a row-major list, each at 38 digits and rounded once.

    Going from keep to keep + 1 adds row `keep` and column `keep` of the
    band. The inverse 2-D transform of one row of bins is an outer product
    of a root of unity with the row's 1-D inverse, and likewise for a
    column, so all of them cost O(last * rows * cols) and not one 2-D
    inverse each."""
    er, ec = _roots(rows), _roots(cols)
    zero = Decimal(0)
    out = []
    with decimal.localcontext(CTX):
        fr, fi = [Decimal(v) for v in x], [zero] * (rows * cols)
        _dft2(fr, fi, rows, cols, False)
        acc = [[zero] * cols for _ in range(rows)]
        for k in range(last):
            # row k of the band, c <= k, and column k above it, r < k
            row, pad = slice(k * cols, k * cols + k + 1), [zero] * (cols - k - 1)
            sr, si = fr[row] + pad, fi[row] + pad
            col, pad = slice(k, k * cols, cols), [zero] * (rows - k)
            tr, ti = fr[col] + pad, fi[col] + pad
            _dft(sr, si, True)
            _dft(tr, ti, True)
            sr, si = [v / rows for v in sr], [v / rows for v in si]
            tr, ti = [v / cols for v in tr], [v / cols for v in ti]
            cy, sy = [ec[k * y % cols][0] for y in range(cols)], [ec[k * y % cols][1] for y in range(cols)]
            for u in range(rows):
                cu, su = er[k * u % rows]
                a, b = tr[u], ti[u]
                acc[u] = [z + cu * p - su * q + a * c - b * s for z, p, q, c, s in zip(acc[u], sr, si, cy, sy)]
            out.append([float(v) for row in acc for v in row])
    return out


def qr(a):
    """Q with orthonormal columns and R upper triangular with a positive
    diagonal, Q R = A, for A (m x n, m >= n) of full column rank; modified
    Gram-Schmidt at 38 digits, each factor rounded once."""
    n = len(a[0])
    with decimal.localcontext(CTX):
        q, r = [], [[Decimal(0)] * n for _ in range(n)]
        for j, v in enumerate(transpose(a)):
            v = [Decimal(x) for x in v]
            for i, u in enumerate(q):
                r[i][j] = sum(map(mul, u, v))
                v = [x - r[i][j] * y for x, y in zip(v, u)]
            r[j][j] = sum(x * x for x in v).sqrt()
            q.append([x / r[j][j] for x in v])
        return rounded(transpose(q)), rounded(r)


def _jacobi(a):
    """Eigenvalues and eigenvector columns (as rows) of a symmetric Decimal
    matrix by cyclic Jacobi rotations; call inside CTX."""
    n = len(a)
    a = [row[:] for row in a]
    v = [[Decimal(int(i == j)) for j in range(n)] for i in range(n)]
    total = sum(x * x for row in a for x in row)
    for _ in range(60):
        if sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j) <= total * Decimal("1e-72"):
            return [a[i][i] for i in range(n)], v
        for p in range(n - 1):
            for q in range(p + 1, n):
                if not a[p][q]:
                    continue
                theta = (a[q][q] - a[p][p]) / (2 * a[p][q])
                t = (1 if theta >= 0 else -1) / (abs(theta) + (theta * theta + 1).sqrt())
                c = 1 / (t * t + 1).sqrt()
                s = t * c
                for m in (a, v):
                    for row in m:
                        row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                a[p], a[q] = [c * x - s * y for x, y in zip(a[p], a[q])], [s * x + c * y for x, y in zip(a[p], a[q])]
    raise ArithmeticError("Jacobi rotations did not converge")


def pca(rows, k):
    """The centered rows projected on their k leading principal axes, one
    column per axis in order of decreasing variance and each up to sign: the
    exact Gram matrix of the centered data diagonalized at 38 digits, and the
    projection rounded once."""
    x = exact(rows)
    mean = [sum(col) / len(x) for col in zip(*x)]
    xc = [[v - m for v, m in zip(row, mean)] for row in x]
    gram = matmul(transpose(xc), xc)
    with decimal.localcontext(CTX):
        values, vecs = _jacobi([[_dec(g) for g in row] for row in gram])
        order = sorted(range(len(values)), key=lambda j: -values[j])[:k]
        xd = [[_dec(v) for v in row] for row in xc]
        return [[float(sum(row[p] * vecs[p][j] for p in range(len(row)))) for j in order] for row in xd]

"""Seeded input generators and independent reference computations.

Everything here is plain standard-library Python written for the
benchmark; none of it calls desknum, so it can judge desknum's outputs.
"""

from __future__ import annotations

import math
import random


def rng_for(seed: int, *names: str) -> random.Random:
    """An independent seeded stream per (seed, operation) pair."""
    return random.Random("/".join([str(seed), *names]))


def uniform_rows(rng: random.Random, rows: int, cols: int) -> list[list[float]]:
    return [[rng.uniform(-1.0, 1.0) for _ in range(cols)] for _ in range(rows)]


def symmetric_rows(rng: random.Random, n: int) -> list[list[float]]:
    a = uniform_rows(rng, n, n)
    return [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]


def spd_rows(rng: random.Random, n: int) -> list[list[float]]:
    """Symmetric, strictly diagonally dominant with positive diagonal: SPD."""
    s = symmetric_rows(rng, n)
    for i in range(n):
        s[i][i] = math.fsum(abs(v) for j, v in enumerate(s[i]) if j != i) + 1.0
    return s


def orthonormal_columns(rng: random.Random, m: int, k: int) -> list[list[float]]:
    """k orthonormal vectors of length m (Gram-Schmidt, applied twice)."""
    cols: list[list[float]] = []
    while len(cols) < k:
        v = [rng.gauss(0.0, 1.0) for _ in range(m)]
        for _ in range(2):
            for c in cols:
                d = math.fsum(a * b for a, b in zip(v, c))
                v = [a - d * b for a, b in zip(v, c)]
        nv = math.sqrt(math.fsum(a * a for a in v))
        if nv > 1e-8:
            cols.append([a / nv for a in v])
    return cols


def matvec(rows: list[list[float]], x: list[float]) -> list[float]:
    return [math.fsum(r[j] * x[j] for j in range(len(x))) for r in rows]


def abs_matvec(rows: list[list[float]], x: list[float]) -> list[float]:
    return [math.fsum(abs(r[j] * x[j]) for j in range(len(x))) for r in rows]


def max_abs(values) -> float:
    return max((abs(v) for v in values), default=0.0)


def gauss_solve(rows: list[list[float]], b: list[float]) -> list[float]:
    """Small dense solve by partially pivoted elimination (reference only)."""
    n = len(b)
    aug = [list(r) + [bi] for r, bi in zip(rows, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(aug[i][k]))
        aug[k], aug[p] = aug[p], aug[k]
        for i in range(k + 1, n):
            m = aug[i][k] / aug[k][k]
            for j in range(k, n + 1):
                aug[i][j] -= m * aug[k][j]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        s = aug[i][n] - math.fsum(aug[i][j] * x[j] for j in range(i + 1, n))
        x[i] = s / aug[i][i]
    return x


def dft_bin(re: list[float], im: list[float], k: int) -> complex:
    """One bin of the forward DFT, summed exactly from the definition."""
    n = len(re)
    w = 2.0 * math.pi / n
    cs = [math.cos(w * ((j * k) % n)) for j in range(n)]
    sn = [math.sin(w * ((j * k) % n)) for j in range(n)]
    real = math.fsum(a * c for a, c in zip(re, cs)) + math.fsum(b * s for b, s in zip(im, sn))
    imag = math.fsum(b * c for b, c in zip(im, cs)) - math.fsum(a * s for a, s in zip(re, sn))
    return complex(real, imag)


def dft2_low(pixels: list[float], rows: int, cols: int, keep: int) -> list[list[complex]]:
    """F[u][v] of the forward 2-D DFT for u, v < keep, by separable sums."""
    g = []
    for r in range(rows):
        row = pixels[r * cols:(r + 1) * cols]
        g.append(
            [
                complex(
                    math.fsum(x * math.cos(2 * math.pi * ((v * c) % cols) / cols) for c, x in enumerate(row)),
                    -math.fsum(x * math.sin(2 * math.pi * ((v * c) % cols) / cols) for c, x in enumerate(row)),
                )
                for v in range(keep)
            ]
        )
    out = []
    for u in range(keep):
        tw = [complex(math.cos(2 * math.pi * ((u * r) % rows) / rows),
                      -math.sin(2 * math.pi * ((u * r) % rows) / rows)) for r in range(rows)]
        out.append([sum(g[r][v] * tw[r] for r in range(rows)) for v in range(keep)])
    return out


def pooled_pixel(low: list[list[complex]], rows: int, cols: int, r: int, c: int) -> float:
    """Real part of the inverse 2-D DFT at (r, c) of a field that is zero
    outside the low block ``low``."""
    total = 0j
    for u, line in enumerate(low):
        for v, f in enumerate(line):
            ang = 2 * math.pi * (((u * r) % rows) / rows + ((v * c) % cols) / cols)
            total += f * complex(math.cos(ang), math.sin(ang))
    return total.real / (rows * cols)


def pgm_bytes(cols: int, rows: int, pixels: list[int]) -> bytes:
    lines = ["P2", f"{cols} {rows}", "255"]
    for r in range(rows):
        lines.append(" ".join(str(p) for p in pixels[r * cols:(r + 1) * cols]))
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_pgm(data: bytes) -> tuple[int, int, list[int]]:
    tokens = data.decode("ascii").split()
    if tokens[0] != "P2" or tokens[3] != "255":
        raise ValueError("not an ASCII PGM with maxval 255")
    cols, rows = int(tokens[1]), int(tokens[2])
    pixels = [int(t) for t in tokens[4:]]
    if len(pixels) != rows * cols:
        raise ValueError("PGM pixel count does not match its header")
    return cols, rows, pixels


def parse_table(data: bytes) -> list[list]:
    """CSV lines as cells: floats where they parse, text otherwise."""
    table = []
    for line in data.decode("ascii").splitlines():
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        table.append(row)
    return table


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)

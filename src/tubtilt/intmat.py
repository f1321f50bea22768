"""Exact integer matrix helpers (row-major tuples of tuples).

Only what the engine and `verify` call lives here: products and powers
for the lattice actions, the Bareiss determinant of the unimodularity
checks and the integral solve behind `verify`'s basis coordinates.
Sizes stay below 11x11, so no effort is spent on asymptotics.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def mat_vec(m: Matrix, v: Sequence[int]) -> Vector:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_pow(m: Matrix, k: int) -> Matrix:
    out = identity(len(m))
    for _ in range(k):
        out = mat_mul(out, m)
    return out


def det(m: Matrix) -> int:
    """Fraction-free Bareiss determinant."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve_int(columns: Sequence[Sequence[int]], target: Sequence[int]) -> Vector | None:
    """Solve sum_j x_j * columns[j] = target over the integers.

    Returns None when no rational solution exists or the solution is
    not integral; the callers pass unimodular column sets, so a
    solution, if any, is unique and integral.
    """
    from fractions import Fraction

    ncols = len(columns)
    nrows = len(target)
    a = [[Fraction(columns[j][i]) for j in range(ncols)] for i in range(nrows)]
    b = [Fraction(v) for v in target]
    row = 0
    pivots = []
    for col in range(ncols):
        piv = next((i for i in range(row, nrows) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        b[row], b[piv] = b[piv], b[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        b[row] *= inv
        for i in range(nrows):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
                b[i] -= f * b[row]
        pivots.append(col)
        row += 1
    if any(b[i] for i in range(row, nrows)):
        return None
    out = [0] * ncols
    for r, col in enumerate(pivots):
        if b[r].denominator != 1:
            return None
        out[col] = int(b[r])
    return tuple(out)

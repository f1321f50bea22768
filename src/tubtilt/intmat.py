"""Exact integer matrix helpers (row-major tuples of tuples).

Everything here is fraction-free; sizes stay below 11x11 so no effort
is spent on asymptotics.
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


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals via fraction-free elimination."""
    a = [list(r) for r in rows]
    nrows = len(a)
    if nrows == 0:
        return 0
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if a[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, nrows):
            if a[i][c] != 0:
                f1, f2 = a[r][c], a[i][c]
                a[i] = [f1 * x - f2 * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nrows:
            break
    return r


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


def is_primitive(rows: Sequence[Sequence[int]]) -> bool:
    """True iff the rows span a primitive sublattice of full row count.

    Computed by reducing a working copy to Smith form; the span is
    primitive exactly when every invariant factor is 1 (so a partial
    basis extends to a basis of the ambient lattice).
    """
    a = [list(r) for r in rows]
    k = len(a)
    if k == 0:
        return True
    n = len(a[0])
    if k > n:
        return False
    top = 0
    left = 0
    while top < k and left < n:
        pi, pj = -1, -1
        best = None
        for i in range(top, k):
            for j in range(left, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pi, pj = v, i, j
        if best is None:
            return False  # rank deficient
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[left], row[pj] = row[pj], row[left]
        while True:
            dirty = False
            for i in range(top + 1, k):
                if a[i][left]:
                    q = a[i][left] // a[top][left]
                    a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                    if a[i][left]:
                        a[top], a[i] = a[i], a[top]
                        dirty = True
            for j in range(left + 1, n):
                if a[top][j]:
                    q = a[top][j] // a[top][left]
                    for row in a:
                        row[j] -= q * row[left]
                    if a[top][j]:
                        for row in a:
                            row[left], row[j] = row[j], row[left]
                        dirty = True
            if not dirty:
                break
        if abs(a[top][left]) != 1:
            # The pivot divides everything below/right only after full
            # clearing; a non-unit pivot here still allows a unit to appear
            # deeper, so check divisibility of the rest.
            d = abs(a[top][left])
            if any(x % d for i in range(top + 1, k) for x in a[i][left + 1:]):
                # Mix a bad row into the pivot row and restart this pivot.
                for i in range(top + 1, k):
                    if any(x % d for x in a[i][left + 1:]):
                        a[top] = [x + y for x, y in zip(a[top], a[i])]
                        break
                continue
            return False
        top += 1
        left += 1
    return top == k

"""Exact integer matrix helpers (row-major tuples of tuples).

Only what the engine and `verify` call lives here: products and powers
for the lattice actions, the Bareiss determinant of the unimodularity
checks and the integral solve behind `verify`'s basis coordinates.

Every product goes through the nonzero entries of its left factor.
`sparse_rows` lists them once per matrix, and `apply_rows` computes
the product with a matrix given by its rows: row i of the result is
the sum of v * rows[j] over the nonzeros (j, v) of row i, each term a
few C-level `map` calls over a whole row.  The lattice maps are sparse
(on (2,3,6), 22 of the 100 entries of tau^-1 are nonzero and 19 of the
Euler matrix), so this is the cost that matters at these sizes (below
11x11): `mat_mul` and `mat_pow` are thin forms of it.

Held as coordinate rows (row a holds coordinate a of every vector),
the columns of `rows` are vectors, and `apply_rows` moves all of them
in one pass over the matrix's nonzeros: `tubes` moves, checks and
decodes the classes of a chart this way.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul, neg, sub
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]
# the nonzero entries (column, value) of each row of a matrix
SparseRows = tuple[tuple[tuple[int, int], ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def mat_vec(m: Matrix, v: Sequence[int]) -> Vector:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b, through the nonzero entries of a."""
    return tuple(apply_rows(sparse_rows(a), b))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_pow(m: Matrix, k: int) -> Matrix:
    """m^k for k >= 0: the nonzero entries of m are listed once, and
    each step is m times the last power."""
    sparse = sparse_rows(m)
    out = identity(len(m))
    for _ in range(k):
        out = tuple(apply_rows(sparse, out))
    return out


def sparse_rows(m: Sequence[Sequence[int]]) -> SparseRows:
    """The nonzero entries (column, value) of each row of m."""
    return tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in m)


def apply_rows(
    sparse: SparseRows,
    rows: Sequence[Vector],
    base: Sequence[Vector] | None = None,
) -> list[Vector]:
    """The product of the matrix `sparse` with the matrix whose rows are
    `rows`, plus `base` when given: row i of the result is base[i] plus
    v * rows[j] over the nonzeros (j, v) of row i.  Held as coordinate
    rows, the columns of `rows` are vectors, and so are the result's:
    each is the image of one of them."""
    out = []
    for i, entries in enumerate(sparse):
        acc = None if base is None else base[i]
        for j, v in entries:
            row = rows[j]
            if acc is None:
                if v == 1:
                    acc = row
                elif v == -1:
                    acc = tuple(map(neg, row))
                else:
                    acc = tuple(map(mul, row, repeat(v)))
            elif v == 1:
                acc = tuple(map(add, acc, row))
            elif v == -1:
                acc = tuple(map(sub, acc, row))
            else:
                acc = tuple(map(add, acc, map(mul, row, repeat(v))))
        out.append((0,) * len(rows[0]) if acc is None else acc)
    return out


def det(m: Sequence[Sequence[int]]) -> int:
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
    solution, if any, is unique and integral.  Columns without a pivot
    (a singular system) get the unknown 0.

    Fraction-free: Bareiss elimination of [A | b] to echelon form keeps
    every entry an integer (each is a minor of [A | b], so the division
    by the previous pivot is exact); back-substitution then divides
    exactly, and a remainder means the solution is not integral.
    """
    ncols = len(columns)
    nrows = len(target)
    a = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    pivots = []
    prev = 1
    for col in range(ncols):
        row = len(pivots)
        piv = next((i for i in range(row, nrows) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        top = a[row]
        pk = top[col]
        for r in a[row + 1 :]:
            f = r[col]
            for j in range(col + 1, ncols + 1):
                r[j] = (r[j] * pk - f * top[j]) // prev
            r[col] = 0
        prev = pk
        pivots.append(col)
    if any(r[ncols] for r in a[len(pivots) :]):
        return None
    out = [0] * ncols
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        row = a[r]
        rest = row[ncols] - sum(row[j] * out[j] for j in range(col + 1, ncols))
        q, rem = divmod(rest, row[col])
        if rem:
            return None
        out[col] = q
    return tuple(out)

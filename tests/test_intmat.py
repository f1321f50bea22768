from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tubtilt.intmat import apply_rows, mat_mul, solve_int, sparse_rows


def _fraction_solve(columns, target):
    """Oracle for solve_int: Gauss-Jordan elimination over Fraction, an
    unknown without a pivot set to 0; None when the system has no
    rational solution or that solution is not integral."""
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


def test_solve_int_examples():
    # unimodular: the solution is unique and integral
    assert solve_int([(1, 0), (1, 1)], (3, 2)) == (1, 2)
    # non-integral: 2x = 1
    assert solve_int([(2,)], (1,)) is None
    # inconsistent: x (1, 1) = (1, 2)
    assert solve_int([(1, 1)], (1, 2)) is None
    # singular: the second column repeats the first, its unknown is 0
    assert solve_int([(1, 2), (1, 2)], (3, 6)) == (3, 0)
    # a zero column before the pivot column
    assert solve_int([(0, 0), (2, 4)], (4, 8)) == (0, 2)
    assert solve_int([], (0, 0)) == ()
    assert solve_int([], (0, 1)) is None


@st.composite
def _systems(draw):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    basis = [tuple(draw(entry) for _ in range(nrows)) for _ in range(ncols)]
    # columns repeated or combined from others make singular systems
    columns = []
    for j in range(ncols):
        kind = draw(st.sampled_from(["free", "copy", "combo", "zero"]))
        if kind == "copy" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        elif kind == "combo" and len(columns) >= 2:
            c1, c2 = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            columns.append(tuple(c1 * x + c2 * y for x, y in zip(columns[0], columns[-1])))
        elif kind == "zero":
            columns.append((0,) * nrows)
        else:
            columns.append(basis[j])
    # a target in the integer span, in the rational span (the columns
    # doubled), or anywhere (often inconsistent)
    kind = draw(st.sampled_from(["span", "half", "any"]))
    if kind == "any":
        target = tuple(draw(entry) for _ in range(nrows))
    else:
        coeffs = [draw(st.integers(-3, 3)) for _ in columns]
        target = tuple(sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(nrows))
        if kind == "half":
            # the rational solution is coeffs / 2
            columns = [tuple(2 * x for x in col) for col in columns]
    return columns, target


@settings(max_examples=400, deadline=None)
@given(_systems())
def test_solve_int_matches_the_fraction_oracle(system):
    columns, target = system
    got = solve_int(columns, target)
    assert got == _fraction_solve(columns, target)
    if got is not None:
        assert all(
            sum(x * col[i] for x, col in zip(got, columns)) == target[i]
            for i in range(len(target))
        )


@st.composite
def _products(draw):
    """A matrix with zero rows and entries of every kind (0, 1, -1 and
    others), a matrix of rows and a base of the product's shape."""
    n, m, width = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7])
    a = tuple(tuple(draw(entry) for _ in range(m)) for _ in range(n))
    rows = tuple(tuple(draw(st.integers(-9, 9)) for _ in range(width)) for _ in range(m))
    base = tuple(tuple(draw(st.integers(-9, 9)) for _ in range(width)) for _ in range(n))
    return a, rows, base


@settings(max_examples=300, deadline=None)
@given(_products())
def test_apply_rows_is_the_dense_product(product):
    a, rows, base = product
    assert sparse_rows(a) == tuple(
        tuple((j, v) for j, v in enumerate(row) if v) for row in a
    )
    dense = mat_mul(a, rows)
    assert tuple(apply_rows(sparse_rows(a), rows)) == dense
    assert tuple(apply_rows(sparse_rows(a), rows, base)) == tuple(
        tuple(x + y for x, y in zip(r, b)) for r, b in zip(dense, base)
    )

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tubtilt import k0, tubes
from tubtilt.intmat import (
    apply_rows,
    identity,
    mat_mul,
    mat_pow,
    mat_vec,
    solve_int,
    sparse_rows,
    transpose,
)
from tubtilt.k0 import line_bundle_class
from tubtilt.slopes import ZERO
from tubtilt.weights import l_zero


def _dense_mul(a, b):
    """Oracle for every product: the dense triple loop over all entries."""
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


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
    dense = _dense_mul(a, rows)
    assert tuple(apply_rows(sparse_rows(a), rows)) == dense
    assert tuple(apply_rows(sparse_rows(a), rows, base)) == tuple(
        tuple(x + y for x, y in zip(r, b)) for r, b in zip(dense, base)
    )


_ENTRY = st.integers(-3, 3)


@st.composite
def _matrix_pairs(draw):
    """a (n x m) and b (m x w), shapes up to 11 x 11, entries in -3..3."""
    n, m, w = draw(st.integers(1, 11)), draw(st.integers(1, 11)), draw(st.integers(1, 11))
    a = tuple(tuple(draw(_ENTRY) for _ in range(m)) for _ in range(n))
    b = tuple(tuple(draw(_ENTRY) for _ in range(w)) for _ in range(m))
    return a, b


@settings(max_examples=300, deadline=None)
@given(_matrix_pairs())
def test_mat_mul_is_the_dense_product(pair):
    a, b = pair
    assert mat_mul(a, b) == _dense_mul(a, b)


@st.composite
def _square_powers(draw):
    """m (n x n), n up to 11, entries in -3..3, and k in 0..12."""
    n = draw(st.integers(1, 11))
    m = tuple(tuple(draw(_ENTRY) for _ in range(n)) for _ in range(n))
    return m, draw(st.integers(0, 12))


@settings(max_examples=200, deadline=None)
@given(_square_powers())
def test_mat_pow_is_the_repeated_dense_product(power):
    m, k = power
    want = identity(len(m))
    for _ in range(k):
        want = _dense_mul(want, m)
    assert mat_pow(m, k) == want


def _oracle_chibar(ctx):
    """The averaged form as two dense products per term: the powers
    (tau^T)^j and each power times the Euler matrix, summed."""
    acc = ctx.euler
    tt = transpose(ctx.tau)
    power = tt
    for _ in range(ctx.p - 1):
        acc = tuple(
            tuple(x + y for x, y in zip(r1, r2))
            for r1, r2 in zip(acc, _dense_mul(power, ctx.euler))
        )
        power = _dense_mul(power, tt)
    return acc


def _oracle_shift_along(ctx, start):
    """The shift of `tubes._shift_along`, one class at a time: the orbit
    by dense tau^-1 images, and the pairing rows chi(E_j, -) and
    chi(-, E_j) as the dense images of E_j under euler^T and euler."""
    orbit = [start]
    while (nxt := mat_vec(ctx.tau_inv, orbit[-1])) != start:
        orbit.append(nxt)
    et = transpose(ctx.euler)
    return tubes._Shift(
        tuple(orbit),
        sparse_rows([mat_vec(et, e) for e in orbit]),
        sparse_rows([mat_vec(ctx.euler, e) for e in orbit]),
        sparse_rows(transpose(tuple(tuple(-x for x in e) for e in orbit))),
    )


def test_chibar_matches_the_two_product_form(any_ctx):
    assert k0._chibar_matrix(any_ctx) == any_ctx.chibar == _oracle_chibar(any_ctx)


def test_shift_along_matches_the_per_vector_form(any_ctx):
    ctx = any_ctx
    w = ctx.weights
    at_inf = [0] * ctx.n
    at_inf[ctx.simple_index(w.weights.index(w.p), 1)] = 1
    starts = [line_bundle_class(ctx, l_zero(w)).vec, tuple(at_inf)]
    # every quasi-simple at slope 0 starts an orbit too, of each rank
    starts += [orb[0].vec for orb in tubes.chart_for(ctx, ZERO).orbits]
    for start in starts:
        assert tubes._shift_along(ctx, start) == _oracle_shift_along(ctx, start), start
    assert tubes._tube_shifts(ctx) == tuple(
        _oracle_shift_along(ctx, s) for s in starts[:2]
    )

import random

import pytest

from tubtilt import tubes
from tubtilt.errors import ChartInconsistent, InternalConsistencyError, NotExceptionalHere
from tubtilt.intmat import identity, mat_mul, mat_pow, transpose
from tubtilt.k0 import K0Class, build_context, chi, line_bundle_class, twist_matrix
from tubtilt.slopes import INF, ZERO, Slope
from tubtilt.tubes import (
    ExcObject,
    Window,
    build_chart,
    chart_for,
    check_chart_invariants,
    coords_of_class,
    exc_from_class,
    ext_dim,
    hom_dim,
    line_bundle_obj,
    tau_obj,
    tube_hom_oracle,
    wing_contains,
    window_class,
)
from tubtilt.weights import (
    TUBULAR_TYPES,
    c_gen,
    l_normalize,
    l_zero,
    make_weights,
    omega,
    x_gen,
)

CHART_SLOPES = [
    INF,
    Slope(0, 1),
    Slope(1, 1),
    Slope(1, 2),
    Slope(-1, 2),
    Slope(1, 3),
    Slope(2, 3),
    Slope(3, 2),
    Slope(37, 53),
    Slope(-29, 61),
]


def test_chart_census_2222(ctx2222):
    for q in (INF, Slope(0, 1), Slope(1, 1), Slope(1, 2)):
        chart = chart_for(ctx2222, q)
        assert chart.ranks == (2, 2, 2, 2)
        assert chart.quasi_simple_count() == 8


def test_chart_census_at_infinity(any_ctx):
    chart = chart_for(any_ctx, INF)
    assert tuple(sorted(chart.ranks)) == any_ctx.weights.weights
    assert chart.quasi_simple_count() == sum(any_ctx.weights.weights)


def test_chart_quasi_simples_at_infinity_2222(ctx2222):
    chart = chart_for(ctx2222, INF)
    got = {c.vec for orbit in chart.orbits for c in orbit}
    want = set()
    for i in range(4):
        e = [0] * 6
        e[1 + i] = 1
        want.add(tuple(e))
        f = [0] * 6
        f[1 + i] = -1
        f[5] = 1
        want.add(tuple(f))
    assert got == want


def test_chart_realizability_all_slopes(any_ctx):
    for q in CHART_SLOPES:
        chart = chart_for(any_ctx, q)
        assert tuple(sorted(chart.ranks)) == any_ctx.weights.weights
        check_chart_invariants(any_ctx, chart)


def test_twisted_charts_match_built_charts(monkeypatch):
    # chart_for builds only the anchor at slope 0 and moves every other chart
    built = []

    def recording_build(ctx, q):
        built.append(q)
        return build_chart(ctx, q)

    monkeypatch.setattr(tubes, "build_chart", recording_build)
    slopes = {Slope(a, b) for b in range(1, 9) for a in range(-12, 30)}
    for ws in TUBULAR_TYPES:
        ctx = build_context(make_weights(ws))
        built.clear()
        for q in sorted(slopes, key=Slope.fraction):
            chart = chart_for(ctx, q)
            assert chart == build_chart(ctx, q), (ws, q)
            # a moved chart skips the chi pattern in the library
            check_chart_invariants(ctx, chart)
        assert built == [ZERO]


def _shift_matrix(ctx, shift, k):
    basis = [tuple(int(a == b) for b in range(ctx.n)) for a in range(ctx.n)]
    return transpose(tuple(tubes._apply_shift(shift, k, basis)))


def test_shift_on_the_x_t_tube_is_the_twist(any_ctx):
    w = any_ctx.weights
    x_t = x_gen(w, w.weights.index(w.p))
    at_inf = tubes._tube_shifts(any_ctx)[tubes._AT_INF]
    for k in range(-13, 14):
        want = twist_matrix(any_ctx, l_normalize(w, tuple(k * a for a in x_t.coeffs), 0))
        assert _shift_matrix(any_ctx, at_inf, k) == want, k


def test_shift_powers_are_repeated_shifts(any_ctx):
    n = any_ctx.n
    for shift in tubes._tube_shifts(any_ctx):
        up = _shift_matrix(any_ctx, shift, 1)
        down = _shift_matrix(any_ctx, shift, -1)
        assert mat_mul(up, down) == identity(n)
        for k in range(1, 14):
            assert _shift_matrix(any_ctx, shift, k) == mat_pow(up, k), k
            assert _shift_matrix(any_ctx, shift, -k) == mat_pow(down, k), -k


def test_shifts_are_checked_once_and_lazily(monkeypatch):
    checked = []
    check = tubes._check_slope_zero_shift
    monkeypatch.setattr(
        tubes, "_check_slope_zero_shift", lambda ctx, sh: checked.append(ctx) or check(ctx, sh)
    )
    ctx = build_context(make_weights((2, 3, 6)))
    chart_for(ctx, ZERO)
    assert ctx._shifts is None and not checked
    for q in (INF, Slope(1, 2), Slope(-7, 3), Slope(37, 53)):
        chart_for(ctx, q)
    assert checked == [ctx]


def test_corrupted_shift_is_rejected(monkeypatch):
    # a window one term too long
    windows = tubes._windows
    monkeypatch.setattr(
        tubes, "_windows", lambda orbit, k: windows(orbit, k + (1 if k > 0 else -1))
    )
    ctx = build_context(make_weights((3, 3, 3)))
    assert chart_for(ctx, ZERO) == build_chart(ctx, ZERO)
    with pytest.raises(InternalConsistencyError, match="tubular shift"):
        chart_for(ctx, Slope(1, 2))
    assert ctx._shifts is None
    monkeypatch.undo()
    # the orbit of a tube of rank < p at slope 0 in place of the orbit of O
    shift_along = tubes._shift_along
    for ws in ((2, 3, 6), (2, 4, 4)):
        ctx = build_context(make_weights(ws))
        o = line_bundle_class(ctx, l_zero(ctx.weights)).vec
        small = [orb for orb in build_chart(ctx, ZERO).orbits if len(orb) < ctx.p]
        assert small
        for orbit in small:
            monkeypatch.setattr(
                tubes,
                "_shift_along",
                lambda c, start, e=orbit[0].vec: shift_along(c, e if start == o else start),
            )
            with pytest.raises(InternalConsistencyError, match="tubular shift"):
                chart_for(build_context(make_weights(ws)), INF)


def test_moved_charts_match_built_charts_at_large_denominators():
    # denominators 9..64, numerators in [-3b, 3b]: covers the cli `chart` range
    rng = random.Random(29)
    for ws in TUBULAR_TYPES:
        ctx = build_context(make_weights(ws))
        slopes = [Slope(37, 53), Slope(-29, 61), Slope(-191, 64), Slope(191, 64)]
        while len(slopes) < 60:
            b = rng.randint(9, 64)
            q = Slope(rng.randint(-3 * b, 3 * b), b)
            if q.den == b:
                slopes.append(q)
        for q in slopes:
            chart = chart_for(ctx, q)
            assert chart == build_chart(ctx, q), (ws, q)
            check_chart_invariants(ctx, chart)


def test_chart_memo_idempotent(ctx2222):
    assert chart_for(ctx2222, Slope(1, 2)) is chart_for(ctx2222, Slope(1, 2))


def test_tau_orbit_pairing_at_zero_2222(ctx2222):
    # tau pairs O(x) with O(x + omega) at slope zero
    chart = chart_for(ctx2222, Slope(0, 1))
    o = line_bundle_class(ctx2222, l_zero(ctx2222.weights))
    obj = coords_of_class(ctx2222, chart, o)
    om = line_bundle_class(ctx2222, omega(ctx2222.weights))
    assert tau_obj(ctx2222, obj).cls == om


# -- the in-tube closed form vs brute-force linear algebra ---------------------


def _rank(rows: list[list[int]]) -> int:
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


def _brute_tube_hom(r, w1, w2):
    """Model both objects as nilpotent representations of the cyclic quiver
    with r vertices and arrows v -> v-1 (towards the socle), then count
    solutions of the intertwining equations."""

    def basis(s, ln):
        verts = [[] for _ in range(r)]
        for k in range(ln):
            verts[(s + k) % r].append(k)
        return verts

    b1, b2 = basis(w1.socle, w1.len), basis(w2.socle, w2.len)
    unknowns = {}
    for v in range(r):
        for i in b2[v]:
            for j in b1[v]:
                unknowns[(v, i, j)] = len(unknowns)
    if not unknowns:
        return 0
    rows = []
    for v in range(r):
        # arrow v -> v-1 acts as k |-> k-1 on both modules
        for j in b1[v]:
            for i in b2[(v - 1) % r]:
                row = [0] * len(unknowns)
                # (phi_{v-1} . beta1)(e_j) coefficient on target basis i
                if j - 1 in b1[(v - 1) % r]:
                    row[unknowns[((v - 1) % r, i, j - 1)]] += 1
                # (beta2 . phi_v)(e_j) coefficient on target basis i
                if i + 1 in b2[v]:
                    row[unknowns[(v, i + 1, j)]] -= 1
                if any(row):
                    rows.append(row)
    return len(unknowns) - _rank(rows)


def test_tube_oracle_examples():
    assert tube_hom_oracle(4, Window(0, 1), Window(0, 1)) == 1
    assert tube_hom_oracle(4, Window(0, 3), Window(1, 3)) == 1
    assert tube_hom_oracle(4, Window(0, 1), Window(1, 1)) == 0


def test_tube_oracle_matches_brute_force():
    for r in range(2, 7):
        for s1 in range(r):
            for l1 in range(1, r + 1):
                for s2 in range(r):
                    for l2 in range(1, r + 1):
                        w1, w2 = Window(s1, l1), Window(s2, l2)
                        assert tube_hom_oracle(r, w1, w2) == _brute_tube_hom(r, w1, w2), (
                            r,
                            w1,
                            w2,
                        )


def test_tube_oracle_full_length():
    # quasi-length r objects are not rigid: End is one-dimensional but
    # a self-extension exists
    for r in range(2, 7):
        assert tube_hom_oracle(r, Window(0, r), Window(0, r)) == 1
        assert tube_hom_oracle(r, Window(0, r), Window(r - 1, r)) == 1


def test_tube_oracle_validates_length():
    with pytest.raises(ValueError):
        tube_hom_oracle(3, Window(0, 4), Window(0, 1))


# -- hom/ext across slopes ------------------------------------------------------


def test_negative_hom_or_ext_is_rejected(ctx2222, monkeypatch):
    ctx = build_context(ctx2222.weights)
    o = line_bundle_obj(ctx, l_zero(ctx.weights))
    oc = line_bundle_obj(ctx, c_gen(ctx.weights))
    # a corrupted Euler pairing: hom = chi < 0 upward, ext = 0 - chi < 0 downward
    monkeypatch.setattr(tubes, "chi", lambda ctx, a, b: -1)
    with pytest.raises(InternalConsistencyError, match="negative hom"):
        ext_dim(ctx, o, oc)
    monkeypatch.setattr(tubes, "chi", lambda ctx, a, b: 1)
    with pytest.raises(InternalConsistencyError, match="negative ext"):
        hom_dim(ctx, oc, o)
    assert ctx._pairs == {}


def test_hom_examples_2222(ctx2222):
    w = ctx2222.weights
    o = line_bundle_obj(ctx2222, l_zero(w))
    oc = line_bundle_obj(ctx2222, c_gen(w))
    assert hom_dim(ctx2222, o, oc) == 2
    assert ext_dim(ctx2222, o, oc) == 0
    assert hom_dim(ctx2222, oc, o) == 0
    assert ext_dim(ctx2222, oc, o) == 0
    e11 = exc_from_class(ctx2222, K0Class((0, 1, 0, 0, 0, 0)))
    assert hom_dim(ctx2222, e11, e11) == 1
    assert ext_dim(ctx2222, e11, e11) == 0
    ow = line_bundle_obj(ctx2222, omega(w))
    assert ext_dim(ctx2222, ow, o) == 1


def _sample_objects(ctx, rng, count):
    pool = [
        ExcObject(cls, q, t, socle, length)
        for q in CHART_SLOPES
        for t, socle, length, cls in chart_for(ctx, q).windows()
    ]
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


def _case_ext(ctx, x, y):
    """Ext^1 by slope cases: 0 upward, -chi downward, and inside one tube
    hom(y, tau x) by Serre duality."""
    if x.slope < y.slope:
        return 0
    if y.slope < x.slope:
        return -chi(ctx, x.cls, y.cls)
    if x.orbit != y.orbit:
        return 0
    r = len(chart_for(ctx, x.slope).orbits[x.orbit])
    tau_x = Window((x.socle - 1) % r, x.len)
    return tube_hom_oracle(r, Window(y.socle, y.len), tau_x)


def test_hom_minus_ext_is_chi(any_ctx):
    # hom and ext share one memo entry per pair: on a fresh context, fill
    # it from either entry point and read the other value from the memo
    for hom_first in (True, False):
        ctx = build_context(any_ctx.weights)
        rng = random.Random(13)
        pairs = list(zip(_sample_objects(ctx, rng, 400), _sample_objects(ctx, rng, 400)))
        # every pair of one chart, so the in-tube case is covered in full
        chart = chart_for(ctx, Slope(1, 2))
        tube = [ExcObject(cls, chart.slope, t, s, ln) for t, s, ln, cls in chart.windows()]
        pairs += [(x, y) for x in tube for y in tube]
        for x, y in pairs:
            if hom_first:
                h = hom_dim(ctx, x, y)
                e = ext_dim(ctx, x, y)
            else:
                e = ext_dim(ctx, x, y)
                h = hom_dim(ctx, x, y)
            assert h >= 0 and e >= 0
            assert e == _case_ext(ctx, x, y), (x, y)
            assert h - e == chi(ctx, x.cls, y.cls)


def test_serre_duality_objects(any_ctx):
    rng = random.Random(14)
    for x, y in zip(
        _sample_objects(any_ctx, rng, 300), _sample_objects(any_ctx, rng, 300)
    ):
        assert ext_dim(any_ctx, x, y) == hom_dim(any_ctx, y, tau_obj(any_ctx, x))


def test_coords_round_trip(any_ctx):
    for q in CHART_SLOPES:
        chart = chart_for(any_ctx, q)
        for t, orbit in enumerate(chart.orbits):
            r = len(orbit)
            for socle in range(r):
                for length in range(1, r):
                    cls = window_class(chart, t, socle, length)
                    obj = coords_of_class(any_ctx, chart, cls)
                    assert (obj.orbit, obj.socle, obj.len) == (t, socle, length)


def test_not_exceptional_rejections(ctx2222):
    chart = chart_for(ctx2222, INF)
    with pytest.raises(NotExceptionalHere):
        coords_of_class(ctx2222, chart, K0Class((0, 0, 0, 0, 0, 1)))
    with pytest.raises(NotExceptionalHere, match="different slope"):
        coords_of_class(ctx2222, chart, K0Class((1, 0, 0, 0, 0, 0)))
    with pytest.raises(NotExceptionalHere, match="not sheaf-like"):
        coords_of_class(ctx2222, chart, K0Class((-1, 0, 0, 0, 0, 0)))


def test_tau_objects(ctx2222):
    e11 = exc_from_class(ctx2222, K0Class((0, 1, 0, 0, 0, 0)))
    assert tau_obj(ctx2222, tau_obj(ctx2222, e11)) == e11
    o = line_bundle_obj(ctx2222, l_zero(ctx2222.weights))
    assert tau_obj(ctx2222, o).slope == o.slope


def test_wing_containment(ctx244):
    chart = chart_for(ctx244, INF)
    big = next(i for i, orbit in enumerate(chart.orbits) if len(orbit) == 4)
    z = ExcObject(window_class(chart, big, 0, 3), INF, big, 0, 3)
    x = ExcObject(window_class(chart, big, 1, 2), INF, big, 1, 2)
    y = ExcObject(window_class(chart, big, 3, 1), INF, big, 3, 1)
    assert wing_contains(ctx244, z, z)
    assert wing_contains(ctx244, z, x)
    assert not wing_contains(ctx244, z, y)
    small = next(i for i, orbit in enumerate(chart.orbits) if len(orbit) == 2)
    other = ExcObject(window_class(chart, small, 0, 1), INF, small, 0, 1)
    assert not wing_contains(ctx244, z, other)


def test_wing_morphism_vanishing_exhaustive():
    # outside the wing with no map to its top, there is no map anywhere in it
    for r in range(2, 7):
        for zs in range(r):
            for zl in range(1, r):
                for xs in range(r):
                    for xl in range(1, r):
                        if (xs - zs) % r + xl <= zl:
                            continue
                        if tube_hom_oracle(r, Window(xs, xl), Window(zs, zl)):
                            continue
                        for off in range(zl):
                            for yl in range(1, zl - off + 1):
                                assert (
                                    tube_hom_oracle(
                                        r, Window(xs, xl), Window((zs + off) % r, yl)
                                    )
                                    == 0
                                )


def test_loaded_chart_validation_rejects_corruption(ctx2222, ctx236):
    from tubtilt.tubes import TubeChart

    chart = chart_for(ctx2222, INF)
    # swap two orbits' basepoints to break the tau ordering
    o0 = list(chart.orbits[0])
    bad = TubeChart(INF, (tuple([o0[0], chart.orbits[1][1]]),) + chart.orbits[1:])
    with pytest.raises(ChartInconsistent):
        check_chart_invariants(ctx2222, bad)
    # a moved chart at 7/3 whose rank-6 orbit runs against tau:
    # same classes, sizes and slope, so only the tau-order check sees it
    chart = chart_for(ctx236, Slope(7, 3))
    *rest, big = chart.orbits
    bad = TubeChart(chart.slope, (*rest, big[::-1]))
    with pytest.raises(ChartInconsistent, match="tau order"):
        tubes._check_chart_structure(ctx236, bad)
    with pytest.raises(ChartInconsistent):
        check_chart_invariants(ctx236, bad)

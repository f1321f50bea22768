import hashlib
import random

import pytest

from tubtilt import tubes
from tubtilt.connect import connect_to_canonical, random_walk
from tubtilt.errors import (
    ChartInconsistent,
    InternalConsistencyError,
    NotExceptionalHere,
    NotSheafLike,
)
from tubtilt.intmat import identity, mat_mul, mat_pow, mat_vec, sparse_rows, transpose
from tubtilt.k0 import (
    K0Class,
    build_context,
    chi,
    deg_of,
    enumerate_roots_at,
    line_bundle_class,
    rank_of,
    twist_matrix,
)
from tubtilt.serialize import chart_to_dict, dumps
from tubtilt.slopes import INF, ZERO, Slope
from tubtilt.tilting import is_tilting, t_can
from tubtilt.tubes import (
    ExcObject,
    TubeChart,
    Window,
    build_chart,
    chart_for,
    check_chart_invariants,
    exc_from_class,
    ext_dim,
    hom_dim,
    line_bundle_obj,
    orbit_rank,
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


def tau_obj(ctx, x):
    """tau x, one socle position down in its tube."""
    r = orbit_rank(ctx, x)
    return ExcObject(
        K0Class(mat_vec(ctx.tau, x.cls.vec)), x.slope, x.orbit, (x.socle - 1) % r, x.len
    )


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
    # chart_for builds no chart from roots: the anchor at slope 0 is the
    # chart at infinity moved back, and every other chart the anchor moved
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
        assert built == []


def _apply_shift(shift, k, vecs):
    """rho^k of every vector (see `chart_for`), through the row form."""
    return list(zip(*tubes._shift_rows(shift, k, list(zip(*vecs)))))


def _shift_matrix(ctx, shift, k):
    basis = [tuple(int(a == b) for b in range(ctx.n)) for a in range(ctx.n)]
    return transpose(tuple(_apply_shift(shift, k, basis)))


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
    assert ctx._shifts is None and not checked
    # the anchor is the chart at infinity moved by the shifts: they are
    # built and checked with it, once
    chart_for(ctx, ZERO)
    assert ctx._shifts is not None and checked == [ctx]
    for q in (INF, Slope(1, 2), Slope(-7, 3), Slope(37, 53)):
        chart_for(ctx, q)
    assert checked == [ctx]


def test_corrupted_shift_is_rejected(monkeypatch):
    # a window one term too long
    weights = tubes._orbit_weights
    monkeypatch.setattr(
        tubes, "_orbit_weights", lambda c, k: weights(c, k + (1 if k > 0 else -1))
    )
    ctx = build_context(make_weights((3, 3, 3)))
    # the anchor is moved by the shifts, so it is the first chart to fail
    with pytest.raises(InternalConsistencyError, match="tubular shift"):
        chart_for(ctx, ZERO)
    assert ctx._shifts is None and not ctx._charts
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


def _orbit_weights_oracle(c, k):
    # the rows D_l summed term by term: laps * sum_j c_j, plus the rest
    # consecutive c_j ending (k > 0) or starting (k < 0) at position l
    r = len(c)
    step = 1 if k > 0 else -1
    laps, rest = divmod(abs(k), r)
    full = [tuple(laps * s for s in map(sum, zip(*c)))] if laps else []
    zero = (0,) * len(c[0])
    out = []
    for l in range(r):
        terms = full + [c[(l - step * i) % r] for i in range(rest)]
        out.append(terms[0] if len(terms) == 1 else tuple(map(sum, zip(zero, *terms))))
    return out


def test_orbit_weights_match_the_term_by_term_sums():
    rng = random.Random("orbit-weights")
    for r in (2, 3, 4, 6):
        for k in range(-3 * r, 3 * r + 1):
            for _ in range(4):
                width = rng.randint(1, 12)
                c = [tuple(rng.randint(-9, 9) for _ in range(width)) for _ in range(r)]
                assert tubes._orbit_weights(c, k) == _orbit_weights_oracle(c, k), (r, k)


def test_closed_form_charts_match_the_root_charts(monkeypatch):
    moved = []
    move = tubes._move_chart

    def recording_move(ctx, chart, q, *word):
        moved.append(q)
        return move(ctx, chart, q, *word)

    monkeypatch.setattr(tubes, "_move_chart", recording_move)
    for ws in TUBULAR_TYPES:
        ctx = build_context(make_weights(ws))
        assert chart_for(ctx, ZERO) == build_chart(ctx, ZERO), ws
        assert chart_for(ctx, INF) == move(ctx, build_chart(ctx, ZERO), INF), ws
        # asked for infinity first, a fresh context gets the memoized
        # closed-form chart, not the anchor moved back
        fresh = build_context(make_weights(ws))
        assert chart_for(fresh, INF) is fresh._charts[INF] == ctx._charts[INF]
    assert INF not in moved


def test_charts_and_connect_enumerate_no_roots(monkeypatch):
    def refuse(*args):
        raise AssertionError("roots enumerated on the runtime path")

    monkeypatch.setattr(tubes, "enumerate_roots_at", refuse)
    monkeypatch.setattr(tubes, "build_chart", refuse)
    slopes = [ZERO, INF] + sorted(
        {Slope(a, b) for b in range(1, 9) for a in range(-2 * b, 3 * b + 1)},
        key=Slope.fraction,
    )
    for ws in TUBULAR_TYPES:
        ctx = build_context(make_weights(ws))
        for q in slopes:
            assert tuple(sorted(chart_for(ctx, q).ranks)) == ws, (ws, q)
    ctx = build_context(make_weights((2, 3, 6)))
    assert is_tilting(ctx, t_can(ctx))
    end = random_walk(ctx, 8, 5, bundle_only=True).end
    path = connect_to_canonical(ctx, end)
    assert path.end.class_key() == t_can(ctx).class_key()


def _second_simple(simple):
    """The basis vector one coordinate past S_{i,1}: S_{i,2} when p_i > 2,
    else the next tube's S_{i+1,1} or the fiber."""

    def start(ctx, i):
        s = simple(ctx, i)
        k = s.index(1)
        return s[:k] + (0, 1) + s[k + 2 :]

    return start


def _plus_fiber(at_infinity):
    """The chart at infinity with the fiber f added to every class of its
    last orbit: that is the tau^-1-orbit of S_{i,1} + f, which has the
    size, slope, tau order and chi pattern of a quasi-simple orbit, but
    its classes are windows of length p_i + 1."""

    def chart(ctx):
        *keep, last = at_infinity(ctx).orbits
        f = K0Class((0,) * (ctx.n - 1) + (1,))
        return TubeChart(INF, (*keep, tuple(x + f for x in last)))

    return chart


def _two_steps(at_infinity):
    """The chart at infinity walked by tau^-2 in place of tau^-1."""

    def chart(ctx):
        one = ctx.tau_inv_rows
        ctx.tau_inv_rows = sparse_rows(mat_mul(ctx.tau_inv, ctx.tau_inv))
        try:
            return at_infinity(ctx)
        finally:
            ctx.tau_inv_rows = one

    return chart


@pytest.mark.parametrize(
    "attr, corrupt, types, match",
    [
        # S_{i,2} is on the orbit of S_{i,1} when p_i > 2
        ("_simple", _second_simple, [ws for ws in TUBULAR_TYPES if 2 in ws],
         "duplicate class|tau order"),
        ("_chart_at_infinity", _plus_fiber, TUBULAR_TYPES, "sums to"),
        ("_chart_at_infinity", _two_steps, TUBULAR_TYPES, "duplicate class|tau order"),
    ],
    ids=["second-simple", "plus-fiber", "two-steps"],
)
def test_corrupted_closed_form_orbit_is_rejected(monkeypatch, attr, corrupt, types, match):
    for ws in types:
        ctx = build_context(make_weights(ws))
        monkeypatch.setattr(tubes, attr, corrupt(getattr(tubes, attr)))
        with pytest.raises(ChartInconsistent, match=match):
            chart_for(ctx, ZERO)
        assert not ctx._charts
        monkeypatch.undo()


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


def _oracle_build_chart(ctx, q):
    """The level-by-level classifier: roots by ascending multiple m of
    (deg, rank)(q); a root is quasi-simple unless it is the sum of
    m // mu >= 2 consecutive tau^-1 terms from a quasi-simple of an
    earlier level mu.  The quasi-simples are then grouped into orbits by
    walking tau^-1 from the smallest one left."""
    by_level = {}
    for c in enumerate_roots_at(ctx, q, ctx.p):
        m = rank_of(ctx, c) // q.den if q.den else deg_of(ctx, c)
        by_level.setdefault(m, []).append(c.vec)

    def window_sum(base, length):
        acc = term = base
        for _ in range(length - 1):
            term = mat_vec(ctx.tau_inv, term)
            acc = tuple(a + b for a, b in zip(acc, term))
        return acc

    quasi = []  # (class vector, level)
    for m in sorted(by_level):
        for c in by_level[m]:
            if not any(
                m % mu == 0 and m // mu >= 2 and window_sum(u, m // mu) == c
                for u, mu in quasi
            ):
                quasi.append((c, m))
    remaining = {c for c, _ in quasi}
    assert len(remaining) == len(quasi)
    orbits = []
    while remaining:
        cyc = [min(remaining)]
        remaining.remove(cyc[0])
        while (nxt := mat_vec(ctx.tau_inv, cyc[-1])) != cyc[0]:
            remaining.remove(nxt)
            cyc.append(nxt)
        orbits.append(tuple(K0Class(v) for v in cyc))
    return TubeChart(q, tubes._normal_form(orbits))


def test_build_chart_matches_the_level_classifier(any_ctx):
    rng = random.Random(43)
    slopes = list(CHART_SLOPES)
    while len(slopes) < len(CHART_SLOPES) + 40:
        b = rng.randint(1, 64)
        if (q := Slope(rng.randint(-3 * b, 3 * b), b)) not in slopes:
            slopes.append(q)
    for q in slopes:
        assert build_chart(any_ctx, q) == _oracle_build_chart(any_ctx, q), q


def _drop_each(roots):
    for k in range(len(roots)):
        yield roots[:k] + roots[k + 1 :]


@pytest.mark.parametrize(
    "edit, match",
    [
        (_drop_each, "left the root set"),
        (lambda roots: [roots + roots[:1], roots + roots[-1:]], "duplicate roots"),
    ],
    ids=["dropped", "repeated"],
)
def test_build_chart_rejects_a_broken_root_set(monkeypatch, any_ctx, edit, match):
    for q in (ZERO, INF, Slope(2, 3)):
        for roots in edit(enumerate_roots_at(any_ctx, q, any_ctx.p)):
            monkeypatch.setattr(tubes, "enumerate_roots_at", lambda ctx, q, m, r=roots: r)
            with pytest.raises(ChartInconsistent, match=match):
                build_chart(any_ctx, q)


# sha256 of serialize.dumps(chart_to_dict(...)), the stdout of `tubtilt
# chart` without its newline, of every type at six slopes; pinned so that
# a change to the classifier or to the shifts that alters any orbit order
# or socle position shows here.
GOLDEN_CHARTS = {
    ((2, 2, 2, 2), "inf"): "aab9addf0b2f4c70df7eda6a6709b0950485698e275e42fbe083017b5637714d",
    ((2, 2, 2, 2), "0"): "3ec96a1ace85c7cd80260aaf71f3b6c45efcd519e706b23989d23bb05e1c5db8",
    ((2, 2, 2, 2), "1/2"): "9a4e817df100864e38d3cffd8c2a536ca1eb0a71356709d60f9c03b48bbc0430",
    ((2, 2, 2, 2), "-1/2"): "d53deb4f3cc447634b53a0f778c8194d5b9edf755f79989898b852264d92f56d",
    ((2, 2, 2, 2), "37/53"): "05fb50fc713cdb90b0db2198fb254da089752a41514ff097d84c40dc1ff890cd",
    ((2, 2, 2, 2), "-29/61"): "1fcbc15cc4ddb120436d53736a84a1aa61057448792d958dd776100922e5d7b6",
    ((3, 3, 3), "inf"): "50365853f7e8ca0e545cbffcffe157560a9d8ee42c3eb89ea3c31163f86485ce",
    ((3, 3, 3), "0"): "ecbb70fc394392dc0bec57d8a0cfcd7dad55de5e17d1e78f7332a40d9c41b1d4",
    ((3, 3, 3), "1/2"): "b70d8c84c3e20153b53391383165913df0891e7644e5c37ce7c32d2c2db936f9",
    ((3, 3, 3), "-1/2"): "dd3ac40473c9791263f569b02dc8d1baf4828e30d8e47827ba3b3e0271fc7408",
    ((3, 3, 3), "37/53"): "f64c7bbedd414cd2f023a9288cc7afdfef56d7ab84beddfc76e781bdeeff322e",
    ((3, 3, 3), "-29/61"): "18b80197ef2f1aed6740cc4aefd33928917066e9f00a08f02cd0c5a15f8dbc0a",
    ((2, 4, 4), "inf"): "3a47d71cdd65db57814d3b94a929298186cb3d4ecdb0c6206008bf840b9dad0a",
    ((2, 4, 4), "0"): "7185292d1ec1a13cfe4861cca425aba4b8e73e930dac830e0f187fc58be95fdb",
    ((2, 4, 4), "1/2"): "55a8b3a98b3060df527024be0e713ee144b5bc20ad95a1a3f22876421ef0d893",
    ((2, 4, 4), "-1/2"): "554e0ec6cb5a4390e36472818442b3ed1fe53a2e442776e5f5e1d6bcd424a426",
    ((2, 4, 4), "37/53"): "b3e81e8100a89866b91920dae6017acfc67e000061f30a047e371c4242f9e16e",
    ((2, 4, 4), "-29/61"): "4bfb7016fd0c2962f35b37c06fe089062260c85a9333154c6c0c4b0345d23a5b",
    ((2, 3, 6), "inf"): "08e84501fb72d84ae48794670339d7ad663c32cb4539974032be9f797ad2d993",
    ((2, 3, 6), "0"): "d7a43993854fe5e38a031e2e3a50affa3a2be256c253c4459832cb778583aca7",
    ((2, 3, 6), "1/2"): "835fa12e7804d3c99fad2aec7eda3148b8105c1e4fda161e12c706ccedfb6191",
    ((2, 3, 6), "-1/2"): "96c9774ddf9d88275290374d9cf85738671657716cf0d62156a03f04e7d0079a",
    ((2, 3, 6), "37/53"): "99b038a2d0ac37cec5d5a9dbc4aeb66e5531eaa12b9e21877f27367458e6ff1a",
    ((2, 3, 6), "-29/61"): "91c6c6923a41d8d679386fc3e3a3c79b4f3b4e3d32ea207215f6908c4b449190",
}


def test_golden_charts():
    got = {}
    for ws, q in GOLDEN_CHARTS:
        ctx = build_context(make_weights(ws))
        text = dumps(chart_to_dict(ctx, chart_for(ctx, Slope.parse(q))))
        got[ws, q] = hashlib.sha256(text.encode()).hexdigest()
    assert got == GOLDEN_CHARTS


# -- the batched kernel against the per-vector oracles -------------------------


def _oracle_windows(orbit, k):
    """The sums rho^k subtracts: |k| consecutive orbit terms from each
    E_j, upward (towards tau^-1) for k > 0, downward for k < 0."""
    r = len(orbit)
    step = 1 if k > 0 else -1
    laps, rest = divmod(abs(k), r)
    full = [laps * sum(col) for col in zip(*orbit)]
    out = []
    for j in range(r):
        w = list(full)
        for i in range(rest):
            for a, x in enumerate(orbit[(j + step * i) % r]):
                w[a] += x
        out.append(w)
    return out


def _oracle_apply_shift(ctx, orbit, k, vecs):
    """rho^k one vector at a time: x - sum_j c_j (window from E_j), with
    c_j = chi(E_j, x) for k > 0 and chi(x, E_j) for k < 0."""
    out = []
    for x in vecs:
        y = x
        for e, w in zip(orbit, _oracle_windows(orbit, k)):
            pair = (K0Class(e), K0Class(x)) if k > 0 else (K0Class(x), K0Class(e))
            c = chi(ctx, *pair)
            if c:
                y = [ya - c * wa for ya, wa in zip(y, w)]
        out.append(tuple(y))
    return out


def _oracle_move_chart(ctx, q):
    anchor = build_chart(ctx, ZERO)
    shifts = tubes._tube_shifts(ctx)
    vecs = [c.vec for orbit in anchor.orbits for c in orbit]
    for gen, k in tubes._shift_word(q):
        vecs = _oracle_apply_shift(ctx, shifts[gen].orbit, k, vecs)
    moved = iter(vecs)
    orbits = [tuple(K0Class(next(moved)) for _ in orbit) for orbit in anchor.orbits]
    return TubeChart(q, tubes._normal_form(orbits))


def _oracle_find_window(chart, c):
    """The scan over every window of the chart."""
    for t, socle, length, cls in chart.windows():
        if cls.vec == c.vec:
            return (t, socle, length)
    return None


def _oracle_slopes():
    """Denominators 1..64, each with the numerators -3b + 1 and 3b - 1 and
    one in between; the integers -3..3; infinity."""
    rng = random.Random(41)
    slopes = [INF] + [Slope(a, 1) for a in range(-3, 4)]
    for b in range(2, 65):
        slopes += [Slope(-3 * b + 1, b), Slope(3 * b - 1, b)]
        while (q := Slope(rng.randint(-3 * b, 3 * b), b)).den != b:
            pass
        slopes.append(q)
    return list(dict.fromkeys(slopes))


def test_batched_shift_matches_the_oracle(any_ctx):
    n = any_ctx.n
    rng = random.Random(5)
    vecs = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(12)]
    for shift in tubes._tube_shifts(any_ctx):
        for k in (*range(-13, 0), *range(1, 14)):
            want = _oracle_apply_shift(any_ctx, shift.orbit, k, vecs)
            assert _apply_shift(shift, k, vecs) == want, k


def test_batched_charts_and_decode_match_the_oracles(any_ctx):
    slopes = _oracle_slopes()
    charts = []
    for q in slopes:
        chart = chart_for(any_ctx, q)
        assert chart == _oracle_move_chart(any_ctx, q), q
        charts.append(chart)
    n = any_ctx.n
    for chart, other in zip(charts, charts[1:] + charts[:1]):
        wins = list(chart.windows())
        for t, socle, length, cls in wins:
            got = tubes._find_window(any_ctx, chart, cls)
            assert got == _oracle_find_window(chart, cls) == (t, socle, length)
        # classes that are no window of the chart
        firsts = [orbit[0] for orbit in chart.orbits]
        others = [a + b for i, a in enumerate(firsts) for b in firsts[i + 1 :]]
        others += [wins[0][3] + firsts[-1], wins[-1][3] + firsts[0]]
        others += [window_class(chart, t, 0, len(o)) for t, o in enumerate(chart.orbits)]
        others += [-cls for *_, cls in wins[:: max(1, len(wins) // 8)]]
        others += [cls for *_, cls in other.windows()][:8]
        others.append(K0Class((0,) * n))
        for c in others:
            assert _oracle_find_window(chart, c) is None, (chart.slope, c)
            assert tubes._find_window(any_ctx, chart, c) is None, (chart.slope, c)


def _first_chi_violation(ctx, chart):
    """The per-pair chi pattern check: the message of the first violation."""
    for a, orb_a in enumerate(chart.orbits):
        for b, orb_b in enumerate(chart.orbits):
            for j, x in enumerate(orb_a):
                for k, y in enumerate(orb_b):
                    val = chi(ctx, x, y)
                    if a != b:
                        want = 0
                    else:
                        r = len(orb_a)
                        want = (1 if j == k else 0) - (1 if k == (j - 1) % r else 0)
                    if val != want:
                        return (
                            f"chi pattern violated at slope {chart.slope}: "
                            f"orbits {a},{b} positions {j},{k}: {val} != {want}"
                        )
    return None


def test_batched_chi_pattern_reports_the_first_violation(any_ctx):
    rng = random.Random(17)
    for q in (ZERO, INF, Slope(2, 3), Slope(-7, 4)):
        chart = chart_for(any_ctx, q)
        tubes._check_chi_pattern(any_ctx, chart)
        pool = [x for *_, x in chart.windows()]
        for _ in range(12):
            orbits = [list(o) for o in chart.orbits]
            t = rng.randrange(len(orbits))
            orbits[t][rng.randrange(len(orbits[t]))] = rng.choice(pool)
            if rng.random() < 0.5:
                rng.shuffle(orbits[t])
            bad = TubeChart(q, tuple(tuple(o) for o in orbits))
            want = _first_chi_violation(any_ctx, bad)
            if want is None:
                tubes._check_chi_pattern(any_ctx, bad)
                continue
            with pytest.raises(ChartInconsistent) as err:
                tubes._check_chi_pattern(any_ctx, bad)
            assert str(err.value) == want


def _swap_second_classes(orbits):
    """The second classes of the first two orbits traded: no class
    repeats and every class keeps its slope, but tau order breaks."""
    (a0, a1, *ra), (b0, b1, *rb), *rest = orbits
    return [(a0, b1, *ra), (b0, a1, *rb), *rest]


def _replace(orbits, t, k, cls):
    orbits = list(orbits)
    orbits[t] = orbits[t][:k] + (cls,) + orbits[t][k + 1 :]
    return orbits


@pytest.mark.parametrize(
    "corrupt, error, match",
    [
        (lambda orbits, far: orbits[:-1] + [orbits[-1][:-1]], ChartInconsistent, "orbit sizes"),
        (lambda orbits, far: _replace(orbits, -1, 0, orbits[0][0]), ChartInconsistent,
         "duplicate class"),
        (lambda orbits, far: _replace(orbits, 0, 0, far), ChartInconsistent, "wrong slope"),
        (lambda orbits, far: _swap_second_classes(orbits), ChartInconsistent, "tau order"),
        (lambda orbits, far: _replace(orbits, 0, 0, -orbits[0][0]), NotSheafLike,
         "not the shape of a sheaf class"),
    ],
    ids=["sizes", "duplicate", "slope", "tau-order", "not-a-sheaf"],
)
def test_corrupted_moved_charts_are_rejected(monkeypatch, corrupt, error, match):
    for ws in TUBULAR_TYPES:
        ctx = build_context(make_weights(ws))
        far = chart_for(ctx, Slope(5, 2)).orbits[-1][0]
        chart_for(ctx, INF)  # the anchor and the shifts, before the corruption
        normal_form = tubes._normal_form
        monkeypatch.setattr(
            tubes, "_normal_form", lambda orbits: corrupt(list(normal_form(orbits)), far)
        )
        with pytest.raises(error, match=match):
            chart_for(ctx, Slope(7, 3))
        monkeypatch.undo()
        assert Slope(7, 3) not in ctx._charts


def test_chart_memo_idempotent(ctx2222):
    assert chart_for(ctx2222, Slope(1, 2)) is chart_for(ctx2222, Slope(1, 2))


def test_tau_orbit_pairing_at_zero_2222(ctx2222):
    # tau pairs O(x) with O(x + omega) at slope zero
    chart = chart_for(ctx2222, Slope(0, 1))
    o = line_bundle_class(ctx2222, l_zero(ctx2222.weights))
    obj = exc_from_class(ctx2222, o)
    assert obj.slope == chart.slope
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


def _hom_ext_oracle(ctx, x, y):
    """(hom(x, y), ext(x, y)) by the slope cases, with Window objects and
    `tube_hom_oracle` inside one tube: the reference of `tubes._hom_ext`.
    chi is read through the module, so a corrupted pairing reaches both."""
    if x.slope < y.slope:
        h = tubes.chi(ctx, x.cls, y.cls)
        if h < 0:
            raise InternalConsistencyError(
                f"negative hom {h} for ascending slopes {x.slope} -> {y.slope}"
            )
        return (h, 0)
    if y.slope < x.slope or x.orbit != y.orbit:
        h = 0
    else:
        r = orbit_rank(ctx, x)
        h = tube_hom_oracle(r, Window(x.socle, x.len), Window(y.socle, y.len))
    e = h - tubes.chi(ctx, x.cls, y.cls)
    if e < 0:
        raise InternalConsistencyError(f"negative ext {e} between slopes {x.slope} and {y.slope}")
    return (h, e)


def _kernel_pairs(ctx, rng):
    """Sampled pairs of every kind the pair kernel distinguishes: two
    slopes (the large-denominator chart slopes 37/53 and -29/61
    included), one tube, two tubes at one slope, and torsion pairs at
    infinity."""
    objs = _sample_objects(ctx, rng, 300)
    pairs = list(zip(objs, objs[1:] + objs[:1]))
    for q in (INF, Slope(37, 53), Slope(-29, 61), Slope(2, 3)):
        chart = chart_for(ctx, q)
        at_q = [ExcObject(cls, q, t, s, ln) for t, s, ln, cls in chart.windows()]
        pairs += [(rng.choice(at_q), rng.choice(at_q)) for _ in range(150)]
        big = [o for o in at_q if o.orbit == len(chart.orbits) - 1]
        pairs += [(x, y) for x in big for y in big]
    kinds = {
        "two slopes": sum(x.slope != y.slope for x, y in pairs),
        "one tube": sum(x.slope == y.slope and x.orbit == y.orbit for x, y in pairs),
        "two tubes": sum(x.slope == y.slope and x.orbit != y.orbit for x, y in pairs),
        "torsion": sum(x.slope == y.slope == INF for x, y in pairs),
        "large denominators": sum(x.slope.den in (53, 61) for x, y in pairs),
    }
    assert all(kinds.values()), kinds
    return pairs


def test_pair_kernel_matches_the_oracle(any_ctx):
    # the fill against today's case split, and the symmetric rigidity read
    # against two ext reads, on a fresh context so every read is a fill
    ctx = build_context(any_ctx.weights)
    for x, y in _kernel_pairs(ctx, random.Random(27)):
        assert tubes._hom_ext(ctx, x, y, (x.cls.vec, y.cls.vec)) == _hom_ext_oracle(ctx, x, y)
    fresh = build_context(any_ctx.weights)
    for x, y in _kernel_pairs(fresh, random.Random(28)):
        either = tubes._ext_either(fresh, x, y)
        assert either == tubes._ext_either(fresh, y, x)
        assert either == bool(ext_dim(fresh, x, y) or ext_dim(fresh, y, x)), (x, y)


@pytest.mark.parametrize("value", [-1, 1, 5])
def test_pair_kernel_raises_the_oracles_errors(ctx236, monkeypatch, value):
    # a constant Euler pairing: negative hom upward for value < 0, negative
    # ext downward and inside a tube for value > 0
    ctx = build_context(ctx236.weights)
    pairs = _kernel_pairs(ctx, random.Random(29))
    monkeypatch.setattr(tubes, "chi", lambda ctx, a, b: value)
    raised = 0
    for x, y in pairs:
        try:
            want = _hom_ext_oracle(ctx, x, y)
        except InternalConsistencyError as exc:
            with pytest.raises(InternalConsistencyError) as got:
                tubes._hom_ext(ctx, x, y, (x.cls.vec, y.cls.vec))
            assert str(got.value) == str(exc)
            raised += 1
        else:
            assert tubes._hom_ext(ctx, x, y, (x.cls.vec, y.cls.vec)) == want
    assert raised


def test_rigidity_tests_write_one_direction_across_slopes():
    ctx = build_context(make_weights((2, 3, 6)))
    o = line_bundle_obj(ctx, l_zero(ctx.weights))
    oc = line_bundle_obj(ctx, c_gen(ctx.weights))
    assert ctx._pairs == {}
    assert not tubes._ext_either(ctx, o, oc)
    assert list(ctx._pairs) == [(oc._id, o._id)]
    # is_tilting reads each unordered pair once, both ways only at one slope
    ctx = build_context(make_weights((2, 3, 6)))
    t = t_can(ctx)
    assert ctx._pairs == {}
    assert is_tilting(ctx, t)
    n = ctx.n
    same = sum(x.slope == y.slope for i, x in enumerate(t.summands) for y in t.summands[i + 1 :])
    assert same > 0
    assert len(ctx._pairs) == n + n * (n - 1) // 2 + same


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
                    obj = exc_from_class(any_ctx, cls)
                    assert (obj.slope, obj.orbit, obj.socle, obj.len) == (q, t, socle, length)


def test_not_exceptional_rejections(ctx2222):
    with pytest.raises(NotExceptionalHere, match="not a window"):
        exc_from_class(ctx2222, K0Class((0, 0, 0, 0, 0, 1)))


def test_exc_from_class_computes_the_slope_once(monkeypatch):
    calls = []
    slope_of = tubes.slope_of
    monkeypatch.setattr(tubes, "slope_of", lambda ctx, c: calls.append(c) or slope_of(ctx, c))
    ctx = build_context(make_weights((2, 3, 6)))
    cls = window_class(chart_for(ctx, Slope(3, 7)), 2, 1, 4)
    calls.clear()
    obj = exc_from_class(ctx, cls)  # a decode miss
    assert calls == [cls]
    assert (obj.slope, obj.orbit, obj.socle, obj.len) == (Slope(3, 7), 2, 1, 4)
    # a hit computes no slope and returns the memoized object itself
    assert exc_from_class(ctx, K0Class(cls.vec)) is obj
    assert calls == [cls]
    # not a sheaf class: NotSheafLike; not a window: NotExceptionalHere
    with pytest.raises(NotSheafLike):
        exc_from_class(ctx, -cls)
    with pytest.raises(NotExceptionalHere, match="not a window"):
        exc_from_class(ctx, cls + cls)


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

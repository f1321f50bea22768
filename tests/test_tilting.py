import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tubtilt import tilting
from tubtilt.connect import explore_graph, random_walk, verify_path
from tubtilt.errors import (
    BasisMismatch,
    ComplementNotFound,
    ComplementNotUnique,
    DuplicateSummands,
    InternalConsistencyError,
    NoFullPeriodSummand,
    NotFirstObject,
    NotExceptionalHere,
    NotLastObject,
    NotSheafLike,
    PreconditionError,
    WrongSummandCount,
)
from tubtilt.intmat import det as int_det
from tubtilt.intmat import dot, mat_vec, solve_int
from tubtilt.k0 import K0Class, build_context, chi, rank_of
from tubtilt.slopes import INF, Slope
from tubtilt.tilting import (
    MutationEvent,
    TiltingObject,
    _combination,
    _exchange_gram,
    _full_gram,
    _gram_det,
    _gram_roots,
    _insert_summand,
    _proposed_classes,
    apr_mutate,
    canonical_interval,
    check_basis,
    co_apr_mutate,
    find_full_period_quasi_simple,
    first_objects,
    is_bundle,
    is_tilting,
    last_objects,
    make_tilting,
    mutate,
    purge_torsion,
    simple_homs,
    slope_range,
    t_can,
    torsion_exchanges,
)
from tubtilt.tubes import (
    ExcObject,
    chart_for,
    exc_from_class,
    ext_dim,
    hom_dim,
    line_bundle_obj,
    orbit_rank,
    window_class,
)
from tubtilt.verify import context_for
from tubtilt.weights import (
    TUBULAR_TYPES,
    c_gen,
    delta,
    l_add,
    l_normalize,
    l_zero,
    make_weights,
    omega,
    x_gen,
)


def _walk(ctx, steps, seed, bundle_only=False):
    return random_walk(ctx, steps, seed, bundle_only).end


def test_canonical_is_tilting(any_ctx):
    tc = t_can(any_ctx)
    assert is_tilting(any_ctx, tc)
    assert is_bundle(tc)
    lo, hi = slope_range(any_ctx, tc)
    assert (lo, hi) == (Slope(0, 1), Slope(any_ctx.p, 1))


@pytest.mark.parametrize("ws", TUBULAR_TYPES, ids=lambda ws: ",".join(map(str, ws)))
def test_t_can_is_built_once_per_context(ws):
    ctx = build_context(make_weights(ws))
    w = ctx.weights
    twist = x_gen(w, 0)
    # a twisted bundle first: it must not take the untwisted one's place
    twisted = t_can(ctx, twist)
    reference = make_tilting(
        ctx, (line_bundle_obj(ctx, l_add(x, twist)) for x in canonical_interval(w))
    )
    assert twisted == reference
    assert t_can(ctx, twist) == twisted and t_can(ctx, twist) is not twisted
    tc = t_can(ctx)
    assert t_can(ctx) is tc
    assert tc != twisted
    assert t_can(ctx, twist) == twisted
    assert tc == t_can(build_context(make_weights(ws)))
    assert tc == make_tilting(ctx, (line_bundle_obj(ctx, x) for x in canonical_interval(w)))


def test_canonical_first_last_2222(ctx2222):
    tc = t_can(ctx2222)
    w = ctx2222.weights
    i_o = tc.index_of(line_bundle_obj(ctx2222, l_zero(w)))
    i_c = tc.index_of(line_bundle_obj(ctx2222, c_gen(w)))
    i_x1 = tc.index_of(line_bundle_obj(ctx2222, x_gen(w, 0)))
    assert first_objects(ctx2222, tc) == (i_o,)
    assert last_objects(ctx2222, tc) == (i_c,)
    assert i_x1 not in first_objects(ctx2222, tc)


def test_is_tilting_rejects_small_sets(ctx2222):
    tc = t_can(ctx2222)
    assert not is_tilting(ctx2222, tc.summands[1:])


def test_is_tilting_rejects_self_extension_pair(ctx2222):
    w = ctx2222.weights
    objs = list(t_can(ctx2222).summands)
    # replace O(c) by O(omega): ext(O(omega), O) is nonzero
    objs[-1] = line_bundle_obj(ctx2222, omega(w))
    assert not is_tilting(ctx2222, objs)


def _run_index(summands):
    """The (slope, orbit) run of each summand, numbered in summand order."""
    runs = itertools.groupby((s.slope, s.orbit) for s in summands)
    return [r for r, (_, group) in enumerate(runs) for _ in group]


def _assert_forced_entry_fails(ctx, t, key, entry):
    """check_basis(ctx, t) raises BasisMismatch with the (hom, ext) memo
    entry at key forced to entry; the memo is restored afterwards.  Every
    forced entry has ext = 0, so the ext pairs would still pass."""
    saved = ctx._pairs[key]
    ctx._pairs[key] = entry
    try:
        with pytest.raises(BasisMismatch):
            check_basis(ctx, t)
    finally:
        ctx._pairs[key] = saved


def test_gram_blocks_match_the_bareiss_determinant(any_ctx):
    """The basis certificate of check_basis against the n x n Bareiss
    determinant on every node of seeded walks, bundle-only and with
    torsion summands, longer than the acceptance workload's."""
    from tubtilt.connect import random_walk

    ctx = any_ctx
    n = ctx.n
    e_det = int_det(ctx.euler)
    longest_run = checked = forced_off = 0
    for steps in (8, 16, 32):
        for bundle_only in (True, False):
            walk = random_walk(ctx, steps, seed=4100 + steps, bundle_only=bundle_only)
            for k, t in enumerate(walk.nodes):
                assert is_tilting(ctx, t)
                s = t.summands
                run = _run_index(s)
                longest_run = max(longest_run, max(run.count(r) for r in run))
                gram = tuple(tuple(chi(ctx, a.cls, b.cls) for b in s) for a in s)
                # zero below the runs: block upper triangular
                assert all(gram[i][j] == 0 for i in range(n) for j in range(n) if run[i] > run[j])
                blocks = 1
                for r in set(run):
                    idx = [i for i in range(n) if run[i] == r]
                    blocks *= int_det(tuple(tuple(gram[i][j] for j in idx) for i in idx))
                assert blocks == _gram_det(ctx, s) == int_det(gram)
                assert blocks == int_det(t.class_key()) ** 2 * e_det
                # a plain list in any order is sorted first
                check_basis(ctx, list(reversed(s)))
                # a diagonal memo entry forced to chi(x, x) = 2 fails the check,
                # and so does chi(x, x) = -1 with ext(x, x) = 0, a sign flip of det
                x = s[k % n].cls.vec
                _assert_forced_entry_fails(ctx, t, (x, x), (2, 0))
                _assert_forced_entry_fails(ctx, t, (x, x), (-1, 0))
                # so does a run of two, chi(a, b) = 1, with chi(b, a) forced to 1
                for i in range(n - 1):
                    if run[i] == run[i + 1] and run.count(run[i]) == 2:
                        a, b = (i, i + 1) if gram[i][i + 1] else (i + 1, i)
                        if gram[a][b] == 1:
                            assert gram[b][a] == 0
                            _assert_forced_entry_fails(ctx, t, (s[b].cls.vec, s[a].cls.vec), (1, 0))
                            forced_off += 1
                checked += 1
    assert checked == 2 * (9 + 17 + 33)
    assert (forced_off > 0) == (ctx.weights.weights != (2, 2, 2, 2))
    # the walks reach the largest run, r - 1 summands in a tube of rank r
    assert longest_run == max(ctx.weights.weights) - 1


def test_check_basis_needs_the_ext_memo():
    ctx = build_context(make_weights((2, 3, 6)))
    with pytest.raises(PreconditionError):
        check_basis(ctx, t_can(ctx))
    assert is_tilting(ctx, t_can(ctx))


def _proof_table_walks(ws):
    """A fresh context of type ws and the nodes of its seeded 8-, 16- and
    32-step walks, bundle-only and not, none of them proved yet."""
    ctx = build_context(make_weights(ws))
    nodes = [
        t
        for steps in (8, 16, 32)
        for bundle_only in (True, False)
        for t in random_walk(ctx, steps, seed=4300 + steps, bundle_only=bundle_only).nodes
    ]
    assert ctx._proved == {}
    return ctx, nodes


def _count_gram_dets(monkeypatch):
    """The list that every later `tilting._gram_det` call appends to."""
    calls = []
    real = tilting._gram_det

    def spy(ctx, summands):
        calls.append(summands)
        return real(ctx, summands)

    monkeypatch.setattr(tilting, "_gram_det", spy)
    return calls


def _outcome(ctx, t):
    """is_tilting's verdict on t, or the name of the error it raises."""
    try:
        return is_tilting(ctx, t)
    except Exception as exc:
        return type(exc).__name__


@pytest.mark.parametrize("ws", TUBULAR_TYPES, ids=lambda ws: ",".join(map(str, ws)))
def test_a_proved_object_is_read_off_the_proof_table(ws, monkeypatch):
    ctx, nodes = _proof_table_walks(ws)
    calls = _count_gram_dets(monkeypatch)
    for t in nodes:
        assert is_tilting(ctx, t)
        assert ctx._proved[t.class_key()] == t.summands
        # an equal object built anew from copies of the summands: no proof
        copy = TiltingObject(
            tuple(ExcObject(s.cls, s.slope, s.orbit, s.socle, s.len) for s in t.summands)
        )
        calls.clear()
        assert is_tilting(ctx, copy)
        assert calls == []
    # each distinct node was proved once, repeats of the walks included
    distinct = {t.class_key() for t in nodes}
    assert len(ctx._proved) == len(distinct) < len(nodes)


@pytest.mark.parametrize("ws", TUBULAR_TYPES, ids=lambda ws: ",".join(map(str, ws)))
def test_other_coordinates_are_proved_again(ws, monkeypatch):
    # equal classes are not enough for a hit: one summand's socle or orbit
    # altered is proved again, with the verdict of a fresh context.  The
    # fresh context proves the original first, so it reads the same (hom,
    # ext) memo entries: that memo is keyed by class vectors and fills an
    # entry from the coordinates of the first pair asked
    ctx, nodes = _proof_table_walks(ws)
    calls = _count_gram_dets(monkeypatch)
    altered = 0
    for i, t in enumerate(nodes):
        assert is_tilting(ctx, t)
        k = i % ctx.n
        s = t.summands[k]
        r = orbit_rank(ctx, s)
        tubes_here = len(chart_for(ctx, s.slope).orbits)
        others = []
        if r > 1:
            others.append(ExcObject(s.cls, s.slope, s.orbit, (s.socle + 1) % r, s.len))
        if tubes_here > 1:
            others.append(ExcObject(s.cls, s.slope, (s.orbit + 1) % tubes_here, s.socle, s.len))
        for o in others:
            bad = TiltingObject(t.summands[:k] + (o,) + t.summands[k + 1 :])
            assert bad.class_key() == t.class_key() and bad != t
            calls.clear()
            got = _outcome(ctx, bad)
            assert len(calls) == 1
            fresh = build_context(ctx.weights)
            assert is_tilting(fresh, t)
            assert got == _outcome(fresh, bad)
            # the original, now perhaps displaced by the altered object,
            # is still True
            assert is_tilting(ctx, t)
            altered += 1
    assert altered > len(nodes)


@pytest.mark.parametrize("ws", TUBULAR_TYPES, ids=lambda ws: ",".join(map(str, ws)))
def test_a_non_tilting_object_leaves_no_entry(ws):
    # a summand replaced by tau of a kept summand y: ext(y, tau y) =
    # hom(y, y) = 1, so the object is not rigid
    ctx, nodes = _proof_table_walks(ws)
    rejected = 0
    for t in nodes:
        assert is_tilting(ctx, t)
        vecs = set(t.class_key())
        for y in t.summands:
            w = exc_from_class(ctx, K0Class(mat_vec(ctx.tau, y.cls.vec)))
            if w.cls.vec not in vecs:
                z = next(s for s in t.summands if s is not y)
                bad = make_tilting(ctx, [w if s is z else s for s in t.summands])
                table = dict(ctx._proved)
                for _ in range(3):
                    assert not is_tilting(ctx, bad)
                assert ctx._proved == table and bad.class_key() not in ctx._proved
                rejected += 1
                break
    assert rejected == len(nodes)


@pytest.mark.parametrize("ws", TUBULAR_TYPES, ids=lambda ws: ",".join(map(str, ws)))
def test_a_basis_mismatch_is_raised_on_every_call(ws):
    # a diagonal memo entry forced to chi(x, x) = 2 before the first proof
    # of a node: BasisMismatch on every call, and no entry; with the memo
    # restored the node is proved and recorded
    ctx, nodes = _proof_table_walks(ws)
    forced = 0
    for i, t in enumerate(nodes):
        if t.class_key() in ctx._proved:
            continue
        x = t.summands[i % ctx.n]
        key = (x.cls.vec, x.cls.vec)
        hom_dim(ctx, x, x)
        saved = ctx._pairs[key]
        ctx._pairs[key] = (2, 0)
        try:
            for _ in range(2):
                with pytest.raises(BasisMismatch):
                    is_tilting(ctx, t)
                assert t.class_key() not in ctx._proved
        finally:
            ctx._pairs[key] = saved
        assert is_tilting(ctx, t)
        assert ctx._proved[t.class_key()] == t.summands
        forced += 1
    assert forced == len({t.class_key() for t in nodes})


@pytest.mark.parametrize("ws", TUBULAR_TYPES, ids=lambda ws: ",".join(map(str, ws)))
def test_the_proof_table_stays_under_the_cap(ws, monkeypatch):
    sizes = []

    class SizedTable(dict):
        """The proof table, recording its size after every insert."""

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            sizes.append(len(self))

    ctx, nodes = _proof_table_walks(ws)
    ctx._proved = SizedTable()
    monkeypatch.setattr(tilting, "_COMPLEMENT_TABLE_CAP", 20)
    for t in nodes:
        assert is_tilting(ctx, t)
        assert ctx._proved[t.class_key()] == t.summands
    for steps in (8, 16, 32):
        assert verify_path(ctx, random_walk(ctx, steps, seed=4300 + steps, bundle_only=True))
    assert max(sizes) == 20
    assert sizes.count(1) > 1  # cleared at least once


def test_make_tilting_error_codes(ctx2222):
    tc = t_can(ctx2222)
    with pytest.raises(WrongSummandCount):
        make_tilting(ctx2222, tc.summands[:-1])
    with pytest.raises(DuplicateSummands):
        make_tilting(ctx2222, tc.summands[:-1] + (tc.summands[0],))


def test_frozen_complements_2222(ctx2222):
    tc = t_can(ctx2222)
    w = ctx2222.weights
    i_o = tc.index_of(line_bundle_obj(ctx2222, l_zero(w)))
    i_c = tc.index_of(line_bundle_obj(ctx2222, c_gen(w)))
    _, ev_o = mutate(ctx2222, tc, i_o)
    assert ev_o.added.cls.vec == (3, 1, 1, 1, 1, 0)
    assert ev_o.added.slope == Slope(4, 3)
    assert ev_o.direction == "L"
    _, ev_c = mutate(ctx2222, tc, i_c)
    assert ev_c.added.cls.vec == (3, 1, 1, 1, 1, -1)
    assert ev_c.added.slope == Slope(2, 3)
    assert ev_c.direction == "R"


def test_mutation_involution(any_ctx):
    rng = random.Random(20)
    for trial in range(30):
        t = _walk(any_ctx, rng.randrange(1, 7), seed=500 + trial)
        k = rng.randrange(any_ctx.n)
        t2, ev = mutate(any_ctx, t, k)
        assert is_tilting(any_ctx, t2)
        back, ev2 = mutate(any_ctx, t2, t2.index_of(ev.added))
        assert back == t
        assert ev2.added.cls == ev.removed.cls
        assert ev2.direction != ev.direction


def test_mutate_rejects_an_index_out_of_range(any_ctx):
    # a negative index would name a summand from the end, so it is rejected
    # before the complement table is read, like an index past the end
    t = t_can(any_ctx)
    n = any_ctx.n
    table = dict(any_ctx._complements)
    for k in (-1, -2, -n, n):
        with pytest.raises(PreconditionError, match=f"index {k} is not in 0..{n - 1}"):
            mutate(any_ctx, t, k)
        assert any_ctx._complements == table


def test_mutate_miss_past_the_cap_clears_both_tables(monkeypatch):
    ctx = build_context(make_weights((2, 2, 2, 2)))
    monkeypatch.setattr(tilting, "_COMPLEMENT_TABLE_CAP", 3)
    tc = t_can(ctx)
    for k in range(4):
        mutate(ctx, tc, k)  # each a miss with its own almost complete key
    assert len(ctx._complements) == 4
    ctx._relations[tc.class_key()] = {}
    seen = []
    real_complete = tilting._complete_mutation

    def spy(ctx, t, k, ac_key):
        seen.append((len(ctx._complements), len(ctx._relations)))
        return real_complete(ctx, t, k, ac_key)

    monkeypatch.setattr(tilting, "_complete_mutation", spy)
    # a table hit past the cap leaves both tables as they are
    mutate(ctx, tc, 0)
    assert seen == [] and len(ctx._complements) == 4 and len(ctx._relations) == 1
    # a miss clears both before it computes
    mutate(ctx, tc, 4)
    assert seen == [(0, 0)]
    assert len(ctx._complements) == 1


def test_table_answers_match_cold_mutations(any_ctx, monkeypatch):
    # a mutation read off the complement table equals a cold mutation on a
    # fresh context of the same weights in full (node, index, removed,
    # added, direction): a repeated call, and the child mutated back at
    # the summand it brought in; neither computes a mutation
    ctx = any_ctx
    cold_ctx = build_context(make_weights(ctx.weights.weights))

    def cold(t, k):
        cold_ctx._complements.clear()
        return mutate(cold_ctx, t, k)

    searched = []
    real_complete = tilting._complete_mutation

    def complete_spy(ctx, t, k, ac_key):
        searched.append((t, k))
        return real_complete(ctx, t, k, ac_key)

    monkeypatch.setattr(tilting, "_complete_mutation", complete_spy)
    walk = random_walk(ctx, 6, seed=4100)
    for t in walk.nodes:
        for k in range(ctx.n):
            # each answer right after one computed mutation, so that
            # neither reads what the other entered
            ctx._complements.clear()
            t2, ev = mutate(ctx, t, k)
            j = t2.index_of(ev.added)
            searched.clear()
            back = mutate(ctx, t2, j)
            assert searched == []
            ctx._complements.clear()
            assert mutate(ctx, t, k) == (t2, ev)
            searched.clear()
            again = mutate(ctx, t, k)
            assert searched == []
            assert back[0] == t
            assert back == cold(t2, j)
            assert again == (t2, ev) == cold(t, k)


def test_mutate_rejects_a_third_complement():
    # the table holds two complements of T_can minus its summand 1, neither
    # of them T_1, so T_can would be a third; the fake is entered into the
    # context's table, so the context is the test's own
    ctx = build_context(make_weights((2, 2, 2, 2)))
    w = ctx.weights
    tc = t_can(ctx)
    t2, ev = mutate(ctx, tc, 1)
    others = tc.summands[:1] + tc.summands[2:]
    y = line_bundle_obj(ctx, l_add(c_gen(w), c_gen(w)))
    fake = make_tilting(ctx, others + (y,))
    key = tc.class_key()
    ac_key = key[:1] + key[2:]
    ctx._complements.clear()
    tilting._enter_complement(ctx, ac_key, t2, ev.added)
    tilting._enter_complement(ctx, ac_key, fake, y)
    with pytest.raises(InternalConsistencyError, match="three complements"):
        mutate(ctx, tc, 1)


def test_exchange_additivity(any_ctx):
    rng = random.Random(21)
    for trial in range(20):
        t = _walk(any_ctx, rng.randrange(1, 7), seed=600 + trial)
        k = rng.randrange(any_ctx.n)
        _, ev = mutate(any_ctx, t, k)
        coords = solve_int([s.cls.vec for s in t.summands], ev.approx_class.vec)
        assert coords is not None
        assert coords[k] == 0
        assert all(c >= 0 for c in coords)


def _box_hits(ctx, t, k):
    """Reference complement search: every class c = sum_i b_i [T_i] - [T_k]
    with 0 <= b_i <= max(hom(T_k, T_i), hom(T_i, T_k)) and chi(c, c) = 1,
    enumerated over the whole box with n-vector arithmetic."""
    tk = t.summands[k]
    others = tuple(o for i, o in enumerate(t.summands) if i != k)
    bounds = [max(hom_dim(ctx, tk, o), hom_dim(ctx, o, tk)) for o in others]
    vecs = [o.cls.vec for o in others]
    evs = [ctx.eb(v) for v in vecs]
    hits = []

    def rec(idx, c, w, q):
        if idx == len(others):
            if q == 1:
                hits.append(tuple(c))
            return
        rec(idx + 1, c, w, q)
        v, ev = vecs[idx], evs[idx]
        cc, ww, qq = c, w, q
        for _ in range(bounds[idx]):
            qq = qq + dot(cc, ev) + dot(v, ww) + 1
            cc = [a + b for a, b in zip(cc, v)]
            ww = [a + b for a, b in zip(ww, ev)]
            rec(idx + 1, cc, ww, qq)

    rec(0, [-x for x in tk.cls.vec], [-x for x in ctx.eb(tk.cls.vec)], 1)
    return hits


def _oracle_mutate(ctx, t, k):
    """`mutate` as a full box search that decodes every hit."""
    tk = t.summands[k]
    others = tuple(o for i, o in enumerate(t.summands) if i != k)
    survivors = []
    for cv in _box_hits(ctx, t, k):
        try:
            obj = exc_from_class(ctx, K0Class(cv))
        except (NotSheafLike, NotExceptionalHere):
            continue
        if all(ext_dim(ctx, obj, o) == 0 and ext_dim(ctx, o, obj) == 0 for o in others):
            survivors.append(obj)
    if not survivors:
        raise ComplementNotFound
    if len(survivors) > 1:
        raise ComplementNotUnique
    new = survivors[0]
    result = make_tilting(ctx, others + (new,))
    assert is_tilting(ctx, result)
    direction = "L" if ext_dim(ctx, new, tk) > 0 else "R"
    return result, MutationEvent(k, tk, new, direction)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_gram_roots_matches_full_box(data):
    m = data.draw(st.integers(0, 4))
    h_to = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    h_from = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    gram = [
        [1 if i == j else data.draw(st.integers(0, 2)) for j in range(m)]
        for i in range(m)
    ]
    ranks = data.draw(st.lists(st.integers(-2, 3), min_size=m, max_size=m))
    rank_k = data.draw(st.integers(-2, 3))

    def value(b):
        return sum((h_to[i] + h_from[i] - b[i]) * b[i] for i in range(m)) - sum(
            b[i] * b[j] * (gram[i][j] + gram[j][i])
            for i, j in itertools.combinations(range(m), 2)
        )

    def passes(b):
        return (
            sum(b[j] * ranks[j] for j in range(m)) >= rank_k
            and all(sum(b[j] * gram[i][j] for j in range(m)) >= h_from[i] for i in range(m))
            and all(sum(b[j] * gram[j][i] for j in range(m)) >= h_to[i] for i in range(m))
        )

    box = itertools.product(*(range(max(x, y) + 1) for x, y in zip(h_to, h_from)))
    want = [b for b in box if value(b) == 0 and passes(b)]
    assert _gram_roots(gram, h_to, h_from, ranks, rank_k) == want


def _box_roots(gram, h_to, h_from, ranks, rank_k):
    # every b of the box, tested one by one
    m = len(gram)
    sym = [[gram[i][j] + gram[j][i] for j in range(m)] for i in range(m)]
    cols = list(zip(*gram))

    def root(b):
        value = sum((h_to[i] + h_from[i] - b[i]) * b[i] for i in range(m))
        value -= sum(b[i] * b[j] * sym[i][j] for i in range(m) for j in range(i))
        return (
            value == 0
            and dot(b, ranks) >= rank_k
            and all(dot(b, gram[i]) >= h_from[i] and dot(b, cols[i]) >= h_to[i] for i in range(m))
        )

    box = itertools.product(*(range(max(x, y) + 1) for x, y in zip(h_to, h_from)))
    return [b for b in box if root(b)]


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_gram_roots_on_larger_boxes_matches_full_box(data):
    # the exchanges of the four types: up to 9 free summands, most of them
    # with one hom to or from T_k (bound 1), some with two (bound 2)
    m = data.draw(st.integers(0, 9))
    pairs = [(1, 0), (0, 1)] * 4 + [(1, 1), (2, 0), (0, 2), (2, 1), (1, 2)]
    twos = data.draw(st.integers(0, min(m, 2)))
    h = [data.draw(st.sampled_from(pairs[:8] if i >= twos else pairs[8:])) for i in range(m)]
    h = data.draw(st.permutations(h))
    h_to, h_from = [x for x, _ in h], [y for _, y in h]
    gram = [
        [1 if i == j else data.draw(st.sampled_from((0, 0, 0, 1, 1, 2))) for j in range(m)]
        for i in range(m)
    ]
    ranks = data.draw(st.lists(st.integers(-1, 3), min_size=m, max_size=m))
    rank_k = data.draw(st.integers(-1, 3))
    want = _box_roots(gram, h_to, h_from, ranks, rank_k)
    assert _gram_roots(gram, h_to, h_from, ranks, rank_k) == want


def test_gram_roots_past_a_hom_with_a_large_linear_term():
    # in the second root, b_3 follows b_0 = 1 across a hom, with s_3 = 5:
    # a = 5 - 1 = 4, and b_3 = 2 adds (4 - 2) 2 = 4 > s_3 - 2, which the
    # partial sum -4 of b_0..b_2 needs
    args = (
        [[1, 2, 2, 0], [0, 1, 2, 0], [0, 1, 1, 2], [1, 0, 2, 1]],
        [0, 0, 1, 2],
        [3, 3, 2, 3],
        [3, 3, 2, 2],
        -1,
    )
    assert _gram_roots(*args) == _box_roots(*args) == [(1, 0, 2, 0), (1, 3, 0, 2)]


def _oracle_bundle_walk(ctx, steps, seed):
    # random_walk(bundle_only=True) as it was before the fibre test: every
    # mutation is made, and one that leaves the bundles is passed over
    rng = random.Random(seed)
    t = t_can(ctx)
    for _ in range(steps):
        for k in rng.sample(range(ctx.n), ctx.n):
            t2 = mutate(ctx, t, k)[0]
            if is_bundle(t2):
                t = t2
                break
    return t


@pytest.mark.parametrize("ws", TUBULAR_TYPES, ids=lambda ws: ",".join(map(str, ws)))
def test_fibre_test_matches_mutation(ws):
    ctx = build_context(make_weights(ws))
    rng = random.Random(f"fibre/{ws}")
    ends = [t_can(ctx)]
    for steps in range(1, 33):
        seed = rng.randrange(1 << 30)
        end = _oracle_bundle_walk(ctx, steps, seed)
        # the fibre test skips mutations, not rng draws: the walk is unchanged
        assert random_walk(ctx, steps, seed, bundle_only=True).end == end
        ends.append(end)
    flagged = 0
    for t in ends:
        got = torsion_exchanges(ctx, t)
        assert got == tuple(not is_bundle(mutate(ctx, t, k)[0]) for k in range(ctx.n))
        flagged += sum(got)
    assert flagged > 0


@pytest.mark.parametrize("ws", TUBULAR_TYPES, ids=lambda ws: ",".join(map(str, ws)))
def test_simple_homs_match_the_euler_form(ws):
    ctx = build_context(make_weights(ws))
    e = ctx.euler
    fiber = [0] * ctx.n
    fiber[ctx.idx_f] = 1
    simples = []  # S_{i,0} = fiber - sum_j S_{i,j}, then S_{i,1}, ..., per tube
    for i, p_i in enumerate(ws):
        s0 = list(fiber)
        for j in range(1, p_i):
            s0[ctx.simple_index(i, j)] = -1
        simples.append(s0)
        for j in range(1, p_i):
            sj = [0] * ctx.n
            sj[ctx.simple_index(i, j)] = 1
            simples.append(sj)
    bundles = {s.cls.vec for s in t_can(ctx).summands}
    for seed in range(6):
        bundles |= {s.cls.vec for s in _walk(ctx, 4 + 4 * seed, seed, bundle_only=True).summands}
    homs = simple_homs(ctx)
    for vec in sorted(bundles):
        want = [
            sum(vec[u] * e[u][v] * sv[v] for u in range(ctx.n) for v in range(ctx.n))
            for sv in simples
        ]
        assert list(homs(vec)) == want
        assert min(want) >= 0 and sum(want) == vec[ctx.idx_o] * len(ws)


def _all_pairs_exchange_gram(ctx, tk, others):
    # the exchange Gram read over every ordered pair: hom(T_k, T_i) and
    # hom(T_i, T_k) for every other summand, and the whole m x m block
    hom = tilting.hom_dim
    free, h_to, h_from = [], [], []
    for o in others:
        to, fro = hom(ctx, tk, o), hom(ctx, o, tk)
        if to or fro:
            free.append(o)
            h_to.append(to)
            h_from.append(fro)
    gram = [[1 if x is y else hom(ctx, x, y) for y in free] for x in free]
    return free, gram, h_to, h_from


def _all_pairs_proposals(tk, free, gram, h_to, h_from):
    # the generic-rank multiplicities of both sides off the full Gram, as
    # classes: the left side if it has a map, the right if it has one and
    # differs from the left
    def multiplicities(h, rows):
        on = [i for i, x in enumerate(h) if x]
        b = [0] * len(h)
        for j in on:
            b[j] = max(0, 2 * h[j] - sum(h[i] * rows[j][i] for i in on))
        return b

    left = multiplicities(h_to, list(zip(*gram)))
    right = multiplicities(h_from, gram)
    sides = [left] if any(left) else []
    if any(right) and right != left:
        sides.append(right)
    return [_combination(tk, free, b) for b in sides]


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ws=st.sampled_from(TUBULAR_TYPES),
    steps=st.integers(0, 8),
    seed=st.integers(0, 10**6),
    bundle_only=st.booleans(),
    k=st.integers(0, 9),
)
def test_complement_search_matches_box_oracle(ws, steps, seed, bundle_only, k):
    ctx = context_for(ws)
    t = _walk(ctx, steps, seed, bundle_only)
    k %= ctx.n
    tk = t.summands[k]
    others = tuple(o for i, o in enumerate(t.summands) if i != k)
    free, gram, h_to, h_from = _all_pairs_exchange_gram(ctx, tk, others)
    ranks = [rank_of(ctx, o.cls) for o in free]
    roots = _gram_roots(gram, h_to, h_from, ranks, rank_of(ctx, tk.cls))
    pruned = set()
    for b in roots:
        vec = [-x for x in tk.cls.vec]
        for bj, o in zip(b, free):
            vec = [a + bj * x for a, x in zip(vec, o.cls.vec)]
        pruned.add(tuple(vec))
    assert len(pruned) == len(roots)

    def passes(cv):
        # the exchange filters on classes: rank(c) >= 0 and no forced ext,
        # chi(T_i, c) >= 0 and chi(c, T_i) >= 0, against every other summand
        c = K0Class(cv)
        return rank_of(ctx, c) >= 0 and all(
            chi(ctx, o.cls, c) >= 0 and chi(ctx, c, o.cls) >= 0 for o in others
        )

    assert pruned == {cv for cv in _box_hits(ctx, t, k) if passes(cv)}
    assert mutate(ctx, t, k) == _oracle_mutate(ctx, t, k)


# seeded walks of 8-32 steps, with and without bundle_only, for the tests
# of the proposed complements; (2,2,2,2) adds the CI end
_PROPOSAL_WALKS = [
    (steps, seed, bundle_only)
    for steps in (8, 16, 32)
    for seed in (1, 2, 3, 4)
    for bundle_only in (False, True)
]


def _mutation_sites(ctx):
    """Every (node, k) of the walks: each node once, each summand."""
    walks = [random_walk(ctx, *w) for w in _PROPOSAL_WALKS]
    if ctx.weights.weights == (2, 2, 2, 2):
        walks.append(random_walk(ctx, 64, 939671729, bundle_only=True))
    nodes = {t.class_key(): t for path in walks for t in path.nodes}
    return [(t, k) for t in nodes.values() for k in range(ctx.n)]


@pytest.mark.parametrize("ws", TUBULAR_TYPES, ids=lambda ws: ",".join(map(str, ws)))
def test_proposed_complements_match_the_search(ws, monkeypatch):
    # each cold mutation, answered from the proposals where one passes,
    # equals in full (node, index, removed, added, direction) the same
    # mutation with no proposal, which only the root search answers
    ctx = build_context(make_weights(ws))

    def cold(t, k, propose):
        ctx._complements.clear()
        with monkeypatch.context() as m:
            if not propose:
                m.setattr(tilting, "_proposed_classes", lambda *args: iter(()))
            return mutate(ctx, t, k)

    for t, k in _mutation_sites(ctx):
        assert cold(t, k, True) == cold(t, k, False)


@pytest.mark.parametrize("ws", TUBULAR_TYPES, ids=lambda ws: ",".join(map(str, ws)))
def test_most_cold_mutations_take_a_proposal(ws, monkeypatch):
    # a proposal that silently stopped passing would keep the results and
    # lose the speed: the root search runs on under 5% of cold mutations
    ctx = build_context(make_weights(ws))
    sites = _mutation_sites(ctx)
    searches = []
    real_candidates = tilting._candidate_classes

    def candidates_spy(*args):
        searches.append(args)
        return real_candidates(*args)

    monkeypatch.setattr(tilting, "_candidate_classes", candidates_spy)
    for t, k in sites:
        ctx._complements.clear()
        mutate(ctx, t, k)
    assert len(sites) > 100
    assert len(searches) < 0.05 * len(sites), (len(searches), len(sites))


@pytest.mark.parametrize("ws", TUBULAR_TYPES, ids=lambda ws: ",".join(map(str, ws)))
def test_slope_ordered_reads_match_the_all_pairs_reads(ws):
    # the exchange Gram reads one hom direction per pair, the proposals read
    # the homs among the other summands over their own support, and the
    # fallback's full Gram reads them in slope order; every value skipped
    # is 0, so all of them equal the reads of every ordered pair.  The full
    # Gram is compared on every site, the few where the search runs (none
    # on (2,2,2,2)) among them
    ctx = build_context(make_weights(ws))
    sites = _mutation_sites(ctx)
    for t, k in sites:
        tk = t.summands[k]
        others = t.summands[:k] + t.summands[k + 1 :]
        free, h_to, h_from = _exchange_gram(ctx, tk, others)
        want_free, gram, want_to, want_from = _all_pairs_exchange_gram(ctx, tk, others)
        assert (free, h_to, h_from) == (want_free, want_to, want_from)
        proposals = list(_proposed_classes(ctx, tk, free, h_to, h_from))
        assert proposals == _all_pairs_proposals(tk, free, gram, h_to, h_from)
        assert _full_gram(ctx, free) == gram
    # first and last objects skip the same pairs
    for t in {t.class_key(): t for t, _ in sites}.values():
        s, n = t.summands, ctx.n
        homs = [[hom_dim(ctx, x, y) for y in s] for x in s]
        firsts = tuple(k for k in range(n) if not any(homs[i][k] for i in range(n) if i != k))
        lasts = tuple(k for k in range(n) if not any(homs[k][i] for i in range(n) if i != k))
        assert (first_objects(ctx, t), last_objects(ctx, t)) == (firsts, lasts)


def test_explore_reads_under_55_percent_of_the_all_pairs_homs(monkeypatch):
    # reads that silently went back to every ordered pair would keep the
    # results and lose the speed: one BFS of cold mutations reads at most
    # 55% of the homs that the all-pairs exchange Gram reads on its sites
    ctx = build_context(make_weights((2, 3, 6)))
    start = _walk(ctx, 6, 1, bundle_only=True)
    lo, hi = slope_range(ctx, start)
    reads = []
    hom = tilting.hom_dim
    monkeypatch.setattr(tilting, "hom_dim", lambda *args: reads.append(args) or hom(*args))
    sites = []
    exchange_gram = tilting._exchange_gram

    def exchange_gram_spy(ctx, tk, others):
        sites.append((tk, others))
        return exchange_gram(ctx, tk, others)

    monkeypatch.setattr(tilting, "_exchange_gram", exchange_gram_spy)
    nodes, _ = explore_graph(
        ctx, start, Slope(lo.floor() - 1, 1), Slope(hi.floor() + 2, 1), max_nodes=24
    )
    got = len(reads)
    reads.clear()
    for tk, others in sites:
        _all_pairs_exchange_gram(ctx, tk, others)
    assert len(nodes) == 24 and len(sites) > 20
    assert got <= 0.55 * len(reads), (got, len(reads))


@pytest.mark.parametrize(
    "ws, steps, seed, bundle_only, k, direction",
    [
        # the left proposal decodes but has an ext with another summand
        ((2, 3, 6), 8, 4, False, 0, "L"),
        # neither proposal is a sheaf class
        ((3, 3, 3), 16, 9, True, 4, "L"),
        # one search each over a 192-point box, the largest box of the
        # searches on the long-walk tail ends
        ((3, 3, 3), 24, 16, True, 4, "L"),
        ((2, 4, 4), 24, 2, True, 0, "L"),
    ],
)
def test_a_failed_proposal_falls_back_to_the_search(
    ws, steps, seed, bundle_only, k, direction, monkeypatch
):
    # T_k has a two-dimensional hom to a summand, where the generic-rank
    # multiplicities miss; the root search answers, as the box oracle does
    ctx = build_context(make_weights(ws))
    t = _walk(ctx, steps, seed, bundle_only)
    ctx._complements.clear()
    searches = []
    real_candidates = tilting._candidate_classes

    def candidates_spy(*args):
        searches.append(args)
        return real_candidates(*args)

    monkeypatch.setattr(tilting, "_candidate_classes", candidates_spy)
    got = mutate(ctx, t, k)
    assert len(searches) == 1
    assert got == _oracle_mutate(ctx, t, k)
    assert got[1].direction == direction


def test_insert_summand_matches_make_tilting(any_ctx):
    # the complement goes in at the place make_tilting's sort gives it, and
    # a summand that is already there is a duplicate wherever it lands
    t = _walk(any_ctx, 6, 11)
    for k in range(any_ctx.n):
        others = t.summands[:k] + t.summands[k + 1 :]
        assert _insert_summand(others, t.summands[k]) == t
        for o in others:
            with pytest.raises(DuplicateSummands):
                _insert_summand(others, o)


def test_apr_mutation(ctx2222):
    tc = t_can(ctx2222)
    w = ctx2222.weights
    i_o = tc.index_of(line_bundle_obj(ctx2222, l_zero(w)))
    t2, ev = apr_mutate(ctx2222, tc, i_o)
    assert Slope(0, 1) <= ev.added.slope <= Slope(2, 1)
    assert is_bundle(t2)
    i_x1 = tc.index_of(line_bundle_obj(ctx2222, x_gen(w, 0)))
    with pytest.raises(NotFirstObject):
        apr_mutate(ctx2222, tc, i_x1)


def test_co_apr_mutation(ctx2222):
    tc = t_can(ctx2222)
    w = ctx2222.weights
    i_c = tc.index_of(line_bundle_obj(ctx2222, c_gen(w)))
    t2, ev = co_apr_mutate(ctx2222, tc, i_c)
    assert ev.added.slope == Slope(2, 3)
    assert is_bundle(t2)
    with pytest.raises(NotLastObject):
        co_apr_mutate(ctx2222, tc, tc.index_of(line_bundle_obj(ctx2222, l_zero(w))))


def test_apr_closure_on_bundles(any_ctx):
    rng = random.Random(22)
    for trial in range(10):
        t = _walk(any_ctx, rng.randrange(1, 6), seed=700 + trial, bundle_only=True)
        for k in first_objects(any_ctx, t):
            t2, _ = apr_mutate(any_ctx, t, k)
            assert is_bundle(t2)
        for k in last_objects(any_ctx, t):
            t2, _ = co_apr_mutate(any_ctx, t, k)
            assert is_bundle(t2)


def test_purge_identity_on_bundles(ctx2222):
    tc = t_can(ctx2222)
    t2, events = purge_torsion(ctx2222, tc)
    assert t2 == tc
    assert events == []


def test_purge_reaches_bundle(any_ctx):
    rng = random.Random(23)
    found = 0
    for trial in range(60):
        t = _walk(any_ctx, rng.randrange(2, 8), seed=800 + trial)
        torsion = sum(1 for s in t.summands if s.slope.is_infinite)
        if torsion == 0:
            continue
        found += 1
        bundle, events = purge_torsion(any_ctx, t)
        assert is_bundle(bundle)
        assert len(events) == torsion
        assert all(not ev.added.slope.is_infinite for ev in events)
        if found >= 8:
            break
    assert found > 0


def test_purge_single_torsion_changes_slope(ctx2222):
    # mutating the single torsion summand must leave the infinite slope
    tc = t_can(ctx2222)
    w = ctx2222.weights
    i_x1 = tc.index_of(line_bundle_obj(ctx2222, x_gen(w, 0)))
    t2, ev = mutate(ctx2222, tc, i_x1)
    assert ev.added.slope == INF  # the known torsion complement
    bundle, events = purge_torsion(ctx2222, t2)
    assert len(events) == 1
    assert not events[0].added.slope.is_infinite


def test_find_full_period(any_ctx):
    tc = t_can(any_ctx)
    k = find_full_period_quasi_simple(any_ctx, tc)
    s = tc.summands[k]
    assert s.len == 1
    assert len(chart_for(any_ctx, s.slope).orbits[s.orbit]) == any_ctx.p


def test_find_full_period_failure_path(ctx244):
    # corrupted input: a fake record whose summands live in short orbits
    from tubtilt.tilting import TiltingObject

    chart = chart_for(ctx244, INF)
    small = next(i for i, orbit in enumerate(chart.orbits) if len(orbit) == 2)
    big = next(i for i, orbit in enumerate(chart.orbits) if len(orbit) == 4)
    objs = [
        ExcObject(window_class(chart, small, 0, 1), INF, small, 0, 1),
        ExcObject(window_class(chart, big, 0, 2), INF, big, 0, 2),
    ]
    fake = TiltingObject(tuple(objs))
    with pytest.raises(NoFullPeriodSummand):
        find_full_period_quasi_simple(ctx244, fake)


def test_line_bundle_dichotomy_sampled(any_ctx):
    # every line bundle of degree m, for m within p of the slope range:
    # its x-part on the first t - 1 tubes is free, and the coefficient of
    # x_t, of degree 1 since p_t = p, makes up the degree
    rng = random.Random(24)
    w = any_ctx.weights
    assert w.weights[-1] == w.p
    heads = list(itertools.product(*(range(p_i) for p_i in w.weights[:-1])))
    for trial in range(40):
        t = _walk(any_ctx, rng.randrange(1, 9), seed=900 + trial, bundle_only=True)
        lo, hi = slope_range(any_ctx, t)
        for m in range(lo.floor() - w.p, hi.floor() + w.p + 1):
            for head in heads:
                x = l_normalize(w, head + (0,), 0)
                lb_x = l_normalize(w, head + (m - delta(x),), 0)
                assert delta(lb_x) == m
                lb = line_bundle_obj(any_ctx, lb_x)
                has_ext = any(ext_dim(any_ctx, s, lb) for s in t.summands)
                has_hom = any(hom_dim(any_ctx, s, lb) for s in t.summands)
                assert not (has_ext and has_hom), (t.class_key(), lb_x)

import hashlib
import heapq
import logging
import random
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tubtilt import connect, tilting
from tubtilt.connect import (
    FareyStep,
    MutationPath,
    SearchBudget,
    _range_integer,
    completion_containing,
    connect_pair,
    connect_shared,
    connect_to_canonical,
    extend_abcd,
    explore_graph,
    find_companion,
    integerize,
    random_walk,
    shorten_path,
    verify_path,
)
from tubtilt.errors import (
    BasisMismatch,
    BudgetExhausted,
    InternalConsistencyError,
    PreconditionError,
)
from tubtilt.intmat import det as int_det
from tubtilt.intmat import mat_vec
from tubtilt.k0 import K0Class, build_context, line_bundle_class, rank_of
from tubtilt.slopes import INF, Slope
from tubtilt.tilting import (
    MutationEvent,
    TiltingObject,
    is_bundle,
    is_tilting,
    make_tilting,
    mutate,
    slope_range,
    t_can,
)
from tubtilt.tubes import (
    ExcObject,
    chart_for,
    exc_from_class,
    ext_dim,
    hom_dim,
    line_bundle_obj,
    orbit_rank,
)
from tubtilt.verify import context_for
from tubtilt.weights import (
    TUBULAR_TYPES,
    LElement,
    c_gen,
    make_weights,
    l_add,
    l_neg,
    l_normalize,
    l_zero,
    x_gen,
)


def tau_obj(ctx, x):
    """tau x, one socle position down in its tube."""
    r = orbit_rank(ctx, x)
    return ExcObject(
        K0Class(mat_vec(ctx.tau, x.cls.vec)), x.slope, x.orbit, (x.socle - 1) % r, x.len
    )


def test_extend_abcd_examples():
    assert (extend_abcd(1, 2).c, extend_abcd(1, 2).d) == (1, 1)
    assert (extend_abcd(3, 5).c, extend_abcd(3, 5).d) == (2, 3)
    assert (extend_abcd(5, 7).c, extend_abcd(5, 7).d) == (3, 4)


def test_extend_abcd_exhaustive_small():
    for b in range(2, 60):
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            s = extend_abcd(a, b)
            assert s.b * s.c - s.a * s.d == 1
            assert 0 < s.c <= s.d < s.b
            assert s.c <= s.a


def test_extend_abcd_descent_terminates():
    a, b = 3, 5
    dens = [b]
    while a != b:
        s = extend_abcd(a, b)
        a, b = s.c, s.d
        dens.append(b)
    assert dens == sorted(dens, reverse=True)
    assert dens[-1] == 1


def test_extend_abcd_preconditions():
    with pytest.raises(PreconditionError):
        extend_abcd(0, 1)
    with pytest.raises(PreconditionError):
        extend_abcd(2, 4)
    with pytest.raises(PreconditionError):
        extend_abcd(3, 2)


def test_farey_step_validation():
    with pytest.raises(ValueError):
        FareyStep(3, 5, 1, 1)


def test_find_companion_2222(ctx2222):
    # a quasi-simple of full period at slope 1/2
    from tubtilt.tubes import chart_for

    chart = chart_for(ctx2222, Slope(1, 2))
    from tubtilt.tubes import ExcObject

    x = ExcObject(chart.orbits[0][0], Slope(1, 2), 0, 0, 1)
    step = extend_abcd(1, 2)
    target = Slope(0 * step.d + step.c, step.d)
    assert target == Slope(1, 1)
    y = find_companion(ctx2222, x, target)
    assert y.slope == Slope(1, 1)
    assert y.slope > x.slope
    from tubtilt.tubes import ext_dim

    assert ext_dim(ctx2222, x, y) == 0 and ext_dim(ctx2222, y, x) == 0


def test_completion_contains_seed(any_ctx):
    o = line_bundle_obj(any_ctx, l_zero(any_ctx.weights))
    t = completion_containing(any_ctx, [o])
    assert is_bundle(t)
    assert o.cls.vec in set(t.class_key())


def test_completion_of_walk_end_seeds(any_ctx):
    # the summands of a tilting bundle are pairwise ext-orthogonal bundles,
    # so any 1-3 of them form a valid seed that must complete
    rng = random.Random(5)
    for trial in range(10):
        end = random_walk(any_ctx, rng.randrange(1, 9), seed=7000 + trial, bundle_only=True).end
        for k in (1, 2, 3):
            seed = rng.sample(end.summands, k)
            t = completion_containing(any_ctx, seed)
            assert is_bundle(t) and is_tilting(any_ctx, t)
            assert {x.cls.vec for x in seed} <= set(t.class_key())


def test_completion_rejects_bad_seed(ctx2222):
    o = line_bundle_obj(ctx2222, l_zero(ctx2222.weights))
    with pytest.raises(PreconditionError):
        completion_containing(ctx2222, [o, tau_obj(ctx2222, o)])
    torsion = exc_from_class(ctx2222, K0Class((0, 1, 0, 0, 0, 0)))
    with pytest.raises(PreconditionError):
        completion_containing(ctx2222, [torsion])
    with pytest.raises(PreconditionError):
        completion_containing(ctx2222, [])


def test_completion_of_farey_neighbour_seeds(ctx2222):
    # nothing of denominator below 131 lies strictly between 19/83 and 11/48,
    # so the pool rounds fail and the mediant round finds the completion
    q = Slope(19, 83)
    x = ExcObject(chart_for(ctx2222, q).orbits[0][0], q, 0, 0, 1)
    step = extend_abcd(19, 83)
    y = find_companion(ctx2222, x, Slope(step.c, step.d))
    assert y.slope == Slope(11, 48)
    t = completion_containing(ctx2222, [x, y])
    assert is_bundle(t) and is_tilting(ctx2222, t)
    assert {x.cls.vec, y.cls.vec} <= set(t.class_key())
    assert Slope(30, 131) in {s.slope for s in t.summands}


def test_completion_failure_names_the_seed(ctx2222, monkeypatch):
    o = line_bundle_obj(ctx2222, l_zero(ctx2222.weights))
    monkeypatch.setattr(connect, "_complete_dfs", lambda ctx, seed, pool, clock: None)
    with pytest.raises(InternalConsistencyError, match="seed slopes 0"):
        completion_containing(ctx2222, [o])


def test_connect_shared_identity(ctx2222):
    tc = t_can(ctx2222)
    o = line_bundle_obj(ctx2222, l_zero(ctx2222.weights))
    path = connect_shared(ctx2222, tc, tc, o)
    assert len(path.nodes) == 1


def test_connect_shared_one_step(ctx2222):
    from tubtilt.tilting import mutate

    tc = t_can(ctx2222)
    o = line_bundle_obj(ctx2222, l_zero(ctx2222.weights))
    i_c = tc.index_of(line_bundle_obj(ctx2222, c_gen(ctx2222.weights)))
    t2, _ = mutate(ctx2222, tc, i_c)
    path = connect_shared(ctx2222, tc, t2, o)
    assert len(path.nodes) == 2
    assert verify_path(ctx2222, path)


def test_connect_shared_twisted_canonical(ctx2222):
    w = ctx2222.weights
    tc = t_can(ctx2222)
    tct = t_can(ctx2222, x_gen(w, 3))
    shared = line_bundle_obj(ctx2222, x_gen(w, 3))
    path = connect_shared(ctx2222, tc, tct, shared)
    assert verify_path(ctx2222, path)
    assert path.bundle_only
    assert all(shared.cls.vec in node.class_key() for node in path.nodes)


# -- the paper's route to T_can, kept as the oracle of the direct search ---------


def _line_bundle_element(ctx, obj):
    """Recover the twist element of a line-bundle summand from its class."""
    w = ctx.weights
    vec = obj.cls.vec
    if vec[ctx.idx_o] != 1:
        raise PreconditionError("not a line bundle class")
    coeffs = []
    for i, p_i in enumerate(w.weights):
        block = [vec[ctx.simple_index(i, j)] for j in range(1, p_i)]
        a_i = 0
        while a_i < len(block) and block[a_i] == 1:
            a_i += 1
        if any(block[a_i:]):
            raise PreconditionError("not a line bundle class")
        coeffs.append(a_i)
    elt = LElement(w, tuple(coeffs), vec[ctx.idx_f])
    if line_bundle_class(ctx, elt).vec != vec:
        raise PreconditionError("not a line bundle class")
    return elt


def _twist_chain(ctx, start_elt, clock):
    """Path from the canonical bundle twisted by start_elt down to T_can.

    Adjacent twisted canonicals share a line bundle, so each step is a
    shared-summand connection; steps lower the coefficients of the
    twist element toward zero and terminate.
    """
    w = ctx.weights
    e = start_elt
    path = MutationPath.single(t_can(ctx, e))
    while e:
        if e.c < 0:
            e2 = l_add(e, x_gen(w, w.t - 1))
            shared_elt = e2
        elif any(e.coeffs):
            i = max(i for i, a in enumerate(e.coeffs) if a > 0)
            e2 = l_add(e, l_neg(x_gen(w, i)))
            shared_elt = e
        else:
            e2 = l_add(e, l_neg(x_gen(w, w.t - 1)))
            shared_elt = e
        shared = line_bundle_obj(ctx, shared_elt)
        path = path.concat(
            connect.connect_shared(ctx, path.end, t_can(ctx, e2), shared, clock)
        )
        e = e2
    return path


def _paper_route(ctx, t, clock):
    """The paper's route from t to T_can, before shortening: Farey descent,
    a slide to a bundle holding a line bundle, a slide to the twisted
    canonical bundle of that line bundle, then the twist chain."""
    if not is_bundle(t):
        raise PreconditionError("input must be a tilting bundle")
    if t.class_key() == t_can(ctx).class_key():
        return MutationPath.single(t)

    path = MutationPath.single(t)
    if _range_integer(ctx, t) is None:
        path = connect.integerize(ctx, t, clock)
    cur = path.end

    line = next(
        (s for s in cur.summands if s.len == 1 and rank_of(ctx, s.cls) == 1), None
    )
    if line is None:
        m = _range_integer(ctx, cur)
        if m is None:
            raise InternalConsistencyError("integerize left no integer in range")
        w = ctx.weights
        lobj = line_bundle_obj(ctx, l_normalize(w, (0,) * (w.t - 1) + (m,), 0))  # O(m x_t)
        if all(ext_dim(ctx, s, lobj) == 0 for s in cur.summands):
            pick_high = True
        elif all(hom_dim(ctx, s, lobj) == 0 for s in cur.summands):
            # Ext vanishes against the inverse translate instead.
            lobj = exc_from_class(ctx, K0Class(mat_vec(ctx.tau_inv, lobj.cls.vec)))
            pick_high = False
        else:
            raise InternalConsistencyError("line-bundle dichotomy failed")
        x = _dichotomy_partner(ctx, cur, lobj, pick_high)
        t2 = completion_containing(ctx, [x, lobj], clock)
        path = path.concat(connect.connect_shared(ctx, cur, t2, x, clock))
        cur = path.end
        line = lobj

    elt = _line_bundle_element(ctx, line)
    path = path.concat(connect.connect_shared(ctx, cur, t_can(ctx, elt), line, clock))
    return path.concat(_twist_chain(ctx, elt, clock))


def _dichotomy_partner(ctx, t, lobj, pick_high):
    """Quasi-simple summand forming a rigid pair with the chosen line bundle."""
    for s in t.summands:
        if s.len != 1:
            continue
        if pick_high and s.slope < lobj.slope:
            continue
        if not pick_high and s.slope > lobj.slope:
            continue
        if ext_dim(ctx, s, lobj) == 0 and ext_dim(ctx, lobj, s) == 0:
            return s
    raise InternalConsistencyError("no rigid partner for the line bundle")


def _oracle_route(ctx, t):
    return _paper_route(ctx, t, connect._Clock(SearchBudget()))


def test_paper_route_reaches_the_hom_branch(ctx244):
    # a (2,4,4) end with 2 in its slope range and no line-bundle summand,
    # some summand of which has Ext into O(2 x_3): the oracle replaces that
    # line bundle by its tau-inverse (found by a seeded search over bundle
    # walks of 1-40 steps; (2,2,2,2) and (3,3,3) gave no such end)
    ctx = ctx244
    end = random_walk(ctx, 24, 584267441, bundle_only=True).end
    assert _range_integer(ctx, end) == 2
    assert not any(s.len == 1 and rank_of(ctx, s.cls) == 1 for s in end.summands)
    w = ctx.weights
    lobj = line_bundle_obj(ctx, l_normalize(w, (0,) * (w.t - 1) + (2,), 0))
    assert any(ext_dim(ctx, s, lobj) for s in end.summands)
    assert not any(hom_dim(ctx, s, lobj) for s in end.summands)
    path = _oracle_route(ctx, end)
    assert path.end.class_key() == t_can(ctx).class_key()
    assert verify_path(ctx, path)


# -- the search against the eager node frontier it replaced ---------------------


def _eager_neighbors(ctx, t, fixed_vec, clock):
    for k, s in enumerate(t.summands):
        if s.cls.vec == fixed_vec:
            continue
        clock.tick()
        t2, ev = mutate(ctx, t, k)
        if not is_bundle(t2):
            continue
        yield t2, ev


def _reconstruct(parents, start_key, end_key, states):
    chain = []
    key = end_key
    while key != start_key:
        prev_key, ev = parents[key]
        chain.append((states[key], ev))
        key = prev_key
    path = MutationPath.single(states[start_key])
    for node, ev in reversed(chain):
        path.extend(node, ev)
    return path


def _eager_best_first(ctx, start, fixed_vec, clock, priority, is_goal):
    """The oracle: a frontier of nodes, every child mutated when its parent
    is expanded and goal-tested when it is generated."""
    if is_goal(start):
        return MutationPath.single(start)
    start_key = start.class_key()
    states = {start_key: start}
    parents = {}
    depth = {start_key: 0}
    counter = 0
    heap = [(priority(start, 0), counter, start_key)]
    while heap:
        _, _, key = heapq.heappop(heap)
        g = depth[key]
        for t2, ev in _eager_neighbors(ctx, states[key], fixed_vec, clock):
            k2 = t2.class_key()
            if k2 in depth and depth[k2] <= g + 1:
                continue
            depth[k2] = g + 1
            states[k2] = t2
            parents[k2] = (key, ev)
            if is_goal(t2):
                return _reconstruct(parents, start_key, k2, states)
            counter += 1
            heapq.heappush(heap, (priority(t2, g + 1), counter, k2))
    raise BudgetExhausted("best-first search frontier emptied unexpectedly")


def _eager_stratum_path(ctx, a, b, fixed_vec, clock):
    """connect._stratum_path's order and goal on the eager node frontier."""
    goal_key = b.class_key()
    target = set(goal_key)

    def priority(node, depth):
        h = sum(1 for v in node.class_key() if v not in target)
        return (depth + connect._STRATUM_WEIGHT * h, -depth)

    return _eager_best_first(
        ctx, a, fixed_vec, clock, priority, lambda node: node.class_key() == goal_key
    )


def _events(path):
    return [(ev.index, ev.removed.cls.vec, ev.added.cls.vec) for ev in path.events]


def test_stratum_search_matches_the_eager_oracle(any_ctx, monkeypatch):
    # every connect_shared call of the paper's route, and every direct
    # search of connect_to_canonical, from 1-16-step walk ends
    rng = random.Random(23)
    calls = []
    real_shared, real_search = connect.connect_shared, connect._stratum_path

    def spy_shared(ctx, t, t2, shared, budget=connect.DEFAULT_BUDGET):
        calls.append((t, t2, shared.cls.vec))
        return real_shared(ctx, t, t2, shared, budget)

    def spy_search(ctx, a, b, fixed_vec, clock):
        if fixed_vec is None:
            calls.append((a, b, None))
        return real_search(ctx, a, b, fixed_vec, clock)

    with monkeypatch.context() as m:
        m.setattr(connect, "connect_shared", spy_shared)
        m.setattr(connect, "_stratum_path", spy_search)
        for steps in (1, 3, 5, 7, 9, 11, 13, 16):
            end = random_walk(any_ctx, steps, rng.randrange(10**6), bundle_only=True).end
            _oracle_route(any_ctx, end)
            connect_to_canonical(any_ctx, end)
    assert len(calls) >= 8
    assert sum(fixed is None for _, _, fixed in calls) == 8
    for t, t2, fixed in calls:
        lazy = connect._stratum_path(any_ctx, t, t2, fixed, connect._Clock(SearchBudget()))
        eager = _eager_stratum_path(any_ctx, t, t2, fixed, connect._Clock(SearchBudget()))
        assert _events(lazy) == _events(eager)


def _stratum_target(ctx, node, fixed_vec, moves, rng):
    """The end of a bundle walk from node that never mutates fixed_vec."""
    target = node
    for _ in range(moves):
        ks = [k for k, s in enumerate(target.summands) if s.cls.vec != fixed_vec]
        rng.shuffle(ks)
        for k in ks:
            t2, _ = mutate(ctx, target, k)
            if is_bundle(t2):
                target = t2
                break
    return target


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ws=st.sampled_from(TUBULAR_TYPES),
    steps=st.integers(0, 10),
    moves=st.integers(1, 8),
    seed=st.integers(0, 10**6),
)
def test_mutation_forecast_matches_mutate(ws, steps, moves, seed):
    ctx = context_for(ws)
    rng = random.Random(seed)
    node = random_walk(ctx, steps, seed, bundle_only=True).end
    fixed_vec = rng.choice(node.summands).cls.vec
    target = _stratum_target(ctx, node, fixed_vec, moves, rng)
    in_target = set(target.class_key())

    def h(t):
        return sum(1 for v in t.class_key() if v not in in_target)

    child_h, gains = connect._mutation_forecast(ctx, node, target)
    for k in range(ctx.n):
        child, ev = mutate(ctx, node, k)
        assert child_h[k] == h(child)
        if child_h[k] < h(node):
            assert ev.added.cls.vec == gains[k].cls.vec
        else:
            assert k not in gains


def test_wrong_forecast_is_caught(ctx2222, monkeypatch):
    w = ctx2222.weights
    shared = line_bundle_obj(ctx2222, x_gen(w, 3))
    tc, tct = t_can(ctx2222), t_can(ctx2222, x_gen(w, 3))
    real = connect._mutation_forecast

    def flat(ctx, node, target):
        # every mutation predicted to keep h
        child_h, _ = real(ctx, node, target)
        h = sum(1 for s in node.summands if s.cls.vec not in set(target.class_key()))
        return [h] * len(child_h), {}

    monkeypatch.setattr(connect, "_mutation_forecast", flat)
    with pytest.raises(InternalConsistencyError, match="forecast"):
        connect_shared(ctx2222, tc, tct, shared)


def _forecast_children(ctx, ends, monkeypatch):
    """Connect each end to T_can with spies on the stratum search, and
    assert that no `mutate` call of a search is at a summand for which
    the forecast named a complement.  Returns every child the search made
    from a forecast complement, as (fixed_vec, node, k, child, event)."""
    real_search = connect._stratum_path
    real_forecast = connect._mutation_forecast
    real_child = connect._forecast_child
    real_mutate = connect.mutate
    running = []  # (goal key, fixed_vec) of the search under way
    gains = {}  # (node key, goal key, k) -> the forecast complement
    derived = []

    def search(ctx, a, b, fixed_vec, clock):
        running.append((b.class_key(), fixed_vec))
        try:
            return real_search(ctx, a, b, fixed_vec, clock)
        finally:
            running.pop()

    def forecast(ctx, node, target):
        child_h, got = real_forecast(ctx, node, target)
        for k, z in got.items():
            gains[node.class_key(), target.class_key(), k] = z
        return child_h, got

    def spy_mutate(ctx, t, k):
        if running:
            assert (t.class_key(), running[-1][0], k) not in gains
        return real_mutate(ctx, t, k)

    def child(ctx, node, k, z):
        goal, fixed_vec = running[-1]
        assert gains[node.class_key(), goal, k] == z
        t2, ev = real_child(ctx, node, k, z)
        derived.append((fixed_vec, node, k, t2, ev))
        return t2, ev

    with monkeypatch.context() as m:
        m.setattr(connect, "_stratum_path", search)
        m.setattr(connect, "_mutation_forecast", forecast)
        m.setattr(connect, "_forecast_child", child)
        m.setattr(connect, "mutate", spy_mutate)
        for end in ends:
            path = connect_to_canonical(ctx, end)
            assert path.end.class_key() == t_can(ctx).class_key()
    for _, node, k, t2, ev in derived:
        assert (t2, ev) == mutate(ctx, node, k)
    return derived


def test_gain_moves_take_the_forecast_complement(any_ctx, monkeypatch):
    rng = random.Random(18)
    ends = [
        random_walk(any_ctx, steps, rng.randrange(10**6), bundle_only=True).end
        for steps in (1, 2, 3, 5, 8, 11, 13, 16)
    ]
    assert _forecast_children(any_ctx, ends, monkeypatch)


def test_farey_descent_legs_take_the_forecast_complement(ctx2222, monkeypatch):
    # an end that needs integerize, whose connect_shared legs fix a summand
    end = next(_no_integer_ends(ctx2222))
    derived = _forecast_children(ctx2222, [end], monkeypatch)
    assert any(fixed_vec is not None for fixed_vec, *_ in derived)


@pytest.mark.parametrize("wrong", ["kept summand", "unrigid summand"])
def test_wrong_forecast_complement_is_caught(ctx2222, monkeypatch, wrong):
    # one gain names a target summand that is not the complement: a
    # summand the node keeps, which the direction check catches, or a
    # target summand with ext against two summands of the node, which the
    # rigidity check catches before the forecast priority check would
    w = ctx2222.weights
    shared = line_bundle_obj(ctx2222, x_gen(w, 3))
    tc, tct = t_can(ctx2222), t_can(ctx2222, x_gen(w, 3))
    real = connect._mutation_forecast

    def bad(ctx, node, target):
        child_h, gains = real(ctx, node, target)
        if wrong == "kept summand":
            for k in sorted(gains)[:1]:
                gains[k] = shared
            return child_h, gains
        node_vecs = set(node.class_key())
        for z in target.summands:
            hits = [
                k
                for k, s in enumerate(node.summands)
                if ext_dim(ctx, z, s) or ext_dim(ctx, s, z)
            ]
            if z.cls.vec not in node_vecs and len(hits) >= 2:
                gains[hits[0]] = z
                break
        return child_h, gains

    monkeypatch.setattr(connect, "_mutation_forecast", bad)
    with pytest.raises(InternalConsistencyError, match="forecast complement"):
        connect_shared(ctx2222, tc, tct, shared)


def test_connect_shared_preconditions(ctx2222):
    tc = t_can(ctx2222)
    foreign = line_bundle_obj(ctx2222, x_gen(ctx2222.weights, 0) + x_gen(ctx2222.weights, 1))
    with pytest.raises(PreconditionError):
        connect_shared(ctx2222, tc, tc, foreign)


def _no_integer_ends(ctx, tries=120):
    """Seeded bundle walk ends whose slope range holds no integer."""
    for seed in range(tries):
        for steps in (6, 7, 8):
            walk = random_walk(ctx, steps, seed=seed, bundle_only=True)
            if _range_integer(ctx, walk.end) is None:
                yield walk.end


def test_integerize(ctx2222):
    t = next(_no_integer_ends(ctx2222), None)
    assert t is not None, "no fixture with integer-free slope range found"
    path = integerize(ctx2222, t)
    assert verify_path(ctx2222, path)
    assert path.bundle_only
    assert _range_integer(ctx2222, path.end) is not None


def test_integerize_rejects_integer_ranges(ctx2222):
    with pytest.raises(PreconditionError):
        integerize(ctx2222, t_can(ctx2222))


def test_denominator_descent_sequence():
    a, b = 3, 5
    seq = [(a, b)]
    while a != b:
        s = extend_abcd(a, b)
        a, b = s.c, s.d
        seq.append((a, b))
    assert [d for _, d in seq] == [5, 3, 1]


def test_connect_to_canonical_trivial(any_ctx):
    path = connect_to_canonical(any_ctx, t_can(any_ctx))
    assert len(path.nodes) == 1
    assert verify_path(any_ctx, path)


def test_connect_to_canonical_twisted(ctx2222):
    t = t_can(ctx2222, x_gen(ctx2222.weights, 3))
    path = connect_to_canonical(ctx2222, t)
    assert len(path.nodes) > 1
    assert verify_path(ctx2222, path)
    assert verify_path(ctx2222, path.reversed())
    assert path.bundle_only
    assert path.end == t_can(ctx2222)


def test_connect_to_canonical_walks(any_ctx):
    rng = random.Random(33)
    for trial in range(3):
        walk = random_walk(
            any_ctx, 1 + rng.randrange(6), seed=3000 + trial, bundle_only=True
        )
        path = connect_to_canonical(any_ctx, walk.end)
        assert verify_path(any_ctx, path)
        assert verify_path(any_ctx, path.reversed())
        assert path.bundle_only


def test_walks_with_torsion_verify_both_ways(any_ctx):
    # reversed() flips every direction, and verify_path checks it against ext
    walks = [random_walk(any_ctx, 6, seed=5100 + seed) for seed in range(6)]
    assert not all(w.bundle_only for w in walks)
    for walk in walks:
        assert verify_path(any_ctx, walk)
        assert verify_path(any_ctx, walk.reversed())


def test_connect_to_canonical_rejects_torsion(ctx2222):
    rng = random.Random(34)
    for seed in range(40):
        walk = random_walk(ctx2222, 4, seed=4000 + seed)
        if not is_bundle(walk.end):
            with pytest.raises(PreconditionError):
                connect_to_canonical(ctx2222, walk.end)
            for a, b in ((t_can(ctx2222), walk.end), (walk.end, t_can(ctx2222))):
                with pytest.raises(PreconditionError):
                    connect_pair(ctx2222, a, b)
            return
    pytest.skip("no torsion fixture found")


def test_connect_pair(ctx2222):
    a = t_can(ctx2222, x_gen(ctx2222.weights, 0))
    b = t_can(ctx2222, x_gen(ctx2222.weights, 3))
    path = connect_pair(ctx2222, a, b)
    assert verify_path(ctx2222, path)
    assert path.nodes[0] == a
    assert path.end == b


def test_connect_pair_with_integer_free_ends(ctx2222):
    # both ends are integerized first, then searched between
    ends = _no_integer_ends(ctx2222)
    a = next(ends)
    b = next(t for t in ends if t.class_key() != a.class_key())
    path = connect_pair(ctx2222, a, b)
    assert path.nodes[0].class_key() == a.class_key()
    assert path.end.class_key() == b.class_key()
    assert path.bundle_only
    assert verify_path(ctx2222, path)
    assert verify_path(ctx2222, path.reversed())


# Deep (2,2,2,2) walk ends whose Farey descent completes seeds at Farey
# neighbour slopes (19/83 and 11/48 on the first), which only the mediant
# round of completion_containing can do.
FAREY_NEIGHBOUR_ENDS = ((64, 939671729), (58, 589956612))


def test_connect_ends_needing_the_mediant_round(ctx2222):
    ends = [
        random_walk(ctx2222, steps, seed, bundle_only=True).end
        for steps, seed in FAREY_NEIGHBOUR_ENDS
    ]
    for end in ends:
        path = connect_to_canonical(ctx2222, end)
        assert verify_path(ctx2222, path)
        assert path.bundle_only
        assert path.nodes[0].class_key() == end.class_key()
        assert path.end.class_key() == t_can(ctx2222).class_key()
    path = connect_pair(ctx2222, *ends)
    assert verify_path(ctx2222, path)
    assert path.bundle_only
    assert path.nodes[0].class_key() == ends[0].class_key()
    assert path.end.class_key() == ends[1].class_key()


def test_pool_slopes_sort_by_denominator_then_value():
    # (den, num) is the (den, value) order: each den > 0 and in lowest terms
    rng = random.Random(2028)
    for ws in TUBULAR_TYPES:
        ctx = context_for(ws)
        for _ in range(3):
            end = random_walk(ctx, rng.randint(1, 12), rng.randrange(10**6), bundle_only=True).end
            seed = rng.sample(end.summands, rng.randint(1, 3))
            for round_ in range(connect._COMPLETION_ROUNDS + 1):
                got = connect._pool_slopes(seed, round_)
                assert got[-1] == INF
                assert got[:-1] == sorted(got[:-1], key=lambda s: (s.den, s.fraction()))


def test_connect_deep_walks_stay_under_the_tick_bound(any_ctx):
    # the paper's route runs past 5,000 ticks on 9 of these 40 ends and past
    # 20,000 on 2; the direct search needs at most 4,194
    rng = random.Random(2058)
    for _ in range(10):
        end = random_walk(any_ctx, 32, rng.randrange(10**6), bundle_only=True).end
        path = connect_to_canonical(any_ctx, end, SearchBudget(max_nodes=5_000))
        assert path.bundle_only
        assert path.end.class_key() == t_can(any_ctx).class_key()


def test_direct_route_against_the_paper_route(any_ctx):
    # same end points as the oracle, fewer mutations in total; a single
    # path may still be longer than the oracle's
    rng = random.Random(2042)
    direct_events = oracle_events = 0
    for _ in range(10):
        steps = rng.randint(1, 16)
        end = random_walk(any_ctx, steps, rng.randrange(10**6), bundle_only=True).end
        path = connect_to_canonical(any_ctx, end)
        oracle = shorten_path(any_ctx, _oracle_route(any_ctx, end))
        assert verify_path(any_ctx, path)
        assert path.bundle_only
        assert path.nodes[0].class_key() == oracle.nodes[0].class_key()
        assert path.end.class_key() == oracle.end.class_key()
        direct_events += len(path.events)
        oracle_events += len(oracle.events)
    assert direct_events < oracle_events


def test_budget_exhaustion(ctx2222):
    t = t_can(ctx2222, c_gen(ctx2222.weights))
    with pytest.raises(BudgetExhausted):
        connect_to_canonical(ctx2222, t, SearchBudget(max_nodes=3))
    for bad in (0, -1, float("nan"), float("inf"), True):
        with pytest.raises(ValueError):
            SearchBudget(max_seconds=bad)
    # a cap that is no int >= 1 bounds nothing: nodes > nan is never true
    for bad in (0, -1, float("nan"), float("inf"), 2.5, True):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=bad)


def test_budget_bounds_the_whole_call(ctx236, monkeypatch):
    # This end's slope range holds no integer, so the connect runs integerize
    # (completions and connect_shared calls) and then the direct search.  With
    # the default budget it takes 1,262 ticks in all, one per pending mutation
    # pushed and per completion candidate: integerize ends at tick 602, so a
    # bound of 800 runs out inside the direct search, after integerize spent
    # its share.
    t = random_walk(ctx236, 64, 86523513, bundle_only=True).end
    ticks = []
    tick = connect._Clock.tick
    integerized_at = []
    integerize = connect.integerize

    def counting(self):
        tick(self)
        ticks.append(id(self))

    def spy(ctx, t, budget):
        path = integerize(ctx, t, budget)
        integerized_at.append(len(ticks))
        return path

    monkeypatch.setattr(connect._Clock, "tick", counting)
    monkeypatch.setattr(connect, "integerize", spy)
    with pytest.raises(BudgetExhausted, match="node budget 800"):
        connect_to_canonical(ctx236, t, SearchBudget(max_nodes=800))
    assert 0 < len(ticks) <= 800
    assert len(set(ticks)) == 1
    assert len(integerized_at) == 1 and 0 < integerized_at[0] < len(ticks)
    ticks.clear()
    with pytest.raises(BudgetExhausted, match="time budget"):
        connect_to_canonical(ctx236, t, SearchBudget(max_seconds=1e-9))
    assert ticks == []


# Fake times at which the deadline passes on the CI end ((2,2,2,2), 64
# steps, walk seed 939671729): inside the first completion pool, inside
# the first, second and third searches, and inside the final direct
# search.  A full connect on a fresh context makes 4,495 units (174
# mutations and 4,321 charts); the pools of the first completion hold
# units 1..2095.
_DEADLINE_UNITS = (0.5, 1000.5, 2096.5, 4205.5, 4400.5, 4492.5)


def test_deadline_passes_at_most_one_unit_before_it_is_seen(monkeypatch):
    # A fake time source advanced by 1 at the start of each unit of work:
    # each `mutate` and each `chart_for` that the connect makes.  The clock
    # is tested before every pop and every pool slope, so at most one
    # unit starts after the deadline has passed: a unit that no check
    # precedes, such as the companion chart of integerize.
    w = make_weights((2, 2, 2, 2))
    end = random_walk(build_context(w), 64, 939671729, bundle_only=True).end
    now = [0.0]
    late = []
    deadline = [0.0]

    def unit(fn):
        def spy(*args):
            if now[0] > deadline[0]:
                late.append(fn.__name__)
            now[0] += 1.0
            return fn(*args)

        return spy

    monkeypatch.setattr(connect, "_now", lambda: now[0])
    monkeypatch.setattr(connect, "mutate", unit(connect.mutate))
    monkeypatch.setattr(connect, "chart_for", unit(connect.chart_for))
    lates = []
    for units in _DEADLINE_UNITS:
        now[0], deadline[0] = 0.0, units
        late.clear()
        with pytest.raises(BudgetExhausted, match="time budget"):
            connect_to_canonical(build_context(w), end, SearchBudget(max_seconds=units))
        lates.append(len(late))
    assert max(lates) <= 1, lates


def test_deadline_on_the_last_search_unit_stops_before_the_splice(monkeypatch):
    # A fake time source advanced by 1 at the start of each unit of work
    # (each `mutate`, `_forecast_child` and `chart_for` the connect makes).
    # A deadline that passes during the last unit of the direct search is
    # seen when the search returns: no splicing and no verification run.
    w = make_weights((2, 3, 6))
    end = random_walk(build_context(w), 8, 4242, bundle_only=True).end
    now = [0.0]
    searched = []  # (start, end) fake times of each direct search
    spliced = []

    def unit(fn):
        def spy(*args):
            now[0] += 1.0
            return fn(*args)

        return spy

    real_search, real_shorten, real_verify = (
        connect._stratum_path,
        connect.shorten_path,
        connect.verify_path,
    )

    def search(ctx, a, b, fixed_vec, clock):
        start = now[0]
        path = real_search(ctx, a, b, fixed_vec, clock)
        if fixed_vec is None:
            searched.append((start, now[0]))
        return path

    monkeypatch.setattr(connect, "_now", lambda: now[0])
    for name in ("mutate", "_forecast_child", "chart_for"):
        monkeypatch.setattr(connect, name, unit(getattr(connect, name)))
    monkeypatch.setattr(connect, "_stratum_path", search)
    monkeypatch.setattr(
        connect, "shorten_path", lambda ctx, p: spliced.append(p) or real_shorten(ctx, p)
    )
    monkeypatch.setattr(
        connect, "verify_path", lambda ctx, p: spliced.append(p) or real_verify(ctx, p)
    )
    connect_to_canonical(build_context(w), end)
    [(start, last)] = searched
    assert last > start and len(spliced) == 2
    now[0] = 0.0
    searched.clear()
    spliced.clear()
    with pytest.raises(BudgetExhausted, match="time budget"):
        connect_to_canonical(build_context(w), end, SearchBudget(max_seconds=last - 0.5))
    assert searched == [(start, last)] and spliced == []


def _shortening_input(ctx, kind, steps, seed):
    if kind == "walk":
        return random_walk(ctx, steps, seed, bundle_only=seed % 2 == 0)
    walk = random_walk(ctx, steps, seed, bundle_only=True)
    if kind == "detour":
        # end of one walk -> T_can -> end of another
        return walk.reversed().concat(random_walk(ctx, steps, seed + 1, bundle_only=True))
    # the paper's route before its own shortening
    return _oracle_route(ctx, walk.end)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ws=st.sampled_from(TUBULAR_TYPES),
    kind=st.sampled_from(["walk", "detour", "route"]),
    steps=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
def test_shorten_path_properties(ws, kind, steps, seed):
    ctx = context_for(ws)
    path = _shortening_input(ctx, kind, steps, seed)
    short = shorten_path(ctx, path)
    assert len(short.events) <= len(path.events)
    assert short.nodes[0].class_key() == path.nodes[0].class_key()
    assert short.end.class_key() == path.end.class_key()
    assert verify_path(ctx, short)
    assert short.bundle_only or not path.bundle_only
    keys = {t.class_key() for t in path.nodes}
    assert all(t.class_key() in keys for t in short.nodes)


def test_shorten_path_erases_a_walk_and_its_reverse(any_ctx):
    walk = random_walk(any_ctx, 6, seed=17)
    short = shorten_path(any_ctx, walk.concat(walk.reversed()))
    assert len(short.nodes) == 1
    assert short.nodes[0].class_key() == walk.nodes[0].class_key()
    assert verify_path(any_ctx, short)


def test_shorten_path_checks_the_spliced_mutation(ctx2222, monkeypatch):
    walk = random_walk(ctx2222, 6, 3001, bundle_only=True)
    route = _oracle_route(ctx2222, walk.end)
    assert len(shorten_path(ctx2222, route).events) < len(route.events)
    monkeypatch.setattr(connect, "mutate", lambda ctx, t, k: (t, None))
    with pytest.raises(InternalConsistencyError, match="spliced"):
        shorten_path(ctx2222, route)


def test_shorten_path_rejects_nodes_that_are_no_edge(ctx2222):
    # nodes 0 and 3 of a walk differ in three summands: no node after 0
    # is within one summand of it
    walk = random_walk(ctx2222, 6, seed=0)
    a, b = walk.nodes[0], walk.nodes[3]
    assert len(set(a.class_key()) - set(b.class_key())) > 1
    bad = MutationPath([a, b], walk.events[:1])
    with pytest.raises(PreconditionError, match="nodes 0 and 1 differ"):
        shorten_path(ctx2222, bad)
    # raised, not a StopIteration that ends an enclosing iteration silently
    with pytest.raises(PreconditionError):
        list(map(lambda p: shorten_path(ctx2222, p), [bad]))


def test_shorten_path_rejects_malformed_paths(ctx2222):
    walk = random_walk(ctx2222, 4, seed=9, bundle_only=True)
    with pytest.raises(PreconditionError, match="path has no nodes"):
        shorten_path(ctx2222, MutationPath([], []))
    # too few events: a walk and its reverse with one event, where the
    # loop is erased in one jump past the missing events, and a walk with
    # one or all of its events missing; then more events than edges
    looped = walk.concat(walk.reversed())
    assert looped.end.class_key() == looped.nodes[0].class_key()
    for nodes, events in (
        (looped.nodes, looped.events[:1]),
        (walk.nodes, walk.events[:-1]),
        (walk.nodes, []),
        (walk.nodes[:2], walk.events[:2]),
    ):
        with pytest.raises(PreconditionError, match="event count does not match node count"):
            shorten_path(ctx2222, MutationPath(list(nodes), list(events)))


def test_random_walk_deterministic(any_ctx):
    p1 = random_walk(any_ctx, 5, seed=42)
    p2 = random_walk(any_ctx, 5, seed=42)
    assert [n.class_key() for n in p1.nodes] == [n.class_key() for n in p2.nodes]
    pb = random_walk(any_ctx, 5, seed=42, bundle_only=True)
    assert pb.bundle_only


def test_verify_path_detects_corruption(ctx2222):
    path = connect_to_canonical(ctx2222, t_can(ctx2222, x_gen(ctx2222.weights, 3)))
    assert verify_path(ctx2222, path)
    # corrupt a middle node: replace it with a different tilting object
    middle = len(path.nodes) // 2
    bad_nodes = list(path.nodes)
    bad_nodes[middle] = t_can(ctx2222)
    bad = MutationPath(bad_nodes, list(path.events))
    assert not verify_path(ctx2222, bad)


def _bareiss_is_tilting(ctx, node, det=int_det):
    """is_tilting with every ext pair tested and the n x n Bareiss
    determinant of the class vectors as its basis check: the oracle of
    the Gram-block certificate of `tilting.check_basis`."""
    objs = node.summands
    if len(objs) != ctx.n or len({o.cls.vec for o in objs}) != ctx.n:
        return False
    if any(ext_dim(ctx, x, y) for x in objs for y in objs):
        return False
    d = det(node.class_key())
    if abs(d) != 1:
        raise BasisMismatch(f"ext-orthogonal n-set has determinant {d}")
    return True


# verify_path's logger, named here: tubtilt.connect imports logging only
# when it warns
_LOG = logging.getLogger("tubtilt.connect")


def _full_verify_path(ctx, path, det=int_det):
    """verify_path with `_bareiss_is_tilting` on every node: the oracle of
    the check that re-tests only the ext pairs with a node's new summand
    and takes its basis check from the Gram blocks."""
    if not path.nodes:
        _LOG.warning("path has no nodes")
        return False
    if len(path.events) != len(path.nodes) - 1:
        _LOG.warning("event count does not match node count")
        return False
    for i, node in enumerate(path.nodes):
        try:
            if not _bareiss_is_tilting(ctx, node, det):
                _LOG.warning("node %d is not tilting", i)
                return False
        except BasisMismatch:
            _LOG.warning("node %d failed the basis cross-check", i)
            return False
    for i, ev in enumerate(path.events):
        prev, nxt = path.nodes[i], path.nodes[i + 1]
        pv = set(prev.class_key())
        nv = set(nxt.class_key())
        if pv == nv:
            _LOG.warning("nodes %d and %d are equal", i, i + 1)
            return False
        if len(pv - nv) != 1 or len(nv - pv) != 1:
            _LOG.warning("nodes %d -> %d differ in more than one summand", i, i + 1)
            return False
        if {ev.removed.cls.vec} != pv - nv or {ev.added.cls.vec} != nv - pv:
            _LOG.warning("event %d does not match the node difference", i)
            return False
        if not 0 <= ev.index < ctx.n or prev.summands[ev.index].cls.vec != ev.removed.cls.vec:
            _LOG.warning("event %d records a wrong index", i)
            return False
        if (ext_dim(ctx, ev.added, ev.removed) > 0) != (ev.direction == "L"):
            _LOG.warning("event %d records a wrong direction", i)
            return False
    return True


def _verdict(check, ctx, path, caplog):
    """check's verdict on path and its first warning."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger=_LOG.name):
        ok = check(ctx, path)
    return ok, caplog.records[0].getMessage() if caplog.records else None


def _assert_same_verdict(ctx, path, caplog):
    got = _verdict(verify_path, ctx, path, caplog)
    assert got == _verdict(_full_verify_path, ctx, path, caplog)
    return got


def _corruptions(ctx, path):
    """Corrupted copies of path, each with the first warning it must
    raise where that is pinned (else None).  path has at least three
    nodes."""
    nodes, events = path.nodes, path.events
    mid = len(nodes) // 2
    out = []
    # the middle node replaced by T_can
    if nodes[mid] != t_can(ctx):
        out.append((MutationPath(nodes[:mid] + [t_can(ctx)] + nodes[mid + 1 :], events), None))
    # the summand a node brings in replaced by tau of a kept summand y,
    # which has ext(y, tau y) = hom(y, y) = 1
    node, ev = nodes[mid], events[mid - 1]
    vecs = set(node.class_key())
    for y in node.summands:
        w = tau_obj(ctx, y)
        if y.cls.vec != ev.added.cls.vec and w.cls.vec not in vecs | {ev.removed.cls.vec}:
            bad = tuple(w if s.cls.vec == ev.added.cls.vec else s for s in node.summands)
            out.append(
                (MutationPath(nodes[:mid] + [TiltingObject(bad)] + nodes[mid + 1 :], events), None)
            )
            break
    # a repeated node, with its event repeated
    out.append(
        (
            MutationPath(nodes[:mid] + [nodes[mid]] + nodes[mid:], events[:mid] + events[mid - 1 :]),
            f"nodes {mid} and {mid + 1} are equal",
        )
    )
    # a node with a duplicate summand
    dup = (node.summands[0],) + node.summands[1:-1] + (node.summands[0],)
    out.append((MutationPath(nodes[:mid] + [TiltingObject(dup)] + nodes[mid + 1 :], events), None))
    # a flipped event direction
    flipped = MutationEvent(ev.index, ev.removed, ev.added, "R" if ev.direction == "L" else "L")
    out.append((MutationPath(nodes, events[: mid - 1] + [flipped] + events[mid:]), None))
    # an event index out of range: negative, naming the removed summand
    # from the end, and past the last summand
    for index in (ev.index - ctx.n, ev.index + ctx.n):
        moved = MutationEvent(index, ev.removed, ev.added, ev.direction)
        out.append(
            (
                MutationPath(nodes, events[: mid - 1] + [moved] + events[mid:]),
                f"event {mid - 1} records a wrong index",
            )
        )
    return out


def test_verify_path_matches_the_full_check(any_ctx, caplog):
    ctx = any_ctx
    rng = random.Random(35)
    paths = []
    for trial in range(4):
        walk = random_walk(ctx, 2 + rng.randrange(7), seed=3500 + trial, bundle_only=True)
        path = connect_to_canonical(ctx, walk.end)
        paths += [path, path.reversed(), walk, random_walk(ctx, 5, seed=3600 + trial)]
    for path in paths:
        assert _assert_same_verdict(ctx, path, caplog) == (True, None)
    # every clean node is now in the proof table, so each corruption below is
    # checked against a filled table: the table hides none of them
    assert all(ctx._proved.get(t.class_key()) == t.summands for p in paths for t in p.nodes)
    corrupted = 0
    for path in paths:
        if len(path.nodes) >= 3:
            for bad, want in _corruptions(ctx, path):
                ok, first = _assert_same_verdict(ctx, bad, caplog)
                assert not ok and first is not None
                assert want is None or first == want
                corrupted += 1
    assert corrupted >= 5 * 8


def test_verify_path_runs_the_basis_check_on_every_node(any_ctx, caplog, monkeypatch):
    ctx = any_ctx
    path = connect_to_canonical(ctx, random_walk(ctx, 6, seed=3700, bundle_only=True).end)
    assert len(path.nodes) >= 3
    real_gram_det = tilting._gram_det
    calls = []

    def counting_gram_det(ctx, summands):
        calls.append(summands)
        return real_gram_det(ctx, summands)

    monkeypatch.setattr(tilting, "_gram_det", counting_gram_det)
    # connect_to_canonical has proved the path's nodes in ctx, so each
    # verification below gets a fresh context, with an empty proof table
    fresh = build_context(ctx.weights)
    assert verify_path(fresh, path)
    assert len(calls) == len(path.nodes)
    # a second verification in the same context reads every node off the
    # proof table
    calls.clear()
    assert verify_path(fresh, path)
    assert calls == []
    # a certificate off by a factor of 2 fails its node in verify_path, and
    # a Bareiss determinant off by the same factor fails it in the full check
    for fail_at in (0, len(path.nodes) // 2, len(path.nodes) - 1):
        calls.clear()

        def failing_gram_det(ctx, summands):
            calls.append(summands)
            d = real_gram_det(ctx, summands)
            return 2 * d if len(calls) == fail_at + 1 else d

        def failing_det(m):
            calls.append(m)
            return 2 * int_det(m) if len(calls) == fail_at + 1 else int_det(m)

        monkeypatch.setattr(tilting, "_gram_det", failing_gram_det)
        got = _verdict(verify_path, build_context(ctx.weights), path, caplog)
        calls.clear()
        full = _verdict(
            lambda c, p: _full_verify_path(c, p, failing_det),
            build_context(ctx.weights),
            path,
            caplog,
        )
        assert got == full == (False, f"node {fail_at} failed the basis cross-check")


def test_reversed_path_events(ctx2222):
    path = connect_to_canonical(ctx2222, t_can(ctx2222, x_gen(ctx2222.weights, 3)))
    rev = path.reversed()
    assert rev.nodes[0] == path.end
    assert rev.end == path.nodes[0]
    assert verify_path(ctx2222, rev)


def _full_test_explore_graph(ctx, start, lo, hi, max_nodes):
    """explore_graph testing every summand of every neighbour against the
    window: the oracle of the test of the new summand alone."""
    keys = {start.class_key(): 0}
    nodes = [start]
    edges = set()
    queue = [start]
    qi = 0
    while qi < len(queue):
        node = queue[qi]
        qi += 1
        i = keys[node.class_key()]
        for k in range(ctx.n):
            t2, _ = mutate(ctx, node, k)
            if any(not lo <= s.slope <= hi for s in t2.summands):
                continue
            key2 = t2.class_key()
            j = keys.get(key2)
            if j is None:
                if len(nodes) >= max_nodes:
                    continue
                j = len(nodes)
                keys[key2] = j
                nodes.append(t2)
                queue.append(t2)
            edges.add((min(i, j), max(i, j)))
    return nodes, sorted(edges)


def test_explore_graph_matches_the_full_window_test(any_ctx, monkeypatch):
    ctx = any_ctx
    tc = t_can(ctx)
    end = random_walk(ctx, 5, seed=3800, bundle_only=True).end
    lo, hi = slope_range(ctx, end)
    cases = [
        (tc, Slope(0, 1), INF, 20),
        (tc, Slope(0, 1), Slope(ctx.p, 1), 20),
        (end, Slope(lo.floor() - 1, 1), Slope(hi.floor() + 2, 1), 20),
        (end, Slope(lo.floor() - 1, 1), INF, 20),
        (random_walk(ctx, 4, seed=3801).end, Slope(-1, 1), INF, 15),
        # T_can's O has slope 0, outside; its other summands are inside
        (tc, Slope(1, 100), INF, 20),
    ]
    real_complete = connect._complete_mutation
    made = []

    def spy(ctx, t, k, ac_key):
        t2, ev = real_complete(ctx, t, k, ac_key)
        made.append(t2.class_key())
        return t2, ev

    monkeypatch.setattr(connect, "_complete_mutation", spy)
    for start, lo, hi, top in cases:
        for cap in (1, 2, 8, top):
            made.clear()
            ctx._complements.clear()  # cold: every child the BFS completes lands in the spy
            got = explore_graph(ctx, start, lo, hi, cap)
            want = _full_test_explore_graph(ctx, start, lo, hi, cap)
            keys = [t.class_key() for t in got[0]]
            assert keys == [t.class_key() for t in want[0]]
            assert got[1] == want[1]
            # each call is for a candidate new node: none lands on a known
            # node, and each node after the start comes from one call
            assert [key for key in made if key in keys] == keys[1:]
            if len(keys) == cap:
                # no call once the node set is full
                assert len(made) == (made.index(keys[-1]) + 1 if cap > 1 else 0)
    # the start partly outside its window still reaches nodes inside it
    nodes, _ = explore_graph(ctx, tc, Slope(1, 100), INF, 20)
    assert len(nodes) > 1
    assert all(s.slope > Slope(0, 1) for t in nodes[1:] for s in t.summands)


def test_explore_graph_rejects_a_third_complement(monkeypatch):
    # a fake mutation of T_can at 1 that keeps T_can minus its summand 0
    # makes three known nodes hold that almost complete object; the fake
    # enters the complement table, so the context is the test's own
    ctx = build_context(make_weights((2, 2, 2, 2)))
    tc = t_can(ctx)
    x = mutate(ctx, tc, 1)[1].added
    fake = make_tilting(ctx, tc.summands[1:] + (x,))
    real_complete = connect._complete_mutation

    def fake_complete(ctx, t, k, ac_key):
        if t == tc and k == 1:
            return fake, MutationEvent(1, tc.summands[1], x, "L")
        return real_complete(ctx, t, k, ac_key)

    monkeypatch.setattr(connect, "_complete_mutation", fake_complete)
    ctx._complements.clear()  # the BFS completes T_can at 1 instead of reading the table
    with pytest.raises(InternalConsistencyError, match="three complements"):
        explore_graph(ctx, tc, Slope(-10, 1), INF, 10)


def test_explore_graph_clears_the_table_only_when_a_call_starts(monkeypatch):
    # a table that passes its cap during the call is not cleared there: the
    # BFS reads its known nodes' edges off it, and does not go through mutate
    ws = (2, 3, 6)
    ctx = build_context(make_weights(ws))
    want = explore_graph(ctx, t_can(ctx), Slope(0, 1), INF, 16)
    sizes = []
    real_complete = connect._complete_mutation

    def spy(ctx, t, k, ac_key):
        sizes.append(len(ctx._complements))
        return real_complete(ctx, t, k, ac_key)

    monkeypatch.setattr(connect, "_complete_mutation", spy)
    monkeypatch.setattr(tilting, "_COMPLEMENT_TABLE_CAP", 20)
    ctx = build_context(make_weights(ws))
    got = explore_graph(ctx, t_can(ctx), Slope(0, 1), INF, 16)
    assert [t.class_key() for t in got[0]] == [t.class_key() for t in want[0]]
    assert got[1] == want[1]
    assert sizes == sorted(sizes) and sizes[-1] > 20
    assert len(ctx._complements) > 20
    # the next call clears it at its start; with room for one node it then
    # holds only the start's n almost complete keys
    explore_graph(ctx, t_can(ctx), Slope(0, 1), INF, 1)
    assert len(ctx._complements) == ctx.n


def test_explore_graph_rejects_a_bad_node_cap(ctx2222):
    for bad in (0, -1, float("nan"), float("inf"), 2.5, True):
        with pytest.raises(PreconditionError, match="max_nodes"):
            explore_graph(ctx2222, t_can(ctx2222), Slope(0, 1), INF, bad)


def test_explore_graph_one_neighborhood(ctx2222):
    nodes, edges = explore_graph(ctx2222, t_can(ctx2222), Slope(0, 1), INF, 7)
    assert len(nodes) == 7
    assert len(edges) == 6
    assert all(0 in (i, j) for i, j in edges)


# Exchange sequences of fixed inputs, pinned so that a change to the search
# code that alters any path shows here.  The slope range of every connect
# input holds an integer, so each connect is one direct search to T_can,
# which shorten_path leaves as it is.  Event counts, in order: 1, 4, 5, 1,
# 4, 1, 4, 1, 4.
GOLDEN_CONNECT = {
    ((2, 2, 2, 2), 3, 3000): "1f12cf42f5dfc110a2e31bc1ff8b114a0a9afcac8c416d1e07719dbc8091ef65",
    ((2, 2, 2, 2), 6, 3001): "51314060763f830f90232a8a7274c7615fc7b2e2d91c5f58794d7ee050eb5bf4",
    ((2, 2, 2, 2), 6, 3008): "dcbb3b4310fbe818b231db0703c57eb2726802276feec0a2f2674bbfe5119535",
    ((3, 3, 3), 3, 3000): "439f3e1f1bfecf8fb47f898fcedc62de8de841d613f06a322e9ed66182e11907",
    ((3, 3, 3), 6, 3001): "24785a40e1093d951f0bccefc3f712f31a0383ddac3bc2437602bef2db3c3e90",
    ((2, 4, 4), 3, 3000): "6b770db2f56a35f49ad7858969b12569dc5d082c1d8ac4493b2149a4e49362ae",
    ((2, 4, 4), 6, 3001): "a63bf31e4221b9f87ff2c150ad78a3e80318b4b7b89d5731cde09b043071e8a9",
    ((2, 3, 6), 3, 3000): "b3571f3b405a409d3108b86d5696f235edce1041cfa6d9c2b299d33df81fce88",
    ((2, 3, 6), 5, 3): "4708b41b7ce36c0ac8fd2c8db6b30dcc243ddc971818fc7b3184e49453b202c4",
}


def _event_digest(path):
    events = [(ev.index, ev.removed.cls.vec, ev.added.cls.vec) for ev in path.events]
    return hashlib.sha256(repr(events).encode()).hexdigest()


# Node class keys and edges of explore_graph around T_can (window 0..inf)
# and around one 5-step walk end per type (its slope range widened by one
# below and two above), each filling its node set of 16; pinned so that a
# change to the BFS that alters any node order or edge shows here.
GOLDEN_GRAPH = {
    ((2, 2, 2, 2), None): "ded3167a83bb9f50dff80fe240fd0b6a6f6ffa8301f9f5e97d0fd87c45f696e2",
    ((2, 2, 2, 2), 3900): "8598255b4966d65b8d8ec4435fb9837ae0b1cf51a15aeb3e6ef2ac62bdc153e8",
    ((3, 3, 3), None): "a238d79efbff035e0a9ff1520049aeb2d9b289da010aab03f8beea2949b97c0f",
    ((3, 3, 3), 3900): "10768dcd698ed4b3b0c802aa3bf00d264b7bcc4cbab1b9f406ddad58287ca0d6",
    ((2, 4, 4), None): "99ae8eeddbf47dc2b2494996bd649be867fff05622f6113465ca49ed63ef5a7a",
    ((2, 4, 4), 3900): "601414840c28889e6754d3052e6f2f635303bec10db909dbd9514c47babf8baa",
    ((2, 3, 6), None): "4d298c78631ac72e987a14e01b99bdb19fe285cd931f3494adfe759e36cc13c6",
    ((2, 3, 6), 3900): "a969656fb8f0374e0606cb7e2d9e39984713a31947291699fb2ba787b9d71936",
}


def test_golden_graphs():
    got = {}
    for ws, seed in GOLDEN_GRAPH:
        ctx = context_for(ws)
        if seed is None:
            start, lo, hi = t_can(ctx), Slope(0, 1), INF
        else:
            start = random_walk(ctx, 5, seed=seed, bundle_only=True).end
            lo, hi = slope_range(ctx, start)
            lo, hi = Slope(lo.floor() - 1, 1), Slope(hi.floor() + 2, 1)
        nodes, edges = explore_graph(ctx, start, lo, hi, 16)
        assert len(nodes) == 16
        keys = [t.class_key() for t in nodes]
        got[ws, seed] = hashlib.sha256(repr((keys, edges)).encode()).hexdigest()
    assert got == GOLDEN_GRAPH


def test_explore_graph_completes_only_the_children_it_keeps(monkeypatch):
    # every mutation of the BFS is cold, so it runs through _complete_mutation
    completed = []
    real_complete = connect._complete_mutation

    def complete_spy(ctx, t, k, ac_key):
        got = real_complete(ctx, t, k, ac_key)
        completed.append((t, k, got))
        return got

    real_torsion = connect.torsion_exchanges
    fibre = []

    def torsion_spy(ctx, t):
        got = real_torsion(ctx, t)
        fibre.append((t, got))
        return got

    monkeypatch.setattr(connect, "_complete_mutation", complete_spy)
    monkeypatch.setattr(connect, "torsion_exchanges", torsion_spy)

    def run(ctx, start, lo, hi, cap):
        completed.clear()
        fibre.clear()
        ctx._complements.clear()  # random_walk fills it
        nodes, edges = explore_graph(ctx, start, lo, hi, cap)
        # the fibre test flags exactly the mutations that bring in a torsion
        # sheaf, so a child it skips has a torsion complement
        for t, flags in fibre:
            for k, torsion in enumerate(flags):
                assert torsion == mutate(ctx, t, k)[1].added.slope.is_infinite
        for t, k, _ in completed:
            if t == start:
                # a child keeping a start summand outside the window is
                # skipped before it is completed
                assert all(lo <= s.slope <= hi for j, s in enumerate(t.summands) if j != k)
        # a completed child whose complement lies in the window is a new
        # node; the others are dropped by the slope test
        assert nodes[1:] == [t2 for _, _, (t2, ev) in completed if lo <= ev.added.slope <= hi]
        keys = [t.class_key() for t in nodes]
        want = _full_test_explore_graph(ctx, start, lo, hi, cap)
        assert keys == [t.class_key() for t in want[0]]
        assert edges == want[1]
        return keys, edges

    def dropped(lo, hi):
        # the new summands of the completed children that the slope test drops
        return [ev.added.slope for _, _, (_, ev) in completed if not lo <= ev.added.slope <= hi]

    got = {}
    for ws, seed in GOLDEN_GRAPH:
        ctx = build_context(make_weights(ws))
        if seed is None:
            start, lo, hi = t_can(ctx), Slope(0, 1), INF
        else:
            start = random_walk(ctx, 5, seed=seed, bundle_only=True).end
            lo, hi = slope_range(ctx, start)
            lo, hi = Slope(lo.floor() - 1, 1), Slope(hi.floor() + 2, 1)
        got[ws, seed] = hashlib.sha256(repr(run(ctx, start, lo, hi, 16)).encode()).hexdigest()
        assert (len(completed), dropped(lo, hi)) == (15, [])
        # T_can's O has slope 0, outside; its other summands are inside, so
        # of T_can's children only the one replacing O is completed
        ctx = build_context(make_weights(ws))
        tc = t_can(ctx)
        run(ctx, tc, Slope(1, 100), INF, 20)
        assert [k for t, k, _ in completed if t == tc] == [
            k for k, s in enumerate(tc.summands) if s.slope == Slope(0, 1)
        ]
    assert got == GOLDEN_GRAPH
    # bundle children below lo are completed and dropped by the slope test:
    # the (3,3,3) walk end of seed 1 in its own slope range [3/2, 2] has
    # six, of slope 1
    ctx = build_context(make_weights((3, 3, 3)))
    start = random_walk(ctx, 5, seed=1, bundle_only=True).end
    lo, hi = slope_range(ctx, start)
    run(ctx, start, lo, hi, 16)
    assert len(completed) == 21
    assert dropped(lo, hi) == [Slope(1, 1)] * 6

    # the reference count: all 29 completions are kept, one per node after
    # the start; the 46 children that lie outside bring in torsion sheaves
    # and are skipped by the fibre test, uncompleted
    ctx = build_context(make_weights((2, 3, 6)))
    lo, hi = Slope(0, 1), Slope(6, 1)
    keys, edges = run(ctx, t_can(ctx), lo, hi, 30)
    assert (len(keys), len(edges)) == (30, 43)
    assert (len(completed), dropped(lo, hi)) == (29, [])


def test_no_ext_read_from_the_smaller_slope(monkeypatch):
    # ext(x, y) = 0 when x has the smaller slope, so tilting and connect
    # never read it: seeded walks (cold mutations), mutations read back
    # from the table, one connect (verify_path) and one explore
    reads = {"tilting": 0, "connect": 0}

    def spy_for(module):
        def spy(ctx, x, y):
            assert not x.slope < y.slope, (module, x, y)
            reads[module] += 1
            return ext_dim(ctx, x, y)

        return spy

    monkeypatch.setattr(tilting, "ext_dim", spy_for("tilting"))
    monkeypatch.setattr(connect, "ext_dim", spy_for("connect"))
    for ws in TUBULAR_TYPES:
        ctx = build_context(make_weights(ws))
        for seed in (4200, 4201):
            walk = random_walk(ctx, 8, seed=seed)
            for t, ev in zip(walk.nodes[1:], walk.events):
                back = mutate(ctx, t, t.index_of(ev.added))
                assert back[1].added == ev.removed
    ctx = build_context(make_weights((3, 3, 3)))
    end = random_walk(ctx, 6, seed=4202, bundle_only=True).end
    assert verify_path(ctx, connect_to_canonical(ctx, end))
    explore_graph(ctx, t_can(ctx), Slope(-1, 1), INF, 16)
    assert reads["tilting"] > 0 and reads["connect"] > 0


def test_golden_paths():
    got = {}
    for ws, steps, seed in GOLDEN_CONNECT:
        ctx = context_for(ws)
        walk = random_walk(ctx, steps, seed=seed, bundle_only=True)
        got[ws, steps, seed] = _event_digest(connect_to_canonical(ctx, walk.end))
    assert got == GOLDEN_CONNECT

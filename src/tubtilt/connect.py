"""Constructive connectivity of tilting bundles.

Any two tilting bundles are joined by a verified chain of
bundle-mutations, and every connect is the one call `connect_pair`
(`connect_to_canonical` is the pair connect to T_can).  An end whose
slope range holds no integer first has its slope denominators descended
through Farey companions until it does (`integerize`, the first step of
the connectedness proof); then one weighted best-first search of the
bundle graph runs straight between the two ends.  The graph is
connected (that is the theorem) and locally finite, so the search finds
a path, and the call's budget bounds its cost.  The paper's full route,
which also slides through the bundles sharing a line bundle and walks
the twist chain of canonical bundles, is kept in the tests as an
oracle.  The joined path is shortened by erasing its loops and splicing
out its detours before it is verified.
There is one search, `_stratum_path`, which the Farey descent's
fixed-summand legs share.  Its frontier holds pending mutations, not
nodes: the priority of a mutation's child is forecast from the ext
table (an almost complete tilting object has exactly two complements),
and the child is made only when the mutation reaches the front.  A
mutation forecast to bring in a target summand takes that summand as
its complement once it passes a rigidity and a direction check; any
other mutation calls `mutate`.

All searches are deterministic: candidate orders are canonical and
tie-breaks use serialized object order.  A budget bounds the node count
and optionally the wall time of a whole public call: the call starts one
clock and passes it to every search, completion and sub-connection it
makes, which tick it once per pending mutation pushed on a frontier and
once per completion candidate tried.  Exhausting the budget raises
BudgetExhausted.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import random
import time
from dataclasses import dataclass
from math import gcd, inf

from .errors import (
    BasisMismatch,
    BudgetExhausted,
    CompanionNotFound,
    InternalConsistencyError,
    PreconditionError,
)
from .k0 import K0Class, K0Context, deg_of, rank_of
from .slopes import INF, Slope
from .tilting import (
    MutationEvent,
    TiltingObject,
    _bound_complements,
    _candidate_classes,
    _complete_mutation,
    _enter_complement,
    _exchange,
    _other_complement,
    check_basis,
    find_full_period_quasi_simple,
    is_bundle,
    is_tilting,
    make_tilting,
    mutate,
    purge_torsion,
    slope_range,
    t_can,
)
from .tubes import ExcObject, chart_for, ext_dim

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FareyStep:
    """Certificate bc - ad = 1 with 0 < c <= d < b and c <= a."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        ok = (
            0 < self.a < self.b
            and gcd(self.a, self.b) == 1
            and self.b * self.c - self.a * self.d == 1
            and 0 < self.c <= self.d < self.b
            and self.c <= self.a
        )
        if not ok:
            raise ValueError(f"invalid Farey step {self}")


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 400_000
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.max_seconds is not None and not 0 < self.max_seconds < inf:
            raise ValueError("max_seconds must be positive and finite")


DEFAULT_BUDGET = SearchBudget()


class _Clock:
    """Node count and deadline of one public call, shared by its searches."""

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.limit = budget.max_nodes
        self.deadline = None
        if budget.max_seconds is not None:
            self.deadline = time.monotonic() + budget.max_seconds

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise BudgetExhausted(f"node budget {self.limit} exhausted")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExhausted("time budget exhausted")


_Budget = SearchBudget | _Clock  # a budget, or the running clock of an enclosing call


def _clock(budget: _Budget) -> _Clock:
    return budget if isinstance(budget, _Clock) else _Clock(budget)


@dataclass
class MutationPath:
    """A verified walk in the tilting graph; consecutive nodes differ in
    exactly one summand."""

    nodes: list[TiltingObject]
    events: list[MutationEvent]

    @staticmethod
    def single(t: TiltingObject) -> "MutationPath":
        return MutationPath([t], [])

    @property
    def end(self) -> TiltingObject:
        return self.nodes[-1]

    @property
    def bundle_only(self) -> bool:
        return all(is_bundle(t) for t in self.nodes)

    def extend(self, t2: TiltingObject, ev: MutationEvent) -> None:
        self.nodes.append(t2)
        self.events.append(ev)

    def concat(self, other: "MutationPath") -> "MutationPath":
        if self.end.class_key() != other.nodes[0].class_key():
            raise ValueError("paths do not share an endpoint")
        return MutationPath(self.nodes + other.nodes[1:], self.events + other.events)

    def reversed(self) -> "MutationPath":
        nodes = list(reversed(self.nodes))
        events: list[MutationEvent] = []
        for i in range(len(self.events) - 1, -1, -1):
            ev = self.events[i]
            src = self.nodes[i + 1]
            events.append(
                MutationEvent(
                    index=src.index_of(ev.added),
                    removed=ev.added,
                    added=ev.removed,
                    direction="R" if ev.direction == "L" else "L",
                )
            )
        return MutationPath(nodes, events)


def _node_is_tilting(
    ctx: K0Context,
    node: TiltingObject,
    vecs: frozenset,
    prev_vecs: frozenset | None,
) -> bool:
    """is_tilting(ctx, node), given the class vectors `vecs` of node and
    `prev_vecs` of the node before it on a path, which passed (None for
    the first node).

    If node has n distinct summands and differs from the node before in
    exactly one class vector z, the pairs among its n - 1 other summands
    were checked there (ext depends only on the two class vectors), so
    only ext(z, y) and ext(y, z) are checked, for every summand y, z
    included.  Any other node gets the full is_tilting.  The basis
    cross-check (`check_basis`) runs on every node either way; it reads
    the Gram matrix off the ext memo that these checks have filled.
    """
    new = vecs - prev_vecs if prev_vecs is not None else ()
    if len(new) != 1 or len(node.summands) != ctx.n or len(vecs) != ctx.n:
        return is_tilting(ctx, node)
    (z_vec,) = new
    z = next(s for s in node.summands if s.cls.vec == z_vec)
    for y in node.summands:
        if ext_dim(ctx, z, y) or ext_dim(ctx, y, z):
            return False
    check_basis(ctx, node)
    return True


def verify_path(ctx: K0Context, path: MutationPath) -> bool:
    """Re-check every node and edge; returns False with a log diagnostic.

    Every node is checked to be tilting: in full (`is_tilting`) for the
    first node and for any node that does not differ from the node before
    in exactly one summand, otherwise only the ext pairs with the summand
    it brings in (`_node_is_tilting`); ext values come from the context's
    memo, keyed by the two class vectors.  The basis cross-check
    (`check_basis`) runs on every node; it is exact and is not memoized,
    but it takes the Euler Gram matrix from the same memo, so its work is
    the product of a few in-tube determinants.  Then every edge is
    checked against its event: two different nodes, one summand
    exchanged, the recorded removed and added summands, index and
    direction.  Each node's set of class vectors is built once for both
    checks.
    """
    if not path.nodes:
        logger.warning("path has no nodes")
        return False
    if len(path.events) != len(path.nodes) - 1:
        logger.warning("event count does not match node count")
        return False
    sets = [frozenset(t.class_key()) for t in path.nodes]
    for i, node in enumerate(path.nodes):
        try:
            if not _node_is_tilting(ctx, node, sets[i], sets[i - 1] if i else None):
                logger.warning("node %d is not tilting", i)
                return False
        except BasisMismatch:
            logger.warning("node %d failed the basis cross-check", i)
            return False
    for i, ev in enumerate(path.events):
        prev = path.nodes[i]
        pv, nv = sets[i], sets[i + 1]
        if pv == nv:
            logger.warning("nodes %d and %d are equal", i, i + 1)
            return False
        if len(pv - nv) != 1 or len(nv - pv) != 1:
            logger.warning("nodes %d -> %d differ in more than one summand", i, i + 1)
            return False
        if {ev.removed.cls.vec} != pv - nv or {ev.added.cls.vec} != nv - pv:
            logger.warning("event %d does not match the node difference", i)
            return False
        if prev.summands[ev.index].cls.vec != ev.removed.cls.vec:
            logger.warning("event %d records a wrong index", i)
            return False
        if (ext_dim(ctx, ev.added, ev.removed) > 0) != (ev.direction == "L"):
            logger.warning("event %d records a wrong direction", i)
            return False
    return True


def shorten_path(ctx: K0Context, path: MutationPath) -> MutationPath:
    """The path with its loops erased and its detours spliced out.

    From each kept node the walk jumps to the last later node that equals
    it or differs from it in one summand.  Such a node is the other
    complement of their common almost complete tilting object
    (Happel-Unger), so the spliced edge is the mutation of the kept node
    at the summand it loses; InternalConsistencyError if it is not.
    `mutate` reads that mutation off the complement table when the
    search computed it, in either direction.  The result is never longer
    and keeps both end points; its nodes are nodes of the input.
    """
    nodes = path.nodes
    sets = [frozenset(t.class_key()) for t in nodes]
    out = MutationPath.single(nodes[0])
    i = 0
    while i < len(nodes) - 1:
        j = next(j for j in range(len(nodes) - 1, i, -1) if len(sets[i] - sets[j]) <= 1)
        if j == i + 1:
            out.extend(nodes[j], path.events[i])
        elif sets[i] != sets[j]:
            (lost,) = sets[i] - sets[j]
            t2, ev = mutate(ctx, nodes[i], nodes[i].class_key().index(lost))
            if t2.class_key() != nodes[j].class_key():
                raise InternalConsistencyError("spliced mutation missed the later node")
            out.extend(nodes[j], ev)
        i = j
    return out


# -- Farey descent -----------------------------------------------------------


def extend_abcd(a: int, b: int) -> FareyStep:
    """The constructive (c, d) with bc - ad = 1, 0 < c <= d < b, c <= a."""
    if not (0 < a < b) or gcd(a, b) != 1:
        raise PreconditionError("need 0 < a < b with gcd(a, b) = 1")
    if a == 1:
        c0, d0 = 1, b - 1
    else:
        c0 = pow(b % a, -1, a)
        d0 = (b * c0 - 1) // a
    d = d0 % b
    if d == 0:
        d = b
    c = c0 + ((d - d0) // b) * a
    return FareyStep(a, b, c, d)


# -- random walks (test and CLI fodder) ---------------------------------------


def random_walk(
    ctx: K0Context, steps: int, seed: int, bundle_only: bool = False
) -> MutationPath:
    """Seeded mutation walk from the canonical tilting bundle."""
    rng = random.Random(seed)
    path = MutationPath.single(t_can(ctx))
    for _ in range(steps):
        order = rng.sample(range(ctx.n), ctx.n)
        for k in order:
            t2, ev = mutate(ctx, path.end, k)
            if bundle_only and not is_bundle(t2):
                continue
            path.extend(t2, ev)
            break
        else:
            raise InternalConsistencyError("no admissible mutation found")
    return path


# -- companions ----------------------------------------------------------------


def find_companion(ctx: K0Context, x: ExcObject, q_target: Slope) -> ExcObject:
    """A full-period quasi-simple at q_target forming a rigid pair with x."""
    if x.len != 1:
        raise PreconditionError("companion search needs a quasi-simple object")
    chart = chart_for(ctx, q_target)
    for orb_idx, orbit in enumerate(chart.orbits):
        if len(orbit) != ctx.p:
            continue
        for pos, cls in enumerate(orbit):
            y = ExcObject(cls, q_target, orb_idx, pos, 1)
            if y.cls.vec == x.cls.vec:
                continue
            if ext_dim(ctx, x, y) == 0 and ext_dim(ctx, y, x) == 0:
                return y
    raise CompanionNotFound(f"no rigid companion at slope {q_target}")


# -- completion ----------------------------------------------------------------


def _slope_ceil(s: Slope) -> int:
    return -((-s.num) // s.den)


# Pool rounds of completion_containing before the mediant round.
_COMPLETION_ROUNDS = 10


def _pool_slopes(seed: list[ExcObject], round_: int) -> list[Slope]:
    finite = sorted({s.slope for s in seed if not s.slope.is_infinite})
    lo = finite[0].floor() - (round_ + 1) // 2
    hi = _slope_ceil(finite[-1]) + (round_ + 2) // 2
    if hi == lo:
        hi += 1
    den_cap = 2 + round_
    slopes: set[Slope] = {s.slope for s in seed}
    if round_ == _COMPLETION_ROUNDS:
        # Seeds at Farey-neighbour slopes have only slopes of large
        # denominator strictly between them, the mediant's the least.
        slopes.update(p.mediant(q) for p, q in zip(finite, finite[1:]))
    for b in range(1, den_cap + 1):
        for num in range(lo * b, hi * b + 1):
            slopes.add(Slope(num, b))
    ordered = sorted(
        (s for s in slopes if not s.is_infinite), key=lambda s: (s.den, s.fraction())
    )
    ordered.append(INF)
    return ordered


def completion_containing(
    ctx: K0Context, seed: list[ExcObject], budget: _Budget = DEFAULT_BUDGET
) -> TiltingObject:
    """A tilting bundle containing the seed objects as summands.

    Greedy exact search: candidates are chart windows at the seed slopes
    and at every slope of capped denominator in an integer window around
    them (`_pool_slopes`), ordered by denominator, then value (torsion
    last), pruned by pairwise ext-orthogonality; the cap and the window
    widen on failure.  That prune suffices: in coh X pairwise
    ext-orthogonal exceptional objects form a partial tilting object,
    which completes to a tilting object whose classes are a Z-basis of
    K0.  Any torsion summands of the found tilting object are mutated
    away afterwards, which never touches the seed.

    The pool rounds cap denominators at 2-11.  Seeds at Farey-neighbour
    slopes (19/83 and 11/48, say) have no slope strictly between them
    under that cap, so if every pool round fails, one last round adds
    the mediant of each pair of adjacent seed slopes to the widest pool.
    If that fails too, InternalConsistencyError names the seed slopes.
    """
    seed = list(seed)
    if not seed:
        raise PreconditionError("empty seed")
    for i, x in enumerate(seed):
        if x.slope.is_infinite or rank_of(ctx, x.cls) < 1:
            raise PreconditionError("seed objects must be bundles")
        for y in seed[i + 1 :]:
            if ext_dim(ctx, x, y) != 0 or ext_dim(ctx, y, x) != 0:
                raise PreconditionError("seed objects must be ext-orthogonal")
    clock = _clock(budget)
    seed_vecs = {x.cls.vec for x in seed}
    for round_ in range(_COMPLETION_ROUNDS + 1):
        pool = [
            ExcObject(cls, q, orbit, socle, length)
            for q in _pool_slopes(seed, round_)
            for orbit, socle, length, cls in chart_for(ctx, q).windows()
            if cls.vec not in seed_vecs
        ]
        found = _complete_dfs(ctx, seed, pool, clock)
        if found is not None:
            if not is_bundle(found):
                found, _ = purge_torsion(ctx, found)
            if not seed_vecs <= set(found.class_key()):
                raise InternalConsistencyError("completion lost a seed summand")
            return found
    raise InternalConsistencyError(
        "no completion found for seed slopes "
        + ", ".join(str(x.slope) for x in seed)
    )


def _complete_dfs(
    ctx: K0Context, seed: list[ExcObject], pool: list[ExcObject], clock: _Clock
) -> TiltingObject | None:
    n = ctx.n
    cands0 = [
        o
        for o in pool
        if all(ext_dim(ctx, o, s) == 0 and ext_dim(ctx, s, o) == 0 for s in seed)
    ]

    def rec(cands: list[ExcObject], cur: list[ExcObject]) -> TiltingObject | None:
        if len(cur) == n:
            t = make_tilting(ctx, cur)
            if not is_tilting(ctx, t):
                raise InternalConsistencyError("completion produced a non-tilting set")
            return t
        if len(cur) + len(cands) < n:
            return None
        for idx, o in enumerate(cands):
            clock.tick()
            nxt = [
                o2
                for o2 in cands[idx + 1 :]
                if ext_dim(ctx, o, o2) == 0 and ext_dim(ctx, o2, o) == 0
            ]
            got = rec(nxt, cur + [o])
            if got is not None:
                return got
        return None

    return rec(cands0, list(seed))


# -- stratum search ------------------------------------------------------------


def _reconstruct(
    parents: dict, start_key, end_key, states: dict
) -> MutationPath:
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


# Weight on the heuristic of the stratum search (Pohl, "Heuristic search
# viewed as path finding in a graph", 1970): the search goes for the target
# instead of sweeping every shorter path, and shorten_path takes back the
# detours that costs.
_STRATUM_WEIGHT = 3


def _mutation_forecast(
    ctx: K0Context, node: TiltingObject, target: TiltingObject
) -> tuple[list[int], dict[int, ExcObject]]:
    """For each summand k of node, h of node mutated at k, where h counts
    the summands not in target; and the target summand that each
    mutation lowering h brings in.  No mutation is computed.

    The complement that replaces T_k has ext with T_k.  So if T_k is in
    the (rigid) target, the complement is not, and h rises by one.  A
    target summand Z not in node is the complement that replaces T_k
    (unique, Happel-Unger) iff Z has ext, in either direction, with T_k
    and with no other summand of node: Z is then rigid with node without
    T_k.  Summands of node in the target have no ext with Z, so only the
    h others are tried.
    """
    target_vecs = set(target.class_key())
    node_vecs = set(node.class_key())
    away = [k for k, s in enumerate(node.summands) if s.cls.vec not in target_vecs]
    gains: dict[int, ExcObject] = {}
    for z in target.summands:
        if z.cls.vec in node_vecs:
            continue
        ext_with_z = (
            k
            for k in away
            if ext_dim(ctx, z, node.summands[k]) or ext_dim(ctx, node.summands[k], z)
        )
        hits = list(itertools.islice(ext_with_z, 2))
        if len(hits) == 1:
            gains[hits[0]] = z
    h = len(away)
    child_h = [
        h + 1 if s.cls.vec in target_vecs else h - 1 if k in gains else h
        for k, s in enumerate(node.summands)
    ]
    return child_h, gains


def _forecast_child(
    ctx: K0Context, node: TiltingObject, k: int, z: ExcObject
) -> tuple[TiltingObject, MutationEvent]:
    """node mutated at k, where `_mutation_forecast` named the target
    summand z as the complement of T_k; `mutate` is not called.

    z is exceptional (a summand of a tilting target).  If it has no ext
    with the n - 1 kept summands, in either direction, they and z are n
    rigid exceptional objects, a tilting object; if exactly one of
    ext(z, T_k) and ext(T_k, z) is nonzero (`tilting._exchange`), z is
    neither T_k nor a kept summand, so it is the other complement of the
    kept ones (Happel-Unger), the one `mutate` would find.  A z failing
    either check raises InternalConsistencyError naming the forecast.
    """
    for i, o in enumerate(node.summands):
        if i != k and (ext_dim(ctx, z, o) or ext_dim(ctx, o, z)):
            raise InternalConsistencyError(
                f"the forecast complement of summand {k} has ext with summand {i}"
            )
    try:
        return _exchange(ctx, node, k, z)
    except InternalConsistencyError as exc:
        raise InternalConsistencyError(
            f"the forecast complement of summand {k} is not one: {exc}"
        ) from None


def _stratum_path(
    ctx: K0Context,
    a: TiltingObject,
    b: TiltingObject,
    fixed_vec: tuple[int, ...] | None,
    clock: _Clock,
) -> MutationPath:
    """Bundle path a -> b that never mutates the summand fixed_vec, or
    any bundle path a -> b if fixed_vec is None.

    Weighted A* on h = |summands of a node not in b|, a lower bound on
    the mutations still needed because every mutation changes one
    summand: a node at depth g is ordered by g + _STRATUM_WEIGHT * h,
    ties to the deeper node, which walks straight through heuristic
    plateaus when a greedy exchange path exists, then by insertion order.

    The frontier holds pending mutations, not nodes.  Expanding a node
    pushes one entry per summand other than fixed_vec, with one clock
    tick each, ordered by the h its child will have; that h comes from
    the ext table (`_mutation_forecast`), so a child is made only when
    its entry reaches the front.  An entry forecast to lower h carries
    the target summand the forecast names as its complement, and its
    child takes that summand after the rigidity and direction checks
    (`_forecast_child`); any other entry calls `mutate`, which answers
    the entry taking a child back to its parent off the complement
    table unless the child came from the forecast.  Either child
    is then checked against its forecast priority
    (InternalConsistencyError if they differ), dropped if it is
    not a bundle or was reached at no greater depth, and otherwise
    registered, goal-tested and expanded in place.  A node reached again
    at a smaller depth is re-opened, so the weighted order, which
    overrates h, still reaches every node of the stratum, but the path
    it returns need not be minimal.
    """
    start_key = a.class_key()
    goal_key = b.class_key()
    if start_key == goal_key:
        return MutationPath.single(a)
    target = set(goal_key)
    states = {start_key: a}
    parents: dict = {}
    depth = {start_key: 0}
    heap: list = []
    counter = itertools.count()

    def expand(key, node: TiltingObject, g: int) -> None:
        child_h, gains = _mutation_forecast(ctx, node, b)
        for k, s in enumerate(node.summands):
            if s.cls.vec != fixed_vec:
                clock.tick()
                f = g + 1 + _STRATUM_WEIGHT * child_h[k]
                entry = (f, -(g + 1), next(counter), key, k, gains.get(k))
                heapq.heappush(heap, entry)

    expand(start_key, a, 0)
    while heap:
        f, neg_g, _, key, k, z = heapq.heappop(heap)
        g = -neg_g
        if z is None:
            t2, ev = mutate(ctx, states[key], k)
        else:
            t2, ev = _forecast_child(ctx, states[key], k, z)
        k2 = t2.class_key()
        if g + _STRATUM_WEIGHT * sum(1 for v in k2 if v not in target) != f:
            raise InternalConsistencyError(
                f"the mutation at summand {k} missed its forecast priority"
            )
        if not is_bundle(t2):
            continue
        if k2 in depth and depth[k2] <= g:
            continue
        depth[k2] = g
        states[k2] = t2
        parents[k2] = (key, ev)
        if k2 == goal_key:
            return _reconstruct(parents, start_key, k2, states)
        expand(k2, t2, g)
    raise BudgetExhausted("stratum search frontier emptied unexpectedly")


def connect_shared(
    ctx: K0Context,
    t: TiltingObject,
    t2: TiltingObject,
    shared: ExcObject,
    budget: _Budget = DEFAULT_BUDGET,
) -> MutationPath:
    """Bundle path t -> t2 through nodes all containing `shared`: one
    search of the stratum of tilting bundles containing it, bounded by
    the call's one clock."""
    if shared.len != 1:
        raise PreconditionError("shared summand must be quasi-simple")
    for node in (t, t2):
        if shared.cls.vec not in set(node.class_key()):
            raise PreconditionError("shared object is not a summand of both ends")
        if not is_bundle(node):
            raise PreconditionError("both ends must be tilting bundles")
    return _stratum_path(ctx, t, t2, shared.cls.vec, _clock(budget))


# -- slope-range manipulation ---------------------------------------------------


def _range_integer(ctx: K0Context, t: TiltingObject) -> int | None:
    lo, hi = slope_range(ctx, t)
    m = _slope_ceil(lo)
    return m if Slope.from_int(m) <= hi else None


def integerize(
    ctx: K0Context, t: TiltingObject, budget: _Budget = DEFAULT_BUDGET
) -> MutationPath:
    """Farey descent until the slope range contains an integer.

    Starting from a full-period quasi-simple summand of slope m + a/b,
    companions at the mediant-descent slopes m + c/d have strictly
    smaller denominators, and consecutive companions are rigid pairs,
    so routing through completions reaches slope m + 1 in finitely many
    steps.
    """
    if not is_bundle(t):
        raise PreconditionError("input must be a tilting bundle")
    if _range_integer(ctx, t) is not None:
        raise PreconditionError("slope range already contains an integer")
    clock = _clock(budget)
    k = find_full_period_quasi_simple(ctx, t)
    x = t.summands[k]
    m = x.slope.floor()
    a, b = x.slope.frac()
    path = MutationPath.single(t)
    while a != b:
        step = extend_abcd(a, b)
        target = Slope(m * step.d + step.c, step.d)
        y = find_companion(ctx, x, target)
        t_next = completion_containing(ctx, [x, y], clock)
        path = path.concat(connect_shared(ctx, path.end, t_next, x, clock))
        x = y
        a, b = step.c, step.d
    return path


# -- connecting two tilting bundles ----------------------------------------------


def _integerized(ctx: K0Context, t: TiltingObject, clock: _Clock) -> MutationPath:
    """integerize's path from t if t's slope range holds no integer, else
    the path of t alone."""
    if not is_bundle(t):
        raise PreconditionError("input must be a tilting bundle")
    if _range_integer(ctx, t) is None:
        return integerize(ctx, t, clock)
    return MutationPath.single(t)


def connect_pair(
    ctx: K0Context,
    t: TiltingObject,
    t2: TiltingObject,
    budget: _Budget = DEFAULT_BUDGET,
) -> MutationPath:
    """Verified bundle path t -> t2: each end integerized first if its
    slope range holds no integer (Farey descent), then one direct search
    between the two, the joined path with its detours spliced out
    (shorten_path) and verified.  Every connect of the library is this
    call."""
    clock = _clock(budget)
    p1 = _integerized(ctx, t, clock)
    p2 = _integerized(ctx, t2, clock)
    middle = _stratum_path(ctx, p1.end, p2.end, None, clock)
    path = shorten_path(ctx, p1.concat(middle).concat(p2.reversed()))
    if not verify_path(ctx, path):
        raise InternalConsistencyError("constructed path failed verification")
    return path


def connect_to_canonical(
    ctx: K0Context, t: TiltingObject, budget: _Budget = DEFAULT_BUDGET
) -> MutationPath:
    """Verified bundle path from t to the canonical tilting bundle: the
    pair connect to T_can.  T_can's slope range holds 0, so only t may
    need the Farey descent."""
    return connect_pair(ctx, t, t_can(ctx), budget)


# -- neighborhood exploration (graph/DOT export) ----------------------------------


def explore_graph(
    ctx: K0Context,
    start: TiltingObject,
    lo: Slope,
    hi: Slope,
    max_nodes: int,
) -> tuple[list[TiltingObject], list[tuple[int, int]]]:
    """BFS over mutations keeping nodes whose slopes stay in [lo, hi].

    Every queued node but the start lies in the window, and a mutation
    keeps all summands but the one it brings in, so only that one's slope
    is tested.  A child of a start outside the window keeps n - 1 of the
    start's summands; where one of those is outside, the child is
    skipped before anything is computed.

    Edges to known nodes are read off the context's complement table
    (`tilting._other_complement`), not mutated.  Each kept node enters
    its n almost complete keys there (its class key with summand k left
    out, still in canonical order); an almost complete tilting object has
    at most two complements (Happel-Unger), so the other one known for
    T minus T_k is the mutation of T at k, and a third raises
    InternalConsistencyError.  The BFS itself keeps only a class key ->
    node index dict.  A complement whose holder is no node of this call
    is a mutation made before, and its holder a candidate new node.  A
    key with no other complement is mutated only while the node set has
    room, since its child would be new.  So one mutation is made per
    candidate new node, and none once the node set is full.  max_nodes
    below 1 raises PreconditionError.  A table past its cap is cleared
    at the start of the call, never during it.

    A mutation that is not in the table runs in the two halves of
    `mutate`.  The candidate search is exhaustive and the complement is
    unique, so when no sheaf-like candidate class has its slope in the
    window, the child's new summand is outside and the child is dropped
    without decoding any candidate (`_candidate_classes`); otherwise the
    mutation is completed (`_complete_mutation`), which enters it into
    the table as `mutate` does.
    """
    if max_nodes < 1:
        raise PreconditionError(f"max_nodes must be at least 1, got {max_nodes}")
    _bound_complements(ctx)
    nodes = [start]
    index = {start.class_key(): 0}
    edges: set[tuple[int, int]] = set()

    def enter(node: TiltingObject, key: tuple) -> None:
        for k, s in enumerate(node.summands):
            _enter_complement(ctx, key[:k] + key[k + 1 :], node, s)

    def inside(c: K0Class) -> bool:
        r, d = rank_of(ctx, c), deg_of(ctx, c)
        if r > 0:
            return lo <= Slope(d, r) <= hi
        return r == 0 and d > 0 and hi.is_infinite

    enter(start, start.class_key())
    start_out = [k for k, s in enumerate(start.summands) if not lo <= s.slope <= hi]
    for i, node in enumerate(nodes):
        key = node.class_key()
        for k in range(ctx.n):
            if i == 0 and any(x != k for x in start_out):
                continue  # the child keeps a start summand outside the window
            ac_key = key[:k] + key[k + 1 :]
            other = _other_complement(ctx, node, k, ac_key)
            if other is not None:
                t2, added = other
                j = index.get(t2.class_key(), len(nodes))
                if j == len(nodes) and j >= max_nodes:
                    continue
            elif len(nodes) >= max_nodes:
                continue
            else:
                candidates = _candidate_classes(ctx, node, k)
                if not any(inside(c) for c in candidates):
                    continue
                t2, ev = _complete_mutation(ctx, node, k, candidates, ac_key)
                j, added = len(nodes), ev.added
            if not lo <= added.slope <= hi:
                continue
            if j == len(nodes):
                key2 = t2.class_key()
                nodes.append(t2)
                index[key2] = j
                enter(t2, key2)
            edges.add((min(i, j), max(i, j)))
    return nodes, sorted(edges)

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
once per completion candidate tried.  The deadline is also tested,
counting no node, before each unit of work that ticks nothing (a pop
of a search, a slope of a completion pool, the splicing and the final
verification of a connect), so a call sees it at most one unit after
it passes.  Exhausting the budget raises BudgetExhausted.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from math import gcd, inf

from .errors import (
    BasisMismatch,
    BudgetExhausted,
    CompanionNotFound,
    InternalConsistencyError,
    PreconditionError,
)
from .k0 import K0Context
from .records import Record, setfield
from .slopes import INF, Slope
from .tilting import (
    MutationEvent,
    TiltingObject,
    _bound_complements,
    _complete_mutation,
    _direction,
    _enter_complement,
    _exchange,
    _other_complement,
    _own,
    _prove,
    find_full_period_quasi_simple,
    is_bundle,
    is_tilting,
    make_tilting,
    mutate,
    purge_torsion,
    slope_range,
    t_can,
    torsion_exchanges,
)
from .tubes import ExcObject, _ext_either, _own_object, chart_for, window_object


def _warn(msg: str, *args: object) -> None:
    """A warning on the `tubtilt.connect` logger.  `logging` is imported
    here, when a warning is emitted, so that importing the library does
    not load it."""
    import logging

    logging.getLogger(__name__).warning(msg, *args)


class FareyStep(Record):
    """Certificate bc - ad = 1 with 0 < c <= d < b and c <= a; the
    constructor raises ValueError on any other (a, b, c, d)."""

    __slots__ = ("a", "b", "c", "d")
    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "c", c)
        setfield(self, "d", d)
        ok = (
            0 < a < b
            and gcd(a, b) == 1
            and b * c - a * d == 1
            and 0 < c <= d < b
            and c <= a
        )
        if not ok:
            raise ValueError(f"invalid Farey step {self}")


def _is_node_cap(m) -> bool:
    """True iff m is an int >= 1 and not a bool: a node count compared
    with nan, a fraction or True would bound nothing or not what it says."""
    return isinstance(m, int) and not isinstance(m, bool) and m >= 1


class SearchBudget(Record):
    """The node cap and optional wall-clock cap of one public call; the
    constructor raises ValueError unless max_nodes is an int >= 1 and
    max_seconds is None or positive and finite."""

    __slots__ = ("max_nodes", "max_seconds")
    max_nodes: int
    max_seconds: float | None

    def __init__(self, max_nodes: int = 400_000, max_seconds: float | None = None) -> None:
        if not _is_node_cap(max_nodes):
            raise ValueError(f"max_nodes must be an integer >= 1, got {max_nodes!r}")
        if max_seconds is not None and (
            isinstance(max_seconds, bool) or not 0 < max_seconds < inf
        ):
            raise ValueError("max_seconds must be positive and finite")
        setfield(self, "max_nodes", max_nodes)
        setfield(self, "max_seconds", max_seconds)


DEFAULT_BUDGET = SearchBudget()


_now = time.monotonic  # the deadline's time source


class _Clock:
    """Node count and deadline of one public call, shared by its searches.

    `tick` counts a node and tests both bounds; `check` tests the
    deadline alone.  The searches check before each unit of work that
    ticks nothing: a pop of the stratum search (one mutation) and a
    slope of a completion pool (its chart and the seed test of its
    windows); `connect_pair` checks before its splicing and its final
    verification."""

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.limit = budget.max_nodes
        self.deadline = None
        if budget.max_seconds is not None:
            self.deadline = _now() + budget.max_seconds

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise BudgetExhausted(f"node budget {self.limit} exhausted")
        self.check()

    def check(self) -> None:
        if self.deadline is not None and _now() > self.deadline:
            raise BudgetExhausted("time budget exhausted")


_Budget = SearchBudget | _Clock  # a budget, or the running clock of an enclosing call


def _clock(budget: _Budget) -> _Clock:
    return budget if isinstance(budget, _Clock) else _Clock(budget)


class MutationPath(Record):
    """A verified walk in the tilting graph; consecutive nodes differ in
    exactly one summand.

    The one mutable record: `extend` appends to its lists, so it has no
    hash, and its fields can be assigned."""

    __slots__ = ("nodes", "events")
    nodes: list[TiltingObject]
    events: list[MutationEvent]
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, nodes: list[TiltingObject], events: list[MutationEvent]) -> None:
        self.nodes = nodes
        self.events = events

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


def _own_path(ctx: K0Context, path: MutationPath) -> MutationPath:
    """path on the context's objects: its nodes and the summands of its
    events mapped (the policy of `ExcObject`); path itself when the
    context owns it all."""
    serial = ctx.serial
    if all(t._home == serial for t in path.nodes) and all(
        ev.removed._home == serial and ev.added._home == serial for ev in path.events
    ):
        return path
    events = [
        MutationEvent(
            ev.index, _own_object(ctx, ev.removed), _own_object(ctx, ev.added), ev.direction
        )
        for ev in path.events
    ]
    return MutationPath([_own(ctx, t) for t in path.nodes], events)


def verify_path(ctx: K0Context, path: MutationPath) -> bool:
    """Re-check every node and edge; returns False with a log diagnostic.

    The nodes and the events' summands are first mapped to the context's
    objects (`_own_path`); one whose coordinates disagree with the
    context's decode raises PreconditionError (the policy of `ExcObject`),
    so a path made in another context of the same weights is verified
    here as its equal.  Every node goes to the one tilting prover of the
    library (`tilting._prove`, the proof of `is_tilting`): in full for the
    first node and for any node that does not differ from the node before
    in exactly one summand, otherwise only the ext pairs with the summand
    it brings in, which the node key sets name; ext values come from the
    context's memo, keyed by the two objects.  A node proved before in
    this context, by `is_tilting` or by a verification, is read off the
    proof table (`K0Context._proved`, by node key), so each distinct node
    is proved once per context; the searches that build a path never
    write that table.  Every other node runs the one basis cross-check
    (`tilting.check_basis`), which is exact and takes the Euler Gram
    matrix from the same memo, so its work is the product of a few
    in-tube determinants, one per (slope, orbit) run.  Then every edge is
    checked against its event: two different nodes, one summand
    exchanged, the recorded removed and added summands, an index that is
    an int (not a bool) in range and holds the removed summand, and the
    direction, exactly the "L" or "R" of the one direction rule
    (`tilting._direction`, which reads no ext from the smaller slope and
    raises InternalConsistencyError on two proved nodes whose exchanged
    summands have ext in neither or both directions).  Each node's set
    of object keys, and the keys it gains over the node before, are built
    once for both checks.
    """
    if not path.nodes:
        _warn("path has no nodes")
        return False
    if len(path.events) != len(path.nodes) - 1:
        _warn("event count does not match node count")
        return False
    path = _own_path(ctx, path)
    sets = [frozenset(t._key) for t in path.nodes]
    gains = [frozenset()] + [b - a for a, b in zip(sets, sets[1:])]
    for i, node in enumerate(path.nodes):
        new = None
        if len(gains[i]) == 1 and len(node.summands) == len(sets[i]) == ctx.n:
            (new,) = gains[i]
        try:
            if not _prove(ctx, node, new):
                _warn("node %d is not tilting", i)
                return False
        except BasisMismatch:
            _warn("node %d failed the basis cross-check", i)
            return False
    for i, ev in enumerate(path.events):
        prev = path.nodes[i]
        lost, got = sets[i] - sets[i + 1], gains[i + 1]
        if not (lost or got):
            _warn("nodes %d and %d are equal", i, i + 1)
            return False
        if len(lost) != 1 or len(got) != 1:
            _warn("nodes %d -> %d differ in more than one summand", i, i + 1)
            return False
        if ev.removed._id not in lost or ev.added._id not in got:
            _warn("event %d does not match the node difference", i)
            return False
        k = ev.index
        in_range = isinstance(k, int) and not isinstance(k, bool) and 0 <= k < ctx.n
        if not in_range or prev.summands[k] is not ev.removed:
            _warn("event %d records a wrong index", i)
            return False
        if ev.direction != _direction(ctx, ev.removed, ev.added):
            _warn("event %d records a wrong direction", i)
            return False
    return True


def shorten_path(ctx: K0Context, path: MutationPath) -> MutationPath:
    """The path with its loops erased and its detours spliced out.

    From each kept node the walk jumps to the last later node that equals
    it or differs from it in one summand.  The summand z that the later
    node brings in is then a complement of their common almost complete
    tilting object other than the summand the kept node loses, so by
    Happel-Unger the spliced edge is the mutation of the kept node at that
    summand, made by the one complement check (`tilting._exchange` of z:
    rigidity and the one direction rule), with no complement search and
    no complement-table read or write.  A later node that does not bring
    in exactly one summand, a z that fails the check, or a result other
    than the later node raises InternalConsistencyError.  The result is
    never longer and keeps both end points; its nodes are the input's
    nodes on the context's objects (`_own_path`, the policy of
    `ExcObject`), and each spliced event is the one `mutate` would give
    (one object per class, one direction rule).  A path with no nodes,
    one whose event count is not its node count - 1, and two consecutive
    nodes that differ in more than one summand raise PreconditionError.
    """
    if not path.nodes:
        raise PreconditionError("path has no nodes")
    if len(path.events) != len(path.nodes) - 1:
        raise PreconditionError("event count does not match node count")
    path = _own_path(ctx, path)
    nodes = path.nodes
    sets = [frozenset(t._key) for t in nodes]
    out = MutationPath.single(nodes[0])
    i = 0
    while i < len(nodes) - 1:
        j = next((j for j in range(len(nodes) - 1, i, -1) if len(sets[i] - sets[j]) <= 1), None)
        if j is None:
            raise PreconditionError(f"nodes {i} and {i + 1} differ in more than one summand")
        if j == i + 1:
            out.extend(nodes[j], path.events[i])
        elif sets[i] != sets[j]:
            a, b = nodes[i], nodes[j]
            lost, got = sets[i] - sets[j], sets[j] - sets[i]
            spliced = None
            if len(lost) == len(got) == 1:
                spliced = _exchange(ctx, a, a._key.index(*lost), b.summands[b._key.index(*got)])
            if spliced is None or spliced[0]._key != b._key:
                raise InternalConsistencyError("spliced mutation missed the later node")
            out.extend(b, spliced[1])
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
    """Seeded mutation walk from the canonical tilting bundle.

    Each step tries the summands in a seeded order and takes the first
    admissible mutation.  With `bundle_only`, a mutation that brings in
    a torsion sheaf is not admissible, and it is skipped without being
    made (`tilting.torsion_exchanges`)."""
    rng = random.Random(seed)
    path = MutationPath.single(t_can(ctx))
    for _ in range(steps):
        order = rng.sample(range(ctx.n), ctx.n)
        torsion = torsion_exchanges(ctx, path.end) if bundle_only else None
        for k in order:
            if torsion and torsion[k]:
                continue
            t2, ev = mutate(ctx, path.end, k)
            if bundle_only and ev.added.slope.is_infinite:
                raise InternalConsistencyError(
                    "a mutation the fibre test admitted brought in a torsion sheaf"
                )
            path.extend(t2, ev)
            break
        else:
            raise InternalConsistencyError("no admissible mutation found")
    return path


# -- companions ----------------------------------------------------------------


def find_companion(ctx: K0Context, x: ExcObject, q_target: Slope) -> ExcObject:
    """A full-period quasi-simple at q_target forming a rigid pair with x,
    the context's object (`tubes.window_object`); x is mapped to the
    context's object first (the policy of `ExcObject`)."""
    if x.len != 1:
        raise PreconditionError("companion search needs a quasi-simple object")
    x = _own_object(ctx, x)
    chart = chart_for(ctx, q_target)
    for orb_idx, orbit in enumerate(chart.orbits):
        if len(orbit) != ctx.p:
            continue
        for pos, cls in enumerate(orbit):
            y = window_object(ctx, cls, q_target, orb_idx, pos, 1)
            if y is x:
                continue
            if not _ext_either(ctx, x, y):
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
    # every Slope is in lowest terms with den > 0, so num orders one den
    ordered = sorted(
        (s for s in slopes if not s.is_infinite), key=lambda s: (s.den, s.num)
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
    away afterwards, which never touches the seed.  The seed is mapped to
    the context's objects first (the policy of `ExcObject`), and the pool
    windows are the context's objects (`tubes.window_object`).

    The pool rounds cap denominators at 2-11.  Seeds at Farey-neighbour
    slopes (19/83 and 11/48, say) have no slope strictly between them
    under that cap, so if every pool round fails, one last round adds
    the mediant of each pair of adjacent seed slopes to the widest pool.
    If that fails too, InternalConsistencyError names the seed slopes.
    """
    seed = [_own_object(ctx, x) for x in seed]
    if not seed:
        raise PreconditionError("empty seed")
    seed_ids = {x._id for x in seed}
    if len(seed_ids) != len(seed):
        raise PreconditionError("seed objects must be distinct")
    for i, x in enumerate(seed):
        if x.slope.is_infinite:
            raise PreconditionError("seed objects must be bundles")
        for y in seed[i + 1 :]:
            if _ext_either(ctx, x, y):
                raise PreconditionError("seed objects must be ext-orthogonal")
    clock = _clock(budget)
    for round_ in range(_COMPLETION_ROUNDS + 1):
        cands = []
        for q in _pool_slopes(seed, round_):
            clock.check()
            for orbit, socle, length, cls in chart_for(ctx, q).windows():
                o = window_object(ctx, cls, q, orbit, socle, length)
                if o._id not in seed_ids and not any(_ext_either(ctx, o, s) for s in seed):
                    cands.append(o)
        found = _complete_dfs(ctx, seed, cands, clock)
        if found is not None:
            if not is_bundle(found):
                found, _ = purge_torsion(ctx, found)
            if not seed_ids <= set(found._key):
                raise InternalConsistencyError("completion lost a seed summand")
            return found
    raise InternalConsistencyError(
        "no completion found for seed slopes "
        + ", ".join(str(x.slope) for x in seed)
    )


def _complete_dfs(
    ctx: K0Context, seed: list[ExcObject], cands0: list[ExcObject], clock: _Clock
) -> TiltingObject | None:
    """A tilting object of the seed and pairwise ext-orthogonal pool
    objects, each already ext-orthogonal to the seed, or None."""
    n = ctx.n

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
            nxt = [o2 for o2 in cands[idx + 1 :] if not _ext_either(ctx, o, o2)]
            got = rec(nxt, cur + [o])
            if got is not None:
                return got
        return None

    return rec(cands0, list(seed))


# -- stratum search ------------------------------------------------------------


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
    mutation lowering h brings in.  No mutation is computed.  node and
    target are the context's own.

    The complement that replaces T_k has ext with T_k.  So if T_k is in
    the (rigid) target, the complement is not, and h rises by one.  A
    target summand Z not in node is the complement that replaces T_k
    (unique, Happel-Unger) iff Z has ext, in either direction, with T_k
    and with no other summand of node: Z is then rigid with node without
    T_k.  Summands of node in the target have no ext with Z, so only the
    h others count.

    Each summand's relation to the target is read once per context and
    target, as the bit mask of the target summands it has ext with
    (`tubes._ext_either`), and kept in the relation table
    (`K0Context._relations`, keyed by the target's node key, then by
    object key); a target summand j is kept as -(1 << j).  A node's
    forecast is then a few integer operations on its n masks: the bits
    set in exactly one summand's mask, less the target summands node
    holds, are the gains.
    """
    key = target._key
    rel = ctx._relations.get(key)
    if rel is None:
        rel = ctx._relations[key] = {v: -(1 << j) for j, v in enumerate(key)}
    masks = []
    held = once = twice = 0
    for s in node.summands:
        m = rel.get(s._id)
        if m is None:
            m = 0
            for j, z in enumerate(target.summands):
                if _ext_either(ctx, s, z):
                    m |= 1 << j
            rel[s._id] = m
        if m < 0:
            held -= m
        else:
            twice |= once & m
            once |= m
        masks.append(m)
    single = once & ~twice & ~held
    h = len(masks) - held.bit_count()
    child_h = []
    gains: dict[int, ExcObject] = {}
    for k, m in enumerate(masks):
        if m < 0:
            child_h.append(h + 1)
        elif m & single:
            child_h.append(h - 1)
            gains[k] = target.summands[(m & single).bit_length() - 1]
        else:
            child_h.append(h)
    return child_h, gains


def _forecast_child(
    ctx: K0Context, node: TiltingObject, k: int, z: ExcObject
) -> tuple[TiltingObject, MutationEvent]:
    """node mutated at k, where `_mutation_forecast` named the target
    summand z as the complement of T_k; `mutate` is not called.

    z is exceptional (a summand of a tilting target), so it goes to the
    complement check of `_complete_mutation` undecoded
    (`tilting._exchange`: no ext with the kept summands, one exchange
    direction); a z that passes is the other complement, the one `mutate`
    would find.  A z failing either check raises InternalConsistencyError
    naming the forecast.
    """
    try:
        got = _exchange(ctx, node, k, z)
    except InternalConsistencyError as exc:
        raise InternalConsistencyError(
            f"the forecast complement of summand {k} is not one: {exc}"
        ) from None
    if got is None:
        raise InternalConsistencyError(
            f"the forecast complement of summand {k} has ext with a kept summand"
        )
    return got


def _stratum_path(
    ctx: K0Context,
    a: TiltingObject,
    b: TiltingObject,
    fixed_vec: tuple[int, ...] | None,
    clock: _Clock,
) -> MutationPath:
    """Bundle path a -> b that never mutates the summand fixed_vec, or
    any bundle path a -> b if fixed_vec is None.  a and b are tilting
    bundles that the context owns (its callers map them); a start that is
    not a bundle raises PreconditionError.

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
    table unless the child came from the forecast.

    A child differs from its parent in one summand, so its bookkeeping
    is O(1).  An entry carries its parent's h, and the child's h is that
    h, less 1 if the summand removed was not in b, plus 1 if the summand
    added is not; this h is checked against the forecast priority
    (InternalConsistencyError if they differ).  Every expanded node is a
    bundle, so a child is a bundle exactly when the summand it brings in
    has a finite slope.  A child that is not a bundle, or was reached at
    no greater depth, is dropped; any other is registered, goal-tested
    and expanded in place.  A frontier entry carries its parent node,
    and each node reached keeps one record (depth, parent node, event)
    under its node key, through which the path is read back from the
    goal.  A node reached again at a smaller depth is re-opened, so the
    weighted order, which overrates h, still reaches every node of the
    stratum, but the path it returns need not be minimal.
    """
    if not is_bundle(a):
        raise PreconditionError("the stratum search starts at a tilting bundle")
    start_key = a._key
    goal_key = b._key
    if start_key == goal_key:
        return MutationPath.single(a)
    target = set(goal_key)
    fixed = next((s._id for s in a.summands if s.cls.vec == fixed_vec), None)
    # node key -> (depth, parent node, event) of the best way found there
    seen: dict = {start_key: (0, None, None)}
    heap: list = []
    counter = itertools.count()

    def expand(node: TiltingObject, g: int, h: int) -> None:
        child_h, gains = _mutation_forecast(ctx, node, b)
        for k, s in enumerate(node.summands):
            if s._id != fixed:
                clock.tick()
                f = g + 1 + _STRATUM_WEIGHT * child_h[k]
                entry = (f, -(g + 1), next(counter), node, k, gains.get(k), h)
                heapq.heappush(heap, entry)

    expand(a, 0, sum(1 for v in start_key if v not in target))
    while heap:
        clock.check()
        f, neg_g, _, node, k, z, h = heapq.heappop(heap)
        g = -neg_g
        if z is None:
            t2, ev = mutate(ctx, node, k)
        else:
            t2, ev = _forecast_child(ctx, node, k, z)
        h += (ev.added._id not in target) - (ev.removed._id not in target)
        if g + _STRATUM_WEIGHT * h != f:
            raise InternalConsistencyError(
                f"the mutation at summand {k} missed its forecast priority"
            )
        if ev.added.slope.is_infinite:
            continue
        k2 = t2._key
        known = seen.get(k2)
        if known is not None and known[0] <= g:
            continue
        seen[k2] = (g, node, ev)
        if k2 == goal_key:
            nodes, events = [t2], [ev]
            while node is not a:
                _, parent, ev = seen[node._key]
                nodes.append(node)
                events.append(ev)
                node = parent
            return MutationPath([a, *reversed(nodes)], events[::-1])
        expand(t2, g, h)
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
    the call's one clock.  t, t2 and `shared` are mapped to the context's
    objects first (the policy of `ExcObject`); an end that is not a
    tilting bundle (`is_tilting`, which records its proof) raises
    PreconditionError before the search."""
    if shared.len != 1:
        raise PreconditionError("shared summand must be quasi-simple")
    t, t2, shared = _own(ctx, t), _own(ctx, t2), _own_object(ctx, shared)
    for node in (t, t2):
        if shared._id not in node._key:
            raise PreconditionError("shared object is not a summand of both ends")
        if not is_bundle(node) or not is_tilting(ctx, node):
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
    steps.  t is mapped to the context's objects first (the policy of
    `ExcObject`); one that is not a tilting bundle (`is_tilting`) raises
    PreconditionError.
    """
    t = _own(ctx, t)
    if not is_bundle(t) or not is_tilting(ctx, t):
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
    the path of t alone; PreconditionError before any search if t is not
    a tilting bundle.  The proof of `is_tilting` is recorded, so the
    final verification of the connect reads t off the proof table."""
    if not is_bundle(t) or not is_tilting(ctx, t):
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
    """Verified bundle path t -> t2: each end proved a tilting bundle
    (PreconditionError if not) and integerized first if its slope range
    holds no integer (Farey descent), then one direct search
    between the two, the joined path with its detours spliced out
    (shorten_path) and verified.  Every connect of the library is this
    call.  The deadline is tested before the splicing and before the
    verification, which tick nothing, so a deadline that passes during
    the last search is seen before either runs.  The ends are mapped to
    the context's objects first (the policy of `ExcObject`), so ends made
    in another context of the same weights connect as their equals."""
    clock = _clock(budget)
    p1 = _integerized(ctx, _own(ctx, t), clock)
    p2 = _integerized(ctx, _own(ctx, t2), clock)
    middle = _stratum_path(ctx, p1.end, p2.end, None, clock)
    clock.check()
    path = shorten_path(ctx, p1.concat(middle).concat(p2.reversed()))
    clock.check()
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
    its n almost complete keys there (its node key with summand k left
    out, still in canonical order); an almost complete tilting object has
    at most two complements (Happel-Unger), so the other one known for
    T minus T_k is the mutation of T at k, and a third raises
    InternalConsistencyError.  The BFS itself keeps only a node key ->
    node index dict.  start is mapped to the context's objects first (the
    policy of `ExcObject`).  A complement whose holder is no node of this call
    is a mutation made before, and its holder a candidate new node.  A
    key with no other complement is mutated only while the node set has
    room, since its child would be new.  So one mutation is made per
    candidate new node, and none once the node set is full.  A max_nodes
    that is not an int >= 1 (a bool, a float or below 1) raises
    PreconditionError.  A table past its cap is cleared
    at the start of the call, never during it.

    A mutation that is not in the table is first put to the fibre test
    when the node is a bundle and hi is finite: one that brings in a
    torsion sheaf (`tilting.torsion_exchanges`) leaves the window, and its
    child is dropped with no search.  Any other is computed by
    `_complete_mutation`, the miss path of `mutate`, which enters it into
    the table; a child whose new summand lies outside the window is then
    dropped by the slope test.  The call does not go through `mutate`,
    which could clear the table between two nodes.
    """
    if not _is_node_cap(max_nodes):
        raise PreconditionError(f"max_nodes must be an integer >= 1, got {max_nodes!r}")
    _bound_complements(ctx)
    start = _own(ctx, start)
    nodes = [start]
    index = {start._key: 0}
    edges: set[tuple[int, int]] = set()

    def enter(node: TiltingObject, key: tuple) -> None:
        for k, s in enumerate(node.summands):
            _enter_complement(ctx, key[:k] + key[k + 1 :], node, s)

    enter(start, start._key)
    start_out = [k for k, s in enumerate(start.summands) if not lo <= s.slope <= hi]
    for i, node in enumerate(nodes):
        key = node._key
        torsion = None  # the fibre test of node, taken at its first cold search
        for k in range(ctx.n):
            if i == 0 and any(x != k for x in start_out):
                continue  # the child keeps a start summand outside the window
            ac_key = key[:k] + key[k + 1 :]
            other = _other_complement(ctx, node, k, ac_key)
            if other is not None:
                t2, added = other
                j = index.get(t2._key, len(nodes))
                if j == len(nodes) and j >= max_nodes:
                    continue
            elif len(nodes) >= max_nodes:
                continue
            else:
                if torsion is None:
                    fibre = not hi.is_infinite and is_bundle(node)
                    torsion = torsion_exchanges(ctx, node) if fibre else ()
                if torsion and torsion[k]:
                    continue  # its new summand is torsion, outside the window
                t2, ev = _complete_mutation(ctx, node, k, ac_key)
                j, added = len(nodes), ev.added
            if not lo <= added.slope <= hi:
                continue
            if j == len(nodes):
                key2 = t2._key
                nodes.append(t2)
                index[key2] = j
                enter(t2, key2)
            edges.add((min(i, j), max(i, j)))
    return nodes, sorted(edges)

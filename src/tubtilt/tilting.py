"""Tilting objects and the mutation engine.

A tilting object is recorded as its n pairwise ext-orthogonal
exceptional summands; the classes then automatically form a lattice
basis, which is cross-checked.  The cross-check reads the Euler Gram
matrix chi(T_i, T_j) off the (hom, ext) memo that the ext test has just
filled: ext-orthogonality makes it block triangular over the summands'
(slope, orbit) runs, so its determinant is a product of 1x1 entries and
of small in-tube blocks (`check_basis`).

Mutation exchanges one summand for the unique other complement of the
remaining almost complete tilting object; the complement is found by a
bounded search over approximation multiplicities, which is exhaustive
because the middle term of the exchange sequence is a minimal
approximation.

The search runs on scalars.  Since the summands are exceptional and
pairwise ext-orthogonal, their Euler pairings are their hom dimensions,
so chi(c, c) of a candidate c = sum_i b_i [T_i] - [T_k] is a quadratic
in the multiplicities b over that Gram matrix.  All its cross terms are
<= 0, which bounds what the unvisited multiplicities can still add and
lets a branch and bound skip most of the box.  A root is turned into a
class and decoded only if it passes necessary conditions that are
linear in b (no forced ext against a summand, rank >= 0); the search
carries those linear forms down its recursion, one column of the Gram
matrix per level, so each root is filtered in O(n) where it reaches the
last level.  The decoded survivors are then checked as before.  The
other summands keep their canonical order, so the result is built by
inserting the complement at its place, not by sorting all n again.

`mutate` is a lookup in the context's complement table, followed on a
miss by two halves: the candidate classes (`_candidate_classes`, the
search above) and their completion (`_complete_mutation`: decode, ext
checks, uniqueness, exchange and the table write).  The table maps an
almost complete key, a class key with one summand left out, to the
complements known for it.  An almost complete tilting object has at
most two (Happel-Unger), and mutation swaps one for the other, so one
computed mutation answers both directions: the child mutated back at
the summand it brought in is read off the table.  The search is
exhaustive and the complement unique, so a caller that only wants
children with some property of the new summand, such as its slope, can
drop a child from its candidate classes without decoding any of them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    BasisMismatch,
    ComplementNotFound,
    ComplementNotUnique,
    DuplicateSummands,
    InternalConsistencyError,
    NoFullPeriodSummand,
    NotExceptionalHere,
    NotFirstObject,
    NotLastObject,
    NotSheafLike,
    PreconditionError,
    WrongSummandCount,
)
from .intmat import det as int_det
from .k0 import K0Class, K0Context, rank_of
from .slopes import Slope
from .tubes import (
    ExcObject,
    exc_from_class,
    ext_dim,
    hom_dim,
    line_bundle_obj,
    orbit_rank,
)
from .weights import LElement, WeightData, c_gen, l_add, l_zero, x_gen


@dataclass(frozen=True)
class TiltingObject:
    summands: tuple[ExcObject, ...]

    def index_of(self, obj: ExcObject) -> int:
        for i, s in enumerate(self.summands):
            if s.cls.vec == obj.cls.vec:
                return i
        raise ValueError("object is not a summand")

    def class_key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.cls.vec for s in self.summands)


@dataclass(frozen=True)
class MutationEvent:
    """The exchange of summand `index`, `removed`, for `added`.

    The two complements sit in the exchange sequence
    0 -> removed -> B -> added -> 0 (direction "L", ext(added, removed) > 0)
    or 0 -> added -> B -> removed -> 0 (direction "R"), whose middle term
    B is the minimal approximation by the other summands.  `approx_class`
    is its class [B] = [removed] + [added].
    """

    index: int
    removed: ExcObject
    added: ExcObject
    direction: str

    @property
    def approx_class(self) -> K0Class:
        return self.removed.cls + self.added.cls


def make_tilting(ctx: K0Context, objs: Iterable[ExcObject]) -> TiltingObject:
    """Structural constructor: right count, no duplicates, canonical order.

    It does not check that the summands are pairwise ext-orthogonal.
    Its callers pass tilting summands (canonical bundles, mutation
    results, completions that passed `is_tilting`), and
    `serialize.tilting_from_dict` checks records read from outside.
    """
    lst = list(objs)
    if len(lst) != ctx.n:
        raise WrongSummandCount(f"expected {ctx.n} summands, got {len(lst)}")
    seen = set()
    for o in lst:
        if o.cls.vec in seen:
            raise DuplicateSummands(f"duplicate summand class {o.cls.vec}")
        seen.add(o.cls.vec)
    lst.sort(key=lambda o: o.sort_key())
    return TiltingObject(tuple(lst))


def is_tilting(ctx: K0Context, objs: Sequence[ExcObject] | TiltingObject) -> bool:
    """Rigid with n pairwise distinct summands; basis cross-checked.

    Returns False on the countable failures; raises BasisMismatch when
    an ext-orthogonal n-set fails the basis cross-check (`check_basis`),
    since that would contradict the operational definition of tilting.
    The cross-check costs no new hom/ext: it reads the memo entries that
    the ext test below has just filled.
    """
    lst = list(objs.summands if isinstance(objs, TiltingObject) else objs)
    if len(lst) != ctx.n:
        return False
    if len({o.cls.vec for o in lst}) != ctx.n:
        return False
    for x in lst:
        for y in lst:
            if ext_dim(ctx, x, y) != 0:
                return False
    check_basis(ctx, objs if isinstance(objs, TiltingObject) else lst)
    return True


def check_basis(ctx: K0Context, objs: Sequence[ExcObject] | TiltingObject) -> None:
    """The basis cross-check of an ext-orthogonal n-set: its classes
    must be a Z-basis of K0, else BasisMismatch.

    Precondition: ext(x, y) = 0 for every ordered pair of summands, x = y
    included (`is_tilting` and `connect._node_is_tilting` prove it just
    before the call).  Let A be the matrix of class vectors, one row per
    summand, and E the Euler matrix.  The Gram matrix G = A E A^T has
    entries chi(a_i, a_j), and det(G) = det(A)^2 det(E) with
    det(E) = +-1 (`K0Context.euler_det`), so |det(A)| = 1 exactly when
    det(G) = det(E).  Put the summands in canonical order and take x in a
    later (slope, orbit) run than y: x has the larger slope, or the same
    slope and another tube, so hom(x, y) = 0 and chi(x, y) = -ext(x, y)
    = 0.  G is therefore block upper triangular over the runs, and det(G)
    is the product of the runs' blocks (`_gram_det`).  A TiltingObject is
    already in canonical order; a plain sequence is sorted here.
    """
    if isinstance(objs, TiltingObject):
        summands: Sequence[ExcObject] = objs.summands
    else:
        summands = sorted(objs, key=ExcObject.sort_key)
    d = _gram_det(ctx, summands)
    if d != ctx.euler_det:
        raise BasisMismatch(
            f"ext-orthogonal n-set has Gram determinant {d}, not det(E) = {ctx.euler_det}"
        )


def _gram_det(ctx: K0Context, summands: Sequence[ExcObject]) -> int:
    """det(chi(a_i, a_j)) of ext-orthogonal summands in canonical order:
    the product of its diagonal blocks over the (slope, orbit) runs (see
    `check_basis`).

    chi(x, y) is hom(x, y) - ext(x, y), read from the context's memo; a
    missing entry means the precondition of `check_basis` was not
    established in this context (PreconditionError).  A one-summand run
    contributes its diagonal entry.  A longer run lies in one tube of
    rank r and holds at most r - 1 summands, and its block goes to the
    Bareiss determinant.
    """
    pairs = ctx._pairs
    out = 1
    n = len(summands)
    i = 0
    try:
        while i < n:
            x = summands[i]
            j = i + 1
            while j < n and summands[j].orbit == x.orbit and summands[j].slope == x.slope:
                j += 1
            if j == i + 1:
                h, e = pairs[x.cls.vec, x.cls.vec]
                out *= h - e
            else:
                vecs = [o.cls.vec for o in summands[i:j]]
                block = []
                for a in vecs:
                    row = []
                    for b in vecs:
                        h, e = pairs[a, b]
                        row.append(h - e)
                    block.append(row)
                out *= int_det(block)
            i = j
    except KeyError:
        raise PreconditionError(
            "the basis cross-check needs the ext of every pair of summands first"
        ) from None
    return out


def is_bundle(t: TiltingObject) -> bool:
    return all(not s.slope.is_infinite for s in t.summands)


# -- canonical tilting bundle -----------------------------------------------


def canonical_interval(w: WeightData) -> list[LElement]:
    """The elements 0 <= x <= c: zero, j x_i (1 <= j < p_i), and c."""
    out = [l_zero(w)]
    for i, p_i in enumerate(w.weights):
        e = l_zero(w)
        for _ in range(1, p_i):
            e = l_add(e, x_gen(w, i))
            out.append(e)
    out.append(c_gen(w))
    return out


def t_can(ctx: K0Context, twist: LElement | None = None) -> TiltingObject:
    """The canonical tilting bundle, optionally twisted.

    The untwisted bundle is built once per context and kept in
    `ctx._t_can`; TiltingObject and its summands are frozen, so every
    caller shares the one object.  A twisted bundle is built anew on
    each call.
    """
    if twist is None and ctx._t_can is not None:
        return ctx._t_can  # type: ignore[return-value]
    base = canonical_interval(ctx.weights)
    if twist is not None:
        base = [l_add(x, twist) for x in base]
    t = make_tilting(ctx, (line_bundle_obj(ctx, x) for x in base))
    if twist is None:
        ctx._t_can = t
    return t


# -- hom structure among summands -------------------------------------------


def first_objects(ctx: K0Context, t: TiltingObject) -> tuple[int, ...]:
    """Indices receiving no nonzero map from any other summand."""
    out = []
    for k, tk in enumerate(t.summands):
        if all(
            hom_dim(ctx, ti, tk) == 0 for i, ti in enumerate(t.summands) if i != k
        ):
            out.append(k)
    return tuple(out)


def last_objects(ctx: K0Context, t: TiltingObject) -> tuple[int, ...]:
    """Indices emitting no nonzero map to any other summand."""
    out = []
    for k, tk in enumerate(t.summands):
        if all(
            hom_dim(ctx, tk, ti) == 0 for i, ti in enumerate(t.summands) if i != k
        ):
            out.append(k)
    return tuple(out)


def slope_range(ctx: K0Context, t: TiltingObject) -> tuple[Slope, Slope]:
    slopes = [s.slope for s in t.summands]
    return min(slopes), max(slopes)


# -- mutation ----------------------------------------------------------------


def _exchange_gram(
    ctx: K0Context, tk: ExcObject, others: Sequence[ExcObject]
) -> tuple[list[ExcObject], list[list[int]], list[int], list[int]]:
    """The summands T_i with a nonzero hom to or from T_k, their hom
    matrix hom(T_i, T_j), and hom(T_k, T_i) and hom(T_i, T_k).

    The diagonal is 1 without a lookup: the summands are exceptional, and
    the quadratic in `_gram_roots` already takes hom(T_i, T_i) as 1."""
    free: list[ExcObject] = []
    h_to: list[int] = []
    h_from: list[int] = []
    for o in others:
        to, fro = hom_dim(ctx, tk, o), hom_dim(ctx, o, tk)
        if to or fro:
            free.append(o)
            h_to.append(to)
            h_from.append(fro)
    gram = [[1 if x is y else hom_dim(ctx, x, y) for y in free] for x in free]
    return free, gram, h_to, h_from


def _gram_roots(
    gram: Sequence[Sequence[int]],
    h_to: Sequence[int],
    h_from: Sequence[int],
    ranks: Sequence[int],
    rank_k: int,
) -> list[tuple[int, ...]]:
    """All b with 0 <= b_i <= max(h_to[i], h_from[i]) and
    sum_i (s_i b_i - b_i^2) - sum_{i<j} b_i b_j S_ij = 0, where
    s_i = h_to[i] + h_from[i] and S_ij = gram[i][j] + gram[j][i],
    that pass the exchange filters sum_j b_j gram[i][j] >= h_from[i],
    sum_j b_j gram[j][i] >= h_to[i] and sum_j b_j ranks[j] >= rank_k,
    in lexicographic order.

    Branch and bound on the partial sum: the entries are hom dimensions,
    so every cross term is <= 0 and level i adds at most s_i^2 // 4; a
    partial sum below minus the remaining levels' maximum never returns
    to 0.  The filter sums out[i] = sum_j b_j gram[i][j] and
    in_[i] = sum_j b_j gram[j][i] are carried down the recursion, and so
    is the rank sum: setting b_i = v adds v times column i (row i for
    in_), and leaving level i takes it off again.  At level i only
    b_0..b_{i-1} are set, so its linear coefficient
    s_i - sum_{j<i} b_j S_ij is s_i - out[i] - in_[i], and the filters
    cost O(m) at a leaf.
    """
    m = len(gram)
    s = [h_to[i] + h_from[i] for i in range(m)]
    bounds = [max(h_to[i], h_from[i]) for i in range(m)]
    rest = [0] * (m + 1)  # rest[i]: the most that levels i.. can still add
    for i in range(m - 1, -1, -1):
        rest[i] = rest[i + 1] + s[i] * s[i] // 4
    cols = list(zip(*gram))
    idx = range(m)
    out = [0] * m
    in_ = [0] * m
    hits: list[tuple[int, ...]] = []
    b = [0] * m

    def shift(i: int, d: int) -> None:
        col, row = cols[i], gram[i]
        for r in idx:
            out[r] += d * col[r]
            in_[r] += d * row[r]

    def rec(i: int, f: int, rank: int) -> None:
        if i == m:
            if (
                f == 0
                and rank >= rank_k
                and all(out[r] >= h_from[r] and in_[r] >= h_to[r] for r in idx)
            ):
                hits.append(tuple(b))
            return
        a = s[i] - out[i] - in_[i]
        floor = -rest[i + 1]
        for v in range(bounds[i] + 1):
            g = f + (a - v) * v
            if g >= floor:
                if v != b[i]:
                    shift(i, v - b[i])
                    b[i] = v
                rec(i + 1, g, rank + v * ranks[i])
            elif 2 * v >= a:
                break  # (a - v) v only falls from here on
        if b[i]:
            shift(i, -b[i])
            b[i] = 0

    rec(0, 0, 0)
    return hits


def _insert_summand(
    others: tuple[ExcObject, ...], new: ExcObject
) -> TiltingObject:
    """`others`, already in canonical order, with `new` inserted at its
    place: the result `make_tilting` would sort into."""
    pos = bisect_left(others, new.sort_key(), key=ExcObject.sort_key)
    if pos < len(others) and others[pos].cls.vec == new.cls.vec:
        raise DuplicateSummands(f"duplicate summand class {new.cls.vec}")
    return TiltingObject(others[:pos] + (new,) + others[pos:])


def _exchange(
    ctx: K0Context, t: TiltingObject, k: int, new: ExcObject
) -> tuple[TiltingObject, MutationEvent]:
    """t with summand k exchanged for `new`, its other complement, and
    the event: the end of `_complete_mutation`, shared with the stratum
    search, which takes `new` from its forecast
    (`connect._forecast_child`).

    The direction is L iff ext(new, T_k) > 0; exactly one of ext(new, T_k)
    and ext(T_k, new) is nonzero for two complements, else
    InternalConsistencyError.  The check runs before the insertion, so a
    `new` that is already a summand fails it too.
    """
    tk = t.summands[k]
    e_left = ext_dim(ctx, new, tk)  # nonzero iff 0 -> T_k -> B -> new -> 0
    e_right = ext_dim(ctx, tk, new)
    if (e_left > 0) == (e_right > 0):
        raise InternalConsistencyError(
            f"exchange direction ambiguous: ext {e_left}/{e_right}"
        )
    result = _insert_summand(t.summands[:k] + t.summands[k + 1 :], new)
    event = MutationEvent(
        index=k,
        removed=tk,
        added=new,
        direction="L" if e_left > 0 else "R",
    )
    return result, event


def _candidate_classes(ctx: K0Context, t: TiltingObject, k: int) -> list[K0Class]:
    """First half of `mutate`: the classes c = sum_i b_i [T_i] - [T_k]
    that the complement of t minus T_k can have, one per root b.

    The b_i run over the remaining summands with
    0 <= b_i <= max(hom(T_k, T_i), hom(T_i, T_k)); the bound covers the
    multiplicities of a minimal approximation in either exchange
    direction, so the complement's class is among the results.  Summands
    with b_i bounded by 0 drop out.  Since the summands are exceptional
    and pairwise ext-orthogonal, chi(T_i, T_j) = hom(T_i, T_j), and
    chi(c, c) = 1 becomes the scalar equation
    sum_i (s_i b_i - b_i^2) - sum_{i<j} b_i b_j S_ij = 0 with
    s_i = hom(T_k, T_i) + hom(T_i, T_k) and S_ij = hom(T_i, T_j) +
    hom(T_j, T_i), solved by branch and bound (`_gram_roots`).  A root
    is kept only if it passes three necessary conditions that are linear
    in b: chi(T_i, c) >= 0 and chi(c, T_i) >= 0 (a negative value forces
    an ext against T_i) and rank(c) >= 0.  `_gram_roots` carries these
    sums down its recursion and applies them at each root.  Nothing is
    decoded here and no memo is written.
    """
    tk = t.summands[k]
    others = t.summands[:k] + t.summands[k + 1 :]
    free, gram, h_to, h_from = _exchange_gram(ctx, tk, others)
    ranks = [rank_of(ctx, o.cls) for o in free]
    rank_k = rank_of(ctx, tk.cls)
    out: list[K0Class] = []
    for b in _gram_roots(gram, h_to, h_from, ranks, rank_k):
        vec = [-x for x in tk.cls.vec]
        for bj, o in zip(b, free):
            if bj:
                vec = [a + bj * x for a, x in zip(vec, o.cls.vec)]
        out.append(K0Class(tuple(vec)))
    return out


def _enter_complement(
    ctx: K0Context, ac_key: tuple, holder: TiltingObject, comp: ExcObject
) -> None:
    """Record in the complement table that `holder` is the almost complete
    tilting object `ac_key` plus its complement `comp`.  A complement
    already known is left as it is; a third distinct one contradicts
    Happel-Unger and raises InternalConsistencyError."""
    table = ctx._complements
    got = table.get(ac_key)
    if got is None:
        table[ac_key] = (holder, comp)
        return
    vec = comp.cls.vec
    if any(known.cls.vec == vec for known in got[1::2]):
        return
    if len(got) == 4:
        raise InternalConsistencyError(
            "three complements of one almost complete tilting object: slopes "
            + ", ".join(str(c.slope) for c in (got[1], got[3], comp))
        )
    table[ac_key] = got + (holder, comp)


def _complete_mutation(
    ctx: K0Context,
    t: TiltingObject,
    k: int,
    candidates: Sequence[K0Class],
    ac_key: tuple,
) -> tuple[TiltingObject, MutationEvent]:
    """Second half of `mutate`: decode the candidate classes of
    `_candidate_classes(ctx, t, k)`, keep the ones that are exceptional
    sheaves ext-orthogonal to the other summands in both directions, and
    exchange T_k for the one survivor (`_exchange`, which checks the
    direction and inserts the complement at its place in the canonical
    order).  No survivor raises ComplementNotFound, more than one
    ComplementNotUnique.  Both t and the result are entered into the
    complement table under `ac_key`, t's class key with summand k left
    out, so the result mutated back at its new summand is a lookup.
    """
    others = t.summands[:k] + t.summands[k + 1 :]
    survivors: list[ExcObject] = []
    for c in candidates:
        try:
            obj = exc_from_class(ctx, c)
        except (NotSheafLike, NotExceptionalHere):
            continue
        if all(
            ext_dim(ctx, obj, o) == 0 and ext_dim(ctx, o, obj) == 0 for o in others
        ):
            survivors.append(obj)

    if not survivors:
        raise ComplementNotFound(f"no complement found when mutating at index {k}")
    if len(survivors) > 1:
        raise ComplementNotUnique(
            f"{len(survivors)} complements found when mutating at index {k}"
        )
    got = _exchange(ctx, t, k, survivors[0])
    _enter_complement(ctx, ac_key, t, t.summands[k])
    _enter_complement(ctx, ac_key, got[0], survivors[0])
    return got


def _other_complement(
    ctx: K0Context, t: TiltingObject, k: int, ac_key: tuple
) -> tuple[TiltingObject, ExcObject] | None:
    """The complement of t without T_k, other than T_k, that the
    complement table knows under `ac_key`, with its holder; None if
    there is none.  t is entered as the key's second holder if it is not
    yet there, so two known complements that both differ from T_k raise
    InternalConsistencyError."""
    known = ctx._complements.get(ac_key)
    if known is None:
        return None
    vk = t.summands[k].cls.vec
    if known[1].cls.vec == vk:
        return known[2:] or None
    if len(known) == 2 or known[3].cls.vec != vk:
        _enter_complement(ctx, ac_key, t, t.summands[k])
    return known[:2]


# Entries of the complement table (`K0Context._complements`) past which it
# is cleared, before a mutation is computed or a graph explored.
_COMPLEMENT_TABLE_CAP = 300_000


def _bound_complements(ctx: K0Context) -> None:
    if len(ctx._complements) > _COMPLEMENT_TABLE_CAP:
        ctx._complements.clear()


def mutate(ctx: K0Context, t: TiltingObject, k: int) -> tuple[TiltingObject, MutationEvent]:
    """Exchange summand k for the unique other complement.

    First a lookup of t without T_k in the complement table: a known
    complement other than T_k gives its holder, the result, and the
    event's direction comes from the hom/ext memo (`_other_complement`,
    which also enters t, so two known complements that both differ from
    T_k raise InternalConsistencyError).  On a miss, the two
    halves: `_candidate_classes` finds the classes the complement can
    have, and `_complete_mutation` decodes them, keeps the one
    complement and enters t and the result into the table.  Before a
    miss, a table past `_COMPLEMENT_TABLE_CAP` entries is cleared.  The
    tilting graph export (`connect.explore_graph`) runs the halves
    itself, so it can drop a child from its candidate classes alone.

    Precondition: t is tilting (see `make_tilting`); the result is then
    tilting without a re-check.  The complement is unique (Happel-Unger)
    and its class is -[T_k] modulo the other summands, so the classes
    of the result have determinant -det(t) = +-1, and the only new ext
    pairs are the ones between the complement and the other summands,
    checked in `_complete_mutation`.
    """
    key = t.class_key()
    ac_key = key[:k] + key[k + 1 :]
    other = _other_complement(ctx, t, k, ac_key)
    if other is not None:
        holder, comp = other
        tk = t.summands[k]
        direction = "L" if ext_dim(ctx, comp, tk) > 0 else "R"
        return holder, MutationEvent(k, tk, comp, direction)
    _bound_complements(ctx)
    return _complete_mutation(ctx, t, k, _candidate_classes(ctx, t, k), ac_key)


def apr_mutate(ctx: K0Context, t: TiltingObject, k: int) -> tuple[TiltingObject, MutationEvent]:
    """Mutation at a first object; slope rises but stays within range."""
    if k not in first_objects(ctx, t):
        raise NotFirstObject(f"summand {k} is not a first object")
    hi = max(s.slope for s in t.summands)
    was_bundle = is_bundle(t)
    t2, ev = mutate(ctx, t, k)
    if not (ev.removed.slope <= ev.added.slope <= hi):
        raise InternalConsistencyError(
            f"APR slope bound violated: {ev.removed.slope} -> {ev.added.slope}"
        )
    if was_bundle and not is_bundle(t2):
        raise InternalConsistencyError("APR mutation left the bundle subgraph")
    return t2, ev


def co_apr_mutate(ctx: K0Context, t: TiltingObject, k: int) -> tuple[TiltingObject, MutationEvent]:
    """Mutation at a last object; slope drops but stays within range."""
    if k not in last_objects(ctx, t):
        raise NotLastObject(f"summand {k} is not a last object")
    lo = min(s.slope for s in t.summands)
    was_bundle = is_bundle(t)
    t2, ev = mutate(ctx, t, k)
    if not (lo <= ev.added.slope <= ev.removed.slope):
        raise InternalConsistencyError(
            f"co-APR slope bound violated: {ev.removed.slope} -> {ev.added.slope}"
        )
    if was_bundle and not is_bundle(t2):
        raise InternalConsistencyError("co-APR mutation left the bundle subgraph")
    return t2, ev


def purge_torsion(ctx: K0Context, t: TiltingObject) -> tuple[TiltingObject, list[MutationEvent]]:
    """Mutate away all infinite-slope summands, largest quasi-length first.

    Each step replaces one torsion summand by a finite-slope object, so
    the result is a tilting bundle after exactly s events.
    """
    torsion = [s for s in t.summands if s.slope.is_infinite]
    torsion.sort(key=lambda s: (-s.len, s.sort_key()))
    events: list[MutationEvent] = []
    cur = t
    for obj in torsion:
        k = cur.index_of(obj)
        cur, ev = mutate(ctx, cur, k)
        if ev.added.slope.is_infinite:
            raise InternalConsistencyError(
                "torsion purge produced another torsion summand"
            )
        events.append(ev)
    if not is_bundle(cur):
        raise InternalConsistencyError("torsion purge did not reach a bundle")
    return cur, events


def find_full_period_quasi_simple(ctx: K0Context, t: TiltingObject) -> int:
    """Smallest-index quasi-simple summand whose orbit size equals p."""
    for i, s in enumerate(t.summands):
        if s.len == 1 and orbit_rank(ctx, s) == ctx.p:
            return i
    raise NoFullPeriodSummand(
        "tilting object has no full-period quasi-simple summand"
    )


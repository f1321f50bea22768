"""Tilting objects and the mutation engine.

A tilting object is recorded as its n pairwise ext-orthogonal
exceptional summands; the classes then automatically form a lattice
basis, which is cross-checked.  The cross-check reads the Euler Gram
matrix chi(T_i, T_j) off the (hom, ext) memo that the ext test has just
filled: ext-orthogonality makes it block triangular over the summands'
(slope, orbit) runs, so its determinant is a product of 1x1 entries and
of small in-tube blocks (`check_basis`).  One prover (`_prove`) runs
the whole proof for both verifiers, `is_tilting` and
`connect.verify_path` node by node: the ext pairs, then the cross-check.
It records each tilting object it proves once per context in a proof
table keyed by its node key (the tuple of its summands' object keys: one
object per class in a context, see `tubes.ExcObject`), and answers a
repeat from it; a plain sequence passed to `is_tilting` is recorded as
the tilting object it sorts into, and nothing else writes the table.

Mutation exchanges one summand for the unique other complement of the
remaining almost complete tilting object.  The complement is first read
off the exchange sequence: the multiplicities of its middle term, a
minimal approximation of T_k by the other summands, are guessed from
hom dimensions alone, one guess for each direction
(`_proposed_classes`).  A guess that decodes to an exceptional sheaf
ext-orthogonal to the other summands is a complement other than T_k,
so by Happel-Unger ("On a partial order of tilting modules", 2005: at
most two complements) it is the other one.  Only when neither guess
passes, on about 1% of the mutations computed, a bounded search over
approximation multiplicities runs; it is exhaustive because the middle
term of the exchange sequence is a minimal approximation.

The hom dimensions are read in slope order and only where they are
used.  No nonzero map goes from a semistable sheaf to one of smaller
slope (Lenzing-Meltzer 1993), so of hom(T_k, T_i) and hom(T_i, T_k)
only the one towards the larger slope is read, and both only at equal
slopes (`_exchange_gram`); a skipped value is the 0 the memo would
hold.  The homs among the other summands are not read with them: each
guess reads those between the summands in the support of its own side,
again in slope order (`_generic_multiplicities`), and the right side's
only when the left guess fails; the full matrix is read only when the
search runs (`_full_gram`).  `first_objects` and `last_objects` skip
the same pairs.

The search runs on scalars.  Since the summands are exceptional and
pairwise ext-orthogonal, their Euler pairings are their hom dimensions,
so chi(c, c) of a candidate c = sum_i b_i [T_i] - [T_k] is a quadratic
in the multiplicities b over that Gram matrix.  All its cross terms are
<= 0, which bounds what the unvisited multiplicities can still add; a
plain depth-first walk over the box of multiplicities drops a branch
once that bound rules a root out.  A root is turned into a class and
decoded only if it passes necessary conditions that are linear in b (no
forced ext against a summand, rank >= 0), tested at the leaves.  A
decoded candidate, a guess, the complement that the stratum search
forecasts and the summand a spliced edge of `connect.shorten_path`
brings in all pass one complement check (`_exchange`).  The other
summands keep their canonical order, so the result is built by
inserting the complement at its place, not by sorting all n again.
An exchange's direction has one rule (`_direction`), which `_exchange`,
a `mutate` answered off the table and `connect.verify_path` all run.

A mutation of a tilting bundle brings in a torsion sheaf exactly when
the summand it removes is the only one with a map to some exceptional
simple sheaf S_{i,j} of the weighted projective line (Geigle-Lenzing,
"A class of weighted projective curves arising in representation
theory of finite dimensional algebras", 1987).  Every position (i, j)
is covered by some summand, else tau^-1 S_{i,j} would extend the
tilting bundle; and where T_k alone covers it, tau^-1 S_{i,j} is a
complement of the rest, so by Happel-Unger it is the other one.
hom(E, S_{i,j}) is read off E's class vector (`simple_homs`), so this
fibre test (`torsion_exchanges`) costs no mutation, no chart and no
hom/ext; the bundle-only walks and the graph export use it to skip
mutations that leave the bundles.

`mutate` is a lookup in the context's complement table, followed on a
miss by the mutation itself (`_complete_mutation`: the guesses, and the
candidate search above when they fail, decoding, ext checks, uniqueness
of a searched complement, exchange and the table write).
The table maps an almost complete key, a node key with one summand
left out, to the complements known for it.  An almost complete tilting
object has at most two (Happel-Unger), and mutation swaps one for the
other, so one computed mutation answers both directions: the child
mutated back at the summand it brought in is read off the table.  The
graph export (`connect.explore_graph`) reads the table itself and calls
`_complete_mutation` on a miss, so the table is not cleared during an
exploration.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from operator import itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, Sequence

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
from .records import Record, setfield
from .slopes import Slope
from .tubes import (
    ExcObject,
    _ext_either,
    _own_object,
    exc_from_class,
    ext_dim,
    hom_dim,
    line_bundle_obj,
    orbit_rank,
)
from .weights import LElement, WeightData, c_gen, l_add, l_zero, x_gen


class TiltingObject(Record):
    """A tilting object as its tuple of summands, in the canonical order
    of `make_tilting` when built there.

    Equality, hash and repr read the summands alone.  Two slots are
    derived from them once: `_home`, the serial number of the context
    that owns every summand (None if they are not all one context's
    objects), and `_key`, the tuple of the summands' object keys (the node
    key; None without a home).  The searches and the context's tables key
    every node by `_key`; an entry point maps a tilting object whose
    `_home` is not the context's onto the context's objects (`_own`), so
    for one that is, the check costs O(1).  `class_key()` gives the
    summand class vectors, the form that JSON output and digests read."""

    __slots__ = ("summands", "_key", "_home")
    _fields = ("summands",)
    summands: tuple[ExcObject, ...]
    _key: tuple[int, ...] | None
    _home: int | None

    def __init__(self, summands: tuple[ExcObject, ...]) -> None:
        setfield(self, "summands", summands)
        home = summands[0]._home if summands else None
        if home is not None and any(s._home != home for s in summands):
            home = None
        setfield(self, "_home", home)
        setfield(self, "_key", None if home is None else tuple([s._id for s in summands]))

    def index_of(self, obj: ExcObject) -> int:
        for i, s in enumerate(self.summands):
            if s.cls.vec == obj.cls.vec:
                return i
        raise ValueError("object is not a summand")

    def class_key(self) -> tuple[tuple[int, ...], ...]:
        return tuple([s.cls.vec for s in self.summands])


def _own(ctx: K0Context, t: TiltingObject) -> TiltingObject:
    """The tilting object of the context's objects for t's summands, in
    t's order: t itself if the context owns it, else an equal object, or
    PreconditionError where a summand disagrees with the context's decode
    (`tubes._own_object`, the policy of `ExcObject`)."""
    if t._home == ctx.serial:
        return t
    return TiltingObject(tuple([_own_object(ctx, s) for s in t.summands]))


class MutationEvent(Record):
    """The exchange of summand `index`, `removed`, for `added`.

    The two complements sit in the exchange sequence
    0 -> removed -> B -> added -> 0 (direction "L", ext(added, removed) > 0)
    or 0 -> added -> B -> removed -> 0 (direction "R"), whose middle term
    B is the minimal approximation by the other summands.  `approx_class`
    is its class [B] = [removed] + [added].  Every direction the library
    computes or checks comes from one rule (`_direction`).
    """

    __slots__ = ("index", "removed", "added", "direction")
    index: int
    removed: ExcObject
    added: ExcObject
    direction: str

    def __init__(self, index: int, removed: ExcObject, added: ExcObject, direction: str) -> None:
        setfield(self, "index", index)
        setfield(self, "removed", removed)
        setfield(self, "added", added)
        setfield(self, "direction", direction)

    @property
    def approx_class(self) -> K0Class:
        return self.removed.cls + self.added.cls


def make_tilting(ctx: K0Context, objs: Iterable[ExcObject]) -> TiltingObject:
    """Structural constructor: right count, no duplicates, canonical order.

    Each summand is mapped to the context's object for its class, or
    raises PreconditionError where its coordinates disagree
    (`tubes._own_object`, the policy of `ExcObject`), so the result is
    the context's own.  It does not check that the summands are pairwise
    ext-orthogonal.  Its callers pass tilting summands (canonical
    bundles, mutation results, completions that passed `is_tilting`), and
    `serialize.tilting_from_dict` checks records read from outside.
    """
    lst = [_own_object(ctx, o) for o in objs]
    if len(lst) != ctx.n:
        raise WrongSummandCount(f"expected {ctx.n} summands, got {len(lst)}")
    seen = set()
    for o in lst:
        if o._id in seen:
            raise DuplicateSummands(f"duplicate summand class {o.cls.vec}")
        seen.add(o._id)
    lst.sort(key=ExcObject.sort_key)
    return TiltingObject(tuple(lst))


def is_tilting(ctx: K0Context, objs: Sequence[ExcObject] | TiltingObject) -> bool:
    """Rigid with n pairwise distinct summands; basis cross-checked.

    Returns False on the countable failures; raises BasisMismatch when
    an ext-orthogonal n-set fails the basis cross-check (`check_basis`),
    since that would contradict the operational definition of tilting.
    The summands are first mapped to the context's objects, and one whose
    coordinates disagree with the context's decode raises
    PreconditionError (the policy of `ExcObject`); a plain sequence is
    then sorted into the TiltingObject it names.  That object goes to the
    one prover (`_prove`), which reads each unordered pair once, the
    diagonal included, and answers a repeat off the proof table, so a
    plain sequence is recorded and looked up like the object it names.
    """
    if isinstance(objs, TiltingObject):
        t = _own(ctx, objs)
    else:
        t = TiltingObject(
            tuple(sorted((_own_object(ctx, o) for o in objs), key=ExcObject.sort_key))
        )
    return _prove(ctx, t)


def _prove(ctx: K0Context, t: TiltingObject, new: int | None = None) -> bool:
    """The tilting proof of t, the context's own; the one proof of the
    library (`is_tilting`, and `connect.verify_path` node by node).

    A node key in the proof table (`K0Context._proved`) is True at once:
    the proof depends only on the summands, which the key determines.
    Otherwise the ext pairs are read (`tubes._ext_either`: one direction
    across two slopes): every unordered pair of summands, the diagonal
    included, after the count and duplicate tests (False on either); or,
    when the caller names by its object key `new` the summand z that t,
    with n distinct summands, brings in over a node that passed with t's
    other n - 1 summands, only z against every summand, z included (ext
    depends only on the two objects).  An ext-orthogonal set then runs
    the basis cross-check (`check_basis`), which reads its Gram matrix off
    the memo these reads have filled, and is recorded; a table that has
    reached `_COMPLEMENT_TABLE_CAP` entries is cleared first.  A False
    verdict or an exception is never recorded.
    """
    proved = ctx._proved
    if t._key in proved:
        return True
    lst = t.summands
    if new is not None:
        z = lst[t._key.index(new)]
        for y in lst:
            if _ext_either(ctx, z, y):
                return False
    elif len(lst) != ctx.n or len(set(t._key)) != ctx.n:
        return False
    else:
        for i, x in enumerate(lst):
            for y in lst[i:]:
                if _ext_either(ctx, x, y):
                    return False
    check_basis(ctx, t)
    if len(proved) >= _COMPLEMENT_TABLE_CAP:
        proved.clear()
    proved.add(t._key)
    return True


def check_basis(ctx: K0Context, objs: Sequence[ExcObject] | TiltingObject) -> None:
    """The basis cross-check of an ext-orthogonal n-set: its classes
    must be a Z-basis of K0, else BasisMismatch.  It is the one basis
    check: the prover (`_prove`) runs it on every tilting object not yet
    proved in the context, for `is_tilting` and for every node of a path
    that `connect.verify_path` checks.  It is not memoized itself: every
    call computes the determinant.  The summands are mapped to the
    context's objects first (the policy of `ExcObject`).

    Precondition: ext(x, y) = 0 for every ordered pair of summands, x = y
    included (`_prove` establishes it first; it reads both directions of
    every pair at one slope, which fills every memo entry of a run).  Let
    A be the matrix of class vectors, one row per summand, and E the
    Euler matrix.  The Gram matrix G = A E A^T has entries chi(a_i, a_j),
    and det(G) = det(A)^2 det(E) with det(E) = +-1
    (`K0Context.euler_det`), so |det(A)| = 1 exactly when det(G) =
    det(E).  Put the summands in canonical order and take x in a later
    (slope, orbit) run than y: x has the larger slope, or the same slope
    and another tube, so hom(x, y) = 0 and chi(x, y) = -ext(x, y) = 0.  G
    is therefore block upper triangular over the runs, and det(G) is the
    product of the runs' blocks (`_gram_det`).  A TiltingObject is
    already in canonical order; a plain sequence is sorted here.
    """
    if isinstance(objs, TiltingObject):
        summands: Sequence[ExcObject] = _own(ctx, objs).summands
    else:
        summands = sorted((_own_object(ctx, o) for o in objs), key=ExcObject.sort_key)
    d = _gram_det(ctx, summands)
    if d != ctx.euler_det:
        raise BasisMismatch(
            f"ext-orthogonal n-set has Gram determinant {d}, not det(E) = {ctx.euler_det}"
        )


def _gram_det(ctx: K0Context, summands: Sequence[ExcObject]) -> int:
    """det(chi(a_i, a_j)) of ext-orthogonal summands, the context's
    objects, in canonical order: the product of its diagonal blocks over
    the (slope, orbit) runs (see `check_basis`).

    chi(x, y) is hom(x, y) - ext(x, y), read from the context's memo; a
    missing entry means the precondition of `check_basis` was not
    established in this context (PreconditionError).  A one-summand run
    contributes its diagonal entry.  A longer run lies in one tube of
    rank r and holds at most r - 1 summands, and its block goes to the
    Bareiss determinant.
    """
    pairs = ctx._pairs
    out = 1
    i, n = 0, len(summands)
    try:
        while i < n:
            x = summands[i]
            j = i + 1
            while j < n and summands[j].orbit == x.orbit and summands[j].slope == x.slope:
                j += 1
            if j == i + 1:
                h, e = pairs[x._id, x._id]
                out *= h - e
            else:
                ids = [o._id for o in summands[i:j]]
                out *= int_det([[h - e for h, e in (pairs[a, b] for b in ids)] for a in ids])
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


def _hom_up(ctx: K0Context, x: ExcObject, y: ExcObject) -> int:
    """hom(x, y), read only if x has no larger slope than y.

    No nonzero map goes from a semistable sheaf to one of smaller slope
    (Lenzing-Meltzer 1993), so the value skipped is the 0 the memo would
    hold; the slopes are ordered by the cross-multiplication of
    `tubes._hom_ext` (infinity is 1/0)."""
    xs, ys = x.slope, y.slope
    if xs.num * ys.den > ys.num * xs.den:
        return 0
    return hom_dim(ctx, x, y)


def first_objects(ctx: K0Context, t: TiltingObject) -> tuple[int, ...]:
    """Indices receiving no nonzero map from any other summand; a summand
    of larger slope maps to T_k by 0 and is not read (`_hom_up`)."""
    out = []
    for k, tk in enumerate(t.summands):
        if all(
            _hom_up(ctx, ti, tk) == 0 for i, ti in enumerate(t.summands) if i != k
        ):
            out.append(k)
    return tuple(out)


def last_objects(ctx: K0Context, t: TiltingObject) -> tuple[int, ...]:
    """Indices emitting no nonzero map to any other summand; T_k maps to a
    summand of smaller slope by 0, which is not read (`_hom_up`)."""
    out = []
    for k, tk in enumerate(t.summands):
        if all(
            _hom_up(ctx, tk, ti) == 0 for i, ti in enumerate(t.summands) if i != k
        ):
            out.append(k)
    return tuple(out)


def slope_range(ctx: K0Context, t: TiltingObject) -> tuple[Slope, Slope]:
    slopes = [s.slope for s in t.summands]
    return min(slopes), max(slopes)


# -- mutations that leave the bundles ----------------------------------------


def simple_homs(ctx: K0Context) -> Callable[[Sequence[int]], Iterator[int]]:
    """The map from the class vector of a vector bundle E to hom(E, S_{i,j}),
    tube by tube, j = 0..p_i - 1.

    ext(E, S) = hom(S, tau E) = 0 for a bundle E and a torsion sheaf S,
    so hom(E, S_{i,j}) = chi(E, S_{i,j}).  With E's rank r and S_{i,j}
    coordinates a_{i,j} (j >= 1) that is the tube's d-vector
    (r - a_{i,1}, a_{i,1} - a_{i,2}, ..., a_{i,p_i-1}): the difference of
    two coordinates, the last one against a 0 appended to the vector.
    """
    left: list[int] = []
    right: list[int] = []
    for off, p_i in zip(ctx.tube_offsets, ctx.weights.weights):
        simples = range(off, off + p_i - 1)
        left += [ctx.idx_o, *simples]
        right += [*simples, ctx.n]
    get_left, get_right = itemgetter(*left), itemgetter(*right)

    def homs(vec: Sequence[int]) -> Iterator[int]:
        v = (*vec, 0)
        return map(sub, get_left(v), get_right(v))

    return homs


def torsion_exchanges(ctx: K0Context, t: TiltingObject) -> tuple[bool, ...]:
    """For each summand k of a tilting bundle t, whether the mutation of
    t at k brings in a torsion sheaf; no mutation is made.

    Say T_k covers the position (i, j) if hom(T_k, S_{i,j}) > 0
    (`simple_homs`).  A tilting bundle covers every position: if none of
    its summands did, tau^-1 S_{i,j} would be rigid with all of them.  So
    the mutation at k is torsion exactly when T_k covers a position that
    no other summand covers; the complement is then tau^-1 S_{i,j}.  A
    position t leaves uncovered raises InternalConsistencyError.
    """
    homs = simple_homs(ctx)
    bits = [1 << b for b in range(ctx.n - 2 + ctx.weights.t)]
    covers = [sum(compress(bits, homs(s.cls.vec))) for s in t.summands]
    once = twice = 0
    for c in covers:
        twice |= once & c
        once |= c
    if once != (1 << len(bits)) - 1:
        raise InternalConsistencyError("a tilting bundle leaves a simple sheaf uncovered")
    once &= ~twice
    return tuple(bool(c & once) for c in covers)


# -- mutation ----------------------------------------------------------------


def _exchange_gram(
    ctx: K0Context, tk: ExcObject, others: Sequence[ExcObject]
) -> tuple[list[ExcObject], list[int], list[int]]:
    """The summands T_i with a nonzero hom to or from T_k, with
    hom(T_k, T_i) and hom(T_i, T_k).

    One direction is read per pair: hom(T_k, T_i) when T_i has the larger
    slope, hom(T_i, T_k) when it has the smaller one (the other is 0,
    see `_hom_up`), and both only at equal slopes.  The homs among the
    T_i are read where they are used: over a proposal's support
    (`_generic_multiplicities`), and in full only for the fallback
    search (`_full_gram`)."""
    free: list[ExcObject] = []
    h_to: list[int] = []
    h_from: list[int] = []
    kn, kd = tk.slope.num, tk.slope.den
    for o in others:
        up = o.slope.num * kd - kn * o.slope.den  # > 0: T_i has the larger slope
        to = hom_dim(ctx, tk, o) if up >= 0 else 0
        fro = hom_dim(ctx, o, tk) if up <= 0 else 0
        if to or fro:
            free.append(o)
            h_to.append(to)
            h_from.append(fro)
    return free, h_to, h_from


def _full_gram(ctx: K0Context, free: Sequence[ExcObject]) -> list[list[int]]:
    """The hom matrix hom(T_i, T_j) of the exchange Gram's summands, read
    in slope order (`_hom_up`) for the fallback search.

    The diagonal is 1 without a lookup: the summands are exceptional, and
    the quadratic in `_gram_roots` takes hom(T_i, T_i) as 1."""
    return [[1 if x is y else _hom_up(ctx, x, y) for y in free] for x in free]


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
    in lexicographic order.  The entries of gram are hom dimensions,
    so they are >= 0.

    A depth-first walk over the box: level i sets b_i, the levels before
    it have set b_0..b_{i-1}, and b_i = v adds (a - v) v to the sum with
    a = s_i - sum_{j<i} b_j S_ij.  Every cross term is <= 0, so a <= s_i
    and level i adds at most s_i^2 // 4; a partial sum below minus what
    the remaining levels can still add never returns to 0, and its branch
    is dropped.  The filters are tested at the leaves.
    """
    m = len(gram)
    s = [x + y for x, y in zip(h_to, h_from)]
    rest = [0] * (m + 1)  # rest[i]: the most that levels i.. can still add
    for i in range(m - 1, -1, -1):
        rest[i] = rest[i + 1] + s[i] * s[i] // 4
    cols = list(zip(*gram))
    b = [0] * m
    hits: list[tuple[int, ...]] = []

    def rec(i: int, f: int) -> None:
        if i == m:
            if (
                f == 0
                and sum(map(mul, b, ranks)) >= rank_k
                and all(sum(map(mul, b, row)) >= h for row, h in zip(gram, h_from))
                and all(sum(map(mul, b, col)) >= h for col, h in zip(cols, h_to))
            ):
                hits.append(tuple(b))
            return
        a = s[i] - sum(b[j] * (gram[i][j] + cols[i][j]) for j in range(i))
        floor = -rest[i + 1]
        for v in range(max(h_to[i], h_from[i]) + 1):
            g = f + (a - v) * v
            if g >= floor:
                b[i] = v
                rec(i + 1, g)
        b[i] = 0

    rec(0, 0)
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
) -> tuple[TiltingObject, MutationEvent] | None:
    """t with summand k exchanged for the exceptional object `new`, and
    the event, if `new` is the other complement of the remaining
    summands; None if `new` has ext with one of them.  It is the one
    complement check: `_complete_mutation` runs it on every decoded
    proposal and search candidate, the stratum search on the target
    summand its forecast names (`connect._forecast_child`), and
    `connect.shorten_path` on the summand a spliced-to node brings in.

    Rigidity: ext(new, T_i) = ext(T_i, new) = 0 for every i != k
    (`tubes._ext_either`); the n - 1 kept summands and `new` are then n
    rigid exceptional objects.  Direction: the one rule (`_direction`),
    which raises InternalConsistencyError unless exactly one of
    ext(new, T_k) and ext(T_k, new) is nonzero.  So `new` is neither T_k
    nor a kept summand, and by Happel-Unger it is the other complement.
    Both checks run before the insertion, and no tuple is built for a
    `new` that fails the first.
    """
    for i, o in enumerate(t.summands):
        if i != k and _ext_either(ctx, new, o):
            return None
    tk = t.summands[k]
    event = MutationEvent(k, tk, new, _direction(ctx, tk, new))
    return _insert_summand(t.summands[:k] + t.summands[k + 1 :], new), event


def _direction(ctx: K0Context, tk: ExcObject, new: ExcObject) -> str:
    """The direction of the exchange of T_k for `new`, its other
    complement: "L" iff ext(new, T_k) > 0, the sequence
    0 -> T_k -> B -> new -> 0, else "R".  It is the one direction rule of
    the library (`_exchange`, a `mutate` answered off the complement
    table, and `connect.verify_path`).  Exactly one of ext(new, T_k) and
    ext(T_k, new) is nonzero for two complements, else
    InternalConsistencyError; ext from the smaller slope is 0
    (`tubes._hom_ext`) and is not read."""
    up = tk.slope.num * new.slope.den - new.slope.num * tk.slope.den  # > 0: T_k's is larger
    e_left = 0 if up > 0 else ext_dim(ctx, new, tk)
    e_right = 0 if up < 0 else ext_dim(ctx, tk, new)
    if (e_left > 0) == (e_right > 0):
        raise InternalConsistencyError(f"exchange direction ambiguous: ext {e_left}/{e_right}")
    return "L" if e_left > 0 else "R"


def _combination(tk: ExcObject, free: Sequence[ExcObject], b: Sequence[int]) -> K0Class:
    """The class sum_i b_i [T_i] - [T_k], the T_i running over `free`."""
    vec = [-x for x in tk.cls.vec]
    for bj, o in zip(b, free):
        if bj:
            vec = [a + bj * x for a, x in zip(vec, o.cls.vec)]
    return K0Class(tuple(vec))


def _generic_multiplicities(
    ctx: K0Context, free: Sequence[ExcObject], h: Sequence[int], left: bool
) -> list[int]:
    """b_j = max(0, h[j] - sum_{i != j} h[i] hom(T_i, T_j)) for each j,
    the T_i running over `free`; on the right side (`left` false) the hom
    is hom(T_j, T_i).

    b_j <= h[j], so only homs between two summands in the support of h
    are read, and only from the smaller slope to the larger or within one
    slope (`_hom_up`): the rest are 0.  Every term subtracted is >= 0, so
    the reads for b_j stop once the sum reaches 0."""
    on = [(i, x, free[i]) for i, x in enumerate(h) if x]
    b = [0] * len(h)
    for j, hj, y in on:
        s = hj
        for i, hi, x in on:
            if i != j:
                s -= hi * (_hom_up(ctx, x, y) if left else _hom_up(ctx, y, x))
                if s <= 0:
                    break
        else:
            b[j] = s
    return b


def _proposed_classes(
    ctx: K0Context,
    tk: ExcObject,
    free: Sequence[ExcObject],
    h_to: Sequence[int],
    h_from: Sequence[int],
) -> Iterator[K0Class]:
    """The complement classes read off the two exchange sequences, the
    left one first: the guesses `_complete_mutation` checks before it
    searches.

    In 0 -> T_k -> B -> T_k* -> 0, B is the minimal left approximation
    of T_k by the other summands, and the multiplicity of T_j in B counts
    the maps T_k -> T_j that do not factor through another summand
    (Buan-Marsh-Reineke-Reiten-Todorov, "Tilting theory and cluster
    combinatorics", 2006).  The generic-rank guess of it is
    b_j = max(0, h_to[j] - sum_{i != j} h_to[i] hom(T_i, T_j)); the right
    sequence 0 -> T_k* -> B' -> T_k -> 0 is the mirror image, with h_from
    and hom(T_j, T_i).  `_generic_multiplicities` reads these homs itself,
    over the support of its own side and in slope order only.  Each side
    yields c = sum_j b_j [T_j] - [T_k]; an all-zero b (no map on that
    side) and a repeat of the left class are not yielded, and the right
    side is computed, and its homs read, only if the left one is
    rejected.  The guess is not a proof: the caller decodes and checks
    it, and searches when neither side passes.
    """
    left = _generic_multiplicities(ctx, free, h_to, True)
    if any(left):
        yield _combination(tk, free, left)
    right = _generic_multiplicities(ctx, free, h_from, False)
    if any(right) and right != left:
        yield _combination(tk, free, right)


def _candidate_classes(
    ctx: K0Context,
    tk: ExcObject,
    free: Sequence[ExcObject],
    h_to: Sequence[int],
    h_from: Sequence[int],
) -> list[K0Class]:
    """The exhaustive search of `_complete_mutation`, its fallback when
    neither proposed class passes: the classes c = sum_i b_i [T_i] - [T_k]
    that the complement of the tilting object minus T_k can have, one per
    root b.  `free`, `h_to` and `h_from` are the exchange Gram of T_k
    (`_exchange_gram`), read once for the proposals and the search; the
    hom matrix among `free` is read here, in full but in slope order
    (`_full_gram`), so only a mutation that falls back pays for it.

    The b_i run over the remaining summands with
    0 <= b_i <= max(hom(T_k, T_i), hom(T_i, T_k)); the bound covers the
    multiplicities of a minimal approximation in either exchange
    direction, so the complement's class is among the results.  Summands
    with b_i bounded by 0 drop out.  Since the summands are exceptional
    and pairwise ext-orthogonal, chi(T_i, T_j) = hom(T_i, T_j), and
    chi(c, c) = 1 becomes the scalar equation
    sum_i (s_i b_i - b_i^2) - sum_{i<j} b_i b_j S_ij = 0 with
    s_i = hom(T_k, T_i) + hom(T_i, T_k) and S_ij = hom(T_i, T_j) +
    hom(T_j, T_i), solved by a depth-first walk over the box that drops
    a branch once the quadratic bound rules a root out (`_gram_roots`).
    A root is kept only if it passes three necessary conditions that are
    linear in b: chi(T_i, c) >= 0 and chi(c, T_i) >= 0 (a negative value
    forces an ext against T_i) and rank(c) >= 0, tested at the leaves.
    Nothing is decoded here and no memo is written.
    """
    gram = _full_gram(ctx, free)
    ranks = [rank_of(ctx, o.cls) for o in free]
    rank_k = rank_of(ctx, tk.cls)
    return [_combination(tk, free, b) for b in _gram_roots(gram, h_to, h_from, ranks, rank_k)]


def _exchange_class(
    ctx: K0Context, t: TiltingObject, k: int, c: K0Class
) -> tuple[TiltingObject, MutationEvent] | None:
    """`_exchange` of c decoded, or None if c is not the class of an
    exceptional sheaf (`tubes.exc_from_class`) or its object fails the
    complement check: the path of a proposed or searched class."""
    try:
        new = exc_from_class(ctx, c)
    except (NotSheafLike, NotExceptionalHere):
        return None
    return _exchange(ctx, t, k, new)


def _enter_complement(
    ctx: K0Context, ac_key: tuple, holder: TiltingObject, comp: ExcObject
) -> None:
    """Record in the complement table that `holder` is the almost complete
    tilting object `ac_key` plus its complement `comp`, the context's
    objects.  A complement already known (the same object: one per
    class) is left as it is; a third distinct one contradicts
    Happel-Unger and raises InternalConsistencyError."""
    table = ctx._complements
    got = table.get(ac_key)
    if got is None:
        table[ac_key] = (holder, comp)
        return
    if any(known is comp for known in got[1::2]):
        return
    if len(got) == 4:
        raise InternalConsistencyError(
            "three complements of one almost complete tilting object: slopes "
            + ", ".join(str(c.slope) for c in (got[1], got[3], comp))
        )
    table[ac_key] = got + (holder, comp)


def _complete_mutation(
    ctx: K0Context, t: TiltingObject, k: int, ac_key: tuple
) -> tuple[TiltingObject, MutationEvent]:
    """The mutation of t at k computed, not looked up: the one path of
    `mutate` and `connect.explore_graph` on a complement-table miss.

    The exchange Gram of T_k is read once (`_exchange_gram`).  The
    classes proposed from it (`_proposed_classes`, left side first, each
    reading the homs among the other summands that it uses) are
    decoded and checked in turn (`_exchange_class`); the first that
    decodes to an exceptional sheaf and passes the complement check
    (`_exchange`: ext-orthogonal to the other summands in both
    directions, and one exchange direction) is a complement other than
    T_k, so by Happel-Unger (at most two complements) it is the other
    one, and T_k is exchanged for it at its place in the canonical
    order.  If none passes, the exhaustive search runs on the same
    exchange Gram and reads the full hom matrix among the other summands
    (`_candidate_classes`), every candidate is decoded and checked the
    same way, and no survivor raises ComplementNotFound, more than one
    ComplementNotUnique.  Both t and the result are entered into the
    complement table under `ac_key`, t's node key with summand k left
    out, so the result mutated back at its new summand is a lookup.  The
    table is not bounded here; `mutate` bounds it before the call.
    """
    tk = t.summands[k]
    others = t.summands[:k] + t.summands[k + 1 :]
    free, h_to, h_from = _exchange_gram(ctx, tk, others)
    for c in _proposed_classes(ctx, tk, free, h_to, h_from):
        got = _exchange_class(ctx, t, k, c)
        if got is not None:
            break
    else:
        survivors = [
            got
            for c in _candidate_classes(ctx, tk, free, h_to, h_from)
            if (got := _exchange_class(ctx, t, k, c)) is not None
        ]
        if not survivors:
            raise ComplementNotFound(f"no complement found when mutating at index {k}")
        if len(survivors) > 1:
            raise ComplementNotUnique(
                f"{len(survivors)} complements found when mutating at index {k}"
            )
        got = survivors[0]
    _enter_complement(ctx, ac_key, t, tk)
    _enter_complement(ctx, ac_key, got[0], got[1].added)
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
    tk = t.summands[k]
    if known[1] is tk:
        return known[2:] or None
    if len(known) == 2 or known[3] is not tk:
        _enter_complement(ctx, ac_key, t, t.summands[k])
    return known[:2]


# Entries of the complement table (`K0Context._complements`) past which it
# is cleared, before a mutation is computed or a graph explored, together
# with the relation table of the stratum search (`K0Context._relations`).
# The proof table (`K0Context._proved`) is cleared on an insert once it
# holds this many (`_prove`).
_COMPLEMENT_TABLE_CAP = 300_000


def _bound_complements(ctx: K0Context) -> None:
    if len(ctx._complements) > _COMPLEMENT_TABLE_CAP:
        ctx._complements.clear()
        ctx._relations.clear()


def mutate(ctx: K0Context, t: TiltingObject, k: int) -> tuple[TiltingObject, MutationEvent]:
    """Exchange summand k for the unique other complement.

    First a lookup of t without T_k in the complement table: a known
    complement other than T_k gives its holder, the result, and the
    event's direction comes from the one direction rule (`_direction`,
    on the hom/ext memo; `_other_complement` also enters t, so two known
    complements that both differ from T_k raise
    InternalConsistencyError).  On a miss, a table past
    `_COMPLEMENT_TABLE_CAP` entries is cleared, and `_complete_mutation`
    computes the mutation and enters t and the result into the table: it
    checks the complement proposed by the exchange sequence first, and
    searches only when no proposal passes.

    Precondition: t is tilting (see `make_tilting`); the result is then
    tilting without a re-check.  The complement is unique (Happel-Unger)
    and its class is -[T_k] modulo the other summands, so the classes
    of the result have determinant -det(t) = +-1, and the only new ext
    pairs are the ones between the complement and the other summands,
    checked in `_complete_mutation`.  An index outside 0..n-1 raises
    PreconditionError before the table is read.  t is mapped to the
    context's objects first (the policy of `ExcObject`), and the table is
    keyed by object keys.
    """
    if not 0 <= k < ctx.n:
        raise PreconditionError(f"mutation index {k} is not in 0..{ctx.n - 1}")
    t = _own(ctx, t)
    key = t._key
    ac_key = key[:k] + key[k + 1 :]
    other = _other_complement(ctx, t, k, ac_key)
    if other is not None:
        holder, comp = other
        tk = t.summands[k]
        return holder, MutationEvent(k, tk, comp, _direction(ctx, tk, comp))
    _bound_complements(ctx)
    return _complete_mutation(ctx, t, k, ac_key)


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
    t = _own(ctx, t)
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


"""Per-slope tube charts and the hom/ext calculus of exceptional objects.

For each slope q the rigid indecomposables of that slope live in t
orthogonal standard tubes whose ranks are the weights.  A chart stores
the quasi-simple classes of these tubes as tau-orbits; every
exceptional object of slope q is then a window of consecutive
quasi-simples (socle position, quasi-length), and hom/ext dimensions
reduce to Euler pairings across slopes plus a closed-form count
inside a single tube.

Only the charts at infinity and at slopes in [0, 1) are built from
roots; every other chart is one of those twisted by a multiple of x_t,
which shifts slopes by integers (`chart_for`).

Orbit conventions: position k + 1 is the tau-preimage of position k,
so a window starting at the socle ascends through positions
socle, socle + 1, ...; position 0 is the lexicographically smallest
class vector of the orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import (
    ChartInconsistent,
    InternalConsistencyError,
    NotExceptionalHere,
    NotSheafLike,
)
from .intmat import mat_vec
from .k0 import (
    K0Class,
    K0Context,
    chi,
    deg_of,
    enumerate_roots_at,
    line_bundle_class,
    rank_of,
    slope_of,
    twist_matrix,
)
from .slopes import Slope
from .weights import LElement, delta, l_scale, x_gen


@dataclass(frozen=True)
class Window:
    """Socle position and quasi-length inside a tube of known rank."""

    socle: int
    len: int


@dataclass(frozen=True)
class TubeChart:
    slope: Slope
    orbits: tuple[tuple[K0Class, ...], ...]

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)

    def quasi_simple_count(self) -> int:
        return sum(len(o) for o in self.orbits)

    def windows(self) -> Iterator[tuple[int, int, int, K0Class]]:
        """(orbit, socle, length, class) of every exceptional window, by
        orbit, then socle, then quasi-length 1..rank-1."""
        for t, orbit in enumerate(self.orbits):
            r = len(orbit)
            for socle in range(r):
                vec = [0] * len(orbit[0].vec)
                for length in range(1, r):
                    for idx, x in enumerate(orbit[(socle + length - 1) % r].vec):
                        vec[idx] += x
                    yield t, socle, length, K0Class(tuple(vec))


@dataclass(frozen=True)
class ExcObject:
    """An exceptional sheaf: class plus chart coordinates.

    The class is authoritative; slope/orbit/socle/len are the decoded
    position in the chart at that slope.
    """

    cls: K0Class
    slope: Slope
    orbit: int
    socle: int
    len: int

    def sort_key(self):
        return (self.slope, self.orbit, self.socle, self.len)


def window_class(chart: TubeChart, orbit: int, socle: int, length: int) -> K0Class:
    """Sum of `length` consecutive quasi-simple classes from `socle`."""
    orb = chart.orbits[orbit]
    r = len(orb)
    vec = [0] * len(orb[0].vec)
    for k in range(length):
        for idx, x in enumerate(orb[(socle + k) % r].vec):
            vec[idx] += x
    return K0Class(tuple(vec))


def build_chart(ctx: K0Context, q: Slope) -> TubeChart:
    """Classify the roots at slope q into tau-orbits of quasi-simples.

    Roots are processed by ascending multiple m of the primitive
    (deg, rank) direction; a root is quasi-simple unless it is a window
    sum of two or more already-classified quasi-simples.
    """
    roots = enumerate_roots_at(ctx, q, ctx.p)
    by_level: dict[int, list[K0Class]] = {}
    for c in roots:
        m = rank_of(ctx, c) // q.den if q.den else deg_of(ctx, c)
        by_level.setdefault(m, []).append(c)

    quasi: list[tuple[K0Class, int]] = []  # (class, level)
    # per quasi-simple: successive tau-preimage terms and their partial sums
    terms: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    sums: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def window_sum(base: K0Class, length: int) -> tuple[int, ...]:
        chain = terms.setdefault(base.vec, [base.vec])
        acc = sums.setdefault(base.vec, [base.vec])
        while len(chain) < length:
            chain.append(mat_vec(ctx.tau_inv, chain[-1]))
            acc.append(tuple(a + b for a, b in zip(acc[-1], chain[-1])))
        return acc[length - 1]

    for m in sorted(by_level):
        for c in by_level[m]:
            decomposed = False
            for u, mu in quasi:
                if m % mu == 0 and m // mu >= 2:
                    if window_sum(u, m // mu) == c.vec:
                        decomposed = True
                        break
            if not decomposed:
                quasi.append((c, m))

    orbits = _group_orbits(ctx, [c for c, _ in quasi], q)
    chart = TubeChart(q, orbits)
    _validate_chart(ctx, chart, roots)
    return chart


def _group_orbits(
    ctx: K0Context, quasi: list[K0Class], q: Slope
) -> tuple[tuple[K0Class, ...], ...]:
    remaining = {c.vec: c for c in quasi}
    if len(remaining) != len(quasi):
        raise ChartInconsistent(f"duplicate quasi-simple classes at slope {q}")
    orbits: list[tuple[K0Class, ...]] = []
    while remaining:
        seed_vec = min(remaining)
        cyc = [remaining.pop(seed_vec)]
        while True:
            nxt = K0Class(mat_vec(ctx.tau_inv, cyc[-1].vec))
            if nxt.vec == cyc[0].vec:
                break
            if nxt.vec not in remaining:
                raise ChartInconsistent(
                    f"tau orbit at slope {q} left the quasi-simple set"
                )
            cyc.append(remaining.pop(nxt.vec))
        base = min(range(len(cyc)), key=lambda k: cyc[k].vec)
        cyc = cyc[base:] + cyc[:base]
        orbits.append(tuple(cyc))
    orbits.sort(key=lambda o: (len(o), o[0].vec))
    return tuple(orbits)


def check_chart_invariants(ctx: K0Context, chart: TubeChart) -> None:
    """Chart invariants: the structure (`_check_chart_structure`) and the
    Euler pattern of the quasi-simples (also run on cache load)."""
    _check_chart_structure(ctx, chart)
    _check_chi_pattern(ctx, chart)


def _check_chart_structure(ctx: K0Context, chart: TubeChart) -> None:
    """Orbit sizes are the weights, no class repeats, every class has the
    chart's slope, and each orbit is in tau order."""
    sizes = tuple(sorted(len(o) for o in chart.orbits))
    if sizes != ctx.weights.weights:
        raise ChartInconsistent(
            f"orbit sizes {sizes} do not match weights {ctx.weights.weights} "
            f"at slope {chart.slope}"
        )
    seen = set()
    for orb in chart.orbits:
        for k, x in enumerate(orb):
            if x.vec in seen:
                raise ChartInconsistent(f"duplicate class {x.vec} at {chart.slope}")
            seen.add(x.vec)
            if slope_of(ctx, x) != chart.slope:
                raise ChartInconsistent(f"class {x.vec} has the wrong slope")
            succ = orb[(k + 1) % len(orb)]
            if tuple(mat_vec(ctx.tau_inv, x.vec)) != succ.vec:
                raise ChartInconsistent(
                    f"orbit order at slope {chart.slope} is not the tau order"
                )


def _check_chi_pattern(ctx: K0Context, chart: TubeChart) -> None:
    """chi between quasi-simples: 1 on the diagonal, -1 from a class to
    its tau-translate in the same orbit, 0 otherwise."""
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
                        raise ChartInconsistent(
                            f"chi pattern violated at slope {chart.slope}: "
                            f"orbits {a},{b} positions {j},{k}: {val} != {want}"
                        )


def _validate_chart(ctx: K0Context, chart: TubeChart, roots) -> None:
    check_chart_invariants(ctx, chart)
    # Realizability: every root must be a window of quasi-length <= rank-1.
    windows = {cls.vec for *_, cls in chart.windows()}
    for c in roots:
        if c.vec not in windows:
            raise ChartInconsistent(
                f"root {c.vec} at slope {chart.slope} is not a chart window"
            )


def _find_window(chart: TubeChart, c: K0Class) -> tuple[int, int, int] | None:
    for t, socle, length, cls in chart.windows():
        if cls.vec == c.vec:
            return (t, socle, length)
    return None


def chart_for(ctx: K0Context, q: Slope) -> TubeChart:
    """Memoized chart accessor.

    Charts are built from roots only at infinity and at slopes in
    [0, 1).  The twist by x_t (p_t = p, so delta(x_t) = 1) is an
    autoequivalence that shifts every slope by 1, so the chart at any
    other finite q is the chart at q - floor(q) twisted by floor(q) x_t.
    """
    got = ctx._charts.get(q)
    if got is None:
        m = 0 if q.is_infinite else q.floor()
        if m == 0:
            got = build_chart(ctx, q)
        else:
            got = _twist_chart(ctx, chart_for(ctx, q.shift(-m)), m)
        ctx._charts[q] = got
    return got  # type: ignore[return-value]


def _twist_chart(ctx: K0Context, chart: TubeChart, m: int) -> TubeChart:
    """The chart twisted by m x_t, in the normal form of `_group_orbits`:
    twists commute with tau, so each orbit stays in tau order and is only
    rotated to its smallest vector; orbits sorted by (rank, first vector).

    Only the structure is checked.  The twist is an autoequivalence, so
    it preserves chi, and the chi pattern already holds on the source
    chart: every chart built from roots runs the full
    `check_chart_invariants` (`_validate_chart`), and so does every
    chart read from outside (`serialize.chart_from_dict`)."""
    w = ctx.weights
    mat = twist_matrix(ctx, l_scale(x_gen(w, w.weights.index(w.p)), m))
    orbits = []
    for orbit in chart.orbits:
        cyc = [K0Class(mat_vec(mat, c.vec)) for c in orbit]
        base = min(range(len(cyc)), key=lambda k: cyc[k].vec)
        orbits.append(tuple(cyc[base:] + cyc[:base]))
    orbits.sort(key=lambda o: (len(o), o[0].vec))
    twisted = TubeChart(chart.slope.shift(m), tuple(orbits))
    _check_chart_structure(ctx, twisted)
    return twisted


def coords_of_class(ctx: K0Context, chart: TubeChart, c: K0Class) -> ExcObject:
    """Inverse of the window-sum encoding."""
    key = (chart.slope, c.vec)
    got = ctx._decode.get(key)
    if got is None:
        try:
            q = slope_of(ctx, c)
        except NotSheafLike:
            raise NotExceptionalHere(f"class {c.vec} is not sheaf-like") from None
        if q != chart.slope:
            raise NotExceptionalHere(
                f"class {c.vec} has a different slope than the chart"
            )
        got = _find_window(chart, c)
        if got is None:
            raise NotExceptionalHere(f"class {c.vec} is not a window at {chart.slope}")
        ctx._decode[key] = got
    t, socle, length = got
    return ExcObject(c, chart.slope, t, socle, length)


def exc_from_class(ctx: K0Context, c: K0Class) -> ExcObject:
    """Decode an arbitrary class (builds the chart at its slope)."""
    q = slope_of(ctx, c)
    return coords_of_class(ctx, chart_for(ctx, q), c)


def orbit_rank(ctx: K0Context, x: ExcObject) -> int:
    return len(chart_for(ctx, x.slope).orbits[x.orbit])


def tau_obj(ctx: K0Context, x: ExcObject) -> ExcObject:
    r = orbit_rank(ctx, x)
    return ExcObject(
        K0Class(mat_vec(ctx.tau, x.cls.vec)), x.slope, x.orbit, (x.socle - 1) % r, x.len
    )


def tau_inv_obj(ctx: K0Context, x: ExcObject) -> ExcObject:
    r = orbit_rank(ctx, x)
    return ExcObject(
        K0Class(mat_vec(ctx.tau_inv, x.cls.vec)),
        x.slope,
        x.orbit,
        (x.socle + 1) % r,
        x.len,
    )


def twist_obj(ctx: K0Context, x: ExcObject, v: LElement) -> ExcObject:
    """Twist by v: class moves by the twist matrix, slope by delta(v)."""
    new_cls = K0Class(mat_vec(twist_matrix(ctx, v), x.cls.vec))
    new_slope = x.slope.shift(delta(v))
    return coords_of_class(ctx, chart_for(ctx, new_slope), new_cls)


def line_bundle_obj(ctx: K0Context, v: LElement) -> ExcObject:
    return exc_from_class(ctx, line_bundle_class(ctx, v))


# -- the in-tube oracle ----------------------------------------------------


def tube_hom_oracle(r: int, w1: Window, w2: Window) -> int:
    """Hom dimension between the tube objects with the given windows.

    A nonzero map factors through a serial object that is a quotient of
    the source and a submodule of the target: quasi-length k, top at the
    source's top, socle at the target's socle.  For quasi-lengths up to r
    at most one k in 1..min(len) fits, so the dimension is 0 or 1.
    """
    if not (1 <= w1.len <= r and 1 <= w2.len <= r):
        raise ValueError("quasi-length must lie in 1..r")
    k0 = (w2.socle - w1.socle) % r
    return 1 if k0 < w1.len and w1.len - k0 <= w2.len else 0


# -- hom/ext across the category -------------------------------------------


def hom_dim(ctx: K0Context, x: ExcObject, y: ExcObject) -> int:
    key = (x.cls.vec, y.cls.vec)
    got = ctx._homs.get(key)
    if got is not None:
        return got
    if x.slope < y.slope:
        h = chi(ctx, x.cls, y.cls)
        if h < 0:
            raise InternalConsistencyError(
                f"negative hom {h} for ascending slopes {x.slope} -> {y.slope}"
            )
    elif y.slope < x.slope:
        h = 0
    elif x.orbit != y.orbit:
        h = 0
    else:
        r = orbit_rank(ctx, x)
        h = tube_hom_oracle(r, Window(x.socle, x.len), Window(y.socle, y.len))
    ctx._homs[key] = h
    return h


def ext_dim(ctx: K0Context, x: ExcObject, y: ExcObject) -> int:
    """dim Ext^1 = hom(x, y) - chi(x, y): coh X is hereditary, so the
    Euler form has no higher terms."""
    key = (x.cls.vec, y.cls.vec)
    got = ctx._exts.get(key)
    if got is not None:
        return got
    h = hom_dim(ctx, x, y)
    # for ascending slopes hom_dim is the Euler pairing itself
    e = h - (h if x.slope < y.slope else chi(ctx, x.cls, y.cls))
    if e < 0:
        raise InternalConsistencyError(
            f"negative ext {e} between slopes {x.slope} and {y.slope}"
        )
    ctx._exts[key] = e
    return e


def wing_contains(ctx: K0Context, z: ExcObject, x: ExcObject) -> bool:
    """True iff x lies in the wing under z (same tube, nested window)."""
    if z.slope != x.slope or z.orbit != x.orbit:
        return False
    r = orbit_rank(ctx, z)
    offset = (x.socle - z.socle) % r
    return offset + x.len <= z.len

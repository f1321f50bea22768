"""Per-slope tube charts and the hom/ext calculus of exceptional objects.

For each slope q the rigid indecomposables of that slope live in t
orthogonal standard tubes whose ranks are the weights.  A chart stores
the quasi-simple classes of these tubes as tau-orbits; every
exceptional object of slope q is then a window of consecutive
quasi-simples (socle position, quasi-length), and hom/ext dimensions
reduce to Euler pairings across slopes plus a closed-form count
inside a single tube.

Ext runs one way across slopes.  By Serre duality Ext^1(X, Y) =
D Hom(Y, tau X), tau keeps the slope, and there is no nonzero map from a
semistable sheaf to one of smaller slope (Lenzing-Meltzer 1993, below;
every indecomposable of tubular type is semistable).  So ext(X, Y) = 0
whenever X has the smaller slope, and a rigidity test of two objects at
different slopes reads only ext(higher, lower), one memo entry
(`_ext_either`); only two objects of one slope are read both ways.

The chart at infinity is known in closed form: its quasi-simples are
the simples S_{i,j} of the exceptional tubes, one tau-orbit per weight.
All tubular families are images of one another under autoequivalences
(Lenzing-Meltzer, "Sheaves on a weighted projective line of genus one,
and representations of a tubular algebra", 1993), and two tubular
shifts generate enough of them: the one along the rank-p tube of simples
at infinity (the twist by x_t, q -> q + 1) and the one along the
tau-orbit of O at slope 0 (q -> q / (1 - q)).  The anchor, the chart at
slope 0, is the chart at infinity moved back by the word of infinity,
and every other chart is the anchor moved by a word in these two
(`chart_for`, which states the shift formula and the identities checked
once per context).  No root is enumerated on this path: `build_chart`,
which classifies the roots at a slope, is the reference oracle that the
tests and `verify --suite charts` compare the moved charts with.

Charts are moved, checked and decoded in batched form.  The classes of
a chart are held as coordinate rows (row a holds coordinate a of every
quasi-simple), and each lattice map is applied through its nonzero
entries only (`intmat.apply_rows`): one shift step (`_shift_rows`),
the tau^-1 images, ranks and degrees of the structure check (and of
the roots in `build_chart`) and the Euler pairings of the anchor's chi
pattern each take one pass over a sparse matrix, not one dot product
per class.  A class is decoded by its chi pattern against the
quasi-simples (`_find_window`), not by a scan over the windows.

Orbit conventions: position k + 1 is the tau-preimage of position k,
so a window starting at the socle ascends through positions
socle, socle + 1, ...; position 0 is the lexicographically smallest
class vector of the orbit.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, neg, sub
from typing import Iterator

from .errors import (
    ChartInconsistent,
    InternalConsistencyError,
    NotExceptionalHere,
)
from .intmat import (
    SparseRows,
    apply_rows,
    dot,
    identity,
    mat_mul,
    sparse_rows,
    transpose,
)
from .k0 import (
    K0Class,
    K0Context,
    chi,
    enumerate_roots_at,
    line_bundle_class,
    slope_of,
)
from .records import Record, setfield
from .slopes import INF, ZERO, Slope
from .weights import LElement, l_zero


class Window(Record):
    """Socle position and quasi-length inside a tube of known rank."""

    __slots__ = ("socle", "len")
    socle: int
    len: int

    def __init__(self, socle: int, len: int) -> None:
        setfield(self, "socle", socle)
        setfield(self, "len", len)


class TubeChart(Record):
    """The quasi-simple classes at one slope, one tau-orbit per tube,
    each in tau^-1 order from the lexicographically smallest class."""

    __slots__ = ("slope", "orbits")
    slope: Slope
    orbits: tuple[tuple[K0Class, ...], ...]

    def __init__(self, slope: Slope, orbits: tuple[tuple[K0Class, ...], ...]) -> None:
        setfield(self, "slope", slope)
        setfield(self, "orbits", orbits)

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


class ExcObject(Record):
    """An exceptional sheaf: class plus chart coordinates.

    The class is authoritative; slope/orbit/socle/len are the decoded
    position in the chart at that slope.
    """

    __slots__ = ("cls", "slope", "orbit", "socle", "len")
    cls: K0Class
    slope: Slope
    orbit: int
    socle: int
    len: int

    def __init__(self, cls: K0Class, slope: Slope, orbit: int, socle: int, len: int) -> None:
        setfield(self, "cls", cls)
        setfield(self, "slope", slope)
        setfield(self, "orbit", orbit)
        setfield(self, "socle", socle)
        setfield(self, "len", len)

    def sort_key(self):
        return (self.slope, self.orbit, self.socle, self.len)


def window_class(chart: TubeChart, orbit: int, socle: int, length: int) -> K0Class:
    """Sum of `length` >= 1 consecutive quasi-simple classes from `socle`."""
    return K0Class(_window_vec(chart.orbits[orbit], socle, length))


def _window_vec(orb: tuple[K0Class, ...], socle: int, length: int) -> tuple[int, ...]:
    """The vector of `window_class`, from the orbit itself."""
    terms = orb[socle : socle + length] + orb[: max(0, socle + length - len(orb))]
    return tuple(map(sum, zip(*(x.vec for x in terms))))


def build_chart(ctx: K0Context, q: Slope) -> TubeChart:
    """Classify the roots at slope q into tau-orbits of quasi-simples.

    In a stable tube of rank r the windows of quasi-length l < r form
    one tau-orbit, whose classes sum to l times the tube's quasi-simple
    sum w, and w is the same for every tube of the slope.  So the roots
    are split into tau-orbits, their tau^-1 images taken at once on
    coordinate rows, and the quasi-simple orbits are those whose class
    sum is least by (rank, degree): at a finite slope l w has l times
    the rank of w, at infinity l times the degree.  A duplicate root or
    a tau image outside the roots raises ChartInconsistent, and the
    chart is validated in full (`_validate_chart`).  This is the
    reference oracle of `chart_for`, which enumerates no roots.
    """
    roots = enumerate_roots_at(ctx, q, ctx.p)
    index = {c.vec: i for i, c in enumerate(roots)}
    if len(index) != len(roots):
        raise ChartInconsistent(f"duplicate roots at slope {q}")
    rows = list(zip(*(c.vec for c in roots)))
    try:
        after = [index[v] for v in zip(*apply_rows(ctx.tau_inv_rows, rows))]
    except KeyError:
        raise ChartInconsistent(f"tau orbit at slope {q} left the root set") from None
    ranks, degs = apply_rows(ctx.rank_deg_rows, rows)
    cycles, seen = [], set()
    for i in range(len(roots)):
        if i not in seen:
            cyc = [i]
            while (j := after[cyc[-1]]) != i:
                cyc.append(j)
            seen.update(cyc)
            cycles.append(cyc)
    sums = [(sum(ranks[k] for k in c), sum(degs[k] for k in c)) for c in cycles]
    least = min(sums)
    orbits = [tuple(roots[k] for k in c) for c, s in zip(cycles, sums) if s == least]
    chart = TubeChart(q, _normal_form(orbits))
    _validate_chart(ctx, chart, roots)
    return chart


def _normal_form(
    orbits: list[tuple[K0Class, ...]],
) -> tuple[tuple[K0Class, ...], ...]:
    """Each orbit (in tau order) rotated to start at its smallest class
    vector, the orbits sorted by (rank, first vector)."""
    out = []
    for cyc in orbits:
        base = min(range(len(cyc)), key=lambda k: cyc[k].vec)
        out.append(cyc[base:] + cyc[:base])
    out.sort(key=lambda o: (len(o), o[0].vec))
    return tuple(out)


def check_chart_invariants(ctx: K0Context, chart: TubeChart) -> None:
    """Chart invariants: the structure (`_check_chart_structure`) and the
    Euler pattern of the quasi-simples (also run on cache load)."""
    _check_chart_structure(ctx, chart)
    _check_chi_pattern(ctx, chart)


def _chart_rows(chart: TubeChart) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The chart's classes, orbit by orbit, and their coordinate rows."""
    classes = [x.vec for orb in chart.orbits for x in orb]
    return classes, list(zip(*classes))


def _check_chart_structure(ctx: K0Context, chart: TubeChart) -> None:
    """Orbit sizes are the weights, no class repeats, every class has the
    chart's slope, each orbit is in tau order, and each orbit's classes
    sum to (deg, rank) = p (num, den).

    The tau^-1 image, rank and degree of every class are taken at once,
    from the coordinate rows; the classes are then tested in chart
    order.  A class has slope q = num/den exactly when its (deg, rank)
    is a multiple of (num, den) with rank > 0 (deg > 0 at infinity);
    any other class goes to `slope_of`, which raises NotSheafLike or
    gives another slope.  The classes of a quasi-simple orbit sum to the
    class w that every tube of the slope shares: the fiber f at
    infinity, and its image under the shifts (`chart_for`) elsewhere, so
    (deg, rank)(w) = p (num, den).  A longer window in place of a
    quasi-simple (one plus f, say) keeps every other property but not
    this sum."""
    sizes = tuple(sorted(len(o) for o in chart.orbits))
    if sizes != ctx.weights.weights:
        raise ChartInconsistent(
            f"orbit sizes {sizes} do not match weights {ctx.weights.weights} "
            f"at slope {chart.slope}"
        )
    q = chart.slope
    classes, rows = _chart_rows(chart)
    ranks, degs = apply_rows(ctx.rank_deg_rows, rows)
    flat = zip(classes, zip(*apply_rows(ctx.tau_inv_rows, rows)), ranks, degs)
    want = (ctx.p * q.num, ctx.p * q.den)
    seen = set()
    for t, orb in enumerate(chart.orbits):
        total = (0, 0)
        for k in range(len(orb)):
            vec, image, r, d = next(flat)
            total = (total[0] + d, total[1] + r)
            if vec in seen:
                raise ChartInconsistent(f"duplicate class {vec} at {chart.slope}")
            seen.add(vec)
            on_ray = d * q.den == q.num * r and (r > 0 if q.den else d > 0)
            if not on_ray and slope_of(ctx, K0Class(vec)) != q:
                raise ChartInconsistent(f"class {vec} has the wrong slope")
            if image != orb[(k + 1) % len(orb)].vec:
                raise ChartInconsistent(
                    f"orbit order at slope {chart.slope} is not the tau order"
                )
        if total != want:
            raise ChartInconsistent(
                f"orbit {t} at slope {chart.slope} sums to (deg, rank) "
                f"{total}, not {want}"
            )


def _check_chi_pattern(ctx: K0Context, chart: TubeChart) -> None:
    """chi between quasi-simples: 1 on the diagonal, -1 from a class to
    its tau-translate in the same orbit, 0 otherwise.

    All pairings at once: the Euler images of the classes on their
    coordinate rows, then gram[i][j] = chi(x_i, x_j) through the nonzero
    coordinates of each x_i.  On a mismatch the first violation, by
    orbits a, b and then positions j, k, is reported."""
    classes, rows = _chart_rows(chart)
    gram = apply_rows(sparse_rows(classes), apply_rows(ctx.euler_rows, rows))
    starts = list(accumulate((len(o) for o in chart.orbits), initial=0))
    want = []
    for orb, start in zip(chart.orbits, starts):
        r = len(orb)
        for j in range(r):
            row = [0] * len(classes)
            row[start + j] = 1
            row[start + (j - 1) % r] -= 1
            want.append(tuple(row))
    if gram == want:
        return
    for a, orb_a in enumerate(chart.orbits):
        for b, orb_b in enumerate(chart.orbits):
            for j in range(len(orb_a)):
                for k in range(len(orb_b)):
                    val = gram[starts[a] + j][starts[b] + k]
                    expected = want[starts[a] + j][starts[b] + k]
                    if val != expected:
                        raise ChartInconsistent(
                            f"chi pattern violated at slope {chart.slope}: "
                            f"orbits {a},{b} positions {j},{k}: {val} != {expected}"
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


def _find_window(
    ctx: K0Context, chart: TubeChart, c: K0Class
) -> tuple[int, int, int] | None:
    """(orbit, socle, length) of the window of class c, or None.

    Read off the chi pattern of the chart: for the window (t, s, l),
    chi(E, c) = dot(E, euler c) over the quasi-simples E is +1 at
    position s of orbit t, -1 at position s + l (one place past the
    end) and 0 elsewhere.  The window read at the first orbit with a
    nonzero pairing, largest orbits first (most windows lie there), is
    the answer only when its `window_class` is c."""
    e = ctx.eb(c.vec)
    for t in range(len(chart.orbits) - 1, -1, -1):
        orbit = chart.orbits[t]
        pattern = [dot(x.vec, e) for x in orbit]
        if any(pattern):
            if 1 not in pattern or -1 not in pattern:
                return None
            socle = pattern.index(1)
            length = (pattern.index(-1) - socle) % len(orbit)
            if _window_vec(orbit, socle, length) == c.vec:
                return (t, socle, length)
            return None
    return None


def chart_for(ctx: K0Context, q: Slope) -> TubeChart:
    """Memoized chart accessor.

    The chart at infinity is built in closed form (`_chart_at_infinity`)
    and moved to slope 0 by the inverse of the word of infinity, rho^-1
    along the tau-orbit of O and then rho^-1 along the simples at
    infinity; that is the anchor (`_build_anchor`).  The chart at any
    other q is the anchor moved by a word in the two tubular shifts
    (`_shift_word`), which are autoequivalences of the derived category
    (Lenzing-Meltzer, "Sheaves on a weighted projective line of genus
    one, and representations of a tubular algebra", 1993).  Along a
    tau-orbit E_0..E_{p-1} of a rank-p tube, E_{j+1} = tau^-1 E_j, the
    shift acts on classes by

        rho^k(x)  = x - sum_j chi(E_j, x) (E_j + E_{j+1} + ... + E_{j+k-1})
        rho^-k(x) = x - sum_j chi(x, E_j) (E_j + E_{j-1} + ... + E_{j-k+1})

    for k > 0 (indices mod p).  On the tube of the simples S_{t,j} at
    infinity (p_t = p) rho^k is the twist by k x_t, which maps the slope
    q to q + k; on the tau-orbit of O at slope 0 it keeps the degree and
    sets the rank to rank - k deg, so it maps q to q / (1 - kq).

    A step is taken on all classes of the chart at once, on their
    coordinate rows (`_shift_rows`): with c_j = chi(E_j, x) for k > 0 and
    chi(x, E_j) for k < 0, and |k| = laps * p + rest,

        rho^k(x) = x - sum_l D_l E_l,
        D_l = laps * sum_j c_j + (the c_j whose rest terms reach E_l),

    each of the three through the nonzero entries of its matrix.

    Once per context, when the anchor is built, the slope-0 shift is
    checked (`_tube_shifts`): rho^-1 inverts it, it preserves the Euler
    form, commutes with tau, keeps the degree and lowers the rank by
    the degree; the other shift is the twist by x_t, an autoequivalence
    (the tests compare it with `twist_matrix`).  The chart at infinity
    gets the structural checks and the anchor every chart invariant
    (`check_chart_invariants`), so a moved chart inherits the anchor's
    chi pattern and gets only the structural checks, batched in the
    same way.  No root is enumerated: the tests and `verify --suite
    charts` compare the charts with `build_chart`.  The requested chart,
    the anchor and the chart at infinity are memoized.
    """
    got = ctx._charts.get(q)
    if got is None:
        anchor = ctx._charts.get(ZERO)
        if anchor is None:
            anchor = _build_anchor(ctx)
            got = ctx._charts.get(q)
        if got is None:
            got = ctx._charts[q] = _move_chart(ctx, anchor, q)
    return got  # type: ignore[return-value]


def _simple(ctx: K0Context, i: int) -> tuple[int, ...]:
    """The class vector of the simple S_{i,1}, a basis vector."""
    s = [0] * ctx.n
    s[ctx.simple_index(i, 1)] = 1
    return tuple(s)


def _chart_at_infinity(ctx: K0Context) -> TubeChart:
    """The chart at infinity in closed form: for each weight p_i, the
    tau^-1-orbit of the simple S_{i,1}, that is S_{i,1}, ..., S_{i,p_i-1},
    S_{i,0} (the conventions of `k0`), in the normal form of
    `build_chart`.  The t orbits are walked at once, on the coordinate
    rows of the t simples S_{i,1}, one pass over tau^-1 a step."""
    w = ctx.weights
    col = list(zip(*(_simple(ctx, i) for i in range(w.t))))
    steps = [list(zip(*col))]
    for _ in range(w.p - 1):
        col = apply_rows(ctx.tau_inv_rows, col)
        steps.append(list(zip(*col)))
    orbits = [
        tuple(K0Class(step[i]) for step in steps[:p_i]) for i, p_i in enumerate(w.weights)
    ]
    return TubeChart(INF, _normal_form(orbits))


def _build_anchor(ctx: K0Context) -> TubeChart:
    """The anchor: the chart at infinity, structurally checked, moved to
    slope 0 by the inverse of the word of infinity and checked in full.
    Both charts are memoized once the anchor passes."""
    at_inf = _chart_at_infinity(ctx)
    _check_chart_structure(ctx, at_inf)
    back = [(gen, -k) for gen, k in reversed(_shift_word(INF))]
    anchor = _move_chart(ctx, at_inf, ZERO, back)
    _check_chi_pattern(ctx, anchor)  # with the structure: `check_chart_invariants`
    ctx._charts[INF] = at_inf
    ctx._charts[ZERO] = anchor
    return anchor


_AT_ZERO, _AT_INF = 0, 1  # the two shift generators, indices into `_tube_shifts`


class _Shift(Record):
    """A tau-orbit E_0..E_{p-1} of a rank-p tube in tau^-1 order, in the
    sparse form of `intmat.apply_rows`: row j of `left` and of `right`
    gives chi(E_j, x) and chi(x, E_j), and row a of `drop` holds
    (l, -E_l[a]) for the E_l with a nonzero coordinate a."""

    __slots__ = ("orbit", "left", "right", "drop")
    orbit: tuple[tuple[int, ...], ...]
    left: SparseRows
    right: SparseRows
    drop: SparseRows

    def __init__(
        self,
        orbit: tuple[tuple[int, ...], ...],
        left: SparseRows,
        right: SparseRows,
        drop: SparseRows,
    ) -> None:
        setfield(self, "orbit", orbit)
        setfield(self, "left", left)
        setfield(self, "right", right)
        setfield(self, "drop", drop)


def _shift_along(ctx: K0Context, start: tuple[int, ...]) -> _Shift:
    """The shift along the tau-orbit of `start`.

    The orbit is walked on coordinate rows through the sparse rows of
    tau^-1 (`ctx.tau_inv_rows`), one width-1 column per class, and kept
    as the coordinate rows O of its classes.  The pairing rows come from
    one batched product: column j of euler O is euler E_j, the row of
    chi(x, E_j) (`right`).  By Serre duality, chi(E_j, x) = -chi(x, tau
    E_j) = -chi(x, E_{j-1}), so row j of `left` is row j - 1 of `right`
    negated; `_check_context` checks the duality on every context."""
    first = [(x,) for x in start]
    rows, col = first, first
    while (col := apply_rows(ctx.tau_inv_rows, col)) != first:
        rows = list(map(add, rows, col))
    right = list(zip(*apply_rows(ctx.euler_rows, rows)))
    return _Shift(
        tuple(zip(*rows)),
        sparse_rows([tuple(map(neg, r)) for r in right[-1:] + right[:-1]]),
        sparse_rows(right),
        sparse_rows([tuple(map(neg, r)) for r in rows]),
    )


def _orbit_weights(c: list[tuple[int, ...]], k: int) -> list[tuple[int, ...]]:
    """The rows D_l of rho^k (see `chart_for`) from the pairing rows c_j:
    laps * sum_j c_j, plus each c_j whose rest consecutive orbit terms
    from E_j, upward (towards tau^-1) for k > 0 and downward for k < 0,
    reach E_l.

    The window of rest terms at E_l holds c_{l+lo} .. c_{l+lo+rest-1},
    lo = 1 - rest for k > 0 and 0 for k < 0; it is summed once, at l = 0,
    and then slid round the orbit, one add and one subtract per position.
    For |k| = 1 the rows are the c_j themselves, and for k = 0 they are
    zero, of the width of the c_j."""
    r = len(c)
    laps, rest = divmod(abs(k), r)
    if rest == 1 and not laps:
        return list(c)
    lo = 1 - rest if k > 0 else 0
    w = [laps * s for s in map(sum, zip(*c))] if laps else [0] * len(c[0])
    for j in range(lo, lo + rest):
        w = map(add, w, c[j % r])
    w = tuple(w)
    if not rest:
        return [w] * r
    out = [w]
    for j in range(lo, lo + r - 1):
        w = tuple(map(sub, map(add, w, c[(j + rest) % r]), c[j % r]))
        out.append(w)
    return out


def _shift_rows(
    shift: _Shift, k: int, rows: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """rho^k (see `chart_for`) in one step on vectors held as coordinate
    rows: the pairing rows c_j, the weights D_l, then x - sum_l D_l E_l."""
    c = apply_rows(shift.left if k > 0 else shift.right, rows)
    return apply_rows(shift.drop, _orbit_weights(c, k), rows)


def _shift_word(q: Slope) -> list[tuple[int, int]]:
    """(generator, power) steps that carry the anchor to slope q.

    Their action on (deg, rank) maps (0, 1) to exactly (q.num, q.den),
    so the moved classes are sheaf classes and need no sign change.
    Built backwards by a Euclidean descent: peel off the twist power
    floor(deg/rank), then the slope-0 shift power that leaves a rank in
    1..deg; one step per partial quotient of q.
    """
    d, r = q.num, q.den
    back = []
    if r == 0:  # rho^1 at slope 0 carries slope 1, (1, 1), to (1, 0)
        back.append((_AT_ZERO, 1))
        r = 1
    while True:
        m = d // r
        if m:
            back.append((_AT_INF, m))
            d -= m * r
        if d == 0:
            return back[::-1]
        k = (r - 1) // d
        back.append((_AT_ZERO, -k))
        r -= k * d


def _tube_shifts(ctx: K0Context) -> tuple[_Shift, _Shift]:
    """The shifts along the tau-orbit of O (slope 0) and along the
    simples of the x_t tube (infinity); the first is checked when first
    asked for, which is when the anchor is built, the second is the
    twist by x_t (tested against `twist_matrix`)."""
    if ctx._shifts is None:
        w = ctx.weights
        at_zero = _shift_along(ctx, line_bundle_class(ctx, l_zero(w)).vec)
        _check_slope_zero_shift(ctx, at_zero)
        ctx._shifts = (at_zero, _shift_along(ctx, _simple(ctx, w.weights.index(w.p))))
    return ctx._shifts  # type: ignore[return-value]


def _check_slope_zero_shift(ctx: K0Context, shift: _Shift) -> None:
    """On the basis: rho^-1 inverts rho, rho preserves the Euler form,
    commutes with tau, keeps the degree and lowers the rank by it.

    The basis vectors are the columns of the identity, so as coordinate
    rows (`_shift_rows`) their images are the matrix R of rho, and the
    tau images of the basis are tau itself."""
    basis = identity(ctx.n)
    rho = tuple(_shift_rows(shift, 1, basis))
    ranks, degs = apply_rows(ctx.rank_deg_rows, rho)
    failed = None
    if tuple(_shift_rows(shift, -1, rho)) != basis:
        failed = "is not inverted by rho^-1"
    elif mat_mul(transpose(rho), apply_rows(ctx.euler_rows, rho)) != ctx.euler:
        failed = "does not preserve the Euler form"
    elif tuple(_shift_rows(shift, 1, ctx.tau)) != mat_mul(ctx.tau, rho):
        failed = "does not commute with tau"
    elif degs != ctx.deg_form:
        failed = "changes the degree"
    elif ranks != tuple(r - d for r, d in zip(ctx.rank_form, ctx.deg_form)):
        failed = "does not lower the rank by the degree"
    if failed:
        raise InternalConsistencyError(
            f"the tubular shift along the orbit of {shift.orbit[0]} {failed}"
        )


def _move_chart(
    ctx: K0Context,
    chart: TubeChart,
    q: Slope,
    word: list[tuple[int, int]] | None = None,
) -> TubeChart:
    """`chart` moved to slope q by the (generator, power) steps of `word`,
    by default the word that carries the anchor to q (`_shift_word`), in
    the normal form of `build_chart`: the shifts commute with tau, so
    each orbit stays in tau order and is only rotated.  Only the
    structure is checked (see `chart_for`)."""
    shifts = _tube_shifts(ctx)
    _, rows = _chart_rows(chart)
    for gen, k in _shift_word(q) if word is None else word:
        rows = _shift_rows(shifts[gen], k, rows)
    moved = zip(*rows)
    orbits = [tuple(K0Class(next(moved)) for _ in orbit) for orbit in chart.orbits]
    out = TubeChart(q, _normal_form(orbits))
    _check_chart_structure(ctx, out)
    return out


def exc_from_class(ctx: K0Context, c: K0Class) -> ExcObject:
    """Decode an arbitrary class: its slope, then its window in the chart
    at that slope, read off the chart's chi pattern (`_find_window`).

    The decoded object is memoized per class vector (`K0Context._decode`),
    so a repeated decode computes no slope and builds no object.  A class
    that is not sheaf-like raises NotSheafLike, and a sheaf class that is
    not a window of its chart NotExceptionalHere."""
    got = ctx._decode.get(c.vec)
    if got is None:
        q = slope_of(ctx, c)
        found = _find_window(ctx, chart_for(ctx, q), c)
        if found is None:
            raise NotExceptionalHere(f"class {c.vec} is not a window at {q}")
        got = ctx._decode[c.vec] = ExcObject(c, q, *found)
    return got


def orbit_rank(ctx: K0Context, x: ExcObject) -> int:
    return len(chart_for(ctx, x.slope).orbits[x.orbit])


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


def _hom_ext(ctx: K0Context, x: ExcObject, y: ExcObject, key) -> tuple[int, int]:
    """Fill the memo entry (hom(x, y), ext(x, y)) of one pair.

    The slopes are ordered by one cross-multiplication (infinity is 1/0)
    and chi(x, y) is evaluated once.  For ascending slopes Hom is the
    Euler pairing and Ext vanishes; for descending slopes Hom vanishes;
    within one tube Hom is the in-tube count of `tube_hom_oracle`, taken
    on the window coordinates: the offset k from the socle of x to the
    socle of y, and 1 iff k < len(x) <= k + len(y).  coh X is
    hereditary, so the Euler form has no higher terms and ext = hom - chi
    in every case.
    """
    xs, ys = x.slope, y.slope
    up = ys.num * xs.den - xs.num * ys.den  # > 0: y has the larger slope
    c = chi(ctx, x.cls, y.cls)
    if up > 0:
        if c < 0:
            raise InternalConsistencyError(
                f"negative hom {c} for ascending slopes {xs} -> {ys}"
            )
        got = (c, 0)
    else:
        h = 0
        if up == 0 and x.orbit == y.orbit:
            k = (y.socle - x.socle) % orbit_rank(ctx, x)
            if k < x.len <= k + y.len:
                h = 1
        e = h - c
        if e < 0:
            raise InternalConsistencyError(
                f"negative ext {e} between slopes {xs} and {ys}"
            )
        got = (h, e)
    ctx._pairs[key] = got
    return got


def hom_dim(ctx: K0Context, x: ExcObject, y: ExcObject) -> int:
    """dim Hom(x, y), from the (hom, ext) memo shared with `ext_dim`."""
    key = (x.cls.vec, y.cls.vec)
    got = ctx._pairs.get(key)
    if got is None:
        got = _hom_ext(ctx, x, y, key)
    return got[0]


def ext_dim(ctx: K0Context, x: ExcObject, y: ExcObject) -> int:
    """dim Ext^1(x, y), from the (hom, ext) memo shared with `hom_dim`."""
    key = (x.cls.vec, y.cls.vec)
    got = ctx._pairs.get(key)
    if got is None:
        got = _hom_ext(ctx, x, y, key)
    return got[1]


def _ext_either(ctx: K0Context, x: ExcObject, y: ExcObject) -> bool:
    """True iff ext(x, y) or ext(y, x) is nonzero: the rigidity test of a
    pair, x = y included.

    Ext^1(a, b) = D Hom(b, tau a) vanishes when a has the smaller slope
    (module docstring), so for two slopes only ext(higher, lower) is
    read, one memo entry; within one slope both directions are read."""
    xs, ys = x.slope, y.slope
    up = ys.num * xs.den - xs.num * ys.den  # > 0: y has the larger slope
    if up > 0:
        x, y = y, x
    pairs = ctx._pairs
    key = (x.cls.vec, y.cls.vec)
    got = pairs.get(key) or _hom_ext(ctx, x, y, key)
    if got[1] or up:
        return got[1] != 0
    key = (key[1], key[0])
    return (pairs.get(key) or _hom_ext(ctx, y, x, key))[1] != 0


def wing_contains(ctx: K0Context, z: ExcObject, x: ExcObject) -> bool:
    """True iff x lies in the wing under z (same tube, nested window)."""
    if z.slope != x.slope or z.orbit != x.orbit:
        return False
    r = orbit_rank(ctx, z)
    offset = (x.socle - z.socle) % r
    return offset + x.len <= z.len

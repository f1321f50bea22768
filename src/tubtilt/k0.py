"""Grothendieck lattice of a tubular weighted projective line.

Basis and sign conventions, fixed once and validated at build time:

* coordinate 0 holds the class of the structure sheaf O;
* for each weight p_i there are p_i - 1 consecutive coordinates for the
  exceptional simples S_{i,j} = O(j x_i)/O((j-1) x_i), j = 1..p_i-1.
  The remaining simple S_{i,0} of that tube (the one with
  Hom(O, S_{i,0}) = k) keeps the implicit class fiber - sum_j S_{i,j};
* the last coordinate is the fiber class, the class of an ordinary
  simple sheaf.

Twisting by x_i sends S_{i,j} to S_{i,j+1} (index mod p_i) and fixes
the simples of the other tubes; the Auslander-Reiten translate tau is
the twist by omega and sends S_{i,j} to S_{i,j-1}.

The Euler form restricted to (rank, simple coordinates) is the affine
D4/E6/E7/E8 form, positive semidefinite with one null direction, and
the fiber coordinate is a second radical direction.  Root enumeration
below exploits this: writing the successive differences d_{i,j} of the
partial sums along each tube, a class c satisfies chi(c, c) = 1 exactly
when sum d^2 = 2 + (t - 2) rank(c)^2 with sum_j d_{i,j} = rank(c) per
tube, which is a finite search with exact Cauchy-Schwarz pruning.  The
degree then fixes the fiber coordinate, which must be an integer: a
congruence mod p on the weighted sum of the simple coordinates.  The
search recurses over all tubes but the last and looks the last tube's
d-vectors up by the norm and the degree residue they must close.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

from .errors import (
    InternalConsistencyError,
    NotSheafLike,
    PreconditionError,
    SearchBoundExceeded,
)
from .intmat import Matrix, dot, identity, mat_mul, mat_pow, mat_vec, transpose
from .intmat import det as int_det
from .slopes import INF, Slope
from .weights import LElement, WeightData, l_neg, omega


@dataclass(frozen=True)
class K0Class:
    """Integer vector in the fixed context basis."""

    vec: tuple[int, ...]

    def __add__(self, other: "K0Class") -> "K0Class":
        return K0Class(tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __sub__(self, other: "K0Class") -> "K0Class":
        return K0Class(tuple(a - b for a, b in zip(self.vec, other.vec)))

    def __neg__(self) -> "K0Class":
        return K0Class(tuple(-a for a in self.vec))


class K0Context:
    """Immutable lattice data plus memo tables for derived quantities."""

    def __init__(
        self,
        weights: WeightData,
        basis_labels: tuple[str, ...],
        euler: Matrix,
        rank_form: tuple[int, ...],
        deg_form: tuple[int, ...],
        tube_offsets: tuple[int, ...],
    ):
        self.weights = weights
        self.n = weights.n
        self.p = weights.p
        self.basis_labels = basis_labels
        self.euler = euler
        self.euler_det = int_det(euler)  # det(E), the Gram determinant of a basis
        self.rank_form = rank_form
        self.deg_form = deg_form
        self.tube_offsets = tube_offsets  # start coordinate of each tube block
        self.idx_o = 0
        self.idx_f = weights.n - 1
        self._eb: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._charts: dict[Slope, object] = {}
        self._shifts: tuple | None = None  # set by tubes._tube_shifts
        self._t_can: object | None = None  # set by tilting.t_can
        self._decode: dict[tuple[Slope, tuple[int, ...]], tuple[int, int, int]] = {}
        # (x, y) class vectors -> (hom(x, y), ext(x, y)), see tubes._hom_ext
        self._pairs: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, int]] = {}
        # The complement table of tilting.mutate and connect.explore_graph.
        # An almost complete key (a class key with one summand left out,
        # still in canonical order) maps to the complements known for it,
        # as the flat tuple (holder, complement[, holder, complement]):
        # each holder is the tilting object of the key plus its complement.
        # Happel-Unger allows at most two (tilting._enter_complement).
        self._complements: dict[tuple, tuple] = {}
        self.omega = omega(weights)
        self.tau: Matrix = twist_matrix(self, self.omega)
        self.tau_inv: Matrix = twist_matrix(self, l_neg(self.omega))
        self.chibar: Matrix = _chibar_matrix(self)

    # -- basis bookkeeping -------------------------------------------------

    def simple_index(self, i: int, j: int) -> int:
        """Coordinate of [S_{i,j}] for 1 <= j <= p_i - 1."""
        return self.tube_offsets[i] + (j - 1)

    def eb(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """Memoized product euler @ vec (used by every chi evaluation)."""
        got = self._eb.get(vec)
        if got is None:
            got = mat_vec(self.euler, vec)
            self._eb[vec] = got
        return got

    def __repr__(self) -> str:  # pragma: no cover
        return f"K0Context(weights={self.weights.weights})"


def line_bundle_class(ctx: K0Context, x: LElement) -> K0Class:
    """Class of the line bundle O(x) for x in normal form."""
    vec = [0] * ctx.n
    vec[ctx.idx_o] = 1
    for i, a in enumerate(x.coeffs):
        for j in range(1, a + 1):
            vec[ctx.simple_index(i, j)] = 1
    vec[ctx.idx_f] = x.c
    return K0Class(tuple(vec))


def twist_matrix(ctx: K0Context, v: LElement) -> Matrix:
    """Action of the twist by v on the lattice (columns = basis images)."""
    n = ctx.n
    w = ctx.weights
    cols: list[tuple[int, ...]] = [()] * n
    cols[ctx.idx_o] = line_bundle_class(ctx, v).vec
    ef = [0] * n
    ef[ctx.idx_f] = 1
    cols[ctx.idx_f] = tuple(ef)
    for i, p_i in enumerate(w.weights):
        for j in range(1, p_i):
            jj = (j + v.coeffs[i]) % p_i
            img = [0] * n
            if jj == 0:
                img[ctx.idx_f] = 1
                for jk in range(1, p_i):
                    img[ctx.simple_index(i, jk)] = -1
            else:
                img[ctx.simple_index(i, jj)] = 1
            cols[ctx.simple_index(i, j)] = tuple(img)
    return tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))


def build_context(w: WeightData) -> K0Context:
    """Assemble the Euler matrix, forms and twist action; self-check."""
    n = w.n
    offsets = []
    pos = 1
    for p_i in w.weights:
        offsets.append(pos)
        pos += p_i - 1
    idx_f = n - 1
    labels = ["O"]
    for i, p_i in enumerate(w.weights):
        labels.extend(f"S{i + 1},{j}" for j in range(1, p_i))
    labels.append("f")

    e = [[0] * n for _ in range(n)]
    e[0][0] = 1
    e[0][idx_f] = 1
    e[idx_f][0] = -1
    for i, p_i in enumerate(w.weights):
        base = offsets[i]
        for j in range(1, p_i):
            u = base + (j - 1)
            if j == 1:
                e[u][0] = -1
            for k in range(1, p_i):
                v = base + (k - 1)
                e[u][v] = (1 if j == k else 0) - (1 if k == j - 1 else 0)
    euler = tuple(tuple(row) for row in e)

    rank_form = tuple(1 if u == 0 else 0 for u in range(n))
    deg = [0] * n
    for i, p_i in enumerate(w.weights):
        for j in range(1, p_i):
            deg[offsets[i] + (j - 1)] = w.p // p_i
    deg[idx_f] = w.p
    deg_form = tuple(deg)

    ctx = K0Context(w, tuple(labels), euler, rank_form, deg_form, tuple(offsets))
    _check_context(ctx)
    return ctx


def _check_context(ctx: K0Context) -> None:
    e, t = ctx.euler, ctx.tau
    if abs(ctx.euler_det) != 1:
        raise InternalConsistencyError("Euler matrix is not unimodular")
    if mat_mul(mat_mul(transpose(t), e), t) != e:
        raise InternalConsistencyError("tau does not preserve the Euler form")
    if mat_mul(t, ctx.tau_inv) != identity(ctx.n):
        raise InternalConsistencyError("tau inverse mismatch")
    if mat_pow(t, ctx.p) != identity(ctx.n):
        raise InternalConsistencyError("tau does not have order p")
    # Serre duality on classes: chi(a, b) = -chi(b, tau a).
    if e != tuple(tuple(-x for x in row) for row in transpose(mat_mul(e, t))):
        raise InternalConsistencyError("Serre duality fails on the lattice")
    # Averaged form equals the rank/degree determinant form.
    if ctx.chibar != tuple(
        tuple(
            ctx.rank_form[u] * ctx.deg_form[v] - ctx.deg_form[u] * ctx.rank_form[v]
            for v in range(ctx.n)
        )
        for u in range(ctx.n)
    ):
        raise InternalConsistencyError("averaged Euler form is not the determinant form")


def _chibar_matrix(ctx: K0Context) -> Matrix:
    """Sum of (tau^T)^j euler over j = 0..p-1."""
    acc = ctx.euler
    tt = transpose(ctx.tau)
    power = tt
    for _ in range(ctx.p - 1):
        acc = tuple(
            tuple(x + y for x, y in zip(r1, r2))
            for r1, r2 in zip(acc, mat_mul(power, ctx.euler))
        )
        power = mat_mul(power, tt)
    return acc


def chi(ctx: K0Context, a: K0Class, b: K0Class) -> int:
    """Euler pairing dim Hom - dim Ext^1 on classes."""
    return dot(a.vec, ctx.eb(b.vec))


def chi_bar(ctx: K0Context, a: K0Class, b: K0Class) -> int:
    """Averaged Euler form, equal to rank(a) deg(b) - deg(a) rank(b)."""
    return dot(a.vec, mat_vec(ctx.chibar, b.vec))


def rank_of(ctx: K0Context, c: K0Class) -> int:
    return dot(ctx.rank_form, c.vec)


def deg_of(ctx: K0Context, c: K0Class) -> int:
    return dot(ctx.deg_form, c.vec)


def slope_of(ctx: K0Context, c: K0Class) -> Slope:
    """deg/rank as an exact slope; infinite for torsion classes."""
    r = rank_of(ctx, c)
    d = deg_of(ctx, c)
    if r > 0:
        return Slope(d, r)
    if r == 0 and d > 0:
        return INF
    raise NotSheafLike(f"rank {r}, degree {d} is not the shape of a sheaf class")


# -- root enumeration ------------------------------------------------------


def _min_tube_norm(count: int, total: int) -> int:
    """Minimum of sum d_j^2 over integer vectors with sum d_j = total."""
    q, rho = divmod(total, count)
    return count * q * q + rho * (2 * q + 1)


def _tube_dvectors(count: int, total: int, cap: int) -> Iterator[tuple[int, ...]]:
    """All integer d with len count, sum total, sum of squares <= cap."""
    if cap < 0:
        return
    if count == 1:
        if total * total <= cap:
            yield (total,)
        return
    disc = (count - 1) * (cap * count - total * total)
    if disc < 0:
        return
    s = isqrt(disc)
    lo = -((s - total) // count)
    hi = (total + s) // count
    for d in range(lo, hi + 1):
        for rest in _tube_dvectors(count - 1, total - d, cap - d * d):
            yield (d,) + rest


def _svec_from_d(total: int, d: tuple[int, ...]) -> tuple[int, ...]:
    """Partial sums: s_j = total - (d_1 + ... + d_j) for j < len(d)."""
    out = []
    acc = 0
    for dj in d[:-1]:
        acc += dj
        out.append(total - acc)
    return tuple(out)


def _tube_entries(
    count: int, total: int, cap: int, factor: int
) -> list[tuple[int, tuple[int, ...], int]]:
    """(sum d^2, svec, factor * sum svec) for each d of
    `_tube_dvectors(count, total, cap)`, by sum d^2; factor is p / p_i,
    so the last item is the tube's share of the weighted degree."""
    out = []
    for d in _tube_dvectors(count, total, cap):
        sv = _svec_from_d(total, d)
        out.append((sum(x * x for x in d), sv, factor * sum(sv)))
    out.sort(key=lambda e: e[0])
    return out


def enumerate_roots_at(ctx: K0Context, q: Slope, m_max: int) -> tuple[K0Class, ...]:
    """All classes c with (deg, rank)(c) = m (num, den)(q), 1 <= m <= m_max,
    and chi(c, c) = 1, in deterministic order.

    The search is exhaustive: for fixed rank the quadratic form is
    positive definite on the simple coordinates, and the difference
    encoding described in the module docstring turns chi(c, c) = 1 into
    a bounded integer program.  For each m, the d-vectors of each tube
    are listed once with their norm and weighted degree, under the cap
    the other tubes' minimal norms leave.  A pruned recursion picks one
    entry for each of the first t - 1 tubes, with the Cauchy-Schwarz cap
    of the norm left over; the last tube's entries are indexed by (norm,
    weighted degree mod p), so the entries that close both the norm
    equation and the degree congruence fixing the fiber coordinate are
    looked up, not enumerated.  The result is sorted by (m, vector).
    """
    if not 1 <= m_max <= ctx.p:
        raise PreconditionError(f"m_max must lie in 1..{ctx.p}")
    w = ctx.weights
    t = w.t
    bound = ctx.p * (1 + m_max * max(abs(q.num), q.den))
    out: list[tuple[int, tuple[int, ...]]] = []

    for m in range(1, m_max + 1):
        d0 = m * q.num
        r0 = m * q.den
        budget = 2 + (t - 2) * r0 * r0
        mins = [_min_tube_norm(p_i, r0) for p_i in w.weights]
        slack = budget - sum(mins)
        if slack < 0:
            continue
        suffix_min = [0] * (t + 1)
        for i in range(t - 1, -1, -1):
            suffix_min[i] = suffix_min[i + 1] + mins[i]
        # tubes of equal weight have equal entries
        entries: dict[int, list[tuple[int, tuple[int, ...], int]]] = {}
        for p_i, lo in zip(w.weights, mins):
            if p_i not in entries:
                entries[p_i] = _tube_entries(p_i, r0, lo + slack, w.p // p_i)
        heads = [entries[p_i] for p_i in w.weights[:-1]]
        last: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for norm, sv, wdeg in entries[w.weights[-1]]:
            last.setdefault((norm, wdeg % w.p), []).append(sv)

        def rec(i: int, left: int, weighted: int, svecs: list[tuple[int, ...]]) -> None:
            if i == t - 1:
                for sv in last.get((left, (d0 - weighted) % w.p), ()):
                    svecs.append(sv)
                    _emit(ctx, m, d0, r0, svecs, bound, out)
                    svecs.pop()
                return
            cap = left - suffix_min[i + 1]
            for norm, sv, wdeg in heads[i]:
                if norm > cap:
                    break
                svecs.append(sv)
                rec(i + 1, left - norm, weighted + wdeg, svecs)
                svecs.pop()

        rec(0, budget, 0, [])

    out.sort()
    return tuple(K0Class(vec) for _, vec in out)


def _emit(
    ctx: K0Context,
    m: int,
    d0: int,
    r0: int,
    svecs: list[tuple[int, ...]],
    bound: int,
    out: list[tuple[int, tuple[int, ...]]],
) -> None:
    w = ctx.weights
    weighted = sum(
        sum(sv) * (w.p // p_i) for sv, p_i in zip(svecs, w.weights)
    )
    rem = d0 - weighted
    if rem % w.p:
        return
    f = rem // w.p
    vec = [0] * ctx.n
    vec[ctx.idx_o] = r0
    for i, sv in enumerate(svecs):
        base = ctx.tube_offsets[i]
        for j, s in enumerate(sv):
            vec[base + j] = s
    vec[ctx.idx_f] = f
    if any(abs(x) > bound for x in vec):
        raise SearchBoundExceeded(
            f"root coefficient outside the documented bound {bound}: {vec}"
        )
    out.append((m, tuple(vec)))

"""The root oracle: every root at a slope, and the chart built from them.

Since the charts are moved from the closed-form chart at infinity
(`tubes.chart_for`), no run-time path enumerates roots.  This module is
the reference that `verify --suite charts`, `scripts/chart_costs.py` and
the tests compare the moved charts with.  `k0` and `tubes` re-export its
public names (`k0.enumerate_roots_at`, `tubes.build_chart`) on first
access, so a process that never asks for them never compiles it.

The Euler form restricted to (rank, simple coordinates) is positive
semidefinite with one null direction (`k0`).  Root enumeration exploits
this: writing the successive differences d_{i,j} of the partial sums
along each tube, a class c satisfies chi(c, c) = 1 exactly when
sum d^2 = 2 + (t - 2) rank(c)^2 with sum_j d_{i,j} = rank(c) per tube,
which is a finite search with exact Cauchy-Schwarz pruning.  The degree
then fixes the fiber coordinate, which must be an integer: a congruence
mod p on the weighted sum of the simple coordinates.  The search
recurses over all tubes but the last and looks the last tube's
d-vectors up by the norm and the degree residue they must close.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

from . import tubes
from .errors import ChartInconsistent, PreconditionError, SearchBoundExceeded
from .intmat import apply_rows
from .k0 import K0Class, K0Context
from .slopes import Slope
from .tubes import TubeChart, _normal_form, check_chart_invariants


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

    The roots are looked up as `tubes.enumerate_roots_at`, the chart
    module's name for them, so that a test can stand a broken root set in
    there.
    """
    roots = tubes.enumerate_roots_at(ctx, q, ctx.p)
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


def _validate_chart(ctx: K0Context, chart: TubeChart, roots) -> None:
    check_chart_invariants(ctx, chart)
    # Realizability: every root must be a window of quasi-length <= rank-1.
    windows = {cls.vec for *_, cls in chart.windows()}
    for c in roots:
        if c.vec not in windows:
            raise ChartInconsistent(
                f"root {c.vec} at slope {chart.slope} is not a chart window"
            )

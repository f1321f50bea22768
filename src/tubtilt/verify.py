"""Randomized and exhaustive verification suites.

Each suite re-checks one block of structural properties at full trial
counts; the acceptance tests and the CLI `verify` subcommand both drive
these functions, so there is a single source of truth for what gets
verified.  All randomness is seeded and all comparisons are exact.
"""

from __future__ import annotations

import random
import time
from math import gcd
from typing import Callable, Iterable

from .connect import (
    extend_abcd,
    connect_to_canonical,
    random_walk,
    verify_path,
)
from .errors import TubTiltError
from .intmat import det as int_det
from .intmat import solve_int
from .k0 import (
    K0Class,
    K0Context,
    build_context,
    chi_bar,
    deg_of,
    rank_of,
)
from .records import Record, setfield
from .slopes import INF, Slope
from .tilting import (
    TiltingObject,
    apr_mutate,
    co_apr_mutate,
    first_objects,
    is_bundle,
    is_tilting,
    last_objects,
    mutate,
    purge_torsion,
    slope_range,
    t_can,
)
from .tubes import (
    ExcObject,
    chart_for,
    line_bundle_obj,
    wing_contains,
)
from .weights import (
    TUBULAR_TYPES,
    c_gen,
    l_zero,
    make_weights,
)

CHECK_SLOPES = [
    INF,
    Slope(0, 1),
    Slope(1, 1),
    Slope(1, 2),
    Slope(-1, 2),
    Slope(1, 3),
    Slope(2, 3),
    Slope(3, 2),
    Slope(37, 53),
    Slope(-29, 61),
]


class CheckResult(Record):
    """One named check of a suite, passed or failed, with an optional
    detail for its report line."""

    __slots__ = ("name", "ok", "detail")
    name: str
    ok: bool
    detail: str

    def __init__(self, name: str, ok: bool, detail: str = "") -> None:
        setfield(self, "name", name)
        setfield(self, "ok", ok)
        setfield(self, "detail", detail)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}{suffix}"


_CONTEXTS: dict[tuple[int, ...], K0Context] = {}


def context_for(ws: tuple[int, ...]) -> K0Context:
    ctx = _CONTEXTS.get(ws)
    if ctx is None:
        ctx = build_context(make_weights(ws))
        _CONTEXTS[ws] = ctx
    return ctx


def _random_class(ctx: K0Context, rng: random.Random) -> K0Class:
    return K0Class(tuple(rng.randrange(-9, 10) for _ in range(ctx.n)))


def _sample_exceptionals(ctx: K0Context, rng: random.Random, count: int) -> list[ExcObject]:
    pool = [
        ExcObject(cls, q, t, socle, length)
        for q in CHECK_SLOPES
        for t, socle, length, cls in chart_for(ctx, q).windows()
    ]
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


def _walk_nodes(
    ctx: K0Context, rng: random.Random, count: int, bundle_only: bool
) -> Iterable[TiltingObject]:
    """Distinct-ish tilting objects sampled from seeded mutation walks."""
    produced = 0
    walk_seed = rng.randrange(1 << 30)
    while produced < count:
        steps = rng.randrange(2, 9)
        path = random_walk(ctx, steps, seed=walk_seed, bundle_only=bundle_only)
        walk_seed += 1
        yield path.end
        produced += 1


# -- suite 1: structure -------------------------------------------------------


def suite_structure(trials: int = 10_000, seed: int = 1) -> list[CheckResult]:
    out = []
    start = time.perf_counter()
    rng = random.Random(seed)
    for ws in TUBULAR_TYPES:
        ctx = context_for(ws)
        w = ctx.weights
        out.append(CheckResult(f"structure[{ws}]: genus == 1", w.genus == 1))
        out.append(
            CheckResult(f"structure[{ws}]: n in {{6,8,9,10}}", w.n in (6, 8, 9, 10))
        )
        out.append(
            CheckResult(
                f"structure[{ws}]: Euler matrix unimodular",
                abs(int_det(ctx.euler)) == 1,
            )
        )
        bad = 0
        for _ in range(trials):
            a, b = _random_class(ctx, rng), _random_class(ctx, rng)
            want = rank_of(ctx, a) * deg_of(ctx, b) - deg_of(ctx, a) * rank_of(ctx, b)
            if chi_bar(ctx, a, b) != want:
                bad += 1
        out.append(
            CheckResult(
                f"structure[{ws}]: averaged form identity on {trials} pairs", bad == 0
            )
        )
    elapsed = time.perf_counter() - start
    out.append(
        CheckResult("structure: runtime < 5s", elapsed < 5.0, f"{elapsed:.2f}s")
    )
    return out


# -- suite 2: chart census ------------------------------------------------------


def suite_charts(trials: int = 0, seed: int = 0) -> list[CheckResult]:
    from .roots import build_chart

    out = []
    start = time.perf_counter()
    ctx = context_for((2, 2, 2, 2))
    for q in (INF, Slope(0, 1), Slope(1, 1), Slope(1, 2)):
        chart = chart_for(ctx, q)
        out.append(
            CheckResult(
                f"charts[(2,2,2,2) q={q}]: 8 quasi-simples in 4 rank-2 orbits",
                chart.quasi_simple_count() == 8 and chart.ranks == (2, 2, 2, 2),
            )
        )
    for ws, total in (((2, 3, 6), 11), ((2, 4, 4), 10), ((3, 3, 3), 9)):
        ctx = context_for(ws)
        chart = chart_for(ctx, INF)
        out.append(
            CheckResult(
                f"charts[{ws} q=inf]: {total} quasi-simples in orbits {ws}",
                chart.quasi_simple_count() == total
                and tuple(sorted(chart.ranks)) == ws,
            )
        )
    for ws in TUBULAR_TYPES:
        ctx = context_for(ws)
        ok = True
        for q in CHECK_SLOPES:
            # build_chart, the root oracle, checks that every root is a
            # window; chart_for moves the closed-form chart at infinity to
            # slope 0 and the anchor there to every other slope
            chart = build_chart(ctx, q)
            if tuple(sorted(chart.ranks)) != ws or chart != chart_for(ctx, q):
                ok = False
        out.append(CheckResult(f"charts[{ws}]: realizability across slopes", ok))
    elapsed = time.perf_counter() - start
    out.append(CheckResult("charts: runtime < 10s", elapsed < 10.0, f"{elapsed:.2f}s"))
    return out


# -- suite 3: the canonical tilting bundle ----------------------------------------


def suite_canonical(trials: int = 0, seed: int = 0) -> list[CheckResult]:
    out = []
    for ws in TUBULAR_TYPES:
        ctx = context_for(ws)
        tc = t_can(ctx)
        lo, hi = slope_range(ctx, tc)
        out.append(
            CheckResult(
                f"canonical[{ws}]: tilting with slope range [0, p]",
                is_tilting(ctx, tc)
                and lo == Slope(0, 1)
                and hi == Slope(ctx.p, 1),
            )
        )
    ctx = context_for((2, 2, 2, 2))
    tc = t_can(ctx)
    i_o = tc.index_of(line_bundle_obj(ctx, l_zero(ctx.weights)))
    i_c = tc.index_of(line_bundle_obj(ctx, c_gen(ctx.weights)))
    out.append(
        CheckResult(
            "canonical[(2,2,2,2)]: O first and O(c) last",
            i_o in first_objects(ctx, tc) and i_c in last_objects(ctx, tc),
        )
    )
    return out


# -- suite 4: mutation engine ------------------------------------------------------


def _basis_coords(t: TiltingObject, target: K0Class):
    return solve_int([s.cls.vec for s in t.summands], target.vec)


def suite_mutation(trials: int = 500, seed: int = 4) -> list[CheckResult]:
    out = []
    for ws in TUBULAR_TYPES:
        start = time.perf_counter()
        ctx = context_for(ws)
        rng = random.Random(seed)
        bad_inv = bad_add = 0
        done = 0
        for node in _walk_nodes(ctx, rng, trials, bundle_only=False):
            k = rng.randrange(ctx.n)
            t2, ev = mutate(ctx, node, k)
            back, ev_back = mutate(ctx, t2, t2.index_of(ev.added))
            if back.class_key() != node.class_key() or ev_back.added.cls != ev.removed.cls:
                bad_inv += 1
            coords = _basis_coords(node, ev.approx_class)
            if coords is None or any(c < 0 for c in coords) or coords[k] != 0:
                bad_add += 1
            done += 1
        elapsed = time.perf_counter() - start
        out.append(
            CheckResult(
                f"mutation[{ws}]: involution on {done} events", bad_inv == 0
            )
        )
        out.append(
            CheckResult(
                f"mutation[{ws}]: exchange additivity with nonnegative "
                f"approximation multiplicities",
                bad_add == 0,
            )
        )
        out.append(
            CheckResult(
                f"mutation[{ws}]: runtime < 60s", elapsed < 60.0, f"{elapsed:.1f}s"
            )
        )
    return out


# -- suite 5: slope bounds under mutation ---------------------------------------------


def suite_slopes(trials: int = 1000, seed: int = 5) -> list[CheckResult]:
    out = []
    for ws in TUBULAR_TYPES:
        ctx = context_for(ws)
        rng = random.Random(seed)
        bad_extreme = bad_apr = bad_coapr = 0
        events = 0
        for node in _walk_nodes(ctx, rng, (trials + 3) // 4, bundle_only=False):
            lo, hi = slope_range(ctx, node)
            slopes = [s.slope for s in node.summands]
            k_min = slopes.index(lo)
            k_max = slopes.index(hi)
            for k in (k_min, k_max):
                _, ev = mutate(ctx, node, k)
                events += 1
                if not (lo <= ev.added.slope <= hi):
                    bad_extreme += 1
            firsts = first_objects(ctx, node)
            if firsts:
                k = firsts[rng.randrange(len(firsts))]
                _, ev = apr_mutate(ctx, node, k)
                events += 1
                if not (ev.removed.slope <= ev.added.slope <= hi):
                    bad_apr += 1
            lasts = last_objects(ctx, node)
            if lasts:
                k = lasts[rng.randrange(len(lasts))]
                _, ev = co_apr_mutate(ctx, node, k)
                events += 1
                if not (lo <= ev.added.slope <= ev.removed.slope):
                    bad_coapr += 1
        out.append(
            CheckResult(
                f"slopes[{ws}]: extremal mutations stay in range "
                f"({events} events)",
                bad_extreme == 0,
            )
        )
        out.append(CheckResult(f"slopes[{ws}]: APR raises within range", bad_apr == 0))
        out.append(
            CheckResult(f"slopes[{ws}]: co-APR lowers within range", bad_coapr == 0)
        )
    return out


# -- suite 6: wing persistence ----------------------------------------------------


def suite_wings(trials: int = 500, seed: int = 6) -> list[CheckResult]:
    out = []
    for ws in TUBULAR_TYPES:
        ctx = context_for(ws)
        rng = random.Random(seed)
        bad = 0
        events = 0
        for node in _walk_nodes(ctx, rng, trials, bundle_only=False):
            k = rng.randrange(ctx.n)
            tk = node.summands[k]
            hosts = [
                z
                for i, z in enumerate(node.summands)
                if i != k and wing_contains(ctx, z, tk)
            ]
            _, ev = mutate(ctx, node, k)
            events += 1
            if hosts:
                if any(not wing_contains(ctx, z, ev.added) for z in hosts):
                    bad += 1
            else:
                if ev.added.slope == tk.slope:
                    bad += 1
        out.append(
            CheckResult(
                f"wings[{ws}]: persistence/slope-change on {events} events", bad == 0
            )
        )
    return out


# -- suite 7: torsion purge --------------------------------------------------------


def suite_purge(trials: int = 100, seed: int = 7) -> list[CheckResult]:
    out = []
    for ws in TUBULAR_TYPES:
        ctx = context_for(ws)
        rng = random.Random(seed)
        bad = 0
        done = 0
        for node in _walk_nodes(ctx, rng, trials * 4, bundle_only=False):
            torsion = sum(1 for s in node.summands if s.slope.is_infinite)
            if torsion == 0:
                continue
            bundle, events = purge_torsion(ctx, node)
            if len(events) != torsion or not is_bundle(bundle):
                bad += 1
            if any(ev.added.slope.is_infinite for ev in events):
                bad += 1
            done += 1
            if done >= trials:
                break
        out.append(
            CheckResult(
                f"purge[{ws}]: bundle in exactly s mutations ({done} inputs)",
                bad == 0 and done >= trials,
            )
        )
    return out


# -- suite 8: Farey steps -----------------------------------------------------------


def suite_abcd(trials: int = 100, seed: int = 0) -> list[CheckResult]:
    limit = max(trials, 100)
    bad = 0
    bad_descent = 0
    for b in range(2, limit + 1):
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            step = extend_abcd(a, b)
            if not (
                step.b * step.c - step.a * step.d == 1
                and 0 < step.c <= step.d < step.b
                and step.c <= step.a
            ):
                bad += 1
            aa, bb = a, b
            hops = 0
            while aa != bb:
                s = extend_abcd(aa, bb)
                if s.d >= bb:
                    bad_descent += 1
                    break
                aa, bb = s.c, s.d
                hops += 1
                if hops > b:
                    bad_descent += 1
                    break
    out = [
        CheckResult(
            f"abcd: all four constraints for coprime 1 <= a < b <= {limit}", bad == 0
        ),
        CheckResult("abcd: iterated descent terminates with a == b", bad_descent == 0),
    ]
    return out


# -- suite 9: connectivity ------------------------------------------------------------


def suite_connect(trials: int = 50, seed: int = 9) -> list[CheckResult]:
    out = []
    for ws in TUBULAR_TYPES:
        ctx = context_for(ws)
        rng = random.Random(seed)
        worst = 0.0
        bad = 0
        for i in range(trials):
            steps = 1 + rng.randrange(8)
            walk = random_walk(
                ctx, steps, seed=rng.randrange(1 << 30), bundle_only=True
            )
            t0 = time.perf_counter()
            try:
                path = connect_to_canonical(ctx, walk.end)
            except TubTiltError:
                bad += 1
                continue
            elapsed = time.perf_counter() - t0
            worst = max(worst, elapsed)
            if elapsed >= 60.0:
                bad += 1
            if not (
                path.bundle_only
                and verify_path(ctx, path.reversed())
                and path.end.class_key() == t_can(ctx).class_key()
            ):
                bad += 1
        out.append(
            CheckResult(
                f"connect[{ws}]: {trials} verified bundle paths to canonical",
                bad == 0,
                f"worst {worst:.1f}s",
            )
        )
    return out


# -- suite 10: frozen complement values -----------------------------------------------


def suite_complements(trials: int = 0, seed: int = 0) -> list[CheckResult]:
    ctx = context_for((2, 2, 2, 2))
    tc = t_can(ctx)
    i_o = tc.index_of(line_bundle_obj(ctx, l_zero(ctx.weights)))
    i_c = tc.index_of(line_bundle_obj(ctx, c_gen(ctx.weights)))
    _, ev_o = mutate(ctx, tc, i_o)
    _, ev_c = mutate(ctx, tc, i_c)
    return [
        CheckResult(
            "complements[(2,2,2,2)]: mutate at O gives [3,1,1,1,1,0] of slope 4/3",
            ev_o.added.cls.vec == (3, 1, 1, 1, 1, 0)
            and ev_o.added.slope == Slope(4, 3),
        ),
        CheckResult(
            "complements[(2,2,2,2)]: mutate at O(c) gives [3,1,1,1,1,-1] of slope 2/3",
            ev_c.added.cls.vec == (3, 1, 1, 1, 1, -1)
            and ev_c.added.slope == Slope(2, 3),
        ),
    ]


def suite_cli(trials: int = 1000, seed: int = 12) -> list[CheckResult]:
    """Serialization round-trips, expression round-trips, CLI determinism."""
    import io
    from contextlib import redirect_stdout

    from . import cli, serialize
    from .exprs import (
        ChartCoordExpr,
        LExprData,
        LineBundleExpr,
        MuExpr,
        RawClassExpr,
        TcanExpr,
        parse_expr,
        print_expr,
    )

    out = []
    for ws in TUBULAR_TYPES:
        ctx = context_for(ws)
        rng = random.Random(seed)
        bad_obj = 0
        for x in _sample_exceptionals(ctx, rng, trials):
            if serialize.exc_from_dict(ctx, serialize.exc_to_dict(x)) != x:
                bad_obj += 1
        out.append(
            CheckResult(
                f"cli[{ws}]: object JSON round-trip on {trials} samples", bad_obj == 0
            )
        )
        bad_tilt = 0
        for node in _walk_nodes(ctx, rng, trials, bundle_only=False):
            again = serialize.tilting_from_dict(
                serialize.tilting_to_dict(ctx, node), ctx
            )[1]
            if again.class_key() != node.class_key():
                bad_tilt += 1
        out.append(
            CheckResult(
                f"cli[{ws}]: tilting JSON round-trip on {trials} samples",
                bad_tilt == 0,
            )
        )
    rng = random.Random(seed)
    bad_expr = 0
    samples = [
        TcanExpr(None),
        TcanExpr(LExprData(((0, 1), (1, 2)), -1)),
        MuExpr(TcanExpr(None), 3),
        LineBundleExpr(LExprData((), 0)),
        LineBundleExpr(LExprData(((2, -3),), 2)),
        ChartCoordExpr(Slope(1, 2), 0, 1, 1),
        ChartCoordExpr(INF, 2, 0, 3),
        RawClassExpr((3, 1, 1, 1, 1, 0)),
    ]
    for ast in samples:
        if parse_expr(print_expr(ast)) != ast:
            bad_expr += 1
    out.append(CheckResult("cli: expression print/parse identity", bad_expr == 0))

    def capture(argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.run(argv)
        return rc, buf.getvalue()

    bad_det = 0
    for argv in (
        ["--weights", "2,2,2,2", "info"],
        ["--weights", "2,2,2,2", "chart", "--slope", "1/2"],
        ["--weights", "2,3,6", "walk", "--steps", "3", "--seed", "7"],
        ["--weights", "2,2,2,2", "mutate", "Tcan", "--at", "0"],
        ["--weights", "3,3,3", "walk", "--steps", "4", "--seed", "1", "--bundle-only"],
    ):
        rc1, out1 = capture(argv)
        rc2, out2 = capture(argv)
        if rc1 != 0 or rc2 != 0 or out1 != out2:
            bad_det += 1
    out.append(CheckResult("cli: identical argv gives byte-identical stdout", bad_det == 0))
    return out


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "structure": suite_structure,
    "charts": suite_charts,
    "canonical": suite_canonical,
    "mutation": suite_mutation,
    "slopes": suite_slopes,
    "wings": suite_wings,
    "purge": suite_purge,
    "abcd": suite_abcd,
    "connect": suite_connect,
    "complements": suite_complements,
    "cli": suite_cli,
}

SUITE_ORDER = list(SUITES)


def run_suite(name: str, trials: int | None = None, seed: int | None = None) -> bool:
    names = SUITE_ORDER if name == "all" else [name]
    ok = True
    for suite_name in names:
        fn = SUITES[suite_name]
        kwargs = {}
        if trials is not None:
            kwargs["trials"] = trials
        if seed is not None:
            kwargs["seed"] = seed
        for result in fn(**kwargs):
            print(result.line())
            ok = ok and result.ok
    return ok

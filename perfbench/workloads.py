"""The four benchmark workloads: input generation, one timed pass, checks.

Every workload follows the same protocol, driven by `run.py`:

* `generate(seed, pool)` builds the inputs on contexts of its own and
  returns them as JSON-able data, so the measured contexts start cold;
* `setup(inputs)` builds fresh contexts and loads the inputs (this is
  the `setup_s` metric);
* `run_pass(state, host, tracer)` runs every item once, timing each item
  and bringing its time to reference host speed with `host`;
* `check(checker, result)` checks the outputs of a pass outside the
  timed region.  Later passes of a run must reproduce the first exactly.

A pass is repeated on fresh contexts until the run length is reached, so
every pass does the same work and a run's figures pool identical passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO

# Timed calls go through the module attributes, so that the tracer's
# rebinding of a function reaches them; checks may bind names directly.
from tubtilt import cli as tcli
from tubtilt import connect as tconnect
from tubtilt import k0 as tk0
from tubtilt import serialize
from tubtilt import tilting as ttilting
from tubtilt.connect import random_walk, verify_path
from tubtilt.errors import TubTiltError
from tubtilt.k0 import build_context
from tubtilt.slopes import Slope
from tubtilt.tilting import is_bundle, is_tilting, t_can
from tubtilt.weights import make_weights

TYPES = ((2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6))
# Key of the walk pools of connect-* and explore; `--pool heldout` draws
# other walks, for checking a claimed gain on inputs it was not tuned on.
DEFAULT_POOL = "tubtilt-bench"


def _wstr(ws) -> str:
    return ",".join(str(p) for p in ws)


def _digest(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


def _slope_record(tiltings) -> dict:
    """Maximum slope denominator over the summands of the given tiltings."""
    dens = [
        Slope.parse(s["slope"]).den
        for t in tiltings
        for s in t["summands"]
        if s["slope"] != "inf"
    ]
    return {"max_slope_denominator": max(dens, default=0)}


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)  # one sample per timed call
    items: int = 0  # items completed
    attempted: int = 0
    failed: int = 0
    timed_s: float = 0.0  # sum of item wall times, at reference host speed
    raw_s: float = 0.0  # sum of item wall times as measured
    events: list[int] = field(default_factory=list)  # events per returned path
    outputs: list = field(default_factory=list)  # checked once, then dropped
    digest: str = ""  # exact outputs of the pass, compared across passes


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _run_item(res: PassResult, host, tracer, fn, span="bench.item"):
    """Time one item.  Returns (output, seconds at reference host speed);
    any exception is a failed item, reported on stderr and returned as the
    output, and the run goes on."""
    res.attempted += 1
    t0 = time.perf_counter()
    try:
        with _span(tracer, span):
            out = fn()
    except Exception as exc:  # noqa: BLE001 - the benchmark must keep running
        traceback.print_exc(file=sys.stderr)
        res.failed += 1
        out = exc
    dt = time.perf_counter() - t0
    res.raw_s += dt
    dt *= host.scale()  # outside the item's span and timing
    res.timed_s += dt
    return out, dt


class Workload:
    name: str
    tail_q: float  # percentile of `item_tail_ms`
    min_samples: int  # latency samples a run needs, so that 10 lie beyond tail_q


# -- connect-shallow / connect-deep ------------------------------------------


class ConnectWorkload(Workload):
    """`connect_to_canonical` on endpoints of bundle-only walks.

    Items of one type share one context, as a library user's would, so
    a later item reuses the mutations an earlier one memoized.  The pool
    of walks and its order are fixed, not drawn from the run seed (see
    perfbench/README.md): connect cost is so heavy-tailed that
    seed-dependent pools made the throughput of two seeds differ by up
    to 4x, and any seed-dependent order moves the median item latency,
    because order decides which item pays for shared work.
    """

    def __init__(self, name, lengths, per_type, tail_q, min_samples):
        self.name = name
        self.lengths = lengths
        self.per_type = per_type  # weights -> walks; lengths cycle through `lengths`
        self.tail_q = tail_q
        self.min_samples = min_samples

    def generate(self, seed: int, pool: str = DEFAULT_POOL, tiny: bool = False) -> dict:
        items = []
        for ws in TYPES:
            gctx = build_context(make_weights(ws))
            rng = random.Random(f"{pool}/{self.name}/{_wstr(ws)}")
            for i in range(1 if tiny else self.per_type[ws]):
                steps = self.lengths[i % len(self.lengths)]
                walk_seed = rng.randrange(1 << 30)
                end = random_walk(gctx, steps, walk_seed, bundle_only=True).end
                items.append(
                    {
                        "weights": list(ws),
                        "steps": steps,
                        "walk_seed": walk_seed,
                        "tilting": serialize.tilting_to_dict(gctx, end),
                    }
                )
        record = {
            "items_per_type": dict(Counter(_wstr(it["weights"]) for it in items)),
            "walk_length_histogram": dict(sorted(Counter(it["steps"] for it in items).items())),
            **_slope_record(it["tilting"] for it in items),
        }
        return {"items": items, "record": record}

    def setup(self, inputs: dict):
        ctxs = {ws: tk0.build_context(make_weights(ws)) for ws in TYPES}
        state = []
        for it in inputs["items"]:
            ctx = ctxs[tuple(it["weights"])]
            state.append((ctx, serialize.tilting_from_dict(it["tilting"], ctx)[1]))
        return state

    def run_pass(self, state, host, tracer=None) -> PassResult:
        res = PassResult()
        shape = []
        for ctx, t in state:
            path, dt = _run_item(res, host, tracer, lambda: tconnect.connect_to_canonical(ctx, t))
            if isinstance(path, Exception):
                shape.append(repr(path))
                continue
            res.latencies.append(dt)
            res.items += 1
            res.events.append(len(path.events))
            res.outputs.append((ctx.weights.weights, t, path))
            shape.append([(e.index, e.removed.cls.vec, e.added.cls.vec) for e in path.events])
        res.digest = _digest(shape)
        return res

    def check(self, checker: "Checker", res: PassResult) -> int:
        bad = 0
        for ws, t, path in res.outputs:
            ctx = checker.ctx(ws)
            ok = (
                path.bundle_only
                and path.nodes[0].class_key() == t.class_key()
                and path.end.class_key() == t_can(ctx).class_key()
                and verify_path(ctx, path)
                and verify_path(ctx, path.reversed())
            )
            bad += not ok
        return bad


# -- explore --------------------------------------------------------------------


class ExploreWorkload(Workload):
    """BFS neighbourhoods (`explore_graph`) and torsion purges on (2,3,6).

    Each BFS and each purge gets a context of its own, so every mutation
    is computed cold: caching cannot help here, a faster mutation kernel
    shows in full.  (2,3,6) has the most summands and the largest
    mutation boxes.  One type keeps the per-node latencies unimodal;
    with four types they form four clusters, and a percentile that falls
    between two clusters jumps from run to run.  Centres are the
    canonical bundle and walk endpoints; the slope window is the
    centre's slope range widened by at least one on each side.  As on
    connect-*, the walks and their order are fixed, not drawn from the
    run seed: the cost per node of one neighbourhood ranges over 2.5x.
    """

    name = "explore"
    tail_q = 0.84
    min_samples = 64
    weights = (2, 3, 6)
    centres = 24
    purges = 16
    max_nodes = 24
    purge_steps = (6, 7, 8, 9, 10)

    def generate(self, seed: int, pool: str = DEFAULT_POOL, tiny: bool = False) -> dict:
        ws = list(self.weights)
        rng = random.Random(f"{pool}/{self.name}/{_wstr(ws)}")
        gctx = build_context(make_weights(ws))
        bfs, purges = [], []
        for i in range(1 if tiny else self.centres):
            steps = 0 if i == 0 else rng.randint(2, 6)
            start = random_walk(gctx, steps, rng.randrange(1 << 30), bundle_only=True).end
            slopes = [s.slope for s in start.summands]
            bfs.append(
                {
                    "weights": ws,
                    "steps": steps,
                    "start": serialize.tilting_to_dict(gctx, start),
                    "window": [min(slopes).floor() - 1, max(slopes).floor() + 2],
                    "max_nodes": 4 if tiny else self.max_nodes,
                }
            )
        for i in range(1 if tiny else self.purges):
            purges.append(
                {
                    "weights": ws,
                    "steps": self.purge_steps[i % len(self.purge_steps)],
                    "walk_seed": rng.randrange(1 << 30),
                }
            )
        steps = Counter(b["steps"] for b in bfs) + Counter(p["steps"] for p in purges)
        record = {
            "weights": _wstr(ws),
            "bfs_centres": len(bfs),
            "purge_walks": len(purges),
            "walk_length_histogram": dict(sorted(steps.items())),
            "max_nodes_per_bfs": bfs[0]["max_nodes"],
            **_slope_record(b["start"] for b in bfs),
        }
        return {"bfs": bfs, "purges": purges, "record": record}

    def setup(self, inputs: dict):
        bfs = []
        for b in inputs["bfs"]:
            ctx = tk0.build_context(make_weights(b["weights"]))
            start = serialize.tilting_from_dict(b["start"], ctx)[1]
            lo, hi = (Slope.from_int(x) for x in b["window"])
            bfs.append((ctx, start, lo, hi, b["max_nodes"]))
        purges = [
            (tk0.build_context(make_weights(p["weights"])), p["steps"], p["walk_seed"])
            for p in inputs["purges"]
        ]
        return bfs, purges

    def run_pass(self, state, host, tracer=None) -> PassResult:
        res = PassResult()
        bfs, purges = state
        shape = []
        for ctx, start, lo, hi, max_nodes in bfs:
            out, dt = _run_item(
                res, host, tracer, lambda: tconnect.explore_graph(ctx, start, lo, hi, max_nodes)
            )
            if isinstance(out, Exception):
                shape.append(repr(out))
                continue
            nodes, edges = out
            # a call discovers many items: its latency sample is per node
            res.latencies.append(dt / len(nodes))
            res.items += len(nodes)
            res.attempted += len(nodes) - 1
            res.outputs.append(("bfs", ctx.weights.weights, nodes))
            shape.append((len(nodes), len(edges), [n.class_key() for n in nodes], edges))
        for ctx, steps, walk_seed in purges:

            def purge():
                walk = tconnect.random_walk(ctx, steps, walk_seed)
                return walk, *ttilting.purge_torsion(ctx, walk.end)

            out, dt = _run_item(res, host, tracer, purge)
            if isinstance(out, Exception):
                shape.append(repr(out))
                continue
            walk, end, events = out
            found = len(walk.events) + len(events)  # nodes after the start
            res.latencies.append(dt / found)
            res.items += found
            res.attempted += found - 1
            res.events.append(found)
            res.outputs.append(("purge", ctx.weights.weights, out))
            shape.append(([e.added.cls.vec for e in walk.events], end.class_key()))
        res.digest = _digest(shape)
        return res

    def check(self, checker: "Checker", res: PassResult) -> int:
        bad = 0
        for kind, ws, out in res.outputs:
            ctx = checker.ctx(ws)
            if kind == "bfs":
                bad += sum(not is_tilting(ctx, node) for node in out)
            else:
                walk, end, events = out
                torsion = sum(s.slope.is_infinite for s in walk.end.summands)
                ok = (
                    verify_path(ctx, walk)
                    and len(events) == torsion
                    and is_bundle(end)
                    and is_tilting(ctx, end)
                )
                bad += not ok
        return bad


# -- cli ----------------------------------------------------------------------------


class CliWorkload(Workload):
    """A fixed sequence of `tubtilt` processes, run one at a time.

    Only this workload pays for interpreter start, import, a cold
    context per process, JSON files and the TUBTILT_CACHE chart cache.
    The working and cache directory is fresh for every pass.  The run seed picks the
    large-denominator slope of the `chart` command, whose cost does not
    depend on it; the rest of the sequence is fixed.
    """

    name = "cli"
    tail_q = 0.75
    min_samples = 42
    weights = "2,3,6"
    walk_steps = "3"

    def generate(self, seed: int, pool: str = DEFAULT_POOL, tiny: bool = False) -> dict:
        rng = random.Random(seed)
        while True:
            den = rng.randint(40, 64)
            num = rng.randint(1, den - 1)
            if Slope(num, den).den == den:
                break
        walk = ["--steps", "1" if tiny else self.walk_steps, "--seed", "3", "--bundle-only"]
        commands = [
            ["info", ["--weights", self.weights, "info"]],
            ["walk", ["--weights", self.weights, "walk", *walk]],
            ["connect", ["connect", "end.json", "--to", "canonical"]],
            ["check", ["check", "end.json"]],
            ["chart", ["--weights", self.weights, "chart", "--slope", f"{num}/{den}"]],
            [
                "graph",
                ["--weights", self.weights, "graph", "--slope-window", "0..2",
                 "--max-nodes", "4" if tiny else "30", "--dot", "graph.dot"],
            ],
        ]
        record = {
            "weights": self.weights,
            "commands": [c for c, _ in commands],
            "walk_length_histogram": {walk[1]: 1},
            "max_slope_denominator": den,
        }
        return {"commands": commands, "record": record}

    def setup(self, inputs: dict):
        """The cold context build that every `tubtilt` process pays at its
        start; the processes themselves build their own."""
        tk0.build_context(make_weights(int(x) for x in self.weights.split(",")))
        return inputs["commands"]

    def _env(self, work: str) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["TUBTILT_CACHE"] = os.path.join(work, "cache")
        return env

    def run_pass(self, state, host, tracer=None, in_process: bool = False) -> PassResult:
        """One pass in a fresh working and cache directory, removed after."""
        work = tempfile.mkdtemp(prefix="cli-pass-", dir=work_root())
        try:
            return self._run_commands(state, work, host, tracer, in_process)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _run_commands(self, commands, work, host, tracer, in_process) -> PassResult:
        res = PassResult()
        env = self._env(work)
        os.makedirs(env["TUBTILT_CACHE"])
        for cmd, argv in commands:
            if in_process:
                run = lambda: _run_in_process(argv, work, env)  # noqa: E731
            else:
                run = lambda: _run_subprocess(argv, work, env)  # noqa: E731
            got, dt = _run_item(res, host, tracer, run, span=f"cli.{cmd}")
            code, out = (-1, repr(got)) if isinstance(got, Exception) else got
            res.outputs.append((cmd, code, out))
            if code != 0:
                res.failed += not isinstance(got, Exception)
                continue
            try:
                if cmd == "walk":
                    # hand the end of the walk to `connect` and `check` (untimed)
                    end = json.loads(out)["nodes"][-1]
                    with open(os.path.join(work, "end.json"), "w", encoding="utf-8") as fh:
                        json.dump(end, fh)
                if cmd in ("walk", "connect"):
                    res.events.append(len(json.loads(out)["events"]))
            except (ValueError, KeyError, IndexError, TypeError):
                traceback.print_exc(file=sys.stderr)
                res.failed += 1
                continue
            res.latencies.append(dt)
            res.items += 1
        res.digest = _digest([(c, code, out) for c, code, out in res.outputs])
        return res

    def check(self, checker: "Checker", res: PassResult) -> int:
        ctx = checker.ctx(tuple(int(x) for x in self.weights.split(",")))
        bad = 0
        for cmd, code, out in res.outputs:
            if code != 0:
                continue
            try:
                ok = _cli_output_ok(ctx, cmd, out)
            except (ValueError, KeyError, TypeError, TubTiltError):
                ok = False
            bad += not ok
        return bad


def _cli_output_ok(ctx, cmd: str, out: str) -> bool:
    if cmd == "info":
        lines = out.splitlines()
        return lines[0] == f"weights: {_wstr(ctx.weights.weights)}" and "euler:" in lines
    data = json.loads(out)
    if cmd == "walk":
        path = serialize.path_from_dict(ctx, data)
        return path.bundle_only and verify_path(ctx, path)
    if cmd == "connect":
        path = serialize.path_from_dict(ctx, data)
        return (
            path.bundle_only
            and path.end.class_key() == t_can(ctx).class_key()
            and verify_path(ctx, path)
        )
    if cmd == "check":
        return data["tilting"] is True
    if cmd == "chart":
        return len(data["orbits"]) == len(ctx.weights.weights)
    if cmd == "graph":
        return data["nodes"] >= 1 and data["edges"] >= 0
    return False


def _run_subprocess(argv, work, env) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "tubtilt.cli", *argv],
        cwd=work, env=env, capture_output=True, timeout=120,
    )
    return proc.returncode, proc.stdout.decode()


def _run_in_process(argv, work, env) -> tuple[int, str]:
    """`tubtilt.cli.run` in this process, stdout captured, cwd and cache set."""
    old_cwd, old_cache = os.getcwd(), os.environ.get("TUBTILT_CACHE")
    os.chdir(work)
    os.environ["TUBTILT_CACHE"] = env["TUBTILT_CACHE"]
    buf = StringIO()
    try:
        with redirect_stdout(buf):
            code = tcli.run(argv)
    finally:
        os.chdir(old_cwd)
        if old_cache is None:
            os.environ.pop("TUBTILT_CACHE", None)
        else:
            os.environ["TUBTILT_CACHE"] = old_cache
    return code, buf.getvalue()


# -- shared -------------------------------------------------------------------------


class Checker:
    """Contexts kept apart from the measured ones, used only to check outputs."""

    def __init__(self) -> None:
        self._ctxs: dict = {}

    def ctx(self, ws):
        ws = tuple(ws)
        if ws not in self._ctxs:
            self._ctxs[ws] = build_context(make_weights(ws))
        return self._ctxs[ws]


ROOT = os.getcwd()  # the benchmark runs from the root of a checkout


def work_root() -> str:
    """Scratch space for the benchmark, inside the checkout (git-ignored)."""
    path = os.path.join(ROOT, ".bench_work")
    os.makedirs(path, exist_ok=True)
    return path


WORKLOADS = {
    "connect-shallow": ConnectWorkload(
        "connect-shallow",
        lengths=(1, 2, 3, 4, 5, 6, 7, 8),
        per_type={ws: 16 for ws in TYPES},
        tail_q=0.92,
        min_samples=128,
    ),
    "connect-deep": ConnectWorkload(
        "connect-deep",
        lengths=(12, 13, 14, 15, 16),
        per_type={(2, 2, 2, 2): 10, (3, 3, 3): 3, (2, 4, 4): 3, (2, 3, 6): 4},
        tail_q=0.75,
        min_samples=40,
    ),
    "explore": ExploreWorkload(),
    "cli": CliWorkload(),
}

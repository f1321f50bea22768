"""tubtilt benchmark: one closed-loop client, one process, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload connect-shallow --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` runs pairs of an
untraced and a traced pass and prints the per-layer metrics.  Times are
reported at reference host speed (see perfbench/hostspeed.py).  The last line of stdout is the result object; the
line before it records the generated inputs and the sample counts.
`--smoke` runs the workload on tiny inputs (used by perfbench/smoke.py).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

from hostspeed import HostSpeed

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# setup_s is the median of at least this many set-ups, and of at least
# SETUP_SECONDS of them, so that a 3 ms set-up is sampled often enough.
SETUP_REPEATS = 7
SETUP_SECONDS = 1.5


def _import_library() -> None:
    """Import tubtilt from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tubtilt", "__init__.py")):
        sys.exit(f"perfbench: no tubtilt sources under {SRC}; run from a checkout root")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import tubtilt

    if not os.path.abspath(tubtilt.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported tubtilt from {tubtilt.__file__}, not {SRC}")


def reset_library_caches() -> None:
    """Clear the library's process-wide memo caches (`functools.lru_cache`),
    so every pass starts as cold as a fresh process would."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tubtilt":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def time_setups(wl, inputs, host) -> list[float]:
    """Set-up times at reference host speed, each on cold library caches.

    They are taken before the first pass, so that every run times its
    set-ups in the same process state."""
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        reset_library_caches()
        t0 = time.perf_counter()
        state = wl.setup(inputs)
        setups.append((time.perf_counter() - t0) * host.scale())
        del state  # freed outside the timing
    return setups


def one_pass(wl, inputs, host, tracer=None, in_process=False):
    """Set up fresh contexts and run every item once."""
    reset_library_caches()
    state = wl.setup(inputs)
    res = wl.run_pass(state, host, tracer, **({"in_process": True} if in_process else {}))
    if tracer is not None:
        tracer.end_pass(res.timed_s / res.raw_s if res.raw_s else 1.0)
    return res


class Passes:
    """The passes of a run, checked as they come.

    The first pass is checked item by item, unless `reference` (the
    digest of another pass of the same inputs) is given; every other pass
    must reproduce the reference digest exactly.  Checks run outside the
    timed region.
    """

    def __init__(self, wl, checker, reference=None) -> None:
        self.wl, self.checker, self.reference = wl, checker, reference
        self.passes, self.failed = [], 0

    def add(self, res) -> None:
        if self.reference is None:
            self.failed += self.wl.check(self.checker, res)
            self.reference = res.digest
        else:
            self.failed += res.digest != self.reference
        res.outputs = []  # free the outputs of this pass
        self.passes.append(res)

    def samples(self) -> int:
        return sum(len(p.latencies) + p.failed for p in self.passes)


def measure(wl, inputs, host, seconds, checker, min_samples):
    """Passes on fresh contexts until both the run length and the sample
    count are reached."""
    run = Passes(wl, checker)
    start = time.perf_counter()
    while True:
        run.add(one_pass(wl, inputs, host))
        elapsed = time.perf_counter() - start
        n = len(run.passes)
        # stop when one more pass would end past the run length
        if run.samples() >= min_samples and elapsed * (n + 1) / n > seconds:
            return run


def percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def summarize(wl, run: Passes, setups=None) -> dict:
    passes = run.passes
    lat = sorted(x for p in passes for x in p.latencies)
    timed = sum(p.timed_s for p in passes)
    raw = sum(p.raw_s for p in passes)
    events = passes[0].events
    return {
        "items": sum(p.items for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes) + run.failed,
        "items_per_s": sum(p.items for p in passes) / timed if timed else 0.0,
        "item_p50_ms": 1000 * statistics.median(lat) if lat else 0.0,
        "item_tail_ms": 1000 * percentile(lat, wl.tail_q) if lat else 0.0,
        "setup_s": statistics.median(setups) if setups else None,
        "setups": len(setups or ()),
        "tail_percentile": wl.tail_q,
        "samples": len(lat),
        "samples_beyond_tail": len(lat) - math.ceil(wl.tail_q * len(lat)),
        "passes": len(passes),
        "timed_s_per_pass": timed / len(passes),
        "raw_s_per_pass": raw / len(passes),
        "host_scale": timed / raw if raw else 1.0,
        "pass_s": [round(p.timed_s, 4) for p in passes],
        "path_events": sum(events) / len(events) if events else 0.0,
        "digest": passes[0].digest,
    }


def _code_hash() -> str:
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "tubtilt"), BENCH_DIR):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def determinism_guard(key: str, record: dict) -> int:
    """1 if the exact counts differ from the last run of the same code,
    workload and seed, else 0.  Records are kept under .bench_work/."""
    from workloads import work_root

    path = os.path.join(work_root(), "determinism", f"{key}.json")
    record = json.loads(json.dumps({"code": _code_hash(), **record}))
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
        if previous.get("code") == record["code"]:
            return int(previous != record)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True)
    return 0


def run_untraced(wl, inputs, host, seconds, min_samples, guard_key):
    from workloads import Checker, CliWorkload

    setups = time_setups(wl, inputs, host)
    run = measure(wl, inputs, host, seconds, Checker(), min_samples)
    s = summarize(wl, run, setups)
    if guard_key:
        s["failed"] += determinism_guard(
            guard_key, {"digest": s["digest"], "path_events": s["path_events"]}
        )
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliWorkload) else resource.RUSAGE_SELF
    metrics = {
        "items_per_s": (s["items_per_s"], "1/s"),
        "item_p50_ms": (s["item_p50_ms"], "ms"),
        "item_tail_ms": (s["item_tail_ms"], "ms"),
        "path_events": (s["path_events"], "count"),
        "success_ratio": (max(0.0, 1 - s["failed"] / max(1, s["attempted"])), "ratio"),
        "setup_s": (s["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    return s, metrics


# Spans reported with their call count and inclusive time.
CALLS_AND_TIME = (
    "k0.enumerate_roots_at", "tubes.build_chart", "tubes.exc_from_class",
    "tilting.is_tilting", "tilting.purge_torsion", "connect.connect_shared",
    "connect.integerize", "connect.completion_containing",
)
# Spans reported with their inclusive time only.
TIME_ONLY = (
    "k0.build_context", "connect.verify_path", "connect.explore_graph",
    "connect.random_walk", "cli.info", "cli.walk", "cli.connect", "cli.check",
    "cli.chart", "cli.graph", "serialize.tilting_from_dict", "serialize.path_to_dict",
    "serialize.load_chart_cache", "serialize.save_chart_cache", "exprs.parse_expr",
)


def run_traced(wl, inputs, host, seconds, guard_key):
    """Pairs of an untraced and a traced pass, until the run length is
    reached.  Pairing puts both halves of the comparison in the same
    host-speed phase, and every time is at reference host speed, so the
    tracing overhead measures the tracer.

    Per-layer figures need no latency percentiles, so one pair may do.

    The `cli` workload is replayed in this process through
    `tubtilt.cli.run` in both passes of a pair, and one subprocess pass
    checks that the replay prints exactly what the processes print.
    """
    from tracing import Tracer
    from workloads import Checker, CliWorkload

    checker = Checker()
    in_process = isinstance(wl, CliWorkload)
    base = Passes(wl, checker)
    traced = None
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        base.add(one_pass(wl, inputs, host, in_process=in_process))
        if traced is None:
            traced = Passes(wl, checker, reference=base.reference)
        tracer.install()
        try:
            traced.add(one_pass(wl, inputs, host, tracer, in_process=in_process))
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        n = len(traced.passes)
        if elapsed * (n + 1) / n > seconds:
            break
    b, s = summarize(wl, base), summarize(wl, traced)
    s["failed"] += b["failed"]
    s["attempted"] += b["attempted"]
    if in_process:
        sub = one_pass(wl, inputs, host)
        s["failed"] += sub.failed + (sub.digest != base.reference)
        s["attempted"] += sub.attempted

    n = len(traced.passes)
    calls, total, self_t, counts = tracer.calls, tracer.total, tracer.self_time, tracer.counts
    distinct = tracer.distinct_per_pass
    s["failed"] += len(set(distinct)) != 1
    mutate_calls = calls["tilting.mutate"] / n
    m: dict[str, tuple[float, str]] = {}
    for name in CALLS_AND_TIME:
        m[f"{name}.calls"] = (calls[name] / n, "count")
        m[f"{name}.s"] = (total[name] / n, "s")
    for name in TIME_ONLY:
        m[f"{name}.s"] = (total[name] / n, "s")
    m["tubes.hom_dim.calls"] = (counts["tubes.hom_dim"] / n, "count")
    m["tubes.ext_dim.calls"] = (counts["tubes.ext_dim"] / n, "count")
    m["tilting.mutate.calls"] = (mutate_calls, "count")
    m["tilting.mutate.distinct"] = (distinct[0], "count")
    m["tilting.mutate.hit_ratio"] = (1 - distinct[0] / mutate_calls if mutate_calls else 0.0, "ratio")
    m["tilting.mutate.s"] = (total["tilting.mutate"] / n, "s")
    m["tilting.mutate.self_s"] = (self_t["tilting.mutate"] / n, "s")
    m["connect.connect_shared.mutate_calls"] = (
        counts["connect.connect_shared.mutate_calls"] / n, "count")
    m["connect.connect_to_canonical.self_s"] = (self_t["connect.connect_to_canonical"] / n, "s")
    # Accounting: time inside items covered by library spans, against the
    # untraced item time; their difference is bounded by the overhead.
    item_spans = ["bench.item"] + [f"cli.{c}" for c in ("info", "walk", "connect", "check", "chart", "graph")]
    items_s = sum(total[k] for k in item_spans) / n
    m["trace.items_s"] = (items_s, "s")
    m["trace.layer_self_s"] = (items_s - sum(self_t[k] for k in item_spans) / n, "s")
    m["trace.untraced_items_s"] = (b["timed_s_per_pass"], "s")
    s["untraced_items_per_s"] = b["items_per_s"]
    s["traced_items_per_s"] = s["items_per_s"]
    m["trace.overhead_items_per_s"] = (b["items_per_s"] - s["items_per_s"], "1/s")
    # The library's self times should account for the untraced item time
    # to within the tracing overhead.
    s["accounting"] = {
        "layer_self_minus_untraced_s": m["trace.layer_self_s"][0] - b["timed_s_per_pass"],
        "overhead_s": s["timed_s_per_pass"] - b["timed_s_per_pass"],
    }
    if guard_key:
        s["failed"] += determinism_guard(
            guard_key + "-trace",
            {"digest": s["digest"], "mutate_calls": mutate_calls, "distinct": distinct[0],
             "ext_dim_calls": m["tubes.ext_dim.calls"][0]},
        )
    return s, m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool", default=None,
                    help="key of the walk pools of connect-* and explore (held-out check: heldout)")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    args = ap.parse_args(argv)
    _import_library()
    from workloads import DEFAULT_POOL, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    pool = args.pool or DEFAULT_POOL
    inputs = json.loads(json.dumps(wl.generate(args.seed, pool, tiny=args.smoke)))
    min_samples = 1 if args.smoke else wl.min_samples
    guard_key = None if args.smoke else f"{wl.name}-{pool}-{args.seed}"
    if args.trace:
        summary, metrics = run_traced(wl, inputs, HostSpeed(), args.seconds, guard_key)
    else:
        summary, metrics = run_untraced(wl, inputs, HostSpeed(), args.seconds, min_samples, guard_key)
    print(json.dumps({"workload": wl.name, "seed": args.seed, "pool": pool, "trace": args.trace,
                      "inputs": inputs["record"], **summary}))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Median cost of the chart layer on each tubular type.

For each weight type this script times, in alternating runs:

* the anchor, the chart at slope 0: in closed form (`chart_for` on a
  context whose chart memo was cleared; the chart at infinity moved back
  by the two tubular shifts, which are built once beforehand) against
  the root classifier `build_chart(ctx, 0)`, the reference oracle;
* a moved chart: the anchor moved to one of a fixed set of slopes with
  denominators up to 64 (`tubes._move_chart`), median over the slopes;
* one decode: a window class read off a moved chart by its chi pattern
  (`tubes._find_window`), median over every window of every such chart.

Each run of a variant gives one median; the script prints the median of
those and their range.  The two anchor variants swap order from one run
to the next.  Times are wall times (`time.perf_counter`) of this one
process and depend on the host; compare them only within one output.

    PYTHONPATH=src python scripts/chart_costs.py --repeat 5
"""

import argparse
import random
import statistics
import time

from tubtilt import tubes
from tubtilt.k0 import build_context
from tubtilt.slopes import ZERO, Slope
from tubtilt.weights import TUBULAR_TYPES, make_weights


def slopes(count, seed):
    """`count` slopes with denominators 1..64 and numerators in [-3b, 3b]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        b = rng.randint(1, 64)
        q = Slope(rng.randint(-3 * b, 3 * b), b)
        if q.den == b and q != ZERO and q not in out:
            out.append(q)
    return out


def anchor_closed_form(ctx):
    ctx._charts.clear()
    start = time.perf_counter()
    tubes.chart_for(ctx, ZERO)
    return time.perf_counter() - start


def anchor_from_roots(ctx):
    start = time.perf_counter()
    tubes.build_chart(ctx, ZERO)
    return time.perf_counter() - start


def moved(ctx, anchor, qs):
    times = []
    for q in qs:
        start = time.perf_counter()
        tubes._move_chart(ctx, anchor, q)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def decode(ctx, charts):
    times = []
    for chart in charts:
        for *_, cls in chart.windows():
            start = time.perf_counter()
            tubes._find_window(ctx, chart, cls)
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def spread(values, scale, unit):
    lo, mid, hi = min(values), statistics.median(values), max(values)
    return f"{mid * scale:.3g} {unit} ({lo * scale:.3g}-{hi * scale:.3g})"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5, help="runs of each variant")
    ap.add_argument("--anchors", type=int, default=20, help="anchor builds per run")
    ap.add_argument("--slopes", type=int, default=60, help="slopes of the moved charts")
    ap.add_argument("--seed", type=int, default=29)
    args = ap.parse_args()
    qs = slopes(args.slopes, args.seed)
    print(f"median (range) over {args.repeat} runs; anchors: {args.anchors} builds "
          f"a run, moved and decode: {len(qs)} slopes")
    for ws in TUBULAR_TYPES:
        ctx = build_context(make_weights(ws))
        anchor = tubes.chart_for(ctx, ZERO)  # builds the shifts once
        charts = [tubes._move_chart(ctx, anchor, q) for q in qs]
        runs = {"closed": [], "roots": [], "moved": [], "decode": []}
        for r in range(args.repeat):
            order = ("closed", "roots") if r % 2 == 0 else ("roots", "closed")
            for name in order:
                build = anchor_closed_form if name == "closed" else anchor_from_roots
                runs[name].append(statistics.median(build(ctx) for _ in range(args.anchors)))
            runs["moved"].append(moved(ctx, anchor, qs))
            runs["decode"].append(decode(ctx, charts))
        print(
            f"{','.join(map(str, ws))}: anchor closed form {spread(runs['closed'], 1e3, 'ms')}, "
            f"from roots {spread(runs['roots'], 1e3, 'ms')}; "
            f"moved {spread(runs['moved'], 1e3, 'ms')}; "
            f"decode {spread(runs['decode'], 1e6, 'us')}"
        )


if __name__ == "__main__":
    main()

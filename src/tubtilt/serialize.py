"""JSON forms for classes, objects, tiltings, events, paths and charts.

Class vectors are authoritative everywhere: chart coordinates read from
a file are recomputed and compared, so a stale or tampered file fails
loudly instead of poisoning downstream computations.

The readers that build tilting objects, events and paths import
`tilting` and `connect` when they run, so that `tubtilt chart`, which
only writes a chart, loads neither.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any

from .errors import ChartInconsistent, ValidationError, WeightsMismatch
from .k0 import K0Class, K0Context, build_context
from .slopes import Slope
from .tubes import ExcObject, TubeChart, check_chart_invariants, exc_from_class
from .weights import WeightData, make_weights

if TYPE_CHECKING:
    from .connect import MutationPath
    from .tilting import MutationEvent, TiltingObject


def class_to_list(c: K0Class) -> list[int]:
    return list(c.vec)


def class_from_list(ctx: K0Context, data: Any) -> K0Class:
    if not isinstance(data, list) or len(data) != ctx.n:
        raise ValidationError(f"class vector must be a list of {ctx.n} integers")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in data):
        raise ValidationError("class vector entries must be integers")
    return K0Class(tuple(data))


def exc_to_dict(x: ExcObject) -> dict:
    return {
        "class": class_to_list(x.cls),
        "slope": str(x.slope),
        "orbit": x.orbit,
        "socle": x.socle,
        "len": x.len,
    }


def exc_from_dict(ctx: K0Context, data: Any) -> ExcObject:
    if not isinstance(data, dict) or "class" not in data:
        raise ValidationError("object record must be a dict with a 'class' field")
    cls = class_from_list(ctx, data["class"])
    obj = exc_from_class(ctx, cls)
    for field, value in (
        ("slope", str(obj.slope)),
        ("orbit", obj.orbit),
        ("socle", obj.socle),
        ("len", obj.len),
    ):
        # the type too: JSON 1.0 and false would compare equal to 1 and 0
        if field in data and (type(data[field]) is not type(value) or data[field] != value):
            raise ValidationError(
                f"stored {field}={data[field]!r} disagrees with recomputed {value!r}"
            )
    return obj


def tilting_to_dict(ctx: K0Context, t: TiltingObject) -> dict:
    return {
        "weights": list(ctx.weights.weights),
        "summands": [exc_to_dict(s) for s in t.summands],
    }


def summands_from_dict(
    data: Any, ctx: K0Context | None = None
) -> tuple[K0Context, list[ExcObject]]:
    """The context and the decoded summands of a tilting record, with no
    verdict on whether they form a tilting object."""
    if not isinstance(data, dict) or "weights" not in data or "summands" not in data:
        raise ValidationError("tilting record needs 'weights' and 'summands'")
    w = make_weights(data["weights"])
    if ctx is None:
        ctx = build_context(w)
    elif ctx.weights != w:
        raise WeightsMismatch(
            f"file weights {w.weights} do not match the active context "
            f"{ctx.weights.weights}"
        )
    if not isinstance(data["summands"], list):
        raise ValidationError("'summands' must be a list of object records")
    return ctx, [exc_from_dict(ctx, s) for s in data["summands"]]


def tilting_from_dict(data: Any, ctx: K0Context | None = None) -> tuple[K0Context, TiltingObject]:
    """Load boundary for tilting objects: a record whose summands are not
    tilting raises ValidationError, so every TiltingObject in the library
    is tilting and `mutate` need not re-check it."""
    from .tilting import is_tilting, make_tilting

    ctx, summands = summands_from_dict(data, ctx)
    t = make_tilting(ctx, summands)
    if not is_tilting(ctx, t):
        raise ValidationError("the record is not a tilting object")
    return ctx, t


def event_to_dict(ev: MutationEvent) -> dict:
    return {
        "k": ev.index,
        "removed": class_to_list(ev.removed.cls),
        "added": class_to_list(ev.added.cls),
        "dir": ev.direction,
    }


def event_from_dict(ctx: K0Context, data: Any) -> MutationEvent:
    from .tilting import MutationEvent

    if not isinstance(data, dict) or not {"k", "removed", "added", "dir"} <= data.keys():
        raise ValidationError("event record needs 'k', 'removed', 'added' and 'dir'")
    if not isinstance(data["k"], int) or isinstance(data["k"], bool):
        raise ValidationError("event index 'k' must be an integer")
    removed = exc_from_class(ctx, class_from_list(ctx, data["removed"]))
    added = exc_from_class(ctx, class_from_list(ctx, data["added"]))
    if data.get("dir") not in ("L", "R"):
        raise ValidationError("event direction must be 'L' or 'R'")
    return MutationEvent(
        index=data["k"],
        removed=removed,
        added=added,
        direction=data["dir"],
    )


def path_to_dict(ctx: K0Context, path: MutationPath) -> dict:
    return {
        "nodes": [tilting_to_dict(ctx, t) for t in path.nodes],
        "events": [event_to_dict(ev) for ev in path.events],
        "bundleOnly": path.bundle_only,
    }


def path_from_dict(ctx: K0Context, data: Any) -> MutationPath:
    """Load boundary for paths: the nodes are read structurally and the
    whole path, every node tilting and every event matching its nodes,
    is checked once by `verify_path`; a path that fails, or whose
    `bundleOnly`, if present, is not a JSON boolean or disagrees with its
    nodes, raises ValidationError."""
    from .connect import MutationPath, verify_path
    from .tilting import make_tilting

    if not isinstance(data, dict) or not isinstance(data.get("nodes"), list):
        raise ValidationError("path record needs 'nodes', a list of tilting records")
    if not isinstance(data.get("events", []), list):
        raise ValidationError("'events' must be a list of event records")
    if not isinstance(data.get("bundleOnly", False), bool):
        raise ValidationError("'bundleOnly' must be a JSON boolean")
    nodes = [make_tilting(ctx, summands_from_dict(d, ctx)[1]) for d in data["nodes"]]
    events = [event_from_dict(ctx, d) for d in data.get("events", [])]
    path = MutationPath(nodes, events)
    if not verify_path(ctx, path):
        raise ValidationError("the record is not a verified mutation path")
    if data.get("bundleOnly", path.bundle_only) != path.bundle_only:
        raise ValidationError("the record's bundleOnly disagrees with its nodes")
    return path


def dumps(data: Any) -> str:
    """Canonical JSON: sorted keys, no stray whitespace differences."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# -- chart cache ---------------------------------------------------------------


def chart_to_dict(ctx: K0Context, chart: TubeChart) -> dict:
    return {
        "weights": list(ctx.weights.weights),
        "slope": str(chart.slope),
        "orbits": [[class_to_list(c) for c in orbit] for orbit in chart.orbits],
    }


def chart_from_dict(ctx: K0Context, data: Any) -> TubeChart:
    if not isinstance(data, dict) or "orbits" not in data:
        raise ValidationError("chart record needs 'orbits'")
    if tuple(data.get("weights", ())) != ctx.weights.weights:
        raise ValidationError("chart weights do not match the context")
    slope = Slope.parse(str(data["slope"]))
    orbits = tuple(
        tuple(class_from_list(ctx, c) for c in orbit) for orbit in data["orbits"]
    )
    chart = TubeChart(slope, orbits)
    check_chart_invariants(ctx, chart)
    return chart


def _chart_filename(w: WeightData, q: Slope) -> str:
    ws = "-".join(str(p) for p in w.weights)
    qs = str(q).replace("/", "_").replace("-", "m")
    return f"chart_{ws}_q{qs}.json"


def load_chart_cache(ctx: K0Context, directory: str) -> int:
    """Populate the chart memo from disk; invalid entries are skipped."""
    loaded = 0
    if not os.path.isdir(directory):
        return 0
    prefix = f"chart_{'-'.join(str(p) for p in ctx.weights.weights)}_q"
    for name in sorted(os.listdir(directory)):
        if not (name.startswith(prefix) and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
                chart = chart_from_dict(ctx, json.load(fh))
        except (OSError, ValueError, ValidationError, ChartInconsistent):
            continue
        ctx._charts.setdefault(chart.slope, chart)
        loaded += 1
    return loaded


def save_chart_cache(ctx: K0Context, directory: str) -> int:
    """Persist every chart currently memoized on the context."""
    os.makedirs(directory, exist_ok=True)
    written = 0
    for q, chart in sorted(ctx._charts.items(), key=lambda kv: str(kv[0])):
        path = os.path.join(directory, _chart_filename(ctx.weights, q))
        if os.path.exists(path):
            continue
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(chart_to_dict(ctx, chart)))  # type: ignore[arg-type]
        written += 1
    return written

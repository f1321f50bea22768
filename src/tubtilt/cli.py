"""Command-line front end.

Tilting objects are passed either as JSON files or as expressions of
the object language (`Tcan`, `Tcan(x1+c)`, `mu(Tcan, 0)`, ...);
anything that names an existing file is read as JSON.  Output is
canonical JSON on stdout, diagnostics go to stderr as JSON, and exit
codes are 0 (success), 1 (verification or domain failure), 2 (usage).

Each command imports the library modules it runs when it runs: `info`
builds a context and loads neither `tubes` nor `tilting`, only the
commands that search load `connect`, and only `verify` loads `verify`.
`exprs` stays a module-level import, because perfbench's tracer reads
`tubtilt.exprs` from `sys.modules` right after importing this module.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import TYPE_CHECKING, Sequence

from .errors import (
    ExprSyntaxError,
    NonTubularWeights,
    TubTiltError,
    ValidationError,
    WeightsMismatch,
)
from .exprs import eval_object, eval_tilting, parse_expr
from .k0 import K0Context, build_context
from .slopes import Slope, ascii_int
from .weights import make_weights

if TYPE_CHECKING:
    from .tilting import TiltingObject

# The names of verify.SUITE_ORDER, the eleven acceptance criteria of
# tests/test_acceptance.py in order, kept here so that only the verify
# command imports `verify`.
SUITE_NAMES = (
    "structure",
    "charts",
    "canonical",
    "mutation",
    "slopes",
    "wings",
    "purge",
    "abcd",
    "connect",
    "complements",
    "cli",
)


# Options whose value may be a negative slope, and the start of such a value.
_SLOPE_OPTIONS = ("--slope", "--slope-window")
_NEGATIVE = re.compile("-[0-9]")


class UsageError(TubTiltError):
    """Malformed command line."""


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that they leave a JSON diagnostic and exit 2."""

    def error(self, message: str):
        raise UsageError(message)


def _arg_type(parse):
    """An argparse type whose ValueError message becomes the usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc

    return convert


def _weight_list(text: str) -> tuple[int, ...]:
    return tuple(ascii_int(x) for x in text.split(","))


def _at_least(low: int):
    def parse(text: str) -> int:
        value = ascii_int(text)
        if value < low:
            raise ValueError(f"must be at least {low}")
        return value

    return _arg_type(parse)


def _slope_window(text: str) -> tuple[Slope, Slope]:
    if ".." not in text:
        raise ValueError("slope window must look like LO..HI")
    lo, hi = (Slope.parse(x) for x in text.split("..", 1))
    if lo > hi:
        raise ValueError("empty slope window: LO exceeds HI")
    return lo, hi


def _join_negative_slopes(argv: Sequence[str]) -> list[str]:
    """argv with `--slope -1/2` written as `--slope=-1/2`, and likewise
    `--slope-window -1..1`.  argparse reads a separate value that starts
    with "-" as an option unless it looks like a negative number, which
    -1/2 and -1..1 do not.  Only a value of "-" and a digit is joined, so
    a missing value (`--slope` last or before another option) is still a
    usage error."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SLOPE_OPTIONS and _NEGATIVE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tubtilt",
        description="Exact tilting-mutation engine for tubular weighted projective lines",
    )
    parser.add_argument(
        "--weights",
        type=_arg_type(_weight_list),
        help="comma-separated weight sequence, e.g. 2,2,2,2 (defaults to the "
        "weights stored in an input file when one is given)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print context, basis order and Euler matrix")

    p = sub.add_parser("check", help="validate a tilting object")
    p.add_argument("tilting", help="JSON file or expression")

    p = sub.add_parser("mutate", help="mutate a tilting object at one summand")
    p.add_argument("tilting", help="JSON file or expression")
    p.add_argument("--at", required=True, help="summand index or object expression")

    p = sub.add_parser("walk", help="random mutation walk from the canonical bundle")
    p.add_argument("--steps", type=_at_least(0), required=True)
    p.add_argument("--seed", type=_arg_type(ascii_int), default=0)
    p.add_argument("--bundle-only", action="store_true")

    p = sub.add_parser("connect", help="mutation path to another tilting bundle")
    p.add_argument("tilting", help="JSON file or expression")
    p.add_argument("--to", default="canonical", help="'canonical', a file, or an expression")
    # unset: the node cap of SearchBudget(), read when the command runs
    p.add_argument("--max-nodes", type=_at_least(1), default=None)

    p = sub.add_parser("purge", help="mutate away all torsion summands")
    p.add_argument("tilting", help="JSON file or expression")

    p = sub.add_parser("chart", help="print the tube chart at a slope")
    p.add_argument(
        "--slope",
        type=_arg_type(Slope.parse),
        required=True,
        help="slope literal: inf, m, or a/b",
    )

    p = sub.add_parser("graph", help="explore a neighborhood and export DOT")
    p.add_argument(
        "--slope-window",
        type=_arg_type(_slope_window),
        required=True,
        help="LO..HI slope window",
    )
    p.add_argument("--max-nodes", type=_at_least(1), required=True)
    p.add_argument("--dot", required=True, help="output DOT file")
    p.add_argument("--from", dest="start", default="Tcan", help="start tilting")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    p.add_argument(
        "--trials",
        type=_at_least(1),
        default=None,
        help="sample count of structure, mutation, slopes, wings, purge, connect "
        "and cli; largest denominator of abcd, never below 100; charts, canonical "
        "and complements ignore it",
    )
    p.add_argument(
        "--seed",
        type=_arg_type(ascii_int),
        default=None,
        help="seed of structure, mutation, slopes, wings, purge, connect and cli; "
        "charts, canonical, complements and abcd ignore it",
    )

    return parser


def _context(args) -> K0Context:
    if args.weights is None:
        raise ValidationError("--weights is required for this command")
    return build_context(make_weights(args.weights))


def _load_tilting(
    args, spec: str, require_tilting: bool = True, ctx: K0Context | None = None
) -> tuple[K0Context, TiltingObject]:
    """A JSON file when `spec` names one, otherwise an expression (tilting
    by construction).  A file that does not hold a tilting object is
    rejected by `serialize.tilting_from_dict` unless `require_tilting` is
    off.  `ctx`, the context of a tilting read before, is the one a second
    tilting is read in; a file with other weights is then rejected.  A
    file that is not readable JSON raises ValidationError naming it; any
    other error decoding a file is re-raised as its own class with the
    file name in front of its message.  A `spec` that names no file and
    does not parse either raises ExprSyntaxError naming it and saying that
    no such file exists, before --weights is asked for."""
    shared = ctx is not None
    if os.path.exists(spec):
        from . import serialize
        from .tilting import make_tilting

        try:
            with open(spec, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ValidationError(f"{spec}: not a readable JSON file: {exc}") from None
        if not shared and args.weights is not None:
            ctx = build_context(make_weights(args.weights))
        try:
            if require_tilting:
                ctx, t = serialize.tilting_from_dict(data, ctx)
            else:
                ctx, objs = serialize.summands_from_dict(data, ctx)
                t = make_tilting(ctx, objs)
        except TubTiltError as exc:
            if shared and isinstance(exc, WeightsMismatch):
                raise ValidationError(
                    f"both tiltings must share the weight sequence: {exc}"
                ) from None
            raise type(exc)(f"{spec}: {exc}") from None
        return ctx, t
    try:
        expr = parse_expr(spec)
    except ExprSyntaxError as exc:
        raise ExprSyntaxError(
            f"{spec}: no such file, and not an expression: {exc.message}",
            exc.line,
            exc.column,
        ) from None
    if not shared:
        ctx = _context(args)
    return ctx, eval_tilting(ctx, expr)


def export_dot(ctx: K0Context, nodes, edges) -> str:
    """Deterministic DOT text; node labels are sorted slope multisets."""
    lines = ["graph tilting {"]
    for i, t in enumerate(nodes):
        label = ",".join(str(s.slope) for s in t.summands)
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in edges:
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_info(args) -> int:
    ctx = _context(args)
    w = ctx.weights
    print(f"weights: {','.join(str(p) for p in w.weights)}")
    print(f"p: {w.p}")
    print(f"n: {w.n}")
    print(f"genus: {w.genus}")
    print(f"basis: {' '.join(ctx.basis_labels)}")
    print("euler:")
    for row in ctx.euler:
        print("  " + " ".join(f"{v:3d}" for v in row))
    return 0


def _cmd_check(args) -> int:
    from . import serialize
    from .tilting import is_tilting

    ctx, t = _load_tilting(args, args.tilting, require_tilting=False)
    ok = is_tilting(ctx, t)
    print(serialize.dumps({"tilting": ok, "summands": len(t.summands)}))
    return 0 if ok else 1


def _cmd_mutate(args) -> int:
    from . import serialize
    from .tilting import mutate

    ctx, t = _load_tilting(args, args.tilting)
    try:
        k = ascii_int(args.at)
    except ValueError:
        obj = eval_object(ctx, parse_expr(args.at))
        try:
            k = t.index_of(obj)
        except ValueError:
            raise ValidationError(
                f"--at {args.at}: the object of class {list(obj.cls.vec)} "
                "is not a summand"
            ) from None
    if not 0 <= k < ctx.n:
        raise ValidationError(f"index {k} out of range 0..{ctx.n - 1}")
    t2, ev = mutate(ctx, t, k)
    print(
        serialize.dumps(
            {
                "tilting": serialize.tilting_to_dict(ctx, t2),
                "event": serialize.event_to_dict(ev),
            }
        )
    )
    return 0


def _cmd_walk(args) -> int:
    from . import serialize
    from .connect import random_walk

    ctx = _context(args)
    path = random_walk(ctx, args.steps, args.seed, args.bundle_only)
    print(serialize.dumps(serialize.path_to_dict(ctx, path)))
    return 0


def _cmd_connect(args) -> int:
    from . import serialize
    from .connect import SearchBudget, connect_pair, connect_to_canonical

    ctx, t = _load_tilting(args, args.tilting)
    budget = SearchBudget()
    if args.max_nodes is not None:
        budget = SearchBudget(max_nodes=args.max_nodes)
    if args.to == "canonical":
        path = connect_to_canonical(ctx, t, budget)
    else:
        _, t2 = _load_tilting(args, args.to, ctx=ctx)
        path = connect_pair(ctx, t, t2, budget)
    print(serialize.dumps(serialize.path_to_dict(ctx, path)))
    return 0


def _cmd_purge(args) -> int:
    from . import serialize
    from .tilting import purge_torsion

    ctx, t = _load_tilting(args, args.tilting)
    t2, events = purge_torsion(ctx, t)
    print(
        serialize.dumps(
            {
                "tilting": serialize.tilting_to_dict(ctx, t2),
                "events": [serialize.event_to_dict(ev) for ev in events],
            }
        )
    )
    return 0


def _cmd_chart(args) -> int:
    from . import serialize
    from .tubes import chart_for

    ctx = _context(args)
    chart = chart_for(ctx, args.slope)
    print(serialize.dumps(serialize.chart_to_dict(ctx, chart)))
    return 0


def _cmd_graph(args) -> int:
    from . import serialize
    from .connect import explore_graph

    ctx, start = _load_tilting(args, args.start)
    lo, hi = args.slope_window
    nodes, edges = explore_graph(ctx, start, lo, hi, args.max_nodes)
    try:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(ctx, nodes, edges))
    except OSError as exc:
        raise UsageError(f"--dot {args.dot}: cannot write: {exc.strerror}") from None
    print(serialize.dumps({"nodes": len(nodes), "edges": len(edges), "dot": args.dot}))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    return 0 if run_suite(args.suite, args.trials, args.seed) else 1


_COMMANDS = {
    "info": _cmd_info,
    "check": _cmd_check,
    "mutate": _cmd_mutate,
    "walk": _cmd_walk,
    "connect": _cmd_connect,
    "purge": _cmd_purge,
    "chart": _cmd_chart,
    "graph": _cmd_graph,
    "verify": _cmd_verify,
}


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_slopes(argv))
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    except TubTiltError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2 if isinstance(exc, (UsageError, NonTubularWeights)) else 1


def main() -> None:
    """The console script: `run`, then exit with its code.  A stdout
    closed before the output is written (`tubtilt ... | head -c 80`) is
    exit 1 with one JSON diagnostic on stderr, not a traceback."""
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The idiom of the Python `signal` docs: stdout goes to devnull, so
        # that the flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(
            json.dumps({"error": "BrokenPipeError", "message": "stdout was closed early"}),
            file=sys.stderr,
        )
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()

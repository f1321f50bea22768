"""Per-layer spans and counters, installed from outside the library.

The tracer wraps public functions of the tubtilt modules and rebinds the
wrapper in every tubtilt module that imported the original name (for
example `mutate` is bound in `tilting`, `connect`, `exprs`, `cli` and
`verify`), so a call made through any of them lands in its span.  No
file under `src/` is changed; `uninstall` restores every binding.

A span records calls, inclusive time (outermost activation only, so
recursion is not counted twice) and self time (inclusive time minus the
time covered by child spans).  Functions called millions of times per
run (`hom_dim`, `ext_dim`) get a bare call counter instead, because a
timed span would cost more than the work it measures.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) pairs wrapped in a timed span.
SPANS = [
    ("k0", "build_context"),
    ("k0", "enumerate_roots_at"),
    ("tubes", "build_chart"),
    ("tubes", "exc_from_class"),
    ("tilting", "mutate"),
    ("tilting", "is_tilting"),
    ("tilting", "purge_torsion"),
    ("connect", "connect_shared"),
    ("connect", "integerize"),
    ("connect", "completion_containing"),
    ("connect", "verify_path"),
    ("connect", "connect_to_canonical"),
    ("connect", "explore_graph"),
    ("connect", "random_walk"),
    ("serialize", "tilting_from_dict"),
    ("serialize", "path_to_dict"),
    ("serialize", "load_chart_cache"),
    ("serialize", "save_chart_cache"),
    ("exprs", "parse_expr"),
]

# (module, function) pairs that only count calls.
COUNTERS = [
    ("tubes", "hom_dim"),
    ("tubes", "ext_dim"),
]


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        # Times of all closed passes, at reference host speed.
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        # Raw times of the open pass.
        self._total: dict[str, float] = defaultdict(float)
        self._self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.mutate_keys: set = set()
        self.distinct_per_pass: list[int] = []
        self._stack: list[list[float]] = []  # child time per open span
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Span around a block of benchmark code (items, CLI commands)."""
        self._enter(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, time.perf_counter() - t0)

    def _enter(self, name: str) -> None:
        self.calls[name] += 1
        self._active[name] += 1
        self._stack.append([0.0])

    def _exit(self, name: str, dt: float) -> None:
        child = self._stack.pop()[0]
        self._active[name] -= 1
        if self._stack:
            self._stack[-1][0] += dt
        self._self[name] += dt - child
        if not self._active[name]:
            self._total[name] += dt

    def _span_wrapper(self, name: str, fn):
        enter, exit_, clock = self._enter, self._exit, time.perf_counter

        def wrapper(*args, **kwargs):
            enter(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name, clock() - t0)

        return wrapper

    def _mutate_wrapper(self, name: str, fn):
        timed = self._span_wrapper(name, fn)
        keys, counts, active = self.mutate_keys, self.counts, self._active

        def wrapper(ctx, t, k):
            keys.add((ctx, t.class_key(), k))
            if active["connect.connect_shared"]:
                counts["connect.connect_shared.mutate_calls"] += 1
            return timed(ctx, t, k)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def end_pass(self, scale: float) -> None:
        """Close a pass.  Its span times are brought to reference host
        speed with `scale`, the factor its item times got.  Distinct
        mutations are counted per pass, keyed by context, so a key
        repeated on another context counts again.  The keys hold their
        contexts until here, so no context id is reused."""
        for raw, run in ((self._total, self.total), (self._self, self.self_time)):
            for name, t in raw.items():
                run[name] += t * scale
            raw.clear()
        self.distinct_per_pass.append(len(self.mutate_keys))
        self.mutate_keys.clear()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import tubtilt  # noqa: F401  (loads every submodule)
        import tubtilt.cli  # noqa: F401
        import tubtilt.serialize  # noqa: F401

        plan = [(m, f, self._span_wrapper) for m, f in SPANS]
        plan += [(m, f, self._count_wrapper) for m, f in COUNTERS]
        for mod_name, fn_name, factory in plan:
            module = sys.modules[f"tubtilt.{mod_name}"]
            orig = getattr(module, fn_name)
            name = f"{mod_name}.{fn_name}"
            if fn_name == "mutate":
                factory = self._mutate_wrapper
            self._rebind(orig, factory(name, orig))

    def _rebind(self, orig, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.split(".")[0] == "tubtilt":
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

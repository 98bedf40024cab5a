"""Outside-in timing shims and the per-layer ledger of a traced run.

The traced run wraps the public entry points of each layer with a timing
shim.  Every shim call is a span; spans nest per thread, and a layer's
self time is its spans' duration minus the child spans inside them.  The
ledger adds the layers' self times and an explicit unattributed residual,
which together equal the traced wall time of the run's lanes (the threads
that do the workload's work).

The shims are installed only in traced runs and removed afterwards; an
untraced run never imports this module.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

from repro.obs.tracer import Tracer

#: (module, owner attribute or None for a module function, attribute, layer)
SHIM_TARGETS = (
    ("repro.core.constructor", "Gensor", "compile", "walk"),
    ("repro.core.graph", "ConstructionGraph", "expand", "expand"),
    ("repro.perf.soa", "SoAWalkEngine", "expand", "expand"),
    ("repro.core.constructor", "Gensor", "polish", "polish"),
    ("repro.perf.soa", "SoAWalkEngine", "polish", "polish"),
    ("repro.perf.memo", "MetricsMemo", "evaluate", "price"),
    ("repro.perf.memo", "MetricsMemo", "evaluate_batch", "price"),
    ("repro.perf.memo", "MetricsMemo", "latency", "price"),
    ("repro.perf.memo", "MetricsMemo", "latency_batch", "price"),
    ("repro.sim.measure", "Measurer", "measure", "measure"),
    ("repro.codegen.lower", None, "lower_etir", "codegen"),
    ("repro.codegen.cuda", None, "emit_cuda", "codegen"),
    ("repro.models.program", None, "plan_fusion", "fusion"),
    ("repro.serve.program", None, "plan_fusion", "fusion"),
    ("repro.core.dynamic", "DynamicGensor", "compile", "tiers"),
    ("repro.core.cache", "ScheduleCache", "get", "cache"),
    ("repro.core.cache", "ScheduleCache", "nearest", "cache"),
    ("repro.core.cache", "ScheduleCache", "put", "cache"),
    ("repro.resilience.checkpoint", "Checkpointer", "on_step", "ckpt"),
    ("repro.serve.service", "CompileService", "submit", "serve"),
    ("repro.fleet.dispatcher", "FleetDispatcher", "submit", "fleet"),
    ("repro.fleet.routing", "FamilyRouter", "route", "fleet"),
)

LAYERS = tuple(dict.fromkeys(t[3] for t in SHIM_TARGETS))


class _Span:
    __slots__ = ("layer", "child")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child = 0.0


class _ThreadBook:
    """One thread's span statistics (merged after the run)."""

    def __init__(self) -> None:
        self.stack: list[_Span] = []
        #: span name -> [calls, entries, total_s, self_s]; an *entry* is a
        #: call not nested inside a span of the same layer.
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0, 0.0, 0.0])
        #: sum of top-level span durations (time covered by any span).
        self.covered = 0.0


class Ledger:
    """Installs the shims and aggregates their spans.

    ``close`` ends the window: from then on the ledger reports the spans and
    registry counter deltas as they stood at that moment, so work done
    after the window (checks, overhead samples) never reaches its numbers.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._books: list[_ThreadBook] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._counters_before: dict[str, float] | None = None
        #: registry counter deltas over the window (set by ``close``).
        self.counters: dict[str, float] = {}
        self._closed: tuple[dict, float] | None = None  # (spans, covered)

    # -- shims -------------------------------------------------------------------

    def _book(self) -> _ThreadBook:
        book = getattr(self._local, "book", None)
        if book is None:
            book = self._local.book = _ThreadBook()
            with self._lock:
                self._books.append(book)
        return book

    def wrap(self, fn, name: str, layer: str):
        """``fn`` timed as a span called ``name`` of ``layer``."""
        clock = time.perf_counter
        ledger = self

        def shim(*args, **kwargs):
            book = ledger._book()
            stack = book.stack
            nested = bool(stack) and stack[-1].layer == layer
            span = _Span(layer)
            stack.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1].child += dur
                else:
                    book.covered += dur
                rec = book.spans[name]
                rec[0] += 1
                rec[1] += 0 if nested else 1
                rec[2] += dur
                rec[3] += dur - span.child

        shim.__wrapped__ = fn
        return shim

    def install(self) -> "Ledger":
        if self._counters_before is None:
            self._counters_before = registry_counters()
        for module_name, owner_name, attr, layer in SHIM_TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = owner.__dict__[attr] if owner_name else getattr(owner, attr)
            name = f"{owner_name or module_name.rsplit('.', 1)[1]}.{attr}"
            setattr(owner, attr, self.wrap(original, name, layer))
            self._patches.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------------

    def spans(self) -> dict[str, list]:
        """Span name -> [calls, entries, total_s, self_s] over all threads."""
        if self._closed is not None:
            return self._closed[0]
        out: dict[str, list] = defaultdict(lambda: [0, 0, 0.0, 0.0])
        with self._lock:
            books = list(self._books)
        for book in books:
            for name, rec in book.spans.items():
                agg = out[name]
                for i in range(4):
                    agg[i] += rec[i]
        return dict(out)

    def stat(self, name: str, index: int) -> float:
        return self.spans().get(name, [0, 0, 0.0, 0.0])[index]

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        layer_of = {f"{o or m.rsplit('.', 1)[1]}.{a}": layer
                    for m, o, a, layer in SHIM_TARGETS}
        for name, rec in self.spans().items():
            out[layer_of[name]] += rec[3]
        return out

    def covered(self) -> float:
        if self._closed is not None:
            return self._closed[1]
        with self._lock:
            return sum(book.covered for book in self._books)

    def span_count(self) -> int:
        return sum(rec[0] for rec in self.spans().values())

    def close(self, wall_s: float, lanes: int, extra: dict[str, float] | None = None) -> dict:
        """The ledger: layer self times + ``extra`` rows + residual = wall x lanes.

        ``closes`` states that the self times telescope to the time the
        spans cover (the nesting bookkeeping lost nothing) and that the
        residual is not negative.
        """
        self._closed = (self.spans(), self.covered())
        after = registry_counters()
        before = self._counters_before or {}
        self.counters = {name: after[name] - before.get(name, 0.0) for name in after}
        rows = self.layer_self()
        rows.update(extra or {})
        total = wall_s * lanes
        attributed = sum(rows.values())
        residual = total - attributed
        self_sum = sum(self.layer_self().values())
        covered = self.covered()
        closes = (
            abs(self_sum - covered) <= 1e-6 * max(covered, 1e-9) + 1e-9
            and residual >= -1e-6 * total
        )
        return {
            "wall_s": wall_s,
            "lanes": lanes,
            "total_s": total,
            "rows": rows,
            "residual_s": residual,
            "residual_share": residual / total if total > 0 else 0.0,
            "closes": closes,
        }


def shim_cost_s(samples: int = 20000) -> float:
    """Calibrated cost of one shimmed call over a plain call."""
    ledger = Ledger()

    def noop() -> None:
        return None

    shim = ledger.wrap(noop, "calibrate", "calibrate")
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        shim()
    shimmed = time.perf_counter() - t0
    return max(0.0, (shimmed - plain) / samples)


class PolishTracer(Tracer):
    """Program-event sink that sums the steps of ``polish`` events.

    Once a tracer is on, the walk emits one event per step; keeping them
    would grow a traced run's memory with its length, so this keeps a sum.
    """

    def __init__(self) -> None:
        self.polish_steps = 0
        self._lock = threading.Lock()

    def emit(self, name, args=None, dur: float = 0.0, tid: int = 0) -> None:
        if name == "polish":
            with self._lock:
                self.polish_steps += (args or {}).get("steps", 0)


_COUNTERS = (
    "perf_memo_hits_total",
    "perf_memo_misses_total",
    "perf_memo_evictions_total",
    "resilience_checkpoints_total",
    "resilience_retries_total",
)


def registry_counters() -> dict[str, float]:
    """Process-wide registry totals the layer metrics are differenced from."""
    from repro.obs.metrics import get_registry

    registry = get_registry()
    return {name: registry.total(name) for name in _COUNTERS}


def trace_layers(ledger: Ledger, tracer: PolishTracer, outcome) -> dict:
    """Per-layer metrics every workload reports (workloads add their own).

    Read after ``ledger.close``: spans and counters cover the window only.
    """
    spans = ledger.spans()

    def sum_of(index: int, *names: str) -> float:
        return sum(spans.get(n, [0, 0, 0.0, 0.0])[index] for n in names)

    expand = ("ConstructionGraph.expand", "SoAWalkEngine.expand")
    polish = ("Gensor.polish", "SoAWalkEngine.polish")
    price = ("MetricsMemo.evaluate", "MetricsMemo.evaluate_batch",
             "MetricsMemo.latency", "MetricsMemo.latency_batch")
    delta = ledger.counters
    hits, misses = delta["perf_memo_hits_total"], delta["perf_memo_misses_total"]
    states = outcome.walk_states
    compile_total = sum_of(2, "Gensor.compile")
    return {
        "walk.steps": outcome.walk_steps,
        "walk.states": states,
        "walk.s": sum_of(3, "Gensor.compile", *expand),
        "walk.states_per_s": states / compile_total if compile_total else 0.0,
        "expand.calls": sum_of(1, *expand),
        "expand.s": sum_of(3, *expand),
        "polish.calls": sum_of(1, *polish),
        "polish.steps": tracer.polish_steps,
        "polish.s": sum_of(3, *polish),
        "price.calls": sum_of(1, *price),
        "price.s": sum_of(3, *price),
        "memo.hits": hits,
        "memo.misses": misses,
        "memo.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "memo.evictions": delta["perf_memo_evictions_total"],
        "measure.calls": sum_of(0, "Measurer.measure"),
        "measure.s": sum_of(3, "Measurer.measure"),
        "codegen.s": sum_of(3, "lower.lower_etir", "cuda.emit_cuda"),
        "fusion.plan_s": sum_of(2, "program.plan_fusion"),
        "cache.get_s": sum_of(2, "ScheduleCache.get"),
        "cache.nearest_s": sum_of(2, "ScheduleCache.nearest"),
        "cache.put_s": sum_of(2, "ScheduleCache.put"),
        "ckpt.taken": delta["resilience_checkpoints_total"],
        "ckpt.s": sum_of(2, "Checkpointer.on_step"),
        "retry.count": delta["resilience_retries_total"],
        "fleet.route_s": sum_of(2, "FamilyRouter.route"),
        "ledger.residual_share": outcome.ledger["residual_share"],
    }

"""Process-wide memo over analytical cost-model evaluations.

The reproduction prices every Markov step, polish sweep, shortlist
ranking, measurement truth, and degraded-tier fallback through
:class:`~repro.sim.costmodel.CostModel.evaluate` — historically via five
private ``CostModel`` instances plus an unbounded per-``Gensor`` latency
dict.  The same ``(hardware, state)`` pair is priced many times across
those call sites, and a long-lived :class:`~repro.serve.service.CompileService`
leaks one dict entry per distinct state forever.

:class:`MetricsMemo` replaces all of that with one bounded, thread-safe
LRU keyed by ``(hardware, operator shape, state)`` — specs are interned by
identity (and retained), states hash through their cached key hash, and
distinct ``generic_gpu(...)`` variants that share a name still get
distinct slots.  The shape term matters because a state's key names its
operator but not its extents: model factories name ops by role (BERT's
``x_proj`` at every batch size), so two shapes can share a state key.
Memoization returns the *exact same float
objects* the model produced, so routing a call site through the memo can
never perturb the annealed walk's RNG stream: it is golden-trace safe by
construction.

Hit/miss/eviction totals are mirrored onto the
:class:`~repro.obs.metrics.MetricsRegistry` (``perf_memo_*`` series) so
the serving layer's dashboards see cache health; per-instance integer
counters back :meth:`MetricsMemo.stats` for tests and the bench.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.hardware.spec import HardwareSpec
from repro.ir.compute import ComputeDef
from repro.ir.etir import ETIR
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.sim.costmodel import CostModel
from repro.sim.metrics import KernelMetrics

__all__ = ["MetricsMemo", "get_memo", "reset_memo", "DEFAULT_MEMO_CAPACITY"]

#: ~65k entries; a KernelMetrics plus key is a few hundred bytes, so the
#: steady-state memo stays in the tens of MB even under serving load.
DEFAULT_MEMO_CAPACITY = 1 << 16


def _shape_key(compute: ComputeDef) -> str:
    """The compute's shape fingerprint (built once per ``ComputeDef``)."""
    from repro.core.cache import shape_fingerprint

    return shape_fingerprint(compute)


class MetricsMemo:
    """Bounded, thread-safe LRU of :class:`KernelMetrics` by (hardware, state),
    holding at most ``capacity`` (>= 1) entries."""

    def __init__(
        self,
        capacity: int = DEFAULT_MEMO_CAPACITY,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._registry = registry if registry is not None else get_registry()
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, KernelMetrics] = OrderedDict()
        # Specs are interned by identity: hashing a whole (nested, frozen)
        # HardwareSpec on every lookup costs more than the lookup itself.
        # The spec object is retained in the bucket, so its id can never be
        # recycled by a different live spec; distinct-but-equal instances
        # simply occupy distinct slots, which costs duplicate work, never
        # wrong results.
        self._specs: dict[int, tuple[HardwareSpec, CostModel]] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._c_hits = self._registry.counter("perf_memo_hits_total")
        self._c_misses = self._registry.counter("perf_memo_misses_total")
        self._c_evictions = self._registry.counter("perf_memo_evictions_total")
        self._g_size = self._registry.gauge("perf_memo_size")

    # -- model plumbing -------------------------------------------------------

    def model(self, hw: HardwareSpec) -> CostModel:
        """The (shared) ``CostModel`` for ``hw`` — one instance per spec."""
        entry = self._specs.get(id(hw))
        if entry is None:
            with self._lock:
                entry = self._specs.setdefault(id(hw), (hw, CostModel(hw)))
        return entry[1]

    # -- memoized evaluation --------------------------------------------------

    def evaluate(self, hw: HardwareSpec, state: ETIR) -> KernelMetrics:
        """Memoized :meth:`CostModel.evaluate` for ``state`` on ``hw``."""
        model = self.model(hw)  # interns the spec so id(hw) is stable
        key = (id(hw), _shape_key(state.compute), state)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                hit = True
            else:
                self._misses += 1
                hit = False
        if hit:
            self._c_hits.inc()
            return cached
        self._c_misses.inc()
        metrics = model.evaluate(state)
        self._insert(key, metrics)
        return metrics

    def latency(self, hw: HardwareSpec, state: ETIR) -> float:
        return self.evaluate(hw, state).latency_s

    def evaluate_batch(
        self, hw: HardwareSpec, states: "list[ETIR]"
    ) -> "list[KernelMetrics]":
        """Memoized :meth:`CostModel.evaluate` over a list of states.

        One lock round-trip serves every hit; the misses are priced by the
        scalar model in order, so the result list matches per-state
        ``evaluate`` exactly.
        """
        results: list[KernelMetrics | None] = [None] * len(states)
        missing: list[int] = []
        model = self.model(hw)  # interns the spec so id(hw) is stable
        hwid = id(hw)
        with self._lock:
            for i, s in enumerate(states):
                key = (hwid, _shape_key(s.compute), s)
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    results[i] = cached
                else:
                    missing.append(i)
            self._hits += len(states) - len(missing)
            self._misses += len(missing)
        hits = len(states) - len(missing)
        if hits:
            self._c_hits.inc(hits)
        if missing:
            self._c_misses.inc(len(missing))
            for i in missing:
                state = states[i]
                metrics = results[i] = model.evaluate(state)
                self._insert((hwid, _shape_key(state.compute), state), metrics)
        return results  # type: ignore[return-value]

    def latency_batch(self, hw: HardwareSpec, states: "list[ETIR]") -> np.ndarray:
        return np.array(
            [m.latency_s for m in self.evaluate_batch(hw, states)],
            dtype=np.float64,
        )

    # -- bookkeeping ----------------------------------------------------------

    def _insert(self, key: tuple, metrics: KernelMetrics) -> None:
        evicted = 0
        with self._lock:
            self._entries[key] = metrics
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self._evictions += evicted
            size = len(self._entries)
        if evicted:
            self._c_evictions.inc(evicted)
        self._g_size.set(size)

    def stats(self) -> dict[str, int | float]:
        with self._lock:
            total = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
                "hit_rate": self._hits / total if total else 0.0,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_default_memo: MetricsMemo | None = None
_default_lock = threading.Lock()


def get_memo() -> MetricsMemo:
    """The process-wide default memo (created on first use)."""
    global _default_memo
    if _default_memo is None:
        with _default_lock:
            if _default_memo is None:
                _default_memo = MetricsMemo()
    return _default_memo


def reset_memo() -> None:
    """Drop the process-wide memo (tests and bench isolation)."""
    global _default_memo
    with _default_lock:
        _default_memo = None

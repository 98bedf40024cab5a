"""Process-wide metrics: counters, gauges, and histograms with labels.

A :class:`MetricsRegistry` hands out named instruments; the same
``(name, labels)`` pair always resolves to the same instrument, so
concurrent call sites aggregate into one series (the Prometheus model,
without the wire format).  The serving layer records every request through
the registry, and the stress tests cross-check its totals against
:class:`~repro.serve.stats.ServiceStats`.

A module-level default registry (:func:`get_registry`) serves as the
process-wide sink; components accept an explicit registry so tests can
isolate their totals.
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.utils.tables import Table

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "percentile",
]


def percentile(values: Iterable[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if not (0.0 < pct <= 100.0):
        raise ValueError(f"pct must be in (0, 100], got {pct}")
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without math import
    return ordered[int(rank) - 1]


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Sampled distribution with count/sum/min/max and percentiles.

    Keeps a bounded reservoir (the most recent ``max_samples``
    observations) for percentile queries; count and sum stay exact.
    """

    __slots__ = ("_lock", "count", "total", "_min", "_max", "_samples", "_cap", "_next")

    def __init__(self, max_samples: int = 4096) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._samples: list[float] = []
        self._cap = max_samples
        self._next = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            if len(self._samples) < self._cap:
                self._samples.append(value)
            else:  # ring-buffer overwrite of the oldest sample
                self._samples[self._next] = value
                self._next = (self._next + 1) % self._cap

    def export_state(self) -> dict:
        """Plain-data state (no locks) for cross-process transport."""
        with self._lock:
            return {
                "count": self.count,
                "total": self.total,
                "min": self._min if self.count else None,
                "max": self._max if self.count else None,
                "samples": list(self._samples),
            }

    def merge_state(self, state: dict) -> None:
        """Fold an exported state in: counts/sums add, extrema combine,
        samples concatenate into the bounded reservoir."""
        with self._lock:
            self.count += int(state["count"])
            self.total += float(state["total"])
            if state.get("min") is not None:
                self._min = min(self._min, float(state["min"]))
            if state.get("max") is not None:
                self._max = max(self._max, float(state["max"]))
            for value in state.get("samples", ()):
                # reservoir-only: count/total already folded above
                if len(self._samples) < self._cap:
                    self._samples.append(float(value))
                else:
                    self._samples[self._next] = float(value)
                    self._next = (self._next + 1) % self._cap

    def percentile(self, pct: float) -> float:
        with self._lock:
            return percentile(self._samples, pct)

    def summary(self) -> dict:
        with self._lock:
            ordered = sorted(self._samples)
            count = self.count
            return {
                "count": count,
                "sum": self.total,
                "mean": self.total / count if count else 0.0,
                "min": self._min if count else 0.0,
                "max": self._max if count else 0.0,
                "p50": percentile(ordered, 50),
                "p95": percentile(ordered, 95),
                "p99": percentile(ordered, 99),
            }


def _series_key(name: str, labels: dict[str, str]) -> tuple:
    return (name, tuple(sorted(labels.items())))


def _render_series(name: str, labels: dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create registry of labeled instruments (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, labels: dict[str, str]):
        key = _series_key(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = cls()
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {_render_series(name, labels)!r} already "
                    f"registered as {type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)

    def series(self, name: str) -> dict[tuple, Counter | Gauge | Histogram]:
        """Every labeled child of one metric name, keyed by label items."""
        with self._lock:
            return {
                key[1]: metric
                for key, metric in self._metrics.items()
                if key[0] == name
            }

    def total(self, name: str) -> float:
        """Sum of a counter's value across all its labeled children."""
        out = 0.0
        for metric in self.series(name).values():
            if not isinstance(metric, Counter):
                raise TypeError(f"metric {name!r} is not a counter family")
            out += metric.value
        return out

    def snapshot(self) -> dict[str, float | dict]:
        """Flat ``name{labels} -> value`` view (histograms as summaries)."""
        with self._lock:
            items = list(self._metrics.items())
        out: dict[str, float | dict] = {}
        for (name, labels), metric in sorted(items, key=lambda kv: kv[0]):
            series = _render_series(name, dict(labels))
            if isinstance(metric, Histogram):
                out[series] = metric.summary()
            else:
                out[series] = metric.value
        return out

    def render(self, title: str = "metrics") -> str:
        """The snapshot as an aligned two-column table."""
        table = Table("metric", "value", title=title)
        for series, value in self.snapshot().items():
            if isinstance(value, dict):
                table.add_row(
                    series,
                    f"n={value['count']} mean={value['mean']:.4g} "
                    f"p95={value['p95']:.4g} max={value['max']:.4g}",
                )
            else:
                text = f"{value:g}"
                table.add_row(series, text)
        return table.render()

    def export_state(self) -> dict:
        """Serializable registry state: a list of plain-data series records.

        Unlike :meth:`snapshot` (a human-oriented flat view), the export is
        lossless and mergeable: each record carries the metric name, its
        label dict, the instrument type, and the raw state — no lock
        objects, so the dict pickles across process boundaries.  Shards
        ship these to the fleet dispatcher, which folds them together with
        :meth:`merge_state`.
        """
        with self._lock:
            items = list(self._metrics.items())
        series = []
        for (name, labels), metric in items:
            if isinstance(metric, Histogram):
                kind, state = "histogram", metric.export_state()
            elif isinstance(metric, Gauge):
                kind, state = "gauge", metric.value
            else:
                kind, state = "counter", metric.value
            series.append(
                {"name": name, "labels": dict(labels), "kind": kind,
                 "state": state}
            )
        return {"series": series}

    def merge_state(self, exported: dict) -> None:
        """Fold an :meth:`export_state` payload into this registry.

        Counters add, gauges take the incoming value (last writer wins —
        gauges describe the reporting process, not a sum), histograms merge
        counts/sums/extrema and concatenate reservoirs.
        """
        for record in exported.get("series", ()):
            labels = {str(k): str(v) for k, v in record["labels"].items()}
            kind = record["kind"]
            if kind == "counter":
                self.counter(record["name"], **labels).inc(
                    float(record["state"])
                )
            elif kind == "gauge":
                self.gauge(record["name"], **labels).set(
                    float(record["state"])
                )
            elif kind == "histogram":
                self.histogram(record["name"], **labels).merge_state(
                    record["state"]
                )
            else:
                raise ValueError(f"unknown metric kind {kind!r}")

    def reset(self) -> None:
        """Drop every registered instrument (test isolation helper)."""
        with self._lock:
            self._metrics.clear()


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY

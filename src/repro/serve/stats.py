"""Service-level statistics: tier counts, throughput, latency percentiles.

The stats object is the service's single source of operational truth: every
response (served, coalesced, degraded, rejected, failed) is recorded under
one lock, and :meth:`ServiceStats.snapshot` / :meth:`ServiceStats.render`
expose the aggregate as a plain dict and a pretty table — the output of
``python -m repro serve-bench``.
"""

from __future__ import annotations

import threading
import time

from repro.obs.metrics import Histogram, MetricsRegistry, get_registry, percentile
from repro.serve.request import CompileResponse, TIERS
from repro.utils.tables import Table

__all__ = ["ServiceStats", "percentile"]


class ServiceStats:
    """Thread-safe counters and latency sample of one compile service.

    Every recording also feeds ``registry`` (the process-wide
    :class:`~repro.obs.metrics.MetricsRegistry` by default) with labeled
    counters (``serve_responses_total{tier=...}``) and the latency
    histogram, so registry totals always agree with the snapshot — the
    serving stress tests assert that consistency.  The snapshot's own
    latencies live in a private :class:`~repro.obs.metrics.Histogram`
    (exact count, bounded reservoir), so a service's memory stays flat
    however long it runs and two services sharing a registry keep
    separate snapshots.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else get_registry()
        self._tiers = {tier: 0 for tier in TIERS}
        self._coalesced = 0
        self._deadline_missed = 0
        self._submitted = 0
        self._backfills = 0
        self._retries = 0
        self._respawns = 0
        self._breaker_opens = 0
        self._latency = Histogram()
        self._first_submit: float | None = None
        self._last_done: float | None = None

    def record_backfill(self) -> None:
        """A background compile-ahead completed after a degraded response."""
        with self._lock:
            self._backfills += 1
        self.registry.counter("serve_backfills_total").inc()

    def record_retry(self) -> None:
        """One compile attempt failed and will be retried (or shed)."""
        with self._lock:
            self._retries += 1

    def record_respawn(self) -> None:
        """The supervisor replaced a dead or stuck worker thread."""
        with self._lock:
            self._respawns += 1

    def record_breaker_open(self) -> None:
        """A family circuit breaker tripped open."""
        with self._lock:
            self._breaker_opens += 1

    def record_submitted(self) -> None:
        with self._lock:
            self._submitted += 1
            if self._first_submit is None:
                self._first_submit = time.perf_counter()
        self.registry.counter("serve_submitted_total").inc()

    def record(self, response: CompileResponse) -> None:
        with self._lock:
            self._tiers[response.tier] += 1
            if response.coalesced:
                self._coalesced += 1
            if response.ok:
                self._latency.observe(response.service_latency_s)
            if not response.deadline_met and response.deadline_s is not None:
                self._deadline_missed += 1
            self._last_done = time.perf_counter()
        self.registry.counter(
            "serve_responses_total", tier=response.tier
        ).inc()
        if response.coalesced:
            self.registry.counter("serve_coalesced_total").inc()
        if response.ok:
            self.registry.histogram("serve_latency_seconds").observe(
                response.service_latency_s
            )

    def snapshot(self, wall_s: float | None = None) -> dict:
        """Aggregate view as a plain dict.

        ``wall_s`` overrides the measured first-submission → last-completion
        window used for throughput (benchmarks pass their own clock).
        """
        with self._lock:
            tiers = dict(self._tiers)
            latency = self._latency.summary()
            completed = latency["count"]
            if wall_s is None:
                if self._first_submit is None or self._last_done is None:
                    wall_s = 0.0
                else:
                    wall_s = self._last_done - self._first_submit
            return {
                **tiers,
                "submitted": self._submitted,
                "completed": completed,
                "coalesced": self._coalesced,
                "degraded": tiers["degraded_warm"] + tiers["degraded_seed"],
                "deadline_missed": self._deadline_missed,
                "backfilled": self._backfills,
                "retries": self._retries,
                "worker_respawns": self._respawns,
                "breaker_opens": self._breaker_opens,
                "wall_s": wall_s,
                "throughput_rps": completed / wall_s if wall_s > 0 else 0.0,
                "p50_ms": latency["p50"] * 1e3,
                "p95_ms": latency["p95"] * 1e3,
                "p99_ms": latency["p99"] * 1e3,
            }

    def metrics_snapshot(self) -> dict:
        """The backing registry's flat ``series -> value`` dump (JSON-able)."""
        return self.registry.snapshot()

    def render_metrics(self, title: str = "service metrics") -> str:
        """The backing registry rendered as an aligned table."""
        return self.registry.render(title=title)

    def render(self, wall_s: float | None = None, title: str = "") -> str:
        """The stats as an aligned two-column table."""
        snap = self.snapshot(wall_s)
        table = Table(
            "metric", "value", title=title or "compile service stats"
        )
        table.add_row("submitted", snap["submitted"])
        table.add_row("completed", snap["completed"])
        for tier in TIERS:
            table.add_row(f"tier:{tier}", snap[tier])
        table.add_row("coalesced", snap["coalesced"])
        table.add_row("degraded", snap["degraded"])
        table.add_row("deadline_missed", snap["deadline_missed"])
        table.add_row("backfilled", snap["backfilled"])
        table.add_row("retries", snap["retries"])
        table.add_row("worker_respawns", snap["worker_respawns"])
        table.add_row("breaker_opens", snap["breaker_opens"])
        table.add_row("throughput", f"{snap['throughput_rps']:.2f} req/s")
        table.add_row("p50 latency", f"{snap['p50_ms']:.1f} ms")
        table.add_row("p95 latency", f"{snap['p95_ms']:.1f} ms")
        table.add_row("p99 latency", f"{snap['p99_ms']:.1f} ms")
        return table.render()

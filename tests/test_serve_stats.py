"""Service statistics: tier counters, percentiles, rendering."""

import random

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.request import CompileResponse, TIERS
from repro.serve.stats import ServiceStats, percentile


class TestPercentile:
    def test_empty_sample(self):
        assert percentile([], 95) == 0.0

    def test_single_value(self):
        assert percentile([3.0], 50) == 3.0
        assert percentile([3.0], 99) == 3.0

    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 100) == 100.0

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0, 5.0], 50) == 5.0

    @pytest.mark.parametrize("pct", [0.0, -1.0, 101.0])
    def test_invalid_pct_rejected(self, pct):
        with pytest.raises(ValueError, match="pct"):
            percentile([1.0], pct)


def _response(tier="cold", ok=True, **kwargs) -> CompileResponse:
    return CompileResponse(request_id=1, tier=tier, ok=ok, **kwargs)


class TestCompileResponse:
    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown serve tier"):
            _response(tier="lukewarm")

    def test_degraded_property(self):
        assert _response(tier="degraded_warm").degraded
        assert _response(tier="degraded_seed").degraded
        assert not _response(tier="warm").degraded

    def test_deadline_met(self):
        assert _response(service_latency_s=0.1).deadline_met  # no deadline
        assert _response(service_latency_s=0.1, deadline_s=0.5).deadline_met
        assert not _response(service_latency_s=0.9, deadline_s=0.5).deadline_met
        assert not _response(tier="rejected", ok=False).deadline_met


class TestServiceStats:
    def test_counts_every_tier(self):
        stats = ServiceStats()
        for tier in TIERS:
            ok = tier not in ("rejected", "failed")
            stats.record(_response(tier=tier, ok=ok))
        snap = stats.snapshot()
        for tier in TIERS:
            assert snap[tier] == 1
        assert snap["completed"] == 5  # ok responses only
        assert snap["degraded"] == 2

    def test_coalesced_and_deadline_missed(self):
        stats = ServiceStats()
        stats.record(_response(coalesced=True, service_latency_s=0.01))
        stats.record(_response(service_latency_s=2.0, deadline_s=1.0))
        snap = stats.snapshot()
        assert snap["coalesced"] == 1
        assert snap["deadline_missed"] == 1

    def test_backfills_counted(self):
        stats = ServiceStats()
        stats.record_backfill()
        stats.record_backfill()
        assert stats.snapshot()["backfilled"] == 2

    def test_throughput_uses_given_wall_clock(self):
        stats = ServiceStats()
        for _ in range(10):
            stats.record_submitted()
            stats.record(_response(service_latency_s=0.05))
        snap = stats.snapshot(wall_s=2.0)
        assert snap["submitted"] == 10
        assert snap["throughput_rps"] == pytest.approx(5.0)
        assert snap["p50_ms"] == pytest.approx(50.0)

    def test_render_lists_tiers_and_percentiles(self):
        stats = ServiceStats()
        stats.record(_response(service_latency_s=0.1))
        text = stats.render(title="test stats")
        assert "test stats" in text
        for tier in TIERS:
            assert f"tier:{tier}" in text
        assert "p95 latency" in text and "throughput" in text

    def test_latency_sample_stays_bounded(self):
        stats = ServiceStats(MetricsRegistry())
        for i in range(10_000):
            stats.record(_response(service_latency_s=i * 1e-4))
        assert stats.snapshot()["completed"] == 10_000
        assert len(stats._latency.export_state()["samples"]) <= 4096

    def test_percentiles_cover_every_latency_up_to_the_reservoir(self):
        rng = random.Random(7)
        latencies = [rng.expovariate(20.0) for _ in range(4096)]
        stats = ServiceStats(MetricsRegistry())
        for latency in latencies:
            stats.record(_response(service_latency_s=latency))
        snap = stats.snapshot()
        assert snap["completed"] == 4096
        for pct in (50, 95, 99):
            assert snap[f"p{pct}_ms"] == percentile(latencies, pct) * 1e3

    def test_services_sharing_a_registry_keep_separate_snapshots(self):
        registry = MetricsRegistry()
        fast, slow = ServiceStats(registry), ServiceStats(registry)
        fast.record(_response(service_latency_s=0.01))
        for _ in range(3):
            slow.record(_response(service_latency_s=0.5))
        assert fast.snapshot()["completed"] == 1
        assert fast.snapshot()["p99_ms"] == pytest.approx(10.0)
        assert slow.snapshot()["completed"] == 3
        assert registry.histogram("serve_latency_seconds").count == 4

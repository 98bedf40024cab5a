"""Multi-process fleet: end-to-end serving, dedup, crash respawn, cache.

Each FleetDispatcher boots real spawn-start processes, so the suite keeps
shard counts and construction budgets tiny and reuses one running fleet
across the read-only tests.
"""

import json
import time
from pathlib import Path

import pytest

from repro.core.cache import ScheduleCache, shape_fingerprint
from repro.core.constructor import GensorConfig
from repro.fleet import (
    FleetDispatcher,
    ShardOptions,
    WireControl,
)
from repro.hardware import rtx4090
from repro.ir import operators as ops


def tiny_config(seed=0):
    return GensorConfig(
        seed=seed, num_chains=1, top_k=2, polish_steps=2,
        max_iterations_per_chain=8,
    )


def tiny_options(**overrides):
    base = dict(
        device="rtx4090",
        config=tiny_config(),
        workers=2,
        queue_capacity=32,
        warm_polish_steps=2,
        warm_pool=2,
        time_scale=0.0,
        sync_interval_s=0.2,
    )
    base.update(overrides)
    return ShardOptions(**base)


def gemm(m=64, k=32, n=64, name="op"):
    return ops.matmul(m, k, n, name)


@pytest.fixture(scope="module")
def fleet():
    dispatcher = FleetDispatcher(
        tiny_options(), 2, routing="hash", supervise_interval_s=0.1
    )
    yield dispatcher
    dispatcher.close()


class TestServing:
    def test_serves_cold_then_hit(self, fleet):
        first = fleet.serve(gemm(name="serve_a"), timeout=60)
        again = fleet.serve(gemm(name="serve_a"), timeout=60)
        assert first.ok and first.tier == "cold"
        assert again.ok and again.tier == "hit"
        assert first.schedule_key() == again.schedule_key()

    def test_response_carries_portable_schedule(self, fleet):
        compute = gemm(128, 32, 64, name="serve_b")
        response = fleet.serve(compute, timeout=60)
        assert response.ok
        assert response.kernel_latency_s > 0
        state = response.schedule.instantiate(compute)
        assert state.compute.name == compute.name

    def test_distinct_families_route_by_family(self, fleet):
        a = fleet.serve(gemm(name="route_a"), timeout=60)
        b = fleet.serve(
            ops.elementwise((64, 64), "relu", name="route_b"), timeout=60
        )
        assignments = fleet.router.assignments()
        assert len(assignments) >= 2
        assert a.shard in (0, 1) and b.shard in (0, 1)

    def test_fleet_wide_single_flight_dedup(self, fleet):
        shapes = [gemm(96, 32, 64, name="dedup") for _ in range(6)]
        tickets = [fleet.submit(c) for c in shapes]
        responses = [t.result(timeout=60) for t in tickets]
        assert all(r.ok for r in responses)
        assert sum(1 for r in responses if r.coalesced) >= 1
        keys = {r.schedule_key() for r in responses}
        assert len(keys) == 1  # followers share the leader's schedule

    def test_fleet_metrics_merge_shard_series(self, fleet):
        fleet.serve(gemm(name="metrics_a"), timeout=60)
        fleet.sync()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            merged = fleet.fleet_metrics()
            if merged.series("fleet_shard_requests_total"):
                break
            time.sleep(0.05)
        assert merged.series("fleet_shard_requests_total")
        assert merged.series("fleet_requests_total")
        assert fleet.shard_stats()


class TestShutdown:
    def test_submit_after_close_is_refused(self):
        dispatcher = FleetDispatcher(tiny_options(), 1)
        dispatcher.serve(gemm(name="pre_close"), timeout=60)
        dispatcher.close()
        response = dispatcher.submit(gemm(name="post_close")).result(
            timeout=5
        )
        assert not response.ok
        assert response.tier == "rejected"
        assert response.reason == "shutting_down"

    def test_close_is_idempotent(self):
        dispatcher = FleetDispatcher(tiny_options(), 1)
        dispatcher.close()
        dispatcher.close()


class TestCrashRespawn:
    def test_crashed_shard_respawns_and_requeues(self):
        with FleetDispatcher(
            tiny_options(), 1, supervise_interval_s=0.05
        ) as fleet:
            warm = fleet.serve(gemm(name="crash_warm"), timeout=60)
            assert warm.ok
            fleet._req_qs[0].put(WireControl("crash"))
            # keep submitting through the crash window: every request must
            # still resolve (requeued by the supervisor onto the respawn)
            tickets = [
                fleet.submit(gemm(64 * (i + 1), 32, 64, name=f"crash_{i}"))
                for i in range(4)
            ]
            responses = [t.result(timeout=120) for t in tickets]
            assert all(r.ok for r in responses)
            assert fleet.respawns >= 1
            respawn_series = fleet.registry.series(
                "fleet_shard_respawns_total"
            )
            assert sum(c.value for c in respawn_series.values()) >= 1


class TestSharedCache:
    def test_replicated_cache_warms_a_new_fleet(self, tmp_path):
        cache_path = str(tmp_path / "shared" / "fleet_cache.json")
        compute = gemm(name="shared_cache")
        pool = (ops.elementwise((64, 64), "relu", "shared_ep"),)
        with FleetDispatcher(
            tiny_options(cache_path=cache_path), 1
        ) as fleet:
            cold = fleet.serve(compute, timeout=60)
            assert cold.tier == "cold"
            fused_cold = fleet.submit(compute, epilogues=pool).result(60)
            assert fused_cold.tier == "cold"
            fleet.sync()
            deadline = time.monotonic() + 15
            loaded = ScheduleCache(rtx4090())
            while time.monotonic() < deadline:
                if Path(cache_path).exists():
                    loaded = ScheduleCache.load(cache_path, rtx4090())
                    if len(loaded) == 2:
                        break
                time.sleep(0.1)
            assert loaded.get(compute) is not None
            assert loaded.get(compute, pool).fused == fused_cold.fused
        # a brand-new fleet boots warm off the shared database
        with FleetDispatcher(
            tiny_options(cache_path=cache_path), 1
        ) as fresh:
            hit = fresh.serve(compute, timeout=60)
            assert hit.tier == "hit"
            fused_hit = fresh.submit(
                gemm(name="shared_again"),
                epilogues=(ops.elementwise((64, 64), "relu", "again_ep"),),
            ).result(60)
        assert fused_hit.tier == "hit"
        assert fused_hit.schedule_key() == fused_cold.schedule_key()
        assert fused_hit.fused == fused_cold.fused
        assert fused_hit.kernel_latency_s == fused_cold.kernel_latency_s
        assert fused_hit.pending_cost_s == fused_cold.pending_cost_s

    def test_shard_quarantines_reach_fleet_metrics(self, tmp_path):
        cache_path = tmp_path / "fleet_cache.json"
        bad = {"device": rtx4090().name, "entries": {"gemm[bad]": {"crc": 0}}}
        cache_path.write_text(json.dumps(bad))
        with FleetDispatcher(
            tiny_options(cache_path=str(cache_path)), 1
        ) as fleet:
            fleet.sync()
            deadline = time.monotonic() + 30
            while fleet.fleet_metrics().total("cache_quarantined_total") < 1:
                assert time.monotonic() < deadline, "no shard counted it"
                time.sleep(0.1)
        assert json.loads(cache_path.read_text())["entries"] == {}
        assert (tmp_path / ".quarantine").is_dir()


class TestProgramServing:
    def test_serve_program_across_shards(self, fleet):
        from repro.models import ModelGraph

        g = ModelGraph("fleet_prog", batch=1)
        g.add(ops.matmul(64, 32, 64, "fp_mm"))
        g.add(ops.elementwise((64, 64), "gelu", "fp_act"))
        g.add(ops.matmul(64, 16, 64, "fp_mm2"))
        response = fleet.serve_program(g, timeout=120)
        assert response.ok
        prog = response.program
        assert [grp.anchor_name for grp in prog.groups] == ["fp_mm", "fp_mm2"]
        assert prog.groups[0].epilogue_names == ("fp_act",)
        assert prog.latency_s > 0.0
        # Group latency always covers pending epilogues, fused or not.
        grp = prog.groups[0]
        assert grp.latency_s == grp.kernel_latency_s + grp.pending_cost_s
        if grp.fused == 0:
            assert grp.pending_cost_s > 0.0
        assert all(g.schedule is not None for g in prog.groups)

    def test_fusion_counters_counted_once(self, fleet):
        from repro.models import ModelGraph

        g = ModelGraph("fleet_plan_once", batch=1)
        g.add(ops.matmul(64, 32, 64, "fc_mm"))
        g.add(ops.elementwise((64, 64), "gelu", "fc_act"))
        g.add(ops.matmul(64, 16, 64, "fc_mm2"))
        assert fleet.serve_program(g, timeout=120).ok
        model = {"model": "fleet_plan_once"}
        assert fleet.registry.counter("fusion_groups_total", **model).value == 2
        assert fleet.registry.counter("fusion_fused_ops_total", **model).value == 1

    def test_fleet_program_schedules_equal_served_ones(self):
        """Group by group, a 2-shard fleet serves a program with the same
        tiers and portable schedules as the single-process service."""
        from repro.models import ModelGraph
        from repro.serve import CompileService

        def graph():
            g = ModelGraph("parity_prog", batch=1)
            g.add(ops.matmul(64, 32, 64, "pp_mm"))
            g.add(ops.elementwise((64, 64), "gelu", "pp_act"))
            g.add(ops.matmul(64, 16, 64, "pp_mm2"))
            return g

        options = tiny_options(workers=1)
        with FleetDispatcher(options, 2, routing="hash") as fleet:
            fleet_resp = fleet.serve_program(graph(), timeout=120)
        with CompileService(
            rtx4090(),
            options.config,
            workers=1,
            warm_polish_steps=options.warm_polish_steps,
            warm_pool=options.warm_pool,
        ) as service:
            serve_resp = service.compile_program(graph(), timeout=120)
        assert fleet_resp.ok and serve_resp.ok
        for f, s in zip(fleet_resp.program.groups, serve_resp.program.groups, strict=True):
            assert f.anchor_label == s.anchor_label
            assert f.tier == s.tier
            assert f.schedule == s.schedule
            assert (f.fused, f.kernel_latency_s, f.pending_cost_s) == (
                s.fused, s.kernel_latency_s, s.pending_cost_s
            )

"""CompileService: admission, single-flight coalescing, serve tiers."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.cache import shape_fingerprint
from repro.core.constructor import GensorConfig
from repro.ir import operators as ops
from repro.ir.etir import ETIR
from repro.serve import CompileService, SingleFlight
from repro.serve.request import CompileRequest, ServeTicket


def tiny_config(seed=0):
    return GensorConfig(
        seed=seed, num_chains=1, top_k=2, polish_steps=2,
        max_iterations_per_chain=8,
    )


def make_service(hw, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("queue_capacity", 16)
    kwargs.setdefault("warm_polish_steps", 2)
    kwargs.setdefault("degraded_polish_steps", 2)
    return CompileService(hw, tiny_config(), **kwargs)


def gemm(m=64, k=32, n=64, name="op"):
    return ops.matmul(m, k, n, name)


def ticket_for(compute):
    return ServeTicket(CompileRequest(compute=compute))


class TestSingleFlightRegistry:
    def test_first_leads_rest_attach(self):
        flight = SingleFlight()
        lead, follow = ticket_for(gemm()), ticket_for(gemm())
        assert flight.attach_or_lead("k", lead) is False
        assert flight.attach_or_lead("k", follow) is True
        assert flight.in_flight() == 1
        assert flight.complete("k") == [follow]
        assert flight.in_flight() == 0

    def test_distinct_keys_fly_independently(self):
        flight = SingleFlight()
        assert flight.attach_or_lead("a", ticket_for(gemm())) is False
        assert flight.attach_or_lead("b", ticket_for(gemm())) is False
        assert flight.in_flight() == 2

    def test_complete_unknown_key_is_empty(self):
        assert SingleFlight().complete("ghost") == []


class TestSingleFlightDedup:
    def test_concurrent_duplicates_compile_once(self, hw):
        """N identical in-flight requests trigger exactly one compilation."""
        service = make_service(hw)
        calls: list = []
        started = threading.Event()
        gate = threading.Event()

        def fake_compile(compute, measurer=None, cancel=None, **kwargs):
            calls.append(compute)
            started.set()
            assert gate.wait(5.0)
            return SimpleNamespace(source="cold", result=None)

        service.dynamic.compile = fake_compile
        compute = gemm()
        leader = service.submit(compute)
        assert started.wait(5.0)  # the leader now holds a worker
        followers = [service.submit(gemm(name=f"dup{i}")) for i in range(5)]
        gate.set()
        responses = [t.result(timeout=5.0) for t in (leader, *followers)]
        service.close()
        assert len(calls) == 1
        assert all(r.ok and r.tier == "cold" for r in responses)
        assert [r.coalesced for r in responses] == [False] + [True] * 5
        assert service.stats.snapshot()["coalesced"] == 5

    def test_sequential_duplicates_do_not_coalesce(self, hw):
        """Coalescing is concurrency-scoped; repeats over time hit the cache."""
        with make_service(hw) as service:
            first = service.serve(gemm(), timeout=30.0)
            second = service.serve(gemm(), timeout=30.0)
        assert first.tier == "cold" and not first.coalesced
        assert second.tier == "hit" and not second.coalesced


class TestAdmissionControl:
    def test_saturated_queue_rejects_with_reason(self, hw):
        service = make_service(hw, workers=1, queue_capacity=1)
        started = threading.Event()
        gate = threading.Event()

        def fake_compile(compute, measurer=None, cancel=None, **kwargs):
            started.set()
            assert gate.wait(5.0)
            return SimpleNamespace(source="cold", result=None)

        service.dynamic.compile = fake_compile
        blocker = service.submit(gemm(64, 32, 64))
        assert started.wait(5.0)
        queued = service.submit(gemm(128, 32, 64))  # fills the only slot
        rejected = service.submit(gemm(256, 32, 64)).result(timeout=1.0)
        assert rejected.tier == "rejected" and not rejected.ok
        assert rejected.reason == "queue_full"
        gate.set()
        assert blocker.result(timeout=5.0).ok
        assert queued.result(timeout=5.0).ok
        service.close()
        assert service.stats.snapshot()["rejected"] == 1

    def test_rejection_covers_attached_followers(self, hw):
        service = make_service(hw, workers=1, queue_capacity=1)
        # Force the leader's enqueue to fail while a follower is attached.
        key = f"{hw.name}/{shape_fingerprint(gemm())}"
        follower = ticket_for(gemm())
        lead = ticket_for(gemm())
        assert service._flight.attach_or_lead(key, lead) is False
        assert service._flight.attach_or_lead(key, follower) is True
        service._refuse(key, lead, "queue_full")
        assert lead.result(timeout=1.0).tier == "rejected"
        resp = follower.result(timeout=1.0)
        assert resp.tier == "rejected" and resp.coalesced
        service.close()

    def test_submit_after_close_rejects(self, hw):
        service = make_service(hw)
        service.close()
        response = service.submit(gemm()).result(timeout=1.0)
        assert response.tier == "rejected" and not response.ok
        assert response.reason == "shutting_down"

    def test_close_is_idempotent(self, hw):
        service = make_service(hw)
        service.close()
        service.close()


class TestServeTiers:
    def test_hit_then_warm_progression(self, hw):
        with make_service(hw) as service:
            cold = service.serve(gemm(64, 32, 64), timeout=30.0)
            hit = service.serve(gemm(64, 32, 64), timeout=30.0)
            warm = service.serve(gemm(128, 32, 64), timeout=30.0)
        assert cold.tier == "cold"
        assert hit.tier == "hit"
        assert warm.tier == "warm"
        assert all(r.ok and r.result is not None for r in (cold, hit, warm))

    def test_served_hit_builds_each_fingerprint_once(self, hw, monkeypatch):
        """A served hit keys its group several times (single-flight, the
        attempt, the cache lookups); each operator of a fresh request
        builds its shape fingerprint once."""
        import repro.core.cache as cache_module

        def group():
            return ops.matmul(128, 64, 128, "fp_mm"), (
                ops.elementwise((128, 128), "gelu", "fp_gelu"),
            )

        built: list[str] = []
        original = cache_module.shape_fingerprint

        def spy(compute):
            if "_shape_fingerprint" not in compute.__dict__:
                built.append(compute.name)
            return original(compute)

        with make_service(hw, workers=1) as service:
            anchor, pool = group()
            cold = service.submit(anchor, epilogues=pool).result(timeout=30.0)
            monkeypatch.setattr(cache_module, "shape_fingerprint", spy)
            anchor, pool = group()
            hit = service.submit(anchor, epilogues=pool).result(timeout=30.0)
        assert cold.tier == "cold" and hit.tier == "hit"
        assert sorted(built) == ["fp_gelu", "fp_mm"]

    def test_failure_is_retried_then_shed_to_degraded(self, hw):
        service = make_service(hw)
        calls: list = []

        def boom(compute, measurer=None, cancel=None, **kwargs):
            calls.append(compute)
            raise RuntimeError("kaboom")

        service.dynamic.compile = boom
        response = service.submit(gemm()).result(timeout=10.0)
        # every retry attempt failed, so the request was shed to the
        # analytical degraded tier — a schedule still comes back, tagged
        # with the underlying failure.
        assert response.ok and response.degraded
        assert "kaboom" in response.reason
        assert len(calls) >= 3  # all retry attempts ran
        assert service.stats.snapshot()["retries"] >= 3
        # the worker survived the exceptions and still serves
        service.dynamic.compile = lambda c, m=None, cancel=None, **kw: (
            SimpleNamespace(source="cold", result=None)
        )
        assert service.submit(gemm(128, 32, 64)).result(timeout=5.0).ok
        service.close()


class TestDeadlineDegradation:
    def test_tight_deadline_serves_seed_tier(self, hw):
        service = make_service(hw, cold_cost_estimate_s=1e9)
        response = service.serve(gemm(), deadline_s=10.0, timeout=30.0)
        assert response.tier == "degraded_seed"
        assert response.ok and response.degraded
        assert response.result is not None
        assert service.stats.snapshot()["degraded_seed"] == 1
        # seed picks are analytical only and never pollute the cache...
        service.close()
        # ...but the backfill compiled the shape in the background.
        assert service.cache.get(gemm()) is not None
        assert service.stats.snapshot()["backfilled"] == 1

    def test_tight_deadline_with_neighbor_serves_degraded_warm(self, hw):
        service = make_service(hw, cold_cost_estimate_s=1e9)
        neighbor = ETIR.from_tiles(
            gemm(128, 32, 64, "seed"),
            {"i": 32, "j": 32, "k": 16}, {"i": 4, "j": 4}, {"i": 1},
        )
        service.cache.put(neighbor, 1e-3)
        response = service.serve(gemm(64, 32, 64), deadline_s=10.0, timeout=30.0)
        service.close()
        assert response.tier == "degraded_warm"
        assert response.ok and response.degraded
        # degraded-warm results are measured, so they do enter the cache
        assert service.cache.get(gemm(64, 32, 64)) is not None

    def test_no_deadline_never_degrades(self, hw):
        with make_service(hw, cold_cost_estimate_s=1e9) as service:
            response = service.serve(gemm(), timeout=30.0)
        assert response.tier == "cold"

    def test_generous_deadline_not_degraded(self, hw):
        with make_service(hw, cold_cost_estimate_s=0.0) as service:
            response = service.serve(gemm(), deadline_s=600.0, timeout=30.0)
        assert response.tier == "cold"
        assert response.deadline_met

    def test_cached_shape_ignores_deadline_pressure(self, hw):
        with make_service(hw, cold_cost_estimate_s=1e9) as service:
            service.serve(gemm(), timeout=30.0)  # cold-fills the cache
            response = service.serve(gemm(), deadline_s=0.5, timeout=30.0)
        assert response.tier == "hit"

    def test_fused_group_degrades_when_only_its_bare_anchor_is_cached(
        self, hw
    ):
        """The degrade decision looks up the group's entry, not the
        anchor's: a cached bare anchor must not make a fused request with
        a tight deadline walk cold."""
        pool = (ops.elementwise((64, 64), "relu", "ep"),)
        with make_service(hw, cold_cost_estimate_s=1e9) as service:
            assert service.serve(gemm(), timeout=30.0).tier == "cold"
            response = service.submit(
                gemm(name="fused"), deadline_s=10.0, epilogues=pool
            ).result(timeout=30.0)
            assert response.tier == "degraded_seed"
            assert response.result.best.epilogue_pool == pool
        # the group's backfill healed it into the cache under its own key
        assert service.cache.get(gemm(), pool) is not None
        assert service.stats.snapshot()["backfilled"] == 1

    def test_fused_group_degrades_warm_from_its_own_family(self, hw):
        pool = (ops.elementwise((64, 64), "relu", "ep"),)
        with make_service(hw, cold_cost_estimate_s=1e9) as service:
            neighbor = ETIR.from_tiles(
                gemm(128, 32, 64, "seed"),
                {"i": 32, "j": 32, "k": 16}, {"i": 4, "j": 4}, {"i": 1},
                epilogue_pool=(ops.elementwise((128, 64), "relu", "sep"),),
                fused=1,
            )
            service.cache.put(neighbor, 1e-3)
            response = service.submit(
                gemm(), deadline_s=10.0, epilogues=pool
            ).result(timeout=30.0)
        assert response.tier == "degraded_warm"
        assert response.result.best.epilogue_pool == pool
        assert service.cache.get(gemm(), pool) is not None

    def test_cold_observation_updates_estimate(self, hw):
        with make_service(hw, cold_cost_estimate_s=100.0) as service:
            before = service.cold_cost_estimate_s
            service.serve(gemm(), timeout=30.0)
            after = service.cold_cost_estimate_s
        assert after < before  # EMA pulled toward the observed fast cold


class TestProgramServing:
    def program_graph(self):
        from repro.models import ModelGraph

        g = ModelGraph("tiny", batch=1)
        g.add(ops.matmul(64, 32, 64, "mm"))
        g.add(ops.elementwise((64, 64), "gelu", "act"))
        g.add(ops.matmul(64, 16, 64, "mm2"))
        return g

    def test_compile_program_serves_all_groups(self, hw):
        with make_service(hw) as service:
            response = service.compile_program(self.program_graph(), timeout=60.0)
        assert response.ok
        prog = response.program
        assert [g.anchor_name for g in prog.groups] == ["mm", "mm2"]
        assert prog.groups[0].epilogue_names == ("act",)
        assert len(response.tiers) == 2
        assert response.latency_s == prog.latency_s > 0.0
        assert response.service_latency_s > 0.0

    def test_compile_program_without_fusion_is_per_op(self, hw):
        with make_service(hw) as service:
            response = service.compile_program(
                self.program_graph(), fusion=False, timeout=60.0
            )
        assert response.ok
        prog = response.program
        assert [g.anchor_name for g in prog.groups] == ["mm", "act", "mm2"]
        assert all(g.epilogue_names == () for g in prog.groups)
        assert prog.num_fused_ops == 0

    def test_repeat_program_hits_every_group(self, hw):
        with make_service(hw) as service:
            first = service.compile_program(self.program_graph(), timeout=60.0)
            again = service.compile_program(self.program_graph(), timeout=60.0)
        assert first.ok and again.ok
        assert again.tiers == ("hit", "hit")
        assert again.program.groups[0].epilogue_names == ("act",)
        assert again.latency_s == first.latency_s

    def test_corrupt_cache_fault_hits_the_group_entry(self, hw):
        from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec

        pool = (ops.elementwise((64, 64), "relu", "ep"),)
        # Every attempt corrupts its own cache entry first (a no-op while
        # there is none): the bare anchor, then the group, then the group.
        injector = FaultInjector(FaultPlan(faults=(FaultSpec("corrupt-cache"),)))
        with make_service(hw, fault_injector=injector) as service:
            service.serve(gemm(), timeout=30.0)
            service.submit(gemm(), epilogues=pool).result(timeout=30.0)
            bare = service.cache.get(gemm())
            response = service.submit(
                gemm(name="again"), epilogues=pool
            ).result(timeout=30.0)
        # the group's entry was the one corrupted (and recompiled) ...
        assert response.ok and response.tier == "cold"
        assert service.cache.get(gemm(), pool).instantiate(gemm()) is not None
        # ... while the bare anchor's entry is untouched
        assert service.cache.get(gemm()) == bare

    def test_fused_and_bare_submissions_never_coalesce(self, hw):
        """A fused-group request must not attach to an in-flight bare
        compile of the same anchor shape (or vice versa) — the epilogue
        pool changes the answer."""
        import threading
        from types import SimpleNamespace

        service = make_service(hw)
        seen = []
        started = threading.Event()
        gate = threading.Event()

        def fake_compile(compute, measurer=None, cancel=None, epilogues=(), **kw):
            seen.append((compute.name, tuple(ep.name for ep in epilogues)))
            started.set()
            assert gate.wait(5.0)
            return SimpleNamespace(source="cold", result=None)

        service.dynamic.compile = fake_compile
        anchor = gemm()
        bare = service.submit(anchor)
        assert started.wait(5.0)
        fused = service.submit(
            gemm(name="fused_twin"),
            epilogues=(ops.elementwise((64, 64), "relu", "ep"),),
        )
        gate.set()
        bare.result(timeout=5.0)
        fused.result(timeout=5.0)
        service.close()
        assert len(seen) == 2  # no single-flight coalescing across pools
        assert {eps for _, eps in seen} == {(), ("ep",)}

    def test_fusion_plan_announced_once(self, hw):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import RecordingTracer

        registry, tracer = MetricsRegistry(), RecordingTracer()
        with make_service(hw, registry=registry, tracer=tracer) as service:
            response = service.compile_program(self.program_graph(), timeout=60.0)
        assert response.ok
        (event,) = tracer.by_name("fusion_plan")
        assert event.args["groups"] == ["mm + act (x1)", "mm2 (x1)"]
        assert registry.counter("fusion_groups_total", model="tiny").value == 2
        assert registry.counter("fusion_fused_ops_total", model="tiny").value == 1

    @pytest.mark.parametrize("stall", ["blocked", "slow"])
    def test_program_timeout_fails_the_program_once(self, hw, stall):
        """One deadline spans the whole program: a program whose groups
        do not all land within ``timeout`` comes back failed after about
        ``timeout``, naming a group — never by raising, and never after
        ``timeout`` per group (``slow`` groups each land within
        ``timeout`` of the previous one)."""
        service = make_service(hw, workers=1)
        gate = threading.Event()
        real_compile = service.dynamic.compile

        def stalled_compile(*args, **kwargs):
            if stall == "blocked":
                assert gate.wait(10.0)
                return SimpleNamespace(source="cold", result=None)
            time.sleep(0.3)
            return real_compile(*args, **kwargs)

        service.dynamic.compile = stalled_compile
        t0 = time.perf_counter()
        try:
            response = service.compile_program(
                self.program_graph(), fusion=False, timeout=0.5
            )
        finally:
            elapsed = time.perf_counter() - t0
            gate.set()
            service.close()
        assert not response.ok and response.program is None
        assert response.reason.startswith("group ")
        assert response.reason.endswith("not served within 0.5s")
        assert 0.4 < elapsed < 1.0  # three groups, one deadline

    def test_group_failure_fails_whole_program(self, hw):
        from repro.serve.program import ProgramRequest, serve_program

        service = make_service(hw, queue_capacity=1, workers=1)
        request = ProgramRequest.from_graph(self.program_graph())
        service.close()  # every submit now rejects
        response = serve_program(service.submit, request, timeout=5.0)
        assert not response.ok
        assert response.program is None
        assert "mm" in response.reason
        with pytest.raises(ValueError):
            response.latency_s

"""Serve-layer checkpoint/resume: retries and crash requeues pick up the
walk where the failed attempt left it (bare operators and fusion groups
alike), foreign checkpoints are rejected, deadline-aware fail-fast, and
the bounded-wasted-recompute bar surfaced through serve-bench."""

import threading
import time

import pytest

from repro.core.cache import group_fingerprint
from repro.core.constructor import Gensor, GensorConfig
from repro.ir import operators as ops
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RecordingTracer
from repro.resilience.checkpoint import (
    CheckpointPolicy,
    Checkpointer,
    WalkCheckpoint,
)
from repro.resilience.deadline import CancelToken, CompileCancelled
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedWorkerCrash,
)
from repro.resilience.retry import RetryPolicy
from repro.serve.bench import run_serve_bench
from repro.serve.service import CompileService

EVERY = 2  # checkpoint cadence: tiny_config walks ~8 steps per compile


def tiny_config(seed=0):
    return GensorConfig(
        seed=seed, num_chains=1, top_k=2, polish_steps=2,
        max_iterations_per_chain=8,
    )


def gemm(m=64, k=32, n=64, name="op"):
    return ops.matmul(m, k, n, name)


#: a fusion group and a walk long enough that, at seed 0, attempt 0's last
#: checkpoint (step 56 of 60, cadence 7) holds both chains at iteration 28
#: of 30 with both epilogues fused: attempt 1 restores fused states and
#: walks on from them.
FUSED_OP = ops.matmul(64, 48, 80, "fused_op")
POOL = (ops.elementwise((64, 80), "gelu", "ep_gelu"), ops.add((64, 80), "ep_res"))
FUSED_CONFIG = GensorConfig(
    seed=0, num_chains=2, top_k=3, polish_steps=4,
    max_iterations_per_chain=30,
)
FUSED_EVERY = 7


FAST_RETRY = RetryPolicy(
    max_attempts=3, base_backoff_s=0.001, max_backoff_s=0.002,
    jitter=0.5, attempt_timeout_s=5.0,
)


class Bomb(CancelToken):
    """A cancel token that trips on its Nth poll (deterministic kill)."""

    def __init__(self, fuse):
        super().__init__(None)
        self.fuse = fuse
        self.checks = 0

    def expired(self):
        self.checks += 1
        return self.checks >= self.fuse


def make_service(hw, plan=None, config=None, **kwargs):
    registry = MetricsRegistry()
    injector = (
        FaultInjector(plan, registry=registry) if plan is not None else None
    )
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("queue_capacity", 16)
    kwargs.setdefault("warm_polish_steps", 2)
    kwargs.setdefault("degraded_polish_steps", 2)
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("checkpoint_policy", CheckpointPolicy(every_steps=EVERY))
    service = CompileService(
        hw, config or tiny_config(), registry=registry,
        fault_injector=injector, **kwargs,
    )
    return service, registry


def record_resumes(service):
    """Wrap ``dynamic.compile`` to log each attempt's ``resume_from``."""
    real = service.dynamic.compile
    seen = []
    lock = threading.Lock()

    def spying(compute, measurer=None, **kwargs):
        with lock:
            seen.append(kwargs.get("resume_from"))
        return real(compute, measurer, **kwargs)

    service.dynamic.compile = spying
    return seen


def record_walk(service):
    """Record ``service``'s walk events; return the tracer and the list
    that gets the tracer's event count at the start of each attempt."""
    tracer = RecordingTracer()
    service.dynamic.gensor.tracer = tracer
    marks = []
    real = service.dynamic.compile

    def marking(compute, measurer=None, **kwargs):
        marks.append(len(tracer.events))
        return real(compute, measurer, **kwargs)

    service.dynamic.compile = marking
    return tracer, marks


def walk_steps(events):
    return [e.args for e in events if e.name == "walk_step"]


def fault_free_key(hw):
    service, _ = make_service(hw)
    with service:
        response = service.serve(gemm(), timeout=30.0)
    assert response.ok and response.tier == "cold"
    return response.result.best.key()


def summarize(result):
    return (
        result.best.key(),
        tuple(s.key() for s in result.top_results),
        result.iterations,
        result.states_visited,
        result.best_metrics.latency_s.hex(),
    )


def walk_checkpoint(hw, compute):
    """The last checkpoint of a whole tiny_config walk of ``compute``."""
    ck = Checkpointer(CheckpointPolicy(every_steps=EVERY))
    Gensor(hw, tiny_config()).compile(compute, checkpointer=ck)
    assert ck.last is not None
    return ck.last


class TestRetryResume:
    def test_retry_resumes_from_checkpoint_with_parity(self, hw):
        plan = FaultPlan(
            faults=(FaultSpec(kind="raise", attempts=(0,), rate=1.0),)
        )
        service, registry = make_service(hw, plan)
        resumes = record_resumes(service)
        with service:
            response = service.serve(gemm(), timeout=30.0)
        assert response.ok and response.tier == "cold"
        # attempt 0 started cold, attempt 1 resumed from its checkpoint
        assert resumes[0] is None
        assert isinstance(resumes[1], WalkCheckpoint)
        assert registry.counter("resilience_checkpoints_total").value > 0
        assert (
            registry.counter("resilience_checkpoint_rejected_total").value
            == 0
        )
        # wasted recompute bounded by one checkpoint interval per failure
        assert registry.total("resilience_wasted_states_total") <= EVERY
        # byte parity with the fault-free service
        assert response.result.best.key() == fault_free_key(hw)

    def test_fused_retry_resumes_from_checkpoint_with_parity(self, hw):
        """A fusion group's walk resumes the way a bare operator's does:
        attempt 1 continues mid-chain from attempt 0's group-keyed
        checkpoint, fused counts included, and its compile equals the
        fault-free one (schedule, top-k, iterations, states visited).
        The walk's tail revisits known states, so the summary alone would
        not see a resume that lost a fused count: attempt 1's walk steps
        must also be exactly the suffix of the fault-free walk's."""
        plan = FaultPlan(
            faults=(FaultSpec(kind="raise", attempts=(0,), rate=1.0),)
        )
        policy = CheckpointPolicy(every_steps=FUSED_EVERY)
        service, registry = make_service(
            hw, plan, config=FUSED_CONFIG, checkpoint_policy=policy
        )
        resumes = record_resumes(service)
        tracer, marks = record_walk(service)
        with service:
            response = service.submit(FUSED_OP, epilogues=POOL).result(
                timeout=30.0
            )
        clean, _ = make_service(
            hw, config=FUSED_CONFIG, checkpoint_policy=policy
        )
        clean_tracer, _ = record_walk(clean)
        with clean:
            reference = clean.submit(FUSED_OP, epilogues=POOL).result(
                timeout=30.0
            )
        assert response.ok and response.tier == "cold"
        assert resumes[0] is None
        resumed = resumes[1]
        assert isinstance(resumed, WalkCheckpoint)
        assert resumed.compute_key == group_fingerprint(FUSED_OP, POOL)
        assert all(
            not chain.done
            and chain.iteration < FUSED_CONFIG.max_iterations_per_chain
            and chain.state[3] == len(POOL)
            for chain in resumed.chains
        )
        assert (
            registry.counter("resilience_checkpoint_resumes_total").value == 1
        )
        assert registry.total("resilience_wasted_states_total") <= FUSED_EVERY
        assert summarize(response.result) == summarize(reference.result)
        assert len(marks) == 2
        full = walk_steps(clean_tracer.events)
        attempt1 = walk_steps(tracer.events[marks[1]:])
        assert 0 < len(attempt1) < len(full)
        assert attempt1 == full[len(full) - len(attempt1):]

    def test_stale_checkpoint_is_rejected_not_resumed(self, hw):
        service, registry = make_service(hw)
        resumes = record_resumes(service)
        # a walk checkpoint of a different shape must not seed this walk
        foreign = walk_checkpoint(hw, gemm(32, 32, 32, "foreign"))
        with service:
            response = service.submit(
                gemm(), checkpoint=foreign
            ).result(timeout=30.0)
        assert response.ok and response.tier == "cold"
        assert resumes[0] is None
        assert (
            registry.counter("resilience_checkpoint_rejected_total").value
            == 1
        )
        assert response.result.best.key() == fault_free_key(hw)

    def test_checkpoint_of_another_name_is_rejected(self, hw):
        """Same shape, other operator name: the checkpoint holds another
        chain RNG stream, so it is rejected, not resumed."""
        service, registry = make_service(hw)
        resumes = record_resumes(service)
        other = walk_checkpoint(hw, gemm(name="other_name"))
        with service:
            response = service.submit(
                gemm(), checkpoint=other
            ).result(timeout=30.0)
        assert response.ok and response.tier == "cold"
        assert resumes[0] is None
        assert (
            registry.counter("resilience_checkpoint_rejected_total").value
            == 1
        )
        assert response.result.best.key() == fault_free_key(hw)


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
class TestCrashResume:
    def test_crash_requeue_carries_checkpoint(self, hw):
        """A worker crash loses the thread but not the walk: the requeued
        request resumes from the checkpoint banked before the crash."""
        service, registry = make_service(hw)
        real = service.dynamic.compile
        calls = []
        lock = threading.Lock()

        def crashy(compute, measurer=None, **kwargs):
            with lock:
                calls.append(kwargs.get("resume_from"))
                first = len(calls) == 1
            if first:
                # walk part-way (banking mid-walk checkpoints, touching
                # neither cache nor result), then die
                inner = dict(kwargs)
                inner["cancel"] = Bomb(5)
                try:
                    real(compute, measurer, **inner)
                except CompileCancelled:
                    pass
                raise InjectedWorkerCrash("injected")
            return real(compute, measurer, **kwargs)

        service.dynamic.compile = crashy
        response = service.submit(gemm()).result(timeout=30.0)
        deadline = time.monotonic() + 5.0
        while (
            service.pool.respawns["dead"] < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        service.close()
        assert response.ok and response.tier == "cold"
        assert len(calls) == 2
        assert calls[0] is None
        assert isinstance(calls[1], WalkCheckpoint)
        assert registry.counter("resilience_worker_crashes_total").value == 1
        assert response.result.best.key() == fault_free_key(hw)


class TestDeadlineFailFast:
    def test_expired_deadline_skips_attempts(self, hw):
        service, registry = make_service(hw)
        with service:
            response = service.submit(
                gemm(), deadline_s=1e-6
            ).result(timeout=30.0)
        # fail-fast: no compile attempt was bought for a guaranteed miss
        # (zero retries burned); the degraded tiers still answered, and
        # the only dynamic.compile traffic is the async cache backfill
        assert service.stats.snapshot()["retries"] == 0
        assert response.reason == "deadline_exhausted"
        assert (
            registry.total("resilience_deadline_exhausted_total") == 1
        )

    def test_backoff_capped_by_remaining_deadline(self):
        policy = RetryPolicy(
            max_attempts=4, base_backoff_s=10.0, max_backoff_s=10.0,
            jitter=0.5, attempt_timeout_s=30.0,
        )
        free = policy.backoff_s(1, seed=3, family="f")
        capped = policy.backoff_s(1, seed=3, family="f", remaining_s=0.05)
        assert capped <= 0.05
        # the cap trims the sleep *after* the jitter draw, so the jitter
        # stream is consumed identically with and without a deadline
        assert capped == min(free, 0.05)
        assert policy.backoff_s(1, seed=3, family="f", remaining_s=None) == free

    def test_attempt_timeout_bounded_by_remaining(self):
        policy = RetryPolicy(attempt_timeout_s=30.0)
        assert policy.attempt_timeout_for(None) == 30.0
        assert policy.attempt_timeout_for(2.0) == 2.0
        assert policy.attempt_timeout_for(60.0) == 30.0
        unlimited = RetryPolicy(attempt_timeout_s=None)
        assert unlimited.attempt_timeout_for(5.0) == 5.0
        assert unlimited.attempt_timeout_for(None) is None


class TestBenchSurfacing:
    def test_serve_bench_reports_resilience_wasted_states(self):
        plan = FaultPlan(
            faults=(FaultSpec(kind="raise", rate=0.3, attempts=(0,)),),
            seed=0,
        )
        report = run_serve_bench(
            model="bert",
            num_requests=12,
            workers=1,
            window=1,
            seed=0,
            time_scale=0.0,
            # walks long enough to pass the default 64-step cadence
            config=GensorConfig(
                seed=0, num_chains=2, top_k=2, polish_steps=2,
                max_iterations_per_chain=100,
            ),
            fault_plan=plan,
            retry=FAST_RETRY,
        )
        for key in ("wasted_states", "checkpoints", "checkpoint_resumes"):
            assert key in report.resilience
            assert report.resilience[key] >= 0
        assert report.resilience["checkpoints"] > 0
        # retried attempts hand their checkpoints to the walk
        assert report.resilience["checkpoint_resumes"] > 0
        assert report.to_json()["resilience"] == report.resilience

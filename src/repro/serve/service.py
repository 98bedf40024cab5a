"""CompileService: the multi-tenant front-end over DynamicGensor.

Request lifecycle (documented in README/DESIGN "Serving"):

1. **admit** — :meth:`CompileService.submit` either attaches the request to
   an identical in-flight compilation (single-flight), enqueues it on the
   bounded worker pool, or rejects it with a reason when saturated.
2. **coalesce** — followers of an in-flight key never occupy a queue slot
   or a worker; they resolve when the leader lands, tagged ``coalesced``.
3. **serve-tier selection** — a worker serves the request from the best
   tier its deadline affords: exact cache hit, then the normal
   :class:`~repro.core.dynamic.DynamicGensor` hit/warm/cold path; when the
   remaining deadline cannot fit the (EMA-estimated) cost of a cold
   construction, it degrades to a cache-nearest warm start with a reduced
   polish budget, then to the best canonical seed state.
4. **resilience** (DESIGN "Resilience") — each compile attempt runs under
   a cooperative per-attempt deadline token and a per-family circuit
   breaker; failed attempts are retried with jittered exponential backoff,
   exhausted or breaker-shed requests fall back to the degraded tiers,
   worker threads killed mid-request are respawned by the supervised pool
   and the in-flight ticket is requeued, and every failure event (retry,
   breaker transition, crash, respawn) is emitted through the metrics
   registry and tracer.
5. **stats** — every outcome is recorded in :class:`ServiceStats`.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from dataclasses import replace

from repro.core.cache import (
    CachedSchedule,
    ScheduleCache,
    family_fingerprint,
    group_fingerprint,
)
from repro.core.constructor import GensorConfig, GensorResult
from repro.core.dynamic import DynamicGensor
from repro.core.score import program_cost_s
from repro.hardware.spec import HardwareSpec
from repro.ir.compute import ComputeDef
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience.breaker import BreakerBoard, BreakerConfig
from repro.resilience.checkpoint import (
    Checkpointer,
    CheckpointPolicy,
    WalkCheckpoint,
)
from repro.resilience.deadline import CancelToken, CompileCancelled
from repro.resilience.faults import (
    FaultInjector,
    FaultyMeasurer,
    InjectedWorkerCrash,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import SupervisedWorkerPool
from repro.serve.request import CompileRequest, CompileResponse, ServeTicket
from repro.serve.singleflight import SingleFlight
from repro.serve.stats import ServiceStats
from repro.sim.measure import MICROBENCH_SECONDS, Measurer

__all__ = ["CompileService"]

#: a crashing request is requeued at most this many times before failing.
MAX_CRASH_REQUEUES = 3


class CompileService:
    """Concurrent compile serving over one device's DynamicGensor stack.

    Args:
        hardware: the device requests are optimized for.
        config: construction budget for cold compilations.
        workers: worker-thread count.
        queue_capacity: bounded backlog; admission rejects beyond it.
        cache: shared/persisted tuning database (fresh one by default).
        warm_polish_steps: polish budget of the normal warm tier.
        degraded_polish_steps: reduced budget of the degraded warm tier.
        measurer_factory: builds the per-request measurer (benchmarks pass
            one with ``time_scale > 0`` so profiling cost elapses in real
            time); defaults to a noise-free micro-benchmark measurer.
        cold_cost_estimate_s: initial guess of a cold construction's wall
            cost, refined by an EMA of observed colds; deadline degradation
            triggers when the remaining budget falls below the estimate.
        registry: metrics sink (queue-wait histogram, tier counters, cold
            cost gauge, resilience counters); the process-wide registry by
            default.
        tracer: optional event sink for per-request serve events (tier
            decision, queue wait, coalesced follower count, retries,
            breaker transitions, respawns).
        retry: per-attempt retry policy (backoff, jitter, attempt
            timeout); the defaults retry twice with a 30 s cooperative
            per-attempt deadline.
        breaker: per-operator-family circuit-breaker thresholds.
        fault_injector: optional chaos hook — a seeded
            :class:`~repro.resilience.faults.FaultInjector` consulted once
            per compile attempt (``serve-bench --faults``).
        stall_timeout_s: supervised-pool heartbeat staleness after which a
            busy worker is declared stuck, abandoned, and replaced.
        checkpoint_policy: cadence of mid-walk checkpoints (defaults to
            :class:`~repro.resilience.checkpoint.CheckpointPolicy`).  Every
            cold construction walk, a bare operator's or a fusion group's,
            runs under a :class:`~repro.resilience.checkpoint.Checkpointer`
            so a crashed or timed-out attempt resumes from its last
            checkpoint instead of restarting the walk.
        checkpoint_sink: optional callable ``(request, checkpoint)``
            invoked on every checkpoint — fleet shards persist them to a
            shared :class:`~repro.resilience.checkpoint.CheckpointStore`
            here so a checkpoint survives losing the whole process.
    """

    def __init__(
        self,
        hardware: HardwareSpec,
        config: GensorConfig | None = None,
        *,
        workers: int = 4,
        queue_capacity: int = 64,
        cache: ScheduleCache | None = None,
        warm_polish_steps: int = 40,
        warm_pool: int = 3,
        degraded_polish_steps: int = 8,
        measurer_factory=None,
        cold_cost_estimate_s: float = 1.0,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        retry: RetryPolicy | None = None,
        breaker: BreakerConfig | None = None,
        fault_injector: FaultInjector | None = None,
        stall_timeout_s: float = 30.0,
        checkpoint_policy: CheckpointPolicy | None = None,
        checkpoint_sink=None,
    ) -> None:
        self.hw = hardware
        self.dynamic = DynamicGensor(
            hardware,
            config,
            cache=cache,
            warm_polish_steps=warm_polish_steps,
            warm_pool=warm_pool,
        )
        self.degraded_polish_steps = degraded_polish_steps
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = ServiceStats(registry=self.registry)
        self._measurer_factory = measurer_factory or (
            lambda: Measurer(
                hardware,
                seed=self.dynamic.config.seed,
                noise_sigma=0.0,
                seconds_per_measurement=MICROBENCH_SECONDS,
            )
        )
        #: shared metrics memo (the DynamicGensor's constructor owns it), so
        #: degraded-tier pricing reuses everything the walks already priced.
        self._memo = self.dynamic.memo
        self._flight = SingleFlight()
        self._retry = retry if retry is not None else RetryPolicy()
        self._breakers = BreakerBoard(
            breaker, on_transition=self._on_breaker_transition
        )
        self._injector = fault_injector
        self._ckpt_policy = (
            checkpoint_policy if checkpoint_policy is not None
            else CheckpointPolicy()
        )
        self._ckpt_sink = checkpoint_sink
        self._pool = SupervisedWorkerPool(
            workers=workers,
            capacity=queue_capacity,
            stall_timeout_s=stall_timeout_s,
            on_respawn=self._on_worker_respawn,
        )
        self._cold_lock = threading.Lock()
        self._cold_estimate_s = cold_cost_estimate_s
        #: cold-stampede protection: one cold construction per operator
        #: family at a time, so concurrent near shapes warm-start off the
        #: first winner instead of all paying the cold cost.
        self._family_locks: dict[str, threading.Lock] = {}
        self._family_guard = threading.Lock()
        #: shapes with a background compile-ahead pending (dedup set).
        self._backfills: set[str] = set()
        self._backfill_guard = threading.Lock()
        self._closed = False

    # -- public surface ----------------------------------------------------------

    @property
    def cache(self) -> ScheduleCache:
        return self.dynamic.cache

    @property
    def breakers(self) -> BreakerBoard:
        """Per-family circuit breakers (read-mostly; tests and reports)."""
        return self._breakers

    @property
    def pool(self) -> SupervisedWorkerPool:
        """The supervised worker pool (respawn counters live here)."""
        return self._pool

    @property
    def cold_cost_estimate_s(self) -> float:
        """Current EMA estimate of one cold construction's wall cost."""
        with self._cold_lock:
            return self._cold_estimate_s

    def submit(
        self,
        compute: ComputeDef,
        deadline_s: float | None = None,
        priority: int = 0,
        checkpoint: WalkCheckpoint | None = None,
        epilogues: tuple = (),
    ) -> ServeTicket:
        """Admit one request; always returns a ticket (rejections resolve
        immediately with ``tier="rejected"`` and a reason).

        ``checkpoint`` seeds the request with a walk checkpoint from an
        earlier incarnation (fleet shard respawn) — the first cold attempt
        resumes from it instead of restarting, after validating it against
        the request's operator, pool and this service's config.

        ``epilogues`` carries a program fusion group's pool: the walk then
        explores fusing those ops into this kernel.  Fused requests must
        not coalesce with the bare kernel (their winners differ), so the
        single-flight key is the group key
        (:func:`~repro.core.cache.group_fingerprint`), as in the cache.
        """
        epilogues = tuple(epilogues)
        request = CompileRequest(
            compute=compute,
            deadline_s=deadline_s,
            priority=priority,
            checkpoint=checkpoint,
            epilogues=epilogues,
        )
        ticket = ServeTicket(request)
        self.stats.record_submitted()
        key = f"{self.hw.name}/{group_fingerprint(compute, epilogues)}"
        if self._flight.attach_or_lead(key, ticket):
            return ticket  # follower: resolved by the leader's completion
        try:
            self._pool.submit_nowait(
                lambda: self._serve(key, ticket), priority=priority
            )
        except queue.Full:
            self._refuse(key, ticket, "queue_full")
        except RuntimeError:
            self._refuse(key, ticket, "shutting_down")
        return ticket

    def serve(
        self,
        compute: ComputeDef,
        deadline_s: float | None = None,
        priority: int = 0,
        timeout: float | None = None,
    ) -> CompileResponse:
        """Synchronous convenience: submit and wait."""
        return self.submit(compute, deadline_s, priority).result(timeout)

    def compile_program(
        self,
        graph,
        fusion: bool = True,
        deadline_s: float | None = None,
        priority: int = 0,
        timeout: float | None = None,
    ):
        """Compile a whole :class:`~repro.models.graph.ModelGraph` as one
        program: every fusion group (with its epilogue pool) goes through
        :meth:`submit`, and :func:`~repro.serve.program.serve_program`
        assembles the :class:`~repro.serve.program.ProgramResponse`."""
        from repro.serve.program import ProgramRequest, serve_program

        request = ProgramRequest.from_graph(
            graph, fusion=fusion, deadline_s=deadline_s, priority=priority
        )
        return serve_program(
            self.submit,
            request,
            timeout=timeout,
            tracer=self.tracer,
            registry=self.registry,
        )

    def close(self) -> None:
        """Drain admitted work (including backfills), stop the workers and
        the supervisor.  Idempotent.

        Backfills scheduled just before ``close()`` either land inside the
        drain or were refused admission atomically by the pool — no thread
        outlives the shutdown except workers abandoned mid-hang, whose
        count is reported via ``serve_leaked_workers``.
        """
        if not self._closed:
            self._closed = True
            leaked = self._pool.shutdown(wait=True)
            if leaked:
                self.registry.gauge("serve_leaked_workers").set(leaked)
            with self._backfill_guard:
                self._backfills.clear()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- failure-event sinks -----------------------------------------------------

    def _on_worker_respawn(self, reason: str) -> None:
        self.stats.record_respawn()
        self.registry.counter(
            "resilience_worker_respawns_total", reason=reason
        ).inc()
        if self.tracer.enabled:
            self.tracer.emit("worker_respawn", {"reason": reason})

    def _on_breaker_transition(self, family: str, old: str, new: str) -> None:
        if new == "open":
            self.stats.record_breaker_open()
        self.registry.counter(
            "resilience_breaker_transitions_total", family=family, to=new
        ).inc()
        if self.tracer.enabled:
            self.tracer.emit(
                "breaker", {"family": family, "from": old, "to": new}
            )

    # -- worker path -------------------------------------------------------------

    def _refuse(
        self, key: str, ticket: ServeTicket, reason: str, tier: str = "rejected"
    ) -> None:
        """Reject the would-be leader and anyone who attached meanwhile."""
        followers = self._flight.complete(key)
        for t in (ticket, *followers):
            response = CompileResponse(
                request_id=t.request.request_id,
                tier=tier,
                ok=False,
                reason=reason,
                coalesced=t is not ticket,
                deadline_s=t.request.deadline_s,
            )
            t.fulfill(response)
            self.stats.record(response)

    def _serve(self, key: str, ticket: ServeTicket) -> None:
        """Worker entry: compile, then resolve the leader and followers."""
        request = ticket.request
        queue_wait = time.perf_counter() - request.submitted_at
        self.registry.histogram("serve_queue_wait_seconds").observe(queue_wait)
        try:
            response = self._compile(request)
        except InjectedWorkerCrash:
            # The worker thread is about to die (the supervisor will
            # respawn it); hand the ticket back to the queue first so the
            # request survives the crash.
            self._requeue_after_crash(key, ticket)
            raise
        except Exception as exc:  # repro: ignore[broad-except] - never kill a worker thread
            # Deliberate safety net: any compile failure becomes a failed
            # response instead of a dead worker.  Counted by kind so a
            # surge of one exception class is visible on the registry.
            self.registry.counter(
                "serve_unhandled_errors_total", kind=type(exc).__name__
            ).inc()
            response = CompileResponse(
                request_id=request.request_id,
                tier="failed",
                ok=False,
                reason=f"{type(exc).__name__}: {exc}",
                deadline_s=request.deadline_s,
            )
        result = response.result
        if result is not None:
            # The portable answer programs and the fleet wire read;
            # followers share it through ``replace`` below.
            response.schedule = CachedSchedule.priced(
                result.best, result.best_metrics.latency_s, self.hw
            )
        response.service_latency_s = time.perf_counter() - request.submitted_at
        followers = self._flight.complete(key)
        ticket.fulfill(response)
        self.stats.record(response)
        if self.tracer.enabled:
            self.tracer.emit(
                "serve",
                {
                    "request_id": request.request_id,
                    "compute": request.compute.name,
                    "tier": response.tier,
                    "queue_wait_s": queue_wait,
                    "coalesced_followers": len(followers),
                },
                dur=response.service_latency_s,
            )
        now = time.perf_counter()
        for f in followers:
            shared = replace(
                response,
                request_id=f.request.request_id,
                coalesced=True,
                deadline_s=f.request.deadline_s,
                service_latency_s=now - f.request.submitted_at,
            )
            f.fulfill(shared)
            self.stats.record(shared)

    def _requeue_after_crash(self, key: str, ticket: ServeTicket) -> None:
        request = ticket.request
        request.crashes += 1
        self.registry.counter("resilience_worker_crashes_total").inc()
        if self.tracer.enabled:
            self.tracer.emit(
                "worker_crash",
                {"request_id": request.request_id, "crashes": request.crashes},
            )
        if request.crashes <= MAX_CRASH_REQUEUES:
            try:
                self._pool.submit_nowait(
                    lambda: self._serve(key, ticket),
                    priority=request.priority,
                )
                return
            except (queue.Full, RuntimeError):
                pass
        self._refuse(key, ticket, "worker_crash", tier="failed")

    # -- resilience orchestration ------------------------------------------------

    def _compile(self, request: CompileRequest) -> CompileResponse:
        """Retry/breaker wrapper: attempts, then degraded-tier shedding."""
        compute = request.compute
        family = family_fingerprint(compute)
        breaker = self._breakers.for_family(family)
        last_reason: str | None = None
        shed_by_breaker = False
        for attempt in range(self._retry.max_attempts):
            if not breaker.allow():
                last_reason = "circuit_open"
                shed_by_breaker = True
                self.registry.counter("resilience_breaker_shed_total").inc()
                break
            remaining = request.remaining_s()
            if remaining is not None and remaining <= 0.0:
                # The deadline died between attempts (usually eaten by a
                # backoff sleep the cap could not shrink to zero soon
                # enough, or a slow failed attempt).  Retrying would serve
                # a guaranteed miss — fail fast into the degraded tiers.
                last_reason = "deadline_exhausted"
                self.registry.counter(
                    "resilience_deadline_exhausted_total", family=family
                ).inc()
                break
            # The fixed per-attempt timeout is capped by the request's
            # remaining deadline: an attempt never outlives its request.
            token = CancelToken.after_bounded(
                self._retry.attempt_timeout_s, remaining
            )
            checkpointer = self._make_checkpointer(request)
            try:
                response = self._attempt(request, attempt, token, checkpointer)
            except InjectedWorkerCrash:
                breaker.record_failure()
                self._note_wasted(request, checkpointer)
                raise
            except Exception as exc:  # repro: ignore[broad-except] - retry boundary; CompileCancelled included
                # Any attempt failure (including CompileCancelled) feeds
                # the breaker and the retry loop; counted as
                # resilience_retries_total below, re-raised as a failed
                # response when attempts are exhausted.
                breaker.record_failure()
                self._note_wasted(request, checkpointer)
                last_reason = f"{type(exc).__name__}: {exc}"
                self.stats.record_retry()
                self.registry.counter(
                    "resilience_retries_total", family=family
                ).inc()
                backoff = 0.0
                if attempt + 1 < self._retry.max_attempts:
                    backoff = self._retry.backoff_s(
                        attempt,
                        seed=self.dynamic.config.seed,
                        family=family,
                        remaining_s=request.remaining_s(),
                    )
                if self.tracer.enabled:
                    self.tracer.emit(
                        "retry",
                        {
                            "request_id": request.request_id,
                            "family": family,
                            "attempt": attempt,
                            "reason": last_reason,
                            "backoff_s": backoff,
                        },
                    )
                if backoff > 0.0:
                    time.sleep(backoff)
                continue
            breaker.record_success()
            return response
        # Attempts exhausted or family breaker open: shed to the degraded
        # tiers — a worse schedule beats no schedule, and degraded answers
        # are analytically cheap so a poisoned family stops burning workers.
        served = self._degraded(
            compute, self._measurer_factory(), request.epilogues
        )
        if served is not None:
            result, tier = served
            if not shed_by_breaker:
                # Transient failure: schedule the full construction in the
                # background so repeats of this shape heal to a cache hit.
                # Breaker-shed families skip backfill — it would burn the
                # workers the breaker just protected.
                self._schedule_backfill(compute, request.epilogues)
            return CompileResponse(
                request_id=request.request_id,
                tier=tier,
                ok=True,
                result=result,
                reason=last_reason,
                deadline_s=request.deadline_s,
            )
        return CompileResponse(
            request_id=request.request_id,
            tier="failed",
            ok=False,
            reason=last_reason or "compile attempts exhausted",
            deadline_s=request.deadline_s,
        )

    # -- checkpoint plumbing -----------------------------------------------------

    def _make_checkpointer(self, request: CompileRequest) -> Checkpointer:
        """A fresh per-attempt checkpointer feeding ``request.checkpoint``."""
        return Checkpointer(
            self._ckpt_policy,
            sink=lambda cp: self._on_checkpoint(request, cp),
        )

    def _on_checkpoint(
        self, request: CompileRequest, checkpoint: WalkCheckpoint
    ) -> None:
        """Bank a mid-walk checkpoint on the request it serves.

        The request object itself carries the checkpoint across crash
        requeues (``_requeue_after_crash`` resubmits the same object), so
        in-process recovery needs no store; the optional sink persists it
        for process-loss recovery (fleet shards).
        """
        request.checkpoint = checkpoint
        self.registry.counter("resilience_checkpoints_total").inc()
        if self._ckpt_sink is not None:
            self._ckpt_sink(request, checkpoint)

    def _note_wasted(
        self, request: CompileRequest, checkpointer: Checkpointer
    ) -> None:
        """Account walk steps lost to a failed/crashed attempt.

        Wasted = steps the attempt walked past its last checkpoint — the
        recompute a resume must repay, bounded by one checkpoint interval
        per failure.
        """
        wasted = checkpointer.wasted_states()
        if wasted <= 0:
            return
        self.registry.counter("resilience_wasted_states_total").inc(wasted)
        if self.tracer.enabled:
            self.tracer.emit(
                "wasted_recompute",
                {"request_id": request.request_id, "states": wasted},
            )

    def _attempt(
        self,
        request: CompileRequest,
        attempt: int,
        token: CancelToken,
        checkpointer: Checkpointer,
    ) -> CompileResponse:
        """One compile attempt (the pre-resilience serve-tier logic)."""
        compute = request.compute
        epilogues = request.epilogues
        group_key = group_fingerprint(compute, epilogues)
        measurer = self._measurer_factory()
        resume: WalkCheckpoint | None = None
        cp = request.checkpoint
        if isinstance(cp, WalkCheckpoint):
            if cp.matches(compute, self.dynamic.config, epilogues):
                resume = cp
            else:
                # Stale or foreign checkpoint (config drift, another group
                # or operator name): drop it and restart clean rather
                # than resume wrongly.
                request.checkpoint = None
                self.registry.counter(
                    "resilience_checkpoint_rejected_total"
                ).inc()
        if self._injector is not None:
            spec = self._injector.draw(
                family_fingerprint(compute), attempt, key=group_key
            )
            if spec is not None:
                if spec.kind == "corrupt-cache":
                    self.cache.corrupt(group_key)
                else:
                    measurer = FaultyMeasurer(measurer, spec, token)
        remaining = request.remaining_s()
        degrade = (
            remaining is not None
            and remaining < self.cold_cost_estimate_s
            and self.cache.get(compute, epilogues) is None
        )
        if degrade:
            served = self._degraded(compute, measurer, epilogues)
            if served is not None:
                result, tier = served
                # Compile-ahead: a degraded answer is a promise, not an end
                # state — schedule the full construction in the background
                # (lowest priority) so repeats of this shape hit the cache.
                self._schedule_backfill(compute, epilogues)
                return CompileResponse(
                    request_id=request.request_id,
                    tier=tier,
                    ok=True,
                    result=result,
                    deadline_s=request.deadline_s,
                )
            # No neighbor and no feasible seed: a cold construction is the
            # only correct answer — serve it late rather than not at all.
        if resume is not None:
            # Handed to the walk, which seeds the checkpointer's offsets
            # itself when it actually resumes (a cache hit never walks).
            self.registry.counter("resilience_checkpoint_resumes_total").inc()
        t0 = time.perf_counter()
        looks_cold = (
            self.cache.get(compute, epilogues) is None
            and self.cache.nearest(compute, epilogues) is None
        )
        # A group that looks cold serializes per family, so a stampede of
        # near shapes produces one cold construction plus warm starts, not
        # N colds.  DynamicGensor re-checks the cache once the lock is
        # held, so waiters land on the warm path.
        with (
            self._family_lock(family_fingerprint(compute, epilogues))
            if looks_cold
            else contextlib.nullcontext()
        ):
            dyn = self.dynamic.compile(
                compute,
                measurer,
                cancel=token,
                resume_from=resume,
                checkpointer=checkpointer,
                epilogues=epilogues,
            )
        if dyn.source == "cold":
            self._observe_cold(time.perf_counter() - t0)
        return CompileResponse(
            request_id=request.request_id,
            tier=dyn.source,
            ok=True,
            result=dyn.result,
            deadline_s=request.deadline_s,
        )

    def _degraded(
        self, compute: ComputeDef, measurer, epilogues: tuple = ()
    ) -> tuple[GensorResult, str] | None:
        """Deadline/failure fallbacks, best first: reduced-polish warm, seed.

        A fusion group (``epilogues``) warm-starts from the nearest entry
        of its own anchor and pool families, like DynamicGensor's warm
        tier; both tiers rank by program cost
        (:func:`~repro.core.score.program_cost_s`).
        """
        t0 = time.perf_counter()
        gensor = self.dynamic.gensor
        neighbor = self.cache.nearest(compute, epilogues)
        if neighbor is not None:
            warm = neighbor.instantiate(compute, epilogues)
            if warm is not None and warm.memory_ok(self.hw):
                measured_before = measurer.simulated_seconds
                (refined,) = gensor.polish(
                    [warm], self.degraded_polish_steps, frozenset()
                )
                metrics = measurer.measure(refined)
                self.cache.put(refined, metrics.latency_s)
                return (
                    GensorResult(
                        best=refined,
                        best_metrics=metrics,
                        top_results=[refined],
                        iterations=0,
                        states_visited=1,
                        compile_wall_s=time.perf_counter() - t0,
                        simulated_measure_s=measurer.simulated_seconds
                        - measured_before,
                    ),
                    "degraded_warm",
                )
        seeds = [
            s
            for s in gensor.seed_states(compute, epilogues)
            if s.memory_ok(self.hw)
        ]
        if not seeds:
            return None
        seed_lats = self._memo.latency_batch(self.hw, seeds)
        costs = [
            program_cost_s(s, lat, self.hw) for s, lat in zip(seeds, seed_lats)
        ]
        best = seeds[min(range(len(seeds)), key=costs.__getitem__)]
        # Purely analytical pick — not even one micro-benchmark round, so
        # the tightest deadlines still get a schedule in milliseconds.  Not
        # cached: seed quality would pollute future warm starts.
        metrics = self._memo.evaluate(self.hw, best)
        return (
            GensorResult(
                best=best,
                best_metrics=metrics,
                top_results=[best],
                iterations=0,
                states_visited=len(seeds),
                compile_wall_s=time.perf_counter() - t0,
                simulated_measure_s=0.0,
            ),
            "degraded_seed",
        )

    def _schedule_backfill(
        self, compute: ComputeDef, epilogues: tuple = ()
    ) -> None:
        """Queue a background full compile for a degraded-served group.

        Deduplicated per group key and shed outright when the pool is
        saturated or shutting down — backfill must never displace tenant
        traffic, and admission is atomic against :meth:`close` so a
        backfill scheduled during shutdown is refused instead of leaking
        into a stopped pool.
        """
        key = group_fingerprint(compute, epilogues)
        with self._backfill_guard:
            if key in self._backfills:
                return
            self._backfills.add(key)

        def run() -> None:
            try:
                if self.cache.get(compute, epilogues) is None:
                    t0 = time.perf_counter()
                    with self._family_lock(
                        family_fingerprint(compute, epilogues)
                    ):
                        dyn = self.dynamic.compile(
                            compute,
                            self._measurer_factory(),
                            epilogues=epilogues,
                        )
                    if dyn.source == "cold":
                        self._observe_cold(time.perf_counter() - t0)
                self.stats.record_backfill()
            finally:
                with self._backfill_guard:
                    self._backfills.discard(key)

        try:
            self._pool.submit_nowait(run, priority=-(1 << 30))
        except (queue.Full, RuntimeError):
            with self._backfill_guard:
                self._backfills.discard(key)

    def _family_lock(self, family: str) -> threading.Lock:
        with self._family_guard:
            lock = self._family_locks.get(family)
            if lock is None:
                lock = self._family_locks[family] = threading.Lock()
            return lock

    def _observe_cold(self, wall_s: float) -> None:
        with self._cold_lock:
            self._cold_estimate_s = 0.7 * self._cold_estimate_s + 0.3 * wall_s
            estimate = self._cold_estimate_s
        self.registry.gauge("serve_cold_cost_estimate_s").set(estimate)
        self.registry.histogram("serve_cold_wall_seconds").observe(wall_s)

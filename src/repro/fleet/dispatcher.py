"""FleetDispatcher: the multi-process front-end over shard processes.

Scale-out layer of the serving stack (DESIGN §11).  One dispatcher owns
``processes`` shard processes (:mod:`repro.fleet.shard`), each a full
single-process CompileService; requests are routed family-sticky
(:mod:`repro.fleet.routing`) over per-shard FIFO queues and completions
come back on a per-shard response queue, one per process incarnation.

The dispatcher reuses the serving layer's semantics wholesale:

* **fleet-wide single-flight** — the same
  :class:`~repro.serve.singleflight.SingleFlight` keyed by
  ``(device, group_fingerprint)`` guards admission, so duplicate
  in-flight shapes are deduped *before* they cross a process boundary;
  followers share the leader's wire response.
* **tickets** — :meth:`submit` returns the familiar
  :class:`~repro.serve.request.ServeTicket`; results are
  :class:`FleetResponse` objects carrying portable
  :class:`~repro.core.cache.CachedSchedule` payloads.
* **supervision** — a supervisor thread watches shard processes the way
  :class:`~repro.resilience.supervisor.SupervisedWorkerPool` watches its
  threads.  A dead shard is respawned on *fresh* queues: a process that
  dies mid-``put`` can leave a partial frame in its pipe, so the old
  incarnation's queues are abandoned wholesale rather than reused, and
  every unanswered request routed to the shard is re-sent on the new
  pipe, bounded by ``max_resends``.  Late duplicate responses from the
  old incarnation are dropped by request id.
* **shared cache** — every shard syncs its ScheduleCache against one
  on-disk database under an advisory file lock, so a family compiled on
  one shard warms its siblings after the next replication tick (and
  respawned shards boot warm).
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import threading
import time
from dataclasses import dataclass, replace
from typing import cast

from repro.core.cache import (
    CachedSchedule,
    family_fingerprint,
    group_fingerprint,
)
from repro.fleet.routing import FamilyRouter
from repro.fleet.shard import (
    ShardBye,
    ShardOptions,
    ShardReady,
    ShardStats,
    WireControl,
    WireRequest,
    WireResponse,
    run_shard,
)
from repro.ir.compute import ComputeDef
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.resilience.checkpoint import CheckpointStore
from repro.serve.request import CompileRequest, ServeTicket
from repro.serve.singleflight import SingleFlight

__all__ = ["FleetDispatcher", "FleetResponse", "MAX_SHARD_RESENDS"]

#: a request is re-sent after at most this many shard crashes before the
#: dispatcher fails it (mirrors the in-process MAX_CRASH_REQUEUES).
MAX_SHARD_RESENDS = 3


@dataclass
class FleetResponse:
    """The fleet's answer: a serve-tier-tagged portable schedule."""

    request_id: int
    tier: str
    ok: bool
    shard: int = -1
    #: portable tile configuration of the served schedule with its kernel
    #: latency, fused count and pending-epilogue cost (``None`` for
    #: rejected/failed); ``schedule.instantiate(compute)`` rebuilds ETIR.
    schedule: CachedSchedule | None = None
    reason: str | None = None
    coalesced: bool = False
    #: submission-to-completion wall clock for *this* request.
    service_latency_s: float = 0.0
    deadline_s: float | None = None
    #: compile cost (wall + simulated profiling) inside the shard.
    compile_seconds: float = 0.0

    @property
    def degraded(self) -> bool:
        return self.tier.startswith("degraded")

    @property
    def kernel_latency_s(self) -> float | None:
        """Predicted kernel latency of the served schedule."""
        return None if self.schedule is None else self.schedule.latency_s

    @property
    def fused(self) -> int:
        """Program fusion: pool epilogues the winning schedule fused."""
        return 0 if self.schedule is None else self.schedule.fused

    @property
    def pending_cost_s(self) -> float:
        """Standalone cost of the pool epilogues the winner left unfused."""
        return 0.0 if self.schedule is None else self.schedule.pending_s

    def schedule_key(self) -> tuple | None:
        """Canonical comparable summary (the serve-bench parity key)."""
        if self.schedule is None:
            return None
        return (
            tuple(sorted(self.schedule.block_tiles.items())),
            tuple(sorted(self.schedule.thread_tiles.items())),
        )


@dataclass
class _InFlight:
    key: str
    wire: WireRequest
    shard: int
    ticket: ServeTicket
    deadline_s: float | None


class FleetDispatcher:
    """Sharded multi-process compile fleet behind one submit() surface.

    Args:
        options: per-shard serving recipe (device, construction config,
            worker threads, shared cache path, autoscale policy, ...).
        processes: shard process count.
        routing: family placement policy (``"hash"`` or ``"least-loaded"``).
        registry: dispatcher-side metrics sink (process-wide by default).
        max_resends: crash-requeue bound per request.
        start_timeout_s: budget for all shards to report ready at boot.
        supervise_interval_s: dead-shard poll period.
    """

    def __init__(
        self,
        options: ShardOptions,
        processes: int = 4,
        *,
        routing: str = "hash",
        registry: MetricsRegistry | None = None,
        max_resends: int = MAX_SHARD_RESENDS,
        start_timeout_s: float = 120.0,
        supervise_interval_s: float = 0.2,
    ) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.options = options
        self.processes = processes
        self.registry = registry if registry is not None else get_registry()
        self.max_resends = max_resends
        self.supervise_interval_s = supervise_interval_s
        # spawn, not fork: the dispatcher is multi-threaded by the time a
        # crashed shard is respawned, and forking a threaded process can
        # deadlock the child on inherited lock state.
        self._ctx = mp.get_context("spawn")
        # Dispatcher-side view of the shards' shared checkpoint store: a
        # crashed shard's replacement resumes stranded walks from here.
        self._ckpt_store: CheckpointStore | None = (
            CheckpointStore(options.checkpoint_path, registry=self.registry)
            if options.checkpoint_path
            else None
        )
        self._router = FamilyRouter(processes, routing)
        self._flight = SingleFlight()
        self._lock = threading.Lock()
        self._inflight: dict[int, _InFlight] = {}
        self._loads = [0] * processes
        self._shard_stats: dict[int, ShardStats] = {}
        self._ready = threading.Semaphore(0)
        self._closed = False
        self._stopping = threading.Event()
        self.respawns = 0
        # Per-shard, per-incarnation plumbing: queues belong to exactly one
        # process generation and are abandoned (never reused) on respawn —
        # a process dying mid-put can leave a torn frame in its pipe, so
        # crossing incarnations on one pipe risks wedging the reader.
        self._req_qs: list = [None] * processes
        self._collectors: list[tuple[threading.Thread, threading.Event]] = []
        self._procs: list = [None] * processes
        for i in range(processes):
            self._procs[i] = self._spawn(i)
        self._supervisor = threading.Thread(
            target=self._supervise, name="fleet-supervisor", daemon=True
        )
        self._supervisor.start()
        deadline = time.monotonic() + start_timeout_s
        for _ in range(processes):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._ready.acquire(timeout=remaining):
                self.close()
                raise TimeoutError(
                    f"fleet shards not ready within {start_timeout_s}s"
                )

    # -- public surface ----------------------------------------------------------

    @property
    def router(self) -> FamilyRouter:
        return self._router

    def shard_loads(self) -> list[int]:
        """Outstanding (sent, unanswered) request count per shard."""
        with self._lock:
            return list(self._loads)

    def shard_stats(self) -> dict[int, ShardStats]:
        """Latest telemetry message per shard."""
        with self._lock:
            return dict(self._shard_stats)

    def fleet_metrics(self) -> MetricsRegistry:
        """Fresh registry holding the merged view of every shard's metrics
        plus the dispatcher's own (satellite: plain-dict export/merge —
        nothing here pickles a lock)."""
        merged = MetricsRegistry()
        for stats in self.shard_stats().values():
            merged.merge_state(stats.metrics)
        merged.merge_state(self.registry.export_state())
        return merged

    def submit(
        self,
        compute: ComputeDef,
        deadline_s: float | None = None,
        priority: int = 0,
        epilogues: tuple = (),
    ) -> ServeTicket:
        """Admit one request; always returns a ticket.

        ``epilogues`` (a program fusion group's pool) travels on the wire
        with the anchor, and the single-flight key is the group key — a
        fused compilation must never coalesce with the bare kernel's.
        """
        epilogues = tuple(epilogues)
        request = CompileRequest(
            compute=compute, deadline_s=deadline_s, priority=priority,
            epilogues=epilogues,
        )
        ticket = ServeTicket(request)
        if self._closed:
            self._resolve_refused(ticket, "shutting_down")
            return ticket
        key = f"{self.options.device}/{group_fingerprint(compute, epilogues)}"
        if self._flight.attach_or_lead(key, ticket):
            self.registry.counter("fleet_coalesced_total").inc()
            return ticket  # follower: the leader's wire response is shared
        wire = WireRequest(
            request_id=request.request_id,
            compute=compute,
            deadline_s=deadline_s,
            priority=priority,
            epilogues=epilogues,
        )
        shard = self._router.route(
            family_fingerprint(compute), self.shard_loads()
        )
        with self._lock:
            self._inflight[request.request_id] = _InFlight(
                key=key, wire=wire, shard=shard, ticket=ticket,
                deadline_s=deadline_s,
            )
            self._loads[shard] += 1
        self.registry.counter(
            "fleet_requests_total", shard=str(shard)
        ).inc()
        self._req_qs[shard].put(wire)
        return ticket

    def serve(
        self,
        compute: ComputeDef,
        deadline_s: float | None = None,
        priority: int = 0,
        timeout: float | None = None,
    ) -> FleetResponse:
        """Synchronous convenience: submit and wait."""
        return self.submit(compute, deadline_s, priority).result(timeout)

    def serve_program(
        self,
        graph,
        fusion: bool = True,
        deadline_s: float | None = None,
        priority: int = 0,
        timeout: float | None = None,
    ):
        """Compile a whole ModelGraph as one program across the fleet.

        Every group's anchor + epilogue pool goes on the wire through
        :meth:`submit` as an ordinary (family-routed, coalescable)
        request; :func:`~repro.serve.program.serve_program` assembles the
        program from the shards' portable schedules.
        """
        from repro.serve.program import ProgramRequest, serve_program

        request = ProgramRequest.from_graph(
            graph, fusion=fusion, deadline_s=deadline_s, priority=priority
        )
        return serve_program(
            self.submit, request, timeout=timeout, registry=self.registry
        )

    def sync(self) -> None:
        """Ask every shard for an immediate cache sync + stats publication."""
        for q in self._req_qs:
            q.put(WireControl("sync"))

    def close(self, join_timeout_s: float = 60.0) -> None:
        """Stop admission, drain shards, reap processes.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for q in self._req_qs:
            try:
                q.put(WireControl("stop"))
            except (OSError, ValueError):  # pragma: no cover - dead queue
                pass
        # The collectors keep consuming while shards drain — a shard
        # blocked putting its last responses must never deadlock shutdown.
        deadline = time.monotonic() + join_timeout_s
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        self._stopping.set()
        self._supervisor.join(timeout=5.0)
        for thread, stop in self._collectors:
            stop.set()
            thread.join(timeout=5.0)
        # Anything still unanswered is refused, never left hanging.
        with self._lock:
            leftovers = list(self._inflight.values())
            self._inflight.clear()
        for flight in leftovers:
            self._fulfill(
                flight,
                FleetResponse(
                    request_id=flight.wire.request_id,
                    tier="failed",
                    ok=False,
                    reason="shutting_down",
                    deadline_s=flight.deadline_s,
                ),
            )
        for q in self._req_qs:
            q.close()
            q.cancel_join_thread()

    def __enter__(self) -> "FleetDispatcher":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- shard lifecycle ---------------------------------------------------------

    def _spawn(self, shard: int) -> None:
        """Start a fresh incarnation: new queues, new collector, new process."""
        req_q = self._ctx.Queue()
        resp_q = self._ctx.Queue()
        self._req_qs[shard] = req_q
        stop = threading.Event()
        collector = threading.Thread(
            target=self._collect,
            args=(resp_q, stop),
            name=f"fleet-collector-{shard}",
            daemon=True,
        )
        collector.start()
        self._collectors.append((collector, stop))
        proc = self._ctx.Process(
            target=run_shard,
            args=(shard, self.options, req_q, resp_q),
            name=f"fleet-shard-{shard}",
            daemon=True,
        )
        proc.start()
        return proc

    def _supervise(self) -> None:
        while not self._stopping.wait(self.supervise_interval_s):
            if self._closed:
                continue
            for shard, proc in enumerate(self._procs):
                if proc is not None and not proc.is_alive() and not self._closed:
                    self._respawn(shard)

    def _respawn(self, shard: int) -> None:
        self.respawns += 1
        self.registry.counter(
            "fleet_shard_respawns_total", shard=str(shard)
        ).inc()
        # Fresh queues: anything still in the old pipes (including frames
        # torn by the crash) is abandoned.  Every unanswered request for
        # this shard sits in _inflight, so it is re-sent below; a late
        # duplicate answer from the old incarnation is dropped by id.
        self._procs[shard] = self._spawn(shard)
        with self._lock:
            stranded = [
                f for f in self._inflight.values() if f.shard == shard
            ]
        for flight in stranded:
            wire = flight.wire
            if wire.resends >= self.max_resends:
                with self._lock:
                    self._inflight.pop(wire.request_id, None)
                    self._loads[shard] = max(0, self._loads[shard] - 1)
                self._fulfill_with_followers(
                    flight,
                    FleetResponse(
                        request_id=wire.request_id,
                        tier="failed",
                        ok=False,
                        shard=shard,
                        reason="shard_crash",
                        deadline_s=flight.deadline_s,
                    ),
                )
                continue
            resent = replace(wire, resends=wire.resends + 1)
            if self._ckpt_store is not None:
                # Resume, don't restart: attach the crashed incarnation's
                # last persisted checkpoint so the replacement shard
                # continues the walk (wasted recompute is bounded by one
                # checkpoint interval instead of the whole walk so far).
                checkpoint = self._ckpt_store.load(
                    self.options.device,
                    group_fingerprint(
                        cast(ComputeDef, wire.compute), wire.epilogues
                    ),
                )
                if checkpoint is not None:
                    resent = replace(resent, checkpoint=checkpoint)
                    self.registry.counter(
                        "fleet_checkpoint_resumes_total"
                    ).inc()
            with self._lock:
                if wire.request_id in self._inflight:
                    self._inflight[wire.request_id] = replace(
                        flight, wire=resent
                    )
            self._req_qs[shard].put(resent)

    # -- response path -----------------------------------------------------------

    def _collect(self, resp_q, stop: threading.Event) -> None:
        """Drain one incarnation's response queue until told to stop."""
        while True:
            try:
                message = resp_q.get(timeout=0.2)
            except queue_mod.Empty:
                if stop.is_set() or self._stopping.is_set():
                    return
                continue
            except (OSError, ValueError, EOFError):  # pragma: no cover
                return  # queue torn down during shutdown
            if isinstance(message, WireResponse):
                self._on_response(message)
            elif isinstance(message, ShardStats):
                with self._lock:
                    self._shard_stats[message.shard] = message
            elif isinstance(message, ShardReady):
                self._ready.release()
            elif isinstance(message, ShardBye):
                pass

    def _on_response(self, wire: WireResponse) -> None:
        with self._lock:
            flight = self._inflight.pop(wire.request_id, None)
            if flight is not None:
                self._loads[flight.shard] = max(
                    0, self._loads[flight.shard] - 1
                )
        if flight is None:
            # A request resolved twice: a crash-resend answered by both the
            # old and new shard incarnations.  First answer won; drop this.
            self.registry.counter("fleet_duplicate_responses_total").inc()
            return
        response = FleetResponse(
            request_id=wire.request_id,
            tier=wire.tier,
            ok=wire.ok,
            shard=wire.shard,
            schedule=wire.schedule,
            reason=wire.reason,
            deadline_s=flight.deadline_s,
            compile_seconds=wire.compile_seconds,
        )
        self._fulfill_with_followers(flight, response)

    def _fulfill_with_followers(
        self, flight: _InFlight, response: FleetResponse
    ) -> None:
        followers = self._flight.complete(flight.key)
        self._fulfill(flight, response)
        now = time.perf_counter()
        for follower in followers:
            shared = replace(
                response,
                request_id=follower.request.request_id,
                coalesced=True,
                deadline_s=follower.request.deadline_s,
                service_latency_s=now - follower.request.submitted_at,
            )
            follower.fulfill(shared)
            self._record(shared)

    def _fulfill(self, flight: _InFlight, response: FleetResponse) -> None:
        response.service_latency_s = (
            time.perf_counter() - flight.ticket.request.submitted_at
        )
        flight.ticket.fulfill(response)
        self._record(response)

    def _resolve_refused(self, ticket: ServeTicket, reason: str) -> None:
        response = FleetResponse(
            request_id=ticket.request.request_id,
            tier="rejected",
            ok=False,
            reason=reason,
            deadline_s=ticket.request.deadline_s,
        )
        ticket.fulfill(response)
        self._record(response)

    def _record(self, response: FleetResponse) -> None:
        self.registry.counter(
            "fleet_responses_total", tier=response.tier
        ).inc()
        self.registry.histogram("fleet_latency_seconds").observe(
            response.service_latency_s
        )

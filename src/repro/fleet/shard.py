"""Shard process: one CompileService behind a request pipe.

A shard is a whole single-process serving stack —
:class:`~repro.serve.service.CompileService` over
:class:`~repro.core.dynamic.DynamicGensor` with its supervised thread
pool, breakers, and retries — wrapped in a process whose only interface
is two ``multiprocessing`` queues:

* the **request queue** carries :class:`WireRequest` /
  :class:`WireControl` messages from the dispatcher (FIFO, which is what
  preserves per-family determinism under family-sticky routing);
* the **response queue** carries :class:`WireResponse` completions plus
  lifecycle/telemetry messages (:class:`ShardReady`, :class:`ShardStats`,
  :class:`ShardBye`).

Everything on the wire is plain picklable data: schedules travel as
:class:`~repro.core.cache.CachedSchedule` (shape-independent tile
configuration), never as live ETIR states.

The shard also runs the two fleet-local control loops: a **replicator**
thread that periodically :meth:`~repro.core.cache.ScheduleCache.sync`'s
the in-memory cache with the shared on-disk database (publishing this
shard's winners, pulling in siblings') and ships a metrics export to the
dispatcher, and an optional :class:`~repro.fleet.autoscale.Autoscaler`
that grows/shrinks the worker-thread roster from queue-wait signals.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import cast

from repro.core.cache import CachedSchedule, ScheduleCache, group_fingerprint
from repro.core.constructor import GensorConfig
from repro.fleet.autoscale import AutoscalePolicy, Autoscaler
from repro.hardware import DEVICES
from repro.ir.compute import ComputeDef
from repro.obs.metrics import MetricsRegistry
from repro.resilience.checkpoint import (
    CheckpointPolicy,
    CheckpointStore,
    WalkCheckpoint,
)
from repro.serve.service import CompileService
from repro.sim.measure import MICROBENCH_SECONDS, Measurer

__all__ = [
    "ShardOptions",
    "WireRequest",
    "WireControl",
    "WireResponse",
    "ShardReady",
    "ShardStats",
    "ShardBye",
    "run_shard",
]

#: how long a stopping shard waits for its in-flight requests to land.
_DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ShardOptions:
    """Picklable construction recipe for one shard's serving stack."""

    device: str
    config: GensorConfig = field(default_factory=GensorConfig)
    workers: int = 4
    queue_capacity: int = 128
    warm_polish_steps: int = 40
    warm_pool: int = 3
    #: fraction of simulated profiling cost slept in real time (benchmarks
    #: pass 1.0 so process scaling is wall-clock real).
    time_scale: float = 0.0
    #: shared on-disk ScheduleCache path; ``None`` disables replication.
    cache_path: str | None = None
    #: period of the cache sync + metrics publication loop.
    sync_interval_s: float = 1.0
    #: worker autoscaling policy; ``None`` keeps the roster fixed.
    autoscale: AutoscalePolicy | None = None
    #: shared on-disk CheckpointStore directory; shards persist mid-walk
    #: checkpoints here so the dispatcher can resume a crashed shard's
    #: in-flight walks in its replacement.  ``None`` disables persistence
    #: (in-process crash requeues still resume from memory).
    checkpoint_path: str | None = None
    #: walk-step cadence of mid-walk checkpoints; ``None`` keeps the
    #: service default.  Tests and short construction budgets tighten it
    #: so snapshots actually fire within a tiny walk.
    checkpoint_every: int | None = None


@dataclass(frozen=True)
class WireRequest:
    """One compile ask on the wire (dispatcher -> shard)."""

    request_id: int
    compute: object  # ComputeDef; typed loosely to keep the wire layer thin
    deadline_s: float | None = None
    priority: int = 0
    #: times the dispatcher re-sent this request after a shard crash.
    resends: int = 0
    #: WalkCheckpoint from a crashed incarnation (typed loosely like
    #: ``compute``); the receiving shard's service resumes the walk from
    #: it after validation.
    checkpoint: object | None = None
    #: program fusion: epilogue-pool ComputeDefs the construction walk may
    #: fuse into this operator's kernel (plain picklable IR, like
    #: ``compute``).  Fused requests are cached and checkpointed under
    #: their group key (:func:`~repro.core.cache.group_fingerprint`).
    epilogues: tuple = ()


@dataclass(frozen=True)
class WireControl:
    """Out-of-band shard control.

    ``stop``  — drain in-flight work, publish the cache, exit cleanly.
    ``sync``  — run one cache sync + stats publication now.
    ``crash`` — die immediately via ``os._exit`` (chaos hook for the
    crashed-shard respawn tests, in the spirit of
    :meth:`ScheduleCache.corrupt`).
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("stop", "sync", "crash"):
            raise ValueError(f"unknown control kind {self.kind!r}")


@dataclass(frozen=True)
class WireResponse:
    """One completion on the wire (shard -> dispatcher)."""

    shard: int
    request_id: int
    tier: str
    ok: bool
    reason: str | None = None
    #: the served schedule as a portable tile configuration with its
    #: kernel latency, fused count and pending-epilogue cost (``None`` for
    #: rejected/failed responses); re-instantiable against the ComputeDef.
    schedule: CachedSchedule | None = None
    #: wall time the request spent inside the shard's service.
    shard_latency_s: float = 0.0
    #: compile cost (wall + simulated profiling) of the serving walk.
    compile_seconds: float = 0.0


@dataclass(frozen=True)
class ShardReady:
    shard: int
    pid: int


@dataclass(frozen=True)
class ShardStats:
    """Periodic telemetry: a lossless metrics export plus vitals."""

    shard: int
    metrics: dict
    cache_size: int
    workers: int


@dataclass(frozen=True)
class ShardBye:
    shard: int


def _encode(shard: int, request_id: int, response) -> WireResponse:
    """Flatten a CompileResponse into plain wire data.

    ``request_id`` is the *dispatcher's* id from the WireRequest — the
    shard's CompileService mints its own local ids, which mean nothing
    across the process boundary.
    """
    return WireResponse(
        shard=shard,
        request_id=request_id,
        tier=response.tier,
        ok=response.ok,
        reason=response.reason,
        schedule=response.schedule,
        shard_latency_s=response.service_latency_s,
        compile_seconds=response.compile_seconds,
    )


def run_shard(shard_index: int, options: ShardOptions, req_q, resp_q) -> None:
    """Process entry point: serve ``req_q`` until a ``stop`` control.

    Module-level and fed only picklable arguments so it works under the
    ``spawn`` start method (the fleet's default — safe to use from the
    dispatcher's multi-threaded process, unlike ``fork``).
    """
    hw = DEVICES[options.device]()
    registry = MetricsRegistry()
    # The shard's registry, so quarantines of the shared file reach
    # ``FleetDispatcher.fleet_metrics()``.
    cache = ScheduleCache(hw, registry=registry)
    if options.cache_path:
        # Warm boot: adopt whatever siblings (or a previous life of this
        # shard) already published.
        cache.refresh(options.cache_path)
    ckpt_store: CheckpointStore | None = None
    if options.checkpoint_path:
        ckpt_store = CheckpointStore(options.checkpoint_path, registry=registry)

    def persist_checkpoint(request, checkpoint: WalkCheckpoint) -> None:
        # Persisting is best-effort: a full disk must degrade resume back
        # to restart-from-scratch, never kill the walk it snapshots.
        assert ckpt_store is not None
        try:
            ckpt_store.save(options.device, checkpoint)
        except OSError as exc:
            registry.counter(
                "fleet_checkpoint_errors_total", kind=type(exc).__name__
            ).inc()

    service = CompileService(
        hw,
        options.config,
        workers=options.workers,
        queue_capacity=options.queue_capacity,
        cache=cache,
        warm_polish_steps=options.warm_polish_steps,
        warm_pool=options.warm_pool,
        registry=registry,
        measurer_factory=lambda: Measurer(
            hw,
            seed=options.config.seed,
            noise_sigma=0.0,
            seconds_per_measurement=MICROBENCH_SECONDS,
            time_scale=options.time_scale,
        ),
        checkpoint_sink=persist_checkpoint if ckpt_store is not None else None,
        checkpoint_policy=(
            CheckpointPolicy(every_steps=options.checkpoint_every)
            if options.checkpoint_every is not None
            else None
        ),
    )

    outstanding: set[int] = set()
    drained = threading.Condition()

    def publish() -> None:
        if options.cache_path:
            cache.sync(options.cache_path)
        resp_q.put(
            ShardStats(
                shard=shard_index,
                metrics=registry.export_state(),
                cache_size=len(cache),
                workers=service.pool.num_workers,
            )
        )

    stop_replicator = threading.Event()

    def replicate() -> None:
        while not stop_replicator.wait(options.sync_interval_s):
            try:
                publish()
            except Exception as exc:  # repro: ignore[broad-except] - telemetry must never kill the shard
                registry.counter(
                    "fleet_sync_errors_total", kind=type(exc).__name__
                ).inc()

    replicator = threading.Thread(
        target=replicate, name=f"shard-{shard_index}-replicator", daemon=True
    )
    replicator.start()
    autoscaler = None
    if options.autoscale is not None:
        autoscaler = Autoscaler(
            service.pool, registry, options.autoscale
        ).start()

    def forward(message: WireRequest, ticket) -> None:
        wire_id = message.request_id

        def on_done(response) -> None:
            if response.ok and ckpt_store is not None:
                # The walk landed: its persisted checkpoint is spent.
                # Dropping it keeps a later crash of the *same group* from
                # resuming a finished walk's stale snapshot; a fused group's
                # key never names its bare anchor's checkpoint.
                try:
                    ckpt_store.discard(
                        options.device,
                        group_fingerprint(
                            cast("ComputeDef", message.compute),
                            message.epilogues,
                        ),
                    )
                except OSError as exc:
                    registry.counter(
                        "fleet_checkpoint_errors_total",
                        kind=type(exc).__name__,
                    ).inc()
            resp_q.put(_encode(shard_index, wire_id, response))
            with drained:
                outstanding.discard(wire_id)
                drained.notify_all()

        ticket.add_done_callback(on_done)

    resp_q.put(ShardReady(shard=shard_index, pid=os.getpid()))
    try:
        while True:
            message = req_q.get()
            if isinstance(message, WireControl):
                if message.kind == "crash":
                    os._exit(13)  # die like a SIGKILL: no cleanup, no flush
                if message.kind == "sync":
                    publish()
                    continue
                break  # stop
            registry.counter("fleet_shard_requests_total").inc()
            with drained:
                outstanding.add(message.request_id)
            forward(
                message,
                service.submit(
                    message.compute,
                    deadline_s=message.deadline_s,
                    priority=message.priority,
                    checkpoint=cast(
                        "WalkCheckpoint | None", message.checkpoint
                    ),
                    epilogues=message.epilogues,
                ),
            )
    finally:
        deadline = time.monotonic() + _DRAIN_TIMEOUT_S
        with drained:
            while outstanding and time.monotonic() < deadline:
                drained.wait(timeout=0.25)
        if autoscaler is not None:
            autoscaler.stop()
        stop_replicator.set()
        replicator.join(timeout=5.0)
        service.close()
        try:
            publish()  # final cache publication + stats
        except (OSError, ValueError) as exc:
            # Best-effort on the way out: a failed final publish (cache
            # path gone, queue closed) must not block the goodbye below.
            registry.counter(
                "fleet_sync_errors_total", kind=type(exc).__name__
            ).inc()
        resp_q.put(ShardBye(shard=shard_index))

"""serve-bench: replay a dynamic-shape trace through the compile service.

``python -m repro serve-bench`` drives a closed-loop client over a
synthetic BERT/GPT-2 shape stream (:mod:`repro.models.trace`): up to
``window`` requests are kept outstanding, and each completion admits the
next.  Simulated on-device profiling cost elapses in real time
(``time_scale=1.0``), so the cold-construction-bound workload genuinely
overlaps across workers — the worker-scaling numbers are wall-clock real.

``--faults plan.json`` replays the same trace under a seeded
:class:`~repro.resilience.faults.FaultPlan` (chaos mode): the report then
carries availability (non-error response share) and the resilience
counters (retries, breaker transitions, worker respawns).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from repro.core.cache import shape_fingerprint
from repro.core.constructor import GensorConfig
from repro.hardware import DEVICES
from repro.models.trace import shape_stream, trace_summary
from repro.obs.metrics import MetricsRegistry
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.serve.service import CompileService
from repro.sim.measure import MICROBENCH_SECONDS, Measurer

__all__ = ["BenchReport", "bench_config", "run_serve_bench"]

#: per-ticket wait cap — generous; a stuck service should fail loudly.
_RESULT_TIMEOUT_S = 600.0


def bench_config(seed: int = 0) -> GensorConfig:
    """Serving-grade construction budget.

    One short chain plus seeds and a small polish budget: schedule quality
    stays within a few percent of the full walk on the trace's operator
    family while cold CPU cost drops ~3x, which is what a latency-bound
    service would deploy.
    """
    return GensorConfig(
        seed=seed,
        num_chains=1,
        top_k=3,
        polish_steps=5,
        max_iterations_per_chain=40,
    )


@dataclass
class BenchReport:
    """Outcome of one serve-bench run."""

    model: str
    device: str
    workers: int
    requests: int
    unique_shapes: int
    wall_s: float
    stats: dict
    table: str
    failed: int
    #: share of responses that carried a usable schedule (``ok=True``;
    #: degraded tiers count as available).
    availability: float = 1.0
    #: resilience counters of the run (faults injected, retries, breaker
    #: transitions, worker respawns/crashes).
    resilience: dict = field(default_factory=dict)
    #: ``(shape_fingerprint, schedule_key)`` per request in submission
    #: order, for fault-free vs chaos parity checks; ``schedule_key`` is
    #: ``None`` for responses without a result, else a canonical tile tuple.
    schedules: list = field(default_factory=list)
    #: shape fingerprints that had at least one fault injected (their
    #: schedules are exempt from parity comparisons).
    faulted_keys: frozenset = frozenset()

    @property
    def requests_per_s(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def to_json(self) -> dict:
        """Serializable artifact payload (``BENCH_serve.json``).

        Schedules are summarized, not dumped: the artifact records how the
        service behaved, while parity comparisons use the in-memory report.
        """
        return {
            "bench": "serve",
            "model": self.model,
            "device": self.device,
            "workers": self.workers,
            "requests": self.requests,
            "unique_shapes": self.unique_shapes,
            "wall_s": self.wall_s,
            "requests_per_s": self.requests_per_s,
            "failed": self.failed,
            "availability": self.availability,
            "stats": self.stats,
            "resilience": self.resilience,
            "served_schedules": sum(
                1 for _, key in self.schedules if key is not None
            ),
            "faulted_shapes": len(self.faulted_keys),
        }


def _schedule_key(response) -> tuple | None:
    """Canonical, comparable summary of a response's served schedule."""
    if response.result is None:
        return None
    best = response.result.best
    return (
        tuple(sorted(best.block_tiles().items())),
        tuple(sorted(best.thread_tiles().items())),
    )


def run_serve_bench(
    model: str = "bert",
    num_requests: int = 200,
    workers: int = 8,
    device_name: str = "rtx4090",
    deadline_ms: float | None = None,
    seed: int = 0,
    window: int = 64,
    queue_capacity: int | None = None,
    time_scale: float = 1.0,
    config: GensorConfig | None = None,
    fault_plan: FaultPlan | str | None = None,
    fail_fast: bool = False,
    retry: RetryPolicy | None = None,
) -> BenchReport:
    """Replay ``num_requests`` dynamic-shape requests through the service.

    ``fault_plan`` (a :class:`FaultPlan` or a path to one saved as JSON)
    switches on chaos mode.  ``fail_fast`` aborts the replay on the first
    error response instead of completing the trace.
    """
    if device_name not in DEVICES:
        raise ValueError(
            f"unknown device {device_name!r}; choices: {sorted(DEVICES)}"
        )
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    hw = DEVICES[device_name]()
    trace = shape_stream(model, num_requests=num_requests, seed=seed)
    summary = trace_summary(trace)
    deadline_s = None if deadline_ms is None else deadline_ms / 1e3
    # Each bench run gets its own registry so chaos counters and tier
    # totals describe exactly this replay, not the whole process.
    registry = MetricsRegistry()
    injector = None
    if fault_plan is not None:
        plan = (
            fault_plan
            if isinstance(fault_plan, FaultPlan)
            else FaultPlan.load(fault_plan)
        )
        injector = FaultInjector(plan, registry=registry)
    service = CompileService(
        hw,
        config or bench_config(seed),
        workers=workers,
        queue_capacity=queue_capacity or max(2 * window, 64),
        warm_polish_steps=4,
        warm_pool=2,
        registry=registry,
        fault_injector=injector,
        retry=retry,
        measurer_factory=lambda: Measurer(
            hw,
            seed=seed,
            noise_sigma=0.0,
            seconds_per_measurement=MICROBENCH_SECONDS,
            time_scale=time_scale,
        ),
    )
    responses = []

    def drain_one(outstanding: deque) -> bool:
        response = outstanding.popleft().result(timeout=_RESULT_TIMEOUT_S)
        responses.append(response)
        if fail_fast and not response.ok:
            raise RuntimeError(
                f"request {response.request_id} failed "
                f"(tier {response.tier}): {response.reason}"
            )
        return response.ok

    outstanding: deque = deque()
    t0 = time.perf_counter()
    with service:
        for compute in trace:
            if len(outstanding) >= window:
                drain_one(outstanding)
            outstanding.append(service.submit(compute, deadline_s=deadline_s))
        while outstanding:
            drain_one(outstanding)
        wall = time.perf_counter() - t0
        respawns = dict(service.pool.respawns)
        abandoned = service.pool.abandoned_count()
        breaker_states = service.breakers.states()
    failed = sum(1 for r in responses if not r.ok)
    availability = (
        (len(responses) - failed) / len(responses) if responses else 1.0
    )
    snap = service.stats.snapshot(wall_s=wall)
    wasted_states = registry.total("resilience_wasted_states_total")
    checkpoints = registry.total("resilience_checkpoints_total")
    checkpoint_resumes = registry.total("resilience_checkpoint_resumes_total")
    resilience = {
        "faults_injected": len(injector.log) if injector is not None else 0,
        "retries": snap["retries"],
        "breaker_opens": snap["breaker_opens"],
        "breaker_states": breaker_states,
        "worker_respawns": respawns,
        "workers_abandoned": abandoned,
        "availability": availability,
        # Walk steps re-done because an attempt failed past its last
        # checkpoint; this stays bounded by one checkpoint interval per
        # failure (the chaos CI gate).  Resumes count the checkpoints
        # attempts handed to their walks.
        "wasted_states": wasted_states,
        "checkpoints": checkpoints,
        "checkpoint_resumes": checkpoint_resumes,
    }
    title = (
        f"serve-bench — {model} x{num_requests} "
        f"({summary.unique_shapes} unique shapes), {workers} workers "
        f"on {hw.name}"
        + (" [chaos]" if injector is not None else "")
    )
    return BenchReport(
        model=model,
        device=device_name,
        workers=workers,
        requests=num_requests,
        unique_shapes=summary.unique_shapes,
        wall_s=wall,
        stats=snap,
        table=service.stats.render(wall_s=wall, title=title),
        failed=failed,
        availability=availability,
        resilience=resilience,
        schedules=[
            (shape_fingerprint(c), _schedule_key(r))
            for c, r in zip(
                trace, sorted(responses, key=lambda r: r.request_id)
            )
        ],
        faulted_keys=frozenset(
            injector.faulted_keys() if injector is not None else ()
        ),
    )

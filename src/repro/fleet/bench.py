"""fleet-bench: throughput vs shard-process count on the replay traces.

``python -m repro fleet-bench`` replays the synthetic BERT/GPT-2 dynamic
shape stream (:mod:`repro.models.trace`) through
:class:`~repro.fleet.dispatcher.FleetDispatcher` at increasing process
counts and writes ``BENCH_fleet.json`` — throughput, p50/p95 latency and
tier mix per process count, process-scaling ratios (4v1, 8v1), routing
balance, plus two correctness sections:

* **parity** — a sequential (window=1) replay through the fleet must
  produce request-for-request identical schedules to the single-process
  CompileService on the same trace.  Family-sticky routing pins each
  operator family's request order to one FIFO shard pipe, and families
  never warm-start each other, so the fleet preserves the single-process
  determinism exactly; ``parity.mismatches`` must be 0.
* **autoscale** — a short bursty run with the queue-wait autoscaler
  enabled, reporting scale-up/down event counts and the worker peak.

Scaling here is wall-clock real: each shard's simulated profiling cost
elapses in real time (``time_scale=1.0``) and the construction walks are
CPU-bound Python, so added processes buy both GIL-free CPU parallelism
(on multi-core runners) and deeper profiling overlap.  The CI gate
(``--min-process-scaling``) runs on the quick suite like the SoA
speedup gate of ``bench walk``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.cache import shape_fingerprint
from repro.core.constructor import GensorConfig
from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.dispatcher import FleetDispatcher
from repro.fleet.shard import ShardOptions
from repro.models.trace import shape_stream, trace_summary
from repro.obs.metrics import MetricsRegistry
from repro.serve.stats import percentile

__all__ = ["FleetBenchReport", "fleet_quick_config", "run_fleet_bench"]

#: per-ticket wait cap — generous; a stuck fleet should fail loudly.
_RESULT_TIMEOUT_S = 600.0


def fleet_quick_config(seed: int = 0) -> GensorConfig:
    """CI-grade construction budget: one short chain, minimal polish.

    Small enough that a quick fleet-bench run is profiling-sleep-dominated
    (which is what process scaling overlaps) while still exercising the
    full cold -> warm -> hit tier ladder.
    """
    return GensorConfig(
        seed=seed,
        num_chains=1,
        top_k=2,
        polish_steps=2,
        max_iterations_per_chain=12,
    )


@dataclass
class FleetBenchReport:
    """Outcome of one fleet-bench invocation (the BENCH_fleet payload)."""

    model: str
    device: str
    requests: int
    unique_shapes: int
    workers_per_shard: int
    window: int
    time_scale: float
    quick: bool
    #: str(process_count) -> per-run measurements.
    runs: dict = field(default_factory=dict)
    #: e.g. ``{"4v1": 2.8, "8v1": 4.9}``.
    scaling: dict = field(default_factory=dict)
    parity: dict = field(default_factory=dict)
    autoscale: dict = field(default_factory=dict)
    total_wall_s: float = 0.0

    def to_json(self) -> dict:
        return {
            "bench": "fleet",
            "model": self.model,
            "device": self.device,
            "requests": self.requests,
            "unique_shapes": self.unique_shapes,
            "workers_per_shard": self.workers_per_shard,
            "window": self.window,
            "time_scale": self.time_scale,
            "quick": self.quick,
            "runs": self.runs,
            "process_scaling": self.scaling,
            "parity": self.parity,
            "autoscale": self.autoscale,
            "total_wall_s": self.total_wall_s,
        }

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"fleet-bench — {self.model} x{self.requests} "
            f"({self.unique_shapes} unique shapes), "
            f"{self.workers_per_shard} workers/shard on {self.device}",
            f"{'procs':>5} {'wall_s':>8} {'req/s':>8} "
            f"{'p50_ms':>8} {'p95_ms':>8} {'failed':>6}",
        ]
        for label, run in sorted(
            self.runs.items(), key=lambda kv: int(kv[0])
        ):
            lines.append(
                f"{label:>5} {run['wall_s']:>8.2f} "
                f"{run['requests_per_s']:>8.2f} "
                f"{run['p50_latency_s'] * 1e3:>8.1f} "
                f"{run['p95_latency_s'] * 1e3:>8.1f} "
                f"{run['failed']:>6}"
            )
        for label, ratio in sorted(self.scaling.items()):
            lines.append(f"scaling {label}: {ratio:.2f}x")
        if self.parity:
            lines.append(
                f"parity: {self.parity['mismatches']} mismatches over "
                f"{self.parity['compared']} requests "
                f"({self.parity['processes']} processes vs 1)"
            )
        if self.autoscale:
            lines.append(
                f"autoscale: {self.autoscale['scale_ups']} up / "
                f"{self.autoscale['scale_downs']} down, "
                f"peak {self.autoscale['peak_workers']} workers"
            )
        return "\n".join(lines)


def _replay(
    trace,
    options: ShardOptions,
    processes: int,
    window: int,
    routing: str = "least-loaded",
    on_wait=None,
) -> tuple[dict, list]:
    """One closed-loop replay; returns (measurements, responses).

    ``on_wait(fleet)`` is invoked between completions (telemetry probes).
    """
    registry = MetricsRegistry()
    responses = []
    outstanding: deque = deque()

    def drain_one(fleet) -> None:
        responses.append(
            outstanding.popleft().result(timeout=_RESULT_TIMEOUT_S)
        )
        if on_wait is not None:
            on_wait(fleet)

    boot0 = time.perf_counter()
    with FleetDispatcher(
        options, processes, routing=routing, registry=registry
    ) as fleet:
        # Steady-state wall only: spawn-booting N interpreters is a fixed
        # one-time cost (reported separately), not serving throughput.
        t0 = time.perf_counter()
        boot_s = t0 - boot0
        for compute in trace:
            if len(outstanding) >= window:
                drain_one(fleet)
            outstanding.append(fleet.submit(compute))
        while outstanding:
            drain_one(fleet)
        wall = time.perf_counter() - t0
        respawns = fleet.respawns
        assignments = fleet.router.assignments()
        merged = fleet.fleet_metrics()
    latencies = [r.service_latency_s for r in responses]
    tiers: dict[str, int] = {}
    for r in responses:
        tiers[r.tier] = tiers.get(r.tier, 0) + 1
    shard_requests = {
        dict(labels).get("shard", "?"): counter.value
        for labels, counter in registry.series("fleet_requests_total").items()
    }
    run = {
        "processes": processes,
        "boot_s": boot_s,
        "wall_s": wall,
        "requests_per_s": len(responses) / wall if wall > 0 else 0.0,
        "p50_latency_s": percentile(latencies, 50),
        "p95_latency_s": percentile(latencies, 95),
        "tiers": tiers,
        "failed": sum(1 for r in responses if not r.ok),
        "coalesced": sum(1 for r in responses if r.coalesced),
        "shard_requests": shard_requests,
        "families": dict(sorted(assignments.items())),
        "shard_respawns": respawns,
        # Resilience telemetry merged across shard processes: walk steps
        # re-done past the last checkpoint, checkpoints taken, and
        # dispatcher-side checkpoint resumes after shard crashes.
        "resilience": {
            "wasted_states": merged.total("resilience_wasted_states_total"),
            "checkpoints": merged.total("resilience_checkpoints_total"),
            "checkpoint_resumes": merged.total(
                "fleet_checkpoint_resumes_total"
            ),
        },
    }
    return run, responses


def _parity_check(
    trace,
    options: ShardOptions,
    processes: int,
    model: str,
    num_requests: int,
    seed: int,
) -> dict:
    """Sequential fleet replay vs sequential single-process serve.

    Both sides run window=1 (one outstanding request fleet-wide), the
    regime where schedules are order-deterministic; every request must
    then be identical between a 1-process CompileService and an
    N-process fleet.  time_scale=0 on both sides — parity is about
    schedules, not wall clock.
    """
    from repro.serve.bench import run_serve_bench

    fast = replace(
        options, workers=1, time_scale=0.0, cache_path=None, autoscale=None
    )
    _, responses = _replay(trace, fast, processes, window=1)
    fleet_schedules = [
        (shape_fingerprint(c), r.schedule_key())
        for c, r in zip(
            trace, sorted(responses, key=lambda r: r.request_id)
        )
    ]
    single = run_serve_bench(
        model=model,
        num_requests=num_requests,
        workers=1,
        device_name=options.device,
        seed=seed,
        window=1,
        time_scale=0.0,
        config=options.config,
    )
    mismatches = [
        {"shape": fp_fleet, "fleet": key_fleet, "single": key_single}
        for (fp_fleet, key_fleet), (fp_single, key_single) in zip(
            fleet_schedules, single.schedules
        )
        if fp_fleet != fp_single or key_fleet != key_single
    ]
    return {
        "processes": processes,
        "compared": len(fleet_schedules),
        "mismatches": len(mismatches),
        "first_mismatches": mismatches[:5],
    }


def _autoscale_demo(trace, options: ShardOptions, window: int) -> dict:
    """Bursty single-shard run with the queue-wait autoscaler enabled."""
    policy = AutoscalePolicy(
        min_workers=1,
        max_workers=max(4, options.workers),
        depth_high=1.0,
        wait_high_s=0.02,
        depth_low=0.25,
        wait_low_s=0.005,
    )
    demo = replace(
        options,
        workers=1,  # start minimal; the backlog should grow the roster
        autoscale=policy,
        sync_interval_s=0.2,
    )
    peak = demo.workers
    outstanding: deque = deque()
    done = 0
    t0 = time.perf_counter()
    fleet = FleetDispatcher(demo, 1, registry=MetricsRegistry())
    try:
        for compute in trace:
            if len(outstanding) >= window:
                outstanding.popleft().result(timeout=_RESULT_TIMEOUT_S)
                done += 1
                for stats in fleet.shard_stats().values():
                    peak = max(peak, stats.workers)
            outstanding.append(fleet.submit(compute))
        while outstanding:
            outstanding.popleft().result(timeout=_RESULT_TIMEOUT_S)
            done += 1
        wall = time.perf_counter() - t0
    finally:
        fleet.close()
    # The shard publishes one final metrics export while draining, so the
    # post-close merged view carries the full autoscale event history.
    merged = fleet.fleet_metrics()
    events = {
        dict(labels).get("direction", "?"): counter.value
        for labels, counter in merged.series("fleet_autoscale_total").items()
    }
    return {
        "policy": {
            "min_workers": policy.min_workers,
            "max_workers": policy.max_workers,
            "depth_high": policy.depth_high,
            "wait_high_s": policy.wait_high_s,
        },
        "start_workers": demo.workers,
        "peak_workers": peak,
        "scale_ups": events.get("up", 0),
        "scale_downs": events.get("down", 0),
        "requests_per_s": done / wall if wall > 0 else 0.0,
    }


def run_fleet_bench(
    model: str = "bert",
    num_requests: int | None = None,
    process_counts: tuple[int, ...] | None = None,
    workers_per_shard: int = 1,
    device_name: str = "rtx4090",
    seed: int = 0,
    window: int = 32,
    time_scale: float = 1.0,
    quick: bool = False,
    config: GensorConfig | None = None,
    routing: str = "least-loaded",
    check_parity: bool = True,
    autoscale_demo: bool = True,
    cache_dir: str | None = None,
) -> FleetBenchReport:
    """Sweep shard-process counts over one replay trace.

    Each process count gets a *fresh* shared cache directory so every run
    pays the same cold-compile bill — scaling ratios compare equal work.
    ``quick`` shrinks the trace and construction budget to CI size and
    drops the 8-process point.

    ``workers_per_shard`` defaults to 1 — one serving lane per process —
    so the process count is the only concurrency knob the scaling ratios
    measure.  Raising it trades process scaling for per-shard thread
    overlap (a single 4-worker shard already overlaps most profiling
    sleeps, which flattens the curve).
    """
    if num_requests is None:
        num_requests = 48 if quick else 160
    if process_counts is None:
        process_counts = (1, 4) if quick else (1, 4, 8)
    if config is None:
        config = fleet_quick_config(seed) if quick else None
    if config is None:
        from repro.serve.bench import bench_config

        config = bench_config(seed)
    trace = shape_stream(model, num_requests=num_requests, seed=seed)
    summary = trace_summary(trace)
    # Mirror serve-bench's warm parameters so the sequential parity replay
    # compares like against like.
    options = ShardOptions(
        device=device_name,
        config=config,
        workers=workers_per_shard,
        queue_capacity=max(2 * window, 64),
        warm_polish_steps=4,
        warm_pool=2,
        time_scale=time_scale,
        sync_interval_s=0.5,
    )
    report = FleetBenchReport(
        model=model,
        device=device_name,
        requests=num_requests,
        unique_shapes=summary.unique_shapes,
        workers_per_shard=workers_per_shard,
        window=window,
        time_scale=time_scale,
        quick=quick,
    )
    t0 = time.perf_counter()
    scratch = Path(cache_dir) if cache_dir else Path(tempfile.mkdtemp())
    try:
        for processes in process_counts:
            run_dir = scratch / f"p{processes}"
            run_dir.mkdir(parents=True, exist_ok=True)
            run_opts = replace(
                options,
                cache_path=str(run_dir / "fleet_cache.json"),
                checkpoint_path=str(run_dir / "checkpoints"),
            )
            run, _ = _replay(
                trace, run_opts, processes, window, routing=routing
            )
            report.runs[str(processes)] = run
        base = report.runs.get("1")
        if base and base["requests_per_s"] > 0:
            for processes in process_counts:
                if processes == 1:
                    continue
                run = report.runs[str(processes)]
                report.scaling[f"{processes}v1"] = (
                    run["requests_per_s"] / base["requests_per_s"]
                )
        if check_parity:
            parity_procs = max(p for p in process_counts)
            report.parity = _parity_check(
                trace, options, parity_procs, model, num_requests, seed
            )
        if autoscale_demo:
            report.autoscale = _autoscale_demo(trace, options, window)
    finally:
        if cache_dir is None:
            shutil.rmtree(scratch, ignore_errors=True)
    report.total_wall_s = time.perf_counter() - t0
    return report

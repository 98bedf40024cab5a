"""Simulated on-device measurement.

Search-based compilers (Ansor) pick schedules by *profiling* candidates on
hardware; construction compilers pick them analytically.  The
:class:`Measurer` reproduces that distinction: it wraps the cost model with
a deterministic, schedule-keyed multiplicative noise (run-to-run jitter),
and charges a per-measurement wall-clock cost so compile-time experiments
(Fig. 8) reflect the orders-of-magnitude gap the paper reports.
"""

from __future__ import annotations

import math
import time

from repro.hardware.spec import HardwareSpec
from repro.ir.etir import ETIR
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.metrics import KernelMetrics
from repro.utils.rng import spawn_rng

__all__ = ["Measurer", "MICROBENCH_SECONDS"]

#: per-measurement cost of a construction method's final micro-benchmark
#: round (candidates are already lowered; only launch + timing remains).
MICROBENCH_SECONDS = 0.06


class Measurer:
    """Profiling proxy: noisy, slow access to the cost model.

    Args:
        hardware: the device to "measure" on.
        seed: root seed for the jitter streams.
        noise_sigma: lognormal sigma of run-to-run latency jitter
            (~1.5% by default, typical of real kernel timing).
        seconds_per_measurement: simulated wall-clock cost charged per
            measurement; also *slept* (scaled by ``time_scale``) so that
            wall-clock compile-time experiments show the real gap without
            taking hours.  The default (0.35 s) prices a *search-style*
            measurement: fresh code generation, compilation, transfer, and
            timing per candidate.  Construction methods micro-benchmark a
            handful of already-lowered candidates, priced at
            :data:`MICROBENCH_SECONDS`.
        time_scale: fraction of the simulated measurement cost actually
            slept (0 disables sleeping; experiments use a small value).
        tracer: optional event sink; every measurement emits a ``measure``
            event with the resulting :class:`KernelMetrics` fields.
        memo: shared :class:`~repro.perf.memo.MetricsMemo` supplying the
            noise-free truth; defaults to the process-wide memo, so a
            state priced during construction is never re-evaluated here.
    """

    def __init__(
        self,
        hardware: HardwareSpec,
        seed: int = 0,
        noise_sigma: float = 0.015,
        seconds_per_measurement: float = 0.35,
        time_scale: float = 0.0,
        tracer: Tracer | None = None,
        memo=None,
    ) -> None:
        from repro.perf.memo import get_memo

        self.hw = hardware
        self._memo = memo if memo is not None else get_memo()
        self.model = self._memo.model(hardware)
        self.seed = seed
        self.noise_sigma = noise_sigma
        self.seconds_per_measurement = seconds_per_measurement
        self.time_scale = time_scale
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.num_measurements = 0

    @property
    def simulated_seconds(self) -> float:
        """Total simulated profiling wall-clock charged so far."""
        return self.num_measurements * self.seconds_per_measurement

    def measure(self, state: ETIR) -> KernelMetrics:
        """Profile one schedule: cost-model truth plus run-to-run jitter."""
        self.num_measurements += 1
        if self.time_scale > 0.0:
            time.sleep(self.seconds_per_measurement * self.time_scale)
        truth = self._memo.evaluate(self.hw, state)
        if not truth.feasible:
            if self.tracer.enabled:
                self._trace(state, truth)
            return truth
        rng = spawn_rng(self.seed, "measure", *map(str, state.key()))
        jitter = math.exp(rng.normal(0.0, self.noise_sigma))
        latency = truth.latency_s * jitter
        flops = state.program_flops()
        metrics = KernelMetrics(
            latency_s=latency,
            achieved_flops=flops / latency,
            compute_throughput=min(
                1.0, flops / latency / self.hw.peak_flops
            ),
            sm_occupancy=truth.sm_occupancy,
            mem_busy=truth.mem_busy,
            l2_hit_rate=truth.l2_hit_rate,
            dram_bytes=truth.dram_bytes,
            smem_bytes=truth.smem_bytes,
            bank_conflict_factor=truth.bank_conflict_factor,
            blocks_per_sm=truth.blocks_per_sm,
            waves=truth.waves,
        )
        if self.tracer.enabled:
            self._trace(state, metrics)
        return metrics

    def _trace(self, state: ETIR, metrics: KernelMetrics) -> None:
        self.tracer.emit(
            "measure",
            {
                "compute": state.compute.name,
                "schedule": state.describe(),
                "feasible": metrics.feasible,
                "latency_s": metrics.latency_s,
                "achieved_flops": metrics.achieved_flops,
                "l2_hit_rate": metrics.l2_hit_rate,
                "sm_occupancy": metrics.sm_occupancy,
                "simulated_cost_s": self.seconds_per_measurement,
                "num_measurements": self.num_measurements,
            },
        )

    def latency(self, state: ETIR) -> float:
        return self.measure(state).latency_s

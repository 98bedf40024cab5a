"""Roofline analysis of scheduled tensor programs.

A diagnostic layer over the cost model: classifies a schedule as compute-,
DRAM-, L2-, or shared-memory-bound, reports each pipe's time share, and
computes headroom against the device's roofline (the min of peak compute
and arithmetic-intensity-scaled bandwidth).  Used by the reporting
examples and handy when debugging why a schedule underperforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.spec import HardwareSpec
from repro.ir.etir import ETIR
from repro.sim.costmodel import CostModel, coalescing

__all__ = ["RooflineReport", "analyze_roofline", "roofline_limit_flops"]


def roofline_limit_flops(
    hw: HardwareSpec, arithmetic_intensity: float
) -> float:
    """The classic roofline: ``min(peak, AI * DRAM bandwidth)`` in FLOP/s."""
    if arithmetic_intensity <= 0:
        raise ValueError("arithmetic intensity must be positive")
    return min(
        hw.peak_flops, arithmetic_intensity * hw.dram.bandwidth_bytes_per_s
    )


@dataclass
class RooflineReport:
    """Where one schedule sits against the device roofline."""

    bound: str  # "compute" | "dram" | "l2" | "smem"
    pipe_times: dict[str, float]
    achieved_flops: float
    roofline_flops: float
    #: achieved / roofline, in (0, 1]; how much of the attainable ceiling
    #: this schedule reaches.
    efficiency: float
    arithmetic_intensity: float

    def summary(self) -> str:
        shares = ", ".join(
            f"{name} {t * 1e6:.0f}us" for name, t in self.pipe_times.items()
        )
        return (
            f"{self.bound}-bound; pipes: {shares}; "
            f"{self.achieved_flops / 1e12:.2f}T of "
            f"{self.roofline_flops / 1e12:.2f}T attainable "
            f"({self.efficiency:.0%})"
        )


def analyze_roofline(state: ETIR, hw: HardwareSpec) -> RooflineReport:
    """Classify ``state`` against the device roofline.

    Raises ``ValueError`` for infeasible schedules — there is no roofline
    position for a kernel that cannot launch.
    """
    metrics = CostModel(hw).evaluate(state)
    if not metrics.feasible:
        raise ValueError("cannot analyze an infeasible schedule")
    compute = state.compute

    # Recompute the individual pipe times the way the model combines them.
    coalesce = coalescing(state, hw)
    l2_requests = state.dram_traffic_bytes() * coalesce
    pipe_times = {
        "compute": compute.total_flops
        / max(1.0, hw.peak_flops * max(metrics.compute_throughput, 1e-9))
        if metrics.compute_throughput > 0
        else math.inf,
        "dram": metrics.dram_bytes / hw.dram.bandwidth_bytes_per_s,
        "l2": l2_requests / hw.l2.bandwidth_bytes_per_s,
        "smem": metrics.smem_bytes / hw.smem.bandwidth_bytes_per_s,
    }
    # The compute entry above is circular (it equals latency); use the
    # padded-FLOPs estimate instead for the share comparison.
    pipe_times["compute"] = compute.total_flops / hw.peak_flops
    bound = max(pipe_times, key=pipe_times.get)

    ai = compute.arithmetic_intensity()
    roofline = roofline_limit_flops(hw, ai)
    return RooflineReport(
        bound=bound,
        pipe_times=pipe_times,
        achieved_flops=metrics.achieved_flops,
        roofline_flops=roofline,
        efficiency=min(1.0, metrics.achieved_flops / roofline),
        arithmetic_intensity=ai,
    )

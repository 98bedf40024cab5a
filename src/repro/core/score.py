"""Gensor's internal analytical score.

Construction methods never profile candidates during traversal; they rank
states analytically.  :func:`quick_latency` is the reduced roofline Gensor
uses for that ranking: compute time (with an ILP derate), DRAM time under
the block tiling, and shared-memory time under the thread tiling with bank
conflicts.  It deliberately omits the phenomena the full simulator models
(L2 capture, wave quantization, staging latency, pipe overlap) — the gap
between this proxy and "hardware" is precisely what a final top-k
measurement round resolves, for Gensor and Roller alike.
"""

from __future__ import annotations

import math

import numpy as np

from repro.hardware.spec import HardwareSpec
from repro.ir.etir import ETIR
from repro.sim.costmodel import bank_conflicts, coalescing

__all__ = [
    "quick_latency",
    "quick_pipe",
    "quick_score",
    "epilogue_standalone_s",
    "pending_penalty_s",
    "program_cost_s",
]

def quick_latency(state: ETIR, hw: HardwareSpec, strict: bool = True) -> float:
    """Reduced-roofline latency estimate (seconds); inf when infeasible.

    ``strict=False`` uses the traversal-time memory check (outer levels not
    yet committed) so mid-walk states can still be compared.
    """
    if not state.memory_ok(hw, strict=strict):
        return math.inf
    compute = state.compute
    threads = state.threads_per_block()
    blocks = state.num_blocks()

    inner_work = 1.0
    for idx, _ax in enumerate(compute.axes):
        inner_work *= state.tile(idx, 1)
    ilp_eff = inner_work / (inner_work + 6.0)
    parallel_threads = min(blocks * threads, hw.num_sms * hw.max_threads_per_sm)
    util = parallel_threads / (hw.num_sms * hw.max_threads_per_sm)
    util_eff = util / (util + 0.12)
    # Blocks smaller than a warp waste SIMT lanes.
    warp_eff = threads / (math.ceil(threads / hw.warp_size) * hw.warp_size)
    compute_time = state.program_flops() / max(
        1.0, hw.peak_flops * ilp_eff * util_eff * warp_eff
    )
    dram_time = (
        state.dram_traffic_bytes()
        * coalescing(state, hw)
        / hw.dram.bandwidth_bytes_per_s
    )
    smem_time = (
        state.smem_traffic_bytes()
        * bank_conflicts(state, hw)
        / hw.smem.bandwidth_bytes_per_s
    )
    return max(compute_time, dram_time, smem_time)


def quick_pipe(cols: np.ndarray, hw: HardwareSpec) -> np.ndarray:
    """The roofline arithmetic of :func:`quick_latency` over feature columns.

    ``cols`` is a ``(8, n)`` float64 array with rows ``(threads, blocks,
    inner_work, coalesce, conflict, dram_q, smem_q, flops)``.  Operations
    run in the exact scalar order, so the result is bit-identical to the
    scalar path element-wise.  The SoA walk core (:mod:`repro.perf.soa`)
    prices its frontiers through it, building the columns without
    materializing ETIR objects.
    """
    threads, blocks, inner_work, coalesce, conflict, dram_q, smem_q, flops = cols

    ilp_eff = inner_work / (inner_work + 6.0)
    parallel_threads = np.minimum(
        blocks * threads, hw.num_sms * hw.max_threads_per_sm
    )
    util = parallel_threads / (hw.num_sms * hw.max_threads_per_sm)
    util_eff = util / (util + 0.12)
    warp_eff = threads / (np.ceil(threads / hw.warp_size) * hw.warp_size)
    compute_time = flops / np.maximum(
        1.0, hw.peak_flops * ilp_eff * util_eff * warp_eff
    )
    dram_time = dram_q * coalesce / hw.dram.bandwidth_bytes_per_s
    smem_time = smem_q * conflict / hw.smem.bandwidth_bytes_per_s
    return np.maximum(np.maximum(compute_time, dram_time), smem_time)


def epilogue_standalone_s(ep, hw: HardwareSpec) -> float:
    """Analytical cost of running one epilogue op as its own kernel.

    A launch, a full IO round-trip, and its (tiny) FLOPs — the program-level
    price the fusion actions and the constructor's ranking objective charge
    for every epilogue left unfused.
    """
    return (
        hw.kernel_launch_overhead_s
        + ep.total_io_bytes() / hw.dram.bandwidth_bytes_per_s
        + ep.total_flops / hw.peak_flops
    )


def pending_penalty_s(state: ETIR, hw: HardwareSpec) -> float:
    """Standalone cost of every epilogue still unfused in ``state``.

    Zero for single-op states (empty pool), so per-kernel objectives are
    untouched; for program groups it makes latency comparisons
    program-level — a fused kernel that runs slightly longer still wins
    when it deletes whole epilogue kernels.
    """
    if not state.epilogue_pool or state.fused >= len(state.epilogue_pool):
        return 0.0
    return sum(epilogue_standalone_s(ep, hw) for ep in state.pending_epilogues)


def program_cost_s(state: ETIR, latency_s: float, hw: HardwareSpec) -> float:
    """The one ranking objective: kernel latency plus :func:`pending_penalty_s`.

    Candidate ranking, warm starts, the degraded seed pick and the schedule
    cache's faster-wins rule all compare this.  The penalty is exactly 0.0
    for a bare operator, so there it orders states by latency alone.
    """
    return float(latency_s) + pending_penalty_s(state, hw)


def quick_score(state: ETIR, hw: HardwareSpec) -> float:
    """Higher-is-better analytical score (estimated FLOP/s)."""
    lat = quick_latency(state, hw)
    if not math.isfinite(lat) or lat <= 0:
        return 0.0
    return state.program_flops() / lat

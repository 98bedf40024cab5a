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

from repro.hardware.memory import smem_transaction_factor
from repro.hardware.spec import HardwareSpec
from repro.ir.etir import ETIR

__all__ = [
    "quick_latency",
    "quick_pipe",
    "quick_score",
    "epilogue_standalone_s",
    "pending_penalty_s",
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
    flops = state.program_flops() if state.fused else compute.total_flops
    compute_time = flops / max(
        1.0, hw.peak_flops * ilp_eff * util_eff * warp_eff
    )

    coalesce = _coalescing(state, hw)
    dram_time = (
        state.dram_traffic_bytes() * coalesce / hw.dram.bandwidth_bytes_per_s
    )

    spatial = [
        (idx, ax) for idx, ax in enumerate(compute.axes) if not ax.is_reduce
    ]
    conflict = 1.0
    if spatial:
        idx, _ = spatial[-1]
        t1 = state.tile(idx, 1)
        threads_row = max(1, state.tile(idx, state.num_levels) // max(1, t1))
        span = min(hw.warp_size, threads_row) * t1
        conflict = smem_transaction_factor(
            max(1, span), hw.bank_width_elems, state.total_vthreads()
        )
    smem_time = (
        state.smem_traffic_bytes() * conflict / hw.smem.bandwidth_bytes_per_s
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


def _coalescing(state: ETIR, hw: HardwareSpec) -> float:
    """Footprint-weighted DRAM-transaction inflation (shared with the
    simulator's fuller model; constructive compilers model coalescing too —
    Roller's rTiles exist to align slabs with memory transactions).

    Depends only on the block tiles (and the warp size), so it is memoized
    in the compute's tile-keyed cache.
    """
    from repro.ir.access import _tile_cache

    cache = _tile_cache(state.compute)
    lvl = state.num_levels
    key = ("coal", tuple(t[lvl - 1] for t in state.config.tiles), hw.warp_size)
    cached = cache.get(key)
    if cached is None:
        cached = cache[key] = _coalescing_uncached(state, hw)
    return cached


def _coalescing_uncached(state: ETIR, hw: HardwareSpec) -> float:
    from repro.hardware.memory import coalescing_factor
    from repro.ir.access import access_footprint_elems

    block_tiles = state.tile_sizes(state.num_levels)
    total_w = 0.0
    acc_f = 0.0
    for acc in state.compute.inputs:
        width = min(
            acc.indices[-1].extent_under_tiles(block_tiles),
            acc.tensor.shape[-1],
        )
        weight = float(
            access_footprint_elems(acc, block_tiles) * acc.tensor.dtype_bytes
        )
        acc_f += coalescing_factor(width, hw.warp_size) * weight
        total_w += weight
    return acc_f / total_w if total_w else 1.0


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


def quick_score(state: ETIR, hw: HardwareSpec) -> float:
    """Higher-is-better analytical score (estimated FLOP/s)."""
    lat = quick_latency(state, hw)
    if not math.isfinite(lat) or lat <= 0:
        return 0.0
    flops = state.program_flops() if state.fused else state.compute.total_flops
    return flops / lat

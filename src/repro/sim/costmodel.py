"""Analytical GPU performance model.

Given an :class:`~repro.ir.etir.ETIR` schedule state and a
:class:`~repro.hardware.spec.HardwareSpec`, :class:`CostModel` predicts a
full set of kernel metrics.  The model combines the standard ingredients of
GPU roofline/occupancy analysis:

* **compute pipe** — padded FLOPs over peak, derated by instruction-level
  parallelism (small thread tiles cannot fill the FMA pipeline) and by the
  occupancy needed to hide latency;
* **DRAM pipe** — block-tile traffic inflated by coalescing waste, with an
  L2 capture model that converts inter-block reuse into L2 hits when the
  wave working set fits in L2;
* **shared-memory pipe** — thread-tile traffic inflated by bank-conflict
  serialization (reduced by vThreads, Formula 3's target);
* **staging latency** — sequential DRAM→shared stage fills per reduce
  chunk, hidden by resident-block parallelism;
* **wave quantization** — partially filled final waves waste SMs.

The prediction is deterministic and cheap (~20 µs), so search methods can
afford thousands of queries; :mod:`repro.sim.measure` adds the measurement
noise that distinguishes "profiled" from "analytical" access to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.hardware.memory import coalescing_factor, smem_transaction_factor
from repro.hardware.spec import HardwareSpec
from repro.ir.etir import ETIR
from repro.sim.metrics import KernelMetrics

__all__ = ["CostModel", "INFEASIBLE", "pipe_metrics"]

#: Metrics object returned for states that violate hardware limits.
INFEASIBLE = KernelMetrics(
    latency_s=math.inf,
    achieved_flops=0.0,
    compute_throughput=0.0,
    sm_occupancy=0.0,
    mem_busy=0.0,
    l2_hit_rate=0.0,
)

# Model constants (dimensionless fit parameters, fixed for all devices).
_ILP_HALF = 6.0  # inner-loop FLOPs at which the FMA pipe reaches 50%
_OCC_HALF = 0.12  # occupancy at which latency hiding reaches 50%
_OVERLAP = 0.20  # fraction of non-critical pipe time that leaks into latency
_L2_BASE_HIT = 0.35  # hit rate floor from intra-block locality
_CONFLICT_STALL = 0.10  # share of bank-conflict serialization stalling the FMA pipe


class CostModel:
    """Deterministic performance predictor for scheduled tensor programs."""

    def __init__(self, hardware: HardwareSpec) -> None:
        self.hw = hardware

    # -- public API -----------------------------------------------------------

    def evaluate(self, state: ETIR) -> KernelMetrics:
        """Predict metrics for one schedule state; INFEASIBLE if illegal."""
        hw = self.hw
        compute = state.compute
        if not state.memory_ok(hw):
            return INFEASIBLE
        threads_per_block = state.threads_per_block()
        num_blocks = state.num_blocks()

        # --- residency & occupancy -------------------------------------------
        blocks_per_sm = self._blocks_per_sm(state, threads_per_block)
        if blocks_per_sm == 0:
            return INFEASIBLE
        resident_threads = blocks_per_sm * threads_per_block
        occupancy = min(1.0, resident_threads / hw.max_threads_per_sm)
        concurrent_blocks = min(num_blocks, blocks_per_sm * hw.num_sms)
        waves = num_blocks / max(1, blocks_per_sm * hw.num_sms)
        # Partial final wave wastes SMs; full waves don't.
        wave_eff = waves / math.ceil(waves) if waves > 0 else 1.0
        sm_utilization = min(1.0, concurrent_blocks / hw.num_sms) * wave_eff

        # --- compute pipe ------------------------------------------------------
        padded_flops = self._padded_flops(state)
        inner_work = self._inner_work(state)
        ilp_eff = inner_work / (inner_work + _ILP_HALF)
        lat_hiding = occupancy / (occupancy + _OCC_HALF)
        # Blocks not a multiple of the warp size waste SIMT lanes, and each
        # extra virtual thread adds a sliver of loop/addressing overhead.
        warp_eff = threads_per_block / (
            math.ceil(threads_per_block / hw.warp_size) * hw.warp_size
        )
        vthread_overhead = 1.0 + 0.01 * (state.total_vthreads() - 1)
        compute_rate = (
            hw.peak_flops * sm_utilization * ilp_eff * lat_hiding * warp_eff
        )
        compute_time = padded_flops * vthread_overhead / max(compute_rate, 1.0)

        # --- DRAM / L2 pipe ------------------------------------------------------
        coalesce = self._coalescing(state)
        l2_requests = state.dram_traffic_bytes() * coalesce
        unique_bytes = (
            state.program_io_bytes() if state.fused else compute.total_io_bytes()
        )
        l2_hit = self._l2_hit_rate(state, l2_requests, unique_bytes, concurrent_blocks)
        dram_bytes = max(unique_bytes * min(1.0, coalesce), l2_requests * (1.0 - l2_hit))
        dram_time = dram_bytes / hw.dram.bandwidth_bytes_per_s
        l2_time = l2_requests / hw.l2.bandwidth_bytes_per_s

        # --- shared-memory pipe -----------------------------------------------------
        # Conflicted transactions also stall the issue pipeline: dependent
        # FMAs wait on serialized LSU replays, so part of the conflict
        # factor leaks into compute time even when smem bandwidth has slack.
        conflict = self._bank_conflicts(state)
        compute_time *= 1.0 + _CONFLICT_STALL * (conflict - 1.0)
        smem_bytes = state.smem_traffic_bytes() * conflict
        smem_bw = hw.smem.bandwidth_bytes_per_s * min(
            1.0, concurrent_blocks / hw.num_sms
        )
        smem_time = smem_bytes / max(smem_bw, 1.0)

        # --- staging latency ----------------------------------------------------------
        reduce_chunks = self._reduce_chunks(state)
        stage_serial = math.ceil(waves) * reduce_chunks * hw.dram.latency_s
        stage_time = stage_serial / max(1.0, blocks_per_sm * lat_hiding * 4.0)

        # --- combine -------------------------------------------------------------------
        pipes = (compute_time, dram_time, l2_time, smem_time)
        bound = max(pipes)
        latency = (
            hw.kernel_launch_overhead_s
            + bound
            + _OVERLAP * (sum(pipes) - bound)
            + stage_time
        )
        useful_flops = (
            state.program_flops() if state.fused else compute.total_flops
        )
        achieved = useful_flops / latency
        return KernelMetrics(
            latency_s=latency,
            achieved_flops=achieved,
            compute_throughput=min(1.0, achieved / hw.peak_flops),
            sm_occupancy=occupancy * sm_utilization,
            mem_busy=min(1.0, dram_time / latency),
            l2_hit_rate=l2_hit,
            dram_bytes=dram_bytes,
            smem_bytes=smem_bytes,
            bank_conflict_factor=conflict,
            blocks_per_sm=blocks_per_sm,
            waves=waves,
        )

    def latency(self, state: ETIR) -> float:
        return self.evaluate(state).latency_s

    # -- model terms -----------------------------------------------------------------

    def _blocks_per_sm(self, state: ETIR, threads_per_block: int) -> int:
        hw = self.hw
        if threads_per_block > hw.max_threads_per_block:
            return 0
        smem_fp = state.smem_footprint_bytes()
        by_smem = (
            hw.smem.capacity_bytes // smem_fp if smem_fp > 0 else hw.max_blocks_per_sm
        )
        by_threads = hw.max_threads_per_sm // max(1, threads_per_block)
        regs = threads_per_block * state.regs_per_thread()
        by_regs = hw.registers_per_sm // max(1, regs)
        return int(min(by_smem, by_threads, by_regs, hw.max_blocks_per_sm))

    def _padded_points(self, state: ETIR) -> float:
        """Iteration points actually executed, including tile-overhang waste."""
        total = 1.0
        L = state.num_levels
        for idx, ax in enumerate(state.compute.axes):
            t_block = state.tile(idx, L)
            t_thread = state.tile(idx, 1)
            blocks = math.ceil(ax.extent / t_block)
            threads = math.ceil(t_block / t_thread)
            total *= blocks * threads * t_thread
        return total

    def _padded_spatial_points(self, state: ETIR) -> float:
        """Spatial-only padded points — fused epilogues execute these."""
        total = 1.0
        L = state.num_levels
        for idx, ax in enumerate(state.compute.axes):
            if ax.is_reduce:
                continue
            t_block = state.tile(idx, L)
            t_thread = state.tile(idx, 1)
            blocks = math.ceil(ax.extent / t_block)
            threads = math.ceil(t_block / t_thread)
            total *= blocks * threads * t_thread
        return total

    def _padded_flops(self, state: ETIR) -> float:
        """Executed FLOPs including padding, plus fused-epilogue work."""
        flops = state.compute.flops_per_point * self._padded_points(state)
        if state.fused:
            flops += state.epilogue_flops_per_point() * self._padded_spatial_points(
                state
            )
        return flops

    def _inner_work(self, state: ETIR) -> float:
        """FLOP count of one thread's innermost loop body (drives ILP)."""
        work = 1.0
        for idx, _ax in enumerate(state.compute.axes):
            work *= state.tile(idx, 1)
        work = work * state.compute.flops_per_point / 2.0
        if state.fused:
            spatial = 1.0
            for idx, ax in enumerate(state.compute.axes):
                if not ax.is_reduce:
                    spatial *= state.tile(idx, 1)
            work += spatial * state.epilogue_flops_per_point() / 2.0
        return work

    def _coalescing(self, state: ETIR) -> float:
        """Traffic inflation from partially used DRAM transactions.

        For each input access, the contiguity of a staged slab is set by the
        tile extent of the axes indexing the tensor's innermost dimension.
        The per-access factors are averaged weighted by each access's share
        of the footprint.

        Memoized by block tiles; the key (and the float it maps to) is
        shared with :func:`repro.core.score._coalescing`, which runs the
        same weighted average in the same operation order.
        """
        from repro.ir.access import _tile_cache

        cache = _tile_cache(state.compute)
        lvl = state.num_levels
        key = (
            "coal",
            tuple(t[lvl - 1] for t in state.config.tiles),
            self.hw.warp_size,
        )
        cached = cache.get(key)
        if cached is None:
            cached = cache[key] = self._coalescing_uncached(state)
        return cached

    def _coalescing_uncached(self, state: ETIR) -> float:
        hw = self.hw
        block_tiles = state.tile_sizes(state.num_levels)
        total_weight = 0.0
        acc_factor = 0.0
        for acc in state.compute.inputs:
            innermost = acc.indices[-1]
            width = innermost.extent_under_tiles(block_tiles)
            width = min(width, acc.tensor.shape[-1])
            factor = coalescing_factor(width, hw.warp_size)
            from repro.ir.access import access_footprint_elems

            weight = float(
                access_footprint_elems(acc, block_tiles) * acc.tensor.dtype_bytes
            )
            acc_factor += factor * weight
            total_weight += weight
        if total_weight == 0.0:
            return 1.0
        return acc_factor / total_weight

    def _l2_hit_rate(
        self,
        state: ETIR,
        l2_requests: float,
        unique_bytes: float,
        concurrent_blocks: int,
    ) -> float:
        """L2 converts inter-block reuse into hits when the wave's working
        set fits; otherwise reuse spills to DRAM."""
        hw = self.hw
        if l2_requests <= 0:
            return 0.0
        reuse_fraction = max(0.0, 1.0 - unique_bytes / l2_requests)
        wave_set = float(concurrent_blocks) * state.smem_footprint_bytes()
        capture = min(1.0, hw.l2.capacity_bytes / max(wave_set, 1.0))
        hit = _L2_BASE_HIT + (1.0 - _L2_BASE_HIT) * reuse_fraction * capture
        return min(0.999, hit * min(1.0, reuse_fraction * 4.0 + 0.2))

    def _bank_conflicts(self, state: ETIR) -> float:
        """Shared-memory serialization from one warp's access pattern.

        Along the innermost spatial axis, each of the warp's row-adjacent
        threads loads a ``t1``-wide fragment; the warp's combined span is
        ``threads_row * t1`` elements and conflicts serialize it into
        ``ceil(span / (V * bank_width))`` transaction groups.  Virtual
        threads interleave the fragments across banks, shrinking the group
        count — the effect the paper's Formula 3 estimates.
        """
        hw = self.hw
        spatial = [
            (idx, ax) for idx, ax in enumerate(state.compute.axes) if not ax.is_reduce
        ]
        if not spatial:
            return 1.0
        idx, _ax = spatial[-1]
        t1 = state.tile(idx, 1)
        threads_row = max(
            1, state.tile(idx, state.num_levels) // max(1, t1)
        )
        span = min(hw.warp_size, threads_row) * t1
        vt = state.total_vthreads()
        return smem_transaction_factor(max(1, span), hw.bank_width_elems, vt)

    def _reduce_chunks(self, state: ETIR) -> int:
        chunks = 1
        for idx, ax in enumerate(state.compute.axes):
            if ax.is_reduce:
                chunks *= math.ceil(ax.extent / state.tile(idx, state.num_levels))
        return chunks


def pipe_metrics(
    cols: np.ndarray, hw: HardwareSpec
) -> tuple[np.ndarray, ...]:
    """The pipe arithmetic of :meth:`CostModel.evaluate` over float64 columns.

    ``cols`` is a ``(14, n)`` float64 array with rows ``(tpb, bps, nblk,
    padded_flops, inner_work, vthreads, coalesce, dram_q, unique_bytes,
    conflict, smem_q, reduce_chunks, smem_fp, useful_flops)`` — the
    per-state features :meth:`CostModel.evaluate` derives.  Operations run
    in the scalar order with only ``+ - * / min max ceil``, so every element
    is bit-identical to the scalar result.  Returns ``(latency, achieved,
    throughput, sm_occ, mem_busy, l2_hit, dram_bytes, smem_bytes, waves)``.
    The SoA walk core (:mod:`repro.perf.soa`) prices its frontiers through
    it, building the columns without materializing ETIR objects.
    """
    (
        tpb,
        bps,
        nblk,
        padded_flops,
        inner_work,
        vthreads,
        coalesce,
        dram_q,
        unique_bytes,
        conflict,
        smem_q,
        reduce_chunks,
        smem_fp,
        useful_flops,
    ) = cols

    # --- residency & occupancy (mirrors evaluate) ---------------------------
    occupancy = np.minimum(1.0, bps * tpb / hw.max_threads_per_sm)
    concurrent = np.minimum(nblk, bps * hw.num_sms)
    waves = nblk / np.maximum(1.0, bps * hw.num_sms)
    ceil_waves = np.ceil(waves)
    wave_eff = np.where(
        waves > 0, waves / np.maximum(ceil_waves, 1.0), 1.0
    )
    sm_utilization = np.minimum(1.0, concurrent / hw.num_sms) * wave_eff

    # --- compute pipe -------------------------------------------------------
    ilp_eff = inner_work / (inner_work + _ILP_HALF)
    lat_hiding = occupancy / (occupancy + _OCC_HALF)
    warp_eff = tpb / (np.ceil(tpb / hw.warp_size) * hw.warp_size)
    vthread_overhead = 1.0 + 0.01 * (vthreads - 1.0)
    compute_rate = (
        hw.peak_flops * sm_utilization * ilp_eff * lat_hiding * warp_eff
    )
    compute_time = (
        padded_flops * vthread_overhead / np.maximum(compute_rate, 1.0)
    )

    # --- DRAM / L2 pipe -----------------------------------------------------
    l2_requests = dram_q * coalesce
    safe_l2 = np.where(l2_requests > 0, l2_requests, 1.0)
    reuse_fraction = np.maximum(0.0, 1.0 - unique_bytes / safe_l2)
    wave_set = concurrent * smem_fp
    capture = np.minimum(1.0, hw.l2.capacity_bytes / np.maximum(wave_set, 1.0))
    hit = _L2_BASE_HIT + (1.0 - _L2_BASE_HIT) * reuse_fraction * capture
    l2_hit = np.where(
        l2_requests <= 0,
        0.0,
        np.minimum(0.999, hit * np.minimum(1.0, reuse_fraction * 4.0 + 0.2)),
    )
    dram_bytes = np.maximum(
        unique_bytes * np.minimum(1.0, coalesce), l2_requests * (1.0 - l2_hit)
    )
    dram_time = dram_bytes / hw.dram.bandwidth_bytes_per_s
    l2_time = l2_requests / hw.l2.bandwidth_bytes_per_s

    # --- shared-memory pipe -------------------------------------------------
    compute_time = compute_time * (1.0 + _CONFLICT_STALL * (conflict - 1.0))
    smem_bytes = smem_q * conflict
    smem_bw = hw.smem.bandwidth_bytes_per_s * np.minimum(
        1.0, concurrent / hw.num_sms
    )
    smem_time = smem_bytes / np.maximum(smem_bw, 1.0)

    # --- staging latency ----------------------------------------------------
    stage_serial = ceil_waves * reduce_chunks * hw.dram.latency_s
    stage_time = stage_serial / np.maximum(1.0, bps * lat_hiding * 4.0)

    # --- combine ------------------------------------------------------------
    bound = np.maximum(
        np.maximum(compute_time, dram_time), np.maximum(l2_time, smem_time)
    )
    pipe_sum = compute_time + dram_time + l2_time + smem_time
    latency = (
        hw.kernel_launch_overhead_s
        + bound
        + _OVERLAP * (pipe_sum - bound)
        + stage_time
    )
    achieved = useful_flops / latency
    throughput = np.minimum(1.0, achieved / hw.peak_flops)
    sm_occ = occupancy * sm_utilization
    mem_busy = np.minimum(1.0, dram_time / latency)
    return (
        latency,
        achieved,
        throughput,
        sm_occ,
        mem_busy,
        l2_hit,
        dram_bytes,
        smem_bytes,
        waves,
    )

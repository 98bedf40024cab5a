"""Construction-graph edges: scheduling actions and their benefits.

Three action families (paper §IV-A/B) connect ETIR states:

* **tiling / inverse tiling** — double or halve one axis's tile at the
  current memory level.  Benefit (Formula 1) is the memory-traffic
  reduction over the footprint growth: ``Q(T)F(T') / (Q(T')F(T))``.
  Inverse tiling is what makes same-level states mutually reachable — the
  irreducibility Gensor's convergence argument needs, and the backtracking
  a tree cannot do.
* **caching** — advance scheduling to the next (faster) memory level.
  Benefit (Formula 2) is the access-time ratio
  ``(L_low + S/B_low) / (L_high + S/B_high)``.
* **setting virtual threads** — double/halve one spatial axis's vThread
  count.  Benefit (Formula 3) is the bank-conflict-group ratio
  ``ceil(x/W) / ceil(x/(V*W))``.

Any action whose destination violates the hardware memory check gets
probability 0 (paper §IV-C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.memory import bank_conflict_factor
from repro.hardware.spec import HardwareSpec, MemoryLevel
from repro.ir.access import tile_footprint_bytes, tile_traffic_bytes
from repro.ir.etir import ETIR

__all__ = [
    "ActionKind",
    "Action",
    "enumerate_actions",
    "action_benefit",
]


class ActionKind:
    """Closed set of action tags."""

    TILE_UP = "tile_up"
    TILE_DOWN = "tile_down"  # the paper's invTiling
    CACHE = "cache"
    VTHREAD_UP = "vthread_up"
    VTHREAD_DOWN = "vthread_down"
    FUSE = "fuse"
    UNFUSE = "unfuse"

    ALL = (TILE_UP, TILE_DOWN, CACHE, VTHREAD_UP, VTHREAD_DOWN, FUSE, UNFUSE)


#: kinds whose benefit is used bare, without the roofline acceleration
#: term: level changes don't move the roofline, and fusion toggles are
#: priced at program level (the per-kernel roofline would punish a fused
#: kernel for doing the epilogue's work).
_NO_ACCEL = (ActionKind.CACHE, ActionKind.FUSE, ActionKind.UNFUSE)


@dataclass(frozen=True)
class Action:
    """One edge type: an action kind plus the axis it applies to.

    ``axis_idx`` is ``-1`` for axis-free actions (caching).
    """

    kind: str
    axis_idx: int = -1

    def apply(self, state: ETIR) -> ETIR | None:
        """Apply to ``state``; ``None`` when the move is structurally illegal."""
        if self.kind == ActionKind.TILE_UP:
            return state.scaled_tile(self.axis_idx, up=True)
        if self.kind == ActionKind.TILE_DOWN:
            return state.scaled_tile(self.axis_idx, up=False)
        if self.kind == ActionKind.CACHE:
            return state.with_cache_advance()
        if self.kind == ActionKind.VTHREAD_UP:
            return state.with_vthread(
                self.axis_idx, state.vthreads(self.axis_idx) * 2
            )
        if self.kind == ActionKind.VTHREAD_DOWN:
            v = state.vthreads(self.axis_idx)
            if v <= 1:
                return None
            return state.with_vthread(self.axis_idx, v // 2)
        if self.kind == ActionKind.FUSE:
            return state.with_fuse()
        if self.kind == ActionKind.UNFUSE:
            return state.with_unfuse()
        raise ValueError(f"unknown action kind {self.kind!r}")

    def describe(self, state: ETIR) -> str:
        if self.kind == ActionKind.CACHE:
            return f"cache(level {state.cur_level} -> {state.cur_level - 1})"
        if self.kind == ActionKind.FUSE:
            pending = state.pending_epilogues
            return f"fuse({pending[0].name})" if pending else "fuse()"
        if self.kind == ActionKind.UNFUSE:
            fused = state.epilogues
            return f"unfuse({fused[-1].name})" if fused else "unfuse()"
        ax = state.compute.axes[self.axis_idx]
        return f"{self.kind}({ax.name})"


def enumerate_actions(state: ETIR) -> list[Action]:
    """All action templates available from ``state`` (before legality)."""
    actions: list[Action] = []
    for idx, ax in enumerate(state.compute.axes):
        actions.append(Action(ActionKind.TILE_UP, idx))
        actions.append(Action(ActionKind.TILE_DOWN, idx))
        if not ax.is_reduce and state.cur_level == 1:
            actions.append(Action(ActionKind.VTHREAD_UP, idx))
            actions.append(Action(ActionKind.VTHREAD_DOWN, idx))
    if state.cur_level > 1:
        actions.append(Action(ActionKind.CACHE))
    # Guarded on the pool so single-op walks enumerate exactly the
    # historical action list (RNG-stream parity).
    if state.epilogue_pool:
        if state.fused < len(state.epilogue_pool):
            actions.append(Action(ActionKind.FUSE))
        if state.fused > 0:
            actions.append(Action(ActionKind.UNFUSE))
    return actions


def action_benefit(
    action: Action,
    state: ETIR,
    next_state: ETIR,
    hw: HardwareSpec,
    multi_objective: bool = True,
) -> float:
    """The paper's analytical benefit of taking ``action`` from ``state``.

    Returns 0.0 when ``next_state`` fails the hardware memory check (the
    relaxed traversal-time variant — the block shape is only committed once
    the walk reaches the innermost level; final candidates are re-checked
    strictly before measurement).

    Per the paper (§III), transition probabilities are "determined by the
    normalized performance improvement of the tensor program resulting from
    the scheduling action" *and* guided by the hardware architecture.  The
    benefit is therefore the product of the action family's closed-form
    ratio (Formulas 1–3) and the analytically predicted acceleration of the
    whole program under Gensor's internal roofline — both computed without
    any profiling.

    ``multi_objective=False`` drops the roofline term, leaving the bare
    closed-form ratios — the single-objective guidance ablation.
    """
    if not next_state.memory_ok(hw, strict=False):
        return 0.0
    if action.kind in (ActionKind.TILE_UP, ActionKind.TILE_DOWN):
        formula = _tiling_benefit(state, next_state)
    elif action.kind == ActionKind.CACHE:
        formula = _caching_benefit(state, hw)
    elif action.kind in (ActionKind.VTHREAD_UP, ActionKind.VTHREAD_DOWN):
        formula = _vthread_benefit(action, state, next_state, hw)
    elif action.kind in (ActionKind.FUSE, ActionKind.UNFUSE):
        formula = _fusion_benefit(state, next_state, hw)
    else:
        raise ValueError(f"unknown action kind {action.kind!r}")
    if action.kind in _NO_ACCEL or not multi_objective:
        # Level changes re-anchor which tiles the walk tunes; the roofline
        # is unchanged by them, so only the formula (with its annealing
        # schedule, applied by the policy) decides the transition.  Fusion
        # toggles carry their own program-level ratio.
        return formula
    return formula * _predicted_acceleration(state, next_state, hw)


def _fused_epilogue_s(ep, hw: HardwareSpec) -> float:
    """Marginal cost an epilogue adds once fused into the anchor kernel:
    its extra inputs stream from DRAM and its FLOPs run, but the
    intermediate never round-trips and no launch is paid."""
    extra = sum(inp.tensor.nbytes for inp in ep.inputs[1:])
    return extra / hw.dram.bandwidth_bytes_per_s + ep.total_flops / hw.peak_flops


def _group_time_s(state: ETIR, hw: HardwareSpec) -> float:
    """Closed-form program time of the whole fusion group at ``state``:
    the anchor kernel plus fused epilogues in-kernel plus pending
    epilogues as standalone kernels."""
    from repro.core.score import epilogue_standalone_s

    compute = state.compute
    t = (
        hw.kernel_launch_overhead_s
        + compute.total_io_bytes() / hw.dram.bandwidth_bytes_per_s
        + compute.total_flops / hw.peak_flops
    )
    for ep in state.epilogues:
        t += _fused_epilogue_s(ep, hw)
    for ep in state.pending_epilogues:
        t += epilogue_standalone_s(ep, hw)
    return t


def _fusion_benefit(state: ETIR, next_state: ETIR, hw: HardwareSpec) -> float:
    """Program-time ratio of a fuse/unfuse toggle.

    Fusing an epilogue trades its standalone kernel (launch + full IO
    round-trip) for in-kernel marginal cost (extra inputs + FLOPs), so
    fuse benefits exceed 1 exactly when fusion saves program time; unfuse
    is the inverse ratio — below 1 but positive, preserving the walk's
    reversibility.
    """
    t_src = _group_time_s(state, hw)
    t_dst = _group_time_s(next_state, hw)
    if t_dst <= 0:
        return 0.0
    return t_src / t_dst


def _predicted_acceleration(state: ETIR, next_state: ETIR, hw: HardwareSpec) -> float:
    """Acceleration ratio under the internal analytical roofline."""
    from repro.core.score import quick_latency

    before = quick_latency(state, hw, strict=False)
    after = quick_latency(next_state, hw, strict=False)
    if not math.isfinite(after) or after <= 0:
        return 0.0
    if not math.isfinite(before):
        return 4.0  # escaping an infeasible state is always attractive
    return min(16.0, before / after)


def _tiling_benefit(state: ETIR, next_state: ETIR) -> float:
    """Formula 1: traffic reduction over footprint growth at the current level."""
    level = state.cur_level
    compute = state.compute
    t_old = state.tile_sizes(level)
    t_new = next_state.tile_sizes(level)
    q_old = tile_traffic_bytes(compute, t_old)
    q_new = tile_traffic_bytes(compute, t_new)
    f_old = tile_footprint_bytes(compute, t_old)
    f_new = tile_footprint_bytes(compute, t_new)
    if q_new == 0 or f_old == 0:
        return 0.0
    return (q_old * f_new) / (q_new * f_old)


def _level_pair(state: ETIR, hw: HardwareSpec) -> tuple[MemoryLevel, MemoryLevel]:
    """(slow, fast) memory levels bridged by a cache action at this state.

    At the outer scheduling level (L) the cache action moves staging from
    DRAM into shared memory; at level L-1 from shared memory into
    registers.
    """
    if state.cur_level >= state.num_levels:
        return hw.dram, hw.smem
    return hw.smem, hw.regs


def _caching_benefit(state: ETIR, hw: HardwareSpec) -> float:
    """Formula 2: access-time ratio between the bridged memory levels."""
    low, high = _level_pair(state, hw)
    s_data = float(
        tile_footprint_bytes(
            state.compute, state.tile_sizes(state.cur_level), include_output=False
        )
    )
    t_low = low.latency_s + s_data / low.bandwidth_bytes_per_s
    t_high = high.latency_s + s_data / high.bandwidth_bytes_per_s
    if t_high <= 0:
        return 0.0
    return t_low / t_high


def _vthread_benefit(
    action: Action, state: ETIR, next_state: ETIR, hw: HardwareSpec
) -> float:
    """Formula 3: conflict-group count ratio before/after the vThread change.

    ``x`` is the width of the tile row processed in parallel (the thread
    tile of the targeted axis scaled by the threads sweeping it), ``W`` the
    bank width, ``V`` the vThread count.

    Bank conflicts arise from the memory-contiguous (innermost spatial)
    axis; vThreads on outer axes neither create nor remove conflict groups,
    so their benefit is neutral (1.0).
    """
    spatial = [i for i, ax in enumerate(state.compute.axes) if not ax.is_reduce]
    if not spatial or action.axis_idx != spatial[-1]:
        return 1.0
    idx = action.axis_idx
    x = state.tile(idx, 1) * max(
        1,
        state.tile(idx, state.num_levels) // max(1, state.tile(idx, 1)),
    )
    x = max(1, min(x, state.compute.axes[idx].extent))
    w = hw.bank_width_elems
    v_old = state.vthreads(idx)
    v_new = next_state.vthreads(idx)
    groups_old = bank_conflict_factor(x, w, v_old)
    groups_new = bank_conflict_factor(x, w, v_new)
    if groups_new <= 0:
        return 0.0
    return groups_old / groups_new

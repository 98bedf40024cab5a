"""The object-level reference walk: the oracle the SoA engine is held to.

:class:`ReferenceWalkEngine` runs the annealed construction walk and the
greedy polish the direct way: ETIR objects on a
:class:`~repro.core.graph.ConstructionGraph`, every edge priced by the
scalar :func:`~repro.core.actions.action_benefit`, every step sampled by
:class:`~repro.core.policy.TransitionPolicy`, every polish neighbour priced
one at a time through the cost model.  :class:`ReferenceGensor` is
:class:`~repro.core.constructor.Gensor` with this engine swapped in, so
the golden traces, the checkpoint/resume harness, and the walk bench can
replay any compile on it and demand byte-identical results from the
structure-of-arrays engine (:mod:`repro.perf.soa`) that compiles run on.

The loops here are deliberately written independently of the SoA engine's
— a bug shared by both would be invisible to the comparison — and only
the trace payloads (:mod:`repro.core.events`) are common code.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.core.actions import ActionKind
from repro.core.constructor import Gensor
from repro.core.events import emit_chain_end, emit_polish, emit_walk_step
from repro.core.graph import ConstructionGraph
from repro.core.policy import TransitionPolicy, append_probability
from repro.core.score import pending_penalty_s
from repro.hardware.spec import HardwareSpec
from repro.ir.compute import ComputeDef
from repro.ir.etir import ETIR
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.perf.memo import MetricsMemo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.constructor import GensorConfig
    from repro.resilience.deadline import CancelToken

__all__ = ["ReferenceGensor", "ReferenceWalkEngine", "all_level_neighbors"]


def all_level_neighbors(state: ETIR, vthread_allowed: bool) -> Iterator[ETIR]:
    """Polish moves from ``state``: a tile change at any level, a vThread
    change, then (for a fusion group) fuse and unfuse."""
    for idx, ax in enumerate(state.compute.axes):
        for level in range(1, state.num_levels + 1):
            for up in (True, False):
                nxt = state.scaled_tile_at(idx, level, up)
                if nxt is not None:
                    yield nxt
        if vthread_allowed and not ax.is_reduce:
            v = state.vthreads(idx)
            for nv in (v * 2, v // 2, 1):
                if nv >= 1 and nv != v:
                    nxt = state.with_vthread(idx, nv)
                    if nxt is not None:
                        yield nxt
    if state.epilogue_pool:
        for nxt in (state.with_fuse(), state.with_unfuse()):
            if nxt is not None:
                yield nxt


class ReferenceWalkEngine:
    """The walk engine protocol (``run_chain``, ``polish``, ``num_nodes``,
    ``restore_nodes``) on the object-level construction graph."""

    def __init__(
        self,
        compute: ComputeDef,
        hardware: HardwareSpec,
        memo: MetricsMemo,
        multi_objective: bool = True,
        epilogues: tuple[ComputeDef, ...] = (),
    ) -> None:
        self.compute = compute
        self.hw = hardware
        self.memo = memo
        self.num_levels = hardware.num_cache_levels
        self.epilogues = tuple(epilogues)
        self.graph = ConstructionGraph(hardware, multi_objective=multi_objective)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def restore_nodes(self, configs: Iterable[tuple], nodes_seen: int) -> None:
        self.graph.restore_nodes(configs, nodes_seen, self.compute)

    def run_chain(
        self,
        cfg: "GensorConfig",
        rng: np.random.Generator,
        forbid: frozenset[str],
        tracer: Tracer,
        cancel: "CancelToken | None",
        tid: int,
        candidates: dict[tuple, ETIR],
        *,
        checkpointer=None,
        base_steps: int = 0,
        resume: tuple | None = None,
    ) -> int:
        """One annealed chain (Algorithm 1's loop); returns its iterations."""
        policy = TransitionPolicy(self.graph, rng)
        if resume is not None:
            tiles, vthreads, level, temperature, iteration = resume
            state = ETIR.from_arrays(
                self.compute, tiles, vthreads, level, np.shape(tiles)[1]
            )
            iteration = int(iteration)
        else:
            state = ETIR.initial(
                self.compute, num_levels=self.num_levels, epilogues=self.epilogues
            )
            temperature = cfg.initial_temperature
            iteration = 0
        while (
            temperature > cfg.threshold
            and iteration < cfg.max_iterations_per_chain
        ):
            if cancel is not None:
                cancel.check()
            progress = math.log2(cfg.initial_temperature / temperature)
            edges, probs = policy.probabilities(state, progress, forbid)
            if not edges:
                break
            idx = int(rng.choice(len(edges), p=probs))
            src_level = state.cur_level
            state = edges[idx].dst
            appended = rng.random() < append_probability(temperature)
            if appended:
                candidates[state.key()] = state
            if tracer.enabled:
                emit_walk_step(
                    tracer, self.compute.name, tid, iteration, temperature,
                    src_level, edges, probs, idx, appended,
                )
            temperature *= cfg.cooling
            iteration += 1
            if checkpointer is not None:
                checkpointer.on_step(
                    cancel,
                    lambda: self._checkpoint(
                        cfg, tid, iteration, base_steps + iteration,
                        temperature, state, rng, candidates,
                    ),
                )
        candidates[state.key()] = state
        if tracer.enabled:
            emit_chain_end(
                tracer, self.compute.name, tid, iteration, state.cur_level,
                temperature,
            )
        return iteration

    def _checkpoint(
        self,
        cfg: "GensorConfig",
        chain: int,
        iteration: int,
        total_steps: int,
        temperature: float,
        state: ETIR,
        rng: np.random.Generator,
        candidates: dict[tuple, ETIR],
    ):
        from repro.resilience.checkpoint import build_walk_checkpoint, state_config

        node_keys, nodes_seen = self.graph.export_nodes()
        return build_walk_checkpoint(
            self.compute,
            cfg,
            num_levels=self.num_levels,
            chain=chain,
            iteration=iteration,
            total_steps=total_steps,
            temperature=temperature,
            state_config=state_config(state),
            rng=rng,
            candidate_configs=[state_config(s) for s in candidates.values()],
            node_keys=node_keys,
            nodes_seen=nodes_seen,
        )

    def _value(self, state: ETIR) -> float:
        """Polish objective: kernel latency, plus the standalone cost of
        every epilogue a fusion group leaves unfused."""
        lat = self.memo.latency(self.hw, state)
        if state.epilogue_pool:
            lat += pending_penalty_s(state, self.hw)
        return lat

    def polish(
        self,
        state: ETIR,
        max_steps: int,
        forbid: frozenset[str] = frozenset(),
        tracer: Tracer | None = None,
        cancel: "CancelToken | None" = None,
    ) -> ETIR:
        """Greedy refinement: move to the best strictly improving neighbour
        until none improves (the optimal policy of the paper's §IV-D)."""
        tracer = tracer if tracer is not None else NULL_TRACER
        t0 = time.perf_counter() if tracer.enabled else 0.0
        vthread_allowed = ActionKind.VTHREAD_UP not in forbid
        current = state
        start_lat = current_lat = self._value(current)
        steps = 0
        for _ in range(max_steps):
            if cancel is not None:
                cancel.check()
            best_next = None
            best_lat = current_lat
            for nxt in all_level_neighbors(current, vthread_allowed):
                lat = self._value(nxt)
                if lat < best_lat:
                    best_next, best_lat = nxt, lat
            if best_next is None:
                break
            current, current_lat = best_next, best_lat
            steps += 1
        if tracer.enabled:
            emit_polish(
                tracer, state.compute.name, steps, max_steps, start_lat,
                current_lat, time.perf_counter() - t0,
            )
        return current


class ReferenceGensor(Gensor):
    """:class:`Gensor` with every walk and polish on the reference engine."""

    def _walk_engine(
        self, compute: ComputeDef, epilogues: "tuple[ComputeDef, ...]" = ()
    ) -> ReferenceWalkEngine:
        return ReferenceWalkEngine(
            compute,
            self.hw,
            self.memo,
            multi_objective=self.config.multi_objective,
            epilogues=epilogues,
        )

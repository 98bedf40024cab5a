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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.core.actions import ActionKind
from repro.core.constructor import Gensor
from repro.core.events import emit_chain_end, emit_polish, emit_walk_step
from repro.core.graph import ConstructionGraph
from repro.core.policy import TransitionPolicy, append_probability
from repro.core.score import pending_penalty_s, program_cost_s
from repro.hardware.spec import HardwareSpec
from repro.ir.compute import ComputeDef
from repro.ir.etir import ETIR
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.perf.memo import MetricsMemo
from repro.resilience.checkpoint import (
    build_chain_checkpoint,
    build_walk_checkpoint,
    config_to_state,
    state_config,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.constructor import GensorConfig
    from repro.resilience.checkpoint import ChainCheckpoint
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


@dataclass
class _Chain:
    """One annealed chain: its sampler, pool and walk position."""

    tid: int
    policy: TransitionPolicy
    pool: dict[tuple, ETIR]
    state: ETIR
    temperature: float
    iteration: int = 0
    done: bool = False


class ReferenceWalkEngine:
    """The walk engine protocol (``run_chains``, ``add_states``, ``rank``,
    ``polish``, ``num_nodes``, ``restore_nodes``) on the object-level
    construction graph.  Its candidate pool holds ETIR states keyed by
    state key."""

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
        self.graph.restore_nodes(
            (
                config_to_state(self.compute, c, self.num_levels, self.epilogues)
                for c in configs
            ),
            nodes_seen,
        )

    def run_chains(
        self,
        cfg: "GensorConfig",
        starts: "list[tuple[np.random.Generator, dict, ChainCheckpoint | None]]",
        forbid: frozenset[str],
        tracer: Tracer,
        cancel: "CancelToken | None",
        *,
        checkpointer=None,
    ) -> list[int]:
        """Algorithm 1's loop for every chain, in lockstep rounds; returns
        each chain's iteration count.

        ``starts`` holds one ``(rng, pool, resume)`` per chain.  Each round
        the chains due to step (the live ones at the lowest iteration)
        first have their states expanded and weighed, one after another;
        then each, in chain order, samples its edge and cools.
        """
        chains: list[_Chain] = []
        for tid, (rng, pool, resume) in enumerate(starts):
            policy = TransitionPolicy(self.graph, rng)
            if resume is None:
                state = ETIR.initial(
                    self.compute,
                    num_levels=self.num_levels,
                    epilogues=self.epilogues,
                )
                chains.append(
                    _Chain(tid, policy, pool, state, cfg.initial_temperature)
                )
            else:
                state = config_to_state(
                    self.compute, resume.state, self.num_levels, self.epilogues
                )
                chains.append(
                    _Chain(
                        tid, policy, pool, state, resume.temperature,
                        resume.iteration, resume.done,
                    )
                )

        def finish(chain: _Chain) -> None:
            chain.pool[chain.state.key()] = chain.state
            chain.done = True
            if tracer.enabled:
                emit_chain_end(
                    tracer, self.compute.name, chain.tid, chain.iteration,
                    chain.state.cur_level, chain.temperature,
                )

        while any(not c.done for c in chains):
            due = min(c.iteration for c in chains if not c.done)
            movers = []
            for c in chains:
                if c.done or c.iteration != due:
                    continue
                if (
                    c.temperature <= cfg.threshold
                    or c.iteration >= cfg.max_iterations_per_chain
                ):
                    finish(c)
                else:
                    movers.append(c)
            weighed = [
                c.policy.probabilities(
                    c.state,
                    math.log2(cfg.initial_temperature / c.temperature),
                    forbid,
                )
                for c in movers
            ]
            for c, (edges, probs) in zip(movers, weighed):
                if cancel is not None:
                    cancel.check()
                if not edges:
                    finish(c)
                    continue
                idx = int(c.policy.rng.choice(len(edges), p=probs))
                src_level = c.state.cur_level
                c.state = edges[idx].dst
                appended = c.policy.rng.random() < append_probability(
                    c.temperature
                )
                if appended:
                    c.pool[c.state.key()] = c.state
                if tracer.enabled:
                    emit_walk_step(
                        tracer, self.compute.name, c.tid, c.iteration,
                        c.temperature, src_level, edges, probs, idx, appended,
                    )
                c.temperature *= cfg.cooling
                c.iteration += 1
                if checkpointer is not None:
                    checkpointer.on_step(
                        cancel, lambda: self._checkpoint(cfg, chains)
                    )
        return [c.iteration for c in chains]

    def _checkpoint(self, cfg: "GensorConfig", chains: list[_Chain]):
        node_keys, nodes_seen = self.graph.export_nodes()
        return build_walk_checkpoint(
            self.compute,
            cfg,
            epilogues=self.epilogues,
            num_levels=self.num_levels,
            chains=[
                build_chain_checkpoint(
                    state_config(c.state),
                    c.temperature,
                    c.iteration,
                    c.policy.rng,
                    c.done,
                    [state_config(s) for s in c.pool.values()],
                )
                for c in chains
            ],
            node_keys=node_keys,
            nodes_seen=nodes_seen,
        )

    def add_states(self, pool: dict[tuple, ETIR], states: Iterable[ETIR]) -> None:
        for state in states:
            pool.setdefault(state.key(), state)

    def rank(self, pool: dict[tuple, ETIR], top_k: int) -> list[ETIR]:
        """The ``top_k`` best pool states by program cost, best first: one
        memo round-trip prices the memory-feasible states one at a time
        through the scalar cost model; the insertion index breaks ties."""
        feasible = [
            (i, s) for i, s in enumerate(pool.values()) if s.memory_ok(self.hw)
        ]
        lats = self.memo.latency_batch(self.hw, [s for _i, s in feasible])
        scored = [
            (program_cost_s(s, lat, self.hw), i, s)
            for (i, s), lat in zip(feasible, lats)
        ]
        scored.sort(key=lambda item: (item[0], item[1]))
        return [s for cost, _i, s in scored if math.isfinite(cost)][:top_k]

    def _value(self, state: ETIR) -> float:
        """Polish objective: kernel latency, plus the standalone cost of
        every epilogue a fusion group leaves unfused."""
        lat = self.memo.latency(self.hw, state)
        if state.epilogue_pool:
            lat += pending_penalty_s(state, self.hw)
        return lat

    def polish(
        self,
        states: list[ETIR],
        max_steps: int,
        forbid: frozenset[str] = frozenset(),
        tracer: Tracer | None = None,
        cancel: "CancelToken | None" = None,
    ) -> list[ETIR]:
        """Polish each state on its own, in order."""
        return [
            self._polish_one(s, max_steps, forbid, tracer, cancel) for s in states
        ]

    def _polish_one(
        self,
        state: ETIR,
        max_steps: int,
        forbid: frozenset[str],
        tracer: Tracer | None,
        cancel: "CancelToken | None",
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

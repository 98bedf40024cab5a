"""Gensor's construction loop (paper Algorithm 1).

Starting from the unscheduled ETIR state, an annealed Markov walk applies
one scheduling action per iteration: the transition policy samples an edge
by its normalized analytical benefit, the temperature decays, and the
cache-action bias grows so the walk crosses memory levels and terminates.
States encountered at high temperature are appended to a diverse
``top_results`` pool.

Several independent chains are run (the paper's "diverse set of tensor
program configurations"), the pooled candidates are ranked by Gensor's
internal analytical score, and only the short top-k list is profiled once
on the (simulated) device — the same final micro-benchmark step Roller
uses, preserving the constructive methods' orders-of-magnitude compile-time
advantage over search.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.actions import ActionKind
from repro.core.score import pending_penalty_s
from repro.hardware.spec import HardwareSpec
from repro.ir.compute import ComputeDef
from repro.ir.etir import ETIR
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.perf.memo import MetricsMemo, get_memo
from repro.resilience.deadline import CancelToken
from repro.sim.measure import MICROBENCH_SECONDS, Measurer
from repro.sim.metrics import KernelMetrics
from repro.utils.rng import restore_rng, spawn_rng, spawn_substreams

__all__ = ["GensorConfig", "GensorResult", "Gensor"]


@dataclass(frozen=True)
class GensorConfig:
    """Tuning knobs of the construction loop.

    The defaults follow the paper's description: temperature annealing to a
    threshold (~100 iterations per chain with the default cooling rate),
    a handful of independent chains for result diversity, and a top-k
    measured shortlist.  ``cooling=0.5`` reproduces the paper's literal
    "T halves each iteration" variant (see the annealing ablation bench).
    """

    seed: int = 0
    initial_temperature: float = 100.0
    cooling: float = 0.93
    threshold: float = 0.01
    num_chains: int = 8
    top_k: int = 16
    enable_vthread: bool = True
    max_iterations_per_chain: int = 400
    #: greedy value-refinement steps applied to the shortlist (paper §IV-D:
    #: the optimal policy picks the action maximizing the state value; we run
    #: that deterministic policy from the best sampled states).  0 disables.
    polish_steps: int = 120
    #: False drops the roofline term from transition benefits, leaving the
    #: bare Formula 1-3 ratios (the single-objective guidance ablation).
    multi_objective: bool = True
    #: independent annealed walks run per compile; each walker runs
    #: ``num_chains`` chains on its own deterministic RNG substream and the
    #: candidate pools are merged.  ``walkers=1`` consumes exactly the
    #: single-walker RNG stream (golden-trace parity).
    walkers: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.cooling < 1.0):
            raise ValueError(f"cooling must be in (0,1), got {self.cooling}")
        if self.initial_temperature <= self.threshold:
            raise ValueError("initial temperature must exceed threshold")
        if self.num_chains < 1 or self.top_k < 1:
            raise ValueError("num_chains and top_k must be >= 1")
        if self.walkers < 1:
            raise ValueError(f"walkers must be >= 1, got {self.walkers}")


@dataclass
class GensorResult:
    """Outcome of one Gensor compilation (same surface as
    :class:`~repro.baselines.base.CompilerResult`)."""

    best: ETIR
    best_metrics: KernelMetrics
    top_results: list[ETIR]
    iterations: int
    states_visited: int
    compile_wall_s: float
    simulated_measure_s: float
    method: str = "gensor"

    @property
    def compile_seconds(self) -> float:
        """Total compile cost: optimization wall clock + simulated profiling."""
        return self.compile_wall_s + self.simulated_measure_s

    @property
    def latency_s(self) -> float:
        return self.best_metrics.latency_s

    @property
    def achieved_flops(self) -> float:
        return self.best_metrics.achieved_flops


class Gensor:
    """Graph-based construction tensor compiler.

    Every walk and polish runs on the structure-of-arrays engine
    (:class:`repro.perf.soa.SoAWalkEngine`), for bare operators and
    program fusion groups alike.  :class:`repro.core.reference.ReferenceGensor`
    overrides :meth:`_walk_engine` to replay the same compile on the
    object-level construction graph — the oracle the engine is tested
    against.
    """

    def __init__(
        self,
        hardware: HardwareSpec,
        config: GensorConfig | None = None,
        tracer: Tracer | None = None,
        memo: MetricsMemo | None = None,
    ) -> None:
        self.hw = hardware
        self.config = config or GensorConfig()
        #: default event sink; per-call tracers can override it.  The
        #: NullTracer default keeps the walk allocation-free: every emission
        #: below is guarded on ``tracer.enabled``.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: shared bounded memo over the full analytical model (noise-free —
        #: this is analysis, not profiling).  The cheap roofline guides the
        #: walk; this model ranks and refines the final candidates.  The
        #: process-wide default memo is shared with DynamicGensor, the
        #: Measurer, and CompileService, so nothing is priced twice.
        self.memo = memo if memo is not None else get_memo()

    def _walk_engine(
        self, compute: ComputeDef, epilogues: "tuple[ComputeDef, ...]" = ()
    ):
        """The engine one compile (or one polish) runs on.

        Engines expose ``run_chain``, ``polish``, ``num_nodes`` and
        ``restore_nodes``; one is built per call because its node memo
        feeds ``states_visited``.
        """
        from repro.perf.soa import SoAWalkEngine

        return SoAWalkEngine(
            compute,
            self.hw,
            multi_objective=self.config.multi_objective,
            epilogues=epilogues,
        )

    def compile(
        self,
        compute: ComputeDef,
        measurer: Measurer | None = None,
        tracer: Tracer | None = None,
        cancel: CancelToken | None = None,
        walkers: int | None = None,
        resume_from=None,
        checkpointer=None,
        epilogues: "tuple[ComputeDef, ...]" = (),
    ) -> GensorResult:
        """Construct an optimized schedule for ``compute``.

        ``epilogues`` is the fusable-epilogue pool of a program fusion
        group (see :mod:`repro.models.program`): the walk gains
        fuse/unfuse edges toggling how many pool ops run inside the anchor
        kernel, and candidates are ranked by *program* cost (kernel
        latency plus the standalone cost of every epilogue left unfused).
        Empty (the default) leaves the single-op walk — actions, RNG
        stream, ranking — byte-identical to the historical path.

        ``measurer`` provides the final top-k profiling; when omitted a
        fresh noise-free measurer on the constructor's device is used.
        ``tracer`` overrides the constructor-level tracer for this call;
        the walk consumes the identical RNG stream with tracing on or off.
        ``cancel`` is a cooperative deadline token polled once per walk
        iteration (and per polish step); an expired token raises
        :class:`~repro.resilience.deadline.CompileCancelled` — polling
        never touches the RNG streams, so cancellation preserves the
        walk's determinism for attempts that do finish.
        ``walkers`` overrides ``config.walkers`` for this call: ``k > 1``
        runs k independent annealed walks over one shared walk engine on
        the worker pool and merges their candidate pools in
        walker order (deterministic regardless of thread scheduling);
        ``1`` consumes exactly the historical single-walker RNG stream.

        ``resume_from`` restarts the walk mid-anneal from a
        :class:`~repro.resilience.checkpoint.WalkCheckpoint`: completed
        chains are skipped, the interrupted chain continues from its
        snapshotted state and exact RNG bit state, and the result is
        byte-identical (schedule, trace suffix, RNG consumption, node
        counts) to the uninterrupted walk.  ``checkpointer`` (a
        :class:`~repro.resilience.checkpoint.Checkpointer`) snapshots the
        walk on its policy's cadence so a later attempt can resume.  Both
        require the effective single-walker path — multi-walker walks are
        deliberately not checkpointed (their merge couples substreams).
        """
        t_start = time.perf_counter()
        cfg = self.config
        epilogues = tuple(epilogues)
        if epilogues and (resume_from is not None or checkpointer is not None):
            raise ValueError(
                "checkpoint/resume is not supported for fused program "
                "groups; compile them without a checkpointer"
            )
        n_walkers = cfg.walkers if walkers is None else int(walkers)
        if n_walkers < 1:
            raise ValueError(f"walkers must be >= 1, got {n_walkers}")
        if n_walkers > 1:
            if resume_from is not None:
                raise ValueError(
                    "resume_from requires a single walker; multi-walker "
                    "walks are not checkpointed"
                )
            checkpointer = None
        if resume_from is not None:
            resume_from.require(compute, cfg)
        tracer = tracer if tracer is not None else self.tracer
        measurer = measurer or Measurer(
            self.hw,
            seed=cfg.seed,
            noise_sigma=0.0,
            seconds_per_measurement=MICROBENCH_SECONDS,
            tracer=tracer,
            memo=self.memo,
        )
        measured_before = measurer.simulated_seconds
        forbid = (
            frozenset()
            if cfg.enable_vthread
            else frozenset({ActionKind.VTHREAD_UP, ActionKind.VTHREAD_DOWN})
        )
        engine = self._walk_engine(compute, epilogues)
        if n_walkers == 1:
            candidates, total_iterations = self._run_walker(
                engine, compute, forbid, tracer, cancel, walker=0,
                resume_from=resume_from, checkpointer=checkpointer,
            )
        else:
            candidates, total_iterations = self._run_walkers(
                engine, compute, forbid, tracer, cancel, n_walkers
            )
        states_visited = engine.num_nodes

        # Algorithm 1 receives dim_configs as input: canonical dimension
        # configurations seed the pool alongside the walked states, so the
        # refinement stage always starts from at least one sane anchor.
        for seed_state in self.seed_states(compute, epilogues=epilogues):
            candidates.setdefault(seed_state.key(), seed_state)
        shortlist = self._rank(candidates.values())[: cfg.top_k]
        if cfg.polish_steps > 0:
            polished = {s.key(): s for s in shortlist}
            for s in shortlist:
                p = self.polish(
                    s, cfg.polish_steps, forbid, tracer=tracer, cancel=cancel
                )
                polished[p.key()] = p
            shortlist = self._rank(polished.values())[: cfg.top_k]
        best, best_metrics = self._measure_shortlist(shortlist, measurer)
        wall = time.perf_counter() - t_start
        if tracer.enabled:
            tracer.emit(
                "compile",
                {
                    "compute": compute.name,
                    "iterations": total_iterations,
                    "states_visited": states_visited,
                    "shortlist": len(shortlist),
                    "best_latency_s": best_metrics.latency_s,
                    "chains": cfg.num_chains,
                },
                dur=wall,
            )
        return GensorResult(
            best=best,
            best_metrics=best_metrics,
            top_results=shortlist,
            iterations=total_iterations,
            states_visited=states_visited,
            compile_wall_s=wall,
            simulated_measure_s=measurer.simulated_seconds - measured_before,
        )

    def compile_graph(
        self,
        model_graph,
        fusion: bool = True,
        measurer: Measurer | None = None,
        tracer: Tracer | None = None,
    ):
        """Compile a whole :class:`~repro.models.graph.ModelGraph` as one
        program and return a
        :class:`~repro.models.program.CompiledProgram`.

        The graph is greedily partitioned into fusion groups (anchor +
        elementwise epilogue chain); each group compiles through
        :meth:`compile` with its epilogue pool, so the walk decides
        fusion.  ``fusion=False`` compiles every op as its own group —
        byte-identical RNG streams to per-op compilation.
        """
        from repro.models.program import compile_program

        return compile_program(
            self, model_graph, fusion=fusion, measurer=measurer, tracer=tracer
        )

    # -- the annealed walk -------------------------------------------------------

    def _run_walker(
        self,
        engine,
        compute: ComputeDef,
        forbid: frozenset[str],
        tracer: Tracer,
        cancel: CancelToken | None,
        walker: int,
        resume_from=None,
        checkpointer=None,
    ) -> tuple[dict[tuple, ETIR], int]:
        """Run one walker's ``num_chains`` annealed chains on ``engine``;
        return its candidate pool (insertion-ordered) and iteration count.

        Walker 0 derives each chain's generator exactly as the historical
        single-walker path did (``spawn_rng(seed, "gensor", name, chain)``),
        so ``walkers=1`` is byte-identical to the pre-walker RNG stream.
        Walkers ``w > 0`` draw their chains from ``SeedSequence.spawn``
        substreams of a walker-labeled seed — independent of walker 0 and
        of each other by construction.

        ``resume_from`` (walker 0 only) rebuilds the mid-walk view its
        checkpoint froze — the candidate pool in insertion order (ranking
        tie-breaks depend on it), the node bookkeeping (membership drives
        future ``num_nodes`` increments), the completed-chain iteration
        total — then skips the completed chains and continues the
        interrupted one from its snapshotted state, temperature, and
        exact RNG bit state.  Later chains spawn their generators
        normally, so they consume the streams the uninterrupted walk
        would have.
        """
        cfg = self.config
        substreams = (
            spawn_substreams(
                cfg.seed, "gensor", compute.name, "walker", walker,
                n=cfg.num_chains,
            )
            if walker > 0
            else None
        )
        candidates: dict[tuple, ETIR] = {}
        total_iterations = 0
        start_chain = 0
        if resume_from is not None and walker == 0:
            from repro.resilience.checkpoint import config_to_state

            start_chain = resume_from.chain
            total_iterations = resume_from.total_steps - resume_from.iteration
            for state_cfg in resume_from.candidates:
                state = config_to_state(
                    compute, state_cfg, resume_from.num_levels
                )
                candidates[state.key()] = state
            engine.restore_nodes(resume_from.node_keys, resume_from.nodes_seen)
            if checkpointer is not None:
                checkpointer.start_from(resume_from)
        for chain in range(start_chain, cfg.num_chains):
            resume = None
            if resume_from is not None and walker == 0 and chain == resume_from.chain:
                rng = restore_rng(resume_from.rng_state)
                r_tiles, r_vthreads, r_level = resume_from.state
                resume = (
                    np.array(r_tiles, dtype=np.int64),
                    np.array(r_vthreads, dtype=np.int64),
                    int(r_level),
                    resume_from.temperature,
                    resume_from.iteration,
                )
            elif substreams is None:
                rng = spawn_rng(cfg.seed, "gensor", compute.name, chain)
            else:
                rng = substreams[chain]
            total_iterations += engine.run_chain(
                cfg, rng, forbid, tracer, cancel,
                walker * cfg.num_chains + chain, candidates,
                checkpointer=checkpointer, base_steps=total_iterations,
                resume=resume,
            )
        return candidates, total_iterations

    def _run_walkers(
        self,
        engine,
        compute: ComputeDef,
        forbid: frozenset[str],
        tracer: Tracer,
        cancel: CancelToken | None,
        n_walkers: int,
    ) -> tuple[dict[tuple, ETIR], int]:
        """Run ``n_walkers`` independent walkers concurrently and merge.

        Each walker owns its RNG substreams and candidate dict; they share
        the engine and the metrics memo (both value-identical under
        recomputation, so races only affect cache hit rates).  The merge
        happens in walker order, so the pooled candidate ordering — and
        therefore ranking tie-breaks — is deterministic regardless of
        thread scheduling.
        """
        from repro.serve.pool import WorkerPool

        results: list[tuple[dict[tuple, ETIR], int] | None] = [None] * n_walkers
        errors: list[BaseException] = []

        def make_task(w: int):
            def task() -> None:
                try:
                    results[w] = self._run_walker(
                        engine, compute, forbid, tracer, cancel, walker=w
                    )
                except BaseException as exc:  # repro: ignore[broad-except] - transported, re-raised on the caller thread
                    errors.append(exc)

            return task

        pool = WorkerPool(
            workers=n_walkers, capacity=n_walkers, name="gensor-walker"
        )
        try:
            for w in range(n_walkers):
                pool.submit_nowait(make_task(w))
        finally:
            pool.shutdown(wait=True)
        if errors:
            raise errors[0]
        candidates: dict[tuple, ETIR] = {}
        total_iterations = 0
        for res in results:
            assert res is not None
            walker_candidates, iterations = res
            for key, state in walker_candidates.items():
                candidates.setdefault(key, state)
            total_iterations += iterations
        return candidates, total_iterations

    # -- warm-start hooks (public: used by DynamicGensor and repro.serve) --------

    def polish(
        self,
        state: ETIR,
        max_steps: int,
        forbid: frozenset[str] = frozenset(),
        tracer: Tracer | None = None,
        cancel: CancelToken | None = None,
        resume_from=None,
    ) -> ETIR:
        """Deterministic greedy refinement under the analytical value.

        Implements the optimal policy of the paper's value iteration: from
        ``state``, repeatedly move to the neighbor (tile change at any
        level, vThread change) with the lowest analytical latency, until a
        local optimum.  Purely analytical — no measurements.

        Public API: warm-started and degraded serving paths refine adapted
        cache entries with a reduced step budget instead of a full walk.

        ``resume_from`` continues an interrupted polish from a
        polish-phase checkpoint
        (:meth:`~repro.resilience.checkpoint.WalkCheckpoint.for_polish`):
        greedy refinement is memoryless, so restarting from the
        checkpointed state with the remaining budget yields the exact
        state the uninterrupted polish would have reached.
        """
        tracer = tracer if tracer is not None else self.tracer
        if resume_from is not None:
            from repro.resilience.checkpoint import config_to_state

            resume_from.require_polish(state.compute)
            state = config_to_state(
                state.compute, resume_from.state, resume_from.num_levels
            )
            max_steps = max(0, max_steps - resume_from.iteration)
        engine = self._walk_engine(state.compute, state.epilogue_pool)
        return engine.polish(
            state, max_steps, forbid, tracer=tracer, cancel=cancel
        )

    def seed_states(
        self,
        compute: ComputeDef,
        epilogues: "tuple[ComputeDef, ...]" = (),
    ) -> list[ETIR]:
        """Canonical dim_configs: square-ish thread tiles with block tiles a
        power-of-two multiple, reduce axes staged in warp-wide chunks.

        Public API: the cheapest serving tier picks the best seed when a
        deadline leaves no room for construction or refinement.

        With an epilogue pool, every canonical tiling is seeded twice —
        fully unfused and fully fused — so program ranking always compares
        both fusion extremes even if the walk undersamples one.
        """
        spatial = [ax for ax in compute.axes if not ax.is_reduce]
        reduce_axes = [ax for ax in compute.axes if ax.is_reduce]
        epilogues = tuple(epilogues)
        seeds: list[ETIR] = []
        for t_sp in (8, 4, 2, 1):
            for blk_mult in (16, 8, 4):
                thread: dict[str, int] = {}
                block: dict[str, int] = {}
                for ax in spatial:
                    thread[ax.name] = min(t_sp, ax.extent)
                    block[ax.name] = min(ax.extent, thread[ax.name] * blk_mult)
                for ax in reduce_axes:
                    thread[ax.name] = min(2, ax.extent)
                    block[ax.name] = min(32, ax.extent)
                try:
                    state = ETIR.from_tiles(compute, block, thread)
                except ValueError:
                    continue
                if epilogues:
                    state = ETIR(
                        compute,
                        state.config,
                        state.cur_level,
                        state.num_levels,
                        epilogue_pool=epilogues,
                    )
                if state.memory_ok(self.hw):
                    seeds.append(state)
                if epilogues:
                    fused = state
                    while fused.fused < len(epilogues):
                        nxt = fused.with_fuse()
                        if nxt is None:  # pragma: no cover - loop-bounded
                            break
                        fused = nxt
                    if fused.memory_ok(self.hw):
                        seeds.append(fused)
        return seeds

    # -- internals ---------------------------------------------------------------

    def _rank(self, states) -> list[ETIR]:
        """Order candidates by the internal analytical model (best first).

        One memo round-trip prices the feasible pool; the insertion index
        is the tie-break.  Program groups rank on program cost: unfused
        epilogues cost their own kernels.
        """
        feasible = [
            (i, s) for i, s in enumerate(states) if s.memory_ok(self.hw)
        ]
        lats = self.memo.latency_batch(self.hw, [s for _i, s in feasible])
        scored = [
            (
                float(lat) + pending_penalty_s(s, self.hw)
                if s.epilogue_pool
                else float(lat),
                i,
                s,
            )
            for (i, s), lat in zip(feasible, lats)
        ]
        scored.sort(key=lambda item: (item[0], item[1]))
        return [s for _lat, _i, s in scored if math.isfinite(_lat)]

    def _measure_shortlist(
        self, shortlist: list[ETIR], measurer: Measurer
    ) -> tuple[ETIR, KernelMetrics]:
        if not shortlist:
            raise RuntimeError("Gensor produced no feasible candidate states")
        best: ETIR | None = None
        best_metrics: KernelMetrics | None = None
        best_obj = math.inf
        for state in shortlist:
            metrics = measurer.measure(state)
            obj = metrics.latency_s
            if state.epilogue_pool:
                obj += pending_penalty_s(state, self.hw)
            if best_metrics is None or obj < best_obj:
                best, best_metrics, best_obj = state, metrics, obj
        assert best is not None and best_metrics is not None
        return best, best_metrics

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

from repro.core.actions import ActionKind
from repro.core.score import program_cost_s
from repro.hardware.spec import HardwareSpec
from repro.ir.compute import ComputeDef
from repro.ir.etir import ETIR
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.perf.memo import MetricsMemo, get_memo
from repro.resilience.deadline import CancelToken
from repro.sim.measure import MICROBENCH_SECONDS, Measurer
from repro.sim.metrics import KernelMetrics
from repro.utils.rng import restore_rng, spawn_rng

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

    def __post_init__(self) -> None:
        if not (0.0 < self.cooling < 1.0):
            raise ValueError(f"cooling must be in (0,1), got {self.cooling}")
        if self.initial_temperature <= self.threshold:
            raise ValueError("initial temperature must exceed threshold")
        if self.num_chains < 1 or self.top_k < 1:
            raise ValueError("num_chains and top_k must be >= 1")


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

        Engines expose their ``epilogues`` pool, ``run_chains`` (which
        walks every chain in lockstep rounds, each filling its own
        candidate pool, a dict the engine owns the row format of),
        ``add_states`` and ``rank`` over a pool, ``polish`` (a list of
        states in, the polished list out), ``num_nodes`` and
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

        ``resume_from`` restarts the walk mid-anneal from a
        :class:`~repro.resilience.checkpoint.WalkCheckpoint` of the same
        operator name, group key and walk config: every chain continues
        from its snapshotted state, temperature and exact RNG bit state
        (a chain that had stopped stays stopped, and a round the snapshot
        cut short is finished first), and the result is byte-identical
        (schedule, trace suffix, RNG consumption, node counts) to the
        uninterrupted walk.  ``checkpointer`` (a
        :class:`~repro.resilience.checkpoint.Checkpointer`) snapshots the
        walk on its policy's cadence so a later attempt can resume.  Both
        work alike for bare operators and fusion groups.
        """
        t_start = time.perf_counter()
        cfg = self.config
        epilogues = tuple(epilogues)
        if resume_from is not None:
            resume_from.require(compute, cfg, epilogues)
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
        pool, total_iterations = self._run_walker(
            engine, compute, forbid, tracer, cancel,
            resume_from=resume_from, checkpointer=checkpointer,
        )
        states_visited = engine.num_nodes

        # Algorithm 1 receives dim_configs as input: canonical dimension
        # configurations seed the pool alongside the walked states, so the
        # refinement stage always starts from at least one sane anchor.
        engine.add_states(pool, self.seed_states(compute, epilogues=epilogues))
        shortlist = engine.rank(pool, cfg.top_k)
        if cfg.polish_steps > 0:
            polished = engine.polish(
                shortlist, cfg.polish_steps, forbid, tracer=tracer, cancel=cancel
            )
            refined: dict[tuple, object] = {}
            engine.add_states(refined, shortlist + polished)
            shortlist = engine.rank(refined, cfg.top_k)
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
        resume_from=None,
        checkpointer=None,
    ) -> tuple[dict[tuple, object], int]:
        """Run the ``num_chains`` annealed chains on ``engine``; return the
        candidate pool (insertion-ordered) and iteration count.

        Chain ``c`` draws from ``spawn_rng(seed, "gensor", name, c)`` and
        fills its own pool.  The engine advances the chains in lockstep
        rounds; the pools merge here in chain order, a state's first
        insertion keeping its place, which is the order the chains run
        one after another would give, so ranking tie-breaks do not depend
        on the interleaving.

        ``resume_from`` rebuilds the mid-walk view its checkpoint froze:
        each chain's candidates in insertion order, state (fused count
        included), temperature, iteration, exact RNG bit state and whether
        it had stopped, plus the node bookkeeping (membership drives
        future ``num_nodes`` increments).
        """
        from repro.resilience.checkpoint import config_to_state

        cfg = self.config
        pools: list[dict[tuple, object]] = [{} for _ in range(cfg.num_chains)]
        if resume_from is None:
            starts = [
                (spawn_rng(cfg.seed, "gensor", compute.name, c), pools[c], None)
                for c in range(cfg.num_chains)
            ]
        else:
            starts = []
            for pool, record in zip(pools, resume_from.chains):
                engine.add_states(
                    pool,
                    [
                        config_to_state(
                            compute, c, resume_from.num_levels, engine.epilogues
                        )
                        for c in record.candidates
                    ],
                )
                starts.append((restore_rng(record.rng_state), pool, record))
            engine.restore_nodes(resume_from.node_keys, resume_from.nodes_seen)
            if checkpointer is not None:
                checkpointer.start_from(resume_from)
        iterations = engine.run_chains(
            cfg, starts, forbid, tracer, cancel, checkpointer=checkpointer
        )
        merged: dict[tuple, object] = {}
        for pool in pools:
            for key, row in pool.items():
                merged.setdefault(key, row)
        return merged, sum(iterations)

    # -- warm-start hooks (public: used by DynamicGensor and repro.serve) --------

    def polish(
        self,
        states: list[ETIR],
        max_steps: int,
        forbid: frozenset[str] = frozenset(),
        tracer: Tracer | None = None,
        cancel: CancelToken | None = None,
    ) -> list[ETIR]:
        """Deterministic greedy refinement under the analytical value.

        Implements the optimal policy of the paper's value iteration: from
        each state, repeatedly move to the neighbor (tile change at any
        level, vThread change) with the lowest analytical latency, until a
        local optimum.  Purely analytical — no measurements.  ``states``
        (at least one) share one operator and epilogue pool, and polish
        as one batch on one engine; the result is in their order.

        Public API: warm-started and degraded serving paths refine adapted
        cache entries with a reduced step budget instead of a full walk.
        """
        tracer = tracer if tracer is not None else self.tracer
        engine = self._walk_engine(states[0].compute, states[0].epilogue_pool)
        return engine.polish(states, max_steps, forbid, tracer=tracer, cancel=cancel)

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
                    state = ETIR.from_tiles(
                        compute, block, thread, epilogue_pool=epilogues
                    )
                except ValueError:
                    continue
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
            obj = program_cost_s(state, metrics.latency_s, self.hw)
            if best_metrics is None or obj < best_obj:
                best, best_metrics, best_obj = state, metrics, obj
        assert best is not None and best_metrics is not None
        return best, best_metrics

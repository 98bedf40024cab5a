"""DynamicGensor: real-time re-optimization for dynamic DNNs.

The paper closes with "ongoing work aims to design a dynamic optimizing
system based on Gensor to achieve efficient real-time optimization of
dynamic deep neural networks" — this module implements that system:

* a per-device :class:`~repro.core.cache.ScheduleCache` remembers every
  shape ever optimized (exact hits compile in microseconds),
* unseen shapes *warm-start*: the nearest cached configuration of the
  same operator family is adapted to the new extents and refined with the
  deterministic value-policy (the polish pass), skipping the full
  annealed walk,
* shapes with no usable neighbor fall back to the full Gensor
  construction — whose winner then enters the cache.

Program fusion groups (an anchor plus its epilogue pool) take the same
three tiers under their group key, so a whole-model program compiles
cold once and then hits or warm-starts group by group.

The result is amortized seconds-to-microseconds compilation across a
dynamic shape stream, at schedule quality matching cold construction
(see ``benchmarks/test_dynamic_gensor.py``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core.cache import ScheduleCache
from repro.core.constructor import Gensor, GensorConfig, GensorResult
from repro.core.score import program_cost_s
from repro.hardware.spec import HardwareSpec
from repro.ir.compute import ComputeDef
from repro.ir.etir import ETIR
from repro.obs.tracer import Tracer
from repro.resilience.deadline import CancelToken
from repro.sim.measure import MICROBENCH_SECONDS, Measurer

__all__ = ["DynamicGensor", "DynamicCompileResult"]


@dataclass
class DynamicCompileResult:
    """One dynamic compilation, tagged with how it was served."""

    result: GensorResult
    #: "hit" (exact cache), "warm" (nearest-neighbor + refine), "cold"
    #: (full construction).
    source: str

    @property
    def latency_s(self) -> float:
        return self.result.best_metrics.latency_s

    @property
    def compile_seconds(self) -> float:
        return self.result.compile_seconds


@dataclass
class DynamicStats:
    hits: int = 0
    warm: int = 0
    cold: int = 0
    #: guards increments — the serving layer drives one DynamicGensor from
    #: many worker threads.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count(self, source: str) -> None:
        with self._lock:
            if source == "hit":
                self.hits += 1
            elif source == "warm":
                self.warm += 1
            elif source == "cold":
                self.cold += 1
            else:
                raise ValueError(f"unknown serve source {source!r}")

    @property
    def total(self) -> int:
        return self.hits + self.warm + self.cold


class DynamicGensor:
    """Cache-backed, warm-starting Gensor for dynamic shape streams."""

    def __init__(
        self,
        hardware: HardwareSpec,
        config: GensorConfig | None = None,
        cache: ScheduleCache | None = None,
        #: refinement steps applied to a warm-started configuration.
        warm_polish_steps: int = 40,
        #: how many of the (adapted entry + seed) candidates get polished;
        #: serving deployments shrink this to cut per-request CPU.
        warm_pool: int = 3,
    ) -> None:
        if warm_pool < 1:
            raise ValueError(f"warm_pool must be >= 1, got {warm_pool}")
        self.hw = hardware
        self.config = config or GensorConfig()
        # not `cache or ...`: ScheduleCache has __len__, so an *empty*
        # injected cache is falsy and would be silently replaced — fatal
        # for fleet shards, which hand in an empty cache wired to the
        # shared on-disk database.
        self.cache = cache if cache is not None else ScheduleCache(hardware)
        self.warm_polish_steps = warm_polish_steps
        self.warm_pool = warm_pool
        self.stats = DynamicStats()
        #: the underlying constructor — public so the serving layer can use
        #: its warm-start hooks (``seed_states`` / ``polish``) directly.
        self.gensor = Gensor(hardware, self.config)

    @property
    def memo(self):
        """The shared metrics memo (same instance the constructor prices with)."""
        return self.gensor.memo

    def compile(
        self,
        compute: ComputeDef,
        measurer: Measurer | None = None,
        tracer: Tracer | None = None,
        cancel: CancelToken | None = None,
        resume_from=None,
        checkpointer=None,
        epilogues: "tuple[ComputeDef, ...]" = (),
    ) -> DynamicCompileResult:
        """Serve one shape: cache hit, warm start, or cold construction.

        ``cancel`` is forwarded into the polish/construction loops so the
        serving layer's per-attempt timeouts can reclaim a hung compile.
        ``resume_from``/``checkpointer`` apply to the cold path only — the
        hit and warm tiers never run the annealed walk, so there is
        nothing to checkpoint or resume there (a stale checkpoint simply
        rides along unused when the cache answers first).

        ``epilogues`` (a program fusion group's pool) serves the group
        through the same tiers under its group key
        (:func:`~repro.core.cache.group_fingerprint`): a hit rebuilds the
        cached tiling with the entry's fused count, a warm start adapts
        the nearest entry of the same anchor and pool families and
        polishes it with the pool, and every tier ranks by program cost
        (:func:`~repro.core.score.program_cost_s`).  A fused entry never
        answers for the bare anchor, nor a bare entry for the group.
        Fused cold walks checkpoint and resume like bare ones.
        """
        epilogues = tuple(epilogues)
        tracer = tracer if tracer is not None else self.gensor.tracer
        measurer = measurer or Measurer(
            self.hw,
            seed=self.config.seed,
            noise_sigma=0.0,
            seconds_per_measurement=MICROBENCH_SECONDS,
            tracer=tracer,
        )
        t0 = time.perf_counter()

        exact = self.cache.get(compute, epilogues)
        if exact is not None:
            state = exact.instantiate(compute, epilogues)
            if state is not None and state.memory_ok(self.hw):
                self.stats.count("hit")
                metrics = self.memo.evaluate(self.hw, state)
                wall = time.perf_counter() - t0
                self._trace(tracer, compute, "hit", wall)
                return DynamicCompileResult(
                    GensorResult(
                        best=state,
                        best_metrics=metrics,
                        top_results=[state],
                        iterations=0,
                        states_visited=1,
                        compile_wall_s=wall,
                        simulated_measure_s=0.0,
                    ),
                    source="hit",
                )

        neighbor = self.cache.nearest(compute, epilogues)
        if neighbor is not None:
            warm = neighbor.instantiate(compute, epilogues)
            if warm is not None and warm.memory_ok(self.hw):
                self.stats.count("warm")
                measured_before = measurer.simulated_seconds
                # Refine the adapted entry alongside the best canonical dim
                # configs — one batched deterministic polish instead of the
                # full annealed walk.
                pool = [warm] + self.gensor.seed_states(compute, epilogues)
                # Batched pricing; a stable index sort preserves the tie
                # order of the old ``pool.sort(key=latency)``.
                costs = self._costs(pool)
                pool = [
                    pool[i]
                    for i in sorted(range(len(pool)), key=costs.__getitem__)
                ]
                polished = self.gensor.polish(
                    pool[: self.warm_pool],
                    self.warm_polish_steps,
                    frozenset(),
                    tracer=tracer,
                    cancel=cancel,
                )
                costs = self._costs(polished)
                refined = polished[
                    min(range(len(polished)), key=costs.__getitem__)
                ]
                metrics = measurer.measure(refined)
                wall = time.perf_counter() - t0
                result = GensorResult(
                    best=refined,
                    best_metrics=metrics,
                    top_results=[refined],
                    iterations=0,
                    states_visited=1,
                    compile_wall_s=wall,
                    simulated_measure_s=measurer.simulated_seconds
                    - measured_before,
                )
                self.cache.put(refined, metrics.latency_s)
                self._trace(tracer, compute, "warm", wall)
                return DynamicCompileResult(result, source="warm")

        self.stats.count("cold")
        result = self.gensor.compile(
            compute,
            measurer,
            tracer=tracer,
            cancel=cancel,
            resume_from=resume_from,
            checkpointer=checkpointer,
            epilogues=epilogues,
        )
        self.cache.put(result.best, result.best_metrics.latency_s)
        self._trace(tracer, compute, "cold", time.perf_counter() - t0)
        return DynamicCompileResult(result, source="cold")

    def compile_graph(
        self,
        model_graph,
        fusion: bool = True,
        measurer: Measurer | None = None,
        tracer: Tracer | None = None,
    ):
        """Compile a :class:`~repro.models.graph.ModelGraph` as one program
        (see :meth:`Gensor.compile_graph`); every group, fused or single-op,
        is served through the cache tiers under its group key, and each
        :class:`~repro.models.program.CompiledGroup` records its tier."""
        from repro.serve.program import (
            ProgramRequest,
            inline_submit,
            serve_program,
        )

        def compile_group(compute, epilogues):
            served = self.compile(
                compute, measurer, tracer=tracer, epilogues=epilogues
            )
            return served.result, served.source

        return serve_program(
            inline_submit(compile_group, self.hw),
            ProgramRequest.from_graph(model_graph, fusion=fusion),
            tracer=tracer,
        ).program

    def _costs(self, states: list[ETIR]) -> list[float]:
        """Program cost of each state (one batched memo round trip)."""
        lats = self.memo.latency_batch(self.hw, states)
        return [program_cost_s(s, lat, self.hw) for s, lat in zip(states, lats)]

    @staticmethod
    def _trace(
        tracer: Tracer, compute: ComputeDef, source: str, wall: float
    ) -> None:
        if tracer.enabled:
            tracer.emit(
                "dynamic_serve",
                {"compute": compute.name, "source": source},
                dur=wall,
            )

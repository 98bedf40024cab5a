"""The construction-walk benchmark (``python -m repro bench walk``).

Measures the throughput of Gensor's hot path on the Fig. 6 / Table IV
operator suite and writes ``BENCH_walk.json``, so every PR leaves a
comparable perf datapoint:

* **states/sec** of the annealed walk on the two bit-identical engines:
  the structure-of-arrays core every compile runs on
  (:mod:`repro.perf.soa`) and the object-level reference it is held to
  (:class:`~repro.core.reference.ReferenceGensor`).  Both produce
  bit-identical schedules, so the ratio is pure pricing/bookkeeping
  overhead;
* **expand / evaluate micro-latencies** over a sampled frontier;
* **memo hit rate** of the shared :class:`~repro.perf.memo.MetricsMemo`.

Every run is fully deterministic given ``seed``: ``--repeats N`` draws
each repeat's walk seed from a ``SeedSequence`` substream of the root
seed (repeat 0 keeps the root seed itself), so repeated runs sample
distinct walks while the whole family stays reproducible.  The speedup
compares *matched-seed* repeats and reports the best pair (see
:func:`_matched_speedup`); section headline throughputs are the best
single repeat of that section.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.constructor import Gensor, GensorConfig
from repro.core.graph import ConstructionGraph
from repro.core.reference import ReferenceGensor
from repro.hardware.spec import HardwareSpec
from repro.perf.memo import MetricsMemo
from repro.sim.costmodel import CostModel
from repro.utils.rng import spawn_seed_ints
from repro.workloads.table4 import TABLE4_CONFIGS

__all__ = ["run_walk_bench", "write_bench", "QUICK_LABELS", "BENCH_SCHEMA"]

#: v4: ``reference`` and ``soa`` sections, ``soa_speedup_states_per_sec``
#: as SoA over the reference, and ``micro`` =
#: ``evaluate_us``/``expand_reference_us``/``expand_soa_us``.
BENCH_SCHEMA = "repro.bench.walk/v4"

#: one operator per family — the CI smoke subset.
QUICK_LABELS = ("C1", "M1", "V1", "P1")

#: reduced walk for --quick so the smoke job stays in seconds (the CI
#: operating point, and the one the committed BENCH_walk.json records).
#: The long polish budget keeps the post-walk pipeline — rank and polish,
#: which the reference runs one state at a time — in the gated ratio.
_QUICK_CONFIG = dict(num_chains=2, max_iterations_per_chain=24, polish_steps=100)


def _suite(quick: bool):
    if quick:
        return [c for c in TABLE4_CONFIGS if c.label in QUICK_LABELS]
    return list(TABLE4_CONFIGS)


def _compile_suite(
    hardware: HardwareSpec,
    configs,
    cfg: GensorConfig,
    shared_memo: MetricsMemo,
    gensor_cls: type[Gensor] = Gensor,
) -> dict:
    """Compile every operator once; return per-op and aggregate throughput."""
    ops = []
    total_iterations = 0
    total_wall = 0.0
    for op in configs:
        compute = op.build()
        gensor = gensor_cls(hardware, cfg, memo=shared_memo)
        t0 = time.perf_counter()
        result = gensor.compile(compute)
        wall = time.perf_counter() - t0
        total_iterations += result.iterations
        total_wall += wall
        ops.append(
            {
                "label": op.label,
                "iterations": result.iterations,
                "states_visited": result.states_visited,
                "compile_wall_s": wall,
                "states_per_sec": result.iterations / wall if wall > 0 else 0.0,
                "best_latency_s": result.best_metrics.latency_s,
            }
        )
    return {
        "ops": ops,
        "total_iterations": total_iterations,
        "total_wall_s": total_wall,
        "states_per_sec": (
            total_iterations / total_wall if total_wall > 0 else 0.0
        ),
    }


def _micro_latencies(hardware: HardwareSpec, configs, seed: int) -> dict:
    """Expand/evaluate micro-latencies over a sampled walk frontier."""
    from repro.core.policy import TransitionPolicy
    from repro.ir.etir import ETIR
    from repro.utils.rng import spawn_rng

    # Sample ~200 distinct states by walking each operator a few steps.
    states = []
    for op in configs:
        compute = op.build()
        graph = ConstructionGraph(hardware)
        rng = spawn_rng(seed, "bench-micro", compute.name)
        policy = TransitionPolicy(graph, rng)
        state = ETIR.initial(compute, num_levels=hardware.num_cache_levels)
        for step in range(50):
            states.append(state)
            edge = policy.select(state, step * 0.1, frozenset())
            if edge is None:
                break
            state = edge.dst

    model = CostModel(hardware)
    t0 = time.perf_counter()
    for s in states:
        model.evaluate(s)
    evaluate_s = time.perf_counter() - t0

    # Expand timings on a fresh graph (memoized edges would measure a dict hit).
    reference_graph = ConstructionGraph(hardware)
    t0 = time.perf_counter()
    for s in states:
        reference_graph.expand(s)
    expand_reference_s = time.perf_counter() - t0

    # SoA expand over the same states: one engine per operator (the engine
    # is compute-specific), decoded configs fed straight to the array path.
    from repro.perf.soa import SoAWalkEngine

    engines: dict[int, SoAWalkEngine] = {}
    t0 = time.perf_counter()
    for s in states:
        engine = engines.get(id(s.compute))
        if engine is None:
            engine = engines[id(s.compute)] = SoAWalkEngine(s.compute, hardware)
        tiles, vthreads = s.config_arrays()
        engine.expand([(tiles, vthreads, s.cur_level, s.fused)])
    expand_soa_s = time.perf_counter() - t0

    n = max(1, len(states))
    return {
        "sampled_states": len(states),
        "evaluate_us": evaluate_s / n * 1e6,
        "expand_reference_us": expand_reference_s / n * 1e6,
        "expand_soa_us": expand_soa_s / n * 1e6,
    }


def _repeat_seeds(seed: int, repeats: int) -> list[int]:
    """Per-repeat walk seeds for ``--repeats N``.

    Repeat 0 keeps the root seed itself (so ``repeats=1`` is byte-identical
    to a plain run); later repeats draw fresh seed integers from a labeled
    ``SeedSequence`` spawn tree.  Historically every repeat re-ran the same
    seed, which only de-noised wall time; distinct substreams make repeats
    sample distinct walks while the family stays deterministic — the same
    root seed always yields the same per-repeat seeds, iteration counts,
    and states visited.
    """
    n = max(1, repeats)
    if n == 1:
        return [seed]
    return [seed, *spawn_seed_ints(seed, "bench-walk", "repeat", n=n - 1)]


def _best_of(seeds: "list[int]", fn) -> dict:
    """Best throughput over one suite compilation per seed in ``seeds``.

    ``fn(seed)`` runs the suite once with that walk seed.  The
    highest-states/sec payload is kept — with per-repeat seeds the walks
    differ in length, so raw wall time would bias selection toward short
    walks; throughput is the quantity the sections compare.  Every
    repeat's deterministic walk footprint is recorded under
    ``repeat_runs`` — the regression surface for repeat determinism.
    """
    best: dict | None = None
    repeat_runs: list[dict] = []
    for s in seeds:
        run = fn(s)
        repeat_runs.append(
            {
                "seed": int(s),
                "total_iterations": run["total_iterations"],
                "states_visited": sum(
                    op["states_visited"] for op in run["ops"]
                ),
                "total_wall_s": run["total_wall_s"],
                "states_per_sec": run["states_per_sec"],
            }
        )
        if best is None or run["states_per_sec"] > best["states_per_sec"]:
            best = run
    assert best is not None
    best["repeat_runs"] = repeat_runs
    return best


def _matched_speedup(num: dict, den: dict) -> float:
    """Best matched-seed throughput ratio between two ``_best_of`` payloads.

    Repeat ``i`` of every section runs the *same* walk seed, and the
    compared paths replay bit-identical walks — so the per-repeat ratio
    is a pure wall-clock comparison with walk-length differences
    cancelled exactly.  Comparing independently-selected section bests
    instead would let scheduler noise land on opposite sides of the
    ratio (a lucky denominator repeat against an unlucky numerator
    repeat), which made 4x-scale CI gates flake; the best matched pair
    is the de-noised statistic.
    """
    ratios = [
        n["states_per_sec"] / d["states_per_sec"]
        for n, d in zip(num["repeat_runs"], den["repeat_runs"])
        if d["states_per_sec"] > 0
    ]
    return max(ratios, default=0.0)


def run_walk_bench(
    device,
    seed: int = 0,
    quick: bool = False,
    repeats: int = 1,
) -> dict:
    """Run the full walk benchmark; returns the ``BENCH_walk.json`` payload.

    ``device`` is a :class:`HardwareSpec`.  ``quick`` restricts the suite
    to one operator per family with a reduced walk (the CI smoke mode).
    ``repeats`` reports the best wall of N runs per measurement, each on
    its own deterministic seed substream (see :func:`_repeat_seeds`).
    """
    configs = _suite(quick)
    extra = _QUICK_CONFIG if quick else {}
    seeds = _repeat_seeds(seed, repeats)

    def _cfg(s: int) -> GensorConfig:
        return GensorConfig(seed=s, **extra)

    # The object-level reference: ConstructionGraph + TransitionPolicy +
    # scalar action_benefit, per-neighbour polish.
    def _reference_run(s: int) -> dict:
        return _compile_suite(
            device, configs, _cfg(s), shared_memo=MetricsMemo(),
            gensor_cls=ReferenceGensor,
        )

    reference = _best_of(seeds, _reference_run)

    # The SoA engine every compile runs on.
    def _soa_run(s: int) -> dict:
        memo = MetricsMemo()
        run = _compile_suite(device, configs, _cfg(s), shared_memo=memo)
        run["memo_stats"] = memo.stats()
        return run

    soa = _best_of(seeds, _soa_run)
    memo_stats = soa.pop("memo_stats")
    soa_speedup = _matched_speedup(soa, reference)

    return {
        "schema": BENCH_SCHEMA,
        "device": device.name,
        "seed": seed,
        "quick": quick,
        "repeats": max(1, repeats),
        "repeat_seeds": [int(s) for s in seeds],
        "suite": [op.label for op in configs],
        "reference": reference,
        "soa": soa,
        "soa_speedup_states_per_sec": soa_speedup,
        "memo": memo_stats,
        "micro": _micro_latencies(device, configs, seed),
    }


def write_bench(payload: dict, path: str | Path) -> Path:
    out = Path(path)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out

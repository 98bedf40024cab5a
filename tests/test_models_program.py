"""Whole-graph program compilation: fusion planning, legality, parity.

Three layers of guarantees:

- **Planning** (:func:`repro.models.program.plan_fusion`): greedy grouping
  follows the model's dataflow order, only groups ops with equal counts
  and matching spatial iteration spaces, and caps chain length.
- **Legality** (ETIR / Schedule): fuse/unfuse are exactly reversible, and
  reduce-axis epilogues are rejected at both the state and schedule layer
  (they need the intermediate materialized).
- **Parity / win**: routing a graph through the program machinery with
  ``fusion=False`` reproduces per-op compilation exactly, and with fusion
  on, BERT batch-1 beats the per-op latency sum by the margin the fusion
  model predicts (>= 10%).
"""

from __future__ import annotations

import pytest

from repro.core import CachedSchedule, DynamicGensor, Gensor, GensorConfig
from repro.ir import operators as ops
from repro.ir.etir import ETIR
from repro.ir.schedule import Schedule, ScheduleError
from repro.models import (
    ModelGraph,
    bert_small,
    compile_and_time,
    compile_program,
    plan_fusion,
)
from repro.models.program import MAX_EPILOGUES_PER_GROUP

QUICK = GensorConfig(
    seed=0, num_chains=2, top_k=4, polish_steps=20, max_iterations_per_chain=30
)


def anchored(state) -> dict[str, tuple[str, ...]]:
    """Fusion plan as {anchor name: epilogue names} for easy assertions."""
    return {g.anchor.name: tuple(ep.name for ep in g.epilogues) for g in state.groups}


# -- planning -----------------------------------------------------------------


class TestPlanFusion:
    def test_bert_groups_expected_chains(self):
        # seq=128 keeps scores/context distinct shapes (at seq=64 they
        # collapse into one op instance and their counts diverge from
        # softmax's, which correctly blocks that fusion).
        graph = bert_small(batch=1, seq=128)
        plan = plan_fusion(graph)
        groups = anchored(plan)
        tag = graph.name
        # The three classic epilogue chains fuse; the matmul-after-matmul
        # pairs (proj, context, ffn2, pooler) stay single-op anchors.
        assert groups[f"{tag}_scores"] == (f"{tag}_softmax",)
        assert groups[f"{tag}_ffn1"] == (f"{tag}_gelu",)
        assert groups[f"{tag}_ln"] == (f"{tag}_residual",)
        for single in ("proj", "context", "ffn2", "pooler"):
            assert groups[f"{tag}_{single}"] == ()
        assert plan.num_groups == 7
        assert plan.num_fused_ops == 3

    def test_fusion_disabled_yields_single_op_groups(self):
        graph = bert_small(batch=1, seq=64)
        plan = plan_fusion(graph, fusion=False)
        assert plan.num_groups == len(list(graph.ops))
        assert plan.num_fused_ops == 0
        assert all(g.epilogues == () for g in plan.groups)

    def test_count_mismatch_blocks_fusion(self):
        g = ModelGraph("m", batch=1)
        g.add(ops.matmul(32, 16, 32, "mm"), count=2)
        g.add(ops.elementwise((32, 32), "relu", "act"), count=1)
        plan = plan_fusion(g)
        assert anchored(plan) == {"mm": (), "act": ()}

    def test_iteration_space_mismatch_blocks_fusion(self):
        g = ModelGraph("m", batch=1)
        g.add(ops.matmul(32, 16, 32, "mm"))
        g.add(ops.elementwise((32, 64), "relu", "act"))  # 2048 != 1024 pts
        plan = plan_fusion(g)
        assert anchored(plan) == {"mm": (), "act": ()}

    def test_reduce_axis_op_never_joins_a_group(self):
        g = ModelGraph("m", batch=1)
        g.add(ops.matmul(32, 16, 32, "mm1"))
        # Same spatial space as mm1's output, but it reduces — illegal.
        # (Different K so the graph keeps it a distinct op instance.)
        g.add(ops.matmul(32, 8, 32, "mm2"))
        plan = plan_fusion(g)
        assert anchored(plan) == {"mm1": (), "mm2": ()}

    def test_chain_length_capped(self):
        g = ModelGraph("m", batch=1)
        g.add(ops.matmul(32, 16, 32, "mm"))
        # Four spatially-identical epilogue candidates of *distinct kinds*
        # (identical kinds would merge into one instance with count 4).
        chain = [
            ops.elementwise((32, 32), "relu", "act"),
            ops.add((32, 32), "res"),
            ops.softmax_proxy(32, 32, "sm"),
            ops.layernorm_proxy(32, 32, "ln"),
        ]
        assert MAX_EPILOGUES_PER_GROUP == len(chain) - 1
        for ep in chain:
            g.add(ep)
        plan = plan_fusion(g)
        groups = anchored(plan)
        assert groups["mm"] == ("act", "res", "sm")
        # The op past the cap anchors its own group.
        assert "ln" in groups


# -- legality -----------------------------------------------------------------


def pooled_state(n_epilogues: int = 2) -> ETIR:
    mm = ops.matmul(64, 32, 64, "fuse_mm")
    pool = tuple(
        ops.elementwise((64, 64), "relu", f"ep{i}") for i in range(n_epilogues)
    )
    base = ETIR.from_tiles(mm, {"i": 16, "j": 16, "k": 8}, {"i": 4, "j": 4, "k": 2})
    return ETIR(
        mm, base.config, base.cur_level, base.num_levels, epilogue_pool=pool
    )


class TestFusionLegality:
    def test_fuse_unfuse_round_trip_restores_state(self):
        state = pooled_state()
        fused = state.with_fuse()
        assert fused is not None and fused.fused == 1
        back = fused.with_unfuse()
        assert back is not None and back.fused == 0
        assert back.key() == state.key()
        assert back == state

    def test_fuse_exhausts_pool_then_returns_none(self):
        state = pooled_state(n_epilogues=2)
        s1 = state.with_fuse()
        s2 = s1.with_fuse()
        assert s2.fused == 2
        assert s2.with_fuse() is None
        assert state.with_unfuse() is None  # nothing fused yet

    def test_fusion_degree_distinguishes_keys(self):
        state = pooled_state()
        assert state.key() != state.with_fuse().key()

    def test_epilogue_partition_tracks_fused_prefix(self):
        state = pooled_state(n_epilogues=2).with_fuse()
        assert [ep.name for ep in state.epilogues] == ["ep0"]
        assert [ep.name for ep in state.pending_epilogues] == ["ep1"]

    def test_etir_rejects_reduce_axis_epilogue(self):
        mm = ops.matmul(64, 32, 64, "anchor")
        reducer = ops.matmul(64, 32, 64, "bad_ep")
        base = ETIR.from_tiles(
            mm, {"i": 16, "j": 16, "k": 8}, {"i": 4, "j": 4, "k": 2}
        )
        with pytest.raises(ValueError, match="reduce axes"):
            ETIR(
                mm,
                base.config,
                base.cur_level,
                base.num_levels,
                epilogue_pool=(reducer,),
            )

    def test_schedule_rejects_reduce_axis_epilogue(self):
        sched = Schedule(ops.matmul(64, 32, 64, "anchor"))
        with pytest.raises(ScheduleError, match="reduce axes"):
            sched.fuse_epilogue(ops.matmul(64, 32, 64, "bad_ep"))

    def test_schedule_accepts_spatial_epilogue(self):
        sched = Schedule(ops.matmul(64, 32, 64, "anchor"))
        sched.fuse_epilogue(ops.elementwise((64, 64), "relu", "act"))
        assert [ep.name for ep in sched.epilogue_ops] == ["act"]

    def test_seed_states_include_both_fusion_extremes(self, hw):
        gensor = Gensor(hw, QUICK)
        mm = ops.matmul(64, 32, 64, "seed_mm")
        pool = (ops.elementwise((64, 64), "relu", "seed_ep"),)
        seeds = gensor.seed_states(mm, pool)
        degrees = {s.fused for s in seeds}
        assert degrees == {0, 1}
        assert all(s.epilogue_pool == pool for s in seeds)


# -- parity and the fusion win ------------------------------------------------


class TestProgramCompilation:
    def test_no_fusion_program_matches_per_op_compiles(self, hw):
        """fusion=False through the program machinery is per-op compilation
        in program form: identical winning schedules per op."""
        g = ModelGraph("m", batch=1)
        g.add(ops.matmul(64, 32, 64, "mm"))
        g.add(ops.elementwise((64, 64), "gelu", "act"))
        prog = compile_program(Gensor(hw, QUICK), g, fusion=False)
        assert [grp.anchor_name for grp in prog.groups] == ["mm", "act"]
        for grp, inst in zip(prog.groups, g.ops):
            solo = Gensor(hw, QUICK).compile(inst.compute)
            assert grp.schedule == CachedSchedule.from_state(
                solo.best, solo.best_metrics.latency_s
            )
            assert grp.tier == "cold"
            assert grp.kernel_latency_s == solo.best_metrics.latency_s
            assert grp.fused == 0 and grp.pending_cost_s == 0.0

    def test_fused_group_accounting(self, hw):
        g = ModelGraph("m", batch=1)
        g.add(ops.matmul(64, 32, 64, "mm"))
        g.add(ops.elementwise((64, 64), "gelu", "act"))
        prog = compile_program(Gensor(hw, QUICK), g, fusion=True)
        assert len(prog.groups) == 1
        grp = prog.groups[0]
        assert grp.epilogue_names == ("act",)
        assert grp.anchor_label == "mm@64x64x32"
        assert 0 <= grp.fused <= 1
        # latency_s always covers the whole group: fused kernel + pending.
        assert grp.latency_s == grp.kernel_latency_s + grp.pending_cost_s
        assert prog.num_kernels == 2 - grp.fused

    def test_fusion_plan_announced_once(self, hw):
        from repro.obs.metrics import get_registry
        from repro.obs.tracer import RecordingTracer

        g = ModelGraph("plan_once", batch=1)
        g.add(ops.matmul(64, 32, 64, "mm"))
        g.add(ops.elementwise((64, 64), "gelu", "act"))
        g.add(ops.matmul(64, 16, 64, "mm2"))
        registry, tracer = get_registry(), RecordingTracer()
        compile_program(Gensor(hw, QUICK), g, tracer=tracer)
        (event,) = tracer.by_name("fusion_plan")
        assert event.args["groups"] == ["mm + act (x1)", "mm2 (x1)"]
        assert event.args["num_fused_ops"] == 1
        assert registry.counter("fusion_groups_total", model="plan_once").value == 2
        assert registry.counter("fusion_fused_ops_total", model="plan_once").value == 1

    def test_bert_batch1_fusion_win_at_least_10pct(self, hw):
        """The ISSUE's acceptance bar: whole-graph fusion beats the per-op
        latency sum on BERT batch-1 by >= 10%."""
        graph = bert_small(batch=1, seq=64)
        per_op = compile_and_time(graph, Gensor(hw, QUICK), "gensor")
        prog = compile_and_time(
            graph, Gensor(hw, QUICK), "gensor", program=True
        )
        assert prog.program is not None
        assert prog.program.num_fused_ops > 0
        win = 1.0 - prog.latency_s / per_op.latency_s
        assert win >= 0.10, f"fusion win {win:+.1%} below the 10% bar"
        # Fewer launches than op executions: fusion eliminated kernels.
        total_execs = sum(inst.count for inst in graph.ops)
        assert prog.program.num_kernels < total_execs

    def test_program_result_per_op_keys_are_group_labels(self, hw):
        g = ModelGraph("m", batch=1)
        g.add(ops.matmul(64, 32, 64, "mm"))
        g.add(ops.elementwise((64, 64), "gelu", "act"))
        res = compile_and_time(g, Gensor(hw, QUICK), "gensor", program=True)
        assert list(res.per_op_latency) == ["mm@64x64x32+act"]


# -- serving-path fusion ------------------------------------------------------


class TestDynamicFusedPath:
    def test_fused_group_compiles_cold_then_hits(self, hw):
        dyn = DynamicGensor(hw, QUICK)
        mm = ops.matmul(64, 32, 64, "dyn_mm")
        pool = (ops.elementwise((64, 64), "relu", "dyn_ep"),)
        first = dyn.compile(mm, epilogues=pool)
        # A fresh request decoded from a client: same shapes, new objects.
        again_pool = (ops.elementwise((64, 64), "relu", "dyn_ep2"),)
        second = dyn.compile(ops.matmul(64, 32, 64, "dyn_mm2"), epilogues=again_pool)
        assert (first.source, second.source) == ("cold", "hit")
        assert (dyn.stats.cold, dyn.stats.hits) == (1, 1)
        cold, hit = first.result.best, second.result.best
        assert hit.epilogue_pool == again_pool
        assert hit.fused == cold.fused
        assert hit.config == cold.config
        assert second.latency_s == first.latency_s
        # The entry lives under the group key, not the anchor's.
        assert dyn.cache.get(mm) is None
        assert dyn.cache.get(mm, pool).fused == cold.fused

    def test_fused_entry_never_serves_the_bare_anchor(self, hw):
        dyn = DynamicGensor(hw, QUICK)
        mm = ops.matmul(64, 32, 64, "dyn_mm")
        pool = (ops.elementwise((64, 64), "relu", "dyn_ep"),)
        dyn.compile(mm, epilogues=pool)
        bare = dyn.compile(mm)
        assert bare.source == "cold"
        assert bare.result.best.epilogue_pool == ()

    def test_bare_entry_never_serves_the_fused_group(self, hw):
        dyn = DynamicGensor(hw, QUICK)
        mm = ops.matmul(64, 32, 64, "dyn_mm")
        pool = (ops.elementwise((64, 64), "relu", "dyn_ep"),)
        dyn.compile(mm)
        # Neither as a hit nor as a warm-start neighbour.
        fused = dyn.compile(mm, epilogues=pool)
        assert fused.source == "cold"
        assert fused.result.best.epilogue_pool == pool

    def test_fused_group_warm_starts_from_its_own_families(self, hw):
        dyn = DynamicGensor(hw, QUICK)
        dyn.compile(
            ops.matmul(64, 32, 64, "small"),
            epilogues=(ops.elementwise((64, 64), "relu", "small_ep"),),
        )
        pool = (ops.elementwise((128, 64), "relu", "big_ep"),)
        warm = dyn.compile(ops.matmul(128, 32, 64, "big"), epilogues=pool)
        assert warm.source == "warm"
        assert warm.result.best.epilogue_pool == pool
        assert dyn.compile(
            ops.matmul(128, 32, 64, "big2"), epilogues=pool
        ).source == "hit"
        # Another pool family (an add, not an elementwise) has no neighbour.
        other = dyn.compile(
            ops.matmul(128, 32, 64, "big3"),
            epilogues=(ops.add((128, 64), "big_add"),),
        )
        assert other.source == "cold"

    def test_compile_graph_twice_serves_every_group_as_a_hit(self, hw):
        dyn = DynamicGensor(hw, QUICK)
        graph = bert_small(batch=1, seq=64)
        first = dyn.compile_graph(graph)
        hits, total = dyn.stats.hits, dyn.stats.total
        second = dyn.compile_graph(graph)
        assert any(g.epilogue_names for g in second.groups)
        assert [g.tier for g in second.groups] == ["hit"] * len(second.groups)
        assert dyn.stats.hits - hits == len(second.groups)
        assert dyn.stats.total - total == len(second.groups)
        assert second.latency_s == first.latency_s
        assert [g.fused for g in second.groups] == [g.fused for g in first.groups]

    def test_bare_compile_still_caches_after_fused_requests(self, hw):
        dyn = DynamicGensor(hw, QUICK)
        mm = ops.matmul(64, 32, 64, "dyn_mm")
        dyn.compile(mm, epilogues=(ops.elementwise((64, 64), "relu", "e"),))
        assert dyn.compile(mm).source == "cold"
        assert dyn.compile(mm).source == "hit"

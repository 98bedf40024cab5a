"""Gensor's construction loop (Algorithm 1) end to end."""

import pytest

from repro.core import Gensor, GensorConfig
from repro.core.score import quick_latency
from repro.ir import operators as ops
from repro.ir.etir import ETIR
from repro.sim.costmodel import CostModel
from repro.sim.measure import Measurer

FAST = GensorConfig(num_chains=2, top_k=6, polish_steps=30)


@pytest.fixture
def gemm():
    return ops.matmul(512, 256, 512, "g512")


class TestConfigValidation:
    def test_bad_cooling(self):
        with pytest.raises(ValueError, match="cooling"):
            GensorConfig(cooling=1.5)

    def test_temperature_below_threshold(self):
        with pytest.raises(ValueError, match="exceed threshold"):
            GensorConfig(initial_temperature=0.001, threshold=1.0)

    def test_bad_chains(self):
        with pytest.raises(ValueError, match="num_chains"):
            GensorConfig(num_chains=0)


class TestCompile:
    def test_best_is_strict_feasible(self, hw, gemm):
        res = Gensor(hw, FAST).compile(gemm)
        assert res.best.memory_ok(hw)
        assert res.best_metrics.feasible

    def test_improves_massively_over_initial(self, hw, gemm):
        res = Gensor(hw, FAST).compile(gemm)
        cm = CostModel(hw)
        initial = cm.latency(ETIR.initial(gemm))
        assert res.best_metrics.latency_s < initial / 10

    def test_deterministic_given_seed(self, hw, gemm):
        a = Gensor(hw, FAST).compile(gemm)
        b = Gensor(hw, FAST).compile(gemm)
        assert a.best.key() == b.best.key()
        assert a.best_metrics.latency_s == b.best_metrics.latency_s

    def test_seed_changes_walk(self, hw, gemm):
        a = Gensor(hw, FAST).compile(gemm)
        b = Gensor(hw, GensorConfig(seed=5, num_chains=2, top_k=6, polish_steps=30)).compile(gemm)
        # Different walks (states visited differ); winners may coincide.
        assert a.states_visited > 0 and b.states_visited > 0

    def test_iterations_counted(self, hw, gemm):
        res = Gensor(hw, FAST).compile(gemm)
        # ~127 iterations per chain at the default cooling schedule.
        assert res.iterations >= 100

    def test_top_results_are_feasible_and_ranked(self, hw, gemm):
        res = Gensor(hw, FAST).compile(gemm)
        cm = CostModel(hw)
        lats = [cm.latency(s) for s in res.top_results]
        assert all(s.memory_ok(hw) for s in res.top_results)
        assert lats == sorted(lats)

    def test_vthread_disabled_produces_no_vthreads(self, hw, gemm):
        cfg = GensorConfig(
            num_chains=2, top_k=6, polish_steps=30, enable_vthread=False
        )
        res = Gensor(hw, cfg).compile(gemm)
        assert res.best.total_vthreads() == 1
        assert all(s.total_vthreads() == 1 for s in res.top_results)

    def test_measurement_accounting(self, hw, gemm):
        meas = Measurer(hw, seconds_per_measurement=0.25)
        res = Gensor(hw, FAST).compile(gemm, meas)
        assert res.simulated_measure_s == pytest.approx(
            meas.num_measurements * 0.25
        )
        assert res.compile_seconds >= res.simulated_measure_s

    def test_result_convenience_properties(self, hw, gemm):
        res = Gensor(hw, FAST).compile(gemm)
        assert res.latency_s == res.best_metrics.latency_s
        assert res.achieved_flops == res.best_metrics.achieved_flops
        assert res.method == "gensor"

    def test_polish_never_hurts(self, hw, gemm):
        unpolished = GensorConfig(num_chains=2, top_k=6, polish_steps=0)
        polished = GensorConfig(num_chains=2, top_k=6, polish_steps=60)
        a = Gensor(hw, unpolished).compile(gemm)
        b = Gensor(hw, polished).compile(gemm)
        assert b.best_metrics.latency_s <= a.best_metrics.latency_s * 1.001

    def test_works_on_edge_device(self, edge_hw, gemm):
        res = Gensor(edge_hw, FAST).compile(gemm)
        assert res.best.memory_ok(edge_hw)

    def test_paper_cooling_variant_runs(self, hw, gemm):
        cfg = GensorConfig(cooling=0.5, num_chains=2, top_k=4, polish_steps=20)
        res = Gensor(hw, cfg).compile(gemm)
        assert res.best_metrics.feasible
        # T halving: ~14 iterations per chain from 100 to 0.01.
        assert res.iterations < 40


class TestAcrossOperatorFamilies:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ops.gemv(2048, 1024, "v"),
            lambda: ops.conv2d(4, 16, 18, 18, 32, 3, 3, 1, "c"),
            lambda: ops.avgpool2d(8, 16, 32, 32, 2, 2, "p"),
            lambda: ops.batched_matmul(8, 64, 64, 64, "b"),
            lambda: ops.elementwise((4096, 512), "relu", "e"),
        ],
    )
    def test_compiles_every_family(self, hw, factory):
        res = Gensor(hw, FAST).compile(factory())
        assert res.best_metrics.feasible

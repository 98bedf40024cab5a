"""DynamicGensor: cache-backed real-time re-optimization."""

import pytest

from repro.core import DynamicGensor, GensorConfig
from repro.ir import operators as ops

FAST = GensorConfig(num_chains=2, top_k=6, polish_steps=40)


@pytest.fixture
def dyn(hw):
    return DynamicGensor(hw, FAST)


class TestServingPath:
    def test_first_shape_is_cold(self, dyn):
        res = dyn.compile(ops.matmul(512, 256, 512, "s0"))
        assert res.source == "cold"
        assert dyn.stats.cold == 1

    def test_repeat_shape_is_hit(self, dyn):
        g = ops.matmul(512, 256, 512, "s0")
        dyn.compile(g)
        res = dyn.compile(ops.matmul(512, 256, 512, "s0_again"))
        assert res.source == "hit"
        assert res.compile_seconds < 0.05  # microsecond-scale serving
        assert dyn.stats.hits == 1

    def test_nearby_shape_is_warm(self, dyn):
        dyn.compile(ops.matmul(512, 256, 512, "s0"))
        res = dyn.compile(ops.matmul(640, 256, 512, "s1"))
        assert res.source == "warm"
        assert dyn.stats.warm == 1

    def test_unrelated_kind_is_cold(self, dyn):
        dyn.compile(ops.matmul(512, 256, 512, "s0"))
        res = dyn.compile(ops.gemv(2048, 1024, "v0"))
        assert res.source == "cold"


class TestQuality:
    def test_hit_matches_cold_schedule(self, dyn):
        g = ops.matmul(512, 256, 512, "s0")
        cold = dyn.compile(g)
        hit = dyn.compile(ops.matmul(512, 256, 512, "s1"))
        assert hit.result.best.block_tiles() == cold.result.best.block_tiles()

    def test_warm_quality_close_to_cold(self, hw):
        warm_server = DynamicGensor(hw, FAST)
        warm_server.compile(ops.matmul(1024, 512, 1024, "base"))
        warm = warm_server.compile(ops.matmul(1280, 512, 1024, "shifted"))

        cold_server = DynamicGensor(hw, FAST)
        cold = cold_server.compile(ops.matmul(1280, 512, 1024, "shifted"))

        assert warm.latency_s <= cold.latency_s * 1.15

    def test_warm_much_cheaper_than_cold(self, hw):
        server = DynamicGensor(hw, FAST)
        cold = server.compile(ops.matmul(1024, 512, 1024, "base"))
        warm = server.compile(ops.matmul(1280, 512, 1024, "shifted"))
        assert warm.compile_seconds < cold.compile_seconds / 2

    def test_warm_result_enters_cache(self, dyn):
        dyn.compile(ops.matmul(512, 256, 512, "s0"))
        dyn.compile(ops.matmul(640, 256, 512, "s1"))
        res = dyn.compile(ops.matmul(640, 256, 512, "s1_again"))
        assert res.source == "hit"


class TestStats:
    def test_totals(self, dyn):
        dyn.compile(ops.matmul(512, 256, 512, "a"))
        dyn.compile(ops.matmul(512, 256, 512, "b"))
        dyn.compile(ops.matmul(768, 256, 512, "c"))
        assert dyn.stats.total == 3
        assert (dyn.stats.cold, dyn.stats.hits, dyn.stats.warm) == (1, 1, 1)


class TestTracing:
    def test_constructor_tracer_sees_warm_polish(self, dyn):
        """With no per-call tracer, the walks report to the constructor's
        tracer — a warm serve's polish events included."""
        from repro.obs import RecordingTracer

        tracer = RecordingTracer()
        dyn.gensor.tracer = tracer
        dyn.compile(ops.matmul(512, 256, 512, "t0"))
        assert tracer.by_name("walk_step")
        before = len(tracer.by_name("polish"))
        res = dyn.compile(ops.matmul(640, 256, 512, "t1"))
        assert res.source == "warm"
        warm_polish = tracer.by_name("polish")[before:]
        assert warm_polish and all(e.args["compute"] == "t1" for e in warm_polish)
        (served,) = [
            e for e in tracer.by_name("dynamic_serve") if e.args["source"] == "warm"
        ]
        assert served.args["compute"] == "t1"

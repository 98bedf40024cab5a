"""The shared bounded metrics memo (repro.perf.memo)."""

import pytest

from repro.core.graph import ConstructionGraph
from repro.core.policy import TransitionPolicy
from repro.ir import operators as ops
from repro.ir.etir import ETIR
from repro.obs.metrics import MetricsRegistry
from repro.perf.memo import MetricsMemo, get_memo, reset_memo
from repro.sim.costmodel import CostModel
from repro.utils.rng import spawn_rng


def walk_states(hw, n, compute=None):
    """``n`` distinct states from a deterministic walk (hashable, feasible mix)."""
    compute = compute or ops.matmul(512, 256, 512, "memo_g")
    graph = ConstructionGraph(hw)
    policy = TransitionPolicy(graph, spawn_rng(0, "memo-test", compute.name))
    state = ETIR.initial(compute, num_levels=hw.num_cache_levels)
    pool = {state.key(): state}
    step = 0
    while len(pool) < n:
        edge = policy.select(state, step * 0.1, frozenset())
        if edge is None:
            break
        state = edge.dst
        pool.setdefault(state.key(), state)
        step += 1
    states = list(pool.values())
    assert len(states) == n, "walk too short for requested pool"
    return states


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestMemoization:
    def test_hit_returns_identical_object(self, hw, registry):
        memo = MetricsMemo(registry=registry)
        (state,) = walk_states(hw, 1)
        first = memo.evaluate(hw, state)
        again = memo.evaluate(hw, state)
        assert again is first  # value-transparent: the exact same object

    def test_matches_direct_cost_model(self, hw, registry):
        memo = MetricsMemo(registry=registry)
        model = CostModel(hw)
        for state in walk_states(hw, 10):
            assert memo.evaluate(hw, state) == model.evaluate(state)

    def test_hit_miss_accounting(self, hw, registry):
        memo = MetricsMemo(registry=registry)
        states = walk_states(hw, 5)
        for s in states:
            memo.evaluate(hw, s)
        for s in states:
            memo.evaluate(hw, s)
        stats = memo.stats()
        assert stats["misses"] == 5
        assert stats["hits"] == 5
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_distinct_devices_get_distinct_slots(self, hw, edge_hw, registry):
        memo = MetricsMemo(registry=registry)
        (state,) = walk_states(hw, 1)
        server = memo.evaluate(hw, state)
        edge = memo.evaluate(edge_hw, state)
        assert len(memo) == 2
        assert server.latency_s != edge.latency_s

    def test_same_named_ops_of_different_shapes_get_distinct_slots(
        self, hw, registry
    ):
        """State keys name the op, not its extents: model factories reuse
        names like ``x_proj`` across batch sizes.  The memo must still price
        each shape as a fresh cost model would."""
        small = ops.matmul(512, 768, 768, "x_proj")
        large = ops.matmul(4096, 768, 768, "x_proj")
        tiles = {"i": 64, "j": 64, "k": 32}
        threads = {"i": 4, "j": 4, "k": 2}
        s_small = ETIR.from_tiles(small, tiles, threads)
        s_large = ETIR.from_tiles(large, tiles, threads)
        assert s_small == s_large  # equal keys: the collision under test
        memo = MetricsMemo(registry=registry)
        got_small = memo.latency(hw, s_small)
        got_large = memo.latency(hw, s_large)
        assert got_small == CostModel(hw).latency(s_small)
        assert got_large == CostModel(hw).latency(s_large)
        assert got_large != got_small
        assert list(memo.latency_batch(hw, [s_small, s_large])) == [
            got_small,
            got_large,
        ]

    def test_latency_batch_matches_scalar(self, hw, registry):
        memo = MetricsMemo(registry=registry)
        states = walk_states(hw, 8)
        memo.evaluate(hw, states[0])  # mix hits and misses
        lats = memo.latency_batch(hw, states)
        assert list(lats) == [CostModel(hw).latency(s) for s in states]

    def test_batch_counts_hits_and_misses(self, hw, registry):
        memo = MetricsMemo(registry=registry)
        states = walk_states(hw, 6)
        for s in states[:2]:
            memo.evaluate(hw, s)
        memo.evaluate_batch(hw, states)
        stats = memo.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 6  # 2 scalar warm-ups + 4 batch misses


class TestBounding:
    def test_lru_eviction_bounds_size(self, hw, registry):
        memo = MetricsMemo(capacity=4, registry=registry)
        states = walk_states(hw, 7)
        for s in states:
            memo.evaluate(hw, s)
        stats = memo.stats()
        assert stats["size"] <= 4
        assert stats["evictions"] == 3

    def test_recently_used_survives_eviction(self, hw, registry):
        memo = MetricsMemo(capacity=3, registry=registry)
        states = walk_states(hw, 4)
        a, b, c, d = states
        for s in (a, b, c):
            memo.evaluate(hw, s)
        kept = memo.evaluate(hw, a)  # refresh a; b is now oldest
        memo.evaluate(hw, d)  # evicts b
        before = memo.stats()["misses"]
        assert memo.evaluate(hw, a) is kept
        assert memo.stats()["misses"] == before

    def test_capacity_zero_is_passthrough(self, hw, registry):
        memo = MetricsMemo(capacity=0, registry=registry)
        (state,) = walk_states(hw, 1)
        first = memo.evaluate(hw, state)
        second = memo.evaluate(hw, state)
        assert first == second
        assert len(memo) == 0
        assert memo.stats()["hits"] == 0
        assert memo.stats()["misses"] == 2

    def test_negative_capacity_rejected(self, registry):
        with pytest.raises(ValueError, match="capacity"):
            MetricsMemo(capacity=-1, registry=registry)

    def test_steady_state_size_over_repeated_pools(self, hw, registry):
        # Re-pricing the same states forever must not grow the memo.
        memo = MetricsMemo(capacity=64, registry=registry)
        states = walk_states(hw, 20)
        for _ in range(5):
            memo.evaluate_batch(hw, states)
        assert len(memo) == 20
        assert memo.stats()["evictions"] == 0

    def test_clear_resets_counters(self, hw, registry):
        memo = MetricsMemo(registry=registry)
        memo.evaluate_batch(hw, walk_states(hw, 3))
        memo.clear()
        assert len(memo) == 0
        stats = memo.stats()
        assert stats["hits"] == stats["misses"] == stats["evictions"] == 0


class TestRegistryMirror:
    def test_counters_mirrored(self, hw):
        registry = MetricsRegistry()
        memo = MetricsMemo(capacity=4, registry=registry)
        states = walk_states(hw, 6)
        for s in states:
            memo.evaluate(hw, s)
        memo.evaluate(hw, states[-1])
        assert registry.counter("perf_memo_hits_total").value == 1
        assert registry.counter("perf_memo_misses_total").value == 6
        assert registry.counter("perf_memo_evictions_total").value == 2
        assert registry.gauge("perf_memo_size").value == len(memo)


class TestProcessDefault:
    def test_get_memo_is_shared(self):
        reset_memo()
        try:
            assert get_memo() is get_memo()
        finally:
            reset_memo()

    def test_reset_gives_fresh_instance(self):
        reset_memo()
        try:
            first = get_memo()
            reset_memo()
            assert get_memo() is not first
        finally:
            reset_memo()

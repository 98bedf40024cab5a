"""Construction graph: lazy expansion, legality, analysis export."""

import pytest

from repro.core.actions import ActionKind
from repro.core.graph import ConstructionGraph
from repro.ir import operators as ops
from repro.ir.etir import ETIR


@pytest.fixture
def graph(hw):
    return ConstructionGraph(hw)


@pytest.fixture
def start():
    return ETIR.initial(ops.matmul(64, 64, 64, "g"))


class TestExpansion:
    def test_initial_state_has_up_and_cache_edges(self, graph, start):
        kinds = {e.action.kind for e in graph.expand(start)}
        assert kinds == {ActionKind.TILE_UP, ActionKind.CACHE}

    def test_edges_carry_positive_benefit(self, graph, start):
        assert all(e.benefit > 0 for e in graph.expand(start))

    def test_expand_is_memoized(self, graph, start):
        e1 = graph.expand(start)
        e2 = graph.expand(start)
        assert e1 is e2

    def test_nodes_registered(self, graph, start):
        graph.expand(start)
        assert start.key() in graph.nodes
        for e in graph.expand(start):
            assert e.dst_key in graph.nodes

    def test_neighbors(self, graph, start):
        nbrs = graph.neighbors(start)
        assert len(nbrs) == len(graph.expand(start))

    def test_forbid_filters_actions(self, hw):
        g = ConstructionGraph(hw, forbid=frozenset({ActionKind.CACHE}))
        start = ETIR.initial(ops.matmul(64, 64, 64, "g"))
        kinds = {e.action.kind for e in g.expand(start)}
        assert ActionKind.CACHE not in kinds


class TestExplore:
    def test_bounded_exploration(self, graph, start):
        graph.explore(start, max_nodes=50)
        assert 50 <= graph.num_nodes <= 80  # frontier may overshoot slightly

    def test_counts(self, graph, start):
        graph.explore(start, max_nodes=30)
        assert graph.edge_count() > 0
        assert graph.num_expanded <= graph.num_nodes


class TestNetworkxExport:
    def test_digraph_structure(self, graph, start):
        graph.explore(start, max_nodes=40)
        g = graph.to_networkx()
        assert g.number_of_nodes() == graph.num_nodes
        assert g.number_of_edges() > 0
        # Every edge carries the action kind and benefit.
        for _u, _v, data in g.edges(data=True):
            assert data["benefit"] > 0
            assert data["action"] in ActionKind.ALL


class TestBoundedCaches:
    def test_eviction_bounds_cached_nodes(self, hw, start):
        graph = ConstructionGraph(hw, max_cached_states=50)
        graph.explore(start, max_nodes=400)
        # Eviction halves past the cap, so the steady state stays at or
        # below the cap even while expansion keeps inserting.
        assert graph.num_cached_nodes <= 50
        assert len(graph._edges) <= 50
        # The monotone counter keeps the true visit count.
        assert graph.num_nodes > 50

    def test_eviction_preserves_walk_values(self, hw, start):
        # Re-expanding an evicted state re-derives identical edges.
        bounded = ConstructionGraph(hw, max_cached_states=20)
        unbounded = ConstructionGraph(hw, max_cached_states=0)
        bounded.explore(start, max_nodes=150)
        want = [(e.dst_key, e.benefit) for e in unbounded.expand(start)]
        got = [(e.dst_key, e.benefit) for e in bounded.expand(start)]
        assert got == want

    def test_zero_cap_disables_eviction(self, hw, start):
        graph = ConstructionGraph(hw, max_cached_states=0)
        graph.explore(start, max_nodes=300)
        assert graph.num_cached_nodes == graph.num_nodes

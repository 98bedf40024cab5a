"""The construction graph: lazily expanded state space over ETIR nodes.

The graph is exponentially large, so it is materialized on demand:
:meth:`ConstructionGraph.expand` produces the legal outgoing edges of one
state, memoizing nodes by their ETIR key.  Besides serving the Markov walk,
the explicit structure supports the paper's analyses — exporting a
NetworkX digraph for irreducibility/aperiodicity checks and enumerating
bounded subgraphs for transition-matrix experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.actions import Action, action_benefit, enumerate_actions
from repro.hardware.spec import HardwareSpec
from repro.ir.compute import ComputeDef
from repro.ir.etir import ETIR

__all__ = ["Edge", "ConstructionGraph", "DEFAULT_MAX_CACHED_STATES"]

#: Node/edge memo cap: a long-lived service can expand millions of states
#: across requests, so the graph sheds its oldest cached half past this.
DEFAULT_MAX_CACHED_STATES = 100_000


@dataclass(frozen=True)
class Edge:
    """A legal transition: ``action`` maps ``src`` to ``dst`` with ``benefit``.

    ``dst`` carries the destination state itself so walking an edge never
    needs the graph's (bounded, evictable) node memo.
    """

    src_key: tuple
    dst_key: tuple
    action: Action
    benefit: float
    dst: ETIR = field(repr=False, compare=False)

    @property
    def kind(self) -> str:
        return self.action.kind

    @property
    def axis(self) -> int:
        return self.action.axis_idx


class ConstructionGraph:
    """Lazily expanded construction space for one operator on one device.

    ``forbid`` removes whole action families from the space (e.g. vThreads
    for the ablation variant, or for analyses over a bounded state count).

    This is the object-level reference for the walk: every edge is priced
    by the scalar :func:`~repro.core.actions.action_benefit`.  Compiles run
    on the structure-of-arrays engine (:mod:`repro.perf.soa`), which
    reproduces these edges bit for bit; the graph backs the analyses,
    :mod:`repro.core.reference`, and the differential oracle.

    The node/edge memos are bounded by ``max_cached_states``: past
    the cap the oldest-inserted half is dropped and re-derived on demand
    (expansion is deterministic, so recomputation is value-identical).
    ``max_cached_states=0`` disables eviction.
    """

    def __init__(
        self,
        hardware: HardwareSpec,
        forbid: frozenset[str] = frozenset(),
        multi_objective: bool = True,
        max_cached_states: int = DEFAULT_MAX_CACHED_STATES,
    ) -> None:
        self.hw = hardware
        self.forbid = forbid
        self.multi_objective = multi_objective
        self.max_cached_states = max_cached_states
        self.nodes: dict[tuple, ETIR] = {}
        self._edges: dict[tuple, list[Edge]] = {}
        self._nodes_seen = 0

    def add_node(self, state: ETIR) -> tuple:
        key = state.key()
        if key not in self.nodes:
            self.nodes[key] = state
            self._nodes_seen += 1
        return key

    def expand(self, state: ETIR) -> list[Edge]:
        """Legal outgoing edges of ``state`` (memoized).

        Edges whose destination fails the memory check carry benefit 0 and
        are excluded — the paper sets their probability to 0, which is the
        same thing for the walk.
        """
        key = self.add_node(state)
        cached = self._edges.get(key)
        if cached is not None:
            return cached
        edges: list[Edge] = []
        for action, nxt, benefit in self.expansion_oracle(state):
            if nxt is None or benefit <= 0.0:
                continue
            dst_key = self.add_node(nxt)
            edges.append(Edge(key, dst_key, action, benefit, nxt))
        self._edges[key] = edges
        self._maybe_evict()
        return edges

    def expansion_oracle(
        self, state: ETIR
    ) -> "list[tuple[Action, ETIR | None, float]]":
        """Slot-level scalar expansion (what :meth:`expand` filters).

        One ``(action, next_state, benefit)`` triple per enumerated action
        template — structurally illegal ones included (``next_state`` is
        ``None`` and the benefit 0.0), memory-check failures carry benefit
        0.0.  Touches none of the graph's memos, so the differential SoA
        harness (:class:`repro.perf.soa.DifferentialWalker`) can compare
        slots even after ``expand`` has cached the same state.
        """
        slots: list[tuple[Action, ETIR | None, float]] = []
        for action in enumerate_actions(state):
            if action.kind in self.forbid:
                continue
            nxt = action.apply(state)
            benefit = (
                action_benefit(action, state, nxt, self.hw, self.multi_objective)
                if nxt is not None
                else 0.0
            )
            slots.append((action, nxt, benefit))
        return slots

    def _maybe_evict(self) -> None:
        cap = self.max_cached_states
        if cap <= 0:
            return
        # Rebind fresh dicts rather than mutating in place, so concurrent
        # walkers iterating the old reference never see a resize.
        if len(self.nodes) > cap:
            items = list(self.nodes.items())
            self.nodes = dict(items[len(items) // 2 :])
        if len(self._edges) > cap:
            items = list(self._edges.items())
            self._edges = dict(items[len(items) // 2 :])

    def neighbors(self, state: ETIR) -> list[ETIR]:
        return [e.dst for e in self.expand(state)]

    # -- checkpoint support ------------------------------------------------

    def export_nodes(self) -> tuple[list[tuple], int]:
        """Portable node identities for a :class:`WalkCheckpoint`.

        Returns the cached node keys as insertion-ordered
        ``(tiles, vthreads, cur_level)`` tuples plus the monotone
        ``_nodes_seen`` counter.  The *membership* matters, not just the
        count: :meth:`add_node` only increments for unseen keys, so a
        resumed walk's future ``num_nodes`` depends on exactly which
        keys the snapshot preserved.  Edge memos are deliberately not
        exported — expansion is deterministic, so the resumed walk
        rebuilds value-identical memos on demand.
        """
        return [(key[1], key[2], key[3]) for key in self.nodes], self._nodes_seen

    def restore_nodes(
        self, configs: Iterable[tuple], nodes_seen: int, compute: ComputeDef
    ) -> None:
        """Rebuild the node memo a checkpoint exported (insertion order kept)."""
        nodes: dict[tuple, ETIR] = {}
        for tiles, vthreads, level in configs:
            state = ETIR.from_arrays(
                compute,
                np.array(tiles, dtype=np.int64),
                np.array(vthreads, dtype=np.int64),
                int(level),
                len(tiles[0]),
            )
            nodes[state.key()] = state
        self.nodes = nodes
        self._nodes_seen = int(nodes_seen)

    @property
    def num_nodes(self) -> int:
        """Distinct states ever added (monotone — unaffected by eviction)."""
        return self._nodes_seen

    @property
    def num_cached_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_expanded(self) -> int:
        return len(self._edges)

    def explore(self, start: ETIR, max_nodes: int = 2000) -> None:
        """Breadth-first materialization of the subgraph reachable from
        ``start``, bounded by ``max_nodes`` (for analysis experiments)."""
        frontier = [start]
        self.add_node(start)
        seen = {start.key()}
        while frontier and len(seen) < max_nodes:
            state = frontier.pop(0)
            for edge in self.expand(state):
                if edge.dst_key not in seen:
                    seen.add(edge.dst_key)
                    frontier.append(self.nodes[edge.dst_key])
                    if len(seen) >= max_nodes:
                        break

    def to_networkx(self):
        """Export the materialized subgraph as a ``networkx.DiGraph``.

        Imported lazily so the core has no hard networkx dependency.
        """
        import networkx as nx

        g = nx.DiGraph()
        for key in self.nodes:
            g.add_node(key)
        for edges in self._edges.values():
            for e in edges:
                g.add_edge(e.src_key, e.dst_key, benefit=e.benefit, action=e.action.kind)
        return g

    def edge_count(self) -> int:
        return sum(len(edges) for edges in self._edges.values())

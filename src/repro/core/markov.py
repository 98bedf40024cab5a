"""Markov-chain analysis of the construction graph (paper §IV-D).

The paper argues the construction process converges because the chain over
ETIR states is finite, irreducible within memory levels (inverse tiling
makes same-level states mutually reachable), and aperiodic; and that a
product-form value iteration over the normalized benefits converges to the
maximum-payoff state.  This module makes those claims executable: it builds
the explicit transition matrix of a (bounded) subgraph and provides the
stationary-distribution and value-iteration computations the tests and the
convergence-analysis experiment use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.actions import ActionKind
from repro.core.graph import ConstructionGraph
from repro.ir.etir import ETIR

__all__ = [
    "TransitionMatrix",
    "build_transition_matrix",
    "stationary_distribution",
    "value_iteration",
]


@dataclass
class TransitionMatrix:
    """Row-stochastic transition matrix over an ordered state list."""

    keys: list[tuple]
    matrix: np.ndarray  # shape (n, n)

    def __post_init__(self) -> None:
        # Key→row map built once; `index` used to scan `keys` linearly,
        # which made every per-state lookup O(n) on large subgraphs.
        self._index = {k: i for i, k in enumerate(self.keys)}

    @property
    def n(self) -> int:
        return len(self.keys)

    def index(self, key: tuple) -> int:
        return self._index[key]

    def validate(self) -> None:
        if np.isnan(self.matrix).any():
            raise ValueError(
                "transition matrix contains NaN probabilities "
                "(a degenerate row was normalized by a zero total)"
            )
        rows = self.matrix.sum(axis=1)
        dead = np.flatnonzero(rows == 0.0)
        if dead.size:
            # An all-zero row is a state the chain can enter but never
            # leave nor stay in: downstream normalization turns it into
            # NaN probabilities.  Name the states instead of failing late.
            shown = ", ".join(str(self.keys[i]) for i in dead[:3])
            more = f" (+{dead.size - 3} more)" if dead.size > 3 else ""
            raise ValueError(
                f"transition matrix has {dead.size} all-zero row(s) — "
                f"degenerate states with no outgoing probability: "
                f"{shown}{more}; enable self_loop_sinks or prune them"
            )
        if not np.allclose(rows, 1.0, atol=1e-9):
            raise ValueError("transition matrix rows must sum to 1")
        if (self.matrix < 0).any():
            raise ValueError("transition probabilities must be non-negative")


def build_transition_matrix(
    graph: ConstructionGraph,
    start: ETIR,
    max_nodes: int = 500,
    self_loop_sinks: bool = True,
    laziness: float = 0.02,
    soa_check: bool = False,
) -> TransitionMatrix:
    """Materialize the reachable subgraph and normalize benefits row-wise.

    Rows with no outgoing edges (converged sinks) get a self-loop so the
    matrix stays stochastic, matching the paper's treatment of terminal
    states.

    ``laziness`` is the per-state probability of staying put.  The paper's
    Algorithm 2 roulette can fall through its selection loop without
    returning an action, leaving the state unchanged — the chain is *lazy*,
    which is also what makes it aperiodic on power-of-two tile lattices
    (where every tiling cycle otherwise has even length).  Set it to 0 to
    analyze the strict always-move chain.

    ``soa_check=True`` additionally runs the structure-of-arrays
    differential harness (:class:`repro.perf.soa.DifferentialWalker`) over
    every materialized state, raising
    :class:`~repro.perf.soa.SoAParityError` if the packed walk core's
    expansion diverges from the graph's at any node of the analyzed
    subgraph — a convergence analysis then provably covers both paths.
    """
    if not (0.0 <= laziness < 1.0):
        raise ValueError(f"laziness must be in [0, 1), got {laziness}")
    graph.explore(start, max_nodes=max_nodes)
    if soa_check:
        from repro.perf.soa import DifferentialWalker

        diff = DifferentialWalker(
            start.compute,
            graph.hw,
            multi_objective=graph.multi_objective,
            forbid=graph.forbid,
            epilogues=start.epilogue_pool,
        )
        for state in list(graph.nodes.values()):
            diff.compare_state(state, forbid=graph.forbid)
    keys = sorted(graph.nodes.keys())
    index = {k: i for i, k in enumerate(keys)}
    n = len(keys)
    P = np.zeros((n, n))
    for key in keys:
        state = graph.nodes[key]
        edges = [e for e in graph.expand(state) if e.dst_key in index]
        i = index[key]
        total = sum(e.benefit for e in edges)
        if total <= 0 or not edges:
            if self_loop_sinks:
                P[i, i] = 1.0
            continue
        move_mass = 1.0 - laziness
        for e in edges:
            P[i, index[e.dst_key]] += move_mass * e.benefit / total
        P[i, i] += laziness
    tm = TransitionMatrix(keys=keys, matrix=P)
    tm.validate()
    return tm


def stationary_distribution(
    tm: TransitionMatrix, tol: float = 1e-10, max_iter: int = 50_000
) -> np.ndarray:
    """Solve ``pi P = pi, sum(pi) = 1`` for the chain's stationary vector.

    Solved directly as a least-squares system (robust even when subgraph
    truncation leaves periodic recurrent classes, where plain power
    iteration oscillates).  Falls back to Cesàro-averaged power iteration
    if the linear solve is degenerate.
    """
    n = tm.n
    # [P^T - I; 1^T] pi = [0; 1]
    A = np.vstack([tm.matrix.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.all(pi >= -1e-9) and abs(pi.sum() - 1.0) < 1e-6:
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()
    # Cesàro averaging converges for periodic chains as well.
    cur = np.full(n, 1.0 / n)
    avg = cur.copy()
    # Inclusive upper bound: `range(1, max_iter)` ran max_iter - 1 steps,
    # and max_iter=1 silently did zero averaging.
    for it in range(1, max_iter + 1):
        cur = cur @ tm.matrix
        new_avg = (avg * it + cur) / (it + 1)
        if np.abs(new_avg - avg).max() < tol:
            return new_avg / new_avg.sum()
        avg = new_avg
    raise RuntimeError("stationary distribution did not converge")


def value_iteration(
    tm: TransitionMatrix,
    rewards: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> tuple[np.ndarray, int]:
    """The paper's product-form Bellman iteration (Formulas 5–6).

    ``V_{k+1}(i) = max_a pi(a|i) * V_k(j))`` with ``V_0 = rewards``.
    Because benefits are multiplicative acceleration ratios, the update is
    a max over products, not sums.  Returns the fixed point and the number
    of iterations it took — the quantity the paper reports as "about 100".
    """
    if rewards.shape != (tm.n,):
        raise ValueError("rewards must have one entry per state")
    if (rewards < 0).any():
        raise ValueError("rewards must be non-negative for product-form values")
    V = rewards.astype(float).copy()
    for it in range(1, max_iter + 1):
        # For each state i: max over successors j of P[i, j] * V[j].
        candidate = tm.matrix * V[None, :]
        nxt = np.maximum(candidate.max(axis=1), rewards)
        if np.abs(nxt - V).max() < tol:
            return nxt, it
        V = nxt
    raise RuntimeError("value iteration did not converge")

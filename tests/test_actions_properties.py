"""Property-based legality of scheduling actions (hypothesis).

Every state reachable through :meth:`ConstructionGraph.expand` — i.e.
through legal scheduling actions — must preserve the ETIR invariants the
paper's construction relies on: tile nesting, vThread bounds, and the
per-transition memory check that zeroes infeasible probabilities.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.graph import ConstructionGraph
from repro.hardware import rtx4090
from repro.ir import operators as ops
from repro.ir.etir import ETIR

HW = rtx4090()

dims = st.sampled_from([16, 32, 48, 64, 96, 128])


def random_walk(compute, steps, choices):
    """Follow ``choices`` through the construction graph; return all
    states visited (including the start)."""
    graph = ConstructionGraph(HW)
    state = ETIR.initial(compute)
    visited = [state]
    for pick in choices[:steps]:
        edges = graph.expand(state)
        if not edges:
            break
        state = graph.nodes[edges[pick % len(edges)].dst_key]
        visited.append(state)
    return visited


def reachable_tiles(extent):
    """Every tile size reachable from 1 by doubling clamped to ``extent``
    and by halving (the tiling and inverse-tiling moves)."""
    seen = {1}
    todo = [1]
    while todo:
        t = todo.pop()
        for nxt in (min(2 * t, extent), t // 2):
            if nxt >= 1 and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def assert_invariants(state):
    hw_ok = state.memory_ok(HW, strict=False)
    assert hw_ok, f"reachable state violates memory check: {state.describe()}"
    assert state.smem_footprint_bytes() <= HW.smem.capacity_bytes
    assert state.regs_per_thread() <= 255
    for idx, ax in enumerate(state.compute.axes):
        tiles = state.config.tiles[idx]
        # nesting: 1 <= T_1 <= ... <= T_L <= extent
        assert tiles[0] >= 1
        for inner, outer in zip(tiles, tiles[1:]):
            assert inner <= outer, f"nesting broken on {ax.name}: {tiles}"
        assert tiles[-1] <= ax.extent
        v = state.vthreads(idx)
        assert 1 <= v <= tiles[0]
        if ax.is_reduce:
            assert v == 1, f"reduce axis {ax.name} acquired vThreads"


class TestReachableStates:
    @settings(max_examples=40, deadline=None)
    @given(
        m=dims,
        k=dims,
        n=dims,
        steps=st.integers(0, 25),
        choices=st.lists(st.integers(0, 10 ** 6), min_size=25, max_size=25),
    )
    def test_gemm_walk_preserves_invariants(self, m, k, n, steps, choices):
        for state in random_walk(
            ops.matmul(m, k, n, "prop_mm"), steps, choices
        ):
            assert_invariants(state)

    @settings(max_examples=15, deadline=None)
    @given(
        c=st.sampled_from([4, 8, 16]),
        f=st.sampled_from([8, 16, 32]),
        steps=st.integers(0, 20),
        choices=st.lists(st.integers(0, 10 ** 6), min_size=20, max_size=20),
    )
    def test_conv_walk_preserves_invariants(self, c, f, steps, choices):
        compute = ops.conv2d(1, c, 14, 14, f, 3, 3, 1, "prop_conv")
        for state in random_walk(compute, steps, choices):
            assert_invariants(state)

    @settings(max_examples=25, deadline=None)
    @given(
        m=dims,
        k=dims,
        n=dims,
        steps=st.integers(1, 25),
        choices=st.lists(st.integers(0, 10 ** 6), min_size=25, max_size=25),
    )
    # Inverse tiling halves a clamped tile: the 48-extent block tile goes
    # 32 -> 48 -> 24, which is neither a power of two nor an upper bound.
    @example(m=48, k=16, n=16, steps=7, choices=[0] * 25)
    def test_tiles_are_pow2_or_extent_capped(self, m, k, n, steps, choices):
        # Every tile, at every level, is reachable from 1 by doubling
        # clamped to the axis extent and by halving: an inner level clamps
        # to its outer tile, which is itself such a value.
        compute = ops.matmul(m, k, n, "prop_mm2")
        for state in random_walk(compute, steps, choices):
            for idx, ax in enumerate(state.compute.axes):
                allowed = reachable_tiles(ax.extent)
                for lvl, t in enumerate(state.config.tiles[idx], start=1):
                    assert t in allowed, (
                        f"{ax.name} tile {t} at level {lvl} is not reachable"
                        f" from 1 by clamped doubling and halving under"
                        f" extent {ax.extent}: {sorted(allowed)}"
                    )


class TestInverseTiling:
    @settings(max_examples=60, deadline=None)
    @given(
        m=dims,
        k=dims,
        n=dims,
        axis=st.integers(0, 2),
        lvl=st.integers(1, 2),
        bt=st.sampled_from([2, 4, 8, 16]),
        tt=st.sampled_from([1, 2, 4]),
    )
    def test_inv_tiling_inverts_tiling(self, m, k, n, axis, lvl, bt, tt):
        compute = ops.matmul(m, k, n, "prop_inv")
        state = ETIR.from_tiles(
            compute,
            {"i": bt, "j": bt, "k": bt},
            {"i": min(tt, bt), "j": min(tt, bt)},
        )
        up = state.scaled_tile_at(axis, lvl, up=True)
        if up is None:
            return
        if up.tile(axis, lvl) != 2 * state.tile(axis, lvl):
            return  # clamped to a non-pow2 upper bound; not a pure double
        down = up.scaled_tile_at(axis, lvl, up=False)
        assert down is not None, "inverse-tiling refused to undo a tiling"
        assert down.key() == state.key()

    @settings(max_examples=60, deadline=None)
    @given(
        m=dims,
        k=dims,
        n=dims,
        axis=st.integers(0, 2),
        lvl=st.integers(1, 2),
        bt=st.sampled_from([4, 8, 16]),
    )
    def test_tiling_inverts_inv_tiling(self, m, k, n, axis, lvl, bt):
        compute = ops.matmul(m, k, n, "prop_inv2")
        state = ETIR.from_tiles(compute, {"i": bt, "j": bt, "k": bt})
        down = state.scaled_tile_at(axis, lvl, up=False)
        if down is None:
            return
        up = down.scaled_tile_at(axis, lvl, up=True)
        assert up is not None, "tiling refused to undo an inverse-tiling"
        assert up.key() == state.key()

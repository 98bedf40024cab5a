"""Differential parity of the SoA walk core against the object-path oracle.

The structure-of-arrays engine (repro.perf.soa) claims *bit-faithfulness*:
every benefit, probability, chosen edge, latency, and node count must be
byte-identical to what ConstructionGraph + TransitionPolicy produce.  This
harness attacks that claim from every angle the contract names — randomized
frontiers (hypothesis), annealed lockstep walks, batched rounds (one
``expand`` over many states, past the eviction cap too), the packed pool
boundary, forbidden-action filtering, polish, the roulette, the tile-row
pass and the raw latency kernels — on both devices, including states the
cost model rejects as INFEASIBLE, and for program fusion groups with
pools of one to three epilogues at every fused count.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Gensor, GensorConfig
from repro.core.actions import ActionKind
from repro.core.graph import ConstructionGraph
from repro.core.markov import build_transition_matrix
from repro.core.reference import ReferenceGensor
from repro.core.score import quick_latency
from repro.hardware import orin_nano, rtx4090
from repro.ir import operators as ops
from repro.ir.access import tile_footprint_bytes, tile_traffic_bytes
from repro.ir.etir import ETIR, TileConfig
from repro.obs import NULL_TRACER, RecordingTracer
from repro.perf.soa import (
    DifferentialWalker,
    SoAEdge,
    SoAFrontier,
    SoAWalkEngine,
    _roulette,
    pack_for,
)
from repro.sim.costmodel import CostModel
from repro.workloads import table4

DEVICES = {"rtx4090": rtx4090(), "orin_nano": orin_nano()}

OPS = {
    "mm": ops.matmul(64, 48, 80, "soa_mm"),
    "conv": ops.conv2d(1, 8, 14, 14, 16, 3, 3, 1, "soa_conv"),
}

COMBOS = [(d, o) for d in sorted(DEVICES) for o in sorted(OPS)]


def _pool(op: str, size: int) -> tuple:
    """The first ``size`` ops of an epilogue chain on ``op``'s output:
    GELU (no extra input), residual add (one extra input), ReLU."""
    shape = OPS[op].output.shape
    chain = (
        ops.elementwise(shape, "gelu", f"soa_{op}_gelu"),
        ops.add(shape, f"soa_{op}_res"),
        ops.elementwise(shape, "relu", f"soa_{op}_relu"),
    )
    return chain[:size]


POOL_SIZES = (1, 2, 3)
FUSED_COMBOS = [(d, o, n) for d, o in COMBOS for n in POOL_SIZES]

# Walkers/engines shared across hypothesis examples: memo reuse is part of
# the contract under test (memoized answers must equal fresh ones), and it
# keeps example throughput high.
_WALKERS: dict[tuple[str, str, int], DifferentialWalker] = {}
_ENGINES: dict[tuple[str, str, int], SoAWalkEngine] = {}


def _walker(device: str, op: str, pool_size: int = 0) -> DifferentialWalker:
    key = (device, op, pool_size)
    if key not in _WALKERS:
        _WALKERS[key] = DifferentialWalker(
            OPS[op], DEVICES[device], epilogues=_pool(op, pool_size)
        )
    return _WALKERS[key]


def _engine(device: str, op: str, pool_size: int = 0) -> SoAWalkEngine:
    key = (device, op, pool_size)
    if key not in _ENGINES:
        _ENGINES[key] = SoAWalkEngine(
            OPS[op], DEVICES[device], epilogues=_pool(op, pool_size)
        )
    return _ENGINES[key]


def _ladder(state: ETIR) -> list[ETIR]:
    """``state`` at every fused count of its pool, 0 first."""
    out = [
        ETIR(
            state.compute,
            state.config,
            state.cur_level,
            state.num_levels,
            epilogue_pool=state.epilogue_pool,
        )
    ]
    while out[-1].fused < len(state.epilogue_pool):
        out.append(out[-1].with_fuse())
    return out


def _tile_choices(extent: int) -> list[int]:
    """Powers of two up to the extent, plus the (possibly odd) extent."""
    vals = []
    v = 1
    while v <= extent:
        vals.append(v)
        v *= 2
    if extent not in vals:
        vals.append(extent)
    return vals


@st.composite
def states_for(draw, compute, num_levels=2, epilogues=()):
    """A random *valid* ETIR: nested tiles, vThreads only on spatial axes.

    Spans the whole config lattice, not just walk-reachable states — the
    parity contract is per-state, so unreachable corners must agree too
    (including ones whose block tile blows the smem budget).  With an
    ``epilogues`` pool the fused count is drawn too.
    """
    tiles = []
    vthreads = []
    for ax in compute.axes:
        choices = _tile_choices(ax.extent)
        block = draw(st.sampled_from(choices))
        thread = draw(st.sampled_from([c for c in choices if c <= block]))
        mids = [c for c in choices if thread <= c <= block]
        per_level = [thread] + [draw(st.sampled_from(mids)) for _ in range(num_levels - 2)] + [block]
        tiles.append(tuple(sorted(per_level)))
        if ax.is_reduce:
            vthreads.append(1)
        else:
            vthreads.append(draw(st.sampled_from(_tile_choices(thread))))
    cur_level = draw(st.integers(1, num_levels))
    fused = draw(st.integers(0, len(epilogues)))
    config = TileConfig(tiles=tuple(tiles), vthreads=tuple(vthreads))
    return ETIR(
        compute,
        config,
        cur_level=cur_level,
        num_levels=num_levels,
        epilogue_pool=tuple(epilogues),
        fused=fused,
    )


# -- randomized frontier parity (the hypothesis sweep) ------------------------


@pytest.mark.parametrize(("device", "op"), COMBOS)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_randomized_state_parity(device, op, data):
    """Slots, edges, and probabilities agree on arbitrary valid states."""
    state = data.draw(states_for(OPS[op]))
    _walker(device, op).compare_state(state)


@pytest.mark.parametrize(("device", "op", "pool_size"), FUSED_COMBOS)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_randomized_fused_state_parity(device, op, pool_size, data):
    """Fusion groups: the drawn state at *every* fused count of its pool
    agrees in slots (FUSE/UNFUSE included), edges, and probabilities."""
    state = data.draw(states_for(OPS[op], epilogues=_pool(op, pool_size)))
    for rung in _ladder(state):
        _walker(device, op, pool_size).compare_state(rung)


@pytest.mark.parametrize("device", sorted(DEVICES))
def test_infeasible_states_still_compared(device):
    """States past the smem budget (cost model: INFEASIBLE) stay in parity.

    The relaxed memory check fails, every benefit must be exactly 0.0 on
    both paths, and the full latency must be inf on both.
    """
    hw = DEVICES[device]
    compute = ops.matmul(256, 256, 256, f"soa_big_{device}")
    state = ETIR.from_tiles(
        compute,
        {"i": 256, "j": 256, "k": 256},
        {"i": 4, "j": 4, "k": 4},
    )
    assert not state.memory_ok(hw, strict=False)
    assert CostModel(hw).evaluate(state).latency_s == math.inf
    diff = DifferentialWalker(compute, hw)
    diff.compare_state(state)
    tiles, vthreads = state.config_arrays()
    fused = np.zeros(1, dtype=np.int64)
    assert float(diff.engine._full_latencies(tiles[None], vthreads[None], fused)[0]) == math.inf


# -- lockstep annealed walks ---------------------------------------------------


@pytest.mark.parametrize(("device", "op"), COMBOS)
def test_differential_walk(device, op):
    diff = DifferentialWalker(OPS[op], DEVICES[device])
    report = diff.walk(seed=3, chains=2, max_iterations=40)
    assert report["iterations"] > 0
    assert report["states_compared"] > report["chains"]
    assert report["nodes"] == diff.engine.num_nodes == diff.graph.num_nodes


@pytest.mark.parametrize(
    "forbid",
    [
        frozenset({ActionKind.CACHE}),
        frozenset({ActionKind.VTHREAD_UP, ActionKind.VTHREAD_DOWN}),
    ],
    ids=["no-cache", "no-vthread"],
)
def test_differential_walk_with_forbid(forbid):
    diff = DifferentialWalker(OPS["mm"], DEVICES["rtx4090"], forbid=forbid)
    report = diff.walk(seed=1, chains=1, max_iterations=30, forbid=forbid)
    assert report["states_compared"] > 0


@pytest.mark.parametrize(("device", "op", "pool_size"), FUSED_COMBOS)
def test_differential_walk_fused(device, op, pool_size):
    """Lockstep fused walks from every fused count: chosen edges, every
    visited state, and the node counts agree."""
    pool = _pool(op, pool_size)
    diff = DifferentialWalker(OPS[op], DEVICES[device], epilogues=pool)
    start = ETIR.initial(OPS[op], num_levels=diff.num_levels, epilogues=pool)
    kinds = set()
    for rung in _ladder(start):
        report = diff.walk(seed=rung.fused, chains=1, max_iterations=30, start=rung)
        assert report["states_compared"] > 1
        kinds |= {e.kind for edges in diff.graph._edges.values() for e in edges}
    assert {ActionKind.FUSE, ActionKind.UNFUSE} <= kinds
    assert report["nodes"] == diff.engine.num_nodes == diff.graph.num_nodes


def test_differential_walk_fused_with_forbid():
    pool = _pool("mm", 2)
    forbid = frozenset({ActionKind.UNFUSE})
    diff = DifferentialWalker(
        OPS["mm"], DEVICES["rtx4090"], forbid=forbid, epilogues=pool
    )
    report = diff.walk(seed=2, chains=1, max_iterations=30, forbid=forbid)
    assert report["states_compared"] > 0


# -- the roulette ----------------------------------------------------------------


def _frontier(benefits: list[float], cache: list[bool]) -> list[SoAEdge]:
    """Edges with the given benefits; ``cache[i]`` makes edge ``i`` a CACHE
    edge, whose weight ``_probabilities`` anneals."""
    tiles = np.ones((3, 2), dtype=np.int64)
    vthreads = np.ones(3, dtype=np.int64)
    edges = []
    for benefit, is_cache in zip(benefits, cache):
        kind = ActionKind.CACHE if is_cache else ActionKind.TILE_UP
        edge = SoAEdge(kind, -1 if is_cache else 0, tiles, vthreads, 1, 0)
        edge.benefit = benefit
        edges.append(edge)
    return edges


@st.composite
def frontier_benefits(draw):
    """1-40 edge benefits as the engine meets them: all positive across
    about 40 decades, some of them zero, or all zero (``_probabilities``'
    uniform fallback)."""
    n = draw(st.integers(1, 40))
    mode = draw(st.sampled_from(["positive", "zeros", "uniform"]))
    if mode == "uniform":
        return [0.0] * n
    benefits = [10.0 ** draw(st.floats(-20.0, 20.0)) for _ in range(n)]
    if mode == "zeros":
        benefits = [0.0 if draw(st.booleans()) else b for b in benefits]
    return benefits


@settings(max_examples=400, deadline=None)
@given(
    benefits=frontier_benefits(),
    data=st.data(),
    progress=st.floats(0.0, 14.0),
    seed=st.integers(0, 2**64 - 1),
    advance=st.integers(0, 3),
)
def test_roulette_equals_generator_choice(benefits, data, progress, seed, advance):
    """The engine's inline roulette picks ``Generator.choice``'s index for
    every probability vector ``_probabilities`` can hand it, and leaves
    the generator in the identical bit state."""
    cache = [data.draw(st.booleans()) for _ in benefits]
    _kept, probs = _engine("rtx4090", "mm")._probabilities(
        _frontier(benefits, cache), progress
    )
    ours = np.random.default_rng(seed)
    ours.random(advance)
    theirs = copy.deepcopy(ours)
    assert _roulette(ours, probs) == int(theirs.choice(len(probs), p=probs))
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "benefits", [[math.inf, 1.0], [1e308, 1e308]], ids=["inf-weight", "inf-total"]
)
def test_non_finite_frontier_raises_like_choice(benefits):
    """A frontier whose total weight is not finite makes ``Generator.choice``
    (the reference's draw) raise ``ValueError``; the engine's walk raises
    it too instead of picking an edge."""
    engine = SoAWalkEngine(OPS["mm"], DEVICES["rtx4090"])
    edges = _frontier(benefits, [False] * len(benefits))
    _kept, probs = engine._probabilities(edges, 0.0)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(probs), p=probs)
    engine.expand = lambda states: [edges for _ in states]
    with pytest.raises(ValueError):
        engine.run_chains(
            GensorConfig(seed=0),
            [(np.random.default_rng(0), {}, None)],
            frozenset(),
            NULL_TRACER,
            None,
        )


# -- lockstep rounds: one batched expansion ------------------------------------


@st.composite
def rounds_for(draw, compute, epilogues):
    """A round of states expanded together: drawn states (mixed levels),
    some at every fused count of their pool, some repeated, in a drawn
    order."""
    states: list[ETIR] = []
    for _ in range(draw(st.integers(1, 3))):
        state = draw(states_for(compute, epilogues=epilogues))
        states += _ladder(state) if draw(st.booleans()) else [state]
    states += draw(st.lists(st.sampled_from(states), max_size=3))
    return draw(st.permutations(states))


@pytest.mark.parametrize(
    ("device", "op", "pool_size"),
    [(d, o, n) for d, o in COMBOS for n in (0, 3)],
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_round_expansion_matches_graph_per_state(device, op, pool_size, data):
    """One batched ``engine.expand`` per round equals ``graph.expand`` per
    state, edge for edge and in node count — with states a round repeats,
    states whose edges an earlier round memoized, mixed levels, and fused
    states at every count."""
    pool = _pool(op, pool_size)
    walker = DifferentialWalker(OPS[op], DEVICES[device], epilogues=pool)
    first = data.draw(rounds_for(OPS[op], pool))
    walker.compare_round(first)
    second = data.draw(rounds_for(OPS[op], pool))
    revisits = data.draw(st.lists(st.sampled_from(first), min_size=1, max_size=4))
    walker.compare_round(data.draw(st.permutations(second + revisits)))


def test_round_expansion_past_the_eviction_cap(hw):
    """Under a tiny memo cap a round's own evictions drop edges a later row
    of the round needs; that row is priced again at its turn, and edges,
    node counts and the exported node memo (membership and order) stay
    equal to the graph's."""
    pool = _pool("mm", 2)
    walker = DifferentialWalker(OPS["mm"], hw, epilogues=pool)
    walker.graph.max_cached_states = walker.engine.max_cached_states = 6
    batches: list[int] = []
    priced = walker.engine._expansion_slots

    def spy(states):
        batches.append(len(states))
        return priced(states)

    walker.engine._expansion_slots = spy
    states = {
        rung.key(): rung
        for seed in Gensor(hw).seed_states(OPS["mm"], pool)
        for rung in _ladder(seed)
    }
    first, fresh = list(states.values())[:8], list(states.values())[8:16]
    walker.compare_round(first)
    walker.compare_round(fresh + first)
    assert batches[0] == 8 and 1 in batches[2:]
    assert walker.engine.export_nodes() == walker.graph.export_nodes()


# -- the packed pool -----------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_frontier_roundtrip(data):
    compute = OPS["mm"]
    states = [
        data.draw(states_for(compute))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    frontier = SoAFrontier.from_rows(
        compute, (), [(*s.config_arrays(), s.cur_level, s.fused) for s in states]
    )
    frontier.check()
    assert len(frontier) == len(states)
    decoded = [frontier.state(i) for i in range(len(frontier))]
    assert [s.key() for s in decoded] == [s.key() for s in states]
    for s in decoded:
        # Plain Python ints all the way down: keys are JSON-serialized
        # (golden fixtures, persistent caches), where np.int64 would raise.
        json.dumps(s.key())


# -- the tile-row pass, against the scalar oracle -------------------------------

ROW_OPS = {
    # C6's shape bound, like huge_mm's, does not prove int64 traffic
    # products safe, so both take the exact Python-int path; the other
    # three take the int64 one.
    **{label: table4.build(label) for label in ("C6", "M6", "P3", "V8")},
    "huge_mm": ops.matmul(1 << 18, 1 << 18, 1 << 18, "row_huge_mm"),
}


@pytest.mark.parametrize("op", sorted(ROW_OPS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_row_terms_match_the_scalar_oracle(op, data):
    """``SoAPack.row_terms`` equals ``tile_footprint_bytes`` (without and
    with the output tile) and ``tile_traffic_bytes`` exactly, per row."""
    compute = ROW_OPS[op]
    pack = pack_for(compute)
    assert pack.traffic_int64_safe == (op not in ("C6", "huge_mm"))
    rows = [
        [data.draw(st.integers(1, ax.extent)) for ax in compute.axes]
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    fin, fpo, traffic = pack.row_terms(np.array(rows, dtype=np.int64))
    for row, f, fo, q in zip(rows, fin.tolist(), fpo.tolist(), traffic.tolist()):
        tiles = {ax.name: t for ax, t in zip(compute.axes, row)}
        assert f == tile_footprint_bytes(compute, tiles, include_output=False)
        assert fo == tile_footprint_bytes(compute, tiles)
        assert type(q) is int and q == tile_traffic_bytes(compute, tiles)


# -- latency kernels, bit-compared ---------------------------------------------


@pytest.mark.parametrize(("device", "op"), COMBOS)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_latency_bit_parity(device, op, data):
    """engine quick/full latencies == score.quick_latency / CostModel, bitwise."""
    hw = DEVICES[device]
    state = data.draw(states_for(OPS[op]))
    engine = _engine(device, op)
    tiles, vthreads = state.config_arrays()
    fused = np.zeros(1, dtype=np.int64)
    quick = float(engine._quick_latencies(tiles[None], vthreads[None], fused)[0])
    ref_quick = quick_latency(state, hw, strict=False)
    assert float(quick).hex() == float(ref_quick).hex()
    full = float(engine._full_latencies(tiles[None], vthreads[None], fused)[0])
    ref_full = CostModel(hw).evaluate(state).latency_s
    assert float(full).hex() == float(ref_full).hex()


@pytest.mark.parametrize(("device", "op"), COMBOS)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_fused_latency_bit_parity(device, op, data):
    """Fused quick/full latencies (program FLOPs and IO, epilogue DRAM and
    register terms, the padded-FLOP and inner-work epilogue terms) equal
    the scalar models bit for bit at every fused count."""
    hw = DEVICES[device]
    pool_size = data.draw(st.sampled_from(POOL_SIZES))
    state = data.draw(states_for(OPS[op], epilogues=_pool(op, pool_size)))
    engine = _engine(device, op, pool_size)
    tiles, vthreads = state.config_arrays()
    for rung in _ladder(state):
        f = np.array([rung.fused])
        quick = float(engine._quick_latencies(tiles[None], vthreads[None], f)[0])
        ref_quick = quick_latency(rung, hw, strict=False)
        assert float(quick).hex() == float(ref_quick).hex()
        full = float(engine._full_latencies(tiles[None], vthreads[None], f)[0])
        ref_full = CostModel(hw).evaluate(rung).latency_s
        assert float(full).hex() == float(ref_full).hex()


# -- polish ---------------------------------------------------------------------


@pytest.mark.parametrize(("device", "op"), COMBOS)
def test_polish_parity(device, op):
    """engine.polish lands on the object path's state with the same trace."""
    hw = DEVICES[device]
    compute = OPS[op]
    state = ETIR.initial(compute, num_levels=hw.num_cache_levels)

    _assert_polish_parity(hw, state, 12)


def _assert_polish_parity(hw, state, steps):
    soa_tracer = RecordingTracer()
    soa = SoAWalkEngine(
        state.compute, hw, epilogues=state.epilogue_pool
    ).polish([state], steps, tracer=soa_tracer)[0]

    obj_tracer = RecordingTracer()
    (obj,) = ReferenceGensor(hw, GensorConfig(seed=0)).polish(
        [state], steps, tracer=obj_tracer
    )

    assert soa.key() == obj.key()
    (se,) = soa_tracer.by_name("polish")
    (oe,) = obj_tracer.by_name("polish")
    for field in ("compute", "steps", "max_steps"):
        assert se.args[field] == oe.args[field]
    for field in ("latency_before_s", "latency_after_s"):
        assert float(se.args[field]).hex() == float(oe.args[field]).hex()
    return soa


@pytest.mark.parametrize(("device", "op", "pool_size"), FUSED_COMBOS)
def test_fused_polish_parity(device, op, pool_size):
    """Fused polish (program objective, fuse/unfuse neighbours) lands on the
    reference's state with the same trace, from every fused count."""
    hw = DEVICES[device]
    pool = _pool(op, pool_size)
    start = ETIR.initial(OPS[op], num_levels=hw.num_cache_levels, epilogues=pool)
    for rung in _ladder(start):
        _assert_polish_parity(hw, rung, 12)


# -- markov cross-check ----------------------------------------------------------


def test_markov_soa_check_covers_subgraph(hw):
    compute = ops.matmul(32, 24, 40, "soa_markov")
    pool = (
        ops.elementwise((32, 40), "gelu", "soa_markov_gelu"),
        ops.add((32, 40), "soa_markov_res"),
    )
    for epilogues in ((), pool):
        graph = ConstructionGraph(hw)
        start = ETIR.initial(
            compute, num_levels=hw.num_cache_levels, epilogues=epilogues
        )
        tm = build_transition_matrix(graph, start, max_nodes=40, soa_check=True)
        assert tm.n > 0
        tm.validate()

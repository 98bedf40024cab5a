"""The post-walk pipeline on the walk engine: the packed candidate pool,
its invariant check, ``rank`` and batched ``polish``.

The SoA engine ranks the packed pool in one priced pass and polishes a
whole shortlist in lockstep; the reference engine keeps the scalar
ranking and the one-state-at-a-time polish.  These tests hold the two to
the same answers — same states in the same order, same steps, same
latency bits, same ``polish`` events — and pin the compile-level
contracts: a cold compile prices through the scalar cost model only for
the states it measures, the rank/polish/measure pipeline runs a fixed
number of times per compile whatever the walk's size, and the lockstep
walk's rounds are the same on both engines.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Gensor, GensorConfig
from repro.core.actions import ActionKind
from repro.core.reference import ReferenceGensor, ReferenceWalkEngine
from repro.ir import operators as ops
from repro.ir.etir import ETIR
from repro.obs import RecordingTracer
from repro.perf.memo import MetricsMemo
from repro.perf.soa import SoAFrontier, SoAWalkEngine, pack_for
from repro.resilience.checkpoint import Checkpointer, CheckpointPolicy
from repro.sim.costmodel import CostModel
from repro.sim.measure import Measurer
from repro.workloads import table4
from tests.test_soa_parity import (
    COMBOS,
    DEVICES,
    OPS,
    POOL_SIZES,
    _ladder,
    _pool,
    states_for,
)


def _engines(device: str, op: str, pool_size: int):
    hw, compute, pool = DEVICES[device], OPS[op], _pool(op, pool_size)
    return (
        SoAWalkEngine(compute, hw, epilogues=pool),
        ReferenceWalkEngine(compute, hw, MetricsMemo(), epilogues=pool),
    )


def _keys(states):
    return [s.key() for s in states]


@st.composite
def pools_for(draw, compute, epilogues):
    """Random candidate pools: feasible and infeasible states, every fused
    count of a drawn tiling, and copies at another level — equal cost,
    distinct key — so ties must fall back to insertion order."""
    states: list[ETIR] = []
    for _ in range(draw(st.integers(1, 6))):
        state = draw(states_for(compute, epilogues=epilogues))
        states += _ladder(state) if draw(st.booleans()) else [state]
        if draw(st.booleans()):
            other = 1 if state.cur_level == state.num_levels else state.num_levels
            states.append(
                ETIR(
                    compute,
                    state.config,
                    other,
                    state.num_levels,
                    epilogue_pool=state.epilogue_pool,
                    fused=state.fused,
                )
            )
    return draw(st.permutations(states))


@pytest.mark.parametrize(("device", "op"), COMBOS)
@pytest.mark.parametrize("pool_size", (0, *POOL_SIZES))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_rank_matches_reference(device, op, pool_size, data):
    """SoA ``rank`` returns the reference's states in the reference's order."""
    soa, ref = _engines(device, op, pool_size)
    states = data.draw(pools_for(OPS[op], _pool(op, pool_size)))
    top_k = data.draw(st.integers(1, len(states) + 2))
    soa_pool: dict = {}
    ref_pool: dict = {}
    soa.add_states(soa_pool, states)
    ref.add_states(ref_pool, states)
    assert len(soa_pool) == len(ref_pool)
    assert _keys(soa.rank(soa_pool, top_k)) == _keys(ref.rank(ref_pool, top_k))


def test_rank_breaks_ties_by_insertion_order(hw):
    """States differing only in their level cost the same; the earlier one
    ranks first, whichever order they arrive in."""
    compute = OPS["mm"]
    a = ETIR.from_tiles(compute, {"i": 32, "j": 32, "k": 16}, {"i": 4, "j": 4})
    b = ETIR(compute, a.config, 2, a.num_levels)
    for first, second in ((a, b), (b, a)):
        for engine in (
            SoAWalkEngine(compute, hw),
            ReferenceWalkEngine(compute, hw, MetricsMemo()),
        ):
            pool: dict = {}
            engine.add_states(pool, [first, second])
            assert _keys(engine.rank(pool, 2)) == [first.key(), second.key()]


def _polish_events(tracer):
    return [event.args for event in tracer.by_name("polish")]


def _shortlist(device: str, op: str, pool_size: int) -> list[ETIR]:
    """A shortlist-like batch: seed states at every fused count, plus the
    unscheduled state (a long polish) and a duplicate."""
    hw = DEVICES[device]
    pool = _pool(op, pool_size)
    seeds = Gensor(hw).seed_states(OPS[op], epilogues=pool)[:4]
    start = ETIR.initial(OPS[op], num_levels=hw.num_cache_levels, epilogues=pool)
    batch = [s for seed in seeds for s in _ladder(seed)] + _ladder(start)
    return batch + batch[:1]


@pytest.mark.parametrize(("device", "op"), COMBOS)
@pytest.mark.parametrize("pool_size", (0, 2), ids=["bare", "fused"])
def test_batched_polish_equals_one_at_a_time(device, op, pool_size):
    """On both engines a batch polishes to what per-state calls reach —
    states, steps, latencies and event payloads, in order — and the two
    engines agree."""
    batch = _shortlist(device, op, pool_size)
    answers = []
    for engine in _engines(device, op, pool_size):
        batched_tracer = RecordingTracer()
        batched = engine.polish(batch, 12, tracer=batched_tracer)
        single_tracer = RecordingTracer()
        singles = [
            engine.polish([s], 12, tracer=single_tracer)[0] for s in batch
        ]
        assert _keys(batched) == _keys(singles)
        assert _polish_events(batched_tracer) == _polish_events(single_tracer)
        answers.append((_keys(batched), _polish_events(batched_tracer)))
    assert answers[0] == answers[1]
    assert any(args["steps"] for args in answers[0][1])


def test_polish_vthread_forbid_matches_reference(hw):
    batch = _shortlist("rtx4090", "mm", 0)
    forbid = frozenset({ActionKind.VTHREAD_UP, ActionKind.VTHREAD_DOWN})
    soa, ref = _engines("rtx4090", "mm", 0)
    assert _keys(soa.polish(batch, 12, forbid)) == _keys(
        ref.polish(batch, 12, forbid)
    )


def test_polish_events_share_the_batch_wall(hw):
    batch = _shortlist("rtx4090", "mm", 2)
    tracer = RecordingTracer()
    SoAWalkEngine(OPS["mm"], hw, epilogues=_pool("mm", 2)).polish(
        batch, 6, tracer=tracer
    )
    durs = {event.dur for event in tracer.by_name("polish")}
    assert len(tracer.by_name("polish")) == len(batch)
    assert len(durs) == 1 and durs.pop() > 0.0


# -- the pool check ------------------------------------------------------------


def test_frontier_roundtrips_fused_states():
    """The fused column and the pool survive packing and decoding."""
    start = ETIR.initial(OPS["mm"], num_levels=2, epilogues=_pool("mm", 3))
    states = _ladder(start)
    frontier = SoAFrontier.from_rows(
        OPS["mm"],
        start.epilogue_pool,
        [(*s.config_arrays(), s.cur_level, s.fused) for s in states],
    )
    frontier.check()
    assert frontier.fused.tolist() == [0, 1, 2, 3]
    assert _keys(frontier.state(i) for i in range(len(frontier))) == _keys(states)


def _corrupt(row, how: str):
    tiles, vthreads, level, fused = (
        row[0].copy(), row[1].copy(), row[2], row[3]
    )
    if how == "nesting":
        tiles[0, 0] = tiles[0, -1] * 2
    elif how == "extent":
        tiles[0, -1] = OPS["mm"].axes[0].extent * 2
    elif how == "zero_tile":
        tiles[1, 0] = 0
    elif how == "vthreads":
        vthreads[0] = tiles[0, 0] * 2
    elif how == "reduce_vthreads":
        vthreads[2] = 2
    elif how == "level":
        level = 0
    elif how == "fused":
        fused = 3
    return tiles, vthreads, level, fused


@pytest.mark.parametrize(
    "how",
    ["nesting", "extent", "zero_tile", "vthreads", "reduce_vthreads", "level", "fused"],
)
def test_pool_check_rejects_a_planted_row(hw, how):
    """A pool row breaking any ETIR invariant raises before it is priced."""
    compute = OPS["mm"]
    engine = SoAWalkEngine(compute, hw, epilogues=_pool("mm", 2))
    pool: dict = {}
    engine.add_states(pool, Gensor(hw).seed_states(compute, _pool("mm", 2)))
    keys = list(pool)
    pool[keys[1]] = _corrupt(pool[keys[1]], how)
    with pytest.raises(ValueError, match="pool row 1 breaks an ETIR invariant"):
        engine.rank(pool, 4)


def test_pool_rows_are_never_decoded_during_the_walk(hw, monkeypatch):
    """Appended states stay packed; only rank's winners become ETIRs."""
    compute = ops.matmul(64, 48, 80, "pool_decode")
    cfg = GensorConfig(seed=3, num_chains=2, top_k=4, polish_steps=0)
    decoded = []
    original = SoAWalkEngine._decode

    def spy(self, *args):
        decoded.append(args)
        return original(self, *args)

    monkeypatch.setattr(SoAWalkEngine, "_decode", spy)
    result = Gensor(hw, cfg, memo=MetricsMemo()).compile(compute)
    assert result.iterations > cfg.top_k and decoded == []


def test_packed_pool_checkpoints_like_the_reference(hw):
    """Checkpoints of the packed pools hold the same portable candidate
    configs as the reference's ETIR pools: whole snapshots, every chain's
    record included, are equal, for a bare operator and for a fusion group
    (whose node keys carry fused counts)."""
    cfg = GensorConfig(
        seed=4, num_chains=2, top_k=4, polish_steps=4, max_iterations_per_chain=40
    )
    compute = ops.matmul(64, 48, 80, "ckpt_pool")
    pool = (ops.elementwise((64, 80), "gelu"), ops.add((64, 80)))
    for epilogues in ((), pool):
        snapshots = []
        for compiler in (Gensor, ReferenceGensor):
            ck = Checkpointer(CheckpointPolicy(every_steps=7))
            compiler(hw, cfg, memo=MetricsMemo()).compile(
                compute, checkpointer=ck, epilogues=epilogues
            )
            snapshots.append(ck.last.to_json())
        assert all(chain["candidates"] for chain in snapshots[0]["chains"])
        assert snapshots[0] == snapshots[1]
        if epilogues:
            assert max(fused for *_, fused in snapshots[0]["node_keys"]) > 0


# -- compile-level contracts -----------------------------------------------------


@pytest.mark.parametrize("fused", [False, True], ids=["bare", "fused"])
def test_cold_compile_prices_only_what_it_measures(hw, monkeypatch, fused):
    """Ranking and polish price on the engine: a cold compile calls the
    scalar cost model only for the shortlist it measures."""
    calls = []
    original = CostModel.evaluate

    def spy(self, state):
        calls.append(state.key())
        return original(self, state)

    monkeypatch.setattr(CostModel, "evaluate", spy)
    compute = ops.matmul(256, 128, 512, "spy_mm")
    epilogues = (
        (
            ops.elementwise((256, 512), "gelu", "spy_gelu"),
            ops.add((256, 512), "spy_res"),
        )
        if fused
        else ()
    )
    cfg = GensorConfig(seed=1)
    result = Gensor(hw, cfg, memo=MetricsMemo()).compile(
        compute, epilogues=epilogues
    )
    assert 0 < len(calls) <= cfg.top_k
    assert set(calls) == {s.key() for s in result.top_results}


@pytest.mark.parametrize("num_chains", [1, 8])
def test_pipeline_runs_once_per_compile(hw, monkeypatch, num_chains):
    """Per compile, rank runs twice, polish runs once on the whole
    shortlist and at most ``top_k`` states are measured — however many
    chains fed the pool.  The walk expands once per lockstep round: as
    many ``expand`` calls as the longest chain's iterations, covering one
    row per step of every chain, plus one for each chain that stopped on
    an empty frontier before the iteration cap."""
    counts = {
        "rank": 0, "polish": 0, "polished": 0, "measure": 0, "expand": 0,
        "expanded": 0,
    }

    def spy(name, original, rows=None):
        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            if rows is not None:
                counts[rows] += len(args[0])
            return original(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(SoAWalkEngine, "rank", spy("rank", SoAWalkEngine.rank))
    monkeypatch.setattr(
        SoAWalkEngine, "polish", spy("polish", SoAWalkEngine.polish, "polished")
    )
    monkeypatch.setattr(
        SoAWalkEngine, "expand", spy("expand", SoAWalkEngine.expand, "expanded")
    )
    monkeypatch.setattr(Measurer, "measure", spy("measure", Measurer.measure))
    cfg = GensorConfig(
        seed=2,
        num_chains=num_chains,
        top_k=4,
        polish_steps=8,
        max_iterations_per_chain=24,
    )
    compute = ops.matmul(64, 48, 80, f"pipe_{num_chains}")
    tracer = RecordingTracer()
    Gensor(hw, cfg, memo=MetricsMemo()).compile(compute, tracer=tracer)
    assert counts["rank"] == 2
    assert counts["polish"] == 1
    assert counts["polished"] <= cfg.top_k
    assert 0 < counts["measure"] <= cfg.top_k
    ends = [event.args["iterations"] for event in tracer.by_name("chain_end")]
    assert len(ends) == num_chains
    assert counts["expand"] == max(ends)
    cap = cfg.max_iterations_per_chain
    assert counts["expanded"] == sum(ends) + sum(1 for n in ends if n < cap)
    if num_chains == 8:
        assert sorted(ends) == [1] + [cap] * 7


def _traced_signature(compiler, hw, compute, cfg):
    tracer = RecordingTracer()
    result = compiler(hw, cfg, memo=MetricsMemo()).compile(compute, tracer=tracer)
    events = [
        (event.name, event.args)
        for event in tracer.events
        if event.name in ("walk_step", "chain_end", "polish", "measure")
    ]
    return (
        result.best.key(),
        float(result.best_metrics.latency_s).hex(),
        _keys(result.top_results),
        result.iterations,
        result.states_visited,
        float(result.simulated_measure_s).hex(),
        events,
    )


@pytest.mark.parametrize("label", ["M2", "P1"])
def test_default_config_lockstep_walk_matches_reference(hw, label):
    """At the default config (8 chains, seed 1) one chain of these walks
    stops after one step while seven run 127, so most rounds run without
    it.  Both engines walk the same rounds: every event, in its
    round-interleaved order, and the compile's results are identical."""
    cfg = GensorConfig(seed=1)
    soa = _traced_signature(Gensor, hw, table4.build(label), cfg)
    ref = _traced_signature(ReferenceGensor, hw, table4.build(label), cfg)
    assert soa == ref
    ends = [args["iterations"] for name, args in soa[-1] if name == "chain_end"]
    assert sorted(ends) == [1] + [127] * 7


def test_traffic_unsafe_shape_walks_identically(hw):
    """A shape too large for int64 traffic products (and for exact float64
    tile products) takes the Python-int fallbacks, and still compiles
    byte-identically on both engines."""
    side = 1 << 18
    compute = ops.matmul(side, side, side, "huge_mm")
    pack = pack_for(compute)
    assert not pack.traffic_int64_safe and not pack.products_f64_exact
    cfg = GensorConfig(
        seed=5, num_chains=2, top_k=4, polish_steps=10, max_iterations_per_chain=60
    )
    soa = _traced_signature(Gensor, hw, compute, cfg)
    ref = _traced_signature(ReferenceGensor, hw, compute, cfg)
    assert soa == ref
    assert np.isfinite(float.fromhex(soa[1]))

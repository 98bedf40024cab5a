"""Differential kill-and-resume harness: a construction walk killed at a
randomized step and resumed from its last checkpoint must be
byte-identical — best schedule, top-k, iteration count, states visited,
latency bits, and the walk-step trace suffix — to the uninterrupted walk,
on both the SoA engine (``Gensor``) and the object-level reference
(``ReferenceGensor``), for a bare operator and for a fusion group (whose
states carry a fused count the checkpoint must restore).  The chains walk
in lockstep rounds, so two snapshot shapes get cases of their own: one
taken mid-round, and one holding a finished chain beside live ones.

The kill is a cooperative-cancellation bomb (a CancelToken that trips on
its Nth poll), which models both per-attempt timeouts and, because the
checkpoint is already built by the time any kill can land, SIGKILL-style
process death recovered via the persisted store.
"""

import dataclasses
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.constructor import Gensor, GensorConfig
from repro.core.reference import ReferenceGensor
from repro.hardware import rtx4090
from repro.ir import operators as ops
from repro.obs.tracer import RecordingTracer
from repro.resilience.checkpoint import (
    CheckpointPolicy,
    CheckpointStore,
    Checkpointer,
)
from repro.resilience.deadline import CancelToken, CompileCancelled

HW = rtx4090()
CFG = GensorConfig(
    seed=int(os.environ.get("REPRO_CHAOS_SEED", "0")),
    num_chains=2,
    top_k=3,
    polish_steps=4,
    max_iterations_per_chain=30,
)
OP = ops.matmul(64, 48, 80, "resume_gemm")
#: OP's fusion-group pool: under CFG its walks take several FUSE and
#: UNFUSE steps, so the fused count moves mid-walk.
FUSED = (ops.elementwise((64, 80), "gelu"), ops.add((64, 80)))
EVERY = 7  # checkpoint cadence used throughout; also the wasted bound
#: kill point of the fixed-kill fused cases: just past the step-14
#: checkpoint, which holds a fused count above 0 at chaos seeds 0, 1 and 2,
#: so a resume that dropped the count would diverge.
FUSED_KILL = 16

#: a tiny operator whose chains often reach a state with no legal move
#: within a few steps, so its walks soon hold a finished chain beside live
#: ones.
SINK_OP = ops.matmul(1, 2, 1, "resume_sink")

#: (soa, epilogues) cases; the bare ones keep their historical ids.
PATHS = [
    pytest.param(True, (), id="soa"),
    pytest.param(False, (), id="object"),
    pytest.param(True, FUSED, id="fused-soa"),
    pytest.param(False, FUSED, id="fused-object"),
]


class Bomb(CancelToken):
    """A cancel token that trips on its Nth poll (deterministic kill)."""

    def __init__(self, fuse: int) -> None:
        super().__init__(None)
        self.fuse = int(fuse)
        self.checks = 0

    def expired(self) -> bool:
        self.checks += 1
        return self.checks >= self.fuse


def walk_path(soa: bool) -> type[Gensor]:
    """The compiler class running the SoA engine or the object reference."""
    return Gensor if soa else ReferenceGensor


def summarize(result):
    return (
        result.best.key(),
        tuple(s.key() for s in result.top_results),
        result.iterations,
        result.states_visited,
        result.best_metrics.latency_s.hex(),
    )


_BASELINE: dict[tuple, tuple] = {}


def baseline(soa: bool, epilogues: tuple = ()) -> tuple:
    if (soa, epilogues) not in _BASELINE:
        _BASELINE[soa, epilogues] = summarize(
            walk_path(soa)(HW, CFG).compile(OP, epilogues=epilogues)
        )
    return _BASELINE[soa, epilogues]


def interrupted(compiler, fuse: int, epilogues: tuple = ()) -> Checkpointer:
    """The checkpointer of a compile killed on its ``fuse``-th poll."""
    ck = Checkpointer(CheckpointPolicy(every_steps=EVERY))
    with pytest.raises(CompileCancelled):
        compiler(HW, CFG).compile(
            OP, cancel=Bomb(fuse), checkpointer=ck, epilogues=epilogues
        )
    assert ck.last is not None
    return ck


def kill_and_resume(fuse: int, soa: bool, epilogues: tuple = ()):
    """Run to the kill point, resume from the last checkpoint; return
    (summary, checkpointer_of_killed_attempt, was_killed)."""
    ck = Checkpointer(CheckpointPolicy(every_steps=EVERY))
    compiler = walk_path(soa)
    try:
        result = compiler(HW, CFG).compile(
            OP, cancel=Bomb(fuse), checkpointer=ck, epilogues=epilogues
        )
        return summarize(result), ck, False
    except CompileCancelled:
        pass
    result = compiler(HW, CFG).compile(
        OP, resume_from=ck.last, epilogues=epilogues
    )
    return summarize(result), ck, True


def check_kill_point(fuse: int, soa: bool, epilogues: tuple = ()) -> None:
    got, ck, killed = kill_and_resume(fuse, soa, epilogues)
    assert got == baseline(soa, epilogues)
    if killed:
        # wasted recompute is bounded by one checkpoint interval
        assert ck.wasted_states() <= EVERY


KILL_POINTS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@KILL_POINTS
@given(fuse=st.integers(min_value=1, max_value=80), soa=st.booleans())
def test_kill_at_random_step_resumes_byte_identical(fuse, soa):
    """The tentpole parity bar: >= 50 randomized kill points, both paths."""
    check_kill_point(fuse, soa)


@KILL_POINTS
@given(fuse=st.integers(min_value=1, max_value=80), soa=st.booleans())
def test_fused_kill_at_random_step_resumes_byte_identical(fuse, soa):
    """The same bar for a fusion group: the resumed walk continues at the
    fused count the checkpoint froze, so its best key (fused count
    included), top-k and node counts equal the uninterrupted walk's."""
    check_kill_point(fuse, soa, FUSED)


def test_kill_before_first_checkpoint_restarts_clean():
    """A kill before any snapshot resumes from nothing — still identical."""
    ck = Checkpointer(CheckpointPolicy(every_steps=1000))
    with pytest.raises(CompileCancelled):
        Gensor(HW, CFG).compile(OP, cancel=Bomb(3), checkpointer=ck)
    assert ck.last is None
    result = Gensor(HW, CFG).compile(OP, resume_from=ck.last)
    assert summarize(result) == baseline(True)


@pytest.mark.parametrize("soa, epilogues", PATHS)
def test_trace_suffix_matches_uninterrupted_walk(soa, epilogues):
    """The resumed walk's walk_step events equal the uninterrupted run's
    suffix — same chains, same chosen edges, same probabilities."""
    compiler = walk_path(soa)
    full_tracer = RecordingTracer()
    compiler(HW, CFG, tracer=full_tracer).compile(OP, epilogues=epilogues)
    ck = interrupted(compiler, FUSED_KILL if epilogues else 25, epilogues)
    resumed_tracer = RecordingTracer()
    compiler(HW, CFG, tracer=resumed_tracer).compile(
        OP, resume_from=ck.last, epilogues=epilogues
    )
    full = [e.args for e in full_tracer.events if e.name == "walk_step"]
    resumed = [
        e.args for e in resumed_tracer.events if e.name == "walk_step"
    ]
    assert 0 < len(resumed) < len(full)
    assert resumed == full[len(full) - len(resumed):]


@pytest.mark.parametrize("soa, epilogues", PATHS)
def test_resume_through_store_round_trip(soa, epilogues):
    """Persisting through CheckpointStore (the process-death path) keeps
    the parity: save, load in a 'new process', resume."""
    import tempfile

    compiler = walk_path(soa)
    ck = interrupted(compiler, FUSED_KILL if epilogues else 31, epilogues)
    with tempfile.TemporaryDirectory() as root:
        store = CheckpointStore(root)
        store.save("rtx4090", ck.last)
        loaded = store.load("rtx4090", ck.last.compute_key)
        assert loaded == ck.last
        result = compiler(HW, CFG).compile(
            OP, resume_from=loaded, epilogues=epilogues
        )
    assert summarize(result) == baseline(soa, epilogues)


def test_resume_across_walk_paths():
    """A checkpoint taken on the SoA engine resumes on the object reference
    (and vice versa), for the bare operator and the fusion group alike —
    the config digest names no engine because the two are proven
    bit-identical."""
    for epilogues in ((), FUSED):
        for taken_on, resumed_on in (
            (Gensor, ReferenceGensor),
            (ReferenceGensor, Gensor),
        ):
            ck = interrupted(
                taken_on, FUSED_KILL if epilogues else 25, epilogues
            )
            result = resumed_on(HW, CFG).compile(
                OP, resume_from=ck.last, epilogues=epilogues
            )
            assert (
                summarize(result)
                == baseline(True, epilogues)
                == baseline(False, epilogues)
            )


def test_checkpointing_does_not_perturb_the_walk():
    """A checkpointed-but-never-killed compile equals the bare compile:
    snapshotting reads walk state, never the RNG stream."""
    ck = Checkpointer(CheckpointPolicy(every_steps=3))
    result = Gensor(HW, CFG).compile(OP, checkpointer=ck)
    assert ck.saved > 0
    assert summarize(result) == baseline(True)



def snapshots(compiler, cfg, compute, epilogues=()):
    """Every checkpoint an uninterrupted walk takes at cadence 1."""
    taken = []
    ck = Checkpointer(CheckpointPolicy(every_steps=1), sink=taken.append)
    compiler(HW, cfg).compile(compute, checkpointer=ck, epilogues=epilogues)
    return taken


def walk_events(tracer):
    return [
        (e.name, e.args)
        for e in tracer.events
        if e.name in ("walk_step", "chain_end")
    ]


def check_resume_from(snapshot, compiler, cfg, compute, epilogues=()):
    """Resuming from ``snapshot`` takes exactly the steps the snapshot had
    not, and equals the uninterrupted walk: summary, and walk steps and
    chain ends as the suffix of its trace."""
    full_tracer = RecordingTracer()
    expected = compiler(HW, cfg, tracer=full_tracer).compile(
        compute, epilogues=epilogues
    )
    resumed_tracer = RecordingTracer()
    result = compiler(HW, cfg, tracer=resumed_tracer).compile(
        compute, resume_from=snapshot, epilogues=epilogues
    )
    assert summarize(result) == summarize(expected)
    full, resumed = walk_events(full_tracer), walk_events(resumed_tracer)
    steps = [event for event in resumed if event[0] == "walk_step"]
    assert len(steps) == expected.iterations - snapshot.total_steps
    assert resumed == full[len(full) - len(resumed):]


@pytest.mark.parametrize("soa, epilogues", PATHS)
def test_resume_from_a_snapshot_taken_mid_round(soa, epilogues):
    """A snapshot can land mid-round, the chains that already stepped in
    that round one iteration ahead of the rest; resume finishes the round
    before starting the next."""
    compiler = walk_path(soa)
    mid_round = [
        snap
        for snap in snapshots(compiler, CFG, OP, epilogues)
        if len({c.iteration for c in snap.chains if not c.done}) > 1
    ]
    assert mid_round
    check_resume_from(
        mid_round[len(mid_round) // 2], compiler, CFG, OP, epilogues
    )


@pytest.mark.parametrize("soa", [True, False], ids=["soa", "object"])
def test_resume_from_a_snapshot_holding_a_finished_chain(soa):
    """A chain that stopped before the snapshot stays stopped on resume —
    it takes no step and emits nothing more — while the live chains walk
    on.  Chains stop early at random, so the chain count grows until the
    walk at this seed holds such a snapshot."""
    compiler = walk_path(soa)
    for num_chains in (4, 8, 16, 32):
        cfg = dataclasses.replace(CFG, num_chains=num_chains)
        held = [
            snap
            for snap in snapshots(compiler, cfg, SINK_OP)
            if any(c.done for c in snap.chains)
            and any(not c.done for c in snap.chains)
        ]
        if held:
            break
    assert held, "no chain stopped early at up to 32 chains"
    check_resume_from(held[len(held) // 2], compiler, cfg, SINK_OP)

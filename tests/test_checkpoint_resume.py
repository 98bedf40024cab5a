"""Differential kill-and-resume harness: a construction walk killed at a
randomized step and resumed from its last checkpoint must be
byte-identical — best schedule, top-k, iteration count, states visited,
and the walk-step trace suffix — to the uninterrupted walk, on both the
SoA engine (``Gensor``) and the object-level reference
(``ReferenceGensor``).

The kill is a cooperative-cancellation bomb (a CancelToken that trips on
its Nth poll), which models both per-attempt timeouts and, because the
checkpoint is already built by the time any kill can land, SIGKILL-style
process death recovered via the persisted store.
"""

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
    WalkCheckpoint,
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
EVERY = 7  # checkpoint cadence used throughout; also the wasted bound


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
    )


_BASELINE: dict[bool, tuple] = {}


def baseline(soa: bool) -> tuple:
    if soa not in _BASELINE:
        _BASELINE[soa] = summarize(walk_path(soa)(HW, CFG).compile(OP))
    return _BASELINE[soa]


def kill_and_resume(fuse: int, soa: bool):
    """Run to the kill point, resume from the last checkpoint; return
    (summary, checkpointer_of_killed_attempt, was_killed)."""
    ck = Checkpointer(CheckpointPolicy(every_steps=EVERY))
    compiler = walk_path(soa)
    try:
        result = compiler(HW, CFG).compile(
            OP, cancel=Bomb(fuse), checkpointer=ck
        )
        return summarize(result), ck, False
    except CompileCancelled:
        pass
    result = compiler(HW, CFG).compile(OP, resume_from=ck.last)
    return summarize(result), ck, True


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fuse=st.integers(min_value=1, max_value=80), soa=st.booleans())
def test_kill_at_random_step_resumes_byte_identical(fuse, soa):
    """The tentpole parity bar: >= 50 randomized kill points, both paths."""
    got, ck, killed = kill_and_resume(fuse, soa)
    assert got == baseline(soa)
    if killed:
        # wasted recompute is bounded by one checkpoint interval
        assert ck.wasted_states() <= EVERY


def test_kill_before_first_checkpoint_restarts_clean():
    """A kill before any snapshot resumes from nothing — still identical."""
    ck = Checkpointer(CheckpointPolicy(every_steps=1000))
    with pytest.raises(CompileCancelled):
        Gensor(HW, CFG).compile(OP, cancel=Bomb(3), checkpointer=ck)
    assert ck.last is None
    result = Gensor(HW, CFG).compile(OP, resume_from=ck.last)
    assert summarize(result) == baseline(True)


@pytest.mark.parametrize("soa", [True, False], ids=["soa", "object"])
def test_trace_suffix_matches_uninterrupted_walk(soa):
    """The resumed walk's walk_step events equal the uninterrupted run's
    suffix — same chains, same chosen edges, same probabilities."""
    compiler = walk_path(soa)
    full_tracer = RecordingTracer()
    compiler(HW, CFG, tracer=full_tracer).compile(OP)
    ck = Checkpointer(CheckpointPolicy(every_steps=EVERY))
    try:
        compiler(HW, CFG).compile(OP, cancel=Bomb(25), checkpointer=ck)
    except CompileCancelled:
        pass
    assert ck.last is not None
    resumed_tracer = RecordingTracer()
    compiler(HW, CFG, tracer=resumed_tracer).compile(
        OP, resume_from=ck.last
    )
    full = [e.args for e in full_tracer.events if e.name == "walk_step"]
    resumed = [
        e.args for e in resumed_tracer.events if e.name == "walk_step"
    ]
    assert 0 < len(resumed) < len(full)
    assert resumed == full[len(full) - len(resumed):]


@pytest.mark.parametrize("soa", [True, False], ids=["soa", "object"])
def test_resume_through_store_round_trip(soa):
    """Persisting through CheckpointStore (the process-death path) keeps
    the parity: save, load in a 'new process', resume."""
    import tempfile

    ck = Checkpointer(CheckpointPolicy(every_steps=EVERY))
    compiler = walk_path(soa)
    try:
        compiler(HW, CFG).compile(OP, cancel=Bomb(31), checkpointer=ck)
    except CompileCancelled:
        pass
    assert ck.last is not None
    with tempfile.TemporaryDirectory() as root:
        store = CheckpointStore(root)
        store.save("rtx4090", ck.last)
        loaded = store.load("rtx4090", ck.last.compute_key)
        assert loaded == ck.last
        result = compiler(HW, CFG).compile(OP, resume_from=loaded)
    assert summarize(result) == baseline(soa)


def test_resume_across_walk_paths():
    """A checkpoint taken on the SoA engine resumes on the object reference
    (and vice versa) — the config digest names no engine because the two
    are proven bit-identical."""
    for taken_on, resumed_on in ((Gensor, ReferenceGensor), (ReferenceGensor, Gensor)):
        ck = Checkpointer(CheckpointPolicy(every_steps=EVERY))
        try:
            taken_on(HW, CFG).compile(OP, cancel=Bomb(25), checkpointer=ck)
        except CompileCancelled:
            pass
        assert ck.last is not None
        result = resumed_on(HW, CFG).compile(OP, resume_from=ck.last)
        assert summarize(result) == baseline(True) == baseline(False)


def test_checkpointing_does_not_perturb_the_walk():
    """A checkpointed-but-never-killed compile equals the bare compile:
    snapshotting reads walk state, never the RNG stream."""
    ck = Checkpointer(CheckpointPolicy(every_steps=3))
    result = Gensor(HW, CFG).compile(OP, checkpointer=ck)
    assert ck.saved > 0
    assert summarize(result) == baseline(True)


def test_polish_resume_matches_uninterrupted():
    gensor = Gensor(HW, CFG)
    seed_state = gensor.seed_states(OP)[0]
    full = gensor.polish(seed_state, 12)
    # interrupt "after 5 steps": polish is memoryless, so the checkpoint
    # is just the intermediate state plus the steps already spent
    halfway = gensor.polish(seed_state, 5)
    ck = WalkCheckpoint.for_polish(OP, halfway, steps_done=5)
    resumed = gensor.polish(seed_state, 12, resume_from=ck)
    assert resumed.key() == full.key()

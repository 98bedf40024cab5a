"""Fleet checkpoint/resume: a crashed shard's in-flight walk survives the
process boundary — the shard persists mid-walk checkpoints to the shared
CheckpointStore under the group key, and the dispatcher attaches them to
the requests it resends into the respawned shard.  Bare operators and
fusion groups take the same path."""

import pickle
import time

import pytest

from repro.core.cache import group_fingerprint, shape_fingerprint
from repro.core.constructor import Gensor, GensorConfig
from repro.fleet import FleetDispatcher, ShardOptions, WireControl
from repro.fleet.shard import WireRequest
from repro.ir import operators as ops
from repro.resilience.checkpoint import (
    ChainCheckpoint,
    CheckpointPolicy,
    CheckpointStore,
    Checkpointer,
    WalkCheckpoint,
)
from repro.utils.rng import spawn_rng


def gemm(m=64, k=32, n=64, name="op"):
    return ops.matmul(m, k, n, name)


#: a fusion-group pool for gemm()
POOL = (ops.elementwise((64, 64), "gelu", "fleet_gelu"), ops.add((64, 64), "fleet_res"))


def slow_walk_options(tmp_path, **overrides):
    """A many-chain walk (seconds of wall time) with a tight checkpoint
    cadence, so the parent can crash the shard mid-walk."""
    base = dict(
        device="rtx4090",
        config=GensorConfig(
            seed=0, num_chains=30, top_k=2, polish_steps=2,
            max_iterations_per_chain=100,
        ),
        workers=2,
        queue_capacity=32,
        warm_polish_steps=2,
        warm_pool=2,
        time_scale=0.0,
        sync_interval_s=0.2,
        checkpoint_path=str(tmp_path / "checkpoints"),
        checkpoint_every=64,
    )
    base.update(overrides)
    return ShardOptions(**base)


def wait_for(predicate, timeout_s=60.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    return None


def crash_and_resume(tmp_path, compute, epilogues=()):
    """Serve a group on a clean fleet, then on a checkpointing fleet whose
    shard dies once it banks its first mid-walk snapshot; return the
    (clean, resumed) responses."""
    options = slow_walk_options(tmp_path)
    store = CheckpointStore(options.checkpoint_path)
    key = group_fingerprint(compute, epilogues)

    # fault-free reference for the byte-parity bar
    with FleetDispatcher(
        slow_walk_options(tmp_path, checkpoint_path=None), 1
    ) as clean_fleet:
        clean = clean_fleet.submit(compute, epilogues=epilogues).result(
            timeout=300
        )
    assert clean.ok and clean.tier == "cold"

    with FleetDispatcher(
        options, 1, supervise_interval_s=0.05
    ) as fleet:
        ticket = fleet.submit(compute, epilogues=epilogues)
        # the shard banks its first mid-walk snapshot, then dies
        assert wait_for(
            lambda: store.load(options.device, key)
        ) is not None
        fleet._req_qs[0].put(WireControl("crash"))
        response = ticket.result(timeout=300)
        assert response.ok and response.tier == "cold"
        assert fleet.respawns >= 1
        resumed = sum(
            c.value
            for c in fleet.registry.series(
                "fleet_checkpoint_resumes_total"
            ).values()
        )
        assert resumed >= 1
        # the landed walk's persisted checkpoint is spent: the shard
        # discards it once the response goes out
        assert (
            wait_for(
                lambda: store.load(options.device, key) is None,
                timeout_s=30.0,
            )
            is True
        )
    return clean, response


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
class TestShardCrashResume:
    def test_crashed_shard_walk_resumes_in_respawn(self, tmp_path):
        clean, response = crash_and_resume(tmp_path, gemm(name="fleet_resume"))
        # parity: the resumed walk served the schedule the uninterrupted
        # fleet serves
        assert response.schedule_key() == clean.schedule_key()

    def test_crashed_shard_fused_walk_resumes_in_respawn(self, tmp_path):
        clean, response = crash_and_resume(
            tmp_path, gemm(name="fleet_resume"), POOL
        )
        assert response.schedule_key() == clean.schedule_key()
        assert response.fused == clean.fused


class TestCheckpointDiscard:
    def test_fused_response_keeps_the_bare_anchor_checkpoint(
        self, hw, tmp_path
    ):
        """A landed fused group discards by its group key: the persisted
        checkpoint of a bare walk of the same anchor survives it."""
        compute = gemm(name="discard_anchor")
        options = slow_walk_options(
            tmp_path,
            config=GensorConfig(
                seed=0, num_chains=1, top_k=2, polish_steps=2,
                max_iterations_per_chain=8,
            ),
        )
        store = CheckpointStore(options.checkpoint_path)
        ck = Checkpointer(CheckpointPolicy(every_steps=2))
        Gensor(hw, options.config).compile(compute, checkpointer=ck)
        store.save(options.device, ck.last)
        pool = (ops.elementwise((64, 64), "relu", "discard_ep"),)
        with FleetDispatcher(options, 1) as fleet:
            response = fleet.submit(
                gemm(name="discard_group"), epilogues=pool
            ).result(timeout=120)
        assert response.ok
        banked = store.load(options.device, shape_fingerprint(compute))
        assert banked == ck.last
        assert banked.matches(compute, options.config)


class TestWirePayload:
    def test_wire_request_with_checkpoint_pickles(self):
        rng = spawn_rng(0, "gensor", "op", 0)
        rng.random(3)
        checkpoint = WalkCheckpoint(
            compute_key="k",
            config_digest="d",
            num_levels=3,
            total_steps=4,
            chains=(
                ChainCheckpoint(
                    state=((4, 4), (2, 2), 0, 0),
                    temperature=0.9,
                    iteration=4,
                    rng_state=rng.bit_generator.state,
                    done=False,
                    candidates=(((4, 4), (2, 2), 0, 0),),
                ),
            ),
            node_keys=(((4, 4), (2, 2), 0, 0),),
            nodes_seen=7,
        )
        wire = WireRequest(
            request_id=1, compute=gemm(), checkpoint=checkpoint
        )
        back = pickle.loads(pickle.dumps(wire))
        assert back.checkpoint == checkpoint
        assert back.request_id == 1

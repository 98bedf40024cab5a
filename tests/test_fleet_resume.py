"""Fleet checkpoint/resume: a crashed shard's in-flight walk survives the
process boundary — the shard persists mid-walk checkpoints to the shared
CheckpointStore, and the dispatcher attaches them to the requests it
resends into the respawned shard."""

import pickle
import time

import pytest

from repro.core.cache import shape_fingerprint
from repro.core.constructor import GensorConfig
from repro.fleet import FleetDispatcher, ShardOptions, WireControl
from repro.fleet.shard import WireRequest
from repro.ir import operators as ops
from repro.ir.etir import ETIR
from repro.resilience.checkpoint import CheckpointStore, WalkCheckpoint
from repro.utils.rng import spawn_rng


def gemm(m=64, k=32, n=64, name="op"):
    return ops.matmul(m, k, n, name)


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


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
class TestShardCrashResume:
    def test_crashed_shard_walk_resumes_in_respawn(self, tmp_path):
        compute = gemm(name="fleet_resume")
        options = slow_walk_options(tmp_path)
        store = CheckpointStore(options.checkpoint_path)
        key = shape_fingerprint(compute)

        # fault-free reference for the byte-parity bar
        with FleetDispatcher(
            slow_walk_options(tmp_path, checkpoint_path=None), 1
        ) as clean_fleet:
            clean = clean_fleet.serve(compute, timeout=300)
        assert clean.ok and clean.tier == "cold"

        with FleetDispatcher(
            options, 1, supervise_interval_s=0.05
        ) as fleet:
            ticket = fleet.submit(compute)
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
            # parity: the resumed walk served the schedule the
            # uninterrupted fleet serves
            assert response.schedule_key() == clean.schedule_key()
            # the landed walk's persisted checkpoint is spent: the shard
            # discards it once the response goes out
            assert (
                wait_for(
                    lambda: store.load(options.device, key) is None,
                    timeout_s=30.0,
                )
                is True
            )


class TestCheckpointDiscard:
    def test_fused_response_keeps_the_bare_anchor_checkpoint(self, tmp_path):
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
        state = ETIR.from_tiles(
            compute, {"i": 32, "j": 32, "k": 16}, {"i": 4, "j": 4}
        )
        store.save(options.device, WalkCheckpoint.for_polish(compute, state, 1))
        pool = (ops.elementwise((64, 64), "relu", "discard_ep"),)
        with FleetDispatcher(options, 1) as fleet:
            response = fleet.submit(
                gemm(name="discard_group"), epilogues=pool
            ).result(timeout=120)
        assert response.ok
        banked = store.load(options.device, shape_fingerprint(compute))
        assert banked is not None and banked.matches_polish(compute)


class TestWirePayload:
    def test_wire_request_with_checkpoint_pickles(self):
        rng = spawn_rng(0, "gensor", "op", 0)
        rng.random(3)
        checkpoint = WalkCheckpoint(
            compute_key="k",
            config_digest="d",
            num_levels=3,
            chain=0,
            iteration=4,
            total_steps=4,
            temperature=0.9,
            state=((4, 4), (2, 2), 0),
            rng_state=rng.bit_generator.state,
            candidates=(((4, 4), (2, 2), 0),),
            node_keys=(((4, 4), (2, 2), 0),),
            nodes_seen=7,
        )
        wire = WireRequest(
            request_id=1, compute=gemm(), checkpoint=checkpoint
        )
        back = pickle.loads(pickle.dumps(wire))
        assert back.checkpoint == checkpoint
        assert back.request_id == 1

"""Unit tests for repro.resilience.checkpoint: the WalkCheckpoint wire
format (one record per chain) and its validation (group key, operator
name, version), the cadence policy, the Checkpointer accounting, and the
crash-safe CheckpointStore (including quarantine of corrupt records)."""

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.core.cache import entry_checksum
from repro.core.constructor import Gensor, GensorConfig
from repro.ir import operators as ops
from repro.obs.metrics import MetricsRegistry
from repro.resilience.checkpoint import (
    CheckpointPolicy,
    CheckpointStore,
    Checkpointer,
    WalkCheckpoint,
    build_chain_checkpoint,
    build_walk_checkpoint,
    config_to_state,
    state_config,
    walk_config_digest,
)
from repro.resilience.deadline import CancelToken
from repro.utils.rng import restore_rng, rng_state, spawn_rng


def gemm(name="ckpt_op"):
    return ops.matmul(64, 48, 80, name)


#: a fusion-group pool for gemm()
POOL = (ops.elementwise((64, 80), "gelu"), ops.add((64, 80)))


def make_checkpoint(hw, compute=None, iterations=(5, 4), epilogues=()):
    """A checkpoint with one record per entry of ``iterations``: chain 0
    has stopped, the others are live."""
    compute = compute if compute is not None else gemm()
    cfg = GensorConfig(seed=3)
    # the first seed with the most epilogues fused (the first seed if bare)
    state = max(
        Gensor(hw, cfg).seed_states(compute, epilogues), key=lambda s: s.fused
    )
    chains = []
    for chain, iteration in enumerate(iterations):
        rng = spawn_rng(cfg.seed, "gensor", compute.name, chain)
        rng.random(5)  # consume a bit so the stream position is non-trivial
        chains.append(
            build_chain_checkpoint(
                state_config(state),
                0.42,
                iteration,
                rng,
                done=chain == 0,
                candidate_configs=[state_config(state)],
            )
        )
    return build_walk_checkpoint(
        compute,
        cfg,
        epilogues=epilogues,
        num_levels=hw.num_cache_levels,
        chains=chains,
        node_keys=[state_config(state)],
        nodes_seen=17,
    ), cfg


class TestWalkCheckpoint:
    def test_json_round_trip_is_lossless(self, hw):
        ck, _ = make_checkpoint(hw)
        # through an actual JSON string, like the on-disk store does
        back = WalkCheckpoint.from_json(json.loads(json.dumps(ck.to_json())))
        assert back == ck

    def test_version_3_holds_every_chain(self, hw):
        """One record per chain, each with its own state, temperature,
        iteration, RNG state, stop flag and candidates; the top level
        counts the steps of all chains."""
        ck, _ = make_checkpoint(hw, iterations=(6, 5, 5))
        assert ck.version == 3
        assert [c.iteration for c in ck.chains] == [6, 5, 5]
        assert [c.done for c in ck.chains] == [True, False, False]
        assert ck.total_steps == 16
        body = ck.to_json()
        assert set(body) == {
            "version", "compute_key", "config_digest", "num_levels",
            "total_steps", "chains", "node_keys", "nodes_seen",
        }
        assert set(body["chains"][0]) == {
            "state", "temperature", "iteration", "rng_state", "done",
            "candidates",
        }

    def test_rng_state_survives_json_and_continues_stream(self, hw):
        ck, _ = make_checkpoint(hw)
        back = WalkCheckpoint.from_json(json.loads(json.dumps(ck.to_json())))
        for chain, chain_back in zip(ck.chains, back.chains):
            a = restore_rng(chain.rng_state)
            b = restore_rng(chain_back.rng_state)
            assert a.random(16).tobytes() == b.random(16).tobytes()
            assert (
                a.choice(97, size=8).tolist() == b.choice(97, size=8).tolist()
            )

    def test_pickle_round_trip(self, hw):
        ck, _ = make_checkpoint(hw)
        assert pickle.loads(pickle.dumps(ck)) == ck

    def test_matches_and_require(self, hw):
        ck, cfg = make_checkpoint(hw)
        assert ck.matches(gemm(), cfg)
        ck.require(gemm(), cfg)
        # different shape
        assert not ck.matches(ops.matmul(32, 32, 32, "other"), cfg)
        # walk-relevant config drift invalidates
        drifted = GensorConfig(seed=4)
        assert not ck.matches(gemm(), drifted)
        with pytest.raises(ValueError):
            ck.require(gemm(), drifted)

    def test_digest_ignores_post_walk_knobs(self):
        base = GensorConfig(seed=3)
        assert walk_config_digest(base, "op") == walk_config_digest(
            GensorConfig(seed=3, top_k=7, polish_steps=99), "op"
        )
        assert walk_config_digest(base, "op") != walk_config_digest(
            GensorConfig(seed=3, cooling=0.5), "op"
        )
        # the operator name seeds the chain RNG streams
        assert walk_config_digest(base, "op") != walk_config_digest(
            base, "other"
        )

    def test_state_config_round_trip(self, hw):
        compute = gemm()
        state = Gensor(hw, GensorConfig()).seed_states(compute)[1]
        rebuilt = config_to_state(
            compute, state_config(state), state.num_levels
        )
        assert rebuilt.key() == state.key()
        fused = Gensor(hw, GensorConfig()).seed_states(compute, POOL)[1]
        assert fused.fused == len(POOL)
        rebuilt = config_to_state(
            compute, state_config(fused), fused.num_levels, POOL
        )
        assert rebuilt.key() == fused.key()

    def test_bare_and_fused_checkpoints_never_cross(self, hw):
        """A checkpoint is keyed by its group: a bare walk's never resumes
        the fusion group of the same anchor, nor the other way round."""
        bare, cfg = make_checkpoint(hw)
        fused, _ = make_checkpoint(hw, epilogues=POOL)
        assert fused.chains[0].state[3] == len(POOL)
        assert bare.matches(gemm(), cfg)
        assert fused.matches(gemm(), cfg, POOL)
        assert not bare.matches(gemm(), cfg, POOL)
        assert not fused.matches(gemm(), cfg)
        with pytest.raises(ValueError):
            bare.require(gemm(), cfg, POOL)
        with pytest.raises(ValueError):
            fused.require(gemm(), cfg)

    def test_checkpoint_of_another_operator_name_never_matches(self, hw):
        """Chain RNG streams are spawned from the operator name, so a
        same-shape operator under another name walks differently."""
        ck, cfg = make_checkpoint(hw, compute=gemm("name_a"))
        assert ck.matches(gemm("name_a"), cfg)
        assert not ck.matches(gemm("name_b"), cfg)
        with pytest.raises(ValueError):
            ck.require(gemm("name_b"), cfg)

    def test_version_1_record_never_resumes(self, hw, tmp_path):
        """A literal version-1 record (3-tuple configs, a ``phase`` field,
        shape key) is quarantined by the store and never matches."""
        ck, cfg = make_checkpoint(hw)
        v1 = {
            "version": 1,
            "phase": "walk",
            "compute_key": ck.compute_key,
            "config_digest": ck.config_digest,
            "num_levels": ck.num_levels,
            "chain": 0,
            "iteration": 9,
            "total_steps": 9,
            "temperature": 0.42,
            "state": [[[1, 1], [1, 1], [1, 1]], [1, 1, 1], 2],
            "rng_state": ck.chains[0].rng_state,
            "candidates": [[[[1, 1], [1, 1], [1, 1]], [1, 1, 1], 2]],
            "node_keys": [[[[1, 1], [1, 1], [1, 1]], [1, 1, 1], 2]],
            "nodes_seen": 17,
        }
        with pytest.raises(ValueError, match="version"):
            WalkCheckpoint.from_json(v1)
        registry = MetricsRegistry()
        store = CheckpointStore(tmp_path, registry=registry)
        path = store.path_for("rtx4090", ck.compute_key)
        path.write_text(
            json.dumps(
                {
                    "device": "rtx4090",
                    "compute_key": ck.compute_key,
                    "checkpoint": v1,
                    "crc": entry_checksum(v1),
                }
            )
        )
        assert store.load("rtx4090", ck.compute_key) is None
        assert (tmp_path / ".quarantine" / path.name).exists()
        assert (
            registry.counter("resilience_checkpoint_corrupt_total").value == 1
        )
        # an in-memory checkpoint stamped version 1 never matches either
        old = dataclasses.replace(ck, version=1)
        assert not old.matches(gemm(), cfg)

    def test_version_2_record_never_resumes(self, hw, tmp_path):
        """A literal version-2 record (one interrupted chain: ``chain``,
        ``iteration``, ``temperature``, ``state``, ``rng_state`` and
        ``candidates`` at the top level) is quarantined by the store and
        never matches."""
        ck, cfg = make_checkpoint(hw)
        config = [[[1, 1], [1, 1], [1, 1]], [1, 1, 1], 2, 0]
        v2 = {
            "version": 2,
            "compute_key": ck.compute_key,
            "config_digest": ck.config_digest,
            "num_levels": ck.num_levels,
            "chain": 1,
            "iteration": 4,
            "total_steps": 9,
            "temperature": 0.42,
            "state": config,
            "rng_state": ck.chains[1].rng_state,
            "candidates": [config],
            "node_keys": [config],
            "nodes_seen": 17,
        }
        with pytest.raises(ValueError, match="version"):
            WalkCheckpoint.from_json(v2)
        registry = MetricsRegistry()
        store = CheckpointStore(tmp_path, registry=registry)
        path = store.path_for("rtx4090", ck.compute_key)
        path.write_text(
            json.dumps(
                {
                    "device": "rtx4090",
                    "compute_key": ck.compute_key,
                    "checkpoint": v2,
                    "crc": entry_checksum(v2),
                }
            )
        )
        assert store.load("rtx4090", ck.compute_key) is None
        assert (tmp_path / ".quarantine" / path.name).exists()
        assert (
            registry.counter("resilience_checkpoint_corrupt_total").value == 1
        )
        assert not dataclasses.replace(ck, version=2).matches(gemm(), cfg)


class TestCheckpointPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(every_steps=0)
        with pytest.raises(ValueError):
            CheckpointPolicy(near_every_steps=0)
        with pytest.raises(ValueError):
            CheckpointPolicy(near_deadline_s=-1.0)

    def test_interval_far_from_deadline(self):
        policy = CheckpointPolicy(
            every_steps=64, near_deadline_s=1.0, near_every_steps=8
        )
        assert policy.interval_for(None) == 64
        assert policy.interval_for(CancelToken(None)) == 64  # unlimited
        assert policy.interval_for(CancelToken.after(100.0)) == 64

    def test_interval_tightens_near_deadline(self):
        policy = CheckpointPolicy(
            every_steps=64, near_deadline_s=1.0, near_every_steps=8
        )
        assert policy.interval_for(CancelToken.after(0.5)) == 8
        cancelled = CancelToken(None)
        cancelled.cancel()
        assert policy.interval_for(cancelled) == 8

    def test_never_loosens(self):
        policy = CheckpointPolicy(
            every_steps=4, near_deadline_s=1.0, near_every_steps=8
        )
        assert policy.interval_for(CancelToken.after(0.5)) == 4


class TestCheckpointer:
    def test_cadence_and_wasted_accounting(self, hw):
        ck, _ = make_checkpoint(hw)
        saved = []
        cp = Checkpointer(CheckpointPolicy(every_steps=5), sink=saved.append)
        for step in range(1, 13):
            cp.on_step(None, lambda: ck)
        # fired at steps 5 and 10; steps 11-12 are at risk
        assert cp.saved == 2
        assert saved == [ck, ck]
        assert cp.steps_seen == 12
        assert cp.wasted_states() == 12 - ck.total_steps

    def test_builder_runs_only_when_due(self):
        calls = []
        cp = Checkpointer(CheckpointPolicy(every_steps=100))

        def builder():
            calls.append(1)
            raise AssertionError("must not build before the cadence fires")

        for _ in range(99):
            cp.on_step(None, builder)
        assert calls == []

    def test_start_from_seeds_offsets(self, hw):
        ck, _ = make_checkpoint(hw, iterations=(21, 19))
        cp = Checkpointer(CheckpointPolicy(every_steps=64))
        cp.start_from(ck)
        assert cp.last is ck
        assert cp.steps_seen == 40
        assert cp.wasted_states() == 0
        cp.on_step(None, lambda: ck)
        assert cp.wasted_states() == 1


class TestCheckpointStore:
    def test_save_load_round_trip(self, hw, tmp_path):
        ck, _ = make_checkpoint(hw)
        registry = MetricsRegistry()
        store = CheckpointStore(tmp_path, registry=registry)
        store.save("rtx4090", ck)
        assert store.load("rtx4090", ck.compute_key) == ck
        assert registry.counter("resilience_checkpoint_saves_total").value == 1
        assert registry.counter("resilience_checkpoint_loads_total").value == 1

    def test_missing_returns_none(self, tmp_path):
        store = CheckpointStore(tmp_path, registry=MetricsRegistry())
        assert store.load("rtx4090", "nope") is None

    def test_discard_removes_record(self, hw, tmp_path):
        ck, _ = make_checkpoint(hw)
        store = CheckpointStore(tmp_path, registry=MetricsRegistry())
        store.save("rtx4090", ck)
        store.discard("rtx4090", ck.compute_key)
        assert store.load("rtx4090", ck.compute_key) is None
        store.discard("rtx4090", ck.compute_key)  # idempotent

    def test_wrong_device_quarantined(self, hw, tmp_path):
        ck, _ = make_checkpoint(hw)
        store = CheckpointStore(tmp_path, registry=MetricsRegistry())
        store.save("rtx4090", ck)
        # same path digest only for the same device, so force the payload
        path = store.path_for("rtx4090", ck.compute_key)
        payload = json.loads(path.read_text())
        payload["device"] = "orin_nano"
        path.write_text(json.dumps(payload))
        assert store.load("rtx4090", ck.compute_key) is None
        assert (tmp_path / ".quarantine" / path.name).exists()

    def test_corruption_quarantines_with_unique_names(self, hw, tmp_path):
        """Repeated corruption of one key leaves one record per incident."""
        ck, _ = make_checkpoint(hw)
        registry = MetricsRegistry()
        store = CheckpointStore(tmp_path, registry=registry)
        path = store.path_for("rtx4090", ck.compute_key)
        for _ in range(3):
            store.save("rtx4090", ck)
            raw = path.read_text()
            path.write_text(raw[: len(raw) // 2])  # truncate mid-record
            assert store.load("rtx4090", ck.compute_key) is None
        qdir = tmp_path / ".quarantine"
        records = [
            p for p in qdir.iterdir() if not p.name.endswith(".reason")
        ]
        assert len(records) == 3
        assert len({p.name for p in records}) == 3
        assert (
            registry.counter("resilience_checkpoint_corrupt_total").value == 3
        )

    def test_flipped_bit_detected_by_crc(self, hw, tmp_path):
        ck, _ = make_checkpoint(hw)
        store = CheckpointStore(tmp_path, registry=MetricsRegistry())
        store.save("rtx4090", ck)
        path = store.path_for("rtx4090", ck.compute_key)
        payload = json.loads(path.read_text())
        payload["checkpoint"]["total_steps"] += 1  # bit flip, stale CRC
        path.write_text(json.dumps(payload))
        assert store.load("rtx4090", ck.compute_key) is None

    def test_non_utf8_record_quarantined(self, hw, tmp_path):
        ck, _ = make_checkpoint(hw)
        registry = MetricsRegistry()
        store = CheckpointStore(tmp_path, registry=registry)
        path = store.save("rtx4090", ck)
        path.write_bytes(b'{"device": "\xff')  # a flipped high bit
        assert store.load("rtx4090", ck.compute_key) is None
        assert (tmp_path / ".quarantine" / f"{path.name}.reason").exists()
        assert registry.counter("resilience_checkpoint_corrupt_total").value == 1

    def test_save_leaves_no_journal_droppings(self, hw, tmp_path):
        ck, _ = make_checkpoint(hw)
        store = CheckpointStore(tmp_path, registry=MetricsRegistry())
        store.save("rtx4090", ck)
        leftovers = [
            p for p in tmp_path.iterdir() if ".journal." in p.name
        ]
        assert leftovers == []


class TestRngHelpers:
    def test_rng_state_restore_is_exact(self):
        gen = spawn_rng(7, "x", "y", 2)
        gen.random(11)
        clone = restore_rng(rng_state(gen))
        assert clone.random(64).tobytes() == gen.random(64).tobytes()

    def test_restored_generator_is_independent(self):
        gen = spawn_rng(7, "x")
        clone = restore_rng(rng_state(gen))
        gen.random(5)
        before = clone.bit_generator.state
        assert before == restore_rng(before).bit_generator.state
        assert isinstance(np.asarray(clone.random(3)), np.ndarray)

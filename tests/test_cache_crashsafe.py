"""Crash-safe schedule cache: checksums, atomic syncs, quarantine.

The contract: a truncated file, a flipped bit in one record, or a crash
mid-sync each read with quarantine — never a crash, never silently
poisoned entries — on every read path (``load``, and the ``refresh`` and
``sync`` a fleet shard runs).
"""

import json
import os

import pytest

from repro.core.cache import (
    CachedSchedule,
    ScheduleCache,
    entry_checksum,
    shape_fingerprint,
)
from repro.ir import operators as ops
from repro.ir.etir import ETIR
from repro.obs.metrics import MetricsRegistry


def make_state(m=512, k=256, n=512, name="g"):
    g = ops.matmul(m, k, n, name)
    return ETIR.from_tiles(g, {"i": 64, "j": 64, "k": 32}, {"i": 4, "j": 4}, {"i": 2})


def saved_cache(hw, tmp_path, states=None):
    """A fresh database of ``states`` (sync would read a file left behind)."""
    cache = ScheduleCache(hw)
    for state in states or [make_state(), make_state(1024, 256, 512, "h")]:
        cache.put(state, 1e-3)
    path = tmp_path / "cache.json"
    path.unlink(missing_ok=True)
    cache.sync(path)
    return path


class TestChecksums:
    def test_saved_entries_carry_crcs(self, hw, tmp_path):
        path = saved_cache(hw, tmp_path)
        payload = json.loads(path.read_text())
        for data in payload["entries"].values():
            body = {k: v for k, v in data.items() if k != "crc"}
            assert data["crc"] == entry_checksum(body)

    def test_checksum_detects_any_field_change(self):
        entry = CachedSchedule.from_state(make_state(), 1e-3).to_json()
        crc = entry_checksum(entry)
        tampered = {**entry, "latency_s": entry["latency_s"] * 2}
        assert entry_checksum(tampered) != crc


#: A database written before group entries existed (one bare record).
PARENT_FORMAT = """{
  "device": "rtx4090",
  "entries": {
    "gemm[i:512:s,j:512:s,k:256:r]": {
      "block_tiles": {"i": 64, "j": 64, "k": 32},
      "crc": 1737077226,
      "extents": {"i": 512, "j": 512, "k": 256},
      "kind": "gemm",
      "latency_s": 0.001,
      "thread_tiles": {"i": 4, "j": 4, "k": 1},
      "vthreads": {"i": 2, "j": 1}
    }
  }
}"""


class TestParentFormat:
    def test_loads_with_every_crc_valid_and_serves_bare_hits(self, hw, tmp_path):
        from repro.core.dynamic import DynamicGensor

        path = tmp_path / "cache.json"
        path.write_text(PARENT_FORMAT)
        loaded = ScheduleCache.load(path, hw)
        assert len(loaded) == 1 and not loaded.quarantined
        state = make_state()
        assert loaded.get(state.compute) == CachedSchedule.from_state(state, 1e-3)
        served = DynamicGensor(hw, cache=loaded).compile(
            ops.matmul(512, 256, 512, "client")
        )
        assert served.source == "hit"
        assert served.result.best.config == state.config

    def test_bare_records_save_byte_identically(self, hw, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(PARENT_FORMAT)
        ScheduleCache(hw).sync(path)
        assert json.loads(path.read_text()) == json.loads(PARENT_FORMAT)


class TestTruncatedFile:
    def test_loads_empty_with_quarantine(self, hw, tmp_path):
        path = saved_cache(hw, tmp_path)
        full = path.read_text()
        path.write_text(full[: len(full) // 2])  # crash mid-write
        registry = MetricsRegistry()
        loaded = ScheduleCache(hw, registry=registry)
        loaded.refresh(path)
        assert len(loaded) == 0
        assert len(loaded.quarantined) == 1
        assert "corrupt JSON" in loaded.quarantined[0]
        # the bad file moved aside so the next sync starts clean
        assert not path.exists()
        assert (tmp_path / ".quarantine" / "cache.json").exists()
        assert registry.counter("cache_quarantined_total").value == 1

    def test_save_after_quarantine_round_trips(self, hw, tmp_path):
        path = saved_cache(hw, tmp_path)
        path.write_text(path.read_text()[:40])
        loaded = ScheduleCache.load(path, hw)
        loaded.put(make_state(), 2e-3)
        loaded.sync(path)
        again = ScheduleCache.load(path, hw)
        assert len(again) == 1 and not again.quarantined


class TestFlippedBit:
    def corrupt_one_entry(self, path):
        payload = json.loads(path.read_text())
        key = sorted(payload["entries"])[0]
        payload["entries"][key]["latency_s"] *= 2  # bit-rot, stale crc
        path.write_text(json.dumps(payload))
        return key

    def test_bad_record_quarantined_rest_load(self, hw, tmp_path):
        path = saved_cache(hw, tmp_path)
        bad_key = self.corrupt_one_entry(path)
        registry = MetricsRegistry()
        loaded = ScheduleCache(hw, registry=registry)
        loaded.refresh(path)
        assert len(loaded) == 1  # the healthy sibling survived
        assert len(loaded.quarantined) == 1
        assert "checksum mismatch" in loaded.quarantined[0]
        assert registry.counter("cache_quarantined_total").value == 1
        # the quarantine record names the key and preserves the payload
        records = list((tmp_path / ".quarantine").iterdir())
        assert len(records) == 1
        record = json.loads(records[0].read_text())
        assert record["key"] == bad_key
        assert "checksum mismatch" in record["reason"]

    def test_missing_field_quarantined(self, hw, tmp_path):
        path = saved_cache(hw, tmp_path)
        payload = json.loads(path.read_text())
        key = sorted(payload["entries"])[0]
        entry = payload["entries"][key]
        del entry["block_tiles"]
        entry["crc"] = entry_checksum(
            {k: v for k, v in entry.items() if k != "crc"}
        )  # crc valid, shape wrong
        path.write_text(json.dumps(payload))
        loaded = ScheduleCache.load(path, hw)
        assert len(loaded) == 1 and len(loaded.quarantined) == 1

    def test_flipped_bit_in_fused_record_is_quarantined(self, hw, tmp_path):
        bare = make_state()
        fused = ETIR(
            bare.compute, bare.config, bare.cur_level, bare.num_levels,
            epilogue_pool=(ops.elementwise((512, 512), "relu", "ep"),),
            fused=1,
        )
        path = saved_cache(hw, tmp_path, states=[bare, fused])
        payload = json.loads(path.read_text())
        fused_key = next(k for k in payload["entries"] if "+" in k)
        payload["entries"][fused_key]["fused"] = 0  # bit-rot, stale crc
        path.write_text(json.dumps(payload))
        loaded = ScheduleCache.load(path, hw)
        assert len(loaded) == 1 and loaded.get(bare.compute) is not None
        assert loaded.get(fused.compute, fused.epilogue_pool) is None
        assert len(loaded.quarantined) == 1
        assert loaded.quarantined[0].startswith(fused_key)
        assert "checksum mismatch" in loaded.quarantined[0]

    def test_legacy_entry_without_crc_still_loads(self, hw, tmp_path):
        path = saved_cache(hw, tmp_path)
        payload = json.loads(path.read_text())
        for entry in payload["entries"].values():
            entry.pop("crc")
        path.write_text(json.dumps(payload))
        loaded = ScheduleCache.load(path, hw)
        assert len(loaded) == 2 and not loaded.quarantined


class TestShardReadPaths:
    """``refresh`` and ``sync`` — what a fleet shard runs at boot and on
    every tick — quarantine like ``load``: a bad record is parked and
    counted once, the next sync drops it from the file, and a file that is
    no cache moves aside instead of being overwritten."""

    @pytest.mark.parametrize(
        "reads", [("refresh", "sync"), ("sync",)], ids=["refresh-sync", "sync"]
    )
    @pytest.mark.parametrize(
        "rot",
        [
            lambda entry: entry.update(latency_s=entry["latency_s"] * 2),
            lambda entry: entry.pop("block_tiles"),
        ],
        ids=["flipped-bit", "missing-field"],
    )
    def test_bad_record_is_parked_once_and_dropped(self, hw, tmp_path, rot, reads):
        path = saved_cache(hw, tmp_path)
        payload = json.loads(path.read_text())
        bad_key, good_key = sorted(payload["entries"])
        rot(payload["entries"][bad_key])  # the stored crc is now stale
        path.write_text(json.dumps(payload))
        registry = MetricsRegistry()
        cache = ScheduleCache(hw, registry=registry)
        for read in reads:
            getattr(cache, read)(path)
        assert [e.extents for e in cache.entries()] == [
            payload["entries"][good_key]["extents"]
        ]
        records = list((tmp_path / ".quarantine").iterdir())
        assert len(records) == 1
        assert json.loads(records[0].read_text())["key"] == bad_key
        assert registry.counter("cache_quarantined_total").value == 1
        assert set(json.loads(path.read_text())["entries"]) == {good_key}

    @pytest.mark.parametrize(
        "raw",
        [b'{"device": "NVIDIA GeF', b'["not", "a", "cache"]', b'{"device": "\xff"}'],
        ids=["truncated", "wrong-shape", "not-utf8"],
    )
    def test_sync_moves_an_unreadable_file_aside(self, hw, tmp_path, raw):
        path = tmp_path / "cache.json"
        path.write_bytes(raw)
        registry = MetricsRegistry()
        cache = ScheduleCache(hw, registry=registry)
        cache.put(make_state(), 1e-3)
        assert cache.sync(path) == 0
        qdir = tmp_path / ".quarantine"
        assert (qdir / "cache.json").read_bytes() == raw
        assert (qdir / "cache.json.reason").read_text()
        assert registry.counter("cache_quarantined_total").value == 1
        assert len(ScheduleCache.load(path, hw)) == 1


class TestPartialWrite:
    def test_injected_replace_failure_leaves_old_file_intact(
        self, hw, tmp_path, monkeypatch
    ):
        """A crash at the journal->live rename never corrupts the live file."""
        path = saved_cache(hw, tmp_path, states=[make_state()])
        before = path.read_text()
        cache = ScheduleCache.load(path, hw)
        cache.put(make_state(2048, 256, 512, "new"), 1e-3)

        real_replace = os.replace

        def failing_replace(src, dst):
            if str(dst) == str(path):
                raise OSError("injected crash at rename")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="injected crash"):
            cache.sync(path)
        monkeypatch.undo()
        # old file byte-identical, journal cleaned up (the ``.lock``
        # sibling is the persistent cross-process guard), and it still loads
        assert path.read_text() == before
        assert {p.name for p in tmp_path.iterdir()} == {
            "cache.json", "cache.json.lock",
        }
        loaded = ScheduleCache.load(path, hw)
        assert len(loaded) == 1 and not loaded.quarantined

    def test_orphaned_journal_is_ignored_by_load(self, hw, tmp_path):
        path = saved_cache(hw, tmp_path)
        (tmp_path / f".cache.json.journal.{os.getpid()}").write_text("{trunc")
        loaded = ScheduleCache.load(path, hw)
        assert len(loaded) == 2 and not loaded.quarantined


class TestCorruptChaosHook:
    def test_corrupt_then_recompile_path(self, hw):
        cache = ScheduleCache(hw)
        state = make_state()
        cache.put(state, 1e-3)
        assert cache.corrupt(state.compute)
        entry = cache.get(state.compute)
        # readers see a dud: instantiate fails, nearest skips it
        assert entry.instantiate(state.compute) is None
        assert cache.nearest(state.compute) is None
        # a recompile's put overwrites the dud (inf latency always loses)
        cache.put(state, 5e-3)
        assert cache.get(state.compute).latency_s == 5e-3

    def test_corrupt_missing_key_is_false(self, hw):
        assert not ScheduleCache(hw).corrupt("ghost[key]")

    def test_corrupt_by_fingerprint_string(self, hw):
        cache = ScheduleCache(hw)
        state = make_state()
        cache.put(state, 1e-3)
        assert cache.corrupt(shape_fingerprint(state.compute))


def _chaos_writer(idx: int, path_str: str, acked_path_str: str) -> None:
    """Child process body: put+sync in a loop, acking each sync.

    Module-level so the 'spawn' start method can pickle it.  A key is
    acked (flushed+fsynced to the sidecar) only AFTER sync() returned —
    the durability contract under test is exactly those keys.
    """
    from repro.hardware import rtx4090

    hw = rtx4090()
    cache = ScheduleCache(hw)
    with open(acked_path_str, "a", encoding="utf-8") as acked:
        for i in range(500):
            state = make_state(
                64 * ((i % 40) + 1), 32, 64 + 16 * idx, name=f"w{idx}_{i}"
            )
            cache.put(state, 1e-3 + i * 1e-6)
            cache.sync(path_str)
            acked.write(shape_fingerprint(state.compute) + "\n")
            acked.flush()
            os.fsync(acked.fileno())


class TestConcurrentSaveChaos:
    """Two processes hammer syncs on one file and get SIGKILLed.

    The acceptance bar: the live file never corrupts, and no entry whose
    sync was acknowledged is ever lost — crash-mid-sync only ever costs
    the unacked tail.
    """

    def test_killed_writers_lose_no_acked_entries(self, hw, tmp_path):
        import multiprocessing as mp
        import signal
        import time

        ctx = mp.get_context("spawn")
        path = tmp_path / "cache.json"
        sidecars = [tmp_path / f"acked{i}.log" for i in range(2)]
        workers = [
            ctx.Process(
                target=_chaos_writer, args=(i, str(path), str(sidecars[i]))
            )
            for i in range(2)
        ]
        for p in workers:
            p.start()
        try:
            # let both make real progress, then kill them mid-flight
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                acked = [
                    s.read_text().splitlines() if s.exists() else []
                    for s in sidecars
                ]
                if all(len(lines) >= 5 for lines in acked):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("chaos writers made no progress")
        finally:
            for p in workers:
                if p.pid and p.is_alive():
                    os.kill(p.pid, signal.SIGKILL)
            for p in workers:
                p.join(timeout=10)
        acked_keys = {
            key
            for sidecar in sidecars
            if sidecar.exists()
            for key in sidecar.read_text().split()
        }
        assert acked_keys  # the run exercised real syncs
        loaded = ScheduleCache.load(path, hw)
        assert not loaded.quarantined  # file is wholly intact
        payload = json.loads(path.read_text())
        missing = acked_keys - set(payload["entries"])
        assert not missing, f"{len(missing)} acked entries lost: {sorted(missing)[:3]}"
        # and the survivor file is still writable by a fresh process
        cache = ScheduleCache(hw)
        cache.put(make_state(name="after_chaos"), 1e-3)
        cache.sync(path)
        merged = json.loads(path.read_text())
        assert set(payload["entries"]) <= set(merged["entries"])


class TestRepeatedCorruption:
    """Satellite contract: every corruption incident leaves its own
    quarantine record — repeats must not overwrite earlier forensics —
    and the healthy entries keep loading warm each time."""

    def test_file_incidents_get_unique_quarantine_names(self, hw, tmp_path):
        registry = MetricsRegistry()
        for _ in range(3):
            path = saved_cache(hw, tmp_path)
            path.write_text(path.read_text()[:40])  # crash mid-write
            loaded = ScheduleCache(hw, registry=registry)
            loaded.refresh(path)
            assert len(loaded) == 0 and len(loaded.quarantined) == 1
        qdir = tmp_path / ".quarantine"
        records = [p for p in qdir.iterdir() if not p.name.endswith(".reason")]
        assert len(records) == 3
        assert len({p.name for p in records}) == 3
        for record in records:  # each incident keeps its own reason
            reason = qdir / f"{record.name}.reason"
            assert "corrupt JSON" in reason.read_text()
        assert registry.counter("cache_quarantined_total").value == 3

    def test_entry_incidents_keep_warm_siblings_loading(self, hw, tmp_path):
        warm = make_state()
        warm_key = shape_fingerprint(warm.compute)
        victim = make_state(1024, 256, 512, "victim")
        victim_key = shape_fingerprint(victim.compute)
        registry = MetricsRegistry()
        for round_no in range(1, 4):
            path = saved_cache(hw, tmp_path, states=[warm, victim])
            payload = json.loads(path.read_text())
            payload["entries"][victim_key]["latency_s"] *= 2  # stale crc
            path.write_text(json.dumps(payload))
            loaded = ScheduleCache(hw, registry=registry)
            loaded.refresh(path)
            # the warm sibling still serves; only the victim quarantined
            assert loaded.get(warm.compute) is not None
            assert loaded.get(victim.compute) is None
            records = [
                p
                for p in (tmp_path / ".quarantine").iterdir()
                if ".json." in p.name or p.name.endswith(".json")
            ]
            assert len(records) == round_no
            assert len({p.name for p in records}) == round_no
        assert registry.counter("cache_quarantined_total").value == 3

"""Persistent schedule cache."""

import threading

import pytest

from repro.core.cache import (
    CachedSchedule,
    ScheduleCache,
    family_fingerprint,
    group_fingerprint,
    shape_fingerprint,
)
from repro.core.score import pending_penalty_s
from repro.ir import operators as ops
from repro.ir.etir import ETIR


def make_state(m=512, k=256, n=512, name="g"):
    g = ops.matmul(m, k, n, name)
    return ETIR.from_tiles(g, {"i": 64, "j": 64, "k": 32}, {"i": 4, "j": 4}, {"i": 2})


def make_fused(m=512, k=256, n=512, fused=1, name="g"):
    """A fusion-group state: the matmul anchor plus a one-op relu pool."""
    bare = make_state(m, k, n, name)
    pool = (ops.elementwise((m, n), "relu", f"{name}_ep"),)
    return ETIR(
        bare.compute, bare.config, bare.cur_level, bare.num_levels,
        epilogue_pool=pool, fused=fused,
    )


class TestFingerprint:
    def test_name_independent(self):
        a = ops.matmul(64, 32, 64, "first")
        b = ops.matmul(64, 32, 64, "second")
        assert shape_fingerprint(a) == shape_fingerprint(b)

    def test_shape_sensitive(self):
        a = ops.matmul(64, 32, 64)
        b = ops.matmul(64, 32, 128)
        assert shape_fingerprint(a) != shape_fingerprint(b)

    def test_kind_sensitive(self):
        a = ops.matmul(64, 64, 64)
        fp = shape_fingerprint(a)
        assert fp.startswith("gemm[")


class TestFamilyFingerprint:
    def test_extent_independent(self):
        a = ops.matmul(64, 32, 64, "small")
        b = ops.matmul(4096, 4096, 4096, "big")
        assert family_fingerprint(a) == family_fingerprint(b)

    def test_kind_sensitive(self):
        a = ops.matmul(64, 64, 64)
        b = ops.gemv(64, 64)
        assert family_fingerprint(a) != family_fingerprint(b)

    def test_coarser_than_shape_fingerprint(self):
        a = ops.matmul(64, 32, 64)
        b = ops.matmul(128, 32, 64)
        assert shape_fingerprint(a) != shape_fingerprint(b)
        assert family_fingerprint(a) == family_fingerprint(b)


class TestGroupFingerprint:
    def test_bare_group_is_the_shape_fingerprint(self):
        g = ops.matmul(64, 32, 64)
        assert group_fingerprint(g) == shape_fingerprint(g)
        assert family_fingerprint(g, ()) == family_fingerprint(g)

    def test_pool_extends_the_key(self):
        g = ops.matmul(64, 32, 64)
        ep = ops.elementwise((64, 64), "relu", "ep")
        assert group_fingerprint(g, (ep,)) == (
            f"{shape_fingerprint(g)}+{shape_fingerprint(ep)}"
        )
        assert family_fingerprint(g, (ep,)) == (
            f"{family_fingerprint(g)}+{family_fingerprint(ep)}"
        )


class TestCachedSchedule:
    def test_round_trip_state(self):
        state = make_state()
        entry = CachedSchedule.from_state(state, 1e-3)
        rebuilt = entry.instantiate(state.compute)
        assert rebuilt is not None
        assert rebuilt.block_tiles() == state.block_tiles()
        assert rebuilt.thread_tiles() == state.thread_tiles()
        assert rebuilt.total_vthreads() == state.total_vthreads()

    def test_instantiate_adapts_to_smaller_shape(self):
        entry = CachedSchedule.from_state(make_state(), 1e-3)
        small = ops.matmul(32, 16, 32, "small")
        adapted = entry.instantiate(small)
        assert adapted is not None
        assert adapted.block_tiles()["i"] == 32  # clipped to extent

    def test_instantiate_rejects_foreign_axes(self):
        entry = CachedSchedule.from_state(make_state(), 1e-3)
        conv = ops.conv2d(1, 4, 8, 8, 4, 3, 3, 1, "c")
        assert entry.instantiate(conv) is None

    def test_json_round_trip(self):
        entry = CachedSchedule.from_state(make_state(), 2.5e-3)
        again = CachedSchedule.from_json(entry.to_json())
        assert again == entry

    def test_fused_entry_records_pool_and_fused_count(self):
        state = make_fused(fused=1)
        entry = CachedSchedule.from_state(state, 2.5e-3, 1e-5)
        assert entry.pool == (family_fingerprint(state.epilogue_pool[0]),)
        assert entry.fused == 1 and entry.pending_s == 1e-5
        assert entry.cost_s == 2.5e-3 + 1e-5
        assert CachedSchedule.from_json(entry.to_json()) == entry

    def test_fused_entry_instantiates_with_or_without_the_pool(self):
        state = make_fused(fused=1)
        entry = CachedSchedule.from_state(state, 2.5e-3)
        grouped = entry.instantiate(state.compute, state.epilogue_pool)
        assert grouped == state
        bare = entry.instantiate(state.compute)
        assert bare.epilogue_pool == () and bare.fused == 0
        assert bare.config == state.config


class TestScheduleCache:
    def test_put_get(self, hw):
        cache = ScheduleCache(hw)
        state = make_state()
        cache.put(state, 1e-3)
        entry = cache.get(state.compute)
        assert entry is not None and entry.latency_s == 1e-3

    def test_put_keeps_faster_entry(self, hw):
        cache = ScheduleCache(hw)
        state = make_state()
        cache.put(state, 1e-3)
        cache.put(state, 5e-3)  # slower: ignored
        assert cache.get(state.compute).latency_s == 1e-3
        cache.put(state, 5e-4)  # faster: replaces
        assert cache.get(state.compute).latency_s == 5e-4

    def test_nearest_prefers_closest_shape(self, hw):
        cache = ScheduleCache(hw)
        cache.put(make_state(512, 256, 512, "a"), 1e-3)
        cache.put(make_state(4096, 256, 512, "b"), 2e-3)
        probe = ops.matmul(600, 256, 512, "probe")
        entry = cache.nearest(probe)
        assert entry is not None and entry.extents["i"] == 512

    def test_nearest_ignores_other_kinds(self, hw):
        cache = ScheduleCache(hw)
        cache.put(make_state(), 1e-3)
        probe = ops.gemv(512, 256, "v")
        assert cache.nearest(probe) is None

    def test_miss_returns_none(self, hw):
        cache = ScheduleCache(hw)
        assert cache.get(ops.matmul(8, 8, 8)) is None

    def test_fused_and_bare_entries_keep_separate_keys(self, hw):
        cache = ScheduleCache(hw)
        bare, fused = make_state(), make_fused()
        cache.put(bare, 1e-3)
        cache.put(fused, 2e-3)
        assert len(cache) == 2
        assert cache.get(bare.compute).latency_s == 1e-3
        assert cache.get(bare.compute).pool == ()
        entry = cache.get(fused.compute, fused.epilogue_pool)
        assert entry.latency_s == 2e-3 and entry.fused == 1

    def test_nearest_matches_pool_families(self, hw):
        cache = ScheduleCache(hw)
        cache.put(make_state(512, 256, 512, "bare"), 1e-3)
        cache.put(make_fused(4096, 256, 512, name="grp"), 2e-3)
        probe = ops.matmul(600, 256, 512, "probe")
        pool = (ops.elementwise((600, 512), "relu", "probe_ep"),)
        # the bare probe never sees the (fused) group entry, and the
        # group probe never sees the (closer) bare entry
        assert cache.nearest(probe).pool == ()
        assert cache.nearest(probe, pool).extents["i"] == 4096
        other = (ops.add((600, 512), "probe_add"),)
        assert cache.nearest(probe, other) is None

    def test_put_compares_program_cost(self, hw):
        """Faster-wins ranks kernel latency plus the unfused penalty."""
        cache = ScheduleCache(hw)
        fused, unfused = make_fused(fused=1), make_fused(fused=0)
        penalty = pending_penalty_s(unfused, hw)
        assert penalty > 0.0
        cache.put(fused, 1e-3)
        # a faster kernel that leaves the epilogue as its own launch loses
        cache.put(unfused, 1e-3 - penalty / 2)
        key = (fused.compute, fused.epilogue_pool)
        assert cache.get(*key).fused == 1
        # ... unless the program as a whole is cheaper
        cache.put(unfused, 1e-3 - 2 * penalty)
        entry = cache.get(*key)
        assert entry.fused == 0 and entry.pending_s == penalty

    def test_merge_compares_program_cost(self, hw):
        cache = ScheduleCache(hw)
        fused, unfused = make_fused(fused=1), make_fused(fused=0)
        penalty = pending_penalty_s(unfused, hw)
        cache.put(fused, 1e-3)
        key = group_fingerprint(fused.compute, fused.epilogue_pool)
        cheaper_kernel = CachedSchedule.from_state(
            unfused, 1e-3 - penalty / 2, penalty
        )
        assert cache.merge_entries({key: cheaper_kernel}) == 0
        assert cache.snapshot_entries()[key].fused == 1

    def test_fused_entry_persists_and_syncs(self, hw, tmp_path):
        path = tmp_path / "cache.json"
        fused = make_fused(fused=1)
        key = (fused.compute, fused.epilogue_pool)
        writer = ScheduleCache(hw)
        writer.put(fused, 2e-3)
        writer.sync(path)
        loaded = ScheduleCache.load(path, hw)
        assert not loaded.quarantined
        assert loaded.get(*key) == writer.get(*key)
        assert loaded.get(*key).fused == 1
        # sync: a sibling that only has the bare anchor pulls the group in
        sibling = ScheduleCache(hw)
        sibling.put(make_state(), 1e-3)
        assert sibling.sync(path) == 1
        assert sibling.get(*key) == writer.get(*key)
        assert len(ScheduleCache.load(path, hw)) == 2
        # in-memory replication carries the entry unchanged as well
        replica = ScheduleCache(hw)
        assert replica.merge_entries(sibling.snapshot_entries()) == 2
        assert replica.get(*key) == writer.get(*key)
        assert replica.get(*key).fused == 1

    def test_save_load_round_trip(self, hw, tmp_path):
        cache = ScheduleCache(hw)
        cache.put(make_state(), 1e-3)
        path = tmp_path / "cache.json"
        cache.sync(path)
        loaded = ScheduleCache.load(path, hw)
        assert len(loaded) == 1
        assert loaded.get(make_state().compute).latency_s == 1e-3

    def test_load_rejects_wrong_device(self, hw, edge_hw, tmp_path):
        cache = ScheduleCache(hw)
        cache.put(make_state(), 1e-3)
        path = tmp_path / "cache.json"
        cache.sync(path)
        with pytest.raises(ValueError, match="tuned for"):
            ScheduleCache.load(path, edge_hw)

    def test_save_leaves_no_temp_files(self, hw, tmp_path):
        cache = ScheduleCache(hw)
        cache.put(make_state(), 1e-3)
        cache.sync(tmp_path / "cache.json")
        # the persistent ``.lock`` sibling is the cross-process save guard;
        # what must never leak is a journal temp file.
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"cache.json", "cache.json.lock"}
        assert not [n for n in names if "journal" in n]

    def test_save_replaces_existing_file(self, hw, tmp_path):
        path = tmp_path / "cache.json"
        cache = ScheduleCache(hw)
        cache.sync(path)
        cache.put(make_state(), 1e-3)
        cache.sync(path)
        assert len(ScheduleCache.load(path, hw)) == 1

    def test_default_load_quarantines_corrupt_json(self, hw, tmp_path):
        """Crash-safe default: a truncated file loads as empty + quarantine
        (full corruption-recovery coverage in test_cache_crashsafe.py)."""
        path = tmp_path / "cache.json"
        path.write_text('{"device": "NVIDIA GeF')
        loaded = ScheduleCache.load(path, hw)
        assert len(loaded) == 0
        assert loaded.quarantined
        assert (tmp_path / ".quarantine" / "cache.json").exists()


class TestCacheThreadSafety:
    def test_concurrent_put_get_nearest(self, hw):
        """Many threads hammering one cache: no exceptions, no lost entries."""
        cache = ScheduleCache(hw)
        sizes = [64, 128, 256, 512, 1024, 2048]
        errors: list[Exception] = []

        def worker(tid: int) -> None:
            try:
                for round_ in range(30):
                    m = sizes[(tid + round_) % len(sizes)]
                    state = make_state(m, 256, 512, f"t{tid}")
                    cache.put(state, 1e-3 / (tid + 1))
                    cache.get(state.compute)
                    cache.nearest(ops.matmul(m + 8, 256, 512, "probe"))
                    len(cache)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cache) == len(sizes)
        # every fingerprint kept its fastest observed latency
        for entry in cache.entries():
            assert entry.latency_s == pytest.approx(1e-3 / 8)

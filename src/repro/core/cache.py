"""Persistent schedule cache.

Production tensor compilers keep a tuning database (TVM's tophub, Ansor's
log files) so a shape is only ever optimized once per device.  The cache
stores winning ETIR configurations keyed by (device, group fingerprint)
and can persist itself as JSON.  A group is a bare operator or a program
fusion group (anchor plus epilogue pool); :func:`group_fingerprint` of a
bare operator is its shape fingerprint.  The cache also powers
:mod:`repro.core.dynamic`: for an unseen group it returns the *nearest*
cached entry of the same anchor and pool families, which seeds
warm-started re-optimization.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

try:  # POSIX advisory file locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.core.score import pending_penalty_s
from repro.hardware.spec import HardwareSpec
from repro.ir.compute import ComputeDef
from repro.ir.etir import ETIR
from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = [
    "CachedSchedule",
    "ScheduleCache",
    "entry_checksum",
    "shape_fingerprint",
    "family_fingerprint",
    "group_fingerprint",
]


def shape_fingerprint(compute: ComputeDef) -> str:
    """Canonical key for an operator's *shape* (name-independent).

    Built once per operator and kept in the frozen compute's ``__dict__``
    (like ``pack_for`` and ``_tile_cache``): a served request keys its
    group several times — single-flight, the attempt, each cache lookup.
    """
    key = compute.__dict__.get("_shape_fingerprint")
    if key is None:
        axes = ",".join(
            f"{ax.name}:{ax.extent}:{ax.kind[0]}" for ax in compute.axes
        )
        key = compute.__dict__["_shape_fingerprint"] = f"{compute.kind}[{axes}]"
    return key


def group_fingerprint(
    compute: ComputeDef, epilogues: Iterable[ComputeDef] = ()
) -> str:
    """Canonical key for a fusion group: anchor shape plus pool shapes.

    The schedule cache, single-flight and the fleet's checkpoint discard
    all key by it, so a fused winner never answers for its bare anchor
    (or the other way round).  An empty pool gives exactly
    :func:`shape_fingerprint`.
    """
    return shape_fingerprint(compute) + "".join(
        f"+{shape_fingerprint(ep)}" for ep in epilogues
    )


def family_fingerprint(
    compute: ComputeDef, epilogues: Iterable[ComputeDef] = ()
) -> str:
    """Canonical key for an operator *family* (kind + axis set, any extents).

    Two groups share a family exactly when :meth:`ScheduleCache.nearest`
    could warm-start one from the other — the granularity at which the
    serving layer guards against cold-start stampedes.  A fusion group's
    family adds its pool's families, in pool order.
    """
    axes = ",".join(f"{ax.name}:{ax.kind[0]}" for ax in compute.axes)
    return f"{compute.kind}[{axes}]" + "".join(
        f"+{family_fingerprint(ep)}" for ep in epilogues
    )


@dataclass
class CachedSchedule:
    """A winning configuration, stored shape-independently by axis name.

    A fusion group's entry also records its pool's operator families, how
    many pool epilogues the winner fused, and the standalone cost of the
    ones it left unfused; a bare operator's entry leaves all three empty
    and serializes exactly as before they existed.
    """

    kind: str
    extents: dict[str, int]
    block_tiles: dict[str, int]
    thread_tiles: dict[str, int]
    vthreads: dict[str, int]
    #: kernel latency of the winner.
    latency_s: float
    #: :func:`family_fingerprint` of every pool epilogue, in pool order.
    pool: tuple[str, ...] = ()
    #: pool epilogues the winner fused into the kernel.
    fused: int = 0
    #: standalone cost of the pool epilogues the winner left unfused.
    pending_s: float = 0.0

    @property
    def cost_s(self) -> float:
        """Program cost (kernel latency plus unfused-epilogue penalty):
        the objective faster-wins compares on a key collision."""
        return self.latency_s + self.pending_s

    @classmethod
    def from_state(
        cls, state: ETIR, latency_s: float, pending_s: float = 0.0
    ) -> "CachedSchedule":
        """``pending_s`` is the state's :func:`pending_penalty_s`."""
        compute = state.compute
        return cls(
            kind=compute.kind,
            extents={ax.name: ax.extent for ax in compute.axes},
            block_tiles=state.block_tiles(),
            thread_tiles=state.thread_tiles(),
            vthreads={
                ax.name: state.vthreads(i)
                for i, ax in enumerate(compute.axes)
                if not ax.is_reduce
            },
            latency_s=latency_s,
            pool=tuple(family_fingerprint(ep) for ep in state.epilogue_pool),
            fused=state.fused,
            pending_s=pending_s,
        )

    @classmethod
    def priced(
        cls, state: ETIR, latency_s: float, hw: HardwareSpec
    ) -> "CachedSchedule":
        """:meth:`from_state` with the unfused-epilogue cost priced on
        ``hw`` — the record a served answer and a cache entry share."""
        return cls.from_state(state, latency_s, pending_penalty_s(state, hw))

    def instantiate(
        self, compute: ComputeDef, epilogues: tuple[ComputeDef, ...] = ()
    ) -> ETIR | None:
        """Adapt this entry to ``compute`` (tiles clip to the new extents).

        With ``epilogues`` the state carries that pool and this entry's
        fused count; without, it is the bare tiling (also of a fused
        entry).  Returns ``None`` when the operator has different axes
        entirely.
        """
        names = {ax.name for ax in compute.axes}
        if set(self.block_tiles) - names:
            return None
        try:
            return ETIR.from_tiles(
                compute,
                self.block_tiles,
                self.thread_tiles,
                self.vthreads,
                epilogue_pool=tuple(epilogues),
                fused=self.fused if epilogues else 0,
            )
        except ValueError:
            return None

    def to_json(self) -> dict:
        data = {
            "kind": self.kind,
            "extents": self.extents,
            "block_tiles": self.block_tiles,
            "thread_tiles": self.thread_tiles,
            "vthreads": self.vthreads,
            "latency_s": self.latency_s,
        }
        if self.pool:
            data.update(
                pool=list(self.pool),
                fused=self.fused,
                pending_s=self.pending_s,
            )
        return data

    @classmethod
    def from_json(cls, data: dict) -> "CachedSchedule":
        return cls(
            kind=data["kind"],
            extents={k: int(v) for k, v in data["extents"].items()},
            block_tiles={k: int(v) for k, v in data["block_tiles"].items()},
            thread_tiles={k: int(v) for k, v in data["thread_tiles"].items()},
            vthreads={k: int(v) for k, v in data["vthreads"].items()},
            latency_s=float(data["latency_s"]),
            pool=tuple(str(f) for f in data.get("pool", ())),
            fused=int(data.get("fused", 0)),
            pending_s=float(data.get("pending_s", 0.0)),
        )


class ScheduleCache:
    """Per-device map from group fingerprint to winning schedule.

    Thread-safe: the serving layer (:mod:`repro.serve`) reads and writes
    one shared cache from many worker threads, so every entry operation
    holds an internal lock.
    """

    def __init__(self, hardware: HardwareSpec) -> None:
        self.hw = hardware
        self._entries: dict[str, CachedSchedule] = {}
        self._lock = threading.RLock()
        #: reasons for every record quarantined by the last :meth:`load`.
        self.quarantined: list[str] = []

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def put(self, state: ETIR, latency_s: float) -> None:
        """Record a winner under its group key (the state's anchor and
        pool); keeps the lower program cost on collision."""
        key = group_fingerprint(state.compute, state.epilogue_pool)
        entry = CachedSchedule.priced(state, latency_s, self.hw)
        with self._lock:
            existing = self._entries.get(key)
            if existing is None or entry.cost_s < existing.cost_s:
                self._entries[key] = entry

    def get(
        self, compute: ComputeDef, epilogues: tuple[ComputeDef, ...] = ()
    ) -> CachedSchedule | None:
        """Exact hit for the group ``compute`` + ``epilogues``."""
        with self._lock:
            return self._entries.get(group_fingerprint(compute, epilogues))

    def nearest(
        self, compute: ComputeDef, epilogues: tuple[ComputeDef, ...] = ()
    ) -> CachedSchedule | None:
        """Closest cached entry of the same anchor kind and axis set and
        the same pool families (none, for a bare operator).

        Distance is the sum of absolute log2 anchor-extent ratios — the
        natural metric on a power-of-two tile lattice.
        """
        target = {ax.name: ax.extent for ax in compute.axes}
        pool = tuple(family_fingerprint(ep) for ep in epilogues)
        best: CachedSchedule | None = None
        best_dist = math.inf
        for entry in self.entries():
            if (
                entry.kind != compute.kind
                or entry.pool != pool
                or set(entry.extents) != set(target)
            ):
                continue
            dist = sum(
                abs(math.log2(entry.extents[name] / target[name]))
                for name in target
            )
            if dist < best_dist:
                best, best_dist = entry, dist
        return best

    def entries(self) -> Iterable[CachedSchedule]:
        with self._lock:
            return list(self._entries.values())

    # -- chaos hook --------------------------------------------------------------

    def corrupt(self, compute_or_key: ComputeDef | str) -> bool:
        """Mangle one entry in place (fault injection's ``corrupt-cache``).

        The corrupted record keeps the shape key but carries axis names
        matching no operator and an infinite latency, so readers see
        ``instantiate() -> None`` (and fall through to a recompile, whose
        winner then overwrites this record via :meth:`put`).  Returns
        whether an entry existed to corrupt.
        """
        key = (
            compute_or_key
            if isinstance(compute_or_key, str)
            else shape_fingerprint(compute_or_key)
        )
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            self._entries[key] = CachedSchedule(
                kind=entry.kind,
                extents={"__corrupt__": 1},
                block_tiles={"__corrupt__": 1},
                thread_tiles={"__corrupt__": 1},
                vthreads={},
                latency_s=math.inf,
            )
            return True

    # -- cross-process merge ----------------------------------------------------

    def merge_entries(self, entries: Mapping[str, "CachedSchedule"]) -> int:
        """Union ``entries`` into memory; the lower program cost wins per key.

        Returns how many keys were added or improved.  This is the in-memory
        half of cross-process replication: a sibling's published winners
        only ever add to or improve the local view, never regress it.
        """
        updated = 0
        with self._lock:
            for key, entry in entries.items():
                existing = self._entries.get(key)
                if existing is None or entry.cost_s < existing.cost_s:
                    self._entries[key] = entry
                    updated += 1
        return updated

    def snapshot_entries(self) -> dict[str, "CachedSchedule"]:
        """Point-in-time copy of the key -> entry map (for merge/transport)."""
        with self._lock:
            return dict(self._entries)

    def refresh(self, path: str | Path) -> int:
        """Pull: merge the on-disk database into memory (returns updates).

        A missing or unreadable file merges nothing — replication must
        never crash a serving shard because a sibling wrote garbage.
        """
        path = Path(path)
        with _file_lock(path):
            disk = _read_entries(path, self.hw.name)
        return self.merge_entries(disk)

    def sync(self, path: str | Path) -> int:
        """Push+pull: union memory with the on-disk database, write both.

        Under one advisory file lock, the current file is read, its entries
        are merged into memory (lower program cost wins), and the merged view
        is written back crash-safely.  Concurrent syncers from different
        processes serialize on the lock, so no process's published entries
        are ever lost to a last-writer-wins race.  Returns the number of
        entries pulled in from disk.
        """
        path = Path(path)
        with _file_lock(path):
            pulled = self.merge_entries(_read_entries(path, self.hw.name))
            self._write_locked(path)
        return pulled

    # -- persistence -----------------------------------------------------------

    def save(self, path: str | Path, *, merge: bool = True) -> None:
        """Persist crash-safely: journal write, fsync, then atomic rename.

        The checksummed payload is written to a journal sibling, flushed
        to disk, and moved into place with :func:`os.replace`, so readers
        only ever observe either the old or the new complete database —
        a crash mid-save never corrupts the live file.

        Saves from different processes additionally serialize on an
        advisory lock file (``<name>.lock``, :mod:`fcntl`) and, with
        ``merge=True`` (the default), union the in-memory entries with
        whatever is already on disk — keeping the cheaper entry per key —
        instead of last-writer-wins.  Two processes saving concurrently
        therefore never interleave their :func:`os.replace` calls and
        never drop each other's entries.  ``merge=False`` restores plain
        overwrite semantics (still locked) for tools that intend to
        truncate the database.
        """
        path = Path(path)
        with _file_lock(path):
            if merge:
                self.merge_entries(_read_entries(path, self.hw.name))
            self._write_locked(path)

    def _write_locked(self, path: Path) -> None:
        """Journal+fsync+rename of the current entries (lock already held)."""
        with self._lock:
            payload = {
                "device": self.hw.name,
                "entries": {
                    key: {**entry.to_json(), "crc": entry_checksum(entry.to_json())}
                    for key, entry in self._entries.items()
                },
            }
        journal = path.parent / f".{path.name}.journal.{os.getpid()}"
        try:
            with open(journal, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, indent=2, sort_keys=True))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(journal, path)
        finally:
            journal.unlink(missing_ok=True)

    @classmethod
    def load(
        cls,
        path: str | Path,
        hardware: HardwareSpec,
        *,
        strict: bool = False,
        registry: MetricsRegistry | None = None,
    ) -> "ScheduleCache":
        """Load a persisted cache, quarantining whatever is corrupt.

        A truncated file, a flipped bit in one record (checksum mismatch),
        or a missing field never crashes the serving layer and never
        poisons the healthy entries: bad records are moved to a
        ``.quarantine/`` directory next to the cache file (with the reason
        attached), the rest load normally, and every quarantined record
        increments ``cache_quarantined_total``.  ``strict=True`` restores
        the all-or-nothing behavior (raise :class:`ValueError` on the
        first corruption) for tools that prefer loud failure.  A device
        mismatch always raises — that is a configuration error, not
        corruption.
        """
        path = Path(path)
        registry = registry if registry is not None else get_registry()
        cache = cls(hardware)
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            if strict:
                raise ValueError(f"corrupt schedule cache {path}: {exc}") from exc
            cache._quarantine_file(path, f"corrupt JSON: {exc}", registry)
            return cache
        if not isinstance(payload, dict) or not isinstance(
            payload.get("entries"), dict
        ):
            reason = "expected an object with an 'entries' mapping"
            if strict:
                raise ValueError(f"ill-formed schedule cache {path}: {reason}")
            cache._quarantine_file(path, reason, registry)
            return cache
        if payload.get("device") != hardware.name:
            raise ValueError(
                f"cache was tuned for {payload.get('device')!r}, "
                f"not {hardware.name!r}"
            )
        for key, data in payload["entries"].items():
            try:
                if isinstance(data, dict) and "crc" in data:
                    body = {k: v for k, v in data.items() if k != "crc"}
                    if entry_checksum(body) != data["crc"]:
                        raise ValueError(
                            f"checksum mismatch (stored {data['crc']}, "
                            f"computed {entry_checksum(body)})"
                        )
                    data = body
                cache._entries[key] = CachedSchedule.from_json(data)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                if strict:
                    raise ValueError(
                        f"ill-formed schedule cache entry {key!r} in {path}: "
                        f"{exc}"
                    ) from exc
                cache._quarantine_entry(path, key, data, str(exc), registry)
        return cache

    def _quarantine_file(
        self, path: Path, reason: str, registry: MetricsRegistry
    ) -> None:
        """Move an unreadable cache file aside and start empty."""
        qdir = path.parent / ".quarantine"
        qdir.mkdir(exist_ok=True)
        # Unique target per incident (same probe discipline as
        # _quarantine_entry): a cache corrupted twice leaves two records.
        target = qdir / path.name
        n = 0
        while target.exists():
            n += 1
            target = qdir / f"{path.name}.{n}"
        try:
            os.replace(path, target)
        except OSError:  # cross-device or permission trouble: leave in place
            pass
        self.quarantined.append(f"{path.name}: {reason}")
        registry.counter("cache_quarantined_total").inc()

    def _quarantine_entry(
        self,
        path: Path,
        key: str,
        data: object,
        reason: str,
        registry: MetricsRegistry,
    ) -> None:
        """Park one bad record in ``.quarantine/`` and keep loading."""
        qdir = path.parent / ".quarantine"
        qdir.mkdir(exist_ok=True)
        digest = hashlib.sha256(key.encode()).hexdigest()[:8]
        record = {"cache": path.name, "key": key, "reason": reason, "entry": data}
        # Unique target per incident: the same key corrupted twice must
        # leave two records behind, not overwrite the first (forensics).
        target = qdir / f"{path.name}.{digest}.json"
        n = 0
        while target.exists():
            n += 1
            target = qdir / f"{path.name}.{digest}.{n}.json"
        try:
            target.write_text(json.dumps(record, indent=2, default=str))
        except OSError:
            pass
        self.quarantined.append(f"{key}: {reason}")
        registry.counter("cache_quarantined_total").inc()


def entry_checksum(entry_json: dict) -> int:
    """CRC-32 of an entry's canonical JSON (flipped-bit detection)."""
    canonical = json.dumps(entry_json, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode())


@contextlib.contextmanager
def _file_lock(path: Path):
    """Advisory cross-process lock guarding ``path``'s save/merge cycle.

    Locks a ``<name>.lock`` sibling rather than the database itself so the
    lock survives :func:`os.replace` of the data file.  The OS releases the
    lock when the holder dies, so a crashed process never wedges its
    siblings.  On platforms without :mod:`fcntl` the lock degrades to a
    no-op (single-process semantics, which the journal+rename still keeps
    crash-safe).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_path = path.parent / f"{path.name}.lock"
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    with open(lock_path, "a+", encoding="utf-8") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def _read_entries(path: Path, device: str) -> dict[str, CachedSchedule]:
    """Checksummed entries of an on-disk database, skipping whatever is bad.

    The lenient read used by merge paths: a missing/corrupt file yields an
    empty mapping and individual bad records are skipped (the next real
    :meth:`ScheduleCache.load` quarantines them).  A device mismatch raises
    — merging databases tuned for different hardware is a configuration
    error, not corruption.
    """
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    if not isinstance(payload, dict) or not isinstance(
        payload.get("entries"), dict
    ):
        return {}
    if payload.get("device") != device:
        raise ValueError(
            f"cache {path} was tuned for {payload.get('device')!r}, "
            f"not {device!r}"
        )
    out: dict[str, CachedSchedule] = {}
    for key, data in payload["entries"].items():
        try:
            if isinstance(data, dict) and "crc" in data:
                body = {k: v for k, v in data.items() if k != "crc"}
                if entry_checksum(body) != data["crc"]:
                    continue
                data = body
            out[key] = CachedSchedule.from_json(data)
        except (KeyError, TypeError, ValueError, AttributeError):
            continue
    return out

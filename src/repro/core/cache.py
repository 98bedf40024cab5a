"""Persistent schedule cache.

Production tensor compilers keep a tuning database (TVM's tophub, Ansor's
log files) so a shape is only ever optimized once per device.  The cache
stores winning ETIR configurations keyed by (device, group fingerprint)
and persists itself as one JSON file.  A group is a bare operator or a
program fusion group (anchor plus epilogue pool); :func:`group_fingerprint`
of a bare operator is its shape fingerprint.  The cache also powers
:mod:`repro.core.dynamic`: for an unseen group it returns the *nearest*
cached entry of the same anchor and pool families, which seeds
warm-started re-optimization.

The file has one reader and one writer.  :meth:`ScheduleCache.refresh`,
:meth:`~ScheduleCache.sync` and :meth:`~ScheduleCache.load` all parse it
through the reader, which CRC-checks every record and quarantines what
is corrupt; :meth:`~ScheduleCache.sync` alone writes it.  The checkpoint
store (:mod:`repro.resilience.checkpoint`) shares the file lock, the
journal+fsync+rename writer and the quarantine defined here.
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
    holds an internal lock.  Records quarantined while reading the file
    count as ``cache_quarantined_total`` on ``registry`` (the process-wide
    registry by default; a fleet shard passes its own).
    """

    def __init__(
        self, hardware: HardwareSpec, registry: MetricsRegistry | None = None
    ) -> None:
        self.hw = hardware
        self.registry = registry if registry is not None else get_registry()
        self._entries: dict[str, CachedSchedule] = {}
        self._lock = threading.RLock()
        #: reasons for every record or file this cache quarantined.
        self.quarantined: list[str] = []
        #: ``(key, record)`` of every bad record already quarantined, so a
        #: record seen again before a :meth:`sync` drops it is one incident.
        self._parked: set[tuple[str, str]] = set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def put(self, state: ETIR, latency_s: float) -> None:
        """Record a winner under its group key (the state's anchor and
        pool); keeps the lower program cost on collision."""
        key = group_fingerprint(state.compute, state.epilogue_pool)
        self.merge_entries({key: CachedSchedule.priced(state, latency_s, self.hw)})

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

        A missing file merges nothing, and a corrupt one merges only its
        healthy records (the rest are quarantined): replication must never
        crash a serving shard because a sibling wrote garbage.
        """
        path = Path(path)
        with _file_lock(path):
            disk = self._read_entries(path)
        return self.merge_entries(disk)

    def sync(self, path: str | Path) -> int:
        """Push+pull: union memory with the on-disk database, write both.

        The only writer of the file.  Under one advisory file lock, the
        current file is read, its entries are merged into memory (lower
        program cost wins), and the merged view is written back through
        :func:`_write_atomic`.  Concurrent syncers from different processes
        serialize on the lock, so no process's published entries are ever
        lost to a last-writer-wins race, and the records the read
        quarantined are gone from the rewritten file.  Returns the number
        of entries pulled in from disk.
        """
        path = Path(path)
        with _file_lock(path):
            pulled = self.merge_entries(self._read_entries(path))
            with self._lock:
                payload = {
                    "device": self.hw.name,
                    "entries": {
                        key: {**entry.to_json(), "crc": entry_checksum(entry.to_json())}
                        for key, entry in self._entries.items()
                    },
                }
            _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))
        return pulled

    @classmethod
    def load(cls, path: str | Path, hardware: HardwareSpec) -> "ScheduleCache":
        """A fresh cache holding the healthy records of ``path``
        (:meth:`refresh`; see :meth:`_read_entries` for what is quarantined)."""
        cache = cls(hardware)
        cache.refresh(path)
        return cache

    def _read_entries(self, path: Path) -> dict[str, CachedSchedule]:
        """The one parser of the cache file (the caller holds its lock).

        Every record is CRC-checked and parsed.  A bad record is written
        to ``.quarantine/`` with its reason and counted, and the healthy
        ones come back.  A file that is no cache at all (truncated, not JSON,
        the wrong shape) moves there whole and reads as empty, so the next
        :meth:`sync` starts clean; a missing file reads as empty.  A device
        mismatch raises: merging databases tuned for different hardware is
        a configuration error, not corruption.
        """
        try:
            payload = json.loads(path.read_bytes())
        except FileNotFoundError:
            return {}
        except ValueError as exc:  # truncated, not JSON, not UTF-8
            self._park(path, f"corrupt JSON: {exc}")
            return {}
        if not isinstance(payload, dict) or not isinstance(
            payload.get("entries"), dict
        ):
            self._park(path, "expected an object with an 'entries' mapping")
            return {}
        if payload.get("device") != self.hw.name:
            raise ValueError(
                f"cache {path} was tuned for {payload.get('device')!r}, "
                f"not {self.hw.name!r}"
            )
        out: dict[str, CachedSchedule] = {}
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
                out[key] = CachedSchedule.from_json(data)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                self._park(path, str(exc), key, data)
        return out

    def _park(
        self, path: Path, reason: str, key: str | None = None, entry: object = None
    ) -> None:
        """Quarantine and count one incident: the whole file, or one record."""
        if key is not None:
            incident = (key, json.dumps(entry, sort_keys=True, default=str))
            with self._lock:
                if incident in self._parked:
                    return
                self._parked.add(incident)
        _quarantine(path, reason, key, entry)
        self.quarantined.append(f"{path.name if key is None else key}: {reason}")
        self.registry.counter("cache_quarantined_total").inc()


def entry_checksum(entry_json: dict) -> int:
    """CRC-32 of an entry's canonical JSON (flipped-bit detection)."""
    canonical = json.dumps(entry_json, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode())


@contextlib.contextmanager
def _file_lock(path: Path):
    """Advisory cross-process lock guarding ``path``'s read/write cycle.

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


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` crash-safely (the caller holds its lock).

    The text goes to a journal sibling, is fsynced, and moves into place
    with :func:`os.replace`, so a reader sees the old or the new file and
    a crash at any point leaves the old one byte-identical.
    """
    journal = path.parent / f".{path.name}.journal.{os.getpid()}"
    try:
        with open(journal, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(journal, path)
    finally:
        journal.unlink(missing_ok=True)


def _quarantine(
    path: Path, reason: str, key: str | None = None, entry: object = None
) -> None:
    """Park one incident's evidence in ``.quarantine/`` beside ``path``.

    Without ``key`` the whole file moves there, with a ``.reason`` sibling;
    with one, only that record is written out as JSON, its reason inside.
    The name is the first of ``<name>``, ``<name>.1``, ... that no earlier
    incident holds, so repeated corruption never overwrites evidence.  A
    filesystem refusal leaves the evidence in place: quarantine must never
    crash a reader.
    """
    qdir = path.parent / ".quarantine"
    stem, ext = path.name, ""
    if key is not None:
        digest = hashlib.sha256(key.encode()).hexdigest()[:8]
        stem, ext = f"{path.name}.{digest}", ".json"
    target = qdir / f"{stem}{ext}"
    n = 0
    while target.exists():
        n += 1
        target = qdir / f"{stem}.{n}{ext}"
    try:
        qdir.mkdir(exist_ok=True)
        if key is None:
            os.replace(path, target)
            target.with_name(f"{target.name}.reason").write_text(reason)
        else:
            record = {"cache": path.name, "key": key, "reason": reason, "entry": entry}
            target.write_text(json.dumps(record, indent=2, default=str))
    except OSError:
        pass

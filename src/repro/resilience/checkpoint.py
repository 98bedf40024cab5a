"""Crash-consistent checkpoint/resume for construction walks.

The annealed Markov walk is the longest-running unit of work in the
system, and before this module every recovery path (retry after a failed
attempt, worker-crash requeue, fleet shard respawn) restarted it from
step zero.  A :class:`WalkCheckpoint` freezes a mid-walk moment — the
current chain state, the candidate pool, the construction graph's node
bookkeeping and the *exact* bit-generator state of the chain RNG — such
that a walk resumed from it is byte-identical (schedule, trace suffix,
RNG consumption, node counts) to the uninterrupted walk.

Three pieces cooperate:

- :class:`CheckpointPolicy` decides *when* to snapshot: a coarse step
  cadence that tightens as the per-attempt deadline approaches, so the
  states at risk shrink exactly when a timeout kill becomes likely.
  The policy only ever fires at an iteration boundary — never inside
  the scored hot loop — and the snapshot itself is built lazily (the
  builder closure runs only on the steps that actually checkpoint).
- :class:`Checkpointer` carries the cadence state and a sink callback
  through one compile attempt, and accounts wasted recompute: the steps
  a crash loses are exactly those past the last checkpoint, so
  ``wasted_states()`` is bounded by one cadence interval.
- :class:`CheckpointStore` persists checkpoints across process death
  with the same discipline as the crash-safe schedule cache: CRC-32 of
  the canonical JSON body, journal sibling + fsync + :func:`os.replace`,
  an advisory ``.lock`` sibling for cross-process writers, and a
  ``.quarantine/`` directory for corrupt records (a bad checkpoint
  degrades to a fresh walk, never a crash).

What is deliberately *not* checkpointed (see DESIGN §14): multi-walker
walks (the merge order couples substreams; ``resume_from`` requires
``walkers=1``), the graph's *edge* memos (expansion is deterministic, so
resumed recomputation rebuilds value-identical memos; only node-key
membership affects observable counts), and the post-walk polish phase of
``compile`` (it is memoryless and cheap relative to the walk — though a
standalone :meth:`Gensor.polish` accepts polish-phase checkpoints).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.core.cache import _file_lock, entry_checksum, shape_fingerprint
from repro.ir.etir import ETIR
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.utils import rng as rng_util

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.constructor import GensorConfig
    from repro.ir.compute import ComputeDef
    from repro.resilience.deadline import CancelToken

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointPolicy",
    "CheckpointStore",
    "Checkpointer",
    "WalkCheckpoint",
    "build_walk_checkpoint",
    "config_to_state",
    "state_config",
    "walk_config_digest",
]

CHECKPOINT_VERSION = 1

#: portable ETIR identity: (tiles as nested int tuples, vthreads, cur_level).
#: Exactly the information both walk paths key states by, in a form that is
#: hashable, picklable and JSON-able, and convertible to either path's
#: native representation (object ETIR or SoA int64 arrays) without loss.
StateConfig = "tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]"


def walk_config_digest(config: "GensorConfig") -> str:
    """Digest of the config fields that shape the walk's RNG stream.

    A checkpoint is only valid for resume under a config whose *walk*
    behaves identically: same seed, annealing schedule, chain structure
    and action space.  Fields that only affect the post-walk pipeline
    (``top_k``, ``polish_steps``; ``multi_objective`` scoring weights do
    affect transition probabilities, so they are included) are
    deliberately excluded.  The digest names no walk engine: the SoA
    engine and the object-level reference are bit-identical, so a
    checkpoint taken on one resumes on the other.
    """
    fields = (
        int(config.seed),
        float(config.initial_temperature),
        float(config.cooling),
        float(config.threshold),
        int(config.num_chains),
        int(config.max_iterations_per_chain),
        bool(config.enable_vthread),
        bool(config.multi_objective),
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def state_config(state: ETIR) -> tuple:
    """The portable ``(tiles, vthreads, cur_level)`` identity of a state."""
    return (state.config.tiles, state.config.vthreads, state.cur_level)


def config_to_state(
    compute: "ComputeDef", config: Sequence, num_levels: int
) -> ETIR:
    """Rebuild a validated :class:`ETIR` from a portable state config."""
    tiles, vthreads, level = config
    return ETIR.from_arrays(
        compute,
        np.array(tiles, dtype=np.int64),
        np.array(vthreads, dtype=np.int64),
        int(level),
        int(num_levels),
    )


def _config_to_json(config: Sequence) -> list:
    tiles, vthreads, level = config
    return [[list(row) for row in tiles], list(vthreads), int(level)]


def _config_from_json(data: Sequence) -> tuple:
    tiles, vthreads, level = data
    return (
        tuple(tuple(int(x) for x in row) for row in tiles),
        tuple(int(x) for x in vthreads),
        int(level),
    )


@dataclass(frozen=True)
class WalkCheckpoint:
    """A frozen mid-walk moment, sufficient for byte-identical resume.

    Plain data only (ints, floats, strings, nested tuples, a dict of
    ints for the RNG state): the checkpoint crosses process boundaries
    as a fleet wire payload and survives JSON round trips through the
    on-disk store.  ``candidates`` and ``node_keys`` preserve insertion
    order — candidate order decides ranking tie-breaks and node-key
    membership drives future ``states_visited`` increments, so both are
    part of the parity contract, not just their contents.
    """

    #: shape fingerprint of the operator the walk is compiling.
    compute_key: str
    #: :func:`walk_config_digest` of the config that produced the walk.
    config_digest: str
    #: cache-hierarchy depth the walk runs over (``hw.num_cache_levels``).
    num_levels: int
    #: chain index the walk was in when snapshotted.
    chain: int
    #: completed iterations within that chain.
    iteration: int
    #: completed iterations across all chains (monotone; resume offset).
    total_steps: int
    #: annealing temperature *after* the snapshot iteration's cooling.
    temperature: float
    #: portable config of the chain's current state.
    state: tuple
    #: exact bit-generator state after the snapshot iteration's draws
    #: (``None`` for polish-phase checkpoints — polish consumes no RNG).
    rng_state: dict | None
    #: portable configs of the candidate pool, insertion-ordered.
    candidates: tuple = ()
    #: portable configs of the graph/engine node keys, insertion-ordered.
    node_keys: tuple = ()
    #: the graph/engine's monotone states-visited counter.
    nodes_seen: int = 0
    #: ``"walk"`` or ``"polish"``.
    phase: str = "walk"
    version: int = CHECKPOINT_VERSION

    # -- validation --------------------------------------------------------

    def matches(self, compute: "ComputeDef", config: "GensorConfig") -> bool:
        """Whether this walk checkpoint may resume ``compute`` under ``config``."""
        return (
            self.phase == "walk"
            and self.version == CHECKPOINT_VERSION
            and self.rng_state is not None
            and self.compute_key == shape_fingerprint(compute)
            and self.config_digest == walk_config_digest(config)
        )

    def require(self, compute: "ComputeDef", config: "GensorConfig") -> None:
        """Raise :class:`ValueError` unless :meth:`matches` holds."""
        if self.matches(compute, config):
            return
        raise ValueError(
            f"checkpoint (phase={self.phase!r}, version={self.version}, "
            f"compute={self.compute_key!r}) cannot resume "
            f"{shape_fingerprint(compute)!r} under the current walk config"
        )

    def matches_polish(self, compute: "ComputeDef") -> bool:
        """Whether this is a polish checkpoint for ``compute``."""
        return (
            self.phase == "polish"
            and self.version == CHECKPOINT_VERSION
            and self.compute_key == shape_fingerprint(compute)
        )

    def require_polish(self, compute: "ComputeDef") -> None:
        if self.matches_polish(compute):
            return
        raise ValueError(
            f"checkpoint (phase={self.phase!r}, compute={self.compute_key!r}) "
            f"is not a polish checkpoint for {shape_fingerprint(compute)!r}"
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def for_polish(
        cls, compute: "ComputeDef", state: ETIR, steps_done: int
    ) -> "WalkCheckpoint":
        """Checkpoint a greedy polish after ``steps_done`` completed steps.

        Polish is memoryless (each step depends only on the current
        state), so the snapshot needs no RNG, candidates or node keys:
        resuming from ``state`` with the remaining budget reproduces the
        uninterrupted result exactly.
        """
        return cls(
            compute_key=shape_fingerprint(compute),
            config_digest="",
            num_levels=state.num_levels,
            chain=-1,
            iteration=int(steps_done),
            total_steps=int(steps_done),
            temperature=0.0,
            state=state_config(state),
            rng_state=None,
            phase="polish",
        )

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "phase": self.phase,
            "compute_key": self.compute_key,
            "config_digest": self.config_digest,
            "num_levels": self.num_levels,
            "chain": self.chain,
            "iteration": self.iteration,
            "total_steps": self.total_steps,
            "temperature": self.temperature,
            "state": _config_to_json(self.state),
            "rng_state": self.rng_state,
            "candidates": [_config_to_json(c) for c in self.candidates],
            "node_keys": [_config_to_json(c) for c in self.node_keys],
            "nodes_seen": self.nodes_seen,
        }

    @classmethod
    def from_json(cls, data: dict) -> "WalkCheckpoint":
        rng_state = data.get("rng_state")
        if rng_state is not None and not isinstance(rng_state, dict):
            raise ValueError("rng_state must be a mapping or null")
        return cls(
            compute_key=str(data["compute_key"]),
            config_digest=str(data["config_digest"]),
            num_levels=int(data["num_levels"]),
            chain=int(data["chain"]),
            iteration=int(data["iteration"]),
            total_steps=int(data["total_steps"]),
            temperature=float(data["temperature"]),
            state=_config_from_json(data["state"]),
            rng_state=rng_state,
            candidates=tuple(
                _config_from_json(c) for c in data.get("candidates", [])
            ),
            node_keys=tuple(
                _config_from_json(c) for c in data.get("node_keys", [])
            ),
            nodes_seen=int(data.get("nodes_seen", 0)),
            phase=str(data.get("phase", "walk")),
            version=int(data.get("version", CHECKPOINT_VERSION)),
        )


def build_walk_checkpoint(
    compute: "ComputeDef",
    config: "GensorConfig",
    *,
    num_levels: int,
    chain: int,
    iteration: int,
    total_steps: int,
    temperature: float,
    state_config: tuple,
    rng: np.random.Generator,
    candidate_configs: Iterable[tuple],
    node_keys: Iterable[tuple],
    nodes_seen: int,
) -> WalkCheckpoint:
    """Assemble a walk-phase checkpoint (shared by both walk paths)."""
    return WalkCheckpoint(
        compute_key=shape_fingerprint(compute),
        config_digest=walk_config_digest(config),
        num_levels=int(num_levels),
        chain=int(chain),
        iteration=int(iteration),
        total_steps=int(total_steps),
        temperature=float(temperature),
        state=state_config,
        rng_state=rng_util.rng_state(rng),
        candidates=tuple(candidate_configs),
        node_keys=tuple(node_keys),
        nodes_seen=int(nodes_seen),
    )


@dataclass(frozen=True)
class CheckpointPolicy:
    """Deadline- and cost-aware step cadence for checkpointing.

    Far from the attempt deadline a snapshot every ``every_steps``
    iterations keeps overhead negligible; once the cancel token's
    remaining budget drops under ``near_deadline_s`` the cadence
    tightens to ``near_every_steps``, because a timeout kill is now the
    likely outcome and the snapshot gap is exactly the recompute a
    resume will pay.  The policy reads only the token's monotonic
    remaining time — never the wall clock — so it is legal in the
    deterministic walk zone.
    """

    every_steps: int = 64
    near_deadline_s: float = 1.0
    near_every_steps: int = 8

    def __post_init__(self) -> None:
        if self.every_steps < 1:
            raise ValueError("every_steps must be >= 1")
        if self.near_every_steps < 1:
            raise ValueError("near_every_steps must be >= 1")
        if self.near_deadline_s < 0:
            raise ValueError("near_deadline_s must be >= 0")

    def interval_for(self, cancel: "CancelToken | None") -> int:
        """Current snapshot interval in steps, given the attempt deadline."""
        if cancel is not None and self.near_every_steps < self.every_steps:
            remaining = cancel.remaining_s()
            if remaining is not None and remaining <= self.near_deadline_s:
                return self.near_every_steps
        return self.every_steps


class Checkpointer:
    """Cadence state + sink for one compile attempt's checkpoints.

    The walk calls :meth:`on_step` once per completed iteration, at the
    iteration boundary; the ``builder`` closure that actually assembles
    a :class:`WalkCheckpoint` runs only when the cadence fires, so the
    scored hot loop never pays for serialization.  ``steps_seen`` and
    ``last_total`` are absolute (they include the resume offset of a
    prior checkpoint via :meth:`start_from`), which makes
    :meth:`wasted_states` — the recompute a crash right now would cost —
    a simple difference bounded by one cadence interval.
    """

    def __init__(
        self,
        policy: CheckpointPolicy | None = None,
        sink: Callable[[WalkCheckpoint], None] | None = None,
    ) -> None:
        self.policy = policy if policy is not None else CheckpointPolicy()
        self.sink = sink
        #: the most recent checkpoint, if any.
        self.last: WalkCheckpoint | None = None
        #: absolute walk steps observed (including any resume offset).
        self.steps_seen = 0
        #: ``total_steps`` of the most recent checkpoint.
        self.last_total = 0
        #: how many checkpoints this attempt produced.
        self.saved = 0
        self._since = 0

    def start_from(self, checkpoint: WalkCheckpoint) -> None:
        """Seed the cadence state when an attempt resumes from a checkpoint."""
        self.last = checkpoint
        self.steps_seen = checkpoint.total_steps
        self.last_total = checkpoint.total_steps
        self._since = 0

    def on_step(
        self,
        cancel: "CancelToken | None",
        builder: Callable[[], WalkCheckpoint],
    ) -> None:
        """Record one completed iteration; snapshot if the cadence is due."""
        self.steps_seen += 1
        self._since += 1
        if self._since < self.policy.interval_for(cancel):
            return
        checkpoint = builder()
        self.last = checkpoint
        self.last_total = checkpoint.total_steps
        self.saved += 1
        self._since = 0
        if self.sink is not None:
            self.sink(checkpoint)

    def wasted_states(self) -> int:
        """Walk steps a crash right now would have to recompute on resume."""
        return max(0, self.steps_seen - self.last_total)


class CheckpointStore:
    """On-disk checkpoint records, one per (device, shape) key.

    Same crash-safety discipline as the schedule cache: the JSON body
    carries a CRC-32 of its canonical serialization, writes go through a
    journal sibling + fsync + atomic :func:`os.replace` under an
    advisory ``.lock`` sibling, and a record that fails any load check
    is moved into ``.quarantine/`` (with a uniqued filename, so repeated
    corruption never overwrites earlier evidence) and reported as
    ``resilience_checkpoint_corrupt_total`` — the caller sees ``None``
    and falls back to a fresh walk, never an exception.
    """

    def __init__(
        self,
        root: str | Path,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.registry = registry if registry is not None else get_registry()

    def path_for(self, device: str, compute_key: str) -> Path:
        digest = hashlib.sha256(
            f"{device}/{compute_key}".encode()
        ).hexdigest()[:16]
        return self.root / f"ckpt-{digest}.json"

    def save(self, device: str, checkpoint: WalkCheckpoint) -> Path:
        """Persist crash-safely; a reader sees the old or new record, never torn."""
        path = self.path_for(device, checkpoint.compute_key)
        body = checkpoint.to_json()
        payload = {
            "device": device,
            "compute_key": checkpoint.compute_key,
            "checkpoint": body,
            "crc": entry_checksum(body),
        }
        with _file_lock(path):
            journal = path.parent / f".{path.name}.journal.{os.getpid()}"
            try:
                with open(journal, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(payload, sort_keys=True))
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(journal, path)
            finally:
                journal.unlink(missing_ok=True)
        self.registry.counter("resilience_checkpoint_saves_total").inc()
        return path

    def load(self, device: str, compute_key: str) -> WalkCheckpoint | None:
        """The stored checkpoint, or ``None`` (missing or quarantined-corrupt)."""
        path = self.path_for(device, compute_key)
        try:
            raw = path.read_text()
        except OSError:
            return None
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("expected a checkpoint payload object")
            if payload.get("device") != device:
                raise ValueError(
                    f"checkpoint for device {payload.get('device')!r}, "
                    f"not {device!r}"
                )
            body = payload["checkpoint"]
            if entry_checksum(body) != payload.get("crc"):
                raise ValueError("checksum mismatch")
            checkpoint = WalkCheckpoint.from_json(body)
        except (
            json.JSONDecodeError,
            KeyError,
            TypeError,
            ValueError,
        ) as exc:
            self._quarantine(path, str(exc))
            return None
        self.registry.counter("resilience_checkpoint_loads_total").inc()
        return checkpoint

    def discard(self, device: str, compute_key: str) -> None:
        """Drop the record (the walk landed; the checkpoint is dead weight)."""
        path = self.path_for(device, compute_key)
        with _file_lock(path):
            path.unlink(missing_ok=True)

    def _quarantine(self, path: Path, reason: str) -> None:
        qdir = self.root / ".quarantine"
        qdir.mkdir(exist_ok=True)
        target = qdir / path.name
        suffix = 1
        while target.exists():
            target = qdir / f"{path.name}.{suffix}"
            suffix += 1
        try:
            os.replace(path, target)
            (qdir / f"{target.name}.reason").write_text(reason)
        except OSError:  # permission/cross-device trouble: leave in place
            pass
        self.registry.counter("resilience_checkpoint_corrupt_total").inc()

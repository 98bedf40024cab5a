"""Crash-consistent checkpoint/resume for construction walks.

The annealed Markov walk is the longest-running unit of work in the
system, and before this module every recovery path (retry after a failed
attempt, worker-crash requeue, fleet shard respawn) restarted it from
step zero.  A :class:`WalkCheckpoint` freezes a mid-walk moment — every
chain's state, temperature, iteration, candidates and the *exact*
bit-generator state of its RNG (one :class:`ChainCheckpoint` per chain),
plus the construction graph's node bookkeeping — such that a walk
resumed from it is byte-identical (schedule, trace suffix, RNG
consumption, node counts) to the uninterrupted walk.  The chains advance
in lockstep rounds, so a snapshot can land mid-round: the chains that
already stepped in that round are one iteration ahead, and resume
finishes the round before starting the next.

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
  through the crash-safe schedule cache's own file machinery
  (:mod:`repro.core.cache`): CRC-32 of the canonical JSON body, the
  journal + fsync + :func:`os.replace` writer under an advisory
  ``.lock`` sibling, and the quarantine that parks a corrupt record in
  ``.quarantine/`` (a bad checkpoint degrades to a fresh walk, never a
  crash).

Every construction walk checkpoints the same way, a bare operator's or
a fusion group's: a state is the engine's pool row ``(tiles, vthreads,
level, fused)``, and a checkpoint is keyed by the group key
(:func:`~repro.core.cache.group_fingerprint`, which is the shape key for
a bare operator).  What is deliberately *not* checkpointed (see DESIGN
§14): the graph's *edge* memos (expansion is deterministic, so resumed
recomputation rebuilds value-identical memos; only node-key membership
affects observable counts), and the post-walk polish phase of
``compile`` (it is memoryless and cheap relative to the walk).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.core.cache import (
    _file_lock,
    _quarantine,
    _write_atomic,
    entry_checksum,
    group_fingerprint,
)
from repro.ir.etir import ETIR
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.utils import rng as rng_util

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.constructor import GensorConfig
    from repro.ir.compute import ComputeDef
    from repro.resilience.deadline import CancelToken

__all__ = [
    "CHECKPOINT_VERSION",
    "ChainCheckpoint",
    "CheckpointPolicy",
    "CheckpointStore",
    "Checkpointer",
    "WalkCheckpoint",
    "build_chain_checkpoint",
    "build_walk_checkpoint",
    "config_to_state",
    "state_config",
    "walk_config_digest",
]

CHECKPOINT_VERSION = 3

#: portable ETIR identity: (tiles as nested int tuples, vthreads, cur_level,
#: fused).  Exactly the information both walk paths key states by (the SoA
#: engine's pool row), in a form that is hashable, picklable and JSON-able,
#: and convertible to either path's native representation (object ETIR or
#: SoA int64 arrays) without loss.  ``fused`` is 0 for a bare operator.
StateConfig = "tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int, int]"


def walk_config_digest(config: "GensorConfig", compute_name: str) -> str:
    """Digest of what shapes the walk's RNG stream.

    A checkpoint is only valid for resume by a walk that behaves
    identically: same chain streams (``spawn_rng(seed, "gensor", name,
    chain)``, so the operator name counts, not just its shape), annealing
    schedule, chain structure and action space.  Fields that only affect
    the post-walk pipeline (``top_k``, ``polish_steps``;
    ``multi_objective`` scoring weights do affect transition
    probabilities, so they are included) are deliberately excluded.  The
    digest names no walk engine: the SoA engine and the object-level
    reference are bit-identical, so a checkpoint taken on one resumes on
    the other.
    """
    fields = (
        str(compute_name),
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
    """The portable ``(tiles, vthreads, cur_level, fused)`` identity of a state."""
    return (state.config.tiles, state.config.vthreads, state.cur_level, state.fused)


def config_to_state(
    compute: "ComputeDef",
    config: Sequence,
    num_levels: int,
    epilogues: "tuple[ComputeDef, ...]" = (),
) -> ETIR:
    """Rebuild a validated :class:`ETIR` from a portable state config
    (``epilogues`` is the fusion group's pool; empty for a bare operator)."""
    tiles, vthreads, level, fused = config
    return ETIR.from_arrays(
        compute,
        np.array(tiles, dtype=np.int64),
        np.array(vthreads, dtype=np.int64),
        int(level),
        int(num_levels),
        epilogue_pool=tuple(epilogues),
        fused=int(fused),
    )


def _config_to_json(config: Sequence) -> list:
    tiles, vthreads, level, fused = config
    return [[list(row) for row in tiles], list(vthreads), int(level), int(fused)]


def _config_from_json(data: Sequence) -> tuple:
    tiles, vthreads, level, fused = data
    return (
        tuple(tuple(int(x) for x in row) for row in tiles),
        tuple(int(x) for x in vthreads),
        int(level),
        int(fused),
    )


@dataclass(frozen=True)
class ChainCheckpoint:
    """One annealed chain of a walk at a snapshot, as plain data."""

    #: portable config of the chain's current state (its last one once done).
    state: tuple
    #: annealing temperature after the chain's last iteration's cooling.
    temperature: float
    #: completed iterations of this chain.
    iteration: int
    #: exact bit-generator state after the chain's last draws.
    rng_state: dict
    #: whether the chain has stopped (its last state is then a candidate).
    done: bool = False
    #: portable configs of this chain's candidates, insertion-ordered.
    candidates: tuple = ()

    def to_json(self) -> dict:
        return {
            "state": _config_to_json(self.state),
            "temperature": self.temperature,
            "iteration": self.iteration,
            "rng_state": self.rng_state,
            "done": self.done,
            "candidates": [_config_to_json(c) for c in self.candidates],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChainCheckpoint":
        rng_state = data["rng_state"]
        if not isinstance(rng_state, dict):
            raise ValueError("rng_state must be a mapping")
        return cls(
            state=_config_from_json(data["state"]),
            temperature=float(data["temperature"]),
            iteration=int(data["iteration"]),
            rng_state=rng_state,
            done=bool(data.get("done", False)),
            candidates=tuple(
                _config_from_json(c) for c in data.get("candidates", [])
            ),
        )


@dataclass(frozen=True)
class WalkCheckpoint:
    """A frozen mid-walk moment, sufficient for byte-identical resume.

    Plain data only (ints, floats, strings, nested tuples, dicts of ints
    for the RNG states): the checkpoint crosses process boundaries as a
    fleet wire payload and survives JSON round trips through the on-disk
    store.  Each chain's ``candidates`` and the ``node_keys`` preserve
    insertion order — the chains' candidates, merged in chain order,
    decide ranking tie-breaks, and node-key membership drives future
    ``states_visited`` increments, so both are part of the parity
    contract, not just their contents.
    """

    #: group key (:func:`~repro.core.cache.group_fingerprint`) of the
    #: operator and epilogue pool the walk is compiling.
    compute_key: str
    #: :func:`walk_config_digest` of the config and operator name that
    #: produced the walk.
    config_digest: str
    #: cache-hierarchy depth the walk runs over (``hw.num_cache_levels``).
    num_levels: int
    #: completed iterations summed over the chains (the resume offset).
    total_steps: int
    #: one :class:`ChainCheckpoint` per chain, in chain order.
    chains: tuple = ()
    #: portable configs of the graph/engine node keys, insertion-ordered.
    node_keys: tuple = ()
    #: the graph/engine's monotone states-visited counter.
    nodes_seen: int = 0
    version: int = CHECKPOINT_VERSION

    # -- validation --------------------------------------------------------

    def matches(
        self,
        compute: "ComputeDef",
        config: "GensorConfig",
        epilogues: "tuple[ComputeDef, ...]" = (),
    ) -> bool:
        """Whether this checkpoint may resume the walk of ``compute`` (with
        the fusion pool ``epilogues``) under ``config``."""
        return (
            self.version == CHECKPOINT_VERSION
            and self.compute_key == group_fingerprint(compute, epilogues)
            and self.config_digest == walk_config_digest(config, compute.name)
        )

    def require(
        self,
        compute: "ComputeDef",
        config: "GensorConfig",
        epilogues: "tuple[ComputeDef, ...]" = (),
    ) -> None:
        """Raise :class:`ValueError` unless :meth:`matches` holds."""
        if self.matches(compute, config, epilogues):
            return
        raise ValueError(
            f"checkpoint (version={self.version}, "
            f"compute={self.compute_key!r}) cannot resume "
            f"{group_fingerprint(compute, epilogues)!r} ({compute.name!r}) "
            f"under the current walk config"
        )

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "compute_key": self.compute_key,
            "config_digest": self.config_digest,
            "num_levels": self.num_levels,
            "total_steps": self.total_steps,
            "chains": [c.to_json() for c in self.chains],
            "node_keys": [_config_to_json(c) for c in self.node_keys],
            "nodes_seen": self.nodes_seen,
        }

    @classmethod
    def from_json(cls, data: dict) -> "WalkCheckpoint":
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        return cls(
            compute_key=str(data["compute_key"]),
            config_digest=str(data["config_digest"]),
            num_levels=int(data["num_levels"]),
            total_steps=int(data["total_steps"]),
            chains=tuple(ChainCheckpoint.from_json(c) for c in data["chains"]),
            node_keys=tuple(
                _config_from_json(c) for c in data.get("node_keys", [])
            ),
            nodes_seen=int(data.get("nodes_seen", 0)),
            version=version,
        )


def build_chain_checkpoint(
    state_config: tuple,
    temperature: float,
    iteration: int,
    rng: np.random.Generator,
    done: bool,
    candidate_configs: Iterable[tuple],
) -> ChainCheckpoint:
    """Snapshot one chain (shared by both walk engines)."""
    return ChainCheckpoint(
        state=state_config,
        temperature=float(temperature),
        iteration=int(iteration),
        rng_state=rng_util.rng_state(rng),
        done=bool(done),
        candidates=tuple(candidate_configs),
    )


def build_walk_checkpoint(
    compute: "ComputeDef",
    config: "GensorConfig",
    *,
    epilogues: "tuple[ComputeDef, ...]" = (),
    num_levels: int,
    chains: Iterable[ChainCheckpoint],
    node_keys: Iterable[tuple],
    nodes_seen: int,
) -> WalkCheckpoint:
    """Assemble a walk checkpoint from its chains' snapshots (shared by
    both walk engines); a fusion group's walk passes its pool as
    ``epilogues``."""
    chains = tuple(chains)
    return WalkCheckpoint(
        compute_key=group_fingerprint(compute, epilogues),
        config_digest=walk_config_digest(config, compute.name),
        num_levels=int(num_levels),
        total_steps=sum(c.iteration for c in chains),
        chains=chains,
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
    """On-disk checkpoint records, one per (device, group key).

    The schedule cache's writer and quarantine: the JSON body carries a
    CRC-32 of its canonical serialization, writes go through a journal
    sibling + fsync + atomic :func:`os.replace` under an advisory
    ``.lock`` sibling, and a record that fails any load check is moved
    into ``.quarantine/`` (with a uniqued filename and a ``.reason``
    sibling, so repeated corruption never overwrites earlier evidence)
    and reported as ``resilience_checkpoint_corrupt_total`` — the caller
    sees ``None`` and falls back to a fresh walk, never an exception.
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
            _write_atomic(path, json.dumps(payload, sort_keys=True))
        self.registry.counter("resilience_checkpoint_saves_total").inc()
        return path

    def load(self, device: str, compute_key: str) -> WalkCheckpoint | None:
        """The stored checkpoint, or ``None`` (missing or quarantined-corrupt)."""
        path = self.path_for(device, compute_key)
        try:
            raw = path.read_bytes()
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
            ValueError,  # also a record that is not UTF-8
        ) as exc:
            _quarantine(path, str(exc))
            self.registry.counter("resilience_checkpoint_corrupt_total").inc()
            return None
        self.registry.counter("resilience_checkpoint_loads_total").inc()
        return checkpoint

    def discard(self, device: str, compute_key: str) -> None:
        """Drop the record (the walk landed; the checkpoint is dead weight)."""
        path = self.path_for(device, compute_key)
        with _file_lock(path):
            path.unlink(missing_ok=True)

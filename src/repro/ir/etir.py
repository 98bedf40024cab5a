"""ETIR: the paper's enhanced tile-based tensor-program IR.

An :class:`ETIR` instance is one *node* of Gensor's construction graph: a
complete description of how an operator is tiled onto the device memory
hierarchy, plus the virtual-thread configuration.  Following the paper
(§IV.C), the tiling of each iteration axis ``d`` is a vector
``D = [T_L, ..., T_1, T_0]``:

* ``T_L`` (here ``level == L``, the *block tile*) — the slab one thread
  block stages from DRAM into shared memory,
* ``T_1`` (the *thread tile*) — the fragment one thread keeps in
  registers,
* ``T_0`` — the per-thread computational stride, i.e. the virtual-thread
  interleaving; we store it as the vThread count ``V_d`` with
  ``T_0 = T_1 / V_d``.

ETIR instances are immutable; scheduling actions return new instances, so
states can be hashed, memoized, and backtracked — exactly what
distinguishes graph traversal from Roller's one-way tree descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from repro.hardware.spec import HardwareSpec
from repro.ir.access import tile_footprint_bytes, tile_traffic_bytes
from repro.ir.compute import ComputeDef

__all__ = ["ETIR", "TileConfig", "VTHREAD_LEVEL"]

#: Pseudo-level index used by actions that adjust T_0 (the vThread stride).
VTHREAD_LEVEL = 0

#: cap on the per-compute pool of shared derived-value dicts (see __init__).
_DERIVED_POOL_CAP = 65_536


@dataclass(frozen=True)
class TileConfig:
    """Per-axis tile sizes for levels ``1..L`` plus the vThread counts.

    ``tiles[d]`` is ``(T_1, ..., T_L)`` for axis ``d`` (innermost first).
    Invariant: ``1 <= T_1 <= ... <= T_L <= extent_d`` and
    ``1 <= V_d <= T_1`` (``V_d == 1`` for reduce axes).
    """

    tiles: tuple[tuple[int, ...], ...]
    vthreads: tuple[int, ...]

    def tile(self, axis_idx: int, level: int) -> int:
        """Tile size of ``axis_idx`` at memory level ``level`` (1-based)."""
        return self.tiles[axis_idx][level - 1]

    @property
    def num_levels(self) -> int:
        return len(self.tiles[0]) if self.tiles else 0


class ETIR:
    """An immutable scheduled-tensor-program state.

    Mirrors the paper's ETIR class: the tensor program (``compute``), its
    axes and shapes, the number of memory levels, the *current scheduling
    memory level*, the per-level tiles, and the vThread configuration.
    """

    __slots__ = (
        "compute",
        "num_levels",
        "cur_level",
        "config",
        "epilogue_pool",
        "fused",
        "_key",
        "_hash",
        "_derived",
    )

    def __init__(
        self,
        compute: ComputeDef,
        config: TileConfig,
        cur_level: int,
        num_levels: int,
        epilogue_pool: tuple[ComputeDef, ...] = (),
        fused: int = 0,
    ) -> None:
        if not (0 <= fused <= len(epilogue_pool)):
            raise ValueError(
                f"fused must be in [0, {len(epilogue_pool)}], got {fused}"
            )
        for ep in epilogue_pool:
            if ep.reduce_axes:
                raise ValueError(
                    f"epilogue {ep.name!r} has reduce axes and cannot fuse"
                )
        if num_levels < 1:
            raise ValueError(f"num_levels must be >= 1, got {num_levels}")
        if not (1 <= cur_level <= num_levels):
            raise ValueError(
                f"cur_level must be in [1, {num_levels}], got {cur_level}"
            )
        if len(config.tiles) != len(compute.axes):
            raise ValueError(
                f"tile config covers {len(config.tiles)} axes, "
                f"compute has {len(compute.axes)}"
            )
        for ax, per_level, v in zip(compute.axes, config.tiles, config.vthreads):
            if len(per_level) != num_levels:
                raise ValueError(
                    f"axis {ax.name!r}: expected {num_levels} tile levels, "
                    f"got {len(per_level)}"
                )
            prev = 1
            for lvl, t in enumerate(per_level, start=1):
                if t < prev:
                    raise ValueError(
                        f"axis {ax.name!r}: tile at level {lvl} ({t}) smaller "
                        f"than inner level ({prev})"
                    )
                prev = t
            if per_level[-1] > ax.extent:
                raise ValueError(
                    f"axis {ax.name!r}: block tile {per_level[-1]} exceeds "
                    f"extent {ax.extent}"
                )
            if v < 1 or v > per_level[0]:
                raise ValueError(
                    f"axis {ax.name!r}: vthreads {v} must be in [1, T_1={per_level[0]}]"
                )
            if ax.is_reduce and v != 1:
                raise ValueError(f"reduce axis {ax.name!r} cannot have vThreads")
        self._bind(compute, config, cur_level, num_levels, epilogue_pool, fused)

    @classmethod
    def _trusted(
        cls,
        compute: ComputeDef,
        config: TileConfig,
        cur_level: int,
        num_levels: int,
        epilogue_pool: tuple[ComputeDef, ...] = (),
        fused: int = 0,
    ) -> "ETIR":
        """Construct without re-validating invariants.

        Used by the functional mutators (``with_tile`` & co.), whose guard
        logic already established every invariant ``__init__`` would check;
        action application is the hottest allocation site in the walk.
        """
        obj = object.__new__(cls)
        obj._bind(compute, config, cur_level, num_levels, epilogue_pool, fused)
        return obj

    def _bind(
        self,
        compute: ComputeDef,
        config: TileConfig,
        cur_level: int,
        num_levels: int,
        epilogue_pool: tuple[ComputeDef, ...],
        fused: int,
    ) -> None:
        self.compute = compute
        self.num_levels = num_levels
        self.cur_level = cur_level
        self.config = config
        self.epilogue_pool = epilogue_pool
        self.fused = fused
        # Single-op states keep the historical 4-tuple key byte-for-byte
        # (golden traces and checkpoints serialize it); fused-capable
        # states append an epilogue element so fused/unfused never collide
        # in any key-addressed cache.
        if not epilogue_pool:
            self._key = (
                compute.name,
                config.tiles,
                config.vthreads,
                cur_level,
            )
        else:
            self._key = (
                compute.name,
                config.tiles,
                config.vthreads,
                cur_level,
                ("epi", tuple(ep.name for ep in epilogue_pool), fused),
            )
        self._hash = hash(self._key)
        #: lazily memoized derived quantities.  ETIR is immutable, but the
        #: construction hot path re-derives footprints, traffic, and memory
        #: checks for the same state dozens of times (expansion legality,
        #: benefit formulas, the cost model, polish sweeps) — caching them
        #: changes no value, only the cost of asking twice.  Equal states
        #: are constantly re-instantiated (every action application builds
        #: a fresh object), so the memo dict itself is shared across equal
        #: instances through a per-compute pool keyed by the state key; the
        #: pool lives in the compute's ``__dict__`` and is cleared (not
        #: trimmed — entries are tiny) past a cap to bound pathological
        #: shape streams.
        pool = compute.__dict__.get("_derived_pool")
        if pool is None:
            pool = compute.__dict__["_derived_pool"] = {}
        elif len(pool) > _DERIVED_POOL_CAP:
            pool.clear()
        # Keyed by the state itself: the cached _hash makes lookups O(1),
        # where a raw nested-tuple key would be rehashed from scratch on
        # every construction.
        derived = pool.get(self)
        if derived is None:
            derived = pool[self] = {}
        self._derived = derived

    # -- construction -----------------------------------------------------------

    @classmethod
    def initial(
        cls,
        compute: ComputeDef,
        num_levels: int = 2,
        epilogues: tuple[ComputeDef, ...] = (),
    ) -> "ETIR":
        """The unscheduled state: all tiles 1, no vThreads, at level L.

        ``epilogues`` seeds the fusable-epilogue pool (all initially
        unfused); the walk toggles membership via fuse/unfuse actions.
        """
        n = len(compute.axes)
        config = TileConfig(
            tiles=tuple((1,) * num_levels for _ in range(n)),
            vthreads=(1,) * n,
        )
        return cls(
            compute,
            config,
            cur_level=num_levels,
            num_levels=num_levels,
            epilogue_pool=tuple(epilogues),
        )

    @classmethod
    def from_tiles(
        cls,
        compute: ComputeDef,
        block_tiles: Mapping[str, int],
        thread_tiles: Mapping[str, int] | None = None,
        vthreads: Mapping[str, int] | None = None,
        num_levels: int = 2,
        epilogue_pool: tuple[ComputeDef, ...] = (),
        fused: int = 0,
    ) -> "ETIR":
        """Build a fully specified state by axis name (used by baselines).

        Tile values are clipped to each axis extent and the nesting
        invariant is enforced by raising if violated.
        ``epilogue_pool``/``fused`` build a fusion group's state.
        """
        thread_tiles = thread_tiles or {}
        vthreads = vthreads or {}
        tiles: list[tuple[int, ...]] = []
        vts: list[int] = []
        for ax in compute.axes:
            bt = min(int(block_tiles.get(ax.name, 1)), ax.extent)
            tt = min(int(thread_tiles.get(ax.name, 1)), bt)
            inner = [tt] + [tt] * (num_levels - 2) + [bt] if num_levels >= 2 else [bt]
            tiles.append(tuple(inner))
            vts.append(1 if ax.is_reduce else int(vthreads.get(ax.name, 1)))
        config = TileConfig(tiles=tuple(tiles), vthreads=tuple(vts))
        return cls(
            compute,
            config,
            cur_level=1,
            num_levels=num_levels,
            epilogue_pool=epilogue_pool,
            fused=fused,
        )

    # -- SoA packing boundary (repro.perf.soa) -----------------------------------

    def config_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Stable packed view of the tile config for the SoA walk core.

        Returns ``(tiles, vthreads)`` where ``tiles`` is an ``(A, L)`` int64
        array — ``tiles[a, l - 1]`` is axis ``a``'s tile at level ``l``,
        innermost first, matching :class:`TileConfig` — and ``vthreads`` is
        an ``(A,)`` int64 array.  Fresh arrays every call; callers own them.
        """
        return (
            np.array(self.config.tiles, dtype=np.int64),
            np.array(self.config.vthreads, dtype=np.int64),
        )

    @classmethod
    def from_arrays(
        cls,
        compute: ComputeDef,
        tiles: np.ndarray,
        vthreads: np.ndarray,
        cur_level: int,
        num_levels: int,
        epilogue_pool: tuple[ComputeDef, ...] = (),
        fused: int = 0,
    ) -> "ETIR":
        """Inverse of :meth:`config_arrays` — the SoA decode boundary.

        Array entries are converted back to plain Python ints (state keys
        and golden fixtures are JSON-serialized, so ``np.int64`` must never
        leak into configs) and every ETIR invariant is re-validated.
        ``epilogue_pool``/``fused`` restore a fusion group's state.
        """
        config = TileConfig(
            tiles=tuple(
                tuple(row) for row in np.asarray(tiles, dtype=np.int64).tolist()
            ),
            vthreads=tuple(np.asarray(vthreads, dtype=np.int64).tolist()),
        )
        return cls(
            compute,
            config,
            cur_level=int(cur_level),
            num_levels=int(num_levels),
            epilogue_pool=epilogue_pool,
            fused=int(fused),
        )

    # -- identity -----------------------------------------------------------------

    def key(self) -> tuple:
        """Hashable identity of this state (the graph-node key)."""
        return self._key

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ETIR) and self._key == other._key

    # -- epilogue fusion state ---------------------------------------------------

    @property
    def epilogues(self) -> tuple[ComputeDef, ...]:
        """Epilogue ops currently fused into this kernel (pool prefix)."""
        return self.epilogue_pool[: self.fused]

    @property
    def pending_epilogues(self) -> tuple[ComputeDef, ...]:
        """Pool members not yet fused — each still costs its own kernel."""
        return self.epilogue_pool[self.fused :]

    def with_fuse(self) -> "ETIR | None":
        """Fusion action: absorb the next pending epilogue into the kernel.

        Returns ``None`` when the pool is exhausted.  Fusion order is the
        pool order (the model's dataflow order), so fuse/unfuse form an
        exactly reversible pair.
        """
        if self.fused >= len(self.epilogue_pool):
            return None
        return ETIR._trusted(
            self.compute,
            self.config,
            self.cur_level,
            self.num_levels,
            self.epilogue_pool,
            self.fused + 1,
        )

    def with_unfuse(self) -> "ETIR | None":
        """Inverse fusion action: release the last fused epilogue."""
        if self.fused <= 0:
            return None
        return ETIR._trusted(
            self.compute,
            self.config,
            self.cur_level,
            self.num_levels,
            self.epilogue_pool,
            self.fused - 1,
        )

    # -- tile views -----------------------------------------------------------------

    def tile(self, axis_idx: int, level: int) -> int:
        return self.config.tile(axis_idx, level)

    def tile_sizes(self, level: int) -> dict[str, int]:
        """Axis-name → tile-size mapping at ``level`` (1..L).

        Callers treat the result as read-only; the hot path memoizes it.
        """
        cached = self._derived.get(("ts", level))
        if cached is None:
            cached = self._derived[("ts", level)] = {
                ax.name: self.config.tile(idx, level)
                for idx, ax in enumerate(self.compute.axes)
            }
        return cached

    def block_tiles(self) -> dict[str, int]:
        return self.tile_sizes(self.num_levels)

    def thread_tiles(self) -> dict[str, int]:
        return self.tile_sizes(1)

    def vthreads(self, axis_idx: int) -> int:
        return self.config.vthreads[axis_idx]

    def total_vthreads(self) -> int:
        return math.prod(self.config.vthreads)

    def thread_stride(self, axis_idx: int) -> int:
        """The paper's ``T_0``: per-thread computational stride."""
        return max(1, self.tile(axis_idx, 1) // self.vthreads(axis_idx))

    # -- derived launch/resource quantities -------------------------------------------

    def threads_per_block(self) -> int:
        """Physical threads per block: block tile over thread tile, spatial axes."""
        cached = self._derived.get("tpb")
        if cached is None:
            cached = 1
            for idx, ax in enumerate(self.compute.axes):
                if ax.is_reduce:
                    continue
                cached *= math.ceil(
                    self.tile(idx, self.num_levels) / self.tile(idx, 1)
                )
            self._derived["tpb"] = cached
        return cached

    def num_blocks(self) -> int:
        """Grid size: spatial iteration space over block tiles."""
        cached = self._derived.get("blocks")
        if cached is None:
            cached = 1
            for idx, ax in enumerate(self.compute.axes):
                if ax.is_reduce:
                    continue
                cached *= math.ceil(ax.extent / self.tile(idx, self.num_levels))
            self._derived["blocks"] = cached
        return cached

    def smem_footprint_bytes(self) -> int:
        """Shared memory one block stages (inputs at the block tile)."""
        cached = self._derived.get("smem_fp")
        if cached is None:
            cached = self._derived["smem_fp"] = tile_footprint_bytes(
                self.compute, self.block_tiles(), include_output=False
            )
        return cached

    def regs_per_thread(self) -> int:
        """Register (4-byte word) demand of one thread's tile.

        Fused epilogues keep the anchor's intermediate in registers for
        free, but any *extra* epilogue inputs (the residual of an ``add``)
        must also live in registers at the spatial thread tile.
        """
        cached = self._derived.get("regs")
        if cached is None:
            nbytes = tile_footprint_bytes(
                self.compute, self.thread_tiles(), include_output=True
            )
            nbytes += self._epilogue_extra_bytes(self._spatial_tile_points(1))
            cached = self._derived["regs"] = max(1, math.ceil(nbytes / 4))
        return cached

    def dram_traffic_bytes(self) -> int:
        """Q at the DRAM level: traffic under the block tiling.

        Fused epilogues skip their own round-trip of the intermediate, but
        their extra inputs are streamed once per block at the spatial
        block tile.
        """
        cached = self._derived.get("dram_q")
        if cached is None:
            cached = tile_traffic_bytes(self.compute, self.block_tiles())
            if self.fused:
                cached += self.num_blocks() * self._epilogue_extra_bytes(
                    self._spatial_tile_points(self.num_levels)
                )
            self._derived["dram_q"] = cached
        return cached

    # -- fused-program aggregates -------------------------------------------------

    def _spatial_tile_points(self, level: int) -> int:
        """Points of the spatial tile at ``level`` (epilogues iterate these)."""
        pts = 1
        for idx, ax in enumerate(self.compute.axes):
            if ax.is_reduce:
                continue
            pts *= self.tile(idx, level)
        return pts

    def _epilogue_extra_bytes(self, spatial_points: int) -> int:
        """Bytes of *extra* epilogue inputs over ``spatial_points`` points.

        The first input of every epilogue is the fused intermediate (never
        materialized); remaining inputs are real tensors read alongside it.
        """
        if not self.fused:
            return 0
        extra = 0
        for ep in self.epilogues:
            for inp in ep.inputs[1:]:
                extra += spatial_points * inp.tensor.dtype_bytes
        return extra

    def epilogue_flops_per_point(self) -> float:
        """FLOPs the fused epilogues add per spatial iteration point."""
        return float(sum(ep.flops_per_point for ep in self.epilogues))

    def program_flops(self) -> float:
        """Useful FLOPs of the whole fused kernel (anchor + fused epilogues)."""
        flops = self.compute.total_flops
        for ep in self.epilogues:
            flops += ep.total_flops
        return flops

    def program_io_bytes(self) -> float:
        """Unique DRAM bytes the fused kernel must move.

        The anchor's IO plus fused epilogues' extra inputs; each fused
        intermediate stays on chip (the fusion saving), and the final
        epilogue output stands in for the anchor output at equal size.
        """
        nbytes = float(self.compute.total_io_bytes())
        for ep in self.epilogues:
            for inp in ep.inputs[1:]:
                nbytes += inp.tensor.nbytes
        return nbytes

    def smem_traffic_bytes(self) -> int:
        """Q between shared memory and registers: traffic under thread tiling."""
        cached = self._derived.get("smem_q")
        if cached is None:
            cached = self._derived["smem_q"] = tile_traffic_bytes(
                self.compute, self.thread_tiles()
            )
        return cached

    def memory_ok(self, hw: HardwareSpec, strict: bool = True) -> bool:
        """The paper's per-transition memory check.

        A configuration is infeasible (transition probability forced to 0)
        when its shared-memory slab, register demand, or thread count
        exceeds the device limits.

        ``strict=False`` is the *traversal-time* variant: while the walk is
        still scheduling outer levels, the thread-block shape is not yet
        committed (thread tiles are all 1), so only the constraints that are
        already determined — the shared-memory slab and the per-thread
        register budget — are enforced.  Final candidates are always
        re-checked strictly before ranking and measurement.
        """
        # Fast path: this state already answered for this spec/strictness
        # (the expansion legality check, the quick roofline, and the cost
        # model all ask).  id(hw) is safe in the key because every id that
        # reaches the slow path below belongs to a spec retained in the
        # bucket — a live different spec can never reuse it.
        fast_key = ("mo", id(hw), strict)
        cached = self._derived.get(fast_key)
        if cached is not None:
            return cached
        # The check depends only on the tile config (not vThreads or the
        # current level), so it is memoized per compute, keyed by tiles.
        # Specs are bucketed by identity — the object is retained in the
        # bucket so its id cannot be recycled — which avoids hashing the
        # whole (nested, frozen) HardwareSpec on every call.
        per_hw = self.compute.__dict__.get("_memok_cache")
        if per_hw is None:
            per_hw = self.compute.__dict__["_memok_cache"] = {}
        bucket = per_hw.get(id(hw))
        if bucket is None:
            bucket = per_hw[id(hw)] = (hw, {})
        cache = bucket[1]
        if len(cache) > _DERIVED_POOL_CAP:
            cache.clear()
        # Fused epilogues change register demand, so fused states must not
        # share memok entries with the plain kernel of the same tiles.
        if self.fused:
            key = (self.config.tiles, strict, self._key[4])
        else:
            key = (self.config.tiles, strict)
        cached = cache.get(key)
        if cached is None:
            cached = cache[key] = self._memory_ok(hw, strict)
        self._derived[fast_key] = cached
        return cached

    def _memory_ok(self, hw: HardwareSpec, strict: bool) -> bool:
        if self.smem_footprint_bytes() > hw.smem.capacity_bytes:
            return False
        # CUDA caps a single thread at 255 registers regardless of block shape.
        if self.regs_per_thread() > 255:
            return False
        if not strict:
            return True
        threads = self.threads_per_block()
        if threads > hw.max_threads_per_block:
            return False
        if threads * self.regs_per_thread() > hw.registers_per_sm:
            return False
        return True

    # -- functional mutation (the graph's edges land on these) -----------------------

    def with_tile(self, axis_idx: int, level: int, new_size: int) -> "ETIR":
        """Return a copy with axis ``axis_idx``'s tile at ``level`` replaced.

        Raises ``ValueError`` if the nesting invariant would break.
        """
        return ETIR(
            self.compute,
            self._tile_replaced(axis_idx, level, new_size),
            self.cur_level,
            self.num_levels,
            self.epilogue_pool,
            self.fused,
        )

    def _tile_replaced(self, axis_idx: int, level: int, new_size: int) -> TileConfig:
        tiles = [list(t) for t in self.config.tiles]
        tiles[axis_idx][level - 1] = int(new_size)
        return TileConfig(
            tiles=tuple(tuple(t) for t in tiles), vthreads=self.config.vthreads
        )

    def scaled_tile(self, axis_idx: int, up: bool) -> "ETIR | None":
        """Tiling / inverse-tiling action: double or halve the current-level
        tile of one axis.

        Returns ``None`` when the move is impossible (would exceed the axis
        extent, break level nesting, or drop below the vThread count).
        """
        return self.scaled_tile_at(axis_idx, self.cur_level, up)

    def scaled_tile_at(self, axis_idx: int, lvl: int, up: bool) -> "ETIR | None":
        """Double/halve one axis's tile at an explicit level (1..L).

        Used by the post-construction refinement pass, which may adjust any
        level; the Markov walk itself always passes the current level.
        """
        cur = self.tile(axis_idx, lvl)
        ax = self.compute.axes[axis_idx]
        if up:
            new = cur * 2
            upper = (
                ax.extent
                if lvl == self.num_levels
                else self.tile(axis_idx, lvl + 1)
            )
            if new > upper:
                if cur < upper:
                    new = upper  # allow reaching a non-power-of-two extent
                else:
                    return None
        else:
            new = cur // 2
            lower = 1 if lvl == 1 else self.tile(axis_idx, lvl - 1)
            lower = max(lower, self.vthreads(axis_idx) if lvl == 1 else 1)
            if new < lower:
                return None
        # The guards above established the nesting invariant.
        return ETIR._trusted(
            self.compute,
            self._tile_replaced(axis_idx, lvl, new),
            self.cur_level,
            self.num_levels,
            self.epilogue_pool,
            self.fused,
        )

    def with_cache_advance(self) -> "ETIR | None":
        """Caching action: move scheduling to the next (faster) memory level.

        When entering a faster level its tiles start equal to 1 (they are
        already initialized that way and are nested below the outer level).
        Returns ``None`` at the innermost level.
        """
        if self.cur_level <= 1:
            return None
        return ETIR._trusted(
            self.compute,
            self.config,
            self.cur_level - 1,
            self.num_levels,
            self.epilogue_pool,
            self.fused,
        )

    def with_vthread(self, axis_idx: int, count: int) -> "ETIR | None":
        """setVthread primitive: set axis ``axis_idx``'s vThread count.

        Only valid for spatial axes with ``count <= T_1``.
        """
        ax = self.compute.axes[axis_idx]
        if ax.is_reduce:
            return None
        if count < 1 or count > self.tile(axis_idx, 1):
            return None
        vts = list(self.config.vthreads)
        vts[axis_idx] = int(count)
        config = TileConfig(tiles=self.config.tiles, vthreads=tuple(vts))
        return ETIR._trusted(
            self.compute,
            config,
            self.cur_level,
            self.num_levels,
            self.epilogue_pool,
            self.fused,
        )

    # -- presentation -----------------------------------------------------------------

    def describe(self) -> str:
        """Compact human-readable schedule description."""
        parts = []
        for idx, ax in enumerate(self.compute.axes):
            levels = "/".join(str(t) for t in reversed(self.config.tiles[idx]))
            v = self.vthreads(idx)
            tag = f" v{v}" if v > 1 else ""
            parts.append(f"{ax.name}:[{levels}]{tag}")
        fused = (
            f" fused[{'+'.join(ep.name for ep in self.epilogues)}]"
            if self.fused
            else ""
        )
        return (
            f"<ETIR {self.compute.name} L{self.cur_level} "
            f"{' '.join(parts)} threads={self.threads_per_block()} "
            f"blocks={self.num_blocks()}{fused}>"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()

"""Structure-of-arrays walk core: the engine every compile runs on.

The annealed walk spends its time in three places: expanding a state's
candidate frontier, checking candidate legality against the device memory
limits, and pricing the Formula 1-3 benefits.  This module represents the
frontier as numpy structure-of-arrays: one ``(A, L)`` int64 tile matrix and
one ``(A,)`` vThread vector per state, plus the fused-epilogue count of a
program fusion group, with candidate generation, legality masks, and
benefit scoring vectorized across the whole frontier in one shot.
:meth:`Gensor.compile <repro.core.constructor.Gensor.compile>` and
:meth:`Gensor.polish <repro.core.constructor.Gensor.polish>` run every
walk here, bare operators and fusion groups alike.

**Parity contract.**  The engine is *bit-faithful* to the object-level
reference (``ConstructionGraph`` + ``TransitionPolicy`` + the scalar
``action_benefit``, driven by :mod:`repro.core.reference`): every benefit,
probability, chosen edge, RNG draw, node count, and traced event is
byte-identical.  That holds because

* every integer quantity (footprints, traffic, tile products, epilogue
  input bytes) is computed exactly — int64 vector intermediates, with
  final cross products that could overflow performed as Python ints;
* every float quantity runs the *same IEEE-754 operations in the same
  order* as the scalar code (``math.ceil(a / b)`` becomes
  ``np.ceil(a / b)`` on the identical float64 division, sequential
  accumulations stay sequential per axis/access);
* the roofline/pipe arithmetic is literally shared:
  :func:`repro.core.score.quick_pipe` and
  :func:`repro.sim.costmodel.pipe_metrics` run the scalar models'
  operations over feature columns;
* everything that depends only on the fused count — the program FLOPs and
  IO, the epilogue terms of the cost model, the FUSE/UNFUSE benefits
  (:func:`repro.core.actions._fusion_benefit`), and the pending-epilogue
  penalty — is read off real ETIR states, one per fused count, through
  the object path's own code.

:class:`DifferentialWalker` runs both paths in lockstep and raises
:class:`SoAParityError` on the first divergence.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.core.actions import _NO_ACCEL, ActionKind, _fusion_benefit
from repro.core.events import emit_chain_end, emit_polish, emit_walk_step
from repro.core.graph import DEFAULT_MAX_CACHED_STATES
from repro.core.policy import append_probability, cache_anneal_factor
from repro.core.score import pending_penalty_s, quick_pipe
from repro.hardware.spec import HardwareSpec
from repro.ir.compute import ComputeDef
from repro.ir.etir import ETIR
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.costmodel import pipe_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (constructor imports us lazily)
    from repro.core.constructor import GensorConfig
    from repro.resilience.deadline import CancelToken

__all__ = [
    "SoAParityError",
    "SoAPack",
    "pack_for",
    "SoAFrontier",
    "SoAEdge",
    "SoAWalkEngine",
    "DifferentialWalker",
]

#: cap on the per-(compute, hardware) shared latency memos; cleared (not
#: trimmed — entries are tiny) past this, like the ETIR derived pools.
_MEMO_CAP = 65_536

#: cap for the per-row footprint/traffic/coalescing caches (tile vectors
#: are tiny keys, so this is a few MB at worst; cleared wholesale on
#: overflow — recomputation is value-identical).
_ROW_CACHE_CAP = 262_144


class SoAParityError(AssertionError):
    """The SoA path diverged from the object-path oracle."""


# -- static per-compute packing ----------------------------------------------


class SoAPack:
    """Packed static structure of one :class:`ComputeDef`.

    Everything the vectorized footprint/traffic/feature kernels need that
    does not depend on the tile configuration: axis extents and kinds, the
    absolute affine coefficients of every access as an ``(ndim, A)`` matrix
    (so index spans become one small matmul), and the scalar workload
    constants.  Built once per compute via :func:`pack_for`.
    """

    __slots__ = (
        "num_axes",
        "extent_list",
        "extents",
        "extents_f",
        "is_reduce",
        "spatial_idx",
        "reduce_idx",
        "last_spatial",
        "all_inputs",
        "unique_inputs",
        "out_bytes",
        "flops_per_point",
        "total_flops",
        "total_io",
        "traffic_int64_safe",
        "_fp_cache",
        "_fpo_cache",
        "_traffic_cache",
    )

    def __init__(self, compute: ComputeDef) -> None:
        axes = compute.axes
        a_count = len(axes)
        self.num_axes = a_count
        self.extent_list = [ax.extent for ax in axes]
        self.extents = np.array(self.extent_list, dtype=np.int64)
        self.extents_f = self.extents.astype(np.float64)
        self.is_reduce = [ax.is_reduce for ax in axes]
        reduce_mask = np.array(self.is_reduce, dtype=bool)
        self.spatial_idx = [int(i) for i in np.nonzero(~reduce_mask)[0]]
        self.reduce_idx = [int(i) for i in np.nonzero(reduce_mask)[0]]
        self.last_spatial = self.spatial_idx[-1] if self.spatial_idx else None
        name_to_idx = {ax.name: i for i, ax in enumerate(axes)}
        # One (coefs, dims, dtype_bytes) triple per access, in declaration
        # order.  ``coefs[d, a]`` is |coefficient| of axis ``a`` in dim
        # ``d``'s index — the span under tiles T is then 1 + (T-1) @ coefs.T,
        # exactly AffineExpr.extent_under_tiles per dimension.
        self.all_inputs: list[tuple[np.ndarray, np.ndarray, int]] = []
        for acc in compute.inputs:
            coefs = np.zeros((len(acc.indices), a_count), dtype=np.int64)
            for d, expr in enumerate(acc.indices):
                for nm, c in expr.terms.items():
                    coefs[d, name_to_idx[nm]] = abs(int(c))
            dims = np.array(acc.tensor.shape, dtype=np.int64)
            self.all_inputs.append((coefs, dims, acc.tensor.dtype_bytes))
        # Footprints dedup repeated reads of the same slab by
        # (tensor, index expressions), preserving declaration order —
        # mirrors repro.ir.access._unique_inputs.
        seen: set[tuple] = set()
        self.unique_inputs = []
        for acc, packed in zip(compute.inputs, self.all_inputs):
            key = (acc.tensor.name, acc.indices)
            if key in seen:
                continue
            seen.add(key)
            self.unique_inputs.append(packed)
        self.out_bytes = compute.output.dtype_bytes
        self.flops_per_point = compute.flops_per_point
        self.total_flops = float(compute.total_flops)
        self.total_io = float(compute.total_io_bytes())
        # Whether the traffic cross products provably fit in int64 for every
        # tile config: counts ≤ extents, footprints ≤ full-tensor bytes.
        # When they do the per-row products run vectorized; otherwise they
        # fall back to exact Python ints (the object path's arithmetic).
        count_bound = 1
        for ext in self.extent_list:
            count_bound *= max(1, ext)
        fp_bound = 0
        for _coefs, dims, nbytes in self.unique_inputs:
            full = nbytes
            for d in dims.tolist():
                full *= d
            fp_bound += full
        ote_bound = 1
        for a in self.spatial_idx:
            ote_bound *= self.extent_list[a]
        traffic_bound = count_bound * fp_bound + count_bound * ote_bound * self.out_bytes
        self.traffic_int64_safe = traffic_bound < 2**62
        self._fp_cache: dict[bytes, int] = {}
        self._fpo_cache: dict[bytes, int] = {}
        self._traffic_cache: dict[bytes, int] = {}

    # ``tiles`` below is always an ``(n, A)`` int64 matrix of per-axis tile
    # sizes at one level — the vector analogue of a tile_sizes mapping.

    def footprint_bytes(
        self, tiles: np.ndarray, include_output: bool
    ) -> np.ndarray:
        """Exact ``tile_footprint_bytes`` per row, as an int64 vector.

        Row-cached: tile vectors recur constantly across frontiers and
        polish neighborhoods (a move changes one component, the rest of
        the row keeps its footprint), so each distinct row is priced once
        per pack.
        """
        cache = self._fpo_cache if include_output else self._fp_cache
        if len(cache) > _ROW_CACHE_CAP:
            cache.clear()
        n = tiles.shape[0]
        out = np.empty(n, dtype=np.int64)
        missing: list[int] = []
        mkeys: list[bytes] = []
        for i in range(n):
            key = tiles[i].tobytes()
            val = cache.get(key)
            if val is None:
                missing.append(i)
                mkeys.append(key)
            else:
                out[i] = val
        if missing:
            vals = self._footprint_uncached(tiles[missing], include_output)
            for i, key, v in zip(missing, mkeys, vals.tolist()):
                out[i] = v
                cache[key] = v
        return out

    def _footprint_uncached(
        self, tiles: np.ndarray, include_output: bool
    ) -> np.ndarray:
        total = np.zeros(tiles.shape[0], dtype=np.int64)
        tm1 = tiles - 1
        for coefs, dims, nbytes in self.unique_inputs:
            spans = 1 + tm1 @ coefs.T
            elems = np.minimum(spans, dims).prod(axis=1)
            total = total + elems * nbytes
        if include_output:
            out = np.ones(tiles.shape[0], dtype=np.int64)
            for a in self.spatial_idx:
                out = out * np.minimum(tiles[:, a], self.extent_list[a])
            total = total + out * self.out_bytes
        return total

    def traffic_bytes_ints(self, tiles: np.ndarray) -> list[int]:
        """Exact ``tile_traffic_bytes`` per row, as Python ints (row-cached).

        Span/count intermediates are int64 vectors; the final per-row
        products run as Python ints when ``spatial * reduce * footprint``
        could exceed 2**63 on large shapes (the object path computes them
        as exact Python ints too, and Formula 1 divides the exact cross
        products) and vectorized when the pack's shape bound proves int64
        cannot overflow.
        """
        cache = self._traffic_cache
        if len(cache) > _ROW_CACHE_CAP:
            cache.clear()
        n = tiles.shape[0]
        out: list = [None] * n
        missing: list[int] = []
        mkeys: list[bytes] = []
        for i in range(n):
            key = tiles[i].tobytes()
            val = cache.get(key)
            if val is None:
                missing.append(i)
                mkeys.append(key)
            else:
                out[i] = val
        if missing:
            vals = self._traffic_uncached(tiles[missing])
            for i, key, v in zip(missing, mkeys, vals):
                out[i] = v
                cache[key] = v
        return out

    def _traffic_uncached(self, tiles: np.ndarray) -> list[int]:
        clipped = np.minimum(tiles, self.extents)
        counts = np.ceil(self.extents_f / clipped.astype(np.float64)).astype(
            np.int64
        )
        fin = self.footprint_bytes(tiles, include_output=False)
        if self.traffic_int64_safe:
            n = tiles.shape[0]
            sp = np.ones(n, dtype=np.int64)
            rt = np.ones(n, dtype=np.int64)
            ote = np.ones(n, dtype=np.int64)
            for a, red in enumerate(self.is_reduce):
                if red:
                    rt = rt * counts[:, a]
                else:
                    sp = sp * counts[:, a]
                    ote = ote * clipped[:, a]
            return (sp * rt * fin + sp * ote * self.out_bytes).tolist()
        out: list[int] = []
        for crow, trow, f in zip(counts.tolist(), clipped.tolist(), fin.tolist()):
            sp = 1
            rt = 1
            ote = 1
            for a, red in enumerate(self.is_reduce):
                if red:
                    rt *= crow[a]
                else:
                    sp *= crow[a]
                    ote *= trow[a]
            out.append(sp * rt * f + sp * ote * self.out_bytes)
        return out


def pack_for(compute: ComputeDef) -> SoAPack:
    """The compute's :class:`SoAPack`, built once and cached on it."""
    pack = compute.__dict__.get("_soa_pack")
    if pack is None:
        pack = compute.__dict__["_soa_pack"] = SoAPack(compute)
    return pack


class _SoABundle:
    """Shared per-(compute, hardware) state: the pack plus latency memos.

    The quick/full latencies depend on ``(tiles, vthreads)`` and the fused
    epilogues — not the current level — so engines for the same
    compute/device pair share them across compiles.  Keys are ``(tiles,
    vthreads, tag)``, where the tag is ``None`` for an unfused kernel and
    otherwise the fused prefix's latency-relevant quantities (see
    :meth:`SoAWalkEngine._fused_constants`): one compute can anchor
    different epilogue pools across compiles.  Specs are bucketed by
    identity and retained in the bucket so their id cannot be recycled
    (the ``_memok_cache`` pattern).
    """

    __slots__ = ("hw", "pack", "quick", "full", "coal")

    def __init__(self, hw: HardwareSpec, pack: SoAPack) -> None:
        self.hw = hw
        self.pack = pack
        self.quick: dict[tuple, float] = {}
        self.full: dict[tuple, float] = {}
        #: per-block-row coalescing factors (warp-size dependent, hence
        #: bundled with the hardware rather than the pack).
        self.coal: dict[bytes, float] = {}


def _bundle_for(compute: ComputeDef, hw: HardwareSpec) -> _SoABundle:
    per_hw = compute.__dict__.get("_soa_bundles")
    if per_hw is None:
        per_hw = compute.__dict__["_soa_bundles"] = {}
    bundle = per_hw.get(id(hw))
    if bundle is None:
        bundle = per_hw[id(hw)] = _SoABundle(hw, pack_for(compute))
    return bundle


# -- the encode/decode boundary ----------------------------------------------


class SoAFrontier:
    """A batch of walk states packed as structure-of-arrays.

    ``tiles`` is ``(n, A, L)`` int64, ``vthreads`` ``(n, A)`` int64, and
    ``cur_levels`` ``(n,)`` int64.  :meth:`encode` / :meth:`decode` are the
    only crossings between ETIR objects and the packed representation; the
    round trip is exact (plain Python ints on the way out, re-validated by
    the ETIR constructor).
    """

    __slots__ = ("compute", "num_levels", "tiles", "vthreads", "cur_levels")

    def __init__(
        self,
        compute: ComputeDef,
        num_levels: int,
        tiles: np.ndarray,
        vthreads: np.ndarray,
        cur_levels: np.ndarray,
    ) -> None:
        self.compute = compute
        self.num_levels = num_levels
        self.tiles = tiles
        self.vthreads = vthreads
        self.cur_levels = cur_levels

    @classmethod
    def encode(cls, states: list[ETIR]) -> "SoAFrontier":
        if not states:
            raise ValueError("cannot encode an empty frontier")
        compute = states[0].compute
        num_levels = states[0].num_levels
        for s in states:
            if s.compute is not compute and s.compute != compute:
                raise ValueError("frontier mixes computes")
            if s.num_levels != num_levels:
                raise ValueError("frontier mixes num_levels")
        tiles = np.empty(
            (len(states), len(compute.axes), num_levels), dtype=np.int64
        )
        vthreads = np.empty((len(states), len(compute.axes)), dtype=np.int64)
        cur_levels = np.empty(len(states), dtype=np.int64)
        for i, s in enumerate(states):
            t, v = s.config_arrays()
            tiles[i] = t
            vthreads[i] = v
            cur_levels[i] = s.cur_level
        return cls(compute, num_levels, tiles, vthreads, cur_levels)

    def decode(self) -> list[ETIR]:
        return [
            ETIR.from_arrays(
                self.compute,
                self.tiles[i],
                self.vthreads[i],
                int(self.cur_levels[i]),
                self.num_levels,
            )
            for i in range(len(self))
        ]

    def __len__(self) -> int:
        return self.tiles.shape[0]


# -- edges and expansion ------------------------------------------------------




class SoAEdge:
    """A surviving transition in packed form (mirror of ``graph.Edge``).

    The arrays are owned by the engine and never mutated after creation —
    destinations share their unchanged source arrays (e.g. a vThread edge
    shares the tile matrix, a fuse edge shares both).
    """

    __slots__ = ("kind", "axis", "benefit", "tiles", "vthreads", "level", "fused")

    def __init__(
        self,
        kind: str,
        axis: int,
        benefit: float,
        tiles: np.ndarray,
        vthreads: np.ndarray,
        level: int,
        fused: int,
    ) -> None:
        self.kind = kind
        self.axis = axis
        self.benefit = benefit
        self.tiles = tiles
        self.vthreads = vthreads
        self.level = level
        self.fused = fused

    def dst_config(self) -> tuple:
        """The destination as ``(tiles, vthreads, cur_level, fused)`` plain
        tuples — see :func:`_state_config`."""
        return (
            tuple(tuple(row) for row in self.tiles.tolist()),
            tuple(self.vthreads.tolist()),
            self.level,
            self.fused,
        )


class _Slot:
    """One enumerated action template (pre-legality), in enumeration order."""

    __slots__ = ("kind", "axis", "tiles", "vthreads", "level", "fused")

    def __init__(
        self,
        kind: str,
        axis: int,
        tiles: np.ndarray | None,
        vthreads: np.ndarray | None,
        level: int,
        fused: int,
    ) -> None:
        self.kind = kind
        self.axis = axis
        self.tiles = tiles  # None => structurally illegal
        self.vthreads = vthreads
        self.level = level
        self.fused = fused


class SoAWalkEngine:
    """Vectorized construction-graph expansion, walk, and polish for one
    operator (and, for a program fusion group, its epilogue pool).

    Mirrors ``ConstructionGraph`` + ``TransitionPolicy`` bit-for-bit (see
    the module docstring for the contract): same node bookkeeping, same
    memo/eviction choreography (so ``num_nodes`` matches the object path
    even past the cache cap), same RNG consumption per chain, same traced
    events.  A walk state is ``(tiles, vthreads, level, fused)``, where
    ``fused`` counts the pool prefix running inside the anchor kernel.
    One engine per compile — the edge memo affects ``num_nodes`` through
    eviction/recomputation, so sharing it across compiles would diverge
    from a fresh ``ConstructionGraph``.  The latency memos *are* shared
    across compiles (per compute/device bundle): latencies are pure state
    functions, so reuse changes no value.
    """

    def __init__(
        self,
        compute: ComputeDef,
        hardware: HardwareSpec,
        multi_objective: bool = True,
        num_levels: int | None = None,
        forbid: frozenset[str] = frozenset(),
        max_cached_states: int = DEFAULT_MAX_CACHED_STATES,
        epilogues: tuple[ComputeDef, ...] = (),
    ) -> None:
        self.compute = compute
        self.hw = hardware
        self.multi_objective = multi_objective
        self.num_levels = (
            num_levels if num_levels is not None else hardware.num_cache_levels
        )
        self.forbid = forbid
        self.max_cached_states = max_cached_states
        self.epilogues = tuple(epilogues)
        self.pack = pack_for(compute)
        self.bundle = _bundle_for(compute, hardware)
        self._fused_constants()
        self._nodes: dict[tuple, bool] = {}
        self._edges: dict[tuple, list[SoAEdge]] = {}
        self._nodes_seen = 0

    def _fused_constants(self) -> None:
        """Per-fused-count constants, read off one ETIR state per count.

        Everything the fused count changes is a scalar of the group (the
        epilogue bytes enter per tile only scaled by its spatial point
        count), so each is computed once by the object path's own methods
        on the ladder ``fused = 0..len(pool)`` and indexed by the packed
        state's fused count.
        """
        hw = self.hw
        ladder = [
            ETIR.initial(
                self.compute, num_levels=self.num_levels, epilogues=self.epilogues
            )
        ]
        while ladder[-1].fused < len(self.epilogues):
            nxt = ladder[-1].with_fuse()
            assert nxt is not None
            ladder.append(nxt)
        #: extra epilogue input bytes per spatial point (register and DRAM
        #: terms scale it by the spatial tile's point count).
        self._ep_bytes = np.array(
            [s._epilogue_extra_bytes(1) for s in ladder], dtype=np.int64
        )
        self._ep_fpp = np.array([s.epilogue_flops_per_point() for s in ladder])
        self._flops = np.array([s.program_flops() for s in ladder])
        self._io = np.array([s.program_io_bytes() for s in ladder])
        self._penalty = [pending_penalty_s(s, hw) for s in ladder]
        self._fuse_benefit = [
            _fusion_benefit(a, b, hw) for a, b in zip(ladder, ladder[1:])
        ]
        self._unfuse_benefit = [0.0] + [
            _fusion_benefit(b, a, hw) for a, b in zip(ladder, ladder[1:])
        ]
        #: latency-memo tag per fused count (see _SoABundle).
        self._tags: list = [None] + [
            (
                int(self._ep_bytes[f]),
                float(self._flops[f]),
                float(self._io[f]),
                float(self._ep_fpp[f]),
            )
            for f in range(1, len(ladder))
        ]

    # -- node bookkeeping (mirrors ConstructionGraph) -------------------------

    @staticmethod
    def _key(
        tiles: np.ndarray, vthreads: np.ndarray, level: int, fused: int
    ) -> tuple:
        return (tiles.tobytes(), vthreads.tobytes(), level, fused)

    def _add_node(self, key: tuple) -> None:
        if key not in self._nodes:
            self._nodes[key] = True
            self._nodes_seen += 1

    @property
    def num_nodes(self) -> int:
        """Distinct states ever added (monotone — unaffected by eviction)."""
        return self._nodes_seen

    def _maybe_evict(self) -> None:
        cap = self.max_cached_states
        if cap <= 0:
            return
        # Rebind fresh dicts rather than mutating in place, so concurrent
        # walkers iterating the old reference never see a resize (same
        # discipline — and same retained half — as the graph).
        if len(self._nodes) > cap:
            items = list(self._nodes.items())
            self._nodes = dict(items[len(items) // 2 :])
        if len(self._edges) > cap:
            eitems = list(self._edges.items())
            self._edges = dict(eitems[len(eitems) // 2 :])

    # -- checkpoint support ----------------------------------------------------

    def export_nodes(self) -> tuple[list[tuple], int]:
        """Portable node identities for a :class:`WalkCheckpoint`.

        Mirrors ``ConstructionGraph.export_nodes``: the cached node keys
        as insertion-ordered ``(tiles, vthreads, level)`` tuples plus the
        monotone ``_nodes_seen`` counter.  Membership matters, not just
        the count — ``_add_node`` only increments for unseen keys, so a
        resumed walk's future ``num_nodes`` depends on exactly which keys
        the snapshot preserved.  Edge memos are deliberately not exported
        (expansion is deterministic; resumed recomputation is
        value-identical).  Only bare-operator walks are checkpointed, so
        the fused count (always 0) is not exported.
        """
        a_count = self.pack.num_axes
        configs: list[tuple] = []
        for tiles_b, vthreads_b, level, _fused in self._nodes:
            tiles = np.frombuffer(tiles_b, dtype=np.int64).reshape(a_count, -1)
            vthreads = np.frombuffer(vthreads_b, dtype=np.int64)
            configs.append(
                (
                    tuple(tuple(row) for row in tiles.tolist()),
                    tuple(vthreads.tolist()),
                    int(level),
                )
            )
        return configs, self._nodes_seen

    def restore_nodes(self, configs: Iterable[tuple], nodes_seen: int) -> None:
        """Rebuild the node memo a checkpoint exported (insertion order kept)."""
        nodes: dict[tuple, bool] = {}
        for tiles, vthreads, level in configs:
            key = self._key(
                np.array(tiles, dtype=np.int64),
                np.array(vthreads, dtype=np.int64),
                int(level),
                0,
            )
            nodes[key] = True
        self._nodes = nodes
        self._nodes_seen = int(nodes_seen)

    def _build_checkpoint(
        self,
        cfg: "GensorConfig",
        chain: int,
        iteration: int,
        total_steps: int,
        temperature: float,
        tiles: np.ndarray,
        vthreads: np.ndarray,
        level: int,
        rng: np.random.Generator,
        candidates: dict[tuple, ETIR],
    ):
        """Assemble a walk checkpoint from the chain's packed state.

        Runs only on the (rare) steps the cadence fires, at the iteration
        boundary — never inside the scored hot loop.
        """
        from repro.resilience.checkpoint import build_walk_checkpoint

        node_keys, nodes_seen = self.export_nodes()
        return build_walk_checkpoint(
            self.compute,
            cfg,
            num_levels=self.num_levels,
            chain=chain,
            iteration=iteration,
            total_steps=total_steps,
            temperature=temperature,
            state_config=(
                tuple(tuple(row) for row in tiles.tolist()),
                tuple(vthreads.tolist()),
                int(level),
            ),
            rng=rng,
            candidate_configs=[
                (s.config.tiles, s.config.vthreads, s.cur_level)
                for s in candidates.values()
            ],
            node_keys=node_keys,
            nodes_seen=nodes_seen,
        )

    # -- expansion -------------------------------------------------------------

    def expand(
        self, tiles: np.ndarray, vthreads: np.ndarray, level: int, fused: int = 0
    ) -> list[SoAEdge]:
        """Legal outgoing edges (benefit > 0), memoized — ``graph.expand``."""
        key = self._key(tiles, vthreads, level, fused)
        self._add_node(key)
        cached = self._edges.get(key)
        if cached is not None:
            return cached
        _slots, candidates, benefits, _memok = self._expansion_slots(
            tiles, vthreads, level, fused
        )
        edges: list[SoAEdge] = []
        for (_i, slot), benefit in zip(candidates, benefits):
            if benefit <= 0.0:
                continue
            assert slot.tiles is not None and slot.vthreads is not None
            self._add_node(
                self._key(slot.tiles, slot.vthreads, slot.level, slot.fused)
            )
            edges.append(
                SoAEdge(
                    slot.kind,
                    slot.axis,
                    benefit,
                    slot.tiles,
                    slot.vthreads,
                    slot.level,
                    slot.fused,
                )
            )
        self._edges[key] = edges
        self._maybe_evict()
        return edges

    def expand_detail(
        self, tiles: np.ndarray, vthreads: np.ndarray, level: int, fused: int = 0
    ) -> list[dict]:
        """Slot-level expansion for the differential harness.

        One dict per enumerated action template (illegal ones included), in
        enumeration order, without touching the node/edge memos:
        ``{kind, axis, legal, mem_ok, benefit, dst_config}``.
        """
        slots, candidates, benefits, memok = self._expansion_slots(
            tiles, vthreads, level, fused
        )
        by_slot: dict[int, tuple[float, bool, tuple]] = {}
        for j, (slot_idx, slot) in enumerate(candidates):
            assert slot.tiles is not None and slot.vthreads is not None
            cfg = (
                tuple(tuple(row) for row in slot.tiles.tolist()),
                tuple(slot.vthreads.tolist()),
                slot.level,
                slot.fused,
            )
            by_slot[slot_idx] = (benefits[j], bool(memok[j]), cfg)
        detail = []
        for i, slot in enumerate(slots):
            benefit, mem_ok, cfg = by_slot.get(i, (0.0, False, None))
            detail.append(
                {
                    "kind": slot.kind,
                    "axis": slot.axis,
                    "legal": slot.tiles is not None,
                    "mem_ok": mem_ok,
                    "benefit": benefit,
                    "dst_config": cfg,
                }
            )
        return detail

    def _expansion_slots(
        self, tiles: np.ndarray, vthreads: np.ndarray, level: int, fused: int
    ) -> tuple[list[_Slot], list[tuple[int, _Slot]], list[float], np.ndarray]:
        """Enumerate, legality-check, and price one state's frontier.

        Returns ``(slots, candidates, benefits, memok)`` where ``slots`` is
        every action template in ``enumerate_actions`` order, ``candidates``
        the structurally legal ones as ``(slot_idx, slot)``, ``benefits``
        their benefit values (0.0 on memory-check failure), and ``memok``
        the candidates' relaxed memory-check mask.
        """
        pack = self.pack
        forbid = self.forbid
        a_count = pack.num_axes
        num_levels = tiles.shape[1]
        rows = tiles.tolist()
        vlist = vthreads.tolist()

        slots: list[_Slot] = []
        for a in range(a_count):
            if ActionKind.TILE_UP not in forbid:
                cur = rows[a][level - 1]
                upper = (
                    pack.extent_list[a]
                    if level == num_levels
                    else rows[a][level]
                )
                new: int | None = cur * 2
                if new > upper:
                    new = upper if cur < upper else None
                if new is None:
                    slots.append(
                        _Slot(ActionKind.TILE_UP, a, None, None, level, fused)
                    )
                else:
                    dst = tiles.copy()
                    dst[a, level - 1] = new
                    slots.append(
                        _Slot(ActionKind.TILE_UP, a, dst, vthreads, level, fused)
                    )
            if ActionKind.TILE_DOWN not in forbid:
                cur = rows[a][level - 1]
                down = cur // 2
                lower = 1 if level == 1 else rows[a][level - 2]
                if level == 1:
                    lower = max(lower, vlist[a])
                if down < lower:
                    slots.append(
                        _Slot(ActionKind.TILE_DOWN, a, None, None, level, fused)
                    )
                else:
                    dst = tiles.copy()
                    dst[a, level - 1] = down
                    slots.append(
                        _Slot(ActionKind.TILE_DOWN, a, dst, vthreads, level, fused)
                    )
            if not pack.is_reduce[a] and level == 1:
                if ActionKind.VTHREAD_UP not in forbid:
                    count = vlist[a] * 2
                    if count > rows[a][0]:
                        slots.append(
                            _Slot(ActionKind.VTHREAD_UP, a, None, None, level, fused)
                        )
                    else:
                        dv = vthreads.copy()
                        dv[a] = count
                        slots.append(
                            _Slot(ActionKind.VTHREAD_UP, a, tiles, dv, level, fused)
                        )
                if ActionKind.VTHREAD_DOWN not in forbid:
                    v = vlist[a]
                    if v <= 1:
                        slots.append(
                            _Slot(ActionKind.VTHREAD_DOWN, a, None, None, level, fused)
                        )
                    else:
                        dv = vthreads.copy()
                        dv[a] = v // 2
                        slots.append(
                            _Slot(ActionKind.VTHREAD_DOWN, a, tiles, dv, level, fused)
                        )
        if level > 1 and ActionKind.CACHE not in forbid:
            slots.append(
                _Slot(ActionKind.CACHE, -1, tiles, vthreads, level - 1, fused)
            )
        if self.epilogues:
            if fused < len(self.epilogues) and ActionKind.FUSE not in forbid:
                slots.append(
                    _Slot(ActionKind.FUSE, -1, tiles, vthreads, level, fused + 1)
                )
            if fused > 0 and ActionKind.UNFUSE not in forbid:
                slots.append(
                    _Slot(ActionKind.UNFUSE, -1, tiles, vthreads, level, fused - 1)
                )

        candidates = [(i, s) for i, s in enumerate(slots) if s.tiles is not None]
        n = len(candidates)
        if n == 0:
            return slots, candidates, [], np.zeros(0, dtype=bool)

        dst_tiles = np.stack([s.tiles for _i, s in candidates])
        block = dst_tiles[:, :, num_levels - 1]
        thread = dst_tiles[:, :, 0]
        dst_fused = np.array([s.fused for _i, s in candidates], dtype=np.int64)
        memok, _smem_fp, _regs = self._memok_relaxed(block, thread, dst_fused)

        # Formula 1-3 formulas, in candidate order; the source Q/F terms
        # shared by every tiling candidate are computed lazily once.
        benefits = [0.0] * n
        needs_accel: list[int] = []
        tiling_rows: list[int] = []
        cache_formula: float | None = None
        for j, (_i, slot) in enumerate(candidates):
            if not memok[j]:
                continue
            if slot.kind in (ActionKind.TILE_UP, ActionKind.TILE_DOWN):
                tiling_rows.append(j)
            elif slot.kind == ActionKind.CACHE:
                if cache_formula is None:
                    cache_formula = self._caching_benefit(tiles, level, num_levels)
                benefits[j] = cache_formula
            elif slot.kind == ActionKind.FUSE:
                benefits[j] = self._fuse_benefit[fused]
            elif slot.kind == ActionKind.UNFUSE:
                benefits[j] = self._unfuse_benefit[fused]
            else:
                assert slot.vthreads is not None
                benefits[j] = self._vthread_benefit(
                    slot.axis,
                    tiles,
                    num_levels,
                    vlist[slot.axis],
                    int(slot.vthreads[slot.axis]),
                )
            if slot.kind not in _NO_ACCEL and self.multi_objective:
                needs_accel.append(j)

        if tiling_rows:
            # Stack [src; tiling dsts] current-level tile rows and price
            # Q/F exactly once, vectorized; the division is Formula 1.
            lvl_rows = np.empty((len(tiling_rows) + 1, a_count), dtype=np.int64)
            lvl_rows[0] = tiles[:, level - 1]
            for k, j in enumerate(tiling_rows):
                slot = candidates[j][1]
                assert slot.tiles is not None
                lvl_rows[k + 1] = slot.tiles[:, level - 1]
            traffic = pack.traffic_bytes_ints(lvl_rows)
            footprint = pack.footprint_bytes(
                lvl_rows, include_output=True
            ).tolist()
            q_old, f_old = traffic[0], footprint[0]
            for k, j in enumerate(tiling_rows):
                benefits[j] = self._tiling_ratio(
                    q_old, f_old, traffic[k + 1], footprint[k + 1]
                )

        if needs_accel:
            benefits = self._apply_acceleration(
                tiles, vthreads, fused, candidates, benefits, needs_accel
            )
        return slots, candidates, benefits, memok

    def _tiling_ratio(
        self, q_old: int, f_old: int, q_new: int, f_new: int
    ) -> float:
        """Formula 1 from exact integer Q/F terms (one float division).

        Kept as a seam the differential harness can perturb to prove the
        oracle actually detects divergence.
        """
        if q_new == 0 or f_old == 0:
            return 0.0
        return (q_old * f_new) / (q_new * f_old)

    def _caching_benefit(
        self, tiles: np.ndarray, level: int, num_levels: int
    ) -> float:
        """Formula 2 at the source state's current level."""
        hw = self.hw
        if level >= num_levels:
            low, high = hw.dram, hw.smem
        else:
            low, high = hw.smem, hw.regs
        s_data = float(
            int(
                self.pack.footprint_bytes(
                    tiles[:, level - 1][None, :], include_output=False
                )[0]
            )
        )
        t_low = low.latency_s + s_data / low.bandwidth_bytes_per_s
        t_high = high.latency_s + s_data / high.bandwidth_bytes_per_s
        if t_high <= 0:
            return 0.0
        return t_low / t_high

    def _vthread_benefit(
        self,
        axis: int,
        tiles: np.ndarray,
        num_levels: int,
        v_old: int,
        v_new: int,
    ) -> float:
        """Formula 3: conflict-group ratio on the innermost spatial axis."""
        pack = self.pack
        if pack.last_spatial is None or axis != pack.last_spatial:
            return 1.0
        t1 = int(tiles[axis, 0])
        t_block = int(tiles[axis, num_levels - 1])
        x = t1 * max(1, t_block // max(1, t1))
        x = max(1, min(x, pack.extent_list[axis]))
        w = self.hw.bank_width_elems
        groups_old = float(math.ceil(x / (v_old * w)))
        groups_new = float(math.ceil(x / (v_new * w)))
        if groups_new <= 0:
            return 0.0
        return groups_old / groups_new

    def _apply_acceleration(
        self,
        tiles: np.ndarray,
        vthreads: np.ndarray,
        fused: int,
        candidates: list[tuple[int, _Slot]],
        benefits: list[float],
        needs_accel: list[int],
    ) -> list[float]:
        """The roofline term of ``action_benefit``, memo-backed.

        Only tile and vThread moves take it, and those keep the source's
        fused count, so every row prices at ``fused``.
        """
        quick = self.bundle.quick
        if len(quick) > _MEMO_CAP:
            quick.clear()
        tag = self._tags[fused]
        src_key = (tiles.tobytes(), vthreads.tobytes(), tag)
        before = quick.get(src_key)
        if before is None:
            before = float(
                self._quick_latencies(tiles[None], vthreads[None], fused)[0]
            )
            quick[src_key] = before

        afters: list[float | None] = [None] * len(needs_accel)
        missing: list[int] = []
        keys: list[tuple] = []
        for k, j in enumerate(needs_accel):
            slot = candidates[j][1]
            assert slot.tiles is not None and slot.vthreads is not None
            key = (slot.tiles.tobytes(), slot.vthreads.tobytes(), tag)
            keys.append(key)
            afters[k] = quick.get(key)
            if afters[k] is None:
                missing.append(k)
        if missing:
            # These candidates already passed the relaxed memory check in
            # _expansion_slots, so their columns go straight to the pipe.
            batch_t = np.stack(
                [candidates[needs_accel[k]][1].tiles for k in missing]
            )
            batch_v = np.stack(
                [candidates[needs_accel[k]][1].vthreads for k in missing]
            )
            lats = quick_pipe(
                self._quick_cols(
                    batch_t[:, :, -1],
                    batch_t[:, :, 0],
                    batch_v,
                    np.full(len(missing), fused, dtype=np.int64),
                ),
                self.hw,
            )
            for k, lat in zip(missing, lats):
                afters[k] = float(lat)
                quick[keys[k]] = float(lat)

        for k, j in enumerate(needs_accel):
            after = afters[k]
            assert after is not None
            if not math.isfinite(after) or after <= 0:
                accel = 0.0
            elif not math.isfinite(before):
                accel = 4.0
            else:
                accel = min(16.0, before / after)
            benefits[j] = benefits[j] * accel
        return benefits

    # -- legality / feature kernels -------------------------------------------

    def _spatial_points(self, tiles: np.ndarray) -> np.ndarray:
        """Points of the spatial tile per row (``ETIR._spatial_tile_points``)."""
        pts = np.ones(tiles.shape[0], dtype=np.int64)
        for a in self.pack.spatial_idx:
            pts = pts * tiles[:, a]
        return pts

    def _memok_relaxed(
        self, block: np.ndarray, thread: np.ndarray, fused: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Traversal-time memory check per row: smem slab + register budget.

        ``fused`` is the per-row fused count: fused epilogues' extra inputs
        live in registers at the spatial thread tile.  Returns ``(ok,
        smem_fp, regs)``; the latter two feed the strict check and the
        cost-model features.
        """
        pack = self.pack
        smem_fp = pack.footprint_bytes(block, include_output=False)
        regs_nbytes = pack.footprint_bytes(thread, include_output=True)
        if self.epilogues:
            regs_nbytes = regs_nbytes + self._ep_bytes[fused] * self._spatial_points(
                thread
            )
        regs = np.maximum(
            1, np.ceil(regs_nbytes.astype(np.float64) / 4).astype(np.int64)
        )
        ok = (smem_fp <= self.hw.smem.capacity_bytes) & (regs <= 255)
        return ok, smem_fp, regs

    def _tpb(self, block: np.ndarray, thread: np.ndarray) -> np.ndarray:
        """threads_per_block per row (exact int64)."""
        tpb = np.ones(block.shape[0], dtype=np.int64)
        for a in self.pack.spatial_idx:
            tpb = tpb * np.ceil(block[:, a] / thread[:, a]).astype(np.int64)
        return tpb

    def _nblk(self, block: np.ndarray) -> np.ndarray:
        """num_blocks per row (exact int64)."""
        pack = self.pack
        nblk = np.ones(block.shape[0], dtype=np.int64)
        for a in pack.spatial_idx:
            nblk = nblk * np.ceil(pack.extent_list[a] / block[:, a]).astype(
                np.int64
            )
        return nblk

    def _dram_q(
        self, block: np.ndarray, fused: np.ndarray, nblk: np.ndarray
    ) -> np.ndarray:
        """``float(ETIR.dram_traffic_bytes())`` per row (``nblk`` is
        :meth:`_nblk` of ``block``).

        Fused rows add their epilogues' extra inputs, streamed once per
        block at the spatial block tile — exact Python ints, as the object
        path sums them.
        """
        traffic = self.pack.traffic_bytes_ints(block)
        if not self.epilogues or not fused.any():
            return np.array([float(q) for q in traffic], dtype=np.float64)
        ep_bytes = self._ep_bytes[fused].tolist()
        pts = self._spatial_points(block).tolist()
        return np.array(
            [
                float(q + nb * (p * eb))
                for q, nb, p, eb in zip(traffic, nblk.tolist(), pts, ep_bytes)
            ],
            dtype=np.float64,
        )

    def _coalescing(self, block: np.ndarray) -> np.ndarray:
        """Footprint-weighted coalescing factor per row (row-cached).

        Same access loop, same accumulation order, same float operations
        as ``score._coalescing_uncached`` / the cost model's twin.
        """
        cache = self.bundle.coal
        if len(cache) > _ROW_CACHE_CAP:
            cache.clear()
        n = block.shape[0]
        out = np.empty(n)
        missing: list[int] = []
        mkeys: list[bytes] = []
        for i in range(n):
            key = block[i].tobytes()
            val = cache.get(key)
            if val is None:
                missing.append(i)
                mkeys.append(key)
            else:
                out[i] = val
        if missing:
            vals = self._coalescing_uncached(block[missing])
            for i, key, v in zip(missing, mkeys, vals.tolist()):
                out[i] = v
                cache[key] = v
        return out

    def _coalescing_uncached(self, block: np.ndarray) -> np.ndarray:
        n = block.shape[0]
        warp = self.hw.warp_size
        acc_f = np.zeros(n)
        total_w = np.zeros(n)
        tm1 = block - 1
        for coefs, dims, nbytes in self.pack.all_inputs:
            spans = 1 + tm1 @ coefs.T
            clipped = np.minimum(spans, dims)
            width = clipped[:, -1]
            factor = np.where(
                width >= warp, 1.0, float(warp) / width.astype(np.float64)
            )
            weight = (clipped.prod(axis=1) * nbytes).astype(np.float64)
            acc_f = acc_f + factor * weight
            total_w = total_w + weight
        safe = np.where(total_w != 0.0, total_w, 1.0)
        return np.where(total_w != 0.0, acc_f / safe, 1.0)

    def _conflict(
        self, block: np.ndarray, thread: np.ndarray, vthreads: np.ndarray
    ) -> np.ndarray:
        """Bank-conflict transaction factor per row (quick & full models)."""
        n = block.shape[0]
        pack = self.pack
        if pack.last_spatial is None:
            return np.ones(n)
        ls = pack.last_spatial
        t1 = thread[:, ls]
        t_block = block[:, ls]
        threads_row = np.maximum(1, t_block // np.maximum(1, t1))
        span = np.maximum(1, np.minimum(self.hw.warp_size, threads_row) * t1)
        vt = np.ones(n, dtype=np.int64)
        for a in range(pack.num_axes):
            vt = vt * vthreads[:, a]
        groups = np.ceil(
            span.astype(np.float64)
            / (vt * self.hw.bank_width_elems).astype(np.float64)
        )
        return 1.0 + 0.35 * (groups - 1.0)

    def _fused_rows(self, fused: "int | np.ndarray", n: int) -> np.ndarray:
        if isinstance(fused, np.ndarray):
            return fused
        return np.full(n, int(fused), dtype=np.int64)

    def _quick_latencies(
        self,
        tiles3: np.ndarray,
        vthreads2: np.ndarray,
        fused: "int | np.ndarray" = 0,
    ) -> np.ndarray:
        """``quick_latency(strict=False)`` per row, via the shared pipe."""
        n = tiles3.shape[0]
        out = np.full(n, math.inf)
        fused = self._fused_rows(fused, n)
        num_levels = tiles3.shape[2]
        block = tiles3[:, :, num_levels - 1]
        thread = tiles3[:, :, 0]
        ok, _smem_fp, _regs = self._memok_relaxed(block, thread, fused)
        idx = np.nonzero(ok)[0]
        if idx.size == 0:
            return out
        cols = self._quick_cols(block[idx], thread[idx], vthreads2[idx], fused[idx])
        out[idx] = quick_pipe(cols, self.hw)
        return out

    def _quick_cols(
        self,
        block: np.ndarray,
        thread: np.ndarray,
        vthreads: np.ndarray,
        fused: np.ndarray,
    ) -> np.ndarray:
        """The 8 ``quick_pipe`` feature rows for feasible rows."""
        pack = self.pack
        n = block.shape[0]
        tpb = self._tpb(block, thread).astype(np.float64)
        nblk = self._nblk(block)
        inner_work = np.ones(n)
        for a in range(pack.num_axes):
            inner_work = inner_work * thread[:, a].astype(np.float64)
        coalesce = self._coalescing(block)
        conflict = self._conflict(block, thread, vthreads)
        dram_q = self._dram_q(block, fused, nblk)
        smem_q = np.array(
            [float(q) for q in pack.traffic_bytes_ints(thread)], dtype=np.float64
        )
        return np.stack(
            [
                tpb,
                nblk.astype(np.float64),
                inner_work,
                coalesce,
                conflict,
                dram_q,
                smem_q,
                self._flops[fused],
            ]
        )

    def _full_latencies(
        self,
        tiles3: np.ndarray,
        vthreads2: np.ndarray,
        fused: "int | np.ndarray" = 0,
    ) -> np.ndarray:
        """``CostModel.evaluate(...).latency_s`` per row, via the shared pipe."""
        out = np.full(tiles3.shape[0], math.inf)
        idx, cols = self._full_features(tiles3, vthreads2, fused)
        if idx.size:
            out[idx] = pipe_metrics(cols, self.hw)[0]
        return out

    def _full_features(
        self,
        tiles3: np.ndarray,
        vthreads2: np.ndarray,
        fused: "int | np.ndarray" = 0,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Rows ``CostModel.evaluate`` would not reject as INFEASIBLE, and
        their 14 ``pipe_metrics`` feature columns (``None`` if no row is)."""
        hw = self.hw
        n = tiles3.shape[0]
        fused = self._fused_rows(fused, n)
        num_levels = tiles3.shape[2]
        block = tiles3[:, :, num_levels - 1]
        thread = tiles3[:, :, 0]
        ok, smem_fp, regs = self._memok_relaxed(block, thread, fused)
        tpb = self._tpb(block, thread)
        strict_ok = (
            ok
            & (tpb <= hw.max_threads_per_block)
            & (tpb * regs <= hw.registers_per_sm)
        )
        # blocks_per_sm on strict-ok rows (guarded products stay in int64).
        tpb_m = np.where(strict_ok, tpb, 1)
        regs_m = np.where(strict_ok, regs, 1)
        by_smem = np.where(
            smem_fp > 0,
            hw.smem.capacity_bytes // np.maximum(smem_fp, 1),
            hw.max_blocks_per_sm,
        )
        by_threads = hw.max_threads_per_sm // np.maximum(1, tpb_m)
        by_regs = hw.registers_per_sm // np.maximum(1, tpb_m * regs_m)
        bps = np.minimum(
            np.minimum(by_smem, by_threads),
            np.minimum(by_regs, hw.max_blocks_per_sm),
        )
        idx = np.nonzero(strict_ok & (bps > 0))[0]
        if idx.size == 0:
            return idx, None
        return idx, self._full_cols(
            block[idx],
            thread[idx],
            vthreads2[idx],
            tpb[idx],
            bps[idx],
            smem_fp[idx],
            fused[idx],
        )

    def _full_cols(
        self,
        block: np.ndarray,
        thread: np.ndarray,
        vthreads: np.ndarray,
        tpb: np.ndarray,
        bps: np.ndarray,
        smem_fp: np.ndarray,
        fused: np.ndarray,
    ) -> np.ndarray:
        """The 14 ``pipe_metrics`` feature rows for feasible rows.

        Fused rows add the epilogue terms of ``CostModel._padded_flops`` /
        ``_inner_work`` after the anchor's, in the scalar operation order.
        """
        pack = self.pack
        n = block.shape[0]
        nblk = self._nblk(block)
        padded = np.ones(n)
        padded_sp = np.ones(n)
        for a in range(pack.num_axes):
            blocks_a = np.ceil(pack.extent_list[a] / block[:, a]).astype(
                np.int64
            )
            threads_a = np.ceil(block[:, a] / thread[:, a]).astype(np.int64)
            points_a = (blocks_a * threads_a * thread[:, a]).astype(np.float64)
            padded = padded * points_a
            if self.epilogues and not pack.is_reduce[a]:
                padded_sp = padded_sp * points_a
        padded_flops = pack.flops_per_point * padded
        inner_work = np.ones(n)
        for a in range(pack.num_axes):
            inner_work = inner_work * thread[:, a].astype(np.float64)
        inner_work = inner_work * pack.flops_per_point / 2.0
        is_fused = fused > 0
        if is_fused.any():
            ep_fpp = self._ep_fpp[fused]
            sp_thread = np.ones(n)
            for a in pack.spatial_idx:
                sp_thread = sp_thread * thread[:, a].astype(np.float64)
            padded_flops = np.where(
                is_fused, padded_flops + ep_fpp * padded_sp, padded_flops
            )
            inner_work = np.where(
                is_fused, inner_work + sp_thread * ep_fpp / 2.0, inner_work
            )
        vt = np.ones(n, dtype=np.int64)
        for a in range(pack.num_axes):
            vt = vt * vthreads[:, a]
        coalesce = self._coalescing(block)
        dram_q = self._dram_q(block, fused, nblk)
        unique_bytes = self._io[fused]
        conflict = self._conflict(block, thread, vthreads)
        smem_q = np.array(
            [float(q) for q in pack.traffic_bytes_ints(thread)], dtype=np.float64
        )
        reduce_chunks = np.ones(n, dtype=np.int64)
        for a in pack.reduce_idx:
            reduce_chunks = reduce_chunks * np.ceil(
                pack.extent_list[a] / block[:, a]
            ).astype(np.int64)
        return np.stack(
            [
                tpb.astype(np.float64),
                bps.astype(np.float64),
                nblk.astype(np.float64),
                padded_flops,
                inner_work,
                vt.astype(np.float64),
                coalesce,
                dram_q,
                unique_bytes,
                conflict,
                smem_q,
                reduce_chunks.astype(np.float64),
                smem_fp.astype(np.float64),
                self._flops[fused],
            ]
        )

    def _full_latencies_memo(
        self, states: list[tuple[np.ndarray, np.ndarray, int]]
    ) -> np.ndarray:
        """Memo-backed full latencies for ``(tiles, vthreads, fused)`` rows."""
        full = self.bundle.full
        if len(full) > _MEMO_CAP:
            full.clear()
        out = np.empty(len(states))
        missing: list[int] = []
        keys: list[tuple] = []
        for i, (t, v, f) in enumerate(states):
            key = (t.tobytes(), v.tobytes(), self._tags[f])
            keys.append(key)
            lat = full.get(key)
            if lat is None:
                missing.append(i)
            else:
                out[i] = lat
        if missing:
            lats = self._full_latencies(
                np.stack([states[i][0] for i in missing]),
                np.stack([states[i][1] for i in missing]),
                np.array([states[i][2] for i in missing], dtype=np.int64),
            )
            for i, lat in zip(missing, lats):
                out[i] = lat
                full[keys[i]] = float(lat)
        return out

    # -- the walk (mirrors TransitionPolicy + the reference chain) -------------

    def _probabilities(
        self,
        edges: list[SoAEdge],
        anneal_progress: float,
        forbid: frozenset[str] = frozenset(),
    ) -> tuple[list[SoAEdge], np.ndarray]:
        """``TransitionPolicy.probabilities`` over packed edges."""
        if forbid:
            edges = [e for e in edges if e.kind not in forbid]
        if not edges:
            return [], np.zeros(0)
        weights = np.empty(len(edges))
        anneal = cache_anneal_factor(anneal_progress)
        for i, edge in enumerate(edges):
            if edge.kind == ActionKind.CACHE:
                w = anneal * (1.0 + math.log2(max(1.0, edge.benefit))) / 10.0
            else:
                w = edge.benefit
            weights[i] = max(0.0, w)
        total = weights.sum()
        if total <= 0:
            return edges, np.full(len(edges), 1.0 / len(edges))
        return edges, weights / total

    def _decode(
        self, tiles: np.ndarray, vthreads: np.ndarray, level: int, fused: int
    ) -> ETIR:
        return ETIR.from_arrays(
            self.compute,
            tiles,
            vthreads,
            level,
            tiles.shape[1],
            epilogue_pool=self.epilogues,
            fused=fused,
        )

    def run_chain(
        self,
        cfg: "GensorConfig",
        rng: np.random.Generator,
        forbid: frozenset[str],
        tracer: Tracer,
        cancel: "CancelToken | None",
        tid: int,
        candidates: dict[tuple, ETIR],
        *,
        checkpointer=None,
        base_steps: int = 0,
        resume: tuple | None = None,
    ) -> int:
        """One annealed chain on the packed representation.

        Byte-identical to the reference chain: same RNG consumption (one
        ``choice`` + one ``random`` per step, nothing at a sink), same
        candidate-pool keys and overwrite order, same ``walk_step`` /
        ``chain_end`` events.  Returns the iteration count.

        ``resume`` restarts the chain mid-anneal from a checkpoint's
        ``(tiles, vthreads, level, temperature, iteration)`` — the caller
        restores the RNG bit state into ``rng`` — and ``checkpointer``
        (with ``base_steps``, the iterations completed by earlier chains)
        snapshots at the cadence its policy dictates, at iteration
        boundaries only.  Both are for bare operators, whose fused count
        stays 0.
        """
        compute_name = self.compute.name
        a_count = self.pack.num_axes
        fused = 0
        if resume is not None:
            tiles, vthreads, level, temperature, iteration = resume
            tiles = np.asarray(tiles, dtype=np.int64)
            vthreads = np.asarray(vthreads, dtype=np.int64)
            level = int(level)
            iteration = int(iteration)
        else:
            tiles = np.ones((a_count, self.num_levels), dtype=np.int64)
            vthreads = np.ones(a_count, dtype=np.int64)
            level = self.num_levels
            temperature = cfg.initial_temperature
            iteration = 0
        while (
            temperature > cfg.threshold
            and iteration < cfg.max_iterations_per_chain
        ):
            if cancel is not None:
                cancel.check()
            progress = math.log2(cfg.initial_temperature / temperature)
            kept, probs = self._probabilities(
                self.expand(tiles, vthreads, level, fused), progress, forbid
            )
            if not kept:
                break
            idx = int(rng.choice(len(kept), p=probs))
            edge = kept[idx]
            src_level = level
            tiles, vthreads, level, fused = (
                edge.tiles, edge.vthreads, edge.level, edge.fused
            )
            appended = rng.random() < append_probability(temperature)
            if appended:
                state = self._decode(tiles, vthreads, level, fused)
                candidates[state.key()] = state
            if tracer.enabled:
                emit_walk_step(
                    tracer, compute_name, tid, iteration, temperature,
                    src_level, kept, probs, idx, appended,
                )
            temperature *= cfg.cooling
            iteration += 1
            if checkpointer is not None:
                checkpointer.on_step(
                    cancel,
                    lambda: self._build_checkpoint(
                        cfg,
                        tid,
                        iteration,
                        base_steps + iteration,
                        temperature,
                        tiles,
                        vthreads,
                        level,
                        rng,
                        candidates,
                    ),
                )
        state = self._decode(tiles, vthreads, level, fused)
        candidates[state.key()] = state
        if tracer.enabled:
            emit_chain_end(
                tracer, compute_name, tid, iteration, level, temperature
            )
        return iteration

    # -- greedy refinement (mirrors the reference polish) ----------------------

    def polish(
        self,
        state: ETIR,
        max_steps: int,
        forbid: frozenset[str] = frozenset(),
        tracer: Tracer | None = None,
        cancel: "CancelToken | None" = None,
    ) -> ETIR:
        """Greedy value refinement on the packed representation.

        Value-identical to the reference polish: the same neighbor
        enumeration order (fuse/unfuse last), the same full-model
        latencies (shared pipe) plus, for a fusion group, the standalone
        cost of every epilogue left unfused, the same first-strict-
        improvement tie-break and stop, the same traced event.  ``state``
        must carry this engine's epilogue pool.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        t0 = time.perf_counter() if tracer.enabled else 0.0
        tiles, vthreads = state.config_arrays()
        level = state.cur_level
        fused = state.fused
        num_levels = tiles.shape[1]
        program = bool(self.epilogues)
        current_lat = float(
            self._full_latencies_memo([(tiles, vthreads, fused)])[0]
        )
        if program:
            current_lat += self._penalty[fused]
        start_lat = current_lat
        vthread_allowed = ActionKind.VTHREAD_UP not in forbid
        steps = 0
        for _ in range(max_steps):
            if cancel is not None:
                cancel.check()
            neighbors = self._polish_neighbors(
                tiles, vthreads, fused, num_levels, vthread_allowed
            )
            if not neighbors:
                break
            lats = self._full_latencies_memo(neighbors)
            if program:
                lats = lats + np.array(
                    [self._penalty[f] for _t, _v, f in neighbors]
                )
            # argmin's first-occurrence rule is the reference loop's "first
            # strict improvement over all previous" bookkeeping.
            j = int(np.argmin(lats))
            if not lats[j] < current_lat:
                break
            tiles, vthreads, fused = neighbors[j]
            current_lat = float(lats[j])
            steps += 1
        if tracer.enabled:
            emit_polish(
                tracer, state.compute.name, steps, max_steps, start_lat,
                current_lat, time.perf_counter() - t0,
            )
        return self._decode(tiles, vthreads, level, fused)

    def _polish_neighbors(
        self,
        tiles: np.ndarray,
        vthreads: np.ndarray,
        fused: int,
        num_levels: int,
        vthread_allowed: bool,
    ) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """The reference ``all_level_neighbors`` on arrays, in order."""
        pack = self.pack
        rows = tiles.tolist()
        vlist = vthreads.tolist()
        out: list[tuple[np.ndarray, np.ndarray, int]] = []
        for a in range(pack.num_axes):
            for level in range(1, num_levels + 1):
                cur = rows[a][level - 1]
                for up in (True, False):
                    if up:
                        new: int | None = cur * 2
                        upper = (
                            pack.extent_list[a]
                            if level == num_levels
                            else rows[a][level]
                        )
                        if new > upper:
                            new = upper if cur < upper else None
                    else:
                        new = cur // 2
                        lower = 1 if level == 1 else rows[a][level - 2]
                        if level == 1:
                            lower = max(lower, vlist[a])
                        if new < lower:
                            new = None
                    if new is not None:
                        dst = tiles.copy()
                        dst[a, level - 1] = new
                        out.append((dst, vthreads, fused))
            if vthread_allowed and not pack.is_reduce[a]:
                v = vlist[a]
                for nv in (v * 2, v // 2, 1):
                    if nv >= 1 and nv != v and nv <= rows[a][0]:
                        dv = vthreads.copy()
                        dv[a] = nv
                        out.append((tiles, dv, fused))
        if self.epilogues:
            if fused < len(self.epilogues):
                out.append((tiles, vthreads, fused + 1))
            if fused > 0:
                out.append((tiles, vthreads, fused - 1))
        return out


# -- the differential oracle ---------------------------------------------------


def _assert_same_float(a: float, b: float, context: str) -> None:
    """Bitwise float comparison (``==`` would conflate +0.0 and -0.0)."""
    if float(a).hex() != float(b).hex():
        raise SoAParityError(
            f"{context}: object path {a!r} ({float(a).hex()}) != "
            f"SoA path {b!r} ({float(b).hex()})"
        )


def _state_config(state: ETIR) -> tuple:
    """``(tiles, vthreads, cur_level, fused)`` — what ``dst_config`` packs."""
    return (state.config.tiles, state.config.vthreads, state.cur_level, state.fused)


class DifferentialWalker:
    """Runs the object path and the SoA path in lockstep and cross-checks.

    Three granularities per state: *slot level* (every enumerated action
    template: legality, memory check, benefit bits, destination config,
    against the graph's memo-free scalar oracle), *edge level* (the
    surviving edge lists of ``graph.expand`` vs ``engine.expand``), and
    *probability level* (the normalized transition distributions,
    byte-compared).  :meth:`walk` drives an annealed walk through both
    paths on one RNG stream and additionally asserts the chosen edges and
    the monotone node counts agree.  ``epilogues`` makes it a fusion
    group's walk (FUSE/UNFUSE edges; compared states must carry the pool).
    Any divergence raises :class:`SoAParityError`.
    """

    def __init__(
        self,
        compute: ComputeDef,
        hardware: HardwareSpec,
        multi_objective: bool = True,
        num_levels: int | None = None,
        forbid: frozenset[str] = frozenset(),
        epilogues: tuple[ComputeDef, ...] = (),
    ) -> None:
        from repro.core.graph import ConstructionGraph

        self.compute = compute
        self.hw = hardware
        self.epilogues = tuple(epilogues)
        self.num_levels = (
            num_levels if num_levels is not None else hardware.num_cache_levels
        )
        self.graph = ConstructionGraph(
            hardware, forbid=forbid, multi_objective=multi_objective
        )
        self.engine = SoAWalkEngine(
            compute,
            hardware,
            multi_objective=multi_objective,
            num_levels=self.num_levels,
            forbid=forbid,
            epilogues=self.epilogues,
        )

    def compare_state(
        self,
        state: ETIR,
        anneal_progresses: tuple[float, ...] = (0.0, 4.0, 12.0),
        forbid: frozenset[str] = frozenset(),
    ) -> int:
        """Cross-check one state at all three granularities.

        Returns the number of surviving edges; raises
        :class:`SoAParityError` on the first divergence.
        """
        from repro.core.policy import TransitionPolicy

        tiles, vthreads = state.config_arrays()
        level, fused = state.cur_level, state.fused
        where = f"{state.compute.name} state {state.key()!r}"

        # Slot level: scalar memo-free oracle vs the packed expansion.
        oracle = self.graph.expansion_oracle(state)
        detail = self.engine.expand_detail(tiles, vthreads, level, fused)
        if len(oracle) != len(detail):
            raise SoAParityError(
                f"{where}: slot count {len(oracle)} != {len(detail)}"
            )
        for i, ((action, nxt, benefit), d) in enumerate(zip(oracle, detail)):
            ctx = f"{where} slot {i} ({action.kind}, axis {action.axis_idx})"
            if action.kind != d["kind"] or action.axis_idx != d["axis"]:
                raise SoAParityError(
                    f"{ctx}: SoA slot is ({d['kind']}, axis {d['axis']})"
                )
            if (nxt is not None) != d["legal"]:
                raise SoAParityError(
                    f"{ctx}: legality {nxt is not None} != {d['legal']}"
                )
            if nxt is not None:
                mem_ok = nxt.memory_ok(self.hw, strict=False)
                if mem_ok != d["mem_ok"]:
                    raise SoAParityError(
                        f"{ctx}: mem_ok {mem_ok} != {d['mem_ok']}"
                    )
                dst_cfg = _state_config(nxt)
                if dst_cfg != d["dst_config"]:
                    raise SoAParityError(
                        f"{ctx}: dst {dst_cfg} != {d['dst_config']}"
                    )
            _assert_same_float(benefit, d["benefit"], f"{ctx} benefit")

        # Edge level: the memoized surviving frontiers.
        edges = self.graph.expand(state)
        soa_edges = self.engine.expand(tiles, vthreads, level, fused)
        if len(edges) != len(soa_edges):
            raise SoAParityError(
                f"{where}: edge count {len(edges)} != {len(soa_edges)}"
            )
        for i, (edge, se) in enumerate(zip(edges, soa_edges)):
            ctx = f"{where} edge {i} ({edge.kind})"
            if edge.kind != se.kind or edge.axis != se.axis:
                raise SoAParityError(
                    f"{ctx}: SoA edge is ({se.kind}, axis {se.axis})"
                )
            _assert_same_float(edge.benefit, se.benefit, f"{ctx} benefit")
            dst_cfg = _state_config(edge.dst)
            if dst_cfg != se.dst_config():
                raise SoAParityError(
                    f"{ctx}: dst {dst_cfg} != {se.dst_config()}"
                )

        # Probability level: the normalized distributions, byte-compared.
        policy = TransitionPolicy(self.graph, np.random.default_rng(0))
        for progress in anneal_progresses:
            o_edges, o_probs = policy.probabilities(state, progress, forbid)
            s_edges, s_probs = self.engine._probabilities(
                soa_edges, progress, forbid
            )
            if len(o_edges) != len(s_edges):
                raise SoAParityError(
                    f"{where} @ progress {progress}: kept-edge count "
                    f"{len(o_edges)} != {len(s_edges)}"
                )
            if o_probs.tobytes() != s_probs.tobytes():
                raise SoAParityError(
                    f"{where} @ progress {progress}: probabilities diverge: "
                    f"{o_probs!r} != {s_probs!r}"
                )
        return len(edges)

    def walk(
        self,
        seed: int = 0,
        chains: int = 2,
        max_iterations: int = 48,
        initial_temperature: float = 100.0,
        cooling: float = 0.93,
        threshold: float = 0.01,
        forbid: frozenset[str] = frozenset(),
        start: ETIR | None = None,
    ) -> dict:
        """Drive annealed chains through both paths on one RNG stream.

        Every visited state (including the terminal one) is cross-checked
        with :meth:`compare_state`; each step additionally asserts the
        roulette-chosen edge lands on the same destination.  At the end the
        monotone node counts of both paths must agree.  Chains start from
        the initial state (fused count 0) unless ``start`` is given.
        """
        from repro.core.policy import TransitionPolicy
        from repro.utils.rng import spawn_rng

        total_iterations = 0
        states_compared = 0
        for chain in range(chains):
            rng = spawn_rng(seed, "diff", self.compute.name, chain)
            policy = TransitionPolicy(self.graph, rng)
            if start is not None:
                state = start
            else:
                state = ETIR.initial(
                    self.compute,
                    num_levels=self.num_levels,
                    epilogues=self.epilogues,
                )
            tiles, vthreads = state.config_arrays()
            level, fused = state.cur_level, state.fused
            temperature = initial_temperature
            iteration = 0
            while temperature > threshold and iteration < max_iterations:
                progress = math.log2(initial_temperature / temperature)
                self.compare_state(
                    state, anneal_progresses=(progress,), forbid=forbid
                )
                states_compared += 1
                edges, probs = policy.probabilities(state, progress, forbid)
                kept, _s_probs = self.engine._probabilities(
                    self.engine.expand(tiles, vthreads, level, fused),
                    progress,
                    forbid,
                )
                if not edges:
                    break
                idx = int(rng.choice(len(edges), p=probs))
                edge, soa_edge = edges[idx], kept[idx]
                dst_cfg = _state_config(edge.dst)
                if dst_cfg != soa_edge.dst_config():
                    raise SoAParityError(
                        f"chain {chain} iter {iteration}: chosen edge {idx} "
                        f"lands on {dst_cfg} != {soa_edge.dst_config()}"
                    )
                state = edge.dst
                tiles, vthreads, level, fused = (
                    soa_edge.tiles,
                    soa_edge.vthreads,
                    soa_edge.level,
                    soa_edge.fused,
                )
                temperature *= cooling
                iteration += 1
            self.compare_state(state, anneal_progresses=(0.0,), forbid=forbid)
            states_compared += 1
            total_iterations += iteration
        if self.graph.num_nodes != self.engine.num_nodes:
            raise SoAParityError(
                f"node counts diverge: object path {self.graph.num_nodes} "
                f"!= SoA path {self.engine.num_nodes}"
            )
        return {
            "chains": chains,
            "iterations": total_iterations,
            "states_compared": states_compared,
            "nodes": self.engine.num_nodes,
        }

"""Structure-of-arrays walk core: the engine every compile runs on.

The annealed walk spends its time in three places: expanding a state's
candidate frontier, checking candidate legality against the device memory
limits, and pricing the Formula 1-3 benefits.  This module represents the
frontier as numpy structure-of-arrays: one ``(A, L)`` int64 tile matrix and
one ``(A,)`` vThread vector per state, plus the fused-epilogue count of a
program fusion group.  The chains of a walk advance in lockstep rounds, and
a round's legality masks and benefit scoring run vectorized across the
frontiers of every chain in one pass: one :meth:`SoAPack.row_terms` call
prices every tile row the round's pricing reads.
:meth:`Gensor.compile <repro.core.constructor.Gensor.compile>` and
:meth:`Gensor.polish <repro.core.constructor.Gensor.polish>` run every
walk here, bare operators and fusion groups alike, and so does the rest
of a compile: the walk's candidate pool stays packed, is ranked in one
priced pass, and its shortlist is polished as one lockstep batch.

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
* the roulette (:func:`_roulette`) is ``Generator.choice``'s own
  arithmetic for one draw with ``p`` — cumulative sum, normalized by its
  last value, one ``random()``, bisect right — so it picks the same edge
  and consumes exactly what ``rng.choice`` does;
* the roofline/pipe arithmetic runs the scalar models' operations, in
  their order, over feature columns:
  :func:`repro.core.score.quick_pipe` and
  :func:`repro.sim.costmodel.pipe_metrics` are bit-identical column twins
  of :func:`~repro.core.score.quick_latency` and
  :meth:`CostModel.evaluate <repro.sim.costmodel.CostModel.evaluate>`,
  which keep their own scalar copies as the oracle's side;
* everything that depends only on the fused count — the program FLOPs and
  IO, the epilogue terms of the cost model, the FUSE/UNFUSE benefits
  (:func:`repro.core.actions._fusion_benefit`), and the pending-epilogue
  penalty — is read off real ETIR states, one per fused count, through
  the object path's own code.

:class:`DifferentialWalker` runs both paths in lockstep and raises
:class:`SoAParityError` on the first divergence.
"""

from __future__ import annotations

import copy
import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

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
from repro.resilience.checkpoint import (
    build_chain_checkpoint,
    build_walk_checkpoint,
    state_config,
)
from repro.sim.costmodel import pipe_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (constructor imports us lazily)
    from repro.core.constructor import GensorConfig
    from repro.resilience.checkpoint import ChainCheckpoint
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

#: ``Generator.choice``'s tolerance on the sum of ``p``.
_PROB_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _memo_rows(
    cache: dict, keys: list, price: Callable[[list[int]], Iterable], cap: int
) -> list:
    """``cache``'s value for each key, in order.

    The missing keys are priced in one ``price(missing_indices)`` call,
    which returns their values in order, and stored.  A cache past ``cap``
    is cleared first, not trimmed: every value is a pure function of its
    key, so recomputation is value-identical.
    """
    if len(cache) > cap:
        cache.clear()
    out = [cache.get(key) for key in keys]
    missing = [i for i, val in enumerate(out) if val is None]
    if missing:
        for i, val in zip(missing, price(missing)):
            out[i] = cache[keys[i]] = val
    return out


def _roulette(rng: np.random.Generator, probs: np.ndarray) -> int:
    """``int(rng.choice(len(probs), p=probs))``, written out.

    numpy's ``Generator.choice`` with ``size=None, replace=True`` does
    exactly this: normalize the cumulative sum by its last value, draw one
    ``random()`` and bisect right.  Like ``choice`` it raises
    ``ValueError`` unless the probabilities sum to 1 within ``sqrt(eps)``,
    so a NaN or non-finite total raises; they are non-negative by
    construction (``_probabilities`` clamps every weight at 0).
    """
    cdf = probs.cumsum()
    if not abs(cdf[-1] - 1.0) <= _PROB_ATOL:
        raise ValueError(f"probabilities do not sum to 1: {probs!r}")
    cdf /= cdf[-1]
    return bisect_right(cdf.tolist(), rng.random())


class SoAParityError(AssertionError):
    """The SoA path diverged from the object-path oracle."""


def _portable_config(
    tiles: np.ndarray, vthreads: np.ndarray, level, fused
) -> tuple:
    """A packed pool row as the checkpoint's portable ``(tiles, vthreads,
    level, fused)`` plain-int tuples (``checkpoint.state_config`` of its
    ETIR)."""
    return (
        tuple(tuple(row) for row in tiles.tolist()),
        tuple(vthreads.tolist()),
        int(level),
        int(fused),
    )


# -- static per-compute packing ----------------------------------------------


class SoAPack:
    """Packed static structure of one :class:`ComputeDef`.

    Everything the vectorized footprint/traffic/feature kernels need that
    does not depend on the tile configuration: axis extents and kinds, the
    absolute affine coefficients of every access as an ``(ndim, A)`` matrix
    (so index spans become one small matmul), and the scalar workload
    constants.  Built once per compute via :func:`pack_for`; it holds no
    per-row state.
    """

    __slots__ = (
        "num_axes",
        "extent_list",
        "extents",
        "extents_f",
        "is_reduce",
        "spatial_idx",
        "spatial_cols",
        "reduce_cols",
        "spatial_extents",
        "reduce_extents",
        "last_spatial",
        "all_inputs",
        "unique_inputs",
        "out_bytes",
        "flops_per_point",
        "total_flops",
        "total_io",
        "traffic_int64_safe",
        "products_f64_exact",
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
        # Index arrays for the per-row products over one axis kind: an
        # int64 product is exact (or wraps identically) in any order, so
        # one indexed ``prod(axis=1)`` replaces a per-axis loop.
        self.spatial_cols = np.nonzero(~reduce_mask)[0]
        self.reduce_cols = np.nonzero(reduce_mask)[0]
        self.spatial_idx = self.spatial_cols.tolist()
        self.spatial_extents = self.extents[self.spatial_cols]
        self.reduce_extents = self.extents[self.reduce_cols]
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
        # Whether every product of per-axis tile sizes is below 2**53, so
        # a float64 running product is exact and equals the int64 one.
        self.products_f64_exact = count_bound < 2**53

    def row_terms(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact per-row tile quantities of an ``(..., A)`` int64 array of
        per-axis tile sizes (one row per tile at one level), each shaped
        ``rows.shape[:-1]``: ``tile_footprint_bytes`` without and with the
        output tile, and ``tile_traffic_bytes`` (Formula 1's ``Q``).

        The footprints and every span/count intermediate are int64.  The
        traffic's final per-row products are int64 when the pack's shape
        bound proves they cannot overflow, and otherwise run on exact
        Python ints in an object array: the object path computes them as
        Python ints too, and Formula 1 divides the exact cross products.
        """
        shape = rows.shape[:-1]
        rows = rows.reshape(-1, self.num_axes)
        fin = np.zeros(rows.shape[0], dtype=np.int64)
        tm1 = rows - 1
        for coefs, dims, nbytes in self.unique_inputs:
            spans = 1 + tm1 @ coefs.T
            fin = fin + np.minimum(spans, dims).prod(axis=1) * nbytes
        clipped = np.minimum(rows, self.extents)
        counts = np.ceil(self.extents_f / clipped.astype(np.float64)).astype(
            np.int64
        )
        out_tile = clipped[:, self.spatial_cols]
        fpo = fin + out_tile.prod(axis=1) * self.out_bytes
        fin_q = fin
        if not self.traffic_int64_safe:
            counts, out_tile, fin_q = (
                counts.astype(object), out_tile.astype(object), fin.astype(object)
            )
        sp = counts[:, self.spatial_cols].prod(axis=1)
        rt = counts[:, self.reduce_cols].prod(axis=1)
        traffic = sp * rt * fin_q + sp * out_tile.prod(axis=1) * self.out_bytes
        return fin.reshape(shape), fpo.reshape(shape), traffic.reshape(shape)


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

    __slots__ = ("hw", "pack", "quick", "full")

    def __init__(self, hw: HardwareSpec, pack: SoAPack) -> None:
        self.hw = hw
        self.pack = pack
        self.quick: dict[tuple, float] = {}
        self.full: dict[tuple, float] = {}


def _bundle_for(compute: ComputeDef, hw: HardwareSpec) -> _SoABundle:
    per_hw = compute.__dict__.get("_soa_bundles")
    if per_hw is None:
        per_hw = compute.__dict__["_soa_bundles"] = {}
    bundle = per_hw.get(id(hw))
    if bundle is None:
        bundle = per_hw[id(hw)] = _SoABundle(hw, pack_for(compute))
    return bundle


# -- the packed candidate pool ------------------------------------------------


class SoAFrontier:
    """A batch of walk states packed as structure-of-arrays.

    ``tiles`` is ``(n, A, L)`` int64, ``vthreads`` ``(n, A)`` int64, and
    ``cur_levels`` and ``fused`` ``(n,)`` int64; ``epilogues`` is the
    fusion group's pool every row's fused count indexes (empty for a bare
    operator).  :meth:`from_rows` packs a walk's candidate pool, which
    never held ETIR objects, :meth:`check` validates it in one array pass,
    and :meth:`state` decodes one row exactly (plain Python ints,
    re-validated by the ETIR constructor).
    """

    __slots__ = (
        "compute",
        "num_levels",
        "epilogues",
        "tiles",
        "vthreads",
        "cur_levels",
        "fused",
    )

    def __init__(
        self,
        compute: ComputeDef,
        num_levels: int,
        tiles: np.ndarray,
        vthreads: np.ndarray,
        cur_levels: np.ndarray,
        fused: np.ndarray,
        epilogues: tuple[ComputeDef, ...],
    ) -> None:
        self.compute = compute
        self.num_levels = num_levels
        self.epilogues = epilogues
        self.tiles = tiles
        self.vthreads = vthreads
        self.cur_levels = cur_levels
        self.fused = fused

    @classmethod
    def from_rows(
        cls,
        compute: ComputeDef,
        epilogues: tuple[ComputeDef, ...],
        rows: list[tuple[np.ndarray, np.ndarray, int, int]],
    ) -> "SoAFrontier":
        """Pack ``(tiles, vthreads, level, fused)`` rows (at least one)."""
        tiles = np.array([r[0] for r in rows])
        return cls(
            compute,
            tiles.shape[2],
            tiles,
            np.array([r[1] for r in rows]),
            np.array([r[2] for r in rows], dtype=np.int64),
            np.array([r[3] for r in rows], dtype=np.int64),
            epilogues,
        )

    def check(self) -> None:
        """Raise ``ValueError`` on the first row that breaks an ETIR
        invariant — every check the ETIR constructor makes, for the whole
        batch at once: ``1 <= T_1 <= ... <= T_L <= extent``, ``1 <= V <=
        T_1`` with ``V == 1`` on reduce axes, the level in ``[1, L]`` and
        the fused count in ``[0, len(epilogues)]``."""
        pack = pack_for(self.compute)
        tiles, vthreads, thread = self.tiles, self.vthreads, self.tiles[:, :, 0]
        bad = (
            (thread < 1).any(axis=1)
            | (np.diff(tiles, axis=2) < 0).any(axis=(1, 2))
            | (tiles[:, :, -1] > pack.extents).any(axis=1)
            | (vthreads < 1).any(axis=1)
            | (vthreads > thread).any(axis=1)
            | (vthreads[:, pack.reduce_cols] != 1).any(axis=1)
            | (self.cur_levels < 1)
            | (self.cur_levels > self.num_levels)
            | (self.fused < 0)
            | (self.fused > len(self.epilogues))
        )
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"{self.compute.name}: pool row {i} breaks an ETIR invariant:"
                f" tiles {self.tiles[i].tolist()}, vthreads"
                f" {self.vthreads[i].tolist()}, level {int(self.cur_levels[i])},"
                f" fused {int(self.fused[i])}"
            )

    def state(self, i: int) -> ETIR:
        """Row ``i`` as a validated ETIR."""
        return ETIR.from_arrays(
            self.compute,
            self.tiles[i],
            self.vthreads[i],
            int(self.cur_levels[i]),
            self.num_levels,
            epilogue_pool=self.epilogues,
            fused=int(self.fused[i]),
        )

    def __len__(self) -> int:
        return self.tiles.shape[0]


# -- edges and expansion ------------------------------------------------------


class SoAEdge:
    """One transition in packed form (mirror of ``graph.Edge``).

    Expansion enumerates every action template of a state as an edge, in
    ``enumerate_actions`` order: ``tiles is None`` marks a structurally
    illegal one, and pricing sets ``benefit`` in place (0.0 until priced,
    and on a failed memory check).  The edges that survive, benefit > 0,
    are the state's frontier.  The arrays are owned by the engine and
    never mutated after creation — destinations share their unchanged
    source arrays (e.g. a vThread edge shares the tile matrix, a fuse edge
    shares both).
    """

    __slots__ = ("kind", "axis", "benefit", "tiles", "vthreads", "level", "fused")

    def __init__(
        self,
        kind: str,
        axis: int,
        tiles: np.ndarray | None,
        vthreads: np.ndarray,
        level: int,
        fused: int,
    ) -> None:
        self.kind = kind
        self.axis = axis
        self.benefit = 0.0
        self.tiles = tiles
        self.vthreads = vthreads
        self.level = level
        self.fused = fused

    def dst_config(self) -> tuple:
        """The destination's portable ``(tiles, vthreads, cur_level,
        fused)`` config."""
        return _portable_config(self.tiles, self.vthreads, self.level, self.fused)


@dataclass(slots=True)
class _Chain:
    """One annealed chain's walk state on the packed representation."""

    tid: int
    rng: np.random.Generator
    pool: dict[tuple, tuple]
    tiles: np.ndarray
    vthreads: np.ndarray
    level: int
    fused: int
    temperature: float
    iteration: int = 0
    done: bool = False


class SoAWalkEngine:
    """Vectorized construction-graph expansion, walk, ranking and polish
    for one operator (and, for a program fusion group, its epilogue pool).

    Mirrors ``ConstructionGraph`` + ``TransitionPolicy`` bit-for-bit (see
    the module docstring for the contract): same node bookkeeping, same
    memo/eviction choreography (so ``num_nodes`` matches the object path
    even past the cache cap), same RNG consumption per chain, same traced
    events.  :meth:`expand` takes a batch of states — a lockstep round of
    chains — and prices every frontier in one pass.  A walk state is
    ``(tiles, vthreads, level, fused)``, where ``fused`` counts the pool
    prefix running inside the anchor kernel.
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
        self._penalty = np.array([pending_penalty_s(s, hw) for s in ladder])
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
        # The same retained half as the graph.
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
        as insertion-ordered ``(tiles, vthreads, level, fused)`` tuples
        plus the monotone ``_nodes_seen`` counter.  Membership matters,
        not just the count — ``_add_node`` only increments for unseen
        keys, so a resumed walk's future ``num_nodes`` depends on exactly
        which keys the snapshot preserved.  Edge memos are deliberately
        not exported (expansion is deterministic; resumed recomputation
        is value-identical).
        """
        a_count = self.pack.num_axes
        configs: list[tuple] = []
        for tiles_b, vthreads_b, level, fused in self._nodes:
            tiles = np.frombuffer(tiles_b, dtype=np.int64).reshape(a_count, -1)
            vthreads = np.frombuffer(vthreads_b, dtype=np.int64)
            configs.append(_portable_config(tiles, vthreads, level, fused))
        return configs, self._nodes_seen

    def restore_nodes(self, configs: Iterable[tuple], nodes_seen: int) -> None:
        """Rebuild the node memo a checkpoint exported (insertion order kept)."""
        self._nodes = {
            self._key(
                np.array(tiles, dtype=np.int64),
                np.array(vthreads, dtype=np.int64),
                int(level),
                int(fused),
            ): True
            for tiles, vthreads, level, fused in configs
        }
        self._nodes_seen = int(nodes_seen)

    def _build_checkpoint(self, cfg: "GensorConfig", chains: list["_Chain"]):
        """Assemble a walk checkpoint from every chain's packed state.

        Runs only on the (rare) steps the cadence fires, at a chain's
        iteration boundary — never inside the scored hot loop.  The packed
        pool rows become the same portable candidate configs an ETIR pool
        gives.
        """
        node_keys, nodes_seen = self.export_nodes()
        return build_walk_checkpoint(
            self.compute,
            cfg,
            epilogues=self.epilogues,
            num_levels=self.num_levels,
            chains=[
                build_chain_checkpoint(
                    _portable_config(c.tiles, c.vthreads, c.level, c.fused),
                    c.temperature,
                    c.iteration,
                    c.rng,
                    c.done,
                    [_portable_config(*row) for row in c.pool.values()],
                )
                for c in chains
            ],
            node_keys=node_keys,
            nodes_seen=nodes_seen,
        )

    # -- expansion -------------------------------------------------------------

    def expand(self, states: list[tuple]) -> list[list[SoAEdge]]:
        """Legal outgoing edges (benefit > 0) of each ``(tiles, vthreads,
        level, fused)`` row, memoized — ``graph.expand`` per row, in order.

        Every row that misses the edge memo is priced in one batched pass
        (a row the batch repeats, once).  The node and edge bookkeeping
        then runs row by row in list order, exactly as one ``graph.expand``
        call per state would, so node counts and checkpoints equal the
        reference's even past the eviction cap: a row whose memo entry an
        earlier row's eviction dropped is priced again at its turn, to the
        same values.
        """
        keys = [self._key(*row) for row in states]
        misses: dict[tuple, tuple] = {}
        for key, row in zip(keys, states):
            if key not in self._edges:
                misses.setdefault(key, row)
        priced = (
            dict(zip(misses, self._expansion_edges(list(misses.values()))))
            if misses
            else {}
        )
        out: list[list[SoAEdge]] = []
        for key, row in zip(keys, states):
            self._add_node(key)
            edges = self._edges.get(key)
            if edges is None:
                edges = priced.get(key)
                if edges is None:
                    edges = self._expansion_edges([row])[0]
                for edge in edges:
                    self._add_node(
                        self._key(edge.tiles, edge.vthreads, edge.level, edge.fused)
                    )
                self._edges[key] = edges
                self._maybe_evict()
            out.append(edges)
        return out

    def _expansion_edges(self, states: list[tuple]) -> list[list[SoAEdge]]:
        """The surviving (benefit > 0) edges of each state, unmemoized."""
        slot_lists, _memok = self._expansion_slots(states)
        return [[edge for edge in slots if edge.benefit > 0.0] for slots in slot_lists]

    def expand_detail(
        self, tiles: np.ndarray, vthreads: np.ndarray, level: int, fused: int = 0
    ) -> list[dict]:
        """Slot-level expansion for the differential harness.

        One dict per enumerated action template (illegal ones included), in
        enumeration order, without touching the node/edge memos:
        ``{kind, axis, legal, mem_ok, benefit, dst_config}``.
        """
        slot_lists, memok = self._expansion_slots([(tiles, vthreads, level, fused)])
        legal_ok = iter(memok.tolist())
        return [
            {
                "kind": edge.kind,
                "axis": edge.axis,
                "legal": edge.tiles is not None,
                "mem_ok": edge.tiles is not None and next(legal_ok),
                "benefit": edge.benefit,
                "dst_config": None if edge.tiles is None else edge.dst_config(),
            }
            for edge in slot_lists[0]
        ]

    def _expansion_slots(
        self, states: list[tuple]
    ) -> tuple[list[list[SoAEdge]], np.ndarray]:
        """Enumerate and price a batch of frontiers.

        Enumeration runs per state; the pricing runs once over the
        concatenated legal slots of every state (see :meth:`_price`).
        Returns every state's action templates in ``enumerate_actions``
        order, priced in place, and the relaxed memory-check mask of the
        legal ones, concatenated in state order.
        """
        slot_lists = [self._slots(*row) for row in states]
        return slot_lists, self._price(states, slot_lists)

    def _tile_step(
        self,
        tiles: np.ndarray,
        rows: list[list[int]],
        vlist: list[int],
        a: int,
        level: int,
        up: bool,
    ) -> np.ndarray | None:
        """``ETIR.scaled_tile_at`` on arrays: ``tiles`` with axis ``a``'s
        tile at ``level`` doubled or halved, ``None`` when illegal.

        Doubling clips to the next level's tile (the extent at the top
        level); halving may not drop below the previous level's tile (the
        vThread count at level 1).  ``rows`` and ``vlist`` are the tile
        matrix and the vThread vector as lists.
        """
        cur = rows[a][level - 1]
        if up:
            upper = (
                self.pack.extent_list[a] if level == len(rows[a]) else rows[a][level]
            )
            new = cur * 2
            if new > upper:
                if cur >= upper:
                    return None
                new = upper
        else:
            new = cur // 2
            if new < (max(1, vlist[a]) if level == 1 else rows[a][level - 2]):
                return None
        dst = tiles.copy()
        dst[a, level - 1] = new
        return dst

    def _slots(
        self, tiles: np.ndarray, vthreads: np.ndarray, level: int, fused: int
    ) -> list[SoAEdge]:
        """Every action template of one state as an unpriced edge, in
        ``enumerate_actions`` order; a structurally illegal one carries
        ``tiles=None``."""
        pack = self.pack
        forbid = self.forbid
        rows = tiles.tolist()
        vlist = vthreads.tolist()

        slots: list[SoAEdge] = []
        for a in range(pack.num_axes):
            for kind, up in ((ActionKind.TILE_UP, True), (ActionKind.TILE_DOWN, False)):
                if kind not in forbid:
                    dst = self._tile_step(tiles, rows, vlist, a, level, up)
                    slots.append(SoAEdge(kind, a, dst, vthreads, level, fused))
            if pack.is_reduce[a] or level != 1:
                continue
            v = vlist[a]
            for kind, nv, legal in (
                (ActionKind.VTHREAD_UP, v * 2, v * 2 <= rows[a][0]),
                (ActionKind.VTHREAD_DOWN, v // 2, v > 1),
            ):
                if kind not in forbid:
                    dv = vthreads
                    if legal:
                        dv = vthreads.copy()
                        dv[a] = nv
                    slots.append(
                        SoAEdge(kind, a, tiles if legal else None, dv, level, fused)
                    )
        if level > 1 and ActionKind.CACHE not in forbid:
            slots.append(SoAEdge(ActionKind.CACHE, -1, tiles, vthreads, level - 1, fused))
        if self.epilogues:
            if fused < len(self.epilogues) and ActionKind.FUSE not in forbid:
                slots.append(
                    SoAEdge(ActionKind.FUSE, -1, tiles, vthreads, level, fused + 1)
                )
            if fused > 0 and ActionKind.UNFUSE not in forbid:
                slots.append(
                    SoAEdge(ActionKind.UNFUSE, -1, tiles, vthreads, level, fused - 1)
                )
        return slots

    def _price(
        self, states: list[tuple], slot_lists: list[list[SoAEdge]]
    ) -> np.ndarray:
        """Set the benefit of a batch's legal slots in place; return their
        relaxed memory-check mask, concatenated in state order
        (``slot_lists[r]`` holds state ``r``'s action templates).

        One :meth:`SoAPack.row_terms` pass prices every level row of the
        legal slots and of their sources.  The memory mask, Formula 1's
        Q/F at the move's level, Formula 2's source footprint and the
        traffic of the roofline term's quick-latency misses all read from
        it.  A slot failing the memory check keeps benefit 0.0.
        """
        cand_lists = [
            [edge for edge in slots if edge.tiles is not None] for slots in slot_lists
        ]
        cands = [edge for legal in cand_lists for edge in legal]
        if not cands:
            return np.zeros(0, dtype=bool)
        # Row i < n is candidate i; row n + r is state r.
        n = len(cands)
        tiles3 = np.array([edge.tiles for edge in cands] + [s[0] for s in states])
        fused = np.array(
            [edge.fused for edge in cands] + [s[3] for s in states], dtype=np.int64
        )
        num_levels = tiles3.shape[2]
        fin, fpo, traffic = self.pack.row_terms(tiles3.transpose(0, 2, 1))
        memok, _regs = self._memok(fin[:, -1], fpo[:, 0], tiles3[:, :, 0], fused)
        fin_l, fpo_l, traffic_l = fin.tolist(), fpo.tolist(), traffic.tolist()

        # Formula 1-3, in candidate order.
        groups: list[tuple[tuple, int, list[tuple[int, SoAEdge]]]] = []
        ok = iter(enumerate(memok.tolist()))
        for src, (state, legal) in enumerate(zip(states, cand_lists), n):
            tiles, vthreads, level, fused_src = state
            accel: list[tuple[int, SoAEdge]] = []
            for edge in legal:
                row, edge_ok = next(ok)
                if not edge_ok:
                    continue
                if edge.kind in (ActionKind.TILE_UP, ActionKind.TILE_DOWN):
                    lv = level - 1
                    edge.benefit = self._tiling_ratio(
                        traffic_l[src][lv], fpo_l[src][lv], traffic_l[row][lv], fpo_l[row][lv]
                    )
                elif edge.kind == ActionKind.CACHE:
                    edge.benefit = self._caching_benefit(
                        fin_l[src][level - 1], level, num_levels
                    )
                elif edge.kind == ActionKind.FUSE:
                    edge.benefit = self._fuse_benefit[fused_src]
                elif edge.kind == ActionKind.UNFUSE:
                    edge.benefit = self._unfuse_benefit[fused_src]
                else:
                    edge.benefit = self._vthread_benefit(
                        edge.axis,
                        tiles,
                        num_levels,
                        int(vthreads[edge.axis]),
                        int(edge.vthreads[edge.axis]),
                    )
                if edge.kind not in _NO_ACCEL and self.multi_objective:
                    accel.append((row, edge))
            if accel:
                groups.append((state, src, accel))
        if groups:
            self._apply_acceleration(groups, tiles3, fused, memok, traffic)
        return memok[:n]

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

    def _caching_benefit(self, s_bytes: int, level: int, num_levels: int) -> float:
        """Formula 2 from the source's current-level input footprint."""
        hw = self.hw
        if level >= num_levels:
            low, high = hw.dram, hw.smem
        else:
            low, high = hw.smem, hw.regs
        s_data = float(s_bytes)
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

    def _latency_key(self, tiles: np.ndarray, vthreads: np.ndarray, fused: int) -> tuple:
        """The key of a state in the bundle's latency memos."""
        return (tiles.tobytes(), vthreads.tobytes(), self._tags[fused])

    def _apply_acceleration(
        self,
        groups: list[tuple[tuple, int, list[tuple[int, SoAEdge]]]],
        tiles3: np.ndarray,
        fused: np.ndarray,
        memok: np.ndarray,
        traffic: np.ndarray,
    ) -> None:
        """The roofline term of ``action_benefit``, memo-backed, for a
        round's tile and vThread edges, grouped by source state.

        ``groups`` holds ``(state, source row, [(candidate row, edge)])``;
        a row indexes ``_price``'s stacked ``tiles3``, ``fused``, memory
        mask and per-level traffic.  Those moves keep their source's fused
        count, so an edge and its source price at one fused count.  The
        sources missing from the quick memo are priced in one
        :meth:`_quick_masked` pass, then the destinations still missing in
        another.
        """

        def price(rows: list[int], vthreads: list[np.ndarray]) -> list[float]:
            return self._quick_masked(
                tiles3[rows], np.array(vthreads), fused[rows], memok[rows], traffic[rows]
            ).tolist()

        befores = _memo_rows(
            self.bundle.quick,
            [self._latency_key(t, v, f) for (t, v, _l, f), _src, _edges in groups],
            lambda idx: price(
                [groups[i][1] for i in idx], [groups[i][0][1] for i in idx]
            ),
            _MEMO_CAP,
        )
        dsts = [item for _state, _src, edges in groups for item in edges]
        afters = iter(
            _memo_rows(
                self.bundle.quick,
                [self._latency_key(e.tiles, e.vthreads, e.fused) for _row, e in dsts],
                lambda idx: price(
                    [dsts[i][0] for i in idx], [dsts[i][1].vthreads for i in idx]
                ),
                _MEMO_CAP,
            )
        )
        for (_state, _src, edges), before in zip(groups, befores):
            for _row, edge in edges:
                after = next(afters)
                if not math.isfinite(after) or after <= 0:
                    accel = 0.0
                elif not math.isfinite(before):
                    accel = 4.0
                else:
                    accel = min(16.0, before / after)
                edge.benefit = edge.benefit * accel

    # -- legality / feature kernels -------------------------------------------

    def _spatial_points(self, tiles: np.ndarray) -> np.ndarray:
        """Points of the spatial tile per row (``ETIR._spatial_tile_points``)."""
        return tiles[:, self.pack.spatial_cols].prod(axis=1)

    def _memok(
        self,
        smem_fp: np.ndarray,
        regs_fp: np.ndarray,
        thread: np.ndarray,
        fused: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Traversal-time memory check per row: smem slab + register budget.

        ``smem_fp`` is the block row's input footprint and ``regs_fp`` the
        thread row's footprint with its output tile
        (:meth:`SoAPack.row_terms`).  ``fused`` is the per-row fused count:
        fused epilogues' extra inputs live in registers at the spatial
        thread tile.  Returns ``(ok, regs)``; the register count feeds the
        strict check.
        """
        regs_nbytes = regs_fp
        if self.epilogues:
            regs_nbytes = regs_nbytes + self._ep_bytes[fused] * self._spatial_points(
                thread
            )
        regs = np.maximum(
            1, np.ceil(regs_nbytes.astype(np.float64) / 4).astype(np.int64)
        )
        ok = (smem_fp <= self.hw.smem.capacity_bytes) & (regs <= 255)
        return ok, regs

    def _tpb(self, block: np.ndarray, thread: np.ndarray) -> np.ndarray:
        """threads_per_block per row (exact int64)."""
        sp = self.pack.spatial_cols
        return np.ceil(block[:, sp] / thread[:, sp]).astype(np.int64).prod(axis=1)

    def _nblk(self, block: np.ndarray) -> np.ndarray:
        """num_blocks per row (exact int64)."""
        pack = self.pack
        return (
            np.ceil(pack.spatial_extents / block[:, pack.spatial_cols])
            .astype(np.int64)
            .prod(axis=1)
        )

    def _dram_q(
        self,
        block: np.ndarray,
        fused: np.ndarray,
        nblk: np.ndarray,
        traffic: np.ndarray,
    ) -> np.ndarray:
        """``float(ETIR.dram_traffic_bytes())`` per row (``nblk`` is
        :meth:`_nblk` of ``block``, ``traffic`` its
        :meth:`SoAPack.row_terms` traffic).

        Fused rows add their epilogues' extra inputs, streamed once per
        block at the spatial block tile — exact Python ints, as the object
        path sums them.
        """
        if not self.epilogues or not fused.any():
            return traffic.astype(np.float64)
        ep_bytes = self._ep_bytes[fused].tolist()
        pts = self._spatial_points(block).tolist()
        return np.array(
            [
                float(q + nb * (p * eb))
                for q, nb, p, eb in zip(traffic.tolist(), nblk.tolist(), pts, ep_bytes)
            ],
            dtype=np.float64,
        )

    def _coalescing(self, block: np.ndarray) -> np.ndarray:
        """Footprint-weighted coalescing factor per row.

        Same access loop, same accumulation order, same float operations
        as :func:`repro.sim.costmodel.coalescing`.
        """
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
        vt = vthreads.prod(axis=1)
        groups = np.ceil(
            span.astype(np.float64)
            / (vt * self.hw.bank_width_elems).astype(np.float64)
        )
        return 1.0 + 0.35 * (groups - 1.0)

    def _shared_cols(
        self,
        block: np.ndarray,
        thread: np.ndarray,
        vthreads: np.ndarray,
        fused: np.ndarray,
        traffic: np.ndarray,
    ) -> tuple[np.ndarray, ...]:
        """The feature columns both cost models derive alike, per feasible
        row: ``(num_blocks, thread_points, coalesce, conflict, dram_q,
        smem_q)``, the block count as int64 and the rest float64.
        ``traffic`` is the rows' ``(n, L)`` per-level
        :meth:`SoAPack.row_terms` traffic: ``dram_q`` reads the block
        level's, ``smem_q`` the thread level's.

        ``thread_points`` is the thread tile's point product, multiplied
        sequentially in float64 as the scalar models do (one int64
        product when the pack proves every partial product exact).
        """
        pack = self.pack
        nblk = self._nblk(block)
        if pack.products_f64_exact:
            thread_points = thread.prod(axis=1).astype(np.float64)
        else:
            thread_points = np.ones(block.shape[0])
            for a in range(pack.num_axes):
                thread_points = thread_points * thread[:, a].astype(np.float64)
        return (
            nblk,
            thread_points,
            self._coalescing(block),
            self._conflict(block, thread, vthreads),
            self._dram_q(block, fused, nblk, traffic[:, -1]),
            traffic[:, 0].astype(np.float64),
        )

    def _quick_latencies(
        self, tiles3: np.ndarray, vthreads2: np.ndarray, fused: np.ndarray
    ) -> np.ndarray:
        """``quick_latency(strict=False)`` per row, via ``quick_pipe``."""
        fin, fpo, traffic = self.pack.row_terms(tiles3.transpose(0, 2, 1))
        ok, _regs = self._memok(fin[:, -1], fpo[:, 0], tiles3[:, :, 0], fused)
        return self._quick_masked(tiles3, vthreads2, fused, ok, traffic)

    def _quick_masked(
        self,
        tiles3: np.ndarray,
        vthreads2: np.ndarray,
        fused: np.ndarray,
        ok: np.ndarray,
        traffic: np.ndarray,
    ) -> np.ndarray:
        """``quick_latency(strict=False)`` per row from its relaxed memory
        mask ``ok`` and ``(n, L)`` per-level traffic: ``inf`` where the
        mask fails, ``quick_pipe`` elsewhere."""
        out = np.full(tiles3.shape[0], math.inf)
        idx = np.nonzero(ok)[0]
        if idx.size:
            tiles = tiles3[idx]
            cols = self._quick_cols(
                tiles[:, :, -1], tiles[:, :, 0], vthreads2[idx], fused[idx], traffic[idx]
            )
            out[idx] = quick_pipe(cols, self.hw)
        return out

    def _quick_cols(
        self,
        block: np.ndarray,
        thread: np.ndarray,
        vthreads: np.ndarray,
        fused: np.ndarray,
        traffic: np.ndarray,
    ) -> np.ndarray:
        """The 8 ``quick_pipe`` feature rows for feasible rows."""
        nblk, thread_points, coalesce, conflict, dram_q, smem_q = self._shared_cols(
            block, thread, vthreads, fused, traffic
        )
        return np.array(
            [
                self._tpb(block, thread).astype(np.float64),
                nblk.astype(np.float64),
                thread_points,
                coalesce,
                conflict,
                dram_q,
                smem_q,
                self._flops[fused],
            ]
        )

    def _full_latencies(
        self, tiles3: np.ndarray, vthreads2: np.ndarray, fused: np.ndarray
    ) -> np.ndarray:
        """``CostModel.evaluate(...).latency_s`` per row, via ``pipe_metrics``."""
        out = np.full(tiles3.shape[0], math.inf)
        idx, cols = self._full_features(tiles3, vthreads2, fused)
        if idx.size:
            out[idx] = pipe_metrics(cols, self.hw)[0]
        return out

    def _full_features(
        self, tiles3: np.ndarray, vthreads2: np.ndarray, fused: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Rows ``CostModel.evaluate`` would not reject as INFEASIBLE, and
        their 14 ``pipe_metrics`` feature columns (``None`` if no row is)."""
        hw = self.hw
        block = tiles3[:, :, -1]
        thread = tiles3[:, :, 0]
        fin, fpo, traffic = self.pack.row_terms(tiles3.transpose(0, 2, 1))
        smem_fp = fin[:, -1]
        ok, regs = self._memok(smem_fp, fpo[:, 0], thread, fused)
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
            traffic[idx],
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
        traffic: np.ndarray,
    ) -> np.ndarray:
        """The 14 ``pipe_metrics`` feature rows for feasible rows.

        Fused rows add the epilogue terms of ``CostModel._padded_flops`` /
        ``_inner_work`` after the anchor's, in the scalar operation order.
        """
        pack = self.pack
        n = block.shape[0]
        nblk, thread_points, coalesce, conflict, dram_q, smem_q = self._shared_cols(
            block, thread, vthreads, fused, traffic
        )
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
        inner_work = thread_points * pack.flops_per_point / 2.0
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
        vt = vthreads.prod(axis=1)
        unique_bytes = self._io[fused]
        reduce_chunks = (
            np.ceil(pack.reduce_extents / block[:, pack.reduce_cols])
            .astype(np.int64)
            .prod(axis=1)
        )
        return np.array(
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
        lats = _memo_rows(
            self.bundle.full,
            [self._latency_key(t, v, f) for t, v, f in states],
            lambda idx: self._full_latencies(
                np.array([states[i][0] for i in idx]),
                np.array([states[i][1] for i in idx]),
                np.array([states[i][2] for i in idx], dtype=np.int64),
            ).tolist(),
            _MEMO_CAP,
        )
        return np.array(lats, dtype=np.float64)

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

    def run_chains(
        self,
        cfg: "GensorConfig",
        starts: "list[tuple[np.random.Generator, dict, ChainCheckpoint | None]]",
        forbid: frozenset[str],
        tracer: Tracer,
        cancel: "CancelToken | None",
        *,
        checkpointer=None,
    ) -> list[int]:
        """Every annealed chain of a walk, advanced in lockstep rounds.

        ``starts`` holds one ``(rng, pool, resume)`` per chain, in chain
        order: the chain's generator, its packed candidate pool
        (``(tiles, vthreads, level, fused)`` rows keyed by the node key,
        in insertion order, never decoded — :meth:`rank` validates and
        prices a pool at once) and its checkpoint record, ``None`` for a
        fresh chain.  Returns each chain's iteration count.

        A round first expands the state of every chain due to step in one
        :meth:`expand` call, then steps those chains in chain order, each
        exactly as a chain walked alone: one ``cancel`` poll, the roulette's
        ``random`` draw and one more from its own generator, the
        pool append, its ``walk_step`` event, cooling, and the
        checkpointer's step hook.  A chain stops — appending its last
        state and emitting ``chain_end`` there — at the start of a round
        once it reaches the threshold or the iteration cap, or at its turn
        when its frontier is empty; it sits out later rounds.  Each
        chain's trajectory, pool and events are byte-identical to the
        reference engine's.

        The chains due in a round are the live ones at the lowest
        iteration: all of them in a walk from the start, and on resume
        from a snapshot taken mid-round, the chains that had not yet
        stepped in it, so the round is finished before the next begins.
        """
        compute_name = self.compute.name
        a_count = self.pack.num_axes
        chains: list[_Chain] = []
        for tid, (rng, pool, resume) in enumerate(starts):
            if resume is None:
                tiles = np.ones((a_count, self.num_levels), dtype=np.int64)
                vthreads = np.ones(a_count, dtype=np.int64)
                chains.append(
                    _Chain(
                        tid, rng, pool, tiles, vthreads, self.num_levels, 0,
                        cfg.initial_temperature,
                    )
                )
            else:
                tiles, vthreads, level, fused = resume.state
                chains.append(
                    _Chain(
                        tid, rng, pool, np.array(tiles, dtype=np.int64),
                        np.array(vthreads, dtype=np.int64), level, fused,
                        resume.temperature, resume.iteration, resume.done,
                    )
                )

        def stop(chain: _Chain) -> None:
            chain.pool[
                self._key(chain.tiles, chain.vthreads, chain.level, chain.fused)
            ] = (chain.tiles, chain.vthreads, chain.level, chain.fused)
            chain.done = True
            if tracer.enabled:
                emit_chain_end(
                    tracer, compute_name, chain.tid, chain.iteration,
                    chain.level, chain.temperature,
                )

        while True:
            live = [c for c in chains if not c.done]
            if not live:
                break
            lag = min(c.iteration for c in live)
            stepping: list[_Chain] = []
            for c in live:
                if c.iteration != lag:
                    continue
                if (
                    c.temperature > cfg.threshold
                    and c.iteration < cfg.max_iterations_per_chain
                ):
                    stepping.append(c)
                else:
                    stop(c)
            if not stepping:
                continue
            frontiers = self.expand(
                [(c.tiles, c.vthreads, c.level, c.fused) for c in stepping]
            )
            for c, edges in zip(stepping, frontiers):
                if cancel is not None:
                    cancel.check()
                progress = math.log2(cfg.initial_temperature / c.temperature)
                kept, probs = self._probabilities(edges, progress, forbid)
                if not kept:
                    stop(c)
                    continue
                idx = _roulette(c.rng, probs)
                edge = kept[idx]
                src_level = c.level
                c.tiles, c.vthreads, c.level, c.fused = (
                    edge.tiles, edge.vthreads, edge.level, edge.fused
                )
                appended = c.rng.random() < append_probability(c.temperature)
                if appended:
                    c.pool[self._key(c.tiles, c.vthreads, c.level, c.fused)] = (
                        c.tiles, c.vthreads, c.level, c.fused
                    )
                if tracer.enabled:
                    emit_walk_step(
                        tracer, compute_name, c.tid, c.iteration, c.temperature,
                        src_level, kept, probs, idx, appended,
                    )
                c.temperature *= cfg.cooling
                c.iteration += 1
                if checkpointer is not None:
                    checkpointer.on_step(
                        cancel, lambda: self._build_checkpoint(cfg, chains)
                    )
        return [c.iteration for c in chains]

    # -- the candidate pool: packing and ranking ---------------------------------

    def add_states(self, pool: dict[tuple, tuple], states: Iterable[ETIR]) -> None:
        """Add ETIR states (seeds, restored or polished candidates) to a
        packed pool; a state already present keeps its place."""
        for state in states:
            tiles, vthreads = state.config_arrays()
            pool.setdefault(
                self._key(tiles, vthreads, state.cur_level, state.fused),
                (tiles, vthreads, state.cur_level, state.fused),
            )

    def rank(self, pool: dict[tuple, tuple], top_k: int) -> list[ETIR]:
        """The ``top_k`` best pool states by program cost, best first.

        The reference ranking on the packed pool: the whole pool is checked
        against the ETIR invariants and priced in one memo-backed full-model
        pass, plus the pending-epilogue penalty of each row's fused count;
        ties keep insertion order, infeasible rows (non-finite cost) drop
        out, and only the survivors that make the cut are decoded.
        """
        if not pool:
            return []
        rows = list(pool.values())
        frontier = SoAFrontier.from_rows(self.compute, self.epilogues, rows)
        frontier.check()
        costs = self._program_latencies([(t, v, f) for t, v, _l, f in rows])
        order = np.argsort(costs, kind="stable")
        order = order[np.isfinite(costs[order])][:top_k]
        return [frontier.state(int(i)) for i in order]

    # -- greedy refinement (mirrors the reference polish) ----------------------

    def polish(
        self,
        states: list[ETIR],
        max_steps: int,
        forbid: frozenset[str] = frozenset(),
        tracer: Tracer | None = None,
        cancel: "CancelToken | None" = None,
    ) -> list[ETIR]:
        """Greedy value refinement of a batch of states, stepped together.

        Value-identical to polishing each state alone on the reference:
        the same neighbor enumeration order (fuse/unfuse last), the same
        full-model latencies (``pipe_metrics``) plus, for a fusion group,
        the standalone cost of every epilogue left unfused, and per state
        the same first-strict-improvement tie-break, step count and stop.
        Each step prices the neighbours of every state still improving in
        one memo-backed pass.  One ``polish`` event per state is emitted,
        in batch order, each carrying an even share of the batch's wall
        time.  States must carry this engine's epilogue pool.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        t0 = time.perf_counter() if tracer.enabled else 0.0
        vthread_allowed = ActionKind.VTHREAD_UP not in forbid
        current = [(*s.config_arrays(), s.fused) for s in states]
        start_lats = self._program_latencies(current).tolist()
        best_lats = list(start_lats)
        steps = [0] * len(states)
        active = list(range(len(states)))
        for _ in range(max_steps):
            if not active:
                break
            if cancel is not None:
                cancel.check()
            rows: list[tuple[np.ndarray, np.ndarray, int]] = []
            spans = []
            for i in active:
                tiles, vthreads, fused = current[i]
                lo = len(rows)
                rows += self._polish_neighbors(tiles, vthreads, fused, vthread_allowed)
                spans.append((i, lo, len(rows)))
            if not rows:
                break
            lats = self._program_latencies(rows)
            active = []
            for i, lo, hi in spans:
                if lo == hi:
                    continue
                # argmin's first-occurrence rule is the reference loop's
                # "first strict improvement over all previous" bookkeeping.
                j = lo + int(np.argmin(lats[lo:hi]))
                if not lats[j] < best_lats[i]:
                    continue
                current[i] = rows[j]
                best_lats[i] = float(lats[j])
                steps[i] += 1
                active.append(i)
        polished = [
            self._decode(tiles, vthreads, s.cur_level, fused)
            for (tiles, vthreads, fused), s in zip(current, states)
        ]
        if tracer.enabled:
            dur = (time.perf_counter() - t0) / max(1, len(states))
            for s, n, before, after in zip(states, steps, start_lats, best_lats):
                emit_polish(
                    tracer, s.compute.name, n, max_steps, before, after, dur
                )
        return polished

    def _program_latencies(
        self, rows: list[tuple[np.ndarray, np.ndarray, int]]
    ) -> np.ndarray:
        """Program cost (the rank and polish objective) per ``(tiles,
        vthreads, fused)`` row: full-model latency, plus the
        pending-epilogue penalty for a fusion group."""
        lats = self._full_latencies_memo(rows)
        if self.epilogues:
            lats = lats + self._penalty[[f for _t, _v, f in rows]]
        return lats

    def _polish_neighbors(
        self,
        tiles: np.ndarray,
        vthreads: np.ndarray,
        fused: int,
        vthread_allowed: bool,
    ) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """The reference ``all_level_neighbors`` on arrays, in order."""
        pack = self.pack
        rows = tiles.tolist()
        vlist = vthreads.tolist()
        out: list[tuple[np.ndarray, np.ndarray, int]] = []
        for a in range(pack.num_axes):
            for level in range(1, len(rows[a]) + 1):
                for up in (True, False):
                    dst = self._tile_step(tiles, rows, vlist, a, level, up)
                    if dst is not None:
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


def _compare_edges(where: str, edges: list, soa_edges: list[SoAEdge]) -> None:
    """``graph.expand``'s edges against the engine's, edge for edge."""
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
        dst_cfg = state_config(edge.dst)
        if dst_cfg != se.dst_config():
            raise SoAParityError(f"{ctx}: dst {dst_cfg} != {se.dst_config()}")


class DifferentialWalker:
    """Runs the object path and the SoA path in lockstep and cross-checks.

    Three granularities per state: *slot level* (every enumerated action
    template: legality, memory check, benefit bits, destination config,
    against the graph's memo-free scalar oracle), *edge level* (the
    surviving edge lists of ``graph.expand`` vs ``engine.expand``), and
    *probability level* (the normalized transition distributions,
    byte-compared).  :meth:`compare_round` checks a whole lockstep round:
    one batched ``engine.expand`` against ``graph.expand`` per state.  :meth:`walk` drives an annealed walk through both
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
                dst_cfg = state_config(nxt)
                if dst_cfg != d["dst_config"]:
                    raise SoAParityError(
                        f"{ctx}: dst {dst_cfg} != {d['dst_config']}"
                    )
            _assert_same_float(benefit, d["benefit"], f"{ctx} benefit")

        # Edge level: the memoized surviving frontiers.
        edges = self.graph.expand(state)
        soa_edges = self.engine.expand([(tiles, vthreads, level, fused)])[0]
        _compare_edges(where, edges, soa_edges)

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

    def compare_round(self, states: list[ETIR]) -> int:
        """Cross-check one lockstep round's expansion.

        ``engine.expand`` over the whole batch must equal ``graph.expand``
        called per state in list order — edge for edge (kind, axis,
        benefit bits, destination config) — and leave both node counts
        equal.  Returns the number of edges compared.
        """
        rows = [(*s.config_arrays(), s.cur_level, s.fused) for s in states]
        frontiers = self.engine.expand(rows)
        compared = 0
        for i, (state, soa_edges) in enumerate(zip(states, frontiers)):
            edges = self.graph.expand(state)
            _compare_edges(
                f"round row {i}: {state.compute.name} state {state.key()!r}",
                edges,
                soa_edges,
            )
            compared += len(edges)
        if self.graph.num_nodes != self.engine.num_nodes:
            raise SoAParityError(
                f"round of {len(states)}: node counts diverge: object path "
                f"{self.graph.num_nodes} != SoA path {self.engine.num_nodes}"
            )
        return compared

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
        with :meth:`compare_state`; each step additionally draws the
        engine's roulette on a clone of the generator, asserts it picks
        ``rng.choice``'s edge and leaves the same generator state, and
        asserts the chosen edge lands on the same destination.  At the end the
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
                kept, s_probs = self.engine._probabilities(
                    self.engine.expand([(tiles, vthreads, level, fused)])[0],
                    progress,
                    forbid,
                )
                if not edges:
                    break
                clone = copy.deepcopy(rng)
                soa_idx = _roulette(clone, s_probs)
                idx = int(rng.choice(len(edges), p=probs))
                if (
                    soa_idx != idx
                    or clone.bit_generator.state != rng.bit_generator.state
                ):
                    raise SoAParityError(
                        f"chain {chain} iter {iteration}: the engine's roulette"
                        f" picked {soa_idx}, rng.choice {idx}, or left another"
                        " generator state"
                    )
                edge, soa_edge = edges[idx], kept[idx]
                dst_cfg = state_config(edge.dst)
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

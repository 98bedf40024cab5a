"""Footprint and traffic arithmetic over affine tensor accesses.

These three functions are the shared analytical core of the whole
reproduction: Roller's single objective (memory-reuse ratio), Gensor's
tiling benefit (paper Formula 1, ``Q(T)F(T') / Q(T')F(T)``), and the
simulator's memory-traffic terms are all built from them.

The model is the standard tile-reuse model: when the iteration space is
tiled with per-axis tile sizes ``T``, each tile stages the exact affine
footprint of every input once into the target memory level, and each
spatial tile writes its output once (reductions accumulate in registers).
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.ir.compute import ComputeDef, TensorAccess

__all__ = [
    "access_footprint_elems",
    "tile_footprint_bytes",
    "tile_traffic_bytes",
    "num_tiles",
    "reuse_ratio",
]

#: per-ComputeDef tile-keyed memo cap; the cache lives in the compute's
#: ``__dict__`` and dies with it, this just bounds pathological streams.
_TILE_CACHE_CAP = 65_536


def _tile_cache(compute: ComputeDef) -> dict:
    """Per-compute memo for tile-keyed derived values.

    Stored straight in the (frozen) dataclass's ``__dict__`` — frozen only
    intercepts ``__setattr__``, and the cache is semantically invisible.
    Results depend only on the per-axis tile sizes, so the canonical key
    is the tile tuple in axis order; equal states priced as distinct
    instances (the polish sweep's bread and butter) hit the same slot.
    """
    cache = compute.__dict__.get("_tile_cache")
    if cache is None:
        cache = compute.__dict__["_tile_cache"] = {}
    elif len(cache) > _TILE_CACHE_CAP:
        cache.clear()
    return cache


def _tile_key(compute: ComputeDef, tile_sizes: Mapping[str, int]) -> tuple:
    return tuple(tile_sizes.get(ax.name, 1) for ax in compute.axes)


def _unique_inputs(compute: ComputeDef) -> list[TensorAccess]:
    """Inputs deduplicated by (tensor, index expressions) — repeated reads
    of the same slab share storage.  Computed once per compute."""
    uniq = compute.__dict__.get("_unique_inputs")
    if uniq is None:
        seen: set[tuple[str, tuple]] = set()
        uniq = []
        for acc in compute.inputs:
            key = (acc.tensor.name, acc.indices)
            if key in seen:
                continue
            seen.add(key)
            uniq.append(acc)
        compute.__dict__["_unique_inputs"] = uniq
    return uniq


def access_footprint_elems(
    access: TensorAccess, tile_sizes: Mapping[str, int]
) -> int:
    """Distinct elements of ``access.tensor`` touched by one tile.

    Each tensor dimension's index is affine in the iteration variables, so
    its value range over a tile is ``sum(|c_i| (t_i - 1)) + 1``, clipped to
    the tensor extent.  The footprint is the product over dimensions —
    exact for the stride patterns in the operator zoo.
    """
    footprint = 1
    for dim_extent, expr in zip(access.tensor.shape, access.indices):
        span = expr.extent_under_tiles(tile_sizes)
        footprint *= min(span, dim_extent)
    return footprint


def tile_footprint_bytes(
    compute: ComputeDef,
    tile_sizes: Mapping[str, int],
    include_output: bool = True,
) -> int:
    """Bytes one tile occupies in the staging memory level.

    This is ``F(T)`` in the paper's Formula 1, and the quantity the memory
    check compares against the level capacity.  Repeated reads of the same
    tensor with identical index expressions share storage.
    """
    cache = _tile_cache(compute)
    key = ("fp", _tile_key(compute, tile_sizes), include_output)
    total = cache.get(key)
    if total is None:
        total = 0
        for acc in _unique_inputs(compute):
            total += (
                access_footprint_elems(acc, tile_sizes) * acc.tensor.dtype_bytes
            )
        if include_output:
            out_elems = 1
            for ax in compute.spatial_axes:
                out_elems *= min(tile_sizes.get(ax.name, 1), ax.extent)
            total += out_elems * compute.output.dtype_bytes
        cache[key] = total
    return total


def num_tiles(compute: ComputeDef, tile_sizes: Mapping[str, int]) -> int:
    """Number of tiles covering the full iteration space."""
    n = 1
    for ax in compute.axes:
        t = min(tile_sizes.get(ax.name, 1), ax.extent)
        n *= math.ceil(ax.extent / t)
    return n


def tile_traffic_bytes(
    compute: ComputeDef, tile_sizes: Mapping[str, int]
) -> int:
    """Total bytes moved through the staging level for one operator run.

    ``Q(T)`` in the paper's Formula 1: every tile loads its input footprint
    once; every *spatial* tile writes its output slab once (reduce tiles
    accumulate in place and do not multiply output traffic).
    """
    cache = _tile_cache(compute)
    key = ("q", _tile_key(compute, tile_sizes))
    cached = cache.get(key)
    if cached is None:
        cached = cache[key] = _tile_traffic_bytes(compute, tile_sizes)
    return cached


def _tile_traffic_bytes(
    compute: ComputeDef, tile_sizes: Mapping[str, int]
) -> int:
    spatial_tiles = 1
    reduce_tiles = 1
    out_tile_elems = 1
    for ax in compute.axes:
        t = min(tile_sizes.get(ax.name, 1), ax.extent)
        count = math.ceil(ax.extent / t)
        if ax.is_reduce:
            reduce_tiles *= count
        else:
            spatial_tiles *= count
            out_tile_elems *= t
    input_bytes_per_tile = tile_footprint_bytes(
        compute, tile_sizes, include_output=False
    )
    input_traffic = spatial_tiles * reduce_tiles * input_bytes_per_tile
    output_traffic = spatial_tiles * out_tile_elems * compute.output.dtype_bytes
    return input_traffic + output_traffic


def reuse_ratio(compute: ComputeDef, tile_sizes: Mapping[str, int]) -> float:
    """FLOPs per byte moved under this tiling — Roller's single objective."""
    traffic = tile_traffic_bytes(compute, tile_sizes)
    return compute.total_flops / max(1, traffic)

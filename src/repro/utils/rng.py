"""Deterministic random-number management.

Every stochastic component in the reproduction (Markov roulette selection,
Ansor's evolutionary search, the simulator's measurement-noise model) draws
from an explicitly seeded :class:`numpy.random.Generator`.  Experiments pass
a single root seed and derive independent child streams with
:func:`spawn_rng`, so results are reproducible regardless of call order
between components.
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping

import numpy as np

__all__ = [
    "new_rng",
    "restore_rng",
    "rng_state",
    "spawn_rng",
    "spawn_seed_ints",
]


def new_rng(seed: int | None = 0) -> np.random.Generator:
    """Return a fresh, seeded :class:`numpy.random.Generator`.

    ``seed=None`` yields a non-deterministic generator; everything in the
    library defaults to seed 0 so that bare calls are reproducible.
    """
    return np.random.default_rng(seed)


def spawn_rng(seed: int, *labels: str | int) -> np.random.Generator:
    """Derive an independent child generator from ``seed`` and a label path.

    The labels are hashed (SHA-256, stable across runs and platforms, unlike
    Python's randomized ``hash``) together with the root seed, so the stream
    consumed by e.g. ``("ansor", "M3")`` never collides with or depends on
    the stream for ``("gensor", "M3")``.
    """
    return np.random.default_rng(_label_seed(seed, *labels))


def spawn_seed_ints(seed: int, *labels: str | int, n: int) -> list[int]:
    """``n`` deterministic child *seed integers* from a labeled spawn tree.

    ``SeedSequence.spawn`` children anchored at the same stable label hash
    as :func:`spawn_rng`, returned as plain ints for call sites that pass
    seeds onward (e.g. into :class:`~repro.core.constructor.GensorConfig`)
    rather than drawing directly.  The family is stable across runs and
    platforms and never collides with a ``spawn_rng`` stream (the spawn
    tree hashes differently from a direct seed).
    """
    root = np.random.SeedSequence(_label_seed(seed, *labels))
    return [
        int(child.generate_state(1, np.uint64)[0]) for child in root.spawn(n)
    ]


def rng_state(gen: np.random.Generator) -> dict[str, Any]:
    """Exact bit-generator state of ``gen`` as a plain-data dict.

    The dict contains only Python ints and strings (PCG64's 128-bit
    counters are arbitrary-precision ints), so it survives JSON and pickle
    round trips unchanged.  Feeding it to :func:`restore_rng` yields a
    generator whose future draws are bit-identical to continuing ``gen`` —
    the foundation of mid-walk checkpoint/resume parity.
    """
    return gen.bit_generator.state


def restore_rng(state: Mapping[str, Any]) -> np.random.Generator:
    """Rebuild a generator that continues the stream :func:`rng_state` froze.

    The bit-generator class is looked up by the name recorded in the state
    dict (``PCG64`` for every generator this library spawns), so a state
    captured on one process resumes exactly on another.
    """
    cls = getattr(np.random, str(state["bit_generator"]))
    bit_gen = cls()
    bit_gen.state = dict(state)
    return np.random.Generator(bit_gen)


def _label_seed(seed: int, *labels: str | int) -> int:
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:8], "little")

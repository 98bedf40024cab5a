"""Seeded open-loop traffic for the serve-zipf and fleet-zipf workloads.

Arrivals are Poisson at a fixed nominal rate.  Every ``PROGRAM_EVERY``-th
arrival (from a seeded offset) asks for a whole model as a program; the
others ask for one operator of a (model, batch, seq) configuration drawn
from a Zipf-ranked grid.

The seed drives the arrival times, the order of requests and the operator
picked first inside each configuration; the mix is held steady so that
runs with different seeds measure the same traffic:

* operator arrivals are a seeded shuffle of a fixed multiset: each
  configuration gets its Zipf share of them (largest-remainder rounding);
* inside a configuration, arrivals walk its operators round-robin;
* program arrivals cycle through the ``PROGRAM_CONFIGS`` most popular
  configurations, so every run compiles the same programs;
* the rank order of the grid is fixed, not seeded: smaller requests
  (fewer tokens, batch x seq) are more popular.

The mix is synthetic: no public trace of compile requests for these
models exists to fit it to.  Popularity follows Zipf's law with exponent
1.  The hit/warm split barely depends on the exponent (0.8 to 1.4 moves
the operator hit share by about 7 points); it is set by how many distinct
shapes the window reaches, so it depends on the window length.  See
NOTES.md for the shares.

Pure Python on purpose: the schedule is built before the program under
test is imported, and the self-tests check it without importing it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MODELS = ("bert", "gpt2")
BATCHES = (1, 2, 4, 8, 16, 32)
SEQS = (64, 128, 256, 512, 1024)
#: Zipf exponent of configuration popularity (Zipf's law: 1).
ZIPF_S = 1.0
#: one arrival in this many is a whole-model program (about 3%).
PROGRAM_EVERY = 33
#: program arrivals cycle through this many of the most popular configs:
#: a fifth of the grid, so the ~45 programs of a 25 s window visit each
#: config 3-4 times and a program tail is never one config's single walk.
PROGRAM_CONFIGS = 12


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: due ``t`` seconds after the window opens."""

    t: float
    kind: str  # "op" or "program"
    model: str
    batch: int
    seq: int
    #: operator pick inside the configuration (taken modulo its op count).
    pick: int


def ranked_grid() -> list[tuple[str, int, int]]:
    """Every (model, batch, seq) configuration, most popular first.

    Fewer tokens first (smaller batches first among equal token counts),
    then the model order of ``MODELS``.
    """
    grid = [(m, b, s) for m in MODELS for b in BATCHES for s in SEQS]
    return sorted(grid, key=lambda c: (c[1] * c[2], c[1], MODELS.index(c[0])))


def zipf_weights(n: int, s: float = ZIPF_S) -> list[float]:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def apportion(n: int, weights: list[float]) -> list[int]:
    """Split ``n`` draws by ``weights`` (largest-remainder rounding)."""
    total = sum(weights)
    exact = [n * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda k: counts[k] - exact[k])
    for k in by_remainder[: n - sum(counts)]:
        counts[k] += 1
    return counts


def schedule(seed: int, rate_rps: float, seconds: float) -> list[Arrival]:
    """The arrival schedule of one window; identical for identical args."""
    if rate_rps <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    rng = random.Random(seed)
    times = []
    t = rng.expovariate(rate_rps)
    while t < seconds:
        times.append(t)
        t += rng.expovariate(rate_rps)
    offset = rng.randrange(PROGRAM_EVERY)
    grid = ranked_grid()
    n_programs = sum(1 for i in range(len(times)) if i % PROGRAM_EVERY == offset)
    counts = apportion(len(times) - n_programs, zipf_weights(len(grid)))
    configs = [config for config, k in zip(grid, counts) for _ in range(k)]
    rng.shuffle(configs)
    next_config = iter(configs)
    program = rng.randrange(PROGRAM_CONFIGS)
    picks: dict = {}
    out: list[Arrival] = []
    for i, t in enumerate(times):
        if i % PROGRAM_EVERY == offset:
            config, kind, pick = grid[program % PROGRAM_CONFIGS], "program", 0
            program += 1
        else:
            config, kind = next(next_config), "op"
            pick = picks[config] = picks.get(config, rng.randrange(1 << 30)) + 1
        out.append(Arrival(t, kind, *config, pick))
    return out

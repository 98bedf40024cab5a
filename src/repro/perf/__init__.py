"""Performance infrastructure for the construction hot path.

``repro.perf`` holds the pieces that make analytical pricing cheap enough
to match the paper's compile-time claims: the process-wide
:class:`~repro.perf.memo.MetricsMemo` (one bounded LRU over cost-model
evaluations shared by every consumer), the structure-of-arrays walk engine
(:mod:`repro.perf.soa`) every compile runs on, and the walk benchmark
(:mod:`repro.perf.bench`) that gives each PR a measured states/sec
trajectory.
"""

from repro.perf.memo import MetricsMemo, get_memo, reset_memo

__all__ = [
    "MetricsMemo",
    "get_memo",
    "reset_memo",
    "SoAWalkEngine",
    "DifferentialWalker",
]

_SOA_NAMES = frozenset({"SoAWalkEngine", "DifferentialWalker"})


def __getattr__(name: str):
    # Lazy: repro.perf.soa pulls in numpy-heavy machinery the memo-only
    # consumers (serve, fleet) never need.
    if name in _SOA_NAMES:
        from repro.perf import soa

        return getattr(soa, name)
    raise AttributeError(f"module 'repro.perf' has no attribute {name!r}")

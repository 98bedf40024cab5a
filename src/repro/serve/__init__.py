"""Concurrent compile serving (beyond the paper).

The ROADMAP's production north star needs more than a fast single-request
compiler: :class:`CompileService` turns the Gensor + ScheduleCache +
DynamicGensor stack into a multi-tenant service — a bounded, supervised
worker pool with admission control
(:mod:`repro.resilience.supervisor`), single-flight
deduplication of concurrent identical shapes
(:mod:`repro.serve.singleflight`), deadline-aware graceful degradation
(:mod:`repro.serve.service`), and operational stats
(:mod:`repro.serve.stats`).  ``python -m repro serve-bench``
(:mod:`repro.serve.bench`) replays synthetic dynamic-shape traffic
through it.
"""

from repro.serve.bench import BenchReport, bench_config, run_serve_bench
from repro.serve.program import ProgramRequest, ProgramResponse, serve_program
from repro.serve.request import (
    CompileRequest,
    CompileResponse,
    ServeTicket,
    TIERS,
)
from repro.serve.service import CompileService
from repro.serve.singleflight import SingleFlight
from repro.serve.stats import ServiceStats, percentile

__all__ = [
    "BenchReport",
    "bench_config",
    "run_serve_bench",
    "CompileRequest",
    "CompileResponse",
    "CompileService",
    "ProgramRequest",
    "ProgramResponse",
    "serve_program",
    "ServeTicket",
    "ServiceStats",
    "SingleFlight",
    "TIERS",
    "percentile",
]

"""Request/response types of the compile service.

A :class:`CompileRequest` is one tenant's ask: optimize this operator on
this device, ideally within ``deadline_s``.  The service answers with a
:class:`CompileResponse` tagged with the tier that served it — from exact
cache hit down through deadline-degraded fallbacks — and hands callers a
:class:`ServeTicket`, a minimal future that resolves when a worker (or the
coalesced leader's worker) finishes.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.core.cache import CachedSchedule
from repro.core.constructor import GensorResult
from repro.ir.compute import ComputeDef

__all__ = ["CompileRequest", "CompileResponse", "ServeTicket", "TIERS"]

#: every tier a response can be served from, best to worst:
#: ``hit``            exact cached schedule, microsecond path
#: ``warm``           nearest-neighbor warm start, full polish budget
#: ``cold``           full graph construction
#: ``degraded_warm``  deadline fallback: warm start, reduced polish budget
#: ``degraded_seed``  deadline fallback: best canonical seed state, no search
#: ``rejected``       admission control refused the request
#: ``failed``         the compilation raised
TIERS = (
    "hit",
    "warm",
    "cold",
    "degraded_warm",
    "degraded_seed",
    "rejected",
    "failed",
)

_REQUEST_IDS = itertools.count(1)


@dataclass
class CompileRequest:
    """One compile ask, stamped at submission time."""

    compute: ComputeDef
    #: wall-clock budget (seconds from submission) the caller can tolerate;
    #: ``None`` means best effort with no degradation.
    deadline_s: float | None = None
    #: higher runs earlier when the queue has a backlog.
    priority: int = 0
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))
    submitted_at: float = field(default_factory=time.perf_counter)
    #: times this request's worker died mid-serve and the ticket was
    #: requeued (bounded by the service's crash-requeue cap).
    crashes: int = 0
    #: last mid-walk checkpoint taken while serving this request — seeded
    #: at submission when the caller resumes earlier work, refreshed by the
    #: service's checkpointer sink, and carried across crash requeues (the
    #: same request object is resubmitted) so a retried attempt continues
    #: the walk instead of restarting it.
    checkpoint: object | None = None
    #: program fusion: epilogue pool (ComputeDefs) the construction walk
    #: may fuse into this operator's kernel.  A non-empty pool makes this a
    #: group request: the cache tiers, single-flight and walk checkpoints
    #: key it by :func:`~repro.core.cache.group_fingerprint` (anchor plus
    #: pool shapes).
    epilogues: tuple = ()

    def remaining_s(self, now: float | None = None) -> float | None:
        """Deadline budget still available, or ``None`` when unconstrained."""
        if self.deadline_s is None:
            return None
        now = time.perf_counter() if now is None else now
        return self.deadline_s - (now - self.submitted_at)


@dataclass
class CompileResponse:
    """The service's answer, tagged with how it was produced."""

    request_id: int
    tier: str
    ok: bool
    result: GensorResult | None = None
    #: True when this response shares another request's in-flight compilation.
    coalesced: bool = False
    #: admission-control or failure reason (``queue_full``, ``shutting_down``,
    #: or an exception string).
    reason: str | None = None
    #: submission-to-completion wall clock for *this* request.
    service_latency_s: float = 0.0
    deadline_s: float | None = None
    #: the served answer as a portable schedule (kernel latency, fused
    #: count, pending-epilogue cost); ``None`` unless ``ok``.
    schedule: CachedSchedule | None = None

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ValueError(f"unknown serve tier {self.tier!r}")

    @property
    def degraded(self) -> bool:
        return self.tier.startswith("degraded")

    @property
    def compile_seconds(self) -> float:
        """Compile cost (wall + simulated profiling) of the serving walk."""
        return 0.0 if self.result is None else self.result.compile_seconds

    @property
    def deadline_met(self) -> bool:
        """Whether the answer arrived inside the caller's budget."""
        if not self.ok:
            return False
        if self.deadline_s is None:
            return True
        return self.service_latency_s <= self.deadline_s

    @property
    def latency_s(self) -> float:
        """Predicted kernel latency of the served schedule."""
        if self.result is None:
            raise ValueError(f"request {self.request_id} has no schedule "
                             f"(tier {self.tier})")
        return self.result.best_metrics.latency_s


class ServeTicket:
    """Future-like handle for one submitted request."""

    def __init__(self, request: CompileRequest) -> None:
        self.request = request
        self._done = threading.Event()
        self._response: CompileResponse | None = None
        self._callbacks: list = []
        self._cb_lock = threading.Lock()

    def done(self) -> bool:
        return self._done.is_set()

    def add_done_callback(self, fn) -> None:
        """Invoke ``fn(response)`` when the ticket resolves.

        Runs on the fulfilling worker's thread (or immediately on the
        caller's if already resolved) — the fleet's shard loop uses this to
        forward completions over the response pipe without a waiter thread
        per request.  Callback exceptions propagate to the fulfiller, which
        treats them like any other item failure.
        """
        with self._cb_lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn(self._response)

    def result(self, timeout: float | None = None) -> CompileResponse:
        """Block until the response is ready (raises ``TimeoutError``)."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request.request_id} not served "
                f"within {timeout}s"
            )
        assert self._response is not None
        return self._response

    def fulfill(self, response: CompileResponse) -> None:
        """Resolve the ticket (service-internal; one-shot)."""
        if self._done.is_set():  # pragma: no cover - defensive
            raise RuntimeError(
                f"request {self.request.request_id} fulfilled twice"
            )
        with self._cb_lock:
            self._response = response
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(response)

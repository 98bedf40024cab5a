"""Program-level serving: the one driver from a fusion plan to a program.

A :class:`ProgramRequest` is one tenant's ask for a *model*, not a single
operator: the graph is fusion-planned up front
(:func:`repro.models.program.plan_fusion`) and each
:class:`~repro.models.program.FusedGroup` becomes one operator-level
submission carrying the group's epilogue pool, so every group's
construction walk explores fusion.  :func:`serve_program` drives those
submissions through any ``submit`` — a
:class:`~repro.serve.service.CompileService`'s, a
:class:`~repro.fleet.dispatcher.FleetDispatcher`'s, or an in-process
compiler's via :func:`inline_submit` — and answers with a
:class:`ProgramResponse` wrapping a portable
:class:`~repro.models.program.CompiledProgram`.

Both request and response are wire-safe plain data (ComputeDefs, names,
floats, portable schedules — never live ETIR states or service objects).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.core.cache import CachedSchedule
from repro.models.graph import ModelGraph
from repro.models.program import (
    CompiledGroup,
    CompiledProgram,
    plan_fusion,
)
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.serve.request import CompileRequest, CompileResponse, ServeTicket

__all__ = ["ProgramRequest", "ProgramResponse", "inline_submit", "serve_program"]

_PROGRAM_IDS = itertools.count(1)


@dataclass(frozen=True)
class ProgramRequest:
    """One whole-model compile ask: fusion groups in model order."""

    model: str
    batch: int
    #: the planned fusion groups; each compiles as one service request.
    groups: tuple = ()
    fusion: bool = True
    deadline_s: float | None = None
    priority: int = 0
    request_id: int = field(default_factory=lambda: next(_PROGRAM_IDS))

    @classmethod
    def from_graph(
        cls,
        graph: ModelGraph,
        fusion: bool = True,
        deadline_s: float | None = None,
        priority: int = 0,
    ) -> "ProgramRequest":
        state = plan_fusion(graph, fusion=fusion)
        return cls(
            model=graph.name,
            batch=graph.batch,
            groups=tuple(state.groups),
            fusion=fusion,
            deadline_s=deadline_s,
            priority=priority,
        )


@dataclass
class ProgramResponse:
    """The whole-model answer."""

    request_id: int
    ok: bool
    program: CompiledProgram | None = None
    #: first failure reason when ``ok`` is False.
    reason: str | None = None
    #: submission-to-completion wall clock for the whole program.
    service_latency_s: float = 0.0

    @property
    def tiers(self) -> tuple[str, ...]:
        """Serve tier per group, aligned with ``program.groups``."""
        if self.program is None:
            return ()
        return tuple(g.tier for g in self.program.groups)

    @property
    def latency_s(self) -> float:
        if self.program is None:
            raise ValueError(
                f"program request {self.request_id} has no program "
                f"({self.reason})"
            )
        return self.program.latency_s


def inline_submit(compile_group, hw):
    """A ``submit`` that compiles on the caller's thread.

    ``compile_group(compute, epilogues)`` returns ``(GensorResult, tier)``;
    the returned :class:`ServeTicket` is already fulfilled with an ``ok``
    response whose schedule is priced on ``hw``.  Exceptions propagate to
    the caller of ``submit``.
    """

    def submit(compute, deadline_s=None, priority=0, epilogues=()):
        request = CompileRequest(
            compute=compute,
            deadline_s=deadline_s,
            priority=priority,
            epilogues=tuple(epilogues),
        )
        result, tier = compile_group(compute, request.epilogues)
        ticket = ServeTicket(request)
        ticket.fulfill(
            CompileResponse(
                request_id=request.request_id,
                tier=tier,
                ok=True,
                result=result,
                deadline_s=deadline_s,
                schedule=CachedSchedule.priced(
                    result.best, result.best_metrics.latency_s, hw
                ),
            )
        )
        return ticket

    return submit


def serve_program(
    submit,
    request: ProgramRequest,
    timeout: float | None = None,
    tracer=None,
    registry: MetricsRegistry | None = None,
) -> ProgramResponse:
    """Compile one ProgramRequest through ``submit``.

    ``submit(compute, deadline_s=..., priority=..., epilogues=...)``
    returns a :class:`ServeTicket` (the signature
    :meth:`CompileService.submit` and :meth:`FleetDispatcher.submit`
    share).  The fusion plan is announced once, on ``tracer`` (a
    ``fusion_plan`` event) and ``registry`` (the ``fusion_*`` counters;
    the process-wide registry by default).  Every group is submitted up
    front (they are independent kernels, so a pool parallelizes them),
    then collected in model order against one deadline ``timeout``
    seconds away.  One failed or late group fails the program — a
    partial program has no meaningful end-to-end latency.
    """
    t0 = time.perf_counter()
    num_fused_ops = sum(len(g.epilogues) for g in request.groups)
    registry = registry if registry is not None else get_registry()
    registry.counter("fusion_groups_total", model=request.model).inc(
        len(request.groups)
    )
    registry.counter("fusion_fused_ops_total", model=request.model).inc(
        num_fused_ops
    )
    if tracer is not None and tracer.enabled:
        tracer.emit(
            "fusion_plan",
            {
                "model": request.model,
                "batch": request.batch,
                "groups": [g.describe() for g in request.groups],
                "num_fused_ops": num_fused_ops,
            },
        )
    tickets = [
        submit(
            group.anchor,
            deadline_s=request.deadline_s,
            priority=request.priority,
            epilogues=group.epilogues,
        )
        for group in request.groups
    ]
    compiled: list[CompiledGroup] = []
    for group, ticket in zip(request.groups, tickets):
        wait = None
        if timeout is not None:
            wait = max(0.0, t0 + timeout - time.perf_counter())
        try:
            response = ticket.result(wait)
        except TimeoutError:
            failure = f"not served within {timeout}s"
        else:
            failure = None
            if not response.ok or response.schedule is None:
                failure = response.reason or response.tier
        if failure is not None:
            return ProgramResponse(
                request_id=request.request_id,
                ok=False,
                reason=f"group {group.anchor.name!r}: {failure}",
                service_latency_s=time.perf_counter() - t0,
            )
        compiled.append(
            CompiledGroup(
                anchor_name=group.anchor.name,
                epilogue_names=tuple(ep.name for ep in group.epilogues),
                count=group.count,
                tier=response.tier,
                schedule=response.schedule,
                compile_seconds=response.compile_seconds,
                anchor_label=ModelGraph.op_label(group.anchor),
            )
        )
    return ProgramResponse(
        request_id=request.request_id,
        ok=True,
        program=CompiledProgram(
            model=request.model, batch=request.batch, groups=compiled
        ),
        service_latency_s=time.perf_counter() - t0,
    )

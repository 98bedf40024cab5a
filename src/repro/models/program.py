"""Whole-graph program compilation: fusion groups over a ModelGraph.

A :class:`~repro.models.graph.ModelGraph` lists unique operator shapes in
the model's dataflow order.  :func:`plan_fusion` greedily groups each
compute-heavy *anchor* with the elementwise/epilogue chain that follows it
(softmax after attention scores, GELU after the FFN matmul, residual add
after layernorm) into :class:`FusedGroup`\\ s; each group compiles as ONE
construction walk whose ETIR states carry the epilogue pool, so the
annealed walk explores fuse/unfuse decisions alongside tiling ones (see
``repro.core.actions``).

The result is a :class:`CompiledProgram`: one :class:`CompiledGroup` per
fusion group — a wire-safe plain-data record (names, serve tier, the
portable :class:`~repro.core.cache.CachedSchedule`) that serve/fleet
responses can carry across process boundaries — plus program-level
latency/compile accounting consumed by
``repro.models.runner.compile_and_time``, the fig09/fig11 experiments, the
``compile-graph`` CLI, and ``CompileService.compile_program``.  Every
path builds it through one driver, :func:`repro.serve.program.serve_program`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cache import CachedSchedule
from repro.ir.compute import ComputeDef
from repro.models.graph import ModelGraph, OpInstance

__all__ = [
    "FusedGroup",
    "ProgramState",
    "CompiledGroup",
    "CompiledProgram",
    "plan_fusion",
    "is_epilogue_candidate",
    "compile_program",
    "MAX_EPILOGUES_PER_GROUP",
]

#: epilogue chain length cap per anchor — long chains explode the walk's
#: fusion branch with negligible extra launch savings.
MAX_EPILOGUES_PER_GROUP = 3


@dataclass(frozen=True)
class FusedGroup:
    """One fusion group: an anchor op plus its fusable epilogue chain.

    ``count`` is the group's execution count per inference — fusion only
    groups ops with *equal* counts, so the whole group launches together.
    """

    anchor: ComputeDef
    epilogues: tuple[ComputeDef, ...] = ()
    count: int = 1

    @property
    def num_ops(self) -> int:
        return 1 + len(self.epilogues)

    def describe(self) -> str:
        chain = " + ".join(ep.name for ep in self.epilogues)
        suffix = f" + {chain}" if chain else ""
        return f"{self.anchor.name}{suffix} (x{self.count})"


@dataclass
class ProgramState:
    """The program under compilation: its fusion groups in model order."""

    model: str
    batch: int
    groups: list[FusedGroup] = field(default_factory=list)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def num_fused_ops(self) -> int:
        """Ops absorbed into an anchor's kernel (kernels eliminated)."""
        return sum(len(g.epilogues) for g in self.groups)


@dataclass(frozen=True)
class CompiledGroup:
    """Wire-safe result of compiling one fusion group.

    Plain data only (names, tuples, floats, the portable schedule) — this
    crosses pickle/process boundaries in serve/fleet responses, so it must
    never carry live ETIR states or ComputeDefs.  The group's answer is its
    ``schedule``: with two tile levels it holds the whole tiling, the fused
    count, the kernel latency and the pending-epilogue cost.
    """

    anchor_name: str
    #: the group's full epilogue pool, by name.
    epilogue_names: tuple[str, ...]
    #: executions of this group per inference.
    count: int
    #: serve tier that answered the group (``cold`` for a plain compile).
    tier: str
    #: the winning schedule, shape-independent.
    schedule: CachedSchedule
    #: compile cost (wall + simulated measurement) of this group's answer.
    compile_seconds: float
    #: shape-suffixed anchor label (``name@ExtentxExtent...``) — unlike
    #: ``anchor_name``, unique across same-named ops at different shapes.
    anchor_label: str = ""

    @property
    def fused(self) -> int:
        """How many pool epilogues the winning schedule fused."""
        return self.schedule.fused

    @property
    def kernel_latency_s(self) -> float:
        """Measured latency of the group's fused kernel (one execution)."""
        return self.schedule.latency_s

    @property
    def pending_cost_s(self) -> float:
        """Standalone cost of the epilogues the winner left unfused."""
        return self.schedule.pending_s

    @property
    def latency_s(self) -> float:
        """Program latency of one group execution: the fused kernel plus
        every epilogue kernel the schedule did not absorb."""
        return self.schedule.cost_s


@dataclass
class CompiledProgram:
    """A whole model compiled as one program of fused groups."""

    model: str
    batch: int
    groups: list[CompiledGroup] = field(default_factory=list)
    method: str = "gensor"

    @property
    def latency_s(self) -> float:
        """End-to-end inference latency: count-weighted group latencies."""
        return sum(g.latency_s * g.count for g in self.groups)

    @property
    def compile_seconds(self) -> float:
        return sum(g.compile_seconds for g in self.groups)

    @property
    def num_kernels(self) -> int:
        """Kernel launches per inference after fusion."""
        launches = 0
        for g in self.groups:
            per_exec = 1 + (len(g.epilogue_names) - g.fused)
            launches += per_exec * g.count
        return launches

    @property
    def num_fused_ops(self) -> int:
        """Op executions eliminated as separate kernels by fusion."""
        return sum(g.fused * g.count for g in self.groups)

    def summary(self) -> str:
        return (
            f"{self.model} (batch {self.batch}): {len(self.groups)} groups, "
            f"{self.num_kernels} kernels/inference "
            f"({self.num_fused_ops} fused away), "
            f"{self.latency_s * 1e3:.3f} ms/inference"
        )


def is_epilogue_candidate(compute: ComputeDef) -> bool:
    """Whether ``compute`` can ride inside a preceding anchor's kernel.

    Mirrors ``Schedule.fuse``'s spatial/reduce guard: only ops iterating a
    purely spatial space (elementwise activations, adds, the softmax /
    layernorm proxies) can consume the anchor's intermediate from
    registers; anything with a reduce axis needs the full tensor
    materialized first.
    """
    return not compute.reduce_axes


def _spatial_points(compute: ComputeDef) -> int:
    pts = 1
    for ax in compute.axes:
        if not ax.is_reduce:
            pts *= ax.extent
    return pts


def _can_follow(anchor: ComputeDef, epilogue: ComputeDef) -> bool:
    """Whether ``epilogue`` iterates exactly the anchor's spatial space."""
    return epilogue.iteration_points == _spatial_points(anchor)


def plan_fusion(graph: ModelGraph, fusion: bool = True) -> ProgramState:
    """Greedily group the graph's op list into fusion groups.

    The op list is in model dataflow order (``ModelGraph.add`` preserves
    insertion order), so adjacency is the producer/consumer relation: an
    epilogue candidate immediately following an anchor with the same
    execution count and a matching spatial iteration space joins the
    anchor's group, up to :data:`MAX_EPILOGUES_PER_GROUP` per anchor.
    ``fusion=False`` yields one single-op group per instance — the per-op
    compilation baseline expressed in program form.
    """
    groups: list[FusedGroup] = []
    ops: list[OpInstance] = list(graph.ops)
    i = 0
    while i < len(ops):
        inst = ops[i]
        epilogues: list[ComputeDef] = []
        j = i + 1
        if fusion:
            while (
                j < len(ops)
                and len(epilogues) < MAX_EPILOGUES_PER_GROUP
                and ops[j].count == inst.count
                and is_epilogue_candidate(ops[j].compute)
                and _can_follow(inst.compute, ops[j].compute)
            ):
                epilogues.append(ops[j].compute)
                j += 1
        groups.append(
            FusedGroup(
                anchor=inst.compute,
                epilogues=tuple(epilogues),
                count=inst.count,
            )
        )
        i = j if epilogues else i + 1
    return ProgramState(model=graph.name, batch=graph.batch, groups=groups)


def compile_program(
    compiler,
    graph: ModelGraph,
    fusion: bool = True,
    measurer=None,
    tracer=None,
    method: str = "gensor",
) -> CompiledProgram:
    """Compile ``graph`` as one program: one construction walk per group.

    ``compiler`` is a :class:`~repro.core.constructor.Gensor` (or anything
    with its ``hw`` and ``compile(compute, measurer=..., epilogues=...,
    tracer=...)``).  Each group's walk carries the group's epilogue pool,
    so the annealed chains decide fusion; every group compiles in-line, in
    group order, through :func:`repro.serve.program.serve_program`.
    """
    from repro.serve.program import ProgramRequest, inline_submit, serve_program

    def compile_group(compute, epilogues):
        result = compiler.compile(
            compute, measurer=measurer, epilogues=epilogues, tracer=tracer
        )
        return result, "cold"

    # In-line answers are always ok (a failed walk raises out of here), so
    # the program is always present.
    program = serve_program(
        inline_submit(compile_group, compiler.hw),
        ProgramRequest.from_graph(graph, fusion=fusion),
        tracer=tracer,
    ).program
    program.method = method
    return program

"""SpawnSafetyChecker rules plus runtime pickle round-trips of the wire."""

from __future__ import annotations

import pickle
import textwrap
from pathlib import Path

import pytest

from repro.analysis import SpawnSafetyChecker, run_lint
from repro.core.cache import CachedSchedule
from repro.fleet.shard import (
    ShardBye,
    ShardOptions,
    ShardReady,
    ShardStats,
    WireControl,
    WireRequest,
    WireResponse,
)
from repro.ir import operators as ops
from repro.ir.etir import ETIR
from repro.models.program import CompiledGroup, CompiledProgram, FusedGroup
from repro.serve.program import ProgramRequest, ProgramResponse


def lint_source(tmp_path: Path, source: str, rel: str = "repro/fleet/mod.py"):
    file = tmp_path / rel
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(textwrap.dedent(source))
    return run_lint([file], tmp_path, checkers=[SpawnSafetyChecker()])


def rules(report) -> list[str]:
    return [f.rule for f in report.new]


def test_lambda_process_target_flagged(tmp_path):
    report = lint_source(
        tmp_path,
        """
        import multiprocessing as mp

        def start():
            ctx = mp.get_context("spawn")
            p = ctx.Process(target=lambda: 1)
            p.start()
        """,
    )
    assert rules(report) == ["spawn-closure"]


def test_nested_function_target_flagged(tmp_path):
    report = lint_source(
        tmp_path,
        """
        import multiprocessing as mp

        def start():
            def work():
                return 1
            ctx = mp.get_context("spawn")
            p = ctx.Process(target=work)
            p.start()
        """,
    )
    assert rules(report) == ["spawn-closure"]


def test_module_level_target_allowed(tmp_path):
    report = lint_source(
        tmp_path,
        """
        import multiprocessing as mp

        def work():
            return 1

        def start():
            ctx = mp.get_context("spawn")
            p = ctx.Process(target=work)
            p.start()
        """,
    )
    assert report.new == []


def test_fork_context_flagged(tmp_path):
    report = lint_source(
        tmp_path,
        """
        import multiprocessing as mp

        def start():
            return mp.get_context("fork")
        """,
    )
    assert rules(report) == ["fork-start"]


def test_bare_process_flagged(tmp_path):
    report = lint_source(
        tmp_path,
        """
        import multiprocessing as mp

        def work():
            return 1

        def start():
            return mp.Process(target=work)
        """,
    )
    assert rules(report) == ["fork-start"]


def test_queue_put_lambda_flagged_in_fleet_zone_only(tmp_path):
    source = """
        def send(req_q):
            req_q.put(lambda: 1)
    """
    fleet = lint_source(tmp_path, source, rel="repro/fleet/a.py")
    assert rules(fleet) == ["queue-put-unpicklable"]
    serve = lint_source(tmp_path, source, rel="repro/serve/a.py")
    assert serve.new == []


def test_queue_put_lock_local_flagged(tmp_path):
    report = lint_source(
        tmp_path,
        """
        import threading

        def send(resp_q):
            guard = threading.Lock()
            resp_q.put(guard)
        """,
    )
    assert rules(report) == ["queue-put-unpicklable"]


def test_wire_dataclass_lock_field_flagged(tmp_path):
    report = lint_source(
        tmp_path,
        """
        import threading
        from dataclasses import dataclass, field

        @dataclass
        class Payload:
            request_id: int
            guard: threading.Lock = field(default_factory=threading.Lock)
        """,
    )
    assert rules(report) == ["wire-unpicklable-field"]


def test_wire_dataclass_plain_data_allowed(tmp_path):
    report = lint_source(
        tmp_path,
        """
        from dataclasses import dataclass

        @dataclass
        class Payload:
            request_id: int
            family: str
            deadline_s: float | None
        """,
    )
    assert report.new == []


# -- runtime round-trips: the static rule's ground truth ----------------------


def fused_schedule(compute, epilogue) -> CachedSchedule:
    """A portable schedule of ``compute`` with ``epilogue`` fused."""
    state = ETIR.from_tiles(
        compute,
        {"i": 16, "j": 8, "k": 8},
        {"i": 4, "j": 4, "k": 2},
        epilogue_pool=(epilogue,),
        fused=1,
    )
    return CachedSchedule.from_state(state, 1e-4)


def wire_payloads():
    compute = ops.matmul(32, 24, 40, "wire_rt")
    epilogue = ops.elementwise((32, 40), "relu", "wire_ep")
    schedule = fused_schedule(compute, epilogue)
    group = CompiledGroup(
        anchor_name="wire_rt",
        epilogue_names=("wire_ep",),
        count=2,
        tier="cold",
        schedule=schedule,
        compile_seconds=0.5,
        anchor_label="wire_rt@32x40x24",
    )
    return [
        WireRequest(
            request_id=1,
            compute=compute,
            deadline_s=1.0,
            priority=0,
            epilogues=(epilogue,),
        ),
        WireControl(kind="sync"),
        ShardReady(shard=0, pid=4242),
        ShardStats(shard=0, metrics={}, cache_size=0, workers=1),
        ShardBye(shard=0),
        ShardOptions(device="generic_gpu"),
        # Program-compilation payloads cross the dispatcher/shard boundary
        # in whole-graph serving — wire rules apply wherever they live.
        group,
        CompiledProgram(model="m", batch=1, groups=[group]),
        ProgramRequest(
            model="m",
            batch=1,
            groups=(FusedGroup(anchor=compute, epilogues=(epilogue,), count=2),),
        ),
        ProgramResponse(
            request_id=1,
            ok=True,
            program=CompiledProgram(model="m", batch=1, groups=[group]),
        ),
        WireResponse(
            shard=0,
            request_id=7,
            tier="cold",
            ok=True,
            schedule=schedule,
            compile_seconds=0.5,
        ),
    ]


@pytest.mark.parametrize(
    "payload", wire_payloads(), ids=lambda p: type(p).__name__
)
def test_wire_payload_pickle_round_trip(payload):
    blob = pickle.dumps(payload)
    clone = pickle.loads(blob)
    assert type(clone) is type(payload)
    assert clone == payload


def test_wire_response_round_trip_with_schedule():
    # wire_payloads() covers a WireResponse carrying a fused schedule;
    # this is the schedule-less shape (defaults only).
    resp = WireResponse(shard=0, request_id=7, tier="warm", ok=True)
    clone = pickle.loads(pickle.dumps(resp))
    assert clone.request_id == 7 and clone.tier == "warm"


# -- checkpoint payloads: wire rules apply in every zone ----------------------


def test_checkpoint_dataclass_hostile_field_flagged_outside_fleet(tmp_path):
    # *Checkpoint dataclasses are wire payloads wherever they live: they
    # cross the dispatcher/shard process boundary and the on-disk store.
    report = lint_source(
        tmp_path,
        """
        import threading
        from dataclasses import dataclass, field

        @dataclass
        class WalkCheckpoint:
            iteration: int
            guard: threading.Lock = field(default_factory=threading.Lock)
        """,
        rel="repro/resilience/mod.py",
    )
    assert rules(report) == ["wire-unpicklable-field"]


def test_plain_dataclass_outside_fleet_not_flagged(tmp_path):
    report = lint_source(
        tmp_path,
        """
        import threading
        from dataclasses import dataclass, field

        @dataclass
        class WorkerState:
            iteration: int
            guard: threading.Lock = field(default_factory=threading.Lock)
        """,
        rel="repro/resilience/mod.py",
    )
    assert report.new == []


def test_program_payload_hostile_field_flagged_outside_fleet(tmp_path):
    # Program-compilation payloads are wire classes by name: they travel
    # dispatcher <-> shard in whole-graph serving even though they are
    # defined under repro/models and repro/serve.
    report = lint_source(
        tmp_path,
        """
        import threading
        from dataclasses import dataclass, field

        @dataclass
        class CompiledProgram:
            model: str
            guard: threading.Lock = field(default_factory=threading.Lock)
        """,
        rel="repro/models/mod.py",
    )
    assert rules(report) == ["wire-unpicklable-field"]


def test_program_request_tracer_field_flagged_outside_fleet(tmp_path):
    report = lint_source(
        tmp_path,
        """
        from dataclasses import dataclass

        from repro.obs import JsonlTracer

        @dataclass
        class ProgramRequest:
            model: str
            tracer: JsonlTracer | None = None
        """,
        rel="repro/serve/mod.py",
    )
    assert rules(report) == ["wire-unpicklable-field"]


def test_walk_checkpoint_pickle_round_trip():
    from repro.resilience.checkpoint import ChainCheckpoint, WalkCheckpoint
    from repro.utils.rng import spawn_rng

    rng = spawn_rng(0, "gensor", "wire_rt", 0)
    rng.random(3)
    checkpoint = WalkCheckpoint(
        compute_key="k",
        config_digest="d",
        num_levels=3,
        total_steps=4,
        chains=(
            ChainCheckpoint(
                state=((4, 4), (2, 2), 0, 0),
                temperature=0.9,
                iteration=4,
                rng_state=rng.bit_generator.state,
                done=False,
                candidates=(((4, 4), (2, 2), 0, 0),),
            ),
        ),
        node_keys=(((4, 4), (2, 2), 0, 0),),
        nodes_seen=7,
    )
    clone = pickle.loads(pickle.dumps(checkpoint))
    assert clone == checkpoint

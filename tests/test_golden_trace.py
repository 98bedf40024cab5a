"""Golden-trace determinism regression.

A fixed seed plus a fixed :class:`GensorConfig` must reproduce the exact
same Markov walk — the same chosen action at every step and the same
final ETIR tile configuration. The expected traces live as JSON fixtures
under ``tests/fixtures/``; any drift in RNG spawning, action enumeration
order, benefit scoring, or probability normalization shows up here as a
loud unified diff.

To regenerate the fixtures after an *intentional* behavior change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_trace.py
"""

import difflib
import json
import os
from pathlib import Path

import pytest

from repro.core import Gensor, GensorConfig
from repro.core.reference import ReferenceGensor
from repro.ir import operators as ops
from repro.obs import RecordingTracer

FIXTURES = Path(__file__).parent / "fixtures"

GOLDEN_CFG = GensorConfig(
    seed=7, num_chains=2, top_k=4, polish_steps=10, max_iterations_per_chain=60
)

WORKLOADS = {
    "golden_trace_matmul.json": lambda: ops.matmul(128, 64, 96, "golden_mm"),
    "golden_trace_conv.json": lambda: ops.conv2d(
        1, 8, 14, 14, 16, 3, 3, 1, "golden_conv"
    ),
}

#: a fusion group: GEMM anchor plus a GELU -> residual-add epilogue pool.
FUSED_FIXTURE = "golden_trace_fused.json"


def fused_workload():
    anchor = ops.matmul(256, 128, 512, "fx_mm")
    pool = (
        ops.elementwise((256, 512), "gelu", "fx_gelu"),
        ops.add((256, 512), "fx_res"),
    )
    return anchor, pool


def walk_signature(hw, compute, gensor_cls=Gensor, **compile_kwargs):
    """Deterministic summary of one traced construction walk.

    ``gensor_cls`` picks the walk engine: :class:`Gensor` runs the SoA
    engine, :class:`ReferenceGensor` the object-level reference.
    """
    tracer = RecordingTracer()
    result = gensor_cls(hw, GOLDEN_CFG).compile(
        compute, tracer=tracer, **compile_kwargs
    )
    steps = []
    for event in tracer.by_name("walk_step"):
        chosen = event.args["actions"][event.args["chosen"]]
        steps.append(
            {
                "chain": event.args["chain"],
                "kind": chosen["kind"],
                "axis": chosen["axis"],
                "appended": event.args["appended"],
            }
        )
    best = result.best
    sig = {
        "workload": compute.name,
        "config": {
            "seed": GOLDEN_CFG.seed,
            "num_chains": GOLDEN_CFG.num_chains,
            "top_k": GOLDEN_CFG.top_k,
            "polish_steps": GOLDEN_CFG.polish_steps,
            "max_iterations_per_chain": GOLDEN_CFG.max_iterations_per_chain,
        },
        "iterations": result.iterations,
        "steps": steps,
        "best": {
            "cur_level": best.cur_level,
            "tiles": [list(t) for t in best.config.tiles],
            "vthreads": list(best.config.vthreads),
        },
    }
    if compile_kwargs.get("epilogues"):
        sig["best"]["fused"] = best.fused
    return sig


def fused_signature(hw, **compile_kwargs):
    anchor, pool = fused_workload()
    return walk_signature(hw, anchor, epilogues=pool, **compile_kwargs)


def _dump(sig) -> str:
    return json.dumps(sig, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("fixture_name", sorted(WORKLOADS))
def test_golden_trace(hw, fixture_name):
    actual = walk_signature(hw, WORKLOADS[fixture_name]())
    path = FIXTURES / fixture_name

    if os.environ.get("REPRO_REGEN_GOLDEN"):
        FIXTURES.mkdir(exist_ok=True)
        path.write_text(_dump(actual))
        pytest.skip(f"regenerated {path}")

    assert path.exists(), (
        f"missing golden fixture {path} — run with REPRO_REGEN_GOLDEN=1 to"
        " create it"
    )
    expected = json.loads(path.read_text())
    if actual != expected:
        diff = "\n".join(
            difflib.unified_diff(
                _dump(expected).splitlines(),
                _dump(actual).splitlines(),
                fromfile=f"expected ({fixture_name})",
                tofile="actual",
                lineterm="",
            )
        )
        pytest.fail(
            "golden trace drifted — the seeded Markov walk no longer "
            "reproduces the recorded action sequence / final tile config.\n"
            "If the change is intentional, regenerate with "
            f"REPRO_REGEN_GOLDEN=1.\n{diff}"
        )


def _assert_matches_fixture(actual, fixture_name):
    path = FIXTURES / fixture_name
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        FIXTURES.mkdir(exist_ok=True)
        path.write_text(_dump(actual))
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing golden fixture {path} — run with REPRO_REGEN_GOLDEN=1 to"
        " create it"
    )
    assert _dump(actual) == path.read_text(), (
        f"golden trace drifted from {fixture_name}"
    )


def test_golden_trace_fused(hw):
    """A fusion group's walk (FUSE/UNFUSE edges, program ranking) is pinned
    like the single-op walks, plus the best state's fused count."""
    _assert_matches_fixture(fused_signature(hw), FUSED_FIXTURE)


def test_signature_is_stable_across_runs(hw):
    """Two in-process runs agree — rules out hidden global state."""
    compute = WORKLOADS["golden_trace_matmul.json"]
    assert walk_signature(hw, compute()) == walk_signature(hw, compute())


@pytest.mark.parametrize("fixture_name", sorted(WORKLOADS))
def test_empty_epilogue_pool_matches_fixture_bytes(hw, fixture_name):
    """Program-fusion plumbing is invisible to single-op compiles.

    ``compile(..., epilogues=(), walkers=1)`` must replay the recorded
    fixture byte-for-byte: with an empty pool the walk enumerates the same
    actions, draws the same RNG stream, and ranks with the same objective
    as before fusion existed.
    """
    path = FIXTURES / fixture_name
    assert path.exists(), f"missing golden fixture {path}"
    actual = _dump(
        walk_signature(
            hw, WORKLOADS[fixture_name](), epilogues=(), walkers=1
        )
    )
    assert actual == path.read_text(), (
        "an empty epilogue pool perturbed the single-op walk"
    )


@pytest.mark.parametrize("fixture_name", sorted([*WORKLOADS, FUSED_FIXTURE]))
def test_golden_trace_byte_identical_on_both_walk_paths(hw, fixture_name):
    """Every golden fixture replays byte-for-byte on both walk engines.

    Each workload compiles once through :class:`Gensor` (the SoA engine)
    and once through :class:`ReferenceGensor` (the object-level
    reference); both serialized signatures must equal the stored fixture
    *bytes*.  Nothing is regenerated here — a parity drift on either path
    (or any fixture churn) fails loudly instead of being papered over.
    """
    path = FIXTURES / fixture_name
    assert path.exists(), (
        f"missing golden fixture {path} — run test_golden_trace with "
        "REPRO_REGEN_GOLDEN=1 to create it"
    )
    expected_bytes = path.read_text()
    for gensor_cls in (Gensor, ReferenceGensor):
        if fixture_name == FUSED_FIXTURE:
            sig = fused_signature(hw, gensor_cls=gensor_cls)
        else:
            sig = walk_signature(
                hw, WORKLOADS[fixture_name](), gensor_cls=gensor_cls
            )
        assert _dump(sig) == expected_bytes, (
            f"{gensor_cls.__name__} drifted from {fixture_name}"
        )

"""Engine dispatch for the SoA walk core: compile and polish always run on
the SoA engine (there is no gate left to flip), whole compiles agree with
the object-level reference, and planted divergences prove the
differential oracle actually bites.
"""

import os
import subprocess
import sys

import pytest

from repro.core import Gensor, GensorConfig
from repro.core.reference import ReferenceGensor
from repro.ir import operators as ops
from repro.perf.soa import DifferentialWalker, SoAParityError, SoAWalkEngine


def _quick_cfg(**overrides):
    base = dict(
        seed=0,
        num_chains=1,
        top_k=2,
        polish_steps=3,
        max_iterations_per_chain=8,
    )
    base.update(overrides)
    return GensorConfig(**base)


def _fused_group(tag: str):
    anchor = ops.matmul(64, 32, 48, f"{tag}_mm")
    pool = (
        ops.elementwise((64, 48), "gelu", f"{tag}_gelu"),
        ops.add((64, 48), f"{tag}_res"),
    )
    return anchor, pool


@pytest.fixture
def built(monkeypatch):
    """Record every SoAWalkEngine and ConstructionGraph constructed."""
    import repro.core.graph as graph_mod
    import repro.core.reference as reference_mod
    import repro.perf.soa as soa_mod

    log: list[str] = []

    class SpyEngine(soa_mod.SoAWalkEngine):
        def __init__(self, *args, **kwargs):
            log.append("soa")
            super().__init__(*args, **kwargs)

    class SpyGraph(graph_mod.ConstructionGraph):
        def __init__(self, *args, **kwargs):
            log.append("graph")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(soa_mod, "SoAWalkEngine", SpyEngine)
    monkeypatch.setattr(graph_mod, "ConstructionGraph", SpyGraph)
    monkeypatch.setattr(reference_mod, "ConstructionGraph", SpyGraph)
    return log


# -- the retired REPRO_SOA_WALK variable ----------------------------------------

#: counts the SoA engines one small compile builds.
_ENGINE_PROBE = """
import repro.perf.soa as soa
built = []
init = soa.SoAWalkEngine.__init__
def spy(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
soa.SoAWalkEngine.__init__ = spy
from repro.core import Gensor, GensorConfig
from repro.hardware import rtx4090
from repro.ir import operators as ops
cfg = GensorConfig(num_chains=1, top_k=2, polish_steps=0, max_iterations_per_chain=8)
Gensor(rtx4090(), cfg).compile(ops.matmul(32, 24, 40, "soa_env"))
print(len(built))
"""


@pytest.mark.parametrize(
    ("value", "expected"),
    [
        (None, True),
        ("", True),
        ("1", True),
        ("true", True),
        ("anything", True),
        ("0", False),
        ("false", False),
        ("False", False),
        ("OFF", False),
        ("  no  ", False),
    ],
)
def test_env_parsing(value, expected):
    """``REPRO_SOA_WALK`` once chose the walk engine at import time
    (``expected`` is what the retired gate parsed ``value`` as).  Nothing
    reads it any more: in a fresh interpreter with the variable set to
    anything, compile still builds the SoA engine."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SOA_WALK"}
    if value is not None:
        env["REPRO_SOA_WALK"] = value
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _ENGINE_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    assert out.split() == ["1"], f"{value!r} (once read as {expected}) changed the engine"


# -- constructor dispatch ------------------------------------------------------


@pytest.mark.parametrize("fused", [False, True], ids=["bare", "fused"])
def test_compile_and_polish_build_only_the_soa_engine(built, hw, fused):
    """Gensor.compile and Gensor.polish build SoAWalkEngines — one for the
    walk, one per polish — and never a ConstructionGraph, for bare ops and
    fusion groups."""
    anchor, pool = _fused_group("spy")
    epilogues = pool if fused else ()
    gensor = Gensor(hw, _quick_cfg())
    result = gensor.compile(anchor, epilogues=epilogues)
    assert built and set(built) == {"soa"}
    assert result.best.epilogue_pool == epilogues

    built.clear()
    gensor.polish([result.best], 4)
    assert built == ["soa"]


def test_compile_dispatch_follows_gate(built, hw):
    """The compiler class is the only engine switch: Gensor walks on the SoA
    engine, ReferenceGensor on the object-level construction graph."""
    compute = ops.matmul(32, 24, 40, "soa_dispatch")
    Gensor(hw, _quick_cfg()).compile(compute)
    assert "graph" not in built

    built.clear()
    ReferenceGensor(hw, _quick_cfg()).compile(compute)
    assert "soa" not in built and "graph" in built


# -- cross-engine compile agreement ----------------------------------------------


def test_compile_agrees_across_gate_combinations(hw):
    """The SoA engine and the object reference produce one answer, for a
    bare operator and for a fusion group.

    Same best schedule key, same iteration count, same monotone node
    count, same best latency bits — the engines are implementations, not
    behaviors.
    """
    anchor, pool = _fused_group("soa_gate")
    cfg = GensorConfig(
        seed=11, num_chains=2, top_k=3, polish_steps=6, max_iterations_per_chain=40
    )
    for epilogues in ((), pool):
        results = set()
        for compiler in (Gensor, ReferenceGensor):
            r = compiler(hw, cfg).compile(anchor, epilogues=epilogues)
            results.add(
                (
                    r.best.key(),
                    r.iterations,
                    r.states_visited,
                    float(r.best_metrics.latency_s).hex(),
                )
            )
        assert len(results) == 1, results


# -- the planted divergences ----------------------------------------------------


def test_planted_divergence_is_detected(monkeypatch):
    """Perturbing one SoA benefit by 1 ulp-scale factor must trip the oracle.

    This is the test of the test: if the DifferentialWalker let this
    through, every parity assertion above would be vacuous.
    """
    from repro.hardware import rtx4090

    original = SoAWalkEngine._tiling_ratio

    def perturbed(self, q_old, f_old, q_new, f_new):
        return original(self, q_old, f_old, q_new, f_new) * (1.0 + 1e-12)

    monkeypatch.setattr(SoAWalkEngine, "_tiling_ratio", perturbed)
    diff = DifferentialWalker(ops.matmul(64, 48, 80, "soa_plant"), rtx4090())
    with pytest.raises(SoAParityError, match="benefit"):
        diff.walk(seed=0, chains=1, max_iterations=10)


def test_planted_fused_slot_divergence_is_detected(monkeypatch):
    """The same bite for the fusion slots: a 1-ulp-scale error in the
    engine's FUSE benefit must trip the oracle on the first fusable state."""
    from repro.hardware import rtx4090

    original = SoAWalkEngine._fused_constants

    def perturbed(self):
        original(self)
        self._fuse_benefit = [b * (1.0 + 1e-12) for b in self._fuse_benefit]

    monkeypatch.setattr(SoAWalkEngine, "_fused_constants", perturbed)
    anchor, pool = _fused_group("soa_plant_fused")
    diff = DifferentialWalker(anchor, rtx4090(), epilogues=pool)
    with pytest.raises(SoAParityError, match="fuse.*benefit"):
        diff.walk(seed=0, chains=1, max_iterations=10)

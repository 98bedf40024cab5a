"""Shared experiment infrastructure."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from repro.baselines import (
    Ansor,
    AnsorConfig,
    PyTorchEager,
    Roller,
    VendorLibrary,
)
from repro.core import Gensor, GensorConfig
from repro.hardware import DEVICES, HardwareSpec
from repro.sim.measure import Measurer
from repro.utils.tables import Table

__all__ = [
    "ExperimentResult",
    "make_methods",
    "resolve_quick",
    "device",
    "SEED",
]

SEED = 0


def resolve_quick(quick: bool | None) -> bool:
    """Default budget mode: quick unless REPRO_FULL=1 or quick=False."""
    if quick is not None:
        return quick
    return os.environ.get("REPRO_FULL", "0") != "1"


def device(name: str) -> HardwareSpec:
    return DEVICES[name]()


def make_methods(
    hw: HardwareSpec, quick: bool, seed: int = SEED
) -> dict[str, Any]:
    """The standard method lineup on one device.

    ``quick`` shrinks Ansor's trial budget (its *simulated* profiling cost
    is unchanged per trial, so compile-time comparisons keep their shape;
    only absolute search quality loses a little).
    """
    ansor_trials = 300 if quick else 2000
    gensor_cfg = (
        GensorConfig(seed=seed, num_chains=3, top_k=6, polish_steps=60)
        if quick
        else GensorConfig(seed=seed)
    )
    return {
        "pytorch": PyTorchEager(hw),
        "cublas": VendorLibrary(hw),
        "roller": Roller(hw),
        "ansor": Ansor(hw, AnsorConfig(num_trials=ansor_trials, seed=seed)),
        "gensor": Gensor(hw, gensor_cfg),
    }


def fresh_measurer(hw: HardwareSpec, seed: int = SEED) -> Measurer:
    return Measurer(hw, seed=seed)


@dataclass
class ExperimentResult:
    """Structured experiment output: named rows plus a rendered table."""

    name: str
    table: Table
    rows: dict[str, Any] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        parts = [self.table.render()]
        if self.notes:
            parts.append("")
            parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)

    def print(self) -> None:  # pragma: no cover - console convenience
        print(self.render())

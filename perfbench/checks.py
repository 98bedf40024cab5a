"""Correctness checks on every schedule and program a workload returns.

Run outside the timed window.  A schedule passes when:

* it is legal on its device (``ETIR.memory_ok``);
* its reported kernel latency equals a fresh re-pricing: the state is
  rebuilt (operator included) from its tile configuration and priced by a
  new ``CostModel``, with no memo and no cached derived values;
* for operators small enough to run in NumPy, ``execute_tiled`` under the
  schedule's block tiling equals the reference ``ComputeDef.evaluate``
  (the first ``MAX_FUNCTIONAL_CHECKS`` distinct schedules of a run, in
  output order, so which ones are executed does not depend on host speed).

A program passes when it has the group count ``plan_fusion`` predicts and
no group fuses more epilogues than its pool holds.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.core.cache import shape_fingerprint
from repro.ir.etir import ETIR
from repro.sim.costmodel import CostModel
from repro.sim.executor import execute_tiled

#: executor work caps for the functional check (Python-level iterations,
#: output points, input elements); larger operators are priced only.
MAX_TILE_ITERATIONS = 4096
MAX_SPATIAL_POINTS = 1 << 19
MAX_INPUT_ELEMENTS = 1 << 22
MAX_REFERENCE_WORK = 1 << 25
#: distinct (shape, schedule) pairs executed per run; each is bounded by
#: the caps above, so a run's functional checks take a few seconds at most.
MAX_FUNCTIONAL_CHECKS = 48


def functional_cost(state: ETIR) -> tuple[int, int, int, int]:
    """(tile iterations, output points, input elements, reference work)."""
    compute = state.compute
    tiles = state.tile_sizes(state.num_levels)
    blocks = 1
    spatial = 1
    for ax in compute.spatial_axes:
        tile = max(1, min(int(tiles.get(ax.name, 1)), ax.extent))
        blocks *= math.ceil(ax.extent / tile)
        spatial *= ax.extent
    reduce_points = 1
    for ax in compute.reduce_axes:
        reduce_points *= ax.extent
    inputs = sum(
        int(np.prod(acc.tensor.shape))
        for acc in {acc.tensor.name: acc for acc in compute.inputs}.values()
    )
    return blocks * reduce_points, spatial, inputs, spatial * reduce_points


def small_enough(state: ETIR) -> bool:
    iterations, spatial, inputs, work = functional_cost(state)
    return (
        iterations <= MAX_TILE_ITERATIONS
        and spatial <= MAX_SPATIAL_POINTS
        and inputs <= MAX_INPUT_ELEMENTS
        and work <= MAX_REFERENCE_WORK
    )


class Checker:
    """Accumulates check outcomes over one run."""

    def __init__(self) -> None:
        self.checked = 0
        self.functional = 0
        self.failures: list[str] = []
        self._models: dict[int, tuple[object, CostModel]] = {}
        self._priced: dict[tuple, float] = {}
        self._executed: set[tuple] = set()

    @property
    def ok(self) -> bool:
        return not self.failures

    def _model(self, hw) -> CostModel:
        entry = self._models.get(id(hw))
        if entry is None:
            entry = self._models[id(hw)] = (hw, CostModel(hw))
        return entry[1]

    def _reprice(self, hw, state: ETIR) -> float:
        key = (id(hw), shape_fingerprint(state.compute), state.key())
        cached = self._priced.get(key)
        if cached is None:
            # Fresh ComputeDefs too: derived values are cached on them.
            fresh = ETIR(
                replace(state.compute),
                state.config,
                state.cur_level,
                state.num_levels,
                tuple(replace(ep) for ep in state.epilogue_pool),
                state.fused,
            )
            cached = self._priced[key] = self._model(hw).evaluate(fresh).latency_s
        return cached

    def schedule(self, hw, state: ETIR | None, latency_s: float | None, label: str) -> bool:
        """Check one returned schedule; False (and a recorded reason) on failure."""
        self.checked += 1
        problem = None
        if state is None or latency_s is None:
            problem = "no schedule returned"
        elif not state.memory_ok(hw):
            problem = f"schedule exceeds {hw.name} memory limits"
        else:
            repriced = self._reprice(hw, state)
            if not math.isclose(repriced, latency_s, rel_tol=1e-9, abs_tol=0.0):
                problem = (
                    f"reported latency {latency_s:.6g}s != re-priced {repriced:.6g}s"
                )
            elif not self._functional_ok(state):
                problem = "execute_tiled differs from ComputeDef.evaluate"
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
        return problem is None

    def program(self, label: str, predicted_groups: list, group_fused: list[int]) -> bool:
        """``predicted_groups`` from ``plan_fusion``; ``group_fused`` per returned group."""
        self.checked += 1
        problem = None
        if len(group_fused) != len(predicted_groups):
            problem = (
                f"{len(group_fused)} groups returned, plan_fusion predicts "
                f"{len(predicted_groups)}"
            )
        else:
            for group, fused in zip(predicted_groups, group_fused):
                if not 0 <= fused <= len(group.epilogues):
                    problem = (
                        f"group {group.anchor.name} fused {fused} of "
                        f"{len(group.epilogues)} epilogues"
                    )
                    break
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
        return problem is None

    def _functional_ok(self, state: ETIR) -> bool:
        if len(self._executed) >= MAX_FUNCTIONAL_CHECKS or not small_enough(state):
            return True
        key = (shape_fingerprint(state.compute), state.key())
        if key in self._executed:
            return True
        self._executed.add(key)
        compute = state.compute
        inputs = compute.random_inputs(np.random.default_rng(0))
        ok = bool(
            np.allclose(
                execute_tiled(state, inputs), compute.evaluate(inputs),
                rtol=1e-9, atol=1e-9,
            )
        )
        self.functional += 1
        return ok

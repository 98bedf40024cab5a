"""Vectorized pricing parity: every element bit-identical to the scalar models.

The walk, polish, and rank are priced by the SoA engine's feature columns
through the shared pipes (:func:`repro.core.score.quick_pipe` and
:func:`repro.sim.costmodel.pipe_metrics`) and by the memo's
``evaluate_batch``.  The golden-trace argument rests on element-wise
bit-identity with the scalar ``quick_latency`` / ``CostModel.evaluate`` —
including INFEASIBLE states and both hardware generations.  These
properties pin that contract.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.score import quick_latency
from repro.hardware import orin_nano, rtx4090
from repro.ir import operators as ops
from repro.ir.etir import ETIR
from repro.obs.metrics import MetricsRegistry
from repro.perf.memo import MetricsMemo
from repro.perf.soa import SoAWalkEngine
from repro.sim.costmodel import INFEASIBLE, CostModel, pipe_metrics

RTX = rtx4090()
NANO = orin_nano()
GEMM = ops.matmul(512, 256, 512, "parity_g")

_POW2 = [1, 2, 4, 8, 16, 32, 64, 128, 256]

#: the ``pipe_metrics`` outputs, named as the scalar KernelMetrics fields.
_PIPE_FIELDS = (
    "latency_s",
    "achieved_flops",
    "compute_throughput",
    "sm_occupancy",
    "mem_busy",
    "l2_hit_rate",
    "dram_bytes",
    "smem_bytes",
    "waves",
)


@st.composite
def tile_states(draw):
    """A (possibly infeasible) schedule state for the parity GEMM.

    Tile sizes are drawn as unconstrained powers of two, so oversized
    block tiles routinely blow the shared-memory budget — exactly the
    INFEASIBLE inputs the vectorized paths must reproduce as such.
    """
    block = {}
    thread = {}
    for name, extent in (("i", 512), ("j", 256), ("k", 512)):
        b = draw(st.sampled_from([t for t in _POW2 if t <= extent]))
        t = draw(st.sampled_from([t for t in _POW2 if t <= b]))
        block[name] = b
        thread[name] = t
    vthread = {}
    if draw(st.booleans()):
        vthread["i"] = draw(st.sampled_from([2, 4]))
    try:
        return ETIR.from_tiles(GEMM, block, thread, vthread)
    except ValueError:
        return None


def batches(min_size=1, max_size=24):
    return st.lists(tile_states(), min_size=min_size, max_size=max_size).map(
        lambda states: [s for s in states if s is not None]
    )


def _packed(states):
    arrays = [s.config_arrays() for s in states]
    tiles = [t for t, _v in arrays]
    vthreads = [v for _t, v in arrays]
    return np.stack(tiles), np.stack(vthreads)


def _memo():
    return MetricsMemo(registry=MetricsRegistry())


class TestEvaluateBatchParity:
    @settings(max_examples=30, deadline=None)
    @given(states=batches())
    @pytest.mark.parametrize("hw", [RTX, NANO], ids=["rtx4090", "orin_nano"])
    def test_bit_identical_to_scalar(self, hw, states):
        """``pipe_metrics`` over the SoA feature columns reproduces every
        pipe output of ``CostModel.evaluate``, and the memo's batch call
        returns exactly the scalar metrics."""
        model = CostModel(hw)
        batch = _memo().evaluate_batch(hw, states)
        assert len(batch) == len(states)
        for state, got in zip(states, batch):
            assert got == model.evaluate(state)
        if not states:
            return
        tiles, vthreads = _packed(states)
        idx, cols = SoAWalkEngine(GEMM, hw)._full_features(tiles, vthreads)
        feasible = {int(i) for i in idx}
        assert feasible == {
            i for i, s in enumerate(states) if model.evaluate(s) is not INFEASIBLE
        }
        if cols is None:
            return
        columns = pipe_metrics(cols, hw)
        for j, i in enumerate(idx):
            want = model.evaluate(states[int(i)])
            for field, column in zip(_PIPE_FIELDS, columns):
                assert float(column[j]).hex() == float(getattr(want, field)).hex(), field

    @settings(max_examples=20, deadline=None)
    @given(states=batches())
    def test_infeasible_states_marked(self, states):
        batch = _memo().evaluate_batch(RTX, states)
        if states:
            tiles, vthreads = _packed(states)
            lats = SoAWalkEngine(GEMM, RTX)._full_latencies(tiles, vthreads)
        for i, (state, got) in enumerate(zip(states, batch)):
            if not state.memory_ok(RTX):
                assert got is INFEASIBLE
                assert not got.feasible
                assert lats[i] == math.inf

    def test_empty_batch(self):
        assert _memo().evaluate_batch(RTX, []) == []

    def test_all_infeasible_batch(self):
        state = ETIR.from_tiles(
            GEMM, {"i": 512, "j": 256, "k": 512}, {"i": 1, "j": 1, "k": 1}
        )
        assert not state.memory_ok(RTX)
        batch = _memo().evaluate_batch(RTX, [state] * 20)
        assert all(m is INFEASIBLE for m in batch)
        tiles, vthreads = _packed([state] * 20)
        engine = SoAWalkEngine(GEMM, RTX)
        idx, cols = engine._full_features(tiles, vthreads)
        assert idx.size == 0 and cols is None
        assert all(lat == math.inf for lat in engine._full_latencies(tiles, vthreads))


class TestQuickLatencyBatchParity:
    @settings(max_examples=30, deadline=None)
    @given(states=batches())
    @pytest.mark.parametrize("hw", [RTX, NANO], ids=["rtx4090", "orin_nano"])
    def test_bit_identical_to_scalar(self, hw, states):
        """``quick_pipe`` over the SoA columns equals the traversal-time
        ``quick_latency`` (``strict=False``, the walk's roofline)."""
        if not states:
            return
        tiles, vthreads = _packed(states)
        lats = SoAWalkEngine(GEMM, hw)._quick_latencies(tiles, vthreads)
        assert lats.shape == (len(states),)
        for state, got in zip(states, lats):
            want = quick_latency(state, hw, strict=False)
            assert float(got).hex() == float(want).hex()

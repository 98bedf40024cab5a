#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that traffic is a pure function of the seed, that every metric the
benchmark prints is declared in BENCHMARK.json under a well-formed name,
that the ledger closes on a small traced run, and that the correctness
check catches planted bad schedules.  Takes a few seconds.
"""

from __future__ import annotations

import json
import re
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import traffic  # noqa: E402
from checks import Checker  # noqa: E402
from ledger import Ledger, PolishTracer, trace_layers  # noqa: E402
from workloads import Outcome, serving_graph  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class TrafficTest(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        self.assertEqual(traffic.schedule(5, 60.0, 10.0), traffic.schedule(5, 60.0, 10.0))

    def test_other_seed_other_schedule(self):
        a, b = traffic.schedule(5, 60.0, 10.0), traffic.schedule(6, 60.0, 10.0)
        self.assertNotEqual([x.t for x in a], [x.t for x in b])
        self.assertNotEqual([(x.model, x.batch, x.seq, x.pick) for x in a],
                            [(x.model, x.batch, x.seq, x.pick) for x in b])

    def test_program_share(self):
        arrivals = traffic.schedule(1, 60.0, 30.0)
        share = sum(a.kind == "program" for a in arrivals) / len(arrivals)
        self.assertAlmostEqual(share, 1 / traffic.PROGRAM_EVERY, delta=0.005)

    def test_serving_graph_names_are_unique_per_shape(self):
        names = {}
        for key in traffic.ranked_grid():
            for inst in serving_graph(*key).ops:
                extents = tuple(ax.extent for ax in inst.compute.axes)
                self.assertEqual(names.setdefault(inst.compute.name, extents), extents)


class HostSpeedTest(unittest.TestCase):
    def test_latency_takes_the_nearest_reading(self):
        log = hostspeed.SpeedLog()
        log.times, log.readings = [1.0, 2.0, 3.0], [1e-3, 2e-3, 4e-3]
        self.assertEqual(log.factor_at(2.2), hostspeed.NOMINAL_S / 2e-3)
        self.assertEqual(log.factor_at(0.0), hostspeed.NOMINAL_S / 1e-3)
        self.assertEqual(log.factor_at(9.0), hostspeed.NOMINAL_S / 4e-3)

    def test_piece_is_scaled_by_readings_around_it(self):
        scaler = hostspeed.Scaler()
        result, seconds = scaler.run(lambda: 7)
        self.assertEqual(result, 7)
        self.assertEqual(len(scaler.readings), 2)
        mean = sum(scaler.readings) / 2
        self.assertAlmostEqual(seconds, scaler.raw_s * hostspeed.NOMINAL_S / mean)


class MetricNamesTest(unittest.TestCase):
    def test_declared_names_are_well_formed(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)

    def test_untraced_metrics_match_spec(self):
        # An untraced run prints every end_to_end() value: the bounded ones
        # must all be there, and every one must be declared.
        outcome = {"compile_walls": [1.0], "op_s": [0.1, 0.2], "program_s": [0.3],
                   "kernel_s": [1e-4, 2e-4], "slo_met": 2, "attempted": 3,
                   "profile_s": 0.5}
        produced = set(run.end_to_end(outcome, [0.5], 100.0, 0))
        declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        self.assertLessEqual({m["name"] for m in SPEC["end_to_end"]}, produced)
        self.assertLessEqual(produced, declared)

    def test_traced_metrics_are_declared(self):
        declared = {m["name"] for m in SPEC["per_layer"]}
        layers = _small_traced_run()[1]
        self.assertLessEqual(set(layers), declared)


def _small_traced_run():
    """Trace one small compile + lowering; returns (ledger dict, layers)."""
    from repro.codegen import cuda, lower
    from repro.core.constructor import Gensor, GensorConfig
    from repro.hardware import rtx4090
    from repro.ir import operators as ops
    from repro.perf.memo import MetricsMemo

    tracer = PolishTracer()
    ledger = Ledger().install()
    outcome = Outcome()
    try:
        t0 = time.perf_counter()
        compute = ops.matmul(256, 128, 256, name="selftest")
        result = Gensor(
            rtx4090(), GensorConfig(num_chains=1, max_iterations_per_chain=30, polish_steps=4),
            tracer=tracer, memo=MetricsMemo(),
        ).compile(compute)
        cuda.emit_cuda(lower.lower_etir(result.best), compute)
        outcome.ledger = ledger.close(time.perf_counter() - t0, lanes=1)
    finally:
        ledger.uninstall()
    outcome.attempted = 1
    return outcome.ledger, trace_layers(ledger, tracer, outcome)


class LedgerTest(unittest.TestCase):
    def test_ledger_closes(self):
        ledger, layers = _small_traced_run()
        self.assertTrue(ledger["closes"])
        self.assertAlmostEqual(
            sum(ledger["rows"].values()) + ledger["residual_s"], ledger["total_s"], places=9
        )
        self.assertGreater(ledger["rows"]["walk"] + ledger["rows"]["expand"], 0.0)
        self.assertGreater(ledger["rows"]["codegen"], 0.0)
        self.assertGreaterEqual(ledger["residual_s"], 0.0)
        self.assertGreater(layers["measure.calls"], 0)

    def test_closed_window_ignores_later_work(self):
        ledger = Ledger().install()
        try:
            ledger.close(1.0, lanes=1)
            _small_traced_run()  # runs through this ledger's shims too
            self.assertEqual(ledger.spans(), {})
            self.assertEqual(ledger.counters["perf_memo_misses_total"], 0)
        finally:
            ledger.uninstall()

    def test_shims_are_removed(self):
        from repro.core.constructor import Gensor

        _small_traced_run()
        self.assertFalse(hasattr(Gensor.compile, "__wrapped__"))


class CheckerTest(unittest.TestCase):
    def setUp(self):
        from repro.hardware import rtx4090
        from repro.ir import operators as ops
        from repro.ir.etir import ETIR
        from repro.sim.costmodel import CostModel

        self.hw = rtx4090()
        self.compute = ops.matmul(64, 48, 40, name="planted")
        self.good = ETIR.from_tiles(self.compute, {"i": 16, "j": 8, "k": 8}, {"i": 2, "j": 2})
        self.latency = CostModel(self.hw).evaluate(self.good).latency_s
        big = ops.matmul(4096, 4096, 4096, name="planted_big")
        self.illegal = ETIR.from_tiles(big, {"i": 4096, "j": 4096, "k": 4096}, {"i": 64, "j": 64})

    def test_good_schedule_passes(self):
        checker = Checker()
        self.assertTrue(checker.schedule(self.hw, self.good, self.latency, "good"))
        self.assertEqual(checker.functional, 1)

    def test_illegal_schedule_is_caught(self):
        self.assertFalse(self.illegal.memory_ok(self.hw))
        checker = Checker()
        self.assertFalse(checker.schedule(self.hw, self.illegal, 1e-3, "illegal"))
        self.assertIn("memory", checker.failures[0])

    def test_misreported_latency_is_caught(self):
        checker = Checker()
        self.assertFalse(checker.schedule(self.hw, self.good, self.latency * 1.01, "priced"))

    def test_overfused_program_is_caught(self):
        from repro.models.program import plan_fusion

        groups = plan_fusion(serving_graph("bert", 1, 64)).groups
        fused = [len(g.epilogues) for g in groups]
        self.assertTrue(Checker().program("ok", groups, fused))
        self.assertFalse(Checker().program("missing", groups, fused[:-1]))
        fused[0] += 1
        self.assertFalse(Checker().program("overfused", groups, fused))


if __name__ == "__main__":
    unittest.main()

"""The walk benchmark harness (repro.perf.bench) and its CLI gates."""

import argparse
import json

import pytest

import repro.perf.bench as bench_mod
from repro.cli import main
from repro.perf.bench import (
    BENCH_SCHEMA,
    _best_of,
    _matched_speedup,
    _repeat_seeds,
    run_walk_bench,
    write_bench,
)


@pytest.fixture
def tiny_bench(monkeypatch):
    """Shrink the quick suite to one operator and a toy walk so a real
    end-to-end bench run stays test-sized."""
    monkeypatch.setattr(bench_mod, "QUICK_LABELS", ("V1",))
    monkeypatch.setattr(
        bench_mod,
        "_QUICK_CONFIG",
        dict(num_chains=1, max_iterations_per_chain=10, polish_steps=4),
    )


def _fake_run(states_per_sec, iterations=10, states=5, wall=1.0, tag=""):
    return {
        "total_iterations": iterations,
        "total_wall_s": wall,
        "states_per_sec": states_per_sec,
        "ops": [{"states_visited": states}],
        "tag": tag,
    }


class TestBestOf:
    def test_keeps_highest_throughput_run(self):
        runs = {1: _fake_run(100.0, tag="slow"),
                2: _fake_run(300.0, tag="fast"),
                3: _fake_run(200.0, tag="mid")}
        best = _best_of([1, 2, 3], lambda s: runs[s])
        assert best["tag"] == "fast"

    def test_records_per_repeat_footprints(self):
        best = _best_of([7, 8], lambda s: _fake_run(float(s), iterations=s))
        assert [r["seed"] for r in best["repeat_runs"]] == [7, 8]
        assert [r["total_iterations"] for r in best["repeat_runs"]] == [7, 8]
        assert all(r["states_visited"] == 5 for r in best["repeat_runs"])
        assert [r["states_per_sec"] for r in best["repeat_runs"]] == [7.0, 8.0]


class TestMatchedSpeedup:
    def _sections(self, num_rates, den_rates):
        num = _best_of(list(range(len(num_rates))), lambda s: _fake_run(num_rates[s]))
        den = _best_of(list(range(len(den_rates))), lambda s: _fake_run(den_rates[s]))
        return num, den

    def test_pairs_by_repeat_not_by_section_best(self):
        # Section bests are 900 (repeat 1) and 300 (repeat 0): comparing
        # them cross-repeat would claim 3.0x.  Matched pairs give
        # 600/300=2.0 and 900/200=4.5; the best matched pair wins.
        num, den = self._sections([600.0, 900.0], [300.0, 200.0])
        assert _matched_speedup(num, den) == 4.5

    def test_single_repeat_is_the_plain_ratio(self):
        num, den = self._sections([800.0], [200.0])
        assert _matched_speedup(num, den) == 4.0

    def test_zero_denominator_repeats_are_skipped(self):
        num, den = self._sections([800.0, 100.0], [0.0, 50.0])
        assert _matched_speedup(num, den) == 2.0
        num, den = self._sections([800.0], [0.0])
        assert _matched_speedup(num, den) == 0.0


class TestRepeatSeeds:
    def test_single_repeat_keeps_root_seed(self):
        assert _repeat_seeds(42, 1) == [42]
        assert _repeat_seeds(42, 0) == [42]

    def test_repeat_zero_keeps_root_seed(self):
        seeds = _repeat_seeds(42, 3)
        assert seeds[0] == 42
        assert len(seeds) == 3

    def test_substreams_deterministic_and_distinct(self):
        a = _repeat_seeds(42, 4)
        b = _repeat_seeds(42, 4)
        assert a == b
        assert len(set(a)) == 4
        # A different root seed spawns a different family.
        assert _repeat_seeds(43, 4)[1:] != a[1:]


class TestRunWalkBench:
    def test_payload_schema(self, hw, tiny_bench, tmp_path):
        payload = run_walk_bench(hw, quick=True)
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["device"] == hw.name
        assert payload["quick"] is True
        assert payload["suite"] == ["V1"]
        for section in ("reference", "soa"):
            run = payload[section]
            assert run["total_iterations"] > 0
            assert run["states_per_sec"] > 0
            assert [op["label"] for op in run["ops"]] == ["V1"]
            assert [r["seed"] for r in run["repeat_runs"]] == [0]
        assert "scalar" not in payload and "batched" not in payload
        assert payload["soa_speedup_states_per_sec"] > 0
        assert payload["repeat_seeds"] == [0]
        assert set(payload["walker_scaling"]["runs"]) == {"1", "4"}
        assert payload["walker_scaling"]["scaling"] > 0
        assert payload["memo"]["misses"] > 0
        micro = payload["micro"]
        assert micro["sampled_states"] > 0
        assert micro["evaluate_us"] > 0
        assert micro["expand_reference_us"] > 0
        assert micro["expand_soa_us"] > 0

        out = write_bench(payload, tmp_path / "BENCH_walk.json")
        assert json.loads(out.read_text())["schema"] == BENCH_SCHEMA

    def test_walks_identical_across_paths(self, hw, tiny_bench):
        # The reference and the SoA engine must walk the same states:
        # identical iteration counts and identical best latencies per op
        # (repeats=1, so both sections run the same seed).
        payload = run_walk_bench(hw, quick=True)
        for r_op, s_op in zip(payload["reference"]["ops"], payload["soa"]["ops"]):
            assert r_op["iterations"] == s_op["iterations"]
            assert r_op["best_latency_s"] == s_op["best_latency_s"]
            assert r_op["states_visited"] == s_op["states_visited"]

    def test_repeats_reported(self, hw, tiny_bench):
        payload = run_walk_bench(hw, quick=True, repeats=2)
        assert payload["repeats"] == 2
        assert len(payload["repeat_seeds"]) == 2
        assert payload["repeat_seeds"][0] == 0

    def test_repeat_determinism(self, hw, tiny_bench):
        # Same root seed ⇒ identical per-repeat seeds, iteration counts,
        # and states visited, run to run — the repeats draw from a
        # deterministic SeedSequence spawn tree, not from a shared RNG.
        a = run_walk_bench(hw, quick=True, repeats=2, seed=5)
        b = run_walk_bench(hw, quick=True, repeats=2, seed=5)
        assert a["repeat_seeds"] == b["repeat_seeds"]
        for section in ("reference", "soa"):
            fa = [
                (r["seed"], r["total_iterations"], r["states_visited"])
                for r in a[section]["repeat_runs"]
            ]
            fb = [
                (r["seed"], r["total_iterations"], r["states_visited"])
                for r in b[section]["repeat_runs"]
            ]
            assert fa == fb
        # Distinct repeats genuinely walk distinct seeds.
        assert len({r["seed"] for r in a["soa"]["repeat_runs"]}) == 2


class TestCliGates:
    def _payload(self, scaling, soa_speedup=2.0):
        return {
            "schema": BENCH_SCHEMA,
            "device": "rtx4090",
            "quick": True,
            "repeats": 1,
            "suite": ["V1"],
            "reference": {"states_per_sec": 100.0},
            "soa": {"states_per_sec": 100.0 * soa_speedup},
            "soa_speedup_states_per_sec": soa_speedup,
            "memo": {"hits": 1, "misses": 1, "hit_rate": 0.5, "size": 1},
            "micro": {
                "sampled_states": 1,
                "evaluate_us": 1.0,
                "expand_reference_us": 1.0,
                "expand_soa_us": 1.0,
            },
            "walker_scaling": {"counts": [1, 4], "scaling": scaling},
        }

    def _run(self, monkeypatch, tmp_path, payload, *flags):
        monkeypatch.setattr(
            bench_mod, "run_walk_bench", lambda *a, **k: payload
        )
        return main(
            ["bench", "walk", "--quick",
             "--out", str(tmp_path / "B.json"), *flags]
        )

    def test_passing_gates_exit_zero(self, monkeypatch, tmp_path):
        rc = self._run(
            monkeypatch, tmp_path, self._payload(2.5, soa_speedup=2.0),
            "--min-soa-speedup", "1.5", "--min-walker-scaling", "2.0",
        )
        assert rc == 0

    def test_min_speedup_flag_is_gone(self, monkeypatch, tmp_path, capsys):
        # --min-speedup gated batched-over-scalar, two paths that no longer
        # exist; argparse now rejects it (exit 2) instead of ignoring it.
        with pytest.raises(SystemExit) as exc:
            self._run(
                monkeypatch, tmp_path, self._payload(2.5),
                "--min-speedup", "3.0",
            )
        assert exc.value.code == 2
        assert "--min-speedup" in capsys.readouterr().err

    def test_soa_speedup_gate_fails(self, monkeypatch, tmp_path, capsys):
        rc = self._run(
            monkeypatch, tmp_path, self._payload(2.5, soa_speedup=1.2),
            "--min-soa-speedup", "1.5",
        )
        assert rc == 1
        assert "soa speedup" in capsys.readouterr().err

    def test_soa_speedup_gate_passes(self, monkeypatch, tmp_path):
        rc = self._run(
            monkeypatch, tmp_path, self._payload(2.5, soa_speedup=1.8),
            "--min-soa-speedup", "1.5",
        )
        assert rc == 0

    def test_scaling_gate_fails(self, monkeypatch, tmp_path, capsys):
        rc = self._run(
            monkeypatch, tmp_path, self._payload(1.4),
            "--min-walker-scaling", "2.0",
        )
        assert rc == 1
        assert "walker scaling" in capsys.readouterr().err

    def test_no_gates_always_pass(self, monkeypatch, tmp_path):
        rc = self._run(monkeypatch, tmp_path, self._payload(0.5, soa_speedup=0.5))
        assert rc == 0

"""Command-line interface."""

import pytest

from repro.cli import build_operator, build_parser, main


class TestBuildOperator:
    def test_gemm(self):
        op = build_operator("gemm", "64x32x48")
        assert op.kind == "gemm"
        assert op.extents() == {"i": 64, "k": 32, "j": 48}

    def test_gemv(self):
        op = build_operator("gemv", "128x64")
        assert op.kind == "gemv"

    def test_bmm(self):
        op = build_operator("bmm", "4x32x16x32")
        assert op.kind == "bmm"

    def test_conv2d(self):
        op = build_operator("conv2d", "2x4x10x10x8x3x3x1")
        assert op.kind == "conv2d"
        assert op.axis("oh").extent == 8

    def test_avgpool2d(self):
        op = build_operator("avgpool2d", "2x4x8x8x2x2")
        assert op.kind == "avgpool2d"

    def test_elementwise(self):
        op = build_operator("elementwise", "16x16")
        assert op.kind == "elementwise"

    def test_case_insensitive_separator(self):
        op = build_operator("gemm", "64X32X48")
        assert op.axis("i").extent == 64

    @pytest.mark.parametrize(
        "op,shape",
        [("gemm", "64x32"), ("gemv", "64"), ("conv2d", "1x2x3"), ("bmm", "1x2x3")],
    )
    def test_wrong_arity_rejected(self, op, shape):
        with pytest.raises(ValueError):
            build_operator(op, shape)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            build_operator("fft", "64")


class TestParser:
    def test_compile_defaults(self):
        args = build_parser().parse_args(
            ["compile", "--op", "gemm", "--shape", "64x64x64"]
        )
        assert args.method == "gensor"
        assert args.device == "rtx4090"

    def test_experiment_args(self):
        args = build_parser().parse_args(["experiment", "fig06", "--full"])
        assert args.name == "fig06" and args.full

    def test_compile_accepts_dynamic_method(self):
        args = build_parser().parse_args(
            ["compile", "--op", "gemm", "--shape", "64x64x64",
             "--method", "dynamic"]
        )
        assert args.method == "dynamic"

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.model == "bert"
        assert args.requests == 200
        assert args.workers == 8
        assert args.deadline_ms is None
        assert args.window == 64
        assert args.faults is None
        assert args.fail_fast is False

    def test_serve_bench_fault_flags(self):
        args = build_parser().parse_args(
            ["serve-bench", "--faults", "plan.json", "--fail-fast"]
        )
        assert args.faults == "plan.json" and args.fail_fast
        args = build_parser().parse_args(["serve-bench", "--no-fail-fast"])
        assert args.fail_fast is False

    def test_compile_trace_defaults_off(self):
        args = build_parser().parse_args(
            ["compile", "--op", "gemm", "--shape", "64x64x64"]
        )
        assert args.trace is None

    def test_resilience_experiment_registered(self):
        from repro.cli import _EXPERIMENTS

        assert _EXPERIMENTS["resilience"] == (
            "repro.experiments.serving_resilience"
        )

    def test_serve_bench_out_default(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.out == "BENCH_serve.json"
        args = build_parser().parse_args(["serve-bench", "--out", ""])
        assert args.out == ""

    def test_fleet_bench_defaults(self):
        args = build_parser().parse_args(["fleet-bench"])
        assert args.model == "bert"
        assert args.requests is None
        assert args.processes is None
        assert args.workers_per_shard == 1
        assert args.window == 32
        assert args.routing == "least-loaded"
        assert args.quick is False
        assert args.out == "BENCH_fleet.json"
        assert args.min_process_scaling is None
        assert args.skip_parity is False

    def test_trace_report_args(self):
        args = build_parser().parse_args(
            ["trace-report", "walk.jsonl", "--chrome", "timeline.json"]
        )
        assert args.trace == "walk.jsonl"
        assert args.chrome == "timeline.json"


class TestMain:
    def test_devices_command(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "rtx4090" in out and "orin_nano" in out

    def test_compile_roller_small(self, capsys):
        code = main(
            ["compile", "--op", "gemm", "--shape", "256x128x256",
             "--method", "roller"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "schedule:" in out and "predicted:" in out

    def test_compile_with_emit(self, capsys):
        code = main(
            ["compile", "--op", "gemm", "--shape", "256x128x256",
             "--method", "cublas", "--emit"]
        )
        assert code == 0
        assert "__global__" in capsys.readouterr().out

    def test_compile_dynamic_reports_serve_source(self, capsys):
        code = main(
            ["compile", "--op", "gemm", "--shape", "64x32x64",
             "--method", "dynamic"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served:     cold" in out
        assert "schedule:" in out and "predicted:" in out

    def test_serve_bench_runs(self, capsys, tmp_path):
        code = main(
            ["serve-bench", "--model", "bert", "--requests", "8",
             "--workers", "2", "--time-scale", "0",
             "--out", str(tmp_path / "BENCH_serve.json")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve-bench" in out and "tier:cold" in out
        assert "0 failed" in out

    def test_serve_bench_writes_artifact(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_serve.json"
        code = main(
            ["serve-bench", "--model", "bert", "--requests", "6",
             "--workers", "2", "--time-scale", "0", "--out", str(out)]
        )
        assert code == 0
        assert f"wrote {out}" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["bench"] == "serve"
        assert payload["requests"] == 6
        assert payload["failed"] == 0
        assert payload["requests_per_s"] > 0
        assert payload["served_schedules"] == 6

    def test_fleet_bench_tiny_run_writes_artifact(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_fleet.json"
        code = main(
            ["fleet-bench", "--quick", "--requests", "8",
             "--processes", "2", "--time-scale", "0", "--skip-parity",
             "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "fleet-bench" in stdout and f"wrote {out}" in stdout
        payload = json.loads(out.read_text())
        assert payload["bench"] == "fleet"
        assert set(payload["runs"]) == {"1", "2"}
        assert all(r["failed"] == 0 for r in payload["runs"].values())
        assert "2v1" in payload["process_scaling"]
        assert payload["autoscale"]["peak_workers"] >= 1

    def test_serve_bench_with_fault_plan(self, capsys, tmp_path):
        import json

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "seed": 0,
            "faults": [{"kind": "raise", "rate": 0.5, "attempts": [0]}],
        }))
        code = main(
            ["serve-bench", "--model", "bert", "--requests", "8",
             "--workers", "2", "--time-scale", "0",
             "--faults", str(plan_path),
             "--out", str(tmp_path / "BENCH_serve.json")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos:" in out and "availability:" in out

    def test_serve_bench_missing_fault_plan_one_line_error(self, capsys):
        code = main(["serve-bench", "--faults", "/nope/plan.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "serve-bench:" in err
        assert "Traceback" not in err

    def test_bad_shape_one_line_error(self, capsys):
        code = main(["compile", "--op", "gemm", "--shape", "64x32"])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro compile: gemm expects MxKxN" in err
        assert "Traceback" not in err

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_runs(self, capsys):
        assert main(["experiment", "convergence"]) == 0
        assert "Markov" in capsys.readouterr().out


class TestTracingCommands:
    def test_compile_trace_then_report(self, capsys, tmp_path):
        trace = str(tmp_path / "walk.jsonl")
        chrome = str(tmp_path / "timeline.json")
        code = main(
            ["compile", "--op", "gemm", "--shape", "64x32x64",
             "--trace", trace]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out and trace in out

        code = main(["trace-report", trace, "--chrome", chrome])
        assert code == 0
        out = capsys.readouterr().out
        assert "walk steps" in out
        assert "chrome trace:" in out

        import json

        doc = json.load(open(chrome))
        assert doc["traceEvents"]

    def test_trace_requires_construction_method(self, capsys, tmp_path):
        code = main(
            ["compile", "--op", "gemm", "--shape", "64x64x64",
             "--method", "roller", "--trace", str(tmp_path / "t.jsonl")]
        )
        assert code == 2
        assert "--method gensor or dynamic" in capsys.readouterr().err

    def test_trace_report_missing_file(self, capsys, tmp_path):
        code = main(["trace-report", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "trace-report:" in capsys.readouterr().err

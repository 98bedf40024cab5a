"""Command-line interface.

Subcommands::

    python -m repro compile --op gemm --shape 4096x4096x4096 --method gensor
    python -m repro compile-graph --model bert_small --batch 1
    python -m repro experiment fig06 [--full]
    python -m repro serve-bench --model bert --requests 200 --workers 8
    python -m repro fleet-bench --processes 4 [--quick]
    python -m repro bench walk [--quick] [--out BENCH_walk.json]
    python -m repro trace-report walk.jsonl [--chrome timeline.json]
    python -m repro devices

``compile`` optimizes a single operator with any method and prints the
winning schedule, predicted metrics, generated kernel (with ``--emit``),
and compile cost; ``--trace out.jsonl`` records the full Markov walk
(per-step actions, probabilities, temperature) for gensor/dynamic.
``compile-graph`` compiles a whole model as one program — fusion groups
planned over the graph, each group's walk exploring fuse/unfuse alongside
tiling — and prints the program's groups plus its latency against the
per-op compilation baseline.
``experiment`` regenerates one of the paper's tables/figures by name.
``serve-bench`` replays a synthetic dynamic-shape request trace through
the concurrent compile service, prints its stats table, and writes
``BENCH_serve.json``.  ``fleet-bench`` replays the same traces through
the sharded multi-process fleet at increasing process counts and writes
``BENCH_fleet.json`` (throughput scaling, schedule parity vs the
single-process service, autoscale demo).
``bench walk`` measures construction-walk throughput (the SoA engine vs
the object-level reference, memo hit rate, multi-walker scaling) and writes
``BENCH_walk.json`` — the perf trajectory every PR is compared against.
``trace-report`` summarizes a recorded trace (action mix, acceptance
rate, convergence step) and can export a Chrome ``trace_event`` timeline.
``devices`` lists the simulated GPUs.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.baselines import Ansor, AnsorConfig, PyTorchEager, Roller, VendorLibrary
from repro.core import DynamicCompileResult, DynamicGensor, Gensor, GensorConfig
from repro.hardware import DEVICES
from repro.ir import operators as ops

__all__ = ["main", "build_operator"]

_EXPERIMENTS = {
    "fig01": "repro.experiments.fig01_tree_vs_graph",
    "fig06": "repro.experiments.fig06_ops_rtx4090",
    "fig07": "repro.experiments.fig07_ops_orin",
    "fig08": "repro.experiments.fig08_compile_time",
    "fig09": "repro.experiments.fig09_end2end",
    "fig10": "repro.experiments.fig10_tradeoff",
    "fig11": "repro.experiments.fig11_dynamic_bert",
    "fig12": "repro.experiments.fig12_dynamic_timeline",
    "table05": "repro.experiments.table05_breakdown",
    "table06": "repro.experiments.table06_ablation",
    "memory": "repro.experiments.memory_overhead",
    "convergence": "repro.experiments.convergence_analysis",
    "serving": "repro.experiments.serving_throughput",
    "resilience": "repro.experiments.serving_resilience",
    "walk": "repro.experiments.walk_diagnostics",
}


def build_operator(op: str, shape: str):
    """Construct an operator from CLI arguments.

    Shapes: ``gemm MxKxN``, ``gemv MxN``, ``bmm BxMxKxN``,
    ``conv2d NxCxHxWxFxRxSxstride``, ``avgpool2d NxCxHxWxFxstride``,
    ``elementwise D0xD1x...``.
    """
    dims = [int(d) for d in shape.lower().split("x")]
    if op == "gemm":
        if len(dims) != 3:
            raise ValueError("gemm expects MxKxN")
        return ops.matmul(*dims, name="cli_gemm")
    if op == "gemv":
        if len(dims) != 2:
            raise ValueError("gemv expects MxN")
        return ops.gemv(*dims, name="cli_gemv")
    if op == "bmm":
        if len(dims) != 4:
            raise ValueError("bmm expects BxMxKxN")
        return ops.batched_matmul(*dims, name="cli_bmm")
    if op == "conv2d":
        if len(dims) != 8:
            raise ValueError("conv2d expects NxCxHxWxFxRxSxstride")
        n, c, h, w, f, r, s, stride = dims
        return ops.conv2d(n, c, h, w, f, r, s, stride, name="cli_conv2d")
    if op == "avgpool2d":
        if len(dims) != 6:
            raise ValueError("avgpool2d expects NxCxHxWxFxstride")
        n, c, h, w, f, stride = dims
        return ops.avgpool2d(n, c, h, w, f, stride, name="cli_pool")
    if op == "elementwise":
        return ops.elementwise(tuple(dims), "relu", name="cli_elementwise")
    raise ValueError(f"unknown op {op!r}")


def _make_method(name: str, hw, trials: int):
    if name == "gensor":
        return Gensor(hw)
    if name == "dynamic":
        return DynamicGensor(hw)
    if name == "roller":
        return Roller(hw)
    if name == "ansor":
        return Ansor(hw, AnsorConfig(num_trials=trials))
    if name == "cublas":
        return VendorLibrary(hw)
    if name == "pytorch":
        return PyTorchEager(hw)
    raise ValueError(f"unknown method {name!r}")


def _cmd_compile(args: argparse.Namespace) -> int:
    hw = DEVICES[args.device]()
    compute = build_operator(args.op, args.shape)
    method = _make_method(args.method, hw, args.trials)
    tracer = None
    if args.trace:
        if args.method not in ("gensor", "dynamic"):
            print(
                f"--trace records the construction walk and needs "
                f"--method gensor or dynamic, not {args.method!r}",
                file=sys.stderr,
            )
            return 2
        from repro.obs import JsonlTracer
        from repro.sim.measure import MICROBENCH_SECONDS, Measurer

        tracer = JsonlTracer(args.trace)
        measurer = Measurer(
            hw,
            seed=method.config.seed,
            noise_sigma=0.0,
            seconds_per_measurement=MICROBENCH_SECONDS,
            tracer=tracer,
        )
        result = method.compile(compute, measurer, tracer=tracer)
        tracer.close()
    else:
        result = method.compile(compute)
    source = None
    if isinstance(result, DynamicCompileResult):
        source = result.source
        result = result.result
    print("operator:  ", compute.render())
    print("method:    ", args.method, "on", hw.name)
    if source is not None:
        print("served:    ", source, "(hit=cache, warm=neighbor, cold=full)")
    print("schedule:  ", result.best.describe())
    print("predicted: ", result.best_metrics.summary())
    print(f"compile:    {result.compile_seconds:.2f}s "
          f"({result.simulated_measure_s:.2f}s simulated profiling)")
    if tracer is not None:
        print(f"trace:      {tracer.num_events} events -> {tracer.path} "
              f"(summarize with: repro trace-report {tracer.path})")
    if args.emit:
        from repro.codegen import emit_cuda, lower_etir

        print()
        print(emit_cuda(lower_etir(result.best), compute))
    return 0


_MODELS = ("bert_small", "resnet50", "mobilenetv2", "gpt2")


def _build_model(name: str, batch: int, seq: int):
    from repro.models import bert_small, gpt2, mobilenet_v2, resnet50

    if name == "bert_small":
        return bert_small(batch=batch, seq=seq)
    if name == "resnet50":
        return resnet50(batch=batch)
    if name == "mobilenetv2":
        return mobilenet_v2(batch=batch)
    if name == "gpt2":
        return gpt2(batch=batch, seq=seq)
    raise ValueError(f"unknown model {name!r}")


def _cmd_compile_graph(args: argparse.Namespace) -> int:
    from repro.models.runner import compile_and_time

    hw = DEVICES[args.device]()
    graph = _build_model(args.model, args.batch, args.seq)
    cfg = (
        GensorConfig(seed=args.seed)
        if args.full
        else GensorConfig(
            seed=args.seed, num_chains=3, top_k=6, polish_steps=60
        )
    )
    fusion = not args.no_fusion
    per_op = compile_and_time(graph, Gensor(hw, cfg), "gensor")
    prog_run = compile_and_time(
        graph, Gensor(hw, cfg), "gensor", program=True, fusion=fusion
    )
    program = prog_run.program
    print(f"model:     {graph.name} (batch {graph.batch}) on {hw.name}")
    print(f"fusion:    {'on' if fusion else 'off'}")
    print("groups:")
    for g in program.groups:
        chain = ""
        if g.epilogue_names:
            fused_names = g.epilogue_names[:g.fused]
            pending = g.epilogue_names[g.fused:]
            chain = " + " + " + ".join(fused_names) if fused_names else ""
            if pending:
                chain += f"  (unfused: {', '.join(pending)})"
        print(f"  {g.anchor_label}{chain}  x{g.count}  "
              f"{g.latency_s * 1e6:.2f}us")
    print(f"program:    {program.latency_s * 1e3:.4f} ms/inference, "
          f"{program.num_kernels} kernel launches "
          f"({program.num_fused_ops} fused away)")
    print(f"per-op sum: {per_op.latency_s * 1e3:.4f} ms/inference")
    win = 0.0
    if per_op.latency_s > 0:
        win = 1.0 - program.latency_s / per_op.latency_s
        print(f"fusion win: {win:+.1%} vs per-op compilation")
    print(f"compile:    {prog_run.compile_seconds:.2f}s program, "
          f"{per_op.compile_seconds:.2f}s per-op")
    if args.min_win is not None and win < args.min_win:
        print(
            f"FAIL: fusion win {win:+.1%} below the required "
            f"{args.min_win:+.1%} gate",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.name == "all":
        from repro.experiments.report import generate_report

        report = generate_report(quick=not args.full, echo=True)
        print(f"regenerated {len(report.sections)} result sets in "
              f"{report.total_seconds:.0f}s")
        return 0
    module_name = _EXPERIMENTS.get(args.name)
    if module_name is None:
        print(f"unknown experiment {args.name!r}; choices: "
              f"{', '.join(sorted(_EXPERIMENTS))}", file=sys.stderr)
        return 2
    module = importlib.import_module(module_name)
    result = module.run(quick=not args.full)
    print(result.render())
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve import run_serve_bench

    try:
        report = run_serve_bench(
            model=args.model,
            num_requests=args.requests,
            workers=args.workers,
            device_name=args.device,
            deadline_ms=args.deadline_ms,
            seed=args.seed,
            window=args.window,
            time_scale=args.time_scale,
            fault_plan=args.faults,
            fail_fast=args.fail_fast,
        )
    except (ValueError, OSError) as exc:
        print(f"serve-bench: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # --fail-fast tripped
        print(f"serve-bench: aborted: {exc}", file=sys.stderr)
        return 1
    print(report.table)
    print()
    print(f"replayed {report.requests} requests "
          f"({report.unique_shapes} unique shapes) in {report.wall_s:.2f}s "
          f"-> {report.requests_per_s:.1f} req/s, {report.failed} failed")
    if args.out:
        from repro.perf.bench import write_bench

        print(f"wrote {write_bench(report.to_json(), args.out)}")
    if args.faults is not None:
        res = report.resilience
        print()
        print(f"chaos: {res['faults_injected']} faults injected, "
              f"{res['retries']} retries, "
              f"{res['breaker_opens']} breaker opens, "
              f"{sum(res['worker_respawns'].values())} worker respawns")
        print(f"availability: {report.availability:.1%} "
              f"(degraded tiers count as available)")
    return 0 if report.failed == 0 else 1


def _cmd_fleet_bench(args: argparse.Namespace) -> int:
    from repro.fleet.bench import run_fleet_bench
    from repro.perf.bench import write_bench

    process_counts = None
    if args.processes is not None:
        counts = [1]
        while counts[-1] * 2 <= args.processes:
            counts.append(counts[-1] * 2)
        if counts[-1] != args.processes:
            counts.append(args.processes)
        # the scaling gate compares 4v1, so keep 4 in mid-size sweeps
        if 4 not in counts and args.processes > 4:
            counts.insert(-1, 4)
        process_counts = tuple(counts)
    report = run_fleet_bench(
        model=args.model,
        num_requests=args.requests,
        process_counts=process_counts,
        workers_per_shard=args.workers_per_shard,
        device_name=args.device,
        seed=args.seed,
        window=args.window,
        time_scale=args.time_scale,
        quick=args.quick,
        routing=args.routing,
        check_parity=not args.skip_parity,
    )
    print(report.render())
    if args.out:
        print(f"wrote {write_bench(report.to_json(), args.out)}")
    failed = []
    if report.parity and report.parity["mismatches"] > 0:
        failed.append(
            f"{report.parity['mismatches']} schedule parity mismatches "
            f"between the {report.parity['processes']}-process fleet and "
            f"the single-process service"
        )
    if args.min_process_scaling is not None:
        ratio = report.scaling.get("4v1")
        if ratio is None:
            failed.append("no 4-process run to gate on")
        elif ratio < args.min_process_scaling:
            failed.append(
                f"process scaling {ratio:.2f}x < required "
                f"{args.min_process_scaling}x"
            )
    for msg in failed:
        print(f"fleet-bench: FAIL: {msg}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import run_walk_bench, write_bench

    hw = DEVICES[args.device]()
    repeats = args.repeats if args.repeats is not None else (3 if args.quick else 1)
    payload = run_walk_bench(hw, seed=args.seed, quick=args.quick, repeats=repeats)
    out = write_bench(payload, args.out)
    soa_speedup = payload["soa_speedup_states_per_sec"]
    memo = payload["memo"]
    print(f"walk bench on {payload['device']} "
          f"({'quick, ' if args.quick else ''}{len(payload['suite'])} ops)")
    print(f"states/sec: reference {payload['reference']['states_per_sec']:.0f}, "
          f"soa {payload['soa']['states_per_sec']:.0f} "
          f"({soa_speedup:.2f}x)")
    print(f"memo: {memo['hits']} hits / {memo['misses']} misses "
          f"({memo['hit_rate']:.1%} hit rate), size {memo['size']}")
    micro = payload["micro"]
    print(f"evaluate: {micro['evaluate_us']:.1f}us; expand: "
          f"{micro['expand_reference_us']:.1f}us reference, "
          f"{micro['expand_soa_us']:.1f}us soa "
          f"over {micro['sampled_states']} states")
    print(f"wrote {out}")
    if args.min_soa_speedup is not None and soa_speedup < args.min_soa_speedup:
        print(f"bench: FAIL: soa speedup {soa_speedup:.2f}x < required "
              f"{args.min_soa_speedup}x", file=sys.stderr)
        return 1
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs import trace_report, write_chrome_trace

    try:
        print(trace_report(args.trace))
    except (OSError, ValueError) as exc:
        print(f"trace-report: {exc}", file=sys.stderr)
        return 2
    if args.chrome:
        n = write_chrome_trace(args.trace, args.chrome)
        print()
        print(f"chrome trace: {n} events -> {args.chrome} "
              f"(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import os.path
    from pathlib import Path

    from repro.analysis import run_lint

    # Anchor spans at the directory containing the ``repro`` package so
    # paths (and baseline fingerprints) read ``repro/core/cache.py``
    # regardless of checkout location.  Explicit paths outside the
    # package (fixture trees) anchor at their own common ancestor,
    # hopping above any ``repro`` directory so zones still resolve.
    if args.paths:
        paths = [Path(p).resolve() for p in args.paths]
        common = Path(os.path.commonpath([str(p) for p in paths]))
        if common.is_file():
            common = common.parent
        root = common
        for ancestor in (common, *common.parents):
            if ancestor.name == "repro":
                root = ancestor.parent
                break
    else:
        root = Path(__file__).resolve().parents[1]
        paths = [root / "repro"]
    baseline = args.baseline
    if baseline is None:
        candidate = root.parent / "LINT_BASELINE.json"
        baseline = candidate if candidate.exists() or args.update_baseline \
            else None
    report = run_lint(
        paths,
        root,
        baseline=baseline,
        update_baseline=args.update_baseline,
    )
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    if args.update_baseline:
        print(f"baseline written: {baseline}", file=sys.stderr)
        return 0
    return report.exit_code


def _cmd_devices(_args: argparse.Namespace) -> int:
    for name, factory in DEVICES.items():
        hw = factory()
        print(
            f"{name}: {hw.num_sms} SMs @ {hw.clock_hz / 1e9:.2f} GHz, "
            f"{hw.peak_flops / 1e12:.1f} TFLOPS peak, "
            f"{hw.dram.bandwidth_bytes_per_s / 1e9:.0f} GB/s DRAM"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Gensor reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="optimize one operator")
    p_compile.add_argument("--op", required=True,
                           choices=["gemm", "gemv", "bmm", "conv2d",
                                    "avgpool2d", "elementwise"])
    p_compile.add_argument("--shape", required=True,
                           help="x-separated dims, e.g. 4096x4096x4096")
    p_compile.add_argument("--method", default="gensor",
                           choices=["gensor", "dynamic", "roller", "ansor",
                                    "cublas", "pytorch"])
    p_compile.add_argument("--device", default="rtx4090", choices=list(DEVICES))
    p_compile.add_argument("--trials", type=int, default=500,
                           help="Ansor measurement budget")
    p_compile.add_argument("--emit", action="store_true",
                           help="print the generated kernel source")
    p_compile.add_argument("--trace", default=None, metavar="OUT.jsonl",
                           help="record the construction walk as JSONL "
                                "events (gensor/dynamic only)")
    p_compile.set_defaults(fn=_cmd_compile)

    p_graph = sub.add_parser(
        "compile-graph",
        help="compile a whole model as one fusion-aware program",
    )
    p_graph.add_argument("--model", default="bert_small", choices=_MODELS)
    p_graph.add_argument("--batch", type=int, default=1)
    p_graph.add_argument("--seq", type=int, default=128,
                         help="sequence length (bert_small/gpt2 only)")
    p_graph.add_argument("--device", default="rtx4090", choices=list(DEVICES))
    p_graph.add_argument("--seed", type=int, default=0)
    p_graph.add_argument("--no-fusion", action="store_true",
                         help="plan one group per op (the per-op baseline "
                              "expressed in program form)")
    p_graph.add_argument("--full", action="store_true",
                         help="paper-scale construction budget")
    p_graph.add_argument("--min-win", type=float, default=None,
                         help="exit nonzero unless the program beats the "
                              "per-op latency sum by this fraction "
                              "(CI gate, e.g. 0.0 or 0.10)")
    p_graph.set_defaults(fn=_cmd_compile_graph)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument(
        "name", help=f"'all' or one of: {', '.join(sorted(_EXPERIMENTS))}"
    )
    p_exp.add_argument("--full", action="store_true",
                       help="paper-scale search budgets")
    p_exp.set_defaults(fn=_cmd_experiment)

    p_serve = sub.add_parser(
        "serve-bench",
        help="replay a dynamic-shape trace through the compile service",
    )
    p_serve.add_argument("--model", default="bert", choices=["bert", "gpt2"])
    p_serve.add_argument("--requests", type=int, default=200)
    p_serve.add_argument("--workers", type=int, default=8)
    p_serve.add_argument("--device", default="rtx4090", choices=list(DEVICES))
    p_serve.add_argument("--deadline-ms", type=float, default=None,
                         help="per-request deadline; tight values trigger "
                              "degraded serving tiers")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--window", type=int, default=64,
                         help="closed-loop client concurrency")
    p_serve.add_argument("--time-scale", type=float, default=1.0,
                         help="fraction of simulated profiling cost slept "
                              "in real time (0 = CPU-only)")
    p_serve.add_argument("--faults", default=None, metavar="PLAN.json",
                         help="chaos mode: inject faults from a FaultPlan "
                              "JSON file (see DESIGN.md 'Resilience')")
    p_serve.add_argument("--fail-fast", action=argparse.BooleanOptionalAction,
                         default=False,
                         help="abort the replay on the first error response "
                              "instead of completing the trace")
    p_serve.add_argument("--out", default="BENCH_serve.json",
                         metavar="OUT.json",
                         help="artifact path ('' disables the write)")
    p_serve.set_defaults(fn=_cmd_serve_bench)

    p_fleet = sub.add_parser(
        "fleet-bench",
        help="replay a trace through the sharded multi-process fleet "
             "-> BENCH_fleet.json",
    )
    p_fleet.add_argument("--model", default="bert", choices=["bert", "gpt2"])
    p_fleet.add_argument("--requests", type=int, default=None,
                         help="trace length (default: 48 quick, 160 full)")
    p_fleet.add_argument("--processes", type=int, default=None,
                         help="largest shard-process count; the sweep runs "
                              "1..N in powers of two (default: 4 quick, "
                              "8 full)")
    p_fleet.add_argument("--workers-per-shard", type=int, default=1,
                         help="worker threads inside each shard process")
    p_fleet.add_argument("--device", default="rtx4090", choices=list(DEVICES))
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.add_argument("--window", type=int, default=32,
                         help="closed-loop client concurrency")
    p_fleet.add_argument("--time-scale", type=float, default=1.0,
                         help="fraction of simulated profiling cost slept "
                              "in real time (0 = CPU-only)")
    p_fleet.add_argument("--routing", default="least-loaded",
                         choices=["hash", "least-loaded"])
    p_fleet.add_argument("--quick", action="store_true",
                         help="CI smoke mode: short trace, tiny "
                              "construction budget, no 8-process point")
    p_fleet.add_argument("--out", default="BENCH_fleet.json",
                         metavar="OUT.json",
                         help="artifact path ('' disables the write)")
    p_fleet.add_argument("--min-process-scaling", type=float, default=None,
                         help="exit 1 if 4-vs-1 process throughput scaling "
                              "falls below this")
    p_fleet.add_argument("--skip-parity", action="store_true",
                         help="skip the sequential fleet-vs-single-process "
                              "schedule parity check")
    p_fleet.set_defaults(fn=_cmd_fleet_bench)

    p_bench = sub.add_parser(
        "bench",
        help="measure construction-walk throughput -> BENCH_walk.json",
    )
    p_bench.add_argument("target", choices=["walk"],
                         help="benchmark to run (only 'walk' so far)")
    p_bench.add_argument("--quick", action="store_true",
                         help="one op per family with a reduced walk "
                              "(the CI smoke mode)")
    p_bench.add_argument("--device", default="rtx4090", choices=list(DEVICES))
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default="BENCH_walk.json",
                         metavar="OUT.json")
    p_bench.add_argument("--repeats", type=int, default=None,
                         help="best-of-N wall per measurement, each repeat "
                              "on its own deterministic seed substream "
                              "(default: 3 for --quick, 1 otherwise)")
    p_bench.add_argument("--min-soa-speedup", type=float, default=None,
                         help="exit 1 if soa/reference states-per-sec "
                              "falls below this")
    p_bench.set_defaults(fn=_cmd_bench)

    p_trace = sub.add_parser(
        "trace-report",
        help="summarize a JSONL construction trace",
    )
    p_trace.add_argument("trace", help="trace file from compile --trace")
    p_trace.add_argument("--chrome", default=None, metavar="OUT.json",
                         help="also export a Chrome trace_event timeline")
    p_trace.set_defaults(fn=_cmd_trace_report)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo-specific static checkers "
             "(determinism, lock order, spawn safety)",
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files/dirs to lint (default: the installed repro package)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is schema-stable for CI consumption)",
    )
    p_lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline JSON of accepted findings "
             "(default: LINT_BASELINE.json next to the package, if present)",
    )
    p_lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    p_lint.set_defaults(fn=_cmd_lint)

    p_dev = sub.add_parser("devices", help="list simulated devices")
    p_dev.set_defaults(fn=_cmd_devices)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        # Operator errors (bad shapes, missing files) get one line on
        # stderr and a non-zero exit, never a traceback.
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

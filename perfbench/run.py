#!/usr/bin/env python3
"""perfbench: the repository benchmark.

    python3 perfbench/run.py --workload ops-cold --seed 1 --seconds 25 --trace 0

Runs from the repository root.  The launcher (this process) starts every
measured phase in a fresh interpreter, so the process-wide metrics memo
and metrics registry never carry state from one run into the next:

* ``SETUP_PROBES`` set-up-only children, then the measured child, each
  timed from spawn to the end of its set-up; ``setup_s`` is their median;
* the measured child sets up, measures for ``--seconds`` and checks every
  output outside the timed window.

Every reported time is scaled to a nominal host speed by a reference loop
read beside the timed work (``hostspeed.py``): a shared virtual machine
changes speed by up to half for seconds at a time.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` installs the timing shims of ``ledger.py`` and reports the
per-layer metrics and the ledger instead.  Human-readable lines come
first; the last line of standard output is the JSON result.
``--record FILE`` also appends the full result with its provenance (host,
commit, source digest, seed) to FILE, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("ops-cold", "model-programs", "serve-zipf", "fleet-zipf")
SETUP_PROBES = 2
#: samples a reported tail percentile must have beyond it.
TAIL_SAMPLES = 10
#: wall budget of one child; the whole run must end within 180 s.
CHILD_TIMEOUT_S = 120.0
PROBE_TIMEOUT_S = 25.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None)
    parser.add_argument("--phase", choices=("setup", "measure"), default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- child phases ------------------------------------------------------------------


def child(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    print(json.dumps(measure_child(args)))
    return 0


def measure_child(args: argparse.Namespace) -> dict:
    """One child phase: set up, and unless probing set-up, measure."""
    from hostspeed import reference_s

    ref_start = reference_s()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    # Serving workloads compile every family during set-up.
    report: dict = {"setup_end": time.time(), "warmup_s": getattr(workload, "compile_s", None)}
    report["setup_ref"] = (ref_start + reference_s()) / 2
    if args.phase == "setup":
        workload.close()
        return report
    ledger = tracer = None
    if args.trace:
        from ledger import Ledger, PolishTracer

        tracer = PolishTracer()
        if hasattr(workload, "attach_tracer"):
            workload.attach_tracer(tracer)
        ledger = Ledger().install()
    try:
        outcome = workload.measure(args.seconds, ledger, tracer)
    finally:
        if ledger is not None:
            ledger.uninstall()
        workload.close()
    if ledger is not None:
        from ledger import trace_layers

        layers = trace_layers(ledger, tracer, outcome)
        layers.update(outcome.layers)
        report["layers"] = layers
        report["ledger"] = outcome.ledger
    report.update(
        peak_rss_mb=getattr(workload, "rss_mb", None) or workloads.peak_rss_mb(),
        outcome={
            "compile_walls": outcome.compile_walls,
            "op_s": outcome.op_s,
            "program_s": outcome.program_s,
            "kernel_s": outcome.kernel_s,
            "slo_met": outcome.slo_met,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "profile_s": outcome.profile_s,
            "failures": outcome.failures[:20],
            "facts": outcome.facts,
        },
    )
    return report


# -- launcher ------------------------------------------------------------------------


class RunFailed(RuntimeError):
    pass


def spawn(args: argparse.Namespace, phase: str, timeout: float) -> tuple[dict, float]:
    """Run one child phase; returns (its JSON report, spawn epoch)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--phase", phase,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    started = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{phase} child exceeded {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{phase} child exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def setup_time(report: dict, started: float) -> float:
    """Spawn to end of set-up, scaled by the host-speed reference read in it."""
    from hostspeed import NOMINAL_S

    return (report["setup_end"] - started) * NOMINAL_S / report["setup_ref"]


def tail(values: list, pct: float) -> float:
    """The ``pct`` percentile, or the highest one the sample supports.

    A tail percentile is reported only as far as ten samples lie beyond
    it (and never below the median): with 64 samples a "p99" would be the
    single slowest one, which moves with every run.
    """
    from repro.serve.stats import percentile

    supported = 100.0 * (len(values) - TAIL_SAMPLES) / max(1, len(values))
    return percentile(values, max(50.0, min(pct, supported)))


def end_to_end(outcome: dict, setup: list, rss_mb: float, failed: int) -> dict:
    """Every end-to-end metric from one measured child's raw samples.

    Bounded metrics are the ``end_to_end`` entries of BENCHMARK.json; the
    rest are declared under ``per_layer`` and printed beside them (NOTES.md
    says why each carries no bound).
    """
    from repro.serve.stats import percentile

    return {
        "setup_s": statistics.median(setup),
        "compile_s": statistics.median(outcome["compile_walls"]),
        "kernel_us": statistics.geometric_mean(outcome["kernel_s"]) * 1e6,
        "peak_rss_mb": rss_mb,
        "op_p50_ms": percentile(outcome["op_s"], 50) * 1e3,
        "op_p99_ms": tail(outcome["op_s"], 99) * 1e3,
        "program_p50_ms": percentile(outcome["program_s"], 50) * 1e3,
        "program_p90_ms": tail(outcome["program_s"], 90) * 1e3,
        "program_mean_ms": statistics.mean(outcome["program_s"]) * 1e3,
        "slo_attainment": outcome["slo_met"] / outcome["attempted"],
        "fail_rate": failed / outcome["attempted"],
        "profile_s": outcome["profile_s"],
    }


def host_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def provenance(args: argparse.Namespace) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "host": host_info(),
        "commit": commit,
        "src_digest": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def launch(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro beside the benchmark; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    t_start = time.time()
    setup: list = []
    warmups: list = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            report, started = spawn(args, "setup", PROBE_TIMEOUT_S)
            setup.append(setup_time(report, started))
            warmups.append(report["warmup_s"])
    report, started = spawn(args, "measure", CHILD_TIMEOUT_S)
    setup.append(setup_time(report, started))
    outcome = report["outcome"]
    # Serving workloads compile every family during set-up: their
    # compile_s is the median warm-up over every set-up of the run.
    outcome["compile_walls"] += [w for w in warmups if w is not None]
    failed = outcome["failed"]
    attempted = outcome["attempted"]
    prov = provenance(args)
    facts = outcome["facts"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} wall={time.time() - t_start:.1f}s")
    print("host: " + " ".join(f"{k}={v}" for k, v in prov["host"].items())
          + f" commit={prov['commit'][:12]} src={prov['src_digest']}")
    print("facts: " + " ".join(
        f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in facts.items()))
    for failure in outcome["failures"]:
        print(f"CHECK FAILED: {failure}")
    measured = end_to_end(outcome, setup, report["peak_rss_mb"], failed)
    if args.trace:
        layers = {**measured, **report["layers"]}
        values = {name: layers.get(name, 0.0) for name in spec["per_layer"]}
        units = spec["per_layer"]
        ledger = report["ledger"]
        print(f"ledger ({ledger['lanes']} lane(s) x {ledger['wall_s']:.3f}s = "
              f"{ledger['total_s']:.3f}s, closes={ledger['closes']}):")
        for layer, secs in sorted(ledger["rows"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<12} {secs:10.4f} s  {secs / ledger['total_s']:7.2%}")
        print(f"  {'residual':<12} {ledger['residual_s']:10.4f} s  "
              f"{ledger['residual_share']:7.2%}")
        if not ledger["closes"]:
            failed += 1
            print("CHECK FAILED: the ledger does not close")
    else:
        values = measured
        units = spec["end_to_end"]
        undeclared = set(values) - set(units) - set(spec["per_layer"])
        if undeclared:
            raise RunFailed(f"metrics not declared in BENCHMARK.json: {sorted(undeclared)}")
        # Printed, not bounded: see NOTES.md for why each is left out.
        for name in sorted(values.keys() - units.keys()):
            print(f"  {name:<24} {values[name]:14.6g} {spec['per_layer'][name]}")
    missing = set(units) - set(values)
    if missing:
        raise RunFailed(f"metrics not produced: {sorted(missing)}")
    for name, unit in units.items():
        print(f"  {name:<24} {values[name]:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({**prov, **result}) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.phase:
        return child(args)
    try:
        return launch(args)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

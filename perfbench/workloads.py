"""The four benchmark workloads.

Each workload is built from the seed (its set-up), then measured for a
number of seconds, then checked.  ``measure`` returns an :class:`Outcome`
of raw samples; ``run.py`` turns samples into metrics.  See NOTES.md for
why each workload exists and which layers it loads.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import traffic
from checks import Checker
from hostspeed import Scaler, SpeedLog
from repro.serve.stats import percentile

# -- settings (measured at the commit that introduced the benchmark) ---------

#: nominal open-loop arrival rate of serve-zipf and fleet-zipf.
RATE_RPS = 60.0
#: latency SLO of one operator request, from its scheduled send time.
OP_SLO_MS = 100.0
#: latency SLO of one whole-model program request.
PROGRAM_SLO_MS = 500.0
#: compile-time SLO of one Table IV operator (compile + lower).
OP_COMPILE_SLO_S = 2.0
#: compile-time SLO of one whole-model program.
PROGRAM_COMPILE_SLO_S = 10.0
#: worker threads of the in-process service; shard count of the fleet.
SERVE_WORKERS = 2
FLEET_SHARDS = 2
#: queue priority of program groups: a waiting operator request runs first,
#: so one program delays an operator by at most one group walk.
PROGRAM_PRIORITY = -1
#: configurations (most popular first) whose operators set-up compiles.
#: At Zipf exponent 1 over the 60-config grid the top 3 carry 39% of the
#: operator arrivals, so the head hits from its first request; warming
#: more adds set-up time for a shrinking share of arrivals.
WARM_CONFIGS = 3
#: how long a run waits for requests still in flight after the window.
DRAIN_TIMEOUT_S = 60.0
#: model-programs grid: (model, batch, seq), compiled in seeded order.
MODEL_POINTS = (
    ("bert", 1, 128),
    ("bert", 8, 384),
    ("bert", 32, 64),
    ("gpt2", 1, 256),
    ("gpt2", 8, 512),
    ("gpt2", 32, 1024),
)

_clock = time.perf_counter

def _model_factory(model: str):
    from repro.models.bert import bert_small
    from repro.models.gpt2 import gpt2

    return {"bert": bert_small, "gpt2": gpt2}[model]


def serving_graph(model: str, batch: int, seq: int):
    """The model graph of one traffic configuration, with per-batch op names.

    The model factories name ops by sequence length only, and the metrics
    memo keys states by op name and tiles, not by extents: two batch sizes
    of one sequence length would share memo entries and report each
    other's latencies (the correctness check catches this).  Suffixing the
    batch keeps every shape's name distinct.
    """
    from repro.models.graph import ModelGraph, OpInstance

    graph = _model_factory(model)(batch=batch, seq=seq)
    return ModelGraph(
        f"{graph.name}_b{batch}",
        batch,
        [OpInstance(replace(i.compute, name=f"{i.compute.name}_b{batch}"), i.count)
         for i in graph.ops],
    )


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident memory of this process (plus live children), in MB."""
    pids = [os.getpid()]
    if include_children:
        me = str(os.getpid())
        for entry in Path("/proc").iterdir():
            if entry.name.isdigit():
                try:
                    status = (entry / "status").read_text()
                except OSError:
                    continue
                if f"\nPPid:\t{me}\n" in status:
                    pids.append(int(entry.name))
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    if total_kb == 0:  # no procfs: fall back to getrusage (this process)
        import resource

        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


@dataclass
class Outcome:
    """Raw samples of one measured window (seconds unless named)."""

    compile_walls: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    program_s: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)
    slo_met: int = 0
    attempted: int = 0
    failed: int = 0
    profile_s: float = 0.0
    #: walk steps and states visited, from the returned compile results.
    walk_steps: int = 0
    walk_states: int = 0
    failures: list = field(default_factory=list)
    #: workload facts for the human-readable report (tier shares, ...).
    facts: dict = field(default_factory=dict)
    #: per-layer metrics (traced runs only).
    layers: dict = field(default_factory=dict)
    ledger: dict = field(default_factory=dict)


# -- compile workloads ---------------------------------------------------------


@dataclass
class _UnitRun:
    """One compile unit (an operator or a program) measured once.

    Times are host-speed scaled (``hostspeed.Scaler``).
    """

    total_s: float  # compile (+ lower) time of the whole unit
    op_s: list  # time of each operator walk inside it
    kernel_s: float  # simulated latency of what it returned
    results: list  # (label, GensorResult) per operator walk
    extra: dict = field(default_factory=dict)


class _CompileWorkload:
    """Compiles a fixed list of units in whole passes.

    A run makes ``seconds // PASS_S`` passes (at least one): a count fixed by
    the window, not by how fast the host happens to be, so every run does
    the same work and holds the same results in memory.  Every unit
    compiles from freshly built operators with a fresh memo: a cold compile.
    A pass's time is the sum of its units' host-speed scaled times.
    """

    lanes = 1
    #: units compiled untraced and traced to estimate the tracing overhead.
    OVERHEAD_SAMPLE = 4

    def measure(self, seconds: float, ledger=None, tracer=None) -> Outcome:
        out = Outcome()
        runs: list = []
        scaler = Scaler()
        start = _clock()
        for _ in range(max(1, int(seconds // self.PASS_S))):
            passed = [(i, self.run_unit(unit, scaler, tracer)) for i, unit in enumerate(self.units)]
            out.compile_walls.append(sum(run.total_s for _, run in passed))
            runs += passed
        window = _clock() - start
        for _, run in runs:
            out.op_s.extend(run.op_s)
            out.program_s.append(run.total_s)
            out.kernel_s.append(run.kernel_s)
            out.slo_met += run.total_s <= self.SLO_S
            for _, result in run.results:
                out.profile_s += result.simulated_measure_s
                out.walk_steps += result.iterations
                out.walk_states += result.states_visited
        out.attempted = len(runs)
        out.facts.update(
            passes=len(out.compile_walls),
            raw_compile_s=scaler.raw_s / len(out.compile_walls),
            host_ref_ms=percentile(scaler.readings, 50) * 1e3,
        )
        if ledger is not None:
            out.ledger = ledger.close(window, self.lanes, {"host.ref": scaler.overhead_s})
            out.layers.update(self.layer_extras(runs))
            out.layers["trace.overhead_share"] = self._overhead(ledger)
        checker = Checker()
        for i, run in runs:
            out.failed += not self.check(i, run, checker)
        out.failures = checker.failures
        out.facts.update(checked=checker.checked, functional=checker.functional)
        return out

    def _overhead(self, ledger) -> float:
        """Traced vs untraced wall of the first ``OVERHEAD_SAMPLE`` units.

        Runs after the window's ledger is closed, with a ledger and tracer
        of its own, so none of this work reaches the window's numbers.
        """
        from ledger import Ledger, PolishTracer

        units = self.units[: self.OVERHEAD_SAMPLE]
        scaler = Scaler()
        ledger.uninstall()
        plain = sum(self.run_unit(u, scaler).total_s for u in units)
        sample = Ledger().install()
        try:
            traced = sum(self.run_unit(u, scaler, PolishTracer()).total_s for u in units)
        finally:
            sample.uninstall()
        return traced / plain - 1.0

    def layer_extras(self, runs) -> dict:
        return {}

    def close(self) -> None:
        pass


class OpsCold(_CompileWorkload):
    """Every Table IV operator, cold, on rtx4090 and orin_nano."""

    name = "ops-cold"
    SLO_S = OP_COMPILE_SLO_S
    #: nominal wall of one pass on the reference host (2 vCPUs).
    PASS_S = 20.0

    def __init__(self, seed: int) -> None:
        from repro.hardware import orin_nano, rtx4090
        from repro.workloads import table4

        self.seed = seed
        self.units = [(hw, cfg) for hw in (rtx4090(), orin_nano()) for cfg in table4.TABLE4_CONFIGS]
        random.Random(seed).shuffle(self.units)

    def label(self, i: int) -> str:
        hw, cfg = self.units[i]
        return f"{hw.name}/{cfg.label}"

    def run_unit(self, unit, scaler: Scaler, tracer=None) -> _UnitRun:
        from repro.codegen import cuda, lower
        from repro.core.constructor import Gensor, GensorConfig
        from repro.perf.memo import MetricsMemo

        hw, cfg = unit
        compute = cfg.build()  # a fresh ComputeDef: no derived values cached on it
        gensor = Gensor(hw, GensorConfig(seed=self.seed), tracer=tracer, memo=MetricsMemo())
        result, compile_s = scaler.run(gensor.compile, compute)
        source, lower_s = scaler.run(
            lambda: cuda.emit_cuda(lower.lower_etir(result.best), compute)
        )
        return _UnitRun(
            total_s=compile_s + lower_s,
            op_s=[compile_s],
            kernel_s=result.latency_s,
            results=[(cfg.label, result)],
            extra={"codegen_bytes": len(source)},
        )

    def check(self, i: int, run: _UnitRun, checker: Checker) -> bool:
        (_, result), = run.results
        return checker.schedule(self.units[i][0], result.best, result.latency_s, self.label(i))

    def layer_extras(self, runs) -> dict:
        return {"codegen.bytes": sum(run.extra["codegen_bytes"] for _, run in runs)}


class _GroupTimer:
    """Gensor stand-in for ``compile_program`` that times each group walk."""

    def __init__(self, gensor, scaler: Scaler) -> None:
        self.gensor = gensor
        self.hw = gensor.hw
        self.scaler = scaler
        self.groups: list = []

    def compile(self, compute, **kwargs):
        result, seconds = self.scaler.run(self.gensor.compile, compute, **kwargs)
        self.groups.append((result, seconds))
        return result


class ModelPrograms(_CompileWorkload):
    """Whole BERT-small / GPT-2 programs through ``compile_graph(fusion=True)``."""

    name = "model-programs"
    SLO_S = PROGRAM_COMPILE_SLO_S
    PASS_S = 12.0
    OVERHEAD_SAMPLE = 1

    def __init__(self, seed: int) -> None:
        from repro.hardware import rtx4090
        from repro.models.program import plan_fusion

        self.seed = seed
        self.hw = rtx4090()
        self.units = list(MODEL_POINTS)
        random.Random(seed).shuffle(self.units)
        #: the fusion groups plan_fusion predicts, per unit (for the check).
        self.plans = [
            plan_fusion(_model_factory(m)(batch=b, seq=s), fusion=True).groups
            for m, b, s in self.units
        ]

    def label(self, i: int) -> str:
        model, batch, seq = self.units[i]
        return f"{model}/b{batch}/s{seq}"

    def run_unit(self, unit, scaler: Scaler, tracer=None) -> _UnitRun:
        from repro.core.constructor import Gensor, GensorConfig
        from repro.models.program import compile_program
        from repro.perf.memo import MetricsMemo

        model, batch, seq = unit
        graph = _model_factory(model)(batch=batch, seq=seq)  # fresh ComputeDefs
        timer = _GroupTimer(
            Gensor(self.hw, GensorConfig(seed=self.seed), tracer=tracer, memo=MetricsMemo()),
            scaler,
        )
        # Gensor.compile_graph is compile_program(self, ...); the timer
        # stands in for self so each group's walk is timed.  A program's
        # time is the sum of its group walks: planning and assembling the
        # groups take under a millisecond.
        program = compile_program(timer, graph, fusion=True, tracer=tracer)
        return _UnitRun(
            total_s=sum(seconds for _, seconds in timer.groups),
            op_s=[seconds for _, seconds in timer.groups],
            kernel_s=program.latency_s,
            results=[(g.anchor_label, r) for g, (r, _) in zip(program.groups, timer.groups)],
            extra={"program": program},
        )

    def check(self, i: int, run: _UnitRun, checker: Checker) -> bool:
        label = self.label(i)
        program = run.extra["program"]
        ok = checker.program(label, self.plans[i], [g.fused for g in program.groups])
        for group, (anchor, result) in zip(program.groups, run.results):
            ok &= checker.schedule(self.hw, result.best, group.kernel_latency_s,
                                   f"{label}/{anchor}")
        return ok

    def layer_extras(self, runs) -> dict:
        fusable = sum(len(g.epilogues) for i, _ in runs for g in self.plans[i])
        fused = sum(g.fused for _, run in runs for g in run.extra["program"].groups)
        return {
            "fusion.groups": sum(len(run.extra["program"].groups) for _, run in runs),
            "fusion.fusable": fusable,
            "fusion.fused": fused,
            "fusion.fused_share": fused / fusable if fusable else 0.0,
        }


# -- open-loop serving workloads --------------------------------------------------


class _Op:
    """One operator request in flight."""

    def __init__(self, due: float, compute) -> None:
        self.due = due
        self.compute = compute
        self.response = None
        self.done_at = None
        self.event = threading.Event()

    def on_done(self, response) -> None:
        self.response = response
        self.done_at = _clock()
        self.event.set()


class _Program:
    """One whole-model request: its fusion groups, submitted one by one."""

    def __init__(self, due: float, key, groups) -> None:
        self.due = due
        self.key = key
        self.groups = groups
        self.responses = [None] * len(groups)
        self.done_at = None
        self.event = threading.Event()
        self._left = len(groups)
        self._lock = threading.Lock()

    def on_group(self, index: int, response) -> None:
        self.responses[index] = response
        with self._lock:
            self._left -= 1
            last = self._left == 0
        if last:
            self.done_at = _clock()
            self.event.set()


class _OpenLoop:
    """Open-loop harness shared by serve-zipf and fleet-zipf (backends differ)."""

    lanes = 3  # generator + two serving threads

    def __init__(self, seed: int) -> None:
        from repro.core.cache import family_fingerprint
        from repro.hardware import rtx4090
        from repro.models.program import plan_fusion
        from repro.serve.bench import bench_config

        self.seed = seed
        self.hw = rtx4090()
        self.config = bench_config(seed)
        self.configs = {}
        families: dict = {}
        for key in traffic.ranked_grid():
            graph = serving_graph(*key)
            ops = [inst.compute for inst in graph.ops]
            self.configs[key] = (ops, plan_fusion(graph, fusion=True).groups)
            for compute in ops:
                families.setdefault(family_fingerprint(compute), compute)
        # Warm-up, one request at a time: every operator family (cold), then
        # each of the most popular configurations' operators (warm starts
        # off those) and fusion groups (fused walks are always cold).
        self.warm_up_requests = [(compute, ()) for compute in families.values()]
        for key in traffic.ranked_grid()[:WARM_CONFIGS]:
            ops, groups = self.configs[key]
            self.warm_up_requests += [(compute, ()) for compute in ops]
            self.warm_up_requests += [(g.anchor, g.epilogues) for g in groups if g.epilogues]
        self.start_backend()
        self.compile_s = self.warm_up()

    def warm_up(self) -> float:
        """Serve the warm-up requests one at a time; returns their scaled time."""
        scaler = Scaler()
        total = 0.0
        for compute, epilogues in self.warm_up_requests:
            response, seconds = scaler.run(
                lambda: self.submit(
                    replace(compute), tuple(replace(e) for e in epilogues)
                ).result(timeout=DRAIN_TIMEOUT_S)
            )
            if not response.ok:
                raise RuntimeError(f"warm-up failed: {response.tier} {response.reason}")
            total += seconds
        return total

    # Backend hooks (ServeZipf, FleetZipf): start_backend, submit, kernel_latency,
    # state_of, fused_of, pending_of, account, close.

    def measure(self, seconds: float, ledger=None, tracer=None) -> Outcome:
        out = Outcome()
        out.compile_walls.append(self.compile_s)
        arrivals = traffic.schedule(self.seed, RATE_RPS, seconds)
        records: list = [None] * len(arrivals)
        lags: list = []
        sleep_s = 0.0
        self.before_window()
        t0 = _clock() + 0.01

        def generate() -> None:
            nonlocal sleep_s
            for i, arrival in enumerate(arrivals):
                due = t0 + arrival.t
                delay = due - _clock()
                if delay > 0:
                    time.sleep(delay)
                    sleep_s += delay
                lags.append(_clock() - due)
                ops, groups = self.configs[(arrival.model, arrival.batch, arrival.seq)]
                # Each request carries its own ComputeDef, as one decoded
                # from a client would: no derived values cached on it.
                if arrival.kind == "op":
                    compute = replace(ops[arrival.pick % len(ops)])
                    records[i] = rec = _Op(due, compute)
                    self.submit(compute, ()).add_done_callback(rec.on_done)
                else:
                    key = (arrival.model, arrival.batch, arrival.seq)
                    records[i] = rec = _Program(due, key, groups)
                    for j, group in enumerate(groups):
                        self.submit(
                            replace(group.anchor),
                            tuple(replace(e) for e in group.epilogues),
                            PROGRAM_PRIORITY,
                        ).add_done_callback(partial(rec.on_group, j))
                self.on_arrival()

        speed = SpeedLog()
        generator = threading.Thread(target=generate, name="perfbench-generator")
        generator.start()
        while generator.is_alive():
            speed.sample()
            generator.join(speed.every_s)
        deadline = _clock() + DRAIN_TIMEOUT_S
        for rec in records:
            while not rec.event.is_set() and _clock() < deadline:
                speed.sample()
                rec.event.wait(min(speed.every_s, max(0.0, deadline - _clock())))
        speed.sample()
        window = _clock() - t0
        self._score(out, records, speed)
        out.facts["host_ref_ms"] = percentile(speed.readings, 50) * 1e3
        out.facts["gen_lag_p99_ms"] = percentile(lags, 99) * 1e3
        out.facts["gen_lag_p50_ms"] = percentile(lags, 50) * 1e3
        if ledger is not None:
            out.ledger = ledger.close(window, self.lanes, {"gen.sleep": sleep_s})
            out.layers.update(self.layer_metrics(records, window, ledger))
            out.layers["gen.lag_p99_ms"] = out.facts["gen_lag_p99_ms"]
            from ledger import shim_cost_s

            out.layers["trace.overhead_share"] = (
                shim_cost_s() * ledger.span_count() / (window * self.lanes)
            )
        return out

    def _score(self, out: Outcome, records: list, speed: SpeedLog) -> None:
        from repro.core.cache import shape_fingerprint

        checker = Checker()
        tiers: dict = {}
        for i, rec in enumerate(records):
            out.attempted += 1
            latency = (
                None if rec.done_at is None
                else (rec.done_at - rec.due) * speed.factor_at(rec.done_at)
            )
            if isinstance(rec, _Op):
                ok = rec.response is not None and rec.response.ok
                if ok:
                    tiers[rec.response.tier] = tiers.get(rec.response.tier, 0) + 1
                    kernel = self.kernel_latency(rec.response)
                    ok = checker.schedule(
                        self.hw, self.state_of(rec.response, rec.compute, ()), kernel,
                        f"op#{i} {shape_fingerprint(rec.compute)}",
                    )
                    out.kernel_s.append(kernel)
                    out.op_s.append(latency)
                    self.account(out, rec.response)
                slo_s = OP_SLO_MS / 1e3
            else:
                ok = rec.done_at is not None and all(r.ok for r in rec.responses)
                if ok:
                    label = f"program#{i} {rec.key}"
                    ok = checker.program(label, rec.groups, [self.fused_of(r) for r in rec.responses])
                    program_latency = 0.0
                    for group, response in zip(rec.groups, rec.responses):
                        kernel = self.kernel_latency(response)
                        ok &= checker.schedule(
                            self.hw, self.state_of(response, group.anchor, group.epilogues),
                            kernel, f"{label}/{group.anchor.name}",
                        )
                        program_latency += (kernel + self.pending_of(response, group)) * group.count
                        self.account(out, response)
                    out.kernel_s.append(program_latency)
                    out.program_s.append(latency)
                slo_s = PROGRAM_SLO_MS / 1e3
            if not ok:
                out.failed += 1
            elif latency <= slo_s:
                out.slo_met += 1
        out.failures = checker.failures
        served = sum(tiers.values()) or 1
        out.facts.update(
            checked=checker.checked,
            functional=checker.functional,
            programs=len(out.program_s),
            program_share=len(out.program_s) / max(1, len(records)),
            **{f"op_{tier}_share": n / served for tier, n in sorted(tiers.items())},
        )

    def layer_metrics(self, records, window, ledger) -> dict:
        responses = _responses(records)
        by_tier: dict = {}
        for r in responses:
            by_tier.setdefault(r.tier, []).append(r.service_latency_s)
        layers = {
            f"tier.{tier}": len(by_tier.get(tier, ())) for tier in ("hit", "warm", "cold")
        }
        layers["tier.degraded"] = sum(
            len(v) for k, v in by_tier.items() if k.startswith("degraded")
        )
        for tier in ("hit", "warm", "cold"):
            layers[f"tier.{tier}_ms"] = percentile(by_tier.get(tier, []), 50) * 1e3
        layers["serve.rejected"] = len(by_tier.get("rejected", ()))
        layers["serve.coalesced_share"] = (
            sum(r.coalesced for r in responses) / len(responses) if responses else 0.0
        )
        return layers

    def before_window(self) -> None:
        pass

    def on_arrival(self) -> None:
        pass


class ServeZipf(_OpenLoop):
    """In-process CompileService, two workers."""

    name = "serve-zipf"

    def start_backend(self) -> None:
        from repro.obs.metrics import get_registry
        from repro.serve.service import CompileService
        from repro.sim.measure import MICROBENCH_SECONDS, Measurer

        hw, seed = self.hw, self.seed
        self.registry = get_registry()
        self.service = CompileService(
            hw,
            self.config,
            workers=SERVE_WORKERS,
            queue_capacity=256,
            warm_polish_steps=4,
            warm_pool=2,
            measurer_factory=lambda: Measurer(
                hw, seed=seed, noise_sigma=0.0,
                seconds_per_measurement=MICROBENCH_SECONDS, time_scale=0.0,
            ),
        )

    def attach_tracer(self, tracer) -> None:
        self.service.dynamic.gensor.tracer = tracer

    def submit(self, compute, epilogues, priority=0):
        return self.service.submit(compute, priority=priority, epilogues=epilogues)

    def kernel_latency(self, response) -> float:
        return response.result.best_metrics.latency_s

    def state_of(self, response, compute, epilogues):
        return response.result.best

    def fused_of(self, response) -> int:
        return response.result.best.fused

    def account(self, out: Outcome, response) -> None:
        result = response.result
        out.profile_s += result.simulated_measure_s
        out.walk_steps += result.iterations
        out.walk_states += result.states_visited

    def pending_of(self, response, group) -> float:
        from repro.core.score import pending_penalty_s

        return pending_penalty_s(response.result.best, self.hw)

    def before_window(self) -> None:
        self._waits_before = self.registry.histogram("serve_queue_wait_seconds").count

    def layer_metrics(self, records, window, ledger) -> dict:
        layers = super().layer_metrics(records, window, ledger)
        samples = self.registry.histogram("serve_queue_wait_seconds").export_state()["samples"]
        waits = samples[self._waits_before:]
        layers.update({
            "serve.queue_wait_p50_ms": percentile(waits, 50) * 1e3,
            "serve.queue_wait_p99_ms": percentile(waits, 99) * 1e3,
            "serve.busy_share": ledger.stat("DynamicGensor.compile", 2)
            / (window * SERVE_WORKERS),
            "cache.entries": len(self.service.cache),
        })
        return layers

    def close(self) -> None:
        self.service.close()


class FleetZipf(_OpenLoop):
    """FleetDispatcher: two spawn-started shards x one worker, shared disk cache."""

    name = "fleet-zipf"

    def start_backend(self) -> None:
        from repro.fleet.dispatcher import FleetDispatcher
        from repro.fleet.shard import ShardOptions

        # Inside the checkout (the benchmark writes nowhere else).
        tmp_root = Path(__file__).resolve().parent.parent / ".perfbench_tmp"
        tmp_root.mkdir(exist_ok=True)
        self.tmpdir = tempfile.mkdtemp(prefix="fleet-", dir=tmp_root)
        options = ShardOptions(
            device=self.hw.name,
            config=self.config,
            workers=1,
            queue_capacity=256,
            warm_polish_steps=4,
            warm_pool=2,
            time_scale=0.0,
            cache_path=str(Path(self.tmpdir) / "cache.json"),
        )
        t0 = _clock()
        self.fleet = FleetDispatcher(options, processes=FLEET_SHARDS, routing="least-loaded")
        self.boot_s = _clock() - t0
        cpus = sorted(os.sched_getaffinity(0))
        for i, proc in enumerate(self.fleet._procs):
            os.sched_setaffinity(proc.pid, {cpus[i % len(cpus)]})
        self.hops: dict = {}
        #: ShardStats publications seen during a traced window, by identity.
        self._seen_stats: dict | None = None

    def attach_tracer(self, tracer) -> None:
        """Shards are other processes: capture each wire response's in-shard time."""
        from repro.fleet.dispatcher import FleetDispatcher

        self._seen_stats = {}
        original = FleetDispatcher._on_response
        hops = self.hops

        def on_response(dispatcher, wire):
            hops[wire.request_id] = wire.shard_latency_s
            return original(dispatcher, wire)

        FleetDispatcher._on_response = on_response
        self._restore = lambda: setattr(FleetDispatcher, "_on_response", original)

    def submit(self, compute, epilogues, priority=0):
        return self.fleet.submit(compute, priority=priority, epilogues=epilogues)

    def kernel_latency(self, response) -> float:
        return response.kernel_latency_s

    def state_of(self, response, compute, epilogues):
        from repro.ir.etir import ETIR

        state = response.schedule.instantiate(compute)
        if state is None or not epilogues:
            return state
        return ETIR(compute, state.config, state.cur_level, state.num_levels,
                    tuple(epilogues), response.fused)

    def fused_of(self, response) -> int:
        return response.fused

    def account(self, out: Outcome, response) -> None:
        """Profiling and walk counts stay inside the shard; not on the wire."""

    def pending_of(self, response, group) -> float:
        return response.pending_cost_s

    def before_window(self) -> None:
        self._coalesced_before = self.fleet.registry.total("fleet_coalesced_total")
        self._requests_before = dict(self._shard_requests())

    def on_arrival(self) -> None:
        if self._seen_stats is not None:
            for stats in self.fleet.shard_stats().values():
                self._seen_stats[id(stats)] = stats

    def _shard_requests(self) -> dict:
        return {
            dict(labels).get("shard"): counter.value
            for labels, counter in self.fleet.registry.series("fleet_requests_total").items()
        }

    def layer_metrics(self, records, window, ledger) -> dict:
        layers = super().layer_metrics(records, window, ledger)
        self.fleet.sync()
        time.sleep(0.3)
        merged = self.fleet.fleet_metrics()
        waits = merged.histogram("serve_queue_wait_seconds").export_state()["samples"]
        hop = [
            r.service_latency_s - self.hops[r.request_id]
            for r in _responses(records)
            if r.request_id in self.hops
        ]
        after = self._shard_requests()
        per_shard = [after.get(k, 0) - self._requests_before.get(k, 0) for k in after]
        submitted = sum(per_shard) + (
            self.fleet.registry.total("fleet_coalesced_total") - self._coalesced_before
        )
        mean = sum(per_shard) / len(per_shard) if per_shard else 0.0
        layers.update({
            "serve.queue_wait_p50_ms": percentile(waits, 50) * 1e3,
            "serve.queue_wait_p99_ms": percentile(waits, 99) * 1e3,
            "cache.entries": sum(s.cache_size for s in self.fleet.shard_stats().values()),
            "memo.hits": merged.total("perf_memo_hits_total"),
            "memo.misses": merged.total("perf_memo_misses_total"),
            "memo.evictions": merged.total("perf_memo_evictions_total"),
            "ckpt.taken": merged.total("resilience_checkpoints_total"),
            "retry.count": merged.total("resilience_retries_total"),
            "fleet.boot_s": self.boot_s,
            "fleet.hop_p50_ms": percentile(hop, 50) * 1e3,
            "fleet.hop_p99_ms": percentile(hop, 99) * 1e3,
            "fleet.load_imbalance": max(per_shard) / mean - 1.0 if mean else 0.0,
            "fleet.coalesced_share": (
                (self.fleet.registry.total("fleet_coalesced_total") - self._coalesced_before)
                / submitted if submitted else 0.0
            ),
            "fleet.cache_syncs": len(self._seen_stats),
            "fleet.respawns": self.fleet.respawns,
        })
        return layers

    def close(self) -> None:
        if getattr(self, "_restore", None):
            self._restore()
        self.rss_mb = peak_rss_mb(include_children=True)
        self.fleet.close()
        shutil.rmtree(self.tmpdir, ignore_errors=True)
        try:
            Path(self.tmpdir).parent.rmdir()
        except OSError:
            pass  # another run's fleet directory is still there


WORKLOADS = {cls.name: cls for cls in (OpsCold, ModelPrograms, ServeZipf, FleetZipf)}


def _responses(records) -> list:
    """Every response of a window: operator requests and program groups."""
    out = []
    for rec in records:
        out.extend(rec.responses if isinstance(rec, _Program) else [rec.response])
    return [r for r in out if r is not None]

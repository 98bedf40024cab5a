"""Trace summarization: the ``repro trace-report`` backend.

Digests a recorded construction trace into the quantities the paper's
convergence story is about: which actions the walk actually took (the mix
of tiling / inverse tiling / caching / vThread moves), how often states
were appended to the diverse ``top_results`` pool (acceptance rate), and
where the annealing converged (the step of the final memory-level change
per chain).
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from typing import Iterable

from repro.obs.tracer import TraceEvent, load_events
from repro.utils.tables import Table

__all__ = ["summarize_walk", "render_report", "trace_report"]


def summarize_walk(events: Iterable[TraceEvent]) -> dict:
    """Aggregate a trace's walk/measure/polish events into one dict."""
    steps = 0
    appended = 0
    action_mix: TallyCounter[str] = TallyCounter()
    prob_sum_err = 0.0
    last_cache_step: dict[int, int] = {}
    chain_steps: dict[int, int] = {}
    measures = 0
    measure_latency_sum = 0.0
    polish_count = 0
    polish_steps = 0
    compiles: list[TraceEvent] = []
    serves: TallyCounter[str] = TallyCounter()
    faults: TallyCounter[str] = TallyCounter()
    retries = 0
    breaker_transitions: TallyCounter[str] = TallyCounter()
    respawns: TallyCounter[str] = TallyCounter()
    crashes = 0
    wasted_states = 0
    checkpoints = 0
    for event in events:
        if event.name == "walk_step":
            steps += 1
            args = event.args
            chain = int(args.get("chain", event.tid))
            chain_steps[chain] = chain_steps.get(chain, 0) + 1
            actions = args.get("actions", [])
            chosen = args.get("chosen")
            if actions and chosen is not None:
                kind = actions[int(chosen)]["kind"]
                action_mix[kind] += 1
                if kind == "cache":
                    last_cache_step[chain] = int(args.get("iteration", 0))
            prob_sum_err = max(
                prob_sum_err,
                abs(sum(a.get("prob", 0.0) for a in actions) - 1.0),
            )
            if args.get("appended"):
                appended += 1
        elif event.name == "measure":
            measures += 1
            measure_latency_sum += float(event.args.get("latency_s", 0.0))
        elif event.name == "polish":
            polish_count += 1
            polish_steps += int(event.args.get("steps", 0))
        elif event.name == "compile":
            compiles.append(event)
        elif event.name in ("serve", "dynamic_serve"):
            serves[event.args.get("tier") or event.args.get("source")] += 1
        elif event.name == "fault_injected":
            faults[event.args.get("kind", "?")] += 1
        elif event.name == "retry":
            retries += 1
        elif event.name == "breaker":
            breaker_transitions[
                f"{event.args.get('from', '?')}->{event.args.get('to', '?')}"
            ] += 1
        elif event.name == "worker_respawn":
            respawns[event.args.get("reason", "?")] += 1
        elif event.name == "worker_crash":
            crashes += 1
        elif event.name == "wasted_recompute":
            wasted_states += int(event.args.get("states", 0))
            checkpoints += 1
    convergence = sorted(last_cache_step.values())
    return {
        "steps": steps,
        "chains": len(chain_steps),
        "action_mix": dict(sorted(action_mix.items())),
        "acceptance_rate": appended / steps if steps else 0.0,
        "prob_sum_err_max": prob_sum_err,
        "convergence_step_mean": (
            sum(convergence) / len(convergence) if convergence else None
        ),
        "convergence_step_max": convergence[-1] if convergence else None,
        "measurements": measures,
        "measure_latency_mean_s": (
            measure_latency_sum / measures if measures else 0.0
        ),
        "polish_passes": polish_count,
        "polish_steps_mean": polish_steps / polish_count if polish_count else 0.0,
        "compiles": len(compiles),
        "compile_wall_s": sum(e.dur for e in compiles),
        "serve_mix": dict(sorted(serves.items())),
        "resilience": {
            "faults_injected": dict(sorted(faults.items())),
            "retries": retries,
            "breaker_transitions": dict(sorted(breaker_transitions.items())),
            "worker_respawns": dict(sorted(respawns.items())),
            "worker_crashes": crashes,
            "wasted_states": wasted_states,
            "wasted_attempts": checkpoints,
        },
    }


def render_report(summary: dict, title: str = "trace report") -> str:
    """Render a :func:`summarize_walk` summary as an aligned table."""
    table = Table("metric", "value", title=title)
    table.add_row("walk steps", summary["steps"])
    table.add_row("chains", summary["chains"])
    mix = summary["action_mix"]
    total_moves = sum(mix.values()) or 1
    for kind, count in mix.items():
        table.add_row(f"action:{kind}", f"{count} ({100 * count / total_moves:.1f}%)")
    table.add_row("acceptance rate", f"{summary['acceptance_rate']:.3f}")
    table.add_row("max |sum(p) - 1|", f"{summary['prob_sum_err_max']:.2e}")
    if summary["convergence_step_mean"] is not None:
        table.add_row(
            "convergence step (mean)", f"{summary['convergence_step_mean']:.1f}"
        )
        table.add_row("convergence step (max)", summary["convergence_step_max"])
    table.add_row("measurements", summary["measurements"])
    if summary["measurements"]:
        table.add_row(
            "measured latency (mean)",
            f"{summary['measure_latency_mean_s'] * 1e6:.1f} us",
        )
    table.add_row("polish passes", summary["polish_passes"])
    if summary["polish_passes"]:
        table.add_row(
            "polish steps (mean)", f"{summary['polish_steps_mean']:.1f}"
        )
    if summary["compiles"]:
        table.add_row("compiles", summary["compiles"])
        table.add_row("compile wall", f"{summary['compile_wall_s']:.3f} s")
    for tier, count in summary["serve_mix"].items():
        table.add_row(f"served:{tier}", count)
    res = summary.get("resilience", {})
    if any(
        v for v in res.values() if v
    ):  # only when the trace saw failure events
        for kind, count in res.get("faults_injected", {}).items():
            table.add_row(f"fault:{kind}", count)
        if res.get("retries"):
            table.add_row("retries", res["retries"])
        for move, count in res.get("breaker_transitions", {}).items():
            table.add_row(f"breaker:{move}", count)
        for reason, count in res.get("worker_respawns", {}).items():
            table.add_row(f"respawn:{reason}", count)
        if res.get("worker_crashes"):
            table.add_row("worker crashes", res["worker_crashes"])
        if res.get("wasted_states"):
            table.add_row("wasted walk states", res["wasted_states"])
    return table.render()


def trace_report(path: str, title: str | None = None) -> str:
    """Summarize one JSONL trace file (the CLI entry point)."""
    events = load_events(path)
    return render_report(summarize_walk(events), title=title or f"trace report: {path}")

"""Trace payloads of the construction walk, built in one place.

Both walk engines — the structure-of-arrays core that compiles run on
(:mod:`repro.perf.soa`) and the object-level reference
(:mod:`repro.core.reference`) — emit their ``walk_step``, ``chain_end`` and
``polish`` events through these helpers, so the two paths cannot drift
apart in what a trace records.  Callers guard every call on
``tracer.enabled``, which keeps the NullTracer walk allocation-free.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.tracer import Tracer

__all__ = ["emit_walk_step", "emit_chain_end", "emit_polish"]


def emit_walk_step(
    tracer: Tracer,
    compute_name: str,
    tid: int,
    iteration: int,
    temperature: float,
    level: int,
    edges: Sequence,
    probs: Sequence[float],
    chosen: int,
    appended: bool,
) -> None:
    """One annealed step: the offered edges (anything with ``kind``,
    ``axis`` and ``benefit``), their probabilities, and the roulette pick."""
    tracer.emit(
        "walk_step",
        {
            "compute": compute_name,
            "chain": tid,
            "iteration": iteration,
            "temperature": temperature,
            "level": level,
            "actions": [
                {
                    "kind": e.kind,
                    "axis": e.axis,
                    "benefit": e.benefit,
                    "prob": float(p),
                }
                for e, p in zip(edges, probs)
            ],
            "chosen": chosen,
            "appended": appended,
        },
        tid=tid,
    )


def emit_chain_end(
    tracer: Tracer,
    compute_name: str,
    tid: int,
    iterations: int,
    final_level: int,
    final_temperature: float,
) -> None:
    tracer.emit(
        "chain_end",
        {
            "compute": compute_name,
            "chain": tid,
            "iterations": iterations,
            "final_level": final_level,
            "final_temperature": final_temperature,
        },
        tid=tid,
    )


def emit_polish(
    tracer: Tracer,
    compute_name: str,
    steps: int,
    max_steps: int,
    latency_before_s: float,
    latency_after_s: float,
    dur: float,
) -> None:
    tracer.emit(
        "polish",
        {
            "compute": compute_name,
            "steps": steps,
            "max_steps": max_steps,
            "latency_before_s": latency_before_s,
            "latency_after_s": latency_after_s,
        },
        dur=dur,
    )

#!/usr/bin/env python3
"""Compare two sets of recorded perfbench results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds results appended by ``run.py --record FILE`` (untraced
runs; traced ones are skipped).  For every workload and end-to-end metric
this prints each side's median and quartile spread and flags a new median
worse than the base by more than the metric's bound in BENCHMARK.json.
Results recorded on different hosts are refused: the numbers would
compare the machines, not the code.  Exits 1 when a metric regressed,
2 when the comparison is refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    records = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    return [r for r in records if not r.get("trace")]


def spread(values: list[float]) -> tuple[float, float]:
    """(median, quartile distance as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def compare(base: list[dict], new: list[dict], spec: dict) -> int:
    hosts = {json.dumps(r["host"], sort_keys=True) for r in base + new}
    if len(hosts) > 1:
        print("refusing to compare results recorded on different hosts:")
        for host in sorted(hosts):
            print(f"  {host}")
        return 2
    regressed = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        rows = [(side, [r for r in recs if r["workload"] == workload])
                for side, recs in (("base", base), ("new", new))]
        print(f"{workload}: base n={len(rows[0][1])}, new n={len(rows[1][1])}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            (b_med, b_sp), (n_med, n_sp) = (
                spread([r["metrics"][name]["value"] for r in recs]) for _, recs in rows
            )
            change = (n_med - b_med) / abs(b_med) if b_med else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "REGRESSED" if worse > metric["bound"] else "ok"
            regressed += verdict != "ok"
            print(f"  {name:<16} base {b_med:12.5g} (iqr {b_sp:6.2%})  new {n_med:12.5g} "
                  f"(iqr {n_sp:6.2%})  change {change:+7.2%}  bound {metric['bound']:.0%}  "
                  f"{verdict}")
    return 1 if regressed else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(load(argv[0]), load(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

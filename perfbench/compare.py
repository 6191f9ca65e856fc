"""Compare two sets of runs of one workload under the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE [NEW]

BASE and NEW hold one result line (the last line run.py prints) per run.
With BASE alone it prints each end-to-end metric's median and spread, the
distance between the first and third quartile as a share of the median.
With NEW it also gives a verdict per metric: ``worse`` when NEW's median is
worse than BASE's by more than the bound, ``unresolved`` when a spread is
wider than the bound (unless every NEW run is better than every BASE run),
else ``within bound``. Exits 1 if any metric is worse or the share of failed
operations differs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(path):
    with open(path, encoding="utf-8") as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    shares = {run["failed"] / run["attempted"] for run in runs}
    return values, shares, all(run["correct"] for run in runs)


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv) -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    base, base_shares, base_ok = load(argv[0])
    new, new_shares, new_ok = (load(argv[1]) if len(argv) > 1 else (None, None, True))
    print(f"base: {len(next(iter(base.values())))} runs, correct={base_ok}, failed shares {sorted(base_shares)}")
    bad = not base_ok or len(base_shares) > 1
    if new is not None:
        print(f"new:  {len(next(iter(new.values())))} runs, correct={new_ok}, failed shares {sorted(new_shares)}")
        bad = bad or not new_ok or new_shares != base_shares
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        b = base[name]
        line = f"{name:14s} bound {bound:.2f}  base median {statistics.median(b):10.4f} spread {spread(b):.3f}"
        if new is not None:
            n = new[name]
            change = statistics.median(n) / statistics.median(b) - 1.0
            worse = change > bound if lower else -change > bound
            better_all = max(n) < min(b) if lower else min(n) > max(b)
            if worse:
                verdict = "worse"
            elif name != "setup_s" and max(spread(b), spread(n)) > bound and not better_all:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            bad = bad or worse
            line += f"  new median {statistics.median(n):10.4f} spread {spread(n):.3f} change {change:+.3f} {verdict}"
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

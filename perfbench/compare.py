"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py base.jsonl change.jsonl

Each file holds records appended by `perfbench/run.py --out`, one per run,
ideally ten runs with different seeds per workload.  For every workload and
metric it prints the median and quartiles of each side and the ratio of the
medians.  Every metric is lower-is-better.  A metric is a REGRESSION when
the change's median is worse than the base's by more than its bound, and
unresolved when the spread of either side, (q3 - q1) / median, is wider than
the bound, unless every run of the change beats every run of the base.
Bounds are the end-to-end bounds in BENCHMARK.json; the per-request
latencies (fit_s, ...) take the bound of total_s, failed_ratio may not grow
at all, and per-layer metrics have none.  The comparison is informational:
the exit code is 0 whenever both files could be read.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def load(path):
    """{(workload, metric): [values]} and units, from one JSONL file."""
    values, units = defaultdict(list), {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        for key in ("end_to_end", "per_layer"):
            for name, m in rec.get(key, {}).items():
                values[rec["workload"], name].append(m["value"])
                units[name] = m["unit"]
    return values, units


def summary(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def bound_of(name):
    if name in BOUNDS:
        return BOUNDS[name]
    if name == "failed_ratio":
        return 0.0
    if name.endswith("_s") and "." not in name:  # a request latency
        return BOUNDS["total_s"]
    return None


def verdict(base, change, bound):
    """Status of `change` against `base`; every metric is lower-is-better."""
    if bound is None:
        return "-"
    (mb, q1b, q3b), (mc, q1c, q3c) = summary(base), summary(change)
    if mb == 0:
        return "REGRESSION" if mc > 0 else "ok"
    if mc > mb * (1.0 + bound):
        return "REGRESSION"
    spread = max((q3b - q1b) / mb, (q3c - q1c) / mc if mc else 0.0)
    if spread > bound:
        return "improved" if max(change) < min(base) else "unresolved"
    return "improved" if mc < mb * (1.0 - bound) else "ok"


def compare(base_path, change_path, out=sys.stdout):
    base, units = load(base_path)
    change, more_units = load(change_path)
    units.update(more_units)
    flagged = 0
    fmt = "{:<10} {:<48} {:>12} {:>25} {:>12} {:>25} {:>8}  {}"
    print(fmt.format("workload", "metric", "base", "[q1, q3]", "change",
                     "[q1, q3]", "ratio", "status"), file=out)
    for key in sorted(set(base) & set(change)):
        workload, name = key
        a, b = summary(base[key]), summary(change[key])
        status = verdict(base[key], change[key], bound_of(name))
        flagged += status in ("REGRESSION", "unresolved")
        ratio = f"{b[0] / a[0]:.3f}" if a[0] else "-"
        print(fmt.format(
            workload, f"{name} [{units[name]}]", f"{a[0]:.5g}",
            f"[{a[1]:.5g}, {a[2]:.5g}]", f"{b[0]:.5g}",
            f"[{b[1]:.5g}, {b[2]:.5g}]", ratio, status), file=out)
    for key in sorted(set(base) ^ set(change)):
        print(f"{key[0]:<10} {key[1]:<48} only in "
              f"{'base' if key in base else 'change'}", file=out)
    print(f"{flagged} metric(s) flagged", file=out)
    return flagged


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    compare(args.base, args.change)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate perfbench/verdicts.json, the reference harness verdicts.

For each seed 0 .. SEEDS-1 it writes the `harness` workload's experiment
configs, sends each experiment request as the benchmark does, and stores the
`passed` field of its report.  A request that leaves no report stores null,
and its verdict is then not checked: today that is `tau1_mc`, whose report
cannot be serialised.

    python3 perfbench/make_verdicts.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import WORK, spawn  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    HARNESS_THREADS, VERDICTS_PATH, experiment_argv, generate_inputs)

SEEDS = 100


def verdict(config, report):
    """`passed` from the report of one experiment request, or None."""
    report.unlink(missing_ok=True)
    err = report.with_suffix(".err")
    spawn([sys.executable, "-m", "pitmanyor.cli",
           *experiment_argv(config, report)], report.with_suffix(".out"), err)
    if not report.exists():
        tail = err.read_text().strip().splitlines()[-1:] or [""]
        print(f"{config.stem}: no report: {tail[0]}", flush=True)
        return None
    return json.loads(report.read_text())["passed"]


def main():
    work = WORK / "verdicts"
    shutil.rmtree(work, ignore_errors=True)
    by_seed = {}
    for seed in range(SEEDS):
        configs = generate_inputs("harness", seed, work)
        row = {check: verdict(cfg, work / f"{check}.report.json")
               for check, cfg in configs.items()}
        by_seed[str(seed)] = row
        print(seed, row, flush=True)
    shutil.rmtree(work)
    # one seed per line
    rows = ",\n".join(f'  "{seed}": {json.dumps(row, sort_keys=True)}'
                      for seed, row in by_seed.items())
    VERDICTS_PATH.write_text(
        f'{{"threads": {HARNESS_THREADS}, "by_seed": {{\n{rows}\n}}}}\n')


if __name__ == "__main__":
    main()

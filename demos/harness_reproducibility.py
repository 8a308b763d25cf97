"""The Monte Carlo harness is deterministic: a report is byte-identical no
matter how many worker processes compute it, because every replication draws
from its own counter-based substream and results are reduced in index order.

Run:  python3 demos/harness_reproducibility.py
"""

import json

from pitmanyor.experiments import ExperimentConfig, run_normality

BASE = dict(population={"kind": "power_law", "alpha": 2.0},
            n_grid=(2000,), replications=16, M_values=(0.0,), seed=123)

print("running the same normality check with 1 and with 6 workers ...")
one = run_normality(ExperimentConfig(**BASE, threads=1))
six = run_normality(ExperimentConfig(**BASE, threads=6))

a = one.to_json(include_wall_clock=False)
b = six.to_json(include_wall_clock=False)
print(f"reports byte-identical: {a == b}")

row = one.results["2000"]
print(json.dumps({k: round(v, 4) if isinstance(v, float) else v
                  for k, v in row.items()}, indent=2))
print("\n(the worker count is deliberately excluded from the stored config,")
print(" so the serialized report carries no trace of the execution layout)")

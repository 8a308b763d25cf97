"""Forensic likelihood ratio for a trace that matches nobody in a reference
database: the evidential value of a brand-new type.

The likelihood ratio compares "the trace donor is a new, unseen type" with
"the trace came from the same population by coincidence".  For a type
never observed among n references the ratio always exceeds n + 1, and its
exact value is driven by the posterior of the discovery probability.

Run:  python3 demos/forensic_lr.py
"""

import numpy as np

from pitmanyor import (PriorSpec, RngStream, forensic_report,
                       sample_py_partition)
from pitmanyor.partition import from_sizes

SIGMA, M, N = 0.6, 1.0, 5_000

# the reference database, then the crime trace as a fresh singleton
db = sample_py_partition(SIGMA, M, N, RngStream(7))
stats = from_sizes(np.concatenate((db.N, [1])))

report = forensic_report(stats, PriorSpec(M_value=M), seed=7)
n = report["n"]
print(f"database: n = {n} references, K = {db.K} distinct types")
print(f"trace: a type never seen among the references")
print()
print(f"likelihood ratio  = {report['lr']:.1f}")
print(f"hard lower bound  = n + 1 = {n + 1}")
print(f"posterior mean discovery probability = {report['phi_mean']:.3e}")
summary = report["sigma_posterior_summary"]
lo, hi = summary["interval95"]
print(f"sigma posterior: mean = {summary['mean']:.4f}, "
      f"95% interval = [{lo:.4f}, {hi:.4f}]")
print()
print("With a fixed precision M the ratio obeys the exact identity")
print("lr * E[1 - sigma | data] = n + 1 + M.  Here:")

from pitmanyor import posterior_sigma  # noqa: E402

post = posterior_sigma(stats, PriorSpec(M_value=M))
e_one_minus = float(post.cell_mass @ (1.0 - post.sigma_nodes))
print(f"  lr * E[1 - sigma | data] = {report['lr'] * e_one_minus:.3f}")
print(f"  n + 1 + M                = {n + 1 + M:.3f}")

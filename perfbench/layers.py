"""Per-layer metrics from the spans of a traced pass.

The layers are the modules of `pitmanyor`.  A span's self time is its
duration minus the time its child spans cover; children are recorded on the
parent's thread, so under `--threads 2` the replications run by the worker
threads are root spans, and the waiting `experiments.run` span keeps that
time as its own.  Layer sums can therefore exceed wall time: `trace.wall_s`
and `trace.layer_sum_s` report both.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path

from perfbench.shim import TRACED

# A metric is named <span>.<kind>: <span> is a span name (module.function)
# or a whole layer (module), and <kind> is what is summed over the pass:
#   calls    the spans of that name
#   total_s  time in the outermost spans of that name (recursion counts once)
#   self_s   self time; for a layer, of all its traced functions
#   nodes    sigma nodes passed to log_eppf_grid
#   *_per_call  spans of the child named in PER_CALL found under the span,
#            per call of the span
LAYER_METRICS = (
    "cli.import_s", "cli.main.self_s",
    "partition.read_sample_csv.self_s", "partition.from_observations.self_s",
    "partition.from_occupancy.total_s", "partition.from_sizes.calls",
    "likelihood.log_eppf.calls", "likelihood.log_eppf.total_s",
    "likelihood.score_sigma.calls", "likelihood.score_sigma.total_s",
    "likelihood.hess_sigma.calls", "likelihood.hess_sigma.total_s",
    "likelihood.log_eppf_grid.calls", "likelihood.log_eppf_grid.nodes",
    "likelihood.log_eppf_grid.total_s",
    "estimators.mle_sigma.calls", "estimators.mle_sigma.self_s",
    "estimators.mle_sigma.score_calls_per_call",
    "estimators.profile_mle.calls", "estimators.profile_mle.self_s",
    "estimators.profile_mle.mle_calls_per_call",
    "estimators.sandwich_se.total_s",
    "inference.posterior_sigma.calls", "inference.posterior_sigma.self_s",
    "inference.posterior_sigma.total_s",
    "inference.forensic_report.posterior_calls_per_call",
    "inference.forensic_lr.total_s", "inference.bvm_gap.total_s",
    "sampler.sample_py_partition.total_s", "sampler.sample_iid.calls",
    "sampler.sample_iid.total_s", "sampler.sample_iid_labels.total_s",
    "sampler.sample_poissonized.calls", "sampler.sample_poissonized.total_s",
    "population.inverse_cdf.calls", "population.inverse_cdf.self_s",
    "population.tail_power_sum.calls", "population.alpha0.calls",
    "asymptotics.sigma0n_root.calls", "asymptotics.sigma0n_root.total_s",
    "asymptotics.sigma0n_root.iters_per_call", "asymptotics.tau1_sq.misses",
    "asymptotics.tau1_sq.total_s", "asymptotics.tau2_sq.total_s",
    "asymptotics.precision_limit.total_s",
    "numerics.adaptive_integrate.calls", "numerics.adaptive_integrate.total_s",
    "experiments.run.calls", "experiments.run.self_s",
    "experiments.lemma_limit_ratios.total_s",
    "experiments.verify_suite.total_s",
    *(f"{module}.self_s" for module in TRACED),
)
PER_CALL = {
    "score_calls_per_call": "likelihood.score_sigma",
    "mle_calls_per_call": "estimators.mle_sigma",
    "posterior_calls_per_call": "inference.posterior_sigma",
    "iters_per_call": "asymptotics.value_and_derivative",  # Newton steps
}
TRACE_METRICS = ("trace.wall_s", "trace.layer_sum_s", "trace.overhead_s")


def unit(name):
    if name.endswith("_s"):
        return "s"
    return "1" if name.endswith("_per_call") else "count"


class PassTrace:
    """The spans of every request in one traced pass."""

    def __init__(self, span_files):
        self.import_s = 0.0
        self.tau1_misses = 0
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.units = Counter()
        self.under = Counter()  # (child name, ancestor name) -> spans
        for path in span_files:
            self._add(json.loads(Path(path).read_text()))

    def _add(self, record):
        self.import_s += record["import_s"]
        self.tau1_misses += record["tau1_sq_misses"]
        spans = {s[0]: s for s in record["spans"]}
        child_time = defaultdict(float)
        for sid, name, start, end, parent, _, units in spans.values():
            if parent is not None:
                child_time[parent] += end - start
        for sid, name, start, end, parent, _, units in spans.values():
            self.calls[name] += 1
            self.units[name] += units
            self.self_time[name] += end - start - child_time[sid]
            ancestors = set()
            while parent is not None:
                ancestors.add(spans[parent][1])
                parent = spans[parent][4]
            if name not in ancestors:
                self.total[name] += end - start
            for a in ancestors:
                self.under[name, a] += 1

    def value(self, name):
        span, kind = name.rsplit(".", 1)
        if name == "cli.import_s":
            return self.import_s
        if name == "asymptotics.tau1_sq.misses":
            return self.tau1_misses
        if kind in PER_CALL:
            calls = self.calls[span]
            return self.under[PER_CALL[kind], span] / calls if calls else 0.0
        if span in TRACED:  # <layer>.self_s
            return sum(t for n, t in self.self_time.items()
                       if n.startswith(span + "."))
        table = {"calls": self.calls, "total_s": self.total,
                 "self_s": self.self_time, "nodes": self.units}[kind]
        return table[span]

    def metrics(self):
        """{name: (value, unit)} for LAYER_METRICS and trace.layer_sum_s."""
        out = {name: (self.value(name), unit(name)) for name in LAYER_METRICS}
        out["trace.layer_sum_s"] = (self.import_s
                                    + sum(self.self_time.values()), "s")
        return out

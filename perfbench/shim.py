"""Run one `pitmanyor` CLI request with spans around calls into each module.

    python3 perfbench/shim.py SPANS_JSON REQUEST_ID CLI_ARG...

It imports `pitmanyor` (timed as the request's import time), replaces every
function in TRACED by a wrapper that records a span, rebinding each name in
`pitmanyor.*` that refers to it, and then calls `pitmanyor.cli.main` with
the remaining arguments.  Spans stay in memory and are written to
SPANS_JSON when the request ends.  The exit code is the CLI's, and an
uncaught exception exits 1 with its traceback, as `python -m pitmanyor.cli`
would.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import traceback

# module -> functions (or Class.method) whose calls become spans.  Spans of
# every experiments.run_* function are named `experiments.run`.
TRACED = {
    "cli": ["main"],
    "partition": ["read_sample_csv", "from_observations", "from_occupancy",
                  "from_sizes"],
    "likelihood": ["log_eppf", "score_sigma", "hess_sigma", "log_eppf_grid"],
    "estimators": ["mle_sigma", "profile_mle", "sandwich_se"],
    "inference": ["posterior_sigma", "forensic_report", "forensic_lr",
                  "bvm_gap"],
    "sampler": ["sample_py_partition", "sample_iid", "sample_iid_labels",
                "sample_poissonized"],
    "population": ["Population.inverse_cdf", "Population.tail_power_sum",
                   "Population.alpha0"],
    "asymptotics": ["sigma0n_root", "tau1_sq", "tau2_sq", "precision_limit",
                    "E0nEvaluator.value_and_derivative"],
    "numerics": ["adaptive_integrate", "log_sum_exp", "g_sigma_values"],
    "experiments": ["run_normality", "run_bvm", "run_lemma_limits",
                    "run_root_rate", "run_tau1_mc", "run_precision_profile",
                    "run_forensic", "lemma_limit_ratios", "verify_suite"],
}


def span_name(module, target):
    func = target.rsplit(".", 1)[-1]
    if func.startswith("run_"):
        func = "run"
    return f"{module}.{func}"


def _grid_nodes(args, kwargs):
    """Number of sigma nodes passed to likelihood.log_eppf_grid."""
    sigmas = args[1] if len(args) > 1 else kwargs["sigmas"]
    return len(sigmas)


UNITS = {"likelihood.log_eppf_grid": _grid_nodes}


class Tracer:
    """Collects (id, name, start, end, parent id, thread id, units) spans;
    a span's parent is the innermost open span on the same thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn):
        units = UNITS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, name, start, end, parent, threading.get_ident(),
                     units(args, kwargs) if units else 0))

        return traced


def install(tracer):
    """Wrap every TRACED target and rebind every name that refers to it."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "pitmanyor" or n.startswith("pitmanyor.")]
    for module, targets in TRACED.items():
        mod = sys.modules[f"pitmanyor.{module}"]
        for target in targets:
            name = span_name(module, target)
            if "." in target:
                cls_name, meth = target.split(".")
                base = getattr(mod, cls_name)
                # subclasses override some Population methods
                for cls in (base, *base.__subclasses__()):
                    if meth in vars(cls):
                        setattr(cls, meth, tracer.wrap(name, vars(cls)[meth]))
                continue
            fn = getattr(mod, target)
            wrapped = tracer.wrap(name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)


def main(argv):
    spans_path, request_id, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import pitmanyor.cli  # noqa: F401  (imports every pitmanyor module)
    import_s = time.perf_counter() - start
    # the lru_cache'd original, whose statistics are read at exit
    tau1_sq = sys.modules["pitmanyor.asymptotics"].tau1_sq
    tracer = Tracer()
    install(tracer)
    try:
        code = sys.modules["pitmanyor.cli"].main(cli_args)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the request's own failure: report it like python -m
        traceback.print_exc()
        code = 1
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"request": request_id, "import_s": import_s,
                       "tau1_sq_misses": tau1_sq.cache_info().misses,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The three workloads: inputs made from the seed, requests, output checks.

Every request is one `pitmanyor` CLI invocation.  Inputs are generated here
with numpy from the workload seed; the program under test never produces a
benchmark input, and outputs of timed `simulate` requests are checked and
then deleted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import reference

WORKLOADS = ("cli_tall", "cli_wide", "harness")

# (Zipf exponent, rows): Zipf(a) is the power-law population with alpha = a,
# so sigma0 = 1/a.
ZIPF = {"cli_tall": (2.0, 1_000_000), "cli_wide": (1.1, 20_000)}

# Requests whose latency is an end-to-end metric, named <request>_s.  The
# others (root_rate, tau1_mc, verify) count only in total_s and failed_ratio.
TIMED_REQUESTS = ("fit", "profile", "posterior", "posterior_mu", "lr",
                  "simulate", "normality", "bvm", "forensic", "lemma_limits",
                  "precision_profile")

HARNESS_THREADS = 2
SIMULATE_SEED = 1
_POWER_LAW_2 = {"kind": "power_law", "alpha": 2.0}

# Tier-1 acceptance configurations (tests/test_acceptance.py), one per check.
HARNESS_CONFIGS = {
    "normality": {"population": _POWER_LAW_2, "n_grid": [10 ** 5],
                  "replications": 400, "M_values": [0.0]},
    "bvm": {"population": _POWER_LAW_2,
            "n_grid": [10 ** 3, 10 ** 4, 10 ** 5], "replications": 50,
            "M_values": [0.0]},
    "lemma_limits": {"population": _POWER_LAW_2, "n_grid": [10 ** 6],
                     "tolerance": 0.05},
    "root_rate": {"population": _POWER_LAW_2,
                  "n_grid": [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]},
    "tau1_mc": {"population": _POWER_LAW_2, "n_grid": [10 ** 6],
                "replications": 400, "tolerance": 0.10},
    "forensic": {"population": _POWER_LAW_2, "n_grid": [10 ** 4],
                 "replications": 400, "M_values": [0.0],
                 "prior": {"M": {"kind": "fixed", "value": 0.0}}},
    "precision_profile": {"population": {"kind": "synthetic", "gamma": 0.5,
                                         "r": 1.0},
                          "n_grid": [10 ** 4, 10 ** 5, 3 * 10 ** 5],
                          "replications": 15, "M_values": [0.0, 1.0, 5.0],
                          "M_max": 5.0},
}

VERDICTS_PATH = Path(__file__).with_name("verdicts.json")


def harness_config(check, seed):
    return dict(HARNESS_CONFIGS[check], check=check, seed=seed)


def experiment_argv(config, report):
    """The `pitmanyor` arguments of the harness request for one check."""
    return ["experiment", "--config", str(config), "--threads",
            str(HARNESS_THREADS), "--out", str(report), "--force"]


@dataclass
class Request:
    """One CLI call.  It fails when its exit code is not in `ok_codes` or a
    file in `outputs` is missing; otherwise `check(outcome)` lists what is
    wrong with its output.  `outputs` are deleted after each pass."""

    name: str
    argv: list
    check: object
    outputs: list = field(default_factory=list)
    ok_codes: tuple = (0,)

    def failed(self, outcome):
        return outcome.returncode not in self.ok_codes \
            or not all(Path(p).exists() for p in self.outputs)


@dataclass
class Outcome:
    returncode: int
    stdout: str
    stderr: str


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def generate_inputs(workload, seed, work):
    """Write the workload's input files under `work`; return their paths."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "harness":
        paths = {}
        for check in HARNESS_CONFIGS:
            p = work / f"{check}.json"
            p.write_text(json.dumps(harness_config(check, seed),
                                    sort_keys=True))
            paths[check] = p
        return paths
    a, rows = ZIPF[workload]
    labels = np.random.default_rng(seed).zipf(a, rows)
    paths = {"sample": work / "sample.csv"}
    paths["sample"].write_text(
        "species\n" + "\n".join(map(str, labels.tolist())) + "\n")
    if workload == "cli_tall":
        paths["population"] = work / "population.json"
        paths["population"].write_text(json.dumps(_POWER_LAW_2))
    return paths


def describe_inputs(workload, paths):
    """Shape and SHA-256 of every input, for the environment block."""
    out = {"digests": {name: _sha256(p) for name, p in sorted(paths.items())}}
    if workload != "harness":
        sizes = reference.sizes_from_csv(paths["sample"])
        out.update(n=int(sizes.sum()), K=int(sizes.size),
                   max_N=int(sizes.max()),
                   distinct_sizes=int(np.unique(sizes).size))
    return out


# ---------------------------------------------------------------------------
# requests


def requests(workload, seed, paths, work):
    if workload == "harness":
        return _harness_requests(seed, paths, work)
    return _cli_requests(workload, seed, paths, work)


def _cli_requests(workload, seed, paths, work):
    sample = str(paths["sample"])
    ref = reference.CliReference(paths["sample"])
    crime = f"crime-{seed}"  # labels in the sample are integers
    sim_csv = work / "simulated.csv"
    # simulate draws with a fixed seed: its cost and peak memory follow its
    # largest draws, which would otherwise make them vary from seed to seed
    if workload == "cli_tall":
        sim_n = ZIPF["cli_tall"][1]
        sim_src = ["--population", str(paths["population"])]
    else:
        sim_n = 50_000
        sim_src = ["--py", "0.9,1"]
    return [
        Request("fit", ["fit", "--sample", sample, "--m", "1", "--se"],
                ref.check_fit),
        Request("profile", ["fit", "--sample", sample, "--profile",
                            "--m-max", "50"], ref.check_profile),
        Request("posterior", ["posterior", "--sample", sample, "--m", "1"],
                ref.check_posterior_fixed),
        Request("posterior_mu", ["posterior", "--sample", sample,
                                 "--m-uniform-max", "10"],
                ref.check_posterior_uniform),
        Request("lr", ["lr", "--db", sample, "--crime-profile", crime,
                       "--m-uniform-max", "10"], ref.check_lr),
        Request("simulate", ["simulate", *sim_src, "--n", str(sim_n),
                             "--seed", str(SIMULATE_SEED),
                             "--out", str(sim_csv), "--force"],
                lambda out: check_simulate(sim_csv, sim_n),
                outputs=[sim_csv, sim_csv.with_suffix(".json")]),
    ]


def check_simulate(csv_path, n):
    """Row count equals n and the stats JSON agrees with the CSV."""
    sizes = reference.sizes_from_csv(csv_path)
    if int(sizes.sum()) != n:
        return [f"simulate wrote {int(sizes.sum())} rows, expected {n}"]
    stats = json.loads(Path(csv_path).with_suffix(".json").read_text())
    stats = stats["stats"]
    N = np.sort(sizes)[::-1]
    Z = np.cumsum(np.bincount(sizes)[::-1])[::-1][1:]
    if (stats["n"], stats["K"]) != (n, int(N.size)) \
            or not np.array_equal(stats["N"], N) \
            or not np.array_equal(stats["Z"], Z):
        return ["simulate stats JSON disagrees with its CSV"]
    return []


def load_verdicts():
    return json.loads(VERDICTS_PATH.read_text())


def _harness_requests(seed, paths, work):
    verdicts = load_verdicts()
    out = []
    for check, cfg in paths.items():
        report = work / f"{check}.report.json"
        expected = verdicts["by_seed"].get(str(seed), {}).get(check)
        out.append(Request(
            check, experiment_argv(cfg, report),
            lambda res, report=report, check=check, expected=expected:
                check_report(report, res, check, seed, expected),
            outputs=[report], ok_codes=(0, 1)))
    out.append(Request("verify", ["verify", "--fast"], check_verify,
                       ok_codes=(0, 1)))
    return out


def check_report(path, outcome, check, seed, expected):
    """The report names its check and seed, its verdict agrees with the exit
    code, and it equals the stored verdict for this seed when one exists."""
    report = json.loads(Path(path).read_text())
    problems = []
    if report.get("check") != check:
        problems.append(f"{check}: report names check {report.get('check')}")
    if check in ("normality", "bvm", "forensic", "precision_profile") \
            and report["config"].get("seed") != seed:
        problems.append(f"{check}: report seed {report['config'].get('seed')}")
    if (outcome.returncode == 0) != report["passed"]:
        problems.append(f"{check}: exit {outcome.returncode} but passed="
                        f"{report['passed']}")
    if expected is not None and report["passed"] != expected:
        problems.append(f"{check}: verdict {report['passed']}, reference "
                        f"{expected} for seed {seed}")
    return problems


def check_verify(outcome):
    rows = [ln for ln in outcome.stdout.splitlines()
            if ln.startswith(("PASS", "FAIL"))]
    if outcome.returncode != 0 or not rows \
            or any(ln.startswith("FAIL") for ln in rows):
        return ["verify --fast reported a failing invariant"]
    return []

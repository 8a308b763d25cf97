"""Tests of the benchmark itself: run with `python3 -m pytest perfbench/tests`
from the root of the repository."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import (  # noqa: E402
    compare, layers, make_verdicts, reference, shim, workloads)
from perfbench.workloads import Outcome  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert m["name"] in layers.LAYER_METRICS + layers.TRACE_METRICS
        assert m["unit"] == layers.unit(m["name"])


def test_verdict_table_covers_every_check():
    table = workloads.load_verdicts()["by_seed"]
    assert set(table) == {str(s) for s in range(make_verdicts.SEEDS)}
    assert all(set(row) == set(workloads.HARNESS_CONFIGS)
               for row in table.values())


def _direct_log_lik(sizes, sigma, M):
    """The log-EPPF as the three products over blocks and observations."""
    sizes = np.asarray(sizes)
    n, K = int(sizes.sum()), sizes.size
    out = sum(np.log(M + l * sigma) for l in range(1, K))
    out += sum(np.log(l - sigma) for N in sizes for l in range(1, N))
    return out - sum(np.log(M + i) for i in range(1, n))


@pytest.mark.parametrize("sigma,M", [(0.3, 0.0), (0.5, 1.0), (0.9, 7.5)])
def test_reference_closed_form_matches_direct_sums(sigma, M):
    sizes = np.random.default_rng(0).zipf(1.6, 300)
    smp = reference.Sample(sizes)
    assert smp.log_lik(sigma, M) == pytest.approx(
        _direct_log_lik(sizes, sigma, M), rel=1e-12)
    h = 1e-6
    fd = (smp.log_lik(sigma + h, M) - smp.log_lik(sigma - h, M)) / (2 * h)
    assert smp.score(sigma, M) == pytest.approx(fd, rel=1e-6)


def test_reference_posterior_of_a_gaussian_like_sample():
    smp = reference.Sample(np.random.default_rng(1).zipf(2.0, 20_000))
    post = reference.Posterior(smp, M=1.0)
    lo, hi = post.interval(0.95)
    assert lo < post.mean < hi
    # the mode is the fixed-M MLE and the posterior is nearly Gaussian
    assert abs(post.mean - smp.mle_sigma(1.0)) < 0.1 * post.sd
    assert (hi - lo) / (2 * 1.96 * post.sd) == pytest.approx(1.0, abs=0.02)


def test_pass_trace_self_time_totals_and_ratios(tmp_path):
    spans = [  # id, name, start, end, parent, thread, units
        (1, "cli.main", 0.0, 10.0, None, 1, 0),
        (2, "estimators.profile_mle", 1.0, 9.0, 1, 1, 0),
        (3, "estimators.mle_sigma", 1.0, 4.0, 2, 1, 0),
        (4, "likelihood.score_sigma", 1.0, 2.0, 3, 1, 0),
        (5, "estimators.mle_sigma", 5.0, 8.0, 2, 1, 0),
        (6, "likelihood.log_eppf_grid", 0.0, 3.0, None, 2, 2049),
    ]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"request": "0", "import_s": 0.5,
                                "tau1_sq_misses": 1, "spans": spans}))
    m = layers.PassTrace([path]).metrics()
    assert m["cli.main.self_s"][0] == pytest.approx(2.0)
    assert m["estimators.profile_mle.self_s"][0] == pytest.approx(2.0)
    assert m["estimators.mle_sigma.self_s"][0] == pytest.approx(5.0)
    assert m["estimators.profile_mle.mle_calls_per_call"][0] == 2
    assert m["estimators.mle_sigma.score_calls_per_call"][0] == 0.5
    assert m["likelihood.log_eppf_grid.nodes"][0] == 2049
    assert m["likelihood.log_eppf_grid.total_s"][0] == pytest.approx(3.0)
    assert m["estimators.self_s"][0] == pytest.approx(7.0)
    assert m["trace.layer_sum_s"][0] == pytest.approx(0.5 + 13.0)
    assert m["asymptotics.tau1_sq.misses"][0] == 1


def test_shim_rebinds_names_and_writes_spans(tmp_path):
    csv = tmp_path / "s.csv"
    labels = np.random.default_rng(2).zipf(2.0, 2000)
    csv.write_text("species\n" + "\n".join(map(str, labels)) + "\n")
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "shim.py"), str(spans_path),
         "7", "fit", "--sample", str(csv), "--m", "1"],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["sigma_hat"] > 0
    m = layers.PassTrace([spans_path]).metrics()
    # cli imports mle_sigma by name and estimators imports score_sigma by
    # name: both calls are traced, with score spans under mle_sigma
    assert m["estimators.mle_sigma.calls"][0] == 1
    assert m["estimators.mle_sigma.score_calls_per_call"][0] >= 3
    assert m["partition.read_sample_csv.self_s"][0] > 0
    assert m["cli.import_s"][0] > 0


def test_shim_reports_an_uncaught_exception_as_exit_1(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "shim.py"), str(spans_path),
         "0", "fit", "--sample", str(tmp_path / "missing.csv")],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert spans_path.exists()


def test_span_names_cover_every_layer_metric():
    names = {shim.span_name(mod, t) for mod, ts in shim.TRACED.items()
             for t in ts}
    for metric in layers.LAYER_METRICS:
        span = metric.rsplit(".", 1)[0]
        assert span in names or span in shim.TRACED or metric in (
            "cli.import_s", "asymptotics.tau1_sq.misses")
    assert set(layers.PER_CALL.values()) <= names


def test_check_simulate_detects_a_disagreeing_stats_file(tmp_path):
    csv = tmp_path / "sim.csv"
    csv.write_text("species\n0\n0\n1\n")
    stats = {"n": 3, "K": 2, "N": [2, 1], "Z": [2, 1]}
    (tmp_path / "sim.json").write_text(json.dumps({"stats": stats}))
    assert workloads.check_simulate(csv, 3) == []
    assert workloads.check_simulate(csv, 4)
    stats["N"] = [3]
    (tmp_path / "sim.json").write_text(json.dumps({"stats": stats}))
    assert workloads.check_simulate(csv, 3)


def test_check_report_compares_with_the_stored_verdict(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"check": "normality", "passed": False,
                                "config": {"seed": 11}}))
    assert workloads.check_report(path, Outcome(1, "", ""), "normality", 11,
                                  False) == []
    assert workloads.check_report(path, Outcome(1, "", ""), "normality", 11,
                                  True)
    assert workloads.check_report(path, Outcome(0, "", ""), "normality", 11,
                                  None)


def _records(path, workload, values):
    with open(path, "w") as fh:
        for v in values:
            fh.write(json.dumps({"workload": workload, "end_to_end": {
                "total_s": {"value": v, "unit": "s"}}}) + "\n")


def test_compare_flags_regressions_and_unresolved_spreads(tmp_path):
    bound = compare.BOUNDS["total_s"]
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(base, base, bound) == "ok"
    slow = [v * (1 + 3 * bound) for v in base]
    assert compare.verdict(base, slow, bound) == "REGRESSION"
    fast = [v * (1 - 3 * bound) for v in base]
    assert compare.verdict(base, fast, bound) == "improved"
    noisy = [10.0, 5.0, 15.0, 10.0, 8.0]
    assert compare.verdict(base, noisy, bound) == "unresolved"
    _records(tmp_path / "a.jsonl", "cli_tall", base)
    _records(tmp_path / "b.jsonl", "cli_tall", slow)
    assert compare.compare(tmp_path / "a.jsonl", tmp_path / "b.jsonl",
                           out=open(tmp_path / "out.txt", "w")) == 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "cli_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pitmanyor
from pitmanyor import estimators, experiments, partition, population
from pitmanyor.cli import main
from pitmanyor.numerics import IntegrationError


def run(*argv):
    return main(list(argv))


@pytest.fixture
def sample(tmp_path):
    out = tmp_path / "s.csv"
    code = run("simulate", "--py", "0.5,1.0", "--n", "800", "--seed", "7",
               "--out", str(out))
    assert code == 0
    return out


def test_simulate_writes_sample_and_stats(sample, tmp_path):
    lines = sample.read_text().splitlines()
    assert lines[0] == "species"
    assert len(lines) == 801
    stats = json.loads((tmp_path / "s.json").read_text())
    assert stats["stats"]["n"] == 800
    assert stats["provenance"]["version"]


def test_simulate_deterministic(tmp_path):
    for name in ("a.csv", "b.csv"):
        assert run("simulate", "--py", "0.3,2.0", "--n", "100", "--seed", "5",
                   "--out", str(tmp_path / name)) == 0
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_simulate_rejects_nonpositive_n(tmp_path):
    assert run("simulate", "--py", "0.5,1", "--n", "0",
               "--out", str(tmp_path / "x.csv")) == 2


def test_simulate_refuses_overwrite(sample):
    assert run("simulate", "--py", "0.5,1.0", "--n", "10",
               "--out", str(sample)) == 1


def test_simulate_population_spec(tmp_path):
    spec = tmp_path / "pop.json"
    spec.write_text('{"kind": "power_law", "alpha": 2.0}')
    out = tmp_path / "pl.csv"
    assert run("simulate", "--population", str(spec), "--n", "500",
               "--seed", "1", "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 501


def test_simulate_population_with_huge_labels(tmp_path):
    # at alpha = 1.1 some power-law labels are atom indices near 2^62; the
    # statistic must not allocate memory in proportion to them
    spec = tmp_path / "pop.json"
    spec.write_text('{"kind": "power_law", "alpha": 1.1}')
    out = tmp_path / "pl.csv"
    assert run("simulate", "--population", str(spec), "--n", "1000",
               "--seed", "1", "--out", str(out)) == 0
    labels = np.loadtxt(out, dtype=np.int64, skiprows=1)
    assert labels.max() >= 2 ** 40
    stats = json.loads(out.with_suffix(".json").read_text())["stats"]
    assert stats["N"] == sorted(np.unique(labels, return_counts=True)[1]
                                .tolist(), reverse=True)


def test_simulate_and_fit_synthetic_near_one(tmp_path, capsys):
    # synthetic(0.99, 0): its norm and atom probabilities must be finite,
    # so the sample is not n distinct species, and the fit is interior
    spec = tmp_path / "pop.json"
    spec.write_text('{"kind": "synthetic", "gamma": 0.99, "r": 0}')
    out = tmp_path / "syn.csv"
    assert run("simulate", "--population", str(spec), "--n", "100000",
               "--seed", "1", "--out", str(out)) == 0
    capsys.readouterr()
    assert run("fit", "--stats", str(tmp_path / "syn.json")) == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["K"] < fit["n"] and fit["boundary"] == "Interior"
    assert abs(fit["sigma_hat"] - 0.99) <= 0.02


def test_fit_from_sample(sample, tmp_path, capsys):
    assert run("fit", "--sample", str(sample), "--m", "1") == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 < payload["sigma_hat"] < 1.0
    assert payload["warnings"] == []
    assert payload["provenance"]["input_digests"]


def test_fit_from_stats_json(sample, tmp_path, capsys):
    assert run("fit", "--stats", str(tmp_path / "s.json"), "--m", "1") == 0
    from_stats = json.loads(capsys.readouterr().out)["sigma_hat"]
    assert run("fit", "--sample", str(sample), "--m", "1") == 0
    from_sample = json.loads(capsys.readouterr().out)["sigma_hat"]
    assert from_stats == from_sample


def test_fit_boundary_warning(tmp_path, capsys):
    path = tmp_path / "distinct.csv"
    path.write_text("species\n" + "\n".join(f"s{i}" for i in range(20)) + "\n")
    assert run("fit", "--sample", str(path), "--m", "1") == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["boundary"] == "UpperSigma"
    assert payload["warnings"]
    assert "boundary" in captured.err


@pytest.mark.parametrize("argv,warnings", [
    (("--m", "1"), ["the sigma root did not converge"]),
    (("--profile",),
     ["the sigma root did not converge", "the M root did not converge"]),
])
def test_fit_warns_when_a_root_did_not_converge(tmp_path, capsys,
                                                monkeypatch, argv, warnings):
    # a PY(0.5, 5) sample whose profile maximum has an interior M
    out = tmp_path / "py.csv"
    assert run("simulate", "--py", "0.5,5", "--n", "2000", "--seed", "1",
               "--out", str(out)) == 0
    capsys.readouterr()
    monkeypatch.setattr(estimators, "_ROOT_MAX_ITER", 1)
    assert run("fit", "--sample", str(out), *argv) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["boundary"] == "Interior"
    assert payload["warnings"] == warnings
    assert captured.err.splitlines() == [f"warning: {w}" for w in warnings]


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_fit_se_near_sigma_zero_prints_finite_json(tmp_path, capsys):
    # an interior sigma_hat of 3.1e-6, where the sandwich constants are
    # largest; the SE must be a finite JSON number, never the token NaN
    path = tmp_path / "tiny.json"
    path.write_text(partition.from_sizes([40, 17, 46, 46, 20]).to_json())
    assert run("fit", "--stats", str(path), "--m", "0.5006932866317516",
               "--se") == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["boundary"] == "Interior"
    assert 0.0 < payload["sigma_hat"] < 1e-5
    assert math.isfinite(payload["se_sandwich"])
    assert payload["se_sandwich"] > 0.0


def test_fit_profile(sample, capsys):
    assert run("fit", "--sample", str(sample), "--profile",
               "--m-max", "10") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["M_hat"] is not None


def test_fit_malformed_input(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,sample\n1,2,3\n")
    assert run("fit", "--sample", str(bad), "--m", "1") == 1


def test_posterior_agrees_with_fit(sample, capsys):
    assert run("fit", "--sample", str(sample), "--m", "1") == 0
    sigma_hat = json.loads(capsys.readouterr().out)["sigma_hat"]
    assert run("posterior", "--sample", str(sample), "--m", "1") == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["mean"] - sigma_hat) <= 3.0 * payload["sd"]
    lo, hi = payload["interval"]
    assert lo < payload["mean"] < hi


def test_lr_reports_bound(tmp_path, capsys):
    db = tmp_path / "db.csv"
    labels = ["a"] * 300 + ["b"] * 150 + [f"s{i}" for i in range(80)]
    db.write_text("species\n" + "\n".join(labels) + "\n")
    assert run("lr", "--db", str(db), "--crime-profile", "NEW",
               "--m", "1") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lr"] > payload["n"] + 1


def test_lr_rejects_seen_profile(tmp_path):
    db = tmp_path / "db.csv"
    db.write_text("species\na\nb\na\n")
    assert run("lr", "--db", str(db), "--crime-profile", "a", "--m", "1") == 1


def test_lr_rejects_db_without_species_header(tmp_path):
    db = tmp_path / "db.csv"
    db.write_text("label\na\nb\na\n")
    assert run("lr", "--db", str(db), "--crime-profile", "NEW",
               "--m", "1") == 1


def test_verify_fast(capsys):
    assert run("verify", "--fast") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_experiment_report_and_determinism(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "check": "normality",
        "population": {"kind": "power_law", "alpha": 2.0},
        "n_grid": [300], "replications": 4, "M_values": [0.0], "seed": 11,
    }))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run("experiment", "--config", str(cfg), "--out", str(out1)) == 0
    assert run("experiment", "--config", str(cfg), "--out", str(out2),
               "--threads", "3") == 0
    a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
    for d in (a, b):
        d.pop("wall_clock")
        d.pop("provenance")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("check,spec", [
    ("lemma_limits", {"n_grid": [10 ** 3]}),
    ("root_rate", {"n_grid": [10 ** 3, 10 ** 4]}),
    ("tau1_mc", {"n_grid": [10 ** 4], "replications": 8}),
])
def test_experiment_population_checks_match_runner(tmp_path, check, spec):
    spec = dict(spec, check=check, seed=5,
                population={"kind": "power_law", "alpha": 2.0})
    cfg, out = tmp_path / "exp.json", tmp_path / "r.json"
    cfg.write_text(json.dumps(spec))
    code = run("experiment", "--config", str(cfg), "--out", str(out),
               "--threads", "2")
    report = json.loads(out.read_text())
    config = experiments.ExperimentConfig.from_dict(dict(spec, threads=2),
                                                    check)
    direct = json.loads(getattr(experiments, f"run_{check}")(config)
                        .to_json())
    assert code == (0 if direct["passed"] else 1)
    for key in ("check", "config", "results", "passed"):
        assert report[key] == direct[key]


@pytest.mark.parametrize("n_grid,stored", [
    ([1e3], [1000]),  # an integral float is read as the integer
    ([1000.5], None),  # a non-integral entry is rejected
    ([-5], None),  # so is a nonpositive one
    ([0, 100], None),
])
def test_experiment_n_grid_entries_are_positive_integers(tmp_path, capsys,
                                                         n_grid, stored):
    cfg, out = tmp_path / "exp.json", tmp_path / "r.json"
    cfg.write_text(json.dumps({
        "check": "normality", "population": {"kind": "power_law",
                                             "alpha": 2.0},
        "n_grid": n_grid, "replications": 2, "M_values": [0.0]}))
    code = run("experiment", "--config", str(cfg), "--out", str(out))
    if stored is None:
        assert code == 1
        assert "error: n_grid entries must be positive integers" \
            in capsys.readouterr().err
        assert not out.exists()
    else:
        assert code in (0, 1)
        grid = json.loads(out.read_text())["config"]["n_grid"]
        assert grid == stored and all(type(n) is int for n in grid)


@pytest.mark.parametrize("key,value,message", [
    ("replications", 2.5, "replications: must be an integer, got 2.5"),
    ("seed", 1.5, "seed: must be an integer, got 1.5"),
    ("replications", 2.0, "replications: must be an integer, got 2.0"),
    ("seed", 10 ** 400, f"seed: {10 ** 400} is beyond int64"),
    ("n_grid", [10 ** 400], "n_grid entries must be positive integers"),
    ("n_grid", 1000, "n_grid must be a list of positive integers"),
])
def test_experiment_rejects_malformed_keys(tmp_path, capsys, key, value,
                                           message):
    cfg, out = tmp_path / "exp.json", tmp_path / "r.json"
    spec = {"check": "normality",
            "population": {"kind": "power_law", "alpha": 2.0},
            "n_grid": [300], "replications": 2, "M_values": [0.0]}
    cfg.write_text(json.dumps(dict(spec, **{key: value})))
    assert run("experiment", "--config", str(cfg), "--out", str(out)) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


_NORMALITY = {"check": "normality",
              "population": {"kind": "power_law", "alpha": 2.0},
              "n_grid": [300], "replications": 2}


@pytest.mark.parametrize("command,text,message", [
    ("fit", "3", "stats JSON must be a JSON object"),
    ("simulate", "3", "population spec must be a JSON object"),
    ("simulate", "[1]", "population spec must be a JSON object"),
    ("simulate", '{"kind": "power_law", "alpha": "2"}',
     "alpha: must be a number, got '2'"),
    ("experiment", "[1]", "experiment config must be a JSON object"),
    ("experiment", json.dumps(dict(_NORMALITY, population=[1])),
     "population spec must be a JSON object"),
    ("experiment", json.dumps(dict(_NORMALITY, prior=3)),
     "prior: prior must be a JSON object"),
    ("experiment", json.dumps(dict(_NORMALITY, prior={"M": 3})),
     "prior: M must be a JSON object"),
    ("experiment", json.dumps(dict(_NORMALITY, M_values=["a"])),
     "M_values: must be a number, got 'a'"),
])
def test_malformed_json_input_is_one_error_line(tmp_path, capsys, command,
                                                text, message):
    path, out = tmp_path / "input.json", tmp_path / "out.csv"
    path.write_text(text)
    argv = {"fit": ["fit", "--stats", str(path)],
            "simulate": ["simulate", "--population", str(path), "--n", "10",
                         "--out", str(out)],
            "experiment": ["experiment", "--config", str(path),
                           "--out", str(out)]}[command]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_fit_stats_rejects_entry_beyond_int64(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 2 ** 64, "K": 1, "N": [2 ** 64],
                                "Z": [1]}))
    assert run("fit", "--stats", str(path), "--m", "1") == 1
    assert f"error: N must be a list of integers: {2 ** 64} is beyond " \
        "int64" in capsys.readouterr().err


def test_experiment_unknown_check(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"check": "nonsense", "population": {},
                               "n_grid": [10]}))
    assert run("experiment", "--config", str(cfg),
               "--out", str(tmp_path / "r.json")) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_parameters_are_error_lines(sample, tmp_path, capsys,
                                                value):
    out = str(tmp_path / "py.csv")
    # --flag=value, as argparse takes a separate "-inf" for an option
    for argv in (("fit", "--sample", str(sample), f"--m={value}"),
                 ("fit", "--sample", str(sample), "--profile",
                  f"--m-max={value}"),
                 ("posterior", "--sample", str(sample), "--prior", "beta",
                  f"--beta={value},1"),
                 ("posterior", "--sample", str(sample),
                  f"--m-uniform-max={value}"),
                 ("lr", "--db", str(sample), "--crime-profile", "new",
                  f"--m={value}"),
                 ("simulate", f"--py=0.5,{value}", "--n", "1000",
                  "--out", out)):
        assert run(*argv) == 1, argv
        assert "finite" in capsys.readouterr().err
    assert not Path(out).exists()


@pytest.mark.parametrize("flag,value", [
    ("--py", "0.5"), ("--py", "0.5,1,2"), ("--py", "a,1"),
    ("--beta", "1"), ("--beta", ""), ("--beta", "1;1")])
def test_malformed_pair_is_a_usage_error(sample, tmp_path, capsys, flag,
                                         value):
    argv = (["simulate", "--py", value, "--n", "10",
             "--out", str(tmp_path / "x.csv")] if flag == "--py" else
            ["posterior", "--sample", str(sample), "--prior", "beta",
             "--beta", value])
    with pytest.raises(SystemExit) as info:
        run(*argv)
    assert info.value.code == 2
    assert f"argument {flag}: expected two comma-separated numbers" \
        in capsys.readouterr().err


def test_unknown_flag_is_hard_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        run("fit", "--no-such-flag")
    assert info.value.code == 2


def _package_env():
    """The environment of a child Python that imports this package."""
    src = str(Path(pitmanyor.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_loads_no_pool():
    code = ("import sys, pitmanyor.cli; print(sorted(m for m in "
            "('concurrent.futures', 'multiprocessing.pool') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_package_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_BLOCKED_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from pitmanyor.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_cli_runs_with_scipy_blocked(tmp_path):
    sample, pop = tmp_path / "s.csv", tmp_path / "population.json"
    pop.write_text('{"kind": "power_law", "alpha": 1.1}')
    configs = {
        "normality": {"n_grid": [300], "replications": 4, "M_values": [0.0]},
        "bvm": {"n_grid": [300, 1000], "replications": 3, "M_values": [0.0]},
        "lemma_limits": {"n_grid": [10 ** 3]},
    }
    for check, spec in configs.items():
        (tmp_path / f"{check}.json").write_text(json.dumps(dict(
            spec, check=check, seed=3,
            population={"kind": "power_law", "alpha": 2.0})))
    commands = [
        ["simulate", "--py", "0.5,1.0", "--n", "800", "--seed", "7",
         "--out", str(sample)],
        # power_law(1.1) puts a fifth of its draws past the cumulative table
        ["simulate", "--population", str(pop), "--n", "20000", "--seed", "3",
         "--out", str(tmp_path / "pl.csv")],
        ["fit", "--sample", str(sample), "--m", "1", "--se"],
        ["fit", "--sample", str(sample), "--profile"],
        ["posterior", "--sample", str(sample), "--m", "1"],
        ["posterior", "--sample", str(sample), "--m-uniform-max", "10"],
        ["lr", "--db", str(sample), "--crime-profile", "unseen",
         "--m-uniform-max", "10"],
        ["verify", "--fast"],
    ] + [["experiment", "--config", str(tmp_path / f"{check}.json"),
          "--out", str(tmp_path / f"{check}.report.json")]
         for check in configs]
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_SCIPY, json.dumps(commands)],
        capture_output=True, text=True, env=_package_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # an experiment exits 1 when its check fails, but writes its report
    assert result["codes"][:-len(configs)] == [0] * (len(commands)
                                                     - len(configs))
    assert all(code in (0, 1) for code in result["codes"][-len(configs):])
    for check in configs:
        assert (tmp_path / f"{check}.report.json").exists()
    assert result["loaded"] == ["scipy"]  # only the blocking entry


def test_integration_failure_is_an_error_line(tmp_path, capsys,
                                              monkeypatch):
    def fail(*args, **kwargs):
        raise IntegrationError("quadrature did not converge: estimate 1.0, "
                               "error bound 0.5", estimate=1.0,
                               error_bound=0.5)

    monkeypatch.setattr(population, "adaptive_integrate", fail)
    spec = tmp_path / "synthetic.json"
    spec.write_text('{"kind": "synthetic", "gamma": 0.5, "r": 1.0}')
    out = tmp_path / "syn.csv"
    assert run("simulate", "--population", str(spec), "--n", "100",
               "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "error: quadrature did not converge: estimate 1.0, "
        "error bound 0.5\n")
    assert not out.exists()


# the replication body raises IntegrationError in every pool worker; two
# workers run on any machine
_FAILING_WORKER = """
import multiprocessing, sys
from pitmanyor import cli, experiments
from pitmanyor.numerics import IntegrationError

mle_sigma = experiments.estimators.mle_sigma


def mle_sigma_failing_in_workers(*args, **kwargs):
    if multiprocessing.parent_process() is not None:
        raise IntegrationError("quadrature did not converge: estimate 1.0, "
                               "error bound 0.5", 1.0, 0.5)
    return mle_sigma(*args, **kwargs)


experiments.estimators.mle_sigma = mle_sigma_failing_in_workers
experiments.os.cpu_count = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


def test_worker_integration_error_is_an_error_line(tmp_path):
    # the error crosses the pipe from the worker; the run must not hang
    cfg, out = tmp_path / "exp.json", tmp_path / "r.json"
    cfg.write_text(json.dumps({
        "check": "normality", "population": {"kind": "power_law",
                                             "alpha": 2.0},
        "n_grid": [300], "replications": 6, "seed": 1}))
    proc = subprocess.run(
        [sys.executable, "-c", _FAILING_WORKER, "experiment", "--config",
         str(cfg), "--out", str(out), "--threads", "2"],
        capture_output=True, text=True, env=_package_env(), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == ("error: quadrature did not converge: estimate "
                           "1.0, error bound 0.5\n")
    assert not out.exists()


def _live_members(pgid):
    """Pids of the processes of group pgid that have not exited (zombies
    excluded), from /proc/<pid>/stat."""
    live = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):  # not a pid, or the process is gone
            continue
        state, _, group = stat.rpartition(")")[2].split()[:3]
        if int(group) == pgid and state != "Z":
            live.append(int(entry.name))
    return live


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process groups from /proc")
def test_workers_exit_when_the_cli_is_killed(tmp_path):
    # a request killed mid-run leaves no worker behind: each exits on the
    # broken pipe after its current replication
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "check": "normality", "population": {"kind": "power_law",
                                             "alpha": 2.0},
        "n_grid": [10 ** 5], "replications": 4000, "seed": 1}))
    code = ("import sys; from pitmanyor import cli, experiments; "
            "experiments.os.cpu_count = lambda: 2; "
            "sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "experiment", "--config", str(cfg),
         "--out", str(tmp_path / "r.json"), "--threads", "2"],
        env=_package_env(), start_new_session=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while len(_live_members(proc.pid)) < 3:  # the CLI and two workers
            assert proc.poll() is None, "the run ended before its workers"
            assert time.monotonic() < deadline, "no workers started"
            time.sleep(0.02)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10
        while _live_members(proc.pid):
            assert time.monotonic() < deadline, \
                f"workers left running: {_live_members(proc.pid)}"
            time.sleep(0.05)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pitmanyor
from pitmanyor import experiments
from pitmanyor.cli import main


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


def test_experiment_unknown_check(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"check": "nonsense", "population": {},
                               "n_grid": [10]}))
    assert run("experiment", "--config", str(cfg),
               "--out", str(tmp_path / "r.json")) == 2


def test_unknown_flag_is_hard_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        run("fit", "--no-such-flag")
    assert info.value.code == 2


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    code = ("import sys, pitmanyor.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.stats', 'scipy.optimize'))))")
    src = str(Path(pitmanyor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"

import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from pitmanyor import experiments as ex
from pitmanyor.inference import PriorSpec
from pitmanyor.population import _BLOCK, SyntheticPopulation, make_power_law

POP_SPEC = {"kind": "power_law", "alpha": 2.0}


def _config(**kw):
    base = dict(population=POP_SPEC, n_grid=(200,), replications=2,
                M_values=(0.0,), seed=0, threads=1)
    base.update(kw)
    return ex.ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(replications=1)
    with pytest.raises(ValueError):
        _config(n_grid=())
    with pytest.raises(ValueError):
        _config(n_grid=(100, 50))
    with pytest.raises(ValueError, match="strictly increasing"):
        _config(n_grid=(1000, 1000))
    for threads in (0, -2):
        with pytest.raises(ValueError, match="threads"):
            _config(threads=threads)
        with pytest.raises(ValueError, match="threads"):
            ex.ExperimentConfig.from_dict(
                {"population": POP_SPEC, "n_grid": [100],
                 "threads": threads})


def test_config_from_dict():
    cfg = ex.ExperimentConfig.from_dict({
        "population": POP_SPEC, "n_grid": [100, 200], "replications": 3,
        "seed": 9, "prior": {"sigma": "beta", "beta": [2.0, 2.0],
                             "M": {"kind": "uniform", "max": 4.0}},
    })
    assert cfg.n_grid == (100, 200)
    assert cfg.prior.sigma_kind == "beta"
    assert cfg.prior.M_kind == "uniform"
    assert cfg.prior.M_max == 4.0


def test_config_from_dict_check_defaults():
    spec = {"population": POP_SPEC, "n_grid": [100], "threads": 3}
    cfg = {check: ex.ExperimentConfig.from_dict(spec).resolved(check)
           for check in ex.CHECKS}
    assert (cfg["normality"].replications, cfg["normality"].tolerance) \
        == (2, None)
    assert cfg["lemma_limits"].tolerance == 0.05
    assert (cfg["tau1_mc"].replications, cfg["tau1_mc"].tolerance) \
        == (400, 0.10)
    # a key given in the JSON wins; null counts as absent
    tau1 = ex.ExperimentConfig.from_dict(
        dict(spec, replications=8, tolerance=None, sigma=0.4)
    ).resolved("tau1_mc")
    assert (tau1.replications, tau1.tolerance, tau1.sigma) == (8, 0.10, 0.4)
    # the report's config block: every set field except the thread count
    assert cfg["lemma_limits"].to_dict() == {
        "population": POP_SPEC, "n_grid": (100,), "replications": 2,
        "M_values": (0.0,), "prior": PriorSpec().to_dict(), "seed": 0,
        "M_max": 5.0, "tolerance": 0.05}


@pytest.mark.parametrize("check", sorted(ex.CHECKS))
def test_both_entry_points_resolve_alike(check):
    # a config built directly and one read from JSON run the same config
    keys = {"population": {"kind": "power_law", "alpha": 2.0},
            "n_grid": (10 ** 4,)}
    direct = ex.ExperimentConfig(**keys).resolved(check)
    read = ex.ExperimentConfig.from_dict(dict(keys, check=check))
    assert read.resolved(check).to_dict() == direct.to_dict()
    assert direct.replications == (400 if check == "tau1_mc" else 2)


def test_directly_built_configs_take_the_check_defaults():
    # tolerance left None: the run uses and reports CHECKS' value
    rep = ex.run_tau1_mc(_config(n_grid=(10 ** 3,), replications=4))
    assert rep.config["tolerance"] == ex.CHECKS["tau1_mc"]["tolerance"]
    assert rep.passed == (abs(rep.results["ratio"] - 1.0) <= 0.10)
    rep = ex.run_lemma_limits(_config(n_grid=(10 ** 3,)))
    assert rep.config["tolerance"] == rep.results["tolerance"] == 0.05
    assert "sigma" not in rep.config  # no default: sigma0 is used
    # replications left unset: tau1_mc runs its documented 400, not 2
    rep = ex.run_tau1_mc(ex.ExperimentConfig(population=POP_SPEC,
                                             n_grid=(10 ** 4,)))
    assert rep.config["replications"] == rep.results["replications"] == 400
    assert rep.results["jackknife_se"] > 0.0


def test_run_normality_smoke_reports_ses():
    rep = ex.run_normality(_config(n_grid=(300,), replications=4))
    row = rep.results["300"]
    assert {"mean", "mean_se", "var", "var_se", "excluded_rate"} <= set(row)
    assert row["var_se"] > 0.0
    json.loads(rep.to_json())


def test_run_bvm_liveness_tiny_n():
    rep = ex.run_bvm(_config(n_grid=(50,), replications=2))
    assert len(rep.results["median_gap"]) == 1


def test_run_lemma_limits_small_n_finite():
    rep = ex.run_lemma_limits(_config(n_grid=(10,), tolerance=0.05))
    ratios = rep.results["ratios"]["10"]
    assert len(ratios) == 8
    assert all(math.isfinite(v) for v in ratios.values())


def test_lemma_ratios_improve_with_n():
    pop = make_power_law(2.0)
    r1 = ex.lemma_limit_ratios(pop, 10 ** 3)
    r2 = ex.lemma_limit_ratios(pop, 10 ** 5)
    worse = sum(abs(r2[k] - 1.0) > abs(r1[k] - 1.0) for k in r1)
    assert worse <= 2  # allow slack for the fastest-converging entries


def test_run_root_rate_single_n_graceful():
    rep = ex.run_root_rate(_config(n_grid=(10 ** 3,)))
    assert rep.results["slope"] is None
    assert rep.passed


def test_run_root_rate_synthetic_not_gated():
    rep = ex.run_root_rate(_config(
        population={"kind": "synthetic", "gamma": 0.5, "r": 1.0},
        n_grid=(10 ** 3, 10 ** 4)))
    assert not rep.results["slope_gated"]
    assert rep.passed  # slow 1/log n rate reported without a pass bound


def test_run_tau1_mc_liveness():
    rep = ex.run_tau1_mc(_config(n_grid=(10 ** 4,), seed=1, tolerance=0.1))
    assert rep.results["jackknife_se"] == 0.0  # too few reps for a SE
    rep = ex.run_tau1_mc(_config(n_grid=(10 ** 4,), replications=8, seed=1,
                                 tolerance=0.1))
    assert rep.results["jackknife_se"] > 0.0
    json.loads(rep.to_json())


def test_report_json_numpy_scalars():
    rep = ex.ExperimentReport(
        "tau1_mc", {"seed": np.int64(3)},
        {"within": np.bool_(True), "ratio": np.float64(0.5),
         "count": np.int64(7), "limit": math.inf},
        np.bool_(False), 1.0)
    assert json.loads(rep.to_json()) == {
        "check": "tau1_mc", "config": {"seed": 3},
        "results": {"within": True, "ratio": 0.5, "count": 7,
                    "limit": math.inf},
        "passed": False, "wall_clock": 1.0}


def test_run_precision_profile_singleton_grid():
    cfg = ex.ExperimentConfig(
        population={"kind": "synthetic", "gamma": 0.5, "r": 1.0},
        n_grid=(2000,), replications=2, M_values=(0.5, 2.0), seed=3,
        M_max=5.0)
    rep = ex.run_precision_profile(cfg)
    assert rep.results["M0"] == 5.0
    row = rep.results["per_n"]["2000"]
    assert 0.0 <= row["boundary_fraction"] <= 1.0
    assert row["sigma_agreement"] in (True, False)


def test_run_forensic_liveness():
    rep = ex.run_forensic(_config(n_grid=(500,), replications=2,
                                  prior=PriorSpec(M_value=0.0)))
    assert rep.results["lr_gt_n_plus_1_fraction"] == 1.0


def test_determinism_across_threads():
    a = ex.run_normality(_config(n_grid=(500,), replications=6, threads=1))
    b = ex.run_normality(_config(n_grid=(500,), replications=6, threads=4))
    assert a.to_json(include_wall_clock=False) \
        == b.to_json(include_wall_clock=False)


# small configurations of the replicated checks other than normality
_REPLICATED = {
    "bvm": dict(n_grid=(200, 500)),
    "forensic": dict(n_grid=(500,), prior=PriorSpec(M_value=0.0)),
    "tau1_mc": dict(n_grid=(1000,), tolerance=0.10),
    "precision_profile": dict(
        population={"kind": "synthetic", "gamma": 0.5, "r": 1.0},
        n_grid=(1000,), M_values=(0.0, 1.0), M_max=5.0),
}


@pytest.mark.parametrize("replications", [2, 5])
@pytest.mark.parametrize("check", sorted(_REPLICATED))
def test_determinism_across_workers(check, replications):
    # two replications run serially under any worker count; five run
    # replication 0 in this process and the rest in forked workers (given
    # two cores)
    run = getattr(ex, f"run_{check}")
    a, b = (run(_config(replications=replications, threads=threads,
                        **_REPLICATED[check])) for threads in (1, 3))
    assert a.to_json(include_wall_clock=False) \
        == b.to_json(include_wall_clock=False)


class _RecordingPool:
    """Stands in for the fork context's Pool: records the worker count and
    maps in this process."""

    sizes = []

    def __init__(self, processes, initializer, initargs):
        self.sizes.append(processes)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=None):
        return [fn(x) for x in iterable]


@pytest.mark.parametrize("threads,replications,cpus,workers", [
    (3, 1, 2, None), (3, 2, 2, None), (3, 5, 2, 2), (64, 5, 8, 4),
    (64, 100, 8, 8), (2, 100, 1, None), (1, 100, 8, None),
])
def test_worker_count_is_capped(monkeypatch, threads, replications, cpus,
                                workers):
    # min(threads, replications - 1, cpu count) workers; no pool at one
    import multiprocessing

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool",
                        _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(ex.os, "cpu_count", lambda: cpus)
    config = SimpleNamespace(threads=threads, replications=replications)
    assert ex._map_replications(lambda r: r * r, config) \
        == [r * r for r in range(replications)]
    assert _RecordingPool.sizes == ([] if workers is None else [workers])


def test_workers_end_with_their_run(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(ex.os, "cpu_count", lambda: 2)
    config = SimpleNamespace(threads=2, replications=7)
    parent = os.getpid()
    pids = ex._map_replications(lambda r: os.getpid(), config)
    assert pids[0] == parent and parent not in pids[1:]
    assert multiprocessing.active_children() == []


def test_threads_build_the_table_once(monkeypatch):
    # the parent's warm-up replication builds the cumulative table, and
    # forked workers inherit it: every atom of the parent's table is
    # computed once, in _BLOCK-atom ranges, whatever the worker count
    calls = []
    atom_probs_range = SyntheticPopulation.atom_probs_range

    def counted(self, start, stop):
        calls.append((start, stop))
        return atom_probs_range(self, start, stop)

    monkeypatch.setattr(SyntheticPopulation, "atom_probs_range", counted)
    reports = []
    for threads in (1, 3):
        calls.clear()
        reports.append(ex.run_precision_profile(_config(
            population={"kind": "synthetic", "gamma": 0.5, "r": 1.0},
            n_grid=(1000, 20000), replications=6, M_values=(0.0, 1.0),
            M_max=5.0, seed=4, threads=threads)))
        size = len(calls) * _BLOCK
        assert size > 1 << 16  # the table grew past its first size
        assert sorted(calls) == [(start, start + _BLOCK)
                                 for start in range(0, size, _BLOCK)]
    assert reports[0].to_json(include_wall_clock=False) \
        == reports[1].to_json(include_wall_clock=False)


@pytest.mark.parametrize("size", [1, 2, 7, 100, 1000])
def test_ks_normal_matches_scipy_kstest(size):
    from scipy import stats as sps

    rng = np.random.default_rng(size)
    for z in (rng.standard_normal(size), rng.standard_t(3, size) + 0.3):
        assert abs(ex._ks_normal(z) - sps.kstest(z, "norm").statistic) \
            <= 1e-15


def test_excluded_guard():
    with pytest.raises(RuntimeError):
        ex._excluded_guard(10, 100)
    assert ex._excluded_guard(1, 100) == pytest.approx(0.01)


def test_binomial_identity_exact():
    for n in (5, 20, 100):
        for p in (0.01, 0.3, 0.9):
            for l in (0, 1, n // 2, n - 1):
                assert ex.binomial_identity_residual(n, l, p) <= 1e-10


def test_stirling_envelope_bounded():
    assert ex.stirling_ratio_envelope() < 5.0


def test_moment_inequality():
    assert ex.moment_inequality_holds()


def test_log_factor_expansion_constant():
    assert ex.log_factor_expansion_c() < 5.0


def test_verify_suite_fast_passes():
    rows = ex.verify_suite(fast=True)
    assert len(rows) >= 8
    for name, ok, detail in rows:
        assert ok, f"{name}: {detail}"

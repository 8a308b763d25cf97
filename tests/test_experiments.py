import json
import math

import numpy as np
import pytest

from pitmanyor import experiments as ex
from pitmanyor.inference import PriorSpec
from pitmanyor.population import make_power_law

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


def test_config_from_dict():
    cfg = ex.ExperimentConfig.from_dict({
        "population": POP_SPEC, "n_grid": [100, 200], "replications": 3,
        "seed": 9, "prior": {"sigma": "beta", "beta": [2.0, 2.0],
                             "M": {"kind": "uniform", "max": 4.0}},
    }, "normality")
    assert cfg.n_grid == (100, 200)
    assert cfg.prior.sigma_kind == "beta"
    assert cfg.prior.M_kind == "uniform"
    assert cfg.prior.M_max == 4.0


def test_config_from_dict_check_defaults():
    spec = {"population": POP_SPEC, "n_grid": [100], "threads": 3}
    cfg = {check: ex.ExperimentConfig.from_dict(spec, check)
           for check in ex.CHECKS}
    assert (cfg["normality"].replications, cfg["normality"].tolerance) \
        == (2, None)
    assert cfg["lemma_limits"].tolerance == 0.05
    assert (cfg["tau1_mc"].replications, cfg["tau1_mc"].tolerance) \
        == (400, 0.10)
    # a key given in the JSON wins; null counts as absent
    tau1 = ex.ExperimentConfig.from_dict(
        dict(spec, replications=8, tolerance=None, sigma=0.4), "tau1_mc")
    assert (tau1.replications, tau1.tolerance, tau1.sigma) == (8, 0.10, 0.4)
    # the report's config block: every set field except the thread count
    assert cfg["lemma_limits"].to_dict() == {
        "population": POP_SPEC, "n_grid": (100,), "replications": 2,
        "M_values": (0.0,), "prior": PriorSpec().to_dict(), "seed": 0,
        "M_max": 5.0, "tolerance": 0.05}


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

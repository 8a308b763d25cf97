import math

import mpmath as mp
import numpy as np
import pytest

from pitmanyor.estimators import (INTERIOR, LOWER_M, LOWER_SIGMA, UPPER_M,
                                  UPPER_SIGMA, mle_sigma, plugin_alpha,
                                  profile_mle, sandwich_se, score_roots)
from pitmanyor.likelihood import log_eppf, score_sigma
from pitmanyor.partition import from_observations, from_sizes
from pitmanyor.sampler import RngStream, sample_py_partition


def test_interior_root_has_zero_score():
    st = from_sizes([40, 20, 10, 5, 5, 5, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1])
    res = mle_sigma(st, 1.0)
    assert res.boundary == INTERIOR
    assert abs(res.score_at_opt) <= 1e-6
    assert 0.0 < res.sigma_hat < 1.0


def test_interior_estimate_reports_solver_diagnostics():
    st = from_sizes([40, 20, 10, 5, 5, 5, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1])
    res = mle_sigma(st, 1.0, se=True)
    assert res.diagnostics["converged"] is True
    assert 1 <= res.diagnostics["iterations"] <= 200
    assert "diagnostics" not in res.to_dict()
    assert mle_sigma(from_sizes([1] * 50), 1.0).diagnostics == {}


def test_interior_is_a_maximum():
    st = from_sizes([40, 20, 10, 5, 5, 5, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1])
    res = mle_sigma(st, 1.0)
    for eps in (0.01, 0.05):
        assert res.log_lik >= log_eppf(st, res.sigma_hat - eps, 1.0)
        assert res.log_lik >= log_eppf(st, res.sigma_hat + eps, 1.0)


def test_all_distinct_upper_boundary():
    st = from_sizes([1, 1, 1, 1, 1])
    res = mle_sigma(st, 1.0)
    assert res.boundary == UPPER_SIGMA
    assert res.sigma_hat > 0.999


def test_small_tied_sample_lower_boundary():
    # [a,b,a] with M=1: the score 1/(1+sigma) - 1/(1-sigma) is negative on
    # all of (0,1), so the maximum sits at the lower clamp
    st = from_observations(["a", "b", "a"])
    res = mle_sigma(st, 1.0)
    assert res.boundary == LOWER_SIGMA
    assert res.sigma_hat < 1e-8
    assert score_sigma(st, 0.5, 1.0) < 0.0


def test_mle_requires_two_observations():
    with pytest.raises(ValueError):
        mle_sigma(from_sizes([1]), 1.0)
    with pytest.raises(ValueError):
        mle_sigma(from_sizes([2, 1]), -0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_M_is_rejected(value):
    st = from_sizes([3, 2, 1, 1])
    with pytest.raises(ValueError, match="finite"):
        mle_sigma(st, value)
    with pytest.raises(ValueError, match="finite"):
        profile_mle(st, M_max=value)


def test_recovery_simulated_py():
    # sigma recovered within 0.05 in most replications at n = 10^4
    sigma, M, n, reps = 0.5, 1.0, 10 ** 4, 60
    hits = 0
    for r in range(reps):
        st = sample_py_partition(sigma, M, n, RngStream(100, r))
        res = mle_sigma(st, M)
        hits += res.interior and abs(res.sigma_hat - sigma) <= 0.05
    assert hits >= 0.85 * reps


def test_profile_mle_recovers_sigma():
    st = sample_py_partition(0.5, 1.0, 10 ** 4, RngStream(4))
    res = profile_mle(st, M_max=50.0)
    assert abs(res.sigma_hat - 0.5) <= 0.07
    assert res.M_hat is not None
    assert 0.0 <= res.M_hat <= 50.0
    # the profile optimum cannot fall below any fixed-M likelihood
    for M in (0.0, 0.5, 1.0, 2.0, 10.0):
        assert res.log_lik >= mle_sigma(st, M).log_lik - 1e-9


def _mp_profile_root(stats, M_start, sigma_start):
    """The root of the profile slope l'(M) = dLambda/dM at (sigma_hat(M), M),
    both roots taken by mpmath at 40 digits."""
    with mp.workdps(40):
        ls = [mp.mpf(l) for l in range(1, stats.K)]
        blocks = [(int(s), int(c)) for s, c in zip(stats.sizes, stats.counts)]

        def sigma_hat(M):
            return mp.findroot(lambda s: mp.fsum(l / (M + l * s) for l in ls)
                               - mp.fsum(c * (mp.digamma(z - s)
                                              - mp.digamma(1 - s))
                                         for z, c in blocks),
                               mp.mpf(sigma_start))

        def slope(M):
            s = sigma_hat(M)
            return (mp.fsum(1 / (M + l * s) for l in ls)
                    - mp.digamma(M + stats.n) + mp.digamma(M + 1))

        return float(mp.findroot(slope, mp.mpf(M_start)))


def test_profile_mle_is_the_root_of_the_profile_slope():
    st = sample_py_partition(0.5, 1.0, 10 ** 4, RngStream(4))
    res = profile_mle(st, M_max=50.0)
    assert res.boundary == INTERIOR
    assert res.diagnostics["M_converged"] is True
    assert 1 <= res.diagnostics["M_iterations"] <= 200
    want = _mp_profile_root(st, res.M_hat, res.sigma_hat)
    assert abs(res.M_hat - want) <= 1e-9 * want


def test_profile_mle_interior_estimate_ignores_M_max():
    st = sample_py_partition(0.5, 1.0, 10 ** 4, RngStream(4))
    a, b = profile_mle(st, M_max=5.0), profile_mle(st, M_max=50.0)
    assert a.boundary == b.boundary == INTERIOR
    assert abs(a.M_hat - b.M_hat) <= 1e-12 * b.M_hat
    assert abs(a.sigma_hat - b.sigma_hat) <= 1e-12


@pytest.mark.parametrize("K", [2, 4, 50])
def test_profile_mle_all_distinct_sits_at_M_max(K):
    # the profile increases in M all the way: sigma_hat is the upper clamp
    for M_max in (5.0, 50.0):
        res = profile_mle(from_sizes([1] * K), M_max=M_max)
        assert res.M_hat == M_max
        assert res.boundary == UPPER_SIGMA
        assert "M_iterations" not in res.diagnostics


def test_profile_mle_boundary_flags():
    st = from_sizes([30, 1, 1])  # heavy tie mass pushes M to 0
    res = profile_mle(st, M_max=5.0)
    assert res.boundary == LOWER_M
    assert res.M_hat == 0.0
    assert res.diagnostics["M_max"] == 5.0
    # drawn with M = 100, the profile still rises at M_max = 5
    st = sample_py_partition(0.3, 100.0, 2000, RngStream(7))
    res = profile_mle(st, M_max=5.0)
    assert res.boundary == UPPER_M
    assert res.M_hat == 5.0
    assert "M_iterations" not in res.diagnostics


@pytest.mark.parametrize("M_max", [1e-9, 0.005, 0.01, 0.02])
def test_profile_mle_stays_within_a_small_M_max(M_max):
    # drawn with M = 100, the profile rises all the way to a small M_max;
    # the grid must rise to M_max too, not fall to it from 0.01
    st = sample_py_partition(0.3, 100.0, 2000, RngStream(7))
    res = profile_mle(st, M_max=M_max)
    assert res.M_hat <= M_max
    assert (res.M_hat, res.boundary) == (M_max, UPPER_M)


def test_score_roots_agree_with_mle_sigma():
    # one array root over M against the one-element case, boundaries too;
    # with few terms both sum directly, so each element keeps its bits
    st = sample_py_partition(0.5, 1.0, 2000, RngStream(3))
    grid = np.array([0.0, 0.3, 1.0, 5.0, 50.0])
    for stats in (st, from_sizes([1] * 40), from_sizes([30, 1, 1])):
        sigma, boundary, score, iterations, converged = score_roots(
            stats, grid)
        for i, M in enumerate(grid):
            fit = mle_sigma(stats, M)
            assert (sigma[i], boundary[i], score[i]) \
                == (fit.sigma_hat, fit.boundary, fit.score_at_opt)
            if fit.interior:
                assert (iterations[i], converged[i]) == (
                    fit.diagnostics["iterations"], True)


def test_profile_mle_validation():
    with pytest.raises(ValueError):
        profile_mle(from_sizes([2, 1]), M_max=0.0)


def test_plugin_alpha():
    st = from_sizes([3, 2, 1, 1, 1])
    assert plugin_alpha(st, 0.5) == pytest.approx(5.0 / math.gamma(0.5))


def test_sandwich_se_value():
    # se = tau1/(tau2^2 sqrt(alpha_n)) with the 0.5 constants
    st = from_sizes([3, 2, 1, 1, 1])
    se = sandwich_se(st, 0.5, alpha_n=100.0)
    want = math.sqrt(3.261851021) / (11.13665599 * math.sqrt(100.0))
    assert se == pytest.approx(want, rel=1e-3)


def test_sandwich_se_shrinks_with_n():
    ses = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        st = sample_py_partition(0.5, 1.0, n, RngStream(21))
        res = mle_sigma(st, 1.0, se=True)
        assert res.se_sandwich is not None and res.se_curvature is not None
        ses.append(res.se_sandwich)
    assert ses[0] > ses[1] > ses[2]


def test_result_json():
    st = from_sizes([3, 2, 1])
    res = mle_sigma(st, 1.0)
    d = res.to_dict(st)
    assert d["n"] == 6 and d["K"] == 3
    assert d["boundary"] == res.boundary

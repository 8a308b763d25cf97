import json
import math

import numpy as np
import pytest

from pitmanyor.estimators import (INTERIOR, LOWER_M, LOWER_SIGMA, UPPER_M,
                                  UPPER_SIGMA, mle_sigma, plugin_alpha,
                                  profile_mle, sandwich_se)
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
    assert "diagnostics" not in json.loads(res.to_json())
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


def test_profile_mle_boundary_flags():
    st = from_sizes([30, 1, 1])  # heavy tie mass pushes M to 0
    res = profile_mle(st, M_max=5.0)
    assert res.boundary in (LOWER_M, LOWER_SIGMA, INTERIOR, UPPER_M)
    assert res.diagnostics["M_max"] == 5.0


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
    want = math.sqrt(3.262311) / (11.13665599 * math.sqrt(100.0))
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
    import json
    d = json.loads(res.to_json(st))
    assert d["n"] == 6 and d["K"] == 3
    assert d["boundary"] == res.boundary

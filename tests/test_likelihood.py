import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy import special

from pitmanyor.likelihood import (SIGMA_EPS, eppf_total_mass, h_precision,
                                  hess_sigma, log_eppf, log_eppf_grid,
                                  score_sigma)
from pitmanyor.partition import from_observations, from_sizes

SIGMA_GRID = (0.25, 0.5, 0.75)
M_GRID = (0.0, 0.5, 1.0, 5.0)


def test_log_eppf_n1():
    st = from_sizes([1])
    assert log_eppf(st, 0.5, 1.0) == 0.0


def test_log_eppf_single_tie():
    # n=2, one block: probability (1 - sigma)/(M + 1)
    st = from_sizes([2])
    assert log_eppf(st, 0.5, 1.0) == pytest.approx(math.log(0.25), rel=1e-12)


def test_log_eppf_all_distinct():
    # n=3 distinct: (M + sigma)(M + 2 sigma)/((M + 1)(M + 2))
    st = from_sizes([1, 1, 1])
    assert log_eppf(st, 0.5, 1.0) == pytest.approx(math.log(0.5), rel=1e-12)


def test_log_eppf_boundary_clamp():
    st = from_sizes([2, 1])
    assert log_eppf(st, 0.0, 1.0) == -np.inf
    assert log_eppf(st, 1.0, 1.0) == -np.inf


def test_normalization_small_n():
    # full acceptance check goes to n = 8; keep the unit test quick
    for sigma, M in product(SIGMA_GRID, M_GRID):
        for n in range(1, 7):
            assert abs(eppf_total_mass(n, sigma, M) - 1.0) <= 1e-10


def test_score_matches_finite_difference():
    st = from_sizes([6, 3, 3, 2, 1, 1, 1])
    h = 1e-6
    for sigma, M in product((0.2, 0.5, 0.8), (0.0, 1.0, 5.0)):
        fd = (log_eppf(st, sigma + h, M) - log_eppf(st, sigma - h, M)) / (2 * h)
        assert abs(score_sigma(st, sigma, M) - fd) <= 1e-5


def test_hess_matches_finite_difference():
    st = from_sizes([6, 3, 3, 2, 1, 1, 1])
    h = 1e-6
    for sigma, M in product((0.2, 0.5, 0.8), (0.0, 1.0, 5.0)):
        fd = (score_sigma(st, sigma + h, M)
              - score_sigma(st, sigma - h, M)) / (2 * h)
        hess = hess_sigma(st, sigma, M)
        assert abs(hess - fd) <= 1e-4 * abs(hess)


def test_hess_strictly_negative():
    for st in (from_sizes([2]), from_sizes([1, 1, 1]), from_sizes([4, 2, 1])):
        for sigma in np.linspace(0.05, 0.95, 19):
            for M in M_GRID:
                assert hess_sigma(st, float(sigma), M) < 0.0


def test_hess_single_tie_closed_form():
    st = from_sizes([2])
    for sigma in (0.2, 0.5, 0.8):
        assert hess_sigma(st, sigma, 1.0) == pytest.approx(
            -1.0 / (1.0 - sigma) ** 2, rel=1e-12)


def test_score_identity_with_h():
    # score = K/sigma - G_n(sigma) - h_{sigma,M}(K)/sigma
    for st in (from_sizes([3, 2, 1, 1]), from_sizes([10, 5, 5, 2, 1]),
               from_sizes([1, 1, 1, 1])):
        for sigma, M in product((0.3, 0.5, 0.7), (0.0, 1.0, 5.0)):
            direct = score_sigma(st, sigma, M)
            Z = _occupancy(st)
            l_old = np.arange(1, Z.size)
            g_n = float(np.sum(Z[1:] / (l_old - sigma)))
            via_h = st.K / sigma - g_n - h_precision(st.K, sigma, M) / sigma
            assert abs(direct - via_h) <= 1e-10 * max(abs(direct), 1.0)


def test_grid_matches_scalar_small_counts():
    st = from_sizes([5, 3, 2, 1, 1])
    sigmas = np.linspace(0.01, 0.99, 97)
    for M in (0.0, 1.0, 5.0):
        grid = log_eppf_grid(st, sigmas, M)
        for s, v in zip(sigmas, grid):
            assert v == pytest.approx(log_eppf(st, float(s), M), abs=1e-10)


def test_grid_matches_scalar_large_counts():
    # multiplicities in the thousands: large lnGamma arguments
    st = from_sizes([1500, 600, 300, 120, 40, 10, 3, 1, 1])
    sigmas = np.linspace(0.05, 0.95, 31)
    grid = log_eppf_grid(st, sigmas, 1.0)
    for s, v in zip(sigmas, grid):
        assert abs(v - log_eppf(st, float(s), 1.0)) <= 1e-6


def test_grid_out_of_range_is_minus_inf():
    st = from_sizes([2, 1])
    grid = log_eppf_grid(st, np.array([-0.5, 0.0, 0.5, 1.0, 1.5]), 1.0)
    assert np.isinf(grid[[0, 1, 3, 4]]).all()
    assert np.isfinite(grid[2])


def test_h_precision_values():
    assert h_precision(1, 0.5, 1.0) == 1.0
    assert h_precision(5, 0.5, 0.0) == 1.0
    assert h_precision(3, 0.5, 1.0) == pytest.approx(1.0 + 1.0 / 1.5 + 0.5)


def test_h_precision_log_bound():
    for k in (2, 10, 100, 1000):
        for sigma in (0.25, 0.5, 0.75):
            for M in (0.1, 1.0, 10.0):
                bound = 1.0 + (M / sigma) * math.log1p(k * sigma / M)
                assert h_precision(k, sigma, M) <= bound + 1e-12


def test_h_precision_domain():
    with pytest.raises(ValueError):
        h_precision(3, 1.5, 1.0)
    with pytest.raises(ValueError):
        h_precision(0, 0.5, 1.0)
    with pytest.raises(ValueError):
        h_precision(3, 0.5, -1.0)


def test_sigma_to_one_with_tie():
    st = from_observations(["a", "a", "b"])
    values = [log_eppf(st, s, 1.0)
              for s in (0.9, 0.99, 0.999, 1.0 - 1e-9)]
    assert all(b < a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# The closed form over block-size counts against the direct sums over l and
# the occupancy counts Z it replaced.

def _occupancy(st):
    """Z_l = #{j : N_j >= l}, l = 1..max(N), from the block sizes N."""
    return np.cumsum(np.bincount(st.N)[::-1])[::-1][1:]


def _direct_sums(st, sigma, M):
    """(log_eppf, score, hessian) as direct sums over l < K and Z."""
    Z = _occupancy(st)
    l_new = np.arange(1, st.K, dtype=float)
    l_old = np.arange(1, Z.size, dtype=float)
    z = Z[1:].astype(float)
    new = l_new / (M + l_new * sigma)
    lam = (np.sum(np.log(M + l_new * sigma)) + np.sum(z * np.log(l_old - sigma))
           - np.sum(np.log(M + np.arange(1, st.n, dtype=float))))
    score = np.sum(new) - np.sum(z / (l_old - sigma))
    hess = -np.sum(new ** 2) - np.sum(z / (l_old - sigma) ** 2)
    return float(lam), float(score), float(hess)


def _lam_scale(st, M):
    """1 + lnGamma(M + n) - lnGamma(M + 1): the size of the log-EPPF's
    largest term, against which its rounding error is measured."""
    return 1.0 + float(special.gammaln(M + st.n) - special.gammaln(M + 1.0))


def _derivative_scale(st, sigma, M, power):
    """1 + the sum of |terms| of the direct score (power 1) or Hessian
    (power 2)."""
    Z = _occupancy(st)
    l_new = np.arange(1, st.K, dtype=float)
    l_old = np.arange(1, Z.size, dtype=float)
    return 1.0 + float(np.sum((l_new / (M + l_new * sigma)) ** power)
                       + np.sum(Z[1:] / (l_old - sigma) ** power))


def _assert_kernel_matches(st, sigma, M):
    lam, score, hess = _direct_sums(st, sigma, M)
    tol = 1e-12 * _lam_scale(st, M)
    assert abs(log_eppf(st, sigma, M) - lam) <= tol
    assert abs(log_eppf_grid(st, np.array([sigma]), M)[0] - lam) <= tol
    assert abs(score_sigma(st, sigma, M) - score) \
        <= 1e-12 * _derivative_scale(st, sigma, M, 1)
    assert abs(hess_sigma(st, sigma, M) - hess) \
        <= 1e-12 * _derivative_scale(st, sigma, M, 2)


_PROPERTY = settings(derandomize=True, deadline=None, database=None,
                     max_examples=60)
_SIZES = hst.lists(hst.integers(1, 3000), min_size=1, max_size=300)
_SIGMA = hst.floats(SIGMA_EPS, 1.0 - SIGMA_EPS)
_M = hst.floats(0.0, 50.0)


@_PROPERTY
@given(sizes=_SIZES, sigma=_SIGMA, M=_M)
@example(sizes=[1], sigma=0.5, M=1.0)
@example(sizes=[1] * 300, sigma=SIGMA_EPS, M=0.0)
@example(sizes=[3000, 1], sigma=1.0 - SIGMA_EPS, M=50.0)
def test_kernel_matches_direct_sums(sizes, sigma, M):
    _assert_kernel_matches(from_sizes(sizes), sigma, M)


@_PROPERTY
@given(sizes=_SIZES, sigmas=hst.lists(_SIGMA, min_size=1, max_size=20),
       Ms=hst.lists(_M, min_size=1, max_size=8))
def test_grid_matches_direct_sums(sizes, sigmas, Ms):
    st = from_sizes(sizes)
    sigmas = np.array(sigmas)
    grid = log_eppf_grid(st, sigmas, np.array(Ms))
    assert grid.shape == (sigmas.size, len(Ms))
    for j, M in enumerate(Ms):
        at_M = log_eppf_grid(st, sigmas, M)
        assert at_M.shape == sigmas.shape
        tol = 1e-12 * _lam_scale(st, M)
        for i, sigma in enumerate(sigmas):
            lam = _direct_sums(st, float(sigma), M)[0]
            assert abs(grid[i, j] - lam) <= tol
            assert abs(at_M[i] - lam) <= tol


@pytest.mark.parametrize("sizes", [
    [7],         # K = 1
    [1] * 2000,  # all singletons
    [10 ** 6],   # a single block of size 1e6
])
@pytest.mark.parametrize("sigma", [SIGMA_EPS, 0.5, 1.0 - SIGMA_EPS])
@pytest.mark.parametrize("M", [0.0, 1.0, 50.0])
def test_kernel_edge_cases(sizes, sigma, M):
    _assert_kernel_matches(from_sizes(sizes), sigma, M)


def test_log_eppf_negative_M_raises():
    st = from_sizes([2, 1])
    with pytest.raises(ValueError):
        log_eppf(st, 0.5, -1.0)
    with pytest.raises(ValueError):
        log_eppf_grid(st, np.array([0.5]), np.array([1.0, -1.0]))

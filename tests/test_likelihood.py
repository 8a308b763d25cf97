import hashlib
import json
import math
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy import special

from pitmanyor import numerics
from pitmanyor.estimators import mle_sigma
from pitmanyor.likelihood import (SIGMA_EPS, eppf_total_mass, h_precision,
                                  hess_sigma, log_eppf, log_eppf_grid,
                                  m_derivatives, score_sigma)
from pitmanyor.numerics import new_block_sums
from pitmanyor.partition import from_observations, from_sizes
from pitmanyor.sampler import RngStream, sample_py_partition

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


def test_m_derivatives_match_finite_differences():
    # d/dM and d2/(d sigma dM) against central differences of log_eppf and
    # score_sigma in M, d2/dM2 against those of d/dM, as criterion 04 checks
    # the sigma derivatives
    # log_eppf is about -4e3 at n = 2000, so its difference takes a wider
    # step: at 1e-6 rounding alone moves the quotient by about 1e-6
    h, h_eppf = 1e-6, 1e-4
    for st in (from_sizes([6, 3, 3, 2, 1, 1, 1]),
               sample_py_partition(0.5, 1.0, 2000, RngStream(42))):
        for sigma, M in product((0.2, 0.5, 0.8), (0.5, 1.0, 5.0)):
            d_M, d_MM, d_sM = m_derivatives(st, sigma, M)
            assert d_M == pytest.approx(
                (log_eppf(st, sigma, M + h_eppf)
                 - log_eppf(st, sigma, M - h_eppf)) / (2 * h_eppf),
                rel=1e-5, abs=1e-7)
            assert d_MM == pytest.approx(
                (m_derivatives(st, sigma, M + h)[0]
                 - m_derivatives(st, sigma, M - h)[0]) / (2 * h), rel=1e-4)
            assert d_sM == pytest.approx(
                (score_sigma(st, sigma, M + h) - score_sigma(st, sigma, M - h))
                / (2 * h), rel=1e-4)


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


def _m_direct(st, sigma, M):
    """m_derivatives as direct sums over l < K and i < n, each with the sum
    of the absolute values of its terms."""
    inv = 1.0 / (M + np.arange(1, st.K, dtype=float) * sigma)
    inv_i = 1.0 / (M + np.arange(1, st.n, dtype=float))
    l_new = np.arange(1, st.K, dtype=float)
    d1 = (np.sum(inv) - np.sum(inv_i), np.sum(inv) + np.sum(inv_i))
    d2 = (np.sum(inv_i ** 2) - np.sum(inv ** 2),
          np.sum(inv_i ** 2) + np.sum(inv ** 2))
    cross = (-np.sum(l_new * inv ** 2), np.sum(l_new * inv ** 2))
    return d1, d2, cross


def _assert_kernel_matches(st, sigma, M):
    for got, (ref, scale) in zip(m_derivatives(st, sigma, M),
                                 _m_direct(st, sigma, M)):
        assert abs(got - ref) <= 1e-12 * (1.0 + scale)
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
    [2, 1] * 10 ** 4,  # K = 2e4: a float pair takes the closed forms
])
@pytest.mark.parametrize("sigma", [SIGMA_EPS, 0.5, 1.0 - SIGMA_EPS])
@pytest.mark.parametrize("M", [0.0, 1.0, 50.0])
def test_kernel_edge_cases(sizes, sigma, M):
    _assert_kernel_matches(from_sizes(sizes), sigma, M)


# ---------------------------------------------------------------------------
# The closed forms of the sums over the new-block factors M + l sigma against
# the direct sums they replace.

def _new_block_direct(K, sigma, M):
    """The terms of sum_{l<K} l^p/(M + l sigma)^q and of the log form
    sum_{l<K} ln(M + l sigma), keyed by (p, q) and "log"."""
    l = np.arange(1.0, K)
    inv = 1.0 / (M + l * sigma)
    return {(0, 1): inv, (0, 2): inv * inv, (1, 1): l * inv,
            (1, 2): l * inv * inv, (2, 2): (l * inv) ** 2,
            "log": np.log(M + l * sigma)}


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(K=hst.one_of(hst.integers(2, 100), hst.integers(2, 10 ** 6)),
       sigma=_SIGMA, M=hst.floats(0.0, 1e3))
@example(K=10 ** 6, sigma=SIGMA_EPS, M=1.0)
@example(K=10 ** 6, sigma=SIGMA_EPS, M=1e-6)
@example(K=1000, sigma=SIGMA_EPS, M=50.0)
@example(K=17, sigma=SIGMA_EPS, M=1e3)
@example(K=2, sigma=SIGMA_EPS, M=5.0)
@example(K=10 ** 6, sigma=1.0 - SIGMA_EPS, M=0.0)
def test_new_block_closed_forms_match_direct_sums(K, sigma, M):
    # at sigma = SIGMA_EPS with M > 0, a = M/sigma >> K: there the plain
    # digamma forms lose the digits of a/K.  With no call summed directly,
    # every K takes the closed forms past l = H; the log form always does.
    # The scale is the sum of |terms|, the sum itself for the power forms
    direct = _new_block_direct(K, sigma, M)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_DIRECT_TERMS", 0)
        closed = new_block_sums(K, np.array([sigma]), M, *direct)
    for terms, got in zip(direct.values(), closed):
        assert abs(got[0] - terms.sum()) <= 1e-12 * np.abs(terms).sum()


@pytest.mark.parametrize("sigma,M", [(0.5, 1.0), (SIGMA_EPS, 50.0),
                                     (1.0 - SIGMA_EPS, 0.0), (0.3, 1e3)])
def test_new_block_sums_agree_across_the_switch(sigma, M):
    # 2^14 terms are summed directly, 2^14 + 1 take the closed forms; the
    # two differ by the last term.  The log form takes its closed form at
    # both
    forms = [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2), "log"]
    K = numerics._DIRECT_TERMS + 1
    direct = new_block_sums(K, sigma, M, *forms)
    closed = new_block_sums(K + 1, sigma, M, *forms)
    for form, lo, hi in zip(forms, direct, closed):
        last = math.log(M + K * sigma) if form == "log" \
            else K ** form[0] / (M + K * sigma) ** form[1]
        assert abs(hi - (lo + last)) <= 1e-12 * abs(hi)


@pytest.mark.parametrize("n,M", [(2, 50.0), (3, 1e3), (10, 50.0), (200, 5.0),
                                 (10 ** 6, 0.4), (10 ** 7, 0.0)])
def test_m_derivatives_match_mpmath(n, M):
    # one block of size n: K = 1 leaves psi(M + 1) - psi(M + n) and
    # psi'(M + 1) - psi'(M + n), the new-block sums at sigma = 1
    d_M, d_MM, d_sM = m_derivatives(from_sizes([n]), 0.5, M)
    with mpmath.workdps(40):
        want = (mpmath.psi(0, M + 1) - mpmath.psi(0, M + n),
                mpmath.psi(1, M + 1) - mpmath.psi(1, M + n))
    for got, ref in zip((d_M, d_MM), want):
        assert abs(got - ref) <= 4.0 * 2.0 ** -52 * abs(ref)
    assert d_sM == 0.0


@pytest.mark.parametrize("sizes", [
    [1] * 2000,              # all singletons
    [50, 5, 2, 1] * 500,     # ties of four sizes
    list(range(1, 400)),     # one block of each size
])
def test_array_calls_match_float_calls(sizes):
    # 64 sigma nodes take the closed forms, one float pair the direct sums;
    # the log-EPPF takes one path, so the two calls agree bit for bit
    st = from_sizes(sizes)
    sigmas = np.linspace(SIGMA_EPS, 1.0 - SIGMA_EPS, 64)
    for M in (0.0, 1.0, 50.0):
        scores = score_sigma(st, sigmas, M)
        hessians = hess_sigma(st, sigmas, M)
        lams = log_eppf(st, sigmas, M)
        for i, sigma in enumerate(sigmas):
            sigma = float(sigma)
            assert abs(scores[i] - score_sigma(st, sigma, M)) \
                <= 1e-12 * _derivative_scale(st, sigma, M, 1)
            assert abs(hessians[i] - hess_sigma(st, sigma, M)) \
                <= 1e-12 * _derivative_scale(st, sigma, M, 2)
            assert lams[i] == log_eppf(st, sigma, M)


def _direct_path_values(st):
    """score_sigma and hess_sigma on a 4-node sigma array and on each of its
    float pairs, and h_precision(K, sigma, M), at M = 0, 1 and 50: every call
    sums at most 4 (K - 1) <= 2^14 new-block terms directly."""
    sigmas = np.array([SIGMA_EPS, 0.3, 0.5, 0.9])
    out = []
    for M in (0.0, 1.0, 50.0):
        out += score_sigma(st, sigmas, M).tolist()
        out += hess_sigma(st, sigmas, M).tolist()
        for sigma in sigmas.tolist():
            out += [score_sigma(st, sigma, M), hess_sigma(st, sigma, M),
                    h_precision(st.K, sigma, M)]
    return out


@pytest.mark.parametrize("sizes,digest", [
    ([1] * 2000,
     "c3273d4986f473c830fdbd852df885a54459c6477ed6177ac63b691d4465bbf6"),
    ([50, 5, 2, 1] * 500,
     "fa703b7d209c7b3e3616cf878b512ad9c5046e64c190d9467758c629bf396f80"),
    (list(range(1, 400)),
     "fcc4f4ad24c4ca7372aad86820279397e0e742206c78dcd1e35c717159ab8bfa"),
    (np.random.default_rng(7).zipf(2.0, 1400),  # K = 1,400 blocks
     "1dd9ed88c5fe6dc85c59c809b9fb63936ea23cfc8d185093501a83c553d36bb3"),
])
def test_direct_new_block_sums_frozen_bits(sizes, digest):
    # calls of at most 2^14 new-block terms sum them directly: their bits
    # are frozen
    values = _direct_path_values(from_sizes(sizes))
    text = json.dumps([float(v).hex() for v in values])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_log_eppf_negative_M_raises():
    st = from_sizes([2, 1])
    with pytest.raises(ValueError):
        log_eppf(st, 0.5, -1.0)
    with pytest.raises(ValueError):
        log_eppf_grid(st, np.array([0.5]), np.array([1.0, -1.0]))


def test_log_eppf_grid_errors_do_not_spread_across_nodes():
    # a Zipf(2) sample of 1e6 observations: the sigma-free terms of the
    # log-EPPF, of order 1e7, are added once per M after the per-node terms,
    # so each node's error against 40-digit mpmath is the rounding of its
    # own value (of order 1e6), and the errors spread by at most 2 ulp
    st = from_observations(np.random.default_rng(1).zipf(2.0, 10 ** 6))
    sigma_hat = mle_sigma(st, 1.0).sigma_hat
    nodes = sigma_hat + np.linspace(-0.05, 0.05, 41)
    got = log_eppf_grid(st, nodes, 1.0)
    errors = []
    with mpmath.workdps(40):
        sizes = [(mpmath.mpf(int(s)), int(c))
                 for s, c in zip(st.sizes, st.counts)]
        denominator = mpmath.loggamma(st.n + 1) - mpmath.loggamma(2)
        for sigma, value in zip(nodes.tolist(), got.tolist()):
            s = mpmath.mpf(sigma)
            a = 1 / s
            ref = (mpmath.fsum(c * mpmath.loggamma(size - s)
                               for size, c in sizes)
                   - st.K * mpmath.loggamma(1 - s)
                   + (st.K - 1) * mpmath.log(s) + mpmath.loggamma(a + st.K)
                   - mpmath.loggamma(a + 1) - denominator)
            errors.append(float(value - ref))
    ulp = float(np.spacing(np.abs(got)).max())
    assert max(errors) - min(errors) <= 2.0 * ulp

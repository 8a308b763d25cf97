"""Marginal likelihood surface of the two-parameter model.

Log-EPPF in closed form over block-size counts, elementwise over (sigma, M)
pairs or on a sigma x M grid, its derivatives (two in sigma, those in M
behind the profile slope), and the h correction term.  The sums over the
block sizes come from the statistic's `numerics.SizeSums`, built once per
statistic, after which they cost O(1) per sigma whatever the number of
distinct sizes.  The sums over the K - 1 new-block factors M + l sigma and
over the n - 1 factors M + i, of logs in the log-EPPF and of powers in its
derivatives, are `numerics.new_block_sums`, which chooses between summing
them directly and its closed forms.
"""

from __future__ import annotations

import numpy as np

from .numerics import new_block_sums

SIGMA_EPS = 1e-9


def _float_if_scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def log_eppf(stats, sigma, M):
    """Log marginal likelihood of the tie pattern under PY(sigma, M),
    elementwise over sigma and M (broadcast; a float pair gives a float):

    Lambda_n(sigma, M) = sum_{l=1}^{K-1} ln(M + l sigma)
                       + sum_{l=1}^{max(N)-1} Z_{l+1} ln(l - sigma)
                       - sum_{i=1}^{n-1} ln(M + i),

    with Z_l = #{j : N_j >= l} the number of blocks of size >= l, evaluated
    in the closed form of `log_eppf_grid`.  sigma outside
    [SIGMA_EPS, 1 - SIGMA_EPS] returns -inf (boundary clamp); sigma -> 1
    with a tie present also drives the value to -inf.
    """
    return _float_if_scalar(
        _log_eppf_kernel(stats, np.asarray(sigma, dtype=float), M))


def log_eppf_grid(stats, sigmas, M):
    """log_eppf on every (sigma, M) pair: shape sigmas.shape + shape(M).

    With c_s blocks of size s,

        Lambda = sum_s c_s [lnGamma(s - sigma) - lnGamma(1 - sigma)]
               + sum_{l<K} ln(M + l sigma) - sum_{i<n} ln(M + i).

    The size-count sum (`SizeSums.log_rising`) is computed once per sigma
    node, without its sigma-free constant; the sum over the new-block factors
    M + l sigma is the log form of `numerics.new_block_sums`, and the sum
    over i is its log form at sigma = 1 over n - 1 terms.  That sum and the
    size-count constant make C(M), formed once per M and added last, so each
    value is rounded once at its own size, not at the size of the constants
    (of order 1e7 at n = 1e6).  Cost O(nodes x M nodes) after the
    statistic's O(distinct sizes) set-up.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    M = np.asarray(M, dtype=float)
    return _log_eppf_kernel(
        stats, sigmas.reshape(sigmas.shape + (1,) * M.ndim), M)


def _log_eppf_kernel(stats, sigmas, M):
    """log_eppf over sigmas and M broadcast against each other, with the
    size-count sum computed once per entry of sigmas and C(M) once per entry
    of M."""
    M = np.asarray(M, dtype=float)
    if np.any(M < 0.0):
        raise ValueError("M must be nonnegative")
    ok = (sigmas >= SIGMA_EPS) & (sigmas <= 1.0 - SIGMA_EPS)
    s = np.where(ok, sigmas, 0.5)[()]  # 0.5 stands in where it is -inf
    size_sums = stats.size_sums
    (new_blocks,) = new_block_sums(stats.K, s, M, "log")
    (denominator,) = new_block_sums(stats.n, 1.0, M, "log")
    constant = size_sums.lr_constant - denominator
    head = size_sums.log_rising(s) + new_blocks
    return np.where(ok, head + constant, -np.inf)


def score_sigma(stats, sigma, M):
    """d/d sigma of log_eppf, elementwise over sigma and M (broadcast; a
    float pair gives a float):
    sum_{l<K} l/(M + l sigma) - sum_s c_s [psi(s - sigma) - psi(1 - sigma)],
    both sums at O(1) cost per element."""
    (new,) = new_block_sums(stats.K, sigma, M, (1, 1))
    return _float_if_scalar(new - stats.size_sums.g(sigma))


def hess_sigma(stats, sigma, M):
    """Second sigma-derivative, elementwise as `score_sigma`; strictly
    negative for n >= 2:
    -sum_{l<K} (l/(M + l sigma))^2
    - sum_s c_s [psi'(1 - sigma) - psi'(s - sigma)]."""
    (new,) = new_block_sums(stats.K, sigma, M, (2, 2))
    return _float_if_scalar(-new - stats.size_sums.gdot(sigma))


def m_derivatives(stats, sigma, M):
    """(d/dM, d2/dM2, d2/(d sigma dM)) of log_eppf at a float pair:
    sum_{l<K} 1/(M + l sigma) - sum_{i<n} 1/(M + i),
    sum_{i<n} 1/(M + i)^2 - sum_{l<K} 1/(M + l sigma)^2,
    -sum_{l<K} l/(M + l sigma)^2;
    the sums over i, psi(M + n) - psi(M + 1) and psi'(M + 1) - psi'(M + n),
    are the new-block sums at sigma = 1 over n - 1 terms."""
    inv, inv2, cross = new_block_sums(
        stats.K, sigma, M, (0, 1), (0, 2), (1, 2))
    inv_i, inv2_i = new_block_sums(stats.n, 1.0, M, (0, 1), (0, 2))
    return float(inv - inv_i), float(inv2_i - inv2), -float(cross)


def eppf_total_mass(n, sigma, M):
    """Sum of exp(log_eppf) over all set partitions of {1..n} (must be 1).

    Enumerates integer partitions of n; each block-size multiset lambda
    corresponds to n! / (prod_j N_j! * prod_m mult_m!) set partitions.
    """
    from math import factorial

    from .partition import from_sizes

    if n < 1:
        raise ValueError("n must be positive")
    total = 0.0
    for sizes in _integer_partitions(n):
        count = factorial(n)
        mult = {}
        for s in sizes:
            count //= factorial(s)
            mult[s] = mult.get(s, 0) + 1
        for m in mult.values():
            count //= factorial(m)
        total += count * np.exp(log_eppf(from_sizes(sizes), sigma, M))
    return total


def _integer_partitions(n, cap=None):
    """Yield integer partitions of n as nonincreasing tuples."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _integer_partitions(n - first, first):
            yield (first,) + rest


def h_precision(k, sigma, M):
    """h_{sigma,M}(k) = 1 + sum_{l=1}^{k-1} M/(M + l sigma)."""
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    if M < 0.0:
        raise ValueError("M must be nonnegative")
    k = int(k)
    if k < 1:
        raise ValueError("k must be positive")
    if M == 0.0 or k == 1:
        return 1.0
    return 1.0 + M * float(new_block_sums(k, sigma, M, (0, 1))[0])

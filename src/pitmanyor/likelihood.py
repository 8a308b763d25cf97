"""Marginal likelihood surface of the two-parameter model.

Log-EPPF in closed form over block-size counts, vectorized over a sigma x M
grid, its derivatives (two in sigma, those in M behind the profile slope),
and the h correction term.  The sums over the block sizes come from the
statistic's `numerics.SizeSums`, built once per statistic, after which they
cost O(1) per sigma whatever the number of distinct sizes.
"""

from __future__ import annotations

import numpy as np

from .numerics import digamma, log_ascending_factorial, trigamma

SIGMA_EPS = 1e-9


def log_eppf(stats, sigma, M):
    """Log marginal likelihood of the tie pattern under PY(sigma, M).

    Lambda_n(sigma, M) = sum_{l=1}^{K-1} ln(M + l sigma)
                       + sum_{l=1}^{max(N)-1} Z_{l+1} ln(l - sigma)
                       - sum_{i=1}^{n-1} ln(M + i),

    with Z_l = #{j : N_j >= l} the number of blocks of size >= l, evaluated
    in the closed form of `log_eppf_grid`.  sigma outside
    [SIGMA_EPS, 1 - SIGMA_EPS] returns -inf (boundary clamp); sigma -> 1
    with a tie present also drives the value to -inf.
    """
    return float(_log_eppf_kernel(stats, np.array([float(sigma)]), M)[0])


def log_eppf_grid(stats, sigmas, M):
    """log_eppf on every (sigma, M) pair: shape sigmas.shape + shape(M).

    With a = M/sigma and c_s blocks of size s,

        Lambda = sum_s c_s [lnGamma(s - sigma) - lnGamma(1 - sigma)]
               + (K - 1) ln sigma + ln (a + 1)^[K-1] - ln (M + 1)^[n-1],

    where x^[m] = x(x+1)...(x+m-1).  The size-count sum
    (`SizeSums.log_rising`) and ln sigma are computed once per sigma node;
    only the two rising factorials span the sigma x M grid.  Cost
    O(nodes x M nodes) after the statistic's O(distinct sizes) set-up.
    """
    return _log_eppf_kernel(stats, np.asarray(sigmas, dtype=float), M)


def _log_eppf_kernel(stats, sigmas, M):
    M = np.asarray(M, dtype=float)
    if np.any(M < 0.0):
        raise ValueError("M must be nonnegative")
    out = np.full(sigmas.shape + M.shape, -np.inf)
    ok = (sigmas >= SIGMA_EPS) & (sigmas <= 1.0 - SIGMA_EPS)
    if not np.any(ok):
        return out
    s = sigmas[ok]
    k1 = stats.K - 1
    head = stats.size_sums.log_rising(s) + k1 * np.log(s)
    s_col = s.reshape(s.shape + (1,) * M.ndim)
    # ln (M/sigma + 1)^[K-1] and ln (M + 1)^[n-1] from one call
    a = M / s_col + 1.0
    rising = log_ascending_factorial(
        np.append(a, M + 1.0), np.repeat([k1, stats.n - 1], [a.size, M.size]))
    new_blocks = rising[:a.size].reshape(a.shape)
    denominator = rising[a.size:].reshape(M.shape)
    out[ok] = head.reshape(s_col.shape) + new_blocks - denominator
    return out


def score_sigma(stats, sigma, M):
    """d/d sigma of log_eppf:
    sum_{l<K} l/(M + l sigma) - sum_s c_s [psi(s - sigma) - psi(1 - sigma)].

    The first sum stays a direct O(K) sum: its digamma form cancels
    catastrophically at sigma = SIGMA_EPS."""
    sigma, M = float(sigma), float(M)
    l_new = np.arange(1, stats.K, dtype=float)
    return float(np.sum(l_new / (M + l_new * sigma))) \
        - stats.size_sums.g(sigma)


def hess_sigma(stats, sigma, M):
    """Second sigma-derivative; strictly negative for n >= 2:
    -sum_{l<K} (l/(M + l sigma))^2
    - sum_s c_s [psi'(1 - sigma) - psi'(s - sigma)]."""
    sigma, M = float(sigma), float(M)
    l_new = np.arange(1, stats.K, dtype=float)
    return -float(np.sum((l_new / (M + l_new * sigma)) ** 2)) \
        - stats.size_sums.gdot(sigma)


def m_derivatives(stats, sigma, M):
    """(d/dM, d2/dM2, d2/(d sigma dM)) of log_eppf:
    sum_{l<K} 1/(M + l sigma) - psi(M + n) + psi(M + 1),
    psi'(M + 1) - psi'(M + n) - sum_{l<K} 1/(M + l sigma)^2,
    -sum_{l<K} l/(M + l sigma)^2."""
    l_new = np.arange(1, stats.K, dtype=float)
    inv = 1.0 / (M + l_new * sigma)
    d1, dn = digamma(M + 1.0), digamma(M + stats.n)
    t1, tn = trigamma(M + 1.0), trigamma(M + stats.n)
    return (float(np.sum(inv) - (dn - d1)), float(t1 - tn - inv @ inv),
            -float(l_new @ (inv * inv)))


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
    l = np.arange(1, k, dtype=float)
    return 1.0 + float(np.sum(M / (M + l * sigma)))

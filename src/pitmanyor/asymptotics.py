"""Limit theory as computable objects, and the occupancy engine under it.

Centering function E0n and its root sigma0n, the limiting function E0 and its
negated slope tau2_sq, the sandwich numerator tau1_sq, and the precision-limit
pair (K0, M0).  Two routines carry every occupancy quantity:

- `stirling_zeta_series`: the limit series sum_m Gamma(m+1-gamma)/m! h(m)
  behind E0, tau1, tau2 and the occupancy-lemma limits.  Its slow tails
  (terms ~ m^{-1-gamma} log^k m) are truncated with analytic Hurwitz-zeta
  corrections rather than summed by brute force.
- `poisson_g_moments`: per-atom Poisson expectations of g_sigma and its
  powers and sigma-derivative, summed over `Population.intensities` by E0n
  and by the occupancy-lemma left-hand sides.  The atoms folded into power
  sums enter through `tail_pmf`, their third-order count probabilities.

The roots sigma0n and M0 both come from `numerics.newton_root`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np
from scipy import special

from .numerics import g_sigma_values, log_gamma, newton_root

# ---------------------------------------------------------------------------
# Stirling-ratio series with Hurwitz-zeta tails

_ZETA_STEP = 1e-5  # step in s of the first difference; x10 for the second
_SERIES_HEAD = (100_000, 1_000_000, 1_000_000)  # terms summed, by g-power k


def _zeta_log(s, a, k):
    """sum_{m >= a} m^{-s} log^k m = (-d/ds)^k zeta(s, a), k <= 2, the
    derivatives by central differences."""
    if k == 0:
        return float(special.zeta(s, a))
    h = _ZETA_STEP if k == 1 else 10.0 * _ZETA_STEP
    lo, hi = special.zeta(s - h, a), special.zeta(s + h, a)
    if k == 1:
        return float((lo - hi) / (2.0 * h))
    return float((lo - 2.0 * special.zeta(s, a) + hi) / h ** 2)


def stirling_zeta_series(gamma, sigma, p, k):
    """sum_{m >= 1} Gamma(m+1-gamma)/(m! (m-sigma)^p) G_k(m), k <= 2, with
    G_0 = 1, G_1 = g(m+1) + g(m), G_2 = g(m+1)^2 + g(m+1) g(m) + g(m)^2 and
    g = g_gamma.

    The head is summed directly; the tail uses
    Gamma(m+1-gamma)/m! = m^{-gamma}(1 - gamma(1-gamma)/(2m) + O(m^-2)).
    For k = 0 it keeps that second order,
    m^{-p-gamma}(1 + (p sigma - gamma(1-gamma)/2)/m), accurate to
    ~m_star^{-1-p-gamma}; for k >= 1 it keeps the leading
    G_k ~ (k+1)(log m - psi(1-gamma))^k, a log-zeta sum.
    """
    m_star = _SERIES_HEAD[k]
    m = np.arange(1, m_star + 1, dtype=float)
    # built in place: at m_star = 1e6 each temporary costs 8 MB
    terms = special.gammaln(m + 1.0 - gamma)
    terms -= special.gammaln(m + 1.0)
    np.exp(terms, out=terms)
    terms /= (m - sigma) ** p
    del m
    if k:
        g = g_sigma_values(np.arange(1, m_star + 2), gamma)
        g0, g1 = g[:-1], g[1:]  # g(m), g(m+1)
        terms *= g1 + g0 if k == 1 else g1 ** 2 + g1 * g0 + g0 ** 2
    head = float(np.sum(terms))
    a, s = m_star + 1, p + gamma
    if k == 0:
        second = p * sigma - gamma * (1.0 - gamma) / 2.0
        return head + _zeta_log(s, a, 0) + second * _zeta_log(s + 1.0, a, 0)
    B = -float(special.digamma(1.0 - gamma))
    return head + (k + 1) * sum(
        math.comb(k, j) * B ** (k - j) * _zeta_log(s, a, j)
        for j in range(k + 1))


# ---------------------------------------------------------------------------
# limiting function E0 and tau2


def E0_series(sigma, sigma0):
    """E0(sigma) = Gamma(1-sigma0)/sigma
    - sum_m Gamma(m+1-sigma0)/(m!(m-sigma))."""
    if not 0.0 < sigma < 1.0 or not 0.0 < sigma0 < 1.0:
        raise ValueError("sigma and sigma0 must lie in (0, 1)")
    return math.exp(log_gamma(1.0 - sigma0)) / sigma \
        - stirling_zeta_series(sigma0, sigma, 1, 0)


def gamma_ratio_sum(gamma):
    """sum_m Gamma(m-gamma)/m!  (equals Gamma(1-gamma)/gamma)."""
    return stirling_zeta_series(gamma, gamma, 1, 0)


@lru_cache(maxsize=256)
def tau2_sq(sigma0):
    """-E0'(sigma0) = Gamma(1-sigma0)/sigma0^2
    + sum_m Gamma(m+1-sigma0)/(m!(m-sigma0)^2)."""
    if not 0.0 < sigma0 < 1.0:
        raise ValueError("sigma0 must lie in (0, 1)")
    out = math.exp(log_gamma(1.0 - sigma0)) / sigma0 ** 2 \
        + stirling_zeta_series(sigma0, sigma0, 2, 0)
    if out <= 0.0:
        raise ArithmeticError("tau2_sq must be positive")
    return out


# ---------------------------------------------------------------------------
# tau1 (sandwich numerator)

_DIAGONALS = 10_000  # diagonals of the tau1 double series summed directly
_FIT_DECADE = 10.0  # its tail is fitted on the last 1/_FIT_DECADE of them


def _tau1_component4(sigma0):
    """sum_{m=2}^{400} g(m) Gamma(m-sigma0)/(m! 2^{m-sigma0-1}); the terms
    decay geometrically."""
    m = np.arange(2, 401, dtype=float)
    logs = special.gammaln(m - sigma0) - special.gammaln(m + 1.0) \
        - (m - sigma0 - 1.0) * math.log(2.0)
    g = g_sigma_values(np.arange(2, 401), sigma0)
    return float(np.sum(np.exp(logs) * g))


def _tau1_component3(sigma0):
    """Double series sum_{k>=2} sum_{m>=1} g(k) Gamma(k+m+1-sigma0)
    / (k! m! 2^{k+m-sigma0} (m-sigma0)), summed along diagonals N = k+m.

    On diagonal N the weights are binomial(N, k)/2^N up to a factor in N, so
    only k in N/2 +- (5 sqrt(N) + 10) is summed (the rest is below 1e-20 of
    the diagonal); one vectorized pass per offset from N/2 covers all
    diagonals.  Diagonal sums decay like (a + b log N) N^{-1-sigma0}; a and b
    are fitted on the last decade of computed diagonals and the tail beyond
    them is integrated analytically via Hurwitz zeta values.
    """
    lg = special.gammaln(np.arange(1, _DIAGONALS + 2, dtype=float))  # ln(i!)
    g = g_sigma_values(np.arange(0, _DIAGONALS + 1), sigma0)
    N = np.arange(3, _DIAGONALS + 1)
    log_pref = special.gammaln(N + 1.0 - sigma0) - (N - sigma0) * math.log(2.0)
    half = N // 2
    width = (5.0 * np.sqrt(N) + 10.0).astype(np.int64)
    diag = np.zeros(N.size)
    for d in range(-int(width[-1]), int(width[-1]) + 1):
        k = half + d
        ok = (abs(d) <= width) & (k >= 2) & (k <= N - 1)
        k = np.where(ok, k, 2)
        m = N - k
        terms = np.exp(log_pref - lg[k] - lg[m]) * g[k] / (m - sigma0)
        diag += np.where(ok, terms, 0.0)
    total = float(np.sum(diag))
    # tail fit on the last decade: d_N * N^{1+sigma0} ~ a + b log N
    fit = N >= int(_DIAGONALS / _FIT_DECADE)
    N_fit = N[fit].astype(float)
    y = diag[fit] * N_fit ** (1.0 + sigma0)
    X = np.column_stack([np.ones_like(N_fit), np.log(N_fit)])
    (a_fit, b_fit), *_ = np.linalg.lstsq(X, y, rcond=None)
    start = _DIAGONALS + 1
    tail = a_fit * _zeta_log(1.0 + sigma0, start, 0) \
        + b_fit * _zeta_log(1.0 + sigma0, start, 1)
    return total + tail


@lru_cache(maxsize=64)
def tau1_sq(sigma0):
    """Limit variance of the normalized score (sandwich numerator)."""
    if not 0.0 < sigma0 < 1.0:
        raise ValueError("sigma0 must lie in (0, 1)")
    c1 = (2.0 ** sigma0 - 1.0) * math.exp(log_gamma(1.0 - sigma0)) \
        / sigma0 ** 2
    c2 = stirling_zeta_series(sigma0, sigma0, 1, 1)
    out = c1 + c2 - _tau1_component3(sigma0) - _tau1_component4(sigma0)
    if out <= 0.0:
        raise ArithmeticError(
            f"tau1_sq came out nonpositive ({out}); series bug")
    return out


# ---------------------------------------------------------------------------
# Poisson occupancy kernel

# (largest intensity, last count summed) per tier of the pmf recursion; the
# Poisson mass past each last count is below 1e-25 for the whole tier
_TIERS = ((1e-3, 7), (1e-2, 9), (1e-1, 13), (0.5, 19), (2.0, 31), (8.0, 56),
          (30.0, 112))
_BATCH = 1 << 20  # (atom, count) cells evaluated per batch


def _g_rows(m, sigma):
    """g, g^2, g^3 and gdot = dg/dsigma = sum_{l<m} (l-sigma)^-2 at m."""
    g = g_sigma_values(m, sigma)
    gdot = np.where(m >= 2, special.polygamma(1, 1.0 - sigma)
                    - special.polygamma(1, np.maximum(m, 2) - sigma), 0.0)
    return np.stack([g, g * g, g * g * g, gdot])


def poisson_g_moments(lam, sigma):
    """Rows E g(X), E g(X)^2, E g(X)^3 and E gdot(X) for X ~ Poisson(lam),
    one column per intensity (g = g_sigma).

    Intensities up to 30 use the pmf recursion p_m = p_{m-1} lam/m from
    p_2 = e^-lam lam^2/2, truncated per tier.  Larger ones sum the pmf over the
    window lam +- (12 sqrt(lam) + 10), normalized over that window, so the
    rounding of ln p_m (absolute ~1e-16 lam ln lam) cancels in the ratio;
    g and gdot are advanced across the window by their increments
    1/(m-1-sigma) and its square from their values at its first count.
    """
    lam = np.asarray(lam, dtype=float)
    out = np.empty((4, lam.size))
    tier = np.searchsorted([b for b, _ in _TIERS], lam)
    for t, (_, m_max) in enumerate(_TIERS):
        idx = np.flatnonzero(tier == t)
        if not idx.size:
            continue
        m = np.arange(2, m_max + 1)  # g = gdot = 0 at counts 0 and 1
        rows = _g_rows(m, sigma)
        for part in np.array_split(idx, -(-idx.size * m.size // _BATCH)):
            l = lam[part]
            pmf = np.empty((m.size, part.size))
            pmf[0] = np.exp(-l) * l * l / 2.0
            for i in range(1, m.size):
                np.multiply(pmf[i - 1], l / m[i], out=pmf[i])
            out[:, part] = rows @ pmf
    idx = np.flatnonzero(tier == len(_TIERS))
    big = lam[idx]
    half = np.ceil(12.0 * np.sqrt(big) + 10.0)
    lo = np.maximum(np.floor(big) - half, 0.0).astype(np.int64)
    lens = (np.floor(big) + half).astype(np.int64) - lo + 1
    batch = np.cumsum(lens) // _BATCH
    for b in np.unique(batch):
        sel = batch == b
        l, n_m, first = big[sel], lens[sel], _g_rows(lo[sel], sigma)
        starts = np.cumsum(n_m) - n_m
        atom = np.repeat(np.arange(l.size), n_m)
        m = np.arange(atom.size) - starts[atom] + lo[sel][atom]
        logp = special.xlogy(m, l[atom]) - special.gammaln(m + 1.0)
        w = np.exp(logp - np.maximum.reduceat(logp, starts)[atom])
        inc = np.where(m >= 2, 1.0 / (m - 1.0 - sigma), 0.0)
        inc[starts] = 0.0
        c1, c2 = np.cumsum(inc), np.cumsum(inc * inc)
        g = first[0][atom] + (c1 - c1[starts][atom])
        gdot = first[3][atom] + (c2 - c2[starts][atom])
        out[:, idx[sel]] = np.add.reduceat(
            w * np.stack([g, g * g, g * g * g, gdot]), starts, axis=1) \
            / np.add.reduceat(w, starts)
    return out


def tail_pmf(tails):
    """sum_j P(X_j = m), m = 1, 2, 3, for X_j ~ Poisson(lam_j) over atoms
    known only through their power sums (t1, t2, t3), to third order in lam:
    P(X = 1) = lam - lam^2 + lam^3/2, P(X = 2) = lam^2/2 - lam^3/2,
    P(X = 3) = lam^3/6."""
    t1, t2, t3 = tails
    return np.array([t1 - t2 + t3 / 2.0, t2 / 2.0 - t3 / 2.0, t3 / 6.0])


def tail_g_moments(tails, sigma):
    """The four rows of `poisson_g_moments` summed over the atoms of
    `tail_pmf`."""
    return _g_rows(np.arange(1, 4), sigma) @ tail_pmf(tails)


# ---------------------------------------------------------------------------
# finite-n centering function E0n and its root


class E0nEvaluator:
    """E0n(sigma) = sum_j [(1 - e^{-n p_j})/sigma - E g_sigma(Poisson(n p_j))].

    This is the exact atom-by-atom form of the integral
    int_0^n alpha0(n/s) e^{-s} (1/sigma - sum_m s^m/(m!(m-sigma))) ds:
    integrating the counting-function step heights term by term reproduces
    the sum above.  The evaluator holds the atom intensities, so one root
    search computes them once.
    """

    def __init__(self, pop, n):
        self.n = int(n)
        self.lam, self.tails = pop.intensities(self.n)
        self.occupied = float(np.sum(-np.expm1(-self.lam))) \
            + float(np.sum(tail_pmf(self.tails)))

    def _sweep(self, sigma):
        """(E0n, dE0n/dsigma) from one pass of the Poisson kernel."""
        if not 0.0 < sigma < 1.0:
            raise ValueError("sigma must lie in (0, 1)")
        eg, _, _, egdot = poisson_g_moments(self.lam, sigma).sum(axis=1) \
            + tail_g_moments(self.tails, sigma)
        return (self.occupied / sigma - float(eg),
                -self.occupied / sigma ** 2 - float(egdot))

    def value(self, sigma):
        return self._sweep(sigma)[0]

    def value_and_derivative(self, sigma):
        """Both from one sweep over the atoms (for Newton root finding)."""
        return self._sweep(sigma)


def E0n(pop, n, sigma):
    """The finite-n centering function of Eq.-(4) type, exact atom sum."""
    return E0nEvaluator(pop, n).value(sigma)


_ROOT_BRACKET = (0.01, 0.99)  # where sigma0n is sought
_ROOT_TOL = 1e-8
_ROOT_MAX_ITER = 80


def sigma0n_root(pop, n):
    """The unique zero of sigma -> E0n(pop, n, sigma) (strictly decreasing),
    by `newton_root` with the analytic derivative."""
    if n < 2:
        raise ValueError("n must be at least 2")
    ev = E0nEvaluator(pop, n)
    lo, hi = _ROOT_BRACKET
    f_lo, f_hi = ev.value(lo), ev.value(hi)
    if not (f_lo > 0.0 > f_hi):
        raise ValueError(
            f"root not bracketed on [{lo}, {hi}]: "
            f"E0n({lo})={f_lo:.3g}, E0n({hi})={f_hi:.3g}")
    root, _, converged = newton_root(
        ev.value_and_derivative, lo, hi, _ROOT_TOL, _ROOT_MAX_ITER)
    if not converged:
        raise RuntimeError("sigma0n root iteration failed to converge")
    return float(root)


# ---------------------------------------------------------------------------
# precision limit (K0, M0)

_M0_TOL = 1e-10


def precision_limit(sigma0, rv, M_max):
    """(K0, M0) for a population with regular-variation descriptor rv.

    K0 is classified symbolically from the L0 family: for L0 constant the
    derivative term vanishes and K0 = ln L0; for L0 = const (log u)^r the
    ln L0 term diverges to sign(r) * infinity while the derivative term stays
    bounded, so K0 = +inf for r > 0 and -inf for r < 0.  K0 = +inf forces the
    maximizer to M_max and K0 = -inf forces it to 0.  Finite K0 maximizes
    the concave f(M) = M c + ln Gamma(1+M) - ln Gamma(1+M/sigma0), with
    c = (K0 + ln Gamma(1-sigma0))/sigma0, on [0, M_max]: M0 is the root of
    the decreasing slope f', or the end where f' has no sign change.
    """
    if M_max <= 0.0:
        raise ValueError("M_max must be positive")
    r = rv.log_power_r
    if r > 0.0:
        return math.inf, M_max
    if r < 0.0:
        return -math.inf, 0.0
    K0 = math.log(rv.L0_const)
    c = (K0 + log_gamma(1.0 - sigma0)) / sigma0

    def slope(M):  # (f'(M), f''(M))
        x = np.array([1.0 + M, 1.0 + M / sigma0])
        (d0, d1), (t0, t1) = special.digamma(x), special.polygamma(1, x)
        return c + d0 - d1 / sigma0, t0 - t1 / sigma0 ** 2

    if slope(0.0)[0] <= 0.0:
        return K0, 0.0
    if slope(M_max)[0] >= 0.0:
        return K0, M_max
    M0, _, converged = newton_root(slope, 0.0, M_max, _M0_TOL, _ROOT_MAX_ITER)
    if not converged:
        raise RuntimeError("precision limit iteration failed to converge")
    return K0, float(M0)


# ---------------------------------------------------------------------------
# bundled constants


@dataclass(frozen=True)
class AsymptoticConstants:
    sigma0: float
    sigma0n: float
    alpha_n: float
    tau1_sq: float
    tau2_sq: float
    c0: float
    K0: float  # may be +-inf
    M0: float

    def sandwich_var(self):
        """Limit variance of sqrt(alpha0(n)) (sigma_hat - sigma0n)."""
        return self.tau1_sq / self.tau2_sq ** 2

    def to_dict(self):
        return asdict(self)


def compute_constants(pop, n, M_max=50.0):
    """All limit quantities for one population and sample size."""
    if pop.rv is None:
        raise ValueError("population has no regular-variation descriptor")
    s0 = pop.rv.sigma0
    t2 = tau2_sq(s0)
    t1 = tau1_sq(s0)
    c0 = math.exp(log_gamma(1.0 - s0)) * (1.0 + s0) / (s0 * t2)
    K0, M0 = precision_limit(s0, pop.rv, M_max)
    return AsymptoticConstants(
        sigma0=s0, sigma0n=sigma0n_root(pop, n), alpha_n=float(pop.alpha0(n)),
        tau1_sq=t1, tau2_sq=t2, c0=c0, K0=K0, M0=M0)

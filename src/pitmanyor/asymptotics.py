"""Limit theory as computable objects, and the occupancy engine under it.

Centering function E0n and its root sigma0n, the limiting function E0 and its
negated slope tau2_sq, the sandwich numerator tau1_sq, and the precision-limit
pair (K0, M0).  The occupancy quantities come from three places:

- closed forms: `E0_series`, `tau2_sq` and `stirling_series`, the sums
  sum_m Gamma(m+1-gamma)/(m! (m-sigma)^p) for p = 1, 2.
- `karlin_integrals`: every other limit, in the form of Karlin (1967) and
  Gnedin, Hansen & Pitman (2007): sum_j h(n p_j)/alpha0(n) ->
  gamma int_0^inf h(lam) lam^{-1-gamma} dlam for a per-atom Poisson
  expectation h.  One Gauss-Legendre rule in log lam takes every h from one
  `poisson_g_moments` call; past its last node each row's tail is
  integrated in closed form.  tau1_sq is built on it.
- `poisson_g_moments`: per-atom Poisson expectations of g_sigma and its
  powers and sigma-derivative.  `OccupancySums` sums them over every atom
  at a finite n, for E0n and for the occupancy-lemma left-hand sides: the
  alpha0(n) head atoms one by one, the atoms past them by a midpoint
  Euler-Maclaurin band on the family's atom law.

The roots sigma0n and M0 both come from `numerics.newton_root`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from functools import cache, lru_cache

import numpy as np

from .numerics import (digamma, g_sigma_values, gdot_sigma_values, gl_panels,
                       log_gamma, newton_root, rgamma, trigamma)

# ---------------------------------------------------------------------------
# closed forms: E0, tau2 and the Stirling-ratio series


def _check_unit(**values):
    for name, x in values.items():
        if not 0.0 < x < 1.0:
            raise ValueError(f"{name} must lie in (0, 1)")


def E0_series(sigma, sigma0):
    """E0(sigma) = Gamma(1-sigma0) Gamma(1-sigma) Gamma(sigma0)
    / (sigma Gamma(sigma0-sigma)), the limit of E0n/alpha0(n); exactly 0 at
    sigma0, where 1/Gamma(0) = 0."""
    _check_unit(sigma=sigma, sigma0=sigma0)
    G = math.gamma
    return G(1.0 - sigma0) * G(1.0 - sigma) * G(sigma0) \
        * rgamma(sigma0 - sigma) / sigma


def tau2_sq(sigma0):
    """-E0'(sigma0) = Gamma(1-sigma0)^2 Gamma(sigma0)/sigma0."""
    _check_unit(sigma0=sigma0)
    out = math.gamma(1.0 - sigma0) ** 2 * math.gamma(sigma0) / sigma0
    if not out > 0.0:
        raise ArithmeticError(f"tau2_sq came out nonpositive ({out})")
    return out


def stirling_series(gamma, sigma):
    """(S1, S2), S_p = sum_{m >= 1} Gamma(m+1-gamma)/(m! (m-sigma)^p):
    S1 = Gamma(1-gamma) [Gamma(-sigma) Gamma(gamma)/Gamma(gamma-sigma)
    + 1/sigma] and S2 = dS1/dsigma.  With x = gamma - sigma, the
    psi(x)/Gamma(x) of S2 is written (x psi(x+1) - 1)/Gamma(x+1), which is
    finite at x = 0."""
    _check_unit(gamma=gamma, sigma=sigma)
    x = gamma - sigma
    pre = math.gamma(1.0 - gamma)
    head = math.gamma(gamma) * math.gamma(-sigma)
    s1 = pre * (head * rgamma(x) + 1.0 / sigma)
    psi_over_gamma = (x * digamma(x + 1.0) - 1.0) * rgamma(x + 1.0)
    s2 = pre * (head * (psi_over_gamma - digamma(-sigma) * rgamma(x))
                - 1.0 / sigma ** 2)
    return s1, s2


# ---------------------------------------------------------------------------
# Karlin integrals and tau1

_KARLIN_LOG_LAM = (-30.0, math.log(1e4))  # the rule's range in log lam
_KARLIN_PANELS = 40  # Gauss-Legendre panels of 16 nodes
_KARLIN_ROWS = ("iii", "iv", "v", "vi", "vii", "viii", "var")


@cache
def _karlin_rule():
    """(log lam, weight) of the Karlin quadrature."""
    return gl_panels(*_KARLIN_LOG_LAM, _KARLIN_PANELS)


def karlin_integrals(gamma, sigma):
    """gamma int_0^inf h(lam) lam^{-1-gamma} dlam, the limit of
    sum_j h(n p_j)/alpha0(n) when alpha0 varies regularly with index gamma,
    for these rows h of g = g_sigma at X ~ Poisson(lam), keyed by the
    occupancy-lemma rows they serve: E g ("iii"), E gdot ("iv"),
    E g^2 ("v"), (E g)^2 ("vi"), e^-lam E g ("vii"), E g^3 ("viii") and
    Var g ("var").

    Gauss-Legendre in log lam covers [e^-30, 1e4], where every row is
    O(lam^2) at the left end.  Past 1e4 the rows follow from the large-lam
    Poisson moments of g, with L = log lam - psi(1-sigma):
    mean L - (1+sigma)/lam - (1+sigma)(2+sigma)/(2 lam^2),
    variance 1/lam + (2 sigma + 5/2)/lam^2, third cumulant -2/lam^2 and
    E gdot = psi'(1-sigma) - 1/lam - (sigma + 3/2)/lam^2, each to
    O(lam^-3 L^k), and their tails are integrated exactly.
    """
    _check_unit(gamma=gamma, sigma=sigma)
    t, w = _karlin_rule()
    lam = np.exp(t)
    eg, eg2, eg3, egdot = poisson_g_moments(lam, sigma)
    body = np.stack([eg, egdot, eg2, eg * eg, np.exp(-lam) * eg, eg3,
                     eg2 - eg * eg]) @ (w * np.exp(-gamma * t))
    cut = math.exp(_KARLIN_LOG_LAM[1])
    u0 = _KARLIN_LOG_LAM[1] - digamma(1.0 - sigma)

    def T(k, p):  # int_cut^inf L^k lam^{-1-s} dlam, s = gamma + p, by parts
        s = gamma + p
        return cut ** -s * sum(math.perm(k, j) * u0 ** (k - j) / s ** (j + 1)
                               for j in range(k + 1))

    a, b, c = 1.0 + sigma, (1.0 + sigma) * (2.0 + sigma) / 2.0, \
        2.0 * sigma + 2.5
    mean_sq = T(2, 0) - 2.0 * a * T(1, 1) + a * a * T(0, 2) \
        - 2.0 * b * T(1, 2)
    var = T(0, 1) + c * T(0, 2)
    tails = (
        T(1, 0) - a * T(0, 1) - b * T(0, 2),
        trigamma(1.0 - sigma) * T(0, 0) - T(0, 1)
        - (sigma + 1.5) * T(0, 2),
        mean_sq + var,
        mean_sq,
        0.0,
        T(3, 0) - 3.0 * a * T(2, 1) - 3.0 * b * T(2, 2) + 3.0 * T(1, 1)
        + (3.0 * a * a + 3.0 * c) * T(1, 2) - (3.0 * a + 2.0) * T(0, 2),
        var,
    )
    return {k: float(gamma * (v + tail))
            for k, v, tail in zip(_KARLIN_ROWS, body, tails)}


@lru_cache(maxsize=64)
def tau1_sq(sigma0):
    """Limit variance of the normalized score (sandwich numerator), the
    Poissonized per-atom score variance
    (2^sigma0 - 1) Gamma(1-sigma0)/sigma0^2
    + sigma0 int [Var g(X) - (2/sigma0) e^-lam E g(X)] lam^{-1-sigma0} dlam
    with g = g_sigma0 and X ~ Poisson(lam)."""
    _check_unit(sigma0=sigma0)
    rows = karlin_integrals(sigma0, sigma0)
    out = math.expm1(sigma0 * math.log(2.0)) * math.gamma(1.0 - sigma0) \
        / sigma0 ** 2 + rows["var"] - 2.0 * rows["vii"] / sigma0
    if not out > 0.0:
        raise ArithmeticError(f"tau1_sq came out nonpositive ({out})")
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
    return np.stack([g, g * g, g * g * g, gdot_sigma_values(m, sigma)])


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
        logp = m * np.log(l[atom]) - log_gamma(m + 1.0)
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


# ---------------------------------------------------------------------------
# occupancy row sums over every atom, and the finite-n centering function

OCCUPANCY_ROWS = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")
_HEAD_FLOOR = 1024  # fewest explicit atoms; the band's error falls like J^-4
_BAND_SPAN = 40.0  # the band's range in log x past J + 1/2
_BAND_PANELS = 40
_EM_STEP = 1e-3  # relative step of the central difference for f'(J + 1/2)


class OccupancySums:
    """sum_j h(n p_j) over every atom of a population, for the eight rows h
    of the occupancy lemma at X ~ Poisson(lam), g = g_sigma: P(X > 0) ("i"),
    e^-lam P(X > 0) ("ii"), E g ("iii"), E gdot ("iv"), E g^2 ("v"),
    (E g)^2 ("vi"), e^-lam E g ("vii") and E g^3 ("viii").

    A finite population is summed atom by atom.  An infinite one adds three
    parts, all through one `poisson_g_moments` call per sigma:
    - the head, the J = max(alpha0(n), _HEAD_FLOOR) largest atoms;
    - the exact linear part past it, n tail_power_sum(J, 1), in rows i and
      ii (every other row is O(lam^2));
    - the O(lam^2) rest f(x) of every row at lam = n p(x), by the midpoint
      Euler-Maclaurin band int_{J+1/2}^inf f(x) dx + f'(J+1/2)/24: the
      integral on Gauss-Legendre panels in log x (lam falls by more than
      e^-40 across them), f' by a central difference.
    """

    def __init__(self, pop, n):
        finite = pop.n_atoms()
        self.head = finite or max(pop.alpha0(n), _HEAD_FLOOR)
        self.linear = n * pop.tail_power_sum(self.head, 1)
        x = w = np.empty(0)
        if finite is None:
            a = self.head + 0.5
            t, w = gl_panels(math.log(a), math.log(a) + _BAND_SPAN,
                             _BAND_PANELS)
            step = a * _EM_STEP
            x = np.concatenate((np.exp(t), [a + step, a - step]))
            w = np.concatenate((w * x[:-2], [1.0, -1.0]))
            w[-2:] /= 48.0 * step
            x = pop.atom_law(x)
        self.lam = n * np.concatenate((pop.atom_probs(self.head), x))
        self.weight = np.concatenate((np.ones(self.head), w))

    def __call__(self, sigma):
        """{row: sum} at this sigma."""
        lam = self.lam
        eg, eg2, eg3, egdot = poisson_g_moments(lam, sigma)
        decay, occupied = np.exp(-lam), -np.expm1(-lam)
        rows = np.stack([occupied, decay * occupied, eg, egdot, eg2, eg * eg,
                         decay * eg, eg3])
        rows[:2, self.head:] -= lam[self.head:]
        sums = rows @ self.weight
        sums[:2] += self.linear
        return dict(zip(OCCUPANCY_ROWS, sums.tolist()))


class E0nEvaluator:
    """E0n(sigma) = sum_j [(1 - e^{-n p_j})/sigma - E g_sigma(Poisson(n p_j))].

    This is the exact atom-by-atom form of the integral
    int_0^n alpha0(n/s) e^{-s} (1/sigma - sum_m s^m/(m!(m-sigma))) ds:
    integrating the counting-function step heights term by term reproduces
    the sum above, whose parts are rows i and iii of `OccupancySums`.  The
    evaluator holds those sums' intensities, so one root search computes
    them once.
    """

    def __init__(self, pop, n):
        self.sums = OccupancySums(pop, int(n))

    def _sweep(self, sigma):
        """(E0n, dE0n/dsigma) from one sweep; the derivative's sum is row iv."""
        if not 0.0 < sigma < 1.0:
            raise ValueError("sigma must lie in (0, 1)")
        rows = self.sums(sigma)
        occupied = rows["i"]
        return (occupied / sigma - rows["iii"],
                -occupied / sigma ** 2 - rows["iv"])

    def value(self, sigma):
        return self._sweep(sigma)[0]

    def value_and_derivative(self, sigma):
        """Both from one sweep over the atoms (for Newton root finding)."""
        return self._sweep(sigma)


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
    c = (K0 + math.lgamma(1.0 - sigma0)) / sigma0

    def slope(M):  # (f'(M), f''(M))
        x0, x1 = 1.0 + M, 1.0 + M / sigma0
        return (c + digamma(x0) - digamma(x1) / sigma0,
                trigamma(x0) - trigamma(x1) / sigma0 ** 2)

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
    c0 = math.exp(math.lgamma(1.0 - s0)) * (1.0 + s0) / (s0 * t2)
    K0, M0 = precision_limit(s0, pop.rv, M_max)
    return AsymptoticConstants(
        sigma0=s0, sigma0n=sigma0n_root(pop, n), alpha_n=float(pop.alpha0(n)),
        tau1_sq=t1, tau2_sq=t2, c0=c0, K0=K0, M0=M0)

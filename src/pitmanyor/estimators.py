"""Empirical Bayes point estimation.

Maximum marginal likelihood for sigma at fixed M (the score root, at an
array of M values in one `score_roots` call) and the profile maximizer over
(sigma, M) (the root of the profile's closed-form slope in M, bracketed by a
grid), both by the shared `numerics.newton_root`, and plug-in standard
errors (sandwich primary, curvature secondary).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import asymptotics
from .likelihood import (SIGMA_EPS, hess_sigma, log_eppf, m_derivatives,
                         score_sigma)
from .numerics import newton_root

INTERIOR = "Interior"
LOWER_SIGMA = "LowerSigma"
UPPER_SIGMA = "UpperSigma"
LOWER_M = "LowerM"
UPPER_M = "UpperM"

_ROOT_TOL = 1e-10
_ROOT_MAX_ITER = 200
_M_TOL = 1e-10


@dataclass(frozen=True)
class EstimateResult:
    sigma_hat: float
    M_hat: float | None
    boundary: str
    score_at_opt: float
    log_lik: float
    se_sandwich: float | None = None
    se_curvature: float | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def interior(self):
        return self.boundary == INTERIOR

    def to_json(self, stats=None):
        out = {
            "sigma_hat": self.sigma_hat, "M_hat": self.M_hat,
            "boundary": self.boundary, "score_at_opt": self.score_at_opt,
            "log_lik": self.log_lik, "se_sandwich": self.se_sandwich,
            "se_curvature": self.se_curvature,
        }
        if stats is not None:
            out["n"] = stats.n
            out["K"] = stats.K
        return json.dumps(out, sort_keys=True)


def score_roots(stats, M):
    """The maximizer of sigma -> log_eppf(stats, sigma, M) on [eps, 1 - eps]
    at each entry of M (a float or an array), all by one `newton_root`.

    The log likelihood is strictly concave, so the score has at most one sign
    change; where it has none the maximum sits at a boundary, which is
    flagged instead of raised (all-distinct samples push sigma to the upper
    boundary).  Returns (sigma_hat, boundary, score, iterations, converged),
    each of M's shape: the root, its flag, the score there, and the
    `iterations` and `converged` of `newton_root` (0 and False at a
    boundary)."""
    M = np.asarray(M, dtype=float)
    lo, hi = SIGMA_EPS, 1.0 - SIGMA_EPS
    score_lo, score_hi = (np.asarray(score_sigma(stats, s, M))
                          for s in (lo, hi))
    lower = score_lo <= 0.0
    inner = ~lower & (score_hi < 0.0)
    sigma = np.where(lower, lo, hi)
    score = np.where(lower, score_lo, score_hi)
    boundary = np.where(lower, LOWER_SIGMA,
                        np.where(inner, INTERIOR, UPPER_SIGMA))
    iterations = np.zeros(M.shape, dtype=int)
    converged = np.zeros(M.shape, dtype=bool)
    if inner.any():
        M_in = M[inner] if M.ndim else M
        root, its, conv = newton_root(
            lambda s: (score_sigma(stats, s, M_in),
                       hess_sigma(stats, s, M_in)),
            np.full(M_in.shape, lo), hi, _ROOT_TOL, _ROOT_MAX_ITER)
        sigma[inner], iterations[inner], converged[inner] = root, its, conv
        score[inner] = score_sigma(stats, root, M_in)
    return sigma, boundary, score, iterations, converged


def mle_sigma(stats, M, se=False):
    """Maximizer of sigma -> log_eppf(stats, sigma, M) on [eps, 1 - eps]: the
    one-element case of `score_roots`.  For an interior root, `diagnostics`
    holds the `iterations` and `converged` of `numerics.newton_root`.
    """
    if stats.n < 2:
        raise ValueError("need n >= 2 observations")
    if not 0.0 <= M < math.inf:
        raise ValueError(f"M must be finite and nonnegative, got {M}")
    sig, flag, score, iterations, converged = map(
        np.ndarray.item, score_roots(stats, M))
    diagnostics = {"iterations": iterations, "converged": converged} \
        if flag == INTERIOR else {}
    res = EstimateResult(
        sigma_hat=sig, M_hat=None, boundary=flag, score_at_opt=score,
        log_lik=log_eppf(stats, sig, M), diagnostics=diagnostics)
    if se and flag == INTERIOR:
        res = replace(res, se_sandwich=sandwich_se(stats, sig),
                      se_curvature=1.0 / math.sqrt(-hess_sigma(stats, sig, M)))
    return res


def profile_mle(stats, M_max=50.0, se=False):
    """Joint maximizer: sigma maximized at each M, then the profile
    l(M) = Lambda_n(sigma_hat(M), M) maximized over [0, M_max] at the root
    of its slope l'(M) = dLambda/dM at (sigma_hat(M), M), bracketed by a
    coarse grid, 0 and 63 log-spaced nodes rising from min(0.01, M_max/100)
    to M_max, whose score roots are one `score_roots` call, or at a grid end
    whose slope points outward."""
    if not 0.0 < M_max < math.inf:
        raise ValueError(f"M_max must be finite and positive, got {M_max}")

    def slope(M):  # (l'(M), l''(M)); l'' drops the sigma term at a boundary
        sig, flag = (r.item() for r in score_roots(stats, M)[:2])
        d_M, d_MM, d_sM = m_derivatives(stats, sig, M)
        if flag == INTERIOR:
            d_MM -= d_sM ** 2 / hess_sigma(stats, sig, M)
        return d_M, d_MM

    grid = np.concatenate(
        ([0.0], np.geomspace(min(0.01, M_max / 100.0), M_max, 63)))
    sig = score_roots(stats, grid)[0]
    best = int(np.argmax(log_eppf(stats, sig, grid)))  # first (smallest M) tie
    end_slope = m_derivatives(stats, sig[best], grid[best])[0]
    boundary, M_diagnostics = INTERIOR, {}
    if best == 0 and end_slope <= 0.0:
        M_hat, boundary = 0.0, LOWER_M
    elif best == grid.size - 1 and end_slope >= 0.0:
        M_hat, boundary = M_max, UPPER_M
    else:
        M_hat, iterations, converged = newton_root(
            slope, grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)],
            _M_TOL, _ROOT_MAX_ITER)
        M_diagnostics = {"M_iterations": iterations, "M_converged": converged}
    inner = mle_sigma(stats, M_hat, se=se)
    if inner.boundary != INTERIOR:
        boundary = inner.boundary
    return EstimateResult(
        sigma_hat=inner.sigma_hat, M_hat=float(M_hat), boundary=boundary,
        score_at_opt=inner.score_at_opt, log_lik=inner.log_lik,
        se_sandwich=inner.se_sandwich, se_curvature=inner.se_curvature,
        diagnostics={"M_max": M_max, **M_diagnostics, **inner.diagnostics})


def plugin_alpha(stats, sigma_hat):
    """alpha_hat(n) = K_n / Gamma(1 - sigma_hat) (K_n/alpha0(n) tends to
    Gamma(1 - sigma0))."""
    return stats.K / math.exp(math.lgamma(1.0 - sigma_hat))


def sandwich_se(stats, sigma_hat, alpha_n=None):
    """tau1 / (tau2^2 sqrt(alpha_n)) with the limit constants
    asymptotics.tau1_sq and tau2_sq evaluated at sigma_hat; alpha_n
    defaults to the K_n plug-in."""
    if not 0.0 < sigma_hat < 1.0:
        raise ValueError("sigma_hat must be interior")
    if alpha_n is None:
        alpha_n = plugin_alpha(stats, sigma_hat)
    t1 = asymptotics.tau1_sq(sigma_hat)
    t2 = asymptotics.tau2_sq(sigma_hat)
    return math.sqrt(t1) / (t2 * math.sqrt(alpha_n))

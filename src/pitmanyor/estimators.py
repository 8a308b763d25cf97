"""Empirical Bayes point estimation.

Maximum marginal likelihood for sigma at fixed M (the score root) and the
profile maximizer over (sigma, M) (the root of the profile's closed-form
slope in M, bracketed by a grid), both by the shared `numerics.newton_root`,
and plug-in standard errors (sandwich primary, curvature secondary).
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


def mle_sigma(stats, M, se=False):
    """Maximizer of sigma -> log_eppf(stats, sigma, M) on [eps, 1 - eps].

    The log likelihood is strictly concave, so the score has at most one sign
    change; when it has none the maximum sits at a boundary, which is
    reported via a flag instead of an exception (all-distinct samples push
    sigma to the upper boundary).  For an interior root, `diagnostics` holds
    the `iterations` and `converged` of `numerics.newton_root`.
    """
    if stats.n < 2:
        raise ValueError("need n >= 2 observations")
    if not 0.0 <= M < math.inf:
        raise ValueError(f"M must be finite and nonnegative, got {M}")
    lo, hi = SIGMA_EPS, 1.0 - SIGMA_EPS
    diagnostics = {}
    score = score_sigma(stats, lo, M)
    if score <= 0.0:
        sig, flag = lo, LOWER_SIGMA
    elif (score := score_sigma(stats, hi, M)) >= 0.0:
        sig, flag = hi, UPPER_SIGMA
    else:
        sig, iterations, converged = newton_root(
            lambda s: (score_sigma(stats, s, M), hess_sigma(stats, s, M)),
            lo, hi, _ROOT_TOL, _ROOT_MAX_ITER)
        flag = INTERIOR
        diagnostics = {"iterations": iterations, "converged": converged}
        score = score_sigma(stats, sig, M)
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
    coarse log-spaced grid, or at a grid end whose slope points outward."""
    if not 0.0 < M_max < math.inf:
        raise ValueError(f"M_max must be finite and positive, got {M_max}")

    def slope(M):  # (l'(M), l''(M)); l'' drops the sigma term at a boundary
        fit = mle_sigma(stats, M)
        d_M, d_MM, d_sM = m_derivatives(stats, fit.sigma_hat, M)
        if fit.interior:
            d_MM -= d_sM ** 2 / hess_sigma(stats, fit.sigma_hat, M)
        return d_M, d_MM

    grid = np.concatenate(([0.0], np.geomspace(0.01, M_max, 63)))
    fits = [mle_sigma(stats, M) for M in grid]
    best = int(np.argmax([f.log_lik for f in fits]))  # first (smallest M) tie
    end_slope = m_derivatives(stats, fits[best].sigma_hat, grid[best])[0]
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

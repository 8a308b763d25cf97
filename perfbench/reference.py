"""Reference values for the CLI outputs, computed independently of pitmanyor.

The Pitman-Yor log-EPPF depends on a sample only through n, K and the
number c_s of blocks of each size s.  With a = M / sigma (Pitman 2006,
Combinatorial Stochastic Processes, ch. 3):

    ln L(sigma, M) = (K-1) ln sigma + lnG(a+K) - lnG(a+1)
                     + sum_s c_s [lnG(s-sigma) - lnG(1-sigma)]
                     - lnG(M+n) + lnG(M+1)

and the score in sigma follows with digamma.  The benchmark evaluates this
closed form with scipy, finds roots and maxima with scipy's solvers and
integrates posteriors on grids much finer than the program's, so a reference
value shares no code with the program under test.  Tolerances are stated
next to each check.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import optimize, special

SIGMA_LO, SIGMA_HI = 1e-9, 1.0 - 1e-9  # the program's sigma search range
GRID_LO, GRID_HI = 1e-6, 1.0 - 1e-6  # the program's posterior grid range

# Tolerances.  The fixed-M sigma_hat is a Newton root to 1e-10.  The
# profile is flat in M and the program's golden section stops at 1e-6, so
# M_hat is compared relative to max(M_hat, 1) and the profile sigma_hat,
# which moves with M_hat, more loosely.  Posterior summaries are compared in
# units of the posterior sd: the program integrates M by a 65-node
# trapezoid and its grid log-EPPF carries a truncated series.  Observed
# deviations on the benchmark inputs were at most a tenth of these.
TOL_SIGMA = 1e-8
TOL_PROFILE_SIGMA = 1e-6
TOL_M = 1e-3
TOL_POST_SD_UNITS = 2e-3
TOL_LR = 1e-5


def sizes_from_csv(path):
    """Block sizes (one per distinct label) of a one-column `species` CSV."""
    lines = Path(path).read_bytes().split(b"\n")
    if lines[0].strip() != b"species":
        raise ValueError(f"{path}: missing `species` header")
    labels = np.array([ln for ln in lines[1:] if ln])
    return np.unique(labels, return_counts=True)[1]


class Sample:
    """n, K and the block-size histogram of one partition."""

    def __init__(self, sizes):
        sizes = np.asarray(sizes, dtype=np.int64)
        self.n = int(sizes.sum())
        self.K = int(sizes.size)
        self.s, self.c = np.unique(sizes, return_counts=True)
        self.s = self.s.astype(float)
        self.c = self.c.astype(float)

    def with_new_singleton(self):
        """The sample after appending one observation of a fresh species."""
        sizes = np.repeat(self.s.astype(np.int64), self.c.astype(np.int64))
        return Sample(np.append(sizes, 1))

    def _size_term(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        lg = special.gammaln(self.s[None, :] - sigma.reshape(-1, 1)) @ self.c
        return lg.reshape(sigma.shape) - self.K * special.gammaln(1.0 - sigma)

    def log_lik(self, sigma, M):
        """ln L on the broadcast of sigma (shape (S,) or scalar) and M."""
        sigma = np.asarray(sigma, dtype=float)
        M = np.asarray(M, dtype=float)
        a = M / sigma
        return ((self.K - 1) * np.log(sigma) + special.gammaln(a + self.K)
                - special.gammaln(a + 1.0) + self._size_term(sigma)
                - special.gammaln(M + self.n) + special.gammaln(M + 1.0))

    def score(self, sigma, M):
        a = M / sigma
        dig = special.digamma
        return ((self.K - 1) / sigma
                - M / sigma ** 2 * (dig(a + self.K) - dig(a + 1.0))
                - float(np.sum(self.c * (dig(self.s - sigma)
                                         - dig(1.0 - sigma)))))

    def mle_sigma(self, M):
        if self.score(SIGMA_LO, M) <= 0.0:
            return SIGMA_LO
        if self.score(SIGMA_HI, M) >= 0.0:
            return SIGMA_HI
        return optimize.brentq(lambda x: self.score(x, M), SIGMA_LO, SIGMA_HI,
                               xtol=1e-14)

    def profile_mle(self, M_max):
        """(sigma_hat, M_hat) maximizing ln L jointly, M in [0, M_max]."""
        def prof(M):
            return float(self.log_lik(self.mle_sigma(M), M))

        grid = np.concatenate(([0.0], np.geomspace(1e-3, M_max, 200)))
        vals = np.array([prof(M) for M in grid])
        i = int(np.argmax(vals))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        res = optimize.minimize_scalar(lambda M: -prof(M), bounds=(lo, hi),
                                       method="bounded",
                                       options={"xatol": 1e-10})
        M_hat = float(res.x)
        for edge in (0.0, M_max):
            if abs(M_hat - edge) < 1e-5 and prof(edge) >= prof(M_hat):
                M_hat = edge
        return self.mle_sigma(M_hat), M_hat


class Posterior:
    """Grid posterior of sigma under a uniform sigma prior and either a
    fixed M or a uniform prior on [0, M_max]; `phi` collects
    E[(1 - sigma)/(n + M)] over the joint posterior."""

    _M_NODES = 256  # Gauss-Legendre nodes for the uniform-M integral
    _SPAN_SDS = 15.0
    _DENSE = 8001

    def __init__(self, sample, M=None, M_max=None):
        self.sample = sample
        if M is not None:
            self.m_nodes, self.m_weights = np.array([float(M)]), np.ones(1)
        else:
            x, w = np.polynomial.legendre.leggauss(self._M_NODES)
            self.m_nodes = 0.5 * M_max * (x + 1.0)
            self.m_weights = 0.5 * M_max * w
        nodes = self._dense_nodes()
        lp, phi = self._log_post(nodes)
        dx = nodes[1] - nodes[0]
        w = np.full(nodes.size, dx)
        w[0] = w[-1] = 0.5 * dx
        dens = np.exp(lp - lp.max()) * w
        dens /= dens.sum()
        self.mean = float(dens @ nodes)
        self.sd = math.sqrt(float(dens @ (nodes - self.mean) ** 2))
        self.phi_mean = float(dens @ phi)
        self._nodes = nodes
        self._cdf = np.cumsum(dens) - 0.5 * dens

    def _log_post(self, sigma):
        """ln of the M-marginal likelihood at each sigma, and E[phi|sigma]."""
        s = self.sample
        cols = s.log_lik(sigma[:, None], self.m_nodes[None, :])
        shift = cols.max(axis=1, keepdims=True)
        w = np.exp(cols - shift) * self.m_weights
        norm = w.sum(axis=1)
        phi = (1.0 - sigma[:, None]) / (s.n + self.m_nodes[None, :])
        return shift[:, 0] + np.log(norm), (w * phi).sum(axis=1) / norm

    def _dense_nodes(self):
        lo, hi = GRID_LO, GRID_HI
        for _ in range(4):  # zoom on the mode
            x = np.linspace(lo, hi, 801)
            i = int(np.argmax(self._log_post(x)[0]))
            lo, hi = x[max(i - 2, 0)], x[min(i + 2, x.size - 1)]
        mode = 0.5 * (lo + hi)
        h = 1e-5 * min(mode, 1.0 - mode)
        f = self._log_post(np.array([mode - h, mode, mode + h]))[0]
        curv = (f[0] - 2.0 * f[1] + f[2]) / h ** 2
        sd = 1.0 / math.sqrt(-curv) if curv < 0 else 1e-3
        return np.linspace(max(GRID_LO, mode - self._SPAN_SDS * sd),
                           min(GRID_HI, mode + self._SPAN_SDS * sd),
                           self._DENSE)

    def quantile(self, q):
        return float(np.interp(q, self._cdf, self._nodes))

    def interval(self, level=0.95):
        tail = 0.5 * (1.0 - level)
        return self.quantile(tail), self.quantile(1.0 - tail)


def _close(value, ref, tol, what):
    if value is None or not math.isfinite(value) or abs(value - ref) > tol:
        return [f"{what} = {value!r}, reference {ref!r} (tolerance {tol:.1e})"]
    return []


class CliReference:
    """Checks of the CLI's JSON outputs for one sample CSV.  Reference values
    are computed on first use and reused by every pass of a run."""

    def __init__(self, sample_csv):
        self.sample_csv = sample_csv

    @cached_property
    def sample(self):
        return Sample(sizes_from_csv(self.sample_csv))

    @cached_property
    def fit(self):
        return self.sample.mle_sigma(1.0)

    @cached_property
    def profile(self):
        return self.sample.profile_mle(50.0)

    @cached_property
    def posterior_fixed(self):
        return Posterior(self.sample, M=1.0)

    @cached_property
    def posterior_uniform(self):
        return Posterior(self.sample, M_max=10.0)

    @cached_property
    def posterior_crime(self):
        return Posterior(self.sample.with_new_singleton(), M_max=10.0)

    def check_fit(self, out):
        got = json.loads(out.stdout)
        return _close(got["sigma_hat"], self.fit, TOL_SIGMA, "fit sigma_hat")

    def check_profile(self, out):
        got = json.loads(out.stdout)
        sigma, M = self.profile
        return (_close(got["M_hat"], M, TOL_M * max(M, 1.0), "profile M_hat")
                + _close(got["sigma_hat"], sigma, TOL_PROFILE_SIGMA,
                         "profile sigma_hat"))

    def check_posterior_fixed(self, out):
        return _check_posterior(json.loads(out.stdout), self.posterior_fixed,
                                "posterior (M = 1)")

    def check_posterior_uniform(self, out):
        return _check_posterior(json.loads(out.stdout),
                                self.posterior_uniform,
                                "posterior (M ~ U[0, 10])")

    def check_lr(self, out):
        got = json.loads(out.stdout)
        post = self.posterior_crime
        ref = 1.0 / post.phi_mean
        summary = dict(got["sigma_posterior_summary"])
        summary["interval"] = summary["interval95"]
        return (_close(got["lr"], ref, TOL_LR * ref, "lr")
                + _check_posterior(summary, post, "lr posterior"))


def _check_posterior(got, post, what):
    tol = TOL_POST_SD_UNITS * post.sd
    lo, hi = post.interval()
    return (_close(got["mean"], post.mean, tol, f"{what} mean")
            + _close(got["sd"], post.sd, tol, f"{what} sd")
            + _close(got["interval"][0], lo, tol, f"{what} interval low")
            + _close(got["interval"][1], hi, tol, f"{what} interval high"))

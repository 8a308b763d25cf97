"""Full-Bayes grid posterior over sigma (optionally sigma x M), the Gaussian
comparison gap, posterior summaries, and the forensic likelihood ratio.

The posterior is evaluated on a deterministic adaptive grid rather than by
MCMC: the parameter is one- (or two-) dimensional, each likelihood
evaluation is cheap, and total-variation distances need reproducible masses.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .likelihood import log_eppf_grid
from .numerics import log_sum_exp, normal_cdf
from .partition import json_key, json_number, json_numbers, json_object

_GRID_EPS = 1e-6
_COARSE_NODES = 512
_DENSE_NODES = 2049
_M_NODES = 65
_SPAN_SDS = 10.0


@dataclass(frozen=True)
class PriorSpec:
    """Prior on sigma (uniform or beta) and on M (fixed value or uniform
    on [0, M_max])."""

    sigma_kind: str = "uniform"  # "uniform" | "beta"
    beta_a: float = 1.0
    beta_b: float = 1.0
    M_kind: str = "fixed"  # "fixed" | "uniform"
    M_value: float = 1.0
    M_max: float = 50.0

    def __post_init__(self):
        if self.sigma_kind not in ("uniform", "beta"):
            raise ValueError("sigma prior must be uniform or beta")
        if self.sigma_kind == "beta" and not (0.0 < self.beta_a < math.inf
                                              and 0.0 < self.beta_b < math.inf):
            raise ValueError("beta shapes must be finite and positive")
        if self.M_kind not in ("fixed", "uniform"):
            raise ValueError("M prior must be fixed or uniform")
        if self.M_kind == "fixed" and not 0.0 <= self.M_value < math.inf:
            raise ValueError("fixed M must be finite and nonnegative")
        if self.M_kind == "uniform" and not 0.0 < self.M_max < math.inf:
            raise ValueError("M_max must be finite and positive")

    def log_density_sigma(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        if self.sigma_kind == "uniform":
            return np.zeros(sigma.shape)
        a, b = self.beta_a, self.beta_b
        return (a - 1.0) * np.log(sigma) + (b - 1.0) * np.log1p(-sigma) \
            - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))

    def M_quadrature(self):
        """Nodes and weights integrating over the M prior: a fixed M is one
        node of weight 1, a uniform M the trapezoid rule on _M_NODES nodes."""
        if self.M_kind == "fixed":
            return np.array([self.M_value]), np.ones(1)
        nodes = np.linspace(0.0, self.M_max, _M_NODES)
        w = np.full(nodes.size, nodes[1] - nodes[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return nodes, w

    def to_dict(self):
        out = {"sigma": self.sigma_kind}
        if self.sigma_kind == "beta":
            out["beta"] = [self.beta_a, self.beta_b]
        out["M"] = {"kind": self.M_kind}
        if self.M_kind == "fixed":
            out["M"]["value"] = self.M_value
        else:
            out["M"]["max"] = self.M_max
        return out

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict; a missing entry takes its default, and a
        number that is not a JSON number is an error naming its key."""
        d = json_object(d, "prior")
        a, b = json_key(d, "beta", lambda v: json_numbers(v, 2), (1.0, 1.0))
        M = json_object(d.get("M", {}), "M")
        return cls(sigma_kind=d.get("sigma", "uniform"), beta_a=a, beta_b=b,
                   M_kind=M.get("kind", "fixed"),
                   M_value=json_key(M, "value", json_number, 1.0),
                   M_max=json_key(M, "max", json_number, 50.0))


@dataclass(frozen=True)
class PosteriorGrid:
    sigma_nodes: np.ndarray
    log_density: np.ndarray  # normalized log density over sigma
    log_normalizer: float
    mean: float
    sd: float
    cell_mass: np.ndarray  # trapezoid masses, one per cell, sum 1
    degenerate: bool = False
    M_nodes: np.ndarray | None = None
    phi_moments: tuple | None = None  # (E phi, Var phi) when requested

    def quantile(self, q):
        cum = np.concatenate(([0.0], np.cumsum(self.cell_mass)))
        i = int(np.searchsorted(cum, q, side="right")) - 1
        i = min(max(i, 0), self.cell_mass.size - 1)
        mass = self.cell_mass[i]
        frac = 0.0 if mass <= 0 else (q - cum[i]) / mass
        nodes = self.sigma_nodes
        return float(nodes[i] + frac * (nodes[i + 1] - nodes[i]))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sigma", "log_density", "cell_mass"])
            for i, x in enumerate(self.sigma_nodes):
                mass = self.cell_mass[i] if i < self.cell_mass.size else ""
                writer.writerow([f"{x:.12g}", f"{self.log_density[i]:.12g}",
                                 mass and f"{mass:.12g}"])


def _log_post_on(stats, prior, sigma_nodes, collect_phi=False):
    """Log posterior over sigma_nodes, marginalized over the M prior.

    Returns (log unnormalized density, optional per-node conditional
    (E[phi|sigma], Var[phi|sigma]) for phi = (1 - sigma)/(n + M))."""
    m_nodes, w = prior.M_quadrature()
    cols = log_eppf_grid(stats, sigma_nodes, m_nodes)
    shift = np.max(cols, axis=1, keepdims=True)
    dens = np.exp(cols - shift)
    norm = dens @ w
    lp = shift[:, 0] + np.log(norm)
    if not collect_phi:
        return lp, None
    phi_m = (1.0 - sigma_nodes)[:, None] / (stats.n + m_nodes)[None, :]
    e1 = (dens * phi_m) @ w / norm
    # centred, so that no digits cancel
    within = (dens * (phi_m - e1[:, None]) ** 2) @ w / norm
    return lp, (e1, within)


def posterior_sigma(stats, prior=None, collect_phi=False):
    """Two-pass adaptive grid posterior for sigma.

    Pass 1 scans (eps, 1-eps) coarsely to find the mode and a curvature-based
    sd; pass 2 re-evaluates on a dense grid spanning mode +- 10 sd.  Cell
    masses are trapezoidal; a degenerate flag is raised when the outermost
    cells carry almost all mass.
    """
    if stats.n < 2:
        raise ValueError("need n >= 2 observations")
    prior = prior or PriorSpec()
    lo, hi = _GRID_EPS, 1.0 - _GRID_EPS
    coarse = np.linspace(lo, hi, _COARSE_NODES)
    lp, _ = _log_post_on(stats, prior, coarse)
    lp = lp + prior.log_density_sigma(coarse)
    i = int(np.argmax(lp))
    step = coarse[1] - coarse[0]
    if 0 < i < coarse.size - 1:
        curv = (lp[i + 1] - 2.0 * lp[i] + lp[i - 1]) / step ** 2
        sd0 = 1.0 / math.sqrt(-curv) if curv < 0 else step
    else:
        sd0 = step
    a = max(lo, coarse[i] - _SPAN_SDS * sd0)
    b = min(hi, coarse[i] + _SPAN_SDS * sd0)
    nodes = np.linspace(a, b, _DENSE_NODES)
    lp, phi = _log_post_on(stats, prior, nodes, collect_phi=collect_phi)
    lp = lp + prior.log_density_sigma(nodes)
    # trapezoid normalization in the log domain
    dx = nodes[1] - nodes[0]
    cell_log = np.logaddexp(lp[:-1], lp[1:]) + math.log(0.5 * dx)
    log_norm = log_sum_exp(cell_log)
    cell_mass = np.exp(cell_log - log_norm)
    log_density = lp - log_norm
    w = np.full(nodes.size, dx)
    w[0] = w[-1] = 0.5 * dx
    dens = np.exp(log_density) * w
    mean = float(np.sum(dens * nodes))
    var = float(np.sum(dens * (nodes - mean) ** 2))
    degenerate = bool(cell_mass[0] + cell_mass[-1] > 0.99)
    phi_moments = None
    if collect_phi:
        # Var phi = E[Var(phi|sigma)] + Var E[phi|sigma], both centred
        e1, within = phi
        phi_mean = float(np.sum(dens * e1))
        phi_var = float(np.sum(dens * (within + (e1 - phi_mean) ** 2)))
        phi_moments = (phi_mean, phi_var)
    return PosteriorGrid(
        sigma_nodes=nodes, log_density=log_density,
        log_normalizer=float(log_norm), mean=mean, sd=math.sqrt(max(var, 0.0)),
        cell_mass=cell_mass, degenerate=degenerate,
        M_nodes=prior.M_quadrature()[0] if prior.M_kind == "uniform"
        else None,
        phi_moments=phi_moments)


def bvm_gap(post, sigma_hat, var_bvm):
    """Total-variation distance between the grid posterior and
    N(sigma_hat, var_bvm), cell by cell, plus half the Gaussian mass
    falling outside the grid."""
    if var_bvm <= 0.0:
        raise ValueError("var_bvm must be positive")
    sd = math.sqrt(var_bvm)
    nodes = post.sigma_nodes
    gauss_cdf = normal_cdf((nodes - sigma_hat) / sd)
    gauss_cells = np.diff(gauss_cdf)
    outside = gauss_cdf[0] + (1.0 - gauss_cdf[-1])
    return float(0.5 * np.sum(np.abs(post.cell_mass - gauss_cells))
                 + 0.5 * outside)


def posterior_mean_and_interval(post, level=0.95):
    """(mean, sd, equal-tail credible interval)."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    tail = 0.5 * (1.0 - level)
    return post.mean, post.sd, (post.quantile(tail), post.quantile(1.0 - tail))


@dataclass(frozen=True)
class ForensicLR:
    """Likelihood ratio for an unseen type and the (sigma, M) posterior it
    integrates over; unpacks as (lr, phi_mean, phi_sd)."""

    lr: float
    phi_mean: float
    phi_sd: float
    posterior: PosteriorGrid

    def __iter__(self):
        return iter((self.lr, self.phi_mean, self.phi_sd))


def forensic_lr(stats_with_crime, prior=None):
    """Likelihood ratio 1 / E[(1 - sigma)/(n + 1 + M) | data] for a crime
    profile already appended to the database as a new singleton.

    stats_with_crime covers all n + 1 profiles; the posterior is the grid
    posterior over (sigma, M); phi = (1 - sigma)/(n + 1 + M) is integrated
    on the same grid.  Returns a ForensicLR, which unpacks as
    (lr, phi_mean, phi_sd).
    """
    if stats_with_crime.sizes[0] != 1:
        raise ValueError("the crime-scene profile must be a new singleton")
    prior = prior or PriorSpec()
    post = posterior_sigma(stats_with_crime, prior, collect_phi=True)
    phi_mean, phi_var = post.phi_moments
    return ForensicLR(lr=1.0 / phi_mean, phi_mean=phi_mean,
                      phi_sd=math.sqrt(phi_var), posterior=post)


def forensic_report(stats_with_crime, prior=None, seed=None):
    prior = prior or PriorSpec()
    res = forensic_lr(stats_with_crime, prior)
    post = res.posterior
    return {
        "n": stats_with_crime.n - 1, "K": stats_with_crime.K,
        "lr": res.lr, "phi_mean": res.phi_mean, "phi_sd": res.phi_sd,
        "sigma_posterior_summary": {
            "mean": post.mean, "sd": post.sd,
            "interval95": list(posterior_mean_and_interval(post)[2]),
        },
        "prior_spec": prior.to_dict(), "seed": seed,
    }

"""Full-Bayes grid posterior over sigma (optionally sigma x M), the Gaussian
comparison gap, posterior summaries, and the forensic likelihood ratio.

The posterior is evaluated by composite Gauss-Legendre quadrature on a
deterministic span rather than by MCMC: the parameter is one- (or two-)
dimensional, each likelihood evaluation is cheap, and total-variation
distances need reproducible masses.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .likelihood import log_eppf_grid
from .numerics import gl_panels, log_sum_exp, normal_cdf
from .partition import json_key, json_number, json_numbers, json_object

_GRID_EPS = 1e-6
_SCAN_PANELS = 32
_PANELS = 64
_M_PANELS = 4
_SPAN_NATS = 50.0  # the drop of a Gaussian at 10 sd


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
        node of weight 1, a uniform M `gl_panels` on [0, M_max]."""
        if self.M_kind == "fixed":
            return np.array([self.M_value]), np.ones(1)
        return gl_panels(0.0, self.M_max, _M_PANELS)

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
    sigma_nodes: np.ndarray  # Gauss-Legendre nodes, rising
    log_density: np.ndarray  # normalized log density over sigma
    mean: float
    sd: float
    cell_mass: np.ndarray  # mass of node i's cell, one per node, sum 1
    cell_edges: np.ndarray  # cell i is [cell_edges[i], cell_edges[i + 1]]
    degenerate: bool = False
    phi_moments: tuple | None = None  # (E phi, Var phi) when requested

    def quantile(self, q):
        cum = np.concatenate(([0.0], np.cumsum(self.cell_mass)))
        i = int(np.searchsorted(cum, q, side="right")) - 1
        i = min(max(i, 0), self.cell_mass.size - 1)
        mass = self.cell_mass[i]
        frac = 0.0 if mass <= 0 else (q - cum[i]) / mass
        edges = self.cell_edges
        return float(edges[i] + frac * (edges[i + 1] - edges[i]))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sigma", "log_density", "cell_mass"])
            for row in zip(self.sigma_nodes, self.log_density, self.cell_mass):
                writer.writerow([f"{x:.12g}" for x in row])


def _log_post_on(stats, prior, sigma_nodes, collect_phi=False):
    """Log posterior over sigma_nodes, marginalized over the M prior.

    Returns (log unnormalized density, optional per-node conditional
    (E[phi|sigma], Var[phi|sigma]) for phi = (1 - sigma)/(n + M))."""
    m_nodes, w = prior.M_quadrature()
    cols = log_eppf_grid(stats, sigma_nodes, m_nodes)
    shift = np.max(cols, axis=1, keepdims=True)
    dens = np.exp(cols - shift)
    norm = dens @ w
    lp = shift[:, 0] + np.log(norm) + prior.log_density_sigma(sigma_nodes)
    if not collect_phi:
        return lp, None
    phi_m = (1.0 - sigma_nodes)[:, None] / (stats.n + m_nodes)[None, :]
    e1 = (dens * phi_m) @ w / norm
    # centred, so that no digits cancel
    within = (dens * (phi_m - e1[:, None]) ** 2) @ w / norm
    return lp, (e1, within)


def posterior_sigma(stats, prior=None, collect_phi=False):
    """Grid posterior for sigma by composite Gauss-Legendre quadrature.

    A scan of (eps, 1-eps) by `gl_panels` finds the nodes within 50 nats of
    the highest; the span runs from the scan node below them to the one
    above (or to the end of the range), so it brackets the mode of a
    concave log posterior however narrow.  The posterior is integrated by
    `gl_panels` on that span: node i carries mass w_i p_i, and its cell is
    [a + sum_{j<i} w_j, a + sum_{j<=i} w_j], which holds the node (the
    Chebyshev-Markov-Stieltjes separation theorem).  A degenerate flag is
    raised when the outermost cells carry almost all mass.
    """
    if stats.n < 2:
        raise ValueError("need n >= 2 observations")
    prior = prior or PriorSpec()
    lo, hi = _GRID_EPS, 1.0 - _GRID_EPS
    scan, _ = gl_panels(lo, hi, _SCAN_PANELS)
    lp, _ = _log_post_on(stats, prior, scan)
    near = np.flatnonzero(lp >= np.max(lp) - _SPAN_NATS)
    a = scan[near[0] - 1] if near[0] > 0 else lo
    b = scan[near[-1] + 1] if near[-1] < scan.size - 1 else hi
    nodes, w = gl_panels(a, b, _PANELS)
    lp, phi = _log_post_on(stats, prior, nodes, collect_phi=collect_phi)
    lp -= np.max(lp)  # before the sum, which a large |lp| would round
    log_mass = lp + np.log(w)
    log_norm = log_sum_exp(log_mass)
    mass = np.exp(log_mass - log_norm)
    edges = np.concatenate(([a], a + np.cumsum(w)))
    edges[-1] = b
    mean = float(mass @ nodes)
    var = float(mass @ (nodes - mean) ** 2)
    phi_moments = None
    if collect_phi:
        # Var phi = E[Var(phi|sigma)] + Var E[phi|sigma], both centred
        e1, within = phi
        phi_mean = float(mass @ e1)
        phi_var = float(mass @ (within + (e1 - phi_mean) ** 2))
        phi_moments = (phi_mean, phi_var)
    return PosteriorGrid(
        sigma_nodes=nodes, log_density=lp - log_norm, mean=mean,
        sd=math.sqrt(max(var, 0.0)), cell_mass=mass, cell_edges=edges,
        degenerate=bool(mass[0] + mass[-1] > 0.99), phi_moments=phi_moments)


def bvm_gap(post, sigma_hat, var_bvm):
    """Total-variation distance between the grid posterior and
    N(sigma_hat, var_bvm), cell by cell, plus half the Gaussian mass
    falling outside the grid."""
    if var_bvm <= 0.0:
        raise ValueError("var_bvm must be positive")
    sd = math.sqrt(var_bvm)
    gauss_cdf = normal_cdf((post.cell_edges - sigma_hat) / sd)
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

import functools
import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps
from scipy.special import gammaln, logsumexp

from pitmanyor.estimators import mle_sigma
from pitmanyor.likelihood import log_eppf_grid
from pitmanyor.inference import (PosteriorGrid, PriorSpec, bvm_gap,
                                 forensic_lr, forensic_report,
                                 posterior_mean_and_interval, posterior_sigma)
from pitmanyor.numerics import gl_panels
from pitmanyor.partition import from_sizes
from pitmanyor.sampler import RngStream, sample_py_partition


def _stats(n=2000, sigma=0.5, M=1.0, seed=1):
    return sample_py_partition(sigma, M, n, RngStream(seed))


def _cdf(post, x):
    """Posterior mass below x, linear in x within each cell."""
    cum = np.concatenate(([0.0], np.cumsum(post.cell_mass)))
    return float(np.interp(x, post.cell_edges, cum, right=1.0))


def _gaussian_grid(center, sd, nodes=8193, span=10.0):
    # `nodes` cell edges, each cell's node at its midpoint
    edges = np.linspace(center - span * sd, center + span * sd, nodes)
    x = 0.5 * (edges[:-1] + edges[1:])
    logd = -0.5 * ((x - center) / sd) ** 2 - math.log(sd * math.sqrt(2 * math.pi))
    cell = np.diff(sps.norm.cdf(edges, loc=center, scale=sd))
    cell = cell / cell.sum()
    return PosteriorGrid(sigma_nodes=x, log_density=logd, mean=center, sd=sd,
                         cell_mass=cell, cell_edges=edges)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_prior_spec_rejects_non_finite_values(value):
    for kwargs in ({"M_kind": "fixed", "M_value": value},
                   {"M_kind": "uniform", "M_max": value},
                   {"sigma_kind": "beta", "beta_a": value},
                   {"sigma_kind": "beta", "beta_b": value}):
        with pytest.raises(ValueError, match="finite"):
            PriorSpec(**kwargs)


def test_prior_spec_validation():
    with pytest.raises(ValueError):
        PriorSpec(sigma_kind="cauchy")
    with pytest.raises(ValueError):
        PriorSpec(sigma_kind="beta", beta_a=-1.0)
    with pytest.raises(ValueError):
        PriorSpec(M_kind="fixed", M_value=-2.0)
    with pytest.raises(ValueError):
        PriorSpec(M_kind="uniform", M_max=0.0)


@pytest.mark.parametrize("prior", [
    PriorSpec(),
    PriorSpec(sigma_kind="beta", beta_a=2.0, beta_b=0.5, M_value=3.0),
    PriorSpec(M_kind="uniform", M_max=10.0),
    PriorSpec(sigma_kind="beta", beta_a=0.7, beta_b=4.0, M_kind="uniform",
              M_max=2.5),
])
def test_prior_spec_dict_round_trip(prior):
    assert PriorSpec.from_dict(prior.to_dict()) == prior


def test_prior_spec_from_empty_dict_is_default():
    assert PriorSpec.from_dict({}) == PriorSpec()


def test_posterior_normalized():
    post = posterior_sigma(_stats())
    assert float(post.cell_mass.sum()) == pytest.approx(1.0, abs=1e-12)
    assert not post.degenerate


def test_posterior_concentrates_near_mle():
    st = _stats(n=5000)
    post = posterior_sigma(st)
    mle = mle_sigma(st, 1.0).sigma_hat
    assert abs(post.mean - mle) <= 3.0 * post.sd


def test_posterior_quantiles_and_cdf():
    post = posterior_sigma(_stats())
    med = post.quantile(0.5)
    assert _cdf(post, med) == pytest.approx(0.5, abs=1e-3)
    assert _cdf(post, post.sigma_nodes[0] - 1.0) == 0.0
    assert _cdf(post, post.sigma_nodes[-1] + 1.0) == 1.0
    assert post.quantile(0.1) < post.quantile(0.9)


def test_posterior_grid_doubling_invariance():
    import pitmanyor.inference as inf
    st = _stats()
    post = posterior_sigma(st)
    saved = inf._PANELS
    try:
        inf._PANELS = 2 * saved
        dense = posterior_sigma(st)
    finally:
        inf._PANELS = saved
    assert abs(dense.mean - post.mean) <= 1e-8
    assert abs(dense.sd - post.sd) <= 1e-6


def test_beta_prior_shifts_small_sample():
    st = from_sizes([2, 1, 1])
    flat = posterior_sigma(st, PriorSpec())
    tilted = posterior_sigma(st, PriorSpec(sigma_kind="beta",
                                           beta_a=8.0, beta_b=2.0))
    assert tilted.mean > flat.mean


def test_bvm_gap_identical_gaussian_tiny():
    g = _gaussian_grid(0.5, 0.02)
    assert bvm_gap(g, 0.5, 0.02 ** 2) <= 1e-6


def test_bvm_gap_mean_shift():
    g = _gaussian_grid(0.5, 0.02)
    # five-sd shift: TV = 2 Phi(2.5) - 1 = 0.9876
    assert bvm_gap(g, 0.5 + 5 * 0.02, 0.02 ** 2) >= 0.97


def test_bvm_gap_metric_properties():
    a = _gaussian_grid(0.5, 0.02, nodes=2049)
    assert bvm_gap(a, 0.5, 0.02 ** 2) <= 1e-5
    d_ab = bvm_gap(a, 0.52, 0.02 ** 2)
    d_ac = bvm_gap(a, 0.55, 0.02 ** 2)
    # TV between the two Gaussians via the same grid: triangle inequality
    b = _gaussian_grid(0.52, 0.02, nodes=2049)
    d_bc = bvm_gap(b, 0.55, 0.02 ** 2)
    assert d_ac <= d_ab + d_bc + 1e-9
    assert bvm_gap(a, 0.52, 0.02 ** 2) == pytest.approx(
        bvm_gap(b, 0.5, 0.02 ** 2), abs=1e-3)


def test_bvm_gap_matches_scipy_norm_reference():
    post = posterior_sigma(_stats())
    for sigma_hat, sd in ((post.mean, post.sd), (0.45, 0.03), (0.7, 0.2)):
        cdf = sps.norm.cdf(post.cell_edges, loc=sigma_hat, scale=sd)
        want = 0.5 * np.sum(np.abs(post.cell_mass - np.diff(cdf))) \
            + 0.5 * (cdf[0] + 1.0 - cdf[-1])
        assert abs(bvm_gap(post, sigma_hat, sd ** 2) - want) <= 1e-15


def test_bvm_gap_validation():
    g = _gaussian_grid(0.5, 0.02)
    with pytest.raises(ValueError):
        bvm_gap(g, 0.5, 0.0)


def test_posterior_mean_and_interval():
    post = posterior_sigma(_stats())
    mean, sd, (lo, hi) = posterior_mean_and_interval(post, level=0.95)
    assert lo < mean < hi
    assert sd > 0.0
    mass = _cdf(post, hi) - _cdf(post, lo)
    assert mass == pytest.approx(0.95, abs=1e-3)
    with pytest.raises(ValueError):
        posterior_mean_and_interval(post, level=1.5)


def test_forensic_lr_bound_and_identity():
    st = _stats(n=3000)
    # append the crime profile as a fresh singleton
    sizes = np.concatenate((st.N, [1]))
    stats_crime = from_sizes(sizes)
    n = stats_crime.n - 1
    M = 1.0
    lr, phi_mean, phi_sd = forensic_lr(stats_crime, PriorSpec(M_value=M))
    assert lr > n + 1
    assert phi_sd >= 0.0
    # fixed-M identity: lr * E[1 - sigma | data] = n + 1 + M
    post = posterior_sigma(stats_crime, PriorSpec(M_value=M))
    one_minus_sigma = float(post.cell_mass @ (1.0 - post.sigma_nodes))
    assert lr * one_minus_sigma == pytest.approx(n + 1 + M, rel=1e-5)


@pytest.mark.parametrize("prior", [PriorSpec(M_value=1.0),
                                   PriorSpec(M_kind="uniform", M_max=10.0)],
                         ids=["fixed_M", "uniform_M"])
def test_forensic_phi_sd_matches_centred_sum(prior):
    # phi = (1 - sigma)/(n + 1 + M) over the joint grid posterior of
    # (sigma, M), centred about its mean in extended precision
    stats = from_sizes(np.concatenate((_stats(n=3000).N, [1])))
    res = forensic_lr(stats, prior)
    sigma = res.posterior.sigma_nodes
    m_nodes, w_m = prior.M_quadrature()
    w_sigma = np.diff(res.posterior.cell_edges)  # the rule's weights
    log_joint = np.longdouble(log_eppf_grid(stats, sigma, m_nodes)
                              + prior.log_density_sigma(sigma)[:, None])
    joint = np.exp(log_joint - log_joint.max()) \
        * w_sigma.astype(np.longdouble)[:, None] \
        * w_m.astype(np.longdouble)[None, :]
    joint /= joint.sum()
    phi = (1 - sigma.astype(np.longdouble))[:, None] \
        / (stats.n + m_nodes.astype(np.longdouble))[None, :]
    mean = np.sum(joint * phi)
    sd = np.sqrt(np.sum(joint * (phi - mean) ** 2))
    assert res.phi_mean == pytest.approx(float(mean), rel=1e-12)
    assert res.phi_sd == pytest.approx(float(sd), rel=1e-12)


def test_forensic_lr_requires_singleton():
    st = from_sizes([3, 2, 2])
    with pytest.raises(ValueError):
        forensic_lr(st, PriorSpec())


def test_forensic_report_fields():
    sizes = np.concatenate((_stats(n=1000).N, [1]))
    report = forensic_report(from_sizes(sizes), PriorSpec(), seed=5)
    assert report["lr"] > report["n"] + 1
    assert report["seed"] == 5
    lo, hi = report["sigma_posterior_summary"]["interval95"]
    assert lo < report["sigma_posterior_summary"]["mean"] < hi


def test_uniform_m_prior_runs():
    st = _stats(n=1000)
    post = posterior_sigma(st, PriorSpec(M_kind="uniform", M_max=10.0))
    assert float(post.cell_mass.sum()) == pytest.approx(1.0, abs=1e-12)


@functools.lru_cache(maxsize=None)
def _accuracy_sample(shape):
    if shape == "py":
        return _stats(n=2000, sigma=0.5, M=2.0)
    if shape == "py_small":
        return _stats(n=500, sigma=0.3, M=0.5)
    if shape == "py_narrow":  # posterior sd 1.5e-4
        return _stats(n=3_000_000, sigma=0.97, M=1.0, seed=3)
    # the benchmark's sample shapes: 1e6 Zipf(2) rows and 2e4 Zipf(1.1) rows
    a, rows = {"cli_tall": (2.0, 10 ** 6), "cli_wide": (1.1, 20_000)}[shape]
    labels = np.random.default_rng(0).zipf(a, rows)
    return from_sizes(np.unique(labels, return_counts=True)[1])


def _brute_force_moments(stats, m, w, lo, hi):
    """Posterior mean and sd of sigma under a uniform sigma prior, with M
    integrated by the nodes m and weights w, from scipy's gammaln and the
    trapezoid on 20,001 sigma nodes on [lo, hi].  Also the density at the
    two ends relative to the peak."""
    log_w = np.log(w) + gammaln(m + 1.0) - gammaln(m + stats.n)
    sigma = np.linspace(lo, hi, 20_001)
    s, c = stats.sizes.astype(float), stats.counts.astype(float)
    a = m / sigma[:, None]
    lp = ((stats.K - 1) * np.log(sigma) + gammaln(s - sigma[:, None]) @ c
          - stats.K * gammaln(1.0 - sigma)
          + logsumexp(gammaln(a + stats.K) - gammaln(a + 1.0) + log_w, axis=1))
    dens = np.exp(lp - lp.max())
    ends = (dens[0], dens[-1])
    dens[0] *= 0.5
    dens[-1] *= 0.5
    dens /= dens.sum()
    mean = float(dens @ sigma)
    return mean, math.sqrt(float(dens @ (sigma - mean) ** 2)), ends


def _brute_force_errors(stats, prior):
    """(mean error, sd error) of the posterior under a uniform sigma prior
    against the brute force, in units of the brute-force sd."""
    post = posterior_sigma(stats, prior)
    # post.mean +- 12 post.sd, within the grid's range (1e-6, 1 - 1e-6)
    lo = max(1e-6, post.mean - 12.0 * post.sd)
    hi = min(1.0 - 1e-6, post.mean + 12.0 * post.sd)
    if prior.M_kind == "fixed":
        m, w = np.array([prior.M_value]), np.ones(1)
    else:
        # 32-point Gauss-Legendre on 32 panels of [0, M_max]: 1,024 M nodes
        x, w = np.polynomial.legendre.leggauss(32)
        half = prior.M_max / 64.0
        m = (np.linspace(0.0, prior.M_max, 33)[:-1, None]
             + half * (1.0 + x)).ravel()
        w = np.tile(half * w, 32)
    mean, sd, ends = _brute_force_moments(stats, m, w, lo, hi)
    # the window holds the mass wherever it ends inside the range
    assert lo == 1e-6 or ends[0] < 1e-12
    assert hi == 1.0 - 1e-6 or ends[1] < 1e-12
    return abs(post.mean - mean) / sd, abs(post.sd - sd) / sd


def _uniform_m_errors(shape, M_max):
    return _brute_force_errors(_accuracy_sample(shape),
                               PriorSpec(M_kind="uniform", M_max=M_max))


@pytest.mark.parametrize("M_max", [10.0, 50.0])
@pytest.mark.parametrize("shape", ["cli_tall", "cli_wide", "py"])
def test_uniform_m_posterior_matches_brute_force(shape, M_max):
    # the conditional M posterior is narrower than a 65-node trapezoid's
    # step on [0, 50], which put the sd 1.7e-3 off on the cli_tall shape
    mean_err, sd_err = _uniform_m_errors(shape, M_max)
    assert mean_err < 1e-6 and sd_err < 1e-6


def test_uniform_m_posterior_beats_the_trapezoid_on_a_small_sample():
    # PY(0.3, 0.5) at n = 500, M ~ U[0, 50]: the 65-node trapezoid that the
    # Gauss-Legendre panels replaced put the mean 5.4e-3 sd and the sd
    # 2.0e-3 sd off the brute force
    mean_err, sd_err = _uniform_m_errors("py_small", 50.0)
    assert mean_err < 5.4e-4 and sd_err < 2.0e-4


@pytest.mark.parametrize("M", [1.0, 5.0])
def test_posterior_piled_at_sigma_zero_keeps_its_tail(M):
    # the highest scan node is the first, so the span runs to the end of the
    # range; a span of one scan step from there would cut the tail at 0.02
    # and put the mean 1.1 sd low.  The uniform trapezoid that the
    # Gauss-Legendre cells replaced was 1.0e-6 and 2.7e-6 sd off
    stats = from_sizes([20, 10, 5, 1])
    post = posterior_sigma(stats, PriorSpec(M_value=M))
    mean, sd, _ = _brute_force_moments(stats, np.array([M]), np.ones(1),
                                       1e-6, 1.0 - 1e-6)
    assert post.cell_edges[0] == 1e-6 and mean < 0.2
    assert abs(post.mean - mean) < 1e-7 * sd and abs(post.sd - sd) < 1e-7 * sd


def test_dense_span_brackets_a_posterior_narrower_than_the_coarse_step():
    # PY(0.97, 1) at n = 3e6: the posterior sd (1.5e-4) is below a tenth of
    # the scan's mean node spacing (1.95e-3), and the spacing at the mode
    # (1.2e-3) is 8 sd, so the few scan nodes within 50 nats of the highest
    # do not reach the tails; the scan nodes on either side of them bracket
    # the mode, and the cells at the span's ends hold no mass
    stats = _accuracy_sample("py_narrow")
    scan, _ = gl_panels(1e-6, 1.0 - 1e-6, 32)
    step = (scan[-1] - scan[0]) / (scan.size - 1)
    for prior in (PriorSpec(), PriorSpec(M_kind="uniform", M_max=10.0)):
        post = posterior_sigma(stats, prior)
        assert post.sd < 0.1 * step
        assert post.cell_edges[0] < post.mean < post.cell_edges[-1]
        assert post.cell_mass[0] < 1e-12 and post.cell_mass[-1] < 1e-12
        assert not post.degenerate


@pytest.mark.parametrize("prior", [PriorSpec(),
                                   PriorSpec(M_kind="uniform", M_max=10.0)],
                         ids=["fixed_M", "uniform_M"])
def test_narrow_posterior_matches_brute_force(prior):
    # PY(0.97, 1) at n = 3e6: the 2,049-node trapezoid that the
    # Gauss-Legendre cells replaced put the mean 1.2e-6 sd (fixed M) and
    # 1.6e-6 sd (uniform M) off the brute force
    mean_err, sd_err = _brute_force_errors(_accuracy_sample("py_narrow"),
                                           prior)
    assert mean_err < 1e-8 and sd_err < 1e-8


@pytest.mark.parametrize("shape", ["default", "pile", "py_narrow"])
def test_cells_partition_the_span_around_their_nodes(shape):
    stats = {"default": _stats, "pile": lambda: from_sizes([20, 10, 5, 1]),
             "py_narrow": lambda: _accuracy_sample("py_narrow")}[shape]()
    post = posterior_sigma(stats)
    edges, nodes = post.cell_edges, post.sigma_nodes
    assert edges.size == nodes.size + 1 == post.cell_mass.size + 1
    assert np.all(np.diff(edges) > 0.0)
    assert np.all((edges[:-1] < nodes) & (nodes < edges[1:]))
    assert float(post.cell_mass.sum()) == pytest.approx(1.0, abs=1e-12)


def test_beta_prior_below_one_holds_its_pile():
    # a Beta(0.5, 2) prior's density rises without bound towards sigma = 0;
    # the uniform trapezoid that the Gauss-Legendre cells replaced weighted
    # its node at 1e-6 with half a step and put the mean 0.18 sd low
    stats, M = from_sizes([20, 10, 5, 1]), 1.0
    prior = PriorSpec(sigma_kind="beta", beta_a=0.5, beta_b=2.0, M_value=M)
    s, c = stats.sizes.astype(float), stats.counts.astype(float)

    def density(t, k):
        # sigma = t^2 takes the prior's sigma^(-1/2) into the Jacobian 2t
        sigma = t * t
        a = M / sigma
        lp = ((stats.K - 1) * math.log(sigma) + gammaln(s - sigma) @ c
              - stats.K * gammaln(1.0 - sigma) + gammaln(a + stats.K)
              - gammaln(a + 1.0) + prior.log_density_sigma(sigma))
        return math.exp(lp) * 2.0 * t * sigma ** k

    z = [integrate.quad(density, 1e-3, math.sqrt(1.0 - 1e-6), args=(k,),
                        epsabs=0.0, epsrel=1e-12, limit=200)[0]
         for k in range(3)]
    mean = z[1] / z[0]
    sd = math.sqrt(z[2] / z[0] - mean ** 2)
    post = posterior_sigma(stats, prior)
    assert abs(post.mean - mean) < 1e-2 * sd and abs(post.sd - sd) < 1e-2 * sd


def test_posterior_csv_export(tmp_path):
    post = posterior_sigma(_stats(n=500))
    path = tmp_path / "post.csv"
    post.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sigma,log_density,cell_mass"
    assert len(lines) == post.sigma_nodes.size + 1
    assert all(all(field for field in line.split(",")) for line in lines)

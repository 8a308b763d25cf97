"""Monte Carlo and deterministic verification harness.

Every check is run_<check>(config) -> ExperimentReport for a name in CHECKS,
configured by one ExperimentConfig (from_dict reads its JSON form; the run
fills each field left None from the check's defaults in CHECKS).
Replication r draws from RngStream(config.seed, r) and results fold in
index order, so a report's JSON is byte-identical across reruns and worker
counts (modulo the wall-clock field).  With config.threads > 1 the replications run on forked
worker processes, after the parent has run replication 0 and so built the
tables and caches they inherit (_map_replications).  The deterministic
occupancy checks own no numerics of their own: their left-hand sides come
from asymptotics.OccupancySums, their right-hand sides from the closed
forms asymptotics.stirling_series and the quadrature
asymptotics.karlin_integrals.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import asymptotics, estimators, inference, partition
from .likelihood import log_eppf
from .numerics import g_sigma_values, log_gamma, normal_cdf
from .population import population_from_json
from .sampler import RngStream, sample_iid, sample_poissonized

_BOUNDARY_LOGLIK_SLACK = 0.5  # profile boundary indistinguishability

# check name -> the values its run gives the ExperimentConfig fields left None
CHECKS = {
    "normality": {"replications": 2},
    "bvm": {"replications": 2},
    "lemma_limits": {"replications": 2, "tolerance": 0.05},
    "root_rate": {"replications": 2},
    "tau1_mc": {"replications": 400, "tolerance": 0.10},
    "precision_profile": {"replications": 2},
    "forensic": {"replications": 2},
}


_OPTIONAL_KEYS = {"replications": partition.json_integer,
                  "M_values": partition.json_numbers,
                  "prior": inference.PriorSpec.from_dict,
                  "seed": partition.json_integer,
                  "M_max": partition.json_number,
                  "threads": partition.json_integer,
                  "tolerance": partition.json_number,
                  "sigma": partition.json_number}  # key -> reader of its value


@dataclass(frozen=True)
class ExperimentConfig:
    population: dict
    n_grid: tuple
    replications: int | None = None  # see CHECKS
    M_values: tuple = (0.0,)
    prior: inference.PriorSpec = field(default_factory=inference.PriorSpec)
    seed: int = 0
    M_max: float = 5.0
    threads: int = 1
    tolerance: float | None = None  # lemma_limits, tau1_mc; see CHECKS
    sigma: float | None = None  # lemma_limits; None means sigma0

    def __post_init__(self):
        if self.replications is not None and self.replications < 2:
            raise ValueError("need at least 2 replications")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if not isinstance(self.n_grid, (list, tuple)):
            raise ValueError("n_grid must be a list of positive integers")
        try:
            grid = tuple(partition.json_integer(n, integral_float=True)
                         for n in self.n_grid)
            if any(n < 1 for n in grid):
                raise ValueError
        except ValueError:
            raise ValueError("n_grid entries must be positive integers") \
                from None
        object.__setattr__(self, "n_grid", grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be nonempty and strictly increasing")

    @classmethod
    def from_dict(cls, d):
        """Config from experiment JSON, the only reader of that format.
        `population` and `n_grid` are required.  Another key that is absent
        or null keeps the field default, which a check's run replaces by its
        own where CHECKS has one (`resolved`); other keys (such as `check`)
        are ignored."""
        d = {k: v for k, v in partition.json_object(
            d, "experiment config").items() if v is not None}
        if missing := [k for k in ("population", "n_grid") if k not in d]:
            raise ValueError(f"experiment config has no key {missing[0]!r}")
        optional = {}
        for key, read in _OPTIONAL_KEYS.items():
            if key in d:
                try:
                    optional[key] = read(d[key])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{key}: {exc}") from None
        return cls(population=d["population"], n_grid=d["n_grid"],
                   **optional)

    def resolved(self, check):
        """The config `check` runs: each field left None takes the check's
        default from CHECKS."""
        return replace(self, **{k: v for k, v in CHECKS[check].items()
                                if getattr(self, k) is None})

    def to_dict(self):
        """The report's config block: every set field except `threads`."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "threads" and getattr(self, f.name) is not None}
        out["prior"] = self.prior.to_dict()
        return out


@dataclass(frozen=True)
class ExperimentReport:
    check: str
    config: dict
    results: dict
    passed: bool
    wall_clock: float

    def to_json(self, include_wall_clock=True):
        out = {"check": self.check, "config": self.config,
               "results": self.results, "passed": self.passed}
        if include_wall_clock:
            out["wall_clock"] = self.wall_clock
        return json.dumps(out, sort_keys=True, default=_jsonable)


def _jsonable(x):
    if isinstance(x, np.generic):  # np.bool_, np.int64, ...
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not serializable: {type(x)}")


def _check(body):
    """run_<check>(config) -> ExperimentReport from body(config, population)
    -> (results, passed); the one place a check is timed and reported, and
    the one place its config takes the check's defaults (`resolved`), so a
    config built directly and one read by from_dict run alike."""
    name = body.__name__.removeprefix("run_")

    @functools.wraps(body)
    def run(config):
        t0 = time.time()
        config = config.resolved(name)
        pop = population_from_json(config.population)
        if pop.rv is None:
            raise ValueError(f"{name} needs a power_law or synthetic "
                             f"population, not {pop.kind}")
        results, passed = body(config, pop)
        return ExperimentReport(name, config.to_dict(), results, passed,
                                time.time() - t0)

    return run


_replication = None  # the fn of _map_replications, bound in each worker


def _bind_replication(fn):
    global _replication
    _replication = fn


def _run_replication(r):
    return _replication(r)


def _map_replications(fn, config):
    """[fn(r) for r in range(config.replications)], on up to config.threads
    worker processes.

    With more than one worker, the parent runs replication 0 itself, which
    builds the population's cumulative table and the lru caches once, and
    then forks a pool that inherits them, and fn with them: only indices
    and results cross a pipe.  The workers run replications 1..R-1, one per
    task, and pool.map returns their results in index order, so a report
    does not depend on the worker count.  A worker whose parent has died
    exits on the broken pipe after its current replication."""
    count = config.replications
    workers = min(config.threads, count - 1, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(r) for r in range(count)]
    import multiprocessing

    first = fn(0)
    with multiprocessing.get_context("fork").Pool(
            workers, initializer=_bind_replication, initargs=(fn,)) as pool:
        return [first] + pool.map(_run_replication, range(1, count),
                                  chunksize=1)


def _iid_replications(config, pop, n, fn, fresh_singleton=False):
    """fn(stats) for the i.i.d. sample of size n drawn from
    RngStream(config.seed, r), for every replication r; with
    fresh_singleton the stats also hold one new block of size 1."""
    def one(r):
        _, sizes = sample_iid(pop, n, RngStream(config.seed, r))
        if fresh_singleton:
            sizes = np.append(sizes, 1)
        return fn(partition.from_occupancy(sizes))

    return _map_replications(one, config)


def _ks_normal(z):
    """Kolmogorov-Smirnov distance between the sample z and N(0, 1):
    max over the sorted z_(i) of i/n - Phi(z_(i)) and Phi(z_(i)) - (i-1)/n."""
    cdf = normal_cdf(np.sort(z))
    n = cdf.size
    return float(max(np.max(np.arange(1.0, n + 1.0) / n - cdf),
                     np.max(cdf - np.arange(0.0, n) / n)))


def _excluded_guard(excluded, total):
    rate = excluded / total
    if rate > 0.05:
        raise RuntimeError(
            f"boundary-estimate exclusion rate {rate:.1%} exceeds 5%")
    return rate


# ---------------------------------------------------------------------------
# Asymptotic normality of the empirical Bayes estimator


@_check
def run_normality(config, pop):
    if not config.M_values:
        raise ValueError("normality needs at least one M_values entry")
    M = config.M_values[0]
    R = config.replications
    per_n = {}
    ok = True
    for n in config.n_grid:
        s0n = asymptotics.sigma0n_root(pop, n)
        a0 = pop.alpha0(n)
        limit_var = asymptotics.tau1_sq(pop.rv.sigma0) \
            / asymptotics.tau2_sq(pop.rv.sigma0) ** 2

        def one(st, s0n=s0n, a0=a0):
            e = estimators.mle_sigma(st, M)
            return math.sqrt(a0) * (e.sigma_hat - s0n) if e.interior else None

        raw = _iid_replications(config, pop, n, one)
        z = np.array([v for v in raw if v is not None])
        excl = _excluded_guard(R - z.size, R)
        ks_stat = _ks_normal(z / math.sqrt(limit_var))
        ks_crit = 1.628 / math.sqrt(z.size)  # asymptotic 1% critical value
        mean_se = math.sqrt(limit_var / z.size)
        row = {
            "sigma0n": s0n, "alpha0n": a0, "limit_var": limit_var,
            "mean": float(z.mean()), "mean_se": mean_se,
            "var": float(z.var(ddof=1)),
            "var_se": float(_jackknife_var_se(z)),
            "var_ratio": float(z.var(ddof=1) / limit_var),
            "ks_stat": ks_stat, "ks_crit_01": ks_crit,
            "excluded_rate": excl,
        }
        row["pass"] = (abs(row["mean"]) <= 3.0 * mean_se
                       and abs(row["var_ratio"] - 1.0) <= 0.15
                       and row["ks_stat"] <= ks_crit)
        ok = ok and row["pass"]
        per_n[str(n)] = row
    return per_n, ok


def _jackknife_var_se(z):
    n = z.size
    if n < 3:  # delete-one samples are too small to carry a variance
        return 0.0
    jack = np.array([np.var(np.delete(z, i), ddof=1) for i in range(n)])
    return math.sqrt((n - 1) / n * np.sum((jack - jack.mean()) ** 2))


# ---------------------------------------------------------------------------
# Bernstein-von Mises comparison


@_check
def run_bvm(config, pop):
    from statistics import median  # np.median would import numpy.ma

    t2 = asymptotics.tau2_sq(pop.rv.sigma0)
    M = config.prior.M_value if config.prior.M_kind == "fixed" else 0.0
    med_gap = []
    med_drift = []
    for n in config.n_grid:
        a0 = pop.alpha0(n)
        var_bvm = 1.0 / (a0 * t2)

        def one(st, a0=a0, var_bvm=var_bvm):
            e = estimators.mle_sigma(st, M)
            post = inference.posterior_sigma(st, config.prior)
            gap = inference.bvm_gap(post, e.sigma_hat, var_bvm)
            drift = math.sqrt(a0) * abs(post.mean - e.sigma_hat)
            return gap, drift

        rows = _iid_replications(config, pop, n, one)
        med_gap.append(float(median(g for g, _ in rows)))
        med_drift.append(float(median(d for _, d in rows)))
    decreasing = all(b < a for a, b in zip(med_gap, med_gap[1:]))
    drift_dec = all(b < a for a, b in zip(med_drift, med_drift[1:]))
    results = {
        "n_grid": list(config.n_grid),
        "median_gap": med_gap, "median_scaled_drift": med_drift,
        "gap_decreasing": decreasing, "drift_decreasing": drift_dec,
        "final_gap": med_gap[-1],
    }
    return results, decreasing and drift_dec and med_gap[-1] < 0.1


# ---------------------------------------------------------------------------
# Deterministic score-moment limits


def lemma_limit_ratios(pop, n, sigma=None):
    """LHS/(alpha0(n) * RHS) for the eight Poissonized occupancy limits.

    LHS are exact sums of Poisson expectations over the atoms (no sampling),
    the rows of asymptotics.OccupancySums; RHS are their limits, in closed
    form for i to iv and from asymptotics.karlin_integrals for v to viii.
    sigma defaults to the population's sigma0.
    """
    gamma = pop.rv.sigma0
    sigma = gamma if sigma is None else sigma
    lhs = asymptotics.OccupancySums(pop, n)(sigma)
    gfac = math.exp(math.lgamma(1.0 - gamma))
    rhs = asymptotics.karlin_integrals(gamma, sigma)
    rhs["i"] = gfac
    rhs["ii"] = (2.0 ** gamma - 1.0) * gfac
    rhs["iii"], rhs["iv"] = asymptotics.stirling_series(gamma, sigma)
    a0 = pop.alpha0(n)
    return {k: float(lhs[k] / (a0 * rhs[k])) for k in lhs}


@_check
def run_lemma_limits(config, pop):
    """Ratio table along n_grid; the pass gate applies at the largest n."""
    n_grid = config.n_grid
    table = {str(int(n)): lemma_limit_ratios(pop, n, config.sigma)
             for n in n_grid}
    last = table[str(int(n_grid[-1]))]
    ok = all(abs(v - 1.0) <= config.tolerance for v in last.values())
    results = {"n_grid": [int(n) for n in n_grid],
               "tolerance": config.tolerance, "ratios": table}
    return results, ok


# ---------------------------------------------------------------------------
# Centering-root convergence rate


_SLOPE_LO, _SLOPE_HI = -0.65, -0.35  # accepted decay rate of |sigma0n - sigma0|


@_check
def run_root_rate(config, pop):
    n_grid = config.n_grid
    sigma0 = pop.rv.sigma0
    roots = [asymptotics.sigma0n_root(pop, n) for n in n_grid]
    results = {"n_grid": [int(n) for n in n_grid],
               "roots": roots, "sigma0": sigma0}
    if len(n_grid) < 2:
        results["slope"] = None
        return results, True
    gaps = np.abs(np.array(roots) - sigma0)
    slope = float(np.polyfit(np.log(np.array(n_grid, dtype=float)),
                             np.log(gaps), 1)[0])
    results["slope"] = slope
    bounded = pop.rv.log_power_r == 0.0
    results["slope_gated"] = bounded
    return results, _SLOPE_LO <= slope <= _SLOPE_HI if bounded else True


# ---------------------------------------------------------------------------
# tau1 Monte Carlo cross-check


@_check
def run_tau1_mc(config, pop):
    """Poissonized score variance at the last n_grid entry against tau1^2."""
    n = config.n_grid[-1]
    sigma = asymptotics.sigma0n_root(pop, n)
    a0 = pop.alpha0(n)

    def one(r):
        _, counts = sample_poissonized(pop, n, RngStream(config.seed, r))
        return float(counts.size / sigma
                     - np.sum(g_sigma_values(counts, sigma)))

    vals = np.array(_map_replications(one, config))
    var = float(vals.var(ddof=1) / a0)
    limit = asymptotics.tau1_sq(pop.rv.sigma0)
    results = {
        "n": int(n), "replications": config.replications, "sigma0n": sigma,
        "var_over_alpha": var, "tau1_sq": limit, "ratio": var / limit,
        "jackknife_se": float(_jackknife_var_se(vals) / a0),
    }
    return results, abs(var / limit - 1.0) <= config.tolerance


# ---------------------------------------------------------------------------
# Joint profile behavior of (sigma, M)


@_check
def run_precision_profile(config, pop):
    from statistics import median  # np.median would import numpy.ma

    K0, M0 = asymptotics.precision_limit(pop.rv.sigma0, pop.rv, config.M_max)

    def one(st):
        p = estimators.profile_mle(st, M_max=config.M_max)
        # "at the boundary" = the profile log likelihood at the predicted
        # boundary is statistically indistinguishable from the maximum
        if math.isinf(K0):
            sig_b = estimators.mle_sigma(st, M0).sigma_hat
            at_boundary = (abs(p.M_hat - M0) <= 1e-5
                           or p.log_lik - log_eppf(st, sig_b, M0)
                           <= _BOUNDARY_LOGLIK_SLACK)
        else:
            at_boundary = False
        sig_by_M = estimators.score_roots(st, config.M_values)[0]
        return p.M_hat, at_boundary, sig_by_M

    per_n = {}
    fractions = []
    for n in config.n_grid:
        rows = _iid_replications(config, pop, n, one)
        frac = float(np.mean([b for _, b, _ in rows]))
        fractions.append(frac)
        spread = max(float(np.ptp(s)) for _, _, s in rows) \
            if config.M_values else 0.0
        agree = spread <= 3.0 / math.sqrt(pop.alpha0(n))
        per_n[str(n)] = {
            "M_hat_median": float(median(m for m, _, _ in rows)),
            "boundary_fraction": frac,
            "sigma_spread_max": spread, "sigma_agreement": agree,
        }
    nondecreasing = all(b >= a for a, b in zip(fractions, fractions[1:]))
    results = {"K0": K0, "M0": M0, "per_n": per_n,
               "boundary_fractions": fractions,
               "nondecreasing": nondecreasing}
    ok = (not math.isinf(K0)) or (nondecreasing and fractions[-1] >= 0.6)
    return results, ok


# ---------------------------------------------------------------------------
# Forensic likelihood ratio


@_check
def run_forensic(config, pop):
    n = config.n_grid[-1]
    sigma0 = pop.rv.sigma0
    s0n = asymptotics.sigma0n_root(pop, n + 1)
    a0 = pop.alpha0(n)
    t1 = asymptotics.tau1_sq(sigma0)
    t2 = asymptotics.tau2_sq(sigma0)
    scale = math.sqrt(a0) * (1.0 - sigma0) ** 2 * t2 / math.sqrt(t1)

    def one(st):  # st holds the crime profile as a fresh singleton
        lr, phi_mean, _ = inference.forensic_lr(st, config.prior)
        z = scale * (1.0 / (n * phi_mean) - 1.0 / (1.0 - s0n))
        return z, lr > n + 1

    rows = _iid_replications(config, pop, n, one, fresh_singleton=True)
    z = np.array([v for v, _ in rows])
    lr_frac = float(np.mean([okk for _, okk in rows]))
    results = {
        "n": int(n), "replications": config.replications,
        "var_ratio": float(z.var(ddof=1)), "mean": float(z.mean()),
        "mean_se": float(z.std(ddof=1) / math.sqrt(z.size)),
        "lr_gt_n_plus_1_fraction": lr_frac,
        "ks_stat": _ks_normal(z),
        "ks_crit_01": 1.628 / math.sqrt(z.size),
    }
    return results, abs(results["var_ratio"] - 1.0) <= 0.20 and lr_frac == 1.0


# ---------------------------------------------------------------------------
# deterministic property checks (used by the verify suite and tests)


def binomial_identity_residual(n, l, p):
    """Relative residual of
    sum_{m=l+1}^n C(n,m) p^{m-1}(1-p)^{n-m-1}(m - np)
      = (n-l) C(n,l) p^l (1-p)^{n-l-1}."""
    # the terms telescope across ~200 orders of magnitude at p near 1, so
    # the check is done in exact rational arithmetic
    from fractions import Fraction

    q = Fraction(str(p))
    lhs = Fraction(0)
    for m in range(l + 1, n + 1):
        lhs += math.comb(n, m) * q ** (m - 1) \
            * (1 - q) ** (n - m - 1) * (m - n * q)
    rhs = (n - l) * math.comb(n, l) * q ** l \
        * (1 - q) ** (n - l - 1)
    if rhs == 0:
        return float(abs(lhs))
    return float(abs(lhs - rhs) / abs(rhs))


def stirling_ratio_envelope(gammas=(0.2, 0.5, 0.8), n_lo=10, n_hi=10 ** 6):
    """max over the grid of n * |Gamma(n-gamma) n^gamma / Gamma(n) - 1|
    (finite iff the ratio is 1 + O(1/n))."""
    n = np.geomspace(n_lo, n_hi, 200).astype(np.int64)
    n = n[np.diff(n, prepend=-1) > 0].astype(float)  # distinct, ascending
    worst = 0.0
    for gamma in gammas:
        ratio = np.exp(log_gamma(n - gamma) + gamma * np.log(n)
                       - log_gamma(n))
        worst = max(worst, float(np.max(n * np.abs(ratio - 1.0))))
    return worst


def moment_inequality_holds(s_values=(0.1, 1.0, 10.0),
                            deltas=(0.25, 0.5, 1.0), m_max=200):
    """sum_m s^m m^delta / m! <= s^delta e^s on the grid."""
    m = np.arange(1, m_max + 1, dtype=float)
    for s in s_values:
        terms = np.exp(m * math.log(s) - log_gamma(m + 1.0))
        for d in deltas:
            if float(np.sum(terms * m ** d)) > s ** d * math.exp(s) * (1 + 1e-12):
                return False
    return True


def log_factor_expansion_c(K_values=(10, 32, 100, 316, 1000, 3162, 10000),
                           M_values=(0.0, 1.0, 10.0),
                           sigmas=(0.25, 0.5, 0.75)):
    """Fitted universal constant c with
    |sum_{i<K} ln(M + i sigma) - [K ln K + K ln(sigma/e) + (M/sigma - 1/2) ln K
    + ln(sqrt(2 pi)/sigma) - ln Gamma(1 + M/sigma)]| <= c (M/sigma + 1)^2 / K."""
    worst = 0.0
    for K in K_values:
        i = np.arange(1, K, dtype=float)
        for M in M_values:
            for sigma in sigmas:
                a = M / sigma
                lhs = float(np.sum(np.log(M + i * sigma)))
                main = K * math.log(K) + K * math.log(sigma / math.e) \
                    + (a - 0.5) * math.log(K) \
                    + math.log(math.sqrt(2.0 * math.pi) / sigma) \
                    - math.lgamma(1.0 + a)
                worst = max(worst, abs(lhs - main) * K / (a + 1.0) ** 2)
    return worst


def verify_suite(fast=True):
    """Deterministic invariant checks; returns a list of
    (name, passed, detail) rows.  `fast` trims the expensive enumerations."""
    from itertools import product

    from .likelihood import eppf_total_mass
    from .sampler import exact_partition_law

    rows = []
    n_norm = 6 if fast else 8
    worst = 0.0
    for sigma, M in product((0.25, 0.5, 0.75), (0.0, 0.5, 1.0, 5.0)):
        for n in range(2, n_norm + 1):
            worst = max(worst, abs(eppf_total_mass(n, sigma, M) - 1.0))
    rows.append((f"eppf normalization (n <= {n_norm})", worst <= 1e-10,
                 f"max |mass - 1| = {worst:.2e}"))

    worst = 0.0
    for sigma, M in ((0.25, 0.5), (0.5, 1.0), (0.75, 0.0)):
        for blocks, prob in exact_partition_law(sigma, M, 4).items():
            stats = partition.from_sizes([len(b) for b in blocks])
            worst = max(worst, abs(prob - math.exp(log_eppf(stats, sigma, M))))
    rows.append(("sequential construction law vs eppf (n = 4)",
                 worst <= 1e-12, f"max deviation = {worst:.2e}"))

    worst = 0.0
    for gamma in (0.2, 0.35, 0.5, 0.65, 0.8):
        worst = max(worst, abs(asymptotics.E0_series(gamma, gamma)))
        target = math.exp(math.lgamma(1.0 - gamma)) / gamma
        eg = asymptotics.karlin_integrals(gamma, gamma)["iii"]
        worst = max(worst, abs(eg / target - 1.0))
    rows.append(("series identities", worst <= 1e-7,
                 f"max residual = {worst:.2e}"))

    worst = 0.0
    h = 1e-4
    for s0 in (0.25, 0.5, 0.75):
        fd = (asymptotics.E0_series(s0 - h, s0)
              - asymptotics.E0_series(s0 + h, s0)) / (2.0 * h)
        worst = max(worst, abs(fd / asymptotics.tau2_sq(s0) - 1.0))
    rows.append(("tau2 vs finite difference", worst <= 1e-4,
                 f"max rel err = {worst:.2e}"))

    worst = 0.0
    for n in (5, 20, 100):
        for p in (0.01, 0.3, 0.9):
            for l in range(0, n, max(1, n // 5)):
                worst = max(worst, binomial_identity_residual(n, l, p))
    rows.append(("binomial summation identity", worst <= 1e-10,
                 f"max rel residual = {worst:.2e}"))

    c = stirling_ratio_envelope()
    rows.append(("Stirling ratio O(1/n) envelope", c < 5.0,
                 f"fitted c = {c:.3f}"))
    rows.append(("Poisson moment inequality", moment_inequality_holds(), ""))
    c = log_factor_expansion_c()
    rows.append(("log-factor expansion remainder", c < 5.0,
                 f"fitted c = {c:.3f}"))

    if not fast:
        rep = run_lemma_limits(ExperimentConfig(
            population={"kind": "power_law", "alpha": 2.0},
            n_grid=(10 ** 5,), tolerance=0.10))
        ratios = rep.results["ratios"][str(10 ** 5)]
        rows.append(("occupancy limit ratios (n = 1e5, 10%)", rep.passed,
                     "worst ratio = "
                     f"{max(ratios.values(), key=lambda v: abs(v - 1.0)):.4f}"))
    return rows


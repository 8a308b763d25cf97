"""Estimation of the Pitman-Yor type parameter sigma (and precision M).

Empirical Bayes (maximum marginal likelihood) and full Bayes grid posteriors,
the supporting asymptotic constants (centering roots, sandwich variances),
the forensic likelihood ratio, and a reproducible Monte Carlo verification
harness.
"""

from .estimators import EstimateResult, mle_sigma, profile_mle, sandwich_se
from .inference import (PosteriorGrid, PriorSpec, bvm_gap, forensic_lr,
                        forensic_report, posterior_mean_and_interval,
                        posterior_sigma)
from .likelihood import h_precision, hess_sigma, log_eppf, score_sigma
from .partition import (PartitionStats, from_observations, from_occupancy,
                        from_sizes, read_occupancy_csv, read_sample_csv)
from .population import (Population, RegularVariation, make_explicit,
                         make_power_law, make_synthetic, population_from_json)
from .sampler import (OccupancyCounts, RngStream, sample_iid,
                      sample_poissonized, sample_py_partition,
                      stick_breaking_weights)

__version__ = "0.1.0"

__all__ = [
    "EstimateResult", "mle_sigma", "profile_mle", "sandwich_se",
    "PosteriorGrid", "PriorSpec", "bvm_gap", "forensic_lr", "forensic_report",
    "posterior_mean_and_interval", "posterior_sigma",
    "h_precision", "hess_sigma", "log_eppf", "score_sigma",
    "PartitionStats", "from_observations", "from_occupancy", "from_sizes",
    "read_occupancy_csv", "read_sample_csv",
    "Population", "RegularVariation", "make_explicit", "make_power_law",
    "make_synthetic", "population_from_json",
    "OccupancyCounts", "RngStream", "sample_iid", "sample_poissonized",
    "sample_py_partition", "stick_breaking_weights",
    "__version__",
]

"""Verification lab for the stochastic exponential of Brownian motion.

The package certifies three families of claims about z(t) =
exp(I(t) - qv(t)/2), where I is the Ito integral of a deterministic
integrand against Brownian motion and qv its accumulated square:

* finiteness of exp(qv/2) (the Novikov gate) via closed forms or quadrature,
* the martingale identity E z(t) = 1 and the p-th moment law
  E|z(t)|^p = exp(p(p-1) qv/2), by exact-law sampling under a splittable,
  worker-independent randomness contract,
* the pairing (Isserlis) structure of Gaussian moments and the resulting
  moment/cumulant series, with cumulants beyond order two structurally zero.
"""

from .integrand import (
    DEFAULT_TOL,
    DIVERGENCE_CAP,
    DivergentIntegralError,
    IntegrandDomainError,
    IntegrandSpec,
    NovikovReport,
    QuadVarProfile,
    TimeGrid,
    novikov_check,
    quad_var,
    quad_var_between,
    quad_var_profile,
)
from .paths import (
    DriftedPaths,
    PathBundle,
    SeedSpec,
    discrete_quad_var,
    gbm_drift,
    increments_checksum,
    ito_integral,
    read_binary,
    sample_brownian,
    stoch_exp_em,
    stoch_exp_exact,
    write_binary,
    write_csv,
)
from .wick import (
    CapacityError,
    LogRelationReport,
    PairPartition,
    SeriesTruncation,
    cgf_truncated,
    check_log_relation,
    compensated_series_mean,
    discrete_moment_oracle,
    enumerate_pairings,
    gaussian_moment,
    mgf_truncated,
    pairing_count,
)
from .estimators import (
    EstimateReport,
    MartingaleTestReport,
    SubmartingaleScan,
    drift_expectation_check,
    estimate_mean_z,
    estimate_p_moment,
    jackknife_mean_se,
    martingale_increment_test,
    p_moment_targets,
    reports_to_csv,
    submartingale_scan,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "DIVERGENCE_CAP",
    "CapacityError",
    "DivergentIntegralError",
    "DriftedPaths",
    "EstimateReport",
    "IntegrandDomainError",
    "IntegrandSpec",
    "LogRelationReport",
    "MartingaleTestReport",
    "NovikovReport",
    "PairPartition",
    "PathBundle",
    "QuadVarProfile",
    "SeedSpec",
    "SeriesTruncation",
    "SubmartingaleScan",
    "TimeGrid",
    "cgf_truncated",
    "check_log_relation",
    "compensated_series_mean",
    "discrete_moment_oracle",
    "discrete_quad_var",
    "drift_expectation_check",
    "enumerate_pairings",
    "estimate_mean_z",
    "estimate_p_moment",
    "gaussian_moment",
    "gbm_drift",
    "increments_checksum",
    "ito_integral",
    "jackknife_mean_se",
    "martingale_increment_test",
    "mgf_truncated",
    "novikov_check",
    "p_moment_targets",
    "pairing_count",
    "quad_var",
    "quad_var_between",
    "quad_var_profile",
    "read_binary",
    "reports_to_csv",
    "sample_brownian",
    "stoch_exp_em",
    "stoch_exp_exact",
    "submartingale_scan",
    "write_binary",
    "write_csv",
]

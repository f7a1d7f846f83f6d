"""Exact and certified-asymptotic counting of t-core partitions.

A t-core partition is one avoiding t among its hook lengths.  The package
computes the counts c_t(N) exactly with big-integer series arithmetic,
evaluates the Dedekind-eta special functions behind their saddle-point
asymptotics, produces log-space estimates with machine-checkable error
intervals, and verifies the adjacent-t monotonicity c_t(N) <= c_{t+1}(N)
both exhaustively and by certified interval separation.
"""

__version__ = "0.1.0"

from .backend import BACKEND
from .exact import (
    PartitionSeries,
    hook_lengths,
    log_of_integer,
    partition_numbers,
    tcore_count,
    tcore_count_bruteforce,
    tcore_count_closed_small_range,
    tcore_counts,
)
from .modular import (
    PolynomialTable,
    eta_log,
    eta_log_deriv,
    eta_log_deriv_prime,
    eta_quotient_log,
    expansion_polynomials,
    quotient_step_log,
    sigma,
)
from .saddle import (
    KappaConstants,
    SaddleResult,
    SolverError,
    kappa_constants,
    solve_saddle,
    solve_scaled_saddle,
)
from .asymptotics import (
    CertifiedEstimate,
    HypothesisError,
    estimate,
    estimate_big_t,
    estimate_difference,
    estimate_kappa,
    estimate_main,
    estimate_small_t,
    log_gamma,
    log_interval,
    select_regime,
)
from .verifier import (
    PairCertificate,
    VerificationReport,
    certify_interval_containment,
    certify_pair,
    verify_exact,
)

__all__ = [
    "BACKEND",
    "CertifiedEstimate",
    "HypothesisError",
    "KappaConstants",
    "PairCertificate",
    "PartitionSeries",
    "PolynomialTable",
    "SaddleResult",
    "SolverError",
    "VerificationReport",
    "certify_interval_containment",
    "certify_pair",
    "estimate",
    "estimate_big_t",
    "estimate_difference",
    "estimate_kappa",
    "estimate_main",
    "estimate_small_t",
    "eta_log",
    "eta_log_deriv",
    "eta_log_deriv_prime",
    "eta_quotient_log",
    "expansion_polynomials",
    "hook_lengths",
    "kappa_constants",
    "log_gamma",
    "log_interval",
    "log_of_integer",
    "partition_numbers",
    "quotient_step_log",
    "select_regime",
    "sigma",
    "solve_saddle",
    "solve_scaled_saddle",
    "tcore_count",
    "tcore_count_bruteforce",
    "tcore_count_closed_small_range",
    "tcore_counts",
    "verify_exact",
]

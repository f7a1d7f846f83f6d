"""Exact and certified-asymptotic counting of t-core partitions.

A t-core partition is one avoiding t among its hook lengths.  The package
computes the counts c_t(N) exactly with big-integer series arithmetic,
evaluates the Dedekind-eta special functions behind their saddle-point
asymptotics, produces log-space estimates with machine-checkable error
intervals, and verifies the adjacent-t monotonicity c_t(N) <= c_{t+1}(N)
both exhaustively and by certified interval separation.

Exact counts and the exhaustive scan load with the package.  The
certified-estimate modules (modular, saddle, asymptotics) load on the first
access of one of their names or of the module itself (PEP 562).
"""

__version__ = "0.1.0"

import sys

from . import exact, verifier
from .backend import BACKEND

# Public names by defining submodule: the one list behind __all__, the eager
# bindings and the lazy lookups.
_EXPORTS = {
    "exact": (
        "PartitionSeries",
        "hook_lengths",
        "log_of_integer",
        "partition_numbers",
        "tcore_count",
        "tcore_count_bruteforce",
        "tcore_count_closed_small_range",
        "tcore_counts",
    ),
    "verifier": (
        "PairCertificate",
        "VerificationReport",
        "certify_interval_containment",
        "certify_pair",
        "verify_exact",
    ),
    "modular": (
        "PolynomialTable",
        "eta_log",
        "eta_log_deriv",
        "eta_log_deriv_prime",
        "eta_quotient_log",
        "expansion_polynomials",
        "quotient_step_log",
        "sigma",
    ),
    "saddle": (
        "KappaConstants",
        "SaddleResult",
        "SolverError",
        "kappa_constants",
        "solve_saddle",
        "solve_scaled_saddle",
    ),
    "asymptotics": (
        "CertifiedEstimate",
        "HypothesisError",
        "estimate",
        "estimate_difference",
        "estimate_exact",
        "estimate_kappa",
        "estimate_main",
        "estimate_small_t",
        "log_gamma",
        "log_interval",
        "select_regime",
    ),
}
_LAZY_MODULES = ("modular", "saddle", "asymptotics")

globals().update(
    (name, getattr(sys.modules[f"{__name__}.{module}"], name))
    for module in ("exact", "verifier")
    for name in _EXPORTS[module]
)

# A lazy name maps to its module's entry in sys.modules.  It is looked up on
# every access and never bound here, so a function that a tracer swaps in
# (and out) of its module is what tcore.<name> reads at that moment.
_LAZY = {
    name: f"{__name__}.{module}" for module in _LAZY_MODULES for name in _EXPORTS[module]
}

__all__ = sorted(["BACKEND", *(name for names in _EXPORTS.values() for name in names)])


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        if name not in _LAZY_MODULES:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        module = f"{__name__}.{name}"
        __import__(module)  # binds the submodule here: no second call for it
        return sys.modules[module]
    try:
        return getattr(sys.modules[module], name)
    except (KeyError, AttributeError):  # not loaded yet, or loading in another thread
        __import__(module)
        return getattr(sys.modules[module], name)


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})

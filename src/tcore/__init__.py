"""Exact and certified-asymptotic counting of t-core partitions.

A t-core partition is one avoiding t among its hook lengths.  The package
computes the counts c_t(N) exactly with big-integer series arithmetic,
evaluates the Dedekind-eta special functions behind their saddle-point
asymptotics, produces log-space estimates with machine-checkable error
intervals, and verifies the adjacent-t monotonicity c_t(N) <= c_{t+1}(N)
both exhaustively and by certified interval separation.

``import tcore`` loads no submodule.  Each one loads on the first access of
one of its names or of the module itself (PEP 562), so a query loads only
what it runs: an exact count the kernels and exact, the scan the kernels and
verifier, a certified estimate modular, saddle and asymptotics, and a pair
certificate certify and, when it compares exact counts, exact as well.
"""

__version__ = "0.1.0"

import sys

# Public names by defining submodule: the one list behind __all__ and the
# lazy lookups.
_EXPORTS = {
    "backend": ("BACKEND",),
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
    "verifier": ("VerificationReport", "verify_exact"),
    "certify": ("PairCertificate", "certify_interval_containment", "certify_pair"),
    "modular": (
        "PolynomialTable",
        "eta_log",
        "eta_log_deriv",
        "eta_log_deriv_prime",
        "eta_quotient_log",
        "expansion_polynomials",
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
    "selftest": ("quotient_step_log",),
}

# A name maps to its module's entry in sys.modules.  It is looked up on every
# access and never bound here, so a function that a tracer swaps in (and out)
# of its module is what tcore.<name> reads at that moment.
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAZY)


def __getattr__(name):
    owner = _LAZY.get(name)
    if owner is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{owner or name}"
    # returns at once for a loaded module and waits out a load that another
    # thread began, so no thread reads a half-initialized module; the import
    # binds the submodule here, so its own name never comes back this way
    __import__(module)
    loaded = sys.modules[module]
    return loaded if owner is None else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *_LAZY, *_EXPORTS})

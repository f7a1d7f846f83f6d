"""Certified log-space estimates of t-core counts.

Each estimator returns a CertifiedEstimate: the natural log of a main term
together with (when the regime is certified) a rigorous relative error bound,
so that the exact count is guaranteed to satisfy

    log c  in  [log_value + log(1 - rel_error_bound),
                log_value + log(1 + rel_error_bound)]

whenever hypotheses_ok is true.  Every certified bound is padded by an
absolute 1e-9 to absorb solver and series roundoff; all arithmetic stays in
log space because the main terms overflow doubles long before the scales of
interest.
"""

import math
from typing import NamedTuple, Optional

from .modular import eta_quotient_log
from .saddle import (
    INTERVAL_PADDING,
    ROUNDOFF_REL,
    SaddleResult,
    kappa_constants,
    shifted_index,
    solve_saddle,
)

HYP_SLACK = 1e-9  # numeric slack when checking hypothesis inequalities
# Largest n the exact regime accepts: it grows the exact p-series to n, a
# pure-Python bignum job of several seconds at this size that grows
# superlinearly beyond it.
EXACT_REGIME_MAX_N = 100_000


class HypothesisError(ValueError):
    """A regime was forced whose hypotheses do not hold."""


class CertifiedEstimate(NamedTuple):
    """Log-space main term + rigorous relative error bound (None when the
    regime carries no explicit constant).  diagnostics defaults to None
    rather than a dict that every default-built estimate would share; every
    estimator passes a dict of its own."""

    log_value: float
    rel_error_bound: Optional[float]
    regime: str
    hypotheses_ok: bool
    diagnostics: Optional[dict] = None


def log_interval(est: CertifiedEstimate) -> tuple:
    """Certified enclosure of log c in natural-log units."""
    if est.rel_error_bound is None or est.rel_error_bound >= 1.0:
        raise HypothesisError(f"regime {est.regime} carries no usable interval")
    r = est.rel_error_bound
    return est.log_value + math.log1p(-r), est.log_value + math.log1p(r)


def _holds(lhs: float, rhs: float) -> bool:
    """lhs >= rhs, with tiny slack against float fuzz."""
    return lhs >= rhs - HYP_SLACK * max(1.0, abs(rhs))


# --- log gamma ----------------------------------------------------------------

def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 (math.lgamma, with the domain made explicit)."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    return math.lgamma(x)


# --- the saddle-point estimators ------------------------------------------------

def _saddle_diagnostics(res: SaddleResult) -> dict:
    return {
        "y": res.y,
        "curvature": res.curvature,
        "drift": res.drift,
        "shifted_index": res.shifted_index,
    }


def estimate_main(t: int, n: int) -> CertifiedEstimate:
    """Saddle-point main term with the explicit 3.5/curvature error bound.

    Certified when min(t, 1/y) >= 1000, the scaled tilt |drift| < 2/25
    (automatic at the solved saddle, where the residual vanishes), and the
    exponent 2 pi M y, which cancels against the eta quotient, is small
    enough that its rounding stays within the padding
    (ROUNDOFF_REL * 2 pi M y <= INTERVAL_PADDING).
    """
    res = solve_saddle(t, n)
    y = res.y
    d2_diff = res.curvature * y  # = D_2(iy) - D_2(ity)
    log_ft = eta_quotient_log(complex(0.0, y), t).real
    exponent = 2.0 * math.pi * res.shifted_index * y
    log_value = 1.5 * math.log(y) + exponent + log_ft - 0.5 * math.log(d2_diff)
    rel = 3.5 * y / d2_diff + INTERVAL_PADDING
    hyp = (
        _holds(min(t, 1.0 / y), 1000.0)
        and abs(res.drift) < 2.0 / 25.0
        and ROUNDOFF_REL * exponent <= INTERVAL_PADDING
    )
    return CertifiedEstimate(
        log_value=log_value,
        rel_error_bound=rel,
        regime="main",
        hypotheses_ok=hyp,
        diagnostics=_saddle_diagnostics(res),
    )


def estimate_difference(t: int, n: int) -> CertifiedEstimate:
    """Certified multiplier interval for the adjacent-t difference:

        c_{t+1}(n+t) - c_t(n+t)  in  c_t(n) * [center - E, center + E],

    center = 2 pi t y - 1, E = t y (705 y + 120 t y e^(-2 pi t y)), with y the
    saddle ordinate for (t, n).  Certified when min(t, 1/y) >= 1000,
    t y >= 1/2, and y is within the solver's guarantees: its relative
    rounding, which grows with (t y)^2, stays within the padding
    (ROUNDOFF_REL * (t y)^2 <= INTERVAL_PADDING).
    log_value is the log of the (positive) center; the consumer multiplies
    by an exact or certified c_t(n).
    """
    res = solve_saddle(t, n)
    y = res.y
    ty = t * y
    center = 2.0 * math.pi * ty - 1.0
    halfwidth = ty * (705.0 * y + 120.0 * ty * math.exp(-2.0 * math.pi * ty))
    hyp = (
        _holds(min(t, 1.0 / y), 1000.0)
        and _holds(ty, 0.5)
        and res.within_guarantees
    )
    diagnostics = _saddle_diagnostics(res)
    diagnostics["multiplier_center"] = center
    diagnostics["multiplier_halfwidth"] = halfwidth
    if center > 0.0:
        log_value = math.log(center)
        rel = halfwidth / center + INTERVAL_PADDING
    else:
        log_value = math.nan
        rel = math.inf
        hyp = False
    return CertifiedEstimate(
        log_value=log_value,
        rel_error_bound=rel,
        regime="difference",
        hypotheses_ok=hyp,
        diagnostics=diagnostics,
    )


def small_t_hypotheses(t: int, n: int) -> bool:
    """t >= 8, M >= 100000 and t(t-1)/(4 pi M) < (1/5) min(2/sqrt 3, 2 pi/log t)."""
    if t < 8:
        return False
    m = shifted_index(t, n)
    if not _holds(m, 100_000.0):
        return False
    lhs = t * (t - 1) / (4.0 * math.pi * m)
    rhs = 0.2 * min(2.0 / math.sqrt(3.0), 2.0 * math.pi / math.log(t))
    return lhs < rhs + HYP_SLACK


def estimate_small_t(t: int, n: int) -> CertifiedEstimate:
    """Closed-form main term (2 pi)^((t-1)/2) / (t^(t/2) Gamma((t-1)/2))
    * M^((t-3)/2) with explicit error 2.5 e^(-t/8) + 20 t^-4."""
    if t < 8:
        raise ValueError("small-t estimate requires t >= 8")
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = shifted_index(t, n)
    log_value = (
        0.5 * (t - 1) * math.log(2.0 * math.pi)
        - 0.5 * t * math.log(t)
        - log_gamma(0.5 * (t - 1))
        + 0.5 * (t - 3) * math.log(m)
    )
    rel = 2.5 * math.exp(-t / 8.0) + 20.0 * t**-4.0 + INTERVAL_PADDING
    return CertifiedEstimate(
        log_value=log_value,
        rel_error_bound=rel,
        regime="small_t",
        hypotheses_ok=small_t_hypotheses(t, n),
        diagnostics={"shifted_index": m, "y": (t - 1) / (4.0 * math.pi * m)},
    )


def big_t_threshold(n: int) -> float:
    """1.5 (sqrt 6 / 2 pi) sqrt(n) log(n): the exact regime takes t above it,
    where its inner factor has degree n // t < sqrt(n) / (0.58 log n)."""
    if n < 2:
        return 0.0
    return 1.5 * math.sqrt(6.0) / (2.0 * math.pi) * math.sqrt(n) * math.log(n)


def estimate_exact(t: int, n: int) -> CertifiedEstimate:
    """The log of the exact count c_t(n), for t above big_t_threshold(n) and
    n up to EXACT_REGIME_MAX_N.  Its cost is that of the p-series to n; the
    inner factor above the threshold is short.  The bound is the padding
    alone (log_of_integer is accurate to ~1 ulp).  A zero count (t = 2 or 3
    only) has no log-space interval: log_value is -inf, rel_error_bound is
    None and the estimate is not certified.  diagnostics["count"] holds the
    count as a decimal string."""
    if t < 2:
        raise ValueError("t must be >= 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > EXACT_REGIME_MAX_N:
        raise ValueError(
            f"n {n} exceeds the exact regime cap {EXACT_REGIME_MAX_N}: the exact "
            "count needs p-values up to n, whose cost grows superlinearly in n"
        )
    if t <= big_t_threshold(n):
        raise HypothesisError(
            f"exact regime needs t > {big_t_threshold(n):.6g} at n = {n}, not t = {t}"
        )
    from . import exact

    count = exact.tcore_count(t, n)
    certified = count > 0
    return CertifiedEstimate(
        log_value=exact.log_of_integer(count) if certified else -math.inf,
        rel_error_bound=INTERVAL_PADDING if certified else None,
        regime="exact",
        hypotheses_ok=certified,
        diagnostics={"count": str(count)},
    )


def estimate_kappa(t: int, n: int) -> CertifiedEstimate:
    """Growth-law heuristic 2 pi sqrt(A n) - log(B n) with kappa = t^2/n.

    The error is o(1) with no explicit constant, so this estimate is never
    certified (hypotheses_ok is always False)."""
    if t < 2 or n < 1:
        raise ValueError("requires t >= 2 and n >= 1")
    kappa = t * t / n
    consts = kappa_constants(kappa)
    log_value = 2.0 * math.pi * math.sqrt(consts.A * n) - math.log(consts.B * n)
    return CertifiedEstimate(
        log_value=log_value,
        rel_error_bound=None,
        regime="kappa_heuristic",
        hypotheses_ok=False,
        diagnostics={"kappa": kappa, "v": consts.v, "A": consts.A, "B": consts.B},
    )


def certified_estimate(t: int, n: int) -> Optional[CertifiedEstimate]:
    """The certified single-point estimate at (t, n): small_t when its
    hypotheses hold, else main when its hypotheses hold, else None (also
    outside t >= 2, n >= 1, where neither regime applies)."""
    if t < 2 or n < 1:
        return None
    if small_t_hypotheses(t, n):
        return estimate_small_t(t, n)
    est = estimate_main(t, n)
    return est if est.hypotheses_ok else None


def select_regime(t: int, n: int) -> str:
    """The certified regime whose hypotheses hold (certified_estimate);
    otherwise the exact count when t is above big_t_threshold(n), else the
    kappa heuristic, which is uncertified."""
    if t < 2:
        raise ValueError("t must be >= 2")
    est = certified_estimate(t, n)
    if est is not None:
        return est.regime
    if t > big_t_threshold(n):
        return "exact"
    return "kappa_heuristic"


_ESTIMATORS = {
    "main": estimate_main,
    "small_t": estimate_small_t,
    "exact": estimate_exact,
    "kappa_heuristic": estimate_kappa,
    "difference": estimate_difference,
}


def estimate(t: int, n: int, regime: str = "auto") -> CertifiedEstimate:
    """Dispatch: auto-select a regime or force one by name."""
    if regime == "auto":
        regime = select_regime(t, n)
    if regime not in _ESTIMATORS:
        raise ValueError(f"unknown regime {regime!r}")
    return _ESTIMATORS[regime](t, n)

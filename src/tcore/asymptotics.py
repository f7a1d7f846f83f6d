"""Certified log-space estimates of t-core counts.

Each estimator returns a CertifiedEstimate: the natural log of a main term
together with (when the regime is certified) a rigorous relative error bound,
so that the exact count is guaranteed to satisfy

    log c  in  [log_value + log(1 - rel_error_bound),
                log_value + log(1 + rel_error_bound)]

whenever hypotheses_ok is true.  Every certified bound is padded for the
rounding of its value (_pad); all arithmetic stays in log space because the
main terms overflow doubles long before the scales of interest.
"""

import math
from typing import NamedTuple, Optional

from .modular import eta_log
from .saddle import SaddleResult, kappa_constants, shifted_index, solve_saddle

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

    @property
    def certified(self) -> bool:
        """The hypotheses hold and the interval is usable (rel_error_bound < 1)."""
        return self.hypotheses_ok and self.rel_error_bound < 1.0


def log_interval(est: CertifiedEstimate) -> tuple:
    """Certified enclosure of log c in natural-log units."""
    if est.rel_error_bound is None or est.rel_error_bound >= 1.0:
        raise HypothesisError(f"regime {est.regime} carries no usable interval")
    r = est.rel_error_bound
    return est.log_value + math.log1p(-r), est.log_value + math.log1p(r)


# --- log gamma ----------------------------------------------------------------

def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 (math.lgamma, with the domain made explicit)."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    return math.lgamma(x)


INTERVAL_PADDING = 1e-9  # least inflation of every certified bound
# Rounding of a certified log, relative to the sum of |terms| that cancel
# inside it (_pad), for the main-term and small-t logs.  Against 50- and
# 60-digit evaluations at t = 1e3 to 1e12 it stayed below 4 and 1.2 units
# of 2^-53, so 8 ulp of 1 keeps a margin of 4x.
ROUNDOFF_REL = 8.0 * 2.0**-52
SADDLE_MIN_T = 1000  # the certified saddle regimes need min(t, 1/y) >= this, so t >= it


def _pad(*terms: float) -> float:
    """ROUNDOFF_REL times the sum of |terms| that cancel in a certified value,
    at least INTERVAL_PADDING: a forward-error bound (Higham 2002, sec. 3)."""
    return max(INTERVAL_PADDING, ROUNDOFF_REL * sum(map(abs, terms)))


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

    Certified when min(t, 1/y) >= SADDLE_MIN_T and the scaled tilt
    |drift| < 2/25 (automatic at the solved saddle, where the residual
    vanishes).  The pad covers the terms that cancel in log_value: the
    exponent 2 pi M y and the two halves of the eta quotient, whose parts
    of size pi/(12 y) cancel.  Where the curvature rounds to <= 0
    (n vast against t) log_value is nan and nothing is certified.
    """
    res = solve_saddle(t, n)
    y = res.y
    d2_diff = res.curvature * y  # = D_2(iy) - D_2(ity)
    if not d2_diff > 0.0:
        return CertifiedEstimate(
            log_value=math.nan, rel_error_bound=math.inf, regime="main",
            hypotheses_ok=False, diagnostics=_saddle_diagnostics(res),
        )
    log_y = 1.5 * math.log(y)
    exponent = 2.0 * math.pi * res.shifted_index * y
    eta_t = t * eta_log(complex(0.0, t * y)).real
    eta_1 = eta_log(complex(0.0, y)).real
    log_d2 = 0.5 * math.log(d2_diff)
    log_value = log_y + exponent + (eta_t - eta_1) - log_d2
    rel = 3.5 * y / d2_diff + _pad(log_y, exponent, eta_t, eta_1, log_d2)
    hyp = min(t, 1.0 / y) >= SADDLE_MIN_T and abs(res.drift) < 2.0 / 25.0
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
    saddle ordinate for (t, n), which the solver holds within
    saddle.Y_REL_TOL of the root (no term of its residual has size t^2).
    Certified when t >= SADDLE_MIN_T, 1/y >= SADDLE_MIN_T and t y >= 1/2;
    rel is E/center plus INTERVAL_PADDING.  log_value is the log of the
    (positive) center; the consumer multiplies by an exact or certified
    c_t(n).
    """
    res = solve_saddle(t, n)
    y = res.y
    ty = t * y
    center = 2.0 * math.pi * ty - 1.0
    halfwidth = ty * (705.0 * y + 120.0 * ty * math.exp(-2.0 * math.pi * ty))
    hyp = t >= SADDLE_MIN_T and 1.0 / y >= SADDLE_MIN_T and ty >= 0.5
    diagnostics = _saddle_diagnostics(res)
    diagnostics["multiplier_center"] = center
    diagnostics["multiplier_halfwidth"] = halfwidth
    if center > 0.0:
        log_value, rel = math.log(center), halfwidth / center + INTERVAL_PADDING
    else:  # t y <= 1/(2 pi), so hyp is already false
        log_value, rel = math.nan, math.inf
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
    if m < 100_000.0:
        return False
    lhs = t * (t - 1) / (4.0 * math.pi * m)
    rhs = 0.2 * min(2.0 / math.sqrt(3.0), 2.0 * math.pi / math.log(t))
    return lhs < rhs


def estimate_small_t(t: int, n: int) -> CertifiedEstimate:
    """Closed-form main term (2 pi)^((t-1)/2) / (t^(t/2) Gamma((t-1)/2))
    * M^((t-3)/2) with explicit error 2.5 e^(-t/8) + 20 t^-4.  Its pad (16u,
    u = 2^-53, times the sum of the four |terms|) is twice a forward-error
    bound: each term is within gamma_5 of itself (a log within 1 ulp; M's four
    roundings over log M > 11; a product; t past 2^53; lgamma within 1.84u of
    60-digit mpmath at t = 1e3..1e12), and the three additions add gamma_3."""
    if t < 8:
        raise ValueError("small-t estimate requires t >= 8")
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = shifted_index(t, n)
    pi_term = 0.5 * (t - 1) * math.log(2.0 * math.pi)
    t_term = 0.5 * t * math.log(t)
    gamma_term = log_gamma(0.5 * (t - 1))
    m_term = 0.5 * (t - 3) * math.log(m)
    log_value = pi_term - t_term - gamma_term + m_term
    rel = 2.5 * math.exp(-t / 8.0) + 20.0 * t**-4.0 + _pad(pi_term, t_term, gamma_term, m_term)
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


def exact_regime_holds(t: int, n: int) -> bool:
    """The exact regime's rule: t > big_t_threshold(n), where the inner factor
    is short, and n <= EXACT_REGIME_MAX_N, where the p-series to n is cheap
    (tested first, so big_t_threshold never sees an n past a double)."""
    return n <= EXACT_REGIME_MAX_N and t > big_t_threshold(n)


def estimate_exact(t: int, n: int) -> CertifiedEstimate:
    """The log of the exact count c_t(n) where exact_regime_holds(t, n).
    Its cost is that of the p-series to n.  The bound is the padding
    alone (log_of_integer is accurate to ~1 ulp).  A zero count (t = 2 or 3
    only) has no log-space interval: log_value is -inf, rel_error_bound is
    None and the estimate is not certified.  diagnostics["count"] holds the
    count as a decimal string."""
    if t < 2:
        raise ValueError("t must be >= 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not exact_regime_holds(t, n):
        if n > EXACT_REGIME_MAX_N:
            raise ValueError(
                f"n {n} exceeds the exact regime cap {EXACT_REGIME_MAX_N}: the exact "
                "count needs p-values up to n, whose cost grows superlinearly in n"
            )
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
    """Growth-law heuristic 2 pi sqrt(A n) - log B - log n with kappa = t^2/n.

    The error is o(1) with no explicit constant, so this estimate is never
    certified (hypotheses_ok is always False).  ValueError outside t >= 2,
    n >= 1 and the float domain of shifted_index."""
    if t < 2 or n < 1:
        raise ValueError("requires t >= 2 and n >= 1")
    shifted_index(t, n)
    kappa = t * t / n
    consts = kappa_constants(kappa)
    log_value = 2.0 * math.pi * math.sqrt(consts.A * n) - math.log(consts.B) - math.log(n)
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
    outside t >= 2, n >= 1, where neither regime applies).  It must be
    certified (CertifiedEstimate.certified), whose usable interval the pad
    for rounding denies from t ~ 1e13."""
    if small_t_hypotheses(t, n):  # false outside t >= 8, n >= 1
        est = estimate_small_t(t, n)
    elif t < SADDLE_MIN_T or n < 1:  # main's min(t, 1/y) fails, or there is no saddle
        return None
    else:
        est = estimate_main(t, n)
    return est if est.certified else None


def certified_difference(t: int, m: int) -> Optional[CertifiedEstimate]:
    """The certified multiplier interval of c_{t+1}(m + t) - c_t(m + t) over
    c_t(m) (estimate_difference), else None.  Solved only inside the route's
    a-priori reach t >= SADDLE_MIN_T, m >= 1 and 24 m - 1 < 4 t^2: past it,
    t times saddle_bracket's hi = 1/(3/pi + sqrt(24 m - 1 + 9/pi^2)) is
    below 1/2, so t y >= 1/2 fails."""
    if t < SADDLE_MIN_T or m < 1 or 24 * m - 1 >= 4 * t * t:
        return None
    est = estimate_difference(t, m)
    return est if est.certified else None


def select_regime(t: int, n: int) -> str:
    """The certified regime whose hypotheses hold (certified_estimate);
    otherwise the exact count where exact_regime_holds(t, n), else the
    kappa heuristic, which is uncertified."""
    if t < 2:
        raise ValueError("t must be >= 2")
    est = certified_estimate(t, n)
    if est is not None:
        return est.regime
    if exact_regime_holds(t, n):
        return "exact"
    return "kappa_heuristic"


_ESTIMATORS = {
    "main": estimate_main,
    "small_t": estimate_small_t,
    "exact": estimate_exact,
    "kappa_heuristic": estimate_kappa,
}


def estimate(t: int, n: int, regime: str = "auto") -> CertifiedEstimate:
    """Dispatch: auto-select a regime or force one by name."""
    if regime == "auto":
        regime = select_regime(t, n)
    if regime not in _ESTIMATORS:
        raise ValueError(f"unknown regime {regime!r}")
    return _ESTIMATORS[regime](t, n)

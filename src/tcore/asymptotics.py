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

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

from . import exact
from .modular import eta_log_deriv, eta_quotient_log
from .saddle import SaddleResult, kappa_constants, solve_saddle

INTERVAL_PADDING = 1e-9  # absolute inflation of every certified bound
HYP_SLACK = 1e-9  # numeric slack when checking hypothesis inequalities
BIG_T_EPS = 0.5  # default margin in the big-t regime threshold


class HypothesisError(ValueError):
    """A regime was forced whose hypotheses do not hold."""


@dataclass(frozen=True)
class CertifiedEstimate:
    """Log-space main term + rigorous relative error bound (None when the
    regime carries no explicit constant)."""

    log_value: float
    rel_error_bound: Optional[float]
    regime: str
    hypotheses_ok: bool
    diagnostics: dict = field(default_factory=dict)


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

# Stirling tail coefficients: x^-1, x^-3, ..., x^-13
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    7.0 / 1092.0,
)


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 by the Stirling series, shifting the argument
    up to >= 10 where the truncated tail is below 1e-15 relative."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    shift = 0.0
    while x < 10.0:
        shift -= math.log(x)
        x += 1.0
    acc = (x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi)
    inv = 1.0 / x
    inv2 = inv * inv
    p = inv
    for c in _STIRLING:
        acc += c * p
        p *= inv2
    return acc + shift


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

    Certified when min(t, 1/y) >= 1000 and the scaled tilt |drift| < 2/25
    (automatic at the solved saddle, where the residual vanishes).
    """
    res = solve_saddle(t, n)
    y = res.y
    d2_diff = res.curvature * y  # = D_2(iy) - D_2(ity)
    log_ft = eta_quotient_log(complex(0.0, y), t).real
    log_value = (
        1.5 * math.log(y)
        + 2.0 * math.pi * res.shifted_index * y
        + log_ft
        - 0.5 * math.log(d2_diff)
    )
    rel = 3.5 * y / d2_diff + INTERVAL_PADDING
    hyp = _holds(min(t, 1.0 / y), 1000.0) and abs(res.drift) < 2.0 / 25.0
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
    saddle ordinate for (t, n).  Certified when min(t, 1/y) >= 1000 and
    t y >= 1/2.  log_value is the log of the (positive) center; the consumer
    multiplies by an exact or certified c_t(n).
    """
    res = solve_saddle(t, n)
    y = res.y
    ty = t * y
    center = 2.0 * math.pi * ty - 1.0
    halfwidth = ty * (705.0 * y + 120.0 * ty * math.exp(-2.0 * math.pi * ty))
    hyp = _holds(min(t, 1.0 / y), 1000.0) and _holds(ty, 0.5)
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
    m = n + (t * t - 1) / 24.0
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
    m = n + (t * t - 1) / 24.0
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


def big_t_threshold(n: int, eps: float = BIG_T_EPS) -> float:
    """t must exceed (1+eps) (sqrt 6 / 2 pi) sqrt(n) log(n) for the hybrid
    remainder expansion to be in regime."""
    if n < 2:
        return 0.0
    return (1.0 + eps) * math.sqrt(6.0) / (2.0 * math.pi) * math.sqrt(n) * math.log(n)


def estimate_big_t(t: int, n: int, eps: float = BIG_T_EPS) -> CertifiedEstimate:
    """Hybrid estimate p(n) - t p(n-t) built from exact p-values, with the
    residual scale t^2 p(n-2t) reported separately (no explicit constant is
    available, so the bound is not rigorous and rel_error_bound is None)."""
    if t < 2:
        raise ValueError("t must be >= 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = exact._partition_values(n)
    main = p[n] - (t * p[n - t] if n >= t else 0)
    residual = t * t * p[n - 2 * t] if n >= 2 * t else 0
    if main <= 0:
        if n >= 2 * t:
            raise ValueError(
                f"nonpositive main term at (t, n) = ({t}, {n}): far outside regime"
            )
        log_value = math.nan
    else:
        log_value = exact.log_of_integer(main)
    diagnostics = {
        "residual_scale_log": exact.log_of_integer(residual) if residual > 0 else None,
        "threshold": big_t_threshold(n, eps),
        "eps": eps,
    }
    return CertifiedEstimate(
        log_value=log_value,
        rel_error_bound=None,
        regime="big_t_hybrid",
        hypotheses_ok=t > big_t_threshold(n, eps),
        diagnostics=diagnostics,
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


def select_regime(t: int, n: int) -> str:
    """The certified regime whose hypotheses hold (small_t preferred, then
    main); otherwise the big-t hybrid when in its range, else the kappa
    heuristic - both uncertified."""
    if t < 2:
        raise ValueError("t must be >= 2")
    if t >= 8 and small_t_hypotheses(t, n):
        return "small_t"
    if n >= 1:
        try:
            if estimate_main(t, n).hypotheses_ok:
                return "main"
        except Exception:
            pass
    if t > big_t_threshold(n):
        return "big_t_hybrid"
    return "kappa_heuristic"


_ESTIMATORS = {
    "main": estimate_main,
    "small_t": estimate_small_t,
    "big_t_hybrid": estimate_big_t,
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


# --- quadrature checks ----------------------------------------------------------
# SciPy is imported inside the functions that use it: only these checks need
# it, and loading it would be most of the cost of `import tcore`.

@dataclass(frozen=True)
class GaussianCheck:
    i_value: complex
    j_value: complex
    bounds_ok: bool
    quad_error: float


def _quad_complex(f, a, b, **kw) -> tuple:
    from scipy.integrate import quad

    re, re_err = quad(lambda x: f(x).real, a, b, **kw)
    im, im_err = quad(lambda x: f(x).imag, a, b, **kw)
    return complex(re, im), re_err + im_err


def gaussian_integral_check(
    curvature: float, drift: float, skew: float, err_factor: complex
) -> GaussianCheck:
    """Quadrature check of the truncated-Gaussian bounds: for curvature > 38,
    |drift| < 2/25, |skew| < 1 and any unit-disc err_factor,

        I = int_{-1/3}^{1/3} e(drift x) exp(-pi a x^2 (1 + 2i skew x
            + err_factor 3 x^2)) dx         satisfies |I - a^-1/2| <= 3.45 a^-3/2,
        J = the same integral with an extra factor x    satisfies |J| <= 2 a^-3/2.
    """
    if not curvature > 38.0:
        raise ValueError("requires curvature > 38")
    if not abs(drift) < 2.0 / 25.0:
        raise ValueError("requires |drift| < 2/25")
    if not abs(skew) < 1.0:
        raise ValueError("requires |skew| < 1")
    if abs(err_factor) > 1.0 + 1e-12:
        raise ValueError("requires |err_factor| <= 1")

    a = curvature

    def core(x: float) -> complex:
        poly = 1.0 + 2j * skew * x + err_factor * 3.0 * x * x
        return cmath.exp(2j * math.pi * drift * x - math.pi * a * x * x * poly)

    kw = dict(epsabs=1e-14, epsrel=1e-12, limit=200, points=[0.0])
    i_value, i_err = _quad_complex(core, -1.0 / 3.0, 1.0 / 3.0, **kw)
    j_value, j_err = _quad_complex(lambda x: x * core(x), -1.0 / 3.0, 1.0 / 3.0, **kw)
    tol = 1e-12 + i_err + j_err
    ok_i = abs(i_value - a**-0.5) <= 3.45 * a**-1.5 + tol
    ok_j = abs(j_value) <= 2.0 * a**-1.5 + tol
    return GaussianCheck(
        i_value=i_value,
        j_value=j_value,
        bounds_ok=ok_i and ok_j,
        quad_error=i_err + j_err,
    )


def _rational_breakpoints(lo: float, hi: float, qmax: int = 12) -> list:
    """Low-denominator rationals in (lo, hi): the eta quotient peaks there."""
    pts = set()
    for q in range(2, qmax + 1):
        for p in range(1, q):
            x = p / q
            if lo < x < hi:
                pts.add(x)
    return sorted(pts)


def minor_arc_ratio(t: int, y: float) -> float:
    """Ratio of the minor-arc mass int_{y/3 <= |x| <= 1/2} |f_t(x+iy)| dx to
    y * f_t(iy), where f_t is the t-core eta quotient.  Direct-product
    evaluation needs y in [0.02, 0.1]."""
    if not 0.02 <= y <= 0.1:
        raise ValueError("supported band is 0.02 <= y <= 0.1")
    if t < 2:
        raise ValueError("t must be >= 2")
    from scipy.integrate import quad

    log_center = eta_quotient_log(complex(0.0, y), t).real

    def rel_mag(x: float) -> float:
        return math.exp(eta_quotient_log(complex(x, y), t).real - log_center)

    lo, hi = y / 3.0, 0.5
    integral, _ = quad(
        rel_mag,
        lo,
        hi,
        epsrel=1e-6,
        epsabs=0.0,
        limit=800,
        points=_rational_breakpoints(lo, hi),
    )
    return 2.0 * integral / y


def central_arc_ratio(t: int, y: float) -> float:
    """Ratio of int_{|x| <= y/3} |f_t(x+iy)| dx to y * f_t(iy)."""
    if not 0.02 <= y <= 0.1:
        raise ValueError("supported band is 0.02 <= y <= 0.1")
    from scipy.integrate import quad

    log_center = eta_quotient_log(complex(0.0, y), t).real

    def rel_mag(x: float) -> float:
        return math.exp(eta_quotient_log(complex(x, y), t).real - log_center)

    integral, _ = quad(rel_mag, 0.0, y / 3.0, epsrel=1e-9, limit=200)
    return 2.0 * integral / y


def curvature_on_axis(t: int, y: float) -> float:
    """(D_2(iy) - D_2(ity)) / y: the Gaussian concentration scale at (t, y)."""
    return (
        eta_log_deriv(2, complex(0.0, y)).real
        - eta_log_deriv(2, complex(0.0, t * y)).real
    ) / y

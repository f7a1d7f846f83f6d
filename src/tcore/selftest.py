"""Built-in property suites.

Each check pins one of the analytic facts the certified estimators lean on
(monotonicity bands, dual-expansion agreement, functional equations, the
Gaussian-integral bounds, the adjacent-t step bounds) at fixed numeric
instantiations.  'quick' runs everything that finishes in seconds; 'full'
adds the exact-count interval containments, which cost minutes.

The Gaussian and arc integrals the checks evaluate, and the adaptive
Gauss-Kronrod quadrature behind them, live here: no query needs them.
"""

import cmath
import heapq
import math
from typing import NamedTuple

from . import exact
from .modular import (
    e_of,
    eta_log,
    eta_log_deriv,
    eta_log_deriv_prime,
    eta_quotient_log,
    expansion_polynomials,
    quotient_step_log,
)
from .saddle import (
    kappa_constants,
    saddle_bracket,
    saddle_residual,
    scale_residual,
    solve_saddle,
    solve_scaled_saddle,
)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _logspace(lo: float, hi: float, num: int) -> list:
    step = (math.log(hi) - math.log(lo)) / (num - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(num)]


# --- adaptive Gauss-Kronrod quadrature ------------------------------------------
# The 15-point Kronrod rule and its embedded 7-point Gauss rule, from QUADPACK's
# qk15 table rounded to doubles: (node x > 0, Kronrod weight, Gauss weight) for
# the symmetric pairs +-x, where a Gauss weight of 0 marks a Kronrod-only node,
# then the weights of the center node.

_GK15_PAIRS = (
    (0.9914553711208126, 0.022935322010529224, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.20778495500789848, 0.20443294007529889, 0.0),
)
_GK15_CENTER = (0.20948214108472782, 0.4179591836734694)


def _gk15(f, lo: float, hi: float) -> tuple:
    """Kronrod estimate of int_lo^hi f and its distance |K15 - G7| from the
    Gauss estimate, from 15 evaluations of f."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    mid = f(center)
    kronrod = _GK15_CENTER[0] * mid
    gauss = _GK15_CENTER[1] * mid
    for x, k_weight, g_weight in _GK15_PAIRS:
        pair = f(center - half * x) + f(center + half * x)
        kronrod += k_weight * pair
        gauss += g_weight * pair
    return kronrod * half, abs(kronrod - gauss) * half


def _quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int, points=()) -> tuple:
    """Adaptive Gauss-Kronrod 7/15 quadrature of a real or complex f over
    [a, b], returning (integral, error estimate).

    The first panels are split at the interior break points; then the panel
    with the largest |K15 - G7| is halved until the summed |K15 - G7| is at
    most max(epsabs, epsrel |integral|).  Raises RuntimeError when that
    would take more than limit panels."""
    edges = [a, *sorted(p for p in points if a < p < b), b]
    fresh = zip(edges, edges[1:])
    panels = []  # heap of (-error, lo, hi, value): the worst panel first
    while True:
        for lo, hi in fresh:
            value, err = _gk15(f, lo, hi)
            heapq.heappush(panels, (-err, lo, hi, value))
        total = sum(p[3] for p in panels)
        error = -sum(p[0] for p in panels)
        if error <= max(epsabs, epsrel * abs(total)):
            return total, error
        if len(panels) >= limit:
            raise RuntimeError(
                f"quadrature over [{a}, {b}] did not converge within {limit} panels "
                f"(error estimate {error:.3e})"
            )
        _, lo, hi, _ = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        fresh = ((lo, mid), (mid, hi))


# --- the integrals and scales the checks pin --------------------------------------

class GaussianCheck(NamedTuple):
    i_value: complex
    j_value: complex
    bounds_ok: bool
    quad_error: float


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
    i_value, i_err = _quad(core, -1.0 / 3.0, 1.0 / 3.0, **kw)
    j_value, j_err = _quad(lambda x: x * core(x), -1.0 / 3.0, 1.0 / 3.0, **kw)
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


def _arc_ratio(t: int, y: float, lo: float, hi: float, **quad_kw) -> float:
    """Ratio of int_{lo <= |x| <= hi} |f_t(x+iy)| dx to y * f_t(iy), where f_t
    is the t-core eta quotient.  Direct-product evaluation needs y in
    [0.02, 0.1]."""
    if not 0.02 <= y <= 0.1:
        raise ValueError("supported band is 0.02 <= y <= 0.1")
    if t < 2:
        raise ValueError("t must be >= 2")
    log_center = eta_quotient_log(complex(0.0, y), t).real

    def rel_mag(x: float) -> float:
        return math.exp(eta_quotient_log(complex(x, y), t).real - log_center)

    integral, _ = _quad(rel_mag, lo, hi, **quad_kw)
    return 2.0 * integral / y


def minor_arc_ratio(t: int, y: float) -> float:
    """Ratio of the minor-arc mass int_{y/3 <= |x| <= 1/2} |f_t(x+iy)| dx to
    y * f_t(iy), where f_t is the t-core eta quotient.  Direct-product
    evaluation needs y in [0.02, 0.1]."""
    lo, hi = y / 3.0, 0.5
    return _arc_ratio(
        t, y, lo, hi, epsabs=0.0, epsrel=1e-6, limit=800,
        points=_rational_breakpoints(lo, hi),
    )


def central_arc_ratio(t: int, y: float) -> float:
    """Ratio of int_{|x| <= y/3} |f_t(x+iy)| dx to y * f_t(iy)."""
    return _arc_ratio(t, y, 0.0, y / 3.0, epsabs=1.49e-8, epsrel=1e-9, limit=200)


def _d2_gap(t: float, y: float) -> float:
    """D_2(iy) - D_2(ity)."""
    return (
        eta_log_deriv(2, complex(0.0, y)).real
        - eta_log_deriv(2, complex(0.0, t * y)).real
    )


def curvature_on_axis(t: int, y: float) -> float:
    """(D_2(iy) - D_2(ity)) / y: the Gaussian concentration scale at (t, y)."""
    return _d2_gap(t, y) / y


# --- individual checks ----------------------------------------------------------

def check_polynomial_tables() -> CheckResult:
    """The recurrence tables match the closed rows F_2 = r - 2 and
    F_4 = r^3 - 12 r^2 + 36 r - 24."""
    t2 = expansion_polynomials(2)
    t4 = expansion_polynomials(4)
    ok = (
        t2.fn_low == 0
        and t2.fn_coeffs == (-2, 1)
        and t4.fn_low == 0
        and t4.fn_coeffs == (-24, 36, -12, 1)
    )
    return CheckResult("polynomial-table-rows", ok, f"rows={ok}")


def check_dual_expansion() -> CheckResult:
    """Both expansions of D_k and D_k' agree to 1e-10 relative in the
    overlap band y in {0.9, 1.0, 1.1}, on and slightly off the axis."""
    worst = 0.0
    points = [complex(0.0, y) for y in (0.9, 1.0, 1.1)] + [complex(0.25, 0.95)]
    for z in points:
        for k in range(5):
            for fn in (eta_log_deriv, eta_log_deriv_prime):
                a = fn(k, z, branch="q")
                b = fn(k, z, branch="inverted")
                worst = max(worst, abs(a - b) / max(abs(a), 1e-30))
    return CheckResult("dual-expansion-agreement", worst < 1e-10, f"worst rel diff {worst:.2e}")


def check_eta_functional_equation() -> CheckResult:
    """log eta(iy) = -log(y)/2 + log eta(i/y) at y = 2, residual < 1e-12."""
    y = 2.0
    lhs = eta_log(complex(0.0, y))
    rhs = -0.5 * math.log(y) + eta_log(complex(0.0, 1.0 / y))
    resid = abs(lhs - rhs)
    return CheckResult("eta-functional-equation", resid < 1e-12, f"residual {resid:.2e}")


def check_deriv2_functional_equation() -> CheckResult:
    """D_2'(z) + D_2'(-1/z) = -1/(4 pi i) at z = 0.1 + 0.7i, residual < 1e-10."""
    z = complex(0.1, 0.7)
    value = eta_log_deriv_prime(2, z) + eta_log_deriv_prime(2, -1.0 / z)
    resid = abs(value - (-1.0 / (4j * math.pi)))
    return CheckResult("deriv2-functional-equation", resid < 1e-10, f"residual {resid:.2e}")


def check_d2_monotone() -> CheckResult:
    """y -> D_2(iy) strictly decreasing on [1e-3, 1e3] with values in (0, 1/12).

    Above y ~ 118 the true value e^(-2 pi y)-ish underflows double precision
    to exact 0.0; strictness is asserted until that floor."""
    grid = _logspace(1e-3, 1e3, 41)
    vals = [eta_log_deriv(2, complex(0.0, y)).real for y in grid]
    decreasing = all(
        a > b or (a == 0.0 and b == 0.0) for a, b in zip(vals, vals[1:])
    )
    in_range = all(0.0 <= v < 1.0 / 12.0 for v in vals) and vals[0] > 0.0
    return CheckResult(
        "d2-monotone-band", decreasing and in_range,
        f"decreasing={decreasing} range={in_range}",
    )


def check_d2_slope_band() -> CheckResult:
    """For y <= 1/10 and ty <= 1: (D_2(iy) - D_2(ity))/(ty - y) in (1/8pi, 1/4pi).

    The gap below 1/4pi scales like e^(-2 pi / ty), so the grid keeps
    ty >= 0.2 where doubles still resolve the strict inequality."""
    ok = True
    worst = ""
    for y in (1e-3, 1e-2, 0.05, 0.1):
        for ty in (0.2, 0.3, 0.5, 0.7, 0.9, 1.0):
            t = ty / y
            if t <= 1:
                continue
            slope = _d2_gap(t, y) / (ty - y)
            if not (1.0 / (8.0 * math.pi) < slope < 1.0 / (4.0 * math.pi)):
                ok = False
                worst = f"slope {slope:.8f} at y={y}, ty={ty}"
    return CheckResult("d2-slope-band", ok, worst or "all slopes inside (1/8pi, 1/4pi)")


def check_d2_diff_band() -> CheckResult:
    """For y <= 1/10, ty >= 1: D_2(iy) - D_2(ity) in (1/16, 1/12); and the
    anchor value D_2(i/10) - D_2(i) = 0.0635 +- 0.0005."""
    ok = True
    for y in (1e-3, 1e-2, 0.1):
        for ty in (1.0, 2.0, 10.0):
            diff = _d2_gap(ty / y, y)
            if not (1.0 / 16.0 < diff < 1.0 / 12.0):
                ok = False
    anchor = _d2_gap(10, 0.1)
    anchor_ok = abs(anchor - 0.0635) <= 0.0005
    return CheckResult(
        "d2-difference-band", ok and anchor_ok, f"anchor {anchor:.5f} (want 0.0635+-0.0005)"
    )


def check_d3_bounds() -> CheckResult:
    """D_3(iy) increasing with range (-1/4, 0), and the third-to-second
    difference ratio stays below 6 for y <= 1/10."""
    grid = _logspace(1e-3, 1e2, 25)
    vals = [eta_log_deriv(3, complex(0.0, y)).real for y in grid]
    increasing = all(a < b for a, b in zip(vals, vals[1:]))
    in_range = all(-0.25 < v < 0.0 for v in vals)
    ratio_ok = True
    worst = 0.0
    for y in (1e-3, 1e-2, 0.1):
        for t in (1.5, 2, 5, 20, 100, 1000):
            num = (
                eta_log_deriv(3, complex(0.0, y)).real
                - eta_log_deriv(3, complex(0.0, t * y)).real
            )
            r = abs(num / _d2_gap(t, y))
            worst = max(worst, r)
            if r >= 6.0:
                ratio_ok = False
    return CheckResult(
        "d3-bounds", increasing and in_range and ratio_ok,
        f"monotone={increasing} range={in_range} worst ratio {worst:.3f} (< 6)",
    )


def check_d4_ratio() -> CheckResult:
    """|D_4(z) - D_4(tz)| / (D_2(iy) - D_2(ity)) < 36 for |x| < y/3, y <= 1/10."""
    ok = True
    worst = 0.0
    for y in (1e-3, 1e-2, 0.1):
        for xfrac in (0.0, 0.15, 0.3):
            x = xfrac * y
            z = complex(x, y)
            for t in (1.5, 2, 5, 20, 100, 1000):
                num = abs(eta_log_deriv(4, z) - eta_log_deriv(4, t * z))
                r = num / _d2_gap(t, y)
                worst = max(worst, r)
                if r >= 36.0:
                    ok = False
    return CheckResult("d4-ratio", ok, f"worst ratio {worst:.3f} (< 36)")


def check_gaussian_sweep() -> CheckResult:
    """Gaussian-integral bounds hold across the hypothesis box corners."""
    ok = True
    base = gaussian_integral_check(39.0, 0.0, 0.0, 0.0)
    if not base.bounds_ok or abs(base.i_value.imag) > 1e-12 or abs(base.j_value) > 1e-12:
        ok = False
    count = 1
    for a in (39.0, 100.0, 1000.0):
        for b in (-0.079, 0.079):
            for s in (-0.9, 0.9):
                for err in (1.0, -1.0, 1j, -1j):
                    res = gaussian_integral_check(a, b, s, err)
                    count += 1
                    if not res.bounds_ok:
                        ok = False
    return CheckResult("gaussian-integral-sweep", ok, f"{count} instantiations checked")


def check_step_log_bounds() -> CheckResult:
    """Adjacent-t step bounds at (t, y) = (1000, 0.001):
    |L| <= 7.5 |tz| e^(-2 pi t y) and
    |L + e(tz)(2 pi i t z + 1)| <= (40|z| + 22 e^(-2 pi t y)) |tz| e^(-2 pi t y)."""
    t, y = 1000, 0.001
    z = complex(0.0, y)
    step = quotient_step_log(z, t)
    tz = t * z
    damp = abs(tz) * math.exp(-2.0 * math.pi * t * y)
    ok1 = abs(step) <= 7.5 * damp
    second = step + e_of(tz) * (2j * math.pi * tz + 1.0)
    bound2 = (40.0 * abs(z) + 22.0 * math.exp(-2.0 * math.pi * t * y)) * damp
    ok2 = abs(second) <= bound2
    direct = (
        eta_quotient_log(z, t + 1)
        - eta_quotient_log(z, t)
        - 2j * math.pi * (2 * t + 1) * z / 24.0
    )
    ok3 = abs(step - direct) < 1e-10
    return CheckResult(
        "step-log-bounds", ok1 and ok2 and ok3,
        f"|L|={abs(step):.3e} (<= {7.5 * damp:.3e}), refined ok={ok2}, consistency ok={ok3}",
    )


def check_quotient_series_consistency() -> CheckResult:
    """exp(log quotient) * e((1 - t^2) z / 24) matches the exact t-core
    series at z = 0.35i, t = 5, to 1e-8."""
    t = 5
    z = complex(0.0, 0.35)
    lhs = e_of((1 - t * t) * z / 24.0) * cmath.exp(eta_quotient_log(z, t))
    series = exact.tcore_counts(t, 30)
    rhs = sum(series.values[n] * e_of(n * z) for n in range(31))
    diff = abs(lhs - rhs)
    return CheckResult("quotient-series-consistency", diff < 1e-8, f"diff {diff:.2e}")


def check_quotient_d0_identity() -> CheckResult:
    """log quotient on the axis equals (2 pi / y)(D_0(iy) - D_0(ity)) to 1e-10
    at (t, y) = (100, 0.01)."""
    t, y = 100, 0.01
    lhs = eta_quotient_log(complex(0.0, y), t).real
    rhs = (
        2.0
        * math.pi
        / y
        * (eta_log_deriv(0, complex(0.0, y)).real - eta_log_deriv(0, complex(0.0, t * y)).real)
    )
    diff = abs(lhs - rhs) / max(abs(lhs), 1.0)
    return CheckResult("quotient-d0-identity", diff < 1e-10, f"rel diff {diff:.2e}")


def check_saddle_grid() -> CheckResult:
    """Bracket signs (up to the endpoint noise floor), residual monotonicity
    and the curvature band, on a (t, n) grid."""
    ok = True
    details = []
    for t in (6, 50, 1000):
        for n in (100, 10_000, 100_000):
            lo, hi = saddle_bracket(t, n)
            noise = 1e-9 * (n + (t * t - 1) / 24.0)
            g_lo = saddle_residual(t, n, lo)
            g_hi = saddle_residual(t, n, hi)
            if not (g_lo > -noise and g_hi < 0.0):
                ok = False
                details.append(f"bracket sign fails at ({t},{n})")
                continue
            pts = _logspace(lo * (1 + 1e-12), hi, 20)
            vals = [saddle_residual(t, n, y) for y in pts]
            # strictly decreasing, modulo the same noise floor at the flat end
            if not all(a > b - noise for a, b in zip(vals, vals[1:])):
                ok = False
                details.append(f"residual not decreasing at ({t},{n})")
            res = solve_saddle(t, n)
            if not (lo < res.y < hi):
                ok = False
                details.append(f"solution outside bracket at ({t},{n})")
            if abs(res.residual) > noise:
                ok = False
                details.append(f"residual above noise floor at ({t},{n})")
            if res.y <= 0.1:
                band = res.curvature / min(t, 1.0 / res.y)
                if not (1.0 / 26.0 <= band <= 1.0 / 12.0):
                    ok = False
                    details.append(f"curvature band fails at ({t},{n}): {band:.4f}")
    return CheckResult("saddle-grid", ok, "; ".join(details) or "9 grid points clean")


def check_scale_solver() -> CheckResult:
    """Residual contract and monotonicity of the rescaled saddle."""
    ok = True
    details = []
    for kappa in (1.0, 24.0, 1000.0):
        v = solve_scaled_saddle(kappa)
        r = scale_residual(kappa, v)
        if abs(r) > 1e-10:
            ok = False
            details.append(f"residual {r:.2e} at kappa={kappa}")
    vs = [solve_scaled_saddle(k) for k in (1.0, 10.0, 100.0, 1e3, 1e6)]
    if not all(a < b for a, b in zip(vs, vs[1:])):
        ok = False
        details.append("v not increasing in kappa")
    return CheckResult("scale-solver", ok, "; ".join(details) or "contract holds")


def check_constants_limits() -> CheckResult:
    """A(kappa) -> 1/6 and B(kappa) -> 4 sqrt(3) as kappa grows."""
    consts = kappa_constants(1e6)
    ok_a = abs(consts.A - 1.0 / 6.0) < 1e-2
    ok_b = abs(consts.B - 4.0 * math.sqrt(3.0)) < 1e-1
    return CheckResult(
        "constants-limits", ok_a and ok_b,
        f"A={consts.A:.6f} (1/6={1/6:.6f}), B={consts.B:.6f} (4rt3={4*math.sqrt(3):.6f})",
    )


def check_minor_arc() -> CheckResult:
    """Minor-arc suppression at (t, y) = (100, 0.05) and the central-arc
    mass bound sqrt(3/(2 curvature))."""
    ratio = minor_arc_ratio(100, 0.05)
    bound = math.exp(-min(100.0, 20.0) / 70.0)
    ok1 = 0.0 < ratio <= bound
    alpha = curvature_on_axis(100, 0.05)
    central = central_arc_ratio(100, 0.05)
    ok2 = central <= math.sqrt(3.0 / (2.0 * alpha))
    return CheckResult(
        "minor-arc-bounds", ok1 and ok2,
        f"minor ratio {ratio:.4f} (<= {bound:.4f}), central {central:.4f} "
        f"(<= {math.sqrt(3.0/(2.0*alpha)):.4f})",
    )


def _containment(name: str, t: int, n: int, regime: str) -> CheckResult:
    from .certify import certify_interval_containment

    contained, margin = certify_interval_containment(t, n, regime)
    return CheckResult(name, contained, f"margin {margin:.4f}")


QUICK_CHECKS = (
    check_polynomial_tables,
    check_dual_expansion,
    check_eta_functional_equation,
    check_deriv2_functional_equation,
    check_d2_monotone,
    check_d2_slope_band,
    check_d2_diff_band,
    check_d3_bounds,
    check_d4_ratio,
    check_gaussian_sweep,
    check_step_log_bounds,
    check_quotient_series_consistency,
    check_quotient_d0_identity,
    check_saddle_grid,
    check_scale_solver,
    check_constants_limits,
    check_minor_arc,
)


def run_checks(level: str = "quick") -> list:
    """Run the property suite; 'full' adds exact interval containments."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    results = [fn() for fn in QUICK_CHECKS]
    if level == "full":
        results.append(_containment("containment-main", 1000, 60_000, "main"))
        results.append(_containment("containment-small-t", 50, 100_000, "small_t"))
        results.append(_containment("containment-difference", 1000, 100_000, "difference"))
    return results

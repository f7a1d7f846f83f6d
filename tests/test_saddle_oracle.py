"""The saddle layer against an independent high-precision oracle.

The oracle is mpmath at ORACLE_DPS digits, built from the product formula
for eta rather than from the package's series:

    L(y) = log eta(iy) = -pi y/12 + log prod_k (1 - e^(-2 pi k y))   (y >= 1),
    L(y) = -log(y)/2 + L(1/y)                                        (y < 1),
    D_1(iy) = -y^2 L'(y) / 2 pi,     D_2(iy) = -y^3 L''(y) / 2 pi,

with the derivatives taken by mpmath.diff.  The saddle root y* solves the
same equation as saddle.solve_saddle, and the main-term log is the formula of
asymptotics.estimate_main, both evaluated at this precision.  Where
mpmath.diff fails (tiny v) the kappa constants also have a second oracle,
direct sigma-sums for G(v) = sum_n sigma(n) e^(-2 pi n v) and its kin,
checked against the product formula where both reach.  The package itself
never imports mpmath.
"""

import math
import sys

import pytest

from tcore.asymptotics import (
    INTERVAL_PADDING,
    ROUNDOFF_REL,
    estimate_difference,
    estimate_main,
    estimate_small_t,
    log_interval,
    select_regime,
)
from tcore.certify import certify_pair
from tcore import saddle
from tcore.saddle import Y_REL_TOL, _d, kappa_constants, solve_saddle, solve_scaled_saddle

mpmath = pytest.importorskip("mpmath")

ORACLE_DPS = 50


def log_eta(y):
    """L(y) = log eta(iy) for real y > 0."""
    y = mpmath.mpf(y)
    if y < 1:
        return -mpmath.log(y) / 2 + log_eta(1 / y)
    return -mpmath.pi * y / 12 + _log_qp(y)


def _log_qp(y):
    """log prod_k (1 - e^(-2 pi k y)), the q-series part of L.  The product
    is 1 - e^(-2 pi y) + ..., so its log carries up to 2 pi y / log 2 more
    bits to keep its relative precision (capped: beyond y = 40 the part is
    below e^-250 and only its absolute size matters)."""
    with mpmath.extraprec(int(10 * min(y, 40)) + 10):
        return +mpmath.log(mpmath.qp(mpmath.exp(-2 * mpmath.pi * y)))


def d(k: int, y):
    """D_k(iy) for k = 0, 1, 2.  For y >= 1 the linear part -pi y/12 of L is
    differentiated by hand, so that D_2, which is of order e^(-2 pi y), keeps
    its relative precision."""
    y = mpmath.mpf(y)
    if y < 1:
        deriv = mpmath.diff(log_eta, y, k)
    else:
        linear = (-mpmath.pi * y / 12, -mpmath.pi / 12, 0)[k]
        deriv = mpmath.diff(_log_qp, y, k) + linear
    return -(y ** (k + 1)) * deriv / (2 * mpmath.pi)


def _shifted_index(t: int, n: int):
    return n + mpmath.mpf(t * t - 1) / 24


def residual(t: int, n: int, y):
    """g(y) = (D_1(ity) - D_1(iy))/y^2 - M."""
    return (d(1, t * y) - d(1, y)) / (y * y) - _shifted_index(t, n)


def saddle_root(t: int, n: int):
    """y* inside the bracket of saddle.saddle_bracket, computed here at full
    precision: lo = (t-1)/(4 pi M) and hi the root of
    (24n - 1) y^2 + (6/pi) y - 1 = 0.  An endpoint whose residual has the
    wrong sign at this precision is the root to every digit carried: at
    small t*y the root sits a relative ~e^(-2 pi/(t y)) above lo, and at
    large t*hi a relative ~(t hi)^2 e^(-2 pi t hi) below hi."""
    m = _shifted_index(t, n)
    lo = (t - 1) / (4 * mpmath.pi * m)
    hi = 1 / (3 / mpmath.pi + mpmath.sqrt(24 * n - 1 + 9 / mpmath.pi**2))
    noise = mpmath.mpf(10) ** (10 - mpmath.mp.dps) * (m + 1 / lo**2)
    g_lo = residual(t, n, lo)
    if g_lo <= 0:
        assert -g_lo < noise
        return lo
    g_hi = residual(t, n, hi)
    if g_hi >= 0:
        assert g_hi < noise
        return hi
    return mpmath.findroot(lambda y: residual(t, n, y), (lo, hi), solver="anderson")


def oracle_dps(t: int, n: int) -> int:
    """ORACLE_DPS plus the digits that residual loses where the t^2/24 parts
    of D_1(ity)/y^2 and M cancel in it: log10(t^2/n)."""
    return ORACLE_DPS + max(0, math.ceil(math.log10(t * t / n)))


def scale_residual(kappa, v):
    """h(v) = 1/(24 v^2) - 1/24 + D_1(iv)/v^2 - 1/kappa."""
    return 1 / (24 * v * v) - mpmath.mpf(1) / 24 + d(1, v) / (v * v) - 1 / mpmath.mpf(kappa)


def lemma_bracket(kappa):
    """The a-priori bracket of v(kappa) (saddle.solve_scaled_saddle) at this
    precision: lo = kappa/(4 pi (1 + kappa/24)), hi = sqrt(kappa/24), where
    the G-free parts of the two forms of h vanish, tightened to hi = 2 lo
    when 2 lo <= 1/2 and to lo = hi/2 when hi >= 2."""
    kappa = mpmath.mpf(kappa)
    lo = kappa / (4 * mpmath.pi * (1 + kappa / 24))
    hi = mpmath.sqrt(kappa / 24)
    if 2 * lo <= mpmath.mpf(1) / 2:
        return lo, 2 * lo
    if hi >= 2:
        return hi / 2, hi
    return lo, hi


def bisect_root(f, lo, hi):
    """The root of a decreasing f in [lo, hi], bisected to 1e-20 relative."""
    while hi - lo > 1e-20 * hi:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def kappa_oracle(kappa):
    """(v, A, B) of saddle.kappa_constants at this precision from the product
    formula: v the root of h inside lemma_bracket."""
    v = bisect_root(lambda w: scale_residual(kappa, w), *lemma_bracket(kappa))
    scale = kappa / (v * v)
    a = scale * (mpmath.mpf(1) / 12 - d(0, v) + d(1, v)) ** 2
    b = scale * mpmath.sqrt(mpmath.mpf(1) / 12 - d(2, v))
    return v, a, b


def sigma_sums(u):
    """(G, G_0, G_1)(u) = sum_n (1, 1/n, n) sigma(n) e^(-2 pi n u), summed
    directly at this precision until a term is below its last digit."""
    x = mpmath.exp(-2 * mpmath.pi * mpmath.mpf(u))
    g = g0 = g1 = mpmath.mpf(0)
    n, xn = 1, x
    while True:
        term = sum(k for k in range(1, n + 1) if n % k == 0) * xn
        g, g0, g1 = g + term, g0 + term / n, g1 + n * term
        if n * term <= mpmath.eps * g1:
            return g, g0, g1
        n, xn = n + 1, xn * x


def sigma_h(kappa, v):
    """h(v) from the sigma-sums, in the form whose constants cancel by hand:
    1/(24 v^2) - G(v) - 1/kappa from v = 1, else
    1/(4 pi v) - 1/24 + G(1/v)/v^2 - 1/kappa."""
    return sum(_sigma_h_terms(kappa, v))


def _sigma_h_terms(kappa, v):
    v = mpmath.mpf(v)
    if v >= 1:
        return 1 / (24 * v * v), -sigma_sums(v)[0], -1 / mpmath.mpf(kappa)
    return (
        1 / (4 * mpmath.pi * v),
        -mpmath.mpf(1) / 24,
        sigma_sums(1 / v)[0] / (v * v),
        -1 / mpmath.mpf(kappa),
    )


def sigma_kappa_oracle(kappa):
    """(v, A, B) from the sigma-sums, at any kappa: v bisected inside
    lemma_bracket, and with L(y) = log eta(iy) = -pi y/12 - sum_n (sigma(n)/n)
    e^(-2 pi n y) differentiated by hand (through L(y) = -log(y)/2 + L(1/y)
    below v = 1), c = v/(4 pi) and u = 1/v,

        1/12 - D_0 + D_1 = 1/12 - (v/2 pi) G_0(v) - v^2 G(v),          v >= 1,
                         = c (1 - ln v) + G(u) - (v/2 pi) G_0(u),       v < 1,
        1/12 - D_2       = 1/12 - 2 pi v^3 G_1(v),                      v >= 1,
                         = c + 2 G(u) - 2 pi G_1(u)/v,                  v < 1."""
    v = bisect_root(lambda w: sigma_h(kappa, w), *lemma_bracket(kappa))
    if v >= 1:
        g, g0, g1 = sigma_sums(v)
        lead = mpmath.mpf(1) / 12 - v / (2 * mpmath.pi) * g0 - v * v * g
        curvature = mpmath.mpf(1) / 12 - 2 * mpmath.pi * v**3 * g1
    else:
        g, g0, g1 = sigma_sums(1 / v)
        c = v / (4 * mpmath.pi)
        lead = c * (1 - mpmath.log(v)) + g - v / (2 * mpmath.pi) * g0
        curvature = c + 2 * g - 2 * mpmath.pi * g1 / v
    scale = mpmath.mpf(kappa) / (v * v)
    return v, scale * lead**2, scale * mpmath.sqrt(curvature)


def main_log(t: int, n: int):
    """The estimate_main log_value at the oracle root:
    1.5 log y + 2 pi M y + t L(ty) - L(y) - log(D_2(iy) - D_2(ity))/2."""
    y = saddle_root(t, n)
    m = _shifted_index(t, n)
    d2_diff = d(2, y) - d(2, t * y)
    return (
        mpmath.mpf(1.5) * mpmath.log(y)
        + 2 * mpmath.pi * m * y
        + t * log_eta(t * y)
        - log_eta(y)
        - mpmath.log(d2_diff) / 2
    )


def small_t_log(t: int, n: int):
    """The estimate_small_t log_value at this precision, with M exact:
    ((t-1)/2) log 2 pi - (t/2) log t - log Gamma((t-1)/2) + ((t-3)/2) log M."""
    return (
        (t - 1) * mpmath.log(2 * mpmath.pi) / 2
        - t * mpmath.log(t) / 2
        - mpmath.loggamma(mpmath.mpf(t - 1) / 2)
        + (t - 3) * mpmath.log(_shifted_index(t, n)) / 2
    )


# --- the tests ---------------------------------------------------------------

def test_d_matches_oracle():
    with mpmath.workdps(ORACLE_DPS):
        for i in range(121):
            y = 1e-4 * 3e5 ** (i / 120)  # 1e-4 .. 30, both expansions
            for k in (1, 2):
                ref = d(k, y)
                assert abs(_d(k, y) - ref) <= 1e-13 * abs(ref), (k, y)


@pytest.mark.parametrize(
    "t,n",
    [
        # g(hi) rounds to >= 0 at some of these: at large t*hi the exact
        # g(hi) is below the rounding of n inside g
        (4500, 20500),
        (30000, 20000),
        (10000, 46416),
        (56234, 215443),
        (100000, 10_000_000),
        (300000, 1_000_000),
        # g(lo) is rounding noise of the D_1 quotients (small t, huge n)
        (2, 4_641_589),
        (3, 21_544_347),
        (5, 46_415_888),
        (1000, 60000),
        # t*y far above 1, where the t^2/24 of D_1(ity)/y^2 and of M used to
        # cancel in doubles and put y 2.3e-5 to 0.91 off the root
        (10**8, 1),
        (10**9, 42_000),
        (10**12, 10**6),
        (10**16, 10**17),
        (10**17, 10**17),
        (10**20, 10**21),
    ],
)
def test_solve_matches_oracle_root(t, n):
    res = solve_saddle(t, n)
    with mpmath.workdps(oracle_dps(t, n)):
        y_star = saddle_root(t, n)
        assert abs(res.y - y_star) <= Y_REL_TOL * y_star


FLOAT_SAFE_TS = (1000, 2000, 5000, 10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6, 10**7, 10**8)
FLOAT_SAFE_NS = (5 * 10**4, 10**5, 10**6, 10**7, 10**8)


def _rounding_limit(pad: float) -> float:
    """A tenth of INTERVAL_PADDING while a pad for rounding stays at that
    floor, else a third of the pad (ROUNDOFF_REL holds a margin of 4)."""
    return INTERVAL_PADDING / 10 if pad <= INTERVAL_PADDING * (1 + 1e-6) else pad / 3


def _main_pad(est) -> float:
    """The pad for rounding inside estimate_main's rel: rel - 3.5 y / D_2."""
    return est.rel_error_bound - 3.5 / est.diagnostics["curvature"]


def test_certified_means_float_safe():
    """Wherever a saddle regime certifies, its float answer agrees with the
    oracle: the main-term log absolutely, where the rounding clause main
    used to refuse on holds (ROUNDOFF_REL times 2 pi M y within
    INTERVAL_PADDING) within a tenth of INTERVAL_PADDING and past it within
    a third of the pad; the difference route's saddle ordinate relatively,
    within Y_REL_TOL."""
    certified = 0
    with mpmath.workdps(ORACLE_DPS):
        for t in FLOAT_SAFE_TS:
            for n in FLOAT_SAFE_NS:
                main = estimate_main(t, n)
                diff = estimate_difference(t, n)
                if main.hypotheses_ok:
                    diag = main.diagnostics
                    rounding = ROUNDOFF_REL * 2.0 * math.pi * diag["shifted_index"] * diag["y"]
                    limit = INTERVAL_PADDING / 10
                    if rounding > INTERVAL_PADDING:
                        limit = _main_pad(main) / 3
                    err = abs(main.log_value - main_log(t, n))
                    assert err <= limit, (t, n, float(err))
                if diff.hypotheses_ok:
                    y_star = saddle_root(t, n)
                    err = abs(diff.diagnostics["y"] - y_star) / y_star
                    assert err <= Y_REL_TOL, (t, n, float(err))
                certified += main.hypotheses_ok + diff.hypotheses_ok
    assert certified >= 50  # the grid is not vacuous


def test_regime_changes_at_the_float_safe_boundary():
    # a former bracket failure, now a certified main estimate
    assert select_regime(10**4, 5 * 10**4) == "main"
    with mpmath.workdps(ORACLE_DPS):
        err = abs(estimate_main(10**4, 5 * 10**4).log_value - main_log(10**4, 5 * 10**4))
    assert err <= INTERVAL_PADDING / 10
    # the rounding of the exponent 2 pi M y passes the floor of the pad:
    # main used to refuse here, and now pads by it
    est = estimate_main(10**6, 10**6)
    exponent = 2.0 * math.pi * est.diagnostics["shifted_index"] * est.diagnostics["y"]
    assert ROUNDOFF_REL * exponent > INTERVAL_PADDING
    assert est.hypotheses_ok
    pad = _main_pad(est)
    assert pad > ROUNDOFF_REL * exponent
    with mpmath.workdps(ORACLE_DPS):
        assert abs(est.log_value - main_log(10**6, 10**6)) <= pad / 3
    # above the exact regime's cap N = 100000 auto takes it
    assert select_regime(10**6, 10**6) == "main"


CONTAINMENT_DPS = 60
# small_t where its hypotheses hold, t = 1e3..1e12; from t = 1e7 both ends of
# its interval used to round to the same double
SMALL_T_GRID = [(10**e, k * 10 ** (2 * e)) for e in range(3, 13) for k in (10, 1000)]
SMALL_T_GRID.append((10**7, 2 * 10**14))
# main on the band 0.12 <= n/t^2 <= 1.1, where main used to refuse the
# rounding of its exponent and certify_pair was inconclusive from t ~ 2e6
HOLE_GRID = [
    (t, round(r * t * t)) for t in (2 * 10**6, 10**7, 10**8, 10**9) for r in (0.12, 0.3, 0.8, 1.1)
]


def test_certified_intervals_contain_their_formula():
    """Every certified interval holds the 60-digit value of its own
    formula, and _rounding_limit of its pad for rounding alone covers the
    float error: small_t (whose interval used to exclude that value from
    t = 1e6) on SMALL_T_GRID, main on HOLE_GRID, where every pair now
    certifies."""
    with mpmath.workdps(CONTAINMENT_DPS):
        for t, n in SMALL_T_GRID:
            est = estimate_small_t(t, n)
            assert est.hypotheses_ok, (t, n)
            ref = small_t_log(t, n)
            lo, hi = log_interval(est)
            assert lo < ref < hi, (t, n)
            pad = est.rel_error_bound - 2.5 * math.exp(-t / 8.0) - 20.0 * t**-4.0
            assert abs(est.log_value - ref) <= _rounding_limit(pad), (t, n)
        for t, n in HOLE_GRID:
            est = estimate_main(t, n)
            assert est.hypotheses_ok, (t, n)
            ref = main_log(t, n)
            lo, hi = log_interval(est)
            assert lo < ref < hi, (t, n)
            assert abs(est.log_value - ref) <= _rounding_limit(_main_pad(est)), (t, n)
            assert certify_pair(t, n).ok, (t, n)


# the product-formula oracle: a point a decade over kappa = 1e-14..1e20 (its
# mpmath.diff fails at smaller v), and 1.3e7 and 1.4e7 either side of the
# former float-safe cap ROUNDOFF_REL * kappa/24 <= INTERVAL_PADDING
PRODUCT_KAPPAS = sorted({10.0**e for e in range(-14, 21)} | {1.3e7, 1.4e7})
# the sigma-sum oracle, checked against the product formula there: every
# decade from 1e-300 to 1e300, and the least and largest normal doubles
KAPPAS = sorted(
    set(PRODUCT_KAPPAS)
    | {10.0**e for e in range(-300, 301)}
    | {sys.float_info.min, sys.float_info.max}
)


def test_sigma_oracle_matches_product_oracle():
    with mpmath.workdps(ORACLE_DPS):
        for kappa in PRODUCT_KAPPAS:
            for name, value, ref in zip("vAB", sigma_kappa_oracle(kappa), kappa_oracle(kappa)):
                assert abs(value - ref) <= 1e-30 * ref, (kappa, name)


def test_kappa_constants_match_oracle():
    """v, A and B each match the oracle to the padding, relatively, at every
    decade of kappa: the product formula where it reaches, the sigma sums
    beyond.  A solve that expanded its bracket from v = 1 raised past
    kappa ~ 1.35e7 and below ~6e-48."""
    with mpmath.workdps(ORACLE_DPS):
        for kappa in KAPPAS:
            consts = kappa_constants(kappa)
            oracle = kappa_oracle if kappa in PRODUCT_KAPPAS else sigma_kappa_oracle
            for name, value, ref in zip("vAB", consts[1:], oracle(kappa)):
                err = abs(value - ref) / ref
                assert err <= INTERVAL_PADDING, (kappa, name, float(err))


def _signed_with_noise(kappa, v):
    """sigma_h(kappa, v), and its rounding at the oracle's precision: that
    precision times the largest term."""
    terms = _sigma_h_terms(kappa, v)
    return sum(terms), mpmath.mpf(10) ** (10 - ORACLE_DPS) * max(abs(x) for x in terms)


def test_scaled_bracket_signs_and_bisections(monkeypatch):
    """h(lo) > 0 > h(hi) on the tightened bracket, and the solve bisects
    that bracket (its first midpoint is the bracket's) in at most 41 steps.
    At an a-priori endpoint h equals G(1/lo)/lo^2 or -G(hi), which can lie
    below the oracle's digits, so its sign is checked up to that noise; at
    a tightened endpoint, and wherever 3.6 < kappa < 96, it must clear it."""
    midpoints = []
    residual = saddle.scale_residual
    monkeypatch.setattr(saddle, "scale_residual", lambda k, v: midpoints.append(v) or residual(k, v))
    with mpmath.workdps(ORACLE_DPS):
        for kappa in KAPPAS:
            lo, hi = lemma_bracket(kappa)
            midpoints.clear()
            solve_scaled_saddle(kappa)
            assert abs(midpoints[0] - (lo + hi) / 2) <= 1e-15 * hi, kappa
            assert len(midpoints) <= 41, (kappa, len(midpoints))
            h_lo, noise_lo = _signed_with_noise(kappa, lo)
            h_hi, noise_hi = _signed_with_noise(kappa, hi)
            middle = 3.6 < kappa < 96
            assert h_lo > (noise_lo if hi >= 2 or middle else -noise_lo), kappa
            assert h_hi < (-noise_hi if 2 * lo <= 0.5 or middle else noise_hi), kappa

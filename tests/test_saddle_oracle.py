"""The saddle layer against an independent high-precision oracle.

The oracle is mpmath at ORACLE_DPS digits, built from the product formula
for eta rather than from the package's series:

    L(y) = log eta(iy) = -pi y/12 + log prod_k (1 - e^(-2 pi k y))   (y >= 1),
    L(y) = -log(y)/2 + L(1/y)                                        (y < 1),
    D_1(iy) = -y^2 L'(y) / 2 pi,     D_2(iy) = -y^3 L''(y) / 2 pi,

with the derivatives taken by mpmath.diff.  The saddle root y* solves the
same equation as saddle.solve_saddle, and the main-term log is the formula of
asymptotics.estimate_main, both evaluated at this precision.  The package
itself never imports mpmath.
"""

import math

import pytest

from tcore.asymptotics import (
    INTERVAL_PADDING,
    ROUNDOFF_REL,
    estimate_difference,
    estimate_main,
    select_regime,
)
from tcore.saddle import Y_REL_TOL, SolverError, _d, kappa_constants, solve_saddle

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
    noise = mpmath.mpf(10) ** (10 - ORACLE_DPS) * (m + 1 / lo**2)
    g_lo = residual(t, n, lo)
    if g_lo <= 0:
        assert -g_lo < noise
        return lo
    g_hi = residual(t, n, hi)
    if g_hi >= 0:
        assert g_hi < noise
        return hi
    return mpmath.findroot(lambda y: residual(t, n, y), (lo, hi), solver="anderson")


def scale_residual(kappa, v):
    """h(v) = 1/(24 v^2) - 1/24 + D_1(iv)/v^2 - 1/kappa."""
    return 1 / (24 * v * v) - mpmath.mpf(1) / 24 + d(1, v) / (v * v) - 1 / mpmath.mpf(kappa)


def kappa_oracle(kappa):
    """(v, A, B) of saddle.kappa_constants at this precision: v the root of h,
    bracketed by doubling and halving from 1 as solve_scaled_saddle does."""
    lo = hi = mpmath.mpf(1)
    while scale_residual(kappa, hi) >= 0:
        hi *= 2
    while scale_residual(kappa, lo) <= 0:
        lo /= 2
    v = mpmath.findroot(lambda w: scale_residual(kappa, w), (lo, hi), solver="anderson")
    scale = kappa / (v * v)
    a = scale * (mpmath.mpf(1) / 12 - d(0, v) + d(1, v)) ** 2
    b = scale * mpmath.sqrt(mpmath.mpf(1) / 12 - d(2, v))
    return v, a, b


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
        # g(hi) rounds to >= 0 here: at large t*hi the exact g(hi) is below
        # the rounding of the (t^2 - 1)/24 terms that cancel inside g
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
    ],
)
def test_solve_matches_oracle_root(t, n):
    res = solve_saddle(t, n)
    with mpmath.workdps(ORACLE_DPS):
        y_star = saddle_root(t, n)
        assert abs(res.y - y_star) <= Y_REL_TOL * y_star


def test_guarantee_flag_off_where_y_is_off():
    # outside the float-safe domain y is percents off the root (2.7% here)
    res = solve_saddle(10**8, 1)
    with mpmath.workdps(ORACLE_DPS):
        assert abs(res.y - saddle_root(10**8, 1)) > 0.01 * res.y
    assert not res.within_guarantees


FLOAT_SAFE_TS = (1000, 2000, 5000, 10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6, 10**7, 10**8)
FLOAT_SAFE_NS = (5 * 10**4, 10**5, 10**6, 10**7, 10**8)


def test_certified_means_float_safe():
    """Wherever a saddle regime certifies, its float answer agrees with the
    oracle to a tenth of the padding: the main-term log absolutely, the
    difference route's saddle ordinate relatively."""
    certified = 0
    with mpmath.workdps(ORACLE_DPS):
        for t in FLOAT_SAFE_TS:
            for n in FLOAT_SAFE_NS:
                main = estimate_main(t, n)
                diff = estimate_difference(t, n)
                if main.hypotheses_ok:
                    err = abs(main.log_value - main_log(t, n))
                    assert err <= INTERVAL_PADDING / 10, (t, n, float(err))
                if diff.hypotheses_ok:
                    y_star = saddle_root(t, n)
                    err = abs(diff.diagnostics["y"] - y_star) / y_star
                    assert err <= INTERVAL_PADDING / 10, (t, n, float(err))
                certified += main.hypotheses_ok + diff.hypotheses_ok
    assert certified >= 50  # the grid is not vacuous


def test_regime_changes_at_the_float_safe_boundary():
    # a former bracket failure, now a certified main estimate
    assert select_regime(10**4, 5 * 10**4) == "main"
    with mpmath.workdps(ORACLE_DPS):
        err = abs(estimate_main(10**4, 5 * 10**4).log_value - main_log(10**4, 5 * 10**4))
    assert err <= INTERVAL_PADDING / 10
    # cut by the roundoff budget: the exponent 2 pi M y is too large
    est = estimate_main(10**6, 10**6)
    exponent = 2.0 * math.pi * est.diagnostics["shifted_index"] * est.diagnostics["y"]
    assert ROUNDOFF_REL * exponent > INTERVAL_PADDING
    assert not est.hypotheses_ok
    assert select_regime(10**6, 10**6) == "exact"


# a point a decade over kappa = 1e-14..1e20, and either side of the float-safe
# bound 24 INTERVAL_PADDING / ROUNDOFF_REL ~ 1.35e7; below kappa ~ 1e-5 the
# constant terms of D_0..D_2 must cancel by hand (v lost 6.4e-2 at 1e-14)
KAPPAS = sorted({10.0**e for e in range(-14, 21)} | {1.3e7, 1.4e7})


def test_kappa_constants_match_oracle_or_raise():
    """v, A and B each match the oracle to the padding, relatively, or the
    solve raises: past kappa ~ 1e15 doubles lose v entirely (at 1e20 the
    unchecked solve gave A = 113 against 1/6)."""
    raised = []
    with mpmath.workdps(ORACLE_DPS):
        for kappa in KAPPAS:
            try:
                consts = kappa_constants(kappa)
            except SolverError:
                raised.append(kappa)
                continue
            for name, value, ref in zip("vAB", consts[1:], kappa_oracle(kappa)):
                err = abs(value - ref) / ref
                assert err <= INTERVAL_PADDING, (kappa, name, float(err))
    assert 1e20 in raised
    assert all(kappa > 1e7 for kappa in raised), raised  # the benchmark's 0.5..1000 and more

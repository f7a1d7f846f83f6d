"""Saddle solver tests, including an independent golden-section cross-check."""

import math
import sys

import pytest

from tcore import saddle
from tcore.asymptotics import SADDLE_MIN_T, estimate_main
from tcore.modular import eta_quotient_log
from tcore.saddle import (
    Y_REL_TOL,
    SolverError,
    kappa_constants,
    saddle_bracket,
    saddle_residual,
    scale_residual,
    solve_saddle,
    solve_scaled_saddle,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def exponent(t, n, y):
    """2 pi M y + log quotient(iy): the saddle minimizes this (it is convex,
    with derivative -2 pi g(y)), giving an oracle independent of bisection."""
    m = n + (t * t - 1) / 24.0
    return 2.0 * math.pi * m * y + eta_quotient_log(complex(0.0, y), t).real


def golden_minimize(f, lo, hi, iters=120):
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def resolves_its_root(res) -> bool:
    """The float residual changes sign across y, 2 Y_REL_TOL to either side:
    no rounding band of g hides the root."""
    below, above = res.y * (1.0 - 2.0 * Y_REL_TOL), res.y * (1.0 + 2.0 * Y_REL_TOL)
    return saddle_residual(res.t, res.n, below) > 0.0 > saddle_residual(res.t, res.n, above)


def test_solve_at_reference_point():
    res = solve_saddle(1000, 60000)
    assert res.bracket_lo < res.y < res.bracket_hi
    assert abs(res.residual) < 1e-9 * res.shifted_index
    assert abs(res.drift) < 1e-8
    assert resolves_its_root(res)


def test_golden_section_cross_check():
    t, n = 1000, 60000
    res = solve_saddle(t, n)
    y_star = golden_minimize(lambda y: exponent(t, n, y), res.bracket_lo, res.bracket_hi)
    assert abs(y_star - res.y) < 1e-5 * res.y


def test_bracket_signs_and_monotone_residual():
    for t, n in ((6, 100), (50, 10_000), (1000, 100_000)):
        lo, hi = saddle_bracket(t, n)
        noise = 1e-9 * (n + (t * t - 1) / 24.0)
        assert saddle_residual(t, n, lo) > -noise
        assert saddle_residual(t, n, hi) < 0.0
        ys = [lo * (hi / lo) ** (i / 19.0) for i in range(20)]
        vals = [saddle_residual(t, n, y) for y in ys]
        assert all(a > b - noise for a, b in zip(vals, vals[1:]))


def test_curvature_band():
    for t, n in ((1000, 60_000), (1000, 100_000), (200, 40_000)):
        res = solve_saddle(t, n)
        if res.y <= 0.1:
            band = res.curvature / min(t, 1.0 / res.y)
            assert 1.0 / 26.0 <= band <= 1.0 / 12.0


def test_guarantee_flag_needs_the_float_safe_domain():
    # from t y = 1 up the t^2/24 terms cancel by hand, so g keeps its sign
    # change at t y = 1e6 and 2e8, where a g that held them read the same
    # rounding on both sides of y (tests/test_saddle_oracle.py has the root)
    for t, n in ((10**9, 42_000), (10**12, 10**6)):
        assert resolves_its_root(solve_saddle(t, n)), (t, n)


def test_guarantee_flag_needs_saddle_min_t():
    # y is float-safe at t = 8, but no certified saddle regime reaches t < 1000
    res = solve_saddle(8, 1000)
    assert resolves_its_root(res)
    assert res.t < SADDLE_MIN_T
    assert not estimate_main(8, 1000).hypotheses_ok


def test_small_t_flag_and_rejections():
    res = solve_saddle(3, 50)
    assert abs(res.residual) <= 1e-9 * res.shifted_index
    with pytest.raises(ValueError):
        solve_saddle(1, 50)
    with pytest.raises(SolverError):
        solve_saddle(1000, 0)  # no finite saddle ordinate at n = 0


def test_monotone_residual_at_n0_grid():
    # at n = 0 the equation has no root: g stays positive and decreasing
    t = 10
    m = (t * t - 1) / 24.0
    ys = [0.5, 1.0, 2.0, 4.0]
    vals = [(saddle_residual(t, 0, y)) for y in ys]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.1 * m  # tends to 0 from above


def test_scaled_saddle_contract():
    for kappa in (1.0, 24.0, 1000.0):
        v = solve_scaled_saddle(kappa)
        assert abs(scale_residual(kappa, v)) < 1e-10
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            solve_scaled_saddle(bad)


def test_kappa_past_a_double_is_refused_and_an_int_kappa_is_stored_as_a_double():
    for call, kappa in ((kappa_constants, 10**400), (solve_scaled_saddle, 10**309)):
        with pytest.raises(ValueError, match="normal double"):
            call(kappa)
    consts = kappa_constants(10**300)
    assert type(consts.kappa) is float and consts == kappa_constants(1e300)


def test_scaled_saddle_total_in_41_bisections(monkeypatch):
    # the a-priori bracket kappa/(4 pi (1 + kappa/24)) < v < sqrt(kappa/24),
    # tightened to hi <= 2 lo, needs no search at any kappa
    midpoints = []

    def counted(kappa, v):
        midpoints.append(v)
        return scale_residual(kappa, v)

    monkeypatch.setattr(saddle, "scale_residual", counted)
    extremes = [sys.float_info.min, 1e-307, sys.float_info.max]
    for kappa in extremes + [10.0**e for e in range(-300, 301, 25)]:
        midpoints.clear()
        v = solve_scaled_saddle(kappa)
        assert len(midpoints) <= 41, kappa
        lo, hi = kappa / (4.0 * math.pi * (1.0 + kappa / 24.0)), math.sqrt(kappa / 24.0)
        assert all(lo * (1 - 1e-15) <= w <= hi * (1 + 1e-15) for w in midpoints), kappa
        assert abs(scale_residual(kappa, v)) * kappa < 1e-10, kappa
        consts = kappa_constants(kappa)
        assert 0.0 < consts.A < math.inf and 0.0 < consts.B < math.inf, kappa


def test_scaled_saddle_monotone():
    vs = [solve_scaled_saddle(k) for k in (1.0, 10.0, 1e3, 1e6)]
    assert all(a < b for a, b in zip(vs, vs[1:]))


def test_kappa_constants_limits():
    consts = kappa_constants(1e6)
    assert abs(consts.A - 1.0 / 6.0) < 1e-2
    assert abs(consts.B - 4.0 * math.sqrt(3.0)) < 1e-1


def test_kappa_constants_positive():
    for kappa in (0.5, 1.0, 24.0, 300.0):
        consts = kappa_constants(kappa)
        assert consts.v > 0.0
        assert consts.A > 0.0
        assert consts.B > 0.0

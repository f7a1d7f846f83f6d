"""Estimator tests: hypothesis logic, explicit error arithmetic, quadrature
checks, and the cheap consistency identities.  Exact-count containments are
exercised in the acceptance suite."""

import math
import random
import sys

import pytest

from tcore import exact
from tcore.asymptotics import (
    EXACT_REGIME_MAX_N,
    INTERVAL_PADDING,
    SADDLE_MIN_T,
    HypothesisError,
    big_t_threshold,
    certified_difference,
    certified_estimate,
    estimate,
    estimate_difference,
    estimate_exact,
    estimate_kappa,
    estimate_main,
    estimate_small_t,
    log_gamma,
    log_interval,
    select_regime,
    small_t_hypotheses,
)
from tcore.saddle import kappa_constants, saddle_bracket, solve_saddle
from tcore.selftest import (
    central_arc_ratio,
    curvature_on_axis,
    gaussian_integral_check,
    minor_arc_ratio,
)
from tcore.verifier import certify_pair


# --- log gamma ------------------------------------------------------------------

def test_log_gamma_integers():
    for n in range(1, 30):
        assert math.isclose(
            log_gamma(n), math.log(math.factorial(n - 1)), rel_tol=1e-13, abs_tol=1e-13
        )


def test_log_gamma_half_integers():
    # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)
    for n in (0, 1, 5, 20):
        expected = (
            math.log(math.factorial(2 * n))
            + 0.5 * math.log(math.pi)
            - n * math.log(4.0)
            - math.log(math.factorial(n))
        )
        assert math.isclose(log_gamma(n + 0.5), expected, rel_tol=1e-12)


def test_log_gamma_vs_stdlib():
    for x in (0.3, 1.7, 9.99, 10.01, 24.5, 499.5, 1e6):
        assert math.isclose(log_gamma(x), math.lgamma(x), rel_tol=1e-12)
    with pytest.raises(ValueError):
        log_gamma(0.0)


def test_log_gamma_vs_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(13)
    xs = [(t - 1) / 2 for t in range(8, 5001)]  # the small-t arguments
    xs += [rng.uniform(1e-3, 1e4) for _ in range(3000)]
    with mpmath.workdps(40):
        for x in xs:
            ref = mpmath.loggamma(x)
            assert abs(log_gamma(x) - ref) <= 1e-15 * max(1.0, abs(ref)), x


# --- main estimator ------------------------------------------------------------------

def test_main_hypotheses_at_reference():
    est = estimate_main(1000, 60000)
    assert est.hypotheses_ok
    assert 0.0 < est.rel_error_bound < 0.1


# No integer t below SADDLE_MIN_T meets min(t, 1/y) >= SADDLE_MIN_T, whatever
# n: certify_pair and certified_estimate skip those saddle solves
SADDLE_GATE_NS = (10**4, 10**6, 10**17)


def test_main_hypotheses_fail_small_t():
    est = estimate_main(6, 100)
    assert not est.hypotheses_ok
    for t in range(2, SADDLE_MIN_T):
        for n in SADDLE_GATE_NS:
            assert not estimate_main(t, n).hypotheses_ok, (t, n)


def test_main_error_bound_property():
    # rel <= 3.5 * 26 / min(t, 1/y) whenever y <= 1/10
    for t, n in ((1000, 60_000), (1000, 100_000), (500, 200_000)):
        est = estimate_main(t, n)
        y = est.diagnostics["y"]
        if y <= 0.1:
            cap = 3.5 * 26.0 / min(t, 1.0 / y) + 1e-6
            assert est.rel_error_bound <= cap


# --- difference estimator ---------------------------------------------------------------

def test_difference_at_reference():
    est = estimate_difference(1000, 100_000)
    ty = 1000 * est.diagnostics["y"]
    assert ty >= 0.5
    assert est.hypotheses_ok
    center = est.diagnostics["multiplier_center"]
    halfwidth = est.diagnostics["multiplier_halfwidth"]
    assert center == pytest.approx(2.0 * math.pi * ty - 1.0)
    assert center > 0.0  # 2 pi / 2 - 1 > 0 whenever ty >= 1/2
    assert halfwidth / center < 1.0  # usable separation certificate


def test_difference_pads_the_rounding_of_y(monkeypatch):
    """The solver holds y within Y_REL_TOL of the root at every t y tested
    (no term of its residual has size t^2), so the multiplier's rel is
    E/center plus INTERVAL_PADDING alone, and the pair certificate subtracts
    it.  The
    hypotheses are checked as written, at t y = 1e6 too: 1/y against
    SADDLE_MIN_T is refused by a miss of 5e-10 relative and holds with that
    margin on the right side.  Past kappa = t^2/m ~ 1e16, where a rounding
    model of y used to refuse, the route certifies, with y on the 50-digit
    root (tests/test_saddle_oracle.py, test_solve_matches_oracle_root)."""
    t, m = 10**7, 10**8
    est = estimate_difference(t, m)
    center = est.diagnostics["multiplier_center"]
    halfwidth = est.diagnostics["multiplier_halfwidth"]
    assert est.hypotheses_ok
    assert est.rel_error_bound == halfwidth / center + INTERVAL_PADDING
    cert = certify_pair(t, t + m)
    assert cert.method == "difference"
    assert cert.margin == center * (1.0 - est.rel_error_bound)
    from tcore import asymptotics

    real = solve_saddle(10**9, 42_000)
    for y, ok in ((1.0000000005e-3, False), (0.9999999995e-3, True)):
        monkeypatch.setattr(asymptotics, "solve_saddle", lambda t, n, y=y: real._replace(y=y))
        assert estimate_difference(10**9, 42_000).hypotheses_ok is ok, y
    monkeypatch.undo()
    for t, m in ((10**17, 10**17), (10**20, 10**21)):
        cert = certify_pair(t, t + m)
        assert (cert.method, cert.ok) == ("difference", True), (t, m)
        assert cert.detail["y"] == solve_saddle(t, m).y


def test_difference_hypotheses_fail_small():
    est = estimate_difference(50, 100_000)  # t too small for certification
    assert not est.hypotheses_ok
    for t in range(2, SADDLE_MIN_T):
        for n in SADDLE_GATE_NS:
            assert not estimate_difference(t, n).hypotheses_ok, (t, n)


# --- small-t estimator --------------------------------------------------------------------

def test_small_t_at_50_100000():
    est = estimate_small_t(50, 100_000)
    assert est.hypotheses_ok
    expected = 2.5 * math.exp(-50.0 / 8.0) + 20.0 / 50.0**4
    assert est.rel_error_bound == pytest.approx(expected, abs=1e-8)
    assert est.rel_error_bound < 0.005


def test_small_t_at_8():
    est = estimate_small_t(8, 100_000)
    assert est.hypotheses_ok
    assert est.rel_error_bound == pytest.approx(2.5 / math.e + 20.0 / 4096.0, abs=1e-6)
    assert est.rel_error_bound < 1.0
    assert not estimate_small_t(8, 50).hypotheses_ok  # M below 100000
    with pytest.raises(ValueError):
        estimate_small_t(7, 100_000)


def test_small_t_hypothesis_window():
    # certified points satisfy t*y < 2 pi / (5 log t) for the regime's y
    for t, n in ((8, 100_000), (50, 100_000), (100, 500_000)):
        if small_t_hypotheses(t, n):
            est = estimate_small_t(t, n)
            ty = t * est.diagnostics["y"]
            assert ty < 2.0 * math.pi / (5.0 * math.log(t))


# --- exact regime (t above the big-t threshold) ---------------------------------------------

def test_big_t_below_t():
    est = estimate_exact(30, 10)
    assert est.log_value == exact.log_of_integer(42)
    assert est.diagnostics["count"] == "42"
    assert est.rel_error_bound == INTERVAL_PADDING
    assert est.hypotheses_ok


def test_big_t_reference_hypotheses():
    est = estimate_exact(600, 10_000)
    assert est.hypotheses_ok
    assert est.log_value == exact.log_of_integer(exact.tcore_count(600, 10_000))
    # t = 520 sits below the threshold 538.6
    assert big_t_threshold(10_000) == pytest.approx(538.59, abs=0.01)
    with pytest.raises(HypothesisError):
        estimate_exact(520, 10_000)


def test_big_t_rejects_nonpositive_main_in_regime():
    # below the threshold the inner factor has no cost bound, and the exact
    # regime refuses; there p(n) - t p(n-t) can be negative, as at (10, 40)
    # and (400, 10000)
    for t, n in ((6, 20), (10, 40), (400, 10_000)):
        with pytest.raises(HypothesisError):
            estimate_exact(t, n)
    with pytest.raises(ValueError, match=f"exact regime cap {EXACT_REGIME_MAX_N}"):
        estimate_exact(10**8, 10**7)


def test_exact_regime_matches_bruteforce():
    for n in range(29):
        lowest = max(math.floor(big_t_threshold(n)) + 1, 2)
        for t in sorted({lowest, lowest + 1, n // 2 + 1, n, n + 1}):
            if t < lowest:
                continue
            est = estimate_exact(t, n)
            count = exact.tcore_count_bruteforce(t, n)
            assert est.diagnostics["count"] == str(count), (t, n)
            if count:
                assert est.hypotheses_ok and est.log_value == exact.log_of_integer(count)
            else:  # t = 2 or 3: no log-space interval
                assert not est.hypotheses_ok and est.log_value == -math.inf


def test_exact_regime_matches_closed_form():
    for n in (100, 1000, 5000, 20_000):
        lowest = max(math.floor(big_t_threshold(n)), n // 3) + 1  # in regime, n < 3t
        for t in (lowest, lowest + 1, n // 2, n - 1, n + 5):
            count = exact.tcore_count_closed_small_range(t, n)
            est = estimate_exact(t, n)
            assert est.diagnostics["count"] == str(count), (t, n)
            assert est.log_value == exact.log_of_integer(count)


# --- kappa heuristic ------------------------------------------------------------------------

def test_kappa_never_certified():
    est = estimate_kappa(49, 100)
    assert not est.hypotheses_ok
    assert est.rel_error_bound is None


def test_kappa_reduces_to_plain_partition_shape():
    # for huge kappa the growth law collapses to exp(2 pi sqrt(n/6))/(4 sqrt(3) n)
    t, n = 10_000, 100
    est = estimate_kappa(t, n)
    hardy = 2.0 * math.pi * math.sqrt(n / 6.0) - math.log(4.0 * math.sqrt(3.0) * n)
    assert abs(est.log_value - hardy) < 1e-3


def test_kappa_substitution_identity():
    kappa = 24.0
    n = 2500
    t = round(math.sqrt(kappa * n))
    consts = kappa_constants(t * t / n)
    assert consts.A * n == pytest.approx(consts.A * t * t / (t * t / n), rel=1e-12)


def test_regime_overlap_consistency():
    # where both the small-t and main regimes certify, their intervals
    # must intersect (they enclose the same count)
    t, n = 1000, 450_000
    small = estimate_small_t(t, n)
    main = estimate_main(t, n)
    assert small.hypotheses_ok and main.hypotheses_ok
    lo_s, hi_s = log_interval(small)
    lo_m, hi_m = log_interval(main)
    assert max(lo_s, lo_m) <= min(hi_s, hi_m)


# --- regime selection -------------------------------------------------------------------------

def test_select_regime_examples():
    assert select_regime(50, 100_000) == "small_t"
    assert select_regime(1000, 60_000) == "main"
    assert select_regime(6, 20) == "kappa_heuristic"  # nothing certifies
    assert select_regime(600, 10_000) == "exact"
    # above big_t_threshold(n), but past the exact regime's cap: main
    # certifies, padding the rounding of its exponent
    assert select_regime(74989, 100_001) == "main"
    # there main's hypotheses hold, but its pad for rounding passes 1
    assert select_regime(10**12, 200_000) == "kappa_heuristic"


def test_t_squared_beyond_doubles_is_refused():
    t = 10**155  # t^2 overflows a double from t ~ 1.34e154
    for call in (
        lambda: estimate(t, 5),
        lambda: estimate(t, 10**10, regime="kappa_heuristic"),
        lambda: estimate_main(t, 10**6),
        lambda: certify_pair(t, 10**6),
    ):
        with pytest.raises(ValueError, match="overflows? a double"):
            call()


def test_hypotheses_are_checked_without_slack(monkeypatch):
    """A hypothesis missed by less than 1e-9 relative is refused, and the
    same margin on the right side still holds: 1/y against SADDLE_MIN_T in
    the difference regime, then M >= 10^5 and t(t-1)/(4 pi M) < rhs in the
    small-t regime."""
    from tcore import asymptotics

    real = solve_saddle(2000, 10**6)
    for y, ok in ((1.0000000005e-3, False), (0.9999999995e-3, True)):
        monkeypatch.setattr(asymptotics, "solve_saddle", lambda t, n, y=y: real._replace(y=y))
        assert estimate_difference(2000, 10**6).hypotheses_ok is ok, y
    rhs = 0.2 * min(2.0 / math.sqrt(3.0), 2.0 * math.pi / math.log(1000))
    for t, m, ok in (
        (8, 1e5 * (1.0 - 1e-10), False),
        (8, 1e5, True),
        (1000, 1000 * 999 / (4.0 * math.pi * rhs * (1.0 + 1e-10)), False),
        (1000, 1000 * 999 / (4.0 * math.pi * rhs * (1.0 - 1e-10)), True),
    ):
        monkeypatch.setattr(asymptotics, "shifted_index", lambda t, n, m=m: m)
        assert small_t_hypotheses(t, 10**5) is ok, (t, m)


def test_n_beyond_the_float_domain_is_refused():
    """Every float route refuses an n past a double with ValueError, and so
    does an n that is a double where M = N + (t^2 - 1)/24 overflows (there
    the small-t regime used to certify log c = inf).  The saddle routes also
    refuse where the ordinate squared underflows (g used to divide by 0),
    while the small-t ratio certificate still answers there."""
    huge = 10**309
    for t in TOTAL_TS:
        calls = [solve_saddle, estimate, estimate_main, estimate_difference, estimate_kappa]
        calls += [certify_pair, lambda t, n: certify_pair(t, n, exact_cap=0)]
        if t >= 8:
            calls.append(estimate_small_t)
        for call in calls:
            with pytest.raises(ValueError, match="overflows a double"):
                call(t, huge)
    with pytest.raises(ValueError, match="overflows a double"):
        certify_pair(1, huge)
    t, n = 10**154, int(sys.float_info.max)
    for call in (solve_saddle, estimate, estimate_small_t, certify_pair):
        with pytest.raises(ValueError, match="overflows a double"):
            call(t, n)
    for call in (solve_saddle, estimate_main, estimate_difference):
        with pytest.raises(ValueError, match="squared underflows"):
            call(2000, 10**200)
    # certify_pair skips the difference route there, where t y >= 1/2 fails
    assert certify_pair(2000, 10**200).method == "ratio"
    assert certify_pair(8, 10**200).method == "ratio"
    assert estimate(2000, 10**200).regime == "small_t"
    # a double whose 24 n overflows, past ~7.5e306 (t^2 still a double)
    for call in (solve_saddle, estimate_main, estimate_difference, saddle_bracket):
        with pytest.raises(ValueError, match="n = 10+ is too large: 24 n overflows"):
            call(10**153, 10**307)
    hi = saddle_bracket(10**153, 7 * 10**306)[1]
    assert hi == 1.0 / (3.0 / math.pi + math.sqrt(24.0 * 7e306 - 1.0 + 9.0 / math.pi**2)) > 0.0


def test_kappa_heuristic_is_finite_at_huge_n():
    # B N passes the largest double here (B = 6.3e150 and 1.6e125), where
    # log(B N) used to read -inf
    for est in (estimate(2, 10**300), estimate_kappa(8, 10**250)):
        assert est.regime == "kappa_heuristic"
        assert math.isfinite(est.log_value)


def test_certified_estimate_chooser():
    assert certified_estimate(50, 100_000).regime == "small_t"
    assert certified_estimate(1000, 60_000).regime == "main"
    assert certified_estimate(6, 20) is None  # nothing certifies
    assert certified_estimate(1, 100_000) is None  # outside t >= 2
    assert certified_estimate(1000, 0) is None  # outside n >= 1: no saddle
    assert certified_estimate(10**6, 0) is None


def test_certified_difference_reach():
    """Past the a-priori reach t >= SADDLE_MIN_T, m >= 1, 24 m - 1 < 4 t^2
    certified_difference answers None, and estimate offers no difference
    regime: it estimates log c_t(N) only."""
    est = certified_difference(1000, 100_000)
    assert est.certified and est == estimate_difference(1000, 100_000)
    for t, m in ((999, 100_000), (2000, 0), (3000, 1_500_001)):
        assert certified_difference(t, m) is None, (t, m)
    with pytest.raises(ValueError, match="unknown regime"):
        estimate(1000, 100_000, regime="difference")


# Saddle solves per call: auto estimate solves twice in the main regime (to
# select it, then to answer); the difference route solves only inside its
# reach 24 (N - t) - 1 < 4 t^2, and the ratio route builds no interval at
# t + 1 once the one at t is missing.
SOLVE_COUNTS = {
    "estimate main": (lambda: estimate(1000, 60_000), 2),
    "estimate small_t": (lambda: estimate(50, 200_000), 0),
    "estimate kappa": (lambda: estimate(700, 100_000), 0),
    "pair difference": (lambda: certify_pair(2000, 100_000), 1),
    "pair small_t": (lambda: certify_pair(50, 200_000), 0),
    "pair underflow": (lambda: certify_pair(2000, 10**200), 0),
    "pair on reach": (lambda: certify_pair(3000, 3000 + 1_500_000), 3),
    "pair past reach": (lambda: certify_pair(3000, 3000 + 1_500_001), 2),
    "pair t missing": (lambda: certify_pair(999, 200_000), 0),
}


@pytest.mark.parametrize("name", sorted(SOLVE_COUNTS))
def test_saddle_solve_counts(monkeypatch, name):
    from tcore import asymptotics

    call, expected = SOLVE_COUNTS[name]
    solves = []

    def counted(t, n):
        solves.append((t, n))
        return solve_saddle(t, n)

    monkeypatch.setattr(asymptotics, "solve_saddle", counted)
    call()
    assert len(solves) == expected, solves


# t from 2 to 1e8 and n from 1 to 1e8, about four and three steps a decade,
# with the points whose bracket used to fail by rounding, and huge t: the
# nome e(i t y) underflows to 0 from t ~ 1e104, and t^2 is a double up to
# t ~ 1.34e154
TOTAL_TS = sorted(
    {2, 3, 4, 5, 6, 7, 8, 10, 4500, 30000, 300000, 10**20, 10**104, 10**110, 10**153}
    | {round(10 ** (k / 4)) for k in range(4, 33)}
)
TOTAL_NS = sorted({1, 2, 5, 20500, 25000} | {round(10 ** (k / 3)) for k in range(1, 25)})


def test_total_on_domain_grid():
    """No exception anywhere on the grid, and auto never picks the exact
    regime past its cap."""
    for t in TOTAL_TS:
        for n in TOTAL_NS:
            solve_saddle(t, n)
            estimate_main(t, n)
            estimate_difference(t, n)
            regime = select_regime(t, n)
            assert regime != "exact" or n <= EXACT_REGIME_MAX_N, (t, n)
            assert estimate(t, n).regime == regime
            certify_pair(t, n, exact_cap=0)


def test_total_at_large_n():
    """Where the curvature D_2(iy) - D_2(ity) or the kappa constant B rounds
    to zero, the estimators still return, uncertified, and so does
    estimate."""
    for t in TOTAL_TS:
        for n in (10**17, 10**21, 10**24):
            main = estimate_main(t, n)
            assert math.isfinite(main.log_value) or not main.hypotheses_ok, (t, n)
            estimate_difference(t, n)
            certify_pair(t, n, exact_cap=0)
            estimate(t, n)


def test_exact_regime_on_domain_grid():
    """The exact regime answers wherever neither certified regime holds and
    t > 1.5 (sqrt 6 / 2 pi) sqrt(n) log(n), at 541 grid points with
    n <= 25000 (64 of them at t = 1e20..1e153), and its interval holds the
    exact log."""
    points = 0
    for t in TOTAL_TS:
        for n in TOTAL_NS:
            if n > 25_000 or certified_estimate(t, n) is not None:
                continue
            if t <= 1.5 * math.sqrt(6.0) / (2.0 * math.pi) * math.sqrt(n) * math.log(n):
                continue
            points += 1
            assert select_regime(t, n) == "exact", (t, n)
            est = estimate_exact(t, n)
            count = exact.tcore_count(t, n)
            if count == 0:  # (2, 2)
                assert not est.hypotheses_ok
                continue
            lg = exact.log_of_integer(count)
            assert est.log_value == lg, (t, n)
            lo, hi = log_interval(est)
            assert lo < lg < hi, (t, n)
    assert points == 541


def test_estimate_dispatch():
    auto = estimate(50, 100_000)
    assert auto.regime == "small_t"
    forced = estimate(50, 100_000, regime="kappa_heuristic")
    assert forced.regime == "kappa_heuristic"
    with pytest.raises(ValueError):
        estimate(50, 100_000, regime="bogus")


def test_log_interval_requires_usable_bound():
    est = estimate_kappa(49, 100)
    with pytest.raises(HypothesisError):
        log_interval(est)
    lo, hi = log_interval(estimate_small_t(50, 100_000))
    assert lo < hi


# --- Gaussian integral check --------------------------------------------------------------------

def test_gaussian_base_case():
    res = gaussian_integral_check(39.0, 0.0, 0.0, 0.0)
    assert res.bounds_ok
    assert abs(res.i_value.imag) < 1e-13
    assert abs(res.j_value) < 1e-13  # odd integrand vanishes


def test_gaussian_sweep():
    for a in (39.0, 100.0, 1000.0):
        for b in (-0.079, 0.079):
            for s in (-0.9, 0.9):
                for err in (1.0, -1.0, 1j, -1j):
                    assert gaussian_integral_check(a, b, s, err).bounds_ok


def test_gaussian_rejects_out_of_range():
    with pytest.raises(ValueError):
        gaussian_integral_check(38.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_integral_check(40.0, 0.09, 0.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_integral_check(40.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_integral_check(40.0, 0.0, 0.0, 2.0)


# --- arc integrals --------------------------------------------------------------------------------

def test_minor_arc_reference_bound():
    ratio = minor_arc_ratio(100, 0.05)
    assert 0.0 < ratio <= math.exp(-min(100.0, 20.0) / 70.0)


def test_minor_arc_trend_in_y():
    ratios = [minor_arc_ratio(200, y) for y in (0.1, 0.06, 0.02)]
    assert ratios[0] > ratios[1] > ratios[2] > 0.0


def test_minor_arc_validation():
    with pytest.raises(ValueError):
        minor_arc_ratio(100, 0.01)


def test_central_arc_mass_bound():
    t, y = 100, 0.05
    alpha = curvature_on_axis(t, y)
    assert central_arc_ratio(t, y) <= math.sqrt(3.0 / (2.0 * alpha))

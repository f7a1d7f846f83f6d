"""Eta machinery tests: special values, functional equations, dual expansions,
and the bounds the certified estimates rely on."""

import cmath
import math
import time

import pytest

from tcore import exact, modular
from tcore.modular import (
    e_of,
    eta_log,
    eta_log_deriv,
    eta_log_deriv_prime,
    eta_quotient_log,
    expansion_polynomials,
    quotient_step_log,
    sigma,
)

PI = math.pi


# --- sigma -------------------------------------------------------------------------

def test_sigma_values():
    assert sigma(1) == 1
    assert sigma(6) == 12  # 1 + 2 + 3 + 6
    for q in (2, 3, 5, 7, 101, 997):
        assert sigma(q) == q + 1


def test_sigma_brute():
    for n in range(1, 200):
        assert sigma(n) == _brute_sigma(n)


def test_sigma_validation():
    with pytest.raises(ValueError):
        sigma(0)


def _brute_sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_sigma_large_n_is_fast():
    # divisor pairs up to sqrt(n): no table of n entries
    for n, want in ((8128, 16256), (2**40, 2**41 - 1), (10**12 + 39, 10**12 + 40)):
        start = time.perf_counter()
        assert sigma(n) == want
        assert time.perf_counter() - start < 1.0, n


def test_sigma_table_is_fixed():
    table = modular._sigma_table
    assert len(table) == modular.SERIES_TERMS + 1 == 33
    assert table == [0] + [_brute_sigma(n) for n in range(1, 33)]
    for k in range(5):
        for y in (1e-3, 0.5, 1.0, 3.0):
            eta_log_deriv(k, complex(0.0, y))
            eta_log_deriv_prime(k, complex(0.0, y))
    sigma(10**6)
    assert modular._sigma_table is table and len(table) == 33


# --- the n-sum bound -------------------------------------------------------------

def test_natural_region_needs_at_most_12_terms(monkeypatch):
    # the corners of the natural region: either side of y = 1 on the axis,
    # and the inverted branch's edge |x| = y/3 just below y = 1
    counts = []
    summed = modular._sum_terms

    def counting(term_fn):
        calls = [0]

        def term(n):
            calls[0] += 1
            return term_fn(n)

        try:
            return summed(term)
        finally:
            counts.append(calls[0])

    monkeypatch.setattr(modular, "_sum_terms", counting)
    corners = [complex(0.0, 1.0 + 1e-6), complex(0.0, 1.0 - 1e-6)]
    corners += [complex(sign * 0.333 * 0.999, 0.999) for sign in (1, -1)]
    for z in corners:
        for k in range(5):
            eta_log_deriv(k, z)
            eta_log_deriv_prime(k, z)
    assert len(counts) == len(corners) * 5 * 3
    assert max(counts) <= 12


def test_forced_branch_band():
    # on the q branch the n-sum of D_5 (read by D_4') would need 38 terms at
    # y = 0.25; at y = 0.5 it takes 20
    with pytest.raises(RuntimeError):
        eta_log_deriv_prime(4, complex(0.0, 0.25), branch="q")
    z = complex(0.0, 0.5)
    assert [eta_log_deriv(k, z, branch="q") for k in range(5)] == [
        0.014087494162924022, -0.0018744435148517861, 0.043581446956150856,
        -0.17011382702442177, 0.7630737602033747,
    ]
    assert [eta_log_deriv_prime(k, z, branch="q") for k in range(5)] == [
        -0.024426101296144472j, -0.07966511985289457j, 0.07873897231193838j,
        -0.16523690421137527j, 0.45030817326541417j,
    ]


# --- eta ---------------------------------------------------------------------------

def test_eta_leading_term():
    # Re log eta(iy) ~ -2 pi y / 24 for large y
    for y in (20.0, 50.0):
        ratio = eta_log(complex(0.0, y)).real / (-2.0 * PI * y / 24.0)
        assert abs(ratio - 1.0) < 1e-10


def test_eta_functional_equation_residual():
    y = 2.0
    lhs = eta_log(complex(0.0, y))
    rhs = -0.5 * math.log(y) + eta_log(complex(0.0, 1.0 / y))
    assert abs(lhs - rhs) < 1e-12


def test_eta_half_vs_two():
    # eta(i/2) = sqrt(2) eta(2i), both sides by direct product
    lhs = cmath.exp(eta_log(complex(0.0, 0.5)))
    rhs = math.sqrt(2.0) * cmath.exp(eta_log(complex(0.0, 2.0)))
    assert abs(lhs - rhs) / abs(rhs) < 1e-12


def test_eta_small_y_reroute():
    # on-axis evaluation below the product floor goes through the inversion
    val = eta_log(complex(0.0, 0.001))
    assert math.isclose(val.real, -0.5 * math.log(0.001) - 2.0 * PI / (24.0 * 0.001), rel_tol=1e-9)


def test_eta_region_validation():
    with pytest.raises(ValueError):
        eta_log(complex(0.0, -1.0))
    with pytest.raises(ValueError):
        eta_log(complex(0.3, 0.001))  # tiny y off the axis is unsupported


# --- the eta quotient -----------------------------------------------------------------

def test_quotient_real_positive_on_axis():
    for t, y in ((5, 0.35), (100, 0.01), (1000, 0.001)):
        val = eta_quotient_log(complex(0.0, y), t)
        assert abs(val.imag) < 1e-12
        assert math.isfinite(val.real)


def test_quotient_reproduces_series():
    t = 5
    z = complex(0.0, 0.35)
    lhs = e_of((1 - t * t) * z / 24.0) * cmath.exp(eta_quotient_log(z, t))
    series = exact.tcore_counts(t, 30)
    rhs = sum(series.values[n] * e_of(n * z) for n in range(31))
    assert abs(lhs - rhs) < 1e-8


def test_quotient_d0_identity():
    # log quotient(iy) = (2 pi / y)(D_0(iy) - D_0(ity))
    t, y = 100, 0.01
    lhs = eta_quotient_log(complex(0.0, y), t).real
    rhs = (2.0 * PI / y) * (
        eta_log_deriv(0, complex(0.0, y)).real
        - eta_log_deriv(0, complex(0.0, t * y)).real
    )
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


# --- polynomial tables -----------------------------------------------------------------

def test_table_rows_match_closed_forms():
    from fractions import Fraction

    rows_fn = {
        0: (-1, (1,)),
        1: (0, (1,)),
        2: (0, (-2, 1)),
        3: (0, (6, -6, 1)),
        4: (0, (-24, 36, -12, 1)),
        5: (0, (120, -240, 120, -20, 1)),
    }
    for k, (low, coeffs) in rows_fn.items():
        tab = expansion_polynomials(k)
        assert tab.fn_low == low
        assert tab.fn_coeffs == tuple(Fraction(c) for c in coeffs)


def _poly_add(acc, shift, scale, poly):
    """acc += scale * r^shift * poly, polynomials as {exponent: coefficient}."""
    for e, c in poly.items():
        acc[e + shift] = acc.get(e + shift, 0) + scale * c


def test_table_derivative_identity():
    # the n-sum of D_k' on the inverted branch: r ((k+1) F_k + F_{k+1}) equals
    # r^2 (F_k - F_k') exactly, through k = 8
    tabs = [expansion_polynomials(k) for k in range(10)]
    f = [dict(enumerate(tab.fn_coeffs, start=tab.fn_low)) for tab in tabs]
    for k in range(9):
        lhs = {}
        _poly_add(lhs, 1, k + 1, f[k])
        _poly_add(lhs, 1, 1, f[k + 1])
        rhs = {}
        _poly_add(rhs, 2, 1, f[k])
        _poly_add(rhs, 1, -1, {e: e * c for e, c in f[k].items()})  # r^2 F'
        assert {e: c for e, c in lhs.items() if c} == {e: c for e, c in rhs.items() if c}


# A separate expansion of D_k', the oracle for eta_log_deriv_prime (which reads
# the n-sums of D_k and D_{k+1}): on the inverted branch sigma(n) e(-n/z) is
# multiplied by G_k(r) / (2 pi i n), r = 2 pi i n / z, with
# G_k = (r-k+1) G_{k-1} - r G_{k-1}' from G_0 = r + 1.
_G_ROWS = {
    0: (1, 1),
    1: (0, 0, 1),
    2: (0, 0, -3, 1),
    3: (0, 0, 12, -8, 1),
    4: (0, 0, -60, 60, -15, 1),
}


def _oracle_sum(term):
    total, small, n = 0j, 0, 0
    while small < 2:
        n += 1
        value = term(n)
        total += value
        small = small + 1 if abs(value) < 1e-18 * (abs(total) + 1.0) else 0
    return total


def _prime_oracle(k, z, branch):
    if branch == "q" or (branch == "auto" and z.imag >= 1.0):
        q = e_of(z)

        def term(n):
            u = 2j * PI * n * z
            return (u ** (k + 1) + (k + 1) * u**k) * sigma(n) / (2j * PI * n) * q**n

        total = _oracle_sum(term)
        return total - z / 12.0 if k <= 1 else total
    w = e_of(-1.0 / z)

    def term(n):
        r = 2j * PI * n / z
        poly = sum(c * r**e for e, c in enumerate(_G_ROWS[k]))
        return poly * sigma(n) / (2j * PI * n) * w**n

    total = _oracle_sum(term)
    if k == 0:
        return total + (1.0 + cmath.log(-1j * z)) / (4j * PI)
    return total + (-1) ** (k - 1) * math.factorial(k - 1) / (4j * PI)


_ORACLE_POINTS = (
    [(complex(0.0, 10.0 ** (-3 + 0.1 * i)), "auto") for i in range(41)]  # 1e-3..10
    + [
        (complex(x, y), branch)
        for x, y in ((0.0, 0.9), (0.0, 1.0), (0.0, 1.1), (0.25, 0.95))
        for branch in ("q", "inverted")
    ]
    + [
        (z, "auto")
        for z in (
            complex(0.1, 0.7), -1.0 / complex(0.1, 0.7), complex(0.25, 0.95),
            complex(3e-4, 1e-3), complex(3e-3, 1e-2), complex(0.03, 0.1),
        )
    ]
)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_prime_matches_second_expansion_oracle(k):
    for z, branch in _ORACLE_POINTS:
        want = _prime_oracle(k, z, branch)
        got = eta_log_deriv_prime(k, z, branch=branch)
        assert abs(got - want) <= 1e-13 * abs(want), (k, z, branch)


# --- dual expansions ---------------------------------------------------------------------

@pytest.mark.parametrize("y", [0.9, 1.0, 1.1])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_dual_expansion_agreement(k, y):
    z = complex(0.0, y)
    for fn in (eta_log_deriv, eta_log_deriv_prime):
        a = fn(k, z, branch="q")
        b = fn(k, z, branch="inverted")
        assert abs(a - b) <= 1e-10 * max(abs(a), 1e-30)


def test_dual_expansion_off_axis():
    z = complex(0.25, 0.95)
    for k in range(5):
        a = eta_log_deriv(k, z, branch="q")
        b = eta_log_deriv(k, z, branch="inverted")
        assert abs(a - b) <= 1e-10 * max(abs(a), 1e-30)


def test_underflowed_nome_leaves_the_constant_terms():
    # e(z) underflows to 0.0 from y ~ 119, e(-1/z) below y ~ 0.0084; the
    # n-sums are then 0, and at y = 1e103 (i y)^3 overflows, so the q-branch
    # sum is not formed
    for k in range(5):
        assert eta_log_deriv(k, complex(0.0, 1e103)) == (1e206 / 24.0 if k <= 1 else 0.0)
        assert eta_log_deriv_prime(k, complex(0.0, 1e103)) == (-1e103j / 12.0 if k <= 1 else 0.0)
    y = 1e-3
    want = {1: -1.0 / 24.0 + y / (4.0 * PI), 2: 1.0 / 12.0 - y / (4.0 * PI)}
    for k, value in want.items():
        assert eta_log_deriv(k, complex(0.0, y)) == pytest.approx(value, rel=1e-15, abs=0)


def test_region_validation():
    with pytest.raises(ValueError):
        eta_log_deriv(2, complex(0.5, 0.6))  # |x| >= y/3 with y < 1
    with pytest.raises(ValueError):
        eta_log_deriv(5, complex(0.0, 1.0))
    with pytest.raises(ValueError):
        eta_log_deriv(2, complex(0.0, 1.0), branch="bogus")


# --- D_k values and bounds ------------------------------------------------------------------

def test_d1_growth():
    # D_1(iy) / (y^2/24) -> 1 as y grows
    y = 30.0
    ratio = eta_log_deriv(1, complex(0.0, y)).real / (y * y / 24.0)
    assert abs(ratio - 1.0) < 1e-12


def test_d2_limits():
    assert abs(eta_log_deriv(2, complex(0.0, 1e-4)).real - 1.0 / 12.0) < 1e-4
    assert eta_log_deriv(2, complex(0.0, 30.0)).real < 1e-70


def test_d2_anchor_difference():
    anchor = (
        eta_log_deriv(2, complex(0.0, 0.1)).real
        - eta_log_deriv(2, complex(0.0, 1.0)).real
    )
    assert abs(anchor - 0.0635) <= 0.0005


def test_d2_prime_special_value():
    # i D_2'(i) = -1/(8 pi)
    val = 1j * eta_log_deriv_prime(2, complex(0.0, 1.0))
    assert abs(val - (-1.0 / (8.0 * PI))) < 1e-12


def test_d1_prime_lower_bound():
    # i D_1'(iy) > 1/(4 pi); the gap is ~ e^(-2 pi / y) for tiny y, below
    # double resolution, so strictness is asserted only where resolvable
    for y in (0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 10.0):
        val = 1j * eta_log_deriv_prime(1, complex(0.0, y))
        assert abs(val.imag) < 1e-10
        assert val.real >= 1.0 / (4.0 * PI)
        if y >= 0.3:
            assert val.real > 1.0 / (4.0 * PI)


def test_d2_prime_functional_equation():
    z = complex(0.1, 0.7)
    resid = (
        eta_log_deriv_prime(2, z)
        + eta_log_deriv_prime(2, -1.0 / z)
        - (-1.0 / (4j * PI))
    )
    assert abs(resid) < 1e-10


def test_d3_monotone_range():
    ys = [10.0 ** (-3 + 0.25 * i) for i in range(20)]
    vals = [eta_log_deriv(3, complex(0.0, y)).real for y in ys]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(-0.25 < v < 0.0 for v in vals)


def test_d3_to_d2_ratio_bound():
    for y in (1e-3, 1e-2, 0.1):
        for t in (2, 5, 50, 1000):
            num = (
                eta_log_deriv(3, complex(0.0, y)).real
                - eta_log_deriv(3, complex(0.0, t * y)).real
            )
            den = (
                eta_log_deriv(2, complex(0.0, y)).real
                - eta_log_deriv(2, complex(0.0, t * y)).real
            )
            assert abs(num / den) < 6.0


def test_d4_to_d2_ratio_bound():
    for y in (1e-3, 1e-2, 0.1):
        for frac in (0.0, 0.3):
            z = complex(frac * y, y)
            for t in (2, 20, 1000):
                num = abs(eta_log_deriv(4, z) - eta_log_deriv(4, t * z))
                den = (
                    eta_log_deriv(2, complex(0.0, y)).real
                    - eta_log_deriv(2, complex(0.0, t * y)).real
                )
                assert num / den < 36.0


# --- the adjacent-t step ---------------------------------------------------------------------

def test_step_log_bounds():
    t, y = 1000, 0.001
    z = complex(0.0, y)
    step = quotient_step_log(z, t)
    damp = abs(t * z) * math.exp(-2.0 * PI * t * y)
    assert abs(step) <= 7.5 * damp
    refined = step + e_of(t * z) * (2j * PI * t * z + 1.0)
    assert abs(refined) <= (40.0 * abs(z) + 22.0 * math.exp(-2.0 * PI * t * y)) * damp


def test_step_log_consistency():
    t = 1000
    z = complex(0.0, 0.001)
    direct = (
        eta_quotient_log(z, t + 1)
        - eta_quotient_log(z, t)
        - 2j * PI * (2 * t + 1) * z / 24.0
    )
    assert abs(quotient_step_log(z, t) - direct) < 1e-10

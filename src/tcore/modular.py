"""Dedekind-eta machinery on the upper half plane.

Provides log eta, the t-core eta quotient eta(tz)^t / eta(z), and the family
of scaled log-eta derivatives

    D_k(z) = -(z^(k+1) / 2 pi i) (d/dz)^k log eta(z),      k = 0..4,

each with two expansions: a q-expansion that converges fast for large y, and
an inverted expansion (in e(-n/z)) for small y obtained from the modular
transformation eta(z) = (-iz)^(-1/2) eta(-1/z).  All arithmetic is ordinary
double precision; truncation thresholds leave ample headroom for the 1e-10
accuracy targets the rest of the package relies on.
"""

import cmath
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

TWO_PI = 2.0 * math.pi
TRUNCATION_TOL = 1e-18
MAX_TERMS = 100_000
Y_FLOOR = 0.02  # below this, eta is evaluated through the functional equation

_K_MAX = 4  # derivative order supported by the series evaluators


def e_of(z: complex) -> complex:
    """e(z) = exp(2 pi i z)."""
    return cmath.exp(2j * math.pi * z)


# --- divisor sums -----------------------------------------------------------

# sigma table, index n (entry 0 unused); replaced wholesale when grown so
# concurrent readers always see a complete table, and only ever by a longer
# one (the swap is made under _sigma_lock).
_sigma_table: list = [0, 1]
_sigma_lock = threading.Lock()


def _sigma_sieve(size: int) -> list:
    """sigma(0..size-1) by a divisor sieve (entry 0 is 0)."""
    table = [0] * size
    for d in range(1, size):
        for m in range(d, size, d):
            table[m] += d
    return table


def _grow_sigma(limit: int) -> list:
    global _sigma_table
    table = _sigma_table
    if limit < len(table):
        return table
    table = _sigma_sieve(max(limit + 1, 2 * len(table)))
    with _sigma_lock:
        if len(table) > len(_sigma_table):
            _sigma_table = table
    return table


def sigma(n: int) -> int:
    """Divisor sum sigma(n) = sum of the positive divisors of n."""
    if n < 1:
        raise ValueError("n must be positive")
    table = _grow_sigma(n)
    return table[n]


# --- log eta and the eta quotient -------------------------------------------

def _require_upper(z: complex) -> None:
    if z.imag <= 0:
        raise ValueError("z must lie in the upper half plane")


def eta_log(z: complex) -> complex:
    """log eta(z) = 2 pi i z / 24 + sum_n log(1 - e(nz)).

    Direct product for y >= Y_FLOOR; for smaller y only the imaginary axis is
    supported, where eta(iy) = y^(-1/2) eta(i/y) reroutes the evaluation.
    """
    _require_upper(z)
    y = z.imag
    if y < Y_FLOOR:
        if z.real != 0.0:
            raise ValueError(
                f"eta_log: y < {Y_FLOOR} is supported only on the imaginary axis"
            )
        return -0.5 * math.log(y) + eta_log(complex(0.0, 1.0 / y))
    total = 2j * math.pi * z / 24.0
    q = e_of(z)
    # |q|^n < TRUNCATION_TOL fixes the term count up front
    nmax = int(math.ceil(-math.log(TRUNCATION_TOL) / (TWO_PI * y))) + 1
    w = q
    for _ in range(nmax):
        total += cmath.log(1.0 - w)
        w *= q
    return total


def eta_quotient_log(z: complex, t: int) -> complex:
    """log of the t-core eta quotient: t*log eta(tz) - log eta(z)."""
    if t < 2:
        raise ValueError("t must be >= 2")
    return t * eta_log(t * z) - eta_log(z)


def quotient_step_log(z: complex, t: int) -> complex:
    """log of e(-(2t+1)z/24) * [quotient at t+1] / [quotient at t].

    Collapses to (t+1) log eta((t+1)z) - t log eta(tz) - 2 pi i (2t+1) z / 24,
    the quantity whose smallness lets adjacent-t counts be compared.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    return (
        (t + 1) * eta_log((t + 1) * z)
        - t * eta_log(t * z)
        - 2j * math.pi * (2 * t + 1) * z / 24.0
    )


# --- polynomial tables for the inverted expansions ---------------------------

@dataclass(frozen=True)
class PolynomialTable:
    """Exact coefficients of the degree-k expansion polynomials.

    fn_coeffs holds the polynomial multiplying sigma(n) e(-n/z) in the
    inverted expansion of D_k (Laurent for k = 0: lowest exponent fn_low);
    deriv_coeffs the integer polynomial playing the same role for D_k'.
    """

    k: int
    fn_low: int
    fn_coeffs: Tuple[Fraction, ...]
    deriv_coeffs: Tuple[int, ...]


def expansion_polynomials(k: int) -> PolynomialTable:
    """Tables via the recurrences F_k = (r-k) F_{k-1} - r F_{k-1}' (from
    F_0 = 1/r) and G_k = (r-k+1) G_{k-1} - r G_{k-1}' (from G_0 = r+1)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    f = {-1: Fraction(1)}  # exponent -> coefficient
    g = {0: Fraction(1), 1: Fraction(1)}
    for j in range(1, k + 1):
        nf = {}
        for e, c in f.items():
            nf[e + 1] = nf.get(e + 1, Fraction(0)) + c
            nf[e] = nf.get(e, Fraction(0)) - (j + e) * c
        ng = {}
        for e, c in g.items():
            ng[e + 1] = ng.get(e + 1, Fraction(0)) + c
            ng[e] = ng.get(e, Fraction(0)) + (1 - j - e) * c
        f = {e: c for e, c in nf.items() if c}
        g = {e: c for e, c in ng.items() if c}
    f_low = min(f)
    f_high = max(f)
    g_high = max(g)
    fn = tuple(f.get(e, Fraction(0)) for e in range(f_low, f_high + 1))
    deriv = tuple(int(g.get(e, Fraction(0))) for e in range(0, g_high + 1))
    return PolynomialTable(k=k, fn_low=f_low, fn_coeffs=fn, deriv_coeffs=deriv)


def eval_laurent(coeffs, low: int, r: complex) -> complex:
    """Evaluate sum_j coeffs[j] r^(low+j) by Horner plus a leading power."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * r + complex(c)
    return acc * r**low


_TABLES = [expansion_polynomials(k) for k in range(_K_MAX + 1)]


# --- the scaled derivatives D_k and their z-derivatives ----------------------

def _check_region(z: complex) -> None:
    _require_upper(z)
    y = z.imag
    x = z.real
    if y < 1.0 and x != 0.0 and abs(x) >= y / 3.0:
        raise ValueError("for y < 1 the evaluation region is |x| < y/3 (or x = 0)")


def _sum_terms(term_fn, decay: float) -> complex:
    """Sum term_fn(n) for n = 1, 2, ... with the stop rule: two consecutive
    terms below TRUNCATION_TOL * (|partial| + 1).  decay > 0 guards the loop."""
    if decay <= 0:
        raise ValueError("nonconvergent expansion")
    total = 0j
    small = 0
    for n in range(1, MAX_TERMS + 1):
        term = term_fn(n)
        total += term
        if abs(term) < TRUNCATION_TOL * (abs(total) + 1.0):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise RuntimeError("series truncation cap exceeded")


def _branch_for(z: complex, branch: str) -> str:
    if branch == "auto":
        return "q" if z.imag >= 1.0 else "inverted"
    if branch not in ("q", "inverted"):
        raise ValueError("branch must be 'auto', 'q' or 'inverted'")
    return branch


def eta_log_deriv(k: int, z: complex, branch: str = "auto") -> complex:
    """D_k(z) = -(z^(k+1) / 2 pi i) (d/dz)^k log eta(z), for k = 0..4.

    branch 'q' uses the q-expansion (natural for y >= 1), 'inverted' the
    e(-n/z) expansion (natural for y < 1); 'auto' switches at y = 1.
    """
    if not 0 <= k <= _K_MAX:
        raise ValueError(f"k must be in 0..{_K_MAX}")
    _check_region(z)
    use = _branch_for(z, branch)
    if use == "q":
        q = e_of(z)
        zk1 = z ** (k + 1)

        def term(n: int) -> complex:
            return zk1 * (2j * math.pi * n) ** (k - 1) * sigma(n) * q**n

        total = _sum_terms(term, z.imag)
        if k <= 1:
            total -= z * z / 24.0
        return total
    tab = _TABLES[k]
    w = e_of(-1.0 / z)
    base = 2j * math.pi / z

    def term(n: int) -> complex:
        return eval_laurent(tab.fn_coeffs, tab.fn_low, base * n) * sigma(n) * w**n

    total = _sum_terms(term, (-1.0 / z).imag)
    total += (-1) ** k * math.factorial(k) / 24.0
    if k == 0:
        total += z / (4j * math.pi) * cmath.log(-1j * z)
    else:
        total += z / (4j * math.pi) * (-1) ** (k - 1) * math.factorial(k - 1)
    return total


def eta_log_deriv_prime(k: int, z: complex, branch: str = "auto") -> complex:
    """d/dz of eta_log_deriv(k, .), same branches and region."""
    if not 0 <= k <= _K_MAX:
        raise ValueError(f"k must be in 0..{_K_MAX}")
    _check_region(z)
    use = _branch_for(z, branch)
    if use == "q":
        q = e_of(z)

        def term(n: int) -> complex:
            u = 2j * math.pi * n * z
            return (u ** (k + 1) + (k + 1) * u**k) * sigma(n) / (2j * math.pi * n) * q**n

        total = _sum_terms(term, z.imag)
        if k <= 1:
            total -= z / 12.0
        return total
    tab = _TABLES[k]
    w = e_of(-1.0 / z)
    base = 2j * math.pi / z

    def term(n: int) -> complex:
        poly = eval_laurent(tab.deriv_coeffs, 0, base * n)
        return poly * sigma(n) / (2j * math.pi * n) * w**n

    total = _sum_terms(term, (-1.0 / z).imag)
    if k == 0:
        total += (1.0 + cmath.log(-1j * z)) / (4j * math.pi)
    else:
        total += (-1) ** (k - 1) * math.factorial(k - 1) / (4j * math.pi)
    return total

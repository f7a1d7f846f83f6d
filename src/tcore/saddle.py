"""Saddle-point equation solvers.

The saddle ordinate y = y(t, N) is the unique positive root of

    g(y) = (D_1(ity) - D_1(iy)) / y^2 - M,     M = N + (t^2 - 1)/24,

where D_1 is the scaled first derivative of log eta (modular.eta_log_deriv).
g is strictly decreasing, and the root lies in an a-priori bracket, so plain
bisection is exact enough and bit-reproducible.  The same machinery solves
the rescaled equation behind the kappa-regime constants A(kappa), B(kappa).
"""

import math
import sys
from typing import NamedTuple

from .modular import _series, eta_log_deriv

Y_REL_TOL = 1e-12
_BRACKET_NUDGE = 1e-15
# |g| below this multiple of the terms that cancel inside g is
# indistinguishable from rounding noise: at small t*y the root sits a relative
# ~e^(-2 pi/(t y)) above the lower bracket endpoint, far below double
# resolution, so the endpoint sign is pure fuzz (see _residual_noise).
RESIDUAL_NOISE_REL = 1e-9


class SolverError(RuntimeError):
    """Bracket-sign failure of a root solve, or no root to solve for."""


def _d(k: int, y: float) -> float:
    """D_k on the imaginary axis (real-valued there); D_0 also gives
    log eta(iy) = -(2 pi/y) D_0(iy), which estimate_main reads."""
    return eta_log_deriv(k, complex(0.0, y)).real


def shifted_index(t: int, n: int) -> float:
    """M = N + (t^2 - 1)/24; ValueError where t^2 or M overflows a double."""
    if t * t > sys.float_info.max:
        raise ValueError(f"t = {t} is too large: t^2 overflows a double")
    if n > sys.float_info.max - (t * t - 1) / 24.0:
        raise ValueError("n is too large: N + (t^2 - 1)/24 overflows a double")
    return n + (t * t - 1) / 24.0


def saddle_residual(t: int, n: int, y: float) -> float:
    """g(y) = (D_1(ity) - D_1(iy))/y^2 - M; positive left of the saddle.  From
    t y = 1 up, D_1(ity) = S_1(ty) + (ty)^2/24 (_n_sum), whose (ty)^2/24 is
    cancelled against the t^2/24 in M by hand, so that no term of g has size
    t^2: g = (1/24 - n - D_1(iy)/y^2) + S_1(ty)/y^2, with the n-sum added last
    (near hi the rest rounds to 0, and the sign of g is that of S_1 < 0)."""
    m = shifted_index(t, n)  # the float-domain gate
    if t * y < 1.0:
        return (_d(1, t * y) - _d(1, y)) / (y * y) - m
    return (1.0 / 24.0 - n - _d(1, y) / (y * y)) + _n_sum(1, t * y) / (y * y)


def _residual_noise(y: float) -> float:
    """Rounding floor of g(y): RESIDUAL_NOISE_REL times 1/(12 y^2), which
    bounds the terms that cancel in it.  Inside the bracket n < (1/y^2 + 1)/24
    (saddle_bracket's hi) and |D_1(iy)| <= 1/24 (y < 1); where t y < 1, also
    (t^2 - 1)/24 < 1/(24 y^2) and |D_1(ity)| <= 1/24."""
    return RESIDUAL_NOISE_REL / (12.0 * y * y)


def saddle_bracket(t: int, n: int) -> tuple:
    """A-priori bracket (lo, hi) of the saddle ordinate; ValueError where lo^2
    underflows or 24 n overflows (from n ~ 7.5e306)."""
    m = shifted_index(t, n)
    lo = (t - 1) / (4.0 * math.pi * m)
    if lo * lo == 0.0:
        raise ValueError(f"n is too large for t = {t}: the saddle ordinate squared underflows")
    disc = 24.0 * n - 1.0 + 9.0 / math.pi**2
    if disc == math.inf:
        raise ValueError(f"n = {n} is too large: 24 n overflows a double")
    if disc <= 0.0:
        raise SolverError(f"no finite saddle ordinate for n = {n}: g stays above 0")
    hi = 1.0 / (3.0 / math.pi + math.sqrt(disc))
    return lo, hi


class SaddleResult(NamedTuple):
    """Solved saddle ordinate with bracket, residual and diagnostics.

    curvature is (D_2(iy) - D_2(ity))/y (the Gaussian concentration scale);
    drift is y * residual (the scaled linear tilt).
    """

    t: int
    n: int
    shifted_index: float
    y: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    curvature: float
    drift: float
    iterations: int


def _bisect(f, lo: float, hi: float) -> tuple:
    """Bisect a decreasing f on [lo, hi] (f(lo) > 0 >= f(hi) up to noise)
    until hi - lo <= Y_REL_TOL * hi; returns (midpoint, bisections), at most
    log2(hi/lo) + 41 for 0 < lo < hi, hi normal: while hi - lo exceeds an
    ulp of hi, each rounded midpoint lies strictly between them."""
    iterations = 0
    while hi - lo > Y_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return 0.5 * (lo + hi), iterations


def solve_saddle(t: int, n: int) -> SaddleResult:
    """Bisection solve of g(y) = 0 to relative tolerance Y_REL_TOL in y.

    Both bracket endpoints are judged against the same noise rule
    (_residual_noise).  When the root is pinned against the lower
    endpoint (small t*y: the exact gap is below double resolution and the
    endpoint residual is rounding noise), the nudged endpoint itself is
    returned.  At the upper endpoint the exact g is -t^2 sum_k sigma(k)
    e^(-2 pi k t y) < 0 (the endpoint solves the t -> oo equation), which
    for t*y >~ 7 falls below the rounding of n inside g; bisection then
    settles inside that noise band.  A residual beyond the noise floor at
    either endpoint signals an evaluation bug.
    """
    if t < 2 or n < 0:
        raise ValueError("requires t >= 2 and n >= 0")
    b_lo, b_hi = saddle_bracket(t, n)
    m = shifted_index(t, n)
    lo = b_lo * (1.0 + _BRACKET_NUDGE)  # strict inequalities in the bracket
    hi = b_hi * (1.0 - _BRACKET_NUDGE)
    g_lo = saddle_residual(t, n, lo)
    g_hi = saddle_residual(t, n, hi)
    if g_hi >= _residual_noise(hi) or g_lo <= -_residual_noise(lo):
        raise SolverError(
            f"bracket sign failure at (t, n) = ({t}, {n}): "
            f"g(lo) = {g_lo:.3e}, g(hi) = {g_hi:.3e}"
        )
    if g_lo > 0.0:
        y, iterations = _bisect(lambda v: saddle_residual(t, n, v), lo, hi)
    else:
        y, iterations = lo, 0  # root pinned at the lower endpoint to within noise
    residual = saddle_residual(t, n, y)
    curvature = (_d(2, y) - _d(2, t * y)) / y
    return SaddleResult(
        t=t,
        n=n,
        shifted_index=m,
        y=y,
        bracket_lo=b_lo,
        bracket_hi=b_hi,
        residual=residual,
        curvature=curvature,
        drift=y * residual,
        iterations=iterations,
    )


def _n_sum(k: int, v: float) -> float:
    """S_k(v), the n-sum of D_k(iv) on eta_log_deriv's branch, of size
    e^(-2 pi v) or e^(-2 pi/v); the kappa formulas cancel the constant terms
    by hand.  From v = 1 up D_0, D_1, D_2 = S_0 + v^2/24, S_1 + v^2/24, S_2;
    below, S_0 + 1/24 + (v/4 pi) ln v, S_1 - 1/24 + v/4 pi, S_2 + 1/12 - v/4 pi."""
    if v < 1.0 and math.exp(-2.0 * math.pi / v) == 0.0:
        return 0.0  # the nome e^(-2 pi/v) underflowed, and 2 pi n/v may overflow
    return _series(k, complex(0.0, v), "q" if v >= 1.0 else "inverted").real


def scale_residual(kappa: float, v: float) -> float:
    """h(v) = 1/(24 v^2) - 1/24 + D_1(iv)/v^2 - 1/kappa, decreasing in v.  As
    D_1(iv)/v^2 = E_2(iv)/24, with G(v) = sum_n sigma(n) e^(-2 pi n v) > 0, h is
    1/(24 v^2) - G(v) - 1/kappa (S_1 = -v^2 G(v)), evaluated so from v = 1,
    and 1/(4 pi v) - 1/24 + G(1/v)/v^2 - 1/kappa (S_1 = G(1/v)) below."""
    s = _n_sum(1, v)
    if v < 1.0:
        return s / v / v + 1.0 / (4.0 * math.pi * v) - 1.0 / 24.0 - 1.0 / kappa
    return (1.0 / 24.0 + s) / v / v - 1.0 / kappa


def solve_scaled_saddle(kappa: float) -> float:
    """v(kappa), the root of h (scale_residual), bisected from an a-priori
    bracket (lo, hi) with hi <= 2 lo, in at most 41 steps.  As G > 0, the
    forms of h give h(v) > 1/(4 pi v) - 1/24 - 1/kappa, 0 at lo = kappa/(4 pi
    (1 + kappa/24)), and h(v) < 1/(24 v^2) - 1/kappa, 0 at hi = sqrt(kappa/24),
    so h(lo) > 0 > h(hi).  As G(x) <= C_a e^(-2 pi x) for 2 pi x >= a, with
    C_a = sum_n sigma(n) e^(-a (n-1)), C_2pi < 1.006 and C_4pi < 1.0001:
    - if u = 2 lo <= 1/2, h(u) = G(1/u)/u^2 - (1/24 + 1/kappa)/2 < 0, as
      e^(-2 pi/u)/u^2 rises up to u = pi: G(1/u)/u^2 <= 4 C_4pi e^(-4 pi)
      < 1.4e-5 < 1/48, and hi = u;
    - if w = hi/2 >= 1, h(w) = 1/(32 w^2) - G(w) > 0, as w^2 e^(-2 pi w)
      falls from w = 1/pi: 32 w^2 G(w) <= 32 C_2pi e^(-2 pi) < 0.061, and lo = w;
    - else 3.6 < kappa < 96, and hi/lo = 4 pi (1 + kappa/24)/sqrt(24 kappa) < 1.56.
    So hi - lo <= lo, and _bisect ends within log2(1/Y_REL_TOL) < 40 halvings
    (41 with rounding).  ValueError unless kappa is a finite normal double
    (>= 2.2e-308), below which lo and 1/kappa lose their digits; an int
    kappa is compared exactly, so one past a double is refused too."""
    if not sys.float_info.min <= kappa <= sys.float_info.max:
        raise ValueError("kappa must be finite and at least 2.2e-308 (a normal double)")
    kappa = float(kappa)
    lo = kappa / (4.0 * math.pi * (1.0 + kappa / 24.0))
    hi = math.sqrt(kappa / 24.0)
    if 2.0 * lo <= 0.5:
        hi = 2.0 * lo
    elif hi >= 2.0:
        lo = 0.5 * hi
    return _bisect(lambda v: scale_residual(kappa, v), lo, hi)[0]


class KappaConstants(NamedTuple):
    """Constants (v, A, B) of the kappa-regime growth law
    exp(2 pi sqrt(A N)) / (B N) for counts with t^2 = kappa N."""

    kappa: float
    v: float
    A: float
    B: float


def kappa_constants(kappa: float) -> KappaConstants:
    """A = (kappa/v^2)(1/12 - D_0(iv) + D_1(iv))^2 and B = (kappa/v^2)
    sqrt(1/12 - D_2(iv)) at v = v(kappa), which G > 0 confines to an a-priori
    bracket (solve_scaled_saddle), from the n-sums S_k with the constants
    cancelled by hand and no product that over- or underflows: positive and
    finite at every kappa solve_scaled_saddle accepts, and kappa is stored
    as the double it solved for."""
    v = solve_scaled_saddle(kappa)
    kappa = float(kappa)
    s0, s1, s2 = (_n_sum(k, v) for k in range(3))
    if v < 1.0:
        c = v / (4.0 * math.pi)
        lead, curvature = s1 - s0 + c * (1.0 - math.log(v)), c - s2
    else:
        lead, curvature = 1.0 / 12.0 + s1 - s0, 1.0 / 12.0 - s2
    a = kappa / v * (lead / v) * lead
    b = kappa / v * (math.sqrt(curvature) / v)
    return KappaConstants(kappa=kappa, v=v, A=a, B=b)

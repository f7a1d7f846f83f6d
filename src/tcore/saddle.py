"""Saddle-point equation solvers.

The saddle ordinate y = y(t, N) is the unique positive root of

    g(y) = (D_1(ity) - D_1(iy)) / y^2 - M,     M = N + (t^2 - 1)/24,

where D_1 is the scaled first derivative of log eta (modular.eta_log_deriv).
g is strictly decreasing, and the root lies in an a-priori bracket, so plain
bisection is exact enough and bit-reproducible.  The same machinery solves
the rescaled equation behind the kappa-regime constants A(kappa), B(kappa).
"""

import math
from typing import NamedTuple

from .modular import _series, eta_log_deriv

Y_REL_TOL = 1e-12
MAX_BISECTIONS = 200
_BRACKET_NUDGE = 1e-15
# |g| below this multiple of the terms that cancel inside g is
# indistinguishable from rounding noise: at small t*y the root sits a relative
# ~e^(-2 pi/(t y)) above the lower bracket endpoint, far below double
# resolution, so the endpoint sign is pure fuzz (see _residual_noise).
RESIDUAL_NOISE_REL = 1e-9
INTERVAL_PADDING = 1e-9  # absolute inflation of every certified bound
# Rounding of a saddle-point quantity, relative to the size of the terms that
# cancel inside it: 2 pi M y in the main-term log, (t y)^2 in the relative
# saddle ordinate, kappa/24 in the relative v(kappa), A and B.  Against
# 50-digit evaluations (t = 1e3..1e8, n = 5e4..1e8, kappa = 3e4..1e20) these
# ratios stayed <= 2.1e-16, 7e-17 and 2.0e-16, so 8 ulp of 1 keeps a margin
# above 5x.  A result is trusted only while ROUNDOFF_REL times that size stays
# within INTERVAL_PADDING.
ROUNDOFF_REL = 8.0 * 2.0**-52
SADDLE_MIN_T = 1000  # the certified saddle regimes need min(t, 1/y) >= this, so t >= it


class SolverError(RuntimeError):
    """Bracket-sign failure or non-convergence of a root solve."""


def _d(k: int, y: float) -> float:
    """D_k on the imaginary axis (real-valued there)."""
    return eta_log_deriv(k, complex(0.0, y)).real


def shifted_index(t: int, n: int) -> float:
    """M = N + (t^2 - 1)/24, the exponent-shifted index."""
    return n + (t * t - 1) / 24.0


def saddle_residual(t: int, n: int, y: float) -> float:
    """g(y) = (D_1(ity) - D_1(iy))/y^2 - M; positive left of the saddle."""
    m = shifted_index(t, n)
    return (_d(1, t * y) - _d(1, y)) / (y * y) - m


def _residual_noise(m: float, y: float) -> float:
    """Rounding floor of g(y): RESIDUAL_NOISE_REL times the size of the terms
    that cancel in it.  M bounds the quotient D_1(ity)/y^2 at large t*y, and
    1/(12 y^2) the two D_1 quotients where t*y < 1 (|D_1(iy)| <= 1/24 below
    y = 1).  The second outgrows M when (t - 1) y is small (small t, large
    n), as M = (t - 1)/(4 pi y) at the lower endpoint."""
    return RESIDUAL_NOISE_REL * (m + 1.0 / (12.0 * y * y))


def saddle_bracket(t: int, n: int) -> tuple:
    """A-priori bracket (lo, hi) containing the saddle ordinate."""
    m = shifted_index(t, n)
    lo = (t - 1) / (4.0 * math.pi * m)
    disc = 24.0 * n - 1.0 + 9.0 / math.pi**2
    if disc <= 0.0:
        raise SolverError(
            f"no finite saddle ordinate for n = {n}: g stays above 0"
        )
    hi = 1.0 / (3.0 / math.pi + math.sqrt(disc))
    return lo, hi


class SaddleResult(NamedTuple):
    """Solved saddle ordinate with bracket, residual and diagnostics.

    curvature is (D_2(iy) - D_2(ity))/y (the Gaussian concentration scale);
    drift is y * residual (the scaled linear tilt).  within_guarantees marks
    t >= SADDLE_MIN_T, below which no certified bound downstream holds, and y
    in the float-safe domain: its relative rounding, about 2^-53 (t y)^2 / 2,
    stays within the padding (ROUNDOFF_REL * (t y)^2 <= INTERVAL_PADDING).
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
    within_guarantees: bool


def _bisect(f, lo: float, hi: float) -> tuple:
    """Bisect a decreasing f on [lo, hi] (f(lo) > 0 >= f(hi) up to noise)
    until hi - lo <= Y_REL_TOL * hi; returns (midpoint, bisections)."""
    iterations = 0
    while hi - lo > Y_REL_TOL * hi:
        if iterations >= MAX_BISECTIONS:
            raise SolverError(f"no convergence after {MAX_BISECTIONS} bisections")
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
    for t*y >~ 6 falls below the rounding of the (t^2 - 1)/24 terms that
    cancel inside g; bisection then settles inside that noise band.  A
    residual beyond the noise floor at either endpoint signals an evaluation
    bug.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    b_lo, b_hi = saddle_bracket(t, n)
    m = shifted_index(t, n)
    lo = b_lo * (1.0 + _BRACKET_NUDGE)  # strict inequalities in the bracket
    hi = b_hi * (1.0 - _BRACKET_NUDGE)
    g_lo = saddle_residual(t, n, lo)
    g_hi = saddle_residual(t, n, hi)
    if g_hi >= _residual_noise(m, hi) or g_lo <= -_residual_noise(m, lo):
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
    ty = t * y
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
        within_guarantees=t >= SADDLE_MIN_T and ROUNDOFF_REL * ty * ty <= INTERVAL_PADDING,
    )


def _inverted_sum(k: int, v: float) -> float:
    """S_k(v): the inverted-branch n-sum of D_k(iv), without its constant terms.
    Below v = 1, where eta_log_deriv takes that branch,

        D_0(iv) = S_0 + 1/24 + (v/4 pi) ln v,
        D_1(iv) = S_1 - 1/24 + v/4 pi,
        D_2(iv) = S_2 + 1/12 - v/4 pi,

    and S_k is of size e^(-2 pi/v), so the kappa formulas cancel the
    constants by hand instead of in rounding."""
    return _series(k, complex(0.0, v), "inverted").real


def scale_residual(kappa: float, v: float) -> float:
    """h(v) = 1/(24 v^2) - 1/24 + D_1(iv)/v^2 - 1/kappa; decreasing in v.
    Below v = 1 it is S_1/v^2 + 1/(4 pi v) - 1/24 - 1/kappa: there the terms
    of size 1/(24 v^2) cancel exactly, where in floats they would swamp
    1/kappa as kappa ~ 4 pi v falls."""
    if v < 1.0:
        return _inverted_sum(1, v) / (v * v) + 1.0 / (4.0 * math.pi * v) - 1.0 / 24.0 - 1.0 / kappa
    return 1.0 / (24.0 * v * v) - 1.0 / 24.0 + _d(1, v) / (v * v) - 1.0 / kappa


def solve_scaled_saddle(kappa: float) -> float:
    """The rescaled saddle ordinate v(kappa): root of h(v) = 0.

    h is a decreasing bijection of (0, inf) onto (0, inf) shifted by 1/kappa,
    so an automatically expanded bracket plus bisection always lands.

    Past v ~ 1, D_1(iv)/v^2 is 1/24 up to e^(-2 pi v): the terms of size 1/24
    in h cancel down to 1/kappa, and as v h'(v) = -2/kappa at the root
    (v^2 ~ kappa/24), v carries a relative rounding of about 2^-53 kappa/48.
    So SolverError is raised where ROUNDOFF_REL times kappa/24, the size of
    the cancelling terms against h, exceeds INTERVAL_PADDING: above ~1.35e7.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite")
    if ROUNDOFF_REL * kappa / 24.0 > INTERVAL_PADDING:
        raise SolverError(f"kappa {kappa!r} is past the float-safe domain kappa <= 1.35e7")
    lo = hi = 1.0
    for _ in range(200):
        if scale_residual(kappa, hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise SolverError("upper bracket expansion failed")
    for _ in range(200):
        if scale_residual(kappa, lo) > 0.0:
            break
        lo *= 0.5
    else:
        raise SolverError("lower bracket expansion failed")
    return _bisect(lambda v: scale_residual(kappa, v), lo, hi)[0]


class KappaConstants(NamedTuple):
    """Constants (v, A, B) of the kappa-regime growth law
    exp(2 pi sqrt(A N)) / (B N) for counts with t^2 = kappa N."""

    kappa: float
    v: float
    A: float
    B: float


def kappa_constants(kappa: float) -> KappaConstants:
    """A = (kappa/v^2)(1/12 - D_0(iv) + D_1(iv))^2,
    B = (kappa/v^2) sqrt(1/12 - D_2(iv)) at v = v(kappa).  Raises
    SolverError outside kappa ~ 1e-47..1.35e7 (solve_scaled_saddle: below,
    the bracket or the bisection runs out) and where A or B is no positive
    finite number."""
    v = solve_scaled_saddle(kappa)
    scale = kappa / (v * v)
    if v < 1.0:  # the constant terms cancelled by hand (_inverted_sum)
        c = v / (4.0 * math.pi)
        lead = _inverted_sum(1, v) - _inverted_sum(0, v) + c * (1.0 - math.log(v))
        curvature = c - _inverted_sum(2, v)
    else:
        lead = 1.0 / 12.0 - _d(0, v) + _d(1, v)
        curvature = 1.0 / 12.0 - _d(2, v)
    a = scale * lead**2
    b = scale * math.sqrt(max(curvature, 0.0))
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise SolverError(f"kappa {kappa!r}: A = {a!r}, B = {b!r} not both positive, finite")
    return KappaConstants(kappa=kappa, v=v, A=a, B=b)

"""Saddle-point equation solvers.

The saddle ordinate y = y(t, N) is the unique positive root of

    g(y) = (D_1(ity) - D_1(iy)) / y^2 - M,     M = N + (t^2 - 1)/24,

where D_1 is the scaled first derivative of log eta (modular.eta_log_deriv).
g is strictly decreasing, and the root lies in an a-priori bracket, so plain
bisection is exact enough and bit-reproducible.  The same machinery solves
the rescaled equation behind the kappa-regime constants A(kappa), B(kappa).
"""

import math
from dataclasses import dataclass

from .modular import eta_log_deriv

Y_REL_TOL = 1e-12
MAX_BISECTIONS = 200
_BRACKET_NUDGE = 1e-15
# |g| below this multiple of M is indistinguishable from rounding noise: at
# small t*y the root sits a relative ~e^(-2 pi/(t y)) above the lower bracket
# endpoint, far below double resolution, so the endpoint sign is pure fuzz.
RESIDUAL_NOISE_REL = 1e-9


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


@dataclass(frozen=True)
class SaddleResult:
    """Solved saddle ordinate with bracket, residual and diagnostics.

    curvature is (D_2(iy) - D_2(ity))/y (the Gaussian concentration scale);
    drift is y * residual (the scaled linear tilt).  within_guarantees marks
    whether t is large enough for the certified error bounds downstream.
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


def solve_saddle(t: int, n: int) -> SaddleResult:
    """Bisection solve of g(y) = 0 to relative tolerance Y_REL_TOL in y.

    When the root is pinned against the lower bracket endpoint (small t*y:
    the exact gap is below double resolution and the endpoint residual is
    rounding noise), the nudged endpoint itself is returned; a residual more
    negative than the noise floor still signals an evaluation bug.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    b_lo, b_hi = saddle_bracket(t, n)
    m = shifted_index(t, n)
    noise = RESIDUAL_NOISE_REL * m
    lo = b_lo * (1.0 + _BRACKET_NUDGE)  # strict inequalities in the bracket
    hi = b_hi * (1.0 - _BRACKET_NUDGE)
    g_lo = saddle_residual(t, n, lo)
    g_hi = saddle_residual(t, n, hi)
    if g_hi >= 0.0 or g_lo <= -noise:
        raise SolverError(
            f"bracket sign failure at (t, n) = ({t}, {n}): "
            f"g(lo) = {g_lo:.3e}, g(hi) = {g_hi:.3e}"
        )
    iterations = 0
    if g_lo > 0.0:
        while hi - lo > Y_REL_TOL * hi:
            if iterations >= MAX_BISECTIONS:
                raise SolverError(f"no convergence after {MAX_BISECTIONS} bisections")
            mid = 0.5 * (lo + hi)
            if saddle_residual(t, n, mid) > 0.0:
                lo = mid
            else:
                hi = mid
            iterations += 1
        y = 0.5 * (lo + hi)
    else:
        y = lo  # root pinned at the lower endpoint to within noise
    residual = saddle_residual(t, n, y)
    curvature = (_d(2, y) - _d(2, t * y)) / y
    return SaddleResult(
        t=t,
        n=n,
        shifted_index=shifted_index(t, n),
        y=y,
        bracket_lo=b_lo,
        bracket_hi=b_hi,
        residual=residual,
        curvature=curvature,
        drift=y * residual,
        iterations=iterations,
        within_guarantees=t >= 6 and n >= 1,
    )


def scale_residual(kappa: float, v: float) -> float:
    """h(v) = 1/(24 v^2) - 1/24 + D_1(iv)/v^2 - 1/kappa; decreasing in v."""
    return 1.0 / (24.0 * v * v) - 1.0 / 24.0 + _d(1, v) / (v * v) - 1.0 / kappa


def solve_scaled_saddle(kappa: float) -> float:
    """The rescaled saddle ordinate v(kappa): root of h(v) = 0.

    h is a decreasing bijection of (0, inf) onto (0, inf) shifted by 1/kappa,
    so an automatically expanded bracket plus bisection always lands.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite")
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
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if scale_residual(kappa, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= Y_REL_TOL * hi:
            return 0.5 * (lo + hi)
    raise SolverError(f"no convergence after {MAX_BISECTIONS} bisections")


@dataclass(frozen=True)
class KappaConstants:
    """Constants (v, A, B) of the kappa-regime growth law
    exp(2 pi sqrt(A N)) / (B N) for counts with t^2 = kappa N."""

    kappa: float
    v: float
    A: float
    B: float


def kappa_constants(kappa: float) -> KappaConstants:
    """A = (kappa/v^2)(1/12 - D_0(iv) + D_1(iv))^2,
    B = (kappa/v^2) sqrt(1/12 - D_2(iv)) at v = v(kappa)."""
    v = solve_scaled_saddle(kappa)
    scale = kappa / (v * v)
    a = scale * (1.0 / 12.0 - _d(0, v) + _d(1, v)) ** 2
    b = scale * math.sqrt(1.0 / 12.0 - _d(2, v))
    return KappaConstants(kappa=kappa, v=v, A=a, B=b)

"""Per-pair certificates of c_t(N) <= c_{t+1}(N) at large parameters.

certify_pair settles one adjacent pair by exact comparison, by the
difference certificate or by separated certified intervals;
certify_interval_containment checks that an exact count lies in a regime's
certified interval.  The estimators, the exact counts and fractions load on
the first call that needs them, so a certificate from the estimators alone
never loads the exact kernels.
"""

import math
from typing import NamedTuple, Optional

EXACT_PAIR_CAP = 20_000  # n up to which certify_pair just compares exact counts


class PairCertificate(NamedTuple):
    """Outcome of certify_pair.  detail defaults to None rather than a dict
    that every default-built certificate would share; certify_pair passes
    a dict of its own."""

    t: int
    n: int
    method: str  # exact | difference | ratio | inconclusive
    ok: bool
    equality: bool
    margin: float
    detail: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "n": self.n,
            "method": self.method,
            "ok": self.ok,
            "equality": self.equality,
            "margin": self.margin,
            "detail": dict(self.detail or {}),
        }


def _exact_certificate(t: int, n: int) -> PairCertificate:
    """The pair (t, t+1) at n settled by comparing the exact counts."""
    from . import exact

    a = exact.tcore_count(t, n)
    b = exact.tcore_count(t + 1, n)
    # log(b/a) from the integers: the quotient (b - a) / a rounds correctly,
    # so counts that agree to more digits than a double holds keep a margin
    margin = math.log1p((b - a) / a) if a > 0 and b > 0 else 0.0
    return PairCertificate(
        t=t, n=n, method="exact", ok=a <= b, equality=a == b, margin=margin,
        detail={"c_t": str(a), "c_t1": str(b)},
    )


def certify_pair(t: int, n: int, exact_cap: int = EXACT_PAIR_CAP) -> PairCertificate:
    """Establish c_t(n) <= c_{t+1}(n) by, in order: exact comparison when
    n <= exact_cap, the difference certificate, separated ratio intervals,
    or, last, exact comparison where the exact regime's rule holds
    (t > big_t_threshold(n), n <= EXACT_REGIME_MAX_N), whose inner factors
    are short.  A pair no route settles is "inconclusive"; the routes raise
    on no input with t >= 1 and n >= 0.  margin is the worst-case slack of
    the winning method (log units for the exact and ratio routes,
    multiplier units for the difference route)."""
    if t < 1 or n < 0:
        raise ValueError("requires t >= 1 and n >= 0")
    if n <= exact_cap:
        return _exact_certificate(t, n)
    from .asymptotics import (
        EXACT_REGIME_MAX_N,
        big_t_threshold,
        certified_estimate,
        estimate_difference,
        log_interval,
    )

    if t >= 6 and n > t:
        est = estimate_difference(t, n - t)
        lower = (
            est.diagnostics["multiplier_center"] - est.diagnostics["multiplier_halfwidth"]
        )
        if est.hypotheses_ok and lower > 0.0:
            return PairCertificate(
                t=t, n=n, method="difference", ok=True, equality=False, margin=lower,
                detail={
                    "y": est.diagnostics["y"],
                    "multiplier_center": est.diagnostics["multiplier_center"],
                    "multiplier_halfwidth": est.diagnostics["multiplier_halfwidth"],
                },
            )
    est_lo = certified_estimate(t, n)
    est_hi = certified_estimate(t + 1, n)
    if est_lo is not None and est_hi is not None:
        _, upper_t = log_interval(est_lo)
        lower_t1, _ = log_interval(est_hi)
        margin = lower_t1 - upper_t
        if margin > 0.0:
            return PairCertificate(
                t=t, n=n, method="ratio", ok=True, equality=False, margin=margin,
                detail={"regimes": (est_lo.regime, est_hi.regime)},
            )
    if n <= EXACT_REGIME_MAX_N and t > big_t_threshold(n):
        return _exact_certificate(t, n)
    return PairCertificate(
        t=t, n=n, method="inconclusive", ok=False, equality=False, margin=0.0, detail={},
    )


def certify_interval_containment(t: int, n: int, regime: str) -> tuple:
    """Check that the exact count lies inside the certified interval of the
    given regime ('main' or 'small_t'), or - for 'difference' - that the exact
    adjacent difference lies in the certified multiplier interval times the
    exact base count.  Returns (contained, margin); margin is the distance to
    the nearer endpoint (log units, multiplier units for 'difference')."""
    from .asymptotics import HypothesisError, estimate_main, estimate_small_t, log_interval

    if regime == "main":
        est = estimate_main(t, n)
    elif regime == "small_t":
        est = estimate_small_t(t, n)
    elif regime == "difference":
        return _difference_containment(t, n)
    else:
        raise ValueError(f"unsupported regime {regime!r}")
    if not est.hypotheses_ok:
        raise HypothesisError(f"hypotheses of regime {regime} fail at ({t}, {n})")
    from . import exact

    lo, hi = log_interval(est)
    lg = exact.log_of_integer(exact.tcore_count(t, n))
    return (lo <= lg <= hi), min(lg - lo, hi - lg)


def _difference_containment(t: int, n: int) -> tuple:
    from fractions import Fraction

    from . import exact
    from .asymptotics import HypothesisError, estimate_difference

    est = estimate_difference(t, n)
    if not est.hypotheses_ok:
        raise HypothesisError(f"difference hypotheses fail at ({t}, {n})")
    base = exact.tcore_count(t, n)
    diff = exact.tcore_count(t + 1, n + t) - exact.tcore_count(t, n + t)
    center = est.diagnostics["multiplier_center"]
    halfwidth = est.diagnostics["multiplier_halfwidth"]
    ratio = Fraction(diff, base)  # exact; comparisons against floats are exact too
    lo = center - halfwidth
    hi = center + halfwidth
    contained = lo <= ratio <= hi
    margin = float(min(ratio - Fraction(lo), Fraction(hi) - ratio))
    return contained, margin

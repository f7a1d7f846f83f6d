"""Per-pair certificates of c_t(N) <= c_{t+1}(N) at large parameters.

certify_pair settles one adjacent pair by exact comparison, by the lemma
the exhaustive scan proves for t + 2 <= N < 2t (tcore.verifier), by the
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
    method: str  # exact | difference | ratio | closed_form | inconclusive
    ok: bool
    equality: bool
    margin: float
    detail: Optional[dict] = None

    def to_dict(self) -> dict:
        return {**self._asdict(), "detail": dict(self.detail or {})}


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
    n <= exact_cap; for 2 <= n - t < t, the closed form's lemma:
    c_{t+1}(n) - c_t(n) >= 2 there (proved in verifier._scan_block), with no
    p-value and no float; the difference certificate
    (asymptotics.certified_difference); separated ratio intervals
    (asymptotics.certified_estimate at t, then at t + 1); or exact comparison
    where the exact regime's rule holds (asymptotics.exact_regime_holds).
    A pair no route settles is "inconclusive"; for t >= 1, n >= 0 the routes
    raise only ValueError, past exact_cap and outside the lemma's band, where
    (t + 1)^2 or N + (t^2 - 1)/24 overflows a double (saddle.shifted_index,
    checked before any float route), and where 24 n does at t > 4e152
    (saddle.saddle_bracket).
    margin is the worst-case slack of the winning method (log units for the
    exact and ratio routes, padded multiplier units for the difference route,
    counts for closed_form, whose margin is the proven lower bound 2 on the
    difference).
    Outside Stanton's domain 4 <= t < n - 1, where c_t(n) > c_{t+1}(n) is no
    counterexample, detail["stanton_domain"] is False."""
    if t < 1 or n < 0:
        raise ValueError("requires t >= 1 and n >= 0")
    cert = _settle_pair(t, n, exact_cap)
    if t < 4 or n <= t + 1:
        cert.detail["stanton_domain"] = False
    return cert


def _settle_pair(t: int, n: int, exact_cap: int) -> PairCertificate:
    """The first route of certify_pair that settles (t, n), else inconclusive."""
    if n <= exact_cap:
        return _exact_certificate(t, n)
    if 2 <= n - t < t:
        return PairCertificate(
            t=t, n=n, method="closed_form", ok=True, equality=False, margin=2.0,
            detail={"m": n - t},
        )
    from .asymptotics import (
        certified_difference,
        certified_estimate,
        exact_regime_holds,
        log_interval,
        shifted_index,
    )

    shifted_index(t + 1, n)  # the float-domain gate of every route below
    est = certified_difference(t, n - t)
    if est is not None:
        diag = est.diagnostics
        return PairCertificate(
            t=t, n=n, method="difference", ok=True, equality=False,
            margin=diag["multiplier_center"] * (1.0 - est.rel_error_bound),
            detail={k: diag[k] for k in ("y", "multiplier_center", "multiplier_halfwidth")},
        )
    est_lo = certified_estimate(t, n)
    est_hi = None if est_lo is None else certified_estimate(t + 1, n)
    if est_hi is not None:
        _, upper_t = log_interval(est_lo)
        lower_t1, _ = log_interval(est_hi)
        margin = lower_t1 - upper_t
        if margin > 0.0:
            return PairCertificate(
                t=t, n=n, method="ratio", ok=True, equality=False, margin=margin,
                detail={"regimes": (est_lo.regime, est_hi.regime)},
            )
    if exact_regime_holds(t, n):
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

"""Containment and certificate sweep at the largest n where exact counts are
affordable: every certified interval must hold the exact log, and every "ok"
pair certificate must agree with the exact comparison.  The exact counts
come from Miller's recurrence for the inner factor (test_exact's oracle), not
from the package's powering.  A violation is a defect in the package; the
grid is never shrunk to avoid one.  Run with -s to see the route counts and
the smallest relative slack, so that a drift shows."""

import math
from collections import Counter
from functools import cache

import pytest
from test_exact import inner_by_miller_recurrence

from tcore import exact
from tcore.asymptotics import certified_estimate, log_interval
from tcore.verifier import certify_pair

SWEEP_TS = [*range(8, 60), *range(60, 1000, 10), *range(1000, 3001, 25)]


@pytest.mark.parametrize("n", [60_000, 100_000])
def test_certified_sweep_agrees_with_exact_counts(n):
    p = exact.partition_numbers(n).values

    @cache
    def count(t):
        """c_t(n) = sum_j f_j p(n - j t), f the Miller inner factor to n // t."""
        inner = inner_by_miller_recurrence(t, n // t)
        return sum(f * p[n - j * t] for j, f in enumerate(inner))

    regimes = Counter()
    routes = Counter()
    least_slack = math.inf
    for t in SWEEP_TS:
        est = certified_estimate(t, n)
        if est is not None:
            regimes[est.regime] += 1
            lo, hi = log_interval(est)
            lg = exact.log_of_integer(count(t))
            assert lo <= lg <= hi, (t, n, est.regime, lo, lg, hi)
            least_slack = min(least_slack, min(lg - lo, hi - lg) / (hi - lo))
        cert = certify_pair(t, n, exact_cap=0)
        routes[cert.method] += 1
        if cert.ok:
            a, b = count(t), count(t + 1)
            assert a <= b and cert.equality == (a == b), (t, n, cert.method)
    print(
        f"\nsweep n = {n}: {sum(regimes.values())} certified estimates {dict(regimes)}, "
        f"certify_pair routes {dict(routes)}, smallest slack {least_slack:.3g} of the width"
    )
    assert regimes and routes["inconclusive"] < len(SWEEP_TS)  # the sweep is not vacuous

"""Verifier tests: exhaustive scans at small scale, pair certificates, and
interval containment plumbing."""

import os

import pytest

from tcore import exact
from tcore.asymptotics import HypothesisError
from tcore.verifier import (
    _balanced_blocks,
    certify_interval_containment,
    certify_pair,
    verify_exact,
)


def test_exhaustive_small_range():
    report = verify_exact(300, workers=1)
    assert report.violations == []
    assert report.equalities == [(5, 10)]
    # pairs: all (t, n) with 4 <= t, t+2 <= n <= 300
    assert report.pairs_checked == sum(300 - (t + 2) + 1 for t in range(4, 299))


def test_exhaustive_tiny_range_clean():
    report = verify_exact(9, workers=1)
    assert report.violations == []
    assert report.equalities == []


def test_exhaustive_max_t_restriction():
    report = verify_exact(100, max_t=6, workers=1)
    assert report.violations == []
    assert report.equalities == [(5, 10)]
    assert report.pairs_checked == sum(100 - (t + 2) + 1 for t in (4, 5, 6))


def test_top_edge_pair_excluded():
    # c_9(10) = 33 > c_10(10) = 32, but t = n-1 is excluded from comparison
    assert exact.tcore_count(9, 10) == 33
    assert exact.tcore_count(10, 10) == 32
    report = verify_exact(12, workers=1)
    assert report.violations == []
    assert all(t < n - 1 for t, n in report.equalities)


def test_fault_injection_detected():
    report = verify_exact(60, workers=1, _corrupt=(7, 30))
    assert report.violations == [(7, 30)]


def test_fault_injection_at_scan_edges():
    max_n = 120
    blocks = _balanced_blocks(4, max_n - 2, 4)  # the blocks of a one-worker scan
    first_hi, second_lo = blocks[0][1], blocks[1][0]
    for t, n in ((4, 6), (30, 32), (9, max_n), (max_n - 2, max_n),
                 (first_hi, 50), (second_lo, 50), (second_lo, second_lo + 2)):
        report = verify_exact(max_n, workers=1, _corrupt=(t, n))
        assert report.violations == [(t, n)]
    # outside the compared pairs the fault touches nothing
    for t, n in ((7, 8), (7, max_n + 1), (3, 10), (max_n - 1, max_n)):
        assert verify_exact(max_n, workers=1, _corrupt=(t, n)).violations == []


@pytest.mark.parametrize(
    "max_n,max_t", [(5, None), (10, None), (57, None), (211, None), (211, 50), (90, 4)]
)
def test_pairs_checked_closed_form(max_n, max_t):
    t_hi = max_n - 2 if max_t is None else min(max_n - 2, max_t)
    report = verify_exact(max_n, max_t=max_t, workers=1)
    assert report.pairs_checked == sum(max_n - t - 1 for t in range(4, t_hi + 1))


def test_worker_count_bounded_by_cpus():
    report = verify_exact(60, workers=100_000)
    assert 1 <= report.workers <= (os.cpu_count() or 1)
    assert report.violations == []
    assert report.equalities == [(5, 10)]


def test_worker_count_bounded_by_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    report = verify_exact(60, workers=2)
    assert report.workers == 1
    assert report.equalities == [(5, 10)]


@pytest.mark.parametrize("max_n", [60, 150])
@pytest.mark.parametrize("workers", [1, 2])
def test_scan_matches_full_series_comparison(max_n, workers):
    # reference: compare the full series c_t, c_{t+1} directly
    violations, equalities = [], []
    series = {t: exact.tcore_counts(t, max_n).values for t in range(4, max_n)}
    for t in range(4, max_n - 1):
        for n in range(t + 2, max_n + 1):
            if series[t][n] > series[t + 1][n]:
                violations.append((t, n))
            elif series[t][n] == series[t + 1][n]:
                equalities.append((t, n))
    report = verify_exact(max_n, workers=workers)
    assert report.violations == violations
    assert report.equalities == equalities


def test_resource_cap():
    with pytest.raises(ValueError):
        verify_exact(20_000)


def test_deterministic_reports():
    for max_n, corrupt in ((150, None), (400, None), (400, (117, 300))):
        a = verify_exact(max_n, workers=2, _corrupt=corrupt)
        b = verify_exact(max_n, workers=1, _corrupt=corrupt)
        assert a.violations == b.violations
        assert a.equalities == b.equalities
        assert a.pairs_checked == b.pairs_checked


def test_certify_pair_exact_equality():
    cert = certify_pair(5, 10)
    assert cert.method == "exact"
    assert cert.ok
    assert cert.equality
    assert cert.margin == 0.0


def test_certify_pair_exact_strict():
    cert = certify_pair(7, 100)
    assert cert.method == "exact"
    assert cert.ok and not cert.equality
    assert cert.margin > 0.0


def test_certify_pair_ratio_route():
    cert = certify_pair(50, 100_000)
    assert cert.method == "ratio"
    assert cert.ok
    assert cert.margin > 0.0


def test_certify_pair_inconclusive():
    # beyond the exact cap with no certified regime available
    cert = certify_pair(4, 50_000)
    assert cert.method == "inconclusive"
    assert not cert.ok


def test_containment_hypothesis_error():
    with pytest.raises(HypothesisError):
        certify_interval_containment(8, 50, "small_t")
    with pytest.raises(ValueError):
        certify_interval_containment(8, 50, "bogus")


def test_report_roundtrip():
    report = verify_exact(60, workers=1)
    d = report.to_dict()
    assert d["equalities"] == [[5, 10]]
    assert d["violations"] == []
    assert d["pairs_checked"] == report.pairs_checked

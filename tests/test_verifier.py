"""Verifier tests: exhaustive scans at small scale, pair certificates, and
interval containment plumbing."""

import multiprocessing
import os
import subprocess
import sys
from functools import lru_cache

import pytest

import tcore
from tcore import exact, verifier
from tcore.asymptotics import HypothesisError
from tcore.backend import kernels
from tcore.verifier import (
    _all_positive,
    _balanced_blocks,
    _walk_limit,
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
    blocks = _balanced_blocks(4, max_n - 2, max_n, 2)  # the blocks of a two-worker scan
    first_hi, second_lo = blocks[0][1], blocks[1][0]
    for t, n in ((4, 6), (30, 32), (9, max_n), (max_n - 2, max_n),
                 (first_hi, 50), (second_lo, 50), (second_lo, second_lo + 2)):
        report = verify_exact(max_n, workers=2, _corrupt=(t, n))
        assert report.violations == [(t, n)]
        if report.workers == 2:
            assert [(lo, hi) for lo, hi, _ in report.blocks] == blocks
    # outside the compared pairs the fault touches nothing
    for t, n in ((7, 8), (7, max_n + 1), (3, 10), (max_n - 1, max_n)):
        assert verify_exact(max_n, workers=2, _corrupt=(t, n)).violations == []


@pytest.mark.parametrize("max_n", [6, 7, 10, 13, 30, 120, 1400, 10_000])
@pytest.mark.parametrize("parts", [1, 2, 3, 4, 7, 64, 10_000])
def test_balanced_blocks_tile_the_t_range(max_n, parts):
    for t_hi in sorted({4, 5, max_n // 2, max_n - 2}):
        if not 4 <= t_hi <= max_n - 2:
            continue
        blocks = _balanced_blocks(4, t_hi, max_n, parts)
        assert blocks[0][0] == 4 and blocks[-1][1] == t_hi
        assert all(lo <= hi for lo, hi in blocks)
        assert all(b[0] == a[1] + 1 for a, b in zip(blocks, blocks[1:]))
        # the modeled cost falls as t grows, so every part gets a block
        assert len(blocks) == min(parts, t_hi - 3)


def test_report_blocks_tile_the_scan():
    for max_n, max_t, workers in ((150, None, 1), (150, None, 2), (400, 90, 2), (13, None, 2)):
        report = verify_exact(max_n, max_t=max_t, workers=workers)
        t_hi = max_n - 2 if max_t is None else max_t
        assert len(report.blocks) == report.workers
        assert report.blocks[0][0] == 4 and report.blocks[-1][1] == t_hi
        assert all(b[0] == a[1] + 1 for a, b in zip(report.blocks, report.blocks[1:]))
        assert all(lo <= hi and seconds >= 0.0 for lo, hi, seconds in report.blocks)
        assert report.to_dict()["blocks"] == report.blocks
    assert verify_exact(5, workers=2).blocks == []


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


def slot_bytes(max_n):
    """Bytes per slot of the scan's packed series at max_n."""
    return (exact.partition_numbers(max_n).values[max_n].bit_length() + 9) // 8


# every max_n to 40 (slots of 1 to 3 bytes), and both sides of each change of
# slot width up to 400
WIDTH_CHANGES = [n for n in range(1, 401) if slot_bytes(n) != slot_bytes(n - 1)]
SCAN_SIZES = sorted({*range(41), *WIDTH_CHANGES, *(n - 1 for n in WIDTH_CHANGES), 60, 150})


@lru_cache(maxsize=None)
def full_series_comparison(top):
    """(t, n, sign of c_t(n) - c_{t+1}(n)) for 4 <= t, t+2 <= n <= top,
    from the full series compared value by value."""
    series = {t: exact.tcore_counts(t, top).values for t in range(4, top)}
    return [
        (t, n, (series[t][n] > series[t + 1][n]) - (series[t][n] < series[t + 1][n]))
        for t in range(4, top - 1)
        for n in range(t + 2, top + 1)
    ]


@pytest.mark.parametrize("max_n", SCAN_SIZES)
@pytest.mark.parametrize("workers", [1, 2])
def test_scan_matches_full_series_comparison(max_n, workers):
    reference = [(t, n, s) for t, n, s in full_series_comparison(max(SCAN_SIZES)) if n <= max_n]
    report = verify_exact(max_n, workers=workers)
    assert report.violations == [(t, n) for t, n, s in reference if s > 0]
    assert report.equalities == [(t, n) for t, n, s in reference if s == 0]
    assert report.pairs_checked == len(reference)


def test_scan_sizes_cover_slot_widths_one_to_nine():
    assert slot_bytes(11) == 1 and slot_bytes(12) == 2
    assert [slot_bytes(n) for n in WIDTH_CHANGES] == list(range(2, 10))


def pack(values, w):
    """values[0..max_n] packed as the scan packs a series: slot k (w bytes)
    holds values[max_n - k]; values may be negative."""
    top = len(values) - 1
    return sum(v << (8 * w * (top - n)) for n, v in enumerate(values))


def packed_pair(max_n, diffs, base=None):
    """(prev, nxt, bias, w) for a synthetic pair with D(n) = diffs.get(n, 1)."""
    w = slot_bytes(max_n)
    base = base or [(-1) ** n * (n * 7 % 23) for n in range(max_n + 1)]
    nxt = [b + diffs.get(n, 1) for n, b in enumerate(base)]
    bias = pack([1 << (8 * w - 1)] * (max_n + 1), w)
    return pack(base, w), pack(nxt, w), bias, w


@pytest.mark.parametrize("max_n,t", [(9, 4), (30, 4), (30, 20), (400, 7), (400, 396)])
def test_walk_limit_reads_packed_pairs(max_n, t):
    p_top = exact.partition_numbers(max_n).values[max_n]
    lo, mid = t + 2, (t + 2 + max_n) // 2

    def limit(diffs, base=None):
        prev, nxt, bias, w = packed_pair(max_n, diffs, base)
        return _walk_limit(prev, nxt, bias, w, t, max_n)

    assert limit({}) == 0
    assert limit({n: p_top for n in range(max_n + 1)}) == 0
    # D(n) = 0 is an equality: the walk covers up to the largest one
    for n in (lo, mid, max_n):
        assert limit({n: 0}) == n
        assert limit({n: 0}, base=[p_top] * (max_n + 1)) == n
        assert limit({n: 0}, base=[-p_top] * (max_n + 1)) == n
    assert limit({lo: 0, mid: 0}) == mid
    # D(n) < 0 is a violation: the walk covers everything
    for n in (lo, mid, max_n):
        for d in (-1, -p_top):
            assert limit({n: d}) == max_n
            assert limit({lo: 0, mid: 0, n: d}) == max_n
    # n <= t+1 is outside the compared pairs
    assert limit({t + 1: 0, t: -1, 0: -p_top}) == 0


def test_walk_limit_ignores_unaligned_zero_slot():
    # a violation slot of all zero bytes (D = -2**15 in a 2-byte slot) below a
    # slot whose low byte is 0x80 holds the bytes 00 80 across the slot
    # boundary: it must read as a violation, not as an equality at n = 20
    max_n, t = 30, 4
    prev, nxt, bias, w = packed_pair(max_n, {20: -(2**15), 21: 0x80})
    assert w == 2
    e = (nxt - prev + bias).to_bytes((max_n + 1) * w, "little")
    assert e.find(b"\x00\x80") % w == 1
    assert _walk_limit(prev, nxt, bias, w, t, max_n) == max_n


# one max_n of each slot width, 1 to 9 bytes: the smallest with a compared
# pair (6), then the smallest of each wider slot
SLOT_WIDTH_SIZES = [6, *WIDTH_CHANGES]


@pytest.mark.parametrize("max_n", SLOT_WIDTH_SIZES)
def test_and_pre_check_flags_exactly_the_nonpositive_pairs(max_n):
    w = slot_bytes(max_n)
    big = 2 ** (8 * w - 2) - 1  # the largest |D(n)| the scan's slot width allows
    assert w == SLOT_WIDTH_SIZES.index(max_n) + 1
    for t in sorted({4, (max_n + 2) // 2, max_n - 2}):
        lo, mid = t + 2, (t + 2 + max_n) // 2
        outside = {t + 1: -1, t: -big, 0: -big}  # n <= t+1 is not compared

        def check(diffs, base=None):
            prev, nxt, bias, w = packed_pair(max_n, diffs, base)
            return _all_positive(nxt - prev, bias, w, t), _walk_limit(prev, nxt, bias, w, t, max_n)

        for base in (None, [big] * (max_n + 1), [-big] * (max_n + 1)):
            # D(n) >= 1 at every compared n: cleared without a walk
            assert check({}, base) == (True, 0)
            assert check({t + 1: -1}, base) == (True, 0)  # the D(t+1) every pair has
            assert check(outside, base) == (True, 0)
            assert check({n: big if n % 2 else 1 for n in range(max_n + 1)}, base) == (True, 0)
            # one D(n) = 0 or D(n) < 0 anywhere in n = t+2..max_n is flagged
            for n in sorted({lo, mid, max_n}):
                assert check({n: 0}, base) == (False, n)
                assert check({**outside, n: 0}, base) == (False, n)
                for d in (-1, -big):
                    assert check({n: d}, base) == (False, max_n)
                    assert check({**outside, n: d}, base) == (False, max_n)


def closed_form_d(t, m, p):
    """D(t + m) = c_{t+1}(t + m) - c_t(t + m) on the closed-form half, m < t."""
    return t * p[m] - (t + 1) * p[m - 1]


def test_closed_form_half_matches_exact_counts():
    p = exact.partition_numbers(200).values
    for t in range(4, 101):
        for n in range(t + 2, 2 * t):
            m = n - t
            d = exact.tcore_count(t + 1, n) - exact.tcore_count(t, n)
            assert d == closed_form_d(t, m, p)
            assert d >= p[m] - p[m - 1] + 1  # the lemma of verifier._scan_block


def test_closed_form_lemma_against_the_partition_series():
    # Delta(m) = p(m) - p(m-1) is nondecreasing from m = 2 and
    # p(m-1) + 1 <= m * Delta(m), with equality only at m = 2 and 3
    top = 20_000
    p = kernels.partition_series(top)
    delta = [p[m] - p[m - 1] for m in range(2, top + 1)]
    assert delta[0] == 1
    assert all(a <= b for a, b in zip(delta, delta[1:]))
    slack = {m: m * d - p[m - 1] - 1 for m, d in zip(range(2, top + 1), delta)}
    assert min(slack.values()) == 0
    assert [m for m, s in slack.items() if s == 0] == [2, 3]


def test_closed_form_difference_increases_with_t():
    p = exact.partition_numbers(2000).values
    for m in range(2, 2001):
        ds = [closed_form_d(t, m, p) for t in range(1, 120)]
        assert all(a < b for a, b in zip(ds, ds[1:]))


@pytest.mark.parametrize("max_n", [9, 10, 11, 60, 211])
def test_closed_form_fallback_gives_the_same_report(max_n):
    # a fault in either half, and on both edges of the closed-form band, is
    # the one violation of a report that otherwise matches the clean one (at
    # max_n 10 the packed fault (5, 10) replaces the equality there)
    clean = verify_exact(max_n, workers=1)
    t = max_n // 2
    faults = [(4, 6), (t, 2 * t - 1), (max_n - 2, max_n), (t, 2 * t)]  # the last one packed
    for fault in faults:
        report = verify_exact(max_n, workers=1, _corrupt=fault)
        assert report.violations == [fault]
        assert report.equalities == [e for e in clean.equalities if e != fault]
        assert report.pairs_checked == clean.pairs_checked
        assert report.closed_form_pairs == clean.closed_form_pairs


def test_closed_form_half_reads_no_partition_values(monkeypatch):
    # a stand-in for p whose Delta(m) falls from 10 to 1, against the lemma,
    # would give D(t, m) = t - m - 9 <= 0 at many closed-form pairs; the
    # half settles them by the lemma, unread
    fake = [1] + [m + 10 for m in range(1, 21)]
    t_lo, t_hi, max_n = 11, 18, 20  # 2t > max_n: only closed-form pairs
    assert any(closed_form_d(t, 2, fake) <= 0 for t in range(t_lo, t_hi + 1))
    clean = verifier._scan_block((t_lo, t_hi, max_n, None))
    monkeypatch.setattr(kernels, "partition_series", lambda limit: fake[: limit + 1])
    violations, equalities, pairs, closed, _ = verifier._scan_block((t_lo, t_hi, max_n, None))
    assert (violations, equalities) == ([], [])
    assert pairs == closed == clean[2] == clean[3]


@pytest.mark.parametrize(
    "max_n,max_t", [(5, None), (10, None), (57, None), (211, None), (211, 50), (90, 4), (1400, None)]
)
@pytest.mark.parametrize("workers", [1, 2])
def test_closed_form_pairs_counted(max_n, max_t, workers):
    t_hi = max_n - 2 if max_t is None else min(max_n - 2, max_t)
    report = verify_exact(max_n, max_t=max_t, workers=workers)
    expected = sum(max(0, min(t - 2, max_n - t - 1)) for t in range(4, t_hi + 1))
    assert report.closed_form_pairs == expected
    assert report.to_dict()["closed_form_pairs"] == expected


def test_block_start_steps_the_euler_product():
    for t, cap in ((1, 0), (2, 5), (4, 350), (61, 22), (13, 107)):
        inner = kernels.euler_factor(cap)
        for _ in range(t - 1):
            inner = kernels.euler_step(inner, cap)
        assert inner == exact.core_inner_factor(t, cap)


def test_scan_powers_no_inner_factor(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the scan must not power an inner factor")

    monkeypatch.setattr(kernels, "poly_mul_trunc", forbidden)
    monkeypatch.setattr(kernels, "poly_square_trunc", forbidden)
    monkeypatch.setattr(exact, "core_inner_factor", forbidden)
    report = verify_exact(150, workers=1)
    assert report.equalities == [(5, 10)]


def test_spawned_workers_give_the_same_report():
    src = os.path.dirname(os.path.dirname(tcore.__file__))
    code = (
        "import multiprocessing\n"
        "multiprocessing.set_start_method('spawn')\n"
        "from tcore import verifier\n"
        "verifier._usable_cpus = lambda: 2\n"
        "for corrupt in (None, (9, 12), (40, 100)):\n"
        "    a = verifier.verify_exact(150, workers=2, _corrupt=corrupt)\n"
        "    b = verifier.verify_exact(150, workers=1, _corrupt=corrupt)\n"
        "    assert a.workers == 2 and len(a.blocks) == 2, a.blocks\n"
        "    fields = ('violations', 'equalities', 'pairs_checked', 'closed_form_pairs')\n"
        "    for name in fields:\n"
        "        assert getattr(a, name) == getattr(b, name), name\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_run_blocks_returns_every_block_in_order():
    tasks = [(4, 5, 40, None), (6, 7, 40, (6, 30)), (8, 38, 40, (9, 12))]
    results = verifier._run_blocks(tasks)
    assert [r[:4] for r in results] == [verifier._scan_block(task)[:4] for task in tasks]
    assert results[1][0] == [(6, 30)] and results[2][0] == [(9, 12)]


class BlockFailed(Exception):
    pass


def test_failing_worker_block_raises(monkeypatch):
    # the fork start method hands the patched _scan_block to the child
    scan = verifier._scan_block

    def failing(task):
        if task[0] == 6:
            raise BlockFailed(task)
        return scan(task)

    monkeypatch.setattr(verifier, "_scan_block", failing)
    # _run_blocks imports Pipe and Process from multiprocessing at call time
    ctx = multiprocessing.get_context("fork")
    monkeypatch.setattr(multiprocessing, "Process", ctx.Process)
    monkeypatch.setattr(multiprocessing, "Pipe", ctx.Pipe)
    with pytest.raises(BlockFailed):
        verifier._run_blocks([(4, 5, 40, None), (6, 7, 40, None)])


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


def test_certify_pair_exact_margin_of_close_counts():
    # the counts differ by 119850 and agree to ~100 digits: a difference of
    # two double logs reads 0.0 here
    cert = certify_pair(9990, 10000)
    a, b = int(cert.detail["c_t"]), int(cert.detail["c_t1"])
    assert cert.method == "exact" and cert.ok and not cert.equality
    assert b - a == 119850
    assert cert.margin > 0.0
    assert cert.margin == pytest.approx((b - a) / a, rel=1e-12)


@pytest.mark.parametrize("t,n", [(1000, 1001), (4, 5), (5, 6)])
def test_certify_pair_outside_stanton_domain(t, n):
    # c_t(n) > c_{t+1}(n) at n = t + 1 is no counterexample: the conjecture
    # covers 4 <= t < n - 1 only
    cert = certify_pair(t, n)
    assert cert.method == "exact" and not cert.ok
    assert cert.detail["stanton_domain"] is False
    assert cert.to_dict()["detail"]["stanton_domain"] is False


def test_certify_pair_inside_stanton_domain_has_no_domain_key():
    cert = certify_pair(5, 10)
    assert cert.ok and cert.equality
    assert "stanton_domain" not in cert.detail
    assert certify_pair(3, 10).detail["stanton_domain"] is False  # t < 4


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


@pytest.mark.parametrize(
    "t,n", [(120_000, 150_000), (10**6, 10**6 + 2), (10**9, 10**9 + 5), (10**11, 10**11 + 380_000)]
)
def test_certify_pair_closed_form_route(t, n):
    # past exact_cap the lemma settles these pairs with t + 2 <= n < 2t
    cert = certify_pair(t, n)
    assert (cert.method, cert.ok, cert.equality, cert.margin) == ("closed_form", True, False, 2.0)
    assert cert.detail == {"m": n - t}


def test_closed_form_route_comes_first():
    # past exact_cap the lemma answers its band before any other route, so
    # pairs the difference route or the exact regime settled are re-labelled;
    # the band's edges n = t + 1 and n = 2t are outside the lemma
    assert certify_pair(10**6, 1_500_000).method == "closed_form"
    assert certify_pair(10**7, 10**7 + 50_000).method == "closed_form"
    assert certify_pair(60_000, 100_000).method == "closed_form"
    for t in (120_000, 10**6, 10**9):
        assert certify_pair(t, 2 * t).method != "closed_form"
        assert certify_pair(t, t + 1).method != "closed_form"


def test_closed_form_band_agrees_with_exact_counts():
    band = [(t, n) for t in range(3, 61) for n in range(t + 2, 2 * t)]
    for t, n in band:
        cert = certify_pair(t, n, exact_cap=0)
        assert cert.method == "closed_form", (t, n)
        holds = exact.tcore_count(t, n) <= exact.tcore_count(t + 1, n)
        assert cert.ok == holds, (t, n)


def test_closed_form_needs_no_float_and_no_p_value():
    # the float-domain gate comes after the lemma: t^2 overflows a double here
    cert = certify_pair(10**160, 10**160 + 5)
    assert (cert.method, cert.ok, cert.detail) == ("closed_form", True, {"m": 5})
    # the exact regime's p-series to 10^5 (seconds of bignum work) is not built,
    # and neither the exact counts nor the estimators load
    src = os.path.dirname(os.path.dirname(tcore.__file__))
    code = (
        "import sys\n"
        "from tcore.certify import certify_pair\n"
        "assert certify_pair(60000, 100000).method == 'closed_form'\n"
        "loaded = [m for m in ('tcore.exact', 'tcore.asymptotics') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("t,n", [(4500, 25000), (10000, 30000)])
def test_certify_pair_survives_saddle_failure(t, n):
    # g at the upper bracket endpoint of the difference route's saddle solve
    # at (t, n - t) is rounding noise of n; the solve succeeds, but
    # 1/y < 1000 fails the difference hypotheses, and the ratio route has no
    # certified regime, so the certificate falls through to the exact
    # comparison: t is above the big-t threshold, where the inner factors
    # are short.
    cert = certify_pair(t, n)
    assert cert.method == "exact" and cert.ok
    assert cert == certify_pair(t, n, exact_cap=n)


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

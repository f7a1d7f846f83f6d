"""Answer checks, run after the timed sections.

Each checker takes the generated queries and the program's encoded answers
and returns (attempted, failed): operations attempted, and those that raised
or returned a wrong answer.  A scan counts one operation per adjacent-t
pair, so a wrong scan report fails the pairs it got wrong.
"""

import math
import random

import workloads

SAMPLE = 6  # exact spot checks per kind in a certified run


def check_scan(queries: list, answers: list) -> tuple:
    """Zero violations, equalities exactly [(5, 10)], and the closed-form
    pair count."""
    attempted = failed = 0
    for (_, max_n), answer in zip(queries, answers):
        pairs = workloads.scan_pairs(max_n)
        attempted += pairs
        if "error" in answer:
            failed += pairs
            continue
        expected = {(5, 10)} if max_n >= 10 else set()
        got = {tuple(e) for e in answer["equalities"]}
        wrong = (
            len(answer["violations"])
            + len(got ^ expected)
            + abs(answer["pairs_checked"] - pairs)
        )
        failed += min(wrong, pairs)
    return attempted, failed


def _reference_power(ref, t: int, cap: int) -> list:
    """[prod (1 - x^n)]^t through degree cap, by the reference kernels."""
    base = ref.euler_factor(cap)
    result = [1]
    while t:
        if t & 1:
            result = ref.poly_mul_trunc(result, base, cap)
        t >>= 1
        if t:
            base = ref.poly_mul_trunc(base, base, cap)
    return result


def check_exact(queries: list, answers: list) -> tuple:
    """Exact integer equality: the three-term closed form for n < 3t, else a
    recount through the reference kernels in tcore._series_py, bypassing the
    backend selection, so that a compiled or rewritten kernel is checked
    against the reference.  An inner factor powered to a cap holds the
    factor for every smaller cap as its prefix, so one per t suffices."""
    from tcore import _series_py as ref

    p = ref.partition_series(max(n for _, _, n in queries))
    caps = {}
    for _, t, n in queries:
        if n >= 3 * t:
            caps[t] = max(caps.get(t, 0), n // t)
    inner = {t: _reference_power(ref, t, cap) for t, cap in caps.items()}
    failed = 0
    for (_, t, n), answer in zip(queries, answers):
        if n < 3 * t:
            expected = p[n]
            if n >= t:
                expected -= t * p[n - t]
            if n >= 2 * t:
                expected += (t * t - 3 * t) // 2 * p[n - 2 * t]
        else:
            expected = ref.core_single_from_inner(inner[t], t, p, n)
        failed += answer != str(expected)
    return len(queries), failed


def _certified_ok(query: tuple, answer: dict) -> bool:
    kind = query[0]
    if kind == "estimate":
        rel = answer["rel"]
        return (
            answer["regime"] in ("main", "small_t")
            and answer["ok"]
            and rel is not None
            and 0.0 < rel < 1.0
            and math.isfinite(answer["log_value"])
        )
    if kind == "pair":
        return answer["ok"] and answer["method"] in ("difference", "ratio")
    # kappa: A rises from 0 toward its kappa -> infinity limit 1/6
    v, a, b = answer["v"], answer["A"], answer["B"]
    return all(map(math.isfinite, (v, a, b))) and v > 0 and 0 < a <= 1 / 6 + 1e-9 and b > 0


def check_certified(queries: list, answers: list, seed: int, tcore) -> tuple:
    """Every certificate ok, every estimate certified in main or small_t,
    every kappa constant in range; then exact spot checks on a seeded sample
    of the points whose n fits a p-series up to CHECK_N_MAX: the exact log
    count inside the estimate's interval, and for difference certificates
    c_t(n) <= c_{t+1}(n) plus containment of the exact difference in the
    certified multiplier interval."""
    failed = 0
    spot = {"estimate": [], "pair": []}
    for query, answer in zip(queries, answers):
        if "error" in answer or not _certified_ok(query, answer):
            failed += 1
        elif query[0] != "kappa" and query[2] <= workloads.CHECK_N_MAX:
            spot[query[0]].append((query, answer))
    rng = random.Random(f"check:{seed}")
    picks = {kind: rng.sample(pool, min(SAMPLE, len(pool))) for kind, pool in spot.items()}
    if picks["estimate"] or picks["pair"]:
        tcore.partition_numbers(workloads.CHECK_N_MAX)
    for (_, t, n), answer in picks["estimate"]:
        rel = answer["rel"]
        lo = answer["log_value"] + math.log1p(-rel)
        hi = answer["log_value"] + math.log1p(rel)
        failed += not lo <= tcore.log_of_integer(tcore.tcore_count(t, n)) <= hi
    for (_, t, n), answer in picks["pair"]:
        ok = tcore.tcore_count(t, n) <= tcore.tcore_count(t + 1, n)
        if answer["method"] == "difference":
            ok = ok and tcore.certify_interval_containment(t, n - t, "difference")[0]
        failed += not ok
    return len(queries), failed


def check(workload: str, seed: int, queries: list, answers: list, tcore) -> tuple:
    """(attempted, failed) of a run's answers."""
    if workload == "stanton_scan":
        return check_scan(queries, answers)
    if workload == "exact_queries":
        return check_exact(queries, answers)
    return check_certified(queries, answers, seed, tcore)

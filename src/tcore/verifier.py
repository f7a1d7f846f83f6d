"""Verification of the adjacent-t monotonicity c_t(N) <= c_{t+1}(N).

Two legs: an exhaustive exact scan over a desk-scale (t, N) box, and
per-pair certificates at large parameters that combine exact counts with the
certified estimators.  The scan streams two adjacent t-series at a time and
parallelizes over t-blocks; results are deterministic and ordered by (t, N).
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from typing import Optional

from . import exact
from .asymptotics import (
    HypothesisError,
    estimate_difference,
    estimate_main,
    estimate_small_t,
    log_interval,
    small_t_hypotheses,
)
from .backend import kernels

MAX_N_CAP = 10_000  # default resource cap for the exhaustive scan
EXACT_PAIR_CAP = 20_000  # n up to which certify_pair just compares exact counts


@dataclass
class VerificationReport:
    max_n: int
    max_t: Optional[int]
    violations: list  # (t, n) with c_t(n) > c_{t+1}(n)
    equalities: list  # (t, n) with c_t(n) = c_{t+1}(n), 4 <= t < n-1
    certified_pairs: list = field(default_factory=list)
    pairs_checked: int = 0
    workers: int = 1
    elapsed_s: float = 0.0
    blocks: list = field(default_factory=list)  # [t_lo, t_hi, seconds] per scan block

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "max_t": self.max_t,
            "violations": [list(v) for v in self.violations],
            "equalities": [list(e) for e in self.equalities],
            "certified_pairs": list(self.certified_pairs),
            "pairs_checked": self.pairs_checked,
            "workers": self.workers,
            "elapsed_s": self.elapsed_s,
            "blocks": [list(b) for b in self.blocks],
        }


_HIGH = bytes(range(0x80, 0x100))  # top bytes of slots with D(n) >= 0


def _all_positive(d, bias, w, t) -> bool:
    """Whether D(n) >= 1 for every compared n = t+2..max_n, from one AND.

    d = r_{t+1} - r_t packed as in ``_walk_limit``, and |D(n)| < 2**(8w-2).
    This is the zero-byte test of Warren, Hacker's Delight, 6-1: hb holds
    the top bit 2**(8w-1) of each compared slot and ones a 1 in each.  In
    d + hb - ones every compared slot is D(n) + 2**(8w-1) - 1, which lies in
    [0, 2**(8w)) and so takes no carry from or to its neighbours; its top bit
    is set exactly when D(n) >= 1.  The slots above (among them D(t+1) = -1,
    which every pair has) change only bits above hb."""
    hb = bias >> (8 * w * (t + 2))
    ones = hb >> (8 * w - 1)
    return (d + hb - ones) & hb == hb


def _walk_limit(prev, nxt, bias, w, t, max_n) -> int:
    """The largest n whose pair (t, t+1) the list walk must look at, or 0.

    prev and nxt pack r_t and r_{t+1} in w-byte slots, slot k for
    n = max_n - k, and bias holds 2**(8w-1) in each of those slots.  Write
    D(n) = r_{t+1}(n) - r_t(n); the scan guarantees |D(n)| < 2**(8w-2).
    Only the first max_n - t - 1 slots, n = t+2..max_n, are compared.

    Almost every pair has D(n) >= 1 throughout, which ``_all_positive``
    tells without reading a byte; the walk limit is then 0.  Any other pair
    is read from the bytes of nxt - prev + bias, whose slots are exactly
    D(n) + 2**(8w-1), with no carry between them:
    - a top byte below 0x80 is D(n) < 0, a violation; the walk then covers
      every n up to max_n;
    - a slot of bytes 00..00 80 is D(n) = 0, an equality.  With every top
      byte at 0x80 or above, a match of that pattern can only start on a
      slot boundary, so the first match is the largest equal n."""
    d = nxt - prev
    if _all_positive(d, bias, w, t):
        return 0
    end = (max_n - t - 1) * w
    e = (d + bias).to_bytes((max_n + 1) * w, "little")
    if e[w - 1 : end : w].translate(None, _HIGH):
        return max_n
    k = e.find(b"\x00" * (w - 1) + b"\x80", 0, end)
    return max_n - k // w if k >= 0 else 0


def _scan_block(args) -> tuple:
    """Compare pairs (t, t+1) for t in [t_lo, t_hi] over t+2 <= n <= max_n;
    return (violations, equalities, pairs compared, wall seconds).

    The inner factor is powered once, for t_lo, and stepped to each following
    t by one Euler-product multiplication; its truncation cap max_n // t only
    shrinks as t grows, so the stepped factor stays exact through it.

    Every inner factor starts with inner[0] = 1, so c_t(n) = p(n) + r_t(n)
    with r_t(n) = sum_{j>=1} inner[j] * p(n - j*t).  The p(n) term is the same
    on both sides of every comparison, so the block compares r_t with r_{t+1}
    and never computes the j = 0 row.  Order and equality are those of c_t
    and c_{t+1}.

    Each r_t is one packed integer (``kernels.core_series_packed``): the
    p-series is packed once per block in reverse, w bytes per slot, so slot k
    holds p(max_n - k).  Both c_t(n) and c_{t+1}(n) lie in [0, p(n)], so
    |r_{t+1}(n) - r_t(n)| <= p(max_n), and w = (bits of p(max_n) + 9) // 8
    leaves at least two spare bits per slot for the sign and the bias that
    ``_walk_limit`` adds.  A pair is then cleared by one AND on the packed
    difference, and only the rare pairs that AND flags (the equality
    (5, 10), any violation) have their bytes read; no value is unpacked.
    Flagged pairs and a fault-injection target are walked as lists from
    ``core_series_from_inner``, which report them."""
    started = time.perf_counter()
    t_lo, t_hi, max_n, corrupt = args
    p = kernels.partition_series(max_n)
    w = (p[max_n].bit_length() + 9) // 8
    width = 8 * w
    q = int.from_bytes(b"".join(v.to_bytes(w, "big") for v in p), "big")
    bias = int.from_bytes(b"\x80".ljust(w, b"\x00") * (max_n + 1), "big")
    violations, equalities = [], []
    pairs = 0
    inner = exact.core_inner_factor(t_lo, max_n // t_lo)
    prev = kernels.core_series_packed(inner, t_lo, q, width)
    for t in range(t_lo, t_hi + 1):
        step = kernels.euler_step(inner, max_n // (t + 1))
        nxt = kernels.core_series_packed(step, t + 1, q, width)
        pairs += max_n - t - 1
        limit = _walk_limit(prev, nxt, bias, w, t, max_n)
        hit = corrupt is not None and corrupt[0] == t and t + 2 <= corrupt[1] <= max_n
        if hit:
            limit = max(limit, corrupt[1])
        if limit:
            a = kernels.core_series_from_inner([0, *inner[1:]], t, p, limit)[t + 2 :]
            b = kernels.core_series_from_inner([0, *step[1:]], t + 1, p, limit)[t + 2 :]
            if hit:
                i = corrupt[1] - t - 2
                a[i] = b[i] + 1
            for n, x, y in zip(count(t + 2), a, b):
                if x > y:
                    violations.append((t, n))
                elif x == y:
                    equalities.append((t, n))
        inner, prev = step, nxt
    return violations, equalities, pairs, time.perf_counter() - started


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    reports one (a `taskset`-restricted process gets fewer than the host
    has), else the logical core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_workers() -> int:
    """TCORE_THREADS when set (a positive integer), else the usable CPUs."""
    env = os.environ.get("TCORE_THREADS")
    if not env:
        return _usable_cpus()
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"TCORE_THREADS must be a positive integer, not {env!r}")
    return workers


# Cost of the pair check per compared slot, in units of one slot operation
# of a core_series_packed row.  Fitted to measured block times: with it, the
# two blocks of a two-worker scan take equal time to within ~10% at max_n
# 400, 1400 and 3000 (the first block also powers the largest inner factor).
_CHECK_COST = 5


def _balanced_blocks(t_lo: int, t_hi: int, max_n: int, parts: int) -> list:
    """At most parts contiguous t-blocks covering t_lo..t_hi, of roughly
    equal modeled cost.

    Scanning t builds r_{t+1} and checks the pair (t, t+1).  The build shifts,
    multiplies and adds the rows j = 1..J of J = max_n // (t+1), and row j
    spans max_n + 1 - j*(t+1) slots: about 3 * (J*max_n - (t+1)*J*(J+1)/2)
    slot operations.  The check makes a few full-width passes over the
    max_n - t compared slots, _CHECK_COST in all.  Block i ends at the first t
    whose running cost reaches i/parts of the total."""
    costs = []
    for t in range(t_lo, t_hi + 1):
        rows = max_n // (t + 1)
        slots = rows * max_n - (t + 1) * rows * (rows + 1) // 2
        costs.append(3 * slots + _CHECK_COST * (max_n - t))
    total = sum(costs)
    blocks = []
    start = t_lo
    acc = 0
    for t, cost in zip(range(t_lo, t_hi + 1), costs):
        acc += cost
        if acc * parts >= total * (len(blocks) + 1) and t < t_hi:
            blocks.append((start, t))
            start = t + 1
    blocks.append((start, t_hi))
    return blocks


def verify_exact(
    max_n: int,
    max_t: Optional[int] = None,
    workers: Optional[int] = None,
    resource_cap: int = MAX_N_CAP,
    _corrupt: Optional[tuple] = None,
) -> VerificationReport:
    """Exhaustive exact comparison over 4 <= t < n-1, n <= max_n
    (and t <= max_t when given).  Big-integer comparisons only.  The t range
    is cut into one cost-balanced block per worker; the report lists each
    block's t range and wall time."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if max_n > resource_cap:
        raise ValueError(f"max_n {max_n} exceeds resource cap {resource_cap}")
    started = time.monotonic()
    t_hi = max_n - 2
    if max_t is not None:
        t_hi = min(t_hi, max_t)
    if t_hi < 4:
        return VerificationReport(
            max_n=max_n, max_t=max_t, violations=[], equalities=[], workers=1,
            elapsed_s=time.monotonic() - started,
        )
    workers = workers or default_workers()
    workers = max(1, min(workers, t_hi - 3, _usable_cpus()))
    blocks = _balanced_blocks(4, t_hi, max_n, workers)
    tasks = [(lo, hi, max_n, _corrupt) for lo, hi in blocks]
    if workers == 1:
        results = map(_scan_block, tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_block, tasks))
    violations, equalities, timed = [], [], []
    pairs = 0
    for (lo, hi), (v, e, c, seconds) in zip(blocks, results):
        violations.extend(v)
        equalities.extend(e)
        pairs += c
        timed.append([lo, hi, seconds])
    return VerificationReport(
        max_n=max_n,
        max_t=max_t,
        violations=sorted(violations),
        equalities=sorted(equalities),
        pairs_checked=pairs,
        workers=workers,
        elapsed_s=time.monotonic() - started,
        blocks=timed,
    )


@dataclass(frozen=True)
class PairCertificate:
    t: int
    n: int
    method: str  # exact | difference | ratio | inconclusive
    ok: bool
    equality: bool
    margin: float
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "n": self.n,
            "method": self.method,
            "ok": self.ok,
            "equality": self.equality,
            "margin": self.margin,
            "detail": dict(self.detail),
        }


def _certified_point_estimate(t: int, n: int):
    """A certified single-point estimate, small-t regime first."""
    if t >= 8 and small_t_hypotheses(t, n):
        return estimate_small_t(t, n)
    try:
        est = estimate_main(t, n)
    except Exception:
        return None
    return est if est.hypotheses_ok else None


def certify_pair(t: int, n: int, exact_cap: int = EXACT_PAIR_CAP) -> PairCertificate:
    """Establish c_t(n) <= c_{t+1}(n) by, in order: exact comparison when
    affordable, the difference certificate, or separated ratio intervals.
    margin is the worst-case slack of the winning method (log units for the
    ratio route, multiplier units for the difference route)."""
    if t < 1 or n < 0:
        raise ValueError("requires t >= 1 and n >= 0")
    if n <= exact_cap:
        a = exact.tcore_count(t, n)
        b = exact.tcore_count(t + 1, n)
        margin = 0.0
        if a > 0 and b > 0:
            margin = exact.log_of_integer(b) - exact.log_of_integer(a)
        return PairCertificate(
            t=t, n=n, method="exact", ok=a <= b, equality=a == b, margin=margin,
            detail={"c_t": str(a), "c_t1": str(b)},
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
    est_lo = _certified_point_estimate(t, n)
    est_hi = _certified_point_estimate(t + 1, n)
    if est_lo is not None and est_hi is not None:
        _, upper_t = log_interval(est_lo)
        lower_t1, _ = log_interval(est_hi)
        margin = lower_t1 - upper_t
        if margin > 0.0:
            return PairCertificate(
                t=t, n=n, method="ratio", ok=True, equality=False, margin=margin,
                detail={"regimes": (est_lo.regime, est_hi.regime)},
            )
    return PairCertificate(
        t=t, n=n, method="inconclusive", ok=False, equality=False, margin=0.0,
    )


def certify_interval_containment(t: int, n: int, regime: str) -> tuple:
    """Check that the exact count lies inside the certified interval of the
    given regime ('main' or 'small_t'), or - for 'difference' - that the exact
    adjacent difference lies in the certified multiplier interval times the
    exact base count.  Returns (contained, margin); margin is the distance to
    the nearer endpoint (log units, multiplier units for 'difference')."""
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
    lo, hi = log_interval(est)
    lg = exact.log_of_integer(exact.tcore_count(t, n))
    return (lo <= lg <= hi), min(lg - lo, hi - lg)


def _difference_containment(t: int, n: int) -> tuple:
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

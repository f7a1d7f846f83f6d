"""Exhaustive verification of c_t(N) <= c_{t+1}(N) over a desk-scale box.

The scan settles every pair with N < 2t by a lemma on the two-term closed
form (proved in ``_scan_block``), streams two adjacent packed t-series at a
time for the rest, and parallelizes over t-blocks; results are deterministic
and ordered by (t, N).  It reads the kernels alone.  The per-pair
certificates at large parameters live in tcore.certify.
"""

import os
import time
from itertools import count
from typing import NamedTuple, Optional

from .backend import kernels

MAX_N_CAP = 10_000  # resource cap for the exhaustive scan

# Names of tcore.certify that were defined here once.  They forward to that
# module on each access, so a wrapper installed there is what they read.  They
# go when the benchmark tracer (perfbench/layers.py) wraps tcore.certify
# directly.
_CERTIFY_NAMES = (
    "EXACT_PAIR_CAP", "PairCertificate", "certify_interval_containment", "certify_pair"
)


def __getattr__(name):
    if name not in _CERTIFY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import certify

    return getattr(certify, name)


class VerificationReport(NamedTuple):
    """Result of an exhaustive scan.  blocks defaults to an empty tuple, so
    default-built reports share nothing mutable; verify_exact passes a list
    of its own."""

    max_n: int
    max_t: Optional[int]
    violations: list  # (t, n) with c_t(n) > c_{t+1}(n)
    equalities: list  # (t, n) with c_t(n) = c_{t+1}(n), 4 <= t < n-1
    pairs_checked: int = 0
    workers: int = 1
    elapsed_s: float = 0.0
    blocks: list = ()  # [t_lo, t_hi, seconds] per scan block
    closed_form_pairs: int = 0  # pairs with n < 2t, settled by the lemma

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "violations": [list(v) for v in self.violations],
            "equalities": [list(e) for e in self.equalities],
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
    return (violations, equalities, pairs compared, pairs the closed form
    settled, wall seconds).  The pairs split at n = 2t into two halves.

    Closed form, n < 2t.  Every inner factor starts 1 - t*x, so
    c_t(n) = sum_j inner[j] * p(n - j*t) has only the terms j = 0, 1 there:
    c_t(n) = p(n) - t*p(n - t), and n < 2t < 2(t+1) gives the same form for
    t+1.  With m = n - t in 2..min(t-1, max_n-t) and
    Delta(k) = p(k) - p(k-1),
        D(n) = c_{t+1}(n) - c_t(n) = t*p(m) - (t+1)*p(m-1)
             = t*Delta(m) - p(m-1),
    and D(n) >= Delta(m) + 1 >= 2 at every such pair, at any size:
    - Delta(k) counts the partitions of k with no part 1 (removing one part
      1 maps the others onto the partitions of k-1);
    - adding 1 to the largest part maps those of k-1 into those of k
      injectively, so Delta is nondecreasing from k = 2, and Delta(2) = 1;
    - hence p(m-1) = 1 + sum_{k=2}^{m-1} Delta(k) <= 1 + (m-2)*Delta(m),
      and Delta(m) >= 1 gives p(m-1) <= m*Delta(m) - 1 (equality at m = 2
      and 3);
    - t >= m + 1 then gives D(n) >= (m+1)*Delta(m) - p(m-1) >= Delta(m) + 1.
    So this half only counts its pairs, and reads no p-value.  A
    fault-injection target in it is reported as a violation.

    Packed, n >= n0 = 2t (only t <= max_n // 2 has such n).  The inner
    factor of t_lo is the Euler product stepped t_lo - 1 times, and every
    following t steps it once more (``kernels.euler_step``); its truncation
    cap max_n // t only shrinks as t grows, so the stepped factor stays exact
    through it.  The p(n) term is the same on both sides of a pair, so the
    block compares r_t = c_t - p with r_{t+1} and never computes the j = 0
    row; order and equality are those of c_t and c_{t+1}.

    Each r_t is one packed integer (``kernels.core_series_packed``): the
    p-series is packed once per block in reverse, w bytes per slot, so slot k
    holds p(max_n - k).  Both c_t(n) and c_{t+1}(n) lie in [0, p(n)], so
    |r_{t+1}(n) - r_t(n)| <= p(max_n), and w = (bits of p(max_n) + 9) // 8
    leaves at least two spare bits per slot for the sign and the bias that
    ``_walk_limit`` adds.  One AND on the packed difference clears a pair
    whose D(n) >= 1 at every n >= n0 (``_all_positive``); only the rare
    pairs it flags (the equality (5, 10), any violation) have their bytes
    read, and no value is unpacked.  Flagged pairs and a fault-injection
    target are walked from n0 as lists from ``core_series_from_inner``,
    which report them."""
    started = time.perf_counter()
    t_lo, t_hi, max_n, corrupt = args
    p = kernels.partition_series(max_n)
    violations, equalities = [], []
    pairs = closed = 0
    # the closed-form half; t_hi <= max_n - 2 and t >= 4 give m = 2 a pair
    for t in range(t_lo, t_hi + 1):
        pairs += max_n - t - 1
        closed += min(t - 1, max_n - t) - 1
    if corrupt is not None and t_lo <= corrupt[0] <= t_hi:
        t, n = corrupt
        if t + 2 <= n <= t + min(t - 1, max_n - t):
            violations.append((t, n))
    # the packed half
    t_top = min(t_hi, max_n // 2)
    if t_lo <= t_top:
        w = (p[max_n].bit_length() + 9) // 8
        width = 8 * w
        q = int.from_bytes(b"".join(v.to_bytes(w, "big") for v in p), "big")
        bias = int.from_bytes(b"\x80".ljust(w, b"\x00") * (max_n + 1), "big")
        cap = max_n // t_lo
        inner = kernels.euler_factor(cap)
        for _ in range(t_lo - 1):
            inner = kernels.euler_step(inner, cap)
        prev = kernels.core_series_packed(inner, t_lo, q, width)
        for t in range(t_lo, t_top + 1):
            step = kernels.euler_step(inner, max_n // (t + 1))
            nxt = kernels.core_series_packed(step, t + 1, q, width)
            n0 = 2 * t
            # _walk_limit compares the slots n >= its t + 2
            limit = _walk_limit(prev, nxt, bias, w, n0 - 2, max_n)
            hit = corrupt is not None and corrupt[0] == t and n0 <= corrupt[1] <= max_n
            if hit:
                limit = max(limit, corrupt[1])
            if limit:
                a = kernels.core_series_from_inner([0, *inner[1:]], t, p, limit)[n0:]
                b = kernels.core_series_from_inner([0, *step[1:]], t + 1, p, limit)[n0:]
                if hit:
                    i = corrupt[1] - n0
                    a[i] = b[i] + 1
                for n, x, y in zip(count(n0), a, b):
                    if x > y:
                        violations.append((t, n))
                    elif x == y:
                        equalities.append((t, n))
            inner, prev = step, nxt
    return violations, equalities, pairs, closed, time.perf_counter() - started


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    reports one (a `taskset`-restricted process gets fewer than the host
    has), else the logical core count.  The default worker count and its
    ceiling."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Cost of the pair check per compared slot, in units of one slot operation
# of a core_series_packed row.  Fitted to measured block times: with it, the
# first block of a two-worker scan takes 0.97 and 0.99 of the second's time
# at max_n 1400 and 3000, and 0.88 at 400 (run serially; the first block
# also steps the Euler product up to its first t).
_CHECK_COST = 5


def _balanced_blocks(t_lo: int, t_hi: int, max_n: int, parts: int) -> list:
    """At most parts contiguous t-blocks covering t_lo..t_hi, of roughly
    equal modeled cost.

    A t with 2t <= max_n builds r_{t+1} and checks the pair (t, t+1) for
    n >= 2t.  The build shifts, multiplies and adds the rows j = 1..J of
    J = max_n // (t+1), and row j spans max_n + 1 - j*(t+1) slots: about
    3 * (J*max_n - (t+1)*J*(J+1)/2) slot operations.  The check makes a few
    full-width passes over the max_n - 2t + 1 compared slots, _CHECK_COST in
    all.  A larger t only has pairs the closed form settles, at a cost of 1.
    The cost never rises with t.  Block i ends at the first t whose running
    cost reaches i/parts of the total."""
    costs = []
    for t in range(t_lo, t_hi + 1):
        if 2 * t > max_n:
            costs.append(1)
            continue
        rows = max_n // (t + 1)
        slots = rows * max_n - (t + 1) * rows * (rows + 1) // 2
        costs.append(3 * slots + _CHECK_COST * (max_n - 2 * t + 1))
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


def _block_process(task, conn) -> None:
    """Child-process target: scan one block and send back its result, or the
    exception it raised."""
    try:
        result = _scan_block(task)
    except Exception as exc:
        result = exc
    conn.send(result)
    conn.close()


def _run_blocks(tasks) -> list:
    """The results of _scan_block on every task, in order.  tasks[0] runs in
    this process while each other task runs in a child process of its own
    and sends its result through a pipe.  _scan_block is looked up as a
    module global at each call, so a wrapper installed on it sees every
    block, in this process and (under fork) in the children.
    multiprocessing is imported only once a second block needs a child, so
    neither import tcore nor a one-block scan loads it."""
    if len(tasks) == 1:
        return [_scan_block(tasks[0])]
    from multiprocessing import Pipe, Process

    children = []
    results = []
    try:
        for task in tasks[1:]:
            recv, send = Pipe(duplex=False)
            proc = Process(target=_block_process, args=(task, send))
            proc.start()
            send.close()
            children.append((proc, recv, task))
        results.append(_scan_block(tasks[0]))
        for proc, recv, (lo, hi, _, _) in children:
            try:
                result = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"scan worker for t in [{lo}, {hi}] exited with code {proc.exitcode}"
                ) from None
            if isinstance(result, Exception):
                raise result
            results.append(result)
    finally:
        for proc, recv, _ in children:
            if len(results) < len(tasks):
                proc.terminate()
            proc.join()
            recv.close()
    return results


def verify_exact(
    max_n: int,
    max_t: Optional[int] = None,
    workers: Optional[int] = None,
    _corrupt: Optional[tuple] = None,
) -> VerificationReport:
    """Exhaustive exact comparison over 4 <= t < n-1, n <= max_n
    (and t <= max_t when given).  Big-integer comparisons only.  The t range
    is cut into one cost-balanced block per worker; the first block runs in
    this process, each other in a child process.  The report lists each
    block's t range and wall time, and how many pairs the n < 2t lemma settled."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if max_n > MAX_N_CAP:
        raise ValueError(f"max_n {max_n} exceeds resource cap {MAX_N_CAP}")
    started = time.monotonic()
    t_hi = max_n - 2
    if max_t is not None:
        t_hi = min(t_hi, max_t)
    if t_hi < 4:
        return VerificationReport(
            max_n=max_n, max_t=max_t, violations=[], equalities=[],
            workers=1, elapsed_s=time.monotonic() - started, blocks=[],
        )
    cpus = _usable_cpus()
    workers = max(1, min(workers or cpus, t_hi - 3, cpus))
    blocks = _balanced_blocks(4, t_hi, max_n, workers)
    results = _run_blocks([(lo, hi, max_n, _corrupt) for lo, hi in blocks])
    violations, equalities, timed = [], [], []
    pairs = closed = 0
    for (lo, hi), (v, e, c, settled, seconds) in zip(blocks, results):
        violations.extend(v)
        equalities.extend(e)
        pairs += c
        closed += settled
        timed.append([lo, hi, seconds])
    return VerificationReport(
        max_n=max_n,
        max_t=max_t,
        violations=sorted(violations),
        equalities=sorted(equalities),
        pairs_checked=pairs,
        closed_form_pairs=closed,
        workers=workers,
        elapsed_s=time.monotonic() - started,
        blocks=timed,
    )


"""Exact arbitrary-precision counting of partitions and t-core partitions.

Everything here is integer arithmetic; no floating point enters until
log_of_integer.  The generating identity behind tcore_counts factors the
t-core series as

    sum_N c_t(N) q^N  =  [prod_n (1 - x^n)]^t |_{x = q^t}  *  sum_N p(N) q^N,

so a t-core series is one sparse (stride-t) convolution of a small inner
factor against the dense partition series.
"""

import math
import threading
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .backend import kernels

PARTITION_LIMIT_CAP = 10**8
BRUTEFORCE_CAP = 40


@dataclass(frozen=True)
class PartitionSeries:
    """Exact counts indexed by N = 0..limit; t is None for plain p(N)."""

    t: Optional[int]
    values: tuple

    @property
    def limit(self) -> int:
        return len(self.values) - 1


# Dense p(N) values, grown on demand and shared by every caller.  Replaced
# wholesale (never mutated in place) so concurrent readers stay safe, and only
# ever by a longer list: the swap is made under _p_lock, while the series
# itself is computed outside it.
_p_values: list = [1]
_p_lock = threading.Lock()


def _partition_values(limit: int) -> list:
    """Internal cached accessor for p(0..limit) as a plain list (at least
    limit + 1 entries; possibly more)."""
    global _p_values
    if limit >= PARTITION_LIMIT_CAP:
        raise ValueError(f"limit {limit} exceeds cap {PARTITION_LIMIT_CAP}")
    values = _p_values
    if limit >= len(values):
        values = kernels.partition_series(max(limit, 2 * len(values)))
        with _p_lock:
            if len(values) > len(_p_values):
                _p_values = values
    return values


def partition_numbers(limit: int) -> PartitionSeries:
    """Exact p(0..limit)."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    values = _partition_values(limit)
    return PartitionSeries(t=None, values=tuple(values[: limit + 1]))


def core_inner_factor(t: int, cap: int) -> list:
    """[prod_{n} (1 - x^n)]^t truncated at degree cap, by binary exponentiation."""
    base = kernels.euler_factor(cap)
    result = [1]
    e = t
    while e:
        if e & 1:
            result = kernels.poly_mul_trunc(result, base, cap)
        e >>= 1
        if e:
            base = kernels.poly_mul_trunc(base, base, cap)
    return result


def tcore_counts(t: int, limit: int) -> PartitionSeries:
    """Exact c_t(0..limit) via the sparse inner factor and the p-series."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    p = _partition_values(limit)
    inner = core_inner_factor(t, limit // t)
    values = kernels.core_series_from_inner(inner, t, p, limit)
    return PartitionSeries(t=t, values=tuple(values))


def tcore_count(t: int, n: int) -> int:
    """Exact c_t(n) alone (shares the cached p-series; much cheaper than a
    full series when only one coefficient is needed)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = _partition_values(n)
    inner = core_inner_factor(t, n // t)
    return kernels.core_single_from_inner(inner, t, p, n)


def partitions_of(n: int) -> Iterator[tuple]:
    """All partitions of n as weakly decreasing tuples."""
    if n == 0:
        yield ()
        return

    def rec(remaining, first):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, first), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    yield from rec(n, n)


def hook_lengths(parts: Sequence[int]) -> list:
    """Hook lengths of a partition's diagram: for the cell at row i, column j
    the hook is (cells to the right) + (cells below) + 1."""
    parts = list(parts)
    if not parts:
        return []
    width = parts[0]
    conj = [0] * width
    for row in parts:
        for j in range(row):
            conj[j] += 1
    hooks = []
    for i, row in enumerate(parts, start=1):
        for j in range(1, row + 1):
            hooks.append((row - j) + (conj[j - 1] - i) + 1)
    return hooks


def tcore_count_bruteforce(t: int, n: int) -> int:
    """c_t(n) by enumerating all partitions of n and their hook multisets."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 0 <= n <= BRUTEFORCE_CAP:
        raise ValueError(f"n must be in [0, {BRUTEFORCE_CAP}]")
    count = 0
    for parts in partitions_of(n):
        if t not in hook_lengths(parts):
            count += 1
    return count


def tcore_count_closed_small_range(t: int, n: int) -> int:
    """c_t(n) for n < 3t by the three-term closed form
    p(n) - t*p(n-t) + (t^2-3t)/2 * p(n-2t), with p of negative arguments 0."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if n >= 3 * t:
        raise ValueError("closed form requires n < 3t")
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = _partition_values(n)
    total = p[n]
    if n >= t:
        total -= t * p[n - t]
    if n >= 2 * t:
        total += (t * t - 3 * t) // 2 * p[n - 2 * t]
    return total


def log_of_integer(n: int) -> float:
    """Natural log of a positive integer, accurate to ~1 ulp at any size."""
    if n <= 0:
        raise ValueError("n must be positive")
    return math.log(n)

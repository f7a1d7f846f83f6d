"""Exact-series tests: independent oracles first, then the series routes."""

import math
import random
from functools import lru_cache

import pytest

from tcore import exact
from tcore.backend import kernels
from tcore.modular import sigma


# --- independent oracles (kept free of the package's series code) ---------------

@lru_cache(maxsize=None)
def count_partitions(n, largest):
    """Number of partitions of n with parts <= largest, by direct recursion."""
    if n == 0:
        return 1
    if largest == 0:
        return 0
    total = 0
    for part in range(min(n, largest), 0, -1):
        total += count_partitions(n - part, part)
    return total


def inner_by_sigma_recurrence(t, cap):
    """[prod (1-x^n)]^t through degree cap via the log-derivative recurrence
    m g_m = -t sum_j sigma(j) g_{m-j}; independent of binary exponentiation."""
    g = [1]
    for m in range(1, cap + 1):
        s = sum(sigma(j) * g[m - j] for j in range(1, m + 1))
        q, r = divmod(-t * s, m)
        assert r == 0
        g.append(q)
    return g


def inner_by_miller_recurrence(t, cap):
    """[prod (1-x^n)]^t through degree cap by J.C.P. Miller's power recurrence
    m f_m = sum_j e_j ((t+1) j - m) f_{m-j}, with e_j the Euler coefficients:
    (-1)^k at the generalized pentagonal numbers k(3k -+ 1)/2, else 0.  The
    division by m is exact.  Independent of binary powering and of sigma."""
    euler = []  # (j, e_j) for j >= 1 with e_j != 0, in increasing j
    k = 1
    while k * (3 * k - 1) // 2 <= cap:
        sign = -1 if k & 1 else 1
        euler += [(j, sign) for j in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if j <= cap]
        k += 1
    f = [1]
    for m in range(1, cap + 1):
        s = sum(e * ((t + 1) * j - m) * f[m - j] for j, e in euler if j <= m)
        q, r = divmod(s, m)
        assert r == 0
        f.append(q)
    return f


def core_series_n_major(inner, t, p, limit):
    """c_t(0..limit) = sum_j inner[j] p(n - j t), one output n at a time: the
    loop the row-wise core_series_from_inner replaced, kept as its reference."""
    out = [0] * (limit + 1)
    for n in range(limit + 1):
        s = 0
        jt = 0
        j = 0
        while jt <= n and j < len(inner):
            cj = inner[j]
            if cj:
                s += cj * p[n - jt]
            j += 1
            jt += t
        out[n] = s
    return out


def partition_series_pentagonal_loop(limit):
    """p(0..limit) by Euler's pentagonal recurrence, one term at a time: the
    loop the builtin-summed partition_series replaced, kept as its reference."""
    p = [0] * (limit + 1)
    p[0] = 1
    for n in range(1, limit + 1):
        s = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2  # generalized pentagonal numbers g, g + k
            if g > n:
                break
            if k & 1:
                s += p[n - g]
                if g + k <= n:
                    s += p[n - g - k]
            else:
                s -= p[n - g]
                if g + k <= n:
                    s -= p[n - g - k]
            k += 1
        p[n] = s
    return p


def _divisors(m):
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return set(small) | {m // d for d in small}


def c5_divisor_sum(n):
    """c_5(n) = sum over d | n+1 of (d/5) (n+1)/d, (d/5) the Legendre symbol
    (Garvan, Kim and Stanton, "Cranks and t-cores", Invent. Math. 101, 1990)."""
    m = n + 1
    return sum((0, 1, -1, -1, 1)[d % 5] * (m // d) for d in _divisors(m))


def c3_divisor_count(n):
    """c_3(n) = d_{1,3}(3n+1) - d_{2,3}(3n+1), the divisors of 3n+1 that are
    1 mod 3 less those that are 2 mod 3 (same paper)."""
    return sum((0, 1, -1)[d % 3] for d in _divisors(3 * n + 1))


def c4_lattice(n):
    """c_4(n) by the Garvan-Kim-Stanton bijection (same paper): the t-cores
    of n are the v in Z^t with sum v_i = 0 and n = (t/2)|v|^2 + sum i v_i.
    With w_i = t v_i + i that reads w_i = i mod t, sum w_i = t(t-1)/2 and
    sum w_i^2 = 2tn + sum i^2.  For t = 4, w_0 and w_1 fixed, w_2 + w_3 = s
    and (w_2 - w_3)^2 = 2 (8n + 14 - w_0^2 - w_1^2) - s^2 give w_2."""
    total = 8 * n + 14
    count = 0
    r0 = math.isqrt(total)
    for w0 in range(-r0 + r0 % 4, r0 + 1, 4):
        rest0 = total - w0 * w0
        r1 = math.isqrt(rest0)
        for w1 in range(-r1 + (1 + r1) % 4, r1 + 1, 4):
            s = 6 - w0 - w1
            disc = 2 * (rest0 - w1 * w1) - s * s
            if disc < 0:
                continue
            d = math.isqrt(disc)
            if d * d == disc and (s + d) % 2 == 0:
                count += sum(w2 % 4 == 2 for w2 in {(s + d) // 2, (s - d) // 2})
    return count


def tcore_counts_lattice(t, limit):
    """c_t(0..limit) by the same bijection: every w with w_i = i mod t, sum
    w_i = t(t-1)/2 and sum w_i^2 <= 2t limit + sum i^2, enumerated
    coordinate by coordinate, each lattice point counted at its n."""
    base = sum(i * i for i in range(t))
    top = 2 * t * limit + base
    counts = [0] * (limit + 1)

    def place(i, total, squares):
        if i == t - 1:  # the last coordinate is fixed by the sum
            w = t * (t - 1) // 2 - total
            q = squares + w * w
            if q <= top:
                counts[(q - base) // (2 * t)] += 1
            return
        r = math.isqrt(top - squares)
        for w in range(-r + (i + r) % t, r + 1, t):
            place(i + 1, total + w, squares + w * w)

    place(0, 0, 0)
    return counts


# --- partition numbers ------------------------------------------------------------

def test_partition_empty():
    assert exact.partition_numbers(0).values == (1,)


@pytest.mark.parametrize("n,expected", [(5, 7), (10, 42)])
def test_partition_small_values(n, expected):
    # expected values recomputed by the enumeration oracle
    assert count_partitions(n, n) == expected
    assert exact.partition_numbers(n).values[n] == expected


def test_partition_series_vs_enumeration():
    series = exact.partition_numbers(25)
    for n in range(26):
        assert series.values[n] == count_partitions(n, n)


@pytest.mark.parametrize("limit", list(range(81)) + [1400, 20000])
def test_partition_series_matches_pentagonal_loop(limit):
    assert kernels.partition_series(limit) == partition_series_pentagonal_loop(limit)


@pytest.mark.parametrize("n", [1, 7, 100, 1400, 12345, 40000])
def test_partition_series_vs_sympy(n):
    sympy_partition = pytest.importorskip("sympy").partition
    assert kernels.partition_series(n)[n] == sympy_partition(n)


def test_partition_numbers_match_oracle():
    assert exact.partition_numbers(20000).values == tuple(
        partition_series_pentagonal_loop(20000)
    )


# prefix lengths 1-8 (through the seeded p(0..6)), at, just before and just
# after the pentagonal offsets 12, 15, 22, 26, 35, and a few thousand
RESUME_LENGTHS = list(range(1, 9)) + [11, 12, 13, 15, 16, 21, 22, 26, 27, 35, 36, 2998, 3001]


@pytest.mark.parametrize("length", RESUME_LENGTHS)
def test_partition_series_resumes_from_a_prefix(length):
    prefix = kernels.partition_series(length - 1)
    kept = list(prefix)
    for limit in (length - 1, length, length + 1, length + 40, 3100):
        got = kernels.partition_series(limit, prefix)
        assert got == kernels.partition_series(limit)  # and nothing past limit
        assert got is not prefix
    assert prefix == kept  # the prefix is copied, never extended
    assert kernels.partition_series(3100, tuple(prefix)) == kernels.partition_series(3100)


def test_partition_cache_grows_to_exactly_limit(monkeypatch):
    monkeypatch.setattr(exact, "_p_values", [1])
    build = kernels.partition_series
    built = []

    def recording(limit, prefix=()):
        built.append((limit, len(prefix)))
        return build(limit, prefix)

    monkeypatch.setattr(kernels, "partition_series", recording)
    first = exact._partition_values(100)
    assert len(first) == len(exact._p_values) == 101
    second = exact._partition_values(150)
    assert len(second) == len(exact._p_values) == 151
    assert exact._partition_values(120) is second  # served from the cache
    assert built == [(100, 1), (150, 101)]  # each grow resumes from the cache
    assert first == build(100) and second == build(150)


def test_partition_limit_validation():
    with pytest.raises(ValueError):
        exact.partition_numbers(-1)
    with pytest.raises(ValueError):
        exact.partition_numbers(exact.PARTITION_LIMIT_CAP + 1)


# --- hook lengths and brute force --------------------------------------------------

def test_hook_lengths_example():
    hooks = exact.hook_lengths((6, 4, 2))
    assert sorted(hooks) == [1, 1, 1, 2, 2, 2, 4, 4, 5, 5, 7, 8]
    assert set(hooks) == {1, 2, 4, 5, 7, 8}
    # so (6,4,2) is a t-core exactly for t outside its hook set
    for t in range(1, 13):
        in_set = t in {1, 2, 4, 5, 7, 8}
        assert (t in hooks) == in_set


def test_bruteforce_examples():
    assert exact.tcore_count_bruteforce(5, 10) == 12
    for t in (1, 2, 7, 40):
        assert exact.tcore_count_bruteforce(t, 0) == 1


def test_bruteforce_validation():
    with pytest.raises(ValueError):
        exact.tcore_count_bruteforce(5, 41)
    with pytest.raises(ValueError):
        exact.tcore_count_bruteforce(0, 5)


# --- t-core series ------------------------------------------------------------------

def test_spot_counts():
    assert exact.tcore_counts(5, 10).values[10] == 12
    assert exact.tcore_counts(6, 10).values[10] == 12
    assert exact.tcore_count(5, 10) == 12
    assert exact.tcore_count(6, 10) == 12


def test_t1_series_collapses():
    series = exact.tcore_counts(1, 40)
    assert series.values[0] == 1
    assert all(v == 0 for v in series.values[1:])


def test_t_above_n_gives_plain_partitions():
    p = exact.partition_numbers(200).values
    assert exact.tcore_counts(201, 200).values == p
    assert exact.tcore_count(11, 10) == 42
    for n in (0, 1, 17, 120, 200):
        assert exact.tcore_count(n + 1, n) == p[n]


def test_oracle_equivalence_small():
    for n in range(0, 21):
        for t in range(1, n + 1):
            assert exact.tcore_counts(t, n).values[n] == exact.tcore_count_bruteforce(t, n)


def test_series_matches_single_point():
    series = exact.tcore_counts(7, 120)
    for n in (0, 1, 13, 59, 120):
        assert exact.tcore_count(7, n) == series.values[n]


def test_inner_factor_independent_recurrence():
    for t, cap in ((4, 30), (50, 20), (600, 16)):
        assert exact.core_inner_factor(t, cap) == inner_by_sigma_recurrence(t, cap)
    # a single bit, runs of set bits and their neighbours, at caps 0, 1 and 25
    for t in (1, 2, 3, 63, 64, 65, 255, 1024):
        for cap in (0, 1, 25):
            assert exact.core_inner_factor(t, cap) == inner_by_sigma_recurrence(t, cap), (t, cap)
    # all bits set: a square and a step per bit, on long dense rows
    for t in (63, 127, 255, 511, 1023):
        assert exact.core_inner_factor(t, 150) == inner_by_sigma_recurrence(t, 150), t


def test_miller_oracle_matches_the_other_inner_factors():
    for t in (1, 2, 3, 8, 24, 59, 60, 255, 1000):
        for cap in (0, 1, 2, 5, 7, 40, 120):
            miller = inner_by_miller_recurrence(t, cap)
            assert miller == inner_by_sigma_recurrence(t, cap), (t, cap)
            assert miller == exact.core_inner_factor(t, cap), (t, cap)


def _random_lists(seed):
    """Seeded signed coefficient lists: lengths 0..40, a single term, runs of
    zeros, and large entries."""
    rng = random.Random(seed)
    yield from ([], [0], [7], [-3], [0, 0, 0, 5], [1, 0, 0, 0, 0, 0, -1], [2**70, 0, -(2**65)])
    for length in range(41):
        yield [rng.choice((0, 0, 1, -1, rng.randrange(-(10**30), 10**30))) for _ in range(length)]


def test_square_kernel_matches_general_product():
    for a in _random_lists(24):
        top = 2 * len(a) - 2  # the degree of the full square
        for cap in sorted(c for c in {0, 1, 2, len(a), top - 1, top, top + 1, top + 5} if c >= 0):
            assert kernels.poly_square_trunc(a, cap) == kernels.poly_mul_trunc(a, a, cap), (a, cap)


@pytest.mark.parametrize(
    "inner,t,limit",
    [
        (exact.core_inner_factor(1, 60), 1, 60),
        (exact.core_inner_factor(4, 150 // 4), 4, 150),
        (exact.core_inner_factor(7, 150 // 7), 7, 150),
        (exact.core_inner_factor(9, 5), 9, 150),  # shorter than limit // t + 1
        (exact.core_inner_factor(200, 0), 200, 150),  # t > limit
        (exact.core_inner_factor(200, 3), 200, 150),  # longer than needed
        (exact.core_inner_factor(5, 0), 5, 0),  # limit = 0
        ([0, 3, 0, 0, -2, 0, 7], 6, 150),  # zeros, including inner[0]
        ([], 3, 20),
        ([0, 0, 5, -1], 4, 60),  # first nonzero row at j = 2
        ([0, 0, 0], 5, 40),  # all zero
        (exact.core_inner_factor(31, 150 // 31 + 5), 31, 150),  # longer than needed
    ],
)
def test_series_kernel_matches_references(inner, t, limit):
    p = exact.partition_numbers(limit).values
    series = kernels.core_series_from_inner(inner, t, p, limit)
    assert series == core_series_n_major(inner, t, p, limit)
    # perfbench/check.py builds one p-series to its largest n: it runs past n
    long_p = exact.partition_numbers(limit + 40).values
    assert series == [kernels.core_single_from_inner(inner, t, long_p, n) for n in range(limit + 1)]


@pytest.mark.parametrize("t,limit", [(1, 40), (4, 150), (9, 150), (150, 150), (200, 150)])
def test_series_without_constant_term_is_series_minus_p(t, limit):
    # the monotonicity scan compares c_t - p: the series of the inner factor
    # with inner[0] = 1 zeroed
    p = exact.partition_numbers(limit).values
    inner = exact.core_inner_factor(t, limit // t)
    rest = kernels.core_series_from_inner([0, *inner[1:]], t, p, limit)
    assert rest == [c - pn for c, pn in zip(exact.tcore_counts(t, limit).values, p)]
    assert rest == core_series_n_major([0, *inner[1:]], t, p, limit)


def unpack_signed(x, width, slots):
    """Slot values of a packed integer, slot 0 first, each read as a signed
    value in [-2**(width-1), 2**(width-1)); asserts nothing lies above them."""
    half = 1 << (width - 1)
    y = x + sum(half << (width * k) for k in range(slots))
    assert 0 <= y < 1 << (width * slots)
    mask = (1 << width) - 1
    return [((y >> (width * k)) & mask) - half for k in range(slots)]


PACKED_INNERS = (
    "real",  # the t-core inner factor itself
    [1, 0, -3, 0, 0, 2**70 + 1, -(2**65), 0, 5],  # zeros, negatives, > 2**64
    [9, 0, 0, 0, -1],  # first nonzero row late; inner[0] is never read
    [0],
    [],
)


@pytest.mark.parametrize("inner", PACKED_INNERS, ids=["real", "mixed", "late", "zero", "empty"])
@pytest.mark.parametrize("t", [1, 2, 3, 7, 50])
def test_packed_series_decodes_to_list_series(t, inner):
    for limit in sorted({0, 1, t - 1, t, 3 * t + 1, 200}):
        p = exact.partition_numbers(limit).values
        coeffs = exact.core_inner_factor(t, limit // t) if inner == "real" else inner
        expected = kernels.core_series_from_inner([0, *coeffs[1:]], t, p, limit)
        bits = max(abs(v) for v in [*expected, p[limit]]).bit_length()
        width = 8 * ((bits + 9) // 8)
        q = sum(pm << (width * (limit - m)) for m, pm in enumerate(p))  # slot k: p(limit - k)
        packed = kernels.core_series_packed(coeffs, t, q, width)
        assert unpack_signed(packed, width, limit + 1)[::-1] == expected


@pytest.mark.parametrize("t,cap", [(1, 40), (4, 60), (13, 25), (300, 4), (6, 0)])
def test_euler_step_raises_the_power(t, cap):
    f = exact.core_inner_factor(t, cap)
    for cap2 in range(cap + 1):
        stepped = kernels.euler_step(f, cap2)
        assert stepped == exact.core_inner_factor(t + 1, cap2)
        assert stepped == inner_by_sigma_recurrence(t + 1, cap2)


def test_euler_step_is_truncated_product():
    e = kernels.euler_factor(30)
    for f, cap in (([1], 30), ([2, 0, -1], 30), ([5, 4, 3, 2, 1], 2), ([7], 0)):
        assert kernels.euler_step(f, cap) == kernels.poly_mul_trunc(f, e[: cap + 1], cap)


def test_nonnegative_values():
    for t in (2, 3, 7, 12):
        assert all(v >= 0 for v in exact.tcore_counts(t, 150).values)


def test_tcore_validation():
    with pytest.raises(ValueError):
        exact.tcore_counts(0, 10)
    with pytest.raises(ValueError):
        exact.tcore_counts(5, -1)


# --- closed form for n < 3t ---------------------------------------------------------

def test_closed_form_example():
    # p(10) - 9 p(1) + 0 = 42 - 9 = 33 = p(10) - 10 + 1
    assert exact.tcore_count_closed_small_range(9, 10) == 33


def test_closed_form_below_t_is_plain_partition():
    p = exact.partition_numbers(30).values
    for t in (8, 19, 31):
        for n in range(0, min(t, 31)):
            assert exact.tcore_count_closed_small_range(t, n) == p[n]


def test_closed_form_agrees_with_series():
    for t in range(4, 31):
        series = exact.tcore_counts(t, 3 * t - 1)
        for n in range(0, 3 * t):
            assert exact.tcore_count_closed_small_range(t, n) == series.values[n]


def test_closed_form_agrees_up_to_t100():
    for t in (40, 77, 100):
        for n in (0, t, 2 * t, 3 * t - 1):
            assert exact.tcore_count_closed_small_range(t, n) == exact.tcore_count(t, n)


def test_closed_form_validation():
    with pytest.raises(ValueError):
        exact.tcore_count_closed_small_range(5, 15)


# --- adjacent identities at n-1, n ---------------------------------------------------

def test_top_edge_identities():
    p = exact.partition_numbers(500).values
    for n in range(3, 501):
        c_nm1 = exact.tcore_count(n - 1, n)
        c_n = exact.tcore_count(n, n)
        assert c_nm1 == p[n] - n + 1
        assert c_n == c_nm1 - 1


# --- log of big integers --------------------------------------------------------------

def test_log_of_integer_basics():
    assert exact.log_of_integer(1) == 0.0
    assert math.isclose(exact.log_of_integer(2**64), 64 * math.log(2), rel_tol=1e-15)
    with pytest.raises(ValueError):
        exact.log_of_integer(0)


def test_log_of_integer_vs_mpmath():
    mpmath = pytest.importorskip("mpmath")
    p1000 = exact.partition_numbers(1000).values[1000]
    with mpmath.workdps(50):
        reference = float(mpmath.log(mpmath.mpf(p1000)))
    assert math.isclose(exact.log_of_integer(p1000), reference, rel_tol=1e-14)


# --- t-core counts against the divisor sums and the lattice ---------------------

# every n <= 400, then a seeded grid to 5000; a mismatch is a package defect
DIVISOR_NS = list(range(401)) + sorted(random.Random(23).sample(range(401, 5001), 60)) + [5000]


@pytest.mark.parametrize("t,oracle", [(3, c3_divisor_count), (5, c5_divisor_sum)])
def test_tcore_count_matches_divisor_sums(t, oracle):
    for n in DIVISOR_NS:
        assert exact.tcore_count(t, n) == oracle(n), (t, n)


# every n <= 300, then a seeded grid to 2e4, whose inner factor is a dense
# square at cap 5000; a mismatch is a package defect
LATTICE_NS = list(range(301)) + sorted(random.Random(8).sample(range(301, 20001), 15)) + [20000]


def test_tcore_count_matches_c4_lattice():
    for n in LATTICE_NS:
        assert exact.tcore_count(4, n) == c4_lattice(n), n


@pytest.mark.parametrize("t,limit", [(2, 60), (3, 60), (4, 60), (5, 60), (6, 200)])
def test_tcore_counts_match_lattice_enumeration(t, limit):
    # t = 6 powers by a square, a step and a square
    assert list(exact.tcore_counts(t, limit).values) == tcore_counts_lattice(t, limit)

"""Pure-Python big-integer series kernels.

These are the hot loops behind the exact counting routines, and the only
implementation of them: ``exact`` and ``verifier`` call them through
``backend.kernels``.  ``perfbench/check.py`` recounts its answers with
``partition_series``, ``core_single_from_inner`` and its own right-to-left
powering by ``poly_mul_trunc``, which no query calls: queries square with
``poly_square_trunc``, so the checker checks that kernel and ``euler_step``
against the general product.  The independent references for the kernels
live in the tests: ``tests/test_exact.py`` keeps the pentagonal loop that
``partition_series`` replaced, SymPy's ``partition`` (a test-only oracle),
an enumeration oracle, the log-derivative recurrence for the inner factor,
the Garvan-Kim-Stanton lattice and an n-major convolution.  All
coefficients are exact Python ints.
"""

from itertools import repeat
from operator import add, itemgetter, mul, sub


def partition_series(limit, prefix=()):
    """p(0..limit) by Euler's pentagonal recurrence,

        p(n) = sum_{k>=1} (-1)**(k+1) * (p(n - g_k) + p(n - g_k - k)),

    with g_k = k*(3k - 1)/2, summed by the builtins.  The list grows by
    append, so while p(n) is computed p[-h] is p(n - h).  One itemgetter per
    sign gathers p[-h] for every offset h <= n of that sign (+ for odd k,
    - for even k), and it is rebuilt only when n reaches the next offset:
    about 2*sqrt(2*limit/3) times in all.  p(0..6) are seeded, because below
    n = 7 a sign holds fewer than two offsets and itemgetter of one index
    returns a scalar rather than a tuple; 7 is itself an offset.

    prefix, when given, must hold p(0..len(prefix) - 1).  The build resumes
    from a copy of it (prefix itself is never changed) and skips the offset
    segments it already fills, so growing a cached series costs only the new
    values.  An empty prefix runs the same loop from the seed.
    """
    p = list(prefix[: limit + 1]) if len(prefix) > 7 else [1, 1, 2, 3, 5, 7, 11][: limit + 1]
    append = p.append
    plus, minus = [], []  # -h for the offsets h reached so far, by sign
    k = g = 1
    while g <= limit:
        signed = plus if k & 1 else minus
        for lo, hi in ((g, g + k), (g + k, g + 3 * k + 1)):  # offset, next offset
            signed.append(-lo)
            # p holds >= min(7, limit + 1) values, so a nonempty range starts at 7 or later
            start, stop = max(lo, len(p)), min(hi, limit + 1)
            if start < stop:
                get_plus, get_minus = itemgetter(*plus), itemgetter(*minus)
                for _ in range(start, stop):
                    append(sum(get_plus(p)) - sum(get_minus(p)))
        g += 3 * k + 1
        k += 1
    return p


def euler_factor(cap):
    """Coefficients of prod_{n>=1} (1 - x^n) through degree cap: euler_step
    applied to 1, so only the generalized pentagonal indices are nonzero."""
    return euler_step([1], cap)


def poly_mul_trunc(a, b, cap):
    """Product of coefficient lists a, b truncated at degree cap."""
    out = [0] * (min(len(a) + len(b) - 2, cap) + 1)
    top = len(out)
    for i, ai in enumerate(a):
        if ai == 0 or i >= top:
            continue
        jmax = min(len(b), top - i)
        for j in range(jmax):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def poly_square_trunc(a, cap):
    """a * a truncated at degree cap: the same list as poly_mul_trunc(a, a, cap).

    The square is symmetric, so each a_i**2 is formed once and each cross
    product a_i * a_j (i < j) once, as (2 a_i) * a_j.  Row i adds 2 a_i times
    a[i+1:] at degree 2i + 1 up, summed by the builtins; about half the
    products of the general kernel.
    """
    top = min(2 * len(a) - 2, cap) + 1
    out = [0] * top
    for i, ai in enumerate(a[: (top + 1) // 2]):  # the rows with 2i <= cap
        if ai:
            h = i + i
            out[h] += ai * ai
            m = min(top - i, len(a))  # a[i+1:m] lands on degrees 2i + 1 .. i + m - 1
            out[h + 1 : i + m] = map(add, out[h + 1 : i + m], map(mul, repeat(ai + ai), a[i + 1 : m]))
    return out


def euler_step(f, cap):
    """f * prod_{n>=1} (1 - x^n) truncated at degree cap.

    The same list as poly_mul_trunc(f, euler_factor(cap), cap), but with no
    multiplications: by the pentagonal number theorem the product is a signed
    sum of about 2*sqrt(2*cap/3) shifted copies of f.  Stepping the t-th power
    of the Euler product to the (t+1)-th this way is what lets a scan over
    consecutive t power the inner factor only once.
    """
    out = f[: cap + 1]
    out += [0] * (cap + 1 - len(out))
    k = 1
    while True:
        g = k * (3 * k - 1) // 2  # generalized pentagonal numbers g, g + k
        if g > cap:
            break
        op = sub if k & 1 else add
        for h in (g, g + k):
            if h <= cap:
                m = min(cap + 1 - h, len(f))
                out[h : h + m] = map(op, out[h : h + m], f[:m])
        k += 1
    return out


def core_series_from_inner(inner, t, p, limit):
    """c_t(0..limit) from the stride-t inner factor and the p-series.

    inner[j] is the degree-j coefficient of the inner factor in x = q**t, so
    c_t(N) = sum_j inner[j] * p(N - j*t).  The sum runs row by row: each
    nonzero inner[j] adds inner[j] times the p-series, shifted by j*t, to the
    whole output at once, so the builtins run the inner loop.  The first
    nonzero row is written into the zero output rather than added to it,
    which saves one big-integer addition per element of that row (row j = 1
    in the monotonicity scan, which passes inner[0] = 0).
    """
    out = [0] * (limit + 1)
    first = True
    for j, cj in enumerate(inner[: limit // t + 1]):
        if cj:
            jt = j * t
            row = map(mul, repeat(cj), p[: limit + 1 - jt])
            out[jt:] = row if first else map(add, out[jt:], row)
            first = False
    return out


def core_series_packed(inner, t, q, width):
    """sum_{j>=1} inner[j] * p(n - j*t) for every n, as one packed integer.

    q packs the p-series in reverse, width bits per slot: slot k (bits
    width*k and up) holds p(max_n - k).  Shifting q right by width*j*t moves
    p(max_n - k - j*t) into slot k and drops the slots whose p index would be
    negative, so no mask is needed.  The result therefore holds r(max_n - k)
    in slot k, where r is the series of the inner factor with inner[0]
    dropped: each nonzero row costs one shift, one big-by-small multiply and
    one addition on the whole packed integer, and nothing is unpacked.

    Slots are signed and borrow from one another, so the result is exact as
    a polynomial in 2**width; the monotonicity scan reads it only after
    adding a bias that makes every slot of a difference nonnegative.

    Rows are added from the top j down.  Row j is q shifted by j*t slots, so
    the rows shorten as j grows: starting from the shortest, the running sum
    is never longer than the row added to it, and each addition costs the
    row's length rather than the whole series'.
    """
    out = 0
    step = width * t
    shift = step * len(inner)
    for cj in reversed(inner[1:]):
        shift -= step
        if cj:
            out += cj * (q >> shift)
    return out


def core_single_from_inner(inner, t, p, n):
    """c_t(n) alone: one dot product of inner with p(n), p(n - t), ...;
    map stops at the shorter of the two."""
    return sum(map(mul, inner, p[n::-t]))

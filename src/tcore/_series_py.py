"""Pure-Python big-integer series kernels.

These are the hot loops behind the exact counting routines, and the only
implementation of them: ``exact`` and ``verifier`` call them through
``backend.kernels``.  They double as the reference that independent checkers
recount against.  All coefficients are exact Python ints.
"""


def partition_series(limit):
    """p(0..limit) by Euler's pentagonal recurrence."""
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


def euler_factor(cap):
    """Coefficients of prod_{n>=1} (1 - x^n) through degree cap.

    Sparse by the pentagonal number theorem: the only nonzero coefficients
    sit at generalized pentagonal indices, with sign (-1)^k.
    """
    e = [0] * (cap + 1)
    e[0] = 1
    k = 1
    while True:
        g = k * (3 * k - 1) // 2
        if g > cap:
            break
        sign = -1 if k & 1 else 1
        e[g] = sign
        if g + k <= cap:
            e[g + k] = sign
        k += 1
    return e


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


def core_series_from_inner(inner, t, p, limit):
    """c_t(0..limit) from the stride-t inner factor and the p-series.

    inner[j] is the degree-j coefficient of the inner factor in x = q**t, so
    c_t(N) = sum_j inner[j] * p(N - j*t).
    """
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


def core_single_from_inner(inner, t, p, n):
    """c_t(n) alone: one sparse dot product against the p-series."""
    s = 0
    jt = 0
    j = 0
    while jt <= n and j < len(inner):
        cj = inner[j]
        if cj:
            s += cj * p[n - jt]
        j += 1
        jt += t
    return s

"""Seeded input generators for the benchmark workloads.

Every workload is a stream of rounds; a round is a list of operations.  The
same seed always yields the same rounds, and nothing here imports tcore: the
program under test receives only these generated inputs.

The query workloads draw their parameters from stratified cells: each cell
covers one stratum of every drawn dimension, and its in-cell position moves
each round along a low-discrepancy sequence from a seeded start.  A run of a
few rounds therefore already covers every cell evenly, so the cost mix, and
with it the median and tail latency, barely changes from seed to seed.  The
seed still moves every drawn value, and with it the order of the queries.
"""

import random

WORKLOADS = ("stanton_scan", "exact_queries", "certified_queries")

# stanton_scan: one exhaustive verify_exact(SCAN_MAX_N) call per round, sized
# so that a call takes one to two seconds with two pure-Python workers: a run
# then holds a score of calls, and their median rides out the host's drifts
# in speed, which a few ten-second calls do not.
SCAN_MAX_N = 1400

# exact_queries: n uniform over [2000, 40000], t log-uniform over [60, 3000],
# on an 8 x 8 grid of cells.  Log-uniform t puts as many queries below
# t = 400 as above it, and the cost of one query grows like (n/t)^2, so the
# small-t cells (long inner-factor powering) set the tail.  Below t = 60 a
# single query costs up to half a second, and a ten-second run holds too few
# of them for a steady tail.
EXACT_N = (2000, 40000)
EXACT_T = (60, 3000)
EXACT_GRID = 8
# Share of cells whose t moves on only every second round, so that a cache
# of inner factors has repeated work to save at every t; their n still moves
# every round.  Holding t this way keeps each cell's t evenly covered, where
# reusing the last round's t at random would clump the heavy small-t cells
# and move ops_per_s and tail_ms from seed to seed.  Small integer t values
# also collide by chance, so about half of the queries of a run carry a t
# already seen in it; run.py reports the measured share.
REPEAT_SHARE = 0.3

# certified_queries: (kind, t range, n range, t strata, n strata) per cell
# group, t and n log-uniform, plus the kappa_constants cells.  Every range
# keeps the query inside a certified regime (small_t or main for estimate,
# the difference or ratio route for certify_pair), and never in
# big_t_hybrid, which reads exact p-values up to n and would turn a float
# query into an O(n^2) bignum job.
CERTIFIED_GROUPS = (
    ("estimate", (1000, 5000), (50_000, 400_000), 3, 2),  # main regime
    ("estimate", (8, 500), (150_000, 2_000_000), 2, 1),  # small_t regime
    ("pair", (1500, 5000), (50_000, 200_000), 2, 3),  # difference route
    ("pair", (8, 300), (101_000, 1_000_000), 2, 2),  # ratio route
)
KAPPA_RANGE = (0.5, 1000.0)
KAPPA_CELLS = 4
# Largest n whose exact count the certified checker computes (the p-series up
# to here costs a few seconds); main estimates start at n = 50000.
CHECK_N_MAX = 56_000

# Low-discrepancy steps of the in-cell offsets, one per dimension.
_STEPS = (0.6180339887498949, 0.41421356237309515)


def scan_pairs(max_n: int) -> int:
    """Closed-form count of the pairs verify_exact(max_n) compares:
    4 <= t and t + 2 <= n <= max_n."""
    m = max_n - 5  # pairs at t = 4
    return m * (m + 1) // 2 if m > 0 else 0


def _at(lo: float, hi: float, log: bool, u: float) -> float:
    """The point at fraction u in [lo, hi] (log-spaced when log)."""
    if log:
        return lo * (hi / lo) ** u
    return lo + (hi - lo) * u


class _Cells:
    """Stratified cells whose in-cell offsets advance every round.

    dims is a list of (lo, hi, log, strata); a cell is one stratum per
    dimension.  The offset of cell c in dimension d at round r is
    frac(start[c][d] + r * step[d]), with seeded starts.
    """

    def __init__(self, rng: random.Random, dims: list):
        self.dims = dims
        self.cells = [()]
        for _lo, _hi, _log, strata in dims:
            self.cells = [c + (s,) for c in self.cells for s in range(strata)]
        self.starts = [[rng.random() for _ in dims] for _ in self.cells]

    def draw(self, r: int) -> list:
        points = []
        for cell, starts in zip(self.cells, self.starts):
            point = []
            for d, (lo, hi, log, strata) in enumerate(self.dims):
                u = (starts[d] + r * _STEPS[d]) % 1.0
                point.append(_at(lo, hi, log, (cell[d] + u) / strata))
            points.append(point)
        return points


def exact_rounds(seed: int):
    """Rounds of ("count", t, n) queries for tcore_count(t, n)."""
    rng = random.Random(f"exact_queries:{seed}")
    cells = _Cells(rng, [(*EXACT_T, True, EXACT_GRID), (*EXACT_N, False, EXACT_GRID)])
    held = [rng.random() < REPEAT_SHARE for _ in cells.cells]
    r = 0
    while True:
        queries = [
            ("count", int(slow[0] if hold else t), int(n))
            for hold, (t, n), slow in zip(held, cells.draw(r), cells.draw(r // 2))
        ]
        rng.shuffle(queries)
        yield queries
        r += 1


def certified_rounds(seed: int):
    """Rounds mixing ("estimate", t, n), ("pair", t, n) and ("kappa", kappa)."""
    rng = random.Random(f"certified_queries:{seed}")
    groups = [
        (kind, _Cells(rng, [(*t_range, True, ts), (*n_range, True, ns)]))
        for kind, t_range, n_range, ts, ns in CERTIFIED_GROUPS
    ]
    kappas = _Cells(rng, [(*KAPPA_RANGE, True, KAPPA_CELLS)])
    r = 0
    while True:
        queries = []
        for kind, cells in groups:
            queries.extend((kind, int(t), int(n)) for t, n in cells.draw(r))
        queries.extend(("kappa", k) for (k,) in kappas.draw(r))
        rng.shuffle(queries)
        yield queries
        r += 1


def scan_rounds(seed: int):
    """Rounds of one ("scan", max_n) job each; the scan has no free input,
    so every seed gives the same job."""
    while True:
        yield [("scan", SCAN_MAX_N)]


_GENERATORS = {
    "stanton_scan": scan_rounds,
    "exact_queries": exact_rounds,
    "certified_queries": certified_rounds,
}


def rounds(workload: str, seed: int):
    """The endless round stream of a workload."""
    return _GENERATORS[workload](seed)


def take(workload: str, seed: int, count: int) -> list:
    """The first count rounds of a workload."""
    stream = rounds(workload, seed)
    return [next(stream) for _ in range(count)]


def ops_in(round_: list) -> int:
    """Operations a round counts toward ops_per_s: queries, or scan pairs."""
    return sum(scan_pairs(q[1]) if q[0] == "scan" else 1 for q in round_)


def warm(workload: str, tcore) -> None:
    """Fill the caches the workload reads, before the timed section.

    exact_queries reads the p-series up to its largest n; certified_queries
    reads the divisor-sum table behind the eta expansions, filled here by one
    fixed query of each kind; stanton_scan computes its own p-series inside
    every scan block and reads no cache.
    """
    if workload == "exact_queries":
        tcore.partition_numbers(EXACT_N[1])
    elif workload == "certified_queries":
        tcore.estimate(1000, 60_000)
        tcore.estimate(50, 200_000)
        tcore.certify_pair(2000, 100_000)
        tcore.certify_pair(50, 200_000)
        tcore.kappa_constants(24.0)


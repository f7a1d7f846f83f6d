"""One measurement process of the benchmark.

Reads a job as JSON on stdin, imports tcore from the checkout's src/, warms
the caches the workload reads, runs the workload's rounds as a closed loop
with one client, and prints on stdout one JSON line per answer, then one
JSON object with the setup times, per-operation latencies, peak resident
memory and, when traced, the per-layer metrics.  A fresh process per
measurement keeps the import time honest and the caches of one run out of
the next.

Job keys: workload, seed, first_round (rounds of the seeded stream that
earlier processes of the run already measured), seconds (rounds run until
this much time has passed), trace, workers (scan pool size), spool (trace
spool dir).
"""

import json
import os
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

import layers
import workloads

ROOT = Path(__file__).resolve().parents[1]


CALLS = {
    "count": lambda tcore, q, w: tcore.tcore_count(q[1], q[2]),
    "estimate": lambda tcore, q, w: tcore.estimate(q[1], q[2]),
    "pair": lambda tcore, q, w: tcore.certify_pair(q[1], q[2]),
    "kappa": lambda tcore, q, w: tcore.kappa_constants(q[1]),
    "scan": lambda tcore, q, w: tcore.verify_exact(q[1], workers=w),
}

ENCODE = {
    "count": str,
    "estimate": lambda e: {
        "regime": e.regime,
        "ok": e.hypotheses_ok,
        "log_value": e.log_value,
        "rel": e.rel_error_bound,
    },
    "pair": lambda c: {"method": c.method, "ok": c.ok, "equality": c.equality},
    "kappa": lambda k: {"v": k.v, "A": k.A, "B": k.B},
    "scan": lambda r: {
        "violations": r.violations,
        "equalities": r.equalities,
        "pairs_checked": r.pairs_checked,
    },
}


def run_rounds(job: dict, tcore, tracer=None) -> dict:
    """The timed closed loop: one operation at a time, each timed alone.

    Answers go out on stdout as they come, one JSON line each, so that
    holding them does not add to the peak memory measured here.  With a
    tracer, every second round runs traced: rounds of a workload carry the
    same cost mix, so traced and untraced rounds interleaved in time give
    the tracing overhead free of the machine's slow drifts in speed.
    """
    stream = workloads.rounds(job["workload"], job["seed"])
    for _ in range(job["first_round"]):
        next(stream)
    latencies = array("d")
    round_s = array("d")  # wall time of each round, in order
    rounds = 0
    loop_start = perf_counter()
    while perf_counter() - loop_start < job["seconds"] or (tracer and rounds < 2):
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        first = len(latencies)
        for query in next(stream):
            call = CALLS[query[0]]
            start = perf_counter()
            try:
                result = call(tcore, query, job["workers"])
            except Exception as exc:  # a failed operation is counted, not fatal
                latencies.append(perf_counter() - start)
                answer = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                latencies.append(perf_counter() - start)
                answer = ENCODE[query[0]](result)
            print(json.dumps(answer))
        if traced:
            tracer.uninstall()
        round_s.append(sum(latencies[first:]))
        rounds += 1
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "rounds": rounds,
        "latencies": latencies.tolist(),
        "round_s": round_s.tolist(),
        "peak_rss_mb": (own + workers) / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    if tracer is not None:
        plain = statistics.fmean(round_s[0::2])
        traced = statistics.fmean(round_s[1::2])
        out["overhead_ratio"] = traced / plain - 1.0
    return out


def main() -> int:
    job = json.load(sys.stdin)
    os.environ.pop("TCORE_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import tcore

    import_s = perf_counter() - start
    tracer = None
    if job["trace"]:  # the warm-up runs traced: it grows the p-series cache
        tracer = layers.Tracer(tcore, Path(job["spool"]))
        tracer.install()
    start = perf_counter()
    workloads.warm(job["workload"], tcore)
    out = {"import_s": import_s, "warm_s": perf_counter() - start, "backend": tcore.BACKEND}
    if tracer is not None:
        tracer.uninstall()
    out.update(run_rounds(job, tcore, tracer))
    if tracer is not None:
        tracer.collect()
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

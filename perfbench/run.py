#!/usr/bin/env python3
"""End-to-end benchmark of tcore.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (generated from --seed by perfbench/workloads.py):

  stanton_scan       the exhaustive c_t(N) <= c_{t+1}(N) scan: verify_exact
                     with one pool worker per available CPU; an operation is
                     an adjacent-t pair checked.
  exact_queries      closed loop, one client, exact tcore_count(t, n) on the
                     warmed p-series; a share of the t values repeats.
  certified_queries  closed loop, one client, float-only estimate /
                     certify_pair / kappa_constants queries at scales where
                     exact counting is unaffordable.

Every run prints an "env" line (backend, Python, CPUs, scan workers, seed:
results from different backends must never be compared), an "info" line, and
last one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics over three fresh processes that
run the timed rounds in turn: setup_s is the median of their `import tcore`
plus cache warm-up; ops_per_s is the median over the rounds (each a full
stratified mix of the workload) of operations per second of the round, so
that a stretch of a slow host moves it less than a mean would; p50_ms and
tail_ms come from the pooled per-operation latencies (tail_ms at the fixed
percentile of TAIL_PCT; the scan, a batch job, reports the wall time of its
verify_exact calls as latency, and their median as tail_ms); peak_rss_mb is
the largest over the processes of the peak resident memory of the measuring
process plus that of its largest scan worker.  --trace 1 runs every second
round (and the warm-up) traced and prints the per-layer metrics of
perfbench/layers.py, which cover those rounds, plus the tracing overhead:
the mean time of a traced round over that of an untraced one, minus one.
Every answer is checked after the timed sections; a failed check or a raised
error counts in "failed".

Exits 2 without a result when the checkout holds no tcore sources.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import layers
import workloads

ROOT = Path(__file__).resolve().parents[1]
MEASURE = Path(__file__).resolve().parent / "measure.py"
TMP = ROOT / ".perfbench_tmp"

# (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Fresh processes that share an untraced run's timed rounds.  Each pays the
# set-up, giving setup_s its median of three, and each lands on its own memory
# layout and its own stretch of the host, which the pooled latencies average.
TIMED_PROCESSES = 3
# tail_ms percentile per workload: fixed, with well over 10 samples beyond it
# even in a run at half the usual speed; a higher one reads the host's rare
# stalls rather than the program's slowest queries.  The scan makes a score
# of calls per run, too few for a tail, so its median stands in.
TAIL_PCT = {"stanton_scan": 50.0, "exact_queries": 99.0, "certified_queries": 99.0}
DEADLINE_S = 140  # for the measurements; the checks follow, all within 180 s


class BenchError(RuntimeError):
    """A measurement process failed: the run prints no result."""


def run_child(job: dict, deadline: float) -> dict:
    """Run measure.py on job in its own process group; return its summary
    with the answers it printed before it."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a measurement could start")
    proc = subprocess.Popen(
        [sys.executable, str(MEASURE)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"measurement exceeded {timeout:.0f} s") from None
    finally:
        try:  # stray scan workers of a crashed measurement
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"measurement process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["answers"] = [json.loads(line) for line in lines[:-1]]
    return result


def tail(latencies: list, pct: float) -> tuple:
    """(value, percentile): latency at the workload's fixed tail percentile
    when at least 10 samples lie beyond it, else at the highest percentile
    that has 10 beyond.  Where that falls below the median (20 samples or
    fewer: the scan's calls), no tail is resolved and the median stands in
    for it.  A fixed percentile keeps the tail of a faster program, which
    draws more samples, comparable with that of a slower one."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = max(10, int(n * (100.0 - pct) / 100.0 + 1e-9))
    if n - 1 - beyond < n // 2:
        return statistics.median(ordered), 50.0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def flatten(rounds: list) -> list:
    return [query for round_ in rounds for query in round_]


def measure(args, job: dict, deadline: float) -> tuple:
    """--trace 0: the timed rounds, split in order over TIMED_PROCESSES fresh
    processes.  Returns (metrics, rounds, answers, info)."""
    parts = []
    for _ in range(TIMED_PROCESSES):
        first = sum(part["rounds"] for part in parts)
        seconds = args.seconds / TIMED_PROCESSES
        parts.append(run_child(dict(job, first_round=first, seconds=seconds), deadline))
    setups = [part["import_s"] + part["warm_s"] for part in parts]
    rounds = workloads.take(args.workload, args.seed, sum(part["rounds"] for part in parts))
    lat = [s for part in parts for s in part["latencies"]]
    round_s = [s for part in parts for s in part["round_s"]]
    tail_s, pct = tail(lat, TAIL_PCT[args.workload])
    rates = [workloads.ops_in(r) / t for r, t in zip(rounds, round_s)]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(rates),
        "p50_ms": statistics.median(lat) * 1e3,
        "tail_ms": tail_s * 1e3,
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }
    info = {
        "rounds": len(rounds),
        "samples": len(lat),
        "timed_s": sum(round_s),
        "tail_ms": f"p{pct:.2f} of {len(lat)} samples",
        "setup_samples_s": setups,
    }
    return metrics, rounds, [a for part in parts for a in part["answers"]], info


def measure_traced(args, job: dict, deadline: float) -> tuple:
    """--trace 1: one run whose rounds alternate untraced and traced.
    Returns (metrics, rounds, answers, info)."""
    TMP.mkdir(exist_ok=True)
    spool = Path(tempfile.mkdtemp(prefix="spool-", dir=TMP))
    try:
        main = run_child(dict(job, trace=True, spool=str(spool)), deadline)
    finally:
        shutil.rmtree(spool, ignore_errors=True)
        if not any(TMP.iterdir()):
            TMP.rmdir()
    rounds = workloads.take(args.workload, args.seed, main["rounds"])
    metrics = dict(main["layers"])
    metrics["setup.import_s"] = main["import_s"]
    metrics["setup.warm_s"] = main["warm_s"]
    metrics["trace.overhead_ratio"] = main["overhead_ratio"]
    info = {"rounds": main["rounds"], "traced_rounds": main["rounds"] // 2}
    return metrics, rounds, main["answers"], info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tcore" / "__init__.py").is_file():
        print(f"perfbench: no tcore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # The scan's pool size is passed explicitly; a stray TCORE_THREADS in the
    # environment must not change it.
    os.environ.pop("TCORE_THREADS", None)
    scan_workers = len(os.sched_getaffinity(0))
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": False,
        "first_round": 0,
        "workers": scan_workers,
        "spool": "",
    }
    try:
        if args.trace:
            metrics, rounds, answers, info = measure_traced(args, job, deadline)
        else:
            metrics, rounds, answers, info = measure(args, job, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    sys.path.insert(0, str(ROOT / "src"))
    import tcore

    queries = flatten(rounds)
    attempted, failed = check.check(args.workload, args.seed, queries, answers, tcore)
    if args.workload == "exact_queries":
        ts = [q[1] for q in queries]
        info["repeat_share"] = 1.0 - len(set(ts)) / len(ts)
    info["failed_frac"] = failed / attempted

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": tcore.BACKEND,
        "python": sys.version.split()[0],
        "nproc": scan_workers,
        "scan_workers": scan_workers,
    }
    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in layers.PER_LAYER}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps({"env": env}))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Every invocation emits line-delimited JSON records on stdout: exact integers
as decimal strings, log-space values as floats rounded to 15 significant
digits, and a non-finite value (the log of a zero count) as null.  Exit
codes: 0 ok, 2 usage, 3 solver, numeric or out-of-memory failure, 4
hypothesis failure, 5 verification violation or failed self-test check.
"""

import argparse
import contextlib
import json
import math
import sys
import time

from . import __version__

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_HYPOTHESIS = 4
EXIT_VIOLATION = 5

_REGIME_FLAGS = {
    "auto": "auto",
    "main": "main",
    "small-t": "small_t",
    "exact": "exact",
    "kappa": "kappa_heuristic",
}


def _round15(value):
    """Floats to 15 significant digits (idempotent under re-serialization);
    a non-finite float becomes None, JSON null, which strict parsers accept."""
    if isinstance(value, float):
        return float(f"{value:.15g}") if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _round15(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round15(v) for v in value]
    return value


def _emit(cmd: str, args: dict, result: dict, flags: dict, started: float) -> None:
    record = {
        "cmd": cmd,
        "args": _round15(args),
        "result": _round15(result),
        "flags": flags,
        "timing_ms": _round15((time.monotonic() - started) * 1000.0),
        "version": __version__,
    }
    print(json.dumps(record))


def _open_output(path):
    """The output file at path, opened for writing (a null context when no
    path is given); an unwritable path is a usage error that names it."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_count(opts) -> int:
    from . import exact

    started = time.monotonic()
    if opts.max_n is not None:
        series = exact.tcore_counts(opts.t, opts.max_n)
        result = {"series": [str(v) for v in series.values]}
    else:
        result = {"count": str(exact.tcore_count(opts.t, opts.n))}
    _emit("count", {"t": opts.t, "n": opts.n, "max_n": opts.max_n}, result, {}, started)
    return EXIT_OK


def _cmd_saddle(opts) -> int:
    from .saddle import solve_saddle

    started = time.monotonic()
    res = solve_saddle(opts.t, opts.n)
    result = {
        "y": res.y,
        "bracket_lo": res.bracket_lo,
        "bracket_hi": res.bracket_hi,
        "residual": res.residual,
        "curvature": res.curvature,
        "drift": res.drift,
        "shifted_index": res.shifted_index,
        "iterations": res.iterations,
    }
    _emit("saddle", {"t": opts.t, "n": opts.n}, result, {}, started)
    return EXIT_OK


def _cmd_estimate(opts) -> int:
    from .asymptotics import HypothesisError, estimate, log_interval

    started = time.monotonic()
    regime = _REGIME_FLAGS[opts.regime]
    forced = regime != "auto"
    est = estimate(opts.t, opts.n, regime=regime)
    if forced and regime in ("main", "small_t", "exact") and not est.hypotheses_ok:
        raise HypothesisError(
            f"hypotheses of forced regime {opts.regime} fail at ({opts.t}, {opts.n})"
        )
    result = {
        "log_value": est.log_value,
        "rel_error_bound": est.rel_error_bound,
        "regime": est.regime,
        "diagnostics": est.diagnostics,
    }
    if est.certified:
        result["log_interval"] = list(log_interval(est))
    flags = {"hypotheses_ok": est.hypotheses_ok, "certified": est.certified}
    _emit("estimate", {"t": opts.t, "n": opts.n, "regime": opts.regime}, result, flags, started)
    return EXIT_OK


def _cmd_verify_stanton(opts) -> int:
    from .verifier import verify_exact

    started = time.monotonic()
    with _open_output(opts.report) as fh:  # before the scan: a bad path costs nothing
        report = verify_exact(
            opts.max_n, max_t=opts.max_t, workers=opts.threads, _corrupt=opts.inject_fault
        )
        if fh is not None:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    result = {
        "violations": [list(v) for v in report.violations],
        "equalities": [list(e) for e in report.equalities],
        "pairs_checked": report.pairs_checked,
        "closed_form_pairs": report.closed_form_pairs,
        "elapsed_s": report.elapsed_s,
        "workers": report.workers,
    }
    flags = {"ok": report.ok}
    _emit(
        "verify-stanton",
        {"max_n": opts.max_n, "max_t": opts.max_t, "report": opts.report},
        result,
        flags,
        started,
    )
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_kappa(opts) -> int:
    from .saddle import kappa_constants

    started = time.monotonic()
    kappas = [opts.kappa] if opts.table is None else [float(k) for k in opts.table.split(",")]
    rows = [kappa_constants(k)._asdict() for k in kappas]
    if opts.csv:
        with _open_output(opts.csv) as fh:
            fh.write("kappa,v,A,B\n")
            for row in rows:
                fh.write(",".join(f"{x:.15g}" for x in row.values()) + "\n")
    result = rows[0] if opts.table is None else {"table": rows}
    _emit("kappa", {"kappa": opts.kappa, "table": opts.table, "csv": opts.csv}, result, {}, started)
    return EXIT_OK


def _cmd_selftest(opts) -> int:
    from .selftest import run_checks  # imported here: no other command needs it

    started = time.monotonic()
    results = run_checks(level=opts.level)
    for check in results:
        print(
            json.dumps(
                {"cmd": "selftest", "check": check.name, "ok": check.ok, "detail": check.detail}
            )
        )
    failed = [c.name for c in results if not c.ok]
    result = {"checks": len(results), "failed": failed}
    flags = {"ok": not failed}
    _emit("selftest", {"level": opts.level}, result, flags, started)
    return EXIT_OK if not failed else EXIT_VIOLATION


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return n


def _nonneg_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return n


def _fault_target(value: str) -> tuple:
    try:
        t, n = (int(part) for part in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected T,N (two integers), not {value!r}") from None
    return t, n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcore",
        description="Exact and certified-asymptotic t-core partition counting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact c_t(N), or the full series to --max-n")
    p.add_argument("--t", type=_positive_int, required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", type=_nonneg_int)
    which.add_argument("--max-n", type=_nonneg_int)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("saddle", help="solve the saddle equation for (t, N)")
    p.add_argument("--t", type=_positive_int, required=True)
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.set_defaults(fn=_cmd_saddle)

    p = sub.add_parser("estimate", help="log-space estimate with certified interval")
    p.add_argument("--t", type=_positive_int, required=True)
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--regime", choices=sorted(_REGIME_FLAGS), default="auto")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("verify-stanton", help="exhaustive exact adjacent-t comparison")
    p.add_argument("--max-n", type=_nonneg_int, required=True)
    p.add_argument("--max-t", type=_positive_int, default=None)
    p.add_argument("--report", default=None, help="write the full report as JSON")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="worker count (default: the CPUs this process may run on)")
    p.add_argument("--inject-fault", type=_fault_target, default=None, help=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_verify_stanton)

    p = sub.add_parser("kappa", help="growth-law constants v, A, B for a kappa")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--kappa", type=float)
    which.add_argument("--table", help="comma-separated kappas for a CSV table")
    p.add_argument("--csv", default=None, help="write the table as CSV")
    p.set_defaults(fn=_cmd_kappa)

    p = sub.add_parser("selftest", help="run the built-in property suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def _loaded_error(module: str, name: str):
    """The exception class called name in tcore.<module>, or () (which no
    exception matches) when that module was never loaded and so cannot have
    raised it: count and verify-stanton never load saddle or asymptotics."""
    loaded = sys.modules.get(f"{__package__}.{module}")
    return () if loaded is None else getattr(loaded, name)


def main(argv=None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv)
    try:
        return opts.fn(opts)
    except _loaded_error("saddle", "SolverError") as exc:
        print(json.dumps({"cmd": opts.command, "error": str(exc), "kind": "solver"}))
        return EXIT_SOLVER
    except RuntimeError as exc:  # e.g. a series that fails to converge
        print(json.dumps({"cmd": opts.command, "error": str(exc), "kind": "numeric"}))
        return EXIT_SOLVER
    except MemoryError as exc:  # an input whose exact series outgrows the host
        error = str(exc) or "out of memory"
        print(json.dumps({"cmd": opts.command, "error": error, "kind": "memory"}))
        return EXIT_SOLVER
    except _loaded_error("asymptotics", "HypothesisError") as exc:
        print(json.dumps({"cmd": opts.command, "error": str(exc), "kind": "hypothesis"}))
        return EXIT_HYPOTHESIS
    except ValueError as exc:
        print(json.dumps({"cmd": opts.command, "error": str(exc), "kind": "usage"}))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of tcore, from outside the package.

Tracer.install wraps the public functions of each tcore module (kernels,
exact, modular, saddle, asymptotics, verifier) in timing wrappers.  Every
reference to a wrapped function in any tcore module is swapped, so calls
through `from .modular import eta_log_deriv` style bindings are caught too.

Spans are aggregated in memory as they close: per layer function, the call
count and the self time (span time minus the time of its child spans), plus
counts derived from the arguments and results.  Scan blocks run in forked
worker processes; each worker writes its block's aggregates to a spool file,
which the parent merges after the scan.
"""

import functools
import json
import math
import os
import sys
from pathlib import Path
from time import perf_counter

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    ("kernels.core_series_from_inner.calls", "count", "lower"),
    ("kernels.core_series_from_inner.self_s", "s", "lower"),
    ("kernels.core_series_from_inner.products", "count", "lower"),
    ("kernels.poly_mul_trunc.calls", "count", "lower"),
    ("kernels.poly_mul_trunc.self_s", "s", "lower"),
    ("kernels.poly_mul_trunc.products", "count", "lower"),
    ("kernels.core_single_from_inner.calls", "count", "lower"),
    ("kernels.core_single_from_inner.self_s", "s", "lower"),
    ("kernels.partition_series.calls", "count", "lower"),
    ("kernels.partition_series.self_s", "s", "lower"),
    ("exact.core_inner_factor.calls", "count", "lower"),
    ("exact.core_inner_factor.self_s", "s", "lower"),
    ("exact.core_inner_factor.repeat_ratio", "ratio", "lower"),
    ("exact.tcore_count.calls", "count", "lower"),
    ("exact.tcore_count.self_s", "s", "lower"),
    ("exact.p_cache.grows", "count", "lower"),
    ("exact.p_cache.grow_s", "s", "lower"),
    ("exact.p_cache.len", "count", "lower"),
    ("modular.eta_log_deriv.calls", "count", "lower"),
    ("modular.eta_log_deriv.self_s", "s", "lower"),
    ("modular.eta_log_deriv.inverted_share", "ratio", "lower"),
    ("modular.eta_quotient_log.calls", "count", "lower"),
    ("modular.eta_quotient_log.self_s", "s", "lower"),
    ("modular.sigma_table.len", "count", "lower"),
    ("saddle.solve_saddle.calls", "count", "lower"),
    ("saddle.solve_saddle.self_s", "s", "lower"),
    ("saddle.solve_saddle.bisections", "count", "lower"),
    ("saddle.kappa_constants.calls", "count", "lower"),
    ("saddle.kappa_constants.self_s", "s", "lower"),
    ("asymptotics.estimate.calls", "count", "lower"),
    ("asymptotics.estimate.self_s", "s", "lower"),
    ("asymptotics.estimate.certified_ratio", "ratio", "higher"),
    ("asymptotics.regime.main", "count", "higher"),
    ("asymptotics.regime.small_t", "count", "higher"),
    ("asymptotics.regime.big_t_hybrid", "count", "lower"),
    ("asymptotics.regime.kappa_heuristic", "count", "lower"),
    ("asymptotics.regime.difference", "count", "lower"),
    ("verifier.certify_pair.calls", "count", "lower"),
    ("verifier.certify_pair.self_s", "s", "lower"),
    ("verifier.certify_pair.method.exact", "count", "lower"),
    ("verifier.certify_pair.method.difference", "count", "higher"),
    ("verifier.certify_pair.method.ratio", "count", "higher"),
    ("verifier.certify_pair.method.inconclusive", "count", "lower"),
    ("verifier.certified_ratio", "ratio", "higher"),
    ("verifier.scan.blocks", "count", "lower"),
    ("verifier.scan.block_s_max", "s", "lower"),
    ("verifier.scan.block_s_sum", "s", "lower"),
    ("verifier.scan.serial_s", "s", "lower"),
    ("verifier.scan.p_series_per_scan", "count", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.warm_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

REGIMES = ("main", "small_t", "big_t_hybrid", "kappa_heuristic", "difference")
METHODS = ("exact", "difference", "ratio", "inconclusive")


def mul_products(len_a: int, len_b: int, cap: int) -> int:
    """Inner-loop steps of poly_mul_trunc(a, b, cap), zero coefficients
    included: row i of a runs min(len_b, top - i) steps."""
    top = min(len_a + len_b - 2, cap) + 1
    rows = min(len_a, top)
    full = max(0, min(rows, top - len_b + 1))  # rows with top - i >= len_b
    return full * len_b + (rows - full) * top - (full + rows - 1) * (rows - full) // 2


def series_products(len_inner: int, t: int, limit: int) -> int:
    """Products of core_series_from_inner(inner, t, p, limit): output n
    takes inner[j] for every j < len_inner with j*t <= n."""
    terms = min(len_inner, limit // t + 1)
    return terms * (limit + 1) - t * terms * (terms - 1) // 2


class Tracer:
    """Wraps tcore's layer functions and aggregates their spans.  install
    and uninstall may alternate; the aggregates add up across installs."""

    def __init__(self, tcore, spool: Path):
        self.modules = {
            "kernels": tcore.backend.kernels,
            "exact": tcore.exact,
            "modular": tcore.modular,
            "saddle": tcore.saddle,
            "asymptotics": tcore.asymptotics,
            "verifier": tcore.verifier,
        }
        self.spool = spool
        self.pid = os.getpid()
        self.spans = {}  # name -> [calls, self_s]
        self.counts = {}  # derived counts, by name
        self.scans = []  # (start, end) of each verify_exact call
        self.blocks = []  # (start, end) of each scan block, any process
        self._stack = []  # child time of each open span
        self._powered = {}  # t -> largest cap its inner factor was powered to
        self._p_len = len(tcore.exact._p_values)
        self._patches = []
        self._block_seq = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        self._wrap("kernels", "partition_series")
        self._wrap("kernels", "poly_mul_trunc", self._on_mul)
        self._wrap("kernels", "core_series_from_inner", self._on_series)
        self._wrap("kernels", "core_single_from_inner")
        self._wrap("exact", "core_inner_factor", self._on_inner)
        self._wrap("exact", "tcore_count")
        self._wrap("exact", "_partition_values", self._on_p_cache, name="exact.p_cache")
        self._wrap("modular", "eta_log_deriv", self._on_eta_deriv)
        self._wrap("modular", "eta_quotient_log")
        self._wrap("saddle", "solve_saddle", self._on_saddle)
        self._wrap("saddle", "kappa_constants")
        self._wrap("asymptotics", "estimate", self._on_estimate)
        self._wrap("verifier", "certify_pair", self._on_certificate)
        self._wrap("verifier", "verify_exact", self._on_scan)
        self._wrap_scan_block()

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _swap(self, original, wrapper) -> None:
        """Point every tcore module binding of original at wrapper."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tcore" and not mod_name.startswith("tcore."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    def _wrap(self, layer: str, attr: str, after=None, name=None) -> None:
        original = getattr(self.modules[layer], attr)
        stats = self.spans.setdefault(name or f"{layer}.{attr}", [0, 0.0])
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - children
            if after is not None:
                after(args, result, start, elapsed)
            return result

        self._swap(original, wrapper)

    def _wrap_scan_block(self) -> None:
        """Scan blocks run in forked pool workers: a worker drops the state it
        inherited, traces its block and spools the aggregates for the parent.
        The wrapper keeps the original's module and name, so the pool pickles
        it by reference and the forked worker finds the wrapper again."""
        verifier = self.modules["verifier"]
        original = verifier._scan_block
        tracer = self

        @functools.wraps(original)
        def scan_block(args):
            in_worker = os.getpid() != tracer.pid
            if in_worker:
                tracer._reset()
            start = perf_counter()
            result = original(args)
            end = perf_counter()
            if in_worker:
                tracer._spool_block(start, end)
            else:
                tracer.blocks.append((start, end))
            return result

        self._swap(original, scan_block)

    # -- hooks ----------------------------------------------------------------

    def _add(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _on_mul(self, args, result, start, elapsed) -> None:
        a, b, cap = args
        self._add("kernels.poly_mul_trunc.products", mul_products(len(a), len(b), cap))

    def _on_series(self, args, result, start, elapsed) -> None:
        inner, t, _p, limit = args
        self._add("kernels.core_series_from_inner.products", series_products(len(inner), t, limit))

    def _on_inner(self, args, result, start, elapsed) -> None:
        t, cap = args
        if self._powered.get(t, -1) >= cap:
            self._add("exact.core_inner_factor.repeats")
        self._powered[t] = max(cap, self._powered.get(t, -1))

    def _on_p_cache(self, args, result, start, elapsed) -> None:
        size = len(self.modules["exact"]._p_values)
        if size != self._p_len:
            self._p_len = size
            self._add("exact.p_cache.grows")
            self._add("exact.p_cache.grow_s", elapsed)

    def _on_eta_deriv(self, args, result, start, elapsed) -> None:
        if args[1].imag < 1.0:
            self._add("modular.eta_log_deriv.inverted")

    def _on_saddle(self, args, result, start, elapsed) -> None:
        self._add("saddle.solve_saddle.iterations", result.iterations)

    def _on_estimate(self, args, result, start, elapsed) -> None:
        self._add(f"asymptotics.regime.{result.regime}")
        if result.hypotheses_ok:
            self._add("asymptotics.estimate.certified")

    def _on_certificate(self, args, result, start, elapsed) -> None:
        self._add(f"verifier.certify_pair.method.{result.method}")
        if result.ok:
            self._add("verifier.certify_pair.ok")

    def _on_scan(self, args, result, start, elapsed) -> None:
        self.scans.append((start, start + elapsed))

    # -- worker spool ---------------------------------------------------------

    def _reset(self) -> None:
        for stats in self.spans.values():
            stats[0] = 0
            stats[1] = 0.0
        self.counts.clear()
        self._stack.clear()
        self._powered.clear()

    def _spool_block(self, start: float, end: float) -> None:
        self._block_seq += 1
        path = self.spool / f"{os.getpid()}-{self._block_seq}.json"
        record = {"block": [start, end], "spans": self.spans, "counts": self.counts}
        path.write_text(json.dumps(record))

    def collect(self) -> None:
        """Merge the blocks the scan workers spooled, then delete them."""
        if not self.spool.is_dir():
            return
        for path in sorted(self.spool.glob("*.json")):
            record = json.loads(path.read_text())
            path.unlink()
            self.blocks.append(tuple(record["block"]))
            for name, (calls, self_s) in record["spans"].items():
                stats = self.spans.setdefault(name, [0, 0.0])
                stats[0] += calls
                stats[1] += self_s
            for name, amount in record["counts"].items():
                self._add(name, amount)

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric the trace gives, by name (setup.* and
        trace.* come from the caller)."""
        out = {}
        for name, (calls, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        counts = self.counts

        def ratio(num: str, den: str) -> float:
            base = out.get(den) or counts.get(den, 0)
            return counts.get(num, 0) / base if base else 0.0

        for key in ("kernels.poly_mul_trunc.products", "kernels.core_series_from_inner.products"):
            out[key] = counts.get(key, 0)
        out["exact.core_inner_factor.repeat_ratio"] = ratio(
            "exact.core_inner_factor.repeats", "exact.core_inner_factor.calls"
        )
        out["exact.p_cache.grows"] = counts.get("exact.p_cache.grows", 0)
        out["exact.p_cache.grow_s"] = counts.get("exact.p_cache.grow_s", 0.0)
        out["exact.p_cache.len"] = len(self.modules["exact"]._p_values)
        out["modular.eta_log_deriv.inverted_share"] = ratio(
            "modular.eta_log_deriv.inverted", "modular.eta_log_deriv.calls"
        )
        out["modular.sigma_table.len"] = len(self.modules["modular"]._sigma_table)
        out["saddle.solve_saddle.bisections"] = ratio(
            "saddle.solve_saddle.iterations", "saddle.solve_saddle.calls"
        )
        out["asymptotics.estimate.certified_ratio"] = ratio(
            "asymptotics.estimate.certified", "asymptotics.estimate.calls"
        )
        for regime in REGIMES:
            out[f"asymptotics.regime.{regime}"] = counts.get(f"asymptotics.regime.{regime}", 0)
        for method in METHODS:
            key = f"verifier.certify_pair.method.{method}"
            out[key] = counts.get(key, 0)
        out["verifier.certified_ratio"] = ratio(
            "verifier.certify_pair.ok", "verifier.certify_pair.calls"
        )
        out.update(self._scan_metrics(out))
        return out

    def _scan_metrics(self, out: dict) -> dict:
        """Per-scan averages of the block spans.  serial_s is the part of a
        verify_exact call outside the first-block-start to last-block-end
        window: pool start-up, result merging and sorting."""
        scans = len(self.scans)
        durations = [end - start for start, end in self.blocks]
        serial = 0.0
        for start, end in self.scans:
            inside = [b for b in self.blocks if start <= b[0] <= end]
            if inside:
                window = max(b[1] for b in inside) - min(b[0] for b in inside)
                serial += (end - start) - window
        per_scan = (lambda x: x / scans) if scans else (lambda x: 0.0)
        return {
            "verifier.scan.blocks": per_scan(len(durations)),
            "verifier.scan.block_s_max": max(durations, default=0.0),
            "verifier.scan.block_s_sum": per_scan(math.fsum(durations)),
            "verifier.scan.serial_s": per_scan(serial),
            "verifier.scan.p_series_per_scan": per_scan(
                out.get("kernels.partition_series.calls", 0)
            ),
        }

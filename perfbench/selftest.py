#!/usr/bin/env python3
"""Self-tests of the benchmark's own code.

Run from the root of a checkout:  python3 perfbench/selftest.py

Covers the generators (deterministic per seed; certified queries stay in
certified regimes and never reach big_t_hybrid), the checkers (they flag a
corrupted scan pair and a perturbed exact count), the tracer (counts layer
calls, collects scan blocks from pool workers, restores the originals), the
derived product counts, BENCHMARK.json against the metric tables, and the
three kernel cases of benchmarks/bench_kernels.py: every available backend
must agree on them, and they must match known p-series values.
"""

import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tcore  # noqa: E402
from tcore import _series_py  # noqa: E402

import check  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

try:
    from tcore import _series_cy
except ImportError:
    _series_cy = None

BACKENDS = [_series_py] + ([_series_cy] if _series_cy is not None else [])


class GeneratorTests(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(workloads.take(workload, 7, 3), workloads.take(workload, 7, 3))
        for workload in ("exact_queries", "certified_queries"):
            with self.subTest(workload=workload):
                self.assertNotEqual(
                    workloads.take(workload, 7, 1), workloads.take(workload, 8, 1)
                )

    def test_exact_ranges_and_repeats(self):
        queries = run.flatten(workloads.take("exact_queries", 3, 10))
        for _, t, n in queries:
            self.assertTrue(workloads.EXACT_T[0] <= t <= workloads.EXACT_T[1])
            self.assertTrue(workloads.EXACT_N[0] <= n <= workloads.EXACT_N[1])
        ts = [t for _, t, _ in queries]
        share = 1.0 - len(set(ts)) / len(ts)
        self.assertGreater(share, 0.5 * workloads.REPEAT_SHARE)
        self.assertTrue(any(n < 3 * t for _, t, n in queries))  # closed-form path

    def test_certified_stays_out_of_big_t_hybrid(self):
        for seed in range(4):
            for query in run.flatten(workloads.take("certified_queries", seed, 12)):
                if query[0] == "estimate":
                    regime = tcore.select_regime(query[1], query[2])
                    self.assertIn(regime, ("main", "small_t"), query)
                elif query[0] == "pair":
                    self.assertGreater(query[2], tcore.verifier.EXACT_PAIR_CAP, query)

    def test_certified_queries_pass_their_checks(self):
        queries = run.flatten(workloads.take("certified_queries", 5, 8))
        answers = [measure.ENCODE[q[0]](measure.CALLS[q[0]](tcore, q, 1)) for q in queries]
        self.assertEqual(check.check_certified(queries, answers, 5, tcore), (len(queries), 0))


class CheckerTests(unittest.TestCase):
    def test_scan_checker_flags_corrupt_pair(self):
        query = ("scan", 60)
        clean = measure.ENCODE["scan"](tcore.verify_exact(60, workers=1))
        bad = measure.ENCODE["scan"](tcore.verify_exact(60, workers=1, _corrupt=(7, 30)))
        pairs = workloads.scan_pairs(60)
        self.assertEqual(check.check_scan([query], [clean]), (pairs, 0))
        self.assertEqual(check.check_scan([query], [bad]), (pairs, 1))

    def test_scan_pairs_closed_form(self):
        for max_n in (9, 12, 60, 300):
            report = tcore.verify_exact(max_n, workers=1)
            self.assertEqual(workloads.scan_pairs(max_n), report.pairs_checked)

    def test_exact_checker_flags_perturbed_count(self):
        # (700, 2000) takes the closed form, the others the reference recount
        queries = [("count", 60, 2000), ("count", 700, 2000), ("count", 61, 5000)]
        answers = [str(tcore.tcore_count(t, n)) for _, t, n in queries]
        self.assertEqual(check.check_exact(queries, answers), (3, 0))
        for i in range(len(queries)):
            perturbed = list(answers)
            perturbed[i] = str(int(perturbed[i]) + 1)
            self.assertEqual(check.check_exact(queries, perturbed), (3, 1))

    def test_certified_checker_flags_bad_answers(self):
        queries = [("estimate", 1000, 55_000), ("pair", 2000, 55_000), ("kappa", 24.0)]
        answers = [measure.ENCODE[q[0]](measure.CALLS[q[0]](tcore, q, 1)) for q in queries]
        self.assertEqual(check.check_certified(queries, answers, 0, tcore), (3, 0))
        # move the estimate by twice its certified relative width
        off = 2.0 * answers[0]["rel"]
        shifted = [dict(answers[0], log_value=answers[0]["log_value"] + off)] + answers[1:]
        self.assertEqual(check.check_certified(queries, shifted, 0, tcore), (3, 1))
        refused = [answers[0], dict(answers[1], ok=False), answers[2]]
        self.assertEqual(check.check_certified(queries, refused, 0, tcore), (3, 1))


class TracerTests(unittest.TestCase):
    def test_products_match_the_kernel_loops(self):
        for la in range(1, 7):
            for lb in range(1, 7):
                for cap in range(0, 12):
                    top = min(la + lb - 2, cap) + 1
                    steps = sum(min(lb, top - i) for i in range(min(la, top)))
                    self.assertEqual(layers.mul_products(la, lb, cap), steps)
        for length in range(1, 6):
            for t in range(1, 5):
                for limit in range(0, 15):
                    steps = sum(
                        1 for n in range(limit + 1) for j in range(length) if j * t <= n
                    )
                    self.assertEqual(layers.series_products(length, t, limit), steps)

    def test_counts_calls_and_collects_worker_blocks(self):
        originals = (tcore.tcore_count, tcore.exact.core_inner_factor, tcore.saddle.eta_log_deriv)
        run.TMP.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.TMP) as spool:
            tracer = layers.Tracer(tcore, Path(spool))
            tracer.install()
            try:
                tcore.tcore_count(60, 2000)
                tcore.tcore_count(60, 1900)
                tcore.verify_exact(80, workers=2)
            finally:
                tracer.uninstall()
            tracer.collect()
            metrics = tracer.metrics()
        if not any(run.TMP.iterdir()):
            run.TMP.rmdir()
        self.assertEqual(
            originals,
            (tcore.tcore_count, tcore.exact.core_inner_factor, tcore.saddle.eta_log_deriv),
        )
        self.assertEqual(metrics["exact.tcore_count.calls"], 2)
        # (60, 1900) reuses the inner factor (60, 2000) powered to a larger cap
        self.assertEqual(tracer.counts["exact.core_inner_factor.repeats"], 1)
        self.assertEqual(metrics["kernels.core_single_from_inner.calls"], 2)
        self.assertEqual(metrics["modular.eta_log_deriv.calls"], 0)
        self.assertGreater(metrics["verifier.scan.blocks"], 1)
        self.assertEqual(
            metrics["verifier.scan.p_series_per_scan"], metrics["verifier.scan.blocks"]
        )
        self.assertGreater(metrics["kernels.core_series_from_inner.calls"], 0)


class BenchmarkFileTests(unittest.TestCase):
    def test_benchmark_json_matches_the_tables(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(layers.PER_LAYER),
        )
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class KernelCaseTests(unittest.TestCase):
    """The three cases benchmarks/bench_kernels.py times."""

    def test_partition_series_30000(self):
        results = [k.partition_series(30_000) for k in BACKENDS]
        self.assertTrue(all(r == results[0] for r in results))
        p = results[0]
        self.assertEqual(p[100], 190_569_292)
        self.assertEqual(p[200], 3_972_999_029_388)
        self.assertEqual(p[1000], 24_061_467_864_032_622_473_692_149_727_991)
        # Hardy-Ramanujan: log p(n) ~ pi sqrt(2n/3) - log(4 n sqrt 3)
        n = 30_000
        approx = math.pi * math.sqrt(2 * n / 3) - math.log(4 * n * math.sqrt(3))
        self.assertAlmostEqual(math.log(p[n]) / approx, 1.0, delta=1e-3)

    def test_inner_factor_t50_cap2000(self):
        results = [check._reference_power(k, 50, 2000) for k in BACKENDS]
        self.assertTrue(all(r == results[0] for r in results))
        # the truncation commutes with the powering: a shorter cap is a prefix
        self.assertEqual(check._reference_power(_series_py, 50, 300), results[0][:301])
        # (1 - x - x^2 + ...)^50 = 1 - 50 x + (50 * 49 / 2 - 50) x^2 + ...
        self.assertEqual(results[0][:3], [1, -50, 1175])

    def test_core_series_t7_limit4000(self):
        results = []
        for k in BACKENDS:
            p = k.partition_series(4000)
            inner = check._reference_power(k, 7, 4000 // 7)
            results.append(k.core_series_from_inner(inner, 7, p, 4000))
        self.assertTrue(all(r == results[0] for r in results))
        series = results[0]
        for n in range(0, 21):  # three-term closed form below 3t
            self.assertEqual(series[n], tcore.tcore_count_closed_small_range(7, n))
        for n in (25, 30):
            self.assertEqual(series[n], tcore.tcore_count_bruteforce(7, n))
        for n in (1000, 3999, 4000):  # the single-coefficient kernel agrees
            self.assertEqual(series[n], tcore.tcore_count(7, n))


if __name__ == "__main__":
    unittest.main()

"""The benchmark harness still runs against the package.

perfbench/ reads package internals (the saddle iteration count, the
eta evaluator it wraps by name), so a change to those shows up here rather
than only when someone runs the harness's own self-test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="perfbench/selftest.py asserts a scan split over more than one "
    "block, which needs at least 2 usable CPUs",
)
def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_benchmark_pairs_lie_past_the_closed_form_band(monkeypatch):
    # perfbench/check.py accepts only the difference and ratio pair methods;
    # certify_pair answers closed_form only for n < 2t, which no benchmark
    # pair cell reaches
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    pairs = [cell for cell in workloads.CERTIFIED_GROUPS if cell[0] == "pair"]
    assert pairs
    for _, (t_lo, t_hi), (n_lo, n_hi), _, _ in pairs:
        assert n_lo >= 2 * t_hi, (t_lo, t_hi, n_lo, n_hi)

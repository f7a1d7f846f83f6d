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

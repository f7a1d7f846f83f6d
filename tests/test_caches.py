"""Shared caches under threads: a grow that finishes late never shrinks them,
and every caller gets at least the entries it asked for."""

import threading
from types import SimpleNamespace

from tcore import _series_py, exact, modular


class _Gate:
    """Wraps a cache's compute step.  Called from the worker thread it signals
    `entered` and holds its finished result until `release` is set; called
    from the main thread it returns at once."""

    def __init__(self, compute):
        self.compute = compute
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, arg):
        out = self.compute(arg)
        if threading.current_thread() is not threading.main_thread():
            self.entered.set()
            self.release.wait(10)
        return out


def _late_small_grow(gate, grow, small, large):
    """grow(small) starts first in a worker thread; grow(large) runs to the
    end in this thread before the small grow may finish."""
    got = {}
    worker = threading.Thread(target=lambda: got.update(small=grow(small)))
    worker.start()
    assert gate.entered.wait(10)
    got["large"] = grow(large)
    gate.release.set()
    worker.join(10)
    assert not worker.is_alive()
    return got


def test_partition_cache_never_shrinks(monkeypatch):
    monkeypatch.setattr(exact, "_p_values", [1])
    gate = _Gate(_series_py.partition_series)
    monkeypatch.setattr(exact, "kernels", SimpleNamespace(partition_series=gate))
    got = _late_small_grow(gate, exact._partition_values, 10, 100)
    assert len(exact._p_values) == 101  # the late 11-entry list did not replace it
    reference = _series_py.partition_series(100)
    assert got["large"] == reference
    assert len(got["small"]) >= 11
    assert got["small"][:11] == reference[:11]


def test_sigma_table_never_shrinks(monkeypatch):
    monkeypatch.setattr(modular, "_sigma_table", [0, 1])
    gate = _Gate(modular._sigma_sieve)
    monkeypatch.setattr(modular, "_sigma_sieve", gate)
    got = _late_small_grow(gate, modular._grow_sigma, 10, 100)
    assert len(modular._sigma_table) == 101
    reference = [0] + [sum(d for d in range(1, n + 1) if n % d == 0) for n in range(1, 101)]
    assert got["large"] == reference
    assert len(got["small"]) >= 11
    assert got["small"][:11] == reference[:11]

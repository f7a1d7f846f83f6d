"""Self-test internals: the adaptive Gauss-Kronrod quadrature against closed
forms and mpmath, and a property suite that runs without SciPy."""

import math
import os
import subprocess
import sys

import pytest

import tcore
from tcore.modular import eta_quotient_log
from tcore.selftest import _quad, central_arc_ratio, gaussian_integral_check


def test_gaussian_matches_closed_form():
    # drift = skew = err_factor = 0: I = int_{-1/3}^{1/3} exp(-pi a x^2) dx
    for a in (39.0, 100.0, 1000.0):
        res = gaussian_integral_check(a, 0.0, 0.0, 0.0)
        closed = math.erf(math.sqrt(math.pi * a) / 3.0) / math.sqrt(a)
        assert abs(res.i_value - closed) <= 1e-13 * closed


def test_gaussian_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    a, drift, skew, err = 100.0, 0.079, 0.9, 1j
    res = gaussian_integral_check(a, drift, skew, err)
    with mpmath.workdps(30):

        def core(x):
            poly = 1 + 2j * skew * x + err * 3 * x * x
            return mpmath.exp(2j * mpmath.pi * drift * x - mpmath.pi * a * x * x * poly)

        edges = [-mpmath.mpf(1) / 3, 0, mpmath.mpf(1) / 3]
        i_ref = complex(mpmath.quad(core, edges))
        j_ref = complex(mpmath.quad(lambda x: x * core(x), edges))
    # the tolerance the check requests: max(epsabs 1e-14, epsrel 1e-12 |value|)
    assert abs(res.i_value - i_ref) <= max(1e-14, 1e-12 * abs(i_ref))
    assert abs(res.j_value - j_ref) <= max(1e-14, 1e-12 * abs(j_ref))


def test_central_arc_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    t, y = 100, 0.05
    log_center = eta_quotient_log(complex(0.0, y), t).real

    def rel_mag(x):
        return math.exp(eta_quotient_log(complex(float(x), y), t).real - log_center)

    with mpmath.workdps(15):
        reference = 2.0 * float(mpmath.quad(rel_mag, [0.0, y / 3.0])) / y
    assert central_arc_ratio(t, y) == pytest.approx(reference, rel=1e-9)


def test_quad_honours_break_points():
    # |x - 1/3| is linear on each side of its kink: split there, two panels
    # integrate it exactly; bisecting [0, 1] never lands on 1/3.
    def kink(x):
        return abs(x - 1.0 / 3.0)

    tol = dict(epsabs=1e-14, epsrel=1e-12)
    value, err = _quad(kink, 0.0, 1.0, limit=2, points=[1.0 / 3.0], **tol)
    assert value == pytest.approx(5.0 / 18.0, abs=1e-15)
    assert err <= 1e-14
    with pytest.raises(RuntimeError):
        _quad(kink, 0.0, 1.0, limit=2, **tol)
    value, _ = _quad(kink, 0.0, 1.0, limit=200, **tol)
    assert value == pytest.approx(5.0 / 18.0, rel=1e-12)


def test_selftest_runs_without_scipy():
    src = os.path.dirname(os.path.dirname(tcore.__file__))
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "from tcore.selftest import run_checks; "
        "failed = [r for r in run_checks('quick') if not r.ok]; "
        "assert not failed, failed; "
        "assert 'dataclasses' not in sys.modules"  # its records are named tuples
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


"""CLI surface tests: JSON-lines records, exit codes, report files."""

import json
import math
import os
import subprocess
import sys

import pytest

import tcore
from tcore.cli import _REGIME_FLAGS, main
from tcore.selftest import CheckResult


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    records = [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]
    return code, records


def test_count_examples(capsys):
    code, recs = run_cli(capsys, "count", "--t", "5", "--n", "10")
    assert code == 0
    assert recs[-1]["result"]["count"] == "12"
    code, recs = run_cli(capsys, "count", "--t", "1", "--n", "7")
    assert code == 0
    assert recs[-1]["result"]["count"] == "0"
    code, recs = run_cli(capsys, "count", "--t", "100", "--n", "10")
    assert code == 0
    assert recs[-1]["result"]["count"] == "42"


def test_count_series(capsys):
    code, recs = run_cli(capsys, "count", "--t", "5", "--max-n", "10")
    assert code == 0
    series = recs[-1]["result"]["series"]
    assert series[0] == "1"
    assert series[10] == "12"
    assert all(isinstance(s, str) for s in series)


def test_record_schema(capsys):
    code, recs = run_cli(capsys, "count", "--t", "5", "--n", "10")
    rec = recs[-1]
    assert set(rec) == {"cmd", "args", "result", "flags", "timing_ms", "version"}
    assert rec["cmd"] == "count"
    assert json.loads(json.dumps(rec)) == rec  # lossless round-trip


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--t", "0", "--n", "5"])
    assert exc.value.code == 2
    for argv in (
        ["count", "--t", "5"],
        ["count", "--t", "5", "--n", "10", "--max-n", "12"],
        ["kappa"],
        ["kappa", "--kappa", "1", "--table", "1,24"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--t", "5", "--n", "10", "--regime", "bogus"])
    assert exc.value.code == 2
    for argv in (
        ["--kappa", "nan"],
        ["--kappa", "inf"],
        ["--kappa", "0"],
        ["--kappa", "-1"],
        ["--kappa", "1e-310"],  # below the least normal double
        ["--table", "1,nan"],
        ["--table", "1,inf"],
    ):
        code, recs = run_cli(capsys, "kappa", *argv)
        assert code == 2
        assert recs[-1]["kind"] == "usage"


def test_saddle_record(capsys):
    code, recs = run_cli(capsys, "saddle", "--t", "1000", "--n", "60000")
    assert code == 0
    result = recs[-1]["result"]
    assert result["bracket_lo"] < result["y"] < result["bracket_hi"]
    assert abs(result["drift"]) < 1e-8
    y = result["y"]
    if y <= 0.1:
        band = result["curvature"] / min(1000.0, 1.0 / y)
        assert 1.0 / 26.0 <= band <= 1.0 / 12.0


def test_saddle_flag_marks_the_float_safe_domain(capsys):
    # the solver answers past the float-safe domain too; the saddle record
    # carries no certification flag, as no certificate reads the bare solve
    for t, n in (("100000000", "1"), ("1000", "60000")):
        code, recs = run_cli(capsys, "saddle", "--t", t, "--n", n)
        assert code == 0
        assert recs[-1]["flags"] == {}


def test_saddle_solver_failure_exit_3(capsys):
    code, recs = run_cli(capsys, "saddle", "--t", "1000", "--n", "0")
    assert code == 3
    assert recs[-1]["kind"] == "solver"


def test_kappa_heuristic_answers_at_small_kappa(capsys):
    # kappa = 49/1e17: with the constant terms of D_0..D_2 cancelled in
    # floats, B rounded to 0 here and the estimate exited 3; kappa = 4e-70
    # lay below the bracket halved from v = 1, and exited 3 too
    for t, n in ((7, 10**17), (2, 10**70)):
        code, recs = run_cli(capsys, "estimate", "--t", str(t), "--n", str(n))
        assert code == 0
        result = recs[-1]["result"]
        assert result["regime"] == "kappa_heuristic"
        assert math.isfinite(result["log_value"])
        assert result["diagnostics"]["B"] > 0.0


def test_estimate_huge_t(capsys):
    # the nome e(i t y) underflows to 0 here, and D_2 once formed (i t y)^3
    code, recs = run_cli(capsys, "estimate", "--t", str(10**110), "--n", "200000")
    assert code == 0
    assert recs[-1]["result"]["regime"] == "kappa_heuristic"
    # t^2 overflows a double
    for command in ("estimate", "saddle"):
        code, recs = run_cli(capsys, command, "--t", str(10**155), "--n", "200000")
        assert code == 2
        assert recs[-1]["kind"] == "usage"
        assert "t^2 overflows a double" in recs[-1]["error"]


def test_n_past_a_double_exit_2(capsys):
    huge = str(10**309)
    for t in ("2", "8", "2000"):
        for regime in sorted(_REGIME_FLAGS):
            code, recs = run_cli(capsys, "estimate", "--t", t, "--n", huge, "--regime", regime)
            assert code == 2, (t, regime)
            assert recs[-1]["kind"] == "usage"
        code, recs = run_cli(capsys, "saddle", "--t", t, "--n", huge)
        assert code == 2
        assert recs[-1]["kind"] == "usage"
        assert "overflows a double" in recs[-1]["error"]
    # a double, but the saddle ordinate squared underflows, or 24 n overflows
    for argv in (["saddle"], ["estimate", "--regime", "main"]):
        code, recs = run_cli(capsys, *argv, "--t", "8", "--n", str(10**170))
        assert code == 2
        assert "squared underflows" in recs[-1]["error"]
        code, recs = run_cli(capsys, *argv, "--t", str(10**153), "--n", str(10**307))
        assert code == 2
        assert recs[-1]["kind"] == "usage"
        assert f"n = {10**307} is too large: 24 n overflows" in recs[-1]["error"]


def test_saddle_rounding_at_upper_endpoint_exit_0(capsys):
    # g(hi) rounds to 0 here, inside the noise floor of the upper endpoint
    code, recs = run_cli(capsys, "saddle", "--t", "4500", "--n", "20500")
    assert code == 0
    result = recs[-1]["result"]
    assert result["bracket_lo"] < result["y"] < result["bracket_hi"]


def test_estimate_auto_regimes(capsys):
    code, recs = run_cli(capsys, "estimate", "--t", "1000", "--n", "60000")
    assert code == 0
    assert recs[-1]["result"]["regime"] == "main"
    assert recs[-1]["flags"]["hypotheses_ok"] is True
    code, recs = run_cli(capsys, "estimate", "--t", "50", "--n", "100000")
    assert code == 0
    assert recs[-1]["result"]["regime"] == "small_t"
    assert recs[-1]["result"]["rel_error_bound"] < 0.005
    code, recs = run_cli(capsys, "estimate", "--t", "539", "--n", "10000")
    assert code == 0
    result = recs[-1]["result"]
    assert result["regime"] == "exact"
    assert recs[-1]["flags"]["certified"] is True
    count = int(result["diagnostics"]["count"])
    assert count == tcore.tcore_count(539, 10000)
    lo, hi = result["log_interval"]
    assert lo < tcore.log_of_integer(count) < hi
    # c_2(2) = 0: its log value -inf is printed as null
    code, recs = run_cli(capsys, "estimate", "--t", "2", "--n", "2")
    assert code == 0
    assert recs[-1]["result"]["log_value"] is None
    assert recs[-1]["flags"]["certified"] is False


def test_estimate_forced_hypothesis_failure_exit_4(capsys):
    # exact: t = 6 is below its threshold 7.83 at n = 20
    for regime in ("main", "exact"):
        code, recs = run_cli(capsys, "estimate", "--t", "6", "--n", "20", "--regime", regime)
        assert code == 4
        assert recs[-1]["kind"] == "hypothesis"
    # the curvature D_2(iy) - D_2(ity) rounds to <= 0: main is uncertified
    n = "100000000000000000"
    code, recs = run_cli(capsys, "estimate", "--t", "8", "--n", n, "--regime", "main")
    assert code == 4
    assert recs[-1]["kind"] == "hypothesis"


def test_estimate_big_t_beyond_cap_exit_2(capsys):
    # above the threshold t > big_t_threshold(n) but past the exact regime's
    # cap, whose exact p-series would need hours to days: auto takes the
    # certified main estimate (kappa = 56232 and 1e9; it pads its rounding)
    # or, where main's pad passes 1, the kappa heuristic; a forced exact
    # regime exits 2
    for t, n, auto in (
        ("74989", "100001", "main"),
        ("100000000", "10000000", "main"),
        ("1000000000000", "200000", "kappa_heuristic"),
    ):
        code, recs = run_cli(capsys, "estimate", "--t", t, "--n", n)
        assert code == 0
        assert recs[-1]["result"]["regime"] == auto
        code, recs = run_cli(capsys, "estimate", "--t", t, "--n", n, "--regime", "exact")
        assert code == 2
        assert recs[-1]["kind"] == "usage"
        assert "exact regime cap 100000" in recs[-1]["error"]


# at (1e12, 2e5) main's hypotheses hold, but its pad for rounding passes 1
@pytest.mark.parametrize(
    "t,n", [(539, 10000), (50, 100000), (1000, 60000), (6, 20), (2, 2), (10**12, 200000)]
)
def test_certified_estimate_carries_finite_interval(capsys, t, n):
    for regime in sorted(_REGIME_FLAGS):
        code, recs = run_cli(
            capsys, "estimate", "--t", str(t), "--n", str(n), "--regime", regime
        )
        assert code in (0, 2, 4), (regime, recs)
        record = recs[-1]
        if code == 0 and record["flags"]["certified"]:
            lo, hi = record["result"]["log_interval"]
            assert math.isfinite(lo) and math.isfinite(hi) and lo < hi, (regime, record)


def test_count_beyond_partition_cap_exit_2(capsys):
    # refused before any work: a p-series this long would take hours
    n = tcore.exact.PARTITION_LIMIT_CAP + 1
    code, recs = run_cli(capsys, "count", "--t", "3", "--n", str(n))
    assert code == 2
    assert recs[-1]["kind"] == "usage"
    assert f"exceeds cap {tcore.exact.PARTITION_LIMIT_CAP}" in recs[-1]["error"]
    code, recs = run_cli(capsys, "count", "--t", "3", "--max-n", str(n))
    assert code == 2
    assert recs[-1]["kind"] == "usage"


def test_numeric_failure_exit_3(capsys, monkeypatch):
    def diverges(t, n, regime="auto"):
        raise RuntimeError("series truncation cap exceeded")

    monkeypatch.setattr("tcore.asymptotics.estimate", diverges)  # read per call
    code, recs = run_cli(capsys, "estimate", "--t", "1000", "--n", "60000")
    assert code == 3
    assert recs[-1] == {
        "cmd": "estimate", "error": "series truncation cap exceeded", "kind": "numeric",
    }


def test_memory_failure_exit_3(capsys, monkeypatch):
    def exhausts(t, n):
        raise MemoryError

    monkeypatch.setattr("tcore.exact.tcore_count", exhausts)
    code, recs = run_cli(capsys, "count", "--t", "5", "--n", "10")
    assert code == 3
    assert recs[-1] == {"cmd": "count", "error": "out of memory", "kind": "memory"}


def test_verify_stanton_clean(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, recs = run_cli(
        capsys, "verify-stanton", "--max-n", "50", "--threads", "1",
        "--report", str(report_path),
    )
    assert code == 0
    assert recs[-1]["flags"]["ok"] is True
    on_disk = json.loads(report_path.read_text())
    assert on_disk["violations"] == []
    assert on_disk["equalities"] == [[5, 10]]


def test_verify_stanton_fault_exit_5(capsys):
    code, recs = run_cli(
        capsys, "verify-stanton", "--max-n", "40", "--threads", "1",
        "--inject-fault", "6,20",
    )
    assert code == 5
    assert recs[-1]["result"]["violations"] == [[6, 20]]


@pytest.mark.parametrize("value", ["5", "a,b", "6,", "6,20,1", "6.0,20", ""])
def test_malformed_fault_target_exit_2(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify-stanton", "--max-n", "40", "--threads", "1", "--inject-fault", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--inject-fault" in err and "two integers" in err


def test_verify_stanton_reports_closed_form_pairs(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, recs = run_cli(
        capsys, "verify-stanton", "--max-n", "40", "--threads", "1",
        "--report", str(report_path),
    )
    assert code == 0
    expected = sum(max(0, min(t - 2, 40 - t - 1)) for t in range(4, 39))
    assert recs[-1]["result"]["closed_form_pairs"] == expected
    assert json.loads(report_path.read_text())["closed_form_pairs"] == expected


def test_unwritable_output_path_exit_2(capsys, tmp_path):
    missing = tmp_path / "missing" / "out"
    for argv in (
        ["verify-stanton", "--max-n", "40", "--threads", "1", "--report", f"{missing}.json"],
        ["kappa", "--table", "1,24", "--csv", f"{missing}.csv"],
        ["kappa", "--kappa", "1", "--csv", str(tmp_path)],  # a directory
    ):
        code, recs = run_cli(capsys, *argv)
        assert code == 2
        assert recs[-1]["kind"] == "usage"
        assert argv[-1] in recs[-1]["error"]
    assert list(tmp_path.iterdir()) == []


def test_kappa_command(capsys):
    code, recs = run_cli(capsys, "kappa", "--kappa", "1e6")
    assert code == 0
    result = recs[-1]["result"]
    assert abs(result["A"] - 1.0 / 6.0) < 1e-2
    assert result["B"] > 0.0


def _kappa_limits(kappa: float) -> tuple:
    """(A, B) where the n-sums of D_0..D_2 are below every digit, e^(-2 pi v)
    or e^(-2 pi/v) < 1e-1000 at the kappas used here.  For large kappa
    v = sqrt(kappa/24), A = 1/6 and B = 4 sqrt 3; for small kappa
    v = kappa/(4 pi (1 + kappa/24)) and, with c = v/(4 pi),
    A = kappa c^2 (1 - ln v)^2/v^2 and B = kappa sqrt(c)/v^2."""
    if kappa > 1.0:
        return 1.0 / 6.0, 4.0 * math.sqrt(3.0)
    v = kappa / (4.0 * math.pi * (1.0 + kappa / 24.0))
    c = v / (4.0 * math.pi)
    return kappa * (c * (1.0 - math.log(v)) / v) ** 2, kappa / v * (math.sqrt(c) / v)


def test_kappa_at_extreme_kappas_exit_0(capsys):
    # at kappa = 1e20 doubles once lost v(kappa) (an unchecked solve printed
    # A = 113), and past kappa ~ 1.35e7 the command exited 3
    code, recs = run_cli(capsys, "kappa", "--kappa", "1e20")
    assert code == 0
    rows = [recs[-1]["result"]]
    code, recs = run_cli(capsys, "kappa", "--table", "1e-60,1e20,1e300")
    assert code == 0
    rows += recs[-1]["result"]["table"]
    for row in rows:
        a, b = _kappa_limits(row["kappa"])
        assert abs(row["A"] - a) <= 1e-9 * a, row
        assert abs(row["B"] - b) <= 1e-9 * b, row


def test_kappa_monotone_v(capsys):
    _, recs10 = run_cli(capsys, "kappa", "--kappa", "10")
    _, recs100 = run_cli(capsys, "kappa", "--kappa", "100")
    assert recs100[-1]["result"]["v"] > recs10[-1]["result"]["v"]


def test_kappa_csv_table(capsys, tmp_path):
    csv_path = tmp_path / "constants.csv"
    code, recs = run_cli(capsys, "kappa", "--table", "1,24,1000", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "kappa,v,A,B"
    assert len(lines) == 4
    assert [row["kappa"] for row in recs[-1]["result"]["table"]] == [1.0, 24.0, 1000.0]


def test_deterministic_results(capsys):
    _, first = run_cli(capsys, "estimate", "--t", "1000", "--n", "60000")
    _, second = run_cli(capsys, "estimate", "--t", "1000", "--n", "60000")
    assert first[-1]["result"] == second[-1]["result"]


def test_selftest_quick(capsys):
    code, recs = run_cli(capsys, "selftest", "--level", "quick")
    assert code == 0
    summary = recs[-1]
    assert summary["flags"]["ok"] is True
    assert summary["result"]["failed"] == []
    check_lines = [r for r in recs if "check" in r]
    assert len(check_lines) == summary["result"]["checks"]


def test_selftest_failure_exit_5(capsys, monkeypatch):
    failing = [CheckResult("broken-check", False, "forced failure")]
    monkeypatch.setattr("tcore.selftest.run_checks", lambda level: failing)
    code, recs = run_cli(capsys, "selftest", "--level", "quick")
    assert code == 5
    assert recs[-1]["flags"]["ok"] is False
    assert recs[-1]["result"]["failed"] == ["broken-check"]


def _run_python(code):
    src = os.path.dirname(os.path.dirname(tcore.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_unloaded():
    code = (
        "import sys, tcore, tcore.cli; "
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
        "assert not loaded, loaded"
    )
    _run_python(code)


def test_import_leaves_dataclasses_and_multiprocessing_unloaded():
    # records are named tuples, and only a scan with a second block forks
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import tcore\n"
        "heavy = {'dataclasses', 'inspect', 'multiprocessing'}\n"
        "added = heavy & (set(sys.modules) - before)\n"
        "assert not added, sorted(added)\n"
        "assert tcore.verify_exact(60, workers=1).ok\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    _run_python(code)


# Loaded only by a certified query: the eta, saddle and estimator modules and
# the standard-library modules that only they (or the certificates) need.
_CERTIFIED_MODULES = (
    "tcore.modular", "tcore.saddle", "tcore.asymptotics", "fractions", "decimal", "cmath",
)


def test_exact_counts_and_scan_leave_certified_modules_unloaded():
    code = (
        "import sys\n"
        f"certified = {_CERTIFIED_MODULES!r}\n"
        "import tcore\n"
        "assert tcore.verify_exact(60, workers=1).ok\n"
        "loaded = [m for m in ('tcore.exact', 'tcore.certify') if m in sys.modules]\n"
        "assert not loaded, loaded  # the scan reads the kernels alone\n"
        "assert tcore.tcore_count(60, 2000) > 0\n"
        "loaded = [m for m in certified if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert tcore.estimate(1000, 60000).hypotheses_ok\n"
        "missing = [m for m in certified if m not in sys.modules]\n"
        "assert not missing, missing\n"
    )
    _run_python(code)


def test_cli_count_and_scan_leave_certified_modules_unloaded():
    code = (
        "import contextlib, io, sys\n"
        f"certified = {_CERTIFIED_MODULES!r}\n"
        "from tcore.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['count', '--t', '5', '--n', '10']) == 0\n"
        "    assert main(['count', '--t', '5', '--max-n', '50']) == 0\n"
        "    assert 'tcore.verifier' not in sys.modules\n"
        "    assert main(['verify-stanton', '--max-n', '60', '--threads', '1']) == 0\n"
        "loaded = [m for m in certified if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    _run_python(code)


def test_import_loads_no_submodule():
    code = (
        "import sys\n"
        "import tcore\n"
        "loaded = [m for m in sys.modules if m.startswith('tcore.')]\n"
        "assert not loaded, loaded\n"
    )
    _run_python(code)


def test_certified_mix_leaves_exact_stack_unloaded():
    # estimates, a pair certificate past its exact route and kappa constants
    # run on the estimators alone: no kernels, no exact counts, no scan
    code = (
        "import sys\n"
        "import tcore\n"
        "assert tcore.estimate(1000, 60000).hypotheses_ok\n"
        "assert tcore.estimate(50, 200000).hypotheses_ok\n"
        "assert tcore.certify_pair(2000, 100000).ok\n"
        "assert tcore.kappa_constants(24.0).A > 0\n"
        "stack = ('tcore.exact', 'tcore._series_py', 'tcore.backend', 'tcore.verifier')\n"
        "loaded = [m for m in stack if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert 'tcore.certify' in sys.modules\n"
    )
    _run_python(code)


def test_cli_estimate_leaves_exact_stack_unloaded():
    code = (
        "import contextlib, io, sys\n"
        "from tcore.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['estimate', '--t', '1000', '--n', '60000']) == 0\n"
        "loaded = [m for m in ('tcore.exact', 'tcore.verifier') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    _run_python(code)


def test_verifier_forwards_the_certificate_names():
    code = (
        "from tcore import certify, verifier\n"
        "for name in ('EXACT_PAIR_CAP', 'PairCertificate', 'certify_pair',\n"
        "             'certify_interval_containment'):\n"
        "    assert getattr(verifier, name) is getattr(certify, name), name\n"
        "from tcore.verifier import certify_pair\n"
        "assert certify_pair is certify.certify_pair\n"
        "assert not hasattr(verifier, 'no_such_name')  # AttributeError, nothing else\n"
    )
    _run_python(code)


def test_first_access_from_many_threads():
    # eight threads reach the lazy names at once, each starting with a
    # different query kind, so modules load while others read them
    code = (
        "import sys, threading\n"
        "sys.setswitchinterval(1e-6)\n"
        "import tcore\n"
        "queries = (\n"
        "    lambda: tcore.tcore_count(60, 2000),\n"
        "    lambda: tcore.verify_exact(60, workers=1)[:4],\n"
        "    lambda: tcore.estimate(1000, 60000),\n"
        ")\n"
        "barrier = threading.Barrier(8)\n"
        "results, errors = {}, []\n"
        "def run(i):\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        results[i] = [queries[(i + k) % 3]() for k in range(3)]\n"
        "    except Exception as exc:\n"
        "        errors.append(repr(exc))\n"
        "threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]\n"
        "for th in threads:\n"
        "    th.start()\n"
        "for th in threads:\n"
        "    th.join(timeout=120)\n"
        "    assert not th.is_alive()\n"
        "assert not errors, errors\n"
        "serial = [q() for q in queries]\n"
        "for i, got in results.items():\n"
        "    assert got == [serial[(i + k) % 3] for k in range(3)], i\n"
        "assert len(results) == 8\n"
    )
    _run_python(code)


def test_lazy_names_resolve_to_their_submodules():
    code = (
        "import tcore\n"
        "from tcore import asymptotics, certify, exact, modular, saddle, verifier\n"
        "owners = (asymptotics, certify, exact, modular, saddle, verifier, tcore.backend)\n"
        "listed = dir(tcore)\n"
        "for name in tcore.__all__:\n"
        "    assert name in listed, name\n"
        "    value = getattr(tcore, name)\n"
        "    assert any(getattr(m, name, None) is value for m in owners), name\n"
        "namespace = {}\n"
        "exec('from tcore import *', namespace)\n"
        "assert set(tcore.__all__) <= set(namespace)\n"
        "assert namespace['estimate'] is asymptotics.estimate\n"
        "assert namespace['SolverError'] is saddle.SolverError\n"
        "assert namespace['sigma'] is modular.sigma\n"
        "assert not hasattr(tcore, 'no_such_name')  # AttributeError, nothing else\n"
    )
    _run_python(code)


def test_lazy_names_follow_a_tracer_install_and_uninstall(tmp_path):
    # tcore.estimate is looked up in tcore.asymptotics on every access: a
    # wrapper the tracer installs there is seen while installed, and gone after
    perfbench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {perfbench!r})\n"
        "from pathlib import Path\n"
        "import layers, tcore\n"
        "tcore.certify_pair(2000, 100000)  # loads asymptotics through certify\n"
        f"tracer = layers.Tracer(tcore, Path({str(tmp_path)!r}))\n"
        "tracer.install()\n"
        "tcore.estimate(1000, 60000)\n"
        "tracer.uninstall()\n"
        "tcore.estimate(1000, 60000)\n"
        "tracer.collect()\n"
        "calls = tracer.metrics()['asymptotics.estimate.calls']\n"
        "assert calls == 1, calls\n"
    )
    _run_python(code)


def test_import_leaves_selftest_and_mpmath_unloaded():
    # only the selftest command needs the self-test suites; mpmath and sympy
    # are test-only oracles that the package never imports, not even to count
    # or to certify
    code = (
        "import sys, tcore.cli; "
        "loaded = [m for m in ('tcore.selftest', 'mpmath', 'sympy') if m in sys.modules]; "
        "assert not loaded, loaded; "
        "assert tcore.tcore_count(7, 200) == 6375; "
        "assert tcore.estimate(8, 10**6).hypotheses_ok; "
        "loaded = [m for m in ('mpmath', 'sympy') if m in sys.modules]; "
        "assert not loaded, loaded"
    )
    _run_python(code)

"""CLI surface tests: JSON-lines records, exit codes, report files."""

import json
import os
import subprocess
import sys

import pytest

import tcore
from tcore.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    records = [json.loads(line) for line in out.splitlines()]
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
    with pytest.raises(SystemExit) as exc:
        main(["count", "--t", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--t", "5", "--n", "10", "--regime", "bogus"])
    assert exc.value.code == 2
    for argv in (
        ["--kappa", "nan"],
        ["--kappa", "inf"],
        ["--kappa", "0"],
        ["--kappa", "1", "--table", "1,nan"],
        ["--kappa", "1", "--table", "1,inf"],
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


def test_saddle_solver_failure_exit_3(capsys):
    code, recs = run_cli(capsys, "saddle", "--t", "1000", "--n", "0")
    assert code == 3
    assert recs[-1]["kind"] == "solver"


def test_estimate_auto_regimes(capsys):
    code, recs = run_cli(capsys, "estimate", "--t", "1000", "--n", "60000")
    assert code == 0
    assert recs[-1]["result"]["regime"] == "main"
    assert recs[-1]["flags"]["hypotheses_ok"] is True
    code, recs = run_cli(capsys, "estimate", "--t", "50", "--n", "100000")
    assert code == 0
    assert recs[-1]["result"]["regime"] == "small_t"
    assert recs[-1]["result"]["rel_error_bound"] < 0.005


def test_estimate_forced_hypothesis_failure_exit_4(capsys):
    code, recs = run_cli(capsys, "estimate", "--t", "6", "--n", "20", "--regime", "main")
    assert code == 4
    assert recs[-1]["kind"] == "hypothesis"


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


def test_kappa_command(capsys):
    code, recs = run_cli(capsys, "kappa", "--kappa", "1e6")
    assert code == 0
    result = recs[-1]["result"]
    assert abs(result["A"] - 1.0 / 6.0) < 1e-2
    assert result["B"] > 0.0


def test_kappa_monotone_v(capsys):
    _, recs10 = run_cli(capsys, "kappa", "--kappa", "10")
    _, recs100 = run_cli(capsys, "kappa", "--kappa", "100")
    assert recs100[-1]["result"]["v"] > recs10[-1]["result"]["v"]


def test_kappa_csv_table(capsys, tmp_path):
    csv_path = tmp_path / "constants.csv"
    code, recs = run_cli(
        capsys, "kappa", "--kappa", "1", "--table", "1,24,1000", "--csv", str(csv_path)
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "kappa,v,A,B"
    assert len(lines) == 4


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


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(tcore.__file__))
    code = (
        "import sys, tcore, tcore.cli; "
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
        "assert not loaded, loaded"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

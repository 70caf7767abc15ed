"""Command-line interface: schemas, determinism, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qhermite2
from qhermite2.cli import SUITES, main
from qhermite2.discrepancies import REGISTRY


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoly:
    def test_exact_value_row(self, capsys):
        code, out, _ = run_cli(capsys, ["poly", "--n", "3", "--x", "1/2"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,x,h_tilde,psi"
        n, x, h, psi = lines[1].split(",")
        assert (n, x, h) == ("3", "1/2", "-3.375")
        assert psi.startswith("-0.26038690306103009856559690591424986571136981590859428")

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, ["poly", "--n", "3", "--x", "1/2", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["schema_version", "command", "config", "columns", "rows"]
        assert doc["schema_version"] == "1"
        assert doc["command"] == "poly"
        assert doc["config"]["q"] == "1/2"
        assert doc["config"]["precision_bits"] == "256"
        assert doc["config"]["format"] == "json"
        assert doc["columns"] == ["n", "x", "h_tilde", "psi"]
        assert doc["rows"][0][2] == "-3.375"

    def test_precision_flag_echoed_and_applied(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["poly", "--n", "3", "--x", "1/2", "--precision-bits", "320",
             "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["precision_bits"] == "320"
        assert len(doc["rows"][0][3]) > 90

    def test_precision_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QH_PRECISION_BITS", "128")
        code, out, _ = run_cli(
            capsys, ["poly", "--n", "1", "--x", "1", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["config"]["precision_bits"] == "128"


class TestTable:
    def test_spectrum_reference_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--what", "spectrum", "--n-max", "3"])
        assert code == 0
        assert out == "n,lambda_n\n0,1\n1,7\n2,34\n3,148\n"

    def test_moments_reference_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--what", "moments", "--n-max", "2"])
        assert code == 0
        assert out == "n,I_n\n0,1\n1,1\n2,6\n"

    def test_bn_column(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--what", "bn", "--n-max", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,b_n"
        assert lines[1].startswith("0,1.0000000000")
        assert lines[2].startswith("1,2.4494897427831780981972840747")


class TestMeasure:
    def test_jackson_branches_labeled(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["measure", "--type", "jackson", "--variable", "y",
             "--k-depth", "8", "--tail", "16"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "branch,exponent,support,mass"
        branches = [ln.split(",")[0] for ln in lines[1:]]
        assert branches == ["grow"] * 9 + ["shrink"] * 9

    def test_jackson_json_total_mass_near_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["measure", "--type", "jackson", "--variable", "y",
             "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["variable"] == "y-variable"
        assert abs(float(doc["total_mass"]) - 1) < 1e-8
        assert "mass_formula" in doc["constants"]

    def test_extremal_masses_and_count(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["measure", "--type", "extremal", "--bound", "6", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["root_count"] == "4"
        sigma = [float(r[1]) for r in doc["rows"]]
        assert len([s for s in sigma if s > 0.4]) == 2
        assert abs(float(doc["total_mass"]) - 1) < 1e-2


class TestCoherentCommand:
    def test_residual_below_bound_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, ["cs", "--z-re", "1/2", "--z-im", "1/2", "--trunc", "40"]
        )
        assert code == 0
        fields = dict(
            line.split(",", 1) for line in out.splitlines()[1:]
        )
        assert fields["residual_below_bound"] == "true"
        assert float(fields["bound"]) < 1e-30


class TestVerify:
    def test_recurrence_suite_passes_with_ledger(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "recurrence"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "record,identity,parameters,residual,bound,passed,note"
        ledger_lines = [ln for ln in lines if ln.startswith("ledger,")]
        assert len(ledger_lines) == len(REGISTRY)
        check_lines = [ln for ln in lines if ln.startswith("check,")]
        assert check_lines and all(",true," in ln for ln in check_lines)

    def test_json_embeds_registry_and_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "commutators", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "commutators"
        assert doc["overall_pass"] is True
        assert doc["diagnostic_class"] is False
        ids = [e["identifier"] for e in doc["discrepancy_ledger"]]
        assert ids == [e.identifier for e in REGISTRY]

    def test_diagnostic_suites_marked(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "qdiff", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["diagnostic_class"] is True

    def test_all_suites_registered(self):
        assert set(SUITES) == {
            "recurrence",
            "qcalculus",
            "commutators",
            "generating",
            "qdiff",
            "moments",
            "unity",
            "orthonormality",
        }


class TestDeterminismAndOutput:
    def test_byte_identical_reruns(self, capsys):
        argv = ["verify", "--suite", "recurrence", "--format", "json"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_csv_is_lf_terminated(self, capsys):
        _, out, _ = run_cli(capsys, ["table", "--what", "spectrum"])
        assert out.endswith("\n")
        assert "\r" not in out

    def test_out_flag_writes_file_with_lf(self, capsys, tmp_path):
        path = tmp_path / "spectrum.csv"
        code, out, _ = run_cli(
            capsys, ["table", "--what", "spectrum", "--n-max", "2", "--out", str(path)]
        )
        assert code == 0
        assert out == ""
        data = path.read_bytes()
        assert data == b"n,lambda_n\n0,1\n1,7\n2,34\n"


class TestExitCodes:
    def test_usage_errors_return_two(self, capsys):
        assert run_cli(capsys, ["poly", "--n", "3"])[0] == 2
        assert run_cli(capsys, ["nonsense"])[0] == 2
        code, _, err = run_cli(capsys, ["poly", "--n", "3", "--x", "1/2", "--q", "5/4"])
        assert code == 2
        assert "usage error" in err
        code, _, err = run_cli(capsys, ["cs", "--trunc", "2"])
        assert code == 2

    def test_help_returns_zero(self, capsys):
        assert run_cli(capsys, ["--help"])[0] == 0

    def test_numeric_failure_returns_three_with_payload(self, capsys):
        code, out, _ = run_cli(capsys, ["cs", "--z-re", "50", "--trunc", "4"])
        assert code == 3
        doc = json.loads(out)
        assert doc["error"]["type"] == "TruncationError"
        assert "trunc" in doc["error"]["message"]

    def test_gate_failure_returns_one(self, capsys):
        # q = 4/5 at the default lattice depth leaves the shrinking-branch
        # tail above the unity gate; honest red, deeper lattice passes.
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "unity", "--q", "4/5", "--format", "json"]
        )
        assert code == 1
        assert json.loads(out)["overall_pass"] is False


def test_module_invocation_round_trip():
    # The child imports the package under test, found or not on PYTHONPATH.
    src = str(Path(qhermite2.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qhermite2.cli", "poly", "--n", "1", "--x", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("1,1,1,")

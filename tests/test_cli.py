"""Command-line interface: schemas, determinism, exit codes."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import qhermite2
from qhermite2 import cli
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

    def test_bn_table_built_in_one_pass(self, capsys, monkeypatch):
        # One read of the b_n table, not one b_coeff call per row, each
        # of which restarted the exact b_n^2 from the powers of q.
        from qhermite2 import qkernel

        starts = []
        rows = qkernel._bn_squared_rows

        def spy(q, start=0):
            starts.append(start)
            return rows(q, start)

        monkeypatch.setattr(qkernel, "_bn_squared_rows", spy)
        code, out, _ = run_cli(capsys, ["table", "--what=bn", "--q=1/3", "--n-max=60"])
        assert code == 0
        assert len(out.splitlines()) == 62
        assert starts == [0]


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

    def test_unexpected_exception_returns_four_with_payload(self, capsys, monkeypatch):
        def broken(ns, ctx):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(cli, "_cmd_poly", broken)
        code, out, err = run_cli(capsys, ["poly", "--n", "3", "--x", "1/2"])
        assert code == 4
        doc = json.loads(out)
        assert doc["command"] == "poly"
        assert doc["error"] == {"type": "RuntimeError", "message": "injected fault"}
        assert "Traceback" in err and "injected fault" in err

    def test_bare_value_error_returns_four_with_payload(self, capsys, monkeypatch):
        # Only a DomainError is a usage error; a bare ValueError is a fault.
        def broken(ns, ctx):
            raise ValueError("injected fault")

        monkeypatch.setattr(cli, "_cmd_table", broken)
        code, out, err = run_cli(capsys, ["table", "--what", "spectrum"])
        assert code == 4
        doc = json.loads(out)
        assert doc["command"] == "table"
        assert doc["error"] == {"type": "ValueError", "message": "injected fault"}
        assert "Traceback" in err and "usage error" not in err

    def test_unwritable_out_returns_two_with_payload(self, capsys, tmp_path):
        bad = str(tmp_path / "missing" / "x.csv")
        for argv, code_without_out in (
            (["poly", "--n", "3", "--x", "1/2"], 0),
            (["cs", "--z-re", "50", "--trunc", "4"], 3),
        ):
            assert run_cli(capsys, argv)[0] == code_without_out
            code, out, err = run_cli(capsys, argv + ["--out", bad])
            assert code == 2
            doc = json.loads(out)
            assert doc["command"] == argv[0]
            assert doc["error"]["type"] == "FileNotFoundError"
            assert bad in doc["error"]["message"]
            assert "usage error" in err and "Traceback" not in err
        assert not (tmp_path / "missing").exists()


# Exit code and SHA-256 of stdout of the lattice subcommands, recorded
# from the two-sweep lattice weight that the one-sweep version replaced.
# The unity rows were recorded again when the Gram diagonal became
# I_n(lattice)/I_n from the shared hat-lattice sum: the summation order
# moved its last bits, and the note now cites hat_integral_prefactor.
# The 3/4, 1/5, 29/30 and 40/41 rows were recorded again when every q^n
# became the exact power rounded once, in place of mpmath's binary
# power, which truncates its squarings and rounds a reciprocal twice.
# The z-radial rows were recorded again when N^2 came from its
# q-difference equation at the exact ring points, which moved the last
# digits of the masses and their total.
# q, bits, job, exit code, digest.
_PINNED_LATTICE_OUTPUT = """
1/2 256 jackson-y 0 848322c6183617109c19773c00b4bf81987e8301dae8d3b8ebb238a20b74aa1e
1/2 256 jackson-x 0 da090c5a47dbf99a21e600290ab1dd563ed687114328b1d4f09bade29ba31202
1/2 256 jackson-z-radial 0 c0fd23422fdba734d50f6c50bee9d693e498fb0d72ea5880551f8cc21f888a0c
1/2 256 moments 0 dbe0b0923fc24cf01571c28046d0bdeb3ba2a6f405d8a364d16ee0c4ec7fad22
1/2 256 unity 0 b8d69e27c63eda96eca2f25218a4bd3587c0e560808c7cfe175fa6a7c0136497
3/4 128 jackson-y 0 6b907a55ff48cfcc526decf8f7535b8ca29484ea1957dc320a479d4c915d3912
3/4 128 jackson-x 0 1f76f7c0f1bb5a6a0850be0125207c4c3806679befbb9ee0d050959b5931fca6
3/4 128 jackson-z-radial 0 e0afbaececf0aec5dbf25e48ec255c0bbb5e40d5cb9fd1195e11265b2da1993c
3/4 128 moments 1 90f2fbe4b0531987feb99c13e11b75132093970ad11b2224169693d70d199a7d
3/4 128 unity 0 3ccac9aa5538062ac141d5bd3c36608a571193f5a56d0b0727f756729c4fee55
1/5 64 jackson-y 0 ee38e0e8eda8da144d50de8a4f34aff0608a2287e512cb0753d0c931eb8e6469
1/5 64 jackson-x 0 90f1568bd06b902655e437dd6bf54b0915fc0061f65f7dbbe497dbb9a563423f
1/5 64 jackson-z-radial 0 d8d29807f2f44193e883ee456c7269945e8932386191aaaa31b9b78a1fa7fcb5
1/5 64 moments 0 ee6cffe5c8e02678100458f2077075e37e58b1a9d200d2f18e78cf80b5f92888
1/5 64 unity 0 7ba30e00862453ad821bc9e24b8e60275cdc7df88527f2f0f8083ab37e28b985
29/30 256 jackson-y 0 100cad5dc44bf747c2fbe2a3e99221f5af00f779212c5f2c26ce1017357abe48
29/30 256 jackson-x 0 e82b37cd4da06e3acda20ee674903d617870384f0056991e8e3004a977625469
29/30 256 jackson-z-radial 0 837e2d112215974f651fb39a9ba636b72d8a7efadd59891f957749a234da4ff0
29/30 256 moments 1 1bb2c10fec9ca9a47f9647b16e595ec0651a3f889c21e5ecd6f92d1e17940ef3
29/30 256 unity 1 68fc3fec7a511ff6df9f0ccae8e8e3e5c49bef59c5da74e6a7278041154e7f4d
40/41 128 jackson-y 0 01b7e6eab02a0d7d2c40282bdf5adcaa24f3cae0ef806f2a109ea56cc102a728
40/41 128 jackson-x 0 c682ce1eb555eaffb895f9360e20959b7a64cac8dfb6e1e3011e331e473dda77
40/41 128 jackson-z-radial 0 08bda28e66425579039c6dd36da3d8bf1c5f3c414acdfc9a73410454bd8c933c
40/41 128 moments 1 0a6e14e7c27a5c41507935fb08232247f74433c49dbaf5d5f6628af2a47ca27c
40/41 128 unity 1 ced14c22773d7316db3ecb3638172855437f5ba30a80deb8cececf3da2c4fd66
"""


@pytest.mark.parametrize(
    "q, bits, job, code, digest",
    [
        pytest.param(*fields, id="-".join(fields[:3]))
        for fields in map(str.split, _PINNED_LATTICE_OUTPUT.strip().splitlines())
    ],
)
def test_lattice_output_pinned(capsys, q, bits, job, code, digest):
    if job.startswith("jackson-"):
        argv = ["measure", "--type", "jackson", "--variable", job[len("jackson-"):]]
    else:
        argv = ["verify", "--suite", job]
    got, out, _ = run_cli(capsys, argv + [f"--q={q}", f"--precision-bits={bits}"])
    assert got == int(code)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Exit code and SHA-256 of stdout of the series-layer subcommands,
# recorded from the per-call q ** n that the cached q-power kernel
# replaced (q = 1/2, 256 bits, z-radial is pinned above); the 40/41
# z-radial row was recorded again with the z-radial rows above, twice;
# the recurrence rows when the direct value became the exact 2phi0
# rounded once, and the qcalculus rows when ip1/ip2 became exact and
# the ip3 integrands were rounded once from their exact value, and again
# when the deformed derivative and ip3 became exact identities.
# q, bits, job, exit code, digest.
_PINNED_SERIES_OUTPUT = """
1/2 256 cs 0 7a69f2f4b4bd94b1e3b9ef17bdce2d82737bc56630a432da71bce7f0fb91b0d2
1/2 256 generating 0 13dda2aab459ecdfd8b26100477bcc4139ec092481a77a9fe9ed675ccb9b9d80
1/2 256 qdiff 0 06168546fd3057b6ff844856dfcb6f6013910d1871cb118d0fc3f6b1b7e25632
1/2 256 recurrence 0 8015d84dbbf6c38a3e070e98b0926d538ec69077421d877ddd238612488ce196
1/2 256 qcalculus 0 c8474ad4b3f24dba54f630eb734ea103c62a1e2c6f197400cc3296c5dbc1fc2c
40/41 128 cs 0 ae9106474f257256001b90f1ce8ddf7caa37847ea2949a38eeca6787014185b3
40/41 128 generating 0 12bb9807fa47ed3f48f37dd992b3923e5a1c68defbd48f622e05c2d1b1374c50
40/41 128 qdiff 0 c9c497a9bacc083ca1a67dba4e26cd21155a0b06e004975f26a402733915fb28
40/41 128 recurrence 0 597329416c5b7b35b3fa7d46c0a68f984399da4c788cb05aadc35d30d7096a79
40/41 128 qcalculus 0 e86a13d0b08aa455ab4b612a1d4f4b3ff12d48707d0c6185ffb3392249665a6a
40/41 128 jackson-z-radial 0 08bda28e66425579039c6dd36da3d8bf1c5f3c414acdfc9a73410454bd8c933c
"""


@pytest.mark.parametrize(
    "q, bits, job, code, digest",
    [
        pytest.param(*fields, id="-".join(fields[:3]))
        for fields in map(str.split, _PINNED_SERIES_OUTPUT.strip().splitlines())
    ],
)
def test_series_output_pinned(capsys, q, bits, job, code, digest):
    if job == "jackson-z-radial":
        argv = ["measure", "--type", "jackson", "--variable", "z-radial"]
    elif job == "cs":
        argv = ["cs"]
    else:
        argv = ["verify", "--suite", job]
    got, out, _ = run_cli(capsys, argv + [f"--q={q}", f"--precision-bits={bits}"])
    assert got == int(code)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Exit code and SHA-256 of stdout of the coherent-state command, recorded
# from the coefficients computed with mpf/mpc operators and one b_coeff
# call per index: q, bits, z, format, exit code, digest.  "large" is
# --z-re=40 --trunc=4, past the tail certificate where the exit is 3.
_CS_POINTS = {
    "zero": ["--z-re=0"],
    "real": ["--z-re=3/2"],
    "imag": ["--z-re=0", "--z-im=-5/4"],
    "complex": ["--z-re=-7/8", "--z-im=5/4"],
    "large": ["--z-re=40", "--trunc=4"],
}
_PINNED_CS_OUTPUT = """
1/64 64 zero csv 0 2ff6e67572b14db884a662707963259676db2c77b829e47e3fae46f8c1586095
1/64 64 zero json 0 1d2f76150e395e148fec8b6fd254c2bdbcdd9ef57337b1a1bb69a0559bc9da92
1/64 64 real csv 0 96755fac4c8578b049f4b6be16de020d7f75fbad2e423d63c5cdcc1e54051ba4
1/64 64 real json 0 821c31fe70a8dd1cdf48107dd14bb23df8fe3dda8e678026e421bb6229ea0314
1/64 64 imag csv 0 12263228d0ba74525dc57a9022b9df8d0a983a542f82e2658748820feeec308e
1/64 64 imag json 0 b9dee70e93c457aa1c052b5786a9e33cfc6f59e609b935df57b7cf95ff61593a
1/64 64 complex csv 0 a05b713378076c043b36098e55874ad28b3b85124785f613de7f337c50d9496d
1/64 64 complex json 0 6329a6f767ca83d23f006ae486151bc9de6a52ccd3c6c987f366c4e9e705fb89
1/64 64 large csv 0 66e8a0f116cb89d3ca98b799e6767e61d129bcc1e4e28792c8670a6463553584
1/64 64 large json 0 fec82fd8a9821166b3c8bc6e83903357af4166be4f21b1873fcccac93e57108f
1/64 512 zero csv 0 a0fdcdb1bdf4480a133ac844eec201494a6b2e80f7c61e2927a2928d0b46555f
1/64 512 zero json 0 e066bf73b4bef8119c8da445b895aaa1e1ac4f2cd28e781b0c091fa463301438
1/64 512 real csv 0 8348240cf213f362375a71c6be97188329dae53af2c94ff75d6365616cf3cc4d
1/64 512 real json 0 73aeecf9ad0153438d309035179c6035ae6587cbbbde0d132f263dedce02123a
1/64 512 imag csv 0 3ea9aa83d777756059827eea1d72f74f9a8d4ee507e6f3cd67adac033e2f9cbe
1/64 512 imag json 0 007b35c47198efa740e720fcccc9316cb908dc066cf483e135a4c72a67607867
1/64 512 complex csv 0 8206ac0dbd23e218200de10209a3201e9513b3a0cc17f0fd143e966d028440cc
1/64 512 complex json 0 50617c06da3122049569983117832b5a2e0d664a8a862489e92f4bd7050718ae
1/64 512 large csv 3 5ecad5cf14e6f4c16d6930a181c3f0b153e1385ee401dde053780a77dc87b7cd
1/64 512 large json 3 5ecad5cf14e6f4c16d6930a181c3f0b153e1385ee401dde053780a77dc87b7cd
26/27 64 zero csv 0 2ff6e67572b14db884a662707963259676db2c77b829e47e3fae46f8c1586095
26/27 64 zero json 0 2172f2709b71de0dd1ba021310ca786dcd5c749d84ed055a69d0a7051b6d81dd
26/27 64 real csv 0 575779941a55262ccdc98793b546876357192872a9cc3a4fcbdb5cf08d690268
26/27 64 real json 0 3474c970469c9ff164ed696e011000aff279f1081579cc54a8a5fb43a3a82ed2
26/27 64 imag csv 0 ab5ddc75401776319a7edcac8bef07e84f27c9145cd93d618c4dd1291edf8a19
26/27 64 imag json 0 1d7f634a46b633c7f91c8500a6872ccc8beec43c89cc85ab617ca4e4a8e0dba6
26/27 64 complex csv 0 c797d72315e24c3173da6bff698f3afa4d155cdce119b56e457936ea71fe4991
26/27 64 complex json 0 4e046c37686bd4d01f9784400f216f9164417f8c026b301533a23a50694f628f
26/27 64 large csv 3 748c6331940afa81599fbe277270e0b242491ce15d0d7974f6ee659cae501617
26/27 64 large json 3 748c6331940afa81599fbe277270e0b242491ce15d0d7974f6ee659cae501617
26/27 512 zero csv 0 a0fdcdb1bdf4480a133ac844eec201494a6b2e80f7c61e2927a2928d0b46555f
26/27 512 zero json 0 30df553b68919335dd2c81092a5b3b8c93c2ecfccbb9f33bf20918ca6e0db40d
26/27 512 real csv 3 5af3db6128a9c720ce8c29ad2edca00e250ef135ac3463dbfbf411ed98b82dc2
26/27 512 real json 3 5af3db6128a9c720ce8c29ad2edca00e250ef135ac3463dbfbf411ed98b82dc2
26/27 512 imag csv 3 841b9fc7cb23d024d8737cf966d5796048e7ef74d4d826f0d531c65964f6dc49
26/27 512 imag json 3 841b9fc7cb23d024d8737cf966d5796048e7ef74d4d826f0d531c65964f6dc49
26/27 512 complex csv 3 e9942025af160fa9dc1e57a602ed53b602fdcd56faa3da93f58206779910cc6d
26/27 512 complex json 3 e9942025af160fa9dc1e57a602ed53b602fdcd56faa3da93f58206779910cc6d
26/27 512 large csv 3 748c6331940afa81599fbe277270e0b242491ce15d0d7974f6ee659cae501617
26/27 512 large json 3 748c6331940afa81599fbe277270e0b242491ce15d0d7974f6ee659cae501617
"""


@pytest.mark.parametrize(
    "q, bits, z, fmt, code, digest",
    [
        pytest.param(*fields, id="-".join(fields[:4]))
        for fields in map(str.split, _PINNED_CS_OUTPUT.strip().splitlines())
    ],
)
def test_cs_output_pinned(capsys, q, bits, z, fmt, code, digest):
    got, out, _ = run_cli(
        capsys, ["cs", *_CS_POINTS[z], f"--q={q}", f"--precision-bits={bits}", f"--format={fmt}"]
    )
    assert got == int(code)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Exit code and SHA-256 of stdout of the commands that run on Poly and
# Q(i) arithmetic, and of the b_n table, recorded from the Q(i) products
# that re-validated every result and from one b_coeff call per row:
# q, the command, exit code, digest.
_PINNED_EXACT_OUTPUT = """
1/3 | verify --suite qdiff --n-max=8 | 0 df0611c74db6670d1a48ab8c4aafe30b18e021b581113871d85a4d73be76d446
1/3 | verify --suite generating --x=-3/4 --order=10 | 0 0332122d04a82a4374851030016b7b79bfd703b242aeb46dab2ac40b79eb2bb6
1/3 | table --what=bn --n-max=40 | 0 c67f560bc1b24d14de4ba4850d8320f8fb51b199997fbfac9af79adbe6e99580
26/27 | verify --suite qdiff --n-max=8 | 0 397c9e67c050ad8b33a97a4a2690f8cfae5371b2265450822e31a436781bf69a
26/27 | verify --suite generating --x=-3/4 --order=10 | 0 d7809b91000ad7f76b5a27726bfc45a12885c878559b098618e24e50f4bf847a
26/27 | table --what=bn --n-max=40 | 0 98aacb3523e381543feaf039121b4b5a910a24598255d80650479c8cfec6b738
1/2 | poly --n 12 --kind both --x=-13/5 | 0 d0e48d65cc4f3cadb22e14361d0f50d1a834f905aa2d0f5c071fe5eb5894faf8
"""


@pytest.mark.parametrize(
    "q, argv, code, digest",
    [
        pytest.param(q, argv, *rest.split(), id=f"{q} {argv}")
        for q, argv, rest in (
            line.split(" | ") for line in _PINNED_EXACT_OUTPUT.strip().splitlines()
        )
    ],
)
def test_exact_layer_output_pinned(capsys, q, argv, code, digest):
    got, out, _ = run_cli(capsys, argv.split() + [f"--q={q}"])
    assert got == int(code)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Exit code and SHA-256 of stdout of the extremal measure and the
# orthonormality suite, recorded from the scan that evaluated every grid
# point at working precision: q, bits, job, bound, format, exit code,
# digest.  The last three rows were recorded from the streams on raw mpf
# values: at 64 bits the last Newton halvings follow rounding, 512 bits
# runs the widest mantissas, and q = 4/5 sums hundreds of terms per
# evaluation.  The q = 4/5 roots are those of D, not yet of the paper's
# carrier, so that row moves with ROADMAP item 1.
_PINNED_EXTREMAL_OUTPUT = """
1/2 256 extremal 7/1000 csv 0 737c28655dd1d0de9b5d2349da2133d95a2a9adec87936c8317b7d49a0054f29
1/2 256 extremal 7/1000 json 0 24803ee4ee827f70e5d68b52ffaead8eaa2c0017972c9bc8a00077e7b8f5dbc9
1/2 192 extremal 43/10 csv 0 9fee0edb21f9d3bfcb50b81adfe8437a5a73ed936e2e83acbdcf0fa041f5ff85
1/2 192 extremal 43/10 json 0 731a9f8486c9ae2d552100347e495cf17950987120fc18aabd2834a951cd59d4
1/2 128 extremal 973/10 csv 0 910d464e3eba2927ed1f13e6ba5ba2fe45584a7c8bde471fcc313c924433be83
1/2 128 extremal 973/10 json 0 18f2919a96139f8d05c4b468c3f712d5dfa9b9404c905d13158aaa4daadb38ef
3/10 256 extremal 30 csv 0 b531b31193848040d21839da1c8cd23c13a1136f4c727220e07ec85f403e5096
3/10 256 extremal 30 json 0 ec239b030aa328551a9415be7f91e806ca5406d7bedecf7c665a22f13f47a75b
1/2 128 orthonormality 40 csv 0 5124f48ff9d37258dbadb17d0e69859bacc56df72dbc6a82d0986c8956905e85
1/2 128 orthonormality 40 json 0 7e5fe1057ca1c6dbe2a6031bad13ace6341948c96327e670e82a4284cb91b0c9
1/2 128 orthonormality 51 csv 0 8c2fd5048ff6a646e4ee32a5c53f57507662ba49f78c15f3bb061dacc49cffd4
1/2 128 orthonormality 51 json 0 d9e48726ecd1c8236877cff4fe0983e85c935f256acf39e55661932c0cb5caf7
1/2 64 extremal 30 csv 0 7173507e617c914cfa775f4bb95487a1b2cb4b3e8b211838fcf4a72a7fd671e6
1/2 512 extremal 25 json 0 2becc244df3f0947b6f0ede04d64c76a4afc0939e7d9318c49739f3985741d84
4/5 128 extremal 10 csv 0 e7323ab763b15f6755b8f2651e5e62efc63fc3cdc4369fabf57300851f69bbc9
"""


@pytest.mark.parametrize(
    "q, bits, job, bound, fmt, code, digest",
    [
        pytest.param(*fields, id="-".join(fields[:5]))
        for fields in map(str.split, _PINNED_EXTREMAL_OUTPUT.strip().splitlines())
    ],
)
def test_extremal_output_pinned(capsys, q, bits, job, bound, fmt, code, digest):
    if job == "extremal":
        argv = ["measure", "--type", "extremal"]
    else:
        argv = ["verify", "--suite", job]
    got, out, _ = run_cli(
        capsys, argv + [f"--q={q}", f"--precision-bits={bits}", f"--bound={bound}", f"--format={fmt}"]
    )
    assert got == int(code)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Exit code and SHA-256 of stdout of the operator-algebra suite, recorded
# from the suite as it was written inside the CLI (q = 999/1000 fails the
# 4-ulp gate there too): q, bits, dim, format, exit code, digest.
_PINNED_COMMUTATORS_OUTPUT = """
1/2 256 16 csv 0 dcc790a6ca9f45154aa2afb7b762b89ef4388a12b2baa6d541700cfab62a3426
1/2 256 16 json 0 d6255717a8f01d9503f9fa608c4cd50e7dc705a5e7ccb01a843944a478ae58a7
3/10 256 32 csv 0 ad3e2dc39af9656a4e4ee346eaec4e12658e282b1e939a93ae623b1cb41fc927
999/1000 256 32 csv 1 ab35f620b9d516176288f315db69380c1614642b299bd6d48250b069dd3f6371
"""


@pytest.mark.parametrize(
    "q, bits, dim, fmt, code, digest",
    [
        pytest.param(*fields, id="-".join(fields[:4]))
        for fields in map(str.split, _PINNED_COMMUTATORS_OUTPUT.strip().splitlines())
    ],
)
def test_commutators_output_pinned(capsys, q, bits, dim, fmt, code, digest):
    got, out, _ = run_cli(
        capsys,
        ["verify", "--suite", "commutators", f"--q={q}", f"--precision-bits={bits}",
         f"--dim={dim}", f"--format={fmt}"],
    )
    assert got == int(code)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Near q = 1 the finite hat integral once ran out of its 4,000-term
# budget (256 bits) and the suite exited 3 with the payload
# "hat_q_integral_finite: lattice terms still ... after 4000 terms".  The
# finite integrations by parts are exact now, so the suite passes with
# both rows reading "exact zero"; the exit-3 payload stays pinned by the
# K = 8 moments row below and the cs --trunc=30 contract row.
_TERM_BUDGET_Q = ("99/100", "26/27")


@pytest.mark.parametrize("q", sorted(_TERM_BUDGET_Q))
def test_qcalculus_term_budget_payload_pinned(capsys, q):
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "qcalculus", f"--q={q}", "--precision-bits=256", "--format=json"]
    )
    assert code == 0
    rows = {row[1]: row for row in json.loads(out)["rows"] if row[0] == "check"}
    for variant in ("ip1", "ip2"):
        assert rows[f"integration-by-parts-{variant}"][3:6] == ["0", "exact zero", "true"]


# Every qcalculus gate is an exact identity over Q, so the suite passes
# at every q and precision; its 64-bit rows used to fail the absolute
# 1e-20 gates of the two floating rows, which lay below 2^-64.
@pytest.mark.parametrize("bits", [64, 128, 256, 512])
@pytest.mark.parametrize("q", ["1/64", "3/10", "1/2", "2/3", "4/5", "26/27", "40/41", "63/64", "99/100"])
def test_qcalculus_passes_at_every_q_and_precision(capsys, q, bits):
    argv = ["verify", "--suite", "qcalculus", f"--q={q}", f"--precision-bits={bits}", "--format=json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    rows = [row for row in json.loads(out)["rows"] if row[0] == "check"]
    assert len(rows) == 7
    assert {tuple(row[3:6]) for row in rows} == {("0", "exact zero", "true")}


# At depth K = 8 the hat sum's growing-branch certificate first fires at
# moment n = 8.  The moments suite (n <= 8) stops there with exit 3.  The
# unity suite reads the same moments, so at its default n <= 6 it fails
# its gates (exit 1), and at n <= 8 it stops with the moments payload,
# byte for byte.  The moments row was recorded before the hat integral,
# the moments and the infinite parts residual shared one lattice sum,
# and again when the sum's error began to name its caller (``moment_In:``
# where it read ``hat_q_integral:``): suite and extra options, exit
# code, digest.
_PINNED_SHALLOW_LATTICE_OUTPUT = """
moments 3 ef95b53232083c5498016fa379741d483e647259c1d55aa2420bf92d92407812
unity 1 40d10f7211ede7b0d533a67447a177ea8c91f63d057efdadff7200b1632ff4e4
unity --n-max=8 3 ef95b53232083c5498016fa379741d483e647259c1d55aa2420bf92d92407812
"""


@pytest.mark.parametrize(
    "args, code, digest",
    [
        pytest.param(fields[:-2], *fields[-2:], id=" ".join(fields[:-2]))
        for fields in map(str.split, _PINNED_SHALLOW_LATTICE_OUTPUT.strip().splitlines())
    ],
)
def test_shallow_lattice_output_pinned(capsys, args, code, digest):
    suite, *extra = args
    got, out, _ = run_cli(capsys, ["verify", "--suite", suite, "--k-depth=8", *extra])
    assert got == int(code)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Refusals with exit 2 and the stderr line: a tail index below K + 2
# (unity and the jackson measure used to widen it silently, where the
# moments suite refused it), a negative n_max (these suites used to pass
# with nothing checked), a tolerance <= 0 (these used to exit 1), and a
# --tol or --n-max that the suite or subcommand does not read (these used
# to exit 0 and echo the value in the config; qcalculus, all of whose
# gates are exact, read --tol until its last two floating rows went, and
# now refuses any --tol, one <= 0 too).  argparse refuses the last kind
# on a subcommand without the option, after its usage line.
_REFUSALS = """
verify --suite unity --k-depth=10 --tail=8 | tail depth M=8 too small for K=10
measure --type jackson --k-depth=10 --tail=8 | tail depth M=8 too small for K=10
verify --suite recurrence --n-max=-1 | n_max must be >= 0, got -1
verify --suite moments --n-max=-1 | n_max must be >= 0, got -1
verify --suite qdiff --n-max=-2 | n_max must be >= 0, got -2
verify --suite recurrence --tol=0 | --tol must be > 0, got 0
verify --suite recurrence --tol=-1/10 | --tol must be > 0, got -1/10
verify --suite unity --tol=0 | --tol must be > 0, got 0
verify --suite commutators --tol=1e-40 --n-max=3 --format=json | suite commutators does not read --tol
verify --suite generating --tol=1/10 | suite generating does not read --tol
verify --suite qdiff --tol=1/10 | suite qdiff does not read --tol
verify --suite qcalculus --tol=1/10 | suite qcalculus does not read --tol
verify --suite qcalculus --tol=0 | suite qcalculus does not read --tol
verify --suite qcalculus --tol=-1/10 | suite qcalculus does not read --tol
verify --suite qcalculus --n-max=3 | suite qcalculus does not read --n-max
verify --suite commutators --n-max=3 | suite commutators does not read --n-max
verify --suite generating --n-max=3 | suite generating does not read --n-max
verify --suite orthonormality --n-max=3 | suite orthonormality does not read --n-max
poly --n 3 --x 1/2 --tol=abc | unrecognized arguments: --tol=abc
table --what bn --tol=1/10 | unrecognized arguments: --tol=1/10
measure --type jackson --tol=1/10 | unrecognized arguments: --tol=1/10
cs --tol=1/10 | unrecognized arguments: --tol=1/10
"""


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(argv.split(), message, id=argv)
        for argv, message in (
            line.split(" | ") for line in _REFUSALS.strip().splitlines()
        )
    ],
)
def test_refusal_exits_two(capsys, argv, message):
    if message.startswith("unrecognized arguments"):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        usage, error = err.splitlines()
        assert usage.startswith("usage: qhermite2 ")
        assert error == f"qhermite2: error: {message}"
    else:
        assert run_cli(capsys, argv) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize("kind, unprinted", [("h", "psi_eval"), ("psi", "hermite2_coeffs")])
def test_poly_evaluates_only_the_printed_kind(capsys, monkeypatch, kind, unprinted):
    argv = ["poly", "--n", "7", "--x=-13/5", "--q=26/27", f"--kind={kind}"]
    printed = run_cli(capsys, argv)
    assert printed[0] == 0

    def unused(*args):
        raise AssertionError(f"--kind={kind} called {unprinted}")

    monkeypatch.setattr(cli, unprinted, unused)
    assert run_cli(capsys, argv) == printed


def test_suite_defaults_are_declared_once():
    # verify --dim, --order, --x and --bound and measure --bound read the
    # suites' constants; the config echo prints them as 16, 10, 1/2, 40.
    import inspect

    from qhermite2 import suites

    def default(suite, name):
        return inspect.signature(suite).parameters[name].default

    assert (suites.OPERATOR_DIM, suites.GENFN_ORDER) == (16, 10)
    assert (str(suites.GENFN_X), str(suites.SEARCH_BOUND)) == ("1/2", "40")
    assert default(suites.commutators, "dim") is suites.OPERATOR_DIM
    assert default(suites.generating, "order") is suites.GENFN_ORDER
    assert default(suites.generating, "x") is suites.GENFN_X
    assert default(suites.orthonormality, "bound") is suites.SEARCH_BOUND
    parse = cli._build_parser().parse_args
    verify = parse(["verify", "--suite", "generating"])
    assert verify.dim is suites.OPERATOR_DIM
    assert verify.order is suites.GENFN_ORDER
    assert verify.x is suites.GENFN_X
    assert verify.bound is suites.SEARCH_BOUND
    assert parse(["measure", "--type", "extremal"]).bound is suites.SEARCH_BOUND


def test_tolerance_below_double_range(capsys):
    # float(tol) would be 0 here; the tolerance is read exactly, printed
    # as the bound of every row, and the gates then fail at 256 bits.
    code, out, _ = run_cli(capsys, ["verify", "--suite", "moments", "--tol=1e-400", "--format=json"])
    assert code == 1
    assert {row[4] for row in json.loads(out)["rows"]} == {"0." + "0" * 399 + "1"}


def test_suite_parameters_spell_q_exactly(capsys):
    # The parameters column is built from the exact q; the config echo
    # keeps the text as typed.
    code, out, _ = run_cli(capsys, ["verify", "--suite", "unity", "--q=0.5", "--format=json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["q"] == "0.5"
    assert [row[2].split(";")[0] for row in doc["rows"]] == ["q=1/2"] * 8


def test_negative_rational_value_without_equals(capsys):
    # Recorded from `poly --n 7 --x=-13/5 --q=26/27`; the separate value
    # used to exit 2, because argparse read -13/5 as an option.
    code, out, _ = run_cli(capsys, ["poly", "--n", "7", "--x", "-13/5", "--q", "26/27"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "0935bbdb1812a2905b6bdf52b61f7426c541aad1db479272b02e5d2d270647ba"
    )
    joined = run_cli(capsys, ["cs", "--z-re=-3/2", "--z-im=-.25", "--trunc", "20"])
    assert run_cli(capsys, ["cs", "--z-re", "-3/2", "--z-im", "-.25", "--trunc", "20"]) == joined
    assert joined[0] == 0
    # A following option is still not taken as a value.
    assert run_cli(capsys, ["poly", "--n", "7", "--x", "--q", "26/27"])[0] == 2


# At low order several weight hypotheses match every computed order;
# the verdict used to demand that the resolved weight be the first of
# them, and these exited 1: argv, the matches the note names.
_GENERATING_LOW_ORDER = """
--order=0 | as-printed, divided-by-qpochhammer, divided-with-qpower, divided-with-qpower-squared
--order=1 | divided-by-qpochhammer, divided-with-qpower, divided-with-qpower-squared
--order=2 --q=4/5 | divided-by-qpochhammer, divided-with-qpower, divided-with-qpower-squared
"""


@pytest.mark.parametrize(
    "args, matched",
    [
        pytest.param(args.split(), matched, id=args)
        for args, matched in (
            line.split(" | ") for line in _GENERATING_LOW_ORDER.strip().splitlines()
        )
    ],
)
def test_generating_passes_when_several_weights_match(capsys, args, matched):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "generating", *args, "--format=json"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row[:2] == ["check", "resolved-weight-matches-all-orders"]
    assert row[5:] == ["true", f"matched hypotheses: {matched}"]


def _module_state():
    """Sizes of the dict and list attributes of the qhermite2 modules."""
    return {
        (name, attr): len(value)
        for name, module in sorted(sys.modules.items())
        if name.split(".")[0] == "qhermite2"
        for attr, value in vars(module).items()
        if not attr.startswith("__") and isinstance(value, (dict, list))
    }


def test_no_context_outlives_its_job(capsys, monkeypatch):
    # Caches belong in ctx.tables: a module-level cache keyed on the
    # context keeps it, and its tables, alive after the job, and one
    # keyed on q grows with every q.
    made = []

    def recording_context(**kwargs):
        ctx = qhermite2.PrecisionContext(**kwargs)
        made.append(weakref.ref(ctx))
        return ctx

    monkeypatch.setattr(cli, "PrecisionContext", recording_context)
    state = _module_state()
    jobs = (
        ["poly", "--n", "9", "--x", "1/2"],
        ["table", "--what", "bn", "--n-max", "12"],
        ["measure", "--type", "jackson", "--variable", "z-radial"],
        ["measure", "--type", "extremal", "--bound", "3"],
    )
    for q in ("1/3", "2/5", "1/2", "3/5", "2/3", "5/7"):
        for argv in jobs:
            assert run_cli(capsys, argv + [f"--q={q}", "--precision-bits=128"])[0] == 0
    gc.collect()
    assert len(made) == 24
    assert sum(ref() is not None for ref in made) == 0
    assert _module_state() == state


def _run_module(argv):
    """Run the CLI in a fresh interpreter: (exit code, stdout)."""
    # The child imports the package under test, found or not on PYTHONPATH.
    src = str(Path(qhermite2.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qhermite2.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout


def test_module_invocation_round_trip():
    code, out = _run_module(["poly", "--n", "1", "--x", "1"])
    assert code == 0
    assert out.splitlines()[1].startswith("1,1,1,")


def test_reused_parser_matches_fresh_runs(capsys, monkeypatch):
    # One process reuses its parser across jobs, usage errors included.
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps to it
    jobs = [
        ["table", "--what", "bn", "--q=3/10", "--n-max=4"],
        ["verify", "--suite", "nope"],
        ["poly", "--n", "3", "--x=-13/5", "--q=26/27", "--format=json"],
        ["measure", "--type", "jackson", "--k-depth=-3"],
        ["verify", "--suite", "recurrence", "--n-max=3", "--q=1/3"],
        ["cs", "--help"],
        ["cs", "--trunc=20", "--z-re=-3/2", "--z-im=1/4"],
    ]
    in_process = [run_cli(capsys, argv)[:2] for argv in jobs]
    assert [code for code, _ in in_process] == [0, 2, 0, 2, 0, 0, 0]
    assert in_process == [_run_module(argv) for argv in jobs]

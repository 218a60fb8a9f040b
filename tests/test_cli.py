"""End-to-end tests of the command-line interface (subprocess level)."""

from __future__ import annotations

import hashlib
import subprocess
import sys

import pytest

from qpesim.cli import main


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qpesim", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def csv_rows(output: str) -> list[list[str]]:
    return [line.split(",") for line in output.splitlines() if not line.startswith("#")]


class TestEstimate:
    def test_exact_qft_phase(self):
        proc = run_cli("estimate", "--algo", "qft", "--phase", "0.101b", "--bits", "3", "--seed", "1")
        assert proc.returncode == 0
        fields = dict(line.split(None, 1) for line in proc.stdout.splitlines())
        assert fields["bits"] == "101"
        assert fields["error"] == "0"
        assert fields["total_tests"] == "3"

    def test_const_trial_accounting(self):
        proc = run_cli(
            "estimate", "--algo", "const", "--degree", "3", "--phase", "0.703125",
            "--bits", "5", "--eps", "0.05", "--seed", "7",
        )
        assert proc.returncode == 0
        fields = dict(line.split(None, 1) for line in proc.stdout.splitlines())
        assert fields["total_tests"] == "133"  # 19 odd reps times 7 stages

    def test_kitaev_output_length(self):
        proc = run_cli(
            "estimate", "--algo", "kitaev", "--phase", "0.101b", "--bits", "3",
            "--eps", "0.3", "--seed", "3",
        )
        assert proc.returncode == 0
        fields = dict(line.split(None, 1) for line in proc.stdout.splitlines())
        assert len(fields["bits"]) == 5

    def test_json_has_stage_log(self):
        import json

        proc = run_cli(
            "estimate", "--algo", "qft", "--phase", "0.101b", "--bits", "3",
            "--seed", "1", "--format", "json",
        )
        payload = json.loads(proc.stdout)
        assert len(payload["stages"]) == 3
        assert payload["bits"] == "101"

    def test_kitaev_json_stage_log(self):
        import json

        proc = run_cli(
            "estimate", "--algo", "kitaev", "--phase", "0.101b", "--bits", "3",
            "--eps", "0.3", "--seed", "3", "--format", "json",
        )
        stages = json.loads(proc.stdout)["stages"]
        assert [s["stage"] for s in stages] == [1, 2, 3]
        assert all({"sin_estimate", "cos_estimate", "beta"} <= set(s) for s in stages)

    def test_random_phase_is_seeded(self):
        a = run_cli("estimate", "--algo", "qft", "--phase", "random", "--bits", "4", "--seed", "9")
        b = run_cli("estimate", "--algo", "qft", "--phase", "random", "--bits", "4", "--seed", "9")
        c = run_cli("estimate", "--algo", "qft", "--phase", "random", "--bits", "4", "--seed", "10")
        assert a.stdout == b.stdout
        assert a.stdout != c.stdout

    def test_oracle_feedback_flag(self):
        proc = run_cli(
            "estimate", "--algo", "const", "--phase", "0.703125", "--bits", "5",
            "--seed", "2", "--feedback", "oracle",
        )
        assert proc.returncode == 0


class TestUsageErrors:
    def test_degree_rejected_for_qft(self):
        proc = run_cli("estimate", "--algo", "qft", "--phase", "0.1", "--bits", "3", "--degree", "4")
        assert proc.returncode == 1
        assert "--degree" in proc.stderr

    def test_eps_rejected_for_qft(self):
        proc = run_cli("estimate", "--algo", "qft", "--phase", "0.1", "--bits", "3", "--eps", "0.1")
        assert proc.returncode == 1

    def test_aqft_requires_degree(self):
        proc = run_cli("estimate", "--algo", "aqft", "--phase", "0.1", "--bits", "3")
        assert proc.returncode == 1
        assert "--degree" in proc.stderr

    def test_unknown_algo(self):
        proc = run_cli("estimate", "--algo", "qpe", "--phase", "0.1", "--bits", "3")
        assert proc.returncode == 1

    def test_feedback_rejected_for_kitaev(self):
        proc = run_cli(
            "estimate", "--algo", "kitaev", "--phase", "0.1", "--bits", "3",
            "--feedback", "oracle",
        )
        assert proc.returncode == 1

    def test_bad_phase_literal(self):
        proc = run_cli("estimate", "--algo", "qft", "--phase", "1.25", "--bits", "3")
        assert proc.returncode == 1
        assert "error" in proc.stderr


class TestExtremeBudgets:
    @pytest.mark.parametrize(
        "args",
        [
            ("estimate", "--algo", "const", "--bits", "4", "--degree", "2000", "--phase", "0.5"),
            ("estimate", "--algo", "kitaev", "--bits", "4", "--eps", "1e-320", "--phase", "0.5"),
            ("estimate", "--algo", "const", "--bits", "4", "--eps", "1e-320", "--phase", "0.5"),
            ("compare", "--eps-list", "1e-320"),
        ],
        ids=["const-degree-2000", "kitaev-eps-1e-320", "const-eps-1e-320", "compare-eps-1e-320"],
    )
    def test_error_line_not_traceback(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert "qpesim: error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_underflowing_per_bit_budget_named(self):
        # 5e-324 lies in (0, 1), but its share eps/4 of one bit underflows to 0
        proc = run_cli("estimate", "--algo", "const", "--bits", "4", "--eps", "5e-324", "--phase", "0.5")
        assert proc.returncode == 1
        assert "failure budget too small: the trial count overflows" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestTable:
    def test_default_rows(self):
        proc = run_cli("table", "--format", "csv")
        rows = csv_rows(proc.stdout)
        assert rows[0] == ["success_prob", "eps", "kitaev_trials", "const_precision_trials"]
        budget_columns = [(row[2], row[3]) for row in rows[1:]]
        assert budget_columns == [
            ("98", "3"), ("120", "5"), ("211", "13"), ("344", "24"), ("515", "39"),
        ]

    def test_single_probability(self):
        proc = run_cli("table", "--probs", "0.5", "--format", "csv")
        assert csv_rows(proc.stdout)[1][2:] == ["98", "3"]

    def test_exact_constants(self):
        proc = run_cli("table", "--probs", "0.5", "--exact-constants", "--format", "csv")
        assert csv_rows(proc.stdout)[1][2:] == ["97", "3"]


class TestCompare:
    def test_pinned_row(self):
        proc = run_cli("compare", "--eps-list", "0.0027")
        rows = csv_rows(proc.stdout)
        assert rows[0] == ["eps", "kitaev_trials", "const_precision_trials", "ratio"]
        assert rows[1][1:3] == ["344", "24"]

    def test_default_grid_monotone(self):
        proc = run_cli("compare")
        rows = csv_rows(proc.stdout)[1:]
        assert len(rows) == 27
        kitaev = [int(row[1]) for row in rows]
        const = [int(row[2]) for row in rows]
        assert kitaev == sorted(kitaev)
        assert const == sorted(const)

    def test_ratio_column_decays(self):
        proc = run_cli("compare")
        ratios = [float(row[3]) for row in csv_rows(proc.stdout)[1:]]
        assert ratios[0] > ratios[-1]
        assert abs(ratios[-1] - 11.75) / 11.75 < 0.05


class TestMonteCarlo:
    def test_csv_deterministic(self):
        args = (
            "montecarlo", "--algo", "const", "--bits", "4", "--runs", "10",
            "--seed", "5", "--format", "csv",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_summary_fields(self):
        proc = run_cli(
            "montecarlo", "--algo", "qft", "--bits", "3", "--runs", "25",
            "--seed", "1", "--format", "csv",
        )
        rows = csv_rows(proc.stdout)
        assert rows[0] == ["run", "phi", "success", "tests"]
        assert len(rows) == 26
        summary = proc.stdout.splitlines()[-1]
        assert summary.startswith("# summary:") and "wilson95" in summary

    def test_qft_success_rate(self):
        proc = run_cli(
            "montecarlo", "--algo", "qft", "--bits", "6", "--runs", "400",
            "--seed", "0", "--format", "csv",
        )
        rows = csv_rows(proc.stdout)[1:]
        rate = sum(int(row[2]) for row in rows) / len(rows)
        assert rate >= 0.79  # well above the 8/pi^2 worst case minus noise

    def test_kitaev_even_reps_round_up(self):
        # two trials per basis can read exactly one half in both bases, an
        # indeterminate angle; --reps rounds up to odd as for the other algos
        args = ("montecarlo", "--algo", "kitaev", "--bits", "8", "--runs", "50", "--seed", "0")
        even = run_cli(*args, "--reps", "2")
        assert even.returncode == 0, even.stderr
        assert len(even.stdout.splitlines()) == 50 + 2
        assert even.stdout == run_cli(*args, "--reps", "3").stdout

    def test_fixed_phase_runs(self):
        proc = run_cli(
            "montecarlo", "--algo", "kitaev", "--bits", "3", "--runs", "5",
            "--phase", "0.101b", "--seed", "2", "--format", "csv",
        )
        rows = csv_rows(proc.stdout)[1:]
        assert all(row[1] == "0.625" for row in rows)
        assert all(row[2] == "1" for row in rows)


# sha256 of the stdout of montecarlo --bits 8 --phase 0.703125 --runs 300
# --seed 7 with the extra arguments and format below, recorded before the
# semiclassical engine reused stage objects across runs on the same phase.
FIXED_PHASE_GOLDEN = {
    ("qft", "table"): "9cbc04574114e23d52ce5129d97d7ebf18d8c6d6d1fb840b3181b779bc2fb9f9",
    ("qft", "json"): "1b11b9088cc26847a3c28fdc0f194c5edf05b4e5c97c78bb38cedd9ff64ee92c",
    ("aqft --degree 3", "table"): "ffa9094de233af6eff0f8fdf6ce61650fb8ede191342b1e205095682bcbaf30f",
    ("aqft --degree 3", "json"): "af5bb8a15f0b51dcf8f1a86f2942d361b596ecb390b9e2673ea1c7672da3d075",
    ("const", "table"): "f8048e4b229843c7e96c74172512171f98f1e0ea467ab9009169996836f2c3b9",
    ("const", "json"): "d70d63c26becc9e56f19935dbc0fbce9f20c1c2c898e73cbe7bfbf421a23062b",
    ("const --feedback oracle --guard 3", "table"):
        "588d92c8955475756c853dc83656de299f04c5963c0a30899d780b8eec694c6a",
    ("const --feedback oracle --guard 3", "json"):
        "0214b2487749c328a286fa85daf73833e67cccf4dfb76d06ae01e7346b560616",
}


class TestFixedPhaseGolden:
    """Fixed-phase campaigns, where runs revisit the engine states earlier runs reached.

    Run in process through ``main`` (the bytes match a subprocess run) to
    keep the suite fast.
    """

    @pytest.mark.parametrize(
        "algo,fmt", [pytest.param(*key, id=" ".join(key)) for key in FIXED_PHASE_GOLDEN]
    )
    def test_output_matches_golden(self, algo, fmt, capsys):
        argv = [
            "montecarlo", "--bits", "8", "--phase", "0.703125", "--runs", "300",
            "--seed", "7", "--format", fmt, "--algo", *algo.split(),
        ]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == FIXED_PHASE_GOLDEN[algo, fmt]


# sha256 of the stdout of estimate --bits 8 --seed 7 --format json with the
# phase and extra arguments below, recorded before the semiclassical engine
# built its stage records lazily.  This is the one output that serialises
# every stage record.
ESTIMATE_JSON_GOLDEN = {
    ("0.703125", "qft"): "d1654709f62886c900135cad372d7c4945f09b51272825a996d3fdfa79d92759",
    ("0.703125", "aqft --degree 3"):
        "bfc8fad692293814110d66305e9935ad425120cf25cadd8567462d8f4f5c4eba",
    ("0.703125", "const"): "fcd945d0d7a50c6cf377464728e9b6a2454b6f2690c1422d6c7eb204224eca2b",
    ("0.703125", "const --feedback oracle --guard 3"):
        "ed211a3d053a6776bc2cb0422c8146154a8917856f75b451525af295cf7735e9",
    ("random", "const"): "e6abaf79919ad811d7dc4270eb04b4738d6ae8cbfbd64d17815798c9533fc0a6",
}


class TestEstimateJsonGolden:
    """The per-stage records of single runs, as ``estimate --format json`` prints them."""

    @pytest.mark.parametrize(
        "phase,algo", [pytest.param(*key, id=" ".join(key)) for key in ESTIMATE_JSON_GOLDEN]
    )
    def test_output_matches_golden(self, phase, algo, capsys):
        argv = [
            "estimate", "--bits", "8", "--phase", phase, "--seed", "7",
            "--format", "json", "--algo", *algo.split(),
        ]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == ESTIMATE_JSON_GOLDEN[phase, algo]


class TestValidate:
    def test_passes_with_reasonable_samples(self):
        proc = run_cli("validate", "--bits", "4", "--samples", "4000", "--seed", "0")
        assert proc.returncode == 0
        assert "overall" in proc.stdout and "FAIL" not in proc.stdout

    def test_undersampled_check_fails_with_code_two(self):
        # 30 samples legitimately miss the concentration limit for this seed
        proc = run_cli(
            "validate", "--bits", "1", "--samples", "30", "--phase", "0.25", "--seed", "4"
        )
        assert proc.returncode == 2
        assert "FAIL" in proc.stdout

    def test_rejects_large_register(self):
        proc = run_cli("validate", "--bits", "12")
        assert proc.returncode == 1

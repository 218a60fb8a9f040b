"""End-to-end tests of the command-line interface (subprocesses, and in process via ``main``)."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpesim
from qpesim import cli, estimators, kitaev, sampling
from qpesim.cli import _ALGOS, _emit, _fmt, _random_phase, _run_setup, build_parser, main
from qpesim.estimators import EstimatorConfig, constant_precision_config
from qpesim.kitaev import KitaevConfig, trials_per_basis
from qpesim.sampling import RngSeed, make_generator
from reference import reference_generator, reference_run_stream


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qpesim", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def csv_rows(output: str) -> list[list[str]]:
    return [line.split(",") for line in output.splitlines() if not line.startswith("#")]


def exit_code(argv: list[str]) -> int:
    """``main``'s exit code, whether it returns it or a usage error raises SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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

    def test_kitaev_reads_the_phase_width(self):
        # a raw@width literal runs kitaev at that width, as it runs qft
        proc = run_cli("estimate", "--algo", "kitaev", "--bits", "2", "--phase", "181@8")
        assert proc.returncode == 0 and proc.stderr == ""
        fields = dict(line.split(None, 1) for line in proc.stdout.splitlines())
        assert fields["phase"] == "0.70703125"
        assert len(fields["bits"]) == 4
        # 5 stitched bits do not fit below width 8 less the 4 guard bits
        proc = run_cli("estimate", "--algo", "kitaev", "--bits", "3", "--phase", "181@8")
        assert proc.returncode == 1
        assert proc.stderr == "qpesim: error: configuration needs 5 significant bits; width 8 allows 4\n"

    def test_semiclassical_engine_names_the_same_bit_budget(self, capsys):
        # full QFT at n = 3 needs 3 stages plus a 2-bit window, the 5 bits kitaev needs above
        assert main(["estimate", "--algo", "qft", "--bits", "3", "--phase", "181@8"]) == 1
        assert capsys.readouterr().err == (
            "qpesim: error: configuration needs 5 significant bits; width 8 allows 4\n"
        )

    def test_bit_budget_allowance_is_never_negative(self, capsys):
        # width 1 less the 4 guard bits leaves no bit to allow, not -3
        assert main(["validate", "--phase", "1@1"]) == 1
        assert capsys.readouterr().err == (
            "qpesim: error: configuration needs 9 significant bits; width 1 allows 0\n"
        )

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

    def test_csv_lists_the_stitch_warnings(self, capsys):
        # the same run's table prints the warning on a "warning" line
        argv = ["estimate", "--algo", "kitaev", "--bits", "8", "--reps", "1", "--seed", "0"]
        assert main([*argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "algo,phase,bits,estimate,error,success,total_tests",
            "kitaev,0.942937552883,1111000101,0.9423828125,0.000554740382879,1,16",
            "# warning: stage 6: candidates equidistant from snapped estimate, chose 0",
        ]
        assert main(argv) == 0
        assert "warning     stage 6: candidates equidistant" in capsys.readouterr().out

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


class TestClosedPipe:
    def test_reader_closing_early_is_quiet(self):
        # read one line, then close the pipe as `| head -1` does; the rows
        # overflow the pipe buffer, so the CLI is still writing at the close
        proc = subprocess.Popen(
            [sys.executable, "-m", "qpesim", "montecarlo", "--algo", "qft", "--bits", "4",
             "--runs", "20000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().split() == [b"run", b"phi", b"success", b"tests"]
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert stderr == b""


class TestRandomPhase:
    def test_raw_word_matches_bounded_draw(self):
        # integers(0, 2**64, dtype=uint64) returns the raw word unchanged, and
        # both leave the generator in the same state
        for seed in range(1000):
            rng, twin = make_generator(RngSeed(seed, 3)), make_generator(RngSeed(seed, 3))
            assert _random_phase(rng).raw == int(twin.integers(0, 1 << 64, dtype=np.uint64))
            assert rng.bit_generator.state == twin.bit_generator.state


class TestExtremeBudgets:
    @pytest.mark.parametrize(
        "args",
        [
            ("estimate", "--algo", "const", "--bits", "4", "--degree", "2000", "--phase", "0.5"),
            ("estimate", "--algo", "const", "--bits", "4", "--eps", "1e-400", "--phase", "0.5"),
            ("estimate", "--algo", "qft", "--bits", "3", "--phase", "1@20000000000"),
        ],
        ids=["const-degree-2000", "const-eps-underflows-to-0", "phase-width-2e10"],
    )
    def test_error_line_not_traceback(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert "qpesim: error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["estimate", "montecarlo"])
    @pytest.mark.parametrize("algo", ["qft", "const", "kitaev"])
    def test_bits_past_the_largest_double_named(self, command, algo, capsys):
        # const's budget divides the bit count by eps, which overflows a double;
        # the count is taken in logs and the bit budget then rejects the run
        argv = [command, "--algo", algo, "--bits", "9" * 400]
        if command == "montecarlo":
            argv += ["--runs", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qpesim: error: configuration needs ")
        assert captured.err.endswith(" significant bits; width 64 allows 60\n")

    def test_budgets_whose_quotient_overflows_are_counted(self, capsys):
        # c / eps overflows to inf below about c / 1.8e308; the counts are those of
        # ln(c / eps) taken exactly (kitaev m1 = ceil(23.5 ln(16 / 1e-320)) = 17381)
        assert main(["compare", "--eps-list", "1e-307,1e-310,1e-320"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert [row[1:3] for row in rows] == [["33290", "2828"], ["33614", "2856"], ["34697", "2948"]]
        for args, tests in [
            (("--algo", "kitaev", "--bits", "4", "--eps", "1e-320", "--phase", "0.5"), 2 * 17381 * 4),
            (("--algo", "const", "--bits", "3", "--eps", "1e-320", "--phase", "0.3"), 2953 * 5),
        ]:
            assert main(["estimate", *args]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert f"total_tests {tests}\n" in captured.out

    @pytest.mark.parametrize(
        "args",
        [
            ("--bits", "4", "--eps", "2"),
            ("--bits", "2", "--eps", "1.5", "--reps", "3"),
        ],
        ids=["eps-2", "eps-1.5-reps-3"],
    )
    def test_const_budget_outside_unit_interval(self, args, capsys):
        # eps / n lies in (0, 1), but the overall failure budget does not
        assert main(["estimate", "--algo", "const", "--phase", "0.5", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qpesim: error: failure budget must lie in (0, 1)\n"

    @pytest.mark.parametrize("algo", ["kitaev", "const"])
    def test_reps_above_cap_named(self, algo):
        # a --reps past the cap would run unbounded; it is a usage error instead.
        # The cap is odd, so 10**7, which would round up to 10**7 + 1, is past it.
        for reps in ("1000000000000000000000", "10000000"):
            proc = run_cli(
                "estimate", "--algo", algo, "--bits", "4", "--reps", reps, "--phase", "0.5"
            )
            assert proc.returncode == 1
            assert proc.stderr.splitlines()[-1] == (
                "qpesim estimate: error: --reps must be at most 9999999"
            )
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "phase,message",
        [
            ("5" * 5000 + "@8", "raw value of 5000 digits out of range for width 8"),
            ("1@" + "5" * 5000, "phase literal width exceeds the cap of 4096 bits"),
            ("0." + "1" * 4999, "decimal phase literal of 5000 digits exceeds the cap of 4096 digits"),
            ("1e-9999999", "decimal phase literal's exponent exceeds the cap of 4096 in magnitude"),
        ],
        ids=["raw-5000-digits", "width-5000-digits", "decimal-5000-digits", "decimal-exponent"],
    )
    def test_huge_raw_literal_named(self, phase, message, capsys):
        # not CPython's int() advice on its 4300-digit limit
        assert main(["estimate", "--algo", "qft", "--bits", "3", "--phase", phase]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qpesim: error: {message}\n"

    def test_underflowing_per_bit_budget_counted(self, capsys):
        # 5e-324 lies in (0, 1), but its share eps/4 of one bit underflows to 0;
        # the share is the factor 4 in the tail's constant, 4 ln(4 / 5e-324) =
        # 2983.3, so 2985 votes (odd) on each of 4 + 2 guard stages
        assert main(["estimate", "--algo", "const", "--bits", "4", "--eps", "5e-324", "--phase", "0.5"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "total_tests 17910\n" in captured.out


class TestDefaultConfigs:
    def _config(self, algo: str):
        parser = build_parser()
        return _run_setup(parser, parser.parse_args(["estimate", "--algo", algo, "--bits", "16"]))

    def test_const_is_the_library_default(self):
        phi, cfg = self._config("const")
        assert phi is None
        assert cfg == constant_precision_config(16)
        assert (cfg.reps, cfg.guard) == (25, 2)

    def test_kitaev_is_the_library_default(self):
        # eps 0.05: ceil(23.5 * ln(4 * 16 / 0.05)) = 169 per basis
        _, cfg = self._config("kitaev")
        assert cfg == KitaevConfig(16)
        assert trials_per_basis(cfg) == 169


class TestTracerContract:
    """The engines and predicates are looked up by name on every run.

    perfbench/tracer.py wraps a function under every name that holds it in
    every loaded qpesim module; a function object stored elsewhere (in a
    table, a default argument or a closure) would escape it.
    """

    @pytest.mark.parametrize("algo", ["kitaev", "qft", "aqft --degree 3", "const"])
    def test_engine_and_predicate_seen_once_per_run(self, algo, monkeypatch, capsys):
        counts = {"engine": 0, "predicate": 0}

        def counted(kind, original):
            def wrapper(*args, **kwargs):
                counts[kind] += 1
                return original(*args, **kwargs)

            return wrapper

        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "qpesim"]
        for home, name, kind in [
            (estimators, "semiclassical_estimate", "engine"),
            (estimators, "is_success", "predicate"),
            (kitaev, "kitaev_estimate", "engine"),
            (kitaev, "within_guarantee", "predicate"),
        ]:
            original = getattr(home, name)
            wrapper = counted(kind, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
        argv = ["montecarlo", "--algo", *algo.split(), "--bits", "4", "--runs", "5"]
        assert main(argv) == 0
        capsys.readouterr()
        assert counts == {"engine": 5, "predicate": 5}


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

    def test_empty_probability_list_rejected(self, capsys):
        # an explicitly empty list is not the default table
        assert exit_code(["table", "--probs="]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: qpesim table ")
        assert captured.err.splitlines()[-1] == (
            "qpesim table: error: --probs must be a comma-separated list of floats"
        )

    def test_vanishing_success_probability_named(self, capsys):
        # 1 - 1e-320 rounds to 1.0, a failure budget the user never gave
        assert main(["table", "--probs", "1e-320"]) == 1
        err = capsys.readouterr().err
        assert "success probability 1e-320 too small" in err
        assert "failure budget" not in err


class TestCompare:
    def test_pinned_row(self):
        proc = run_cli("compare", "--eps-list", "0.0027")
        rows = csv_rows(proc.stdout)
        assert rows[0] == ["eps", "kitaev_trials", "const_precision_trials", "ratio"]
        assert rows[1][1:3] == ["344", "24"]

    def test_empty_eps_list_rejected(self, capsys):
        # an explicitly empty list is not the default grid
        assert exit_code(["compare", "--eps-list="]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: qpesim compare ")
        assert captured.err.splitlines()[-1] == (
            "qpesim compare: error: --eps-list must be a comma-separated list of floats"
        )

    def test_points_above_cap_named(self, capsys):
        # a grid past the cap would be built whole before any row prints
        assert exit_code(["compare", "--points", "100000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: qpesim compare ")
        assert captured.err.splitlines()[-1] == "qpesim compare: error: --points must be at most 1000000"

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_bad_eps_anywhere_prints_no_row(self, fmt, capsys):
        # the whole grid is checked before the first row is printed
        assert exit_code(["compare", "--eps-list", "0.1,0.2,1.5", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "qpesim compare: error: eps values must lie in (0, 1)"

    def test_rows_print_as_they_are_built(self, monkeypatch, capsys):
        # a budget that fails on the third eps leaves the first two rows printed
        calls = []

        def budget(eps, mode):
            calls.append(eps)
            if len(calls) == 3:
                raise RuntimeError("third row")
            return 100

        monkeypatch.setattr(cli, "kitaev_trials_per_bit", budget)
        with pytest.raises(RuntimeError, match="third row"):
            main(["compare", "--eps-list", "0.1,0.2,0.3", "--format", "csv"])
        assert capsys.readouterr().out.splitlines() == [
            "eps,kitaev_trials,const_precision_trials,ratio", "0.1,100,10,10", "0.2,100,7,14.2857142857"
        ]

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

    def test_runs_above_cap_named(self, capsys):
        # every row is held until the last run ends, so an uncapped count grows memory unbounded
        assert exit_code(["montecarlo", "--algo", "qft", "--bits", "4", "--runs", "1000001"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: qpesim montecarlo ")
        assert captured.err.splitlines()[-1] == (
            "qpesim montecarlo: error: --runs must be at most 1000000"
        )

    @pytest.mark.parametrize(
        "algo,block", [("qft --bits 3", None), ("const --bits 4", 7), ("kitaev --bits 3", 5)]
    )
    def test_rows_match_the_per_run_reference(self, algo, block, monkeypatch, capsys):
        # a random-phase campaign past a block boundary prints, row for row,
        # what each run gives on a generator keyed by numpy's SeedSequence
        if block is not None:
            monkeypatch.setattr(sampling, "_BLOCK", block)
        runs = sampling._BLOCK + 5
        argv = ["montecarlo", "--algo", *algo.split(), "--runs", str(runs), "--seed", "11", "--format", "csv"]
        assert main(argv) == 0
        rows = csv_rows(capsys.readouterr().out)[1:]
        parser = build_parser()
        _, cfg = _run_setup(parser, parser.parse_args(argv))
        want = []
        for index in range(runs):
            rng = reference_generator(11, reference_run_stream(0, index))
            phi = _random_phase(rng)
            result, ok = cfg.run(phi, rng)
            want.append([str(index), _fmt(phi.value), str(int(ok)), str(result.total_tests)])
        assert rows == want

    @pytest.mark.parametrize(
        "algo,phase,shared",
        [
            ("qft --bits 4", "0.703125", True),
            ("aqft --bits 4 --degree 3", "0.3", True),
            ("const --bits 4", "0.3", True),
            ("qft --bits 4", "random", False),
        ],
    )
    def test_fixed_phase_runs_share_one_stage_table(self, algo, phase, shared, monkeypatch, capsys):
        tables = []
        engine = estimators.semiclassical_estimate

        def spy(phi, cfg, rng, table=None):
            tables.append(table)
            return engine(phi, cfg, rng, table)

        monkeypatch.setattr(estimators, "semiclassical_estimate", spy)
        assert main(["montecarlo", "--algo", *algo.split(), "--phase", phase, "--runs", "5"]) == 0
        capsys.readouterr()
        assert len(tables) == 5
        if shared:
            assert isinstance(tables[0], estimators.StageTable) and tables[0].leaves
            assert all(table is tables[0] for table in tables)
        else:
            assert tables == [None] * 5

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
# built its stage records lazily (the kitaev entries: before the Kitaev
# stitch ran on one integer).  This is the one output that serialises every
# stage record, and for kitaev every StageEstimate field.
ESTIMATE_JSON_GOLDEN = {
    ("0.703125", "qft"): "d1654709f62886c900135cad372d7c4945f09b51272825a996d3fdfa79d92759",
    ("0.703125", "aqft --degree 3"):
        "bfc8fad692293814110d66305e9935ad425120cf25cadd8567462d8f4f5c4eba",
    ("0.703125", "const"): "fcd945d0d7a50c6cf377464728e9b6a2454b6f2690c1422d6c7eb204224eca2b",
    ("0.703125", "const --feedback oracle --guard 3"):
        "ed211a3d053a6776bc2cb0422c8146154a8917856f75b451525af295cf7735e9",
    ("random", "const"): "e6abaf79919ad811d7dc4270eb04b4738d6ae8cbfbd64d17815798c9533fc0a6",
    ("0.703125", "kitaev"): "3936653643c7aad9558d49bda799e499cc46730af7b67db990fc1fa72410f059",
    ("random", "kitaev"): "b8cb0e36ffb03c8f946680f45db1627b831ef57eb19fb9f5076f97125c617704",
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


# sha256 of the stdout of estimate --bits 16 --seed 0 --format json at the
# raw@width phases below, recorded before phase integers were scaled to
# floats with math.ldexp.  Every width here is past the ldexp limit, 1022
# (1023 by one), so these pin the division path; the width-64 goldens above
# pin the ldexp path.
WIDE_PHASE_GOLDEN = {
    ("5@2000", "kitaev"): "584aac63b6910c6efc7692b52699cdc1c1f68c6ceeb45726770c317cfb5cf7b1",
    ("123456789@1023", "kitaev"): "9502e4a263716ad3c63137d421e8c65a6a752387b360d6a678648cdc84f15d7b",
    ("98765@1024", "kitaev"): "38fb7309a3fba2b26c2c030ac08bc95877494af9ca9aec25888d14e80610fc27",
    ("5@2000", "const"): "59c0b367a18056b50080dcf3b74c0c475577d0ac78b2ef9480d25e23f4ff92f9",
    ("123456789@1023", "const"): "304eb5392ce8f47959fc027a714014670a8649f901adc209d088c4ea554d73fd",
    ("98765@1024", "const"): "202d4b368e35547a6dce769c018344ef2c8dbd1e4c21fef1595f45fa87e1ff73",
    ("5@2000", "qft"): "4529d2cb3fb35f4580cbe961046c93c4fdb17be1552a0e2fcbe7ce8bd4b2c9d2",
    ("123456789@1023", "qft"): "bed9ce1c76e0e6089343f66684ee35f1920517fc9eb5575ed3303470da1732f4",
    ("98765@1024", "qft"): "da77152c233e916cc809e01b4c15edd15550bcb7eae2c235573c6383e674f705",
}


class TestWidePhaseGolden:
    @pytest.mark.parametrize(
        "phase,algo", [pytest.param(*key, id=" ".join(key)) for key in WIDE_PHASE_GOLDEN]
    )
    def test_output_matches_golden(self, phase, algo, capsys):
        argv = [
            "estimate", "--bits", "16", "--phase", phase, "--seed", "0",
            "--format", "json", "--algo", algo,
        ]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == WIDE_PHASE_GOLDEN[phase, algo]


# sha256 of the stdout of montecarlo --algo kitaev --bits 8 --runs 200 --seed 7
# (random phases) in each format, recorded before the Kitaev stitch ran on
# one integer and the random phase was drawn as one raw word.
KITAEV_MONTECARLO_GOLDEN = {
    "json": "514c158fc07e1c00094b2330bd11f39b6ee0fafe070e02e506bc6b6fe7a46e77",
    "csv": "6e121403a3db121e8a11fbaa8d897f67c505074eab472dc7473e390a2e00f720",
}


class TestKitaevMonteCarloGolden:
    @pytest.mark.parametrize("fmt", list(KITAEV_MONTECARLO_GOLDEN))
    def test_output_matches_golden(self, fmt, capsys):
        argv = [
            "montecarlo", "--algo", "kitaev", "--bits", "8", "--runs", "200",
            "--seed", "7", "--format", fmt,
        ]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == KITAEV_MONTECARLO_GOLDEN[fmt]


# sha256 of the stdout of each command line below, recorded before the
# commands shared one row emitter and the CLI built its configs through the
# library's builders: table and compare in every format (default and exact
# budget coefficient), estimate table/csv, and the montecarlo formats the
# goldens above leave out.
_ESTIMATE = "estimate --bits 8 --phase 0.703125 --seed 7 --algo "
_FIXED_MC = "montecarlo --bits 8 --phase 0.703125 --runs 300 --seed 7 --format csv --algo "
COMMAND_GOLDEN = {
    "table --format table": "a494e8b8e9478389cf5b89bdbf75432f8f76d9446e527ae9a86b900221fcb587",
    "table --format csv": "f380ab334a811814cf35635a4a1d93c5bd4466f56507c61fe2693bcce1f57490",
    "table --format json": "ae52b39fd09dda6576a76ded4cfc8afce1f4ef97209e1ae469d14589c948e11b",
    "table --format table --exact-constants":
        "c5cd8fa51305b26689e0805e06d9699df501c79dc0867f1ec8c9dcbd03eef52c",
    "table --format csv --exact-constants":
        "181ed02504c4446b62df38bb13c4b371f2c1acabaee4b5da1d81a6b1163a2d62",
    "table --format json --exact-constants":
        "4f3bf0268e12e421631d034fc54c1af7fbd567658cbbbec952b9887b852bb1ff",
    "compare --format table": "efe8282394e0577ec736b87c7d43434fb2b330a1a17303c59f946e7f6014c8af",
    "compare --format csv": "a3c33504c29b1cb3f7adb3307339c2167a5616a67554ec974a6ebbd3d0d953ae",
    "compare --format json": "20d4ed43f84709c8dd188eb8cd6ffdcc1cc9f75d5bf5368254341756a3fa0205",
    "compare --format table --exact-constants":
        "c105721c6b01da62b416448ae233202efb3eee4024e028f83ad33c3f5145db11",
    "compare --format csv --exact-constants":
        "58d7edd17f2d9ce4e8d27a2a86dfa5add714c10684bf29067e14c4cde1970f60",
    "compare --format json --exact-constants":
        "e2325118193cb7d453150ea91eaac6c9fa2478f50058902db3de996feb83c3e1",
    _ESTIMATE + "qft --format table": "f8ea7e936718b3fd2ea8058b70fe113106af06b6914ffc10fea0816df8553f46",
    _ESTIMATE + "qft --format csv": "67e86ba0cd63df2ad8214b6ffad6e4abe5a8cfa079c19912b9581bcadd247767",
    _ESTIMATE + "aqft --degree 3 --format table":
        "b44c538c750d8adbea418a3c9480b598bd6216b703eeef7e5732e266301f680e",
    _ESTIMATE + "aqft --degree 3 --format csv":
        "a0b3b498df807e86948c8f0d17da1c676b5eaccb023f2ed6b99c519da823e4f3",
    _ESTIMATE + "const --format table": "1cce33be2f0ca907c0f2b77eeda686bbf673437118edd8afe1e638ec1bb59152",
    _ESTIMATE + "const --format csv": "a809b7811edc0f57e41a36c9aa53793cae732b9401281b887ba137ffe30fbe43",
    _ESTIMATE + "kitaev --format table": "d98a12a08b7996f3704aecd9c77022dc47df35e0325a1d5ad058c0369be7bf84",
    _ESTIMATE + "kitaev --format csv": "c5921bbd06b0fafd3ac83198dd360bb19ba0f0bf78c98e16a94fa8be493e8dc4",
    _ESTIMATE + "kitaev --exact-constants --format table":
        "7079a43575ebb03bb4303fac057867932cf852efc09fd93f5fdc1d889538b577",
    _ESTIMATE + "kitaev --exact-constants --format csv":
        "0b6b45bff0a983e042dea85493256545b50e37216b3286b1231f334d9f20bd0c",
    _FIXED_MC + "qft": "d1ead574df2b1cc1374df075b8e25d5ed224e29f8628f9e991684ba083f010d0",
    _FIXED_MC + "aqft --degree 3": "8621670b45ba5f13e8d71fb742879d49980e903813ad6994701472511d8d0f08",
    _FIXED_MC + "const": "0bfb808e483d739cb900fefa8a9cff026c14beabcc616f08c0cf5c8f8a3fbacd",
    _FIXED_MC + "const --feedback oracle --guard 3":
        "ab08b280bceb992a211e8a622325c43ecb93f5e7ea5c65dad1665dc8a23d440a",
    "montecarlo --algo kitaev --bits 8 --runs 200 --seed 7 --format table":
        "3bb865b5126b8ce052111a4efb5da041f77d38d5b3b552518a209d9407663188",
}


class TestJsonEmitter:
    @pytest.mark.parametrize(
        "rows",
        [[], [(0, "0.5", 1.25)], [(i, f"{i / 7:.6f}", i / 3) for i in range(5)] + [(5, "x", float("inf"))]],
        ids=["no rows", "one row", "several rows"],
    )
    @pytest.mark.parametrize(
        "summary",
        [None, ("runs=6", {"runs": 6, "rate": 0.5, "wilson95": [0.1, 0.9], "nested": {"a": []}})],
        ids=["list", "with summary"],
    )
    def test_matches_json_dumps(self, rows, summary, capsys):
        columns = [("index", "index", 6), ("phase", "phase", 10), ("value", "value", 8)]
        _emit("json", columns, rows, None if summary is None else lambda: summary)
        objects = [dict(zip(("index", "phase", "value"), row)) for row in rows]
        payload = objects if summary is None else {"rows": objects, "summary": summary[1]}
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


class TestMontecarloStreams:
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_each_row_is_written_before_the_next_run(self, fmt, monkeypatch):
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        seen = []
        run = EstimatorConfig.run

        def counted(*args):
            seen.append(out.getvalue())
            return run(*args)

        monkeypatch.setattr(EstimatorConfig, "run", counted)
        assert main(["montecarlo", "--algo", "qft", "--bits", "4", "--runs", "4", "--format", fmt]) == 0
        # run k starts with the rows of runs 0 .. k - 1 on stdout, and nothing
        # is written before the first run
        rows = [text.count('"run": ') if fmt == "json" else len(text.splitlines()) - 1 for text in seen]
        assert seen[0] == "" and rows[1:] == [1, 2, 3]
        assert "summary" not in seen[3]


class TestCommandGolden:
    @pytest.mark.parametrize("command", list(COMMAND_GOLDEN))
    def test_output_matches_golden(self, command, capsys):
        assert main(command.split()) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == COMMAND_GOLDEN[command]


# Each optional flag an algo rejects, with the message recorded before the
# usage errors were generated from a per-algo table of accepted flags.
REJECTED_FLAGS = {
    ("kitaev", "--degree 3"): "--degree applies only to aqft/const",
    ("kitaev", "--feedback oracle"): "--feedback applies only to qft/aqft/const",
    ("kitaev", "--guard 1"): "--guard applies only to qft/aqft/const",
    ("qft", "--degree 3"): "--degree applies only to aqft/const",
    ("qft", "--eps 0.1"): "--eps applies only to kitaev/const",
    ("qft", "--exact-constants"): "--exact-constants applies only to kitaev",
    ("aqft --degree 3", "--eps 0.1"): "--eps applies only to kitaev/const",
    ("aqft --degree 3", "--exact-constants"): "--exact-constants applies only to kitaev",
    ("const", "--exact-constants"): "--exact-constants applies only to kitaev",
    ("aqft", "--reps 3"): "--degree is required for aqft",
    ("qft", "--reps 0"): "--reps must be positive",
    ("const", "--guard -1"): "--guard must be nonnegative",
    ("kitaev", "--bits 0"): "--bits must be positive",
}


class TestUsageErrorMatrix:
    @pytest.mark.parametrize("command", ["estimate", "montecarlo"])
    @pytest.mark.parametrize(
        "algo,flag", [pytest.param(*key, id=" ".join(key)) for key in REJECTED_FLAGS]
    )
    def test_exit_one_with_message(self, command, algo, flag, capsys):
        argv = [command, "--bits", "5", "--phase", "0.3", "--algo", *algo.split(), *flag.split()]
        assert exit_code(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: qpesim {command} ")
        assert captured.err.splitlines()[-1] == (
            f"qpesim {command}: error: {REJECTED_FLAGS[algo, flag]}"
        )

    def test_first_rejected_flag_named(self, capsys):
        argv = ["estimate", "--algo", "kitaev", "--bits", "4", "--guard", "1", "--feedback",
                "oracle", "--degree", "3"]
        assert exit_code(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qpesim estimate ")
        assert err.splitlines()[-1] == "qpesim estimate: error: --degree applies only to aqft/const"


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

    def test_samples_above_cap_named(self, capsys):
        # the sampling loop runs once per sample, so an uncapped count runs until killed
        assert exit_code(["validate", "--samples", "1000000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: qpesim validate ")
        assert captured.err.splitlines()[-1] == (
            "qpesim validate: error: --samples must be at most 10000000"
        )


# (exit code, sha256 of stdout) of each validate command line below, recorded
# before the exact oracle dropped its per-call index array and mask and the
# sampled tally moved to a Python list.  The printed figures (closed-vs-direct
# gap, TV distance, grid minimum) carry every digit the oracle and the tally
# produce, so a changed float changes the digest.
VALIDATE_GOLDEN = {
    "validate --samples 2000 --seed 3":
        (0, "cd7e56c52338f7688242d849e734bd811b0b680348afd7b47595b3356cb710f1"),
    "validate --bits 10 --samples 500":
        (0, "00bcd79ab74b6d3c94fac3f2ebf76b792cf1df0b6d1a0d4b76bf9aabd1182162"),
    "validate --bits 1 --samples 30 --phase 0.25 --seed 4":
        (2, "8534511ddc03d6318ac51b1715589c3ed29c9fe55946a544290cec7fa307edb8"),
    "validate --phase random --samples 1000 --seed 11":
        (0, "0f2577cb01d7a6f27d27077ebe9822f8cbd753d0e09fd0e580ae526bdd20822c"),
    "validate --bits 7 --phase 0.1 --samples 3000":
        (0, "2af4d8367fc5ca94b0e1b7791e14750b747e11fa07977c602fa95996a8eb3fc1"),
}


class TestValidateGolden:
    @pytest.mark.parametrize("command", list(VALIDATE_GOLDEN))
    def test_output_matches_golden(self, command, capsys):
        code = main(command.split())
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (code, digest) == VALIDATE_GOLDEN[command]


class TestRuntimeDependencies:
    def test_validate_loads_neither_scipy_nor_hypothesis(self):
        # The runtime depends on numpy alone (pyproject.toml); scipy and
        # hypothesis are test extras and must stay out of the oracle's imports.
        script = (
            "import sys\n"
            "from qpesim.cli import main\n"
            "code = main(['validate', '--samples', '200'])\n"
            "loaded = sorted(name for name in ('scipy', 'hypothesis') if name in sys.modules)\n"
            "print(code, loaded, file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "0 []"

    # Modules a command loads only when it runs them.  numpy loads some
    # modules itself, which differ between versions, so each is watched for
    # beyond what `import numpy.random` loads.
    _DEFERRED = ("qpesim.kitaev", "qpesim.refsim", "json", "csv", "fractions")

    @pytest.mark.parametrize(
        "argv, loads",
        [
            ("", set()),
            ("montecarlo --algo const --bits 16 --runs 20", set()),
            ("montecarlo --algo qft --bits 4 --runs 5 --phase 0.101b", set()),
            ("montecarlo --algo kitaev --bits 4 --runs 5", {"qpesim.kitaev"}),
            ("validate --samples 200", {"qpesim.refsim", "fractions"}),
            ("montecarlo --algo const --bits 4 --runs 5 --format json", {"json"}),
            ("montecarlo --algo const --bits 4 --runs 5 --format csv", {"csv"}),
            ("estimate --algo aqft --degree 2 --bits 4 --format json", {"json"}),
        ],
    )
    def test_command_loads_only_what_it_runs(self, argv, loads):
        script = (
            "import sys\n"
            "import numpy.random\n"
            f"watched = {self._DEFERRED!r}\n"
            "before = [name for name in watched if name in sys.modules]\n"
            "from qpesim.cli import build_parser, main\n"
            "build_parser()\n"
            "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "added = [name for name in watched if name in sys.modules and name not in before]\n"
            "print(code, ','.join(before), ','.join(added), sep='|', file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv.split()], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        code, before, added = proc.stderr.splitlines()[-1].split("|")
        assert code == "0"
        assert set(filter(None, added.split(","))) == loads - set(before.split(","))


# The package's public names, under the modules that define them.
_PUBLIC = {
    "bounds": [
        "BudgetMode", "TrialTableRow", "aqft_lower_bound", "aqft_lower_bound_cheung",
        "aqft_lower_bound_window", "chernoff_tail", "const_precision_success_per_test",
        "const_precision_trials", "kitaev_accuracy_threshold", "kitaev_total_budget",
        "kitaev_trials_per_bit", "qft_lower_bound", "round_up_to_odd", "trial_ratio",
        "trials_table",
    ],
    "estimators": [
        "EstimationResult", "EstimatorConfig", "Feedback", "StageRecord", "aqft_config",
        "constant_precision_config", "estimation_error", "full_qft_config", "is_success",
        "semiclassical_estimate",
    ],
    "kitaev": [
        "KitaevConfig", "StageEstimate", "arctan_phase", "estimate_stage", "kitaev_estimate",
        "snap_beta", "stitch_bits", "trials_per_basis", "within_guarantee",
    ],
    "phase": [
        "DEFAULT_WIDTH", "Phase", "mod1_distance", "parse_phase", "phase_from_bits",
        "phase_from_float", "phase_from_fraction",
    ],
    "refsim": ["MAX_DENSE_BITS", "best_outcome_mass", "empirical_vs_exact", "qpe_distribution_exact"],
    "sampling": ["RngSeed", "derive_run_seed", "make_generator", "run_generators", "run_trials"],
}


class TestPackageNamespace:
    """``qpesim`` imports each public name's module on first access."""

    def test_all_lists_the_public_names(self):
        names = [name for names in _PUBLIC.values() for name in names]
        assert len(names) == 50
        assert sorted(qpesim.__all__) == sorted(names)

    @pytest.mark.parametrize("module, name", [(m, n) for m, names in _PUBLIC.items() for n in names])
    def test_name_is_its_modules_object(self, module, name):
        assert getattr(qpesim, name) is getattr(importlib.import_module(f"qpesim.{module}"), name)

    def test_names_and_submodules_import_on_first_access(self):
        # In a fresh process: here the tests have loaded every module already.
        script = (
            "import sys\n"
            "import qpesim\n"
            "assert not [name for name in sys.modules if name.startswith('qpesim.')], sys.modules\n"
            "from qpesim import KitaevConfig\n"
            "assert 'qpesim.kitaev' in sys.modules and 'qpesim.refsim' not in sys.modules\n"
            "from qpesim import kitaev\n"
            "assert KitaevConfig is kitaev.KitaevConfig is qpesim.KitaevConfig\n"
            "assert qpesim.refsim.MAX_DENSE_BITS == qpesim.MAX_DENSE_BITS\n"
            "print('ok', file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "ok"

    def test_dir_lists_all(self):
        assert set(qpesim.__all__) <= set(dir(qpesim))

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            qpesim.no_such_name
        assert not hasattr(qpesim, "no_such_name")


# Values no flag may turn into a traceback: non-finite and signed floats,
# a subnormal underflow, numbers past every cap, and text that is none of these.
_ODD_VALUES = st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "-1", "0", "-0", "1e-400", "1e400", "1" * 30,
     "-" + "9" * 30, "1" * 29 + ".5", "", " ", "x", "0x10", "1__0", "1,2", "1e", "--"]
)
# Malformed phase literals, and literals at the edges of what parses.
_ODD_PHASES = st.one_of(
    _ODD_VALUES,
    st.sampled_from(
        ["1@0", "0@0", "3@1", "0.2b", "1.5b", "0.1.1b", "1.25", "1", "-0.5", "@", "5@", "@5",
         "1@-3", "1@99999", "1e-99999", "0" * 30 + "1@8", "0." + "1" * 30, "b", "0b", ".b",
         "0.5@", "0.5e", "1e-4096"]
    ),
    st.text(alphabet="01.5b@e-+_x ", max_size=8),
)
_EPS = st.floats(min_value=1e-15, max_value=0.5).map(repr)
_FORMATS = st.sampled_from(["json", "table", "csv"])
# Each subcommand's flags: the strategy of a well-formed value (None for a
# switch) and of an ill-formed one.  Counts stay small: --bits at most 6,
# --runs 20, --samples 200, --reps 31.
_RUN_FLAGS = {
    "--algo": (st.sampled_from(["kitaev", "qft", "aqft", "const"]), _ODD_VALUES),
    "--phase": (
        st.one_of(
            st.sampled_from(["random", "0.101b", "0.703125", "181@8", "0@1"]),
            st.floats(min_value=0, max_value=1, exclude_max=True).map(repr),
        ),
        _ODD_PHASES,
    ),
    "--bits": (st.integers(1, 6).map(str), _ODD_VALUES),
    "--eps": (_EPS, _ODD_VALUES),
    "--degree": (st.integers(2, 6).map(str), _ODD_VALUES),
    "--reps": (st.integers(1, 31).map(str), _ODD_VALUES),
    "--guard": (st.integers(0, 3).map(str), _ODD_VALUES),
    "--feedback": (st.sampled_from(["estimated", "oracle"]), _ODD_VALUES),
    "--seed": (st.integers(0, 2**64 - 1).map(str), _ODD_VALUES),
    "--format": (_FORMATS, _ODD_VALUES),
    "--exact-constants": (None, None),
}
_COMMAND_FLAGS = {
    "estimate": _RUN_FLAGS,
    "montecarlo": {**_RUN_FLAGS, "--runs": (st.integers(1, 20).map(str), _ODD_VALUES)},
    "table": {
        "--probs": (st.lists(st.floats(0.01, 0.99).map(repr), min_size=1, max_size=4).map(",".join),
                    _ODD_VALUES),
        "--exact-constants": (None, None),
        "--format": (_FORMATS, _ODD_VALUES),
    },
    "compare": {
        "--eps-max": (st.floats(min_value=1e-2, max_value=0.5).map(repr), _ODD_VALUES),
        "--eps-min": (st.floats(min_value=1e-15, max_value=1e-3).map(repr), _ODD_VALUES),
        "--points": (st.integers(2, 200).map(str), _ODD_VALUES),
        "--eps-list": (st.lists(_EPS, min_size=1, max_size=4).map(",".join), _ODD_VALUES),
        "--exact-constants": (None, None),
        "--format": (_FORMATS, _ODD_VALUES),
    },
    "validate": {
        "--bits": (st.integers(1, 6).map(str), _ODD_VALUES),
        "--samples": (st.integers(1, 200).map(str), _ODD_VALUES),
        "--phase": (st.floats(min_value=0, max_value=1, exclude_max=True).map(repr), _ODD_PHASES),
        "--seed": (st.integers(0, 2**64 - 1).map(str), _ODD_VALUES),
    },
}


@st.composite
def _argv(draw: st.DrawFn) -> list[str]:
    """A subcommand and some of its flags: all well formed, or not.

    A well-formed argv gives a run command its required flags and only
    flags its algo takes, so that the run and its output are checked too.
    Otherwise each flag is given or left out and its value is ill formed
    at even odds, and a stray token may follow.  ``--runs`` and
    ``--samples`` are always given, so no run falls back to their large
    defaults.
    """
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    algo = draw(_RUN_FLAGS["--algo"][0])
    well_formed = draw(st.booleans())
    required: set[str] = set()
    takes = set(_COMMAND_FLAGS[command])
    if command in ("estimate", "montecarlo"):
        required = {"--algo", "--bits"}
        takes = {"--phase", "--seed", "--format", "--runs"}
        takes |= {"--" + name.replace("_", "-") for name in _ALGOS[algo][1]}
    argv = [command]
    for flag, (good, odd) in _COMMAND_FLAGS[command].items():
        if flag in ("--runs", "--samples"):
            given = True
        elif well_formed:
            given = flag in required or (flag in takes and draw(st.booleans()))
        else:
            given = draw(st.booleans())
        if not given:
            continue
        if good is None:
            argv.append(flag)
        elif well_formed or draw(st.booleans()):
            argv += [flag, algo if flag == "--algo" else draw(good)]
        else:
            argv += [flag, draw(odd)]
    if not well_formed:
        stray = draw(st.sampled_from([None, "--nope", "--bits", "--format", "extra"]))
        argv += [stray] if stray else []
    return argv


class TestNoTraceback:
    """Whatever the argv, ``main`` ends in exit code 0, 1 or 2 and raises nothing else."""

    @settings(max_examples=200, deadline=None)
    @given(_argv())
    def test_any_argv_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = exit_code(argv)
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        if code == 1:
            # a usage or value error writes its message, and only that, to stderr
            assert out.getvalue() == "" and err.getvalue() != "", argv
        if code == 0:
            _check_output(build_parser().parse_args(argv), out.getvalue())


# The keys of ``estimate``'s table output, one a line.
_ESTIMATE_KEYS = {"algo", "phase", "bits", "estimate", "error", "success", "total_tests", "warning"}


def _check_output(args, output: str) -> None:
    """Check that a command's output parses in its format."""
    fmt = getattr(args, "format", None)
    lines = output.splitlines()
    if fmt == "json":
        json.loads(output)
    elif fmt == "csv":
        # only the trailing summary or warning lines, behind a "# ", are not rows
        while lines[-1].startswith("# "):
            lines.pop()
        header, *rows = csv.reader(lines)
        assert all(len(row) == len(header) for row in rows), output
    elif args.command == "estimate":
        for line in lines:
            key, value = line.split(maxsplit=1)
            assert key in _ESTIMATE_KEYS and line.startswith(f"{key:<12}"), output
    elif fmt == "table":
        if args.command == "montecarlo":
            assert lines.pop().startswith("summary: "), output
        header, *rows = (line.split() for line in lines)
        assert all(len(row) == len(header) for row in rows), output

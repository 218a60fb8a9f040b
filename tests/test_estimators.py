"""Tests for the semiclassical measurement-feedback engine and its config builders."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpesim import estimators, refsim, sampling
from qpesim.estimators import (
    EstimationResult,
    EstimatorConfig,
    Feedback,
    StageRecord,
    StageTable,
    aqft_config,
    constant_precision_config,
    estimation_error,
    full_qft_config,
    is_success,
    semiclassical_estimate,
)
from qpesim.phase import (
    GUARD_BITS,
    Phase,
    corrected_residual,
    double_k,
    mod1_distance,
    parse_phase,
    phase_from_bits,
    post_h_prob_one,
)
from qpesim.sampling import _CHUNK, _ROW_MAX, RngSeed, RunDraws, make_generator, run_trials
from reference import LoggedGenerator, majority

COS_PI_8_SQ = math.cos(math.pi / 8) ** 2


def gen(master=0, stream=0):
    return make_generator(RngSeed(master, stream))


class TestConfigValidation:
    def test_even_reps_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            EstimatorConfig(n=4, window=2, reps=2)

    def test_majority_needs_degree_three(self):
        with pytest.raises(ValueError, match="degree too small"):
            EstimatorConfig(n=4, window=1, reps=3)

    def test_single_shot_allows_any_window(self):
        EstimatorConfig(n=4, window=0, reps=1)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            EstimatorConfig(n=0, window=1)
        with pytest.raises(ValueError):
            EstimatorConfig(n=1, window=-1)
        with pytest.raises(ValueError):
            EstimatorConfig(n=1, window=0, guard=-1)

    def test_numpy_integers_are_the_ints_they_equal(self):
        cfg = EstimatorConfig(n=np.int64(3), window=np.int64(2), reps=np.uint8(1), guard=np.int32(1))
        assert cfg == EstimatorConfig(n=3, window=2, reps=1, guard=1)
        assert all(type(v) is int for v in (cfg.n, cfg.window, cfg.reps, cfg.guard))
        # a numpy raw runs as its int: no int64 overflow in the engine's shifts
        assert semiclassical_estimate(Phase(np.int64(12345)), cfg, gen(4)) == semiclassical_estimate(
            Phase(12345), EstimatorConfig(n=3, window=2, guard=1), gen(4)
        )

    @pytest.mark.parametrize("field", ["n", "window", "reps", "guard"])
    @pytest.mark.parametrize("value", [3.0, "3", None])
    def test_non_integers_rejected(self, field, value):
        # rejected when the config is made, naming the field, not mid-run
        given = {"n": 3, "window": 2, "reps": 1, "guard": 0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
            EstimatorConfig(**given)

    @pytest.mark.parametrize("feedback", list(Feedback))
    def test_feedback_value_is_its_member(self, feedback):
        # "oracle" once ran with estimated feedback, the engine testing `is Feedback.ORACLE`
        cfg = EstimatorConfig(n=3, window=2, feedback=feedback.value)
        assert cfg.feedback is feedback and cfg == EstimatorConfig(n=3, window=2, feedback=feedback)
        assert full_qft_config(3, feedback=feedback.value) == full_qft_config(3, feedback=feedback)
        # the runs are the member's runs, which differ between the two members
        phi = parse_phase("0.3")
        runs = {
            member: [semiclassical_estimate(phi, EstimatorConfig(n=3, window=2, feedback=member), gen(s))
                     for s in range(20)]
            for member in Feedback
        }
        assert [semiclassical_estimate(phi, cfg, gen(s)) for s in range(20)] == runs[feedback]
        assert runs[Feedback.ORACLE] != runs[Feedback.ESTIMATED]

    @pytest.mark.parametrize("feedback", ["ORACLE", True, None, ["oracle"]])
    def test_other_feedback_rejected(self, feedback):
        with pytest.raises(ValueError, match="^feedback must be a Feedback or one of 'estimated', 'oracle'$"):
            EstimatorConfig(n=3, window=2, feedback=feedback)

    def test_equal_configs_hash_alike(self):
        cfg = EstimatorConfig(n=4, window=2, reps=3, feedback=Feedback.ORACLE)
        twin = EstimatorConfig(n=4, window=2, reps=3, feedback=Feedback.ORACLE)
        assert cfg == twin and hash(cfg) == hash(twin)
        assert hash(pickle.loads(pickle.dumps(cfg))) == hash(cfg)
        assert cfg != EstimatorConfig(n=4, window=2, reps=3)

    def test_width_headroom_enforced(self):
        phi = Phase(0, 16)
        with pytest.raises(ValueError, match="significant bits"):
            semiclassical_estimate(phi, EstimatorConfig(n=10, window=3), gen())


class TestEngineSemantics:
    def test_exact_phase_is_deterministic(self):
        phi = parse_phase("0.101b")
        for seed in range(10):
            result = semiclassical_estimate(phi, full_qft_config(3), gen(seed))
            assert result.bits == "101"
            assert estimation_error(result, phi) == 0.0

    def test_oracle_feedback_clears_known_tail(self):
        # phi = 0.101101b: stage 5 works on 0.25 and the true bits at
        # positions 6, 7 cancel it exactly; stage 4 lands on a half turn
        phi = parse_phase("0.703125")
        cfg = EstimatorConfig(n=5, window=2, reps=1, guard=0, feedback=Feedback.ORACLE)
        result = semiclassical_estimate(phi, cfg, gen())
        by_stage = {record.stage: record for record in result.stage_log}
        assert by_stage[5].residual == Phase(0)
        assert by_stage[5].bit == 0
        assert by_stage[4].residual.value == 0.5
        assert by_stage[4].bit == 1

    def test_oracle_per_test_floor_on_sampled_grid(self):
        # sampled check of the per-test success floor cos^2(pi/8) for a
        # window of two (exhaustive sweep lives in the acceptance suite)
        for raw in range(0, 1 << 12, 7):
            phi = Phase(raw, 12)
            for stage in (1, 4, 9):
                prior = [phi.bit(stage + 1), phi.bit(stage + 2)]
                residual = corrected_residual(double_k(phi, stage - 1), prior)
                target = Phase(phi.bit(stage) << 11, 12)
                assert mod1_distance(residual, target) < 1 / 8

    def test_window_monotonicity_under_oracle(self):
        for raw in range(0, 1 << 10, 5):
            phi = Phase(raw, 10)
            for stage in (1, 3, 6):
                previous = None
                for window in range(6):
                    prior = [phi.bit(stage + offset) for offset in range(1, window + 1)]
                    residual = corrected_residual(double_k(phi, stage - 1), prior)
                    d = mod1_distance(residual, Phase(phi.bit(stage) << 9, 10))
                    assert d < 2.0 ** -(window + 1)
                    if previous is not None:
                        assert d <= previous + 1e-15
                    previous = d

    def test_stage_order_and_log(self):
        result = semiclassical_estimate(parse_phase("0.3"), full_qft_config(4), gen(1))
        assert [record.stage for record in result.stage_log] == [4, 3, 2, 1]
        assert all(record.trials == 1 for record in result.stage_log)

    def test_total_tests_accounting(self):
        phi = parse_phase("0.3")
        for cfg in (
            EstimatorConfig(n=4, window=3),
            EstimatorConfig(n=4, window=2, reps=5, guard=2),
            EstimatorConfig(n=6, window=4, reps=3, guard=1),
        ):
            result = semiclassical_estimate(phi, cfg, gen(2))
            assert result.total_tests == cfg.reps * (cfg.n + cfg.guard)
            assert len(result.bits) == cfg.n

    def test_deterministic_replay(self):
        phi = parse_phase("0.37")
        cfg = EstimatorConfig(n=6, window=2, reps=13, guard=2)
        assert semiclassical_estimate(phi, cfg, gen(3)) == semiclassical_estimate(
            phi, cfg, gen(3)
        )


class TestWrappers:
    """The qft/aqft/const builders run through the engine."""

    def test_saturated_window_matches_full_qft(self):
        phi = parse_phase("0.61")
        for degree in (6, 8, 11):
            assert semiclassical_estimate(phi, aqft_config(6, degree), gen(4)) == (
                semiclassical_estimate(phi, full_qft_config(6), gen(4))
            )

    def test_aqft_rejects_degree_one(self):
        with pytest.raises(ValueError):
            aqft_config(4, 1)

    def test_constant_precision_budget(self):
        # overall 0.05 over 5 bits -> per-bit 0.01 -> ceil(4 ln 100) = 19, odd
        cfg = constant_precision_config(5, 3, 0.05)
        result = semiclassical_estimate(parse_phase("0.703125"), cfg, gen(5))
        assert result.total_tests == 19 * (5 + 2)
        record = result.stage_log[0]
        assert record.trials == 19

    def test_constant_precision_overrides(self):
        phi = parse_phase("0.703125")
        cfg = constant_precision_config(5, 3, 0.05, reps=5, guard=0)
        result = semiclassical_estimate(phi, cfg, gen(6))
        assert result.total_tests == 5 * 5

    def test_constant_precision_rejects_small_degree(self):
        with pytest.raises(ValueError, match="degree too small"):
            constant_precision_config(4, 2, 0.05)

    @pytest.mark.parametrize("n", [0, -1])
    def test_constant_precision_rejects_bit_count_first(self, n):
        # named before the budget's logarithm of n / eps can fail
        with pytest.raises(ValueError, match="^bit count must be positive$"):
            constant_precision_config(n, 3, 0.05)
        with pytest.raises(ValueError, match="^bit count must be positive$"):
            constant_precision_config(n, 2, 1.5, reps=3)

    def test_constant_precision_counts_underflowing_per_bit_budget(self):
        # 5e-324 / 4 underflows to 0; the count is ceil(4 ln(4 / 5e-324)) = 2985, odd
        assert constant_precision_config(4, 3, 5e-324).reps == 2985

    def test_exact_phase_still_samples(self):
        # degenerate probabilities make the outcome certain, not skipped
        phi = parse_phase("0.101b")
        result = semiclassical_estimate(phi, constant_precision_config(3, 3, 0.05), gen(7))
        assert result.bits == "101"
        assert all(record.ones in (0, record.trials) for record in result.stage_log)


class TestConfigBuilders:
    def test_defaults(self):
        assert full_qft_config(6) == EstimatorConfig(n=6, window=5)
        assert aqft_config(6, 3) == EstimatorConfig(n=6, window=2)
        # 0.05 over 16 bits: ceil(4 ln 320) = 24 votes, bumped to 25; two guards
        assert constant_precision_config(16, 3, 0.05) == EstimatorConfig(
            n=16, window=2, reps=25, guard=2
        )

    def test_overrides(self):
        oracle = Feedback.ORACLE
        assert full_qft_config(6, reps=3, guard=1, feedback=oracle) == EstimatorConfig(
            n=6, window=5, reps=3, guard=1, feedback=oracle
        )
        assert aqft_config(6, 4, reps=5, guard=2, feedback=oracle) == EstimatorConfig(
            n=6, window=3, reps=5, guard=2, feedback=oracle
        )
        assert constant_precision_config(
            16, 4, 0.05, reps=7, guard=0, feedback=oracle
        ) == EstimatorConfig(n=16, window=3, reps=7, guard=0, feedback=oracle)

    def test_budget_outside_unit_interval_rejected(self):
        # eps / n lies in (0, 1) for both; the overall budget does not
        for n, eps, reps in ((4, 2.0, None), (2, 1.5, 3)):
            with pytest.raises(ValueError, match=r"failure budget must lie in \(0, 1\)"):
                constant_precision_config(n, 3, eps, reps=reps)

    @pytest.mark.parametrize("eps", ["0.5", None, 0.5j])
    def test_budget_that_is_not_a_real_number_rejected(self, eps):
        with pytest.raises(ValueError, match="^failure budget must be a real number$"):
            constant_precision_config(4, 3, eps)

    @pytest.mark.parametrize(
        "build,args,field",
        [
            (full_qft_config, ("5",), "n"),
            (aqft_config, ("5", 3), "n"),
            (aqft_config, (5, "3"), "degree"),
            (aqft_config, (5, 3.0), "degree"),
            (constant_precision_config, ("5",), "n"),
            (constant_precision_config, (5, 3.5), "degree"),
        ],
        ids=["qft-n", "aqft-n", "aqft-degree-str", "aqft-degree-float", "const-n", "const-degree"],
    )
    def test_integers_read_first(self, build, args, field):
        # each builder reads n and degree before it computes with them, so a
        # bad value is named, not a TypeError or a message about the window
        with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
            build(*args)

    def test_override_still_checks_budget(self):
        # the budget's count is computed even when reps overrides it: eps / 4
        # lies in (0, 1), but eps does not
        with pytest.raises(ValueError, match=r"failure budget must lie in \(0, 1\)"):
            constant_precision_config(4, 3, 1.5, reps=3)

    @pytest.mark.parametrize(
        "cfg",
        [full_qft_config(5), aqft_config(6, 3), constant_precision_config(5, reps=5, guard=1)],
        ids=["qft", "aqft", "const"],
    )
    @pytest.mark.parametrize("phase", ["0.703125", "0.3"])
    def test_run_is_engine_plus_predicate(self, cfg, phase):
        phi = parse_phase(phase)
        for seed in range(20):
            rng, twin = gen(seed), gen(seed)
            result, ok = cfg.run(phi, rng)
            expected = semiclassical_estimate(phi, cfg, twin)
            assert result == expected
            assert ok is is_success(expected, phi, cfg.n)
            assert rng.bit_generator.state == twin.bit_generator.state


class TestSuccessPredicate:
    def _result_with_bits(self, text: str) -> EstimationResult:
        return EstimationResult(
            bits=text, estimate=phase_from_bits(text), stage_log=(), total_tests=0
        )

    def test_exact_match(self):
        result = self._result_with_bits("0101")
        assert is_success(result, phase_from_bits(result.bits), 4)

    def test_boundary_inclusive(self):
        result = self._result_with_bits("0101")
        neighbour = Phase((5 << 60) + (1 << 60))
        assert is_success(result, neighbour, 4)

    def test_beyond_boundary_fails(self):
        result = self._result_with_bits("0101")
        off = Phase((5 << 60) + (3 << 59))
        assert not is_success(result, off, 4)

    def test_wraparound(self):
        result = self._result_with_bits("0000")
        almost_one = Phase((1 << 64) - (1 << 60))
        assert is_success(result, almost_one, 4)

    @pytest.mark.parametrize("n", [3.0, "3"], ids=repr)
    def test_count_read_as_an_integer(self, n):
        result = self._result_with_bits("0101")
        with pytest.raises(ValueError, match="^n must be an integer$"):
            is_success(result, phase_from_bits("0101"), n)

    def test_estimate_of_another_width_falls_back_to_bits(self):
        # an estimate narrower than phi cannot be compared raw to raw
        result = self._result_with_bits("0101")
        narrow = EstimationResult(
            bits=result.bits, estimate=phase_from_bits(result.bits, 8), stage_log=(), total_tests=0
        )
        for raw in (5 << 60, (5 << 60) + (1 << 60), (5 << 60) + (3 << 59), 7 << 59):
            phi = Phase(raw)
            assert is_success(narrow, phi, 4) == is_success(result, phi, 4)
            assert estimation_error(narrow, phi) == estimation_error(result, phi)


class TestSampledDistribution:
    def test_full_window_matches_exact_law(self):
        # light version of the oracle-equivalence acceptance check
        from qpesim.refsim import empirical_vs_exact

        phi = Phase((1 << 61) + (1 << 58))  # 0.28125, midpoint at 3 bits
        tv = empirical_vs_exact(phi, 3, 20_000, gen(8))
        assert tv < 0.02


class TestEstimationResultContract:
    def test_repr(self):
        result = semiclassical_estimate(Phase(181, 8), full_qft_config(2), gen(0))
        assert repr(result) == (
            "EstimationResult(bits='10', estimate=Phase(raw=128, width=8), "
            "stage_log=(StageRecord(stage=2, residual=Phase(raw=106, width=8), trials=1, ones=0, "
            "bit=0), StageRecord(stage=1, residual=Phase(raw=181, width=8), trials=1, ones=1, "
            "bit=1)), total_tests=2, warnings=())"
        )

    def test_equal_results_hash_alike(self):
        fields = ("10", Phase(2, 2), (), 4, ("note",))
        result, twin = EstimationResult(*fields), EstimationResult(*fields)
        assert result == twin
        assert hash(result) == hash(twin) == hash(fields)
        assert result != EstimationResult(*fields[:3], 5, ("note",))
        assert result != EstimationResult(*fields[:4])
        assert result == fields  # a NamedTuple: equal to the plain tuple of its fields

    def test_fields_are_read_only(self):
        result = EstimationResult("1", Phase(1, 1), (), 1)
        with pytest.raises(AttributeError):
            result.total_tests = 2  # type: ignore[misc]

    def test_keyword_construction_and_default_warnings(self):
        bits = "0101"
        result = EstimationResult(
            bits=bits, estimate=phase_from_bits(bits), stage_log=(), total_tests=0
        )
        assert result.warnings == ()
        assert (result.bits, result.estimate, result.stage_log, result.total_tests) == (
            bits, phase_from_bits(bits), (), 0
        )
        flagged = EstimationResult(
            bits=bits, estimate=phase_from_bits(bits), stage_log=(), total_tests=0, warnings=("w",)
        )
        assert flagged.warnings == ("w",)


def reference_estimate(phi: Phase, cfg: EstimatorConfig, rng) -> EstimationResult:
    """The engine written out from the public primitives, one Phase per step."""
    total_stages = cfg.n + cfg.guard
    decided: dict[int, int] = {}
    log = []
    for i in range(total_stages, 0, -1):
        if cfg.feedback is Feedback.ORACLE:
            prior = [phi.bit(i + offset) for offset in range(1, cfg.window + 1)]
        else:
            available = min(cfg.window, total_stages - i)
            prior = [decided[i + offset] for offset in range(1, available + 1)]
        residual = corrected_residual(double_k(phi, i - 1), prior)
        ones = run_trials(post_h_prob_one(residual), cfg.reps, rng)
        decided[i] = majority(ones, cfg.reps)
        log.append(StageRecord(i, residual, cfg.reps, ones, decided[i]))
    bits = "".join(str(decided[i]) for i in range(1, cfg.n + 1))
    return EstimationResult(
        bits=bits,
        estimate=phase_from_bits(bits, phi.width),
        stage_log=tuple(log),
        total_tests=cfg.reps * total_stages,
    )


def _replay_cases():
    """(n, window, reps, guard) covering qft, aqft (window past the stage count) and const."""
    cases = [(n, n - 1, 1, 0) for n in range(1, 9)]
    cases += [(n, degree - 1, 1, 0) for n in (2, 7) for degree in range(2, 6)]
    cases += [(5, 2, reps, guard) for reps in (3, 25) for guard in range(4)]
    cases += [(4, 4, 25, 2)]
    return cases


REPLAY_SEEDS = 200


class TestReplayAgainstPrimitives:
    @pytest.mark.parametrize("feedback", list(Feedback), ids=lambda f: f.value)
    @pytest.mark.parametrize("narrow", [False, True], ids=["width64", "narrow"])
    @pytest.mark.parametrize(
        "n,window,reps,guard", _replay_cases(), ids=lambda v: str(v)
    )
    def test_engine_replays_reference(self, n, window, reps, guard, narrow, feedback):
        # narrow width sits exactly at the headroom limit n+guard+window = width-4
        width = n + guard + window + 4 if narrow else 64
        cfg = EstimatorConfig(n=n, window=window, reps=reps, guard=guard, feedback=feedback)
        for seed in range(REPLAY_SEEDS):
            raw = int(gen(seed, 1).integers(0, 1 << 64, dtype=np.uint64)) >> (64 - width)
            if seed % 4 == 0:
                # a phase on the stage grid makes every probability exactly 0 or 1
                raw &= ~((1 << (width - n - guard)) - 1)
            phi = Phase(raw, width)
            engine_rng, reference_rng = gen(seed), gen(seed)
            assert semiclassical_estimate(phi, cfg, engine_rng) == reference_estimate(
                phi, cfg, reference_rng
            ), f"seed {seed}, phi {phi}"
            assert engine_rng.random() == reference_rng.random()


def _fixed_phases(width: int, stages: int) -> tuple[Phase, Phase]:
    """One phase on the stage grid and one off it, fixed for every run of a case."""
    raw = int(gen(2**32 + width, stages).integers(0, 1 << 64, dtype=np.uint64)) >> (64 - width)
    low = (1 << (width - stages)) - 1
    return Phase(raw & ~low, width), Phase(raw | 1 | (1 << (width - stages - 1)), width)


def _assert_campaign_replays(
    phi: Phase, cfg: EstimatorConfig, seed: int, runs: int, table: StageTable | None = None
) -> StageTable:
    """``runs`` runs on one shared stream and one stage table, as ``validate`` makes them.

    The table is ``table``, or a new one; it is returned.
    """
    table = StageTable(phi, cfg) if table is None else table
    engine_rng, reference_rng = gen(seed), gen(seed)
    for run in range(runs):
        assert semiclassical_estimate(phi, cfg, engine_rng, table) == reference_estimate(
            phi, cfg, reference_rng
        ), f"run {run}, phi {phi}, cfg {cfg}"
    assert engine_rng.random() == reference_rng.random()
    return table


class TestFixedPhaseReplay:
    """Many runs on one phase: every run after the first revisits states earlier runs reached."""

    @pytest.mark.parametrize("feedback", list(Feedback), ids=lambda f: f.value)
    @pytest.mark.parametrize("narrow", [False, True], ids=["width64", "narrow"])
    @pytest.mark.parametrize(
        "n,window,reps,guard", _replay_cases(), ids=lambda v: str(v)
    )
    def test_fixed_phase_replays_reference(self, n, window, reps, guard, narrow, feedback):
        width = n + guard + window + 4 if narrow else 64
        cfg = EstimatorConfig(n=n, window=window, reps=reps, guard=guard, feedback=feedback)
        for phi in _fixed_phases(width, n + guard):
            _assert_campaign_replays(phi, cfg, n, REPLAY_SEEDS)

    def test_more_keys_than_the_memo_holds(self):
        # 12 (phase, config) keys, each with its own table, all alive at once:
        # visited round robin, two runs per visit, so each table comes back
        # after eleven others ran
        keys = []
        for k in range(6):
            phi = Phase(((2 * k + 1) << 58) + 12345, 64)
            keys.append((phi, EstimatorConfig(n=5, window=4)))
            keys.append((phi, EstimatorConfig(n=5, window=2, reps=3, guard=2)))
        tables = [StageTable(phi, cfg) for phi, cfg in keys]
        for seed in range(40):
            for (phi, cfg), table in zip(keys, tables):
                _assert_campaign_replays(phi, cfg, seed, 2, table)
        assert all(table.probs and table.leaves for table in tables)

    def test_long_full_qft_campaign(self):
        # full QFT at 14 bits off the grid decides its low bits at random:
        # 600 runs reach about 500 distinct stage states and outcomes
        phi = Phase(0x5DEECE66D2B7A3F1, 64)
        cfg = EstimatorConfig(n=14, window=13)
        _assert_campaign_replays(phi, cfg, 0, 600)


@st.composite
def _engine_cases(draw):
    """(phi, cfg, seed): any odd reps (a majority needs window 2 or more), any headroom."""
    reps = 2 * draw(st.integers(min_value=0, max_value=12)) + 1
    cfg = EstimatorConfig(
        n=draw(st.integers(min_value=1, max_value=8)),
        window=draw(st.integers(min_value=0 if reps == 1 else 2, max_value=9)),
        reps=reps,
        guard=draw(st.integers(min_value=0, max_value=3)),
        feedback=draw(st.sampled_from(list(Feedback))),
    )
    needed = cfg.n + cfg.guard + cfg.window + GUARD_BITS
    width = draw(st.integers(min_value=needed, max_value=needed + 70))
    raw = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    return Phase(raw, width), cfg, draw(st.integers(min_value=0, max_value=2**32))


def _assert_same_run(got: EstimationResult, want: EstimationResult) -> None:
    assert got.bits == want.bits
    assert got.estimate == want.estimate
    assert tuple(got.stage_log) == want.stage_log
    assert got.total_tests == want.total_tests
    assert got.warnings == want.warnings


# A phase far wider than a machine word: the engine's integers are exact at any width.
_WIDE = Phase((0x9E3779B97F4A7C15 << 1036) | 0x5DEECE66D, 1100)


class TestEngineProperty:
    """The engine against ``reference_estimate`` on drawn configurations, phases and seeds."""

    @settings(max_examples=150, deadline=None)
    @given(_engine_cases())
    @example((_WIDE, EstimatorConfig(n=6, window=5), 7))
    @example((_WIDE, EstimatorConfig(n=5, window=2, reps=3, guard=2, feedback=Feedback.ORACLE), 8))
    def test_engine_matches_reference(self, case):
        # one run on a fresh generator, then three on one shared RunDraws and
        # one stage table (the first stores what the later runs read)
        phi, cfg, seed = case
        engine_rng, reference_rng = gen(seed), gen(seed)
        _assert_same_run(
            semiclassical_estimate(phi, cfg, engine_rng), reference_estimate(phi, cfg, reference_rng)
        )
        assert engine_rng.bit_generator.state == reference_rng.bit_generator.state
        shared, bare = gen(seed, 1), gen(seed, 1)
        source = RunDraws(shared, 3 * (cfg.n + cfg.guard), cfg.reps)
        table = StageTable(phi, cfg)
        for _ in range(3):
            _assert_same_run(
                semiclassical_estimate(phi, cfg, source, table), reference_estimate(phi, cfg, bare)
            )
        assert shared.bit_generator.state == bare.bit_generator.state


class TestRunDrawsReplay:
    """Runs read through one ``RunDraws`` row source: one generator call per 2**13 trials."""

    @pytest.mark.parametrize(
        "n,reps,guard",
        [(1, _CHUNK + 1, 0), (1, _CHUNK + 1, 2), (16, 4097, 2), (8, 7283, 2)],
        ids=["votes-past-chunk-1-stage", "votes-past-chunk-3-stages", "run-past-chunk-18-stages",
             "run-past-chunk-10-stages"],
    )
    def test_const_run_past_a_block_replays_reference(self, n, reps, guard):
        # one stage's votes, or a run's, span more than one block of _CHUNK
        # uniforms; the boundary falls inside a stage's request
        cfg = EstimatorConfig(n=n, window=2, reps=reps, guard=guard)
        assert reps * (n + guard) > _CHUNK and _CHUNK % reps
        for seed in range(4):
            for phi in _fixed_phases(64, n + guard):
                engine_rng, reference_rng = gen(seed), gen(seed)
                assert semiclassical_estimate(phi, cfg, engine_rng) == reference_estimate(
                    phi, cfg, reference_rng
                ), f"seed {seed}, phi {phi}"
                assert engine_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("reps", [_ROW_MAX, _ROW_MAX + 2], ids=["row-max", "past-row-max"])
    def test_const_run_at_the_row_limit_replays_reference(self, reps):
        # the longest rows a block sorts, and the shortest read from the generator
        cfg = EstimatorConfig(n=4, window=2, reps=reps, guard=2)
        for seed in range(4):
            for phi in _fixed_phases(64, cfg.n + cfg.guard):
                engine_rng, reference_rng = gen(seed), gen(seed)
                assert semiclassical_estimate(phi, cfg, engine_rng) == reference_estimate(
                    phi, cfg, reference_rng
                ), f"seed {seed}, phi {phi}"
                assert engine_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize(
        "cfg,calls",
        [
            (constant_precision_config(16, 3, 0.05), [450]),
            (full_qft_config(5), [5]),
            (EstimatorConfig(n=4, window=2, reps=_ROW_MAX, guard=2), [6 * _ROW_MAX]),
            (EstimatorConfig(n=4, window=2, reps=_ROW_MAX + 2, guard=2), [_ROW_MAX + 2] * 6),
            (EstimatorConfig(n=1, window=2, reps=_CHUNK + 1, guard=2), [_CHUNK, 1] * 3),
        ],
        ids=["const", "qft", "row-max", "past-row-max", "past-chunk"],
    )
    def test_generator_calls_per_run(self, cfg, calls):
        # rows of up to _ROW_MAX votes come sorted from one block; longer rows
        # are read from the generator, one row (in chunks) per stage
        logged = LoggedGenerator(gen(1))
        semiclassical_estimate(Phase(0x9E3779B97F4A7C15), cfg, logged)
        assert logged.sizes == calls


# Consecutive runs on one source: single shots and an odd majority, both feedbacks.
_SHARED_CASES = [
    EstimatorConfig(n=6, window=5),
    EstimatorConfig(n=6, window=5, feedback=Feedback.ORACLE),
    EstimatorConfig(n=4, window=2, reps=5, guard=2),
    EstimatorConfig(n=4, window=2, reps=5, guard=2, feedback=Feedback.ORACLE),
]
_SHARED_IDS = ["reps-1-estimated", "reps-1-oracle", "reps-5-estimated", "reps-5-oracle"]


class TestSharedSource:
    """k runs on one caller-built ``RunDraws`` against k runs on the bare generator."""

    @pytest.mark.parametrize("chunk", [None, 37], ids=["real-blocks", "blocks-of-37"])
    @pytest.mark.parametrize("cfg", _SHARED_CASES, ids=_SHARED_IDS)
    def test_runs_on_one_source_match_runs_on_the_generator(self, cfg, chunk, monkeypatch):
        # 200 runs of 6 rows: blocks of 37 uniforms (37 one-uniform rows, 7 rows
        # of 5) put block boundaries inside runs, and one real block (8 192
        # one-uniform rows, 1 638 rows of 5) holds all 1 200; the phases take
        # turns, each reading and filling its own stage table
        if chunk is not None:
            monkeypatch.setattr(sampling, "_CHUNK", chunk)
        k = 200
        phases = [*_fixed_phases(64, cfg.n + cfg.guard), Phase(0x9E3779B97F4A7C15)]
        tables = [StageTable(phi, cfg) for phi in phases]
        for seed in (0, 5):
            shared, bare = gen(seed), gen(seed)
            source = RunDraws(shared, k * (cfg.n + cfg.guard), cfg.reps)
            for run in range(k):
                phi = phases[run % len(phases)]
                got = semiclassical_estimate(phi, cfg, source, tables[run % len(phases)])
                want = semiclassical_estimate(phi, cfg, bare)
                assert (got.bits, got.estimate, got.stage_log, got.total_tests) == (
                    want.bits, want.estimate, want.stage_log, want.total_tests
                ), f"seed {seed}, run {run}"
            assert shared.bit_generator.state == bare.bit_generator.state

    @pytest.mark.parametrize("cfg", _SHARED_CASES[::2], ids=_SHARED_IDS[::2])
    def test_wrong_size_or_exhausted_source_draws_nothing(self, cfg, monkeypatch):
        # blocks of exactly one run's rows: a second run finds 4 rows undrawn
        # of the 6 it needs, and must not draw them before it raises
        rows = cfg.n + cfg.guard
        monkeypatch.setattr(sampling, "_CHUNK", rows * cfg.reps)
        phi = Phase(0x9E3779B97F4A7C15)
        g = gen(3)
        state = g.bit_generator.state
        wrong = f"request of {cfg.reps} uniforms from rows of {cfg.reps + 2}"
        with pytest.raises(ValueError, match=wrong):
            semiclassical_estimate(phi, cfg, RunDraws(g, 10 * rows, cfg.reps + 2))
        assert g.bit_generator.state == state
        source = RunDraws(g, 2 * rows - 2, cfg.reps)
        semiclassical_estimate(phi, cfg, source)
        state = g.bit_generator.state
        with pytest.raises(ValueError, match="past the run's last row"):
            semiclassical_estimate(phi, cfg, source)
        assert g.bit_generator.state == state


class TestStageLog:
    CASES = [
        (Phase(0x5DEECE66D2B7A3F1, 64), EstimatorConfig(n=6, window=5)),
        (parse_phase("0.703125"), EstimatorConfig(n=5, window=2, reps=25, guard=2)),
        (
            parse_phase("0.37"),
            EstimatorConfig(n=5, window=2, reps=3, guard=3, feedback=Feedback.ORACLE),
        ),
    ]

    @pytest.mark.parametrize("phi,cfg", CASES, ids=["qft", "const", "oracle"])
    def test_acts_as_the_record_tuple(self, phi, cfg):
        for seed in range(5):
            log = semiclassical_estimate(phi, cfg, gen(seed)).stage_log
            records = reference_estimate(phi, cfg, gen(seed)).stage_log
            assert isinstance(log, estimators.StageLog) and isinstance(records, tuple)
            assert log == records and records == log
            assert not (log != records) and not (records != log)
            assert hash(log) == hash(records)
            assert len(log) == len(records) == cfg.n + cfg.guard
            assert log[0] == records[0] and log[-1] == records[-1]
            assert log[1:3] == records[1:3] and log[::-2] == records[::-2]
            assert list(log) == list(records)
            assert repr(log) == repr(records)

    def test_compares_like_a_tuple(self):
        phi, cfg = self.CASES[1]
        log = semiclassical_estimate(phi, cfg, gen(0)).stage_log
        same = semiclassical_estimate(phi, cfg, gen(0)).stage_log
        shorter = semiclassical_estimate(phi, EstimatorConfig(n=4, window=2), gen(0)).stage_log
        assert log == same and hash(log) == hash(same)
        assert log != shorter and shorter != log
        assert log != list(log) and log != tuple(log)[:-1]

    def test_records_built_on_first_read(self):
        phi, cfg = self.CASES[1]
        log = semiclassical_estimate(phi, cfg, gen(0)).stage_log
        assert len(log) == 7 and log._records is None
        first = log[0]
        assert log._records is not None
        assert log[0] is first
        assert all(a is b for a, b in zip(log, log))


class TestStageTable:
    def test_runs_on_one_table_share_objects(self):
        phi, cfg = parse_phase("0.101b"), full_qft_config(3)
        table = StageTable(phi, cfg)
        first, second, third = (
            semiclassical_estimate(phi, cfg, gen(seed), table) for seed in range(3)
        )
        assert first == second == third
        # the first run stores what the later runs reuse
        assert first.bits is second.bits is third.bits
        assert first.estimate is second.estimate is third.estimate
        # a phase on the grid decides every run alike: one probability per stage
        assert table.key == (phi.raw, phi.width, EstimatorConfig(n=3, window=2))
        assert len(table.probs) == 3 and len(table.leaves) == 1

    @pytest.mark.parametrize(
        "other",
        [
            (parse_phase("0.011b"), full_qft_config(3)),
            (Phase(0b101 << 13, 16), full_qft_config(3)),
            (parse_phase("0.101b"), full_qft_config(3, feedback=Feedback.ORACLE)),
        ],
        ids=["raw", "width", "cfg"],
    )
    def test_a_table_of_another_key_is_refused(self, other):
        # a table read for another phase or config would give wrong bits; the
        # run raises before it draws, whether from a generator or a source
        phi, cfg = parse_phase("0.101b"), full_qft_config(3)
        table = StageTable(*other)
        g = gen(2)
        source = RunDraws(g, 2 * cfg.n, 1)
        state = g.bit_generator.state
        refused = "^stage table belongs to another phase or configuration$"
        for rng in (g, source):
            with pytest.raises(ValueError, match=refused):
                semiclassical_estimate(phi, cfg, rng, table)
            with pytest.raises(ValueError, match=refused):
                cfg.run(phi, rng, table)
        assert g.bit_generator.state == state
        assert table.probs == {} and table.leaves == {}
        # the source was left whole: both runs still read from it
        for _ in range(2):
            semiclassical_estimate(phi, cfg, source)

    def test_campaign_past_the_bound(self, monkeypatch):
        # with room for 64 entries the table fills within the first runs;
        # later runs compute what it lacks without storing it
        monkeypatch.setattr(StageTable, "ENTRIES", 64)
        phi = Phase(0x5DEECE66D2B7A3F1, 64)
        cfg = EstimatorConfig(n=14, window=13)
        table = _assert_campaign_replays(phi, cfg, 1, 300)
        assert table.key == (phi.raw, phi.width, cfg)
        assert len(table.probs) + len(table.leaves) == 64

    def test_runs_without_a_table_keep_nothing(self):
        phi, cfg = parse_phase("0.101b"), full_qft_config(3)
        stored = semiclassical_estimate(phi, cfg, gen(0), StageTable(phi, cfg))
        first, second = (semiclassical_estimate(phi, cfg, gen(seed)) for seed in range(1, 3))
        assert stored == first == second
        # each run without a table builds its own leaf, after a run on a table too
        assert len({id(stored.bits), id(first.bits), id(second.bits)}) == 3
        assert len({id(stored.estimate), id(first.estimate), id(second.estimate)}) == 3

    def test_repeated_votes_return_the_stored_result(self):
        # off the grid full QFT decides its bits at random; one shot per stage
        # makes the votes the decided bits, so a repeated path repeats its votes
        phi, cfg = parse_phase("0.3"), full_qft_config(3)
        table = StageTable(phi, cfg)
        stored: dict[str, EstimationResult] = {}
        for seed in range(40):
            result = semiclassical_estimate(phi, cfg, gen(seed), table)
            assert result == semiclassical_estimate(phi, cfg, gen(seed))
            if result.bits in stored:
                assert result is stored[result.bits]
            stored.setdefault(result.bits, result)
        assert 1 < len(stored) < 10 and len(table.leaves) == len(stored)

    def test_other_votes_on_a_stored_path_share_its_digits(self):
        # 25-vote majorities decide one path on a fixed phase with vote counts
        # that seldom repeat: such a run builds its own log on the stored digits
        phi, cfg = parse_phase("0.3"), constant_precision_config(4)
        table = StageTable(phi, cfg)
        first = semiclassical_estimate(phi, cfg, gen(0), table)
        votes = [r.ones for r in first.stage_log]
        decided = [r.bit for r in first.stage_log]
        others = 0
        for seed in range(1, 20):
            result = semiclassical_estimate(phi, cfg, gen(seed), table)
            assert result == semiclassical_estimate(phi, cfg, gen(seed))
            if [r.bit for r in result.stage_log] == decided:
                assert [r.ones for r in result.stage_log] != votes
                others += 1
                assert result.stage_log is not first.stage_log
                assert result.bits is first.bits and result.estimate is first.estimate
        assert others > 10
        # runs with other votes store nothing new; the first run's votes, repeated,
        # return its result
        assert len(table.leaves) <= 20 - others
        assert semiclassical_estimate(phi, cfg, gen(0), table) is first

    def test_over_budget_table_refused_at_construction(self):
        # full QFT at n = 3 needs 5 significant bits; width 8 allows 4
        phi, cfg = Phase(181, 8), full_qft_config(3)
        g = gen(1)
        state = g.bit_generator.state
        refused = "^configuration needs 5 significant bits; width 8 allows 4$"
        with pytest.raises(ValueError, match=refused):
            StageTable(phi, cfg)
        with pytest.raises(ValueError, match=refused):
            semiclassical_estimate(phi, cfg, g)
        assert g.bit_generator.state == state


class TestPinnedCallCounts:
    def test_const_run_draws_once_per_stage(self, count_calls):
        # perfbench/run.py pins n + guard run_trials calls per const run;
        # repeated runs on one phase read a stage table and still draw
        trials = count_calls(estimators, "run_trials")
        cfg = constant_precision_config(16, 3, 0.05)
        assert cfg.n + cfg.guard == 18
        phases = [Phase(0xB400000000000000)] * 3 + [Phase(0x9E3779B97F4A7C15)] * 3
        tables = {phi: StageTable(phi, cfg) for phi in phases}
        for run, phi in enumerate(phases, start=1):
            semiclassical_estimate(phi, cfg, gen(run), tables[phi])
            assert len(trials) == 18 * run

    def test_sampled_comparison_runs_once_per_sample(self, count_calls):
        # perfbench/run.py pins one engine call and n run_trials calls per
        # validate sample; the runs share one source and still count per stage
        runs = count_calls(refsim, "semiclassical_estimate")
        trials = count_calls(estimators, "run_trials")
        refsim.empirical_vs_exact(Phase(0x9E3779B97F4A7C15), 5, 300, gen(2))
        assert len(runs) == 300
        assert [m for _, m, _ in trials] == [1] * 1500

"""Tests for the semiclassical measurement-feedback engine and its wrappers."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from qpesim import estimators
from qpesim.estimators import (
    EstimationResult,
    EstimatorConfig,
    Feedback,
    StageRecord,
    aqft_config,
    aqft_estimate,
    constant_precision_config,
    constant_precision_estimate,
    estimation_error,
    full_qft_config,
    full_qft_estimate,
    is_success,
    semiclassical_estimate,
)
from qpesim.phase import (
    BitString,
    Phase,
    corrected_residual,
    double_k,
    mod1_distance,
    parse_phase,
    phase_from_bits,
    post_h_prob_one,
)
from qpesim.sampling import RngSeed, majority, make_generator, run_trials

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
            result = full_qft_estimate(phi, 3, gen(seed))
            assert str(result.bits) == "101"
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
        result = full_qft_estimate(parse_phase("0.3"), 4, gen(1))
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
    def test_saturated_window_matches_full_qft(self):
        phi = parse_phase("0.61")
        for degree in (6, 8, 11):
            assert aqft_estimate(phi, 6, degree, gen(4)) == full_qft_estimate(phi, 6, gen(4))

    def test_aqft_rejects_degree_one(self):
        with pytest.raises(ValueError):
            aqft_estimate(parse_phase("0.1"), 4, 1, gen())

    def test_constant_precision_budget(self):
        # overall 0.05 over 5 bits -> per-bit 0.01 -> ceil(4 ln 100) = 19, odd
        result = constant_precision_estimate(parse_phase("0.703125"), 5, 3, 0.05, gen(5))
        assert result.total_tests == 19 * (5 + 2)
        record = result.stage_log[0]
        assert record.trials == 19

    def test_constant_precision_overrides(self):
        phi = parse_phase("0.703125")
        result = constant_precision_estimate(phi, 5, 3, 0.05, gen(6), reps=5, guard=0)
        assert result.total_tests == 5 * 5

    def test_constant_precision_rejects_small_degree(self):
        with pytest.raises(ValueError, match="degree too small"):
            constant_precision_estimate(parse_phase("0.1"), 4, 2, 0.05, gen())

    def test_constant_precision_rejects_underflowing_per_bit_budget(self):
        with pytest.raises(ValueError, match="too small"):
            constant_precision_estimate(parse_phase("0.5"), 4, 3, 5e-324, gen())

    def test_exact_phase_still_samples(self):
        # degenerate probabilities make the outcome certain, not skipped
        phi = parse_phase("0.101b")
        result = constant_precision_estimate(phi, 3, 3, 0.05, gen(7))
        assert str(result.bits) == "101"
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

    def test_override_still_checks_budget(self):
        # the budget's count is computed even when reps overrides it
        with pytest.raises(ValueError, match="too small"):
            constant_precision_config(4, 3, 1e-320, reps=3)

    def test_wrappers_build_through_the_builders(self):
        phi = parse_phase("0.703125")
        cfg = constant_precision_config(5, 3, 0.05, reps=5, guard=1)
        assert constant_precision_estimate(phi, 5, 3, 0.05, gen(8), reps=5, guard=1) == (
            semiclassical_estimate(phi, cfg, gen(8))
        )
        assert aqft_estimate(phi, 5, 3, gen(9)) == semiclassical_estimate(
            phi, aqft_config(5, 3), gen(9)
        )


class TestSuccessPredicate:
    def _result_with_bits(self, text: str) -> EstimationResult:
        bits = BitString.from_text(text)
        return EstimationResult(
            bits=bits, estimate=phase_from_bits(bits), stage_log=(), total_tests=0
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
        stats = run_trials(post_h_prob_one(residual), cfg.reps, rng)
        decided[i] = majority(stats)
        log.append(StageRecord(i, residual, stats.t, stats.h, decided[i]))
    bits = BitString(tuple(decided[i] for i in range(1, cfg.n + 1)))
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


def _assert_campaign_replays(phi: Phase, cfg: EstimatorConfig, seed: int, runs: int) -> None:
    """``runs`` runs on one shared stream, as ``validate`` makes them."""
    engine_rng, reference_rng = gen(seed), gen(seed)
    for run in range(runs):
        assert semiclassical_estimate(phi, cfg, engine_rng) == reference_estimate(
            phi, cfg, reference_rng
        ), f"run {run}, phi {phi}, cfg {cfg}"
    assert engine_rng.random() == reference_rng.random()


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
        # 12 (phase, config) keys visited round robin, two runs per visit,
        # so each key comes back after eleven others
        keys = []
        for k in range(6):
            phi = Phase(((2 * k + 1) << 58) + 12345, 64)
            keys.append((phi, EstimatorConfig(n=5, window=4)))
            keys.append((phi, EstimatorConfig(n=5, window=2, reps=3, guard=2)))
        for seed in range(40):
            for phi, cfg in keys:
                _assert_campaign_replays(phi, cfg, seed, 2)

    def test_long_full_qft_campaign(self):
        # full QFT at 14 bits off the grid decides its low bits at random:
        # 600 runs reach about 500 distinct stage states and outcomes
        phi = Phase(0x5DEECE66D2B7A3F1, 64)
        cfg = EstimatorConfig(n=14, window=13)
        _assert_campaign_replays(phi, cfg, 0, 600)


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


class TestStageMemo:
    def test_runs_after_the_first_share_objects(self):
        estimators._stage_tree.cache_clear()
        phi = parse_phase("0.101b")
        first, second, third = (full_qft_estimate(phi, 3, gen(seed)) for seed in range(3))
        assert first == second == third
        # the first run on a key stores nothing; the second stores what the third reuses
        assert first.bits is not second.bits
        assert second.bits is third.bits and second.estimate is third.estimate
        # a phase on the grid decides every run alike: one probability per stage
        tree = estimators._stage_tree(phi.raw, phi.width, EstimatorConfig(n=3, window=2))
        assert len(tree.probs) == 3 and len(tree.leaves) == 1

    def test_campaign_past_the_entry_cap(self, monkeypatch):
        # with room for 64 entries the tree fills within the first runs;
        # later runs compute what it lacks without storing it
        monkeypatch.setattr(estimators, "_MEMO_ENTRIES", 64)
        estimators._stage_tree.cache_clear()
        phi = Phase(0x5DEECE66D2B7A3F1, 64)
        cfg = EstimatorConfig(n=14, window=13)
        try:
            _assert_campaign_replays(phi, cfg, 1, 300)
            tree = estimators._stage_tree(phi.raw, phi.width, cfg)
            assert tree.room == 0
            assert len(tree.probs) + len(tree.leaves) == 64
        finally:
            estimators._stage_tree.cache_clear()

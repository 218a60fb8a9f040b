"""Tests for the two-basis arctangent estimator and its bit stitching."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from qpesim import kitaev, sampling
from qpesim.bounds import BudgetMode, kitaev_accuracy_threshold, kitaev_total_budget
from qpesim.estimators import EstimationResult
from qpesim.kitaev import (
    KitaevConfig,
    StageEstimate,
    arctan_phase,
    estimate_stage,
    kitaev_estimate,
    snap_beta,
    stitch_bits,
    trials_per_basis,
    within_guarantee,
)
from qpesim.phase import (
    GUARD_BITS,
    BitString,
    Phase,
    double_k,
    hadamard_probs,
    mod1_distance,
    parse_phase,
    phase_from_bits,
    phase_from_float,
    phase_from_fraction,
)
from qpesim.phase import TestBasis as Basis
from qpesim.sampling import _CHUNK, _ROW_MAX, RngSeed, make_generator, run_trials
from reference import LoggedGenerator, first_minimum_snap, frequency_estimate


def gen(master=0, stream=0):
    return make_generator(RngSeed(master, stream))


class TestArctanPhase:
    def test_zero_angle(self):
        assert arctan_phase(0.0, 1.0).value == 0.0

    def test_quarter_turn(self):
        assert arctan_phase(1.0, 0.0).value == 0.25

    def test_three_quarter_turn(self):
        assert arctan_phase(-1.0, 0.0).value == 0.75

    def test_indeterminate(self):
        with pytest.raises(ValueError, match="indeterminate angle"):
            arctan_phase(0.0, 0.0)

    def test_negative_angle_wraps(self):
        assert arctan_phase(-1e-9, 1.0).value == pytest.approx(1.0 - 1e-9 / (2 * math.pi))

    def test_tiny_negative_angle_wraps_to_zero(self):
        # -1e-20 mod 1.0 rounds to 1.0 in floats; must wrap, not raise
        assert arctan_phase(-1e-20, 1.0).value == 0.0


class TestSnapBeta:
    def test_nearest_eighth(self):
        assert snap_beta(phase_from_float(0.13)) == 1

    def test_wraparound_nearest(self):
        assert snap_beta(phase_from_float(0.97)) == 0

    def test_tie_breaks_to_lower_index(self):
        assert snap_beta(phase_from_float(3 / 16)) == 1
        # wraparound tie between 7/8 and 0 also picks the lower index
        assert snap_beta(phase_from_float(15 / 16)) == 0

    @pytest.mark.parametrize("width", range(4, 13))
    def test_first_minimum_on_every_phase(self, width):
        for raw in range(1 << width):
            assert snap_beta(Phase(raw, width)) == first_minimum_snap(raw, width), raw

    @pytest.mark.parametrize("width", [4, 5, 8, 53, 64, 1022, 1023, 2000])
    def test_odd_sixteenths_tie_to_the_lower_eighth(self, width):
        # (2m + 1)/16 lies 1/16 from m/8 and from (m + 1)/8; 15/16 wraps to 0
        for m in range(8):
            raw = (2 * m + 1) << (width - 4)
            assert snap_beta(Phase(raw, width)) == first_minimum_snap(raw, width) == (m if m < 7 else 0)

    def test_near_ties_the_floats_cannot_separate_go_to_the_lower_eighth(self):
        # 1/16 + 2**-64 is nearer 1/8, but both distances round to the float 1/16
        raw = (1 << 60) + 1
        assert snap_beta(Phase(raw, 64)) == first_minimum_snap(raw, 64) == 0

    def test_first_minimum_on_random_64_bit_phases(self):
        raws = np.random.Generator(np.random.PCG64(25)).integers(0, 2**64, 10_000, dtype=np.uint64)
        for raw in map(int, raws):
            assert snap_beta(Phase(raw, 64)) == first_minimum_snap(raw, 64), raw

    def test_snap_distance_exhaustive(self):
        # every 16-bit estimate lands within 1/16 of its snapped eighth
        for raw in range(1 << 16):
            phi = Phase(raw, 16)
            assert mod1_distance(phi, Phase(snap_beta(phi) << 13, 16)) <= 1 / 16


class TestReconstructionErrorBudget:
    def test_budget_at_zero_phase(self):
        # the doubled probability threshold is exactly the allowance that
        # keeps the recovered angle within 1/16 of a zero phase
        rho = (1 - 1 / math.sqrt(2)) * (1 - 1e-9)
        for ds in (-rho, rho):
            for dc in (-rho, rho):
                rec = arctan_phase(ds, 1.0 + dc)
                assert mod1_distance(rec, Phase(0)) < 1 / 16

    def test_sharp_uniform_budget(self):
        # away from zero phase the worst box corner tilts the vector by
        # asin(sqrt(2)*rho); keeping that within 1/16 of a turn needs
        # rho <= sin(pi/8)/sqrt(2), slightly tighter than 1 - 1/sqrt(2)
        safe = math.sin(math.pi / 8) / math.sqrt(2) * (1 - 1e-9)
        nominal = 1 - 1 / math.sqrt(2)
        worst_safe = 0.0
        worst_nominal = 0.0
        for j in range(1024):
            phi = j / 1024
            s0, c0 = math.sin(2 * math.pi * phi), math.cos(2 * math.pi * phi)
            for rho, is_safe in ((safe, True), (nominal, False)):
                for ds in (-rho, rho):
                    for dc in (-rho, rho):
                        s = min(1.0, max(-1.0, s0 + ds))
                        c = min(1.0, max(-1.0, c0 + dc))
                        d = mod1_distance(arctan_phase(s, c), phase_from_float(phi))
                        if is_safe:
                            worst_safe = max(worst_safe, d)
                        else:
                            worst_nominal = max(worst_nominal, d)
        assert worst_safe < 1 / 16
        assert worst_nominal == pytest.approx(
            math.asin(math.sqrt(2) * nominal) / (2 * math.pi), abs=1e-6
        )
        assert worst_nominal > 1 / 16


class TestEstimateStage:
    def test_zero_phase_exact_mode(self):
        stage = estimate_stage(Phase(0), 1, 10, gen(), exact=True)
        assert stage.cos_estimate == 1.0
        assert stage.sin_estimate == 0.0
        assert stage.phi_tilde.value == 0.0
        assert stage.beta == 0

    def test_zero_phase_sampled(self):
        # the cosine battery is degenerate (p1 = 0); the sine battery sits at
        # p1 = 1/2 so its estimate is only statistically near zero
        stage = estimate_stage(Phase(0), 1, 10_000, gen(1))
        assert stage.cos_estimate == 1.0
        assert abs(stage.sin_estimate) < 0.05
        assert mod1_distance(stage.phi_tilde, Phase(0)) < 0.01
        assert stage.beta == 0

    def test_quarter_phase(self):
        stage = estimate_stage(phase_from_float(0.25), 1, 100_000, gen(2))
        assert abs(stage.cos_estimate) < 0.02
        assert abs(stage.sin_estimate - 1.0) < 0.02
        assert mod1_distance(stage.phi_tilde, phase_from_float(0.25)) < 0.004

    def test_second_stage_of_known_phase(self):
        # stage 2 of 0.703125 works on 0.40625; snapped eighth is 3/8
        stage = estimate_stage(parse_phase("0.703125"), 2, 100_000, gen(3))
        assert mod1_distance(stage.phi_tilde, phase_from_float(0.40625)) < 0.004
        assert stage.beta == 3


class TestStitchBits:
    def test_base_case_single_stage(self):
        bits, warnings = stitch_bits([5])
        assert str(bits) == "101"
        assert warnings == ()

    def test_exact_three_bit_phase(self):
        # phi = 0.101b: stage phases 0.625, 0.25, 0.5 snap to 5, 2, 4
        bits, warnings = stitch_bits([5, 2, 4])
        assert str(bits) == "10100"
        assert warnings == ()
        assert mod1_distance(phase_from_bits(bits), parse_phase("0.101b")) == 0.0

    def test_hand_computed_carry_case(self):
        # phi = 0.703125: exact snaps are 6, 3, 6 and stitching recovers
        # 0.10110b at distance 2^-6 < 2^-5
        bits, warnings = stitch_bits([6, 3, 6])
        assert str(bits) == "10110"
        assert warnings == ()
        assert mod1_distance(phase_from_bits(bits), parse_phase("0.703125")) == 2.0**-6

    def test_equidistant_candidates_flagged(self):
        # beta_1 = 2 sits exactly 1/4 from both candidates built on 00;
        # unreachable from consistent snaps, resolved to 0 with a warning
        bits, warnings = stitch_bits([2, 0])
        assert str(bits) == "0000"
        assert len(warnings) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            stitch_bits([])
        with pytest.raises(ValueError):
            stitch_bits([8])

    def test_single_flip_moves_output_locally(self):
        # flipping one snapped value by 1/8 moves the stitched output by at
        # most 2^-k, except when the flip creates the contradictory
        # equidistant configuration, which is always flagged
        g = gen()
        n = 6
        for raw in range(0, 1024, 3):
            phi = Phase(raw << 54)
            betas = [estimate_stage(phi, k, 1, g, exact=True).beta for k in range(1, n + 1)]
            base, base_warnings = stitch_bits(betas)
            assert base_warnings == ()
            base_phase = phase_from_bits(base)
            for k in range(1, n + 1):
                for step in (-1, 1):
                    flipped = list(betas)
                    flipped[k - 1] = (flipped[k - 1] + step) % 8
                    alt, warnings = stitch_bits(flipped)
                    moved = mod1_distance(phase_from_bits(alt), base_phase)
                    if not warnings:
                        assert moved <= 2.0**-k + 1e-15


def _eighths_distance(a: int, b: int) -> int:
    """Circular distance between multiples of 1/8, in units of 1/8."""
    d = (a - b) % 8
    return min(d, 8 - d)


def reference_stitch(betas: Sequence[int]) -> tuple[BitString, tuple[str, ...]]:
    """The stitch written out bit by bit: a dict of digits, two distances per stage."""
    n = len(betas)
    if n < 1:
        raise ValueError("need at least one stage")
    if any(not 0 <= b <= 7 for b in betas):
        raise ValueError("snapped values must lie in 0..7")
    bits: dict[int, int] = {}
    last = betas[-1]
    bits[n], bits[n + 1], bits[n + 2] = (last >> 2) & 1, (last >> 1) & 1, last & 1
    flagged: list[str] = []
    for k in range(n - 1, 0, -1):
        low_candidate = 2 * bits[k + 1] + bits[k + 2]  # 0.0 x_{k+1} x_{k+2} in eighths
        d0 = _eighths_distance(low_candidate, betas[k - 1])
        d1 = _eighths_distance(low_candidate + 4, betas[k - 1])
        if d0 < 2:
            bits[k] = 0
        elif d1 < 2:
            bits[k] = 1
        else:
            bits[k] = 0
            flagged.append(f"stage {k}: candidates equidistant from snapped estimate, chose 0")
    return BitString(tuple(bits[i] for i in range(1, n + 3))), tuple(flagged)


class TestStitchReplay:
    def test_every_short_beta_sequence(self):
        # all 8 + 64 + 512 + 4096 + 32768 sequences of length 1..5
        checked = 0
        for n in range(1, 6):
            for betas in itertools.product(range(8), repeat=n):
                assert stitch_bits(betas) == reference_stitch(betas), betas
                checked += 1
        assert checked == 37_448


class TestNoiselessPipeline:
    def test_exact_probabilities_recover_every_phase(self):
        # full sweep of 8-bit phases at n=6: snapped values stay within 1/8
        # of the stage phases and the stitched 8-bit output is exact
        g = gen()
        for raw in range(256):
            phi = Phase(raw << 56)
            stages = [estimate_stage(phi, k, 1, g, exact=True) for k in range(1, 7)]
            for stage in stages:
                assert (
                    mod1_distance(double_k(phi, stage.k - 1), Phase(stage.beta << 61)) < 1 / 8
                )
            bits, warnings = stitch_bits([s.beta for s in stages])
            assert warnings == ()
            assert mod1_distance(phase_from_bits(bits), phi) < 2.0**-8


class TestKitaevEstimate:
    def test_budget_formula(self):
        assert trials_per_basis(KitaevConfig(n=8, eps=0.05)) == 152
        assert trials_per_basis(KitaevConfig(n=8, eps=0.05, mode=BudgetMode.EXACT)) == 151
        assert trials_per_basis(KitaevConfig(n=8, eps=0.05, reps=9)) == 9

    def test_overflowing_quotient_still_counts(self):
        # 4n/eps overflows to inf; m1 is ceil(23.5 ln(32/eps)) of the exact eps, 17396.88
        assert trials_per_basis(KitaevConfig(n=8, eps=1e-320)) == 17397

    def test_bit_count_past_the_largest_double_still_counts(self):
        # 4n is past the largest double; the counts are those of ln(4n) - ln(eps),
        # 23.5 and 47 times 713.578
        assert trials_per_basis(KitaevConfig(10**308)) == 16770
        assert kitaev_total_budget(10**308, 0.05) == (33539, 33539 * 10**308)

    @pytest.mark.parametrize("phase", ["0.703125", "0.3", "0.9999"])
    def test_run_is_engine_plus_predicate(self, phase):
        phi = parse_phase(phase)
        cfg = KitaevConfig(n=4, eps=0.5, reps=3)
        for seed in range(20):
            rng, twin = gen(seed), gen(seed)
            result, ok = cfg.run(phi, rng)
            expected = kitaev_estimate(phi, cfg, twin)
            assert result == expected
            assert ok is within_guarantee(expected, phi, cfg.n)
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_table_and_engine_roundings(self):
        # the table rounds the whole per-bit budget up, the engine each basis
        assert kitaev_total_budget(16, 0.05)[0] == 337
        assert 2 * trials_per_basis(KitaevConfig(16, 0.05)) == 338

    @pytest.mark.parametrize("mode", list(BudgetMode))
    def test_shared_coefficient_matches_inline_formulas(self, mode):
        # kitaev_coefficient(mode) / 2 is the per-basis coefficient written out for each mode
        delta = kitaev_accuracy_threshold()
        coeff = 47.0 / 2.0 if mode is BudgetMode.ROUNDED47 else 1.0 / (2.0 * delta * delta)
        for n in (1, 2, 3, 5, 8, 13, 16, 31, 40, 58):
            for eps in (0.9, 0.5, 0.3173, 0.05, 0.0027, 1e-3, 7e-5, 1e-9, 1e-15, 1e-100, 1e-300):
                expected = math.ceil(coeff * math.log(4.0 * n / eps))
                assert trials_per_basis(KitaevConfig(n, eps, mode=mode)) == expected, (n, eps)

    def test_total_test_accounting(self):
        result = kitaev_estimate(parse_phase("0.101b"), KitaevConfig(n=3, eps=0.3), gen(4))
        assert len(result.bits) == 5
        assert result.total_tests == 2 * trials_per_basis(KitaevConfig(n=3, eps=0.3)) * 3

    def test_exact_three_bit_phase_large_budget(self):
        phi = parse_phase("0.101b")
        cfg = KitaevConfig(n=3, eps=0.5, reps=10_000)
        result = kitaev_estimate(phi, cfg, gen(5))
        assert str(result.bits) == "10100"
        assert within_guarantee(result, phi, 3)

    def test_noiseless_end_to_end(self):
        phi = parse_phase("0.703125")
        result = kitaev_estimate(phi, KitaevConfig(n=3, eps=0.5), gen(), exact=True)
        assert str(result.bits) == "10110"
        assert result.stage_log[1].beta == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KitaevConfig(n=0, eps=0.5)
        with pytest.raises(ValueError):
            KitaevConfig(n=3, eps=1.5)
        # the config carries no width: the run checks n + 2 against the phase's width - 4
        with pytest.raises(ValueError, match="needs 61 significant bits; width 64 allows 60"):
            kitaev_estimate(Phase(0), KitaevConfig(n=59, eps=0.5), gen())
        with pytest.raises(ValueError, match="needs 29 significant bits; width 32 allows 28"):
            kitaev_estimate(Phase(0, 32), KitaevConfig(n=27, eps=0.5), gen())

    def test_numpy_integers_are_the_ints_they_equal(self):
        cfg = KitaevConfig(n=np.int64(3), eps=0.5, reps=np.uint16(5))
        assert cfg == KitaevConfig(n=3, eps=0.5, reps=5)
        assert type(cfg.n) is int and type(cfg.reps) is int
        assert kitaev_estimate(Phase(np.int64(12345)), cfg, gen(3)) == kitaev_estimate(
            Phase(12345), KitaevConfig(n=3, eps=0.5, reps=5), gen(3)
        )

    @pytest.mark.parametrize("field", ["n", "reps"])
    def test_non_integers_rejected(self, field):
        given = {"n": 3, "eps": 0.5, field: 3.0}
        with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
            KitaevConfig(**given)

    @pytest.mark.parametrize("mode", list(BudgetMode))
    def test_mode_value_is_its_member(self, mode):
        # "rounded47" once ran with the exact coefficient: m1 167, not 169
        cfg = KitaevConfig(n=16, mode=mode.value)
        assert cfg.mode is mode and cfg == KitaevConfig(n=16, mode=mode)
        assert trials_per_basis(cfg) == (169 if mode is BudgetMode.ROUNDED47 else 167)

    @pytest.mark.parametrize("mode", ["ROUNDED47", 47, None, ["exact"]])
    def test_other_modes_rejected(self, mode):
        with pytest.raises(ValueError, match="^mode must be a BudgetMode or one of 'rounded47', 'exact'$"):
            KitaevConfig(n=16, mode=mode)

    @pytest.mark.parametrize("eps", ["0.5", None, 0.5j, [0.5]])
    def test_budgets_that_are_not_real_numbers_rejected(self, eps):
        with pytest.raises(ValueError, match="^failure budget must be a real number$"):
            KitaevConfig(n=3, eps=eps)

    def test_guarantee_on_an_estimate_of_another_width(self):
        phi = parse_phase("0.703125")
        result = kitaev_estimate(phi, KitaevConfig(n=3, eps=0.5), gen(), exact=True)
        narrow = EstimationResult(
            bits=result.bits, estimate=phase_from_bits(result.bits, 16), stage_log=(), total_tests=0
        )
        for raw in range(0, 1 << 64, 1 << 58):
            other = Phase(raw)
            assert within_guarantee(narrow, other, 3) == within_guarantee(result, other, 3)

    @pytest.mark.parametrize("n", [7, 0, -1])
    def test_guarantee_checks_n(self, n):
        # n + 2 stitched bits must fit the phase's width, and n must be positive
        phi = Phase(181, 8)
        result = kitaev_estimate(phi, KitaevConfig(n=2, eps=0.5), gen(), exact=True)
        within_guarantee(result, phi, 6)  # the largest n the width allows
        with pytest.raises(ValueError, match=r"n must lie in 1\.\.width-2"):
            within_guarantee(result, phi, n)

    def test_guarantee_is_strict(self):
        phi = parse_phase("0.101b")
        result = kitaev_estimate(phi, KitaevConfig(n=3, eps=0.5, reps=2000), gen(6))
        err = mod1_distance(phase_from_bits(result.bits), phi)
        assert within_guarantee(result, phi, 3) == (err < 2.0**-5)


def reference_kitaev(phi: Phase, cfg: KitaevConfig, rng, exact: bool) -> EstimationResult:
    """The estimator written out from the public primitives, one Phase per step."""
    m1 = trials_per_basis(cfg)
    stages = []
    for k in range(1, cfg.n + 1):
        phi_k = double_k(phi, k - 1)
        _, p1_cos = hadamard_probs(phi_k, Basis.COSINE)
        _, p1_sin = hadamard_probs(phi_k, Basis.SINE)
        if exact:
            freq_cos, freq_sin = p1_cos, p1_sin
        else:
            freq_cos = frequency_estimate(run_trials(p1_cos, m1, rng), m1)
            freq_sin = frequency_estimate(run_trials(p1_sin, m1, rng), m1)
        cos_estimate = min(1.0, max(-1.0, 1.0 - 2.0 * freq_cos))
        sin_estimate = min(1.0, max(-1.0, 2.0 * freq_sin - 1.0))
        if sin_estimate == 0.0 and cos_estimate == 0.0:
            raise ValueError("indeterminate angle")
        turns = (math.atan2(sin_estimate, cos_estimate) / (2.0 * math.pi)) % 1.0
        if turns >= 1.0:
            turns = 0.0
        phi_tilde = phase_from_fraction(Fraction(turns), phi.width)
        distances = [
            mod1_distance(phi_tilde, Phase(j << (phi.width - 3), phi.width)) for j in range(8)
        ]
        beta = distances.index(min(distances))  # the first minimum: ties go to the lower index
        stages.append(StageEstimate(k, sin_estimate, cos_estimate, phi_tilde, beta))
    bits, warnings = reference_stitch([s.beta for s in stages])
    return EstimationResult(
        bits=bits,
        estimate=phase_from_bits(bits, phi.width),
        stage_log=tuple(stages),
        total_tests=2 * m1 * cfg.n,
        warnings=warnings,
    )


def _outcome(estimator, phi, cfg, rng, exact):
    """The estimator's result, or the message of the ValueError it raised."""
    try:
        return estimator(phi, cfg, rng, exact)
    except ValueError as exc:
        return f"ValueError: {exc}"


KITAEV_REPLAY_SEEDS = 200


class TestKitaevReplay:
    @pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
    @pytest.mark.parametrize("narrow", [False, True], ids=["width64", "narrow"])
    @pytest.mark.parametrize("m1", [1, 2, 169])
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_engine_replays_reference(self, n, m1, narrow, exact):
        # the narrow width is the smallest the configuration allows
        width = n + 2 + GUARD_BITS if narrow else 64
        cfg = KitaevConfig(n=n, eps=0.05, reps=m1)
        for seed in range(KITAEV_REPLAY_SEEDS + 4):
            if seed < KITAEV_REPLAY_SEEDS:
                raw = int(gen(seed, 1).integers(0, 1 << 64, dtype=np.uint64)) >> (64 - width)
                if seed % 4 == 0:
                    # a phase on the n-bit grid puts every stage on a multiple of 1/2**n
                    raw &= ~((1 << (width - n)) - 1)
            else:
                # the quarter turns, where the stage's cos and sin reach -1, 0 and 1
                raw = (seed - KITAEV_REPLAY_SEEDS) << (width - 2)
            phi = Phase(raw, width)
            engine_rng, reference_rng = gen(seed), gen(seed)
            engine = _outcome(kitaev_estimate, phi, cfg, engine_rng, exact)
            reference = _outcome(reference_kitaev, phi, cfg, reference_rng, exact)
            assert engine == reference, f"seed {seed}, phi {phi}"
            assert engine_rng.random() == reference_rng.random()


class TestRunSource:
    """A run's 2n batteries are the rows of one ``RunDraws``."""

    def test_default_run_draws_once(self):
        # n = 16 at eps = 0.05: 32 batteries of m1 = 169 in one generator call
        logged = LoggedGenerator(gen(1))
        kitaev_estimate(Phase(0x9E3779B97F4A7C15), KitaevConfig(n=16), logged)
        assert logged.sizes == [2 * 16 * 169] == [5408]

    @pytest.mark.parametrize("m1", [_ROW_MAX + 2, 1001, 4097])
    def test_long_batteries_replay_reference(self, m1):
        # batteries past _ROW_MAX come unsorted from blocks of up to _CHUNK
        # uniforms and are counted with numpy; 4097, past half a block, is
        # drawn a battery at a time
        assert _ROW_MAX < m1 <= _CHUNK
        cfg = KitaevConfig(n=16, eps=0.05, reps=m1)
        logged = LoggedGenerator(gen(1))
        kitaev_estimate(Phase(0x9E3779B97F4A7C15), cfg, logged)
        full, rest = divmod(32, _CHUNK // m1)
        assert logged.sizes == [_CHUNK // m1 * m1] * full + ([rest * m1] if rest else [])
        for seed in range(8):
            phi = Phase(int(gen(seed, 1).integers(0, 1 << 64, dtype=np.uint64)))
            engine_rng, reference_rng = gen(seed), gen(seed)
            assert kitaev_estimate(phi, cfg, engine_rng) == reference_kitaev(
                phi, cfg, reference_rng, False
            ), f"seed {seed}, phi {phi}"
            assert engine_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_tie_raising_campaign_stops_where_the_reference_does(self):
        self._assert_tie_campaign_replays()

    def test_tie_raising_campaign_on_unsorted_rows(self, monkeypatch):
        # the same campaign with its rows of 2 past the row limit: each block
        # holds unsorted rows, counted with numpy, and a tie rewinds over them
        monkeypatch.setattr(sampling, "_ROW_MAX", 1)
        self._assert_tie_campaign_replays()

    @staticmethod
    def _assert_tie_campaign_replays():
        # even reps tie at (1, 1) and raise mid-run; each run on the shared
        # stream starts where the reference's run before it left the generator
        cfg = KitaevConfig(n=8, eps=0.05, reps=2)
        raised = 0
        for seed in range(20):
            engine_rng, reference_rng = gen(seed), gen(seed)
            for run in range(15):
                raw = int(gen(seed, run + 2).integers(0, 1 << 64, dtype=np.uint64))
                phi = Phase(raw)
                engine = _outcome(kitaev_estimate, phi, cfg, engine_rng, False)
                reference = _outcome(reference_kitaev, phi, cfg, reference_rng, False)
                assert engine == reference, f"seed {seed}, run {run}, phi {phi}"
                assert engine_rng.bit_generator.state == reference_rng.bit_generator.state
                raised += engine == "ValueError: indeterminate angle"
        assert raised >= 30


class TestStageEstimateContract:
    def test_repr(self):
        record = estimate_stage(Phase(181, 8), 2, 169, gen(0))
        assert repr(record) == (
            "StageEstimate(k=2, sin_estimate=0.47928994082840237, "
            "cos_estimate=-0.8461538461538463, phi_tilde=Phase(raw=107, width=8), beta=3)"
        )

    def test_equal_records_hash_alike(self):
        fields = (3, 0.5, -0.25, Phase(5, 8), 1)
        record, twin = StageEstimate(*fields), StageEstimate(*fields)
        assert record == twin
        assert hash(record) == hash(twin) == hash(fields)
        assert record != StageEstimate(3, 0.5, -0.25, Phase(5, 8), 2)

    def test_fields_are_read_only(self):
        record = StageEstimate(3, 0.5, -0.25, Phase(5, 8), 1)
        with pytest.raises(AttributeError):
            record.beta = 2  # type: ignore[misc]

    def test_json_entry(self):
        record = StageEstimate(3, 0.5, -0.25, Phase(5, 8), 1)
        assert record.json_entry() == {
            "stage": 3, "sin_estimate": 0.5, "cos_estimate": -0.25,
            "phi_tilde": 0.01953125, "beta": 1,
        }


class TestPinnedCallCounts:
    @pytest.mark.parametrize("n", [5, 16])
    def test_stage_calls_per_run(self, n, count_calls):
        # perfbench/run.py pins n estimate_stage, 2n run_trials and 8n
        # mod1_distance calls per run.  Phase 0 repeats its vote pairs (the
        # cosine battery always reads 0), so a memoised snap would fall short.
        stages = count_calls(kitaev, "estimate_stage")
        trials = count_calls(kitaev, "run_trials")
        distances = count_calls(kitaev, "mod1_distance")
        cfg = KitaevConfig(n=n, eps=0.05, reps=169)
        phases = [Phase(0)] * 3 + [Phase(0x9E3779B97F4A7C15)] * 3
        for run, phi in enumerate(phases, start=1):
            kitaev_estimate(phi, cfg, gen(run))
            assert (len(stages), len(trials), len(distances)) == (n * run, 2 * n * run, 8 * n * run)
        assert {args[1] for args in trials} == {169}

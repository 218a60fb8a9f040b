"""Tests for the closed-form budgets, thresholds, and the trial table."""

from __future__ import annotations

import math

import pytest

from qpesim.bounds import (
    BudgetMode,
    TABLE_SUCCESS_PROBS,
    aqft_lower_bound,
    aqft_lower_bound_cheung,
    aqft_lower_bound_window,
    chernoff_tail,
    const_precision_success_per_test,
    const_precision_trials,
    kitaev_accuracy_threshold,
    kitaev_total_budget,
    kitaev_trials_per_bit,
    per_bit_budget,
    qft_lower_bound,
    round_up_to_odd,
    trial_ratio,
    trials_table,
)

PUBLISHED_TABLE = {
    0.50000: (98, 3),
    0.68269: (120, 5),
    0.95450: (211, 13),
    0.99730: (344, 24),
    0.99993: (515, 39),
}


class TestChernoffTail:
    def test_small_counts_clamp(self):
        assert chernoff_tail(0.1464, 0) == 1.0
        assert chernoff_tail(0.1464, 0, clamp=False) == 2.0

    def test_threshold_hundred_trials(self):
        assert chernoff_tail(0.1464466, 100) == pytest.approx(0.0274285, abs=1e-6)

    def test_half_deviation(self):
        assert chernoff_tail(0.5, 10) == pytest.approx(0.0134758939982, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            chernoff_tail(0.0, 5)
        with pytest.raises(ValueError):
            chernoff_tail(0.1, -1)


class TestAccuracyThreshold:
    def test_value(self):
        assert kitaev_accuracy_threshold() == pytest.approx(0.1464466094, abs=1e-10)

    def test_half_angle_identity(self):
        assert kitaev_accuracy_threshold() == pytest.approx(math.sin(math.pi / 8) ** 2, abs=1e-15)

    def test_doubled_threshold_is_estimate_allowance(self):
        # the sine/cosine estimates may each err by 1 - 1/sqrt(2), exactly
        # twice the probability threshold
        assert 2 * kitaev_accuracy_threshold() == 1 - math.sqrt(2) / 2


class TestKitaevBudget:
    def test_rounded_constant(self):
        assert kitaev_trials_per_bit(0.5) == 98
        assert kitaev_trials_per_bit(0.0027) == 344

    def test_exact_constant(self):
        assert kitaev_trials_per_bit(0.5, BudgetMode.EXACT) == 97

    def test_range_check(self):
        with pytest.raises(ValueError):
            kitaev_trials_per_bit(0.0)
        with pytest.raises(ValueError):
            kitaev_trials_per_bit(1.0)

    def test_total_budget_single_bit(self):
        assert kitaev_total_budget(1, 0.5) == (98, 98)

    def test_total_budget_union_bound(self):
        per_bit, total = kitaev_total_budget(8, 0.05)
        assert per_bit == math.ceil(47 * math.log(640))  # 304
        assert per_bit == 304
        assert total == per_bit * 8


class TestConstPrecisionBudget:
    def test_success_floor_examples(self):
        assert const_precision_success_per_test(3) == pytest.approx(0.8535533906, abs=1e-10)
        assert const_precision_success_per_test(2) == pytest.approx(0.5, abs=1e-12)
        assert const_precision_success_per_test(6) == pytest.approx(0.99759236, abs=1e-8)

    def test_trials_examples(self):
        assert const_precision_trials(0.5, 3) == 3
        assert const_precision_trials(0.0455, 3) == 13
        assert const_precision_trials(7e-5, 3) == 39

    def test_raw_ceiling_can_be_even(self):
        assert const_precision_trials(0.0027, 3) == 24
        assert round_up_to_odd(24) == 25

    def test_degree_floor(self):
        with pytest.raises(ValueError, match="zero majority margin"):
            const_precision_trials(0.1, 2)

    def test_nonincreasing_in_degree(self):
        for eps in (0.3, 0.05, 1e-3):
            budgets = [const_precision_trials(eps, m) for m in range(3, 9)]
            assert budgets == sorted(budgets, reverse=True)

    def test_budget_meets_majority_bound(self):
        # the inverted bound is sufficient by construction
        margin = const_precision_success_per_test(3) - 0.5
        for exponent in range(1, 7):
            eps = 10.0**-exponent
            r = const_precision_trials(eps, 3)
            assert math.exp(-2 * r * margin * margin) <= eps


    def test_huge_degree_does_not_overflow(self):
        # the scaled angle is bit-identical to pi / 2**degree where that is defined
        for degree in range(2, 64):
            assert const_precision_success_per_test(degree) == math.cos(math.pi / (1 << degree)) ** 2
        assert const_precision_success_per_test(2000) == 1.0
        assert const_precision_trials(0.05, 2000) == math.ceil(2.0 * math.log(20.0))

    def test_overflowing_budget_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            const_precision_trials(1e-320, 3)
        with pytest.raises(ValueError, match="too small"):
            kitaev_trials_per_bit(1e-320)

    def test_per_bit_budget(self):
        assert per_bit_budget(0.05, 4) == 0.0125
        # an out-of-range eps is left to the budget functions to name
        assert per_bit_budget(0.0, 4) == 0.0
        with pytest.raises(ValueError, match="too small"):
            per_bit_budget(5e-324, 4)

class TestLowerBounds:
    def test_full_qft_value(self):
        assert qft_lower_bound() == pytest.approx(0.8105694691, abs=1e-9)
        assert qft_lower_bound() > 4 / math.pi**2

    def test_window_bound_saturates(self):
        # degree = n gives (8/pi^2) * sin^2(pi/4) = 4/pi^2, above Cheung
        n = 8
        window = aqft_lower_bound_window(n, n)
        assert window == pytest.approx(4 / math.pi**2, abs=1e-12)
        assert aqft_lower_bound(n, n) == window

    def test_cheung_dominates_small_degree(self):
        assert aqft_lower_bound_window(8, 5) == pytest.approx(0.180121, abs=1e-5)
        assert aqft_lower_bound_cheung(8) == pytest.approx(0.374035, abs=1e-5)
        assert aqft_lower_bound(8, 5) == aqft_lower_bound_cheung(8)

    def test_four_bit_value(self):
        assert aqft_lower_bound_cheung(4) == pytest.approx(4 / math.pi**2 - 1 / 16, abs=1e-12)

    def test_warns_below_regime(self):
        with pytest.warns(UserWarning, match="regime"):
            aqft_lower_bound_window(8, 4)

    def test_no_warning_in_regime(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            aqft_lower_bound_window(8, 5)


class TestTrialsTable:
    def test_published_rows_reproduced(self):
        rows = trials_table()
        assert [row.success_prob for row in rows] == list(TABLE_SUCCESS_PROBS)
        for row in rows:
            kitaev, const = PUBLISHED_TABLE[row.success_prob]
            assert row.kitaev_trials == kitaev
            assert row.const_precision_trials == const
            assert row.eps == pytest.approx(1 - row.success_prob)

    def test_single_probability(self):
        (row,) = trials_table([0.5])
        assert (row.kitaev_trials, row.const_precision_trials) == (98, 3)

    def test_exact_mode(self):
        (row,) = trials_table([0.5], BudgetMode.EXACT)
        assert row.kitaev_trials == 97

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            trials_table([1.0])


class TestTrialRatio:
    def test_value(self):
        assert trial_ratio() == 11.75

    def test_integer_ratio_decays_toward_asymptote(self):
        # constant offsets dominate at large eps and fade as eps shrinks
        at_half = kitaev_trials_per_bit(0.5) / const_precision_trials(0.5, 3)
        assert at_half == pytest.approx(98 / 3, abs=1e-12)
        ratios = [
            kitaev_trials_per_bit(10.0**-e) / const_precision_trials(10.0**-e, 3)
            for e in range(1, 13)
        ]
        assert ratios[0] > ratios[-1] > trial_ratio()
        assert ratios[-1] == pytest.approx(trial_ratio(), rel=0.05)

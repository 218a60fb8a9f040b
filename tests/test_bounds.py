"""Tests for the closed-form budgets, thresholds, and the trial table."""

from __future__ import annotations

import math
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpesim.bounds import (
    BudgetMode,
    TABLE_SUCCESS_PROBS,
    aqft_lower_bound,
    aqft_lower_bound_cheung,
    aqft_lower_bound_window,
    chernoff_tail,
    chernoff_trials,
    const_precision_coefficient,
    const_precision_success_per_test,
    const_precision_trials,
    kitaev_accuracy_threshold,
    kitaev_coefficient,
    kitaev_total_budget,
    kitaev_trials_per_bit,
    qft_lower_bound,
    round_up_to_odd,
    trial_ratio,
    trials_table,
)
from qpesim.estimators import constant_precision_config
from qpesim.kitaev import KitaevConfig, trials_per_basis

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

    @pytest.mark.parametrize("mode", list(BudgetMode))
    def test_coefficient_reads_a_mode_value(self, mode):
        # "rounded47" once gave the exact coefficient
        assert kitaev_coefficient(mode.value) == kitaev_coefficient(mode)
        assert kitaev_trials_per_bit(0.05, mode.value) == kitaev_trials_per_bit(0.05, mode)
        with pytest.raises(ValueError, match="^mode must be a BudgetMode"):
            kitaev_coefficient("47")

    def test_coefficient(self):
        delta = kitaev_accuracy_threshold()
        assert kitaev_coefficient() == kitaev_coefficient(BudgetMode.ROUNDED47) == 47.0
        assert kitaev_coefficient(BudgetMode.EXACT) == 2.0 / (2.0 * delta * delta)
        assert kitaev_coefficient(BudgetMode.EXACT) == pytest.approx(1.0 / delta**2)
        assert 46.62 < kitaev_coefficient(BudgetMode.EXACT) < 46.63

    @pytest.mark.parametrize("mode", list(BudgetMode))
    def test_per_bit_matches_inline_formula(self, mode):
        delta = kitaev_accuracy_threshold()
        coeff = 47.0 if mode is BudgetMode.ROUNDED47 else 2.0 / (2.0 * delta * delta)
        for eps in (0.9, 0.5, 0.3173, 0.05, 0.0027, 1e-3, 7e-5, 1e-9, 1e-15, 1e-100, 1e-300):
            assert kitaev_trials_per_bit(eps, mode) == math.ceil(coeff * math.log(4.0 / eps))

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
        with pytest.raises(ValueError, match="degree too small for majority margin"):
            const_precision_trials(0.1, 2)
        # the degree is named before the budget, as the const config names it
        with pytest.raises(ValueError, match="degree too small for majority margin"):
            const_precision_trials(1.5, 2)

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

    def test_overflowing_quotient_still_counts(self):
        # 1/eps and 4/eps overflow to inf; the counts are ceil(4 ln(1/eps)) and
        # ceil(47 ln(4/eps)) of the exact eps, 2947.31 and 34696.04
        assert const_precision_trials(1e-320, 3) == 2948
        assert kitaev_trials_per_bit(1e-320) == 34697
        assert const_precision_trials(5e-324, 3) == 2978
        assert kitaev_trials_per_bit(5e-324) == 35054

    @given(
        st.one_of(
            st.floats(min_value=5e-324, max_value=1e-300),
            st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
        ),
        st.integers(min_value=1, max_value=64),
        st.sampled_from(BudgetMode),
    )
    def test_every_budget_in_the_unit_interval_counts(self, eps, n, mode):
        # each count is a positive int within one of coeff * ln(c / eps), taken
        # exactly, and it is ceil(coeff * log(c / eps)) wherever c / eps is finite
        coefficient = kitaev_coefficient(mode)
        counts = [
            (const_precision_trials(eps, 3), 4.0, 1.0),
            (kitaev_trials_per_bit(eps, mode), coefficient, 4.0),
            (trials_per_basis(KitaevConfig(n=n, eps=eps, mode=mode)), coefficient / 2.0, 4.0 * n),
        ]
        for count, coeff, c in counts:
            assert count.__class__ is int and count >= 1
            exact = float(Decimal(coeff) * (Decimal(c) / Decimal(eps)).ln())
            assert exact <= count * (1 + 1e-12) and count - 1 <= exact * (1 + 1e-12)
            if c / eps != math.inf:
                assert count == math.ceil(coeff * math.log(c / eps))

    def test_chernoff_trials(self):
        # ceil(coeff * ln(c / eps)); the union bound over n bits is the factor n in c
        assert chernoff_trials(4.0, 1.0, 0.05) == math.ceil(4.0 * math.log(20.0)) == 12
        assert chernoff_trials(4.0, 4, 0.05) == chernoff_trials(4.0, 1.0, 0.0125) == 18
        assert chernoff_trials(47.0, 4.0, 5e-324) == kitaev_trials_per_bit(5e-324)
        for eps in (0.0, 1.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"failure budget must lie in \(0, 1\)"):
                chernoff_trials(4.0, 1.0, eps)

    @pytest.mark.parametrize("eps", ["0.05", None, 0.05j, [0.05]])
    def test_budget_that_is_not_a_real_number_rejected(self, eps):
        with pytest.raises(ValueError, match="^failure budget must be a real number$"):
            chernoff_trials(4.0, 1.0, eps)

    def test_coefficient(self):
        assert const_precision_coefficient(3) == 4.0
        assert trial_ratio() == kitaev_coefficient() / const_precision_coefficient(3) == 47.0 / 4.0
        with pytest.raises(ValueError, match="degree too small for majority margin"):
            const_precision_coefficient(2)


def _inversion(coeff: float, c: float, eps: float) -> int:
    """ceil(coeff * ln(c / eps)), the log taken as ln(c) - ln(eps) where c / eps overflows."""
    ratio = c / eps
    return math.ceil(coeff * (math.log(ratio) if ratio != math.inf else math.log(c) - math.log(eps)))


def _budgets(eps: float, n: int, mode: BudgetMode) -> list[tuple[int, int]]:
    """(count, the inversion it must equal at its caller's coefficient and constant) per budget."""
    kc = kitaev_coefficient(mode)
    return [
        (kitaev_total_budget(n, eps, mode)[0], _inversion(kc, 4.0 * n, eps)),
        (constant_precision_config(n, 3, eps).reps, round_up_to_odd(_inversion(4.0, n, eps))),
        (trials_per_basis(KitaevConfig(n=n, eps=eps, mode=mode)), _inversion(kc / 2.0, 4.0 * n, eps)),
        (const_precision_trials(eps, 3), _inversion(4.0, 1.0, eps)),
    ]


class TestOneInversion:
    """Every trial budget is ``chernoff_trials`` at its caller's coefficient and constant."""

    # the third arm draws subnormals of few significant bits, where eps / n rounds most
    _eps = st.one_of(
        st.floats(min_value=5e-324, max_value=1e-300),
        st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
        st.integers(min_value=1, max_value=1 << 10).map(lambda k: k * 5e-324),
    )

    @given(_eps, _eps, st.integers(min_value=1, max_value=64), st.sampled_from(BudgetMode))
    def test_every_budget_is_one_inversion(self, eps_a, eps_b, n, mode):
        low, high = sorted((eps_a, eps_b))
        at_low, at_high = _budgets(low, n, mode), _budgets(high, n, mode)
        for (count, expected), (count_high, _) in zip(at_low, at_high):
            assert count.__class__ is int and count >= 1
            assert count == expected
            # a larger budget never asks for more trials
            assert count_high <= count

    def test_underflowing_share_is_counted(self):
        # 5e-324 / 4 underflows to 0; the share is held as the factor 4 in c
        assert kitaev_total_budget(4, 5e-324) == (35119, 140476)
        assert constant_precision_config(4, 3, 5e-324).reps == 2985

    def test_subnormal_share_gets_the_exact_count(self):
        # 7e-323 / 27 rounds to the least subnormal, about 1.9 times the exact
        # share; the count is ceil(47 ln(4 * 27 / 7e-323)) = 35085, where the
        # rounded share would give 35054
        assert 7e-323 / 27 == 5e-324
        assert kitaev_total_budget(27, 7e-323) == (35085, 35085 * 27)

    def test_total_budget_checks_the_overall_eps(self):
        # 1.5 / 2 lies in (0, 1), but the overall failure budget does not
        with pytest.raises(ValueError, match=r"failure budget must lie in \(0, 1\)"):
            kitaev_total_budget(2, 1.5)


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

"""Unit and property tests for fixed-point phase arithmetic."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpesim.phase import (
    MAX_LITERAL_WIDTH,
    BitString,
    Phase,
    check_bit_budget,
    corrected_residual,
    double_k,
    hadamard_probs,
    mod1_distance,
    parse_phase,
    phase_from_bits,
    phase_from_float,
    phase_from_fraction,
    post_h_prob_one,
)
from qpesim.phase import TestBasis as Basis

COS_PI_8_SQ = 0.8535533905932737  # cos^2(pi/8)


def bits(text: str) -> BitString:
    return BitString.from_text(text)


class TestPhaseType:
    def test_value(self):
        assert Phase(5, 3).value == 0.625

    def test_raw_range_enforced(self):
        with pytest.raises(ValueError):
            Phase(8, 3)
        with pytest.raises(ValueError):
            Phase(-1, 3)

    @pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32, np.uint8])
    def test_numpy_integers_are_the_ints_they_equal(self, kind):
        phi = Phase(kind(123), kind(8))
        assert phi == Phase(123, 8)
        assert type(phi.raw) is int and type(phi.width) is int
        assert double_k(Phase(np.int64(12345), 64), 60) == Phase(12345 << 60 & (1 << 64) - 1, 64)

    @pytest.mark.parametrize("value", [0.5, 1.0, "1", None, np.float64(1.0)])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ValueError, match="^phase raw value must be an integer$"):
            Phase(value)
        with pytest.raises(ValueError, match="^phase width must be an integer$"):
            Phase(1, value)

    def test_bit_extraction(self):
        phi = phase_from_bits(bits("101101"))
        assert [phi.bit(i) for i in range(1, 8)] == [1, 0, 1, 1, 0, 1, 0]

    def test_two_bases_only(self):
        assert len(Basis) == 2


class TestFromBits:
    def test_simple_expansion(self):
        assert phase_from_bits(bits("101")).value == 0.625

    def test_empty_is_zero(self):
        assert phase_from_bits(bits("")).value == 0.0

    def test_shift_into_width(self):
        phi = phase_from_bits(bits("000111"), width=8)
        assert phi.raw == 28
        assert phi.value == 0.109375

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="longer than phase width"):
            phase_from_bits(bits("1010"), width=3)

    @given(st.integers(min_value=0, max_value=2**20 - 1))
    def test_round_trip_with_phase(self, raw):
        phi = Phase(raw, 20)
        digits = BitString(tuple(phi.bit(i) for i in range(1, 21)))
        assert phase_from_bits(digits, 20) == phi


class TestParsing:
    def test_binary_literal(self):
        assert parse_phase("0.101101b").value == 0.703125

    def test_decimal_literal(self):
        assert parse_phase("0.703125").value == 0.703125

    def test_raw_width_literal(self):
        phi = parse_phase("181@8")
        assert (phi.raw, phi.width) == (181, 8)

    def test_raw_width_capped(self):
        assert parse_phase(f"1@{MAX_LITERAL_WIDTH}").width == MAX_LITERAL_WIDTH
        with pytest.raises(ValueError, match=f"exceeds the cap of {MAX_LITERAL_WIDTH} bits"):
            parse_phase(f"1@{MAX_LITERAL_WIDTH + 1}")
        with pytest.raises(ValueError, match="exceeds the cap"):
            parse_phase("1@20000000000")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("5" * 5000 + "@8", "raw value of 5000 digits out of range for width 8"),
            ("1" + "0" * MAX_LITERAL_WIDTH + "@4096", "raw value of 4097 digits out of range"),
            ("9" * MAX_LITERAL_WIDTH + "@4096", "out of range for width 4096"),
            ("1@" + "5" * 5000, f"exceeds the cap of {MAX_LITERAL_WIDTH} bits"),
            ("5" * 5000 + "@" + "5" * 5000, f"exceeds the cap of {MAX_LITERAL_WIDTH} bits"),
        ],
        ids=["raw-5000-digits", "raw-4097-digits", "raw-4096-digits", "width-5000-digits",
             "both-5000-digits"],
    )
    def test_raw_width_digits_counted_before_int(self, text, message):
        # past CPython's 4300-digit limit int() would raise its own advice instead
        with pytest.raises(ValueError, match=message) as info:
            parse_phase(text)
        assert "set_int_max_str_digits" not in str(info.value)

    def test_raw_width_leading_zeros(self):
        # leading zeros do not count towards either cap
        phi = parse_phase("0" * 5000 + "181@" + "0" * 5000 + "8")
        assert (phi.raw, phi.width) == (181, 8)

    @pytest.mark.parametrize("digits", [4000, MAX_LITERAL_WIDTH])
    def test_long_decimal_parses(self, digits):
        # "0." and digits - 1 ones: the value rounds as the shorter literal does
        phi = parse_phase("0." + "1" * (digits - 1))
        assert phi == phase_from_fraction(Fraction(1, 9))

    @pytest.mark.parametrize("digits", [MAX_LITERAL_WIDTH + 1, 5000])
    def test_decimal_digits_counted_before_fraction(self, digits):
        # past CPython's 4300-digit limit Fraction() raises, which read as no literal at all
        with pytest.raises(ValueError) as info:
            parse_phase("0." + "1" * (digits - 1))
        message = str(info.value)
        assert message == (
            f"decimal phase literal of {digits} digits exceeds the cap of {MAX_LITERAL_WIDTH} digits"
        )

    @pytest.mark.parametrize(
        "text", ["1e-9999999", "1E-4097", "0.5e-4_097", "1e9999999", "1e+4097", "0E4097"]
    )
    def test_decimal_exponent_read_before_fraction(self, text):
        # Fraction would build 10**9999999 first: seconds for a 10-character literal
        with pytest.raises(ValueError) as info:
            parse_phase(text)
        assert str(info.value) == (
            f"decimal phase literal's exponent exceeds the cap of {MAX_LITERAL_WIDTH} in magnitude"
        )

    @pytest.mark.parametrize(
        "text,value",
        [
            ("1e-4096", Fraction(1, 10**4096)),
            ("0." + "1" * 4000 + "e-4096", Fraction("0." + "1" * 4000) / 10**4096),
            ("25E-2", Fraction(1, 4)),
            ("0.0025e+2", Fraction(1, 4)),
            ("0e4096", Fraction(0)),
        ],
        ids=["negative-at-cap", "long-at-cap", "negative", "positive", "positive-at-cap"],
    )
    def test_decimal_exponent_within_cap_parses(self, text, value):
        assert parse_phase(text) == phase_from_fraction(value)

    def test_decimal_exponent_at_cap_still_range_checked(self):
        with pytest.raises(ValueError, match=r"^phase value must lie in \[0, 1\)$"):
            parse_phase("1e4096")

    def test_rejected_literal_echo_is_short(self):
        with pytest.raises(ValueError) as info:
            parse_phase("x" * 5000)
        assert str(info.value) == f"not a phase literal: {'x' * 40 + '...'!r}"
        with pytest.raises(ValueError, match=r"^not a phase literal: 'x'$"):
            parse_phase("x")

    def test_rejects_garbage(self):
        for text in ("random", "0.12b", "1.5", "-0.25", "x"):
            with pytest.raises(ValueError):
                parse_phase(text)

    def test_ties_round_to_even(self):
        # 1/16 and 3/16 are halfway between neighbouring 3-bit grid points
        assert phase_from_fraction(Fraction(1, 16), 3).raw == 0
        assert phase_from_fraction(Fraction(3, 16), 3).raw == 2

    def test_near_one_wraps(self):
        assert phase_from_fraction(Fraction(2**65 - 1, 2**65), 64).raw == 0

    def test_float_round_trip(self):
        assert phase_from_float(0.625, 3).raw == 5


SUBNORMAL_MAX = math.nextafter(2.0**-1022, 0.0)


class TestFromFloat:
    @given(
        st.one_of(
            st.floats(0, 1, exclude_max=True),
            st.floats(0, SUBNORMAL_MAX),
            st.floats(0, 2.0**-1000),
        ),
        st.integers(min_value=1, max_value=1100),
    )
    @example(math.nextafter(1.0, 0.0), 53)
    @example(math.nextafter(1.0, 0.0), 52)
    @example(5e-324, 1074)
    @example(5e-324, 1075)
    @example(5e-324, 1100)
    @example(SUBNORMAL_MAX, 1)
    @example(0.0, 1)
    @example(-0.0, 64)
    def test_matches_exact_rational_rounding(self, value, width):
        assert phase_from_float(value, width) == phase_from_fraction(Fraction(value), width)

    def test_ties_round_to_even(self):
        assert phase_from_float(2.0**-65, 64).raw == 0
        assert phase_from_float(3 * 2.0**-65, 64).raw == 2

    def test_near_one_wraps(self):
        assert phase_from_float(math.nextafter(1.0, 0.0), 8).raw == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5, 1.0])
    def test_rejects_values_outside_unit_interval(self, value):
        with pytest.raises(ValueError):
            phase_from_float(value)


class TestDoubleK:
    def test_single_shift(self):
        assert double_k(phase_from_bits(bits("011")), 1).value == 0.75

    def test_modular_wrap(self):
        assert double_k(phase_from_float(0.75), 1).value == 0.5

    def test_hand_computed(self):
        # 4 * 0.703125 = 2.8125 -> 0.8125 mod 1
        assert double_k(parse_phase("0.703125"), 2).value == 0.8125

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
    )
    def test_composition_is_exact(self, raw, a, b):
        phi = Phase(raw)
        assert double_k(double_k(phi, a), b).raw == double_k(phi, a + b).raw


class TestMod1Distance:
    def test_wraparound(self):
        assert mod1_distance(Phase(15, 4), Phase(1, 4)) == 0.125
        assert mod1_distance(phase_from_float(0.9), phase_from_float(0.05)) == pytest.approx(0.15)

    def test_identity(self):
        phi = parse_phase("0.3")
        assert mod1_distance(phi, phi) == 0.0

    def test_antipodal_maximum(self):
        assert mod1_distance(Phase(1, 2), Phase(3, 2)) == 0.5
        assert mod1_distance(Phase(0), Phase(1 << 63)) == 0.5

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError, match="widths 4 and 5"):
            mod1_distance(Phase(1, 4), Phase(2, 5))

    def test_exact_on_equal_width_phases(self):
        assert mod1_distance(Phase(1, 64), Phase(0, 64)) == 2.0**-64

    def test_exact_path_every_narrow_pair(self):
        for width in range(1, 7):
            span = 1 << width
            for a in range(span):
                for b in range(span):
                    d = (a - b) % span
                    expected = min(d, span - d) / span
                    assert mod1_distance(Phase(a, width), Phase(b, width)) == expected

    @given(st.integers(1, 53).flatmap(
        lambda width: st.tuples(*[st.builds(Phase, st.integers(0, (1 << width) - 1), st.just(width))] * 3)
    ))
    def test_circle_metric(self, triple):
        # up to 53 bits every distance and every sum of two is a float exactly
        a, b, c = triple
        assert mod1_distance(a, b) == mod1_distance(b, a)
        assert mod1_distance(a, c) <= mod1_distance(a, b) + mod1_distance(b, c)


class TestHadamardProbs:
    def test_cosine_at_zero(self):
        assert hadamard_probs(Phase(0), Basis.COSINE) == (1.0, 0.0)

    def test_sine_at_quarter(self):
        p0, p1 = hadamard_probs(phase_from_float(0.25), Basis.SINE)
        assert p0 == pytest.approx(0.0, abs=1e-15)
        assert p1 == pytest.approx(1.0, abs=1e-15)

    def test_cosine_at_eighth(self):
        p0, p1 = hadamard_probs(phase_from_float(0.125), Basis.COSINE)
        assert p0 == pytest.approx(COS_PI_8_SQ, abs=1e-12)
        assert p1 == pytest.approx(1.0 - COS_PI_8_SQ, abs=1e-12)

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.sampled_from(list(Basis)),
    )
    def test_probabilities_sum_to_one(self, raw, basis):
        p0, p1 = hadamard_probs(Phase(raw), basis)
        assert 0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0
        assert p0 + p1 == pytest.approx(1.0, abs=1e-15)


class TestCorrectedResidual:
    def test_exact_tail_cancellation(self):
        phi_k = phase_from_bits(bits("101"))
        assert corrected_residual(phi_k, (0, 1)) == phase_from_bits(bits("100"))

    def test_no_corrections(self):
        phi_k = parse_phase("0.3")
        assert corrected_residual(phi_k, ()) == phi_k

    def test_hand_subtraction(self):
        phi_k = phase_from_bits(bits("110111"))
        residual = corrected_residual(phi_k, (1, 0))
        assert residual == phase_from_bits(bits("100111"))
        # dropping the leading bit leaves 0.000111b < 1/8
        assert mod1_distance(residual, phase_from_bits(bits("1"))) < 0.125

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=6))
    def test_true_bits_clear_the_window(self, raw, window):
        phi_k = Phase(raw, 32)
        prior = [phi_k.bit(1 + offset) for offset in range(1, window + 1)]
        residual = corrected_residual(phi_k, prior)
        target = Phase(phi_k.bit(1) << 31, 32)
        assert mod1_distance(residual, target) < 2.0 ** -(window + 1)


class TestPostHadamard:
    def test_zero_residual(self):
        assert post_h_prob_one(Phase(0)) == 0.0

    def test_half_turn(self):
        assert post_h_prob_one(phase_from_float(0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_half_plus_eighth(self):
        assert post_h_prob_one(phase_from_float(0.625)) == pytest.approx(COS_PI_8_SQ, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_complementary_halves(self, raw):
        theta = Phase(raw)
        shifted = Phase(raw + 2**63)
        assert post_h_prob_one(theta) + post_h_prob_one(shifted) == pytest.approx(1.0, abs=1e-15)


class TestBitString:
    def test_value_and_int(self):
        s = bits("10110")
        assert s.to_int() == 22
        assert str(s) == "10110"
        assert len(s) == 5

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitString((0, 2))

    @pytest.mark.parametrize("digit", [True, 1.0, 1 + 0j, np.int64(1)], ids=repr)
    def test_rejects_values_equal_to_a_bit_that_are_not_ints(self, digit):
        # str(BitString((True, False))) would read "TrueFalse"
        with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
            BitString((0, digit))

    @pytest.mark.parametrize("digits", [[1.0, 0.0], [True, False], (1 + 0j,), [np.int64(1)]], ids=repr)
    def test_phase_from_bits_rejects_digits_that_are_not_ints(self, digits):
        with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
            phase_from_bits(digits, 8)

    def test_from_text_digits_are_ints(self):
        assert all(type(b) is int for b in BitString.from_text("0110").bits)
        with pytest.raises(ValueError, match="not a bit string"):
            BitString.from_text("1.0")

    def test_from_int_skips_the_digit_check(self, monkeypatch):
        # the engines' strings come from from_int's table of ints, unchecked
        def refuse(self):
            raise AssertionError("digit check ran")

        monkeypatch.setattr(BitString, "__post_init__", refuse)
        assert BitString.from_int(0b1011, 6).bits == (0, 0, 1, 0, 1, 1)
        assert str(BitString.from_int(5, 3)) == "101"

    @pytest.mark.parametrize("digit", [2, -1, 0.5, "1", None, [1]], ids=repr)
    def test_rejects_values_not_equal_to_a_bit(self, digit):
        # an unhashable digit is rejected with the same ValueError
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            BitString((0, digit))

    def test_from_int_matches_digit_loop(self):
        cases = [(v, n) for n in range(13) for v in range(1 << n)]
        cases += [((1 << 64) - 1, 64), (0x8000000000000001, 64), (0x5A5A5A5A5A5A5A5, 63)]
        for value, length in cases:
            digits = tuple((value >> (length - j)) & 1 for j in range(1, length + 1))
            assert BitString.from_int(value, length) == BitString(digits)

    def test_from_int_rejects_values_too_wide(self):
        with pytest.raises(ValueError):
            BitString.from_int(8, 3)
        with pytest.raises(ValueError):
            BitString.from_int(-1, 3)
        with pytest.raises(ValueError):
            BitString.from_int(0, -1)


class TestBitBudget:
    def test_guard_margin(self):
        check_bit_budget(60, 64)
        check_bit_budget(4, 8)
        with pytest.raises(ValueError, match="^configuration needs 61 significant bits; width 64 allows 60$"):
            check_bit_budget(61, 64)
        with pytest.raises(ValueError, match="^configuration needs 5 significant bits; width 8 allows 4$"):
            check_bit_budget(5, 8)

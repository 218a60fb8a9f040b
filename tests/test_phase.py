"""Unit and property tests for fixed-point phase arithmetic."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpesim.phase import (
    MAX_LDEXP_WIDTH,
    MAX_LITERAL_WIDTH,
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
        phi = phase_from_bits("101101")
        assert [phi.bit(i) for i in range(1, 8)] == [1, 0, 1, 1, 0, 1, 0]

    def test_two_bases_only(self):
        assert len(Basis) == 2


class TestFromBits:
    def test_simple_expansion(self):
        assert phase_from_bits("101").value == 0.625

    def test_empty_is_zero(self):
        assert phase_from_bits("").value == 0.0

    def test_shift_into_width(self):
        phi = phase_from_bits("000111", width=8)
        assert phi.raw == 28
        assert phi.value == 0.109375

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="longer than phase width"):
            phase_from_bits("1010", width=3)

    @given(st.integers(min_value=0, max_value=2**20 - 1))
    def test_round_trip_with_phase(self, raw):
        phi = Phase(raw, 20)
        digits = "".join(str(phi.bit(i)) for i in range(1, 21))
        assert phase_from_bits(digits, 20) == phi


class TestParsing:
    def test_binary_literal(self):
        assert parse_phase("0.101101b").value == 0.703125

    def test_decimal_literal(self):
        assert parse_phase("0.703125").value == 0.703125

    @pytest.mark.parametrize(
        "text,raw",
        [("1/3", 6148914691236517205), ("2/3", 12297829382473034411), ("+1/3", 6148914691236517205)],
    )
    def test_rational_literal(self, text, raw):
        # p/q is read as a Fraction and rounded like a decimal
        assert parse_phase(text) == Phase(raw) == phase_from_fraction(Fraction(text))

    def test_rational_literal_rejected(self):
        with pytest.raises(ValueError, match="^not a phase literal: '1/0'$"):
            parse_phase("1/0")
        with pytest.raises(ValueError, match=r"^phase value must lie in \[0, 1\)$"):
            parse_phase("3/2")

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
        assert double_k(phase_from_bits("011"), 1).value == 0.75

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


@st.composite
def scaled_raws(draw) -> tuple[int, int, int]:
    """Two raws of one width, the widths weighted to 50-70 and to either side of the ldexp limit."""
    width = draw(st.one_of(st.integers(50, 70), st.integers(1020, 1026), st.integers(1, MAX_LITERAL_WIDTH)))
    top = (1 << width) - 1
    # raws at least 2**width - 2**(width - 54) round up to 1.0 (the tie goes to even)
    rounds_up = st.integers(max(0, top + 1 - (1 << max(width - 54, 0))), top)
    raw = draw(st.one_of(st.just(0), st.just(1), st.just(top), st.integers(0, top), rounds_up))
    return raw, draw(st.integers(0, top)), width


class TestExactScaling:
    """``Phase.value`` and ``mod1_distance`` are the int division raw / 2**width, bit for bit.

    Up to ``MAX_LDEXP_WIDTH`` both scale with ``math.ldexp``, which matches
    the division only because int-to-float conversion is correctly
    rounded and a normal result scales exactly; past it they divide.
    """

    def test_limit_is_the_least_normal_exponent(self):
        assert math.ldexp(1.0, -MAX_LDEXP_WIDTH) == sys.float_info.min
        assert math.ldexp(1.0, -MAX_LDEXP_WIDTH - 1) < sys.float_info.min

    def test_ldexp_past_the_limit_would_round_twice(self):
        # a subnormal quotient: float(raw) rounds to 2**57 + 32, a tie ldexp rounds to even
        raw, width = 2**57 + 33, 1080
        assert math.ldexp(raw, -width) != raw / (1 << width)
        assert Phase(raw, width).value == raw / (1 << width)

    @settings(max_examples=500)
    @given(scaled_raws())
    @example((1, 0, 1023))
    @example((2**57 + 33, 0, 1080))
    @example(((1 << 64) - 1, 3, 64))
    def test_value_and_distance_are_the_division(self, raws):
        raw, other, width = raws
        span = 1 << width
        assert Phase(raw, width).value.hex() == (raw / span).hex()
        d = (raw - other) % span
        expected = min(d, span - d) / span
        assert mod1_distance(Phase(raw, width), Phase(other, width)).hex() == expected.hex()
        assert mod1_distance(Phase(raw, width), Phase(0, width)).hex() == (min(raw, span - raw) / span).hex()


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
        phi_k = phase_from_bits("101")
        assert corrected_residual(phi_k, (0, 1)) == phase_from_bits("100")

    def test_no_corrections(self):
        phi_k = parse_phase("0.3")
        assert corrected_residual(phi_k, ()) == phi_k

    def test_hand_subtraction(self):
        phi_k = phase_from_bits("110111")
        residual = corrected_residual(phi_k, (1, 0))
        assert residual == phase_from_bits("100111")
        # dropping the leading bit leaves 0.000111b < 1/8
        assert mod1_distance(residual, phase_from_bits("1")) < 0.125

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
    """The digit string an estimate carries as ``bits`` and ``phase_from_bits`` reads."""

    NOT_BITS = "^bits must be a string of 0s and 1s$"

    def test_value_and_int(self):
        # x_1 is the most significant digit, and leading zeros count
        assert phase_from_bits("10110", 5) == Phase(22, 5)
        assert phase_from_bits("00110", 5) == Phase(6, 5)

    def test_rejects_non_bits(self):
        # int(text, 2) would read "0b1", "1_0" and " 10"
        for text in ("102", "1.0", "0b1", "1_0", " 10", "10\n", "-1", b"10"):
            with pytest.raises(ValueError, match=self.NOT_BITS):
                phase_from_bits(text, 8)

    @pytest.mark.parametrize("digit", [True, 1.0, 1 + 0j, np.int64(1)], ids=repr)
    def test_rejects_values_equal_to_a_bit_that_are_not_ints(self, digit):
        # a tuple of digits is no string, whatever its digits equal
        with pytest.raises(ValueError, match=self.NOT_BITS):
            phase_from_bits((0, digit), 8)

    @pytest.mark.parametrize("digits", [[1.0, 0.0], [True, False], (1 + 0j,), [np.int64(1)]], ids=repr)
    def test_phase_from_bits_rejects_digits_that_are_not_ints(self, digits):
        with pytest.raises(ValueError, match=self.NOT_BITS):
            phase_from_bits(digits, 8)

    @pytest.mark.parametrize("digit", [2, -1, 0.5, "1", None, [1]], ids=repr)
    def test_rejects_values_not_equal_to_a_bit(self, digit):
        # an unhashable digit is rejected with the same ValueError
        with pytest.raises(ValueError, match=self.NOT_BITS):
            phase_from_bits((0, digit), 8)


class TestBitBudget:
    def test_guard_margin(self):
        check_bit_budget(60, 64)
        check_bit_budget(4, 8)
        with pytest.raises(ValueError, match="^configuration needs 61 significant bits; width 64 allows 60$"):
            check_bit_budget(61, 64)
        with pytest.raises(ValueError, match="^configuration needs 5 significant bits; width 8 allows 4$"):
            check_bit_budget(5, 8)

    @pytest.mark.parametrize("width,allows", [(1, 0), (3, 0), (4, 0), (5, 1)])
    def test_allowance_is_never_negative(self, width, allows):
        with pytest.raises(ValueError, match=f"^configuration needs 9 significant bits; width {width} allows {allows}$"):
            check_bit_budget(9, width)

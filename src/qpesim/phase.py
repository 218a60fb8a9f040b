"""Fixed-point phase arithmetic on the unit circle.

A phase is a W-bit binary fraction in [0, 1), stored as an unsigned
integer ``raw`` with value ``raw / 2**W``.  All structural operations
(doubling, bit extraction, correction subtraction) are exact integer
arithmetic modulo 2**W, so repeated doubling never accumulates rounding
drift.  Only the trigonometric probability formulas go through floats.

An integer ``x`` of W-bit units becomes the float ``x / 2**W`` as
``math.ldexp(x, -W)`` when W is at most ``MAX_LDEXP_WIDTH``, and by the
integer division otherwise.  Both give the same double: converting an
int to a float rounds it correctly, and scaling by 2**-W is exact while
the result stays normal, which any nonzero ``x`` keeps for W <= 1022.
The scaling skips CPython's exact bigint division, which every operand
past 2**53 (every 64-bit span) takes.
"""

from __future__ import annotations

import enum
import math
import operator
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, TypeVar

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_WIDTH = 64

# Widest W at which x / 2**W is computed as math.ldexp(x, -W): up to it no
# nonzero x scales below 2**-1022, the least normal double, so the scaling is exact.
MAX_LDEXP_WIDTH = 1022

# Low raw bits no configuration may consume; check_bit_budget enforces the margin.
GUARD_BITS = 4


def as_int(value: Any, message: str) -> int:
    """The int ``operator.index`` reads ``value`` as (a numpy integer too), or ``ValueError(message)``."""
    if value.__class__ is int:
        return value
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(message) from None


_Member = TypeVar("_Member", bound=enum.Enum)


def as_member(kind: type[_Member], value: Any, field: str) -> _Member:
    """The member of ``kind`` that ``value`` is or has as its value, or ``ValueError`` naming ``field``."""
    try:
        return kind(value)
    except (ValueError, TypeError):  # TypeError: an unhashable value
        choices = ", ".join(repr(member.value) for member in kind)
        raise ValueError(f"{field} must be a {kind.__name__} or one of {choices}") from None


def check_bit_budget(needed: int, width: int) -> None:
    """Reject a configuration needing more significant bits than ``width - GUARD_BITS``."""
    if needed > width - GUARD_BITS:
        raise ValueError(
            f"configuration needs {needed} significant bits; "
            f"width {width} allows {max(0, width - GUARD_BITS)}"
        )


_BINARY_LITERAL = re.compile(r"^0\.([01]+)b$")
_RAW_LITERAL = re.compile(r"^(\d+)@(\d+)$")
# The exponent of a decimal literal, in the digits-and-underscores form Fraction reads.
_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)$")

# Widest raw@width literal: a Phase builds 2**width, so a huge width would exhaust memory.
# Also the most digits a decimal literal may have, and its exponent's largest magnitude.
MAX_LITERAL_WIDTH = 4096
# Characters of a rejected literal that its error message repeats.
_ECHO_CHARS = 40


class TestBasis(enum.Enum):
    """Measurement basis of a single-ancilla Hadamard test.

    COSINE is the plain test (no extra ancilla gate); SINE inserts the
    extra diag(1, i) gate before the controlled unitary, moving the
    interference fringe by a quarter turn.
    """

    COSINE = "cosine"
    SINE = "sine"


@dataclass(frozen=True)
class Phase:
    """Fraction of a full turn, stored as ``raw / 2**width``.

    ``raw`` and ``width`` may be any integer type ``operator.index`` reads;
    each is stored as the int it equals.
    """

    raw: int
    width: int = DEFAULT_WIDTH

    def __post_init__(self) -> None:
        if self.raw.__class__ is not int or self.width.__class__ is not int:
            object.__setattr__(self, "raw", as_int(self.raw, "phase raw value must be an integer"))
            object.__setattr__(self, "width", as_int(self.width, "phase width must be an integer"))
        if self.width < 1:
            raise ValueError("phase width must be positive")
        if not 0 <= self.raw < (1 << self.width):
            raise ValueError(f"raw value {self.raw} out of range for width {self.width}")

    @property
    def value(self) -> float:
        """Phase as a float in [0, 1] (the top of the range only via float rounding).

        ``raw / 2**width``, scaled with ``math.ldexp`` up to ``MAX_LDEXP_WIDTH``.
        """
        width = self.width
        return math.ldexp(self.raw, -width) if width <= MAX_LDEXP_WIDTH else self.raw / (1 << width)

    def bit(self, i: int) -> int:
        """The i-th fractional bit (1-indexed, MSB first); bits past the width are 0."""
        if i < 1:
            raise ValueError("bit positions are 1-indexed")
        if i > self.width:
            return 0
        return (self.raw >> (self.width - i)) & 1

    def __str__(self) -> str:
        return f"{self.raw}/2^{self.width}"


def phase_from_bits(bits: str, width: int = DEFAULT_WIDTH) -> Phase:
    """Exact conversion of a binary fraction's digits (a str, x_1 first) to a width-bit Phase."""
    if not isinstance(bits, str) or bits.strip("01"):
        raise ValueError("bits must be a string of 0s and 1s")
    if len(bits) > width:
        raise ValueError("bit string longer than phase width")
    return Phase(int(bits or "0", 2) << (width - len(bits)), width)


def phase_from_fraction(value: Fraction, width: int = DEFAULT_WIDTH) -> Phase:
    """Round an exact rational in [0, 1) to the nearest W-bit phase, ties to even.

    A value that rounds up to 1 wraps to 0 (arithmetic is modulo 1).
    """
    if not 0 <= value < 1:
        raise ValueError("phase value must lie in [0, 1)")
    scaled = value * (1 << width)
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    double_rem = 2 * rem
    if double_rem > scaled.denominator or (double_rem == scaled.denominator and whole % 2 == 1):
        whole += 1
    return Phase(whole % (1 << width), width)


def phase_from_float(value: float, width: int = DEFAULT_WIDTH) -> Phase:
    """Round a float in [0, 1) to the nearest W-bit phase, ties to even.

    Exact: up to ``MAX_LDEXP_WIDTH`` the scaling by 2**W is exact and
    ``round`` rounds half to even, so the result equals
    ``phase_from_fraction(Fraction(value), width)``, which a wider phase
    computes.  A value that rounds up to 1 wraps to 0.
    """
    if not 0.0 <= value < 1.0:  # also rejects NaN
        raise ValueError("phase value must lie in [0, 1)")
    if width > MAX_LDEXP_WIDTH:
        from fractions import Fraction

        return phase_from_fraction(Fraction(value), width)
    return Phase(round(math.ldexp(value, width)) & ((1 << width) - 1), width)


def parse_phase(text: str, width: int = DEFAULT_WIDTH) -> Phase:
    """Parse a phase literal.

    Four forms are accepted: a binary fraction with ``b`` suffix
    (``0.101101b``, exact), a raw/width pair (``181@8`` meaning 181/2**8,
    exact, width taken from the literal, at most ``MAX_LITERAL_WIDTH``),
    a decimal in [0, 1) of at most ``MAX_LITERAL_WIDTH`` digits and
    an exponent of magnitude at most ``MAX_LITERAL_WIDTH`` (rounded to
    the nearest width-bit value, ties to even), or the rational form
    ``p/q`` in [0, 1) (``1/3``), whose digits are counted and whose
    value is rounded like a decimal's.  A decimal or rational may carry
    a sign (``+0.5``); ``p/0`` is not a phase literal.  A rejected
    literal's message repeats at most its first 40 characters.
    """
    text = text.strip()
    m = _BINARY_LITERAL.match(text)
    if m:
        return phase_from_bits(m.group(1), width)
    m = _RAW_LITERAL.match(text)
    if m:
        # Counted before int(): a raw value of over MAX_LITERAL_WIDTH digits fits no width.
        raw, width_text = (digits.lstrip("0") or "0" for digits in m.groups())
        if len(width_text) > len(str(MAX_LITERAL_WIDTH)) or int(width_text) > MAX_LITERAL_WIDTH:
            raise ValueError(f"phase literal width exceeds the cap of {MAX_LITERAL_WIDTH} bits")
        if len(raw) > MAX_LITERAL_WIDTH:
            raise ValueError(f"raw value of {len(raw)} digits out of range for width {width_text}")
        return Phase(int(raw), int(width_text))
    # Counted before Fraction(): past CPython's int-digit limit it raises, and
    # the decimal would be reported as no phase literal at all.
    digits = sum(map(str.isdigit, text))
    if digits > MAX_LITERAL_WIDTH:
        raise ValueError(f"decimal phase literal of {digits} digits exceeds the cap of {MAX_LITERAL_WIDTH} digits")
    # Read before Fraction(), which builds 10**exponent; the digit cap keeps int() cheap.
    m = _DECIMAL_EXPONENT.search(text)
    if m and int(m.group(1)) > MAX_LITERAL_WIDTH:
        raise ValueError(
            f"decimal phase literal's exponent exceeds the cap of {MAX_LITERAL_WIDTH} in magnitude"
        )
    from fractions import Fraction

    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        shown = text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "..."
        raise ValueError(f"not a phase literal: {shown!r}") from exc
    return phase_from_fraction(value, width)


def double_k(phi: Phase, k: int) -> Phase:
    """2**k * phi modulo 1, as an exact left shift of the raw value."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    mask = (1 << phi.width) - 1
    return Phase((phi.raw << k) & mask, phi.width)


def mod1_distance(a: Phase, b: Phase) -> float:
    """Distance on the unit circle, min(|a-b|, 1-|a-b|), in [0, 1/2].

    Exact: integer arithmetic on two phases of one width, then one
    scaling to a float, ``math.ldexp`` up to ``MAX_LDEXP_WIDTH`` and a
    division past it; phases of different widths raise ``ValueError``.
    """
    width = a.width
    if width != b.width:
        raise ValueError(f"phases of widths {width} and {b.width}; the distance needs one width")
    span = 1 << width
    d = (a.raw - b.raw) % span
    if 2 * d > span:
        d = span - d
    return math.ldexp(d, -width) if width <= MAX_LDEXP_WIDTH else d / span


def hadamard_probs(phi_k: Phase, basis: TestBasis) -> tuple[float, float]:
    """Outcome probabilities (p0, p1) of a Hadamard test at phase phi_k.

    COSINE: p0 = (1 + cos 2*pi*phi_k)/2.  SINE: p1 = (1 + sin 2*pi*phi_k)/2.
    The pair always sums to 1 up to one ulp.
    """
    angle = 2.0 * math.pi * phi_k.value
    if basis is TestBasis.COSINE:
        c = math.cos(angle)
        return (1.0 + c) / 2.0, (1.0 - c) / 2.0
    s = math.sin(angle)
    return (1.0 - s) / 2.0, (1.0 + s) / 2.0


def corrected_residual(phi_k: Phase, prior_bits: Iterable[int]) -> Phase:
    """Subtract the phase corrections driven by already-known lower bits.

    ``prior_bits`` lists the lower-significance bits nearest first; bit l
    (1-indexed) removes l+1 positions below the leading bit, i.e. the
    phase contribution 2**-(l+1).  With the true bits supplied, the
    result is 0.x 0...0 tail with the leading bit intact and the next
    ``len(prior_bits)`` positions cleared.
    """
    raw = phi_k.raw
    for offset, b in enumerate(prior_bits, start=2):
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        if offset > phi_k.width:
            raise ValueError("correction finer than phase width")
        if b:
            raw -= 1 << (phi_k.width - offset)
    return Phase(raw % (1 << phi_k.width), phi_k.width)


def post_h_prob_one(residual: Phase) -> float:
    """Probability of measuring 1 after the final Hadamard, sin^2(pi * residual)."""
    return math.sin(math.pi * residual.value) ** 2

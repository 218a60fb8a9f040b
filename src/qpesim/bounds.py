"""Closed-form trial budgets and success-probability bounds.

Everything here is analytic: the known lower bounds for full and
approximate QFT phase estimation, the side-by-side per-bit trial table,
and the trial budgets of both estimator families.  Every budget is one
Chernoff inversion, ``chernoff_trials(coeff, c, eps)``: the smallest m
with c*exp(-m/coeff) <= eps.  The two families differ only in the
coefficient (``kitaev_coefficient``, ``const_precision_coefficient``),
and a union bound over n bits is the factor n in c.
"""

from __future__ import annotations

import enum
import math
import warnings
from typing import NamedTuple

# Success probabilities of the published per-bit trial table.
TABLE_SUCCESS_PROBS = (0.50000, 0.68269, 0.95450, 0.99730, 0.99993)

# Failure budget and constant-precision degree used when none is given.
DEFAULT_EPS = 0.05
DEFAULT_DEGREE = 3


class BudgetMode(enum.Enum):
    """Constant used in the per-bit budget of the two-basis estimator.

    ROUNDED47 uses the conventional rounded coefficient 47 that the
    published trial table is built on; EXACT uses
    1/delta^2 = 46.627... with delta the accuracy threshold below.
    """

    ROUNDED47 = "rounded47"
    EXACT = "exact"


class TrialTableRow(NamedTuple):
    """One row of the per-bit trial comparison table."""

    success_prob: float
    eps: float
    kitaev_trials: int
    const_precision_trials: int


def chernoff_tail(delta: float, m: int) -> float:
    """Two-sided Chernoff bound 2*exp(-2*delta^2*m) on a frequency deviation.

    The raw expression exceeds 1 for small m; it is clamped to 1.
    """
    if delta <= 0:
        raise ValueError("deviation must be positive")
    if m < 0:
        raise ValueError("trial count must be nonnegative")
    return min(1.0, 2.0 * math.exp(-2.0 * delta * delta * m))


def kitaev_accuracy_threshold() -> float:
    """Largest per-probability estimation error that still pins the phase to 1/16.

    Equals (2 - sqrt(2))/4 = sin^2(pi/8) ~ 0.1464; twice this value is
    the 1 - 1/sqrt(2) error allowance of each sine/cosine estimate.
    """
    return (2.0 - math.sqrt(2.0)) / 4.0


def chernoff_trials(coeff: float, c: float, eps: float) -> int:
    """Smallest m with c*exp(-m/coeff) <= eps: ceil(coeff * log(c / eps)).

    Every trial budget is this inversion; a union bound over n bits is the
    factor n in c, an int.  The log is log(c) - log(eps) where the quotient
    c / eps overflows, to inf or (an int c past the largest double) by
    raising, so every eps in (0, 1) and every c has a count.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("failure budget must lie in (0, 1)")
    try:
        ratio = c / eps
    except OverflowError:
        ratio = math.inf
    return math.ceil(coeff * (math.log(ratio) if ratio != math.inf else math.log(c) - math.log(eps)))


def kitaev_coefficient(mode: BudgetMode = BudgetMode.ROUNDED47) -> float:
    """Two-basis tests per bit per unit of log(4/eps): 47, or 2/(2*delta^2) = 46.627... (EXACT)."""
    if mode is BudgetMode.ROUNDED47:
        return 47.0
    delta = kitaev_accuracy_threshold()
    return 2.0 / (2.0 * delta * delta)


def kitaev_trials_per_bit(eps: float, mode: BudgetMode = BudgetMode.ROUNDED47) -> int:
    """Hadamard tests per bit for the two-basis estimator at failure budget eps.

    The table's rounding: the whole per-bit budget rounded up, 337 at eps = 0.05/16.
    """
    return chernoff_trials(kitaev_coefficient(mode), 4.0, eps)


def kitaev_total_budget(
    n: int, eps_overall: float, mode: BudgetMode = BudgetMode.ROUNDED47
) -> tuple[int, int]:
    """(per-bit, total) Hadamard tests for n bits at overall failure budget eps.

    The union bound over the n stages is the factor n in the tail's
    constant, 4n/eps, so each stage is held to eps/n without eps/n being
    rounded first; the circuit runs all per_bit * n tests in sequence.
    """
    if n < 1:
        raise ValueError("bit count must be positive")
    per_bit = chernoff_trials(kitaev_coefficient(mode), 4 * n, eps_overall)
    return per_bit, per_bit * n


def const_precision_success_per_test(degree: int) -> float:
    """Per-test success floor cos^2(pi / 2**degree) with a degree-m correction window."""
    if degree < 2:
        raise ValueError("degree must be at least 2")
    return math.cos(math.ldexp(math.pi, -degree)) ** 2


def const_precision_coefficient(degree: int) -> float:
    """Majority votes per bit per unit of log(1/eps): 1/(2*(p - 1/2)^2), exactly 4 at degree 3.

    p is the per-test success floor for the degree; below degree 3 it is
    1/2 and there is no majority margin.
    """
    if degree < 3:
        raise ValueError("degree too small for majority margin")
    if degree == 3:
        return 4.0
    margin = const_precision_success_per_test(degree) - 0.5
    return 1.0 / (2.0 * margin * margin)


def const_precision_trials(eps: float, degree: int) -> int:
    """Majority-vote trials per bit for the constant-precision estimator.

    Inverts the one-sided Chernoff bound exp(-2*m*(p - 1/2)^2) <= eps at
    the per-test success floor p for the given degree.  The raw ceiling
    is returned; round up to odd before handing it to a majority vote.
    """
    return chernoff_trials(const_precision_coefficient(degree), 1.0, eps)


def round_up_to_odd(m: int) -> int:
    """Next odd integer >= m; majority votes never tie on odd counts."""
    if m < 1:
        raise ValueError("trial count must be positive")
    return m if m % 2 == 1 else m + 1


def qft_lower_bound() -> float:
    """Worst-case success probability 8/pi^2 of full-QFT phase estimation."""
    return 8.0 / math.pi**2


def aqft_lower_bound_window(n: int, degree: int) -> float:
    """Window-size lower bound (8/pi^2) * sin^2((pi/4) * degree/n).

    Stated for degree >= log2(n) + 2; below that threshold the formula
    is still evaluated but a warning is attached.
    """
    if n < 1:
        raise ValueError("bit count must be positive")
    if degree < 2:
        raise ValueError("degree must be at least 2")
    if degree < math.log2(n) + 2:
        warnings.warn(
            "window-size bound evaluated below its stated degree >= log2(n) + 2 regime",
            stacklevel=2,
        )
    return qft_lower_bound() * math.sin((math.pi / 4.0) * (degree / n)) ** 2


def aqft_lower_bound_cheung(n: int) -> float:
    """Cheung's degree-independent lower bound 4/pi^2 - 1/(4n)."""
    if n < 1:
        raise ValueError("bit count must be positive")
    return 4.0 / math.pi**2 - 1.0 / (4.0 * n)


def aqft_lower_bound(n: int, degree: int) -> float:
    """Best known success lower bound for degree-m approximate-QFT estimation."""
    return max(aqft_lower_bound_window(n, degree), aqft_lower_bound_cheung(n))


def trials_table(
    success_probs: tuple[float, ...] | list[float] | None = None,
    mode: BudgetMode = BudgetMode.ROUNDED47,
) -> list[TrialTableRow]:
    """Per-bit trial budgets of both estimators at the given success probabilities.

    The constant-precision column reports the raw ceiling (possibly
    even); the odd bump belongs to the majority engine, not the table.
    """
    probs = TABLE_SUCCESS_PROBS if success_probs is None else tuple(success_probs)
    rows = []
    for p in probs:
        if not 0.0 < p < 1.0:
            raise ValueError("success probability must lie in (0, 1)")
        eps = 1.0 - p
        if eps == 1.0:
            raise ValueError(f"success probability {p!r} too small: 1 - p rounds to 1")
        rows.append(
            TrialTableRow(
                success_prob=p,
                eps=eps,
                kitaev_trials=kitaev_trials_per_bit(eps, mode),
                const_precision_trials=const_precision_trials(eps, DEFAULT_DEGREE),
            )
        )
    return rows


def trial_ratio() -> float:
    """Asymptotic per-bit trial ratio 47/4 between the two estimators."""
    return kitaev_coefficient() / const_precision_coefficient(DEFAULT_DEGREE)

"""Kitaev-style phase estimation without controlled phase shifts.

Each stage runs two Hadamard-test batteries (plain and quarter-turn
shifted) against 2**(k-1) * phi, reconstructs the stage phase with a
full-circle arctangent, and snaps it to the nearest multiple of 1/8.
Back-substitution over the snapped values stitches an (n+2)-bit
estimate whose error is below 2**-(n+2) whenever every snap landed
within 1/8 of the true stage phase.

A stage runs on the raw phase integer: its angle and outcome
probabilities are the same floats that ``double_k`` and
``hadamard_probs`` compute, each battery's frequency is its count of
ones over m1 (or, on the ``exact`` path, its outcome-1 probability),
and the arctangent is rounded to the phase grid exactly
(``phase_from_float``, equal to ``phase_from_fraction``).  The
estimates 1 - 2*f and 2*f - 1 carry no clamp: every frequency f lies in
[0, 1] (monotone rounding keeps (1 - cos a)/2 and (1 + sin a)/2 there),
so both lie in [-1, 1] exactly and a clamp would never act.  The stage
angle scales the shifted integer to a float as ``Phase.value`` does
(``math.ldexp`` up to ``phase.MAX_LDEXP_WIDTH``).  The snap builds its
eight candidate eighths once per width, calls ``mod1_distance`` on each
in order and keeps a running minimum, replaced only on a strictly
smaller distance, so ties go to the lower eighth.  Those primitives are
the reference that ``TestKitaevReplay`` checks the estimator against,
bit for bit and draw for draw.

The stitch walks on one integer holding the digits decided so far: each
stage compares the two-digit low candidate with its snapped eighth
modulo 8 and sets the new leading digit with a single shift.  The
digits become a ``BitString`` through the byte table of
``BitString.from_int``.  ``stitch_bits`` returns only that string and the
warnings, so ``kitaev_estimate`` reads the digits back with
``BitString.to_int`` to build the estimate ``Phase``.  ``TestStitchReplay``
checks the walk against the digit-by-digit stitch on every snapped
sequence of up to five stages.

A run reads its 2n batteries as the rows of one ``sampling.RunDraws``
(its block layout is described in :mod:`qpesim.sampling`).  A run with
an even ``KitaevConfig.reps`` can tie at (m1/2, m1/2) and raise
``indeterminate angle`` mid-run; before the error leaves
``kitaev_estimate``, the source rewinds the generator over the rows it
drew and did not read, so the generator stops where per-battery draws
would have stopped it, as ``TestKitaevReplay`` requires.

Trial budgets come from a Chernoff inversion and are deliberately
conservative.  Once a battery has seen at least ten outcomes of each
kind, its binomial statistics admit a normal approximation that would
justify smaller budgets; the package reports only the Chernoff numbers
and does not implement that refinement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

from numpy.random import Generator

from .bounds import (
    DEFAULT_EPS,
    BudgetMode,
    check_failure_budget,
    chernoff_trials,
    kitaev_coefficient,
)
from .estimators import EstimationResult, estimate_distance
from .phase import (
    DEFAULT_WIDTH,
    MAX_LDEXP_WIDTH,
    BitString,
    Phase,
    as_int,
    as_member,
    check_bit_budget,
    mod1_distance,
    phase_from_float,
)
from .sampling import RunDraws, run_trials


class StageEstimate(NamedTuple):
    """Reconstruction of one stage phase from its two trial batteries."""

    k: int
    sin_estimate: float
    cos_estimate: float
    phi_tilde: Phase
    beta: int

    def json_entry(self) -> dict[str, Any]:
        """The stage as ``estimate --format json`` prints it."""
        return {
            "stage": self.k, "sin_estimate": self.sin_estimate, "cos_estimate": self.cos_estimate,
            "phi_tilde": self.phi_tilde.value, "beta": self.beta,
        }


@dataclass(frozen=True)
class KitaevConfig:
    """Target bit count, overall failure budget, and overrides (``reps``: per-basis trials).

    ``mode`` is a ``BudgetMode`` or its value, stored as the member.
    """

    n: int
    eps: float = DEFAULT_EPS
    reps: int | None = None
    mode: BudgetMode = BudgetMode.ROUNDED47

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_int(self.n, "n must be an integer"))
        if self.reps is not None:
            object.__setattr__(self, "reps", as_int(self.reps, "reps must be an integer"))
        object.__setattr__(self, "mode", as_member(BudgetMode, self.mode, "mode"))
        if self.n < 1:
            raise ValueError("bit count must be positive")
        check_failure_budget(self.eps)
        if self.reps is not None and self.reps < 1:
            raise ValueError("per-basis trials must be positive")

    def run(self, phi: Phase, rng: Generator) -> tuple[EstimationResult, bool]:
        """One engine run and its :func:`within_guarantee`, both looked up by name when called."""
        result = kitaev_estimate(phi, self, rng)
        return result, within_guarantee(result, phi, self.n)


def trials_per_basis(cfg: KitaevConfig) -> int:
    """Per-basis trial count m1: half the per-bit budget, each stage held to eps/n.

    The union bound is the factor n in the constant 4n of
    ``bounds.chernoff_trials``.  The engine's rounding: each basis rounded
    up, 2*169 = 338 tests per bit at n = 16, eps = 0.05, where the table's
    ``kitaev_trials_per_bit`` gives 337.
    """
    if cfg.reps is not None:
        return cfg.reps
    return chernoff_trials(kitaev_coefficient(cfg.mode) / 2.0, 4 * cfg.n, cfg.eps)


def arctan_phase(s: float, t: float, width: int = DEFAULT_WIDTH) -> Phase:
    """Full-circle angle atan2(s, t)/(2*pi) mod 1 as a width-bit phase.

    Using both the sine and cosine signs resolves the half-turn
    ambiguity of a plain arctangent.
    """
    if s == 0.0 and t == 0.0:
        raise ValueError("indeterminate angle")
    turns = (math.atan2(s, t) / math.tau) % 1.0
    if turns >= 1.0:  # tiny negative angles round up to 1.0 under fmod
        turns = 0.0
    return phase_from_float(turns, width)


@functools.cache
def _eighths(width: int) -> tuple[Phase, ...]:
    """The eight phases j/8 at the given width, built once per width."""
    return tuple(Phase(j << (width - 3), width) for j in range(8))


def snap_beta(phi_tilde: Phase) -> int:
    """Index j of the closest eighth j/8 (mod 1); ties go to the lower index.

    The candidates are built once per width; all eight distances go
    through ``mod1_distance`` in order, and a running minimum replaced
    only on a strictly smaller distance keeps the first minimum.
    """
    best, best_distance = 0, 1.0
    for j, eighth in enumerate(_eighths(phi_tilde.width)):
        distance = mod1_distance(phi_tilde, eighth)
        if distance < best_distance:
            best, best_distance = j, distance
    return best


def estimate_stage(
    phi: Phase, k: int, m1: int, rng: Generator | RunDraws, exact: bool = False
) -> StageEstimate:
    """Estimate stage k from m1 COSINE plus m1 SINE Hadamard tests.

    The stage phase 2**(k-1) * phi is the raw integer shifted modulo
    2**width; its angle and the two outcome-1 probabilities are the
    floats that ``double_k`` followed by ``hadamard_probs`` give.
    ``exact`` replaces sampling by the exact outcome probabilities (the
    noiseless oracle used to validate the reconstruction pipeline).
    ``rng`` is a generator or a run's ``RunDraws`` of rows of m1.
    """
    if k < 1:
        raise ValueError("stage index must be positive")
    width = phi.width
    span = 1 << width
    stage = (phi.raw << (k - 1)) & (span - 1)
    angle = math.tau * (math.ldexp(stage, -width) if width <= MAX_LDEXP_WIDTH else stage / span)
    p1_cos = (1.0 - math.cos(angle)) / 2.0
    p1_sin = (1.0 + math.sin(angle)) / 2.0
    if exact:
        freq_cos, freq_sin = p1_cos, p1_sin
    else:
        freq_cos = run_trials(p1_cos, m1, rng) / m1
        freq_sin = run_trials(p1_sin, m1, rng) / m1
    # 2*p0 - 1 and 2*p1 - 1, each in [-1, 1] as its frequency lies in [0, 1].
    cos_estimate = 1.0 - 2.0 * freq_cos
    sin_estimate = 2.0 * freq_sin - 1.0
    phi_tilde = arctan_phase(sin_estimate, cos_estimate, width)
    return StageEstimate(k, sin_estimate, cos_estimate, phi_tilde, snap_beta(phi_tilde))


def stitch_bits(betas: Sequence[int]) -> tuple[BitString, tuple[str, ...]]:
    """Back-substitute snapped stage values into an (n+2)-bit estimate.

    The three digits of the last stage seed x_n x_{n+1} x_{n+2}; walking
    k = n-1 down to 1, x_k is the leading bit whose 3-bit candidate
    0.x_k x_{k+1} x_{k+2} lies within 1/4 of beta_k/8.  With consistent
    betas exactly one candidate qualifies; the impossible equidistant
    case (distance exactly 1/4 both ways, only reachable through
    inconsistent snaps) picks 0 and flags a warning.

    The digits decided so far, x_{k+1} .. x_{n+2}, are one integer
    ``value``; its top two digits ``value >> (n - k)`` are the low
    candidate in eighths, and ``d = (low - beta_k) mod 8`` decides:
    d in {0, 1, 7} puts the low candidate within 1/4 (x_k = 0), d in
    {3, 4, 5} puts the high one, low + 4, within 1/4 (x_k = 1), and
    d in {2, 6} is the equidistant case.
    """
    n = len(betas)
    if n < 1:
        raise ValueError("need at least one stage")
    if min(betas) < 0 or max(betas) > 7:
        raise ValueError("snapped values must lie in 0..7")
    value = betas[-1]  # x_n x_{n+1} x_{n+2}
    flagged: list[str] = []
    for k in range(n - 1, 0, -1):
        d = ((value >> (n - k)) - betas[k - 1]) & 7
        if 3 <= d <= 5:
            value |= 1 << (n + 2 - k)
        elif d == 2 or d == 6:
            flagged.append(f"stage {k}: candidates equidistant from snapped estimate, chose 0")
    return BitString.from_int(value, n + 2), tuple(flagged)


def kitaev_estimate(
    phi: Phase, cfg: KitaevConfig, rng: Generator, exact: bool = False
) -> EstimationResult:
    """End-to-end estimator: n stage batteries, snap, stitch to n+2 bits.

    The 2n batteries are the rows of one ``RunDraws`` on ``rng``; a run
    that raises rewinds ``rng`` to the end of the last battery it read.
    """
    width = phi.width
    check_bit_budget(cfg.n + 2, width)
    m1 = trials_per_basis(cfg)
    source = RunDraws(rng, 2 * cfg.n, m1)
    try:
        stages = [estimate_stage(phi, k, m1, source, exact=exact) for k in range(1, cfg.n + 1)]
    except ValueError:
        source.rewind()
        raise
    bits, warnings = stitch_bits([s.beta for s in stages])
    return EstimationResult(
        bits=bits,
        estimate=Phase(bits.to_int() << (width - cfg.n - 2), width),
        stage_log=tuple(stages),
        total_tests=2 * m1 * cfg.n,
        warnings=warnings,
    )


def within_guarantee(result: EstimationResult, phi: Phase, n: int) -> bool:
    """Whether the stitched estimate meets the strict 2**-(n+2) error guarantee.

    The error is ``estimators.estimate_distance``; the n + 2 bits must
    fit ``phi.width``.
    """
    if not 1 <= n <= phi.width - 2:
        raise ValueError("n must lie in 1..width-2")
    return estimate_distance(result, phi) < 1 << (phi.width - (n + 2))

"""Kitaev-style phase estimation without controlled phase shifts.

Each stage runs two Hadamard-test batteries (plain and quarter-turn
shifted) against 2**(k-1) * phi, reconstructs the stage phase with a
full-circle arctangent, and snaps it to the nearest multiple of 1/8.
Back-substitution over the snapped values stitches an (n+2)-bit
estimate whose error is below 2**-(n+2) whenever every snap landed
within 1/8 of the true stage phase.

A stage runs on the raw phase integer: its angle and outcome
probabilities are the same floats that ``double_k`` and
``hadamard_probs`` compute, the arctangent is rounded to the phase grid
exactly (``phase_from_float``, equal to ``phase_from_fraction``), and
the eight candidate eighths of the snap are built once per width.
Those primitives are the reference that ``TestKitaevReplay`` checks the
estimator against, bit for bit and draw for draw.

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
from typing import Sequence

from numpy.random import Generator

from .bounds import finite_ceil, kitaev_accuracy_threshold
from .estimators import EstimationResult
from .phase import (
    DEFAULT_WIDTH,
    GUARD_BITS,
    BitString,
    Phase,
    mod1_distance,
    phase_from_bits,
    phase_from_float,
)
from .sampling import frequency_estimate, run_trials


@dataclass(frozen=True)
class StageEstimate:
    """Reconstruction of one stage phase from its two trial batteries."""

    k: int
    sin_estimate: float
    cos_estimate: float
    phi_tilde: Phase
    beta: int


@dataclass(frozen=True)
class KitaevConfig:
    """Target bit count, overall failure budget, and optional budget overrides."""

    n: int
    eps: float
    trials_per_test: int | None = None
    width: int = DEFAULT_WIDTH
    exact_constants: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("bit count must be positive")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("failure budget must lie in (0, 1)")
        if self.trials_per_test is not None and self.trials_per_test < 1:
            raise ValueError("trials per test must be positive")
        if self.n + 2 > self.width - GUARD_BITS:
            raise ValueError("bit count too large for phase width")


def trials_per_basis(cfg: KitaevConfig) -> int:
    """Per-basis trial count m1: half the per-bit budget at per-stage budget eps/n."""
    if cfg.trials_per_test is not None:
        return cfg.trials_per_test
    if cfg.exact_constants:
        delta = kitaev_accuracy_threshold()
        coeff = 1.0 / (2.0 * delta * delta)
    else:
        coeff = 47.0 / 2.0
    return finite_ceil(coeff * math.log(4.0 * cfg.n / cfg.eps))


def arctan_phase(s: float, t: float, width: int = DEFAULT_WIDTH) -> Phase:
    """Full-circle angle atan2(s, t)/(2*pi) mod 1 as a width-bit phase.

    Using both the sine and cosine signs resolves the half-turn
    ambiguity of a plain arctangent.
    """
    if s == 0.0 and t == 0.0:
        raise ValueError("indeterminate angle")
    turns = (math.atan2(s, t) / (2.0 * math.pi)) % 1.0
    if turns >= 1.0:  # tiny negative angles round up to 1.0 under fmod
        turns = 0.0
    return phase_from_float(turns, width)


@functools.cache
def _eighths(width: int) -> tuple[Phase, ...]:
    """The eight phases j/8 at the given width, built once per width."""
    return tuple(Phase(j << (width - 3), width) for j in range(8))


def snap_beta(phi_tilde: Phase) -> int:
    """Index j of the closest eighth j/8 (mod 1); ties go to the lower index.

    The candidates are built once per width; all eight comparisons go
    through ``mod1_distance``.
    """
    eighths = _eighths(phi_tilde.width)
    best_j = 0
    best_d = mod1_distance(phi_tilde, eighths[0])
    for j in range(1, 8):
        d = mod1_distance(phi_tilde, eighths[j])
        if d < best_d:
            best_j, best_d = j, d
    return best_j


def estimate_stage(
    phi: Phase, k: int, m1: int, rng: Generator, exact: bool = False
) -> StageEstimate:
    """Estimate stage k from m1 COSINE plus m1 SINE Hadamard tests.

    The stage phase 2**(k-1) * phi is the raw integer shifted modulo
    2**width; its angle and the two outcome-1 probabilities are the
    floats that ``double_k`` followed by ``hadamard_probs`` give.
    ``exact`` replaces sampling by the exact outcome probabilities (the
    noiseless oracle used to validate the reconstruction pipeline).
    """
    if k < 1:
        raise ValueError("stage index must be positive")
    width = phi.width
    angle = 2.0 * math.pi * (((phi.raw << (k - 1)) & ((1 << width) - 1)) / (1 << width))
    p1_cos = (1.0 - math.cos(angle)) / 2.0
    p1_sin = (1.0 + math.sin(angle)) / 2.0
    if exact:
        freq_cos = p1_cos
        freq_sin = p1_sin
    else:
        freq_cos = frequency_estimate(run_trials(p1_cos, m1, rng))
        freq_sin = frequency_estimate(run_trials(p1_sin, m1, rng))
    # 2*p0 - 1 and 2*p1 - 1; clamping is the maximum-likelihood projection
    # onto the valid range (a no-op for frequencies, kept for safety).
    cos_estimate = min(1.0, max(-1.0, 1.0 - 2.0 * freq_cos))
    sin_estimate = min(1.0, max(-1.0, 2.0 * freq_sin - 1.0))
    phi_tilde = arctan_phase(sin_estimate, cos_estimate, width)
    return StageEstimate(
        k=k,
        sin_estimate=sin_estimate,
        cos_estimate=cos_estimate,
        phi_tilde=phi_tilde,
        beta=snap_beta(phi_tilde),
    )


def _eighths_distance(a: int, b: int) -> int:
    """Circular distance between multiples of 1/8, in units of 1/8."""
    d = (a - b) % 8
    return min(d, 8 - d)


def stitch_bits(betas: Sequence[int]) -> tuple[BitString, tuple[str, ...]]:
    """Back-substitute snapped stage values into an (n+2)-bit estimate.

    The three digits of the last stage seed x_n x_{n+1} x_{n+2}; walking
    k = n-1 down to 1, x_k is the leading bit whose 3-bit candidate
    0.x_k x_{k+1} x_{k+2} lies within 1/4 of beta_k/8.  With consistent
    betas exactly one candidate qualifies; the impossible equidistant
    case (distance exactly 1/4 both ways, only reachable through
    inconsistent snaps) picks 0 and flags a warning.
    """
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


def kitaev_estimate(
    phi: Phase, cfg: KitaevConfig, rng: Generator, exact: bool = False
) -> EstimationResult:
    """End-to-end estimator: n stage batteries, snap, stitch to n+2 bits."""
    if phi.width != cfg.width:
        raise ValueError("phase width does not match configuration width")
    m1 = trials_per_basis(cfg)
    stages = [estimate_stage(phi, k, m1, rng, exact=exact) for k in range(1, cfg.n + 1)]
    bits, warnings = stitch_bits([s.beta for s in stages])
    return EstimationResult(
        bits=bits,
        estimate=phase_from_bits(bits, phi.width),
        stage_log=tuple(stages),
        total_tests=2 * m1 * cfg.n,
        warnings=warnings,
    )


def within_guarantee(result: EstimationResult, phi: Phase, n: int) -> bool:
    """Whether the stitched estimate meets the strict 2**-(n+2) error guarantee."""
    est = phase_from_bits(result.bits, phi.width)
    span = 1 << phi.width
    d = (est.raw - phi.raw) % span
    return min(d, span - d) < (1 << (phi.width - (n + 2)))

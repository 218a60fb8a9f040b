"""Seeded Bernoulli sampling of measurement outcomes and trial statistics.

Reproducibility contract: a given (master, stream) seed pair produces a
bit-identical outcome sequence on every platform.  The generator is
numpy's PCG64 keyed through SeedSequence, whose streams are stable
across platforms and numpy releases; uniforms are 53-bit-mantissa
doubles drawn from the integer stream.  Independent runs never share a
generator; they each get a stream derived with :func:`derive_run_seed`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, odd
# Largest uniform batch one run_trials draw allocates (512 KiB of doubles).
_CHUNK = 1 << 16
# Distinct (m, h) counts run_trials keeps one shared TrialStats for.
_INTERNED_STATS = 1 << 10


@dataclass(frozen=True)
class RngSeed:
    """Master seed plus a derived stream index, both 64-bit."""

    master: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.master <= _MASK64:
            raise ValueError("master seed must be a 64-bit unsigned integer")
        if not 0 <= self.stream <= _MASK64:
            raise ValueError("stream must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class TrialStats:
    """Counts from repeated identical tests: t trials, h outcomes equal to 1."""

    t: int
    h: int

    def __post_init__(self) -> None:
        if self.t < 0 or not 0 <= self.h <= self.t:
            raise ValueError(f"invalid trial counts t={self.t}, h={self.h}")


# The two possible outcomes of a single trial, indexed by the outcome.
_SINGLE_TRIAL = (TrialStats(t=1, h=0), TrialStats(t=1, h=1))


@functools.lru_cache(maxsize=_INTERNED_STATS)
def _trial_stats(m: int, h: int) -> TrialStats:
    return TrialStats(t=m, h=h)


def _splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer (public-domain constants)."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_run_seed(seed: RngSeed, index: int) -> RngSeed:
    """Deterministically mix (seed, index) into a fresh independent stream."""
    if index < 0:
        raise ValueError("run index must be nonnegative")
    mixed = _splitmix64((seed.stream + (_GOLDEN * (index + 1))) & _MASK64)
    return RngSeed(seed.master, mixed)


def make_generator(seed: RngSeed) -> Generator:
    """PCG64 generator keyed by (master, stream); single-owner, never shared."""
    return Generator(PCG64(SeedSequence(entropy=seed.master, spawn_key=(seed.stream,))))


def bernoulli(p: float, rng: Generator) -> int:
    """One draw that is 1 with probability p; advances the generator."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("invalid probability")
    return 1 if rng.random() < p else 0


def run_trials(p: float, m: int, rng: Generator) -> TrialStats:
    """m independent Bernoulli(p) draws, counting the 1 outcomes.

    Consumes exactly the same uniform stream as m successive
    :func:`bernoulli` calls, so batched and one-at-a-time sampling are
    interchangeable.  A single trial draws one scalar; larger batches
    draw at most ``_CHUNK`` uniforms at a time, so memory stays bounded
    for any m.  The result is a shared, frozen ``TrialStats``: one of two
    for m == 1, and from a cache of the 1024 most recent (m, h) pairs
    otherwise.
    """
    if m < 1:
        raise ValueError("trial count must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("invalid probability")
    if m == 1:
        return _SINGLE_TRIAL[rng.random() < p]
    h = 0
    left = m
    while left > _CHUNK:
        h += int(np.count_nonzero(rng.random(_CHUNK) < p))
        left -= _CHUNK
    h += int(np.count_nonzero(rng.random(left) < p))
    return _trial_stats(m, h)


def frequency_estimate(stats: TrialStats) -> float:
    """Maximum-likelihood outcome frequency h/t."""
    if stats.t < 1:
        raise ValueError("no trials")
    return stats.h / stats.t


def majority(stats: TrialStats) -> int:
    """Majority vote over an odd number of trials; even counts are rejected."""
    if stats.t % 2 == 0:
        raise ValueError("tie-prone trial count")
    return 1 if 2 * stats.h > stats.t else 0

"""Seeded Bernoulli sampling of measurement outcomes.

Reproducibility contract: a given (master, stream) seed pair produces a
bit-identical outcome sequence on every platform.  The generator is
numpy's PCG64 keyed through SeedSequence, whose streams are stable
across platforms and numpy releases; uniforms are 53-bit-mantissa
doubles drawn from the integer stream.  Independent runs never share a
generator; they each get a stream derived with :func:`derive_run_seed`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, odd
# Largest uniform batch one run_trials draw allocates (512 KiB of doubles).
_CHUNK = 1 << 16


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


def run_trials(p: float, m: int, rng: Generator) -> int:
    """The number of 1 outcomes in m independent Bernoulli(p) draws.

    Consumes exactly the same uniform stream as m successive
    ``rng.random() < p`` draws, so batched and one-at-a-time sampling are
    interchangeable.  A single trial draws one scalar; larger batches
    draw at most ``_CHUNK`` uniforms at a time, so memory stays bounded
    for any m.
    """
    if m < 1:
        raise ValueError("trial count must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("invalid probability")
    if m == 1:
        return 1 if rng.random() < p else 0
    h = 0
    while m > _CHUNK:
        h += int(np.count_nonzero(rng.random(_CHUNK) < p))
        m -= _CHUNK
    return h + int(np.count_nonzero(rng.random(m) < p))

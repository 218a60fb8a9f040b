"""Reference trial primitives the sampler and the engines are checked against.

``qpesim.sampling.run_trials`` returns the count h of 1 outcomes in t
trials; these are the one-draw and count-reading definitions it is
tested against.  :class:`LoggedGenerator` records the draws a caller
makes from a generator.  :func:`reference_seed_sequence` and
:func:`reference_generator` key a run's generator the way the
reproducibility contract states it, through numpy's own SeedSequence;
``qpesim.sampling.make_generator`` is checked against them, and
:func:`reference_run_stream`, the splitmix64 stream derivation on Python
ints, is what ``qpesim.sampling`` derives on uint64 arrays.
"""

from __future__ import annotations

from typing import Any

from numpy.random import Generator, PCG64, SeedSequence


def bernoulli(p: float, rng: Generator) -> int:
    """One draw that is 1 with probability p; advances the generator."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("invalid probability")
    return 1 if rng.random() < p else 0


def _check_counts(h: int, t: int) -> None:
    if t < 0 or not 0 <= h <= t:
        raise ValueError(f"invalid trial counts t={t}, h={h}")


def frequency_estimate(h: int, t: int) -> float:
    """Maximum-likelihood outcome frequency h/t."""
    _check_counts(h, t)
    if t < 1:
        raise ValueError("no trials")
    return h / t


def majority(h: int, t: int) -> int:
    """Majority vote over an odd number t of trials; even counts are rejected."""
    _check_counts(h, t)
    if t % 2 == 0:
        raise ValueError("tie-prone trial count")
    return 1 if 2 * h > t else 0


class LoggedGenerator:
    """A generator that logs the ``size`` of each ``random(size)`` call it serves."""

    def __init__(self, rng: Generator) -> None:
        self.rng = rng
        self.sizes: list[int | None] = []

    def random(self, size: int | None = None) -> Any:
        self.sizes.append(size)
        return self.rng.random(size)


def reference_seed_sequence(master: int, stream: int) -> SeedSequence:
    """numpy's SeedSequence for one run's (master, stream) seed pair."""
    return SeedSequence(entropy=master, spawn_key=(stream,))


def reference_generator(master: int, stream: int) -> Generator:
    """PCG64 keyed by :func:`reference_seed_sequence`: the generator a run must get."""
    return Generator(PCG64(reference_seed_sequence(master, stream)))


def reference_run_stream(stream: int, index: int) -> int:
    """Run ``index``'s stream under a campaign stream: splitmix64 of stream + golden * (index + 1)."""
    mask, golden = (1 << 64) - 1, 0x9E3779B97F4A7C15
    x = (stream + golden * (index + 1) + golden) & mask  # splitmix64 adds golden first
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & mask
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & mask
    return x ^ (x >> 31)

"""Reference trial primitives the sampler and the engines are checked against.

``qpesim.sampling.run_trials`` returns the count h of 1 outcomes in t
trials; these are the one-draw and count-reading definitions it is
tested against.  :class:`LoggedGenerator` records the draws a caller
makes from a generator.
"""

from __future__ import annotations

from typing import Any

from numpy.random import Generator


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

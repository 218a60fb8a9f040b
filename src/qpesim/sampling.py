"""Seeded Bernoulli sampling of measurement outcomes.

Reproducibility contract: a given (master, stream) seed pair produces a
bit-identical outcome sequence on every platform.  The generator is
numpy's PCG64 keyed through SeedSequence, whose streams are stable
across platforms and numpy releases; uniforms are 53-bit-mantissa
doubles drawn from the integer stream.  Independent runs never share a
generator; they each get a stream derived with :func:`derive_run_seed`.

A ``Generator.random(k)`` call consumes the stream exactly as k scalar
``random()`` calls do and returns the same doubles, so how a run splits
its draws into calls changes neither its outcomes nor the generator's
state after it.  :class:`RunDraws` relies on that: it draws a run's
uniforms in blocks and serves them through the same ``random()`` /
``random(size)`` calls, so :func:`run_trials` reads the same uniforms
from it as from the generator itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, odd
# Largest uniform batch one run_trials request or RunDraws block draws
# (512 KiB of doubles).
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


class RunDraws:
    """The ``total`` uniforms of one run, drawn from ``rng`` in blocks.

    ``random()`` returns the next uniform as a float and ``random(size)``
    the next ``size`` as an array, the same values that the same calls
    on ``rng`` would return.  The first block, ``min(total, _CHUNK)``
    uniforms, is drawn when the source is built.  A request the block
    cannot serve draws the next ``min(_CHUNK, left)``, where ``left`` is
    what is left of ``total`` (more such draws only for a request larger
    than ``_CHUNK``, which :func:`run_trials` never makes), and keeps the
    unread tail in front of them.  So the source never draws past
    ``total``, and after a request of at most ``_CHUNK`` the block holds
    under ``2 * _CHUNK`` doubles.  A request past ``total`` raises before
    anything more is drawn.  Once all ``total`` uniforms are read,
    ``rng`` is in the state the same requests on it would have left, so
    a caller builds the source only for a run that reads them all.

    A run of many short requests thus makes one generator call instead
    of one per request: a const run asks for 18 rows of 25 votes and
    draws them with one ``random(450)``.
    """

    __slots__ = ("_rng", "_left", "_block", "_pos")

    def __init__(self, rng: Generator, total: int) -> None:
        count = min(total, _CHUNK)
        self._rng = rng
        self._left = total - count
        self._block = rng.random(count)
        self._pos = 0

    def random(self, size: int | None = None) -> Any:
        """The next uniform, or the next ``size`` uniforms as an array."""
        pos = self._pos
        end = pos + (1 if size is None else size)
        if end > len(self._block):
            self._refill(end - pos)
            pos, end = 0, end - pos
        self._pos = end
        return self._block.item(pos) if size is None else self._block[pos:end]

    def _refill(self, need: int) -> None:
        """Make the block the unread uniforms and enough fresh ones to hold ``need``."""
        tail = self._block[self._pos:]
        have = len(tail)
        if need > have + self._left:
            raise ValueError("request past the run's uniforms")
        parts = [tail] if have else []
        while have < need:
            count = min(self._left, _CHUNK)
            parts.append(self._rng.random(count))
            self._left -= count
            have += count
        self._block = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self._pos = 0


def run_trials(p: float, m: int, rng: Generator | RunDraws) -> int:
    """The number of 1 outcomes in m independent Bernoulli(p) draws.

    Consumes exactly the same uniform stream as m successive
    ``rng.random() < p`` draws, so batched and one-at-a-time sampling are
    interchangeable.  A single trial draws one scalar; larger batches
    draw at most ``_CHUNK`` uniforms at a time, so memory stays bounded
    for any m.  ``rng`` may be a :class:`RunDraws`, which serves the
    same uniforms from its block.
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

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
rows of uniforms in blocks, one generator call for up to ``_CHUNK``
uniforms, and :func:`run_trials` counts each row from the block.

Two more clauses make that exact.  Sorted rows: a block's rows are
sorted in place before they are counted, and a count of the uniforms
below ``p`` does not depend on their order within the row, so the
bisection count on a sorted row is the compare-and-count on the drawn
one.  Rewind: a run that stops before its last row puts the generator
back over the uniforms it drew and did not read
(:meth:`RunDraws.rewind`), so the generator's state after any run is
the state per-row draws would have left.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, odd
# Largest uniform batch one run_trials request or RunDraws block draws
# (512 KiB of doubles).
_CHUNK = 1 << 16
# Longest row a RunDraws block holds: up to about here, sorting a row and
# bisecting it costs no more than a numpy compare-and-count of it (under
# timeit on a 2-core Xeon, Python 3.11, numpy 2.4).  Longer rows are read
# from the generator as they come.  Odd, so a const majority can use it.
_ROW_MAX = 301


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
    """``rows`` rows of ``size`` uniforms of one run, drawn from ``rng`` in sorted blocks.

    Each row is read by one :func:`run_trials` request of exactly
    ``size`` trials, in order.  A request finding no unread row draws the
    next ``min(rows left, _CHUNK // size)`` rows with one ``rng.random``
    call and sorts each row in place; :func:`run_trials` then counts the
    uniforms of its row below ``p`` by bisection.  Sorting moves the
    uniforms within their row but changes none, so the count is the one
    ``count_nonzero(rng.random(size) < p)`` gives.  Rows of one uniform
    are not sorted and are read from a list with one compare each, which
    costs less than a bisection call.  Rows longer than ``_ROW_MAX`` are
    not blocked at all: each request reads its row from ``rng`` through
    the chunked path of :func:`run_trials`.

    A request of another size, or past the last row, raises before
    anything is drawn.  Once every row is read, ``rng`` is where the same
    requests on it would have left it.  A run that stops early calls
    :meth:`rewind` to put ``rng`` back where reading only the rows read
    so far would have left it.
    """

    __slots__ = ("_rng", "_size", "_rows", "_view", "_pos", "_end")

    def __init__(self, rng: Generator, rows: int, size: int) -> None:
        self._rng = rng
        self._size = size
        self._rows = rows  # rows not yet drawn
        self._view: Any = ()
        self._pos = self._end = 0

    def count(self, p: float, m: int) -> int:
        """The uniforms below ``p`` in the next row, whose size must be ``m``."""
        if m != self._size:
            raise ValueError(f"request of {m} uniforms from rows of {self._size}")
        pos = self._pos
        if pos == self._end:
            if not self._rows:
                raise ValueError("request past the run's last row")
            if m > _ROW_MAX:
                self._rows -= 1
                return _count(p, m, self._rng)
            self._draw()
            pos = 0
        self._pos = pos + m
        if m == 1:
            return 1 if self._view[pos] < p else 0
        return bisect_left(self._view, p, pos, pos + m) - pos

    def _draw(self) -> None:
        """Draw the next block of rows and sort each row."""
        size = self._size
        k = min(self._rows, _CHUNK // size)
        block = self._rng.random(k * size)
        self._rows -= k
        if size == 1:
            self._view = block.tolist()
        else:
            block.reshape(k, size).sort(axis=1)
            self._view = memoryview(block)
        self._end = k * size

    def rewind(self) -> None:
        """Move ``rng`` back over the drawn rows not yet read.

        ``PCG64.advance`` steps the stream back one uniform per step but
        clears the half-used 32-bit output that ``rng`` may hold; no
        uniform draw touches that buffer, so it is put back as it was.
        """
        unread = self._end - self._pos
        if unread:
            bit_generator = self._rng.bit_generator
            state = bit_generator.state
            bit_generator.advance(-unread)
            rewound = bit_generator.state
            rewound["has_uint32"], rewound["uinteger"] = state["has_uint32"], state["uinteger"]
            bit_generator.state = rewound
            self._rows += unread // self._size
            self._view = ()
            self._pos = self._end = 0


def run_trials(p: float, m: int, rng: Generator | RunDraws) -> int:
    """The number of 1 outcomes in m independent Bernoulli(p) draws.

    Consumes exactly the same uniform stream as m successive
    ``rng.random() < p`` draws, so batched and one-at-a-time sampling are
    interchangeable.  A single trial draws one scalar; larger batches
    draw at most ``_CHUNK`` uniforms at a time, so memory stays bounded
    for any m.  ``rng`` may be a :class:`RunDraws`, which counts its next
    row of the same uniforms.
    """
    if m < 1:
        raise ValueError("trial count must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("invalid probability")
    if rng.__class__ is RunDraws:
        return rng.count(p, m)
    return _count(p, m, rng)


def _count(p: float, m: int, rng: Generator) -> int:
    """The uniforms below ``p`` among the next ``m`` that ``rng`` draws."""
    if m == 1:
        return 1 if rng.random() < p else 0
    h = 0
    while m > _CHUNK:
        h += int(np.count_nonzero(rng.random(_CHUNK) < p))
        m -= _CHUNK
    return h + int(np.count_nonzero(rng.random(m) < p))

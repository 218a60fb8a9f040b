"""Seeded Bernoulli sampling of measurement outcomes.

Reproducibility contract: a given (master, stream) seed pair produces a
bit-identical outcome sequence on every platform.  The generator is
numpy's PCG64 keyed by ``SeedSequence(entropy=master,
spawn_key=(stream,))``, whose streams are stable across platforms and
numpy releases; uniforms are 53-bit-mantissa doubles drawn from the
integer stream.  Independent runs never share a generator; they each get
a stream derived with :func:`derive_run_seed`.

:func:`make_generator` keys PCG64 through :class:`_RunSeed`, which
computes SeedSequence's hash itself: the part that reads only the
master is done once per master, and each run mixes in only its stream.
Its state words, and so every PCG64 state, are SeedSequence's for every
64-bit (master, stream) pair; the seeding parity test in
``tests/test_sampling.py`` checks them against SeedSequence itself.

A ``Generator.random(k)`` call consumes the stream exactly as k scalar
``random()`` calls do and returns the same doubles, so how a run splits
its draws into calls changes neither its outcomes nor the generator's
state after it.  :class:`RunDraws` relies on that: it draws a run's
rows of uniforms in blocks, one generator call for up to ``_CHUNK``
uniforms, and :func:`run_trials` counts each row from the block in one
call.

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
from functools import lru_cache
import operator
from typing import Any

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence

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

_BAD_MASTER = "master seed must be a 64-bit unsigned integer"
_BAD_STREAM = "stream must be a 64-bit unsigned integer"


def _as_int(value: Any, message: str) -> int:
    """The int ``operator.index`` reads ``value`` as, or ``ValueError(message)``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(message) from None


@dataclass(frozen=True)
class RngSeed:
    """Master seed plus a derived stream index, both 64-bit.

    Either may be any integer type ``operator.index`` reads (a numpy
    integer too); it is stored as the int it equals.
    """

    master: int
    stream: int = 0

    def __post_init__(self) -> None:
        if self.master.__class__ is not int or self.stream.__class__ is not int:
            object.__setattr__(self, "master", _as_int(self.master, _BAD_MASTER))
            object.__setattr__(self, "stream", _as_int(self.stream, _BAD_STREAM))
        if not 0 <= self.master <= _MASK64:
            raise ValueError(_BAD_MASTER)
        if not 0 <= self.stream <= _MASK64:
            raise ValueError(_BAD_STREAM)


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


# numpy's SeedSequence hash on its pool of 4 words (O'Neill's seed_seq_fe).
# Each hashmix step XORs in the running hash constant, steps the constant
# by its multiplier and multiplies by it, so the (XOR, multiplier) key of
# every step is fixed by the step's position alone.  The per-run steps
# are written out over the 4 pool words (``_hash4``, ``_mix_word``): a
# loop over them costs about a third more per run.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix of the entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashmix of the pool into the state words
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

_Keys = tuple[tuple[int, int], ...]


def _hash_keys(hash_const: int, mult: int, steps: int) -> _Keys:
    """The (XOR, multiplier) keys of ``steps`` hashmix steps from ``hash_const``."""
    keys = []
    for _ in range(steps):
        before, hash_const = hash_const, hash_const * mult & _M32
        keys.append((before, hash_const))
    return tuple(keys)


# The master's 4 words and its 12 cross-mixes take keys 0..15, each
# stream word the next 4 (a stream of 64 bits has 2 words).
_ENTROPY_KEYS = _hash_keys(_INIT_A, _MULT_A, 24)
_STREAM_KEYS = (_ENTROPY_KEYS[16:20], _ENTROPY_KEYS[20:24])


def _hashmix(value: int, key: tuple[int, int]) -> int:
    x, m = key
    h = (value ^ x) * m & _M32
    return h ^ h >> 16


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


@lru_cache(maxsize=1)
def _master_pool(master: int) -> tuple[int, int, int, int]:
    """The pool SeedSequence holds once ``master``, zero-padded to 4 words, is mixed in.

    A spawn key pads the entropy to the pool size, so this pool, and the
    hash constant it leaves (the one ``_STREAM_KEYS`` starts from),
    depend on the master alone; the stream's words are mixed in after.
    """
    keys = iter(_ENTROPY_KEYS)
    pool = [_hashmix(word, next(keys)) for word in (master & _M32, master >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(keys)))
    return tuple(pool)


def _hash4(words: Any, keys: _Keys) -> tuple[int, int, int, int]:
    """``_hashmix`` of 4 words, word i under ``keys[i]``."""
    (x0, m0), (x1, m1), (x2, m2), (x3, m3) = keys
    w0, w1, w2, w3 = words
    h0 = (w0 ^ x0) * m0 & _M32
    h1 = (w1 ^ x1) * m1 & _M32
    h2 = (w2 ^ x2) * m2 & _M32
    h3 = (w3 ^ x3) * m3 & _M32
    return h0 ^ h0 >> 16, h1 ^ h1 >> 16, h2 ^ h2 >> 16, h3 ^ h3 >> 16


def _mix_word(pool: Any, word: int, keys: _Keys) -> tuple[int, int, int, int]:
    """``_mix`` of each pool word with ``word`` hashed under its key."""
    h0, h1, h2, h3 = _hash4((word, word, word, word), keys)
    p0, p1, p2, p3 = pool
    r0 = (_MIX_L * p0 - _MIX_R * h0) & _M32
    r1 = (_MIX_L * p1 - _MIX_R * h1) & _M32
    r2 = (_MIX_L * p2 - _MIX_R * h2) & _M32
    r3 = (_MIX_L * p3 - _MIX_R * h3) & _M32
    return r0 ^ r0 >> 16, r1 ^ r1 >> 16, r2 ^ r2 >> 16, r3 ^ r3 >> 16


@lru_cache(maxsize=2)
def _output_keys(words: int) -> tuple[_Keys, ...]:
    """The keys of ``words`` state words, 4 at a time (the last 4 may run past ``words``)."""
    keys = _hash_keys(_INIT_B, _MULT_B, -(-words // 4) * 4)
    return tuple(keys[i:i + 4] for i in range(0, len(keys), 4))


class _RunSeed(ISpawnableSeedSequence):
    """``SeedSequence(entropy=master, spawn_key=(stream,))``, hashed without numpy.

    ``generate_state`` returns the words SeedSequence's does, for any
    count and for ``uint32`` and ``uint64``.  The master's share of the
    hash is cached per master; a run hashes only its stream's 1 or 2
    words into the pool and the pool into the state words.  ``spawn``
    delegates to SeedSequence, so ``Generator.spawn`` works as on a
    SeedSequence-keyed generator.
    """

    __slots__ = ("master", "stream", "n_children_spawned")

    def __init__(self, master: int, stream: int) -> None:
        self.master = operator.index(master)
        self.stream = operator.index(stream)
        if not (0 <= self.master <= _MASK64 and 0 <= self.stream <= _MASK64):
            raise ValueError("master and stream must be 64-bit unsigned integers")
        self.n_children_spawned = 0

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        """``n_words`` state words of ``dtype`` (``uint32`` or ``uint64``), as SeedSequence's."""
        out_dtype = np.dtype(dtype)
        wide = out_dtype == np.uint64
        if wide:
            n_words *= 2
        elif out_dtype != np.uint32:
            raise ValueError("only support uint32 or uint64")
        stream = self.stream
        pool = _mix_word(_master_pool(self.master), stream & _M32, _STREAM_KEYS[0])
        if stream >> 32:
            pool = _mix_word(pool, stream >> 32, _STREAM_KEYS[1])
        state: list[int] = []
        for keys in _output_keys(n_words):
            state += _hash4(pool, keys)
        del state[n_words:]
        if wide:
            # uint64 word i is uint32 words 2i (low half) and 2i + 1, as SeedSequence reads them
            return np.array([lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])], dtype=np.uint64)
        return np.array(state, dtype=np.uint32)

    def spawn(self, n_children: int) -> list[SeedSequence]:
        """The next ``n_children`` children the equal SeedSequence would spawn."""
        parent = SeedSequence(
            entropy=self.master,
            spawn_key=(self.stream,),
            n_children_spawned=self.n_children_spawned,
        )
        children = parent.spawn(n_children)
        self.n_children_spawned = parent.n_children_spawned
        return children


def make_generator(seed: RngSeed) -> Generator:
    """PCG64 generator keyed by (master, stream); single-owner, never shared.

    Its state is the one ``SeedSequence(entropy=seed.master,
    spawn_key=(seed.stream,))`` gives PCG64; :class:`_RunSeed` computes
    it, with the master's share of the hash done once per master.
    """
    return Generator(PCG64(_RunSeed(seed.master, seed.stream)))


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
    for any m.  ``rng`` may be a :class:`RunDraws`, whose next row, of
    exactly m uniforms, is counted: by bisection on its sorted block,
    with one compare for a row of one uniform, or through the chunked
    path for a row longer than ``_ROW_MAX``.
    """
    if m < 1:
        raise ValueError("trial count must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("invalid probability")
    if rng.__class__ is not RunDraws:
        return _count(p, m, rng)
    if m != rng._size:
        raise ValueError(f"request of {m} uniforms from rows of {rng._size}")
    pos = rng._pos
    if pos == rng._end:
        if not rng._rows:
            raise ValueError("request past the run's last row")
        if m > _ROW_MAX:
            rng._rows -= 1
            return _count(p, m, rng._rng)
        rng._draw()
        pos = 0
    rng._pos = pos + m
    if m == 1:
        return 1 if rng._view[pos] < p else 0
    return bisect_left(rng._view, p, pos, pos + m) - pos


def _count(p: float, m: int, rng: Generator) -> int:
    """The uniforms below ``p`` among the next ``m`` that ``rng`` draws."""
    if m == 1:
        return 1 if rng.random() < p else 0
    h = 0
    while m > _CHUNK:
        h += int(np.count_nonzero(rng.random(_CHUNK) < p))
        m -= _CHUNK
    return h + int(np.count_nonzero(rng.random(m) < p))

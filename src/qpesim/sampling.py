"""Seeded Bernoulli sampling of measurement outcomes.

Reproducibility contract: a given (master, stream) seed pair produces a
bit-identical outcome sequence on every platform.  The generator is
numpy's PCG64 keyed by ``SeedSequence(entropy=master,
spawn_key=(stream,))``, whose streams are stable across platforms and
numpy releases; uniforms are 53-bit-mantissa doubles drawn from the
integer stream.  Independent runs never share a generator; they each get
a stream derived with :func:`derive_run_seed`.

A single seed is keyed through SeedSequence itself; a campaign's runs
through :func:`run_generators`, ``_BLOCK`` = 2**10 at a time, which
derives their streams with a uint64 splitmix64 and hashes them into
PCG64's state words as SeedSequence does, on uint32 arrays.  Every PCG64
state is SeedSequence's for every 64-bit (master, stream) pair; the
seeding parity tests in ``tests/test_sampling.py`` check both paths.

A ``Generator.random(k)`` call consumes the stream exactly as k scalar
``random()`` calls do and returns the same doubles, so how a run splits
its draws into calls changes neither its outcomes nor the generator's
state after it.  :class:`RunDraws` relies on that: it draws rows of
uniforms of one stream (one run's, or many consecutive runs') in blocks,
one generator call for up to ``_CHUNK`` = 2**13 uniforms into one numpy
block, and :func:`run_trials` counts each row from the block in one call.

Two more clauses make that exact.  Sorted rows: a block holds only single
uniforms or rows of 2 to ``_ROW_MAX`` uniforms, which are sorted in place
before they are counted, and a count of the uniforms below ``p`` does not
depend on their order within the row, so the bisection count on a sorted
row is the compare-and-count on the drawn one; a longer row is not
blocked but drawn by its own request.  Rewind: a run that stops before
its last row puts the generator back over the uniforms it drew and did
not read (:meth:`RunDraws.rewind`), so the generator's state after any
run is the state per-row draws would have left.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence

from .phase import as_int

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio, odd
# splitmix64's (shift, multiplier) steps (public-domain constants), then a shift by 31
_SPLITMIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)), (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_U64_31, _U64_32, _LOW32 = np.uint64(31), np.uint64(32), np.uint64(0xFFFFFFFF)
# Most runs run_generators keys at once, so its arrays stay a few tens of KiB.
_BLOCK = 1 << 10
# Largest uniform batch one run_trials request or RunDraws block draws
# (64 KiB of doubles): a default 16-bit Kitaev run fits one block, and
# 2**16 raised validate's peak RSS by about 0.5 MB.
_CHUNK = 1 << 13
# Longest row a RunDraws block holds; a longer row is drawn by its own request.  Up to
# about here, sorting a row and bisecting it costs no more than a numpy compare-and-count
# (timeit on a 2-core Xeon, Python 3.11, numpy 2.4).  Odd, so a const majority can use it.
_ROW_MAX = 301

_BAD_MASTER = "master seed must be a 64-bit unsigned integer"
_BAD_STREAM = "stream must be a 64-bit unsigned integer"
_BAD_INDEX = "run index must be a 64-bit unsigned integer"
_BAD_RUNS = "run count must be an integer in 0..2**64"
_BAD_ROWS = "rows must be a nonnegative integer"
_BAD_SIZE = "size must be a positive integer"


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
            object.__setattr__(self, "master", as_int(self.master, _BAD_MASTER))
            object.__setattr__(self, "stream", as_int(self.stream, _BAD_STREAM))
        if not 0 <= self.master <= _MASK64:
            raise ValueError(_BAD_MASTER)
        if not 0 <= self.stream <= _MASK64:
            raise ValueError(_BAD_STREAM)


def _run_streams(seed: RngSeed, start: int, count: int) -> np.ndarray:
    """The uint64 streams of runs ``start .. start + count - 1`` under ``seed``.

    Run i's is splitmix64 of ``seed.stream + golden * (i + 1)``, modulo 2**64.
    """
    x = np.arange(count, dtype=np.uint64) + np.uint64((start + 1) & _MASK64)
    x *= _GOLDEN
    x += np.uint64(seed.stream)
    x += _GOLDEN
    for shift, mult in _SPLITMIX:
        x ^= x >> shift
        x *= mult
    return x ^ (x >> _U64_31)


def derive_run_seed(seed: RngSeed, index: int) -> RngSeed:
    """Deterministically mix (seed, index) into a fresh independent stream (a block of one run)."""
    index = as_int(index, _BAD_INDEX)
    if not 0 <= index <= _MASK64:
        raise ValueError(_BAD_INDEX)
    return RngSeed(seed.master, int(_run_streams(seed, index, 1)[0]))


def _hash_keys(hash_const: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The uint32 XOR and multiplier keys of ``steps`` hashmix steps from ``hash_const``."""
    consts = [hash_const]
    for _ in range(steps):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts[:-1], dtype=np.uint32), np.array(consts[1:], dtype=np.uint32)


# numpy's SeedSequence hash (O'Neill's seed_seq_fe) on its pool of 4 uint32
# words.  Each hashmix step XORs in the running hash constant, steps the
# constant by its multiplier and multiplies by it, so the key of every step
# is fixed by its position alone: the master's 4 words and its 12
# cross-mixes take keys 0..15 of the entropy hash, each stream word the next
# 4, and the 8 uint32 halves of PCG64's 4 state words keys 0..7 of the
# output hash, word i hashed from pool word i % 4.
_XORS, _MULTS = _hash_keys(0x43B0D7E5, 0x931E8875, 24)
_STREAM_KEYS = [(_XORS[k : k + 4], _MULTS[k : k + 4]) for k in (16, 20)]
_OUTPUT_KEYS = _hash_keys(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _U32_16 = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _hashmix(words: np.ndarray, keys: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Each uint32 word hashed under its column's key."""
    h = (words ^ keys[0]) * keys[1]
    return h ^ (h >> _U32_16)


def _mix(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """Each pool word mixed with its hashed word."""
    r = _MIX_L * pool - _MIX_R * hashed
    return r ^ (r >> _U32_16)


def _state_words(master: int, streams: np.ndarray) -> np.ndarray:
    """Row i: ``SeedSequence(entropy=master, spawn_key=(streams[i],)).generate_state(4, np.uint64)``.

    The pool starts as ``SeedSequence(master)``'s, as a spawn key pads the
    entropy to the pool size; each stream's 1 or 2 words (2 from 2**32 on)
    are mixed in, and it is hashed into 8 uint32 words, read in
    little-endian pairs as SeedSequence reads them.
    """
    low = (streams & _LOW32).astype(np.uint32)[:, None]
    high = (streams >> _U64_32).astype(np.uint32)[:, None]
    pool = _mix(SeedSequence(master).pool, _hashmix(low, _STREAM_KEYS[0]))
    pool = np.where(high != 0, _mix(pool, _hashmix(high, _STREAM_KEYS[1])), pool)
    state = _hashmix(np.tile(pool, 2), _OUTPUT_KEYS)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _RunSeed(ISpawnableSeedSequence):
    """``SeedSequence(entropy=master, spawn_key=(stream,))`` with PCG64's request answered.

    ``generate_state(4, np.uint64)``, the one request PCG64 makes,
    returns ``words``, the run's read-only row of its block's state words.
    Every other request, and ``spawn``, goes to the equal SeedSequence,
    built on first use, so each answers, or raises, as numpy does.
    """

    __slots__ = ("master", "stream", "_words", "_seed_seq")

    def __init__(self, master: int, stream: int, words: np.ndarray) -> None:
        self.master, self.stream, self._words = master, stream, words
        self._seed_seq: SeedSequence | None = None

    def _numpy(self) -> SeedSequence:
        """The equal SeedSequence, built on first use."""
        if self._seed_seq is None:
            self._seed_seq = SeedSequence(entropy=self.master, spawn_key=(self.stream,))
        return self._seed_seq

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        """``n_words`` state words of ``dtype``, as SeedSequence's."""
        if n_words.__class__ is int and n_words == 4 and dtype is np.uint64:
            return self._words
        return self._numpy().generate_state(n_words, dtype)

    def spawn(self, n_children: int) -> list[SeedSequence]:
        """The next ``n_children`` children the equal SeedSequence spawns."""
        return self._numpy().spawn(n_children)

    @property
    def n_children_spawned(self) -> int:
        """How many children ``spawn`` has made, as SeedSequence counts them."""
        return self._numpy().n_children_spawned


def make_generator(seed: RngSeed | _RunSeed) -> Generator:
    """PCG64 generator keyed by (master, stream); single-owner, never shared.

    Its state is the one ``SeedSequence(entropy=seed.master,
    spawn_key=(seed.stream,))`` gives PCG64: an :class:`RngSeed` goes
    through that SeedSequence, a run seed of :func:`run_generators` holds
    the state words hashed for its block.
    """
    if isinstance(seed, RngSeed):
        seed = SeedSequence(entropy=seed.master, spawn_key=(seed.stream,))
    return Generator(PCG64(seed))


def run_generators(seed: RngSeed, runs: int) -> Iterator[Generator]:
    """The generators of runs ``0 .. runs - 1`` of the campaign ``seed``, in order.

    Run i's is ``make_generator(derive_run_seed(seed, i))``'s.  Streams
    and state words are computed for ``_BLOCK`` runs at a time; each
    generator is built, by one :func:`make_generator` call, when asked for.
    ``runs`` is checked when the first generator is asked for.
    """
    runs = as_int(runs, _BAD_RUNS)
    if not 0 <= runs <= 1 << 64:
        raise ValueError(_BAD_RUNS)
    master = seed.master
    for start in range(0, runs, _BLOCK):
        streams = _run_streams(seed, start, min(_BLOCK, runs - start))
        words = _state_words(master, streams)
        words.flags.writeable = False  # PCG64 reads each row in place
        for stream, row in zip(streams.tolist(), words):
            yield make_generator(_RunSeed(master, stream, row))


class RunDraws:
    """``rows`` rows of ``size`` uniforms of one stream, drawn from ``rng`` in blocks.

    The rows may be one run's or span many consecutive runs on ``rng``.
    Each row is read by one :func:`run_trials` request of exactly
    ``size`` trials, in order.  A request finding no unread row draws the
    next ``min(rows left, _CHUNK // size)`` rows with one ``rng.random``
    call into one numpy block, read through a ``memoryview``.  A block
    holds only single uniforms or rows of 2 to ``_ROW_MAX`` uniforms,
    sorted in place; :func:`run_trials` counts the uniforms of a sorted
    row below ``p`` by bisection, and a single uniform with one compare.
    Sorting moves the uniforms within their row but changes none, so the
    count is the one ``count_nonzero(rng.random(size) < p)`` gives.  Rows
    longer than ``_ROW_MAX`` are not blocked at all: each request reads
    its row from ``rng`` through the chunked path of :func:`run_trials`.

    ``rows`` and ``size`` may be any integer type ``operator.index``
    reads; fewer than 0 rows, or rows of fewer than 1 uniform, are
    refused when the source is built.

    A request of another size, or past the last row, raises before
    anything is drawn, as does :meth:`require` for a run that would make
    one.  Once every row is read, ``rng`` is where the same
    requests on it would have left it.  A run that stops early calls
    :meth:`rewind` to put ``rng`` back where reading only the rows read
    so far would have left it.
    """

    __slots__ = ("_rng", "_size", "_rows", "_view", "_pos", "_end")

    def __init__(self, rng: Generator, rows: int, size: int) -> None:
        rows, size = as_int(rows, _BAD_ROWS), as_int(size, _BAD_SIZE)
        if rows < 0:
            raise ValueError(_BAD_ROWS)
        if size < 1:
            raise ValueError(_BAD_SIZE)
        self._rng = rng
        self._size = size
        self._rows = rows  # rows not yet drawn
        self._view: Any = ()
        self._pos = self._end = 0

    def _draw(self) -> None:
        """Draw the next block of rows and sort each row of more than one uniform."""
        size = self._size
        k = min(self._rows, _CHUNK // size)
        block = self._rng.random(k * size)
        self._rows -= k
        if size > 1:
            block.reshape(k, size).sort(axis=1)
        self._view = memoryview(block)
        self._end = k * size

    def require(self, rows: int, size: int) -> None:
        """Raise, drawing nothing, unless ``rows`` more requests of ``size`` uniforms can be served."""
        if size != self._size:
            raise ValueError(f"request of {size} uniforms from rows of {self._size}")
        if rows > self._rows + (self._end - self._pos) // size:
            raise ValueError("request past the run's last row")

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
    interchangeable.  It draws at most ``_CHUNK`` uniforms a call, so
    memory stays bounded for any m.  ``rng`` may be a
    :class:`RunDraws`, whose next row, of exactly m uniforms, is counted
    from its block, with one compare for a row of one uniform and by
    bisection on a sorted row of up to ``_ROW_MAX``; a longer row is drawn
    by its own request through the chunked path.
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
        if m > _ROW_MAX:  # a row no block holds
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
    h = 0
    while m > _CHUNK:
        h += int(np.count_nonzero(rng.random(_CHUNK) < p))
        m -= _CHUNK
    return h + int(np.count_nonzero(rng.random(m) < p))

"""Tests for seeded sampling, trial counts, and stream derivation."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from qpesim import sampling
from qpesim.sampling import (
    _CHUNK, _ROW_MAX, RngSeed, RunDraws, _RunSeed, derive_run_seed, make_generator, run_trials,
)
from reference import (
    LoggedGenerator, bernoulli, frequency_estimate, majority, reference_generator,
    reference_seed_sequence,
)

COS_PI_8_SQ = math.cos(math.pi / 8) ** 2


def gen(master=0, stream=0):
    return make_generator(RngSeed(master, stream))


class TestBernoulli:
    def test_degenerate_zero(self):
        g = gen()
        assert all(bernoulli(0.0, g) == 0 for _ in range(100))

    def test_degenerate_one(self):
        g = gen()
        assert all(bernoulli(1.0, g) == 1 for _ in range(100))

    def test_invalid_probability(self):
        with pytest.raises(ValueError, match="invalid probability"):
            bernoulli(1.5, gen())
        with pytest.raises(ValueError, match="invalid probability"):
            bernoulli(-0.1, gen())

    def test_sample_mean_concentrates(self):
        # binomial standard error sqrt(p(1-p)/N) ~ 3.5e-4; 0.0015 is > 4 sigma
        p = 0.8536
        ones = run_trials(p, 10**6, gen(1))
        assert abs(frequency_estimate(ones, 10**6) - p) < 0.0015


class TestRunTrials:
    def test_all_ones(self):
        assert run_trials(1.0, 5, gen()) == 5

    def test_all_zeros(self):
        assert run_trials(0.0, 5, gen()) == 0

    def test_half_concentrates(self):
        ones = run_trials(0.5, 10**5, gen(2))
        assert abs(frequency_estimate(ones, 10**5) - 0.5) < 0.005

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            run_trials(0.5, 0, gen())

    def test_matches_single_draws(self):
        # batched sampling must consume the identical uniform stream
        batched = run_trials(0.3, 500, gen(3))
        g = gen(3)
        singles = sum(bernoulli(0.3, g) for _ in range(500))
        assert batched == singles

    def test_single_trial_matches_batched_draw(self):
        # the scalar m == 1 path reads the same uniform as rng.random(1)
        g, ref = gen(11), gen(11)
        for p in np.linspace(0.0, 1.0, 257):
            assert run_trials(float(p), 1, g) == int(np.count_nonzero(ref.random(1) < p))
        assert g.random() == ref.random()

    def test_chunked_draws_match_one_shot(self):
        # more than two chunks: the split draws equal one rng.random(m) call
        m = 2 * _CHUNK + 3
        g, ref = gen(12), gen(12)
        assert run_trials(0.37, m, g) == int(np.count_nonzero(ref.random(m) < 0.37))
        assert g.random() == ref.random()

    def test_binomial_distribution_chi_square(self):
        # goodness of fit over 1e4 replications at (p=0.85, m=13)
        p, m, reps = 0.85, 13, 10_000
        g = gen(42)
        counts = np.zeros(m + 1)
        for _ in range(reps):
            counts[run_trials(p, m, g)] += 1
        expected = np.array([math.comb(m, k) * p**k * (1 - p) ** (m - k) for k in range(m + 1)])
        expected *= reps
        keep = expected >= 5
        observed = np.append(counts[keep], counts[~keep].sum())
        merged = np.append(expected[keep], expected[~keep].sum())
        merged *= observed.sum() / merged.sum()
        _, pvalue = stats.chisquare(observed, merged)
        assert pvalue > 0.001


def _rows_read(source, ref, ps, size):
    """Each count from ``source`` equals the compare-and-count of the next row of ``ref``.

    A ``p`` given as ``("own", j)`` is the row's own uniform ``j mod size``,
    read from ``ref`` before the count, so that uniform must not count.
    """
    for p in ps:
        row = ref.random(size)
        if isinstance(p, tuple):
            p = float(row[p[1] % size])
        assert run_trials(p, size, source) == int(np.count_nonzero(row < p))


_P_VALUES = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.tuples(st.just("own"), st.integers(min_value=0, max_value=10**6)),
)


# Rows of _ROW_MAX uniforms one block holds.
_BLOCK_ROWS = _CHUNK // _ROW_MAX


def _buffered(seed):
    """A generator holding half of a 64-bit output as a buffered uint32."""
    g = gen(seed)
    g.integers(0, 1 << 32, dtype=np.uint32)
    assert g.bit_generator.state["has_uint32"] == 1
    return g


class TestRunDraws:
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=12),
        st.lists(_P_VALUES, max_size=30),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_counts_are_the_generator_rows(self, chunk, row_max, size, ps, seed):
        # at a block of a few uniforms most runs span several blocks, and
        # rows past the row limit are read from the generator directly;
        # no generator call draws more than a block
        row_max = min(row_max, chunk)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling, "_CHUNK", chunk)
            patch.setattr(sampling, "_ROW_MAX", row_max)
            logged, ref = LoggedGenerator(gen(seed)), gen(seed)
            _rows_read(RunDraws(logged, len(ps), size), ref, ps, size)
        assert all(1 <= count <= chunk for count in logged.sizes if count is not None)
        assert logged.rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("size", [1, 2, 25, 169, _ROW_MAX, _ROW_MAX + 2, _CHUNK + 1])
    def test_full_size_runs(self, size):
        # a run at the real block and row limits, with p at 0, 1 and own uniforms
        ps = [0.0, 1.0, 0.37, ("own", 0), ("own", size // 2), ("own", size - 1), 0.9]
        g, ref = gen(10), gen(10)
        _rows_read(RunDraws(g, len(ps), size), ref, ps, size)
        assert g.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize(
        "size,rows,calls",
        [
            (1, _CHUNK + 5, [_CHUNK, 5]),
            (25, 2 * (_CHUNK // 25) + 3, [_CHUNK // 25 * 25] * 2 + [75]),
            (_ROW_MAX, 2 * _BLOCK_ROWS + 4, [_BLOCK_ROWS * _ROW_MAX] * 2 + [4 * _ROW_MAX]),
            (_ROW_MAX + 2, 3, [_ROW_MAX + 2] * 3),
            (_CHUNK + 1, 2, [_CHUNK, 1] * 2),
        ],
        ids=["one", "const", "row-max", "past-row-max", "past-chunk"],
    )
    def test_block_stays_within_a_chunk(self, size, rows, calls):
        logged = LoggedGenerator(gen(9))
        source = RunDraws(logged, rows, size)
        for _ in range(rows):
            run_trials(0.5, size, source)
            assert len(source._view) <= _CHUNK
        assert logged.sizes == calls

    @pytest.mark.parametrize("size", [1, 25, _ROW_MAX + 2])
    def test_wrong_size_or_past_the_last_row_draws_nothing(self, size):
        g = gen(8)
        source = RunDraws(g, 2, size)
        for _ in range(2):
            state = g.bit_generator.state
            wrong = f"request of {size + 1} uniforms from rows of {size}"
            with pytest.raises(ValueError, match=wrong):
                run_trials(0.5, size + 1, source)
            assert g.bit_generator.state == state
            run_trials(0.5, size, source)
        state = g.bit_generator.state
        with pytest.raises(ValueError, match="past the run's last row"):
            run_trials(0.5, size, source)
        assert g.bit_generator.state == state

    def test_run_trials_checks_come_first(self):
        g = gen(8)
        source = RunDraws(g, 1, 3)
        with pytest.raises(ValueError, match="trial count must be positive"):
            run_trials(0.5, 0, source)
        with pytest.raises(ValueError, match="invalid probability"):
            run_trials(1.5, 3, source)
        assert g.bit_generator.state == gen(8).bit_generator.state

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_rewind_restores_the_exact_state(self, chunk, size, rows, read, seed):
        # from a generator holding a buffered uint32, read some rows, rewind,
        # and the state (buffer included) is where reading them alone leaves it;
        # the rows left are then served as the generator's next rows
        read = min(read, rows)
        size = min(size, chunk)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling, "_CHUNK", chunk)
            g, ref = _buffered(seed), _buffered(seed)
            source = RunDraws(g, rows, size)
            _rows_read(source, ref, [0.5] * read, size)
            source.rewind()
            assert g.bit_generator.state == ref.bit_generator.state
            _rows_read(source, ref, [0.25] * (rows - read), size)
        assert g.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("m", [1, 2, 25, _ROW_MAX, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_run_trials_counts_alike(self, m):
        # a run of three stages counted from the source and from the generator
        g, ref = gen(10), gen(10)
        source = RunDraws(g, 3, m)
        for p in (0.2, 0.5, 0.9):
            assert run_trials(p, m, source) == run_trials(p, m, ref)
        assert g.bit_generator.state == ref.bit_generator.state


class TestStats:
    def test_frequency_examples(self):
        assert frequency_estimate(1, 4) == 0.25
        assert frequency_estimate(7, 7) == 1.0
        assert frequency_estimate(2, 13) == pytest.approx(2 / 13)

    def test_frequency_rejects_empty(self):
        with pytest.raises(ValueError, match="no trials"):
            frequency_estimate(0, 0)

    def test_invalid_counts(self):
        with pytest.raises(ValueError, match="invalid trial counts"):
            frequency_estimate(4, 3)
        with pytest.raises(ValueError, match="invalid trial counts"):
            majority(-1, 3)

    def test_majority_examples(self):
        assert majority(2, 3) == 1
        assert majority(6, 13) == 0

    def test_majority_rejects_even(self):
        with pytest.raises(ValueError, match="tie-prone"):
            majority(2, 4)

    def test_majority_chernoff_bound(self):
        # empirical majority error rate stays below exp(-2m(p-1/2)^2)
        p, m, reps = COS_PI_8_SQ, 13, 20_000
        bound = math.exp(-2 * m * (p - 0.5) ** 2)
        g = gen(7)
        wrong = sum(1 - majority(run_trials(p, m, g), m) for _ in range(reps))
        assert wrong / reps <= bound


class TestSeeds:
    def test_derivation_is_deterministic(self):
        s = RngSeed(123)
        assert derive_run_seed(s, 0) == derive_run_seed(s, 0)

    def test_distinct_indices_distinct_streams(self):
        s = RngSeed(123)
        a = make_generator(derive_run_seed(s, 0)).random(8)
        b = make_generator(derive_run_seed(s, 1)).random(8)
        assert not np.array_equal(a, b)

    def test_derived_differs_from_parent(self):
        s = RngSeed(123)
        assert derive_run_seed(s, 0) != s

    def test_replay_is_bit_identical(self):
        a = [run_trials(0.37, 11, gen(9)) for _ in range(1)]
        b = [run_trials(0.37, 11, gen(9)) for _ in range(1)]
        assert a == b

    def test_known_stream_pin(self):
        # cross-platform regression pin of the first uniforms for seed 0
        draws = gen(0).random(3)
        assert draws == pytest.approx(
            [0.9429375528828794, 0.3163371523854981, 0.7223425886498254], abs=1e-15
        )

    def test_pooled_derived_streams_unbiased(self):
        master = RngSeed(0)
        total = 0
        for index in range(10_000):
            g = make_generator(derive_run_seed(master, index))
            total += run_trials(0.5, 1000, g)
        assert abs(total / 10_000_000 - 0.5) < 0.002

    def test_seed_range_validated(self):
        with pytest.raises(ValueError):
            RngSeed(-1)
        with pytest.raises(ValueError):
            RngSeed(0, 1 << 64)

    @pytest.mark.parametrize("value", [1.5, 2.0, "3", None, np.float64(1.0), [1]])
    def test_non_integers_rejected(self, value):
        # rejected when the seed is made, not later by numpy or by derive_run_seed
        with pytest.raises(ValueError, match="^master seed must be a 64-bit unsigned integer$"):
            RngSeed(value)
        with pytest.raises(ValueError, match="^stream must be a 64-bit unsigned integer$"):
            RngSeed(0, value)

    @pytest.mark.parametrize("kind", [np.uint64, np.int64, np.uint32, np.uint8])
    def test_numpy_integers_are_the_ints_they_equal(self, kind):
        seed = RngSeed(kind(7), kind(200))
        assert seed == RngSeed(7, 200)
        assert type(seed.master) is int and type(seed.stream) is int
        assert derive_run_seed(seed, 3) == derive_run_seed(RngSeed(7, 200), 3)
        state = make_generator(seed).bit_generator.state
        assert state == reference_generator(7, 200).bit_generator.state


# Word edges of both halves of a seed pair: numpy reads 0 .. 2**32 - 1 as
# one 32-bit word and 2**32 .. 2**64 - 1 as two.
_EDGES = (0, 1, 2, 2**32 - 1, 2**32, 2**64 - 1)
_UINT64 = st.integers(min_value=0, max_value=2**64 - 1)


def _edge_pairs(example_test):
    for master in _EDGES:
        for stream in _EDGES:
            example_test = example(master, stream)(example_test)
    return example_test


class TestSeedingParity:
    """``make_generator`` keys PCG64 to the state numpy's SeedSequence gives it.

    The reproducibility contract is stated on ``SeedSequence(entropy=master,
    spawn_key=(stream,))``; these tests hold ``_RunSeed``, which computes that
    hash itself, to numpy's, bit for bit.
    """

    @given(_UINT64, _UINT64)
    @_edge_pairs
    def test_state_words(self, master, stream):
        ours, numpys = _RunSeed(master, stream), reference_seed_sequence(master, stream)
        for n_words in range(17):
            for dtype in (np.uint32, np.uint64, "uint32", np.dtype("<u8")):
                want = numpys.generate_state(n_words, dtype)
                got = ours.generate_state(n_words, dtype)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)

    @given(_UINT64, _UINT64)
    @_edge_pairs
    def test_generator_state(self, master, stream):
        state = make_generator(RngSeed(master, stream)).bit_generator.state
        assert state == reference_generator(master, stream).bit_generator.state

    def test_derived_run_streams(self):
        # the streams a campaign actually keys, for two masters in turn
        for master in (0, 2**64 - 1):
            for index in range(200):
                seed = derive_run_seed(RngSeed(master), index)
                want = reference_generator(seed.master, seed.stream).bit_generator.state
                assert make_generator(seed).bit_generator.state == want

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, "uint16"])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(ValueError, match="only support uint32 or uint64"):
            reference_seed_sequence(3, 4).generate_state(4, dtype)
        with pytest.raises(ValueError, match="only support uint32 or uint64"):
            _RunSeed(3, 4).generate_state(4, dtype)

    @pytest.mark.parametrize("kind", [np.uint64, np.int64, np.uint32])
    def test_numpy_integer_seed(self, kind):
        ours = _RunSeed(kind(2**31 + 5), kind(12345)).generate_state(4, np.uint64)
        assert np.array_equal(ours, reference_seed_sequence(2**31 + 5, 12345).generate_state(4, np.uint64))

    @pytest.mark.parametrize("master,stream", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64)])
    def test_out_of_range_rejected(self, master, stream):
        with pytest.raises(ValueError, match="64-bit unsigned"):
            _RunSeed(master, stream)

    @given(_UINT64, _UINT64)
    @example(0, 0)
    @example(2**64 - 1, 2**32)
    def test_spawn(self, master, stream):
        # children, and children of a second spawn, are the SeedSequence's
        ours, numpys = _RunSeed(master, stream), reference_seed_sequence(master, stream)
        for count in (3, 2):
            got, want = ours.spawn(count), numpys.spawn(count)
            assert [c.spawn_key for c in got] == [c.spawn_key for c in want]
            assert all(
                np.array_equal(a.generate_state(4, np.uint64), b.generate_state(4, np.uint64))
                for a, b in zip(got, want)
            )
        assert ours.n_children_spawned == numpys.n_children_spawned == 5

    @pytest.mark.skipif(not hasattr(np.random.Generator, "spawn"), reason="Generator.spawn is numpy 1.25+")
    def test_generator_spawn(self):
        got = make_generator(RngSeed(9, 2**40 + 1)).spawn(3)
        want = reference_generator(9, 2**40 + 1).spawn(3)
        assert [g.bit_generator.state for g in got] == [g.bit_generator.state for g in want]

    def test_pickle_round_trip(self):
        g = make_generator(derive_run_seed(RngSeed(11), 4))
        g.random(7)
        copy = pickle.loads(pickle.dumps(g))
        assert copy.bit_generator.state == g.bit_generator.state
        assert np.array_equal(copy.random(5), g.random(5))

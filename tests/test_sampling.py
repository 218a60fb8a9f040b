"""Tests for seeded sampling, trial counts, and stream derivation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from qpesim import sampling
from qpesim.sampling import _CHUNK, RngSeed, RunDraws, derive_run_seed, make_generator, run_trials
from reference import LoggedGenerator, bernoulli, frequency_estimate, majority

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


def _blocks(total, chunk=_CHUNK):
    """The generator calls a source of ``total`` uniforms makes, whatever its requests.

    The first block is drawn when the source is built, so a source of 0
    uniforms makes one empty draw.
    """
    blocks = [chunk] * (total // chunk)
    if total % chunk or not blocks:
        blocks.append(total % chunk)
    return blocks


def _serve_and_compare(source, ref, requests):
    """Each request served by ``source`` equals the same call on ``ref``."""
    for size in requests:
        got, want = source.random(size), ref.random(size)
        if size is None:
            assert type(got) is float and got == want
        else:
            assert got.shape == (size,) and np.array_equal(got, want)


class TestRunDraws:
    @given(
        st.lists(st.one_of(st.none(), st.integers(min_value=1, max_value=40)), max_size=30),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_any_split_reads_the_generator_stream(self, requests, seed):
        # a run of scalar and sized requests returns the generator's own
        # uniforms and leaves it where the same calls on it would
        total = sum(1 if size is None else size for size in requests)
        g, ref = gen(seed), gen(seed)
        source = RunDraws(g, total)
        _serve_and_compare(source, ref, requests)
        assert g.bit_generator.state == ref.bit_generator.state

    @given(
        st.integers(min_value=1, max_value=7),
        st.lists(st.one_of(st.none(), st.integers(min_value=1, max_value=12)), max_size=30),
    )
    def test_requests_across_small_blocks(self, chunk, requests):
        # at a block size of a few uniforms most requests cross a block boundary,
        # and some are larger than a block; no generator call draws more than
        # the block size or past the total
        total = sum(1 if size is None else size for size in requests)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling, "_CHUNK", chunk)
            logged, ref = LoggedGenerator(gen(5)), gen(5)
            source = RunDraws(logged, total)
            _serve_and_compare(source, ref, requests)
        assert logged.sizes == _blocks(total, chunk)
        assert logged.rng.bit_generator.state == ref.bit_generator.state

    def test_requests_across_a_chunk_boundary(self):
        # 3 + (_CHUNK - 4) ends one uniform short of the first block, so the
        # next request takes that uniform and the start of the second block
        requests = [3, _CHUNK - 4, 10, None, _CHUNK, 7, None, 20]
        total = sum(1 if size is None else size for size in requests)
        assert total == 2 * _CHUNK + 38
        logged, ref = LoggedGenerator(gen(6)), gen(6)
        source = RunDraws(logged, total)
        _serve_and_compare(source, ref, requests)
        assert logged.sizes == _blocks(total) == [_CHUNK, _CHUNK, 38]
        assert logged.rng.bit_generator.state == ref.bit_generator.state

    def test_request_larger_than_a_chunk(self):
        # run_trials asks for at most _CHUNK at a time; a larger request is
        # drawn in blocks of at most _CHUNK all the same, never past the total
        total = 3 * _CHUNK + 9
        logged, ref = LoggedGenerator(gen(7)), gen(7)
        source = RunDraws(logged, total)
        _serve_and_compare(source, ref, [5, 3 * _CHUNK, 4])
        assert logged.sizes == _blocks(total) == [_CHUNK, _CHUNK, _CHUNK, 9]
        assert logged.rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("total", [0, 1, 10, _CHUNK + 3])
    def test_request_past_total_raises(self, total):
        # with up to 3 uniforms left, a request for one more than is left
        # raises and draws nothing, so what is left is still served
        head = max(total - 3, 0)
        g, ref = gen(8), gen(8)
        source = RunDraws(g, total)
        _serve_and_compare(source, ref, [head] if head else [])
        with pytest.raises(ValueError, match="past the run's uniforms"):
            source.random(total - head + 1)
        _serve_and_compare(source, ref, [total - head] if total > head else [])
        with pytest.raises(ValueError, match="past the run's uniforms"):
            source.random()
        assert g.bit_generator.state == ref.bit_generator.state

    def test_block_stays_under_two_chunks(self):
        # run_trials asks for at most _CHUNK at a time; the block keeps at
        # most the unread tail of one block plus one fresh block
        sizes = [_CHUNK - 1, _CHUNK, 2, _CHUNK, _CHUNK - 3, None, _CHUNK]
        total = sum(1 if size is None else size for size in sizes)
        source = RunDraws(gen(9), total)
        for size in sizes:
            source.random(size)
            assert len(source._block) < 2 * _CHUNK

    @pytest.mark.parametrize("m", [1, 2, 25, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_run_trials_counts_alike(self, m):
        # a run of three stages counted from the source and from the generator
        g, ref = gen(10), gen(10)
        source = RunDraws(g, 3 * m)
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

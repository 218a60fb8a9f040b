"""Tests for the exact outcome-distribution oracle."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from qpesim import cli
from qpesim.bounds import qft_lower_bound
from qpesim.estimators import full_qft_config, semiclassical_estimate
from qpesim.phase import Phase, parse_phase, phase_from_bits
from qpesim.refsim import (
    MAX_DENSE_BITS,
    MAX_SAMPLED_BITS,
    _ZERO_OFFSET,
    best_outcome_mass,
    empirical_vs_exact,
    qpe_distribution_exact,
    self_checks,
)
from qpesim.sampling import RngSeed, make_generator

EIGHT_OVER_PI_SQ = 8.0 / math.pi**2


def gen(master=0):
    return make_generator(RngSeed(master))


def midpoint(x: int, n: int) -> Phase:
    """Phase exactly halfway between outcomes x and x+1 of an n-bit register."""
    return Phase((x << (64 - n)) + (1 << (63 - n)))


class TestDistribution:
    def test_exact_phase_is_point_mass(self):
        phi = phase_from_bits("1011", 64)
        probs = qpe_distribution_exact(phi, 4)
        assert probs[0b1011] == 1.0
        assert np.all(np.delete(probs, 0b1011) < 1e-12)

    def test_single_qubit_direct_sum(self):
        probs = qpe_distribution_exact(parse_phase("0.25"), 1)
        assert probs == pytest.approx([0.5, 0.5])

    def test_midpoint_two_point_mass(self):
        dist = qpe_distribution_exact(midpoint(17, 6), 6)
        four_over_pi_sq = 4.0 / math.pi**2
        assert dist[17] == pytest.approx(four_over_pi_sq, abs=1e-3)
        assert dist[18] == pytest.approx(four_over_pi_sq, abs=1e-3)
        assert dist[17] + dist[18] >= EIGHT_OVER_PI_SQ

    def test_probabilities_normalized(self):
        for raw in (0, 123456789, (1 << 64) - 977):
            probs = qpe_distribution_exact(Phase(raw), 7)
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(probs >= 0.0)

    def test_closed_matches_direct_summation(self):
        for n in range(1, 11):
            for j in range(0, 1024, 11):
                phi = Phase(j << 54)
                closed = qpe_distribution_exact(phi, n, "closed")
                direct = qpe_distribution_exact(phi, n, "direct")
                assert np.abs(closed - direct).max() <= 1e-10

    def test_shift_invariance(self):
        n = 5
        base = Phase(987654321 << 30)
        reference = qpe_distribution_exact(base, n)
        for j in (1, 7, 19):
            shifted = Phase((base.raw + (j << (64 - n))) % (1 << 64))
            rolled = qpe_distribution_exact(shifted, n)
            assert np.abs(np.roll(reference, j) - rolled).max() <= 1e-10

    def test_distance_symmetry(self):
        # probs depend only on the circle distance phi - y/2^n: reflecting
        # the phase mirrors the distribution
        n = 6
        phi = Phase(123456789123 << 20)
        mirrored = Phase((-phi.raw) % (1 << 64))
        forward = qpe_distribution_exact(phi, n)
        backward = qpe_distribution_exact(mirrored, n)
        indices = (-np.arange(1 << n)) % (1 << n)
        assert np.abs(forward - backward[indices]).max() <= 1e-10

    def test_register_cap(self):
        with pytest.raises(ValueError):
            qpe_distribution_exact(Phase(0), 15)
        with pytest.raises(ValueError):
            qpe_distribution_exact(Phase(0), 4, "quadrature")

    @pytest.mark.parametrize("n", [3.0, "3"], ids=repr)
    def test_register_size_read_as_an_integer(self, n):
        with pytest.raises(ValueError, match="^n must be an integer$"):
            qpe_distribution_exact(Phase(5, 8), n)
        want = qpe_distribution_exact(Phase(5, 8), 3)
        assert np.array_equal(qpe_distribution_exact(Phase(5, 8), np.int64(3)), want)


class TestBestOutcomeMass:
    def test_exact_phase(self):
        phi = phase_from_bits("110", 64)
        assert best_outcome_mass(qpe_distribution_exact(phi, 3), phi) == 1.0

    def test_coarse_grid_floor(self):
        lowest = 1.0
        for j in range(512):
            phi = Phase(j << 55)
            lowest = min(lowest, best_outcome_mass(qpe_distribution_exact(phi, 6), phi))
        assert lowest >= EIGHT_OVER_PI_SQ - 1e-9

    def test_midpoint_is_the_bottleneck(self):
        phi = midpoint(3, 6)
        mass = best_outcome_mass(qpe_distribution_exact(phi, 6), phi)
        assert mass == pytest.approx(0.810732249166, abs=1e-9)

    def test_register_size_read_from_the_distribution(self):
        probs = qpe_distribution_exact(Phase(11, 4), 4)
        assert best_outcome_mass(probs, Phase(11, 4)) == 1.0
        with pytest.raises(ValueError, match="phase narrower than the register"):
            best_outcome_mass(probs, Phase(5, 3))

    @pytest.mark.parametrize("size", [0, 1, 3, 6, 12, 1023])
    def test_length_not_a_register_rejected(self, size):
        # a length-6 array read as a 2-bit register gave 1/3 at 0.3
        with pytest.raises(ValueError, match="^outcome distribution length must be a power of two"):
            best_outcome_mass(np.full(size, 1 / max(size, 1)), parse_phase("0.3"))


class TestEmpirical:
    def test_exact_phase_zero_distance(self):
        phi = phase_from_bits("011", 64)
        assert empirical_vs_exact(phi, 3, 500, gen(1)) < 1e-12

    def test_midpoint_concentration(self):
        tv = empirical_vs_exact(midpoint(2, 3), 3, 100_000, gen(2))
        assert tv < 0.01

    def test_size_cap(self):
        with pytest.raises(ValueError, match=f"capped at {MAX_SAMPLED_BITS} bits"):
            empirical_vs_exact(Phase(0), MAX_SAMPLED_BITS + 1, 10, gen())

    def test_sample_count_read_as_an_integer_before_drawing(self):
        rng = gen(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^samples must be an integer$"):
            empirical_vs_exact(Phase(5, 8), 3, 10.0, rng)
        assert rng.bit_generator.state == state


def reference_distribution(phi: Phase, n: int, method: str = "closed") -> np.ndarray:
    """The oracle as first written: a fresh index array and a mask on every call."""
    if not 1 <= n <= MAX_DENSE_BITS:
        raise ValueError(f"register size must lie in 1..{MAX_DENSE_BITS}")
    size = 1 << n
    if method == "closed":
        offsets = phi.value - np.arange(size) / size
        offsets -= np.round(offsets)
        probs = np.ones(size)
        spread = np.abs(offsets) >= _ZERO_OFFSET
        d = offsets[spread]
        probs[spread] = np.sin(size * np.pi * d) ** 2 / (size**2 * np.sin(np.pi * d) ** 2)
    elif method == "direct":
        amplitudes = np.exp(2j * np.pi * phi.value * np.arange(size)) / size
        probs = np.abs(np.fft.fft(amplitudes)) ** 2
    else:
        raise ValueError(f"unknown method {method!r}")
    return probs


def reference_empirical(phi: Phase, n: int, samples: int, rng) -> float:
    """The sampled TV distance as first written: a float array bumped once per sample."""
    if n > 10:
        raise ValueError("empirical comparison capped at 10 bits")
    if samples < 1:
        raise ValueError("sample count must be positive")
    cfg = full_qft_config(n)
    shift = phi.width - n
    counts = np.zeros(1 << n)
    for _ in range(samples):
        counts[semiclassical_estimate(phi, cfg, rng).estimate.raw >> shift] += 1
    exact = reference_distribution(phi, n)
    return 0.5 * float(np.abs(counts / samples - exact).sum())


def oracle_phases(n: int) -> list[Phase]:
    """Grid points of an n-bit register, each one raw unit off (the zero-offset
    branch) and on either side of _ZERO_OFFSET, midpoints, the ends of the
    circle and 200 random 64-bit phases."""
    size = 1 << n
    step = 64 - n
    grid = sorted({0, 1, size // 2, size - 1} | set(range(0, size, max(1, size // 32))))
    phases = [Phase(j << step) for j in grid]
    phases += [Phase((j << step) + 1) for j in grid]
    phases += [Phase(((j << step) - 1) % (1 << 64)) for j in grid]
    # 16 raw units is _ZERO_OFFSET itself at width 64
    phases += [Phase(((j << step) + units) % (1 << 64)) for j in grid for units in (-16, -15, 15, 16)]
    phases += [Phase((j << (128 - n)) + 1, 128) for j in grid]
    phases += [midpoint(j, n) for j in grid]
    phases += [Phase(1), Phase((1 << 64) - 1), Phase(5, 8), Phase(255, 8)]
    words = np.random.default_rng(0x5EED + n).integers(0, 2**64, size=200, dtype=np.uint64)
    phases += [Phase(int(word)) for word in words]
    return phases


class TestOracleBitIdentity:
    @pytest.mark.parametrize("method", ["closed", "direct"])
    @pytest.mark.parametrize("n", range(1, MAX_DENSE_BITS + 1))
    def test_same_bytes_as_reference(self, n, method):
        for phi in oracle_phases(n):
            dist = qpe_distribution_exact(phi, n, method)
            assert len(dist) == 1 << n
            assert dist.tobytes() == reference_distribution(phi, n, method).tobytes(), phi

    @pytest.mark.parametrize(
        "phi,n,samples,seed",
        [
            (parse_phase("0.703125"), 5, 3000, 0),
            (midpoint(2, 3), 3, 2000, 2),
            (Phase(0), 1, 50, 4),
            (Phase(0x9E3779B97F4A7C15), 10, 700, 11),
            (Phase(0x9E3779B97F4A7C15), 7, 1, 5),
            (Phase(181, 8), 2, 400, 9),
        ],
    )
    def test_empirical_matches_reference(self, phi, n, samples, seed):
        rng, twin = gen(seed), gen(seed)
        assert empirical_vs_exact(phi, n, samples, rng) == reference_empirical(phi, n, samples, twin)
        assert rng.bit_generator.state == twin.bit_generator.state


# The check names in the order validate prints them (perfbench/run.py lists
# the same, then "overall").
CHECK_NAMES = ["closed-vs-direct agreement", "sampling TV distance", "two-point mass grid minimum"]


def cli_validate(argv: list[str], monkeypatch, capsys) -> tuple[int, list[str], dict]:
    """``validate`` run in process: its exit code, its lines and its generator's final state."""
    made = []

    def recorded(seed):
        made.append(make_generator(seed))
        return made[-1]

    monkeypatch.setattr(cli, "make_generator", recorded)
    code = cli.main(["validate", *argv])
    (rng,) = made
    return code, capsys.readouterr().out.splitlines(), rng.bit_generator.state


class TestSelfChecks:
    @pytest.mark.parametrize(
        "phase,n,samples,seed,verdicts",
        [
            ("0.703125", 5, 50000, 0, [True, True, True]),  # validate's defaults
            ("0.25", 1, 30, 4, [True, False, True]),  # too few samples for the TV limit
        ],
        ids=["defaults", "undersampled"],
    )
    def test_matches_the_cli(self, phase, n, samples, seed, verdicts, monkeypatch, capsys):
        rng = gen(seed)
        checks = self_checks(parse_phase(phase), n, samples, rng)
        assert [name for name, _, _ in checks] == CHECK_NAMES
        assert [ok for _, ok, _ in checks] == verdicts
        argv = ["--phase", phase, "--bits", str(n), "--samples", str(samples), "--seed", str(seed)]
        code, lines, state = cli_validate(argv, monkeypatch, capsys)
        assert code == (0 if all(verdicts) else 2)
        assert lines[:-1] == [
            f"{name:<28} {'PASS' if ok else 'FAIL':<6} {detail}" for name, ok, detail in checks
        ]
        assert lines[-1].split() == ["overall", "PASS" if all(verdicts) else "FAIL"]
        # the same draws on the same stream: the generators end alike
        assert rng.bit_generator.state == state

    def test_detail_formats(self):
        agreement, tv, floor = (detail for _, _, detail in self_checks(Phase(0), 3, 200, gen(1)))
        assert re.fullmatch(r"max \|diff\| \d\.\d{3}e[-+]\d\d \(tol 1e-10\)", agreement)
        # an exact phase samples its one outcome every time
        sampled = re.fullmatch(r"TV (\S+) \(limit (\S+)\)", tv)
        assert float(sampled[1]) < 1e-12
        assert sampled[2] == f"{0.4 * math.sqrt(8 / 200) + 0.01:.12g}"
        assert floor.endswith(f" (floor {qft_lower_bound() - 1e-9:.12g})")

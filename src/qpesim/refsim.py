"""Exact outcome distribution of textbook QPE, used as a sampling oracle.

For an n-qubit register the outcome y is measured with probability
|2**-n * sum_k exp(2*pi*i*(phi - y/2**n)*k)|^2, which collapses to the
Dirichlet kernel sin^2(2**n*pi*d) / (2**(2n) * sin^2(pi*d)) at offset
d = phi - y/2**n.  Both that closed form and the direct summation are
available and must agree; the distribution is dense, so n is capped.

Each register size's outcome indices and grid points y/2**n are built
once and kept read-only.  The closed form masks out offsets below
``_ZERO_OFFSET`` (whose outcome has probability 1) only when phi lies
that close to a grid point; otherwise it runs on the whole offset array,
with the same expression and so the same floats.  ``self_checks``
compares the closed and direct rows of its 1024 points as two stacked
arrays with one max.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.random import Generator

from .bounds import qft_lower_bound
from .estimators import StageTable, full_qft_config, semiclassical_estimate
from .phase import DEFAULT_WIDTH, Phase, as_int
from .sampling import RunDraws

MAX_DENSE_BITS = 14
# Largest register the sampled comparison runs: its tally has 2**n entries.
MAX_SAMPLED_BITS = 10
_ZERO_OFFSET = 2.0**-60


@functools.cache
def _outcomes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The outcomes 0..2**n-1 and their grid points y/2**n, read-only."""
    size = 1 << n
    index = np.arange(size)
    grid = index / size
    index.flags.writeable = False
    grid.flags.writeable = False
    return index, grid


def _dirichlet(d: np.ndarray, size: int) -> np.ndarray:
    """The closed form sin^2(size*pi*d) / (size^2 * sin^2(pi*d)) at nonzero offsets d."""
    return np.sin(size * np.pi * d) ** 2 / (size**2 * np.sin(np.pi * d) ** 2)


def qpe_distribution_exact(phi: Phase, n: int, method: str = "closed") -> np.ndarray:
    """Exact outcome distribution for an n-bit register at eigenphase phi.

    The 2**n float64 probabilities, outcome y at index y.

    ``method`` selects the Dirichlet closed form ("closed") or the
    direct summation of the 2**n-term geometric series ("direct",
    evaluated as a DFT); the two agree to 1e-10 and serve as mutual
    checks.  ``n`` may be any integer type ``operator.index`` reads.
    """
    n = as_int(n, "n must be an integer")
    if not 1 <= n <= MAX_DENSE_BITS:
        raise ValueError(f"register size must lie in 1..{MAX_DENSE_BITS}")
    size = 1 << n
    index, grid = _outcomes(n)
    if method == "closed":
        value = phi.value
        offsets = value - grid
        offsets -= offsets.round()
        # An offset below _ZERO_OFFSET is computed exactly (Sterbenz), as is
        # scaled - round(scaled): size times the distance from value to the
        # nearest grid point.  So this tells, without a scan, whether any
        # offset needs the mask.
        scaled = value * size
        if abs(scaled - round(scaled)) >= _ZERO_OFFSET * size:
            probs = _dirichlet(offsets, size)
        else:
            probs = np.ones(size)
            spread = np.abs(offsets) >= _ZERO_OFFSET
            probs[spread] = _dirichlet(offsets[spread], size)
    elif method == "direct":
        probs = np.abs(np.fft.fft(np.exp(2j * np.pi * phi.value * index) / size)) ** 2
    else:
        raise ValueError(f"unknown method {method!r}")
    return probs


def best_outcome_mass(probs: np.ndarray, phi: Phase) -> float:
    """Probability of landing on a neighbouring grid point of phi.

    ``probs`` is an n-bit register's distribution (n is
    ``len(probs).bit_length() - 1``, so its length is a power of two, at
    least 2): the mass of floor(2**n * phi) plus, when phi is strictly
    between grid points, of the next outcome up (mod 2**n).
    """
    size = len(probs)
    if size < 2 or size & (size - 1):
        raise ValueError("outcome distribution length must be a power of two, at least 2")
    n = size.bit_length() - 1
    if phi.width < n:
        raise ValueError("phase narrower than the register")
    shift = phi.width - n
    below = phi.raw >> shift
    if phi.raw & ((1 << shift) - 1) == 0:
        return float(probs[below])
    return float(probs[below] + probs[(below + 1) % size])


def empirical_vs_exact(phi: Phase, n: int, samples: int, rng: Generator) -> float:
    """Total-variation distance between sampled full-QFT outcomes and the exact law.

    The runs share one stage table and read their rows, in order, from one
    :class:`~qpesim.sampling.RunDraws` on ``rng``, and leave ``rng`` where
    runs drawing their own rows would.  ``n`` and ``samples`` are read as
    integers before anything is drawn.
    """
    n = as_int(n, "n must be an integer")
    samples = as_int(samples, "samples must be an integer")
    if n > MAX_SAMPLED_BITS:
        raise ValueError(f"empirical comparison capped at {MAX_SAMPLED_BITS} bits")
    if samples < 1:
        raise ValueError("sample count must be positive")
    cfg = full_qft_config(n)
    shift = phi.width - n
    counts = [0] * (1 << n)
    draws = RunDraws(rng, samples * n, 1)
    table = StageTable(phi, cfg)
    for _ in range(samples):
        # the estimate's top n bits are the outcome, without a loop over the bits
        counts[semiclassical_estimate(phi, cfg, draws, table).estimate.raw >> shift] += 1
    exact = qpe_distribution_exact(phi, n)
    return 0.5 * float(np.abs(np.array(counts) / samples - exact).sum())


def self_checks(phi: Phase, n: int, samples: int, rng: Generator) -> list[tuple[str, bool, str]]:
    """The oracle's self-checks at register size n, as (name, ok, detail) triples.

    Closed form against direct sum on j/2**10, ``samples`` full-QFT runs at phi
    on ``rng`` against the exact law, and the 8/pi^2 two-point floor on j/2**12.
    """
    points = list(map(Phase, range(0, 1 << DEFAULT_WIDTH, 1 << (DEFAULT_WIDTH - 10))))
    row = (np.float64, 1 << n)
    closed = np.fromiter((qpe_distribution_exact(p, n, "closed") for p in points), row, 1024)
    closed -= np.fromiter((qpe_distribution_exact(p, n, "direct") for p in points), row, 1024)
    worst = float(np.abs(closed, closed).max())
    tv = empirical_vs_exact(phi, n, samples, rng)
    # multinomial concentration: expected TV ~ 0.4*sqrt(2^n/samples)
    tv_limit = 0.4 * math.sqrt((1 << n) / samples) + 0.01
    floor = qft_lower_bound() - 1e-9
    lowest = 1.0
    for point in map(Phase, range(0, 1 << DEFAULT_WIDTH, 1 << (DEFAULT_WIDTH - 12))):
        lowest = min(lowest, best_outcome_mass(qpe_distribution_exact(point, n), point))
    return [
        ("closed-vs-direct agreement", worst <= 1e-10, f"max |diff| {worst:.3e} (tol 1e-10)"),
        ("sampling TV distance", tv < tv_limit, f"TV {tv:.12g} (limit {tv_limit:.12g})"),
        ("two-point mass grid minimum", lowest >= floor, f"min {lowest:.12g} (floor {floor:.12g})"),
    ]

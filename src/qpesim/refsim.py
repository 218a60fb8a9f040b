"""Exact outcome distribution of textbook QPE, used as a sampling oracle.

For an n-qubit register the outcome y is measured with probability
|2**-n * sum_k exp(2*pi*i*(phi - y/2**n)*k)|^2, which collapses to the
Dirichlet kernel sin^2(2**n*pi*d) / (2**(2n) * sin^2(pi*d)) at offset
d = phi - y/2**n.  Both that closed form and the direct summation are
available and must agree; the distribution is dense, so n is capped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .estimators import full_qft_config, semiclassical_estimate
from .phase import Phase

MAX_DENSE_BITS = 14
_ZERO_OFFSET = 2.0**-60


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of the 2**n register outcomes."""

    n: int
    probs: np.ndarray


def qpe_distribution_exact(phi: Phase, n: int, method: str = "closed") -> OutcomeDistribution:
    """Exact outcome distribution for an n-bit register at eigenphase phi.

    ``method`` selects the Dirichlet closed form ("closed") or the
    direct summation of the 2**n-term geometric series ("direct",
    evaluated as a DFT); the two agree to 1e-10 and serve as mutual
    checks.
    """
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
    return OutcomeDistribution(n=n, probs=probs)


def best_outcome_mass(dist: OutcomeDistribution, phi: Phase) -> float:
    """Probability of landing on a neighbouring grid point of phi.

    The mass of floor(2**n * phi) plus, when phi is strictly between
    grid points, of the next outcome up (mod 2**n).
    """
    if phi.width < dist.n:
        raise ValueError("phase narrower than the register")
    size = 1 << dist.n
    shift = phi.width - dist.n
    below = phi.raw >> shift
    if phi.raw & ((1 << shift) - 1) == 0:
        return float(dist.probs[below])
    return float(dist.probs[below] + dist.probs[(below + 1) % size])


def empirical_vs_exact(phi: Phase, n: int, samples: int, rng: Generator) -> float:
    """Total-variation distance between sampled full-QFT outcomes and the exact law."""
    if n > 10:
        raise ValueError("empirical comparison capped at 10 bits")
    if samples < 1:
        raise ValueError("sample count must be positive")
    cfg = full_qft_config(n)
    shift = phi.width - n
    counts = np.zeros(1 << n)
    for _ in range(samples):
        # the estimate's top n bits are the outcome, without a loop over the bits
        counts[semiclassical_estimate(phi, cfg, rng).estimate.raw >> shift] += 1
    exact = qpe_distribution_exact(phi, n).probs
    return 0.5 * float(np.abs(counts / samples - exact).sum())

"""Semiclassical measurement-feedback phase estimators.

One engine covers full-QFT, approximate-QFT, and constant-precision
phase estimation: stages run least-significant bit first, each stage
applies inverse phase corrections controlled by the most recent
``window`` decided bits, measures after a Hadamard, and majority-votes
``reps`` repetitions.  Guard stages are extra low-order bits estimated
first and dropped from the reported result.

A run keeps only its per-stage vote counts; its ``stage_log`` is a
:class:`StageLog` that builds the ``StageRecord``s when first read, so
campaigns that never read the log build no residual ``Phase``.

On a fixed eigenphase the engine has few distinct states: stage i sees
only its last ``window`` decided bits.  So runs on the same
``(phi.raw, phi.width, cfg)`` share what earlier runs on that key
computed: each stage's outcome-one probability per window state, and
each outcome's ``BitString`` and estimate ``Phase`` (the 8 most recent
keys, stored from a key's second run on, at most 2**12 entries each).
Every run still draws its own trials, in the same order, from its own
generator, so sharing changes no bit.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from numpy.random import Generator

from .bounds import const_precision_trials, per_bit_budget, round_up_to_odd
from .phase import GUARD_BITS, BitString, Phase, mod1_distance, phase_from_bits
from .sampling import run_trials


# Stage-tree memo bounds: trees kept (least recently used evicted) and
# entries stored per tree, past which a run computes without storing.
_MEMO_TREES = 8
_MEMO_ENTRIES = 1 << 12


class Feedback(enum.Enum):
    """Source of the correction bits: measured majorities or the true phase."""

    ESTIMATED = "estimated"
    ORACLE = "oracle"


@dataclass(frozen=True)
class EstimatorConfig:
    """Engine parameters: bits to report, correction window, repetitions, guards."""

    n: int
    window: int
    reps: int = 1
    guard: int = 0
    feedback: Feedback = Feedback.ESTIMATED

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("bit count must be positive")
        if self.window < 0:
            raise ValueError("window must be nonnegative")
        if self.guard < 0:
            raise ValueError("guard count must be nonnegative")
        if self.reps < 1 or self.reps % 2 == 0:
            raise ValueError("repetitions must be a positive odd integer")
        if self.reps > 1 and self.window < 2:
            # window w has degree w+1; degree 2 leaves a cos^2(pi/4) = 1/2
            # per-test floor and no majority margin at all.
            raise ValueError("degree too small for majority margin")
        # Hashed once, as the stage memo looks the config up on every run.
        # Only ints and a bool go in, so a pickled config keeps a valid hash
        # in another process (str hashes, and so Enum hashes, differ there).
        key = (self.n, self.window, self.reps, self.guard, self.feedback is Feedback.ORACLE)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class StageRecord:
    """Diagnostics for one stage: index, corrected residual, vote counts, decision."""

    stage: int
    residual: Phase
    trials: int
    ones: int
    bit: int

    def json_entry(self) -> dict[str, Any]:
        """The stage as ``estimate --format json`` prints it."""
        return {
            "stage": self.stage, "residual": self.residual.value, "trials": self.trials,
            "ones": self.ones, "bit": self.bit,
        }


@dataclass(frozen=True)
class EstimationResult:
    """Estimated bits with the per-stage log and the Hadamard-test count."""

    bits: BitString
    estimate: Phase
    stage_log: Sequence[Any]
    total_tests: int
    warnings: tuple[str, ...] = ()


class StageLog(Sequence[StageRecord]):
    """The ``StageRecord``s of one semiclassical run, built when first read.

    A run keeps only its per-stage vote counts ``ones``; the records come
    back from ``(raw, width, cfg, ones)`` with the engine's own
    arithmetic (each bit is the majority of its count, ORACLE window bits
    are read from ``raw``) and are cached on first read.  The log behaves
    as the tuple of those records: length, indexing, slicing, iteration,
    ``repr``, ``==`` (in either operand order) and ``hash``.
    """

    __slots__ = ("_raw", "_width", "_cfg", "_ones", "_records")

    def __init__(self, raw: int, width: int, cfg: EstimatorConfig, ones: tuple[int, ...]) -> None:
        self._raw = raw
        self._width = width
        self._cfg = cfg
        self._ones = ones
        self._records: tuple[StageRecord, ...] | None = None

    def _built(self) -> tuple[StageRecord, ...]:
        if self._records is None:
            raw, width, cfg = self._raw, self._width, self._cfg
            window = cfg.window
            mask = (1 << width) - 1
            shift = width - 1 - window
            window_mask = (1 << window) - 1
            oracle = cfg.feedback is Feedback.ORACLE
            reps = cfg.reps
            window_bits = 0
            records = []
            for i, h in zip(range(cfg.n + cfg.guard, 0, -1), self._ones):
                if oracle:
                    window_bits = (raw >> (width - i - window)) & window_mask
                residual = ((raw << (i - 1)) - (window_bits << shift)) & mask
                bit = 1 if 2 * h > reps else 0
                records.append(StageRecord(i, Phase(residual, width), reps, h, bit))
                if window:
                    window_bits = (bit << (window - 1)) | (window_bits >> 1)
            self._records = tuple(records)
        return self._records

    def __len__(self) -> int:
        return len(self._ones)

    def __getitem__(self, index: Any) -> Any:
        return self._built()[index]

    def __iter__(self) -> Iterator[StageRecord]:
        return iter(self._built())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StageLog):
            other = other._built()
        return self._built() == other

    def __hash__(self) -> int:
        return hash(self._built())

    def __repr__(self) -> str:
        return repr(self._built())


class _StageTree:
    """What runs on one (raw, width, cfg) key have already computed.

    ``probs`` maps a stage i and the window bits entering it, packed as
    ``i << window | window_bits``, to the stage's outcome-one
    probability; ``leaves`` maps the reported integer to ``(BitString,
    estimate Phase)``.  ``room`` counts the probabilities and leaves that
    may still be stored: none on the key's first run, so campaigns that
    never repeat a key (random phases) keep nothing alive, and
    ``_MEMO_ENTRIES`` from its second run on.
    """

    __slots__ = ("probs", "leaves", "room", "runs")

    def __init__(self) -> None:
        self.probs: dict[int, float] = {}
        self.leaves: dict[int, tuple[BitString, Phase]] = {}
        self.room = 0
        self.runs = 0


@functools.lru_cache(maxsize=_MEMO_TREES)
def _stage_tree(raw: int, width: int, cfg: EstimatorConfig) -> _StageTree:
    return _StageTree()


def semiclassical_estimate(phi: Phase, cfg: EstimatorConfig, rng: Generator) -> EstimationResult:
    """Run the measurement-feedback engine against the eigenphase ``phi``.

    Stage i (i = n+guard down to 1) works on 2**(i-1) * phi: corrections
    from the decided bits at positions i+1 .. i+window (ORACLE feedback
    substitutes the true bits of phi) are subtracted, the post-Hadamard
    one-probability of the residual drives ``reps`` Bernoulli trials,
    and the majority becomes bit x_i.  Guard bits are dropped from the
    reported string.

    Stages run on the raw integer of phi: the correction bits
    x_{i+1} .. x_{i+window} are kept as one integer (x_{i+1} most
    significant), shifted in as each bit is decided, and the residual is
    ``(2**(i-1) * raw - bits * 2**(width-1-window)) mod 2**width``.
    That is the same integer and the same probability float as
    :func:`~qpesim.phase.double_k`, :func:`~qpesim.phase.corrected_residual`
    and :func:`~qpesim.phase.post_h_prob_one`, which stay the reference
    the replay tests check this engine against.

    A run keeps only its vote counts: ``stage_log`` is a :class:`StageLog`
    that builds the ``StageRecord``s (residual ``Phase`` included) when it
    is first read, so campaigns that never read the log build none.

    The probabilities and outcomes a run computes are memoised per
    ``(phi.raw, phi.width, cfg)`` key: per (stage, window bits) the
    probability float, and per reported integer the ``BitString`` and
    estimate ``Phase``.  The memo keeps the 8 most recently used keys and
    stores from a key's second run on, at most 2**12 entries per key; a
    first run, or a run past that cap, computes what it needs without
    storing it.  Sharing is safe because every memoised value is frozen
    and a function of the key and the stage state alone; the generator
    is never touched, since each stage still calls
    :func:`~qpesim.sampling.run_trials` once, in order, on the run's own
    ``rng``.
    """
    width = phi.width
    total_stages = cfg.n + cfg.guard
    window = cfg.window
    if total_stages + window > width - GUARD_BITS:
        raise ValueError(
            f"configuration needs {total_stages + window} significant bits; "
            f"width {width} allows {width - GUARD_BITS}"
        )
    raw = phi.raw
    tree = _stage_tree(raw, width, cfg)
    tree.runs += 1
    if tree.runs == 2:
        tree.room = _MEMO_ENTRIES
    probs = tree.probs
    span = 1 << width
    mask = span - 1
    shift = width - 1 - window
    window_mask = (1 << window) - 1
    oracle = cfg.feedback is Feedback.ORACLE
    reps = cfg.reps
    window_bits = 0
    decided = 0  # x_1 .. x_{n+guard}, x_1 most significant
    ones: list[int] = []
    for i in range(total_stages, 0, -1):
        if oracle:
            window_bits = (raw >> (width - i - window)) & window_mask
        key = (i << window) | window_bits
        p = probs.get(key)
        if p is None:
            residual = ((raw << (i - 1)) - (window_bits << shift)) & mask
            p = math.sin(math.pi * (residual / span)) ** 2
            if tree.room:
                tree.room -= 1
                probs[key] = p
        h = run_trials(p, reps, rng).h
        ones.append(h)
        bit = 1 if 2 * h > reps else 0
        if window:
            window_bits = (bit << (window - 1)) | (window_bits >> 1)
        decided |= bit << (total_stages - i)
    value = decided >> cfg.guard
    leaf = tree.leaves.get(value)
    if leaf is None:
        leaf = (BitString.from_int(value, cfg.n), Phase(value << (width - cfg.n), width))
        if tree.room:
            tree.room -= 1
            tree.leaves[value] = leaf
    return EstimationResult(
        bits=leaf[0],
        estimate=leaf[1],
        stage_log=StageLog(raw, width, cfg, tuple(ones)),
        total_tests=reps * total_stages,
    )


def full_qft_config(
    n: int, reps: int = 1, guard: int = 0, feedback: Feedback = Feedback.ESTIMATED
) -> EstimatorConfig:
    """Textbook QPE: every decided bit feeds corrections (window n-1), one shot per bit."""
    return EstimatorConfig(n=n, window=n - 1, reps=reps, guard=guard, feedback=feedback)


def aqft_config(
    n: int, degree: int, reps: int = 1, guard: int = 0, feedback: Feedback = Feedback.ESTIMATED
) -> EstimatorConfig:
    """Approximate-QFT QPE of the given degree: window degree-1, one shot per bit."""
    if degree < 2:
        raise ValueError("degree must be at least 2")
    return EstimatorConfig(n=n, window=degree - 1, reps=reps, guard=guard, feedback=feedback)


def constant_precision_config(
    n: int, degree: int, eps: float, reps: int | None = None, guard: int | None = None,
    feedback: Feedback = Feedback.ESTIMATED,
) -> EstimatorConfig:
    """Constant-precision QPE: fixed-degree corrections, majority-voted repetitions.

    The per-bit failure budget is eps/n and the repetition count comes
    from the majority Chernoff inversion (bumped to odd).  Two guard
    stages keep the reported bits' residuals inside the degree window;
    ``reps``/``guard`` exist as explicit overrides.  The budget is
    checked, and its count computed, even when ``reps`` overrides it.
    """
    if degree < 3:
        raise ValueError("degree too small for majority margin")
    if not 0.0 < eps < 1.0:
        raise ValueError("failure budget must lie in (0, 1)")
    trials = round_up_to_odd(const_precision_trials(per_bit_budget(eps, n), degree))
    reps = trials if reps is None else reps
    guard = 2 if guard is None else guard
    return EstimatorConfig(n=n, window=degree - 1, reps=reps, guard=guard, feedback=feedback)


def full_qft_estimate(phi: Phase, n: int, rng: Generator) -> EstimationResult:
    """Textbook QPE run through the engine with :func:`full_qft_config`."""
    return semiclassical_estimate(phi, full_qft_config(n), rng)


def aqft_estimate(phi: Phase, n: int, degree: int, rng: Generator) -> EstimationResult:
    """Approximate-QFT QPE run through the engine with :func:`aqft_config`."""
    return semiclassical_estimate(phi, aqft_config(n, degree), rng)


def constant_precision_estimate(
    phi: Phase,
    n: int,
    degree: int,
    eps: float,
    rng: Generator,
    reps: int | None = None,
    guard: int | None = None,
) -> EstimationResult:
    """Constant-precision QPE run through the engine with :func:`constant_precision_config`."""
    cfg = constant_precision_config(n, degree, eps, reps=reps, guard=guard)
    return semiclassical_estimate(phi, cfg, rng)


def estimate_phase(result: EstimationResult, width: int) -> Phase:
    """The reported estimate as a width-bit phase.

    That is ``result.estimate`` when it has this width; otherwise the
    bits are converted with ``phase_from_bits``.
    """
    if result.estimate.width == width:
        return result.estimate
    return phase_from_bits(result.bits, width)


def is_success(result: EstimationResult, phi: Phase, n: int) -> bool:
    """Whether the estimate is within 2**-n of phi on the circle (inclusive).

    Inclusive at the boundary: for phi between two n-bit grid points,
    both neighbours count as success.  The estimate is
    ``result.estimate`` when its width is ``phi.width`` (both engines
    build it from the reported bits), else the bits at ``phi.width``.
    """
    if not 1 <= n <= phi.width:
        raise ValueError("n must lie in 1..width")
    est = estimate_phase(result, phi.width)
    span = 1 << phi.width
    d = (est.raw - phi.raw) % span
    return min(d, span - d) <= (1 << (phi.width - n))


def estimation_error(result: EstimationResult, phi: Phase) -> float:
    """Mod-1 distance between the estimate and the true phase."""
    return mod1_distance(estimate_phase(result, phi.width), phi)

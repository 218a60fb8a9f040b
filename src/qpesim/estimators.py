"""Semiclassical measurement-feedback phase estimators.

One engine covers full-QFT, approximate-QFT, and constant-precision
phase estimation: stages run least-significant bit first, each stage
applies inverse phase corrections controlled by the most recent
``window`` decided bits, measures after a Hadamard, and majority-votes
``reps`` repetitions.  Guard stages are extra low-order bits estimated
first and dropped from the reported result.

A run keeps its decided bits in a small integer, x_i at bit
``n + guard + window - i``, so a stage reads its correction window with
one shift and one mask whatever the phase's width; ORACLE feedback
shifts ``raw`` once per run into the same alignment.

Stage log.  A run keeps only its per-stage vote counts and that
integer; its ``stage_log`` is a :class:`StageLog`, given the run's
set-up (the constants a :class:`StageTable` holds) and the word the run
read its corrections from (the integer, or under ORACLE feedback the
shifted ``raw``).  The log builds the ``StageRecord``s when first read,
each window read with the engine's shifts, each residual with the
engine's expression and each bit as the stage's majority, ``ones >
reps >> 1``, and caches them, so campaigns that never read the log
build no residual ``Phase``.  It acts as the tuple of those records
for length, indexing, slicing, iteration, ``repr``, ``==`` (in either
operand order) and ``hash``.

Stage table.  On a fixed eigenphase stage i sees only its last
``window`` decided bits, so a caller that repeats one phase and config
passes each run one :class:`StageTable`.  The table holds what such
runs share.  Built, it checks the bit budget, so an over-budget config
is refused before any run, and computes a run's constants (stage count,
span, masks, shift, the ORACLE word, reps and half); a run reads them
from it, and a run without a table computes them with the same
function.  Filled by its runs, it keeps each stage's outcome-one
probability per window state and, per decided integer, the first
result that ended on it, up to ``StageTable.ENTRIES`` entries in all,
past which a run computes without storing.  A run ending on a stored
path returns the stored result when its vote counts are the stored
log's, and otherwise builds its own result and log on the stored digit
string and estimate and stores nothing; keying by the vote counts
instead would fill the table with tuples that majorities of many votes
seldom repeat.  A result depends only on the table's key and the run's
vote counts, so this is exact.  A run refuses a table of another phase
or config before it draws, and a run given none stores nothing.  Every
run still draws its own trials in order, so sharing changes no bit.

A run reads its ``n + guard`` rows of ``reps`` votes through one
:class:`~qpesim.sampling.RunDraws` (its block layout is described in
:mod:`qpesim.sampling`).  Each stage counts with one
:func:`~qpesim.sampling.run_trials` call on that source, and the counts
and the generator's state after the run are those of per-stage draws.
A caller of many runs on one generator may pass one source for all of
them, so that short runs share its blocks (``refsim.empirical_vs_exact``
does).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, NamedTuple

from numpy.random import Generator

from .bounds import (
    DEFAULT_DEGREE,
    DEFAULT_EPS,
    chernoff_trials,
    const_precision_coefficient,
    round_up_to_odd,
)
from .phase import (
    MAX_LDEXP_WIDTH,
    Phase,
    as_int,
    as_member,
    check_bit_budget,
    phase_from_bits,
)
from .sampling import RunDraws, run_trials


class Feedback(enum.Enum):
    """Source of the correction bits: measured majorities or the true phase."""

    ESTIMATED = "estimated"
    ORACLE = "oracle"


@dataclass(frozen=True)
class EstimatorConfig:
    """Engine parameters: bits to report, correction window, repetitions, guards.

    The counts may be any integer type ``operator.index`` reads; each is
    stored as the int it equals.  ``feedback`` is a ``Feedback`` or its
    value, stored as the member.
    """

    n: int
    window: int
    reps: int = 1
    guard: int = 0
    feedback: Feedback = Feedback.ESTIMATED

    def __post_init__(self) -> None:
        for name in ("n", "window", "reps", "guard"):
            object.__setattr__(self, name, as_int(getattr(self, name), f"{name} must be an integer"))
        object.__setattr__(self, "feedback", as_member(Feedback, self.feedback, "feedback"))
        if self.n < 1:
            raise ValueError("bit count must be positive")
        if self.window < 0:
            raise ValueError("window must be nonnegative")
        if self.guard < 0:
            raise ValueError("guard count must be nonnegative")
        if self.reps < 1 or self.reps % 2 == 0:
            raise ValueError("repetitions must be a positive odd integer")
        if self.reps > 1:
            # window w has degree w+1; a majority needs the margin whose floor
            # the const coefficient checks
            const_precision_coefficient(self.window + 1)

    def run(
        self, phi: Phase, rng: Generator, table: StageTable | None = None
    ) -> tuple[EstimationResult, bool]:
        """One engine run and its :func:`is_success`, both looked up by name when called."""
        result = semiclassical_estimate(phi, self, rng, table)
        return result, is_success(result, phi, self.n)


class StageRecord(NamedTuple):
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


class EstimationResult(NamedTuple):
    """Estimated bits with the per-stage log and the Hadamard-test count.

    ``bits`` is the estimate's digit string x_1 x_2 ..., leading zeros kept.

    It prints, compares and hashes by its fields and takes no assignment;
    as a tuple it also compares equal to a plain tuple of the same fields.
    """

    bits: str
    estimate: Phase
    stage_log: Sequence[Any]
    total_tests: int
    warnings: tuple[str, ...] = ()


class StageLog(Sequence[StageRecord]):
    """The ``StageRecord``s of one semiclassical run, built when first read.

    See "Stage log" in the module docstring.
    """

    __slots__ = ("_raw", "_width", "_setup", "_ones", "_corrections", "_records")

    def __init__(
        self, raw: int, width: int, setup: tuple[Any, ...], ones: tuple[int, ...], corrections: int
    ) -> None:
        self._raw = raw
        self._width = width
        self._setup = setup
        self._ones = ones
        self._corrections = corrections
        self._records: tuple[StageRecord, ...] | None = None

    def _built(self) -> tuple[StageRecord, ...]:
        if self._records is None:
            raw, width, source = self._raw, self._width, self._corrections
            total_stages, _, mask, shift, window_mask, _, reps, half, _ = self._setup
            self._records = tuple(
                StageRecord(
                    i,
                    Phase(
                        ((raw << (i - 1))
                         - (((source >> (total_stages - i)) & window_mask) << shift)) & mask,
                        width,
                    ),
                    reps,
                    h,
                    int(h > half),
                )
                for i, h in zip(range(total_stages, 0, -1), self._ones)
            )
        return self._records

    def __len__(self) -> int:
        return len(self._ones)

    def __getitem__(self, index: Any) -> Any:
        return self._built()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StageLog):
            other = other._built()
        return self._built() == other

    def __hash__(self) -> int:
        return hash(self._built())

    def __repr__(self) -> str:
        return repr(self._built())


class StageTable:
    """A run's set-up, stage probabilities and results of one phase and config.

    See "Stage table" in the module docstring.
    """

    ENTRIES = 1 << 12

    def __init__(self, phi: Phase, cfg: EstimatorConfig) -> None:
        self.key = (phi.raw, phi.width, cfg)
        self.setup = _run_setup(phi.raw, phi.width, cfg)
        # per stage and window bits, packed as ``i << window | window_bits``, the
        # outcome-one probability; per decided integer the result stored for it
        self.probs: dict[int, float] = {}
        self.leaves: dict[int, EstimationResult] = {}


def _run_setup(raw: int, width: int, cfg: EstimatorConfig) -> tuple[Any, ...]:
    """The constants of a run on ``(raw, width, cfg)``; raises if the bit budget is exceeded.

    In order: stage count, span, mask, residual shift, window mask, the
    ORACLE correction word (None under ESTIMATED feedback), reps, half
    of reps, and the run's test count.
    """
    total_stages = cfg.n + cfg.guard
    window = cfg.window
    check_bit_budget(total_stages + window, width)
    span = 1 << width
    reps = cfg.reps
    return (
        total_stages,
        span,
        span - 1,
        width - 1 - window,
        (1 << window) - 1,
        # ORACLE's correction bits: raw aligned with the decided integer
        raw >> (width - total_stages - window) if cfg.feedback is Feedback.ORACLE else None,
        reps,
        reps >> 1,
        reps * total_stages,
    )


def semiclassical_estimate(
    phi: Phase, cfg: EstimatorConfig, rng: Generator | RunDraws, table: StageTable | None = None
) -> EstimationResult:
    """Run the measurement-feedback engine against the eigenphase ``phi``.

    Stage i (i = n+guard down to 1) works on 2**(i-1) * phi: corrections
    from the decided bits at positions i+1 .. i+window (ORACLE feedback
    substitutes the true bits of phi) are subtracted, the post-Hadamard
    one-probability of the residual drives ``reps`` Bernoulli trials,
    and the majority becomes bit x_i.  Guard bits are dropped from the
    reported string.

    Stages run on the raw integer of phi.  The decided bits are one small
    integer, x_i at bit ``n + guard + window - i``, so stage i reads its
    correction bits x_{i+1} .. x_{i+window} as one window (x_{i+1} most
    significant) with one shift and mask, ``>> (n + guard - i)``, of the
    decided integer (ESTIMATED) or of ``raw`` shifted once per run into
    the same alignment (ORACLE).  The majority is ``ones > reps >> 1``,
    and the residual is ``(2**(i-1) * raw - bits * 2**(width-1-window))
    mod 2**width``, computed only when the table lacks the stage state.
    That is the same integer and the same probability float as
    :func:`~qpesim.phase.double_k`, :func:`~qpesim.phase.corrected_residual`
    and :func:`~qpesim.phase.post_h_prob_one`, which stay the reference
    the replay tests check this engine against.  The reported integer is
    the decided integer's top n bits.

    A ``table`` holds the run's constants, computed when it was built
    (an over-budget config is refused there, with the message a run
    without a table raises), the stage probabilities, and per decided
    integer the first result stored for it.  A run refuses a table of
    another phase or config before it draws.  A run on a table that
    ends on a stored decided integer returns the stored result when its
    vote counts are the stored ones, and otherwise its own result on
    the stored digit string and estimate.  ``stage_log`` and the table
    are described under "Stage log" and "Stage table" in the module
    docstring.

    A generator ``rng`` is wrapped in one
    :class:`~qpesim.sampling.RunDraws` of ``n + guard`` rows of ``reps``
    uniforms; a ``RunDraws`` is read in place, and the run raises before
    drawing unless its rows hold ``reps`` uniforms and ``n + guard`` are
    left.  Each stage calls :func:`~qpesim.sampling.run_trials` once, in
    order, on the source.  The run counts the votes per-stage draws on
    the generator would count, and leaves it where they would have left
    it once the source's rows are all read.
    """
    width = phi.width
    raw = phi.raw
    if table is None:
        probs, leaves = {}, {}
        setup = _run_setup(raw, width, cfg)
    elif table.key != (raw, width, cfg):
        raise ValueError("stage table belongs to another phase or configuration")
    else:
        probs, leaves, setup = table.probs, table.leaves, table.setup
    total_stages, span, mask, shift, window_mask, oracle, reps, half, tests = setup
    window = cfg.window
    if rng.__class__ is RunDraws:
        rng.require(total_stages, reps)
    else:
        rng = RunDraws(rng, total_stages, reps)
    decided = 0  # x_i at bit total_stages + window - i
    ones: list[int] = []
    for i in range(total_stages, 0, -1):
        window_bits = ((decided if oracle is None else oracle) >> (total_stages - i)) & window_mask
        state = (i << window) | window_bits
        p = probs.get(state)
        if p is None:
            residual = ((raw << (i - 1)) - (window_bits << shift)) & mask
            p = math.sin(
                math.pi * (math.ldexp(residual, -width) if width <= MAX_LDEXP_WIDTH else residual / span)
            ) ** 2
            if table is not None and len(probs) + len(leaves) < table.ENTRIES:
                probs[state] = p
        h = run_trials(p, reps, rng)
        ones.append(h)
        if h > half:
            decided |= 1 << (total_stages + window - i)
    votes = tuple(ones)
    stored = leaves.get(decided)
    if stored is None:
        value = decided >> (window + cfg.guard)
        bits, estimate = bin(value | 1 << cfg.n)[3:], Phase(value << (width - cfg.n), width)
    elif stored.stage_log._ones == votes:
        return stored
    else:
        bits, estimate = stored.bits, stored.estimate
    result = EstimationResult(
        bits,
        estimate,
        StageLog(raw, width, setup, votes, decided if oracle is None else oracle),
        tests,
    )
    if stored is None and table is not None and len(probs) + len(leaves) < table.ENTRIES:
        leaves[decided] = result
    return result


def full_qft_config(
    n: int, reps: int = 1, guard: int = 0, feedback: Feedback = Feedback.ESTIMATED
) -> EstimatorConfig:
    """Textbook QPE: every decided bit feeds corrections (window n-1), one shot per bit."""
    n = as_int(n, "n must be an integer")
    return EstimatorConfig(n=n, window=n - 1, reps=reps, guard=guard, feedback=feedback)


def aqft_config(
    n: int, degree: int, reps: int = 1, guard: int = 0, feedback: Feedback = Feedback.ESTIMATED
) -> EstimatorConfig:
    """Approximate-QFT QPE of the given degree: window degree-1, one shot per bit."""
    n = as_int(n, "n must be an integer")
    degree = as_int(degree, "degree must be an integer")
    if degree < 2:
        raise ValueError("degree must be at least 2")
    return EstimatorConfig(n=n, window=degree - 1, reps=reps, guard=guard, feedback=feedback)


def constant_precision_config(
    n: int, degree: int = DEFAULT_DEGREE, eps: float = DEFAULT_EPS, reps: int | None = None,
    guard: int | None = None, feedback: Feedback = Feedback.ESTIMATED,
) -> EstimatorConfig:
    """Constant-precision QPE: fixed-degree corrections, majority-voted repetitions.

    The per-bit failure budget is eps/n, held as the factor n in the
    constant of the majority Chernoff inversion, so a share that is
    subnormal or underflows is still counted exactly; the count is bumped
    to odd.  Two guard stages keep the reported bits' residuals inside the
    degree window; ``reps``/``guard`` exist as explicit overrides.  The
    bit count, the degree and the budget are checked, in that order, and
    the count computed, even when ``reps`` overrides it.
    """
    n = as_int(n, "n must be an integer")
    degree = as_int(degree, "degree must be an integer")
    if n < 1:
        raise ValueError("bit count must be positive")
    trials = round_up_to_odd(chernoff_trials(const_precision_coefficient(degree), n, eps))
    reps = trials if reps is None else reps
    guard = 2 if guard is None else guard
    return EstimatorConfig(n=n, window=degree - 1, reps=reps, guard=guard, feedback=feedback)


def estimate_distance(result: EstimationResult, phi: Phase) -> int:
    """The estimate's circle distance to phi, in units of 2**-phi.width.

    The estimate is ``result.estimate`` when its width is ``phi.width``
    (both engines build it from the reported bits), else the bits at
    ``phi.width``.
    """
    width = phi.width
    est = result.estimate if result.estimate.width == width else phase_from_bits(result.bits, width)
    span = 1 << width
    d = (est.raw - phi.raw) % span
    return min(d, span - d)


def is_success(result: EstimationResult, phi: Phase, n: int) -> bool:
    """Whether the estimate is within 2**-n of phi on the circle (inclusive).

    Inclusive at the boundary: for phi between two n-bit grid points,
    both neighbours count as success.
    """
    n = as_int(n, "n must be an integer")
    if not 1 <= n <= phi.width:
        raise ValueError("n must lie in 1..width")
    return estimate_distance(result, phi) <= 1 << (phi.width - n)


def estimation_error(result: EstimationResult, phi: Phase) -> float:
    """Mod-1 distance between the estimate and the true phase."""
    return estimate_distance(result, phi) / (1 << phi.width)

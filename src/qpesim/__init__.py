"""Deterministic simulation and trial-budget analysis of quantum phase estimation.

The package models the single-ancilla Hadamard-test view of phase
estimation analytically (the target unitary acts on its eigenvector, so
phase kickback is a number, not a matrix) and provides four estimators
on top of exact fixed-point phase arithmetic: a two-basis arctangent
estimator needing no controlled phase shifts, full-QFT and
approximate-QFT semiclassical estimators, and a constant-precision
estimator that majority-votes each bit using a fixed-degree correction
window.  Closed-form Chernoff trial budgets and an exact outcome
distribution oracle round out the toolkit.
"""

from .bounds import (
    BudgetMode,
    TrialTableRow,
    aqft_lower_bound,
    aqft_lower_bound_cheung,
    aqft_lower_bound_window,
    chernoff_tail,
    const_precision_success_per_test,
    const_precision_trials,
    kitaev_accuracy_threshold,
    kitaev_total_budget,
    kitaev_trials_per_bit,
    qft_lower_bound,
    round_up_to_odd,
    trial_ratio,
    trials_table,
)
from .estimators import (
    EstimationResult,
    EstimatorConfig,
    Feedback,
    StageRecord,
    aqft_config,
    aqft_estimate,
    constant_precision_config,
    constant_precision_estimate,
    estimation_error,
    full_qft_estimate,
    is_success,
    semiclassical_estimate,
)
from .kitaev import (
    KitaevConfig,
    StageEstimate,
    arctan_phase,
    estimate_stage,
    kitaev_estimate,
    snap_beta,
    stitch_bits,
    trials_per_basis,
    within_guarantee,
)
from .phase import (
    DEFAULT_WIDTH,
    BitString,
    Phase,
    TestBasis,
    corrected_residual,
    double_k,
    hadamard_probs,
    mod1_distance,
    parse_phase,
    phase_from_bits,
    phase_from_float,
    phase_from_fraction,
    post_h_prob_one,
)
from .refsim import (
    MAX_DENSE_BITS,
    OutcomeDistribution,
    best_outcome_mass,
    empirical_vs_exact,
    qpe_distribution_exact,
)
from .sampling import (
    RngSeed,
    TrialStats,
    bernoulli,
    derive_run_seed,
    frequency_estimate,
    majority,
    make_generator,
    run_trials,
)

__version__ = "0.1.0"

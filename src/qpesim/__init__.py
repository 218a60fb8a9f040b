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

Importing the package loads none of its modules.  Each public name, and
each submodule (``qpesim.kitaev``), is imported on first access
(PEP 562), so a program that uses only the semiclassical engine never
loads the Kitaev engine or the exact oracle.
"""

import importlib

# Each public name, under the module that defines it.
_EXPORTS = {
    "bounds": (
        "BudgetMode",
        "TrialTableRow",
        "aqft_lower_bound",
        "aqft_lower_bound_cheung",
        "aqft_lower_bound_window",
        "chernoff_tail",
        "const_precision_success_per_test",
        "const_precision_trials",
        "kitaev_accuracy_threshold",
        "kitaev_total_budget",
        "kitaev_trials_per_bit",
        "qft_lower_bound",
        "round_up_to_odd",
        "trial_ratio",
        "trials_table",
    ),
    "estimators": (
        "EstimationResult",
        "EstimatorConfig",
        "Feedback",
        "StageRecord",
        "aqft_config",
        "constant_precision_config",
        "estimation_error",
        "full_qft_config",
        "is_success",
        "semiclassical_estimate",
    ),
    "kitaev": (
        "KitaevConfig",
        "StageEstimate",
        "arctan_phase",
        "estimate_stage",
        "kitaev_estimate",
        "snap_beta",
        "stitch_bits",
        "trials_per_basis",
        "within_guarantee",
    ),
    "phase": (
        "DEFAULT_WIDTH",
        "Phase",
        "mod1_distance",
        "parse_phase",
        "phase_from_bits",
        "phase_from_float",
        "phase_from_fraction",
    ),
    "refsim": (
        "MAX_DENSE_BITS",
        "best_outcome_mass",
        "empirical_vs_exact",
        "qpe_distribution_exact",
    ),
    "sampling": (
        "RngSeed",
        "derive_run_seed",
        "make_generator",
        "run_generators",
        "run_trials",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)

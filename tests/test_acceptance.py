"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines; timing limits are asserted around the core computation
of each criterion.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

from qpesim.bounds import trials_table
from qpesim.estimators import (
    aqft_config,
    constant_precision_config,
    is_success,
    semiclassical_estimate,
)
from qpesim.kitaev import KitaevConfig, kitaev_estimate, within_guarantee
from qpesim.phase import (
    Phase,
    corrected_residual,
    double_k,
    mod1_distance,
    parse_phase,
    phase_from_bits,
    post_h_prob_one,
)
from qpesim.refsim import best_outcome_mass, empirical_vs_exact, qpe_distribution_exact
from qpesim.sampling import RngSeed, derive_run_seed, make_generator, run_trials
from reference import majority

COS_PI_8_SQ = math.cos(math.pi / 8) ** 2
EIGHT_OVER_PI_SQ = 8.0 / math.pi**2


def _report(name: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in checks)
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}")
    failed = [description for description, flag in checks if not flag]
    assert not failed, f"{name} failed: {failed}"


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qpesim", *args], capture_output=True, text=True, timeout=300
    )


def _random_phase(rng) -> Phase:
    return Phase(int(rng.integers(0, 1 << 64, dtype=np.uint64)))


def test_c01_trial_table_reproduction():
    trials_table()  # warm-up outside the timed region
    start = time.perf_counter()
    rows = trials_table()
    elapsed = time.perf_counter() - start
    budgets = [(row.kitaev_trials, row.const_precision_trials) for row in rows]
    expected = [(98, 3), (120, 5), (211, 13), (344, 24), (515, 39)]
    proc = _run_cli("table", "--format", "csv")
    cli_budgets = [
        (int(line.split(",")[2]), int(line.split(",")[3]))
        for line in proc.stdout.splitlines()[1:]
    ]
    _report(
        "C01 trial-table reproduction",
        [
            ("library budgets exact", budgets == expected),
            ("cmd_table budgets exact", cli_budgets == expected),
            ("computed in under 1 ms", elapsed < 1e-3),
        ],
    )


def test_c02_two_point_mass_floor():
    start = time.perf_counter()
    lowest = 1.0
    for j in range(4096):
        phi = Phase(j << 52)
        lowest = min(lowest, best_outcome_mass(qpe_distribution_exact(phi, 6), phi))
    elapsed = time.perf_counter() - start
    _report(
        "C02 exact two-point mass floor",
        [
            ("grid minimum at or above 8/pi^2 - 1e-9", lowest >= EIGHT_OVER_PI_SQ - 1e-9),
            ("under 5 s", elapsed < 5.0),
        ],
    )


def test_c03_sampler_matches_exact_law():
    rng = make_generator(RngSeed(0))
    start = time.perf_counter()
    tv = empirical_vs_exact(parse_phase("0.703125"), 5, 50_000, rng)
    elapsed = time.perf_counter() - start
    _report(
        "C03 sampler/oracle equivalence",
        [("TV distance below 0.02", tv < 0.02), ("under 10 s", elapsed < 10.0)],
    )


def test_c04_per_test_success_floor():
    floor = 1.0
    for raw in range(1 << 12):
        phi = Phase(raw, 12)
        for stage in range(1, 13):
            prior = [phi.bit(stage + 1), phi.bit(stage + 2)]
            residual = corrected_residual(double_k(phi, stage - 1), prior)
            p_one = post_h_prob_one(residual)
            success = p_one if phi.bit(stage) else 1.0 - p_one
            floor = min(floor, success)
    _report(
        "C04 constant-precision per-test floor",
        [("every stage at or above cos^2(pi/8) - 1e-12", floor >= COS_PI_8_SQ - 1e-12)],
    )


def test_c05_majority_budget_worst_case():
    start = time.perf_counter()
    residual = Phase((1 << 61) - (1 << 44))  # 1/8 - 2^-20
    p_wrong = post_h_prob_one(residual)
    exact_tail = sum(
        math.comb(13, k) * p_wrong**k * (1 - p_wrong) ** (13 - k) for k in range(7, 14)
    )
    rng = make_generator(RngSeed(13))
    replications = 20_000
    wrong = sum(majority(run_trials(p_wrong, 13, rng), 13) for _ in range(replications))
    empirical = wrong / replications
    sigma = math.sqrt(exact_tail * (1 - exact_tail) / replications)
    elapsed = time.perf_counter() - start
    _report(
        "C05 per-bit majority budget",
        [
            ("exact binomial tail at most 0.0455", exact_tail <= 0.0455),
            ("empirical rate within 3 sigma of tail", abs(empirical - exact_tail) <= 3 * sigma),
            ("under 5 s", elapsed < 5.0),
        ],
    )


def test_c06_constant_precision_end_to_end():
    master = RngSeed(0)
    start = time.perf_counter()
    failures = 0
    runs = 500
    for index in range(runs):
        rng = make_generator(derive_run_seed(master, index))
        phi = _random_phase(rng)
        result = semiclassical_estimate(phi, constant_precision_config(8, 3, 0.05), rng)
        failures += not is_success(result, phi, 8)
    elapsed = time.perf_counter() - start
    _report(
        "C06 constant-precision end-to-end",
        [
            ("failure rate at most 0.05", failures / runs <= 0.05),
            ("under 30 s", elapsed < 30.0),
        ],
    )


def test_c07_kitaev_end_to_end():
    master = RngSeed(1)
    cfg = KitaevConfig(n=8, eps=0.05)
    start = time.perf_counter()
    failures = 0
    runs = 500
    for index in range(runs):
        rng = make_generator(derive_run_seed(master, index))
        phi = _random_phase(rng)
        result = kitaev_estimate(phi, cfg, rng)
        failures += not within_guarantee(result, phi, 8)
    elapsed = time.perf_counter() - start
    _report(
        "C07 two-basis estimator end-to-end",
        [
            ("failure rate at most 0.05", failures / runs <= 0.05),
            ("under 60 s", elapsed < 60.0),
        ],
    )


def test_c08_noiseless_stitching_exactness():
    rng = make_generator(RngSeed(0))
    cfg = KitaevConfig(n=10, eps=0.5)
    start = time.perf_counter()
    worst = 0.0
    for raw in range(1 << 12):
        phi = Phase(raw << 52)
        result = kitaev_estimate(phi, cfg, rng, exact=True)
        worst = max(worst, mod1_distance(phase_from_bits(result.bits), phi))
    elapsed = time.perf_counter() - start
    _report(
        "C08 noiseless stitching exactness",
        [
            ("every 12-bit phase recovered below 2^-12", worst < 2.0**-12),
            ("under 10 s", elapsed < 10.0),
        ],
    )


def test_c09_aqft_empirical_floor():
    master = RngSeed(2)
    runs = 5000
    successes = 0
    for index in range(runs):
        rng = make_generator(derive_run_seed(master, index))
        phi = _random_phase(rng)
        successes += is_success(semiclassical_estimate(phi, aqft_config(8, 5), rng), phi, 8)
    bound = 4.0 / math.pi**2 - 1.0 / 32.0
    sigma = math.sqrt(bound * (1 - bound) / runs)
    _report(
        "C09 degree-5 window empirical floor",
        [("success rate at least bound - 3 sigma", successes / runs >= bound - 3 * sigma)],
    )


def test_c10_trial_ratio_convergence():
    proc = _run_cli("compare")
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    tail_rows = [
        (float(eps), int(kit), int(con), float(ratio))
        for eps, kit, con, ratio in rows
        if float(eps) <= 1e-4 + 1e-18
    ]
    ratios = [ratio for _, _, _, ratio in tail_rows]
    # integer ceilings add jitter of about one part in const_trials
    trend = all(later <= earlier + 0.1 for earlier, later in zip(ratios, ratios[1:]))
    first, last = tail_rows[0], tail_rows[-1]
    slope = (last[1] - first[1]) / (last[2] - first[2])
    _report(
        "C10 trial-ratio convergence",
        [
            ("tail rows present", len(tail_rows) >= 5),
            ("ratio decays toward the asymptote", trend and ratios[0] > ratios[-1]),
            ("ratio stays above 11.75", all(r >= 11.75 for r in ratios)),
            ("final ratio within 5% of 11.75", abs(ratios[-1] - 11.75) / 11.75 <= 0.05),
            ("incremental slope within 5% of 11.75", abs(slope - 11.75) / 11.75 <= 0.05),
        ],
    )


def test_c11_byte_identical_replays():
    commands = [
        ("estimate", "--algo", "kitaev", "--phase", "random", "--bits", "6",
         "--eps", "0.1", "--seed", "11", "--format", "json"),
        ("estimate", "--algo", "const", "--phase", "random", "--bits", "6",
         "--seed", "12", "--format", "csv"),
        ("estimate", "--algo", "aqft", "--degree", "4", "--phase", "0.37",
         "--bits", "6", "--seed", "13"),
        ("montecarlo", "--algo", "qft", "--bits", "5", "--runs", "30",
         "--seed", "14", "--format", "csv"),
        ("table", "--format", "csv"),
        ("compare", "--points", "7"),
        ("validate", "--bits", "3", "--samples", "1500", "--seed", "15"),
    ]
    checks = []
    for command in commands:
        first = _run_cli(*command)
        second = _run_cli(*command)
        identical = (
            first.stdout == second.stdout
            and first.stderr == second.stderr
            and first.returncode == second.returncode
        )
        checks.append((f"{command[0]} replay byte-identical", identical))
    _report("C11 deterministic replay", checks)

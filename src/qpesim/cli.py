"""Command-line harness for single runs, Monte Carlo campaigns, and tables.

Every command is deterministic given ``--seed``: independent Monte
Carlo runs draw their randomness (including random phases) from
per-run derived streams, so output is byte-identical across
invocations and independent of any parallel scheduling.  Exit codes:
0 success, 1 usage error (or a reader that closed the output early),
2 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Any

import numpy as np

from .bounds import (
    BudgetMode,
    const_precision_trials,
    kitaev_trials_per_bit,
    per_bit_budget,
    qft_lower_bound,
    round_up_to_odd,
    trials_table,
)
from .estimators import (
    EstimationResult,
    EstimatorConfig,
    Feedback,
    StageRecord,
    estimation_error,
    is_success,
    semiclassical_estimate,
)
from .kitaev import KitaevConfig, kitaev_estimate, within_guarantee
from .phase import DEFAULT_WIDTH, Phase, parse_phase
from .refsim import best_outcome_mass, empirical_vs_exact, qpe_distribution_exact
from .sampling import RngSeed, derive_run_seed, make_generator

_FORMATS = ("table", "json", "csv")
_WILSON_Z = 1.959963984540054  # two-sided 95%


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with code 1 on usage errors."""

    def error(self, message: str) -> Any:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--algo", required=True, choices=("kitaev", "qft", "aqft", "const"),
        help="estimator to run",
    )
    parser.add_argument(
        "--phase", default="random",
        help="phase literal (binary 0.101b, decimal in [0,1), raw@width) or 'random'",
    )
    parser.add_argument("--bits", type=int, required=True, help="bits to estimate")
    parser.add_argument(
        "--eps", type=float, default=None,
        help="overall failure budget (kitaev/const only; default 0.05)",
    )
    parser.add_argument(
        "--degree", type=int, default=None,
        help="phase-shift degree (aqft: required; const: default 3)",
    )
    parser.add_argument(
        "--reps", type=int, default=None,
        help="per-bit repetitions override (rounded up to odd; kitaev: per-basis trials)",
    )
    parser.add_argument(
        "--guard", type=int, default=None,
        help="guard-stage override (qft/aqft/const; const defaults to 2)",
    )
    parser.add_argument(
        "--feedback", choices=("estimated", "oracle"), default=None,
        help="correction-bit source for qft/aqft/const (default estimated)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--format", choices=_FORMATS, default="table")
    parser.add_argument(
        "--exact-constants", action="store_true",
        help="use the exact budget coefficient instead of the rounded 47 (kitaev)",
    )


def _check_run_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.bits < 1:
        parser.error("--bits must be positive")
    if args.algo in ("kitaev", "qft"):
        if args.degree is not None:
            parser.error("--degree applies only to aqft/const")
    if args.algo in ("qft", "aqft"):
        if args.eps is not None:
            parser.error("--eps applies only to kitaev/const")
        if args.exact_constants:
            parser.error("--exact-constants applies only to kitaev")
    if args.algo == "kitaev":
        if args.feedback is not None:
            parser.error("--feedback applies only to qft/aqft/const")
        if args.guard is not None:
            parser.error("--guard applies only to qft/aqft/const")
    if args.algo == "const" and args.exact_constants:
        parser.error("--exact-constants applies only to kitaev")
    if args.algo == "aqft" and args.degree is None:
        parser.error("--degree is required for aqft")
    if args.eps is None and args.algo in ("kitaev", "const"):
        args.eps = 0.05
    if args.degree is None and args.algo == "const":
        args.degree = 3
    if args.feedback is None:
        args.feedback = "estimated"
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be positive")
    if args.guard is not None and args.guard < 0:
        parser.error("--guard must be nonnegative")


def _engine_config(args: argparse.Namespace) -> EstimatorConfig:
    n = args.bits
    if args.algo == "qft":
        window, default_reps, default_guard = n - 1, 1, 0
    elif args.algo == "aqft":
        if args.degree < 2:
            raise ValueError("degree must be at least 2")
        window, default_reps, default_guard = args.degree - 1, 1, 0
    else:
        if args.degree < 3:
            raise ValueError("degree too small for majority margin")
        window = args.degree - 1
        default_reps = round_up_to_odd(
            const_precision_trials(per_bit_budget(args.eps, n), args.degree)
        )
        default_guard = 2
    reps = default_reps if args.reps is None else round_up_to_odd(args.reps)
    guard = default_guard if args.guard is None else args.guard
    return EstimatorConfig(
        n=n, window=window, reps=reps, guard=guard, feedback=Feedback(args.feedback)
    )


def _random_phase(rng: np.random.Generator) -> Phase:
    """A uniform 64-bit phase: one raw generator word.

    ``rng.integers(0, 2**64, dtype=np.uint64)`` returns that same word
    and leaves the generator in the same state; the raw draw skips its
    bounds handling.
    """
    return Phase(rng.bit_generator.random_raw(), DEFAULT_WIDTH)


def _run_setup(args: argparse.Namespace) -> tuple[Phase | None, KitaevConfig | EstimatorConfig]:
    """The fixed phase (None for 'random') and the estimator config, built once per command."""
    phi = None if args.phase == "random" else parse_phase(args.phase)
    if args.algo == "kitaev":
        cfg: KitaevConfig | EstimatorConfig = KitaevConfig(
            n=args.bits, eps=args.eps,
            trials_per_test=None if args.reps is None else round_up_to_odd(args.reps),
            exact_constants=args.exact_constants,
        )
    else:
        cfg = _engine_config(args)
    return phi, cfg


def _single_run(
    phi: Phase | None, cfg: KitaevConfig | EstimatorConfig, seed: RngSeed
) -> tuple[Phase, EstimationResult, bool]:
    """One estimator invocation on its own stream; returns (phase, result, success)."""
    rng = make_generator(seed)
    if phi is None:
        phi = _random_phase(rng)
    if isinstance(cfg, KitaevConfig):
        result = kitaev_estimate(phi, cfg, rng)
        ok = within_guarantee(result, phi, cfg.n)
    else:
        result = semiclassical_estimate(phi, cfg, rng)
        ok = is_success(result, phi, cfg.n)
    return phi, result, ok


def _stage_entries(result: EstimationResult) -> list[dict[str, Any]]:
    entries: list[dict[str, Any]] = []
    for record in result.stage_log:
        if isinstance(record, StageRecord):
            entries.append(
                {
                    "stage": record.stage,
                    "residual": record.residual.value,
                    "trials": record.trials,
                    "ones": record.ones,
                    "bit": record.bit,
                }
            )
        else:
            entries.append(
                {
                    "stage": record.k,
                    "sin_estimate": record.sin_estimate,
                    "cos_estimate": record.cos_estimate,
                    "phi_tilde": record.phi_tilde.value,
                    "beta": record.beta,
                }
            )
    return entries


def cmd_estimate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_run_config(parser, args)
    phi, result, ok = _single_run(*_run_setup(args), RngSeed(args.seed))
    error = estimation_error(result, phi)
    fields = [
        ("algo", args.algo),
        ("phase", _fmt(phi.value)),
        ("bits", str(result.bits)),
        ("estimate", _fmt(result.estimate.value)),
        ("error", _fmt(error)),
        ("success", int(ok)),
        ("total_tests", result.total_tests),
    ]
    if args.format == "table":
        for key, value in fields:
            print(f"{key:<12}{value}")
        for note in result.warnings:
            print(f"{'warning':<12}{note}")
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow([key for key, _ in fields])
        writer.writerow([value for _, value in fields])
    else:
        payload = dict(fields)
        payload["warnings"] = list(result.warnings)
        payload["stages"] = _stage_entries(result)
        print(json.dumps(payload, indent=2))
    return 0


def _wilson_interval(successes: int, runs: int) -> tuple[float, float]:
    if runs < 1:
        return 0.0, 1.0
    z2 = _WILSON_Z * _WILSON_Z
    phat = successes / runs
    denom = 1.0 + z2 / runs
    center = (phat + z2 / (2.0 * runs)) / denom
    half = _WILSON_Z * math.sqrt(phat * (1.0 - phat) / runs + z2 / (4.0 * runs * runs)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def cmd_montecarlo(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_run_config(parser, args)
    if args.runs < 1:
        parser.error("--runs must be positive")
    fixed_phi, cfg = _run_setup(args)
    master = RngSeed(args.seed)
    rows = []
    successes = 0
    for index in range(args.runs):
        phi, result, ok = _single_run(fixed_phi, cfg, derive_run_seed(master, index))
        successes += int(ok)
        rows.append((index, _fmt(phi.value), int(ok), result.total_tests))
    rate = successes / args.runs
    low, high = _wilson_interval(successes, args.runs)
    if args.format == "json":
        payload = {
            "rows": [
                {"run": r, "phi": p, "success": s, "tests": t} for r, p, s, t in rows
            ],
            "summary": {
                "runs": args.runs,
                "successes": successes,
                "success_rate": rate,
                "wilson95": [low, high],
            },
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "table":
        print(f"{'run':>6} {'phi':>18} {'success':>8} {'tests':>8}")
        for r, p, s, t in rows:
            print(f"{r:>6} {p:>18} {s:>8} {t:>8}")
        print(
            f"summary: runs={args.runs} successes={successes} "
            f"rate={_fmt(rate)} wilson95=[{_fmt(low)},{_fmt(high)}]"
        )
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["run", "phi", "success", "tests"])
        for row in rows:
            writer.writerow(row)
        print(
            f"# summary: runs={args.runs} successes={successes} "
            f"rate={_fmt(rate)} wilson95=[{_fmt(low)},{_fmt(high)}]"
        )
    return 0


def cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    probs = None
    if args.probs:
        try:
            probs = tuple(float(p) for p in args.probs.split(","))
        except ValueError:
            parser.error("--probs must be a comma-separated list of floats")
    mode = BudgetMode.EXACT if args.exact_constants else BudgetMode.ROUNDED47
    rows = trials_table(probs, mode)
    if args.format == "json":
        payload = [
            {
                "success_prob": row.success_prob,
                "eps": row.eps,
                "kitaev_trials": row.kitaev_trials,
                "const_precision_trials": row.const_precision_trials,
            }
            for row in rows
        ]
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["success_prob", "eps", "kitaev_trials", "const_precision_trials"])
        for row in rows:
            writer.writerow(
                [_fmt(row.success_prob), _fmt(row.eps), row.kitaev_trials, row.const_precision_trials]
            )
    else:
        print(f"{'success_prob':>14} {'eps':>12} {'kitaev':>8} {'const_precision':>16}")
        for row in rows:
            print(
                f"{_fmt(row.success_prob):>14} {_fmt(row.eps):>12} "
                f"{row.kitaev_trials:>8} {row.const_precision_trials:>16}"
            )
    return 0


def cmd_compare(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.eps_list:
        try:
            grid = [float(e) for e in args.eps_list.split(",")]
        except ValueError:
            parser.error("--eps-list must be a comma-separated list of floats")
    else:
        if args.points < 2:
            parser.error("--points must be at least 2")
        if not 0 < args.eps_min < args.eps_max < 1:
            parser.error("need 0 < --eps-min < --eps-max < 1")
        exponents = np.linspace(math.log10(args.eps_max), math.log10(args.eps_min), args.points)
        grid = [float(10.0**e) for e in exponents]
    mode = BudgetMode.EXACT if args.exact_constants else BudgetMode.ROUNDED47
    rows = []
    for eps in grid:
        if not 0.0 < eps < 1.0:
            parser.error("eps values must lie in (0, 1)")
        kit = kitaev_trials_per_bit(eps, mode)
        con = const_precision_trials(eps, 3)
        rows.append((eps, kit, con, kit / con))
    if args.format == "json":
        payload = [
            {"eps": e, "kitaev_trials": k, "const_precision_trials": c, "ratio": r}
            for e, k, c, r in rows
        ]
        print(json.dumps(payload, indent=2))
    elif args.format == "table":
        print(f"{'eps':>12} {'kitaev':>8} {'const_precision':>16} {'ratio':>10}")
        for e, k, c, r in rows:
            print(f"{_fmt(e):>12} {k:>8} {c:>16} {_fmt(r):>10}")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["eps", "kitaev_trials", "const_precision_trials", "ratio"])
        for e, k, c, r in rows:
            writer.writerow([_fmt(e), k, c, _fmt(r)])
    return 0


def cmd_validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if not 1 <= args.bits <= 10:
        parser.error("--bits must lie in 1..10 for validation")
    if args.samples < 1:
        parser.error("--samples must be positive")
    rng = make_generator(RngSeed(args.seed))
    phi = _random_phase(rng) if args.phase == "random" else parse_phase(args.phase)

    checks: list[tuple[str, bool, str]] = []

    grid = [Phase(j << (DEFAULT_WIDTH - 10), DEFAULT_WIDTH) for j in range(1024)]
    worst = 0.0
    for point in grid:
        closed = qpe_distribution_exact(point, args.bits, "closed").probs
        direct = qpe_distribution_exact(point, args.bits, "direct").probs
        worst = max(worst, float(np.abs(closed - direct).max()))
    checks.append(
        ("closed-vs-direct agreement", worst <= 1e-10, f"max |diff| {worst:.3e} (tol 1e-10)")
    )

    tv = empirical_vs_exact(phi, args.bits, args.samples, rng)
    # multinomial concentration: expected TV ~ 0.4*sqrt(2^n/samples)
    tv_limit = 0.4 * math.sqrt((1 << args.bits) / args.samples) + 0.01
    checks.append(
        ("sampling TV distance", tv < tv_limit, f"TV {_fmt(tv)} (limit {_fmt(tv_limit)})")
    )

    floor = qft_lower_bound() - 1e-9
    lowest = 1.0
    for j in range(4096):
        point = Phase(j << (DEFAULT_WIDTH - 12), DEFAULT_WIDTH)
        mass = best_outcome_mass(qpe_distribution_exact(point, args.bits), point)
        lowest = min(lowest, mass)
    checks.append(
        (
            "two-point mass grid minimum",
            lowest >= floor,
            f"min {_fmt(lowest)} (floor {_fmt(floor)})",
        )
    )

    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"{name:<28} {'PASS' if ok else 'FAIL':<6} {detail}")
    print(f"{'overall':<28} {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="qpesim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    est = sub.add_parser("estimate", help="run one estimator invocation")
    _add_run_arguments(est)
    est.set_defaults(handler=cmd_estimate)

    mc = sub.add_parser("montecarlo", help="independent repeated runs with derived seeds")
    _add_run_arguments(mc)
    mc.add_argument("--runs", type=int, default=100, help="number of independent runs")
    mc.set_defaults(handler=cmd_montecarlo)

    tab = sub.add_parser("table", help="per-bit trial budgets at fixed success probabilities")
    tab.add_argument("--probs", default=None, help="comma-separated success probabilities")
    tab.add_argument("--exact-constants", action="store_true")
    tab.add_argument("--format", choices=_FORMATS, default="table")
    tab.set_defaults(handler=cmd_table)

    cmp_ = sub.add_parser("compare", help="trial budgets of both estimators over an eps grid")
    cmp_.add_argument("--eps-max", type=float, default=1e-1)
    cmp_.add_argument("--eps-min", type=float, default=1e-14)
    cmp_.add_argument("--points", type=int, default=27)
    cmp_.add_argument("--eps-list", default=None, help="explicit comma-separated eps grid")
    cmp_.add_argument("--exact-constants", action="store_true")
    cmp_.add_argument("--format", choices=_FORMATS, default="csv")
    cmp_.set_defaults(handler=cmd_compare)

    val = sub.add_parser("validate", help="oracle self-checks of the exact reference")
    val.add_argument("--bits", type=int, default=5)
    val.add_argument("--samples", type=int, default=50000)
    val.add_argument("--phase", default="0.703125")
    val.add_argument("--seed", type=int, default=0)
    val.set_defaults(handler=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(parser, args)
        sys.stdout.flush()  # a reader that has gone surfaces here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``... | head``).  Point stdout at
        # the null device so the flush at interpreter exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ValueError as exc:
        print(f"qpesim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

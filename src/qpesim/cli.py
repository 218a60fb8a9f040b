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
from dataclasses import astuple
from typing import Any

import numpy as np

from .bounds import (
    BudgetMode,
    const_precision_trials,
    kitaev_trials_per_bit,
    qft_lower_bound,
    round_up_to_odd,
    trials_table,
)
from .estimators import (
    EstimationResult,
    EstimatorConfig,
    Feedback,
    aqft_config,
    constant_precision_config,
    estimation_error,
    full_qft_config,
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
        "--eps", type=float, help="overall failure budget (kitaev/const only; default 0.05)"
    )
    parser.add_argument(
        "--degree", type=int, help="phase-shift degree (aqft: required; const: default 3)"
    )
    parser.add_argument(
        "--reps", type=int,
        help="per-bit repetitions override (rounded up to odd; kitaev: per-basis trials)",
    )
    parser.add_argument(
        "--guard", type=int, help="guard-stage override (qft/aqft/const; const defaults to 2)"
    )
    parser.add_argument(
        "--feedback", choices=("estimated", "oracle"),
        help="correction-bit source for qft/aqft/const (default estimated)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--format", choices=_FORMATS, default="table")
    parser.add_argument(
        "--exact-constants", action="store_true", default=None,
        help="use the exact budget coefficient instead of the rounded 47 (kitaev)",
    )


# The optional run flags each algo accepts (omitted ones are None); others are usage errors.
_ALGO_FLAGS = {
    "kitaev": ("eps", "reps", "exact_constants"),
    "qft": ("reps", "guard", "feedback"),
    "aqft": ("degree", "reps", "guard", "feedback"),
    "const": ("degree", "eps", "reps", "guard", "feedback"),
}


def _budget_mode(args: argparse.Namespace) -> BudgetMode:
    return BudgetMode.EXACT if args.exact_constants else BudgetMode.ROUNDED47


def _random_phase(rng: np.random.Generator) -> Phase:
    """A uniform 64-bit phase: one raw generator word.

    ``rng.integers(0, 2**64, dtype=np.uint64)`` returns that same word
    and leaves the generator in the same state; the raw draw skips its
    bounds handling.
    """
    return Phase(rng.bit_generator.random_raw(), DEFAULT_WIDTH)


def _run_setup(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> tuple[Phase | None, KitaevConfig | EstimatorConfig]:
    """Check the run flags, then build the fixed phase (None for 'random') and the config."""
    if args.bits < 1:
        parser.error("--bits must be positive")
    for flag in ("degree", "eps", "exact_constants", "feedback", "guard"):
        if getattr(args, flag) is not None and flag not in _ALGO_FLAGS[args.algo]:
            takers = "/".join(algo for algo, flags in _ALGO_FLAGS.items() if flag in flags)
            parser.error(f"--{flag.replace('_', '-')} applies only to {takers}")
    if args.algo == "aqft" and args.degree is None:
        parser.error("--degree is required for aqft")
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be positive")
    if args.guard is not None and args.guard < 0:
        parser.error("--guard must be nonnegative")
    if getattr(args, "runs", 1) < 1:
        parser.error("--runs must be positive")
    phi = None if args.phase == "random" else parse_phase(args.phase)
    eps = 0.05 if args.eps is None else args.eps
    reps = None if args.reps is None else round_up_to_odd(args.reps)
    if args.algo == "kitaev":
        return phi, KitaevConfig(args.bits, eps, trials_per_test=reps, mode=_budget_mode(args))
    overrides = {k: v for k, v in (("reps", reps), ("guard", args.guard)) if v is not None}
    overrides["feedback"] = Feedback(args.feedback or "estimated")
    if args.algo == "qft":
        return phi, full_qft_config(args.bits, **overrides)
    if args.algo == "aqft":
        return phi, aqft_config(args.bits, args.degree, **overrides)
    degree = 3 if args.degree is None else args.degree
    return phi, constant_precision_config(args.bits, degree, eps, **overrides)


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


_RUNS = [("run", "run", 6), ("phi", "phi", 18), ("success", "success", 8), ("tests", "tests", 8)]
_BUDGETS = [("kitaev_trials", "kitaev", 8), ("const_precision_trials", "const_precision", 16)]


def _emit(
    fmt: str, columns: list[tuple[str, str, int]], rows: list, summary: tuple | None = None
) -> None:
    """Print rows as an aligned table, csv, or json objects.

    Each column is (json/csv name, table header, table width).  Floats go
    through ``_fmt`` in the table and csv.  An optional summary comes as
    (line, object): the line ends the table, and the csv behind a ``# ``;
    json then prints ``{"rows": [...], "summary": object}``.
    """
    names = [name for name, _, _ in columns]
    if fmt == "json":
        objects = [dict(zip(names, row)) for row in rows]
        payload = objects if summary is None else {"rows": objects, "summary": summary[1]}
        print(json.dumps(payload, indent=2))
        return
    cells = ([_fmt(v) if isinstance(v, float) else v for v in row] for row in rows)
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(cells)
    else:
        line = " ".join(f"{{:>{width}}}" for _, _, width in columns).format
        print(line(*(header for _, header, _ in columns)))
        for row in cells:
            print(line(*row))
    if summary is not None:
        print(f"# {summary[0]}" if fmt == "csv" else summary[0])


def cmd_estimate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    phi, result, ok = _single_run(*_run_setup(parser, args), RngSeed(args.seed))
    fields = [
        ("algo", args.algo),
        ("phase", _fmt(phi.value)),
        ("bits", str(result.bits)),
        ("estimate", _fmt(result.estimate.value)),
        ("error", _fmt(estimation_error(result, phi))),
        ("success", int(ok)),
        ("total_tests", result.total_tests),
    ]
    if args.format == "csv":
        _emit("csv", [(key, key, 0) for key, _ in fields], [tuple(value for _, value in fields)])
    elif args.format == "table":
        for key, value in fields + [("warning", note) for note in result.warnings]:
            print(f"{key:<12}{value}")
    else:
        payload = dict(fields, warnings=list(result.warnings))
        payload["stages"] = [record.json_entry() for record in result.stage_log]
        print(json.dumps(payload, indent=2))
    return 0


def _wilson_interval(successes: int, runs: int) -> tuple[float, float]:
    z2 = _WILSON_Z * _WILSON_Z
    phat = successes / runs
    denom = 1.0 + z2 / runs
    center = (phat + z2 / (2.0 * runs)) / denom
    half = _WILSON_Z * math.sqrt(phat * (1.0 - phat) / runs + z2 / (4.0 * runs * runs)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def cmd_montecarlo(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    fixed_phi, cfg = _run_setup(parser, args)
    master = RngSeed(args.seed)
    rows = []
    for index in range(args.runs):
        phi, result, ok = _single_run(fixed_phi, cfg, derive_run_seed(master, index))
        rows.append((index, _fmt(phi.value), int(ok), result.total_tests))
    successes = sum(row[2] for row in rows)
    rate = successes / args.runs
    low, high = _wilson_interval(successes, args.runs)
    line = f"summary: runs={args.runs} successes={successes} rate={_fmt(rate)} "
    line += f"wilson95=[{_fmt(low)},{_fmt(high)}]"
    totals = dict(runs=args.runs, successes=successes, success_rate=rate, wilson95=[low, high])
    _emit(args.format, _RUNS, rows, (line, totals))
    return 0


def _float_list(parser: argparse.ArgumentParser, flag: str, text: str) -> list[float]:
    try:
        return [float(item) for item in text.split(",")]
    except ValueError:
        parser.error(f"{flag} must be a comma-separated list of floats")


def cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    probs = None if args.probs is None else _float_list(parser, "--probs", args.probs)
    rows = [astuple(row) for row in trials_table(probs, _budget_mode(args))]
    _emit(args.format, [("success_prob", "success_prob", 14), ("eps", "eps", 12), *_BUDGETS], rows)
    return 0


def cmd_compare(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.eps_list is not None:
        grid = _float_list(parser, "--eps-list", args.eps_list)
    else:
        if args.points < 2:
            parser.error("--points must be at least 2")
        if not 0 < args.eps_min < args.eps_max < 1:
            parser.error("need 0 < --eps-min < --eps-max < 1")
        exponents = np.linspace(math.log10(args.eps_max), math.log10(args.eps_min), args.points)
        grid = [float(10.0**e) for e in exponents]
    mode = _budget_mode(args)
    rows = []
    for eps in grid:
        if not 0.0 < eps < 1.0:
            parser.error("eps values must lie in (0, 1)")
        kit = kitaev_trials_per_bit(eps, mode)
        con = const_precision_trials(eps, 3)
        rows.append((eps, kit, con, kit / con))
    _emit(args.format, [("eps", "eps", 12), *_BUDGETS, ("ratio", "ratio", 10)], rows)
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

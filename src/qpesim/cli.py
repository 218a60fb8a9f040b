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
import functools
import inspect
import itertools
import json
import math
import os
import sys
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .bounds import (
    DEFAULT_DEGREE,
    DEFAULT_EPS,
    BudgetMode,
    const_precision_trials,
    kitaev_trials_per_bit,
    round_up_to_odd,
    trials_table,
)
from .estimators import (
    EstimationResult,
    EstimatorConfig,
    aqft_config,
    constant_precision_config,
    estimation_error,
    full_qft_config,
)
from .kitaev import KitaevConfig
from .phase import DEFAULT_WIDTH, Phase, parse_phase
from .refsim import MAX_SAMPLED_BITS, self_checks
from .sampling import RngSeed, make_generator, run_generators

_FORMATS = ("table", "json", "csv")
_WILSON_Z = 1.959963984540054  # two-sided 95%
# Largest --reps accepted, so a run's trial count stays bounded; odd, so
# an accepted value rounded up to odd stays within it.
_MAX_REPS = 10**7 - 1
# Largest compare --points accepted, so the grid and its rows stay bounded.
_MAX_POINTS = 10**6
# Largest montecarlo --runs accepted, so a campaign's work stays bounded.
_MAX_RUNS = 10**6
# Largest validate --samples accepted, so the sampling loop stays bounded.
_MAX_SAMPLES = 10**7


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with code 1 on usage errors."""

    def error(self, message: str) -> Any:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


# Each algo's library config builder, called as build(bits, **flags given), and
# the optional run flags it takes (omitted ones are None); others are usage errors.
_ALGOS = {
    "kitaev": (KitaevConfig, ("eps", "reps", "exact_constants")),
    "qft": (full_qft_config, ("reps", "guard", "feedback")),
    "aqft": (aqft_config, ("degree", "reps", "guard", "feedback")),
    "const": (constant_precision_config, ("degree", "eps", "reps", "guard", "feedback")),
}


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algo", required=True, choices=_ALGOS, help="estimator to run")
    parser.add_argument(
        "--phase", default="random",
        help="phase literal (binary 0.101b, decimal in [0,1), raw@width) or 'random'",
    )
    parser.add_argument("--bits", type=int, required=True, help="bits to estimate")
    parser.add_argument(
        "--eps", type=float,
        help=f"overall failure budget (kitaev/const only; default {DEFAULT_EPS})",
    )
    parser.add_argument(
        "--degree", type=int,
        help=f"phase-shift degree (aqft: required; const: default {DEFAULT_DEGREE})",
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
    build, flags = _ALGOS[args.algo]
    # In name order, so the first rejected flag is the same whatever the algo.
    for flag in sorted({flag for _, taken in _ALGOS.values() for flag in taken}):
        if getattr(args, flag) is not None and flag not in flags:
            takers = "/".join(algo for algo, (_, taken) in _ALGOS.items() if flag in taken)
            parser.error(f"--{flag.replace('_', '-')} applies only to {takers}")
    for name, param in inspect.signature(build).parameters.items():
        if name in flags and param.default is param.empty and getattr(args, name) is None:
            parser.error(f"--{name} is required for {args.algo}")
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be positive")
    if args.reps is not None and args.reps > _MAX_REPS:
        parser.error(f"--reps must be at most {_MAX_REPS}")
    if args.guard is not None and args.guard < 0:
        parser.error("--guard must be nonnegative")
    if getattr(args, "runs", 1) < 1:
        parser.error("--runs must be positive")
    if getattr(args, "runs", 1) > _MAX_RUNS:
        parser.error(f"--runs must be at most {_MAX_RUNS}")
    phi = None if args.phase == "random" else parse_phase(args.phase)
    given = {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}
    if "reps" in given:
        given["reps"] = round_up_to_odd(given["reps"])
    if given.pop("exact_constants", False):
        given["mode"] = BudgetMode.EXACT
    return phi, build(args.bits, **given)


def _single_run(
    phi: Phase | None, cfg: KitaevConfig | EstimatorConfig, rng: np.random.Generator
) -> tuple[Phase, EstimationResult, bool]:
    """One estimator invocation on its own generator; returns (phase, result, success)."""
    if phi is None:
        phi = _random_phase(rng)
    return (phi, *cfg.run(phi, rng))


_RUNS = [("run", "run", 6), ("phi", "phi", 18), ("success", "success", 8), ("tests", "tests", 8)]
_BUDGETS = [("kitaev_trials", "kitaev", 8), ("const_precision_trials", "const_precision", 16)]


def _emit(
    fmt: str, columns: list[tuple[str, str, int]], rows: Iterable,
    summary: Callable[[], tuple[str, Any]] | None = None,
) -> None:
    """Print rows as an aligned table, csv, or json objects, each row as it comes.

    Each column is (json/csv name, table header, table width).  Floats go
    through ``_fmt`` in the table and csv.  An optional summary is called
    after the last row and returns (line, object): the line ends the
    table, and the csv behind a ``# ``; json then prints
    ``{"rows": [...], "summary": object}``.
    """
    # The first row comes before any output, so a source that fails at once
    # (a config no run can use) prints nothing.
    rows = iter(rows)
    rows = itertools.chain(list(itertools.islice(rows, 1)), rows)
    names = [name for name, _, _ in columns]
    if fmt == "json":
        # One row object at a time, so the document is never held whole; the
        # bytes are those of json.dumps(payload, indent=2).
        encode = json.JSONEncoder(indent=2).encode
        write = sys.stdout.write
        outer = "" if summary is None else "  "
        inner = outer + "  "
        if summary is not None:
            write('{\n  "rows": ')
        opening = "["
        for row in rows:
            write(f"{opening}\n{inner}" + encode(dict(zip(names, row))).replace("\n", "\n" + inner))
            opening = ","
        write("[]" if opening == "[" else f"\n{outer}]")
        if summary is not None:
            write(',\n  "summary": ' + encode(summary()[1]).replace("\n", "\n  ") + "\n}")
        write("\n")
        return
    cells = ([_fmt(v) if isinstance(v, float) else v for v in row] for row in rows)
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(cells)
    else:
        # One write per row: an unbuffered stdout makes one syscall of each.
        line = (" ".join(f"{{:>{width}}}" for _, _, width in columns) + "\n").format
        write = sys.stdout.write
        write(line(*(header for _, header, _ in columns)))
        for row in cells:
            write(line(*row))
    if summary is not None:
        text = summary()[0]
        print(f"# {text}" if fmt == "csv" else text)


def cmd_estimate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    phi, result, ok = _single_run(*_run_setup(parser, args), make_generator(RngSeed(args.seed)))
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
        for note in result.warnings:
            print(f"# warning: {note}")
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
    successes = 0

    def rows() -> Iterator[tuple[int, str, int, int]]:
        nonlocal successes
        for index, rng in enumerate(run_generators(RngSeed(args.seed), args.runs)):
            phi, result, ok = _single_run(fixed_phi, cfg, rng)
            successes += ok
            yield index, _fmt(phi.value), int(ok), result.total_tests

    def summary() -> tuple[str, dict[str, Any]]:
        rate = successes / args.runs
        low, high = _wilson_interval(successes, args.runs)
        line = f"summary: runs={args.runs} successes={successes} rate={_fmt(rate)} "
        line += f"wilson95=[{_fmt(low)},{_fmt(high)}]"
        return line, dict(runs=args.runs, successes=successes, success_rate=rate, wilson95=[low, high])

    _emit(args.format, _RUNS, rows(), summary)
    return 0


def _float_list(parser: argparse.ArgumentParser, flag: str, text: str) -> list[float]:
    try:
        return [float(item) for item in text.split(",")]
    except ValueError:
        parser.error(f"{flag} must be a comma-separated list of floats")


def cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    probs = None if args.probs is None else _float_list(parser, "--probs", args.probs)
    columns = [("success_prob", "success_prob", 14), ("eps", "eps", 12), *_BUDGETS]
    _emit(args.format, columns, trials_table(probs, _budget_mode(args)))
    return 0


def cmd_compare(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    # The whole grid is checked, as one float64 array, before the first row is
    # printed; the rows are then built as they are printed.
    if args.eps_list is not None:
        grid = np.array(_float_list(parser, "--eps-list", args.eps_list))
    else:
        if args.points < 2:
            parser.error("--points must be at least 2")
        if args.points > _MAX_POINTS:
            parser.error(f"--points must be at most {_MAX_POINTS}")
        if not 0 < args.eps_min < args.eps_max < 1:
            parser.error("need 0 < --eps-min < --eps-max < 1")
        exponents = np.linspace(math.log10(args.eps_max), math.log10(args.eps_min), args.points)
        grid = np.fromiter((10.0**e for e in exponents), np.float64, args.points)
    if not ((0.0 < grid) & (grid < 1.0)).all():
        parser.error("eps values must lie in (0, 1)")
    mode = _budget_mode(args)
    budgets = (
        (eps, kitaev_trials_per_bit(eps, mode), const_precision_trials(eps, DEFAULT_DEGREE))
        for eps in map(float, grid)
    )
    rows = ((eps, kit, con, kit / con) for eps, kit, con in budgets)
    _emit(args.format, [("eps", "eps", 12), *_BUDGETS, ("ratio", "ratio", 10)], rows)
    return 0


def cmd_validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if not 1 <= args.bits <= MAX_SAMPLED_BITS:
        parser.error(f"--bits must lie in 1..{MAX_SAMPLED_BITS} for validation")
    if args.samples < 1:
        parser.error("--samples must be positive")
    if args.samples > _MAX_SAMPLES:
        parser.error(f"--samples must be at most {_MAX_SAMPLES}")
    rng = make_generator(RngSeed(args.seed))
    phi = _random_phase(rng) if args.phase == "random" else parse_phase(args.phase)
    checks = self_checks(phi, args.bits, args.samples, rng)
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
    est.set_defaults(handler=functools.partial(cmd_estimate, est))

    mc = sub.add_parser("montecarlo", help="independent repeated runs with derived seeds")
    _add_run_arguments(mc)
    mc.add_argument("--runs", type=int, default=100, help="number of independent runs")
    mc.set_defaults(handler=functools.partial(cmd_montecarlo, mc))

    tab = sub.add_parser("table", help="per-bit trial budgets at fixed success probabilities")
    tab.add_argument("--probs", default=None, help="comma-separated success probabilities")
    tab.add_argument("--exact-constants", action="store_true")
    tab.add_argument("--format", choices=_FORMATS, default="table")
    tab.set_defaults(handler=functools.partial(cmd_table, tab))

    cmp_ = sub.add_parser("compare", help="trial budgets of both estimators over an eps grid")
    cmp_.add_argument("--eps-max", type=float, default=1e-1)
    cmp_.add_argument("--eps-min", type=float, default=1e-14)
    cmp_.add_argument("--points", type=int, default=27)
    cmp_.add_argument("--eps-list", default=None, help="explicit comma-separated eps grid")
    cmp_.add_argument("--exact-constants", action="store_true")
    cmp_.add_argument("--format", choices=_FORMATS, default="csv")
    cmp_.set_defaults(handler=functools.partial(cmd_compare, cmp_))

    val = sub.add_parser("validate", help="oracle self-checks of the exact reference")
    val.add_argument("--bits", type=int, default=5)
    val.add_argument("--samples", type=int, default=50000)
    val.add_argument("--phase", default="0.703125")
    val.add_argument("--seed", type=int, default=0)
    val.set_defaults(handler=functools.partial(cmd_validate, val))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
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

#!/usr/bin/env python3
"""qpesim benchmark: CLI workloads in a closed loop with one client.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs one ``qpesim`` CLI command in a fresh interpreter
(every CLI user pays the import), one process and one thread, and the
next repetition starts when the previous one ends.  Repetitions go on
until ``--seconds`` have passed (at least three).  Every repetition's
standard output is checked; a non-zero exit or a failed check counts as
a failed repetition.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as
medians over the repetitions.  Times are counted in refs: one ref is the
duration of a fixed yardstick workload run in the same process just
before and after the command (see child.py), which cancels the drift in
host speed that raw seconds suffer on a shared machine.  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics; traced call counts
must equal their closed forms and repeat exactly.  The last line of
standard output is the JSON result; a full record with the environment
and every repetition goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
OUT_DIR = ROOT / ".perfbench_out"
MIN_REPS = 3
MIN_TRACED_REPS = 4  # two untraced, two traced
REP_TIMEOUT_S = 30  # a repetition takes a few seconds; a hung one must not stall the run
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
EPS = 0.05  # the CLI's default failure budget for kitaev and const
# Every end-to-end quantity the timed run prints; BENCHMARK.json picks the steady ones.
E2E_UNITS = {
    "wall_ref": "ref", "tests_per_ref": "1/ref", "setup_s": "s", "cpu_ref": "ref",
    "peak_rss_mb": "MB", "wall_s": "s", "tests_per_s": "1/s", "raw_setup_s": "s", "cpu_s": "s",
    "ref_s": "s",
}
# Nominal yardstick duration on a quiet host (2-core Xeon, Python 3.11, numpy 2.4);
# setup_s is the measured set-up time rescaled to that host speed.
REF_NOMINAL_S = 0.2


@dataclass(frozen=True)
class Workload:
    """One CLI command; ``count`` is --runs (montecarlo) or --samples (validate)."""

    name: str
    algo: str | None
    bits: int
    count: int
    tiny_count: int
    tests_per_run: int

    def argv(self, seed: int, count: int) -> list[str]:
        if self.algo is None:
            return ["validate", "--seed", str(seed), "--samples", str(count)]
        return [
            "montecarlo", "--algo", self.algo, "--bits", str(self.bits),
            "--runs", str(count), "--seed", str(seed),
        ]

    def tests(self, count: int) -> int:
        """Simulated Hadamard tests: the tests column's sum, or samples x bits."""
        return self.tests_per_run * count

    def expected_counts(self, count: int) -> dict[str, int]:
        """Closed forms that the traced call counts must equal."""
        if self.algo == "kitaev":
            return {
                "sampling.run_trials.calls": 2 * self.bits * count,
                "kitaev.estimate_stage.calls": self.bits * count,
                "phase.mod1_distance.calls": 8 * self.bits * count,
                "sampling.make_generator.calls": count,
                "sampling.draws": self.tests(count),
            }
        if self.algo == "const":
            return {
                "sampling.run_trials.calls": (self.bits + 2) * count,
                "sampling.make_generator.calls": count,
                "sampling.draws": self.tests(count),
            }
        return {
            "sampling.run_trials.calls": self.bits * count,
            "estimators.semiclassical_estimate.calls": count,
            "refsim.qpe_distribution_exact.calls": 2 * 1024 + 4096 + 1,
            "sampling.draws": self.tests(count),
        }


# Per-run test counts are the paper's budgets at bits=16, eps=0.05:
# kitaev 2 x 169 per stage (338 per bit), const 25 votes x 18 stages.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-kitaev", "kitaev", 16, 1500, 20, 5408),
        Workload("mc-const", "const", 16, 4000, 50, 450),
        Workload("validate", None, 5, 20000, 500, 5),
    )
}

# Counts that must repeat exactly between traced repetitions of one command.
EXACT_COUNTS = ("sampling.draws", "phase.Phase.constructed", "kitaev.stitch_warnings",
                "estimators.engine_tests", "estimators.engine_bits",
                "estimators.predicate_calls", "estimators.predicate_successes")

SUMMARY = re.compile(
    r"summary: runs=(?P<runs>\d+) successes=(?P<successes>\d+) "
    r"rate=(?P<rate>\S+) wilson95=\[\S+,\S+\]"
)
VALIDATE_CHECKS = (
    "closed-vs-direct agreement",
    "sampling TV distance",
    "two-point mass grid minimum",
    "overall",
)


def check_montecarlo(w: Workload, count: int, text: str) -> str | None:
    """Structure of a montecarlo table: header, one row per run, summary."""
    lines = text.splitlines()
    if len(lines) != count + 2:
        return f"expected {count + 2} lines, got {len(lines)}"
    if lines[0].split() != ["run", "phi", "success", "tests"]:
        return "missing header"
    successes = 0
    for index, line in enumerate(lines[1:-1]):
        fields = line.split()
        try:
            ok = (
                len(fields) == 4
                and int(fields[0]) == index
                and 0.0 <= float(fields[1]) <= 1.0
                and fields[2] in ("0", "1")
                and int(fields[3]) == w.tests_per_run
            )
        except ValueError:
            ok = False
        if not ok:
            return f"bad row {index}: {line!r}"
        successes += fields[2] == "1"
    summary = SUMMARY.fullmatch(lines[-1])
    if summary is None:
        return "missing summary line"
    if int(summary["runs"]) != count or int(summary["successes"]) != successes:
        return "summary disagrees with the rows"
    if abs(float(summary["rate"]) - successes / count) > 1e-9:
        return "summary rate disagrees with the rows"
    if successes < (1.0 - EPS) * count:
        return f"success rate {successes / count} below the 1 - eps guarantee"
    return None


def check_validate(text: str) -> str | None:
    """Every validate check line present and PASS, ending in overall PASS."""
    lines = text.splitlines()
    if len(lines) != len(VALIDATE_CHECKS):
        return f"expected {len(VALIDATE_CHECKS)} lines, got {len(lines)}"
    for name, line in zip(VALIDATE_CHECKS, lines):
        verdict = line[len(name):].split()[:1]
        if not line.startswith(name) or verdict != ["PASS"]:
            return f"not PASS: {line!r}"
    return None


def check_output(w: Workload, count: int, seed: int, data: bytes, golden: dict) -> str | None:
    """None when the output is correct, else the reason it is not."""
    expected = golden.get(w.name, {}).get(str(seed)) if count == w.count else None
    if expected is not None and hashlib.sha256(data).hexdigest() != expected:
        return "stdout differs from the recorded sha256"
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return "stdout is not ASCII"
    return check_validate(text) if w.algo is None else check_montecarlo(w, count, text)


@dataclass
class Rep:
    traced: bool
    exit_code: int
    wall_s: float = float("nan")
    ref_before_s: float = float("nan")
    ref_after_s: float = float("nan")
    setup_s: float = float("nan")
    cpu_s: float = float("nan")
    peak_rss_mb: float = float("nan")
    layers: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def ref_s(self) -> float:
        """Yardstick duration around the command: the host's current speed."""
        return (self.ref_before_s + self.ref_after_s) / 2.0


class _Timeout(Exception):
    pass


def _alarm(signum: int, frame: object) -> None:
    raise _Timeout


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cli_args: list[str], spans: Path | None = None) -> tuple[int, dict, bytes, object]:
    """One fresh interpreter running one CLI command; waits until it has ended.

    Returns (exit code, child record, stdout bytes, rusage of the child).
    """
    record_path = OUT_DIR / "record.json"
    stdout_path = OUT_DIR / "stdout.txt"
    record_path.unlink(missing_ok=True)
    options = ["--spans", str(spans)] if spans is not None else []
    cmd = [sys.executable, str(CHILD), str(record_path), *options, "--", *cli_args]
    with open(stdout_path, "wb") as out, open(OUT_DIR / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(REP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    return proc.returncode, record, stdout_path.read_bytes(), usage


def run_rep(w: Workload, seed: int, count: int, golden: dict, traced: bool) -> Rep:
    spans = OUT_DIR / f"spans-{w.name}.npz" if traced else None
    code, record, data, usage = run_child(w.argv(seed, count), spans)
    rep = Rep(traced=traced, exit_code=code)
    if code != 0 or not record:
        rep.error = f"exit code {code}"
        return rep
    rep.wall_s = record["wall_s"]
    rep.ref_before_s = record["ref_before_s"]
    rep.ref_after_s = record["ref_after_s"]
    rep.setup_s = record["setup_s"]
    rep.cpu_s = usage.ru_utime + usage.ru_stime - record["ref_cpu_s"]
    rep.peak_rss_mb = usage.ru_maxrss / 1024.0
    rep.layers = record.get("layers", {})
    rep.error = check_output(w, count, seed, data, golden)
    if rep.error is None and traced:
        rep.error = check_counts(w, count, rep.layers)
    return rep


def check_counts(w: Workload, count: int, layers: dict) -> str | None:
    for name, expected in w.expected_counts(count).items():
        if layers.get(name) != expected:
            return f"traced {name} = {layers.get(name)}, closed form {expected}"
    return None


def exact_counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if k.endswith(".calls") or k in EXACT_COUNTS}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qpesim").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(args: argparse.Namespace, warmup: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": warmup.get("python"),
        "numpy": warmup.get("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_env": THREAD_ENV,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def usable(reps: list[Rep], traced: bool) -> list[Rep]:
    """Correct repetitions of one kind; if none, those that at least reported timings."""
    kind = [r for r in reps if r.traced == traced]
    return [r for r in kind if r.error is None] or [r for r in kind if not math.isnan(r.wall_s)]


def end_to_end(w: Workload, count: int, reps: list[Rep]) -> dict[str, list[float]]:
    good = usable(reps, traced=False)
    if not good:
        return {}
    return {
        "wall_ref": [r.wall_s / r.ref_s for r in good],
        "tests_per_ref": [w.tests(count) * r.ref_s / r.wall_s for r in good],
        "setup_s": [REF_NOMINAL_S * r.setup_s / r.ref_before_s for r in good],
        "cpu_ref": [r.cpu_s / r.ref_s for r in good],
        "peak_rss_mb": [r.peak_rss_mb for r in good],
        "wall_s": [r.wall_s for r in good],
        "tests_per_s": [w.tests(count) / r.wall_s for r in good],
        "raw_setup_s": [r.setup_s for r in good],
        "cpu_s": [r.cpu_s for r in good],
        "ref_s": [r.ref_s for r in good],
    }


def per_layer(reps: list[Rep]) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer metrics from the traced repetitions, plus a per-function table."""
    untraced = [r.wall_s for r in usable(reps, traced=False)]
    traced = usable(reps, traced=True)
    if not traced or not untraced:
        return {}, {}
    first = traced[0].layers
    metrics: dict[str, float] = {k: v for k, v in exact_counts(first).items()}
    table: dict[str, dict] = {}
    for key in first:
        if not key.endswith(".calls"):
            continue
        fn = key[: -len(".calls")]
        calls = first[key]
        self_s = statistics.median(r.layers[f"{fn}.self_s"] for r in traced)
        total_s = statistics.median(r.layers[f"{fn}.total_s"] for r in traced)
        metrics[f"{fn}.self_s"] = self_s
        metrics[f"{fn}.us_per_call"] = 1e6 * total_s / calls if calls else 0.0
        table[fn] = {"calls": calls, "self_s": self_s, "total_s": total_s,
                     "us_per_call": metrics[f"{fn}.us_per_call"]}
    bits = first["estimators.engine_bits"]
    metrics["estimators.tests_per_bit"] = first["estimators.engine_tests"] / bits if bits else 0.0
    checked = first["estimators.predicate_calls"]
    metrics["estimators.success_ratio"] = (
        first["estimators.predicate_successes"] / checked if checked else 0.0
    )
    traced_wall = statistics.median(r.wall_s for r in traced)
    metrics["trace_overhead_frac"] = traced_wall / statistics.median(untraced) - 1.0
    return metrics, table


def measure(w: Workload, args: argparse.Namespace, count: int, golden: dict) -> list[Rep]:
    """Closed loop: the next repetition starts when the previous one ends."""
    reps: list[Rep] = []
    start = time.perf_counter()
    min_reps = MIN_TRACED_REPS if args.trace else MIN_REPS
    while len(reps) < min_reps or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_rep(w, args.seed, count, golden, traced))
    if args.trace:
        traced = [r for r in reps if r.traced and r.error is None]
        for rep in traced[1:]:
            if exact_counts(rep.layers) != exact_counts(traced[0].layers):
                rep.error = "traced counts differ between repetitions"
    return reps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks --runs/--samples for a smoke test")
    args = parser.parse_args()

    spec_path = BENCH_DIR.parent / "BENCHMARK.json"
    if not (ROOT / "src" / "qpesim" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a qpesim checkout (src/qpesim missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    w = WORKLOADS[args.workload]
    count = w.count if args.size == "full" else w.tiny_count
    OUT_DIR.mkdir(exist_ok=True)

    # Compiles bytecode outside the measurement and pins where qpesim comes from.
    code, warmup, _, _ = run_child(["--help"])
    src = str(ROOT / "src")
    if code != 0 or not warmup.get("module_file", "").startswith(src + os.sep):
        print(f"perfbench: qpesim does not import from {src}", file=sys.stderr)
        return 2
    env = environment(args, warmup)

    reps = measure(w, args, count, golden)
    failed = sum(r.error is not None for r in reps)
    print(f"env {json.dumps(env, sort_keys=True)}")
    for i, r in enumerate(reps):
        if r.error is not None:
            print(f"rep {i} ({'traced' if r.traced else 'untraced'}) FAILED: {r.error}")
    print(f"metric failed_frac = {failed / len(reps):.6g} ratio ({failed} of {len(reps)} repetitions)")

    if args.trace:
        measured, table = per_layer(reps)
        wanted = spec["per_layer"]
        for fn, row in table.items():
            print(f"layer {fn:<36} calls {row['calls']:>9} self {row['self_s']:.6f} s "
                  f"total {row['total_s']:.6f} s {row['us_per_call']:.3f} us/call")
        extra = {}
    else:
        samples = end_to_end(w, count, reps)
        measured = {name: statistics.median(values) for name, values in samples.items()}
        wanted = spec["end_to_end"]
        for name, values in samples.items():
            q1, q2, q3 = quartiles(values)
            print(f"metric {name} = {q2:.6g} {E2E_UNITS[name]} "
                  f"(median of {len(values)}, q1 {q1:.6g}, q3 {q3:.6g})")
        extra = {"samples": samples}
    if not measured:
        print("perfbench: no repetition reported timings; nothing to report", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    if args.trace:
        for name, entry in metrics.items():
            print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")

    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}
    record = {"env": env, "result": result, "all_metrics": measured, **extra,
              "reps": [vars(r) for r in reps]}
    out = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

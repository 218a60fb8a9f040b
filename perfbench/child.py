"""Run one qpesim CLI command in this fresh interpreter and record its timings.

Usage: python3 child.py RECORD_JSON [--spans SPANS_NPZ] -- CLI_ARGS...

The CLI's standard output is this process's standard output.  The
record holds ``setup_s`` (import ``qpesim.cli`` and build its parser),
``wall_s`` (end of import to the last output byte), the CLI exit code,
where ``qpesim`` was imported from, and the interpreter and numpy
versions.  A fixed yardstick workload runs just before and just after
the command (``ref_before_s``, ``ref_after_s``; ``ref_cpu_s`` is their
total CPU time), so that the runner can express the command's cost in
units of the host's current speed.  With ``--spans`` the package is
traced: the record gains the per-layer statistics and the spans are
written to SPANS_NPZ once the command has finished, outside the timed
interval.
"""

import json
import math
import sys
import time
from dataclasses import dataclass

YARDSTICK_ROUNDS = 12_000
_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class _Cell:
    raw: int

    def __post_init__(self) -> None:
        if not 0 <= self.raw <= _MASK:
            raise ValueError("raw value out of range")


def yardstick() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed yardstick workload.

    It has the package's mix of operations (small frozen dataclasses,
    exact integer shifts, a trigonometric call and a tiny numpy draw per
    step, as in one estimator stage) but shares no code with qpesim, so
    a change to the package does not move it while a change in host
    speed does.
    """
    import numpy as np

    wall, cpu = time.perf_counter(), time.process_time()
    rng = np.random.Generator(np.random.PCG64(2010))
    acc = 0
    for i in range(YARDSTICK_ROUNDS):
        cell = _Cell((i * 0x9E3779B97F4A7C15) & _MASK)
        for k in range(3):
            shifted = _Cell((cell.raw << k) & _MASK)
            p = math.sin(math.pi * shifted.raw / 2.0**64) ** 2
            acc += int(np.count_nonzero(rng.random(3) < p))
    return time.perf_counter() - wall, time.process_time() - cpu


def main() -> int:
    t0 = time.perf_counter()
    import qpesim.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0

    args = sys.argv[1:]
    split = args.index("--")
    record_path, options, cli_args = args[0], args[1:split], args[split + 1 :]
    spans_path = options[1] if options[:1] == ["--spans"] else None

    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    ref_before, ref_cpu_before = yardstick()
    start = time.perf_counter()
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    wall_s = time.perf_counter() - start
    ref_after, ref_cpu_after = yardstick()

    import numpy

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_before_s": ref_before,
        "ref_after_s": ref_after,
        "ref_cpu_s": ref_cpu_before + ref_cpu_after,
        "exit_code": code,
        "module_file": cli.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        record["layers"] = tracer.stats()
        tracer.save_spans(spans_path)
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of the qpesim package from outside it.

Callers inside the package bind names at import time
(``from .sampling import run_trials``), so wrapping a function only in
its defining module would miss every call.  :meth:`Tracer.install`
therefore replaces the function object under every name that holds it
in every loaded ``qpesim`` module, and counts ``Phase`` constructions
through ``Phase.__post_init__``.

Each wrapped call records one span (name, start, end, parent) in typed
arrays; spans stay in memory until
:meth:`Tracer.save_spans` writes them out after the traced command ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter
from typing import Any, Callable

import numpy as np

# Functions traced per layer (module of qpesim); every one gets a span.
TRACED: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "sampling": ("make_generator", "derive_run_seed", "run_trials"),
    "phase": (
        "double_k",
        "corrected_residual",
        "post_h_prob_one",
        "hadamard_probs",
        "phase_from_float",
        "mod1_distance",
        "phase_from_bits",
    ),
    "kitaev": (
        "kitaev_estimate",
        "estimate_stage",
        "arctan_phase",
        "snap_beta",
        "stitch_bits",
        "within_guarantee",
    ),
    "estimators": ("semiclassical_estimate", "is_success"),
    "refsim": ("qpe_distribution_exact", "empirical_vs_exact"),
    "bounds": (
        "const_precision_trials",
        "kitaev_trials_per_bit",
        "round_up_to_odd",
        "qft_lower_bound",
    ),
}


class Tracer:
    """Span recorder plus the counters that only the traced run can see."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.draws = 0
        self.phases_constructed = 0
        self.stitch_warnings = 0
        self.engine_tests = 0
        self.engine_bits = 0
        self.predicate_calls = 0
        self.predicate_successes = 0

    def _wrap(self, name: str, fn: Callable[..., Any], hook: Callable[..., None] | None) -> Callable[..., Any]:
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        ids, parents, starts, ends = self._name_id, self._parent, self._start, self._end

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # Counter hooks: each sees the call's arguments and its result.
    def _count_draws(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.draws += args[1] if len(args) > 1 else kwargs["m"]

    def _count_engine(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.engine_tests += result.total_tests
        self.engine_bits += (args[1] if len(args) > 1 else kwargs["cfg"]).n

    def _count_predicate(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.predicate_calls += 1
        self.predicate_successes += int(bool(result))

    def _count_stitch(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.stitch_warnings += len(result[1])

    def install(self) -> None:
        """Wrap every function in :data:`TRACED` under every name that holds it."""
        hooks = {
            "sampling.run_trials": self._count_draws,
            "kitaev.kitaev_estimate": self._count_engine,
            "estimators.semiclassical_estimate": self._count_engine,
            "estimators.is_success": self._count_predicate,
            "kitaev.within_guarantee": self._count_predicate,
            "kitaev.stitch_bits": self._count_stitch,
        }
        for layer in TRACED:
            importlib.import_module(f"qpesim.{layer}")
        modules = [m for key, m in sys.modules.items() if key == "qpesim" or key.startswith("qpesim.")]
        for layer, functions in TRACED.items():
            home = sys.modules[f"qpesim.{layer}"]
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original, hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

        phase_cls = sys.modules["qpesim.phase"].Phase
        original_post_init = phase_cls.__post_init__

        def counted_post_init(phase: Any) -> None:
            self.phases_constructed += 1
            original_post_init(phase)

        phase_cls.__post_init__ = counted_post_init

    def stats(self) -> dict[str, float]:
        """Per-function calls, self and inclusive seconds, plus the counters."""
        ids = np.frombuffer(self._name_id, dtype=np.uint16)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        duration = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=duration[has_parent], minlength=len(ids))
        self_time = duration - covered
        size = len(self.names)
        calls = np.bincount(ids, minlength=size)
        self_s = np.bincount(ids, weights=self_time, minlength=size)
        total_s = np.bincount(ids, weights=duration, minlength=size)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{name}.total_s"] = float(total_s[i])
        out["sampling.draws"] = self.draws
        out["phase.Phase.constructed"] = self.phases_constructed
        out["kitaev.stitch_warnings"] = self.stitch_warnings
        out["estimators.engine_tests"] = self.engine_tests
        out["estimators.engine_bits"] = self.engine_bits
        out["estimators.predicate_calls"] = self.predicate_calls
        out["estimators.predicate_successes"] = self.predicate_successes
        return out

    def save_spans(self, path: str) -> None:
        """Write every span as parallel arrays: name id, parent index, start, end."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self._name_id, dtype=np.uint16),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )

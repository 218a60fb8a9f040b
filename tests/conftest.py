"""Shared fixtures."""

from __future__ import annotations

from typing import Any, Callable

import pytest


@pytest.fixture
def count_calls(monkeypatch: pytest.MonkeyPatch) -> Callable[[Any, str], list]:
    """Replace ``module.name`` by a wrapper that logs each call's arguments.

    Returns the log.  Only callers that look the name up in ``module`` at
    call time reach the wrapper; the benchmark's tracer
    (``perfbench/tracer.py``) counts calls the same way.
    """

    def install(module: Any, name: str) -> list:
        calls: list = []
        original = getattr(module, name)

        def counted(*args: Any, **kwargs: Any) -> Any:
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install

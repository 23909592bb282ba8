"""The benchmark's tracer wraps steerkit functions by name; each must exist.

``bench/tracer.py`` lists its trace sites in ``TARGETS`` and
``bench/test_bench.py`` reads ``steerkit.sweep.steady_state_lyapunov``.  A
rename or a dropped import in ``src`` breaks the benchmark without failing
any other test, so this one checks every name.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name, function",
    [
        *((module, function) for module, functions in _targets().items() for function in functions),
        ("sweep", "steady_state_lyapunov"),
    ],
)
def test_trace_site_resolves(module_name, function):
    module = importlib.import_module(f"steerkit.{module_name}")
    assert callable(getattr(module, function, None)), f"steerkit.{module_name}.{function}"

"""The benchmark's tracer wraps steerkit functions by name; each must exist.

``bench/tracer.py`` lists its trace sites in ``TARGETS`` and
``bench/test_bench.py`` reads ``steerkit.sweep.steady_state_lyapunov``.  A
rename or a dropped import in ``src`` breaks the benchmark without failing
any other test, so this one checks every name.  A changed signature or
return value breaks the tracer's notes instead, so a smoke run drives every
noted site through an installed tracer.  The benchmark's ``reproduce``
workload also gates every figure on the seed CSVs, and its ``frontier``
workload every optimum on its oracle; the same checks run here, on every
figure and on seed 0's frontier problems.
"""
from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steerkit as sk
import steerkit.cli
from helpers import usable_cpus
from test_figures import FIGURE_TRAFFIC, Traffic, _count_factorizations, _record

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_TRACER = _BENCH / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets() -> dict[str, tuple[str, ...]]:
    return _tracer_module().TARGETS


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


def test_tracer_runs_over_every_noted_site(tmp_path):
    tracer = _tracer_module().Tracer()
    evaluate = steerkit.sweep._evaluate
    base = sk.SystemParams(1.0, 1.0, 6.0, 10.0, 0.5)
    tracer.install()
    try:
        sk.grid_sweep(sk.SweepSpec(base, (sk.AxisSpec("g1", 5.0, 6.0, 2),)))
        spec = sk.SweepSpec(base, (sk.AxisSpec("g1", 5.0, 6.0, 3),))
        sk.minimize_steering(spec, sk.AxisSpec("gamma_m", 0.5, 1.0, 2))
        sk.spectrum(base, np.linspace(-1.0, 1.0, 5))
        sk.evolve_moments(base, sk.vacuum_thermal_state(), [0.1, 0.2])
        assert steerkit.cli.main(["reproduce", "4b", "--out", str(tmp_path), "--quiet"]) == 0
        layers = tracer.layers()
        seconds, counts = tracer.per_figure()
    finally:
        tracer.uninstall()
    assert steerkit.sweep._evaluate is evaluate
    assert layers["sweep.grid_sweep.calls"] == layers["sweep.minimize_steering.calls"] == 1
    assert layers["cli.main.calls"] == layers["figures.build_figure.calls"] == 1
    work = tracer.work
    assert work["sweep.evaluations"] >= 2 + 6 and work["sweep.coarse_cells"] == 6
    assert 0 < work["sweep.useful"] <= work["sweep.evaluations"]
    assert work["spectra.spectrum.points"] >= 5
    assert work["dynamics.evolve_moments.report_times"] == 2
    assert list(seconds) == ["4b"] and seconds["4b"] > 0.0 and "4b" in counts
    assert (tmp_path / "fig4b_manifest.txt").is_file()


def test_traced_frontier_figure_evaluates_every_kernel_row(monkeypatch):
    # figures minimize through sweep._minimize: the tracer's sweep sites still
    # resolve, and its per-row count is the rows the steady kernel was given
    kernel_rows = []
    steady_batch = steerkit.sweep._steady_batch

    def recording(rates):
        kernel_rows.append(len(rates))
        return steady_batch(rates)

    monkeypatch.setattr(steerkit.sweep, "_steady_batch", recording)
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        sk.build_figure("2d")
        layers = tracer.layers()
    finally:
        tracer.uninstall()
    assert layers["figures.build_figure.calls"] == 1
    assert layers["sweep.minimize_steering.calls"] == 0
    assert tracer.work["sweep.evaluations"] == layers["sweep._evaluate.calls"] == sum(kernel_rows)
    # 26 coarse grids of 3 x 41 cells are screened; their 78 kept cells reach the kernel
    # in its first call, then compass trials (every cell reached it, 4,992 rows in all,
    # before the screen)
    assert kernel_rows[0] == 78 and sum(kernel_rows) == FIGURE_TRAFFIC["2d"].rows


@pytest.fixture(scope="module")
def workloads():
    """``bench/workloads.py``, imported once without writing to ``bench/`` and
    dropped after this module, with its ``oracle``, so no later test sees either."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(_BENCH))
        patch.setattr(sys, "dont_write_bytecode", True)
        yield importlib.import_module("workloads")
    for name in ("workloads", "oracle"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize(
    "figure_id", ["2a", "2b", "2c", "2d", "3a", "3b", "4a", "4b", "5a", "5b", "6"]
)
def test_reproduce_passes_the_seed_gate(workloads, tmp_path, figure_id):
    workload = workloads.Reproduce(0, tmp_path)
    out = workload.run(sk, figure_id)
    verdict = workload.check(figure_id, out, workload.expect(figure_id))
    assert not verdict.failed, (verdict.why, verdict.err)


@pytest.mark.skipif(usable_cpus() < 2, reason="OpenBLAS caps its threads at the usable CPUs")
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="with one right-hand side, scipy's OpenBLAS zgetrs gives other bits on one thread "
    "than on two (its zgetrf factors do not change), and fig 2d's S21 moves by 6.0e-5; "
    "it passes once the steady kernel's complex LU is replaced",
)
def test_fig2d_bytes_do_not_depend_on_the_openblas_thread_count(tmp_path):
    # the seed gate pins the wheels' bits; it cannot pin the thread count they ran on
    src = str(Path(sk.__file__).parents[1])
    csvs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        out = tmp_path / threads
        command = [sys.executable, "-m", "steerkit", "reproduce", "2d", "--out", str(out)]
        subprocess.run(command, env=env, check=True, capture_output=True, timeout=120)
        csvs.append((out / "fig2d_minimized_s21_vs_g2.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.fixture(scope="module")
def frontier(workloads, tmp_path_factory):
    """The benchmark's ``frontier`` workload at seed 0: 54 two-axis problems, each
    with the oracle's best coarse-grid value (drawing them takes a few seconds)."""
    return workloads.Frontier(0, tmp_path_factory.mktemp("frontier"))


def test_frontier_passes_its_oracle_check(frontier):
    # each problem is one lone minimize_steering search, the look-ahead path
    failed = []
    for item in frontier.items:
        verdict = frontier.check(item, frontier.run(sk, item), frontier.expect(item))
        if verdict.failed:
            failed.append((item, verdict.why, verdict.err))
    assert len(frontier.items) == 54 and not failed


#: the steady-kernel traffic of seed 0's frontier pass, pinned beside the figures' (2,471
#: rows and 2,470 factorizations while every flat cell of an "en" grid went to the kernel)
FRONTIER_TRAFFIC = Traffic(368, 1_940, 1_939)


def test_frontier_pass_kernel_traffic(monkeypatch, frontier):
    kernel_calls = _record(monkeypatch, steerkit.sweep, "_steady_batch")
    factorizations = _count_factorizations(monkeypatch)
    for item in frontier.items:
        frontier.run(sk, item)
    rows = sum(len(rates) for (rates,) in kernel_calls)
    assert Traffic(len(kernel_calls), rows, len(factorizations)) == FRONTIER_TRAFFIC

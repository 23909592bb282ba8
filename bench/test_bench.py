"""The benchmark's own tests: the checks catch wrong outputs, the tracer counts exactly.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import steerkit as sk  # noqa: E402
import steerkit.cli  # noqa: E402,F401

import oracle  # noqa: E402
from run import check_pass, tail  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Frontier, Queries, Reproduce, Trajectory  # noqa: E402


def _perturbed(array, rel=1e-4):
    out = np.array(array, copy=True)
    out.flat[int(np.argmax(np.abs(out)))] *= 1.0 + rel
    return out


# ---------------------------------------------------------------------------
# negative controls: a perturbed output must be flagged


def test_queries_check_flags_perturbed_moments_and_spectra(tmp_path):
    workload = Queries(7, tmp_path)
    item = next(it for it in workload.items if it[0] == "stable")
    out, ref = workload.run(sk, item), workload.expect(item)
    assert not workload.check(item, out, ref).failed
    assert workload.check(item, {**out, "phi": _perturbed(out["phi"])}, ref).failed
    assert workload.check(item, {**out, "spectrum": _perturbed(out["spectrum"])}, ref).failed


def test_queries_check_flags_nan_outputs(tmp_path):
    workload = Queries(7, tmp_path)
    item = next(it for it in workload.items if it[0] == "stable")
    out, ref = workload.run(sk, item), workload.expect(item)
    for key in ("phi", "spectrum"):
        bad = np.array(out[key], copy=True)
        bad.flat[-1] = np.nan
        verdict = workload.check(item, {**out, key: bad}, ref)
        assert verdict.failed and verdict.why == "NaN moments or spectrum"


def test_queries_check_flags_wrong_predicates_window_and_stability(tmp_path):
    workload = Queries(7, tmp_path)
    item = next(it for it in workload.items if it[0] == "stable" and it[1].kappa1 == it[1].kappa2
                and it[1].g2 > it[1].g1 and sk.thermal_window(sk.SystemParams(*it[1])) is not None)
    out, ref = workload.run(sk, item), workload.expect(item)
    assert not workload.check(item, out, ref).failed
    flipped = replace(out["predicates"], entangled_weak=not out["predicates"].entangled_weak)
    assert workload.check(item, {**out, "predicates": flipped}, ref).failed
    assert workload.check(item, {**out, "window": None}, ref).failed
    low, high = out["window"]
    assert workload.check(item, {**out, "window": (low, high * (1.0 + 1e-6))}, ref).failed
    unstable = replace(out["report"], spectral_pass=False)
    assert workload.check(item, {**out, "report": unstable}, ref).failed


def test_a_check_that_raises_fails_its_item(tmp_path):
    workload = Trajectory(7, tmp_path)
    item = workload.items[0]
    exact = workload.expect(item)

    class Broken:
        def check(self, *_):
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")

    failures = {}
    failed, _ = check_pass(Broken(), [item], [exact], [(exact, None)], failures)
    assert failed == 1 and failures == {"output breaks the check: LinAlgError": 1}


def test_queries_check_requires_the_typed_error_for_unstable_sets(tmp_path):
    workload = Queries(7, tmp_path)
    item = next(it for it in workload.items if it[0] == "unstable")
    out, ref = workload.run(sk, item), workload.expect(item)
    assert ref is None and not workload.check(item, out, ref).failed
    without_error = {k: v for k, v in out.items() if k != "rejected"}
    assert workload.check(item, without_error, ref).failed


def test_trajectory_check_accepts_exact_and_flags_perturbed_moments(tmp_path):
    workload = Trajectory(7, tmp_path)
    item = workload.items[0]
    rates, times, picks = item
    exact = workload.expect(item)
    values = np.asarray([[*oracle.steering(phi)[:2], *oracle.steering(phi)] for phi in exact])
    full = np.zeros((times.size, 5))
    full[picks] = values
    assert not workload.check(item, (exact, full), exact).failed
    bent = [exact[0], *exact[1:-1], _perturbed(exact[-1], 1e-4)]
    assert workload.check(item, (bent, full), exact).failed
    full[0, 0] = np.nan
    assert workload.check(item, (exact, full), exact).failed
    full[0, 0] = 0.0
    assert workload.check(item, ([*exact[:-1], exact[-1] * np.nan], full), exact).failed


def test_frontier_check_flags_a_perturbed_optimum(tmp_path):
    workload = Frontier(7, tmp_path)
    item = min(workload.items, key=lambda it: it[1][0][2] * it[1][1][2])
    out, ref = workload.run(sk, item), workload.expect(item)
    assert not workload.check(item, out, ref).failed
    feasible, best, value = out
    assert workload.check(item, (feasible, best, value * (1.0 + 1e-4)), ref).failed
    assert workload.check(item, (False, None, float("nan")), ref).failed


def test_reproduce_check_flags_a_perturbed_csv_cell(tmp_path):
    workload = Reproduce(0, tmp_path)
    out = workload.run(sk, "4a")
    ref = workload.expect("4a")
    assert not workload.check("4a", out, ref).failed
    path = out[1] / "fig4a_spectral_steering.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-4))
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert workload.check("4a", out, ref).failed


# ---------------------------------------------------------------------------
# known defects of the seed commit, kept out of the workloads' inputs (see
# README.md, "Known defects").  Each test states the correct behaviour and
# is expected to fail; once a change fixes the defect it passes, the strict
# xfail turns that into a failure, and the workload can be widened again.


@pytest.mark.xfail(strict=True, reason="evolve_moments stops refining when the report spacing is below half its step")
def test_known_defect_evolve_moments_at_mid_spacing():
    rates = oracle.Rates(1.0, 1.0, 5.0, 10.0, 1.0)
    eigs = np.linalg.eigvals(oracle.generators(rates)[0])
    times = 0.8 / (2.0 * np.abs(eigs).max()) * np.arange(1, 76)
    states = sk.evolve_moments(sk.SystemParams(*rates), sk.vacuum_thermal_state(), times)
    exact = oracle.propagator(rates)(oracle.initial_state(0.0), times[-1])
    assert np.abs(states[-1].phi - exact).max() <= Trajectory.TOL * max(1.0, np.abs(exact).max())


#: frontier optima on the stability edge, max|Phi| 1.8e5 and 1.3e5
EDGE_OPTIMA = [
    ("e_n", oracle.Rates(1.0, 2.558716822768231, 7.251139142493779, 11.479566020521432, 1.0769278429558475)),
    ("s21", oracle.Rates(1.0, 2.2097462764476905, 12.663403930588343, 18.799313864100863, 0.4297873335973641)),
]


@pytest.mark.xfail(strict=True, reason="steering_result loses digits to cancellation at large occupations")
@pytest.mark.parametrize("field, rates", EDGE_OPTIMA)
def test_known_defect_steering_at_large_occupation(field, rates):
    moments = sk.steady_state_lyapunov(sk.SystemParams(*rates))
    # the program's moments are right: the oracle's formulas on them agree
    # with the oracle's own moments to 1e-9
    s12, s21, e_n = oracle.steering(moments.phi)
    expected = {"s21": s21, "e_n": e_n}[field]
    got = getattr(sk.steering_result(moments), field)
    assert abs(got - expected) <= Frontier.TOL * max(1.0, abs(expected))


@pytest.mark.xfail(strict=True, raises=sk.NumericalError, reason="the residual gate rejects a stable set")
def test_known_defect_residual_gate_rejects_a_stable_set():
    # equal losses with g1 0.2% above g2: the largest real eigenvalue is
    # -6e-3, inside the margin of a "stable" query, and max|Phi| is 2.5e6
    rates = oracle.Rates(1.0, 1.0, 16.115285744927988, 16.081920259484367, 1.0873564475641952)
    assert oracle.max_real_eigenvalue(rates) < -1e-3
    moments = sk.steady_state_lyapunov(sk.SystemParams(*rates))
    phi = oracle.steady(rates)
    assert np.abs(moments.phi - phi).max() <= Queries.TOL * np.abs(phi).max()


# ---------------------------------------------------------------------------
# tracer


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_restores_every_site():
    before = sk.dynamics.steady_state_lyapunov, sk.sweep.steady_state_lyapunov, sk.steady_state_lyapunov
    _traced(lambda: None)
    after = sk.dynamics.steady_state_lyapunov, sk.sweep.steady_state_lyapunov, sk.steady_state_lyapunov
    assert after == before and not hasattr(before[0], "__wrapped__")


def test_tracer_sees_calls_made_from_sweep():
    spec = sk.SweepSpec(base=sk.SystemParams(1.0, 1.0, 1.0, 10.0, 0.5), axes=(sk.AxisSpec("g1", 0.5, 2.0, 4),))
    tracer = _traced(lambda: sk.grid_sweep(spec))
    layers = tracer.layers()
    assert layers["sweep.grid_sweep.calls"] == 1
    assert layers["dynamics.steady_state_lyapunov.calls"] == 4
    assert layers["dynamics.assess_stability.calls"] == 8  # _evaluate and the solve each check
    assert 0.0 <= layers["sweep.grid_sweep.self_s"] <= layers["sweep.grid_sweep.s"]


@pytest.mark.parametrize(
    "figure_id, solves, stability, generators, rejected",
    [("3b", 522, 522, 1044, 0), ("6", 45_893, 128_068, 173_961, 4)],
)
def test_tracer_counts_match_the_seed_exactly(tmp_path, figure_id, solves, stability, generators, rejected):
    tracer = _traced(lambda: sk.cli.main(["reproduce", figure_id, "--out", str(tmp_path), "--quiet"]))
    counts = tracer.per_figure()[1][figure_id]
    assert counts["dynamics.steady_state_lyapunov"] == solves
    assert counts["dynamics.assess_stability"] == stability
    assert counts["dynamics.build_generators"] == generators
    # residual-gate rejections that sweep._evaluate turns into NaN cells
    assert counts["dynamics.steady_state_lyapunov.errors"] == rejected


def test_tail_has_ten_items_beyond_it():
    latencies = list(range(100))
    percentile, value = tail(latencies)
    assert value == 89 and percentile == 90.0
    assert sum(x > value for x in latencies) == 10
    assert tail([3, 1, 2]) == (100.0, 3)

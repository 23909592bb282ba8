"""Reference-figure bundles: registry, structure, determinism."""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import pytest

import steerkit.dynamics
import steerkit.figures
import steerkit.spectra
import steerkit.sweep
from helpers import evolve_oracle, exact_steady_moments
from steerkit import (
    DegenerateConditioningError,
    MomentState,
    PhysicalityError,
    SystemParams,
    UnstableSystemError,
    available_figures,
    build_figure,
    steady_state_closed_form,
    steering_products_reduced,
    vacuum_thermal_state,
)
from steerkit.dynamics import _steady_batch

ALL_IDS = ["2a", "2b", "2c", "2d", "3a", "3b", "4a", "4b", "5a", "5b", "6"]


class Traffic(NamedTuple):
    """A figure build's steady-kernel traffic."""

    calls: int  # batched kernel calls
    rows: int  # rate rows in those calls
    factorizations: int  # LU factorizations, each of one 36 x 36 system


#: the traffic of the figures that minimize (2c, 2d, 6) or repeat rates at several
#: n_th (3b), which the tests below and test_bench_sites.py pin
FIGURE_TRAFFIC = {
    "2c": Traffic(19, 2_497, 2_083),
    "2d": Traffic(16, 1_145, 250),
    "3b": Traffic(1, 522, 261),
    "6": Traffic(27, 1_344, 1_344),
}


def test_registry_lists_all_figures():
    assert available_figures() == ALL_IDS


def test_unknown_figure_raises_with_valid_ids():
    with pytest.raises(ValueError) as excinfo:
        build_figure("7q")
    message = str(excinfo.value)
    assert "7q" in message
    for figure_id in ALL_IDS:
        assert figure_id in message


def test_fig4a_structure():
    bundle = build_figure("4a")
    assert bundle.figure_id == "4a"
    (name, header, rows), = bundle.files
    assert name == "fig4a_spectral_steering.csv"
    assert header == ["omega", "s12", "s21"]
    assert len(rows) == 2401
    omegas = [row[0] for row in rows]
    assert omegas[0] == -12.0 and omegas[-1] == 12.0
    assert omegas == sorted(omegas)
    assert all(row[1] > 0.0 and row[2] > 0.0 for row in rows)

    manifest = bundle.manifest
    assert manifest[0] == "figure: 4a"
    assert "g1 = 6.0" in manifest and "g2 = 10.0" in manifest
    assert any(line.startswith("file: fig4a_") for line in manifest)
    assert any(line.startswith("writer: steerkit ") for line in manifest)


def test_fig4a_deterministic_rebuild():
    first = build_figure("4a")
    second = build_figure("4a")
    assert first.files == second.files
    assert first.manifest == second.manifest


def test_fig5b_structure():
    bundle = build_figure("5b")
    (name, header, rows), = bundle.files
    assert name == "fig5b_zero_frequency_steering_vs_nth.csv"
    assert header == ["n_th", "s12_0", "s21_0"]
    assert len(rows) == 201
    assert rows[0][0] == 0.0
    assert all(math.isfinite(cell) for row in rows for cell in row)


def test_fig2a_time_trace():
    bundle = build_figure("2a")
    (name, header, rows), = bundle.files
    assert header == ["t", "s12", "s21"]
    assert len(rows) == 1200
    assert rows[0][0] == pytest.approx(0.05)
    assert rows[-1][0] == pytest.approx(60.0)
    # the trace passes through a two-way window before settling one-way
    assert any(row[1] < 1.0 and row[2] < 1.0 for row in rows)
    assert rows[-1][1] < 1.0 < rows[-1][2]


def test_light_figures_have_manifest_params():
    # 2c, 2d and 6 run multi-axis minimizations and take tens of seconds;
    # figure 6 is covered separately below.
    for figure_id in ["2a", "2b", "3a", "3b", "4a", "4b", "5a", "5b"]:
        bundle = build_figure(figure_id)
        assert bundle.files, figure_id
        keys = {line.split(" = ")[0] for line in bundle.manifest if " = " in line}
        # every figure pins at least the cavity damping; couplings may be axes
        assert "kappa1" in keys, figure_id


def _record(monkeypatch, module, name) -> list:
    """The arguments of each call of ``module.name``, which still runs."""
    calls = []
    original = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


@pytest.mark.parametrize("figure_id, n_ths", [("2c", 6), ("2d", 3)])
def test_minimized_vs_g2_sweeps_g2_once_per_occupation(monkeypatch, figure_id, n_ths):
    calls = _record(monkeypatch, steerkit.figures, "_minimize")
    (_, _, rows), = build_figure(figure_id).files
    ((specs, swept),) = calls
    assert len(specs) == n_ths and swept.name == "g2" and swept.steps == 26
    assert [spec.base.n_th for spec in specs] == sorted({row[0] for row in rows})
    assert len(rows) == 26 * n_ths
    assert [row[1] for row in rows[:26]] == [float(g2) for g2 in range(5, 31)]


def _count_factorizations(monkeypatch) -> list:
    """The size of each matrix the steady kernel factors by LU, one entry per factorization."""
    factorizations = []
    getrf = steerkit.dynamics._getrf

    def counting(a):
        factorizations.append(len(a))  # not ``a``: holding every block would take 0.5 GB
        return getrf(a)

    monkeypatch.setattr(steerkit.dynamics, "_getrf", counting)
    return factorizations


@pytest.fixture(scope="module")
def fig6():
    """Figure 6, built once: ``(bundle, _minimize calls, kernel calls, LU factorizations,
    screen calls)``."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        searches = _record(monkeypatch, steerkit.figures, "_minimize")
        kernel_calls = _record(monkeypatch, steerkit.sweep, "_steady_batch")
        screens = _record(monkeypatch, steerkit.sweep, "_closed_form")
        factorizations = _count_factorizations(monkeypatch)
        bundle = build_figure("6")
    return bundle, searches, kernel_calls, factorizations, screens


def test_fig6_is_one_lockstep_search(fig6):
    _, searches, kernel_calls, factorizations, screens = fig6
    ((specs,),) = searches
    assert [spec.objective for spec in specs] == ["s12", "s21"] * 24
    # s12 and s21 share each damping's 41 x 41 coarse grid, which the screen scores
    # whole; the first kernel call holds every search's cells that can hold its minimum
    # (41 x 41 each, and 41,831 rows and 23,690 factorizations in all, before the
    # screen), then one call per round, of no point a search had scored
    assert [len(n_th) for *_, n_th in screens] == [41 * 41] * 24
    assert len(kernel_calls[0][0]) == 241
    rows = sum(len(rates) for (rates,) in kernel_calls)
    assert Traffic(len(kernel_calls), rows, len(factorizations)) == FIGURE_TRAFFIC["6"]
    assert set(factorizations) == {36}


@pytest.mark.parametrize("figure_id", ["2c", "2d", "3b"])
def test_occupations_of_one_drift_share_its_factorization(monkeypatch, figure_id):
    # each figure repeats its rates at several n_th, which the drift does not
    # read; one factorization per row made 5,672, 2,351 and 522.  Figs 2c and 2d
    # made 3,390 and 836 before their coarse grids were screened: a screened grid
    # sends only the few cells that can hold a minimum, which share fewer drifts.
    # Their compass searches then made 3,057 and 445, before they stopped sending
    # points they had scored.  Every search's coarse cells now share the first call,
    # where runs of equal drifts cross 32-row blocks (2,081 and 248 before)
    sweep_calls = _record(monkeypatch, steerkit.sweep, "_steady_batch")
    figure_calls = _record(monkeypatch, steerkit.figures, "_steady_batch")
    factorizations = _count_factorizations(monkeypatch)
    build_figure(figure_id)
    kernel_calls = sweep_calls + figure_calls
    rows = sum(len(rates) for (rates,) in kernel_calls)
    assert Traffic(len(kernel_calls), rows, len(factorizations)) == FIGURE_TRAFFIC[figure_id]
    assert set(factorizations) == {36}


@pytest.mark.parametrize("figure_id, n_rows", [("4b", 241), ("5b", 201)])
def test_zero_frequency_figures_evaluate_the_transfer_entries_once(
    monkeypatch, figure_id, n_rows
):
    calls = []
    parts = steerkit.spectra._parts

    def counting(params, omega):
        calls.append(np.shape(omega))
        return parts(params, omega)

    monkeypatch.setattr(steerkit.spectra, "_parts", counting)
    (_, _, rows), = build_figure(figure_id).files
    assert calls == [(1,)] and len(rows) == n_rows


def _products(n1, n2, c) -> tuple[float, float]:
    """``(S12, S21)`` of the moments ``n1, n2, c``; exact moments are rounded once, at the end."""
    a, b = 2 * n1 + 1, 2 * n2 + 1
    return float((a - 4 * c * c / b) ** 2), float((b - 4 * c * c / a) ** 2)


def _exact(params: SystemParams) -> tuple[float, float]:
    """``(S12, S21)`` of the exact steady state of ``params``."""
    n1, n2, _, c, _, _ = exact_steady_moments(params)
    return _products(n1, n2, c)


def _propagated(params: SystemParams, t: float) -> tuple[float, float]:
    """``(S12, S21)`` at time ``t`` from vacuum, by eigenbasis propagation."""
    phi = evolve_oracle(params, vacuum_thermal_state().phi, t)
    return steering_products_reduced(MomentState(phi))


#: figure id -> the ``(value, oracle value)`` pairs of a row; a minimized row that
#: found no steady state (NaN) has none
ORACLES = {
    "2a": lambda t, *s: zip(s, _propagated(SystemParams(1.0, 0.4, 10.0, 20.0, 0.01, 0.0), t)),
    "2b": lambda t, *s: zip(s, _propagated(SystemParams(1.0, 2.4, 12.0, 20.0, 0.01, 0.0), t)),
    "2c": lambda n_th, g2, g1, s12: [] if math.isnan(s12) else [
        (s12, _exact(SystemParams(1.0, 0.4, g1, g2, 0.01, n_th))[0])],
    "2d": lambda n_th, g2, g1, s21: [] if math.isnan(s21) else [
        (s21, _exact(SystemParams(1.0, 2.4, g1, g2, 0.01, n_th))[1])],
    "3a": lambda gm, t, *s: zip(s, _propagated(SystemParams(1.0, 1.0, 6.0, 10.0, gm, 0.0), t)),
    "3b": lambda n_th, gm, *s: zip(s, _exact(SystemParams(1.0, 1.0, 6.0, 10.0, gm, n_th))),
}


def _worst_miss(figure_id: str, rows: list, floor: float = 1.0) -> float:
    """The largest ``|x - e| / max(floor, |e|)`` of a value ``x`` of ``rows`` and its
    oracle's ``e``, NaN if any miss is NaN."""
    pairs = [pair for row in rows for pair in ORACLES[figure_id](*row)]
    return float(np.max([abs(x - e) / max(floor, abs(e)) for x, e in pairs]))


def _moved(rows: list, by: float) -> list:
    """``rows`` with the last value ``x`` of its middle row moved up by ``by`` of max(1, |x|)."""
    rows, k = list(rows), len(rows) // 2
    *head, x = rows[k]
    rows[k] = (*head, x + by * max(1.0, abs(x)))
    return rows


@pytest.mark.parametrize(
    "figure_id, bound",
    # worst misses measured: 6.8e-10, 2.5e-13, 3.1e-7 and 1.3e-14
    [("2a", 1e-6), ("2c", 1e-9), ("3a", 1e-6), ("3b", 1e-9)],
)
def test_figure_rows_equal_their_oracle(figure_id, bound):
    # figs 2a and 3a propagate from vacuum, and their rows must match the eigenbasis
    # propagation; figs 2c and 3b solve the steady state, and their rows must match the
    # exact steady moments, fig 2c's minima at their optima g1_opt
    (_, _, rows), = build_figure(figure_id).files
    assert _worst_miss(figure_id, rows) <= bound
    # negative control: one row's last value moved by ten times the bound
    assert _worst_miss(figure_id, _moved(rows, 10.0 * bound)) > bound


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the steady LU misses S21 at n_th 40, g2 23 by 1.1e-5 relative",
)
def test_fig2d_minima_equal_exact_s21_at_their_optima():
    # relative to the exact S21, which is below 1 on 76 of the 78 rows
    (_, _, rows), = build_figure("2d").files
    assert _worst_miss("2d", rows, floor=0.0) <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="known defect: RK4 misses fig 2b's S12 by 5.0e-3 and S21 by 8.3e-3",
)
def test_fig2b_rows_equal_the_eigenbasis_propagation():
    (_, _, rows), = build_figure("2b").files
    assert _worst_miss("2b", rows) <= 1e-6


def _closed_form_products(params: SystemParams) -> tuple[float, float]:
    """``(S12, S21)`` of the closed-form steady state of ``params``, inf where it is unstable."""
    try:
        moments = steady_state_closed_form(params)
    except UnstableSystemError:
        return math.inf, math.inf
    return _products(moments.n1, moments.n2, moments.c)


def _coarse_least(figure_id: str, row) -> list[tuple[float, float]]:
    """The ``(minimum, least closed-form value on its coarse grid)`` pairs of a fig 2c or
    fig 6 row: over g1 at the row's g2 and n_th, or over g1 and g2 at its gamma_m."""
    if figure_id == "2c":
        n_th, g2, _, s12 = row
        cells = [(g1, g2, 0.4, 0.01, n_th) for g1 in np.linspace(0.5, 30.0, 41).tolist()]
        minima = (s12,)
    else:
        gamma_m, *minima = row
        axis = np.linspace(10.0 / 41, 10.0, 41).tolist()
        cells = [(g1, g2, 1.0, gamma_m, 0.0) for g1 in axis for g2 in axis]
    products = [_closed_form_products(SystemParams(1.0, k2, g1, g2, gm, n_th))
                for g1, g2, k2, gm, n_th in cells]
    return list(zip(minima, map(min, zip(*products))))


def _worst_excess(pairs: list) -> float:
    """The largest ``(minimum - least) / max(1, |least|)`` of ``pairs``, NaN if any is NaN.

    A grid with no stable cell (``least`` inf) bounds nothing, and only there may a
    minimum be NaN (no steady state found); a NaN minimum anywhere else is NaN here.
    """
    return float(np.max([-math.inf if least == math.inf else (x - least) / max(1.0, abs(least))
                         for x, least in pairs]))


@pytest.mark.parametrize("figure_id", ["2c", "6"])
def test_minima_are_no_worse_than_the_closed_form_on_their_coarse_grids(fig6, figure_id):
    # each minimum refines its coarse grid's best cell, so it is no larger than the
    # least closed-form value there, up to the rounding of the kernel
    (_, _, rows), = (fig6[0] if figure_id == "6" else build_figure(figure_id)).files
    pairs = [pair for row in rows for pair in _coarse_least(figure_id, row)]
    assert len(pairs) == {"2c": 156, "6": 48}[figure_id]
    assert _worst_excess(pairs) <= 1e-9
    # negative control: one minimum moved to ten times the bound above its coarse least
    k = len(pairs) // 2
    pairs[k] = (pairs[k][1] + 1e-8 * max(1.0, abs(pairs[k][1])), pairs[k][1])
    assert _worst_excess(pairs) > 1e-9
    # and one reported infeasible (NaN) where its coarse grid has a stable cell
    pairs[k] = (math.nan, pairs[k][1])
    assert not _worst_excess(pairs) <= 1e-9


def test_fig6_minimization_frontier(fig6):
    bundle = fig6[0]
    (name, header, rows), = bundle.files
    assert name == "fig6_minimized_steering_vs_gamma.csv"
    assert header == ["gamma_m", "s12_min", "s21_min"]
    assert len(rows) == 24
    # cavity 2 can steer cavity 1 somewhere in the coupling box at every
    # damping, while steering of cavity 2 dies out at strong damping
    assert all(row[2] < 1.0 for row in rows)
    assert min(row[1] for row in rows) < 1.0 < rows[-1][1]
    assert any("estimated default" in line for line in bundle.manifest)


def test_fig3b_row_without_steady_state_fails_the_build(monkeypatch):
    # one batched solve covers all 522 rows; a row it leaves without a
    # steady state must raise, not become a NaN row
    def batch_with_unstable_row(rates):
        rates = rates.copy()
        rates[300, 2] = 20.0  # g1 > g2 at equal losses: unstable
        return _steady_batch(rates)

    monkeypatch.setattr(steerkit.figures, "_steady_batch", batch_with_unstable_row)
    with pytest.raises(UnstableSystemError):
        build_figure("3b")


#: moment rows ``(n1, n2, nm, Re c, ...)`` that the steering formula refuses, and its errors
REFUSED = [
    ((0.0, 0.0, 0.0, 0.6, 0.0, 0.0), PhysicalityError, "pairing moment exceeds"),
    ((-0.5, 0.2, 0.0, 0.0, 0.0, 0.0), DegenerateConditioningError, "not positive and finite"),
]


@pytest.mark.parametrize("figure_id", ["2a", "3b"])
@pytest.mark.parametrize("row, error, message", REFUSED, ids=["unphysical", "degenerate"])
def test_a_row_the_steering_formula_refuses_fails_the_build(monkeypatch, figure_id, row, error,
                                                            message):
    # each table's steering is one array call; a row it voids (|c|^2 over its bound, or
    # n1 + 1/2 <= 0) must raise the one-row formula's error, not become a NaN cell
    evolve = steerkit.figures._evolve

    def evolve_with_row(params, x0, times):
        x = evolve(params, x0, times)
        x[7] = row
        return x

    def batch_with_row(rates):
        batch = _steady_batch(rates)
        batch.x[300] = row
        return batch

    monkeypatch.setattr(steerkit.figures, "_evolve", evolve_with_row)
    monkeypatch.setattr(steerkit.figures, "_steady_batch", batch_with_row)
    with pytest.raises(error, match=message):
        build_figure(figure_id)

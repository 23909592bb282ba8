"""Reference-figure bundles: registry, structure, determinism."""
from __future__ import annotations

import math

import numpy as np
import pytest

import steerkit.figures
import steerkit.spectra
from helpers import exact_steady_moments
from steerkit import SystemParams, UnstableSystemError, available_figures, build_figure
from steerkit.dynamics import _steady_batch

ALL_IDS = ["2a", "2b", "2c", "2d", "3a", "3b", "4a", "4b", "5a", "5b", "6"]


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


@pytest.mark.parametrize("figure_id, calls", [("2c", 6), ("2d", 3)])
def test_minimized_vs_g2_sweeps_g2_once_per_occupation(monkeypatch, figure_id, calls):
    swept = []
    minimize = steerkit.figures.minimize_steering

    def recording(spec, *args):
        swept.append(args)
        return minimize(spec, *args)

    monkeypatch.setattr(steerkit.figures, "minimize_steering", recording)
    (_, _, rows), = build_figure(figure_id).files
    assert len(swept) == calls and len(rows) == 26 * calls
    assert [row[1] for row in rows[:26]] == [float(g2) for g2 in range(5, 31)]


@pytest.mark.parametrize("figure_id, n_rows", [("4b", 241), ("5b", 201)])
def test_zero_frequency_figures_evaluate_the_transfer_entries_once(
    monkeypatch, figure_id, n_rows
):
    calls = []
    entries = steerkit.spectra._entries

    def counting(params, omega):
        calls.append(np.shape(omega))
        return entries(params, omega)

    monkeypatch.setattr(steerkit.spectra, "_entries", counting)
    (_, _, rows), = build_figure(figure_id).files
    assert calls == [(1,)] and len(rows) == n_rows


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the steady LU misses S21 at n_th 40, g2 23 by 1.1e-5 relative",
)
def test_fig2d_minima_equal_exact_s21_at_their_optima():
    (_, _, rows), = build_figure("2d").files
    worst = 0.0
    for n_th, g2, g1, s21 in rows:
        if math.isnan(s21):
            continue
        n1, n2, _, c, _, _ = exact_steady_moments(SystemParams(1.0, 2.4, g1, g2, 0.01, n_th))
        exact = float(((2 * n2 + 1) - 4 * c * c / (2 * n1 + 1)) ** 2)
        worst = max(worst, abs(s21 - exact) / exact)
    assert worst <= 1e-9


def test_fig6_minimization_frontier():
    bundle = build_figure("6")
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

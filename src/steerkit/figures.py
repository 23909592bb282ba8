"""Frozen reference scenarios reproducible as CSV bundles.

Each recipe deterministically rebuilds the data behind one reference
figure of the study: fixed parameters, fixed grids, no randomness, so a
repeated run is byte-identical.  The CLI exposes these through
``steerkit reproduce <id> --out <dir>`` and writes a manifest describing
every parameter and grid next to the CSVs.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Callable

import numpy as np

from . import __version__
from .dynamics import _evolve, _steady_batch, _steady_row
from .params import SystemParams
from .spectra import _spectrum, spectrum
from .steering import _row_products
from .sweep import AxisSpec, SweepSpec, _minimize

__all__ = ["FigureBundle", "available_figures", "build_figure"]

#: filename, header, rows
CsvSpec = tuple[str, list[str], list[tuple]]
#: a recipe's output: file name suffix, header, rows, manifest lines
Recipe = tuple[str, list[str], list[tuple], list[str]]


@dataclass(frozen=True)
class FigureBundle:
    figure_id: str
    description: str
    files: list[CsvSpec]
    manifest: list[str]


def _param_lines(params: SystemParams) -> list[str]:
    return [
        f"{f.name} = {getattr(params, f.name)!r}"
        for f in fields(params)
        if getattr(params, f.name) is not None
    ]


def _steering_vs_time(params: SystemParams, times: np.ndarray) -> list[tuple]:
    x = _evolve(params, np.array([0.0, 0.0, params.n_th, 0.0, 0.0, 0.0]), times)  # vacuum cavities
    return list(zip(times.tolist(), *_row_products(x)))


def _evolution(params: SystemParams, dt: float, n_steps: int) -> Recipe:
    times = np.arange(1, n_steps + 1) * dt
    manifest = [
        *_param_lines(params),
        f"time grid: dt = {dt!r}, {n_steps} steps up to t = {float(times[-1])!r}",
        "initial state: cavities in vacuum, mechanics thermal at n_th",
    ]
    return "steering_vs_time", ["t", "s12", "s21"], _steering_vs_time(params, times), manifest


def _minimized_vs_g2(objective: str, kappa2: float, n_ths: tuple) -> Recipe:
    swept = AxisSpec("g2", 5.0, 30.0, 26)
    axes = (AxisSpec("g1", 0.5, 30.0, 41),)
    specs = [
        SweepSpec(SystemParams(1.0, kappa2, 1.0, swept.lo, 0.01, float(n_th)), axes, objective)
        for n_th in n_ths
    ]
    rows = []
    for n_th, points in zip(n_ths, _minimize(specs, swept)):
        for point in points:
            g1 = point.best["g1"] if point.feasible else float("nan")
            rows.append((float(n_th), point.swept_value, g1, point.value))
    header = ["n_th", "g2", "g1_opt", f"{objective}_min"]
    manifest = [
        "kappa1 = 1.0",
        f"kappa2 = {kappa2!r}",
        "gamma_m = 0.01",
        f"g2 grid: 5 .. 30 step 1 ({swept.steps} values)",
        f"n_th values: {', '.join(repr(float(n)) for n in n_ths)}",
        "minimized over g1 in [0.5, 30] (41-point coarse grid + pattern search)",
        f"objective: steady-state {objective}",
        "note: g2 span and the g1 search box are estimated defaults",
    ]
    return f"minimized_{objective}_vs_g2", header, rows, manifest


def _fig_3a() -> Recipe:
    dt, n_steps = 0.005, 1600
    times = np.arange(1, n_steps + 1) * dt
    rows = []
    for gamma_m in (6.0, 8.0, 10.0):
        params = SystemParams(1.0, 1.0, 6.0, 10.0, gamma_m, 0.0)
        rows.extend((gamma_m, *row) for row in _steering_vs_time(params, times))
    manifest = [
        "kappa1 = kappa2 = 1.0",
        "g1 = 6.0",
        "g2 = 10.0",
        "n_th = 0.0",
        "gamma_m values: 6.0, 8.0, 10.0",
        f"time grid: dt = {dt!r}, {n_steps} steps up to t = {float(times[-1])!r}",
        "initial state: cavities in vacuum, mechanics in vacuum",
    ]
    return "steering_vs_time", ["gamma_m", "t", "s12", "s21"], rows, manifest


def _fig_3b() -> Recipe:
    gammas = np.arange(20, 281) * 0.05
    rates = np.array(
        [(1.0, 1.0, 6.0, 10.0, gamma_m, n_th) for n_th in (0.0, 0.3) for gamma_m in gammas]
    )
    batch = _steady_batch(rates)
    for k in (~batch.solved).nonzero()[0][:1]:
        _steady_row(batch, k, rates[k])  # raises: the row has no steady state
    rows = list(zip(rates[:, 5].tolist(), rates[:, 4].tolist(), *_row_products(batch.x)))
    manifest = [
        "kappa1 = kappa2 = 1.0",
        "g1 = 6.0",
        "g2 = 10.0",
        "n_th values: 0.0, 0.3",
        f"gamma_m grid: 1.0 .. 14.0 step 0.05 ({gammas.size} values)",
        "note: gamma_m span is an estimated default",
    ]
    return "steering_vs_gamma", ["n_th", "gamma_m", "s12", "s21"], rows, manifest


def _spectral(params: SystemParams, omegas: np.ndarray) -> Recipe:
    table = spectrum(params, omegas)
    rows = list(zip(table.omega.tolist(), table.s12.tolist(), table.s21.tolist()))
    manifest = [
        *_param_lines(params),
        f"omega grid: {float(omegas[0])!r} .. {float(omegas[-1])!r}, "
        f"{omegas.size} points",
    ]
    return "spectral_steering", ["omega", "s12", "s21"], rows, manifest


def _zero_frequency_vs_nth(base: SystemParams, n_ths: np.ndarray) -> Recipe:
    table = _spectrum(base, np.zeros(1), n_ths)
    rows = list(zip(n_ths.tolist(), table.s12.tolist(), table.s21.tolist()))
    manifest = [
        *_param_lines(base),
        f"n_th grid: {float(n_ths[0])!r} .. {float(n_ths[-1])!r}, "
        f"{len(n_ths)} points",
        "evaluated at omega = 0",
        "note: n_th span is an estimated default",
    ]
    return "zero_frequency_steering_vs_nth", ["n_th", "s12_0", "s21_0"], rows, manifest


def _fig_6() -> Recipe:
    gammas = np.geomspace(0.1, 20.0, 24)
    axes = (AxisSpec("g1", 10.0 / 41, 10.0, 41), AxisSpec("g2", 10.0 / 41, 10.0, 41))
    specs = [
        SweepSpec(SystemParams(1.0, 1.0, 1.0, 1.0, float(gamma_m), 0.0), axes, objective)
        for gamma_m in gammas
        for objective in ("s12", "s21")
    ]
    values = [point.value for (point,) in _minimize(specs)]  # NaN where infeasible
    rows = [(float(g), s12, s21) for g, s12, s21 in zip(gammas, values[::2], values[1::2])]
    manifest = [
        "kappa1 = kappa2 = 1.0",
        "n_th = 0.0",
        f"gamma_m grid: geometric, 0.1 .. 20.0, {gammas.size} points",
        "minimized over g1, g2 in (0, 10] (41-point coarse grids + pattern search)",
        "note: gamma_m span and search boxes are estimated defaults",
    ]
    return "minimized_steering_vs_gamma", ["gamma_m", "s12_min", "s21_min"], rows, manifest


#: the weak- and strong-damping sets of figs 4 and 5
_WEAK = SystemParams(1.0, 1.0, 6.0, 10.0, 0.01, 0.0)
_STRONG = SystemParams(1.0, 1.0, 2.0, 3.0, 9.0, 0.0)

#: figure id -> (description, recipe)
_REGISTRY: dict[str, tuple[str, Callable[[], Recipe]]] = {
    "2a": (
        "steering products versus time; loss asymmetry favouring S12",
        partial(_evolution, SystemParams(1.0, 0.4, 10.0, 20.0, 0.01, 0.0), 0.05, 1200),
    ),
    "2b": (
        "steering products versus time; loss asymmetry favouring S21",
        partial(_evolution, SystemParams(1.0, 2.4, 12.0, 20.0, 0.01, 0.0), 0.025, 1200),
    ),
    "2c": (
        "minimized steady S12 over g1 versus g2 at several bath occupations",
        partial(_minimized_vs_g2, "s12", 0.4, (0.0, 100.0, 300.0, 500.0, 700.0, 1000.0)),
    ),
    "2d": (
        "minimized steady S21 over g1 versus g2 at several bath occupations",
        partial(_minimized_vs_g2, "s21", 2.4, (0.0, 20.0, 40.0)),
    ),
    "3a": ("steering products versus time at strong mechanical damping", _fig_3a),
    "3b": (
        "steady steering products versus mechanical damping at two bath occupations",
        _fig_3b,
    ),
    "4a": (
        "spectral steering products at weak mechanical damping",
        partial(_spectral, _WEAK, np.linspace(-12.0, 12.0, 2401)),
    ),
    "4b": (
        "zero-frequency spectral steering versus bath occupation, weak damping",
        partial(_zero_frequency_vs_nth, _WEAK, np.arange(0, 241) * 50.0),
    ),
    "5a": (
        "spectral steering products at strong mechanical damping",
        partial(_spectral, _STRONG, np.linspace(-10.0, 10.0, 2001)),
    ),
    "5b": (
        "zero-frequency spectral steering versus bath occupation, strong damping",
        partial(_zero_frequency_vs_nth, _STRONG, np.arange(0, 201) * 0.01),
    ),
    "6": (
        "minimized steady steering products versus mechanical damping, equal losses",
        _fig_6,
    ),
}


def available_figures() -> list[str]:
    return list(_REGISTRY)


def _lookup(figure_id: str) -> tuple[str, Callable[[], Recipe]]:
    """The registry entry of ``figure_id``; ValueError lists valid ids for unknown ones."""
    try:
        return _REGISTRY[figure_id]
    except KeyError:
        raise ValueError(
            f"unknown figure id {figure_id!r}; valid ids: "
            f"{', '.join(available_figures())}"
        ) from None


def build_figure(figure_id: str) -> FigureBundle:
    """Build the named bundle; ValueError lists valid ids for unknown ones."""
    description, recipe = _lookup(figure_id)
    suffix, header, rows, lines = recipe()
    name = f"fig{figure_id}_{suffix}.csv"
    manifest = [
        f"figure: {figure_id}",
        f"description: {description}",
        *lines,
        f"file: {name} ({len(rows)} rows)",
        f"writer: steerkit {__version__}",
    ]
    return FigureBundle(figure_id, description, [(name, header, rows)], manifest)

"""Deterministic parameter sweeps and derivative-free steering minimization.

Grid sweeps enumerate a Cartesian product of axis values in a fixed order;
minimization runs a coarse grid followed by a compass (coordinate pattern)
search inside the axis box, so results are reproducible bit-for-bit.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .dynamics import (
    _RATE_FIELDS,
    MomentState,
    _rates,
    _steady_batch,
    steady_state_lyapunov,
)
from .errors import EmptySweepWarning, NumericalError, UnstableSystemError
from .params import SystemParams
from .steering import logarithmic_negativity, steering_products_reduced

__all__ = [
    "AxisSpec",
    "SweepSpec",
    "SweepRow",
    "FrontierPoint",
    "grid_sweep",
    "minimize_steering",
]

_SWEEPABLE = _RATE_FIELDS  # every rate; a grid is built as rate rows
_OBJECTIVES = ("s12", "s21", "en")


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: an inclusive linear range with ``steps`` values."""

    name: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if self.name not in _SWEEPABLE:
            raise ValueError(
                f"cannot sweep {self.name!r}; choose one of {_SWEEPABLE}"
            )
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("axis bounds must be finite")
        if self.hi < self.lo:
            raise ValueError("axis needs lo <= hi")
        if self.steps < 1 or (self.steps == 1 and self.hi != self.lo):
            raise ValueError("axis needs steps >= 2 unless lo == hi")

    def values(self) -> np.ndarray:
        if self.steps == 1:
            return np.asarray([self.lo])
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True)
class SweepSpec:
    """Base parameters plus the axes to vary.

    ``ties`` maps a dependent field to a swept/base field it must copy
    (e.g. ``{"kappa2": "kappa1"}`` keeps the losses equal along the sweep).
    ``objective`` selects what :func:`minimize_steering` optimizes: the
    steering products are minimized, entanglement (``"en"``) is maximized.
    """

    base: SystemParams
    axes: tuple[AxisSpec, ...]
    objective: str = "s12"
    ties: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.axes:
            raise ValueError("need at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("axis names must be distinct")
        if self.objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {_OBJECTIVES}")
        for dst, src in self.ties.items():
            if dst not in _SWEEPABLE or src not in _SWEEPABLE:
                raise ValueError(f"tie {dst}={src} uses unknown fields")
            if dst in names:
                raise ValueError(f"tied field {dst!r} cannot also be an axis")


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point; steering fields are NaN when unavailable."""

    values: dict[str, float]
    stable: bool
    s12: float
    s21: float
    e_n: float


@dataclass(frozen=True)
class FrontierPoint:
    """Best objective over the axis box at one value of the swept parameter."""

    swept_value: float
    best: dict[str, float] | None
    value: float
    feasible: bool


def _grid_rates(spec: SweepSpec, columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Rate rows of a grid: ``spec.base`` with value ``columns`` and ties applied.

    Raises :class:`ParameterError` as :class:`SystemParams` would for any
    row: every constraint on a rate is finiteness or a lower bound, so the
    column minima and maxima stand for all rows.
    """
    size = len(next(iter(columns.values())))
    rates = np.repeat(_rates(spec.base), size, axis=0)
    for name, values in columns.items():
        rates[:, _SWEEPABLE.index(name)] = values
    if spec.ties:
        dst = [_SWEEPABLE.index(name) for name in spec.ties]
        src = [_SWEEPABLE.index(name) for name in spec.ties.values()]
        rates[:, dst] = rates[:, src]
    SystemParams(*rates.min(axis=0))
    SystemParams(*rates.max(axis=0))
    return rates


def _steering(moments: MomentState, with_en: bool) -> tuple[float, float, float]:
    """``(s12, s21, e_n)`` of steady moments; E_N is NaN unless ``with_en``.

    All three are NaN when the moments are degenerate or unphysical.
    """
    try:
        s12, s21 = steering_products_reduced(moments)
        e_n = logarithmic_negativity(moments) if with_en else math.nan
    except ValueError:
        return math.nan, math.nan, math.nan
    return s12, s21, e_n


def _evaluate_grid(
    rates: np.ndarray, *, with_en: bool
) -> list[tuple[bool, float, float, float]]:
    """``(stable, s12, s21, e_n)`` per rate row, from one batched steady solve.

    Steering is NaN where there is no steady state: unstable, or rejected by
    the residual gate near the stability boundary.
    """
    batch = _steady_batch(rates)
    nan = (math.nan, math.nan, math.nan)
    return [
        (bool(stable), *(_steering(MomentState(phi), with_en) if solved else nan))
        for phi, stable, solved in zip(batch.phi, batch.stable, batch.solved)
    ]


def _evaluate(params: SystemParams, *, with_en: bool) -> tuple[bool, float, float, float]:
    """:func:`_evaluate_grid` of one point, through :func:`steady_state_lyapunov`."""
    try:
        moments = steady_state_lyapunov(params)
    except UnstableSystemError:
        return False, math.nan, math.nan, math.nan
    except (NumericalError, ValueError):
        # near the stability boundary the residual gate can reject the
        # solve; report the cell as unavailable rather than aborting
        return True, math.nan, math.nan, math.nan
    return (True, *_steering(moments, with_en))


def grid_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the full Cartesian grid, last axis varying fastest.

    The whole grid is one :func:`_steady_batch` call.  Emits
    :class:`EmptySweepWarning` when no grid point yielded a steady state
    (all rows NaN).
    """
    names = [axis.name for axis in spec.axes]
    grid = np.array(list(itertools.product(*(axis.values() for axis in spec.axes))))
    cells = _evaluate_grid(_grid_rates(spec, dict(zip(names, grid.T))), with_en=True)
    rows = [
        SweepRow(dict(zip(names, map(float, combo))), *cell)
        for combo, cell in zip(grid, cells)
    ]
    if all(math.isnan(row.s12) for row in rows):
        warnings.warn(
            "no sweep point produced a steady state", EmptySweepWarning, stacklevel=2
        )
    return rows


def _compass(
    fn: Callable[[np.ndarray], float],
    x0: np.ndarray,
    fx0: float,
    step0: float,
    tol: float = 1e-4,
) -> tuple[np.ndarray, float]:
    """Coordinate pattern search on the unit box, strict-descent, halving."""
    x, fx = x0.copy(), fx0
    step = step0
    while step >= tol:
        improved = False
        for i in range(x.size):
            for sign in (1.0, -1.0):
                trial = x.copy()
                trial[i] = min(max(trial[i] + sign * step, 0.0), 1.0)
                if trial[i] == x[i]:
                    continue
                f_trial = fn(trial)
                if f_trial < fx:
                    x, fx = trial, f_trial
                    improved = True
        if not improved:
            step /= 2.0
    return x, fx


def minimize_steering(
    spec: SweepSpec, swept: AxisSpec | None = None
) -> list[FrontierPoint]:
    """Optimize the objective over the axis box, once per swept value.

    For each value of ``swept`` (or just once when it is None) the
    objective is evaluated on the coarse axis grid and the best cell is
    refined by compass search clamped to the axis box; termination at
    step < 1e-4 of each axis span.  Infeasible frontier points (no steady
    state anywhere on the grid) are flagged rather than raised.

    For the ``"en"`` objective the reported ``value`` is the maximized
    logarithmic negativity itself.
    """
    with_en = spec.objective == "en"
    sign = -1.0 if with_en else 1.0
    index = {"s12": 1, "s21": 2, "en": 3}[spec.objective]
    names = [axis.name for axis in spec.axes]
    los = np.asarray([axis.lo for axis in spec.axes])
    spans = np.asarray([axis.hi - axis.lo for axis in spec.axes])

    def rates(xs: np.ndarray, extra: dict[str, float]) -> np.ndarray:
        columns = dict(zip(names, (los + xs * spans).T))
        columns.update({name: np.full(len(xs), value) for name, value in extra.items()})
        return _grid_rates(spec, columns)

    def objective(cell: tuple[bool, float, float, float]) -> float:
        return math.inf if math.isnan(cell[index]) else sign * cell[index]

    def solve_one(extra: dict[str, float]) -> tuple[dict[str, float] | None, float, bool]:
        grids = [
            (axis.values() - axis.lo) / (axis.hi - axis.lo)
            if axis.hi > axis.lo
            else np.asarray([0.0])
            for axis in spec.axes
        ]
        xs = np.array(list(itertools.product(*grids)))
        f = [objective(cell) for cell in _evaluate_grid(rates(xs, extra), with_en=with_en)]
        best = int(np.argmin(f))
        if not math.isfinite(f[best]):
            return None, math.nan, False
        step0 = max(
            1.0 / (axis.steps - 1) if axis.steps > 1 else 1.0 for axis in spec.axes
        )
        x, fx = _compass(
            lambda x: objective(
                _evaluate(SystemParams(*rates(x[None], extra)[0]), with_en=with_en)
            ),
            xs[best],
            f[best],
            step0,
        )
        return dict(zip(names, map(float, los + x * spans))), sign * fx, True

    points: list[FrontierPoint] = []
    if swept is None:
        best, value, feasible = solve_one({})
        points.append(FrontierPoint(math.nan, best, value, feasible))
    else:
        for swept_value in swept.values():
            best, value, feasible = solve_one({swept.name: float(swept_value)})
            points.append(
                FrontierPoint(float(swept_value), best, value, feasible)
            )
    if not any(point.feasible for point in points):
        warnings.warn(
            "no feasible point on any frontier slice", EmptySweepWarning, stacklevel=2
        )
    return points

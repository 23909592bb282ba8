"""Deterministic parameter sweeps and derivative-free steering minimization.

Grid sweeps enumerate a Cartesian product of axis values in a fixed order;
minimization runs a coarse grid followed by a compass (coordinate pattern)
search inside the axis box, so results are reproducible bit-for-bit.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .dynamics import steady_state_lyapunov
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

_SWEEPABLE = ("kappa1", "kappa2", "g1", "g2", "gamma_m", "n_th")
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


def _with_values(spec: SweepSpec, values: Mapping[str, float]) -> SystemParams:
    params = replace(spec.base, **dict(values))
    if spec.ties:
        params = replace(
            params, **{dst: getattr(params, src) for dst, src in spec.ties.items()}
        )
    return params


def _evaluate(params: SystemParams, *, with_en: bool) -> tuple[bool, float, float, float]:
    """``(stable, s12, s21, e_n)`` of one cell; NaN steering when unavailable.

    E_N is computed only ``with_en`` and is NaN otherwise.
    """
    try:
        moments = steady_state_lyapunov(params)
        s12, s21 = steering_products_reduced(moments)
        e_n = math.nan
        if with_en:
            e_n = logarithmic_negativity(moments)
    except UnstableSystemError:
        return False, math.nan, math.nan, math.nan
    except (NumericalError, ValueError):
        # near the stability boundary the residual gate can reject the
        # solve; report the cell as unavailable rather than aborting
        return True, math.nan, math.nan, math.nan
    return True, s12, s21, e_n


def grid_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the full Cartesian grid, last axis varying fastest.

    Emits :class:`EmptySweepWarning` when no grid point yielded a steady
    state (all rows NaN).
    """
    names = [axis.name for axis in spec.axes]
    combos = itertools.product(*(axis.values() for axis in spec.axes))
    assignments = (dict(zip(names, map(float, combo))) for combo in combos)
    rows = [
        SweepRow(a, *_evaluate(_with_values(spec, a), with_en=True))
        for a in assignments
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

    def objective(assignment: Mapping[str, float]) -> float:
        value = _evaluate(_with_values(spec, assignment), with_en=with_en)[index]
        return math.inf if math.isnan(value) else sign * value

    def scaled_to_assignment(x: np.ndarray, extra: dict[str, float]) -> dict[str, float]:
        values = dict(zip(names, map(float, los + x * spans)))
        values.update(extra)
        return values

    def solve_one(extra: dict[str, float]) -> tuple[dict[str, float] | None, float, bool]:
        best_x, best_f = None, math.inf
        grids = [
            (axis.values() - axis.lo) / (axis.hi - axis.lo)
            if axis.hi > axis.lo
            else np.asarray([0.0])
            for axis in spec.axes
        ]
        for combo in itertools.product(*grids):
            x = np.asarray(combo)
            f = objective(scaled_to_assignment(x, extra))
            if f < best_f:
                best_x, best_f = x, f
        if best_x is None or not math.isfinite(best_f):
            return None, math.nan, False
        step0 = max(
            1.0 / (axis.steps - 1) if axis.steps > 1 else 1.0 for axis in spec.axes
        )
        x, f = _compass(
            lambda xx: objective(scaled_to_assignment(xx, extra)), best_x, best_f, step0
        )
        return scaled_to_assignment(x, {}), sign * f, True

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

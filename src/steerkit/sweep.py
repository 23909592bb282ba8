"""Deterministic parameter sweeps and derivative-free steering minimization.

Grid sweeps enumerate a Cartesian product of axis values in a fixed order;
minimization runs a coarse grid followed by a compass (coordinate pattern)
search inside the axis box, so results are reproducible bit-for-bit.
"""
from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Generator, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import (
    _RATE_FIELDS,
    MomentState,
    _rates,
    _steady_batch,
    steady_state_lyapunov,  # not called here; bench/test_bench.py reads this binding
)
from .errors import DegenerateConditioningError, EmptySweepWarning, PhysicalityError
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
#: compass step (in unit-box coordinates) below which a search stops
_COMPASS_TOL = 1e-4


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
        if not isinstance(self.steps, (int, np.integer)):
            raise ValueError(f"axis steps must be an integer, not {self.steps!r}")
        if self.steps < 1 or (self.steps == 1 and self.hi != self.lo):
            raise ValueError("axis needs steps >= 2 unless lo == hi")

    def values(self) -> np.ndarray:
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
            if src in self.ties:
                raise ValueError(f"tie {dst}={src} copies tied field {src!r}")


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


def _evaluate(phi, stable, solved, *, with_en: bool) -> tuple[bool, float, float, float]:
    """``(stable, s12, s21, e_n)`` of one kernel row; E_N is NaN unless ``with_en``.

    Steering is NaN where there is no steady state (unstable, or rejected
    by the residual gate near the stability boundary) and where the
    moments are degenerate or unphysical.
    """
    if solved:
        moments = MomentState(phi)
        try:
            s12, s21 = steering_products_reduced(moments)
            return True, s12, s21, (logarithmic_negativity(moments) if with_en else math.nan)
        except (DegenerateConditioningError, PhysicalityError):
            pass
    return bool(stable), math.nan, math.nan, math.nan


def _evaluate_grid(
    rates: np.ndarray, with_en: Iterable[bool]
) -> list[tuple[bool, float, float, float]]:
    """:func:`_evaluate` of every rate row, from one batched steady solve;
    ``with_en`` holds each row's flag."""
    batch = _steady_batch(rates)
    return [
        _evaluate(*row, with_en=en)
        for *row, en in zip(batch.phi, batch.stable, batch.solved, with_en)
    ]


def grid_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the full Cartesian grid, last axis varying fastest.

    The whole grid is one :func:`_steady_batch` call.  Emits
    :class:`EmptySweepWarning` when no grid point yielded a steady state
    (all rows NaN).
    """
    names = [axis.name for axis in spec.axes]
    grid = np.array(list(itertools.product(*(axis.values() for axis in spec.axes))))
    cells = _evaluate_grid(_grid_rates(spec, dict(zip(names, grid.T))), itertools.repeat(True))
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
    x0: np.ndarray, fx0: float, step0: float, free: np.ndarray
) -> Generator[np.ndarray, float, tuple[np.ndarray, float]]:
    """Coordinate pattern search on the unit box, strict-descent, halving.

    Only the coordinates ``free`` move.  Yields each trial point, is sent
    its objective and returns ``(x, fx)``.
    """
    x, fx = x0.copy(), fx0
    step = step0
    while step >= _COMPASS_TOL:
        improved = False
        for i in free:
            for sign in (1.0, -1.0):
                trial = x.copy()
                trial[i] = min(max(trial[i] + sign * step, 0.0), 1.0)
                if trial[i] == x[i]:
                    continue
                f_trial = yield trial
                if f_trial < fx:
                    x, fx = trial, f_trial
                    improved = True
        if not improved:
            step /= 2.0
    return x, fx


def _check_swept(spec: SweepSpec, swept: AxisSpec | None) -> None:
    """Reject a swept field that an axis or a tie would overwrite."""
    if swept is not None and swept.name in [*spec.ties, *(a.name for a in spec.axes)]:
        raise ValueError(f"swept field {swept.name!r} cannot also be an axis or a tied field")


def minimize_steering(
    spec: SweepSpec, swept: AxisSpec | None = None
) -> list[FrontierPoint]:
    """Optimize the objective over the axis box, once per swept value.

    For each value of ``swept`` (or just once when it is None) the
    objective is evaluated on the coarse axis grid, one kernel call per
    slice, and the best cell is refined by compass search clamped to the
    axis box; termination at step < 1e-4 of each axis span.  The searches
    of all slices advance in lockstep, each round one kernel call with one
    trial row per live search.  Axes with ``lo == hi`` stay fixed.
    Infeasible frontier points (no steady state anywhere on the grid) are
    flagged rather than raised; :class:`EmptySweepWarning` is emitted when
    every point is infeasible.

    For the ``"en"`` objective the reported ``value`` is the maximized
    logarithmic negativity itself.  This is the one-spec call of
    :func:`_minimize`, which runs several specs' searches in lockstep and
    gives each spec these same bits.
    """
    (points,) = _minimize([spec], swept)
    return points


#: the :func:`_evaluate` field each objective reads
_COLUMN = {"s12": 1, "s21": 2, "en": 3}


class _Box(NamedTuple):
    """A spec's search box: ``los + x * spans`` maps unit points ``x`` to axis values."""

    los: np.ndarray
    spans: np.ndarray
    grid: np.ndarray  # the coarse grid in unit coordinates, one point per row
    free: np.ndarray  # the coordinates a compass search moves
    step0: float


def _box(spec: SweepSpec) -> _Box:
    units = [
        (axis.values() - axis.lo) / (axis.hi - axis.lo) if axis.hi > axis.lo else np.asarray([0.0])
        for axis in spec.axes
    ]
    spans = np.asarray([axis.hi - axis.lo for axis in spec.axes])
    free = np.flatnonzero(spans)
    return _Box(
        np.asarray([axis.lo for axis in spec.axes]),
        spans,
        np.array(list(itertools.product(*units))),
        free,
        max((1.0 / (spec.axes[i].steps - 1) for i in free), default=0.0),
    )


def _minimize(
    specs: Sequence[SweepSpec], swept: AxisSpec | None = None
) -> list[list[FrontierPoint]]:
    """:func:`minimize_steering` of every spec in ``specs`` over the same ``swept`` axis.

    The compass searches of every slice of every spec advance in lockstep:
    each round is one :func:`_evaluate_grid` call with one row per live
    search.  Specs that differ only in a steering objective share each
    slice's coarse grid call; an ``"en"`` spec shares only with ``"en"``
    specs, because an unphysical state voids a row's steering products
    when E_N is computed.  Coarse calls stay one slice at a time.  Every
    kernel row has the bits of its lone solve, so each spec's points are
    the bits of its own :func:`minimize_steering` call, and each spec with
    no feasible point warns once.
    """
    for spec in specs:
        _check_swept(spec, swept)
    swept_values = [math.nan] if swept is None else list(map(float, swept.values()))
    boxes = [_box(spec) for spec in specs]
    names = [[axis.name for axis in spec.axes] for spec in specs]

    def evaluate(trials: list[tuple[int, int, np.ndarray]]) -> list[tuple]:
        """The cells of ``(spec, slice, unit point)`` trials, from one kernel call."""
        blocks = []
        for s, group in itertools.groupby(trials, key=lambda trial: trial[0]):
            group = list(group)
            box, xs = boxes[s], np.array([x for _, _, x in group])
            columns = dict(zip(names[s], (box.los + xs * box.spans).T))
            if swept is not None:
                columns[swept.name] = np.asarray([swept_values[k] for _, k, _ in group])
            blocks.append(_grid_rates(specs[s], columns))
        with_en = [specs[s].objective == "en" for s, _, _ in trials]
        return _evaluate_grid(np.concatenate(blocks), with_en)

    signs = [-1.0 if spec.objective == "en" else 1.0 for spec in specs]

    def objective(s: int, cell: tuple) -> float:
        """What the search of ``specs[s]`` minimizes: inf where NaN, -E_N for ``"en"``."""
        value = cell[_COLUMN[specs[s].objective]]
        return math.inf if math.isnan(value) else signs[s] * value

    groups: dict[tuple, list[int]] = {}
    for s, spec in enumerate(specs):
        key = (spec.base, spec.axes, frozenset(spec.ties.items()), spec.objective == "en")
        groups.setdefault(key, []).append(s)
    sends = []  # (spec, slice, its search, the objective of its last trial)
    for members in groups.values():
        grid = boxes[members[0]].grid
        for k in range(len(swept_values)):
            cells = evaluate([(members[0], k, x) for x in grid])
            for s in members:
                f = [objective(s, cell) for cell in cells]
                best = int(np.argmin(f))
                if math.isfinite(f[best]):
                    search = _compass(grid[best], f[best], boxes[s].step0, boxes[s].free)
                    sends.append((s, k, search, None))
    sends.sort(key=lambda send: send[:2])
    points = [
        [FrontierPoint(value, None, math.nan, False) for value in swept_values] for _ in specs
    ]
    while sends:
        live = []
        for s, k, search, f_trial in sends:
            try:
                live.append((s, k, search, search.send(f_trial)))
            except StopIteration as stop:
                x, fx = stop.value
                box = boxes[s]
                coords = dict(zip(names[s], map(float, box.los + x * box.spans)))
                points[s][k] = FrontierPoint(swept_values[k], coords, signs[s] * fx, True)
        if not live:
            break
        cells = evaluate([(s, k, trial) for s, k, _, trial in live])
        sends = [(s, k, search, objective(s, cell)) for (s, k, search, _), cell in zip(live, cells)]
    for spec_points in points:
        if not any(point.feasible for point in spec_points):
            warnings.warn(
                "no feasible point on any frontier slice", EmptySweepWarning, stacklevel=3
            )
    return points

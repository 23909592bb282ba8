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
    _rates,
    _steady_batch,
    steady_state_lyapunov,  # not called here; bench/test_bench.py reads this binding
)
from .errors import DegenerateConditioningError, EmptySweepWarning, PhysicalityError
from .params import SystemParams
from .steering import _steering

__all__ = [
    "AxisSpec",
    "SweepSpec",
    "SweepRow",
    "FrontierPoint",
    "grid_sweep",
    "minimize_steering",
]

_SWEEPABLE = _RATE_FIELDS  # every rate; a grid is built as rate rows
_OBJECTIVES = ("s12", "s21", "en")  # in the order of :func:`_evaluate`'s fields after stable
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


def _sources(spec: SweepSpec) -> list[int]:
    """The column each rate of ``spec``'s rows copies: its tie's source, or itself."""
    return [_SWEEPABLE.index(spec.ties.get(name, name)) for name in _SWEEPABLE]


def _tied(rates: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Rate rows with each column copied from its ``sources`` column (one row of sources
    for all rows, or one each), so each tie follows its source.

    Raises :class:`ParameterError` as :class:`SystemParams` would for any
    row: every constraint on a rate is finiteness or a lower bound, so the
    column minima and maxima stand for all rows.
    """
    rates = rates[np.arange(len(rates))[:, None], sources]
    SystemParams(*rates.min(axis=0))
    SystemParams(*rates.max(axis=0))
    return rates


def _evaluate(stable, solved, n1, n2, c, *, with_en: bool) -> tuple[bool, float, float, float]:
    """``(stable, s12, s21, e_n)`` of a kernel row's ``(n1, n2, |c|)``; E_N NaN unless ``with_en``.

    Steering is NaN where there is no steady state (unstable, or rejected
    by the residual gate near the stability boundary) and where the
    moments are degenerate or unphysical; E_N alone is also NaN where the
    partial transpose is degenerate.
    """
    if solved:
        try:
            return (True, *_steering(n1, n2, c, with_en))
        except (DegenerateConditioningError, PhysicalityError):
            pass
    return bool(stable), math.nan, math.nan, math.nan


def _evaluate_grid(
    rates: np.ndarray, with_en: Iterable[bool]
) -> list[tuple[bool, float, float, float]]:
    """:func:`_evaluate` of every rate row, from one batched steady solve that
    each column is read from once; ``with_en`` holds each row's flag."""
    batch = _steady_batch(rates)
    columns = batch.x[:, [0, 1, 3]].T.tolist()
    return [
        _evaluate(stable, solved, n1, n2, abs(c), with_en=en)
        for stable, solved, n1, n2, c, en in zip(batch.stable, batch.solved, *columns, with_en)
    ]


def grid_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the full Cartesian grid, last axis varying fastest.

    The whole grid is one :func:`_steady_batch` call.  Emits
    :class:`EmptySweepWarning` when no grid point yielded a steady state
    (all rows NaN).
    """
    names = [axis.name for axis in spec.axes]
    grid = np.array(list(itertools.product(*(axis.values() for axis in spec.axes))))
    rates = np.repeat(_rates(spec.base), len(grid), axis=0)
    rates[:, [_SWEEPABLE.index(name) for name in names]] = grid
    cells = _evaluate_grid(_tied(rates, np.array(_sources(spec))), itertools.repeat(True))
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


class _Box(NamedTuple):
    """A search box: a search's rate rows are ``origin + x * spans`` at unit points ``x``."""

    spans: np.ndarray
    grid: np.ndarray  # the coarse grid in unit coordinates, one point per row
    free: np.ndarray  # the columns a compass search moves, in axis order
    step0: float


def _box(axes: tuple[AxisSpec, ...]) -> _Box:
    columns = [_SWEEPABLE.index(axis.name) for axis in axes]
    units = [
        (axis.values() - axis.lo) / (axis.hi - axis.lo) if axis.hi > axis.lo else np.asarray([0.0])
        for axis in axes
    ]
    spans = np.zeros(len(_SWEEPABLE))
    spans[columns] = [axis.hi - axis.lo for axis in axes]
    grid = np.zeros((math.prod(map(len, units)), len(_SWEEPABLE)))
    grid[:, columns] = list(itertools.product(*units))
    free = [i for i, axis in enumerate(axes) if axis.hi > axis.lo]
    step0 = max((1.0 / (axes[i].steps - 1) for i in free), default=0.0)
    return _Box(spans, grid, np.asarray(columns)[free], step0)


def _minimize(
    specs: Sequence[SweepSpec], swept: AxisSpec | None = None
) -> list[list[FrontierPoint]]:
    """:func:`minimize_steering` of every spec in ``specs`` over the same ``swept`` axis.

    The compass searches of every slice of every spec advance in lockstep,
    one :func:`_evaluate_grid` call per round.  Every kernel row is
    :func:`_tied` of ``origins[s, k] + x * spans[s]``, spec ``s``'s row at
    slice ``k`` and unit point ``x``.  Specs that differ only in their
    objective share each slice's coarse grid call, which computes E_N when
    any of them reads it; E_N never changes a row's steering products.
    Coarse calls stay one slice at a time.  Every kernel row has the bits
    of its lone solve, so each spec's points are the bits of its own
    :func:`minimize_steering` call, and each spec with no feasible point
    warns once.
    """
    for spec in specs:
        _check_swept(spec, swept)
    swept_values = [math.nan] if swept is None else list(map(float, swept.values()))
    shared = {axes: _box(axes) for axes in dict.fromkeys(spec.axes for spec in specs)}
    boxes = [shared[spec.axes] for spec in specs]  # specs on the same axes share one box
    slices = [{}] if swept is None else [{swept.name: value} for value in swept_values]
    origins = np.array([  # each spec's base with every axis at lo, the swept field at slice k
        [_rates(spec.base.with_(**{a.name: a.lo for a in spec.axes}, **at))[0] for at in slices]
        for spec in specs])
    spans, sources = np.array([box.spans for box in boxes]), np.array(list(map(_sources, specs)))
    with_en = np.array([spec.objective == "en" for spec in specs])
    sign = np.where(with_en, -1.0, 1.0)
    column = np.array([1 + _OBJECTIVES.index(spec.objective) for spec in specs])

    def evaluate(s, k, xs: np.ndarray, en) -> np.ndarray:
        """The cells of unit points ``xs`` of specs ``s`` at slices ``k``, from one kernel
        call, with E_N where ``en``."""
        rates = _tied(origins[s, k] + xs * spans[s], sources[s])
        return np.array(_evaluate_grid(rates, np.broadcast_to(en, len(rates))))

    def score(s, cells: np.ndarray) -> np.ndarray:
        """What the searches of specs ``s`` minimize: inf where NaN, -E_N for ``"en"``."""
        values = cells[np.arange(len(cells)), column[s]]
        return np.where(np.isnan(values), np.inf, sign[s] * values)

    groups: dict[tuple, list[int]] = {}
    for s, spec in enumerate(specs):
        key = (spec.base, spec.axes, frozenset(spec.ties.items()))
        groups.setdefault(key, []).append(s)
    sends = []  # (spec, slice, its search, the objective of its last trial)
    for members in groups.values():
        grid = boxes[members[0]].grid
        for k in range(len(swept_values)):
            cells = evaluate(members[0], k, grid, with_en[members].any())
            for s in members:
                f = score(s, cells)
                best = int(np.argmin(f))
                if np.isfinite(f[best]):
                    search = _compass(grid[best], float(f[best]), boxes[s].step0, boxes[s].free)
                    sends.append((s, k, search, None))
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
                values = dict(zip(_SWEEPABLE, origins[s, k] + x * spans[s]))
                coords = {axis.name: float(values[axis.name]) for axis in specs[s].axes}
                points[s][k] = FrontierPoint(swept_values[k], coords, float(sign[s] * fx), True)
        if not live:
            break
        at, slices, xs = map(np.array, zip(*((s, k, trial) for s, k, _, trial in live)))
        f = score(at, evaluate(at, slices, xs, with_en[at])).tolist()
        sends = [(s, k, search, fs) for (s, k, search, _), fs in zip(live, f)]
    for spec_points in points:
        if not any(point.feasible for point in spec_points):
            warnings.warn(
                "no feasible point on any frontier slice", EmptySweepWarning, stacklevel=3
            )
    return points

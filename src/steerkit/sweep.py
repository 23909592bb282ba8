"""Deterministic parameter sweeps and derivative-free steering minimization.

Grid sweeps enumerate a Cartesian product of axis values in a fixed order;
minimization runs a coarse grid followed by a compass (coordinate pattern)
search inside the axis box, so results are reproducible bit-for-bit.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Generator, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import (
    _RATE_FIELDS,
    _closed_form,
    _judge,
    _rates,
    _steady_batch,
    steady_state_lyapunov,  # not called here; bench/test_bench.py reads this binding
)
from .errors import DegenerateConditioningError, EmptySweepWarning, PhysicalityError
from .params import SystemParams
from .steering import _steering, _steering_columns

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
#: a coarse cell screened within this of the least, times max(1, |least|), goes to the kernel;
#: the screen's worst gap to it on 98,473 figure and frontier cells: 2.1e-5 of max(1, |f|)
_SCREEN_TOL = 1e-3


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


def _validated(rates: np.ndarray) -> np.ndarray:
    """``rates``, once :class:`SystemParams` has taken their column minima and maxima.

    Raises :class:`ParameterError` as :class:`SystemParams` would for any
    row: every constraint on a rate is finiteness or a lower bound, so the
    column minima and maxima stand for all rows.
    """
    SystemParams(*rates.min(axis=0))
    SystemParams(*rates.max(axis=0))
    return rates


# bench/tracer.py wraps this name to count the kernel's rows and their finite objectives
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
    axes = np.meshgrid(*(axis.values() for axis in spec.axes), indexing="ij")
    grid = np.stack(axes, axis=-1).reshape(-1, len(names))
    rates = np.repeat(_rates(spec.base), len(grid), axis=0)
    rates[:, [_SWEEPABLE.index(name) for name in names]] = grid
    cells = _evaluate_grid(_validated(rates[:, _sources(spec)]), [True] * len(grid))
    rows = [SweepRow(dict(zip(names, combo)), *cell) for combo, cell in zip(grid.tolist(), cells)]
    if all(math.isnan(row.s12) for row in rows):
        warnings.warn(
            "no sweep point produced a steady state", EmptySweepWarning, stacklevel=2
        )
    return rows


#: what a search asks of the kernel: the unit points it needs scored, and a lazy look-ahead
#: of the points it can use next, which :func:`_minimize` takes only for a lone search
_Request = tuple[Sequence, Iterator[list[float]]]


def _compass(
    x0: np.ndarray, fx0: float, step0: float, free: np.ndarray
) -> Generator[_Request, Sequence[float], tuple[list[float], float]]:
    """Coordinate pattern search on the unit box, strict-descent, halving.

    Only the coordinates ``free`` move.  A poll tries ``+step`` then ``-step`` on each
    of them in turn, moving to each trial that improves; the step halves after a poll
    that did not improve, and the search returns ``(x, fx)`` once it falls below
    :data:`_COMPASS_TOL`.  Points are lists of floats; a trial at a point scored (the
    start, or a trial read) is skipped, as it cannot beat ``fx``, which only falls.
    Tuples key them exactly: a trial is ``min(max(x ± step, 0.0), 1.0)`` of a point
    with no negative coordinate, so none is -0.0 (equal to 0.0) or NaN.  Each yield is a
    :data:`_Request`: ``[trial]``, the next trial, and a lazy iterator of the trials that
    follow it if it and they fail, through the end of the second poll after its own.
    The search is sent the objectives of that trial and of as many of the following
    ones as the caller took, in order, and moves to the first that improves: it accepts
    the points, and returns the ``(x, fx)``, of sending one trial at a time.
    :func:`_minimize` takes them all for a lone search; crowded rounds send one trial
    per search.
    """
    moves = [(int(i), sign) for i in free for sign in (1.0, -1.0)]
    x, fx, state = x0.tolist(), fx0, (0, step0, 0, False)  # poll, step, next move, improved
    seen = {tuple(x)}  # the points scored, and the trials planned this round
    while (first := _next_trial(x, state, moves, seen)) is not None:
        plan = [first]  # each trial taken, with the state that follows if it fails
        values = yield [first[0]], _ahead(x, first, moves, plan, seen)
        for read, ((trial, state), f_trial) in enumerate(zip(plan, values), 1):
            if f_trial < fx:
                x, fx, state = trial, f_trial, (*state[:3], True)
                break
        seen.difference_update(tuple(trial) for trial, _ in plan[read:])  # planned, not read
    return x, fx


def _next_trial(
    x: list[float], state: tuple, moves: list, seen: set, last_poll: float = math.inf
) -> tuple[list[float], tuple] | None:
    """The next trial of a compass search at ``x`` in ``state``, with the state that
    follows if it fails, or None once the step falls below :data:`_COMPASS_TOL` or the
    poll passes ``last_poll``, before the trial is built.

    Moves to a point in ``seen`` (``x`` where the box clamps) are skipped; the trial returned
    joins it.  A poll's end halves the step unless the poll improved, and resets the flag.
    """
    poll, step, move, improved = state
    while True:
        if move == len(moves):
            poll, step, move, improved = poll + 1, step if improved else step / 2.0, 0, False
        if step < _COMPASS_TOL or poll > last_poll:
            return None
        i, sign = moves[move]
        move += 1
        trial = x.copy()
        trial[i] = min(max(trial[i] + sign * step, 0.0), 1.0)
        if (key := tuple(trial)) not in seen:
            seen.add(key)
            return trial, (poll, step, move, improved)


def _ahead(x: list, first: tuple, moves: list, plan: list, seen: set) -> Iterator[list[float]]:
    """Lazily, the trials that follow ``first`` if it and they fail, through the end
    of the second poll after its own; each one taken is appended to ``plan``."""
    while planned := _next_trial(x, plan[-1][1], moves, seen, first[1][0] + 2):
        plan.append(planned)
        yield planned[0]


def _check_swept(spec: SweepSpec, swept: AxisSpec | None) -> None:
    """Reject a swept field that an axis or a tie would overwrite."""
    if swept is not None and swept.name in [*spec.ties, *(a.name for a in spec.axes)]:
        raise ValueError(f"swept field {swept.name!r} cannot also be an axis or a tied field")


def minimize_steering(
    spec: SweepSpec, swept: AxisSpec | None = None
) -> list[FrontierPoint]:
    """Optimize the objective over the axis box, once per swept value.

    For each value of ``swept`` (or just once when it is None) the objective is
    ranked on the coarse axis grid by a screen, the cells that can hold its optimum
    are checked on the kernel, and the best is refined by compass search clamped to
    the axis box; termination at step < 1e-4 of each axis span.  The searches of all
    slices advance in lockstep, one kernel call per round: a lone search sends the
    rest of its poll and the two after it, crowded rounds one trial per search.  No
    search sends a point it scored, and each accepts the points of sending one trial
    at a time.  Axes with ``lo == hi`` stay fixed.  Infeasible frontier points (no
    steady state anywhere on the grid) are flagged rather than raised;
    :class:`EmptySweepWarning` is emitted when every point is infeasible.

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
    grid[:, columns] = np.stack(np.meshgrid(*units, indexing="ij"), axis=-1).reshape(-1, len(axes))
    free = [i for i, axis in enumerate(axes) if axis.hi > axis.lo]
    step0 = max((1.0 / (axes[i].steps - 1) for i in free), default=0.0)
    return _Box(spans, grid, np.asarray(columns)[free], step0)


def _search(
    box: _Box, g: np.ndarray, stable: np.ndarray, two_nu: np.ndarray | None
) -> Generator[_Request, Sequence[float], tuple[list[float], float] | None]:
    """One problem's search, and the one screen rule: its screened coarse cells, then compass.

    ``g`` is the grid's screened scores and ``two_nu`` its screened ``2 nu`` (None unless the
    objective is ``"en"``).  It requests its ``stable`` cells within ``tol = _SCREEN_TOL *
    max(1, |lo|)`` of the least, ``lo``, or unscored, but of the flat ones (``2 nu >= exp(tol
    / 2)``: E_N is 0 with margin, so they tie at -0.0) only the first, the only possible
    argmin.  A flat cell must score exactly -0.0, any other scored one within ``tol / 2``; on
    a miss it requests every stable cell.  It returns :func:`_compass`'s ``(x, fx)`` from the
    first least-scored cell, or None: at once with no cell to send, or where none scored.
    """
    tol = _SCREEN_TOL * max(1.0, abs(g.min()))
    kept = stable & ((g <= g.min() + tol) | ~np.isfinite(g))
    flat = kept & (False if two_nu is None else two_nu >= math.exp(tol / 2.0))
    cells = np.flatnonzero(kept & ~(flat & (np.cumsum(flat) > 1)))
    if not len(cells):
        return None
    gap, g = np.where(flat[cells], 0.0, tol / 2.0), g[cells]  # not the grid's, while it waits
    f = np.array((yield box.grid[cells], iter(())))
    scored = np.isfinite(g)
    if not (abs(f[scored] - g[scored]) <= gap[scored]).all():
        cells = np.flatnonzero(stable)
        f = np.array((yield box.grid[cells], iter(())))
    best = int(np.argmin(f))
    if not np.isfinite(f[best]):
        return None
    return (yield from _compass(box.grid[cells[best]], float(f[best]), box.step0, box.free))


def _minimize(
    specs: Sequence[SweepSpec], swept: AxisSpec | None = None
) -> list[list[FrontierPoint]]:
    """:func:`minimize_steering` of every spec in ``specs`` over the same ``swept`` axis.

    The specs share one search box: they may differ in base and objective, and
    :class:`ValueError` is raised if they differ in axes or ties.  Each slice of each spec
    is one :func:`_search`, handed its screened scores and ``2 nu``: which cells it sends
    and how it checks them is that function's rule alone.  Each slice's coarse grids of an
    ``n_th`` family (specs that differ only in base ``n_th``; objective twins share a grid)
    are :func:`_validated` and screened at once: :func:`steering._steering_columns` scores
    :func:`_closed_form`'s moments.  The searches advance in lockstep, one
    :func:`_evaluate_grid` call per round of every live search's requested points (and a
    lone search's look-ahead), in the order they began.  Every kernel row is
    ``(origins[s, k] + x * box.spans)[:, sources]``: spec ``s``'s row at slice ``k`` and
    unit point ``x``, each tie copied from its source, inside the box its screened grid
    validated.  So each spec's points are the bits of its own unscreened
    :func:`minimize_steering` call; each spec with no feasible point warns once.
    """
    if any(spec.axes != specs[0].axes or spec.ties != specs[0].ties for spec in specs):
        raise ValueError("specs minimized together must share their axes and ties")
    _check_swept(specs[0], swept)
    box, sources = _box(specs[0].axes), _sources(specs[0])
    swept_values = [math.nan] if swept is None else list(map(float, swept.values()))
    slices = [{}] if swept is None else [{swept.name: value} for value in swept_values]
    origins = np.array([  # each spec's base with every axis at lo, the swept field at slice k
        [_rates(spec.base.with_(**{a.name: a.lo for a in spec.axes}, **at))[0] for at in slices]
        for spec in specs])
    with_en = np.array([spec.objective == "en" for spec in specs])
    sign = np.where(with_en, -1.0, 1.0)
    column = np.array([1 + _OBJECTIVES.index(spec.objective) for spec in specs])

    def score(s, cells: np.ndarray) -> np.ndarray:
        """What the searches of specs ``s`` minimize: inf where NaN, -E_N for ``"en"``."""
        values = cells[np.arange(len(cells)), column[s]]
        return np.where(np.isnan(values), np.inf, sign[s] * values)

    # specs with one base share a grid; the grids of bases that differ only in n_th
    # (a family) are screened together
    families: dict[SystemParams, dict[SystemParams, list[int]]] = {}
    for s, spec in enumerate(specs):
        families.setdefault(spec.base.with_(n_th=0.0), {}).setdefault(spec.base, []).append(s)
    n = len(box.grid)
    sends = []  # (spec, slice, its search, the scores of its last request)
    for groups in families.values():
        members = list(groups.values())
        at, xs = np.repeat([group[0] for group in members], n), np.tile(box.grid, (len(members), 1))
        parts = [(s, slice(j * n, (j + 1) * n)) for j, group in enumerate(members) for s in group]
        for k in range(len(swept_values)):
            # the screened grid's corners hold every row its searches send
            rates = _validated((origins[at, k] + xs * box.spans)[:, sources])
            unit, stable = _judge(rates[:, :5].T)
            with np.errstate(all="ignore"):
                screened = _steering_columns(stable, *_closed_form(*unit, rates[:, 5]))
            for s, part in parts:
                two_nu = screened[part, 4] if with_en[s] else None
                search = _search(box, score(s, screened[part]), stable[part], two_nu)
                sends.append((s, k, search, None))
    points = [[FrontierPoint(x, None, math.nan, False) for x in swept_values] for _ in specs]
    while sends:
        live = []
        for s, k, search, scores in sends:
            try:
                live.append((s, k, search, *search.send(scores)))
            except StopIteration as stop:
                if stop.value is not None:
                    x, fx = stop.value
                    values = dict(zip(_SWEEPABLE, origins[s, k] + x * box.spans))
                    best = {axis.name: float(values[axis.name]) for axis in specs[s].axes}
                    points[s][k] = FrontierPoint(swept_values[k], best, float(sign[s] * fx), True)
        if not live:
            break
        lone = len(live) == 1  # a lone search also sends its look-ahead
        requests = [(s, k, search, [*required, *ahead] if lone else required)
                    for s, k, search, required, ahead in live]
        at, ks, xs = map(np.array, zip(*((s, k, x) for s, k, _, xs in requests for x in xs)))
        rates = (origins[at, ks] + xs * box.spans)[:, sources]
        f = iter(score(at, np.array(_evaluate_grid(rates, with_en[at]))).tolist())
        sends = [(s, k, search, [next(f) for _ in xs]) for s, k, search, xs in requests]
    for spec_points in points:
        if not any(point.feasible for point in spec_points):
            warnings.warn(
                "no feasible point on any frontier slice", EmptySweepWarning, stacklevel=3
            )
    return points

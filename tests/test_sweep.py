"""Grid sweeps and derivative-free steering minimization."""
from __future__ import annotations

import contextlib
import itertools
import math
import warnings
from dataclasses import replace

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steerkit.dynamics
import steerkit.figures
import steerkit.steering
import steerkit.sweep
from helpers import EDGE_GRID, one_trial_compass
from steerkit import (
    AxisSpec,
    DegenerateConditioningError,
    EmptySweepWarning,
    MomentState,
    ParameterError,
    PhysicalityError,
    SweepSpec,
    SystemParams,
    assess_stability,
    build_figure,
    build_moment_state,
    grid_sweep,
    logarithmic_negativity,
    minimize_steering,
    steady_state_lyapunov,
    steering_products_reduced,
    steering_result,
)

BASE = SystemParams(1.0, 1.0, 6.0, 10.0, 0.01, 0.0)


# ---------------------------------------------------------------------------
# specs


def test_axis_values_inclusive():
    axis = AxisSpec("g1", 1.0, 3.0, 5)
    np.testing.assert_allclose(axis.values(), [1.0, 1.5, 2.0, 2.5, 3.0])
    single = AxisSpec("g1", 2.0, 2.0, 1)
    np.testing.assert_array_equal(single.values(), [2.0])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(name="omega_m", lo=0.0, hi=1.0, steps=3),
        dict(name="g1", lo=2.0, hi=1.0, steps=3),
        dict(name="g1", lo=1.0, hi=2.0, steps=1),
        dict(name="g1", lo=math.inf, hi=1.0, steps=2),
        dict(name="g1", lo=0.0, hi=1.0, steps=2.5),
        dict(name="g1", lo=0.0, hi=1.0, steps=3.0),
        dict(name="g1", lo=1.0, hi=1.0, steps=1.0),
        dict(name="g1", lo=0.0, hi=1.0, steps=np.float64(3.0)),
    ],
)
def test_axis_validation(kwargs):
    with pytest.raises(ValueError):
        AxisSpec(**kwargs)


def test_axis_accepts_numpy_integer_steps():
    axis = AxisSpec("g1", 1.0, 3.0, np.int64(5))
    np.testing.assert_array_equal(axis.values(), AxisSpec("g1", 1.0, 3.0, 5).values())
    spec = SweepSpec(base=BASE, axes=(AxisSpec("g1", 6.0, 14.0, np.int64(3)),))
    assert [row.values["g1"] for row in grid_sweep(spec)] == [6.0, 10.0, 14.0]


def test_spec_validation():
    axis = AxisSpec("g1", 1.0, 2.0, 3)
    with pytest.raises(ValueError, match="at least one axis"):
        SweepSpec(base=BASE, axes=())
    with pytest.raises(ValueError):
        SweepSpec(base=BASE, axes=(axis, axis))
    with pytest.raises(ValueError):
        SweepSpec(base=BASE, axes=(axis,), objective="s13")
    with pytest.raises(ValueError):
        SweepSpec(base=BASE, axes=(axis,), ties={"g1": "g2"})
    with pytest.raises(ValueError):
        SweepSpec(base=BASE, axes=(axis,), ties={"omega_m": "g2"})


# ---------------------------------------------------------------------------
# grid sweeps


def test_grid_rows_match_direct_evaluation():
    spec = SweepSpec(
        base=BASE,
        axes=(AxisSpec("gamma_m", 1.0, 2.0, 2), AxisSpec("n_th", 0.0, 1.0, 2)),
    )
    rows = grid_sweep(spec)
    assert len(rows) == 4
    # last axis varies fastest
    assert [row.values["n_th"] for row in rows] == [0.0, 1.0, 0.0, 1.0]
    for row in rows:
        params = BASE.with_(**row.values)
        state = steady_state_lyapunov(params)
        s12, s21 = steering_products_reduced(state)
        assert row.stable
        assert row.s12 == pytest.approx(s12, rel=1e-12)
        assert row.s21 == pytest.approx(s21, rel=1e-12)
        assert row.e_n == pytest.approx(logarithmic_negativity(state), rel=1e-12)


def test_grid_marks_unstable_cells():
    # g1 = g2 stays (barely) stable thanks to gamma_m > 0; g1 > g2 does not.
    spec = SweepSpec(base=BASE, axes=(AxisSpec("g1", 6.0, 14.0, 3),))
    rows = grid_sweep(spec)
    assert [row.stable for row in rows] == [True, True, False]
    assert math.isnan(rows[2].s12) and math.isnan(rows[2].e_n)


def test_grid_ties_follow_swept_axis():
    spec = SweepSpec(
        base=BASE,
        axes=(AxisSpec("kappa1", 0.5, 1.5, 3),),
        ties={"kappa2": "kappa1"},
    )
    rows = grid_sweep(spec)
    for row in rows:
        kappa = row.values["kappa1"]
        params = BASE.with_(kappa1=kappa, kappa2=kappa)
        state = steady_state_lyapunov(params)
        s12, _ = steering_products_reduced(state)
        assert row.s12 == pytest.approx(s12, rel=1e-12)


def test_chained_ties_are_rejected():
    # applied in one step, kappa2 would copy kappa1 before it copies g1
    with pytest.raises(ValueError, match="copies tied field 'kappa1'"):
        SweepSpec(
            base=BASE,
            axes=(AxisSpec("g1", 1.0, 3.0, 3),),
            ties={"kappa2": "kappa1", "kappa1": "g1"},
        )


def test_grid_warns_when_everything_unstable():
    spec = SweepSpec(
        base=SystemParams(1.0, 1.0, 10.0, 2.0, 0.01),
        axes=(AxisSpec("g1", 9.0, 11.0, 3),),
    )
    with pytest.warns(EmptySweepWarning):
        rows = grid_sweep(spec)
    assert all(math.isnan(row.s12) for row in rows)


@pytest.mark.parametrize("kappa1", [1.0, 1e4])
def test_grid_over_loss_ratios_is_nan_only_where_unstable(kappa1):
    # kappa2 from 1e-4 to 1e4 at g 1, 2: kappa2 / kappa1 spans 1e-8 .. 1e4
    spec = SweepSpec(
        SystemParams(kappa1, 1.0, 1.0, 2.0, 0.5, 3.0), (AxisSpec("kappa2", 1e-4, 1e4, 21),)
    )
    rows = grid_sweep(spec)
    assert any(row.stable for row in rows)
    for row in rows:
        values = (row.s12, row.s21, row.e_n)
        assert all(map(math.isfinite, values)) if row.stable else all(map(math.isnan, values))


@pytest.mark.parametrize(
    "axes, ties",
    [
        ((AxisSpec("g1", -1.0, 2.0, 4),), {}),
        ((AxisSpec("gamma_m", 0.5, 1.0, 2), AxisSpec("n_th", -0.5, 0.5, 3)), {}),
        ((AxisSpec("g1", 0.0, 2.0, 3),), {"kappa2": "g1"}),
    ],
)
def test_box_reaching_an_invalid_value_raises(axes, ties):
    spec = SweepSpec(base=BASE, axes=axes, ties=ties)
    with pytest.raises(ParameterError):
        grid_sweep(spec)
    with pytest.raises(ParameterError):
        minimize_steering(spec)


def test_swept_value_out_of_range_raises():
    spec = SweepSpec(base=BASE, axes=(AxisSpec("g2", 8.0, 9.0, 2),))
    with pytest.raises(ParameterError):
        minimize_steering(spec, AxisSpec("gamma_m", -1.0, 1.0, 3))


def test_grid_deterministic():
    spec = SweepSpec(
        base=BASE,
        axes=(AxisSpec("gamma_m", 0.5, 8.0, 4), AxisSpec("g1", 2.0, 8.0, 3)),
    )
    assert grid_sweep(spec) == grid_sweep(spec)


# a grid across the stability edge: g1 > g2 = 10 is unstable at small gamma_m
MIXED = SweepSpec(
    base=BASE,
    axes=(AxisSpec("gamma_m", 0.01, 2.0, 3), AxisSpec("g1", 8.0, 12.0, 5)),
)


def test_grid_stable_flag_matches_spectral_check():
    rows = grid_sweep(MIXED)
    stable = [assess_stability(BASE.with_(**row.values)).spectral_pass for row in rows]
    assert [row.stable for row in rows] == stable
    assert any(stable) and not all(stable)
    for row in rows:
        if not row.stable:
            assert all(math.isnan(value) for value in (row.s12, row.s21, row.e_n))


def _rate_row(params: SystemParams) -> tuple[float, ...]:
    return (params.kappa1, params.kappa2, params.g1, params.g2, params.gamma_m, params.n_th)


def _record_kernel_calls(monkeypatch) -> list:
    """The rate rows of each batched steady kernel call from any caller, a list per call."""
    calls = []
    original = steerkit.dynamics._steady_batch

    def recording(rates):
        calls.append(list(map(tuple, np.asarray(rates).reshape(-1, 6).tolist())))
        return original(rates)

    monkeypatch.setattr(steerkit.dynamics, "_steady_batch", recording)
    monkeypatch.setattr(steerkit.sweep, "_steady_batch", recording)
    return calls


def _in_units(rows) -> list:
    """Rate rows as the screen's closed form reads them: the five rates in
    ``dynamics._judge``'s power-of-two units, then n_th; exact, so rows keep their bits."""
    rates = np.array(rows, dtype=float).reshape(-1, 6)
    unit = steerkit.dynamics._units(rates[:, :5].T)[1]
    return list(map(tuple, np.column_stack([unit.T, rates[:, 5]]).tolist()))


def _record_screens(monkeypatch) -> list:
    """The rate rows of each call of the coarse grids' screen, :func:`_in_units`, a list per call."""
    calls = []
    original = steerkit.sweep._closed_form

    def recording(*columns):
        calls.append(list(map(tuple, np.column_stack(columns).tolist())))
        return original(*columns)

    monkeypatch.setattr(steerkit.sweep, "_closed_form", recording)
    return calls


def _within(rows: list, of: list) -> bool:
    """Whether ``rows`` are rows of ``of``, in its order."""
    rest = iter(of)
    return all(row in rest for row in rows)


def test_grid_solves_each_cell_once(monkeypatch):
    kernel_calls = _record_kernel_calls(monkeypatch)
    rows = grid_sweep(MIXED)
    assert len(rows) == 15
    assert kernel_calls == [[_rate_row(BASE.with_(**row.values)) for row in rows]]


class _Search(list):
    """One recorded compass search: the trials it sent, one list per round, with its
    ``start`` point and value ``fx0`` and the objectives it was sent, one list per round."""


def _record_searches(monkeypatch) -> list:
    """Each compass search made through ``steerkit.sweep._compass``, as a :class:`_Search`."""
    searches = []
    compass = steerkit.sweep._compass

    def recording(x0, fx0, *args):
        rounds = _Search()
        rounds.start, rounds.fx0, rounds.values = list(x0), fx0, []
        searches.append(rounds)
        search = compass(x0, fx0, *args)
        values = None
        while True:
            try:
                trial, ahead = search.send(values)
            except StopIteration as stop:
                return stop.value
            rounds.append([trial])
            values = yield trial, _taking(ahead, rounds[-1])
            rounds.values.append(list(values))

    monkeypatch.setattr(steerkit.sweep, "_compass", recording)
    return searches


def _resent(search: _Search) -> list:
    """The trials ``search`` sent at points it had scored: its start, a trial it read
    in an earlier round (each trial of a round through the first that improved), or a
    trial sent before in the same round."""
    scored, fx, resent = {_bits(search.start)}, search.fx0, []
    for trials, values in zip(search, search.values):
        sent = set()
        for trial in trials:
            if _bits(trial) in scored or _bits(trial) in sent:
                resent.append(trial)
            sent.add(_bits(trial))
        for trial, value in zip(trials, values):
            scored.add(_bits(trial))
            if value < fx:
                fx = value
                break
    return resent


def _taking(trials, taken: list):
    """``trials``, each appended to ``taken`` as the caller takes it."""
    for trial in trials:
        taken.append(trial)
        yield trial


def test_minimize_solves_each_evaluation_once(monkeypatch):
    kernel_calls = _record_kernel_calls(monkeypatch)
    screens = _record_screens(monkeypatch)
    searches = _record_searches(monkeypatch)
    swept = AxisSpec("n_th", 0.0, 2.0, 3)
    points = minimize_steering(MIXED, swept)
    assert all(point.feasible for point in points) and len(searches) == 3
    # one screen call per slice grid, each cell once, with the slice's swept value
    for n_th, rows in zip((0.0, 1.0, 2.0), screens):
        grid = [
            _rate_row(BASE.with_(gamma_m=gamma_m, g1=g1, n_th=n_th))
            for gamma_m in (0.01, 1.005, 2.0)
            for g1 in (8.0, 9.0, 10.0, 11.0, 12.0)
        ]
        np.testing.assert_allclose(rows, _in_units(grid), rtol=1e-15)
    # then one kernel call per slice, of the cells that can hold its minimum (each of
    # the 15 cells before the screen): here one each
    assert [len(rows) for rows in kernel_calls[:3]] == [1, 1, 1]
    assert all(map(_within, map(_in_units, kernel_calls[:3]), screens))
    # then one call per lockstep round: one row per search still running, or
    # a lone search's trials through the end of the second poll after its own
    rounds = kernel_calls[3:]
    assert len(rounds) == max(map(len, searches)) > 0
    lone_rows = []
    for r, rows in enumerate(rounds):
        sent = [
            (n_th, plans[r]) for n_th, plans in zip((0.0, 1.0, 2.0), searches) if r < len(plans)
        ]
        if len(sent) > 1:
            assert [len(trials) for _, trials in sent] == [1] * len(sent)
        else:
            lone_rows.append(len(rows))
        expected = [
            _rate_row(
                BASE.with_(
                    # a trial has one unit coordinate per rate column: gamma_m, g1 at 4, 2
                    gamma_m=0.01 + trial[4] * (2.0 - 0.01),
                    g1=8.0 + trial[2] * (12.0 - 8.0),
                    n_th=n_th,
                )
            )
            for n_th, trials in sent
            for trial in trials
        ]
        assert rows == expected
    # the n_th = 1 search outlasts the others and then sends whole polls at once
    assert max(lone_rows) > 4


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


#: more rounds than any search below makes: about 14 polls from step 1 to 1e-4, and
#: one more per improvement, of at most 6 trials each
_MAX_ROUNDS = 1000


def _one_trial_drive(objective, x0, fx0, step0, free):
    """``(x, fx)`` of the one-trial reference search, and every ``(trial, value)`` it read."""
    search = one_trial_compass(np.array(x0), fx0, step0, np.array(free))
    read, f_trial = [], None
    for _ in range(_MAX_ROUNDS):
        try:
            trial = search.send(f_trial)
        except StopIteration as stop:
            return stop.value, read
        f_trial = objective(trial)
        read.append((_bits(trial), f_trial))
    raise AssertionError("the search did not end")


def _look_ahead_drive(objective, x0, fx0, step0, free, lone: bool):
    """``(x, fx)`` of :func:`_compass` sent its whole look-ahead each round (``lone``) or
    one trial per round, and the ``(trial, value)`` pairs it read: those of each round
    through the first that improves."""
    search = steerkit.sweep._compass(np.array(x0), fx0, step0, np.array(free))
    read, values, fx = [], None, fx0
    for _ in range(_MAX_ROUNDS):
        try:
            trial, ahead = search.send(values)
        except StopIteration as stop:
            return stop.value, read
        trials = [trial, *ahead] if lone else [trial]
        values = [objective(trial) for trial in trials]
        for trial, value in zip(trials, values):
            read.append((_bits(trial), value))
            if value < fx:
                fx = value
                break
    raise AssertionError("the search did not end")


def _first_reads(read: list, start) -> list:
    """The ``(trial, value)`` pairs of ``read`` at points not read before, nor at ``start``."""
    scored, first = {_bits(start)}, []
    for trial, value in read:
        if trial not in scored:
            scored.add(trial)
            first.append((trial, value))
    return first


@settings(max_examples=300)
@given(
    st.permutations(range(3)),
    st.integers(1, 3),
    st.lists(st.sampled_from((0.0, 1.0)), min_size=3, max_size=3),
    st.integers(2, 41),
    st.lists(st.sampled_from((-1.0, 0.0, 0.5, 2.0, math.inf)), min_size=1, max_size=12),
)
def test_look_ahead_search_reads_what_the_one_trial_search_reads(order, n_free, x0, steps, cells):
    # 1 to 3 free axes from a corner of the box, so moves clamp, and a random objective
    # over few values, so trials tie, with inf (no steady state) cells
    def objective(x) -> float:
        return cells[zlib.crc32(_bits(x)) % len(cells)]

    free, step0 = order[:n_free], 1.0 / (steps - 1)
    (x, fx), read = _one_trial_drive(objective, x0, objective(x0), step0, free)
    for lone in (True, False):  # sent its whole look-ahead each round, or one trial
        (x_ahead, fx_ahead), read_ahead = _look_ahead_drive(
            objective, x0, objective(x0), step0, free, lone
        )
        # the same bits, from the reference's reads less each repeat of a scored point
        assert (_bits(x_ahead), fx_ahead) == (_bits(x), fx)
        assert read_ahead == _first_reads(read, x0)


def _one_trial_at_a_time(x0, fx0, step0, free):
    """The one-trial reference search in :func:`_compass`'s protocol, with nothing ahead."""
    search = one_trial_compass(x0, fx0, step0, free)
    f_trial = None
    while True:
        try:
            trial = search.send(f_trial)
        except StopIteration as stop:
            return stop.value
        (f_trial,) = yield trial, iter(())


#: a two-axis problem with one search, as each item of the frontier benchmark
LONE = SweepSpec(
    SystemParams(1.0, 0.5, 1.0, 1.0, 2.0),
    (AxisSpec("g1", 0.2, 8.0, 11), AxisSpec("g2", 0.3, 12.0, 21)),
    objective="s21",
)


def test_a_lone_search_sends_its_next_polls_in_one_kernel_call(monkeypatch):
    kernel_calls = _record_kernel_calls(monkeypatch)
    (point,) = minimize_steering(LONE)
    look_ahead = len(kernel_calls), sum(map(len, kernel_calls))
    kernel_calls.clear()
    monkeypatch.setattr(steerkit.sweep, "_compass", _one_trial_at_a_time)
    (one_trial,) = minimize_steering(LONE)
    one_at_a_time = len(kernel_calls), sum(map(len, kernel_calls))
    assert repr(point) == repr(one_trial) and point.feasible
    # (kernel calls, kernel rows): one coarse call of the one cell of 231 the screen
    # keeps, then one call per trial, or one per rest of a poll and the two after it:
    # 41 trial rows, the one-trial search's 42 reads less its 9 of points it had
    # scored, plus 8 speculative rows past an improving trial (10 calls and 48 rows
    # when the look-ahead ended with the next poll and re-sent scored points)
    assert (one_at_a_time, look_ahead) == ((43, 43), (7, 42))


def test_a_lone_search_builds_only_the_trials_it_sends(monkeypatch):
    # the look-ahead stops at the end of the second poll after its own before it builds
    # a trial there, and a skipped trial at a scored point is never returned
    built = []
    next_trial = steerkit.sweep._next_trial

    def counted(*args):
        planned = next_trial(*args)
        if planned is not None:
            built.append(planned[0])
        return planned

    monkeypatch.setattr(steerkit.sweep, "_next_trial", counted)
    kernel_calls = _record_kernel_calls(monkeypatch)
    minimize_steering(LONE)
    compass_rows = [row for rows in kernel_calls[1:] for row in rows]
    assert len(built) == len(compass_rows) == 41


@pytest.mark.parametrize("problem", ["2c", "2d", "6", "LONE"])
def test_searches_keep_the_one_trial_points_and_send_no_scored_point(monkeypatch, problem):
    # the minimizations of the frontier figures, and LONE, on the real kernel
    runs = []
    minimize = steerkit.sweep._minimize

    def recording(specs, swept=None):
        runs.append((specs, swept, minimize(specs, swept)))
        return runs[-1][2]

    searches = _record_searches(monkeypatch)
    if problem == "LONE":
        recording([LONE])
    else:
        monkeypatch.setattr(steerkit.figures, "_minimize", recording)
        build_figure(problem)
    ((specs, swept, points),) = runs
    assert searches and not any(map(_resent, searches))
    # the one-trial search, with no skip and no look-ahead, reads scored points again
    monkeypatch.setattr(steerkit.sweep, "_compass", _one_trial_at_a_time)
    one_trial_searches = _record_searches(monkeypatch)
    assert repr(minimize(specs, swept)) == repr(points)
    assert any(map(_resent, one_trial_searches))


# a swept spec whose slices are infeasible (g1 > g2) or end in different rounds
STAGGERED = SweepSpec(
    base=BASE,
    axes=(AxisSpec("g1", 9.0, 12.0, 4), AxisSpec("gamma_m", 0.01, 2.0, 3)),
)


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("objective", ["s12", "en"])
def test_swept_slices_equal_lone_problems(monkeypatch, objective):
    spec = replace(STAGGERED, objective=objective)
    swept = AxisSpec("g2", 6.0, 14.0, 5)
    searches = _record_searches(monkeypatch)
    points = minimize_steering(spec, swept)
    assert [point.feasible for point in points] == [False, False, True, True, True]
    assert len({len(trials) for trials in searches}) > 1
    for point, g2 in zip(points, swept.values()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptySweepWarning)
            (lone,) = minimize_steering(replace(spec, base=BASE.with_(g2=float(g2))))
        assert point.swept_value == g2
        assert point.feasible == lone.feasible and point.best == lone.best
        assert _same(point.value, lone.value)


#: a tie, and a spec with no steady state anywhere (g1 > g2 at equal losses)
TIED = SweepSpec(BASE.with_(gamma_m=0.5), (AxisSpec("g1", 1.0, 8.0, 8),), ties={"kappa2": "kappa1"})
VOID = SweepSpec(SystemParams(1.0, 1.0, 10.0, 2.0, 0.01), (AxisSpec("g1", 19.0, 21.0, 3),))
#: groups of specs on one box, each minimized in one call: objective twins on one base
#: with STAGGERED's infeasible slices, twins on MIXED's box, the tie with an n_th
#: family, and twins with no steady state
LOCKSTEP_GROUPS = [
    [replace(STAGGERED, objective=objective) for objective in ("s12", "s21", "en")],
    [replace(MIXED, objective="s21"), replace(MIXED, objective="en")],
    [TIED, replace(TIED, base=TIED.base.with_(n_th=0.5), objective="en")],
    [VOID, replace(VOID, objective="s21")],
]


@pytest.mark.parametrize("swept", [None, AxisSpec("g2", 6.0, 14.0, 5)], ids=["unswept", "swept-g2"])
def test_lockstep_points_equal_lone_searches(swept):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lockstep = [steerkit.sweep._minimize(specs, swept) for specs in LOCKSTEP_GROUPS]
    empty = [w for w in caught if issubclass(w.category, EmptySweepWarning)]
    lone_empty = 0
    for specs, group in zip(LOCKSTEP_GROUPS, lockstep):
        for spec, points in zip(specs, group):
            with warnings.catch_warnings(record=True) as lone_caught:
                warnings.simplefilter("always")
                lone = minimize_steering(spec, swept)
            lone_empty += len(lone_caught)
            # repr spells every float exactly, signed zeros and NaN included
            assert repr(points) == repr(lone)
    # one warning per spec with no feasible point: VOID's twins
    infeasible = [not any(p.feasible for p in points) for group in lockstep for points in group]
    assert len(empty) == lone_empty == sum(infeasible) == 2
    assert infeasible[-2:] == [True, True]
    staggered = [True] if swept is None else [False, False, True, True, True]
    assert [point.feasible for point in lockstep[0][0]] == staggered


@pytest.mark.parametrize(
    "specs",
    [[STAGGERED, MIXED], [TIED, replace(TIED, ties={})], [LONE, replace(LONE, axes=LONE.axes[:1])]],
    ids=["axis-order", "ties", "axes"],
)
def test_specs_on_different_boxes_raise(specs):
    with pytest.raises(ValueError, match="share their axes and ties"):
        steerkit.sweep._minimize(specs)


def test_a_swept_tie_source_carries_its_tie(monkeypatch):
    # kappa1 is swept and kappa2 copies it: every kernel row, coarse or compass, holds
    # kappa2 == kappa1, and each slice is the lone problem at that kappa1
    swept = AxisSpec("kappa1", 0.8, 1.2, 3)
    kernel_calls = _record_kernel_calls(monkeypatch)
    points = minimize_steering(TIED, swept)
    rows = [row for rows in kernel_calls for row in rows]
    assert {row[0] for row in rows} == set(swept.values().tolist())
    assert all(row[1] == row[0] for row in rows)
    assert all(point.feasible for point in points)
    for point, kappa1 in zip(points, swept.values().tolist()):
        (lone,) = minimize_steering(replace(TIED, base=TIED.base.with_(kappa1=kappa1)))
        assert (point.best, point.value) == (lone.best, lone.value)


def test_objective_twins_share_each_coarse_grid(monkeypatch):
    kernel_calls = _record_kernel_calls(monkeypatch)
    screens = _record_screens(monkeypatch)
    swept = AxisSpec("n_th", 0.0, 2.0, 3)
    specs = [replace(MIXED, objective=objective) for objective in ("s12", "s21", "en")]
    points = steerkit.sweep._minimize(specs, swept)
    assert all(point.feasible for spec_points in points for point in spec_points)
    # s12, s21 and "en" read one screened grid per slice, and one coarse kernel call
    # of the cells any of them keeps (all 15 before the screen), which computes E_N
    coarse, rounds = kernel_calls[:3], kernel_calls[3:]
    assert [len(rows) for rows in screens] == [15] * 3
    assert [len(rows) for rows in coarse] == [1, 1, 2]
    assert all(map(_within, map(_in_units, coarse), screens))
    assert [rows[0][5] for rows in coarse] == [0.0, 1.0, 2.0]
    # then one call per round, one row per live search of any spec, or the trials of a
    # lone search through the end of the second poll after its own: at most 3 + 4 + 4
    # on two free axes
    assert len(rounds[0]) == 9 and all(0 < len(rows) <= 11 for rows in rounds)
    kernel_calls.clear()
    for spec, spec_points in zip(specs, points):
        assert repr(minimize_steering(spec, swept)) == repr(spec_points)
    assert len(kernel_calls) > 9 + len(rounds)


def test_fixed_axis_changes_nothing(monkeypatch):
    kernel_calls = _record_kernel_calls(monkeypatch)
    base = SystemParams(1.0, 1.0, 6.0, 10.0, 0.5)
    spec = SweepSpec(base=base, axes=(AxisSpec("g1", 1.0, 8.0, 8),), objective="s21")
    (free,) = minimize_steering(spec)
    free_rows = sum(map(len, kernel_calls))
    kernel_calls.clear()
    fixed_axes = (*spec.axes, AxisSpec("g2", 10.0, 10.0, 1))
    (fixed,) = minimize_steering(replace(spec, axes=fixed_axes))
    assert fixed.value == free.value
    assert fixed.best == {**free.best, "g2": 10.0}
    assert sum(map(len, kernel_calls)) == free_rows


#: two specs over one swept axis, each with a tie and a fixed axis; their bases
#: differ in n_th alone, which tells their rows apart: they share each coarse
#: kernel call, not a grid
TEMPLATE_AXES = (
    AxisSpec("kappa1", 0.7, 1.3, 3),
    AxisSpec("g1", 5.0, 9.0, 5),
    AxisSpec("gamma_m", 0.3, 0.3, 1),
)
TEMPLATE_SPECS = [
    SweepSpec(BASE.with_(n_th=n_th), TEMPLATE_AXES, objective, ties={"kappa2": "kappa1"})
    for n_th, objective in ((0.0, "s12"), (0.5, "s21"))
]
TEMPLATE_SWEPT = AxisSpec("g2", 8.0, 12.0, 3)
RATE_NAMES = ("kappa1", "kappa2", "g1", "g2", "gamma_m", "n_th")


def _template_row(spec: SweepSpec, swept_value: float, units: dict) -> list[str]:
    """The kernel row, as exact hex floats, of ``spec`` at ``units`` (a unit coordinate
    per axis) and ``TEMPLATE_SWEPT`` at ``swept_value``, built by hand: the base row,
    then every axis at ``lo + x * span``, then the swept value, then the ties."""
    row = dict(zip(RATE_NAMES, _rate_row(spec.base)))
    for axis in spec.axes:
        row[axis.name] = axis.lo + units[axis.name] * (axis.hi - axis.lo)
    row[TEMPLATE_SWEPT.name] = swept_value
    for dst, src in spec.ties.items():
        row[dst] = row[src]
    return [float(value).hex() for value in row.values()]


def test_every_kernel_row_of_a_lockstep_search_is_its_hand_built_row(monkeypatch):
    kernel_calls = _record_kernel_calls(monkeypatch)
    screens = _record_screens(monkeypatch)
    searches = _record_searches(monkeypatch)
    points = steerkit.sweep._minimize(TEMPLATE_SPECS, TEMPLATE_SWEPT)
    assert all(point.feasible for spec_points in points for point in spec_points)
    hexed = [[[value.hex() for value in row] for row in rows] for rows in kernel_calls]
    swept_values = [float(value) for value in TEMPLATE_SWEPT.values()]
    # one screened coarse grid per slice, which holds each spec's unit grid (v - lo) /
    # span in spec order, last axis fastest: the specs differ only in n_th and objective
    names = [axis.name for axis in TEMPLATE_AXES]
    units = [
        (axis.values() - axis.lo) / (axis.hi - axis.lo) if axis.hi > axis.lo else [0.0]
        for axis in TEMPLATE_AXES
    ]
    grid = [dict(zip(names, map(float, point))) for point in itertools.product(*units)]
    coarse = [
        [_template_row(spec, value, point) for spec in TEMPLATE_SPECS for point in grid]
        for value in swept_values
    ]
    hex_rows = [[[float.fromhex(value) for value in row] for row in rows] for rows in coarse]
    assert screens == list(map(_in_units, hex_rows))
    # its coarse kernel call holds the cells that can hold a minimum, in that order: one
    # per spec here (all 30 before the screen)
    assert [len(rows) for rows in hexed[: len(coarse)]] == [2, 2, 2]
    assert all(map(_within, hexed[: len(coarse)], coarse))
    # then one call per round: a row per live search, in the order the searches
    # began, or a lone search's trials (the last two rounds, which one search
    # outlasts the rest by); a row's spec is told by its n_th and its slice by
    # its swept g2
    rounds = hexed[len(coarse):]
    assert len(rounds) == max(map(len, searches)) > 0
    specs_by_n_th = {spec.base.n_th: spec for spec in TEMPLATE_SPECS}
    lone = []
    for r, rows in enumerate(rounds):
        sent = [plans[r] for plans in searches if r < len(plans)]
        if len(sent) == 1:
            lone.append(r)
        else:
            assert all(len(trials) == 1 for trials in sent)
        trials = [trial for trials in sent for trial in trials]
        assert len(rows) == len(trials)
        for row, trial in zip(rows, trials):
            spec = specs_by_n_th[float.fromhex(row[5])]
            swept_value = float.fromhex(row[3])
            assert swept_value in swept_values
            x = {name: float(trial[RATE_NAMES.index(name)]) for name in RATE_NAMES}
            assert row == _template_row(spec, swept_value, x)
    assert lone == [len(rounds) - 2, len(rounds) - 1]


@pytest.mark.parametrize(
    "swept, ties",
    [(AxisSpec("g1", 2.0, 3.0, 2), {}), (AxisSpec("kappa2", 1.0, 3.0, 3), {"kappa2": "kappa1"})],
)
def test_swept_field_overwritten_by_an_axis_or_tie_raises(swept, ties):
    base = SystemParams(1.0, 1.0, 6.0, 10.0, 0.5)
    spec = SweepSpec(base=base, axes=(AxisSpec("g1", 1.0, 8.0, 8),), objective="s21", ties=ties)
    with pytest.raises(ValueError, match="swept field"):
        minimize_steering(spec, swept)


def _record_entanglement(monkeypatch) -> list:
    """The ``with_en`` flag of each steering-core call made from ``sweep``."""
    flags = []
    core = steerkit.sweep._steering

    def recording(n1, n2, c, with_en):
        flags.append(with_en)
        return core(n1, n2, c, with_en)

    monkeypatch.setattr(steerkit.sweep, "_steering", recording)
    return flags


@pytest.mark.parametrize("objective", ["s12", "s21"])
def test_steering_objectives_skip_entanglement(monkeypatch, objective):
    flags = _record_entanglement(monkeypatch)
    (point,) = minimize_steering(replace(MIXED, objective=objective))
    assert point.feasible
    assert flags and not any(flags)


def _cell(phi, *, with_en: bool) -> tuple:
    """:func:`steerkit.sweep._evaluate` of a solved row, NaNs made comparable."""
    state = MomentState(phi)
    stable, *values = steerkit.sweep._evaluate(
        True, True, state.n1, state.n2, abs(state.c), with_en=with_en
    )
    return (stable, *("nan" if math.isnan(value) else value for value in values))


@pytest.mark.parametrize("with_en", [False, True])
def test_unphysical_solved_row_is_a_nan_cell(with_en):
    # n1 = n2 = 0 and c = 1: |c|^2 = 1 exceeds its bound (n1 + 1/2)(n2 + 1/2)
    phi = build_moment_state(c=1.0).phi
    assert _cell(phi, with_en=with_en) == (True, "nan", "nan", "nan")


def test_degenerate_partial_transpose_voids_only_entanglement():
    # n1 = n2 = 0 and c = 1/2: |c|^2 meets its bound, so S12 = S21 = 0, while
    # nu = 0 leaves E_N undefined: the cell keeps its steering products whether
    # E_N is read or not, so an "en" spec can share a coarse grid with steering
    # specs; the one-row calls that hand out E_N still raise
    state = build_moment_state(c=0.5)
    for with_en in (False, True):
        assert _cell(state.phi, with_en=with_en) == (True, 0.0, 0.0, "nan")
    for fn in (logarithmic_negativity, steering_result):
        with pytest.raises(PhysicalityError, match="partially transposed"):
            fn(state)


def _one_row_cell(x, stable, solved, with_en: bool) -> tuple:
    """A kernel row's cell from the public one-row functions on the ``MomentState``
    of its six real moments ``x``; where the products stand, a degenerate partial
    transpose voids E_N alone."""
    if solved:
        moments = build_moment_state(*x[:4], 1j * x[4], 1j * x[5])
        try:
            s12, s21 = steering_products_reduced(moments)
        except (DegenerateConditioningError, PhysicalityError):
            return bool(stable), math.nan, math.nan, math.nan
        e_n = math.nan
        if with_en:
            with contextlib.suppress(PhysicalityError):
                e_n = logarithmic_negativity(moments)
        return True, s12, s21, e_n
    return bool(stable), math.nan, math.nan, math.nan


#: solved rows ``(n1, n2, nm, Re c, Im<a1 b>, Im<a2 b+>)`` no kernel gives: NaN
#: moments, a degenerate variance (n1 = -1/2), unphysical pairing (c = 1), a
#: degenerate partial transpose (c = 1/2), and a negative pairing moment
CRAFTED = np.array([
    np.full(6, np.nan),
    (-0.5, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.5, 0.0, 0.0),
    (0.3, 0.2, 0.0, -0.1, 0.4, -0.2),
])


@pytest.mark.parametrize("with_en", [False, True])
def test_grid_cells_have_the_bits_of_the_one_row_functions(monkeypatch, with_en):
    # the grid reads each column once and evaluates floats; each cell must
    # be the one-row functions' on the row's MomentState, NaN verdicts too
    random = np.exp(np.random.default_rng(20).uniform(-3.0, 3.0, (300, 6)))
    rates = np.concatenate([random, EDGE_GRID])
    batch = steerkit.dynamics._steady_batch(rates)
    flags = np.ones(len(CRAFTED), dtype=bool)
    gate = np.full(len(CRAFTED), np.nan)
    rows = type(batch)(*map(np.concatenate, zip(batch, (CRAFTED, flags, flags, gate, gate))))
    assert rows.stable.any() and not rows.stable.all()
    assert (rows.stable & ~rows.solved).any()
    monkeypatch.setattr(steerkit.sweep, "_steady_batch", lambda rates: rows)
    cells = steerkit.sweep._evaluate_grid(rates, itertools.repeat(with_en))
    expected = [_one_row_cell(*row[:3], with_en) for row in zip(*rows)]
    # repr spells every float exactly, NaN included
    assert repr(cells) == repr(expected)
    assert sum(math.isnan(cell[1]) for cell in cells[-len(CRAFTED):]) == 3
    assert math.isnan(cells[-2][3]) and cells[-2][1:3] == (0.0, 0.0)


def test_a_value_error_from_a_fault_is_not_a_nan_cell(monkeypatch):
    def faulty(n1, n2, c, with_en):
        raise ValueError("not a physics verdict")

    monkeypatch.setattr(steerkit.sweep, "_steering", faulty)
    with pytest.raises(ValueError, match="not a physics verdict"):
        steerkit.sweep._evaluate(True, True, 0.0, 0.0, 0.0, with_en=False)


def test_entanglement_is_computed_where_it_is_read(monkeypatch):
    flags = _record_entanglement(monkeypatch)
    solved = [row for row in grid_sweep(MIXED) if not math.isnan(row.s12)]
    assert flags.count(True) == len(flags) == len(solved) > 0
    for row in solved:
        result = steering_result(steady_state_lyapunov(BASE.with_(**row.values)))
        assert row.e_n == result.e_n
        assert row.s12 == pytest.approx(result.s12, rel=1e-12)
        assert row.s21 == pytest.approx(result.s21, rel=1e-12)

    flags.clear()
    (point,) = minimize_steering(replace(MIXED, objective="en"))
    assert point.feasible and all(flags) and flags
    state = steady_state_lyapunov(BASE.with_(**point.best))
    assert point.value == steering_result(state).e_n


# ---------------------------------------------------------------------------
# minimization


def test_minimize_beats_coarse_grid():
    axes = (AxisSpec("g1", 1.0, 8.0, 9), AxisSpec("kappa2", 0.2, 3.0, 9))
    spec = SweepSpec(base=BASE.with_(gamma_m=0.01), axes=axes, objective="s12")
    (point,) = minimize_steering(spec)
    assert point.feasible
    grid_best = min(
        row.s12 for row in grid_sweep(spec) if not math.isnan(row.s12)
    )
    assert point.value <= grid_best + 1e-12
    for axis in axes:
        assert axis.lo <= point.best[axis.name] <= axis.hi


def test_minimize_respects_box():
    # The unconstrained optimum pushes g1 toward zero where S12 -> 1; the
    # reported minimizer must stay inside the axis box.
    axes = (AxisSpec("g1", 0.5, 5.0, 11),)
    spec = SweepSpec(base=BASE.with_(gamma_m=10.0, g2=8.0), axes=axes, objective="s12")
    (point,) = minimize_steering(spec)
    assert point.feasible
    assert 0.5 <= point.best["g1"] <= 5.0


def test_minimize_over_swept_parameter():
    axes = (AxisSpec("g1", 1.0, 8.0, 8),)
    spec = SweepSpec(base=BASE, axes=axes, objective="s21")
    swept = AxisSpec("gamma_m", 6.0, 10.0, 3)
    points = minimize_steering(spec, swept)
    assert [point.swept_value for point in points] == [6.0, 8.0, 10.0]
    for point in points:
        assert point.feasible
        assert point.value < 1.0  # forward steering survives strong damping


def test_minimize_reports_infeasible_slices():
    spec = SweepSpec(
        base=SystemParams(1.0, 1.0, 10.0, 2.0, 0.01),
        axes=(AxisSpec("g1", 9.0, 11.0, 3),),
    )
    with pytest.warns(EmptySweepWarning):
        (point,) = minimize_steering(spec)
    assert not point.feasible
    assert point.best is None
    assert math.isnan(point.value)


def test_maximize_entanglement_objective():
    axes = (AxisSpec("g1", 1.0, 9.0, 9),)
    spec = SweepSpec(base=BASE, axes=axes, objective="en")
    (point,) = minimize_steering(spec)
    assert point.feasible
    grid_best = max(
        row.e_n for row in grid_sweep(spec) if not math.isnan(row.e_n)
    )
    # reported value is the actual E_N at the optimum, maximized
    assert point.value >= grid_best - 1e-12
    state = steady_state_lyapunov(BASE.with_(g1=point.best["g1"]))
    assert point.value == pytest.approx(logarithmic_negativity(state), rel=1e-12)


def test_minimize_deterministic():
    axes = (AxisSpec("g1", 1.0, 8.0, 6), AxisSpec("g2", 8.0, 12.0, 5))
    spec = SweepSpec(base=BASE, axes=axes, objective="s12")
    first = minimize_steering(spec)
    second = minimize_steering(spec)
    assert first == second


# ---------------------------------------------------------------------------
# screened coarse grids


def _unscreened(monkeypatch, specs, swept=None):
    """``_minimize(specs, swept)`` with every stable coarse cell sent to the kernel."""
    with monkeypatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySweepWarning)
        patch.setattr(steerkit.sweep, "_SCREEN_TOL", math.inf)
        return steerkit.sweep._minimize(specs, swept)


def _screened(specs, swept=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySweepWarning)
        return steerkit.sweep._minimize(specs, swept)


#: axis ranges that reach across the stability edge: g1 above g2 at small damping
_AXIS_RANGES = {"g1": (0.1, 20.0), "g2": (0.1, 20.0), "kappa2": (0.2, 4.0), "gamma_m": (0.01, 4.0)}


@st.composite
def _screen_problems(draw):
    """``(specs, swept)``: one base and box, a nonempty set of objectives (twins), one or
    two base ``n_th`` (a family), one or two axes, maybe a tie and a swept field."""
    unit = st.floats(0.0, 1.0)
    g1 = 0.1 + 15.0 * draw(unit)  # g2 from 0.6 g1 to 2 g1: either side of the edge
    base = SystemParams(
        1.0, 0.3 + 2.7 * draw(unit), g1, g1 * (0.6 + 1.4 * draw(unit)),
        10.0 ** (-2.0 + 2.5 * draw(unit)), 50.0 * draw(unit),
    )
    names = draw(st.lists(st.sampled_from(sorted(_AXIS_RANGES)), min_size=1, max_size=2,
                          unique=True))
    axes = []
    for name in names:
        low, high = _AXIS_RANGES[name]
        lo = low + (high - low) * draw(unit) / 2.0
        hi = lo + (high - lo) * draw(st.floats(0.05, 1.0))
        axes.append(AxisSpec(name, lo, hi, draw(st.integers(2, 9))))
    ties = {"kappa2": "kappa1"} if "kappa2" not in names and draw(st.booleans()) else {}
    objectives = draw(st.lists(st.sampled_from(steerkit.sweep._OBJECTIVES), min_size=1,
                               max_size=3, unique=True))
    n_ths = draw(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=2, unique=True))
    specs = [
        SweepSpec(base.with_(n_th=n_th), tuple(axes), objective, ties)
        for n_th in n_ths for objective in objectives
    ]
    free = [name for name in ("g2", "gamma_m", "n_th") if name not in names]
    swept = None
    if draw(st.booleans()):
        name = draw(st.sampled_from(free))
        low, high = _AXIS_RANGES.get(name, (0.0, 50.0))
        swept = AxisSpec(name, low + (high - low) * draw(unit) / 2.0, high, 2)
    return specs, swept


@settings(max_examples=60)
@given(_screen_problems())
def test_screened_coarse_grids_give_the_points_of_unscreened_ones(problem):
    # boxes are drawn across the stability edge and kept as drawn: the screen may
    # keep only the cells that can hold a minimum, and every point keeps its bits
    specs, swept = problem
    with pytest.MonkeyPatch.context() as monkeypatch:
        unscreened = _unscreened(monkeypatch, specs, swept)
    screened = _screened(specs, swept)
    assert repr(screened) == repr(unscreened)
    # and each spec's lockstep points are the bits of its own minimization
    for spec, points in zip(specs, screened):
        assert repr(_screened([spec], swept)) == repr([points])


#: LONE's box on a 5 x 5 grid, whose best s21 cell lies 0.06 below the next: raised
#: by 10 * _SCREEN_TOL, it stays the screen's least
SPARSE = replace(LONE, axes=(AxisSpec("g1", 0.2, 8.0, 5), AxisSpec("g2", 0.3, 12.0, 5)))


def _sparse_grid():
    """``SPARSE``'s coarse rate rows, which of them are stable, and its s21 cells'
    kernel scores (inf where NaN)."""
    box = steerkit.sweep._box(SPARSE.axes)
    rates = steerkit.dynamics._rates(SPARSE.base.with_(g1=0.2, g2=0.3)) + box.grid * box.spans
    cells = np.array(steerkit.sweep._evaluate_grid(rates, itertools.repeat(False)))
    return rates, cells[:, 0].astype(bool), np.where(np.isnan(cells[:, 2]), math.inf, cells[:, 2])


@pytest.mark.parametrize("perturbation", ["raise-best", "lower-worst"])
def test_a_screen_off_the_kernel_falls_back_to_every_stable_cell(monkeypatch, perturbation):
    # the screen of SPARSE's s21 is moved by 10 * _SCREEN_TOL: the kernel-best cell up,
    # where it stays the screen's least, or the kernel-worst stable cell down to below
    # the least.  The kept cell strays from the kernel, so every stable cell goes to the
    # kernel and the point is the unscreened one; without the fallback the second would
    # start its search from the worst cell
    rates, stable, scores = _sparse_grid()
    best, worst = int(np.argmin(scores)), int(np.argmax(np.where(stable, scores, -math.inf)))
    expected = _unscreened(monkeypatch, [SPARSE])
    screen = steerkit.sweep._steering_columns

    def perturbed(*columns):
        cells = screen(*columns)
        low = np.nanmin(cells[:, 2])
        shift = 10.0 * steerkit.sweep._SCREEN_TOL * max(1.0, low)
        if perturbation == "raise-best":
            cells[best, 2] += shift
        else:
            cells[worst, 2] = low - shift
        return cells

    monkeypatch.setattr(steerkit.sweep, "_steering_columns", perturbed)
    kernel_calls = _record_kernel_calls(monkeypatch)
    assert repr(_screened([SPARSE])) == repr(expected)
    # the kept cell, then the other stable cells, before the compass rounds
    coarse = kernel_calls[0] + kernel_calls[1]
    assert len(kernel_calls[0]) == 1 and stable.sum() == 16
    assert sorted(coarse) == sorted(map(tuple, rates[stable].tolist()))


#: the benchmark's frontier seed 0, item 43: E_N is 0 on every stable cell of its 41 x 21
#: grid, so every screened score ties at -0.0 and every stable cell is within tol
PLATEAU = SweepSpec(
    SystemParams(1.0, 2.948803834317616, 1.0, 1.0, 11.650109990430531, 7.105710395989101),
    (AxisSpec("g1", 0.2603306860099383, 10.673558126407471, 41),
     AxisSpec("g2", 0.4470419760063118, 18.328721016258783, 21)),
    objective="en",
)


def _flat_rows(spec: SweepSpec) -> list:
    """The rate rows of ``spec``'s flat coarse cells, in grid order: stable, with a
    screened ``2 nu`` of at least ``exp(tol / 2)``, where E_N is 0 with margin."""
    box = steerkit.sweep._box(spec.axes)
    origin = spec.base.with_(**{axis.name: axis.lo for axis in spec.axes})
    rates = steerkit.dynamics._rates(origin) + box.grid * box.spans
    unit, stable = steerkit.dynamics._judge(rates[:, :5].T)
    with np.errstate(all="ignore"):
        cells = steerkit.sweep._steering_columns(
            stable, *steerkit.dynamics._closed_form(*unit, rates[:, 5]))
    g = np.where(np.isnan(cells[:, 3]), math.inf, -cells[:, 3])
    tol = steerkit.sweep._SCREEN_TOL * max(1.0, abs(g.min()))
    flat = stable & (g <= g.min() + tol) & (cells[:, 4] >= math.exp(tol / 2.0))
    return list(map(tuple, rates[flat].tolist()))


def test_a_flat_entanglement_grid_sends_its_first_flat_cell(monkeypatch):
    # every stable cell is flat, so only the first in grid order can be the argmin: it
    # alone is sent to the kernel, and the compass search starts there (550 kernel rows
    # when every flat cell was sent)
    flat = _flat_rows(PLATEAU)
    assert len(flat) > 500
    expected = _unscreened(monkeypatch, [PLATEAU])
    kernel_calls = _record_kernel_calls(monkeypatch)
    assert repr(_screened([PLATEAU])) == repr(expected)
    assert kernel_calls[0] == flat[:1] and sum(map(len, kernel_calls)) <= 20


@pytest.mark.parametrize("first_cell", ["rejected", "entangled"])
def test_a_first_flat_cell_off_zero_sends_every_flat_cell(monkeypatch, first_cell):
    # the kernel refuses the first flat cell (its residual gate fails) or gives it E_N > 0:
    # the other flat cells no longer tie below it, so all of them go to the kernel, and
    # the point is the unscreened one under the same kernel
    flat = _flat_rows(PLATEAU)
    evaluate_grid = steerkit.sweep._evaluate_grid

    def patched(rates, with_en):
        cells = evaluate_grid(rates, with_en)
        for i, row in enumerate(map(tuple, rates.tolist())):
            if row == flat[0]:
                stable, s12, s21, _ = cells[i]
                cells[i] = (True, math.nan, math.nan, math.nan) if first_cell == "rejected" else (
                    stable, s12, s21, 1e-9)
        return cells

    monkeypatch.setattr(steerkit.sweep, "_evaluate_grid", patched)
    expected = _unscreened(monkeypatch, [PLATEAU])
    kernel_calls = _record_kernel_calls(monkeypatch)
    assert repr(_screened([PLATEAU])) == repr(expected)
    assert set(flat) <= {row for rows in kernel_calls for row in rows}


#: pairing moments in [0.5, 3) whose ``c**2`` (libm ``pow``) is not the correctly
#: rounded ``c * c``: about 1 in 1,000 draws where pow misrounds, none where it does not
MISROUNDED = [
    c for c in np.random.default_rng(7).uniform(0.5, 3.0, 20_000).tolist() if c**2 != c * c
][:8]


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 0.99)),
        min_size=1, max_size=20,
    )
)
def test_the_array_form_has_the_float_forms_products_bit_for_bit(draws):
    # random physical (n1, n2, |c|): occupations log-uniform from 1e-3 to 1e3 and |c|
    # up to 0.99 of its bound sqrt((n1 + 1/2)(n2 + 1/2)), and the MISROUNDED pairings
    # at n1 = |c|, n2 = 2|c|.  Both forms square |c| by product, so S12 and S21 agree
    # bit for bit.  E_N takes numpy's hypot and log, whose last-bit difference from
    # libm's moves no E_N here by 1e-12 (measured worst: 3.2e-13); nearer the bound or
    # at larger occupations the formula cancels, and it can move E_N by 1e-2
    n1, n2, share = map(np.array, zip(*draws))
    n1, n2 = 10.0 ** n1, 10.0 ** n2
    c = np.append(share * np.sqrt((n1 + 0.5) * (n2 + 0.5)), MISROUNDED)
    n1, n2 = np.append(n1, MISROUNDED), np.append(n2, 2.0 * np.array(MISROUNDED))
    zero = np.zeros_like(n1)
    x = np.column_stack([n1, n2, zero, -c, zero, zero])  # |Re c| is read: its sign is free
    cells = steerkit.steering._steering_columns(np.ones(len(x), dtype=bool), *x[:, [0, 1, 3]].T)
    for row, moments in zip(cells[:, 1:].tolist(), zip(n1.tolist(), n2.tolist(), c.tolist())):
        s12, s21, e_n = steerkit.steering._steering(*moments, True)
        assert row[:2] == [s12, s21]
        assert abs(row[2] - e_n) <= 1e-12 * max(1.0, e_n)


def test_the_screen_voids_what_the_steering_formula_refuses():
    # CRAFTED's rows: NaN moments, a degenerate variance and unphysical pairing void
    # the cell, a degenerate partial transpose (c = 1/2 at n = 0) voids E_N alone
    cells = steerkit.steering._steering_columns(
        np.ones(len(CRAFTED), dtype=bool), *CRAFTED[:, [0, 1, 3]].T)
    for row, (n1, n2, _, c, _, _) in zip(cells[:, 1:4], CRAFTED.tolist()):
        try:
            expected = steerkit.steering._steering(n1, n2, abs(c), True)
        except (DegenerateConditioningError, PhysicalityError):
            expected = (math.nan,) * 3
        assert all(map(_same, row.tolist(), expected))
    assert np.isnan(cells[:3, 1:]).all() and np.isnan(cells[3, 3]) and (cells[3, 1:3] == 0.0).all()

"""Grid sweeps and derivative-free steering minimization."""
from __future__ import annotations

import contextlib
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import steerkit.dynamics
import steerkit.sweep
from helpers import EDGE_GRID
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


def test_grid_solves_each_cell_once(monkeypatch):
    kernel_calls = _record_kernel_calls(monkeypatch)
    rows = grid_sweep(MIXED)
    assert len(rows) == 15
    assert kernel_calls == [[_rate_row(BASE.with_(**row.values)) for row in rows]]


def _record_searches(monkeypatch) -> list:
    """The trial points of each compass search, one list per search."""
    searches = []
    compass = steerkit.sweep._compass

    def recording(*args, **kwargs):
        trials = []
        searches.append(trials)
        search = compass(*args, **kwargs)
        f_trial = None
        while True:
            try:
                trial = search.send(f_trial)
            except StopIteration as stop:
                return stop.value
            trials.append(trial)
            f_trial = yield trial

    monkeypatch.setattr(steerkit.sweep, "_compass", recording)
    return searches


def test_minimize_solves_each_evaluation_once(monkeypatch):
    kernel_calls = _record_kernel_calls(monkeypatch)
    searches = _record_searches(monkeypatch)
    swept = AxisSpec("n_th", 0.0, 2.0, 3)
    points = minimize_steering(MIXED, swept)
    assert all(point.feasible for point in points) and len(searches) == 3
    # one call per slice grid, each cell once, with the slice's swept value
    for n_th, rows in zip((0.0, 1.0, 2.0), kernel_calls):
        grid = [
            _rate_row(BASE.with_(gamma_m=gamma_m, g1=g1, n_th=n_th))
            for gamma_m in (0.01, 1.005, 2.0)
            for g1 in (8.0, 9.0, 10.0, 11.0, 12.0)
        ]
        np.testing.assert_allclose(rows, grid, rtol=1e-15)
    # then one call per lockstep round, one row per search still running
    rounds = kernel_calls[3:]
    assert len(rounds) == max(map(len, searches)) > 0
    for r, rows in enumerate(rounds):
        expected = [
            _rate_row(
                BASE.with_(
                    # a trial has one unit coordinate per rate column: gamma_m, g1 at 4, 2
                    gamma_m=0.01 + trials[r][4] * (2.0 - 0.01),
                    g1=8.0 + trials[r][2] * (12.0 - 8.0),
                    n_th=n_th,
                )
            )
            for n_th, trials in zip((0.0, 1.0, 2.0), searches)
            if r < len(trials)
        ]
        assert rows == expected


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


#: specs of every objective, twins on one base, a tie, STAGGERED's infeasible
#: slices, and one spec with no steady state anywhere (g1 > g2 at equal losses)
LOCKSTEP_SPECS = [
    *(replace(STAGGERED, objective=objective) for objective in ("s12", "s21", "en")),
    replace(MIXED, objective="s21"),
    replace(MIXED, objective="en"),
    SweepSpec(BASE.with_(gamma_m=0.5), (AxisSpec("g1", 1.0, 8.0, 8),), ties={"kappa2": "kappa1"}),
    SweepSpec(SystemParams(1.0, 1.0, 10.0, 2.0, 0.01), (AxisSpec("g1", 19.0, 21.0, 3),)),
]


@pytest.mark.parametrize("swept", [None, AxisSpec("g2", 6.0, 14.0, 5)], ids=["unswept", "swept-g2"])
def test_lockstep_points_equal_lone_searches(swept):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lockstep = steerkit.sweep._minimize(LOCKSTEP_SPECS, swept)
    empty = [w for w in caught if issubclass(w.category, EmptySweepWarning)]
    lone_empty = 0
    for spec, points in zip(LOCKSTEP_SPECS, lockstep):
        with warnings.catch_warnings(record=True) as lone_caught:
            warnings.simplefilter("always")
            lone = minimize_steering(spec, swept)
        lone_empty += len(lone_caught)
        # repr spells every float exactly, signed zeros and NaN included
        assert repr(points) == repr(lone)
    assert len(empty) == lone_empty == 1
    staggered = [True] if swept is None else [False, False, True, True, True]
    assert [point.feasible for point in lockstep[0]] == staggered


def test_objective_twins_share_each_coarse_grid(monkeypatch):
    kernel_calls = _record_kernel_calls(monkeypatch)
    swept = AxisSpec("n_th", 0.0, 2.0, 3)
    specs = [replace(MIXED, objective=objective) for objective in ("s12", "s21", "en")]
    points = steerkit.sweep._minimize(specs, swept)
    assert all(point.feasible for spec_points in points for point in spec_points)
    # s12, s21 and "en" read one coarse call per slice, which computes E_N
    coarse, rounds = kernel_calls[:3], kernel_calls[3:]
    assert [len(rows) for rows in coarse] == [15] * 3
    assert [rows[0][5] for rows in coarse] == [0.0, 1.0, 2.0]
    # then one call per round, one row per live search of any spec
    assert len(rounds[0]) == 9 and all(0 < len(rows) <= 9 for rows in rounds)
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
#: differ (so neither shares a coarse grid) in n_th, which tells their rows apart
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
    searches = _record_searches(monkeypatch)
    points = steerkit.sweep._minimize(TEMPLATE_SPECS, TEMPLATE_SWEPT)
    assert all(point.feasible for spec_points in points for point in spec_points)
    hexed = [[[value.hex() for value in row] for row in rows] for rows in kernel_calls]
    swept_values = [float(value) for value in TEMPLATE_SWEPT.values()]
    # one coarse call per spec and slice, on the unit grid (v - lo) / span, last axis fastest
    names = [axis.name for axis in TEMPLATE_AXES]
    units = [
        (axis.values() - axis.lo) / (axis.hi - axis.lo) if axis.hi > axis.lo else [0.0]
        for axis in TEMPLATE_AXES
    ]
    grid = [dict(zip(names, map(float, point))) for point in itertools.product(*units)]
    coarse = [
        [_template_row(spec, value, point) for point in grid]
        for spec in TEMPLATE_SPECS
        for value in swept_values
    ]
    assert hexed[: len(coarse)] == coarse
    # then one call per round: a row per live search, in the order the searches
    # began; a row's spec is told by its n_th and its slice by its swept g2
    rounds = hexed[len(coarse):]
    assert len(rounds) == max(map(len, searches)) > 0
    specs_by_n_th = {spec.base.n_th: spec for spec in TEMPLATE_SPECS}
    for r, rows in enumerate(rounds):
        trials = [trials[r] for trials in searches if r < len(trials)]
        assert len(rows) == len(trials)
        for row, trial in zip(rows, trials):
            spec = specs_by_n_th[float.fromhex(row[5])]
            swept_value = float.fromhex(row[3])
            assert swept_value in swept_values
            x = {name: float(trial[RATE_NAMES.index(name)]) for name in RATE_NAMES}
            assert row == _template_row(spec, swept_value, x)


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

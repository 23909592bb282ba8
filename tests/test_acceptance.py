"""Acceptance gate: fifteen numbered behavioural criteria.

One test per criterion. Each prints a single ``criterion NN: PASS/FAIL``
line with the measured numbers (run pytest with ``-rA`` or ``-s`` to see
them) and then enforces the stated tolerance with plain asserts.
"""
from __future__ import annotations

import math
import time

import numpy as np
from scipy.optimize import brentq

from steerkit import (
    AxisSpec,
    SweepSpec,
    SystemParams,
    assess_stability,
    build_moment_state,
    composite_occupations,
    default_omega_grid,
    evolve_moments,
    logarithmic_negativity,
    minimize_steering,
    spectral_oneway_threshold,
    spectrum,
    spectrum_point,
    steady_state_closed_form,
    steady_state_lyapunov,
    steering_products_reduced,
    steering_result,
    thermal_window,
    transformed_drift,
    vacuum_thermal_state,
)
from steerkit.cli import main as cli_main

import conftest
from helpers import sample_physical_family, sample_stable


def _line(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.acceptance_lines.append(line)


def test_criterion_01_closed_form_matches_lyapunov():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    sets = sample_stable(rng, 1000, decades=2.0)
    worst = 0.0
    for p in sets:
        cf = steady_state_closed_form(p)
        ss = steady_state_lyapunov(p)
        worst = max(
            worst,
            abs(cf.n1 - ss.n1) / abs(ss.n1),
            abs(cf.n2 - ss.n2) / abs(ss.n2),
            abs(cf.c - ss.c) / abs(ss.c),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _line(
        1,
        ok,
        f"closed form vs Lyapunov on 1000 stable sets: worst relative "
        f"error {worst:.3e} (<= 1e-8) in {elapsed:.2f} s (< 10 s)",
    )
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_evolution_reaches_steady_state():
    rng = np.random.default_rng(102)
    sets = sample_stable(rng, 100, decades=2.0)
    worst = 0.0
    for p in sets:
        slowest = abs(assess_stability(p).max_real_eigenvalue)
        t = 30.0 / slowest
        state = evolve_moments(p, vacuum_thermal_state(p.n_th), [t])[-1]
        ss = steady_state_lyapunov(p)
        worst = max(worst, float(np.max(np.abs(state.phi - ss.phi))))
    ok = worst <= 1e-6
    _line(
        2,
        ok,
        f"evolution to t = 30/|Re eig|_min on 100 stable sets: worst "
        f"max-norm gap to the steady state {worst:.3e} (<= 1e-6)",
    )
    assert worst <= 1e-6


def test_criterion_03_loss_asymmetry_regime_and_transient_window():
    p = SystemParams(1.0, 0.4, 10.0, 20.0, 0.01, 0.0)
    steady = steering_result(steady_state_lyapunov(p))
    times = np.arange(1, 1201) * 0.05
    states = evolve_moments(p, vacuum_thermal_state(0.0), times)
    window = [
        float(t)
        for t, state in zip(times, states)
        if (r := steering_result(state)).s12 < 1.0 and r.s21 < 1.0
    ]
    ok = steady.s12 < 1.0 < steady.s21 and bool(window)
    span = f"[{window[0]:.2f}, {window[-1]:.2f}]" if window else "absent"
    _line(
        3,
        ok,
        f"steady s12 = {steady.s12:.4f} < 1 < s21 = {steady.s21:.4f}; "
        f"transient two-way window at t in {span}",
    )
    assert steady.s12 < 1.0 < steady.s21
    assert window


def test_criterion_04_reversed_loss_asymmetry_regime():
    p = SystemParams(1.0, 2.4, 12.0, 20.0, 0.01, 0.0)
    steady = steering_result(steady_state_lyapunov(p))
    ok = steady.s21 < 1.0 < steady.s12
    _line(
        4,
        ok,
        f"reversed asymmetry: steady s21 = {steady.s21:.4f} < 1 < "
        f"s12 = {steady.s12:.4f}",
    )
    assert steady.s21 < 1.0 < steady.s12


def test_criterion_05_zero_mechanical_damping_incompatibility():
    rng = np.random.default_rng(105)
    sets = sample_stable(rng, 1000, gamma_m=0.0)
    both = 0
    for p in sets:
        r = steering_result(steady_state_lyapunov(p))
        if r.s12 < 1.0 and r.s21 < 1.0:
            both += 1
    ok = both == 0
    _line(
        5,
        ok,
        f"gamma_m = 0: simultaneous s12 < 1 and s21 < 1 in {both}/1000 "
        f"stable sets (must be 0)",
    )
    assert both == 0


def test_criterion_06_equal_loss_no_go():
    rng = np.random.default_rng(106)
    sets = sample_stable(rng, 200, equal_kappa=True, gamma_m=1e-6)
    lowest = math.inf
    for p in sets:
        r = steering_result(steady_state_lyapunov(p))
        lowest = min(lowest, r.s12, r.s21)
    ok = lowest >= 1.0 - 1e-3
    _line(
        6,
        ok,
        f"kappa1 = kappa2, gamma_m = 1e-6: smallest steering product "
        f"{lowest:.9f} (>= 1 - 1e-3) over 200 sets",
    )
    assert lowest >= 1.0 - 1e-3


def test_criterion_07_strong_damping_oneway_and_crossover():
    kappa, g1, g2 = 1.0, 6.0, 10.0

    def products(gamma_m: float):
        p = SystemParams(kappa, kappa, g1, g2, gamma_m, 0.0)
        return steering_result(steady_state_lyapunov(p))

    results = {gamma: products(gamma) for gamma in (6.0, 8.0, 10.0)}
    oneway = all(r.s21 < 1.0 < r.s12 for r in results.values())

    crossover = brentq(lambda g: products(g).s12 - 1.0, 3.0, 6.0, xtol=1e-10)
    omega_sq = g2 * g2 - g1 * g1
    bound = (g2 * math.sqrt(omega_sq - 8.0 * kappa**2) - omega_sq) / (
        2.0 * kappa**2
    )
    within = abs(crossover - bound) <= 0.15 * bound
    ok = oneway and within
    _line(
        7,
        ok,
        f"gamma_m in {{6, 8, 10}}: s21 < 1 < s12 {'holds' if oneway else 'fails'}; "
        f"s12 crossover at gamma_m = {crossover:.4f} vs bound {bound:.4f} "
        f"(within 15%: {within})",
    )
    assert oneway
    assert within


def test_criterion_08_steering_implies_entanglement():
    rng = np.random.default_rng(108)
    triples = sample_physical_family(rng, 1000)
    violations = 0
    unsteerable_entangled = 0
    for n1, n2, c in triples:
        state = build_moment_state(n1=n1, n2=n2, c=c)
        s12, s21 = steering_products_reduced(state)
        e_n = logarithmic_negativity(state)
        if (s12 < 1.0 or s21 < 1.0) and not e_n > 0.0:
            violations += 1
        if e_n > 0.0 and s12 >= 1.0 and s21 >= 1.0:
            unsteerable_entangled += 1
    # a symmetric thermal pair just past the entanglement border is
    # entangled yet steers in neither direction
    state = build_moment_state(n1=1.0, n2=1.0, c=1.1)
    s12, s21 = steering_products_reduced(state)
    e_n = logarithmic_negativity(state)
    crafted = e_n > 0.0 and s12 >= 1.0 and s21 >= 1.0
    ok = violations == 0 and crafted
    _line(
        8,
        ok,
        f"steering => entanglement violated {violations}/1000 times; "
        f"entangled-but-unsteerable instances: {unsteerable_entangled} sampled "
        f"+ crafted (e_n = {e_n:.4f}, s12 = s21 = {s12:.4f})",
    )
    assert violations == 0
    assert crafted


def test_criterion_09_squeezed_frame_identities():
    rng = np.random.default_rng(109)
    worst_occ = 0.0
    for _ in range(1000):
        n1, n2, nm = (float(x) for x in 10.0 ** rng.uniform(-2.0, 1.5, size=3))
        c = complex(rng.normal(), rng.normal())
        r = float(rng.uniform(0.0, 2.0))
        state = build_moment_state(n1=n1, n2=n2, nm=nm, c=c)
        occ1, occ2 = composite_occupations(state, r)
        worst_occ = max(worst_occ, abs((occ2 - occ1) - (n1 - n2)))

    rng2 = np.random.default_rng(110)
    worst_c2 = 0.0
    worst_c1b = 0.0
    for _ in range(100):
        g2 = float(10.0 ** rng2.uniform(-1.0, 1.0))
        g1 = g2 * float(rng2.uniform(0.05, 0.95))
        kappa = float(10.0 ** rng2.uniform(-1.0, 1.0))
        gamma_m = float(10.0 ** rng2.uniform(-1.0, 1.0))
        p = SystemParams(kappa, kappa, g1, g2, gamma_m, 0.0)
        frame = transformed_drift(p)
        omega = math.sqrt(g2 * g2 - g1 * g1)
        worst_c2 = max(worst_c2, frame.c2_coupling_max)
        worst_c1b = max(worst_c1b, abs(frame.c1_b_coupling - (-1j) * omega))

    ok = worst_occ <= 1e-12 and worst_c2 <= 1e-12 and worst_c1b <= 1e-12
    _line(
        9,
        ok,
        f"occupation-difference identity off by {worst_occ:.3e} over 1000 "
        f"draws; decoupled-mode residual {worst_c2:.3e}, bright-mode "
        f"coupling off by {worst_c1b:.3e} over 100 drifts (all <= 1e-12)",
    )
    assert worst_occ <= 1e-12
    assert worst_c2 <= 1e-12
    assert worst_c1b <= 1e-12


def test_criterion_10_output_occupations_balance_without_mechanics():
    rng = np.random.default_rng(111)
    sets = [
        p
        for p in sample_stable(rng, 120, gamma_m=0.0)
        if abs(p.kappa2 - p.kappa1) > 1e-3
    ][:100]
    assert len(sets) == 100
    worst = 0.0
    for p in sets:
        table = spectrum(p, default_omega_grid(p, 2001))
        worst = max(
            worst,
            float(np.max(np.abs(np.asarray(table.n1_out) - np.asarray(table.n2_out)))),
        )
    ok = worst <= 1e-10
    _line(
        10,
        ok,
        f"gamma_m = 0, kappa1 != kappa2: worst |n1_out - n2_out| over 100 "
        f"sets x 2001 frequencies = {worst:.3e} (<= 1e-10)",
    )
    assert worst <= 1e-10


def test_criterion_11_spectral_minima_and_direction_symmetry():
    p = SystemParams(1.0, 1.0, 6.0, 10.0, 0.01, 0.0)
    grid = np.linspace(-12.0, 12.0, 2401)
    table = spectrum(p, grid)
    s12 = np.asarray(table.s12)
    s21 = np.asarray(table.s21)

    targets = (-math.sqrt(63.0), 0.0, math.sqrt(63.0))
    # steering dips: local minima of s12 that actually cross below one
    # (the curve also has shallow stationary points on the plateau where
    # no steering occurs; those carry no locational content)
    dips = [
        float(grid[i])
        for i in range(1, len(grid) - 1)
        if s12[i] < s12[i - 1] and s12[i] < s12[i + 1] and s12[i] < 1.0
    ]
    located = all(min(abs(w - t) for t in targets) <= 0.1 for w in dips)
    covered = all(min(abs(w - t) for w in dips) <= 0.1 for t in targets)

    asym = float(np.max(np.abs(s12 - s21)))
    symmetric = asym <= 1e-3
    ok = located and covered and symmetric
    _line(
        11,
        ok,
        f"steering dips at {[round(w, 3) for w in dips]} vs expected "
        f"{[round(t, 3) for t in targets]} (within 0.1: {located and covered}); "
        f"max |s12 - s21| = {asym:.3e} (tolerance 1e-3: {symmetric})",
    )
    assert located and covered
    # The transfer matrix leaks mechanical noise into cavity 1's output
    # but not cavity 2's whenever gamma_m > 0, so the two spectral
    # directions genuinely differ near the sidebands at the 1e-2 level.
    # The 1e-3 agreement demanded here is not attainable; this assert
    # records the gap honestly rather than hiding it.
    assert asym <= 1e-3, (
        f"spectral steering directions differ by {asym:.3e} > 1e-3 "
        f"(mechanical noise leak at gamma_m = {p.gamma_m})"
    )


def test_criterion_12_thermal_window():
    base = SystemParams(1.0, 1.0, 6.0, 10.0, 0.01, 0.0)

    def s21_zero(n_th: float) -> float:
        return spectrum_point(base.with_(n_th=n_th), 0.0).s21 - 1.0

    crossing = brentq(s21_zero, 100.0, 9000.0, xtol=1e-6)
    lower_edge = base.g1**2 / (base.kappa1 * base.gamma_m)
    window = thermal_window(base)
    within = abs(crossing - lower_edge) <= 0.10 * lower_edge

    s12_inside = spectrum_point(base.with_(n_th=5000.0), 0.0).s12
    ok = within and s12_inside < 1.0 and window[0] == lower_edge
    _line(
        12,
        ok,
        f"s21[0] crosses 1 at n_th = {crossing:.1f} vs g1^2/(kappa gamma_m) "
        f"= {lower_edge:.0f} (within 10%: {within}); s12[0] at n_th = 5000 "
        f"is {s12_inside:.4f} (< 1)",
    )
    assert window[0] == lower_edge
    assert within
    assert s12_inside < 1.0


def test_criterion_13_overdamped_spectral_oneway():
    base = SystemParams(1.0, 1.0, 2.0, 3.0, 12.0, 0.0)
    threshold = spectral_oneway_threshold(base)
    grid = np.linspace(-10.0, 10.0, 2001)
    table = spectrum(base, grid)
    max_s21 = float(np.max(np.asarray(table.s21)))
    min_s12 = float(np.min(np.asarray(table.s12)))
    oneway = max_s21 < 1.0 < min_s12

    below = spectrum_point(base.with_(gamma_m=4.0), 0.0).s12
    ok = threshold == 9.0 and oneway and below < 1.0
    _line(
        13,
        ok,
        f"gamma_m = 12 (> threshold {threshold:.0f}): max s21 = {max_s21:.4f} "
        f"< 1 < min s12 = {min_s12:.4f} on [-10, 10]; gamma_m = 4: "
        f"s12[0] = {below:.4f} (< 1)",
    )
    assert threshold == 9.0
    assert oneway
    assert below < 1.0


def test_criterion_14_minimized_steering_frontier():
    start = time.perf_counter()
    base = SystemParams(1.0, 1.0, 1.0, 1.0, 0.1, 0.0)
    box = (AxisSpec("g1", 10.0 / 41.0, 10.0, 41), AxisSpec("g2", 10.0 / 41.0, 10.0, 41))

    min_s21 = {}
    for gamma in (0.1, 1.0, 5.0, 10.0, 20.0):
        spec = SweepSpec(base=base, axes=box, objective="s21")
        (point,) = minimize_steering(spec, AxisSpec("gamma_m", gamma, gamma, 1))
        assert point.feasible
        min_s21[gamma] = point.value

    min_s12 = {}
    for gamma in (10.0, 20.0):
        spec = SweepSpec(base=base, axes=box, objective="s12")
        (point,) = minimize_steering(spec, AxisSpec("gamma_m", gamma, gamma, 1))
        assert point.feasible
        min_s12[gamma] = point.value

    elapsed = time.perf_counter() - start
    s21_ok = all(v < 1.0 for v in min_s21.values())
    s12_ok = all(v > 1.0 for v in min_s12.values())
    ok = s21_ok and s12_ok and elapsed < 60.0
    _line(
        14,
        ok,
        f"min s21 over (g1, g2): "
        + ", ".join(f"{g}: {v:.4f}" for g, v in min_s21.items())
        + " (all < 1); min s12 at strong damping: "
        + ", ".join(f"{g}: {v:.6f}" for g, v in min_s12.items())
        + f" (all > 1); runtime {elapsed:.1f} s (< 60 s)",
    )
    assert s21_ok
    assert s12_ok
    assert elapsed < 60.0


def test_criterion_15_cli_reproduction_determinism(tmp_path):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    assert cli_main(["reproduce", "2a", "--out", str(first), "--quiet"]) == 0
    assert cli_main(["reproduce", "2a", "--out", str(second), "--quiet"]) == 0
    names_first = sorted(p.name for p in first.iterdir())
    names_second = sorted(p.name for p in second.iterdir())
    identical = names_first == names_second and all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in names_first
    )
    _line(
        15,
        identical,
        f"reproduce 2a twice: {len(names_first)} files byte-identical "
        f"({', '.join(names_first)})",
    )
    assert identical

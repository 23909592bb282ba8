"""Output-field transfer entries, spectra and closed-form spectral results."""
from __future__ import annotations

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import steerkit.spectra
from helpers import exact_spectrum_columns, sample_stable, spectrum_oracle
from steerkit import (
    NumericalError,
    SystemParams,
    UndefinedTransformError,
    default_omega_grid,
    resonance_frequencies,
    spectral_oneway_threshold,
    spectrum,
    spectrum_point,
    thermal_window,
    transfer_matrix,
)

P_FLAT = SystemParams(1.0, 1.0, 6.0, 10.0, 0.01, 0.0)
SPECTRUM_COLUMNS = ("var_x1", "var_x2", "cross", "s12", "s21", "n1_out", "n2_out")

#: rates log-uniform around kappa1 = 1, an occupation, and a frequency
#: log-uniform in |omega| or (at equal losses) within 1e-3 of a resonance
RANDOM_POINTS = (
    st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    st.floats(0.0, 10.0),
    st.one_of(
        st.tuples(st.just("log"), st.floats(-3.0, 2.0), st.sampled_from((-1.0, 1.0))),
        st.tuples(st.just("resonance"), st.floats(-1e-3, 1e-3), st.integers(0, 2)),
    ),
)


def _random_point(exponents, n_th, frequency):
    """The parameter set and frequency drawn from ``RANDOM_POINTS``."""
    k2, g1, g2, gm = (10.0**e for e in exponents)
    kind, value, pick = frequency
    if kind == "log":
        return SystemParams(1.0, k2, g1, g2, gm, n_th), pick * 10.0**value
    p = SystemParams(1.0, 1.0, g1, g2, gm, n_th)
    resonances = resonance_frequencies(p)
    return p, float(resonances[pick % len(resonances)]) + value


# ---------------------------------------------------------------------------
# transfer entries


def _worst_oracle_gap(p, w):
    """Largest gap to the scattering oracle, relative to max(|oracle|, 1)."""
    point = spectrum_point(p, w)
    got = (point.var_x1, point.var_x2, point.cross, point.n1_out, point.n2_out)
    return max(abs(gv - ov) / max(abs(ov), 1.0) for gv, ov in zip(got, spectrum_oracle(p, w)))


def test_entries_match_scattering_oracle():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(25):
        k2, g1, g2, gm = 10.0 ** rng.uniform(-1, 1, size=4)
        nth = float(rng.uniform(0.0, 3.0))
        p = SystemParams(1.0, float(k2), float(g1), float(g2), float(gm), nth)
        for w in rng.uniform(-15.0, 15.0, size=4):
            worst = max(worst, _worst_oracle_gap(p, float(w)))
    assert worst <= 1e-10


@settings(max_examples=80)
@given(RANDOM_POINTS[0], RANDOM_POINTS[1], st.integers(-7, 5))
def test_spectrum_at_scaled_rates_is_the_spectrum_at_scaled_frequencies(exponents, n_th, k):
    # S(omega; 2**k rates) = S(omega / 2**k; rates), bit for bit: the spectra
    # are dimensionless functions of omega over the rates
    k2, g1, g2, gm = (10.0**e for e in exponents)
    p = SystemParams(1.0, k2, g1, g2, gm, n_th)
    scaled = SystemParams(2.0**k, 2.0**k * k2, 2.0**k * g1, 2.0**k * g2, 2.0**k * gm, n_th)
    omegas = np.linspace(-20.0, 20.0, 101) * 2.0**k
    try:
        fast = spectrum(scaled, omegas)
    except NumericalError:
        assume(False)  # singular at a grid point
    slow = spectrum(p, omegas / 2.0**k)
    for name in SPECTRUM_COLUMNS:
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name


@settings(max_examples=300)
@given(*RANDOM_POINTS)
def test_entries_match_scattering_oracle_at_random_frequencies(exponents, n_th, frequency):
    p, w = _random_point(exponents, n_th, frequency)
    try:
        gap = _worst_oracle_gap(p, w)
    except NumericalError:
        assume(False)  # singular at this frequency
    assert gap <= 1e-10, (p, w)


@settings(max_examples=300)
@given(*RANDOM_POINTS)
def test_all_columns_match_the_exact_complex_entries(exponents, n_th, frequency):
    # the exact oracle is the complex closed form in rational arithmetic,
    # so this checks s12 and s21 too, which the scattering oracle does not
    p, w = _random_point(exponents, n_th, frequency)
    try:
        point = spectrum_point(p, w)
    except NumericalError:
        assume(False)  # singular at this frequency
    got = [getattr(point, name) for name in SPECTRUM_COLUMNS]
    exact = exact_spectrum_columns(p, w)
    gap = max(abs(g - e) / max(abs(e), 1.0) for g, e in zip(got, exact))
    assert gap <= 1e-12, (p, w)


def test_spectrum_point_matches_the_transfer_matrix_moduli():
    rng = np.random.default_rng(46)
    for p in sample_stable(rng, 20, n_th=2.5):
        for w in rng.uniform(-20.0, 20.0, size=3):
            m = transfer_matrix(p, float(w))
            a12, b1, b2 = abs(m.m12) ** 2, abs(m.m1b) ** 2, abs(m.m2b) ** 2
            var_x1 = abs(m.m11) ** 2 + a12 + b1 * (2.0 * p.n_th + 1.0)
            var_x2 = abs(m.m22) ** 2 + a12 + b2 * (2.0 * p.n_th + 1.0)
            mech = -m.m1b * np.conj(m.m2b) * (2.0 * p.n_th + 1.0)
            cross = (-m.m11 * np.conj(m.m12) + m.m12 * np.conj(m.m22) + mech).real
            s12 = max(var_x1 - cross**2 / var_x2, 0.0) ** 2
            s21 = max(var_x2 - cross**2 / var_x1, 0.0) ** 2
            n_out = (a12 + b1 * (p.n_th + 1.0), a12 + b2 * p.n_th)
            point = spectrum_point(p, float(w))
            expected = (var_x1, var_x2, cross, s12, s21, *n_out)
            for name, value in zip(SPECTRUM_COLUMNS, expected):
                got = getattr(point, name)
                assert abs(got - value) <= 1e-13 * max(abs(value), 1.0), (p, w, name)


def test_entries_preserve_output_commutators():
    rng = np.random.default_rng(42)
    for _ in range(40):
        k2, g1, g2, gm = 10.0 ** rng.uniform(-1, 1, size=4)
        p = SystemParams(1.0, float(k2), float(g1), float(g2), float(gm))
        for w in rng.uniform(-20.0, 20.0, size=3):
            m = transfer_matrix(p, float(w))
            out1 = abs(m.m11) ** 2 - abs(m.m12) ** 2 - abs(m.m1b) ** 2
            out2 = abs(m.m22) ** 2 + abs(m.m2b) ** 2 - abs(m.m12) ** 2
            assert out1 == pytest.approx(1.0, abs=1e-12)
            assert out2 == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=300)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    st.one_of(st.just(0.0), st.floats(-30.0, 30.0)),
)
@example([0.0, 0.0, 1.0, -2.0], 0.0)  # stable: g2 = 10 > g1 = 1
@example([0.0, 0.5, 0.3, -2.0], 0.0)  # unstable: g1 = 3.2 > g2 = 2
def test_entries_frequency_reflection(exponents, w):
    # The entries have real coefficients in i*omega, so omega -> -omega
    # conjugates them; the mechanical entries carry an extra -i prefactor
    # and therefore also flip sign.  Each imaginary part is omega times an
    # even function of omega, so this holds exactly, for unstable sets too
    # (spectrum does not judge stability).
    k2, g1, g2, gm = (10.0**e for e in exponents)
    p = SystemParams(1.0, k2, g1, g2, gm)
    try:
        m, mm = transfer_matrix(p, w), transfer_matrix(p, -w)
    except NumericalError:
        assume(False)  # singular at this frequency
    assert (mm.m11, mm.m12, mm.m22) == tuple(np.conj([m.m11, m.m12, m.m22]))
    assert (mm.m1b, mm.m2b) == tuple(-np.conj([m.m1b, m.m2b]))


def test_singular_point_raises_before_any_division():
    marginal = SystemParams(1.0, 1.0, 5.0, 5.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            spectrum(marginal, np.linspace(-1.0, 1.0, 3))


def test_overflowing_frequencies_raise_without_warnings():
    # |d|**2 grows as omega**6, past the largest float near |omega| = 2.4e51 in the
    # power-of-two units of P_FLAT's rates, 2**4 = 16, so near 3.8e52 in its own
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(spectrum_point(P_FLAT, 2e51).s12)
        assert math.isfinite(spectrum_point(P_FLAT, 3.7e52).s12)
        for omegas in ([1e110], [-1e120, 0.0, 1e120], [0.0, 3.9e52], [1e200]):
            with pytest.raises(NumericalError, match="overflow"):
                spectrum(P_FLAT, omegas)
            with pytest.raises(NumericalError, match="overflow"):
                transfer_matrix(P_FLAT, omegas[-1])


@pytest.mark.parametrize("exponent", [-600, -20, 20, 500])
def test_rates_scaled_by_a_power_of_two_give_the_same_columns(exponent):
    # the singular floor and the overflow are judged in power-of-two units, so a
    # healthy set with every rate and omega times 2**exponent is no singular one
    healthy = SystemParams(1.0, 1.0, 6.0, 10.0, 0.5)
    scale = 2.0**exponent
    scaled = SystemParams(*(scale * rate for rate in (1.0, 1.0, 6.0, 10.0, 0.5)))
    grid = default_omega_grid(healthy, 201)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table, reference = spectrum(scaled, grid * scale), spectrum(healthy, grid)
        entries = transfer_matrix(scaled, 3.0 * scale)
    np.testing.assert_array_equal(table.omega, grid * scale)
    for name in SPECTRUM_COLUMNS:
        np.testing.assert_array_equal(getattr(table, name), getattr(reference, name))
    assert [getattr(entries, name) for name in ("m11", "m12", "m22", "m1b", "m2b")] == [
        getattr(transfer_matrix(healthy, 3.0), name) for name in ("m11", "m12", "m22", "m1b", "m2b")
    ]


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_agrees_with_pointwise_evaluation():
    # every field of every point equals its grid row bit for bit
    warm = P_FLAT.with_(n_th=2.5)
    for row in spectrum(warm, np.linspace(-9.0, 9.0, 61)).rows():
        assert spectrum_point(warm, row.omega) == row


def test_spectrum_rows_iterate_in_order():
    grid = np.linspace(-2.0, 2.0, 5)
    table = spectrum(P_FLAT, grid)
    rows = list(table.rows())
    assert len(rows) == 5
    assert [row.omega for row in rows] == list(grid)
    for field in fields(table):
        assert [getattr(row, field.name) for row in rows] == getattr(table, field.name).tolist()


def test_spectrum_evaluates_the_transfer_entries_once(monkeypatch):
    calls = []
    parts = steerkit.spectra._parts

    def counting(params, omega):
        calls.append(np.shape(omega))
        return parts(params, omega)

    monkeypatch.setattr(steerkit.spectra, "_parts", counting)
    spectrum(P_FLAT, default_omega_grid(P_FLAT))
    assert calls == [(2001,)]


def test_spectral_covariance_is_physical():
    rng = np.random.default_rng(44)
    for p in sample_stable(rng, 20):
        table = spectrum(p, default_omega_grid(p, 201))
        assert np.all(table.var_x1 > 0.0)
        assert np.all(table.var_x2 > 0.0)
        assert np.all(
            table.cross**2 <= table.var_x1 * table.var_x2 * (1.0 + 1e-12)
        )
        assert np.all(table.n1_out >= -1e-12)
        assert np.all(table.n2_out >= -1e-12)


def test_cold_bath_output_asymmetry_is_mechanical_leak():
    # With a cold bath the only asymmetry between the two output variances
    # is the mechanical noise routed into output 1.
    grid = np.linspace(-20.0, 20.0, 401)
    table = spectrum(P_FLAT, grid)
    m_plus = np.array([abs(transfer_matrix(P_FLAT, w).m1b) ** 2 for w in grid])
    m_minus = np.array([abs(transfer_matrix(P_FLAT, -w).m1b) ** 2 for w in grid])
    np.testing.assert_allclose(
        table.var_x1 - table.var_x2, m_plus + m_minus, rtol=1e-9, atol=1e-12
    )


def test_zero_damping_outputs_are_symmetric():
    rng = np.random.default_rng(45)
    for p in sample_stable(rng, 20, gamma_m=0.0):
        table = spectrum(p, default_omega_grid(p, 201))
        assert float(np.abs(table.n1_out - table.n2_out).max()) <= 1e-12
        assert float(np.abs(table.s12 - table.s21).max()) <= 1e-10


def test_uncoupled_spectra_are_vacuum():
    p = SystemParams(1.0, 1.0, 0.0, 0.0, 0.5)
    table = spectrum(p, np.linspace(-5.0, 5.0, 11))
    np.testing.assert_allclose(table.var_x1, 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(table.var_x2, 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(table.s12, 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(table.s21, 1.0, rtol=0, atol=1e-14)


def test_grid_validation():
    with pytest.raises(ValueError):
        spectrum(P_FLAT, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        spectrum(P_FLAT, [])


def test_spectrum_rejects_non_finite_frequencies():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="finite"):
            spectrum(P_FLAT, [0.0, math.nan, math.inf])


def test_spectrum_point_rejects_non_finite_frequency():
    with pytest.raises(ValueError, match="finite"):
        spectrum_point(P_FLAT, math.nan)


def test_transfer_matrix_rejects_non_finite_frequency():
    with pytest.raises(ValueError, match="finite"):
        transfer_matrix(P_FLAT, math.inf)


def test_default_grid_shape():
    grid = default_omega_grid(P_FLAT)
    assert grid.size == 2001
    assert grid[0] == -40.0 and grid[-1] == 40.0
    assert grid[1000] == 0.0


# ---------------------------------------------------------------------------
# closed-form spectral results


def test_resonance_frequencies_underdamped():
    freqs = resonance_frequencies(P_FLAT)
    root = math.sqrt(63.0)
    np.testing.assert_allclose(freqs, [-root, 0.0, root], rtol=1e-12)


def test_resonance_frequencies_overdamped_collapse():
    freqs = resonance_frequencies(SystemParams(1.0, 1.0, 0.3, 0.5, 0.2))
    np.testing.assert_array_equal(freqs, [0.0])


def test_resonances_are_local_minima_of_spectral_steering():
    table = spectrum(P_FLAT, default_omega_grid(P_FLAT, 4001))
    for root in resonance_frequencies(P_FLAT):
        idx = int(np.argmin(np.abs(table.omega - root)))
        window = table.s12[max(idx - 15, 0) : idx + 16]
        assert table.s12[idx] <= window.min() + 1e-12


def test_thermal_window_values():
    window = thermal_window(P_FLAT)
    assert window == (pytest.approx(3600.0), pytest.approx(9999.0))
    assert thermal_window(SystemParams(1.0, 1.0, 1.0, 1.2, 10.0)) is None


def test_thermal_window_splits_directions_at_zero_frequency():
    low, high = thermal_window(P_FLAT)
    inside = P_FLAT.with_(n_th=0.5 * (low + high))
    point = spectrum_point(inside, 0.0)
    assert point.s12 < 1.0 <= point.s21
    below = P_FLAT.with_(n_th=0.5 * low)
    point = spectrum_point(below, 0.0)
    assert point.s12 < 1.0 and point.s21 < 1.0


def test_spectral_oneway_threshold_value():
    assert spectral_oneway_threshold(P_FLAT) == pytest.approx(100.0)
    p5 = SystemParams(1.0, 1.0, 2.0, 3.0, 9.0)
    assert spectral_oneway_threshold(p5) == pytest.approx(9.0)


def test_threshold_separates_zero_frequency_behaviour():
    base = SystemParams(1.0, 1.0, 2.0, 3.0, 9.0)
    above = spectrum_point(base.with_(gamma_m=12.0), 0.0)
    assert above.s21 < 1.0 <= above.s12
    below = spectrum_point(base.with_(gamma_m=4.0), 0.0)
    assert below.s12 < 1.0


def test_closed_form_helpers_require_equal_losses():
    p = SystemParams(1.0, 0.4, 6.0, 10.0, 0.01)
    for fn in (resonance_frequencies, thermal_window, spectral_oneway_threshold):
        with pytest.raises(UndefinedTransformError):
            fn(p)


def test_thermal_window_requires_damping():
    with pytest.raises(UndefinedTransformError):
        thermal_window(SystemParams(1.0, 1.0, 6.0, 10.0, 0.0))

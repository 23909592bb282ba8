"""Generators, stability, steady states and time evolution."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    damping_and_diffusion,
    evolve_oracle,
    exact_steady_moments,
    kronecker_oracle,
    lyapunov_oracle,
    propagate_per_report,
    quadrature_covariance,
    sample_stable,
    three_mode_covariance,
    uncertainty_eigenvalue,
)
from steerkit import (
    MomentState,
    NumericalError,
    ParameterError,
    SystemParams,
    UnstableSystemError,
    assess_rwa,
    assess_stability,
    build_generators,
    build_moment_state,
    evolve_moments,
    stability_margins,
    steady_state_closed_form,
    steady_state_lyapunov,
    to_correlation_matrix,
    vacuum_thermal_state,
)
import steerkit.dynamics as dynamics
from steerkit.dynamics import _kronecker_sum, _steady_batch

P_ASYM = SystemParams(1.0, 0.4, 10.0, 20.0, 0.01, 0.0)


# ---------------------------------------------------------------------------
# generators


def test_generator_matrices_have_documented_structure():
    p = SystemParams(kappa1=1.5, kappa2=0.7, g1=2.0, g2=3.0, gamma_m=0.2, n_th=1.25)
    gen = build_generators(p)
    a = gen.drift

    expected = np.zeros((6, 6), dtype=complex)
    expected[0, 0], expected[0, 5] = -1.5, -2.0j
    expected[1, 1], expected[1, 4] = -1.5, 2.0j
    expected[2, 2], expected[2, 4] = -0.7, -3.0j
    expected[3, 3], expected[3, 5] = -0.7, 3.0j
    expected[4, 4], expected[4, 1], expected[4, 2] = -0.2, -2.0j, -3.0j
    expected[5, 5], expected[5, 0], expected[5, 3] = -0.2, 2.0j, 3.0j
    np.testing.assert_array_equal(a, expected)

    noise = np.zeros((6, 6))
    noise[0, 1] = 3.0
    noise[2, 3] = 1.4
    noise[4, 5] = 0.4 * 2.25
    noise[5, 4] = 0.4 * 1.25
    np.testing.assert_array_equal(gen.noise, noise)


def test_noise_equals_two_k_d_bit_for_bit():
    rng = np.random.default_rng(16)
    sets = [P_ASYM, *(p.with_(n_th=float(rng.uniform(0.0, 50.0))) for p in sample_stable(rng, 40))]
    for p in sets:
        damping, diffusion = damping_and_diffusion(p)
        noise = build_generators(p).noise
        assert noise.dtype == float
        assert noise.tobytes() == (2.0 * damping @ diffusion).tobytes(), p


# ---------------------------------------------------------------------------
# stability


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_analytic_stability_matches_spectrum_on_random_sets(exponents):
    # rates log-uniform around kappa1 = 1, as sample_stable draws them
    k2, g1, g2, gm = (10.0**e for e in exponents)
    p = SystemParams(1.0, k2, g1, g2, gm)
    m1, m2 = stability_margins(p)
    # each margin relative to the sum of its terms' magnitudes
    scale1 = (k2 + gm) * ((1.0 + k2) * (1.0 + gm) + g2**2) + (1.0 + gm) * g1**2
    scale2 = g2**2 + k2 * g1**2 + gm * k2
    assume(abs(m1) > 1e-8 * scale1 and abs(m2) > 1e-8 * scale2)
    assert assess_stability(p).spectral_pass == (m1 > 0.0 and m2 > 0.0), p


def test_stability_margins_signs():
    m1, m2 = stability_margins(P_ASYM)
    assert m1 > 0.0 and m2 > 0.0
    bad = SystemParams(1.0, 1.0, 10.0, 2.0, 0.01)
    m1, m2 = stability_margins(bad)
    assert min(m1, m2) < 0.0


def test_rwa_report():
    p = SystemParams(1.0, 1.0, 2.0, 3.0, 0.5, n_th=4.0, omega_m=50.0)
    report = assess_rwa(p)
    assert report.assessable
    assert report.overall
    assert report.checks["gamma_m*n_th"] == (2.0, True)
    assert report.ratio == pytest.approx(50.0 / 3.0)

    tight = assess_rwa(p.with_(omega_m=25.0))
    assert not tight.overall

    unset = assess_rwa(SystemParams(1.0, 1.0, 2.0, 3.0, 0.5))
    assert not unset.assessable
    assert unset.overall is None


# ---------------------------------------------------------------------------
# moment states


def test_vacuum_thermal_state_entries():
    state = vacuum_thermal_state(3.0)
    assert state.n1 == 0.0 and state.n2 == 0.0
    assert state.nm == 3.0
    assert state.phi[4, 5] == 4.0
    assert state.conjugation_defect() == 0.0


def test_build_moment_state_roundtrip():
    state = build_moment_state(
        n1=1.0, n2=2.0, nm=0.5, c=0.3 - 0.4j, pair_1m=0.1j, pair_2m=0.2
    )
    assert state.n1 == 1.0
    assert state.n2 == 2.0
    assert state.nm == 0.5
    assert state.c == 0.3 - 0.4j
    assert state.phi[0, 4] == 0.1j
    assert state.phi[3, 4] == 0.2
    assert state.conjugation_defect() == 0.0


def test_correlation_matrix_real_c():
    state = build_moment_state(n1=1.0, n2=2.0, c=0.5)
    sigma = to_correlation_matrix(state)
    expected = np.array(
        [
            [1.5, 0.0, 0.5, 0.0],
            [0.0, 1.5, 0.0, -0.5],
            [0.5, 0.0, 2.5, 0.0],
            [0.0, -0.5, 0.0, 2.5],
        ]
    )
    np.testing.assert_allclose(sigma, expected, rtol=0, atol=0)


def test_correlation_matrix_complex_c_uses_magnitude():
    reference = to_correlation_matrix(build_moment_state(n1=1.0, n2=2.0, c=0.5))
    rotated = to_correlation_matrix(build_moment_state(n1=1.0, n2=2.0, c=0.5j))
    np.testing.assert_allclose(rotated, reference, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# steady states


def test_lyapunov_matches_eigenbasis_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for p in sample_stable(rng, 60):
        thermal = p.with_(n_th=float(rng.uniform(0.0, 5.0)))
        oracle = lyapunov_oracle(thermal)
        state = steady_state_lyapunov(thermal)
        scale = max(float(np.abs(oracle).max()), 1.0)
        worst = max(worst, float(np.abs(state.phi - oracle).max()) / scale)
    assert worst <= 1e-9


def test_lyapunov_satisfies_flow_residual():
    for p in (P_ASYM, SystemParams(1.0, 1.0, 6.0, 10.0, 8.0, 0.3)):
        gen = build_generators(p)
        phi = steady_state_lyapunov(p).phi
        residual = gen.drift @ phi + phi @ gen.drift.T + gen.noise
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(gen.noise)


def test_steady_state_is_self_conjugate():
    state = steady_state_lyapunov(P_ASYM)
    assert state.conjugation_defect() <= 1e-12
    assert abs(state.d1) <= 1e-14
    assert abs(state.d2) <= 1e-14
    assert abs(state.x12) <= 1e-14


# a grid across the stability edge g1 = g2 (equal losses); the residual gate
# rejects cells next to it, among them g1 = g2 = 10, gamma_m = 0.1259...,
# which fig 6 also meets
EDGE_GRID = np.array([
    (1.0, 1.0, g1, 10.0, gamma_m, n_th)
    for gamma_m in (0.01, 0.12590552330005395, 2.0)
    for g1 in np.linspace(8.0, 12.0, 9)
    for n_th in (0.0, 0.3)
])


def _one_row(rates):
    """(verdict, phi, report) of the one-row solve; phi is None where it raises."""
    params = SystemParams(*rates)
    try:
        return "ok", steady_state_lyapunov(params).phi, None
    except UnstableSystemError as err:
        return "unstable", None, err.report
    except NumericalError:
        return "residual", None, None


def test_batched_kernel_equals_one_row_solves_bit_for_bit():
    expected = [_one_row(rates) for rates in EDGE_GRID]
    verdicts = [verdict for verdict, _, _ in expected]
    assert verdicts.count("residual") >= 1
    assert verdicts.count("ok") > 10 and verdicts.count("unstable") > 10
    margins = np.array([stability_margins(SystemParams(*rates)) for rates in EDGE_GRID])
    analytic = (margins > 0.0).all(axis=1)
    n = len(EDGE_GRID)  # each shift moves every row to another position
    for shift in (0, 13, 31):
        order = np.roll(np.arange(n), shift)
        batch = _steady_batch(EDGE_GRID[order])
        np.testing.assert_array_equal(batch.stable, analytic[order])
        for k, row in enumerate(order):
            verdict, phi, report = expected[row]
            assert batch.stable[k] == (verdict != "unstable")
            assert batch.solved[k] == (verdict == "ok")
            if phi is None:
                assert np.isnan(batch.phi[k]).all()
            else:
                assert batch.phi[k].tobytes() == phi.tobytes()
            if report is not None:
                assert report == assess_stability(SystemParams(*EDGE_GRID[row]))


def test_batched_kernel_makes_no_eigenvalue_call(monkeypatch):
    def refuse(a):
        raise AssertionError("the steady kernel computed a spectrum")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    batch = _steady_batch(EDGE_GRID)
    assert batch.stable.any() and not batch.stable.all()


def test_kronecker_sum_equals_numpy_kron():
    rng = np.random.default_rng(15)
    eye = np.eye(6)
    for a in rng.normal(size=(20, 6, 6)) + 1j * rng.normal(size=(20, 6, 6)):
        assert _kronecker_sum(a).tobytes() == (np.kron(a, eye) + np.kron(eye, a)).tobytes()


def test_batched_kernel_matches_kronecker_oracle():
    batch = _steady_batch(EDGE_GRID)
    for rates, phi, solved in zip(EDGE_GRID, batch.phi, batch.solved):
        if solved:
            oracle = kronecker_oracle(SystemParams(*rates))
            scale = max(float(np.abs(oracle).max()), 1.0)
            assert np.abs(phi - oracle).max() <= 1e-9 * scale
    # the kernel's closed-form verdict agrees with the spectrum off the edge
    margins = np.array([stability_margins(SystemParams(*rates)) for rates in EDGE_GRID])
    clear = np.abs(margins).min(axis=1) > 1e-6
    spectral = np.array([assess_stability(SystemParams(*rates)).spectral_pass for rates in EDGE_GRID])
    assert clear.sum() > 40
    np.testing.assert_array_equal(batch.stable[clear], spectral[clear])


@pytest.mark.parametrize("n_th", [0.0, 2.5, 40.0])
def test_lyapunov_matches_exact_rational_solve(n_th):
    rng = np.random.default_rng(9)
    for p in sample_stable(rng, 20, n_th=n_th):
        exact = [float(x) for x in exact_steady_moments(p)]
        phi = steady_state_lyapunov(p).phi
        got = [
            phi[1, 0].real, phi[3, 2].real, phi[5, 4].real,
            phi[0, 2].real, phi[0, 4].imag, phi[2, 5].imag,
        ]
        scale = float(np.abs(phi).max())
        assert np.abs(np.subtract(got, exact)).max() <= 1e-12 * scale, p
        assert abs(phi[0, 2].imag) <= 1e-12 * scale


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    st.floats(0.0, 100.0),
    st.floats(0.0, 100.0),
)
def test_steady_kernel_is_affine_in_thermal_occupation(exponents, a, b):
    # the flow's only n_th dependence is the noise term 2 gamma_m n_th, so
    # the steady moments at the midpoint are the mean of the end points'
    k2, g1, g2, gm = (10.0**e for e in exponents)
    m1, m2 = stability_margins(SystemParams(1.0, k2, g1, g2, gm))
    assume(m1 > 0.0 and m2 > 0.0)
    batch = _steady_batch([(1.0, k2, g1, g2, gm, n_th) for n_th in (a, (a + b) / 2, b)])
    assert batch.solved.all()
    phi_a, phi_mid, phi_b = batch.phi
    scale = max(float(np.abs(phi_a).max()), float(np.abs(phi_b).max()))
    assert np.abs(phi_mid - (phi_a + phi_b) / 2).max() <= 1e-9 * scale


def _assert_physical(state, context):
    # sigma + i Omega / 2 >= 0 for all three modes and for the two cavities
    for sigma in (three_mode_covariance(state.phi), quadrature_covariance(state.phi)):
        bound = -1e-12 * max(1.0, float(np.abs(sigma).max()))
        assert uncertainty_eigenvalue(sigma) >= bound, context


_STABLE_SETS = st.tuples(
    st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), st.floats(0.0, 10.0)
)


def _stable_params(exponents, n_th):
    # rates log-uniform around kappa1 = 1, kept when stable, as sample_stable draws them
    k2, g1, g2, gm = (10.0**e for e in exponents)
    p = SystemParams(1.0, k2, g1, g2, gm, n_th)
    report = assess_stability(p)
    assume(report.analytic_pass and report.spectral_pass)
    return p


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_STABLE_SETS)
def test_steady_states_are_physical(rates):
    p = _stable_params(*rates)
    try:
        state = steady_state_lyapunov(p)
    except NumericalError:
        # the residual gate's typed refusal next to the g1 = g2 edge (as in
        # EDGE_GRID, here at g1 = g2 = 100) leaves no state to check
        assume(False)
    _assert_physical(state, p)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_STABLE_SETS)
def test_evolved_states_are_physical(rates):
    p = _stable_params(*rates)
    initial = vacuum_thermal_state(p.n_th)
    for t, state in zip((0.1, 1.0, 10.0), evolve_moments(p, initial, (0.1, 1.0, 10.0))):
        _assert_physical(state, (p, t))


def test_lyapunov_unstable_raises_with_report():
    p = SystemParams(1.0, 1.0, 10.0, 2.0, 0.01)
    with pytest.raises(UnstableSystemError) as err:
        steady_state_lyapunov(p)
    assert err.value.report.max_real_eigenvalue > 0.0


def test_closed_form_matches_lyapunov_cold():
    rng = np.random.default_rng(12)
    for p in sample_stable(rng, 100):
        cf = steady_state_closed_form(p)
        ly = steady_state_lyapunov(p)
        assert cf.n1 == pytest.approx(ly.n1, rel=1e-6, abs=1e-12)
        assert cf.n2 == pytest.approx(ly.n2, rel=1e-6, abs=1e-12)
        assert cf.c == pytest.approx(ly.c.real, rel=1e-6, abs=1e-12)
        assert abs(ly.c.imag) <= 1e-12 * max(1.0, abs(ly.c.real))


@pytest.mark.parametrize("n_th", [0.05, 0.7, 40.0])
def test_closed_form_thermal_matches_eigenbasis_oracle(n_th):
    rng = np.random.default_rng(13)
    for p in sample_stable(rng, 25, n_th=n_th):
        cf = steady_state_closed_form(p)
        oracle = MomentState(lyapunov_oracle(p))
        assert cf.n1 == pytest.approx(oracle.n1, rel=1e-8, abs=1e-12)
        assert cf.n2 == pytest.approx(oracle.n2, rel=1e-8, abs=1e-12)
        assert cf.c == pytest.approx(oracle.c.real, rel=1e-8, abs=1e-12)
        assert abs(oracle.c.imag) <= 1e-8 * max(1.0, abs(oracle.c.real))


def test_closed_form_unstable_raises():
    with pytest.raises(UnstableSystemError):
        steady_state_closed_form(SystemParams(1.0, 1.0, 10.0, 2.0, 0.01))


def test_closed_form_anchor_values():
    # Frozen reference numbers for the asymmetric-loss working point,
    # computed from the rational expressions at high precision.
    cf = steady_state_closed_form(P_ASYM)
    assert cf.n1 == pytest.approx(1.0013661118747996, rel=1e-12)
    assert cf.n2 == pytest.approx(2.464069937141411, rel=1e-12)
    assert cf.c == pytest.approx(-1.7825330079842012, rel=1e-12)


# ---------------------------------------------------------------------------
# time evolution


def test_evolution_matches_eigenbasis_oracle():
    rng = np.random.default_rng(14)
    worst = 0.0
    for p in sample_stable(rng, 12, decades=1.5):
        thermal = p.with_(n_th=float(rng.uniform(0.0, 3.0)))
        initial = vacuum_thermal_state(thermal.n_th)
        times = [0.05, 0.7, 3.0, 20.0]
        states = evolve_moments(thermal, initial, times)
        for t, state in zip(times, states):
            oracle = evolve_oracle(thermal, initial.phi, t)
            scale = max(float(np.abs(oracle).max()), 1.0)
            worst = max(worst, float(np.abs(state.phi - oracle).max()) / scale)
    assert worst <= 1e-7


def test_evolution_matches_plain_stepper():
    # Literal fixed-step RK4 on dPhi/dt = A Phi + Phi A^T + 2KD, small step.
    p = SystemParams(1.0, 0.7, 2.0, 3.0, 0.4, 0.5)
    gen = build_generators(p)

    def rhs(phi):
        return gen.drift @ phi + phi @ gen.drift.T + gen.noise.astype(complex)

    phi = vacuum_thermal_state(0.5).phi.copy()
    h, t_end = 5e-4, 0.5
    for _ in range(int(round(t_end / h))):
        k1 = rhs(phi)
        k2 = rhs(phi + 0.5 * h * k1)
        k3 = rhs(phi + 0.5 * h * k2)
        k4 = rhs(phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    (state,) = evolve_moments(p, vacuum_thermal_state(0.5), [t_end])
    assert float(np.abs(state.phi - phi).max()) <= 1e-9


#: a fig 2a/2b-style grid (few distinct float spacings), one with every
#: spacing distinct, and one that reports the initial time
PROPAGATION_GRIDS = {
    "arange": np.arange(1, 241) * (6.0 / 240),
    "distinct": np.cumsum(np.random.default_rng(3).uniform(0.01, 0.2, 60)),
    "from_zero": np.linspace(0.0, 4.0, 81),
}


def _one_row_fill(x):
    """The moment matrix of the six real moments ``x``, by the public one-row call."""
    return build_moment_state(*x[:4], complex(0.0, x[4]), complex(0.0, x[5])).phi


def _record_propagation(monkeypatch, params, times):
    """Evolve under ``params``; return each level's ``_propagate`` arguments and
    result, with its ``_rk4_step`` call count, and the returned states."""
    calls, steps = [], []
    propagate, rk4_step = dynamics._propagate, dynamics._rk4_step

    def counted_step(generator, h):
        steps[-1] += 1
        return rk4_step(generator, h)

    def recorded(generator, x0, grid, h):
        steps.append(0)
        out = propagate(generator, x0, grid, h)
        calls.append(((generator, x0, grid, h), out, steps[-1]))
        return out

    monkeypatch.setattr(dynamics, "_rk4_step", counted_step)
    monkeypatch.setattr(dynamics, "_propagate", recorded)
    states = evolve_moments(params, vacuum_thermal_state(params.n_th), times)
    return calls, states


@pytest.mark.parametrize("grid", sorted(PROPAGATION_GRIDS))
def test_shared_step_matrices_match_one_build_per_report_bit_for_bit(monkeypatch, grid):
    times = PROPAGATION_GRIDS[grid]
    calls, states = _record_propagation(monkeypatch, P_ASYM.with_(n_th=0.5), times)
    assert len(calls) >= 2
    for args, out, _ in calls:
        assert np.array_equal(out, propagate_per_report(*args))
    generator, x0 = calls[0][0][:2]
    assert generator.shape == (7, 7) and generator.dtype == float and x0.shape == (6,)
    final = calls[-1][1]
    assert len(final) == len(states)
    assert all(np.array_equal(s.phi, _one_row_fill(row)) for s, row in zip(states, final))


def test_step_matrices_are_built_once_per_spacing_and_states_own_their_memory(monkeypatch):
    times = PROPAGATION_GRIDS["arange"]
    spacings = np.unique(np.diff(times, prepend=0.0))
    assert 1 < len(spacings) < len(times) / 10
    calls, states = _record_propagation(monkeypatch, P_ASYM, times)
    assert len(calls) >= 2
    assert all(1 <= built <= len(spacings) for _, _, built in calls)
    # rows of one array never overlap, so a view would pass the pairwise check
    # alone; it is the stacked array that a view would keep alive
    stacked = calls[-1][1]
    assert not any(np.shares_memory(state.phi, stacked) for state in states)
    # a view into one batched fill would pass the checks below; each state owns its data
    assert all(state.phi.base is None for state in states)
    for a, b in itertools.combinations(states, 2):
        assert not np.shares_memory(a.phi, b.phi)


def test_evolution_preserves_structure():
    times = np.linspace(0.2, 6.0, 8)
    states = evolve_moments(P_ASYM, vacuum_thermal_state(0.0), times)
    for state in states:
        assert state.conjugation_defect() <= 1e-10
        assert abs(state.d1) <= 1e-12
        assert abs(state.d2) <= 1e-12
        assert abs(state.x12) <= 1e-12
        assert state.c.imag == pytest.approx(0.0, abs=1e-12)


def test_evolution_from_steady_state_is_stationary():
    steady = steady_state_lyapunov(P_ASYM)
    (state,) = evolve_moments(P_ASYM, steady, [5.0])
    assert float(np.abs(state.phi - steady.phi).max()) <= 1e-8


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
    st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6),
)
def test_real_flow_equals_the_kronecker_flow(exponents, x):
    # stable and unstable sets alike: the six real moments close under
    # L vec Phi + q, and M x + q is that flow read on them (the commutator
    # constants of the pattern have no time derivative)
    rates = np.array([[10.0**e for e in exponents]])
    m, q = dynamics._real_flow(rates)
    vec_phi = _one_row_fill(np.array(x)).reshape(-1)
    lhs = _kronecker_sum(dynamics._drifts(rates)[0])
    kron = lhs @ vec_phi + dynamics._noise_vectors(rates)[0]
    real = _one_row_fill(m[0] @ x + q[0]) - vacuum_thermal_state().phi
    scale = float((np.abs(lhs) @ np.abs(vec_phi)).max() + np.abs(q).max())
    assert np.abs(kron - real.reshape(-1)).max() <= 1e-12 * scale


def _single_cavity_pairing(value):
    """The vacuum with ``<a1 a1> = <a1+ a1+>* = value``, off the pattern."""
    phi = vacuum_thermal_state().phi.copy()
    phi[0, 0], phi[1, 1] = value, np.conj(value)
    return MomentState(phi)


@pytest.mark.parametrize(
    "initial",
    [build_moment_state(c=0.2 + 0.1j), _single_cavity_pairing(0.1)],
    ids=["complex-c", "a1-a1"],
)
def test_evolution_rejects_states_off_the_phase_symmetric_pattern(initial):
    with pytest.raises(ValueError, match="phase-symmetric"):
        evolve_moments(P_ASYM, initial, [0.5])


def test_evolution_accepts_steady_states():
    # the steady solve leaves rounding off the pattern (up to 4.2e-9 of
    # max|Phi| on random sets), which the pattern test must let through
    batch = _steady_batch(EDGE_GRID)
    rng = np.random.default_rng(17)
    sets = [*(SystemParams(*r) for r in EDGE_GRID[batch.solved]), *sample_stable(rng, 20, n_th=3.0)]
    for p in sets:
        steady = steady_state_lyapunov(p)
        (state,) = evolve_moments(p, steady, [0.5])
        scale = max(1.0, float(np.abs(steady.phi).max()))
        assert np.abs(state.phi - steady.phi).max() <= 1e-7 * scale, p


def test_evolution_validates_times():
    initial = vacuum_thermal_state()
    with pytest.raises(ValueError):
        evolve_moments(P_ASYM, initial, [])
    with pytest.raises(ValueError):
        evolve_moments(P_ASYM, initial, [1.0, 0.5])
    with pytest.raises(ValueError):
        evolve_moments(P_ASYM, initial, [-1.0, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evolution_rejects_non_finite_times(bad):
    initial = vacuum_thermal_state()
    for times in ([0.5, bad], [bad], [bad, 0.5]):
        with pytest.raises(ValueError, match="finite"):
            evolve_moments(P_ASYM, initial, times)


def test_evolution_accepts_unstable_systems():
    # Transient propagation is well-defined even when no steady state exists.
    p = SystemParams(1.0, 1.0, 3.0, 2.0, 0.01)
    assert not assess_stability(p).spectral_pass
    (state,) = evolve_moments(p, vacuum_thermal_state(), [0.4])
    oracle = evolve_oracle(p, vacuum_thermal_state().phi, 0.4)
    scale = max(float(np.abs(oracle).max()), 1.0)
    assert float(np.abs(state.phi - oracle).max()) / scale <= 1e-8


def test_moment_state_views_are_live():
    state = MomentState(vacuum_thermal_state(1.0).phi)
    state.phi[1, 0] = 0.25
    assert state.n1 == 0.25

"""Generators, stability, steady states and time evolution."""
from __future__ import annotations

import contextlib
import itertools
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    EDGE_GRID,
    closed_form_in_own_units,
    damping_and_diffusion,
    evolve_by_levels,
    evolve_oracle,
    exact_steady_moments,
    fill_per_entry,
    kronecker_oracle,
    lyapunov_oracle,
    propagate_per_report,
    quadrature_covariance,
    sample_stable,
    solve_row,
    three_mode_covariance,
    uncertainty_eigenvalue,
)
from steerkit import (
    AxisSpec,
    MomentState,
    NumericalError,
    ParameterError,
    SweepSpec,
    StepConvergenceError,
    SystemParams,
    UnstableSystemError,
    assess_rwa,
    assess_stability,
    build_generators,
    build_moment_state,
    evolve_moments,
    grid_sweep,
    stability_margins,
    steady_state_closed_form,
    steady_state_lyapunov,
    steering_result,
    to_correlation_matrix,
    vacuum_thermal_state,
)
import steerkit.dynamics as dynamics
from steerkit.dynamics import _kronecker_sums, _margins, _steady_batch

P_ASYM = SystemParams(1.0, 0.4, 10.0, 20.0, 0.01, 0.0)


def _one_row_fill(x):
    """The moment matrix of the six real moments ``x``, by the public one-row call."""
    return build_moment_state(*x[:4], complex(0.0, x[4]), complex(0.0, x[5])).phi


def _assert_on_pattern(state, context=None):
    """``state`` equals, exactly, the pattern the one writer fills from its own six
    real moments (the one reader's ``x``), so <a1 a1>, <a2 a2> and <a1 a2+> are
    exactly 0 (``==`` on values: a signed zero equals its negation)."""
    phi = state.phi
    assert np.array_equal(phi, _one_row_fill(dynamics._moments(phi.reshape(36)))), context
    assert phi[0, 0] == phi[2, 2] == phi[0, 3] == 0.0, context


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


@settings(max_examples=400)
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
    _assert_on_pattern(state)


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
    # self-conjugate exactly: Phi* = S Phi^T S, S swapping each operator with its conjugate
    swap = [1, 0, 3, 2, 5, 4]
    assert np.array_equal(np.conj(state.phi), state.phi.T[np.ix_(swap, swap)])
    assert state.phi[0, 0] == state.phi[2, 2] == state.phi[0, 3] == 0.0


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
    _assert_on_pattern(steady_state_lyapunov(P_ASYM))


def _one_row(rates):
    """(verdict, x, report) of the one-row solve, ``x`` its state's six real moments;
    x is None where it raises."""
    params = SystemParams(*rates)
    try:
        return "ok", dynamics._moments(steady_state_lyapunov(params).phi.reshape(36)), None
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
            verdict, x, report = expected[row]
            assert batch.stable[k] == (verdict != "unstable")
            assert batch.solved[k] == (verdict == "ok")
            if x is None:
                assert np.isnan(batch.x[k]).all()
            else:
                assert batch.x[k].tobytes() == x.tobytes()
            if report is not None:
                assert report == assess_stability(SystemParams(*EDGE_GRID[row]))


def test_rows_that_share_a_drift_share_one_factorization_per_block(monkeypatch):
    # the drift does not depend on n_th: each distinct drift of a block is factored
    # once, and every row keeps the bits of its lone call, gate included
    rng = np.random.default_rng(23)
    stable = [dynamics._rates(params)[0, :5] for params in sample_stable(rng, 40)]
    signed_zeros = [(1.0, 1.0, 0.0, 10.0, 0.5), (1.0, 1.0, -0.0, 10.0, 0.5)]  # two drifts
    drifts = np.concatenate([stable, signed_zeros, EDGE_GRID[::2, :5]])
    rates = np.array([(*drift, n_th) for n_th in (0.0, 0.5, 40.0) for drift in drifts])
    rates = rates[rng.permutation(len(rates))]
    lone = [_steady_batch(row) for row in rates]
    factorizations, blocks = [], []
    getrf, solve = dynamics._getrf, dynamics._solve

    def counting(a):
        factorizations.append(len(a))  # not ``a``, as in the fig 6 count
        return getrf(a)

    def per_block(block, fresh=None):
        made = len(factorizations)
        solved = solve(block, fresh)
        distinct = len({row.tobytes() for row in block[:, :5]})  # the drift, in units
        blocks.append((distinct, len(factorizations) - made))
        return solved

    monkeypatch.setattr(dynamics, "_getrf", counting)
    monkeypatch.setattr(dynamics, "_solve", per_block)
    batch = _steady_batch(rates)
    for k, one in enumerate(lone):
        for name, column in zip(batch._fields, batch):
            assert column[k].tobytes() == getattr(one, name)[0].tobytes(), (k, name)
    assert batch.stable.sum() > 3 * dynamics._BLOCK and not batch.solved.all()
    assert len(blocks) > 3 and all(distinct == made for distinct, made in blocks)
    assert len(factorizations) < batch.stable.sum()


def test_batched_kernel_makes_no_eigenvalue_call(monkeypatch):
    def refuse(a):
        raise AssertionError("the steady kernel computed a spectrum")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    batch = _steady_batch(EDGE_GRID)
    assert batch.stable.any() and not batch.stable.all()


def test_a_nan_residual_fails_the_gate_everywhere(monkeypatch):
    # a NaN residual compares False with its bound either way round, so the
    # gate must be the one mask ``residual <= bound`` for it to fail
    solve = dynamics._solve

    def nan_at_gamma_m_2(rates, fresh=None):
        # rates are in the rows' power-of-two units, where gamma_m / kappa1 is exact
        x, residual, bound = solve(rates, fresh)
        residual[rates[:, 4] == 2.0 * rates[:, 0]] = math.nan
        return x, residual, bound

    monkeypatch.setattr(dynamics, "_solve", nan_at_gamma_m_2)
    params = SystemParams(1.0, 1.0, 6.0, 10.0, 2.0)
    batch = _steady_batch([(1.0, 1.0, 6.0, 10.0, gm, 0.0) for gm in (1.0, 2.0)])
    assert batch.stable.all() and batch.solved.tolist() == [True, False]
    assert np.isfinite(batch.x[0]).all() and np.isnan(batch.x[1]).all()
    rows = grid_sweep(SweepSpec(params, (AxisSpec("gamma_m", 1.0, 2.0, 2),)))
    assert [row.stable for row in rows] == [True, True]
    assert math.isfinite(rows[0].s12)
    assert all(math.isnan(x) for x in (rows[1].s12, rows[1].s21, rows[1].e_n))
    with pytest.raises(NumericalError, match="residual nan"):
        steady_state_lyapunov(params)


#: rate rows ``(1, kappa2, g1, g2, gamma_m, n_th)``, rates log-uniform around kappa1 = 1
_RATE_ROWS = st.builds(
    lambda exponents, n_th: (1.0, *(10.0**e for e in exponents), n_th),
    st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    st.floats(0.0, 10.0),
)

#: kappa 1, 1, g 1e160, 2e160: g2**2 overflows in the margins
OVERFLOW_ROWS = np.array([(1.0, 1.0, 1e160, 2e160, gm, 0.0) for gm in (0.5, 1.0)])


def test_overflowing_margins_are_judged_on_a_power_of_two_rescaling():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = _steady_batch(OVERFLOW_ROWS)
    exact = [_margins(*map(Fraction, rates[:5])) for rates in OVERFLOW_ROWS]
    assert all(m1 > 0 and m2 > 0 for m1, m2 in exact)
    assert batch.stable.all()
    # the rescaled solve leaves occupations the residual gate cannot certify
    assert not batch.solved.any() and np.isnan(batch.x).all()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: eigvals rounds the drift's real parts at about eps times the "
    "largest rate, so at dampings far below it spectral_pass is noise (2.2e144 here)",
)
def test_spectral_verdict_agrees_with_the_analytic_one_at_extreme_rates():
    report = assess_stability(SystemParams(*OVERFLOW_ROWS[0]))
    assert report.analytic_pass
    assert report.spectral_pass


@settings(max_examples=100)
@given(_RATE_ROWS, st.integers(520, 1000))
def test_overflow_rescaling_gives_the_bits_of_the_unscaled_row(rates, k):
    # a row scaled by 2**k overflows its margins; the kernel scales it back
    # by a power of two, which the steady state does not see
    row = np.array(rates)
    huge = row.copy()
    huge[:5] *= 2.0**k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = _steady_batch([row, huge])
    with np.errstate(over="ignore", invalid="ignore"):
        m1, m2 = _margins(*huge[:5])
    assert not (np.isfinite(m1) and np.isfinite(m2))
    assert batch.stable[0] == batch.stable[1] and batch.solved[0] == batch.solved[1]
    assert batch.x[0].tobytes() == batch.x[1].tobytes()


@pytest.mark.parametrize(
    "rates",
    [
        np.exp(np.random.default_rng(15).uniform(-5.0, 5.0, size=(40, 6))),
        EDGE_GRID,
        # zero couplings, damping and occupation: -1j * 0.0 is -0.0 in the drift
        np.array([
            (1.0, 0.7, g1, g2, gm, 0.0)
            for g1 in (0.0, 2.0)
            for g2 in (0.0, 3.0)
            for gm in (0.0, 0.5)
        ]),
        np.array([(1.0, 1.0, 6.0, 10.0, 0.5, 0.3)]),
    ],
    ids=["random", "edge-grid", "zero-rates", "one-row"],
)
def test_kronecker_sums_equal_numpy_kron(rates):
    eye = np.eye(6)
    drifts = dynamics._drifts(rates)
    lhs = _kronecker_sums(rates)
    assert lhs.shape == (len(rates), 36, 36)
    for a, block in zip(drifts, lhs):
        assert block.tobytes() == (np.kron(a, eye) + np.kron(eye, a)).tobytes()


def test_batched_kernel_matches_kronecker_oracle():
    batch = _steady_batch(EDGE_GRID)
    for rates, phi, solved in zip(EDGE_GRID, map(_one_row_fill, batch.x), batch.solved):
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


@settings(max_examples=200)
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
    # the residual gate refuses some stable rows (the known defect below);
    # affinity is a property of the rows it solves
    assume(batch.solved.all())
    phi_a, phi_mid, phi_b = map(_one_row_fill, batch.x)
    scale = max(float(np.abs(phi_a).max()), float(np.abs(phi_b).max()))
    assert np.abs(phi_mid - (phi_a + phi_b) / 2).max() <= 1e-9 * scale


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: the residual gate refuses the stable row kappa 1, 1, g 100, 100, "
    "gamma_m 1 (residual 9.6e-9 against a bound of 2.7e-12 at n_th 0)",
)
def test_residual_gate_solves_a_stable_row_at_strong_coupling():
    # m2 = 1 against g**2 = 1e4: stable, with a well-defined steady state
    batch = _steady_batch([(1.0, 1.0, 100.0, 100.0, 1.0, n_th) for n_th in (0.0, 50.0)])
    assert batch.stable.all()
    assert batch.solved.all()


@pytest.mark.parametrize(
    "rates",
    [np.exp(np.random.default_rng(18).uniform(-5.0, 5.0, size=(200, 6))), EDGE_GRID],
    ids=["random", "edge-grid"],
)
def test_kernel_rows_have_the_bits_of_the_solve_in_their_own_units(rates):
    # the kernel judges and solves each row in power-of-two units; A Phi +
    # Phi A^T + 2KD is homogeneous of degree 1 in the five rates, and a power
    # of two scales every operation of the solve exactly
    batch = _steady_batch(rates)
    m1, m2 = _margins(*rates[:, :5].T)
    np.testing.assert_array_equal(batch.stable, (m1 > 0.0) & (m2 > 0.0))
    assert 10 < batch.stable.sum() < len(rates) - 10
    assert np.isnan(batch.x[~batch.stable]).all()
    for k in batch.stable.nonzero()[0]:
        # a block of one row: a row's bits do not depend on its block
        (x,), (residual,), (bound,) = dynamics._solve(rates[k:k + 1])
        assert batch.solved[k] == (residual <= bound)
        if batch.solved[k]:
            assert batch.x[k].tobytes() == dynamics._moments(x).tobytes()


@pytest.mark.parametrize(
    "rates",
    [np.exp(np.random.default_rng(19).uniform(-5.0, 5.0, size=(200, 6))), EDGE_GRID],
    ids=["random", "edge-grid"],
)
def test_block_solve_has_the_bits_of_per_row_solves(rates):
    # the block takes every residual with one batched product and every norm
    # with one batched real dot per part; each row keeps the bits of its own
    # lhs @ x + q, its own norms and its own refinement
    unit, stable = dynamics._judge(rates[:, :5].T)
    rows = stable.nonzero()[0]
    block = rates[rows]
    block[:, :5] = unit.T[rows]
    lhs, noise = _kronecker_sums(block), dynamics._noise_vectors(block)
    x, residual, bound = dynamics._solve(block)
    expected = [solve_row(a, q) for a, q in zip(lhs, noise)]
    assert x.tobytes() == np.array([e[0] for e in expected]).tobytes()
    assert residual.tobytes() == np.array([e[1] for e in expected]).tobytes()
    assert bound.tobytes() == np.array([e[2] for e in expected]).tobytes()
    # the kernel's blocks of _BLOCK rows give the same gate and moments
    batch = _steady_batch(rates)
    assert batch.residual[rows].tobytes() == residual.tobytes()
    assert batch.bound[rows].tobytes() == bound.tobytes()
    solved = residual <= bound
    assert batch.x[rows[solved]].tobytes() == dynamics._moments(x[solved]).tobytes()
    if rates is EDGE_GRID:  # refinement runs here, and rescues a row
        steps = np.array([e[3] for e in expected])
        assert (steps > 0).sum() >= 2 and (solved & (steps > 0)).any()
        assert not solved.all()


#: ``(kappa2, g1, g2, gamma_m)`` at kappa1 = 1 on the edge m2 = 0, where a
#: libm ``pow`` square and a product square give margins of opposite signs:
#: margins squared by product call the first three stable and the last three
#: unstable, margins squared by ``pow`` the opposite
POW_EDGE_ROWS = [
    (0.8433838779553169, 0.3488885075215008, 0.261679563560076, 0.04053098891475552),
    (2.1410818463866232, 4.812756289373864, 7.032858395231711, 0.06163922639876591),
    (1.2127301721971715, 0.6952049306176357, 0.35288767228565887, 0.380624473763699),
    (4.056281583003497, 0.4154532490578539, 0.29644581155157496, 0.15093621018116776),
    (2.2550065750348165, 1.70689395376099, 0.4937943494659532, 2.8053574134616963),
    (3.476549483237667, 7.390979073638781, 13.7795300557087, 0.010507816394985178),
]


def test_one_stability_verdict_on_the_edge():
    rates = np.array([(1.0, *row, 0.0) for row in POW_EDGE_ROWS])
    batch = _steady_batch(rates)
    params = [SystemParams(*row) for row in rates]
    assert batch.stable.tolist() == [assess_stability(p).analytic_pass for p in params]
    assert batch.stable.tolist() == [True, True, True, False, False, False]
    for p, stable in zip(params, batch.stable):
        if stable:
            with contextlib.suppress(NumericalError):  # the gate may refuse an edge row
                steady_state_lyapunov(p)
            steady_state_closed_form(p)
            continue
        for solve in (steady_state_lyapunov, steady_state_closed_form):
            with pytest.raises(UnstableSystemError) as err:
                solve(p)
            assert not err.value.report.analytic_pass


@settings(max_examples=200)
@given(_RATE_ROWS, st.floats(0.01, 100.0))
def test_steady_state_is_invariant_under_rate_scaling(rates, factor):
    row = np.array(rates)
    scaled = row.copy()
    scaled[:5] *= factor
    batch = _steady_batch([row, scaled])
    assume(batch.solved.all())
    phi, scaled_phi = map(_one_row_fill, batch.x)
    scale = max(1.0, float(np.abs(phi).max()))
    assert np.abs(scaled_phi - phi).max() <= 1e-11 * scale


def _assert_physical(state, context):
    # sigma + i Omega / 2 >= 0 for all three modes and for the two cavities
    for sigma in (three_mode_covariance(state.phi), quadrature_covariance(state.phi)):
        bound = -1e-12 * max(1.0, float(np.abs(sigma).max()))
        assert uncertainty_eigenvalue(sigma) >= bound, context


_FIVE_RATES = ("kappa1", "kappa2", "g1", "g2", "gamma_m")
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


@settings(max_examples=200)
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


@settings(max_examples=20)
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


#: edges of the rate space: no coupling, a hot bath on the fig 3a and 2a sets,
#: and loss ratios kappa2 / kappa1 from 1e-4 to 1e4 (unstable from 100 up)
EDGE_SETS = [
    SystemParams(1.0, 1.0, 0.0, 0.0, 0.5),
    SystemParams(1.0, 0.4, 0.0, 0.0, 0.5, 3.0),
    *(SystemParams(1.0, 1.0, 6.0, 10.0, gamma_m, 1e6) for gamma_m in (6.0, 8.0, 10.0)),
    SystemParams(1.0, 0.4, 10.0, 20.0, 0.01, 1e6),
    *(SystemParams(1.0, ratio, 1.0, 2.0, 0.5) for ratio in (1e-4, 1e-3, 1e-2, 1e2, 1e3, 1e4)),
]


@pytest.mark.parametrize("p", EDGE_SETS, ids=repr)
def test_edge_sets_give_finite_steering_or_a_typed_error(p):
    try:
        result = steering_result(steady_state_lyapunov(p))
    except UnstableSystemError:
        assert p.kappa2 / p.kappa1 >= 100.0
        return
    assert p.kappa2 / p.kappa1 < 100.0
    assert all(math.isfinite(value) for value in (result.s12, result.s21, result.e_n))


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


def test_closed_form_keeps_the_bits_of_its_own_units_on_criterion_01_sets():
    # the closed form runs in power-of-two units, which scale its products
    # exactly; criterion 01's sets keep the values of their own units
    for p in sample_stable(np.random.default_rng(101), 1000, decades=2.0):
        cf = steady_state_closed_form(p)
        assert (cf.n1, cf.n2, cf.c) == closed_form_in_own_units(p), p


def test_closed_form_is_finite_where_its_own_units_overflow():
    # kappa 1, 1, g 1e100, 2e100: m2 * m1 overflows in the rates' own units,
    # which gave NaN moments; the kernel's solve of the row (which its
    # residual gate refuses, as for OVERFLOW_ROWS) gives the same moments
    p = SystemParams(1.0, 1.0, 1e100, 2e100, 0.5)
    cf = steady_state_closed_form(p)
    assert all(math.isfinite(value) for value in (cf.n1, cf.n2, cf.c))
    with pytest.raises(NumericalError):
        steady_state_lyapunov(p)
    rates = dynamics._rates(p)
    rates[:, :5] = dynamics._judge(rates[:, :5].T)[0].T
    (x,), _, _ = dynamics._solve(rates)
    kernel = MomentState(x.reshape(6, 6))
    assert cf.n1 == pytest.approx(kernel.n1, rel=1e-12)
    assert cf.n2 == pytest.approx(kernel.n2, rel=1e-12)
    assert cf.c == pytest.approx(kernel.c.real, rel=1e-12)


def test_closed_form_refuses_a_subnormal_denominator():
    # at g 1e160, 2e160 the dampings are about 3.6e-161 in power-of-two units,
    # m2 * m1 is 2.7e-322 and products of dampings lose their digits: the
    # closed form gave n1 = 0.8545..., against 0.8518... from the kernel's solve
    with pytest.raises(NumericalError, match="subnormal"):
        steady_state_closed_form(SystemParams(1.0, 1.0, 1e160, 2e160, 0.5))
    assert steady_state_closed_form(SystemParams(1.0, 1.0, 1e100, 2e100, 0.5)).n1 == (
        0.8518518518518519
    )


#: rate rows around kappa1 = 1 with both couplings raised by 10**0, 10**100 or 10**160: at
#: 10**160 the denominator m2 * m1 is subnormal in power-of-two units
_SCALED_ROWS = st.builds(
    lambda exponents, scale, n_th: (
        1.0, 10.0 ** exponents[0], 10.0 ** (exponents[1] + scale),
        10.0 ** (exponents[2] + scale), 10.0 ** exponents[3], n_th,
    ),
    st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    st.sampled_from([0.0, 100.0, 160.0]),
    st.floats(0.0, 10.0),
)


@settings(max_examples=200)
@given(st.lists(_SCALED_ROWS, min_size=1, max_size=8))
@example([(1.0, 1.0, 1e160, 2e160, 0.5, 0.0), (1.0, 1.0, 1e100, 2e100, 0.5, 0.0)])
def test_closed_form_columns_are_its_one_row_calls(rows):
    # the screen's columns of a batch hold, bit for bit, what steady_state_closed_form
    # gives each stable row alone, and are NaN where it refuses a subnormal denominator
    rates = np.array(rows)
    unit, stable = dynamics._judge(rates[:, :5].T)
    with np.errstate(all="ignore"):
        columns = np.column_stack(dynamics._closed_form(*unit, rates[:, 5])).tolist()
    for row, row_stable, moments in zip(rows, stable.tolist(), columns):
        if not row_stable:
            with pytest.raises(UnstableSystemError):
                steady_state_closed_form(SystemParams(*row))
            continue
        try:
            cf = steady_state_closed_form(SystemParams(*row))
        except NumericalError:
            assert all(map(math.isnan, moments)), row
            continue
        assert [value.hex() for value in moments] == [cf.n1.hex(), cf.n2.hex(), cf.c.hex()], row


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


def _record_propagation(monkeypatch, params, times):
    """Evolve under ``params``; return each built level's ``_propagate`` arguments and
    result, with the step arguments of its ``_rk4_step`` calls, and the returned states."""
    calls, steps = [], []
    propagate, rk4_step = dynamics._propagate, dynamics._rk4_step

    def recorded_step(generator, h):
        steps[-1].append(np.array(h))
        return rk4_step(generator, h)

    def recorded(*args):
        steps.append([])
        out = propagate(*args)
        calls.append((args, out, steps[-1]))
        return out

    monkeypatch.setattr(dynamics, "_rk4_step", recorded_step)
    monkeypatch.setattr(dynamics, "_propagate", recorded)
    states = evolve_moments(params, vacuum_thermal_state(params.n_th), times)
    return calls, states


def _start_step(params) -> float:
    """The base step of the coarsest refinement level, as ``_evolve`` sets it."""
    eigs = np.linalg.eigvals(dynamics._drifts(dynamics._rates(params))[0])
    return 2.5 / max(2.0 * float(np.abs(eigs).max()), 1e-30)


def _level(times, h):
    """``(zero, spacings, counts)``: whether ``times`` reports t = 0, the spacings that
    ``_evolve`` chains (a report at t = 0 has none) and each step count's distinct spacings
    at base step ``h``, sorted."""
    zero = int(times[0] == 0.0)
    spacings = np.diff(times, prepend=0.0)[zero:].tolist()
    counts: dict[int, list[float]] = {}
    for dt in sorted(set(spacings)):
        counts.setdefault(max(1, math.ceil(dt / h - 1e-12)), []).append(dt)
    return zero, spacings, counts


@pytest.mark.parametrize("grid", sorted(PROPAGATION_GRIDS))
def test_shared_step_matrices_match_one_build_per_report_bit_for_bit(monkeypatch, grid):
    times, params = PROPAGATION_GRIDS[grid], P_ASYM.with_(n_th=0.5)
    calls, states = _record_propagation(monkeypatch, params, times)
    # the levels built are the refinement levels in turn, less each level whose step
    # counts repeat the level before: its rows would be that level's, bit for bit
    steps = [_start_step(params) / 2.0**k for k in range(dynamics._MAX_HALVINGS + 1)]
    levels = [_level(times, h) for h in steps]
    built = [k for k in range(len(levels)) if k == 0 or levels[k][2] != levels[k - 1][2]]
    assert len(calls) == (1 if grid == "arange" else 9)
    zero = levels[0][0]
    for k, ((generator, x0, spacings, counts), out, _) in zip(built, calls):
        assert spacings == levels[k][1]
        assert {n: sorted(dts) for n, dts in counts.items()} == levels[k][2]
        assert out[0].tobytes() == x0.tobytes()
        assert np.array_equal(out[1 - zero:], propagate_per_report(generator, x0, times, steps[k]))
    generator, x0 = calls[0][0][:2]
    assert generator.shape == (7, 7) and generator.dtype == float and x0.shape == (6,)
    final = calls[-1][1][1 - zero:]
    assert len(final) == len(states)
    assert all(np.array_equal(s.phi, _one_row_fill(row)) for s, row in zip(states, final))


def test_a_fig_2b_grid_builds_one_level(monkeypatch):
    # fig 2b's spacing is taken in one step at the first two levels, so the second
    # level is the first, bit for bit, and ends refinement without a build of its own
    params = SystemParams(1.0, 2.4, 12.0, 20.0, 0.01, 0.0)
    times = np.arange(1, 1201) * 0.025
    calls, states = _record_propagation(monkeypatch, params, times)
    assert len(calls) == 1
    (generator, x0, _, _), out, _ = calls[0]
    rows = evolve_by_levels(
        generator, x0, times, _start_step(params), dynamics._EVOLVE_TOL, dynamics._MAX_HALVINGS
    )
    assert out[1:].tobytes() == rows.tobytes()
    assert all(np.array_equal(s.phi, _one_row_fill(row)) for s, row in zip(states, rows))


def test_step_matrices_are_built_once_per_spacing_and_states_own_their_memory(monkeypatch):
    times = PROPAGATION_GRIDS["arange"]
    spacings = np.unique(np.diff(times, prepend=0.0))
    assert 1 < len(spacings) < len(times) / 10
    calls, states = _record_propagation(monkeypatch, P_ASYM, times)
    # every spacing is taken in one step at the first two levels: one build
    assert len(calls) == 1
    for (_, _, chained, counts), _, stacks in calls:
        # one _rk4_step call per distinct step count n, on the stack of every distinct
        # spacing of that count over n, so each spacing is built once
        assert sorted(dt for dts in counts.values() for dt in dts) == spacings.tolist()
        assert sorted(set(chained)) == spacings.tolist()
        assert all(stack.ndim == 1 for stack in stacks)
        assert sorted(sorted(stack.tolist()) for stack in stacks) == sorted(
            sorted((np.array(dts) / n).tolist()) for n, dts in counts.items()
        )
    # rows of one array never overlap, so a view would pass the pairwise check
    # alone; it is the stacked array that a view would keep alive
    stacked = calls[-1][1]
    assert not any(np.shares_memory(state.phi, stacked) for state in states)
    # a view into one batched fill would pass the checks below; each state owns its data
    assert all(state.phi.base is None for state in states)
    for a, b in itertools.combinations(states, 2):
        assert not np.shares_memory(a.phi, b.phi)


def _augmented_generator(params):
    """Van Loan's augmented 7x7 generator of ``params``' real flow, as evolution builds it."""
    m, q = dynamics._real_flow(dynamics._rates(params))
    return np.vstack([np.column_stack([m[0], q[0]]), np.zeros(7)])


@settings(max_examples=150)
@given(
    _STABLE_SETS,
    st.lists(st.sampled_from((0.05, 0.3, 1.0, 2.5, 7.0)), min_size=1, max_size=25),
    st.floats(0.5, 2.0),
    st.booleans(),
    st.integers(0, 6),
)
# spacings of step counts 1, 2, 10 and 28 at one level, after a report at t = 0
@example(((0.0, 0.0, 0.0, 0.0), 0.0), [0.05, 0.3, 2.5, 0.3, 7.0], 1.0, True, 2)
@example(((0.0, 0.0, 0.0, 0.0), 0.0), [1.0], 1.0, False, 0)  # a single report time
def test_stacked_step_builds_match_one_build_per_report(rates, spacings, scale, zero, halvings):
    # stacked matmul and matrix_power give each slice the bits of the 2-D call; the
    # spacings (in units of the starting step) reach several step counts per level
    p = _stable_params(*rates)
    generator = _augmented_generator(p)
    start = 1.25 / float(np.abs(np.linalg.eigvals(build_generators(p).drift)).max())
    times = np.cumsum(np.array(spacings) * scale * start)
    times = np.append(0.0, times) if zero else times
    x0 = dynamics._moments(vacuum_thermal_state(p.n_th).phi.reshape(36))
    h = start / 2.0**halvings
    _, chained, counts = _level(times, h)
    out = dynamics._propagate(generator, x0, chained, counts)
    assert out[0].tobytes() == x0.tobytes()
    assert out[int(not zero):].tobytes() == propagate_per_report(generator, x0, times, h).tobytes()


def _assert_evolution_keeps_the_levels_bits(params, times):
    """``_evolve`` returns the rows of :func:`evolve_by_levels`, with their layout, or raises its
    StepConvergenceError with the same step, difference and halvings; where the loop's step
    count overflows (OverflowError), ``_evolve`` raises StepConvergenceError instead."""
    x0 = np.array([0.0, 0.0, params.n_th, 0.0, 0.0, 0.0])
    args = (_augmented_generator(params), x0, times, _start_step(params))
    outcomes = []
    for evolve in (
        lambda: evolve_by_levels(*args, dynamics._EVOLVE_TOL, dynamics._MAX_HALVINGS),
        lambda: dynamics._evolve(params, x0, times),
    ):
        try:
            outcomes.append(evolve())
        except (StepConvergenceError, OverflowError) as err:
            outcomes.append(err)
    expected, out = outcomes
    if isinstance(expected, np.ndarray):
        assert out.tobytes() == expected.tobytes()
        assert (out.shape, out.strides) == (expected.shape, expected.strides)
        return
    assert isinstance(out, StepConvergenceError)
    if isinstance(expected, OverflowError):
        # the first level of a spacing too long for a finite step count ends refinement
        longest = float(np.diff(times, prepend=0.0).max())
        assert out.halvings < dynamics._MAX_HALVINGS and args[3] / 2.0**out.halvings == out.step
        assert longest / (2.0 * out.step) < math.inf == longest / out.step
        return
    assert type(expected) is StepConvergenceError and out.halvings == expected.halvings
    fields = [(err.step, err.max_difference) for err in (expected, out)]
    assert np.array(fields[0]).tobytes() == np.array(fields[1]).tobytes()


#: report grids in units of the starting step: one step a spacing at the first two
#: levels (dense), refining from the first level on, and mixed spacings
_GRIDS = st.one_of(
    st.tuples(st.floats(0.01, 0.45), st.integers(1, 40)),
    st.tuples(st.floats(1.3, 8.0), st.integers(1, 40)),
    st.lists(st.sampled_from((0.02, 0.3, 1.0, 2.5, 7.0)), min_size=1, max_size=25),
)


@settings(max_examples=120)
@given(_STABLE_SETS, _GRIDS, st.booleans(), st.booleans())
@example(((0.0, 0.0, 0.0, 0.0), 0.0), (0.2, 30), False, True)  # dense: one level built
@example(((0.0, 0.0, 0.0, 0.0), 0.0), [1.0], True, True)  # a report at t = 0 and one more
def test_evolution_keeps_the_bits_of_building_every_level(rates, grid, zero, converges):
    # a level of repeated step counts is not rebuilt and the report chain is written in
    # place; the rows and errors are those of the loop that built every level afresh
    p = _stable_params(*rates)
    start = _start_step(p)
    if isinstance(grid, tuple):
        times = grid[0] * start * np.arange(1, grid[1] + 1)
    else:
        times = np.cumsum(np.array(grid) * start)
    times = np.append(0.0, times) if zero else times
    # without a tolerance no level converges: each grid ends in StepConvergenceError
    endless = mock.patch.multiple(dynamics, _EVOLVE_TOL=0.0, _MAX_HALVINGS=4)
    with contextlib.nullcontext() if converges else endless:
        _assert_evolution_keeps_the_levels_bits(p, times)


@pytest.mark.parametrize(
    "g, halvings", [(1e150, 30), (1e300, 28)], ids=["refinement-exhausted", "step-count-overflow"]
)
def test_evolution_at_extreme_rates_ends_in_step_convergence_error(g, halvings):
    # at 1e300 halving drives the step subnormal and a spacing's step count infinite,
    # where the loop that built every level raised OverflowError from math.ceil
    params = SystemParams(1.0, 1.0, g, 2.0 * g, 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's own overflow notes
        _assert_evolution_keeps_the_levels_bits(params, np.array([0.5, 1.0]))
        with pytest.raises(StepConvergenceError) as err:
            evolve_moments(params, vacuum_thermal_state(), [0.5, 1.0])
    assert math.isnan(err.value.max_difference) and err.value.halvings == halvings


def test_evolution_preserves_structure():
    times = np.linspace(0.2, 6.0, 8)
    states = evolve_moments(P_ASYM, vacuum_thermal_state(0.0), times)
    for state in states:
        _assert_on_pattern(state)
        assert state.c.imag == 0.0


def test_evolution_from_steady_state_is_stationary():
    steady = steady_state_lyapunov(P_ASYM)
    (state,) = evolve_moments(P_ASYM, steady, [5.0])
    assert float(np.abs(state.phi - steady.phi).max()) <= 1e-8


@settings(max_examples=300)
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
    (lhs,) = _kronecker_sums(rates)
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


def test_library_states_are_exactly_on_the_pattern():
    # steady states, every evolution report and the vacuum are _fill's
    # pattern of their own _moments: the one writer of the one reader's x
    batch = _steady_batch(EDGE_GRID)
    rng = np.random.default_rng(21)
    sets = [*(SystemParams(*r) for r in EDGE_GRID[batch.solved]), *sample_stable(rng, 40, n_th=2.0)]
    for p in sets:
        steady, initial = steady_state_lyapunov(p), vacuum_thermal_state(p.n_th)
        for state in (steady, initial, *evolve_moments(p, initial, [0.1, 1.0])):
            _assert_on_pattern(state, p)
        for state in evolve_moments(p, steady, [0.5]):
            _assert_on_pattern(state, p)


def test_evolution_accepts_steady_states():
    # steady states are on the pattern and stay put under the flow, up to
    # the integration's own error
    batch = _steady_batch(EDGE_GRID)
    rng = np.random.default_rng(17)
    sets = [*(SystemParams(*r) for r in EDGE_GRID[batch.solved]), *sample_stable(rng, 20, n_th=3.0)]
    for p in sets:
        steady = steady_state_lyapunov(p)
        (state,) = evolve_moments(p, steady, [0.5])
        scale = max(1.0, float(np.abs(steady.phi).max()))
        assert np.abs(state.phi - steady.phi).max() <= 1e-7 * scale, p


@settings(max_examples=80)
@given(_STABLE_SETS, st.integers(-7, 5))
def test_evolution_at_scaled_rates_is_evolution_at_scaled_times(rates, k):
    # the flow is homogeneous of degree 1 in the rates: x(t; 2**k rates) = x(2**k t; rates)
    p = _stable_params(*rates)
    scaled = p.with_(**{name: 2.0**k * getattr(p, name) for name in _FIVE_RATES})
    times = np.linspace(0.1, 6.0, 30)
    initial = vacuum_thermal_state(p.n_th)
    for fast, slow in zip(
        evolve_moments(scaled, initial, times), evolve_moments(p, initial, 2.0**k * times)
    ):
        assert fast.phi.tobytes() == slow.phi.tobytes()


def test_evolution_validates_times():
    # evolve_moments and the rows that figures and `steerkit evolve` read check alike
    initial = vacuum_thermal_state()
    for times in ([], [1.0, 0.5], [0.5, 0.5, 1.0], [-1.0, 0.5]):
        with pytest.raises(ValueError):
            evolve_moments(P_ASYM, initial, times)
        with pytest.raises(ValueError):
            dynamics._evolve(P_ASYM, np.zeros(6), times)


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


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_moment_state_views_read_the_python_scalars_of_phi(layout, dtype):
    rng = np.random.default_rng(8)
    values = rng.normal(size=(6, 6)).astype(dtype)
    values += 1j * rng.normal(size=(6, 6)) if dtype is complex else 0.0
    values[3, 2] = -0.0  # a signed zero keeps its sign
    if layout == "strided":
        phi = np.zeros((12, 18), dtype=dtype)[1::2, ::3]
        phi[...] = values
    else:
        phi = np.array(values, order=layout)
    state = MomentState(phi)
    expected = (float(phi[1, 0].real), float(phi[3, 2].real), float(phi[5, 4].real),
                complex(phi[0, 2]))
    views = (state.n1, state.n2, state.nm, state.c)
    assert [(type(v), repr(v)) for v in views] == [(type(v), repr(v)) for v in expected]


_MOMENTS = st.lists(st.floats(-1e3, 1e3) | st.sampled_from((0.0, -0.0)), min_size=6, max_size=6)


@settings(max_examples=200)
@given(st.lists(_MOMENTS, min_size=1, max_size=4))
def test_the_one_flat_write_keeps_every_entry_bits(rows):
    # the entry-pair writer's bits, signed zeros of 1j * x and their conjugates
    # included, for each kind of moment the library fills the pattern from
    x = np.array(rows).T
    first = x[:, 0].tolist()
    for moments in (
        (*first[:4], 1j * first[4], 1j * first[5]),  # Python scalars, as steady states
        (*x[:4], *(1j * x[4:])),  # arrays, as evolution's report states
        (*x[:4, 0], *(1j * x[4:, 0])),  # numpy scalars, as the initial-state check
        (*first[:3], complex(first[3], first[4]), complex(-0.0, first[5]), 0.0),  # complex c
    ):
        phi, reference = dynamics._fill(*moments), fill_per_entry(*moments)
        assert phi.shape == reference.shape and phi.tobytes() == reference.tobytes()
        assert phi.base is None  # a steady state's phi holds no second array alive


def test_moment_state_views_are_live():
    state = MomentState(vacuum_thermal_state(1.0).phi)
    state.phi[1, 0] = 0.25
    assert state.n1 == 0.25

"""Composite squeezed-mode frame: transform, occupations, drift structure."""
from __future__ import annotations

import math

import numpy as np
import pytest

from steerkit import (
    SystemParams,
    UndefinedTransformError,
    build_moment_state,
    composite_occupations,
    squeeze_parameter,
    squeezed_frame,
    steady_state_lyapunov,
    transformed_drift,
)
from steerkit.squeezed import _transform_pair


def test_squeeze_parameter_value():
    assert squeeze_parameter(6.0, 10.0) == pytest.approx(math.atanh(0.6), rel=1e-15)
    assert squeeze_parameter(0.0, 1.0) == 0.0


@pytest.mark.parametrize("g1,g2", [(10.0, 10.0), (11.0, 10.0), (-1.0, 10.0)])
def test_squeeze_parameter_domain(g1, g2):
    with pytest.raises(UndefinedTransformError):
        squeeze_parameter(g1, g2)


@pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
def test_composite_occupations_need_a_finite_squeeze(r):
    with pytest.raises(UndefinedTransformError, match="finite"):
        composite_occupations(build_moment_state(n1=0.5, n2=0.25, c=0.1), r)


def test_transform_pair_inverse():
    for r in (0.0, 0.4, 1.3):
        t, ti = _transform_pair(r)
        np.testing.assert_allclose(t @ ti, np.eye(6), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(ti, _transform_pair(-r)[0])


def test_composite_occupations_identity():
    rng = np.random.default_rng(31)
    for _ in range(500):
        n1, n2, nm = 10.0 ** rng.uniform(-2, 2, size=3)
        c = complex(rng.normal(), rng.normal())
        r = float(rng.uniform(0.0, 2.0))
        state = build_moment_state(n1=n1, n2=n2, nm=nm, c=c)
        occ1, occ2 = composite_occupations(state, r)
        assert occ2 - occ1 == pytest.approx(n1 - n2, rel=1e-12, abs=1e-12)


def test_composite_occupations_vacuum():
    state = build_moment_state()
    r = 0.8
    occ1, occ2 = composite_occupations(state, r)
    assert occ1 == pytest.approx(math.sinh(r) ** 2, rel=1e-12)
    assert occ2 == pytest.approx(math.sinh(r) ** 2, rel=1e-12)


def test_composite_occupations_from_operator_transform():
    # Cross-check the closed-form occupations against an explicit
    # conjugation of the moment matrix by the frame transform.
    rng = np.random.default_rng(32)
    for _ in range(50):
        n1, n2, nm = 10.0 ** rng.uniform(-1, 1, size=3)
        c = complex(rng.normal(), rng.normal())
        r = float(rng.uniform(0.1, 1.5))
        state = build_moment_state(n1=n1, n2=n2, nm=nm, c=c)
        t, _ = _transform_pair(r)
        phi_new = t @ state.phi @ t.T
        occ1, occ2 = composite_occupations(state, r)
        assert phi_new[1, 0].real == pytest.approx(occ1, rel=1e-10, abs=1e-12)
        assert phi_new[3, 2].real == pytest.approx(occ2, rel=1e-10, abs=1e-12)


def test_squeezed_frame_end_to_end():
    p = SystemParams(1.0, 1.0, 6.0, 10.0, 0.01, 0.0)
    state = steady_state_lyapunov(p)
    frame = squeezed_frame(p, state)
    assert frame.r == pytest.approx(math.atanh(0.6), rel=1e-12)
    assert frame.omega == pytest.approx(8.0, rel=1e-12)
    assert frame.occupations == composite_occupations(state, frame.r)


def test_squeezed_frame_requires_weaker_first_coupling():
    p = SystemParams(1.0, 1.0, 10.0, 6.0, 8.0)
    with pytest.raises(UndefinedTransformError):
        squeezed_frame(p, build_moment_state())


def test_transformed_drift_structure():
    rng = np.random.default_rng(33)
    for _ in range(50):
        kappa = float(10.0 ** rng.uniform(-1, 1))
        gm = float(10.0 ** rng.uniform(-1, 1))
        g2 = float(10.0 ** rng.uniform(-1, 1))
        g1 = g2 * float(rng.uniform(0.05, 0.95))
        p = SystemParams(kappa, kappa, g1, g2, gm)
        frame = transformed_drift(p)
        omega = math.sqrt(g2**2 - g1**2)
        assert frame.omega == pytest.approx(omega, rel=1e-12)
        assert frame.c2_coupling_max <= 1e-12
        assert frame.c1_b_coupling == pytest.approx(-1j * omega, rel=1e-12)
        # diagonal damping survives the frame change unchanged
        assert frame.drift[0, 0] == pytest.approx(-kappa, rel=1e-12)
        assert frame.drift[2, 2] == pytest.approx(-kappa, rel=1e-12)
        assert frame.drift[4, 4] == pytest.approx(-gm, rel=1e-12)


def test_transformed_drift_requires_equal_losses():
    with pytest.raises(UndefinedTransformError):
        transformed_drift(SystemParams(1.0, 0.4, 6.0, 10.0, 0.01))

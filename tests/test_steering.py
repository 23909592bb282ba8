"""Steering products, entanglement measure, classification, predicates."""
from __future__ import annotations

import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    quadrature_covariance,
    sample_physical_family,
    sample_stable,
    steering_oracle,
)
from steerkit import (
    DegenerateConditioningError,
    PhysicalityError,
    SystemParams,
    build_moment_state,
    classify,
    logarithmic_negativity,
    regime_predicates,
    steady_state_lyapunov,
    steering_products_reduced,
    steering_result,
    vacuum_thermal_state,
)
from steerkit.steering import _HOLDS_BELOW

P_ASYM = SystemParams(1.0, 0.4, 10.0, 20.0, 0.01, 0.0)


# ---------------------------------------------------------------------------
# products and E_N against the covariance-matrix oracle


@st.composite
def physical_states(draw):
    """Phase-symmetric states with a random pairing phase.

    ``|c|^2`` is a drawn fraction of its physical maximum
    ``min(n1, n2) (max(n1, n2) + 1)``, where the smaller symplectic
    eigenvalue of the covariance reaches 1/2; at large occupations that
    maximum approaches the bound ``(n1 + 1/2)(n2 + 1/2)``.  The edge itself
    and fractions within 1e-12 of it are drawn often.
    """
    occupation = st.one_of(
        st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
    )
    n1, n2 = draw(occupation), draw(occupation)
    fraction = draw(
        st.one_of(
            st.just(1.0),
            st.floats(0.0, 12.0).map(lambda k: 1.0 - 10.0**-k),
            st.floats(0.0, 1.0),
        )
    )
    phase = draw(st.floats(-math.pi, math.pi))
    modulus = math.sqrt(fraction * min(n1, n2) * (max(n1, n2) + 1.0))
    return build_moment_state(n1=n1, n2=n2, c=modulus * cmath.exp(1j * phase))


def _assert_kernel_matches_oracle(state):
    s12, s21 = steering_products_reduced(state)
    e_n = logarithmic_negativity(state)
    o12, o21, oe = steering_oracle(quadrature_covariance(state.phi))
    a, b = state.n1 + 0.5, state.n2 + 0.5
    # the oracle's S12 carries rounding of order eps a^2 (det sigma, of
    # order a^2 b^2, over det sigma_2 = b^2) and its nu one of order
    # eps (a + b); over 20,000 draws the largest misses were 1.6e-14 a^2
    # and 1.2e-15 (a + b) e^E_N
    assert abs(s12 - o12) <= 1e-12 * a * a
    assert abs(s21 - o21) <= 1e-12 * b * b
    assert abs(e_n - oe) <= 1e-13 * (a + b) * (1.0 + math.exp(oe))
    return s12, s21, e_n


@settings(max_examples=400)
@given(physical_states())
def test_kernel_matches_oracle_and_steering_implies_entanglement(state):
    s12, s21, e_n = _assert_kernel_matches_oracle(state)
    if s12 < 1.0 or s21 < 1.0:
        assert e_n > 0.0


def test_kernel_matches_oracle_on_steady_states():
    rng = np.random.default_rng(23)
    for p in sample_stable(rng, 40):
        _assert_kernel_matches_oracle(
            steady_state_lyapunov(p.with_(n_th=float(rng.uniform(0.0, 2.0))))
        )


def test_vacuum_products_are_one():
    s12, s21 = steering_products_reduced(vacuum_thermal_state())
    assert s12 == 1.0 and s21 == 1.0


def test_unphysical_correlation_rejected():
    nan, inf = math.nan, math.inf
    for state in (
        build_moment_state(n1=0.0, n2=0.0, c=2.0),
        build_moment_state(c=nan),
        build_moment_state(n1=1.0, n2=1.0, c=complex(0.5, nan)),
        build_moment_state(c=inf),
    ):
        for fn in (steering_products_reduced, logarithmic_negativity, steering_result):
            with pytest.raises(PhysicalityError):
                fn(state)
    # on the bound |c|^2 = (n1 + 1/2)(n2 + 1/2) the partial transpose is singular
    with pytest.raises(PhysicalityError):
        logarithmic_negativity(build_moment_state(c=0.5))


def test_degenerate_variance_rejected():
    for state in (
        build_moment_state(n2=-0.5),
        build_moment_state(n1=-0.5),
        build_moment_state(n1=-2.0),
        # a NaN fails every comparison, so each check must be written to fail on it
        build_moment_state(n1=math.nan),
        build_moment_state(n2=math.nan, c=0.5),
        build_moment_state(n1=math.inf),
        build_moment_state(n2=math.inf, c=1.0),
    ):
        for fn in (steering_products_reduced, logarithmic_negativity, steering_result):
            with pytest.raises(DegenerateConditioningError):
                fn(state)


# ---------------------------------------------------------------------------
# logarithmic negativity


def test_two_mode_squeezed_vacuum_negativity():
    for r in (0.3, 1.0, 2.0, 4.0):
        n = math.sinh(r) ** 2
        c = math.sinh(r) * math.cosh(r)
        state = build_moment_state(n1=n, n2=n, c=c)
        assert logarithmic_negativity(state) == pytest.approx(2.0 * r, rel=1e-10)


def test_negativity_keeps_its_digits_at_large_occupation():
    # a steady state on the stability edge with max|Phi| 1.8e5, where the
    # determinant form of E_N was off by 1.4e-5 and the eigenvalue oracle
    # by 6.5e-7; the reference is the closed form in 50-digit arithmetic
    params = SystemParams(
        1.0, 2.558716822768231, 7.251139142493779, 11.479566020521432, 1.0769278429558475
    )
    state = steady_state_lyapunov(params)
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(state.n1) + Decimal("0.5")
        b = Decimal(state.n2) + Decimal("0.5")
        c2 = Decimal(state.c.real) ** 2 + Decimal(state.c.imag) ** 2
        nu = (a + b) / 2 - (((a - b) / 2) ** 2 + c2).sqrt()
        exact = float(-(2 * nu).ln())
    assert logarithmic_negativity(state) == pytest.approx(exact, rel=1e-9)


def test_product_state_has_zero_negativity():
    assert logarithmic_negativity(build_moment_state(n1=0.7, n2=1.3, c=0.0)) == 0.0


def test_negativity_positive_iff_pairing_beats_geometric_mean():
    rng = np.random.default_rng(24)
    for n1, n2, c in sample_physical_family(rng, 300):
        e_n = logarithmic_negativity(build_moment_state(n1=n1, n2=n2, c=c))
        entangled = abs(c) > math.sqrt(n1 * n2) + 1e-12
        separable = abs(c) < math.sqrt(n1 * n2) - 1e-12
        if entangled:
            assert e_n > 0.0
        elif separable:
            assert e_n == 0.0


# ---------------------------------------------------------------------------
# classification


def test_classify_four_branches():
    assert classify(0.5, 0.9) == "two-way"
    assert classify(0.5, 1.2) == "one-way-2-steers-1"
    assert classify(1.2, 0.5) == "one-way-1-steers-2"
    assert classify(1.2, 1.2) == "no-steering"
    assert classify(1.0, 1.0) == "no-steering"


def test_steering_result_on_reference_point():
    result = steering_result(steady_state_lyapunov(P_ASYM))
    assert result.s12 < 1.0 < result.s21
    assert result.e_n > 0.0
    assert result.classification == "one-way-2-steers-1"


def test_decoupled_cavity_gives_no_steering():
    state = steady_state_lyapunov(SystemParams(1.0, 1.0, 0.0, 2.0, 0.5))
    result = steering_result(state)
    assert result.classification == "no-steering"
    assert result.e_n == 0.0
    assert result.s12 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# regime predicates


def test_weak_damping_predicates_asymmetric_losses():
    preds = regime_predicates(P_ASYM)
    assert preds.s12_oneway_weak is True
    assert preds.s21_oneway_weak is False
    assert preds.entangled_weak is True
    assert preds.numbers["s12_oneway_weak"] == (36.0, pytest.approx(0.784))
    assert preds.numbers["entangled_weak"] == (160.0, 100.0)
    assert preds.omega == pytest.approx(math.sqrt(300.0))
    assert preds.s21_cond_strong is None
    assert "kappa1 == kappa2" in preds.notes["s21_cond_strong"]


def test_weak_damping_predicates_equal_losses_not_applicable():
    preds = regime_predicates(SystemParams(1.0, 1.0, 6.0, 10.0, 0.01))
    assert preds.s12_oneway_weak is None
    assert preds.s21_oneway_weak is None
    assert "kappa1 != kappa2" in preds.notes["s12_oneway_weak"]


def test_strong_damping_predicates():
    preds = regime_predicates(SystemParams(1.0, 1.0, 6.0, 10.0, 8.0))
    assert preds.omega == pytest.approx(8.0)
    assert preds.s21_cond_strong is True
    lhs, rhs = preds.numbers["s21_cond_strong"]
    assert lhs == pytest.approx(8.0)
    assert rhs == pytest.approx(1.0 / 15.0)
    assert preds.s12_cond_strong is False
    lhs, rhs = preds.numbers["s12_cond_strong"]
    assert lhs == pytest.approx(8.0)
    assert rhs == pytest.approx((10.0 * math.sqrt(56.0) - 64.0) / 2.0)


def test_strong_damping_needs_effective_coupling():
    preds = regime_predicates(SystemParams(1.0, 1.0, 10.0, 6.0, 8.0))
    assert preds.omega is None
    assert preds.s21_cond_strong is None
    assert "g2 > g1" in preds.notes["s21_cond_strong"]


def test_strong_damping_predicates_need_a_large_effective_coupling():
    # Omega**2 = 1.25: below (2 kappa)**2 and below 8 kappa**2
    preds = regime_predicates(SystemParams(1.0, 1.0, 1.0, 1.5, 0.5))
    assert preds.omega == math.sqrt(1.25)
    assert preds.s21_cond_strong is None and preds.s12_cond_strong is None
    assert preds.notes["s21_cond_strong"] == "needs Omega > 2 kappa"
    assert preds.notes["s12_cond_strong"] == "needs Omega^2 > 8 kappa^2"
    assert not {"s21_cond_strong", "s12_cond_strong"} & set(preds.numbers)


def test_weak_predicates_match_steady_classification():
    # Where the weak-damping inequalities fire, the actual steady products
    # at small gamma_m agree with the predicted direction.
    for kappa2, expect in ((0.4, "one-way-2-steers-1"), (2.4, None)):
        p = SystemParams(1.0, kappa2, 10.0, 20.0, 1e-4, 0.0)
        preds = regime_predicates(p)
        result = steering_result(steady_state_lyapunov(p))
        if preds.s12_oneway_weak:
            assert result.s12 < 1.0
            assert expect is None or result.classification == expect
        if preds.s21_oneway_weak:
            assert result.s21 < 1.0


_PREDICATES = (
    "s12_oneway_weak", "s21_oneway_weak", "entangled_weak", "s21_cond_strong", "s12_cond_strong"
)


@settings(max_examples=300)
@given(
    st.floats(0.1, 10.0),
    st.one_of(st.none(), st.floats(0.1, 10.0)),  # None: equal losses
    st.floats(0.0, 30.0),
    st.floats(0.0, 30.0),
    st.floats(0.0, 60.0),
)
def test_each_predicate_is_its_numbers_compared_by_its_relation(k1, k2, g1, g2, gamma_m):
    # s12_cond_strong holds below its bound, every other predicate above its
    # rhs; the relation printed by ``check`` reads the same set
    preds = regime_predicates(SystemParams(k1, k1 if k2 is None else k2, g1, g2, gamma_m))
    for name in _PREDICATES:
        flag = getattr(preds, name)
        if flag is None:
            assert name not in preds.numbers and name in preds.notes
            continue
        lhs, rhs = preds.numbers[name]
        assert type(flag) is bool
        assert flag == (lhs < rhs if name in _HOLDS_BELOW else lhs > rhs), (name, lhs, rhs)
    assert set(preds.numbers) | set(preds.notes) == set(_PREDICATES)


#: rate sets whose five predicates are all evaluated (unequal losses) or whose
#: strong-damping predicates are (equal losses, gamma_m >= 5 kappa)
SCALED_PREDICATE_SETS = [
    SystemParams(1.0, 2.0, 1.0, 3.0, 1.0),
    SystemParams(1.0, 1.0, 6.0, 10.0, 6.0),
]


def test_predicates_do_not_depend_on_a_power_of_two_rate_scale():
    # every predicate compares terms of one degree in the rates, and Omega has
    # the unit of a rate, so a power-of-two scale changes no verdict and no bit
    rates = ("kappa1", "kappa2", "g1", "g2", "gamma_m")
    for params in SCALED_PREDICATE_SETS:
        preds = regime_predicates(params)
        verdicts = [getattr(preds, name) for name in _PREDICATES]
        for scale in (2.0**-664, 2.0**664):
            scaled = regime_predicates(params.with_(**{r: scale * getattr(params, r) for r in rates}))
            assert [getattr(scaled, name) for name in _PREDICATES] == verdicts, scale
            assert scaled.omega / scale == preds.omega, scale


#: each predicate's degree in the rates: its operands scale by ``scale**degree``
_PREDICATE_DEGREES = {
    "s12_oneway_weak": 4, "s21_oneway_weak": 4, "entangled_weak": 3,
    "s21_cond_strong": 0, "s12_cond_strong": 0,
}


def test_predicate_operands_scale_by_their_degree_or_name_their_units():
    # a recorded pair is either in the rates' own units, exactly scale**degree times
    # the unscaled pair, or a note names the power of two that brings it there
    rates = ("kappa1", "kappa2", "g1", "g2", "gamma_m")
    for params in SCALED_PREDICATE_SETS:
        preds = regime_predicates(params)
        for scale in (2.0**-20, 2.0**-664, 2.0**664):
            scaled = regime_predicates(params.with_(**{r: scale * getattr(params, r) for r in rates}))
            assert set(scaled.numbers) == set(preds.numbers)
            for name, pair in scaled.numbers.items():
                degree = _PREDICATE_DEGREES[name]
                note = scaled.notes.get(name)
                exponent = 0 if note is None else int(note.removeprefix("operands in units of 2**"))
                assert (note is not None) == (scale != 2.0**-20 and degree > 0), (name, scale)
                assert [Fraction(v) * Fraction(2) ** exponent for v in pair] == [
                    Fraction(v) * Fraction(scale) ** degree for v in preds.numbers[name]
                ], (name, scale)

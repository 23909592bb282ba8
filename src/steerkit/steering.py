"""Quadrature-inference steering products and the entanglement measure.

Steering of cavity 1 by measurements on cavity 2 is certified by

    S12 = 4 Vinf(X1) Vinf(Y1) < 1,

where ``Vinf(O1) = V(O1) - V(O1, O2)^2 / V(O2)`` is the inference variance
of a cavity-1 quadrature given the best linear estimate from the partner
quadrature of cavity 2, and the factor 4 normalizes the vacuum product to
one.  ``S21`` mirrors the roles.  Entanglement is quantified by the
logarithmic negativity of the two-cavity covariance matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .dynamics import MomentState, to_correlation_matrix
from .errors import DegenerateConditioningError, PhysicalityError
from .params import SystemParams

__all__ = [
    "steering_products",
    "steering_products_reduced",
    "logarithmic_negativity",
    "classify",
    "SteeringResult",
    "steering_result",
    "RegimePredicates",
    "regime_predicates",
]

#: gamma_m / kappa below which the strong-damping S12 condition is not evaluated
_STRONG_DAMPING_MIN_RATIO = 5.0


def _mode1_rotation(sigma: NDArray) -> NDArray:
    """Rotate cavity 1's quadratures so the cross block becomes diagonal.

    Valid for the symmetric-traceless cross blocks this model produces
    (the form ``[[a, b], [b, -a]]`` left by any pairing moment); for other
    inputs the rotation is skipped.
    """
    cross = sigma[:2, 2:]
    a = 0.5 * (cross[0, 0] - cross[1, 1])
    b = 0.5 * (cross[0, 1] + cross[1, 0])
    if abs(b) <= 1e-14 * max(1.0, abs(a)):
        return sigma
    theta = -math.atan2(b, a)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.eye(4)
    rot[0, 0] = rot[1, 1] = c
    rot[0, 1] = -s
    rot[1, 0] = s
    return rot @ sigma @ rot.T


def steering_products(sigma) -> tuple[float, float]:
    """Both steering products from a 4x4 two-cavity covariance matrix.

    Parameters
    ----------
    sigma : array_like
        Covariance in the quadrature order (X1, Y1, X2, Y2) with vacuum
        variance 1/2.  If the cross block is non-diagonal (but symmetric
        traceless, as produced by this model) cavity 1 is first rotated to
        the frame that diagonalizes it.

    Returns
    -------
    (s12, s21) : tuple of float
        Normalized inference-variance products; values below 1 certify
        steering of the correspondingly indexed cavity.

    Raises
    ------
    PhysicalityError
        If a cross correlation exceeds its Cauchy-Schwarz bound by more
        than 1e-12.
    DegenerateConditioningError
        If a conditioning variance vanishes.
    """
    sigma = np.array(sigma, dtype=float, copy=True)
    if sigma.shape != (4, 4):
        raise ValueError("sigma must be 4x4")
    sigma = _mode1_rotation(sigma)

    vx1, vy1, vx2, vy2 = (float(sigma[i, i]) for i in range(4))
    cx = float(sigma[0, 2])
    cy = float(sigma[1, 3])

    if min(vx1, vy1, vx2, vy2) <= 0.0:
        raise DegenerateConditioningError(
            "a quadrature variance is non-positive; inference undefined"
        )
    for c2, bound in ((cx * cx, vx1 * vx2), (cy * cy, vy1 * vy2)):
        if c2 - bound > 1e-12 * max(1.0, bound):
            raise PhysicalityError(
                "cross correlation exceeds the Cauchy-Schwarz bound; "
                "the covariance matrix is unphysical"
            )

    inf_x1 = max(vx1 - cx * cx / vx2, 0.0)
    inf_y1 = max(vy1 - cy * cy / vy2, 0.0)
    inf_x2 = max(vx2 - cx * cx / vx1, 0.0)
    inf_y2 = max(vy2 - cy * cy / vy1, 0.0)
    return 4.0 * inf_x1 * inf_y1, 4.0 * inf_x2 * inf_y2


def steering_products_reduced(moments: MomentState) -> tuple[float, float]:
    """Steering products straight from (n1, n2, |c|), skipping the matrix.

    Algebraically identical to :func:`steering_products` applied to
    :func:`~steerkit.dynamics.to_correlation_matrix`:

        S12 = [(2 n1 + 1) - 4 |c|^2 / (2 n2 + 1)]^2,

    and mirrored for S21.
    """
    n1, n2 = moments.n1, moments.n2
    c2 = abs(moments.c) ** 2
    bound = (n1 + 0.5) * (n2 + 0.5)
    if c2 - bound > 1e-12 * max(1.0, bound):
        raise PhysicalityError(
            "pairing moment exceeds its physical bound |c|^2 <= (n1+1/2)(n2+1/2)"
        )
    w12 = max((2.0 * n1 + 1.0) - 4.0 * c2 / (2.0 * n2 + 1.0), 0.0)
    w21 = max((2.0 * n2 + 1.0) - 4.0 * c2 / (2.0 * n1 + 1.0), 0.0)
    return w12 * w12, w21 * w21


def logarithmic_negativity(sigma) -> float:
    """Logarithmic negativity E_N of a 4x4 two-cavity covariance matrix.

    Computed from the smaller symplectic eigenvalue of the partially
    transposed state,

        2 lambda^2 = Sigma - sqrt(Sigma^2 - 4 det sigma),
        Sigma = det A + det B - 2 det C,

    with A, B the single-cavity blocks and C the cross block;
    ``E_N = max(0, -ln 2 lambda)``.
    """
    sigma = np.asarray(sigma, dtype=float)
    det_a = float(np.linalg.det(sigma[:2, :2]))
    det_b = float(np.linalg.det(sigma[2:, 2:]))
    det_c = float(np.linalg.det(sigma[:2, 2:]))
    det_full = float(np.linalg.det(sigma))
    big = det_a + det_b - 2.0 * det_c
    disc = big * big - 4.0 * det_full
    if disc < -1e-12 * max(1.0, big * big):
        raise PhysicalityError("covariance matrix has no real symplectic spectrum")
    lam_sq = 0.5 * (big - math.sqrt(max(disc, 0.0)))
    if lam_sq <= 0.0:
        raise PhysicalityError("covariance matrix is degenerate")
    return max(0.0, -math.log(2.0 * math.sqrt(lam_sq)))


def classify(s12: float, s21: float, e_n: float) -> str:
    """Four-way steering label from the two products.

    ``"one-way-2-steers-1"`` means only S12 < 1 (measuring cavity 2 steers
    cavity 1); ``"one-way-1-steers-2"`` is the mirror case.  The thresholds
    are exclusive, so products exactly at 1 count as ``"no-steering"``.
    ``e_n`` is accepted for signature symmetry with the result record but
    does not influence the label, which reflects the products alone.
    """
    below12 = s12 < 1.0
    below21 = s21 < 1.0
    if below12 and below21:
        return "two-way"
    if below12:
        return "one-way-2-steers-1"
    if below21:
        return "one-way-1-steers-2"
    return "no-steering"


@dataclass(frozen=True)
class SteeringResult:
    """Both steering products, the entanglement measure and the label."""

    s12: float
    s21: float
    e_n: float
    classification: str


def steering_result(moments: MomentState) -> SteeringResult:
    """Evaluate all steering quantities for one moment state."""
    sigma = to_correlation_matrix(moments)
    s12, s21 = steering_products(sigma)
    e_n = logarithmic_negativity(sigma)
    return SteeringResult(s12=s12, s21=s21, e_n=e_n, classification=classify(s12, s21, e_n))


# ---------------------------------------------------------------------------
# closed-form regime predicates


@dataclass(frozen=True)
class RegimePredicates:
    """Closed-form steady-state regime tests in the damping limits.

    Weak mechanical damping (gamma_m -> 0):

    - ``s12_oneway_weak``: (k1-k2)(k2 g2^2 - k1 g1^2) > k1 k2 (k1+k2)^2
      puts S12 below 1; needs kappa1 != kappa2.
    - ``s21_oneway_weak``: the kappa-mirrored inequality for S21.
    - ``entangled_weak``: k2 g2^2 > k1 g1^2; needs g2 > g1 > 0.

    Strong damping (kappa1 = kappa2 = kappa, Omega^2 = g2^2 - g1^2 > 0):

    - ``s21_cond_strong``: gamma_m/kappa > 1 / ((Omega/2 kappa)^2 - 1)
      puts S21 below 1 (asymptotic indicator, soft near threshold).
    - ``s12_cond_strong``: gamma_m/kappa < (g2 sqrt(Omega^2 - 8 kappa^2)
      - Omega^2) / (2 kappa^2) keeps S12 below 1; only evaluated in its
      validity window gamma_m >= 5 kappa and Omega^2 > 8 kappa^2.

    Fields are None when the corresponding test is not applicable; the
    reason is recorded in ``notes`` and each evaluated comparison's
    (lhs, rhs) pair in ``numbers``.
    """

    s12_oneway_weak: bool | None
    s21_oneway_weak: bool | None
    entangled_weak: bool | None
    s21_cond_strong: bool | None
    s12_cond_strong: bool | None
    omega: float | None
    numbers: dict[str, tuple[float, float]] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)


def regime_predicates(params: SystemParams) -> RegimePredicates:
    """Evaluate every applicable closed-form regime test for ``params``."""
    k1, k2 = params.kappa1, params.kappa2
    g1, g2, gm = params.g1, params.g2, params.gamma_m
    numbers: dict[str, tuple[float, float]] = {}
    notes: dict[str, str] = {}

    equal_kappas = params.equal_losses
    omega = math.sqrt(g2**2 - g1**2) if g2 > g1 else None

    if equal_kappas:
        s12_weak = s21_weak = None
        notes["s12_oneway_weak"] = notes["s21_oneway_weak"] = "needs kappa1 != kappa2"
    else:
        rhs = k1 * k2 * (k1 + k2) ** 2
        lhs12 = (k1 - k2) * (k2 * g2**2 - k1 * g1**2)
        lhs21 = (k2 - k1) * (k2 * g2**2 - k1 * g1**2)
        s12_weak = bool(lhs12 > rhs)
        s21_weak = bool(lhs21 > rhs)
        numbers["s12_oneway_weak"] = (lhs12, rhs)
        numbers["s21_oneway_weak"] = (lhs21, rhs)

    if g2 > g1 > 0.0:
        entangled = bool(k2 * g2**2 > k1 * g1**2)
        numbers["entangled_weak"] = (k2 * g2**2, k1 * g1**2)
    else:
        entangled = None
        notes["entangled_weak"] = "needs g2 > g1 > 0"

    s21_strong: bool | None = None
    s12_strong: bool | None = None
    if not equal_kappas:
        notes["s21_cond_strong"] = notes["s12_cond_strong"] = "needs kappa1 == kappa2"
    elif omega is None:
        notes["s21_cond_strong"] = notes["s12_cond_strong"] = "needs g2 > g1"
    else:
        kappa = k1
        ratio = gm / kappa
        denom = (omega / (2.0 * kappa)) ** 2 - 1.0
        if denom <= 0.0:
            notes["s21_cond_strong"] = "needs Omega > 2 kappa"
        else:
            s21_strong = bool(ratio > 1.0 / denom)
            numbers["s21_cond_strong"] = (ratio, 1.0 / denom)
        omega_sq = omega * omega
        if omega_sq <= 8.0 * kappa**2:
            notes["s12_cond_strong"] = "needs Omega^2 > 8 kappa^2"
        elif gm < _STRONG_DAMPING_MIN_RATIO * kappa:
            notes["s12_cond_strong"] = (
                f"outside validity window (needs gamma_m >= "
                f"{_STRONG_DAMPING_MIN_RATIO:g} kappa)"
            )
        else:
            bound = (g2 * math.sqrt(omega_sq - 8.0 * kappa**2) - omega_sq) / (
                2.0 * kappa**2
            )
            s12_strong = bool(ratio < bound)
            numbers["s12_cond_strong"] = (ratio, bound)

    return RegimePredicates(
        s12_oneway_weak=s12_weak,
        s21_oneway_weak=s21_weak,
        entangled_weak=entangled,
        s21_cond_strong=s21_strong,
        s12_cond_strong=s12_strong,
        omega=omega,
        numbers=numbers,
        notes=notes,
    )

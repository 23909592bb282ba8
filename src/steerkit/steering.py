"""Quadrature-inference steering products and the entanglement measure.

Steering of cavity 1 by measurements on cavity 2 is certified by

    S12 = 4 Vinf(X1) Vinf(Y1) < 1,

where ``Vinf(O1) = V(O1) - V(O1, O2)^2 / V(O2)`` is the inference variance
of a cavity-1 quadrature given the best linear estimate from the partner
quadrature of cavity 2, and the factor 4 normalizes the vacuum product to
one.  ``S21`` mirrors the roles.  Entanglement is quantified by the
logarithmic negativity E_N of the two-cavity state.

The model's states are phase symmetric, so the two-cavity covariance
(vacuum variance 1/2) has diagonal blocks ``(n_j + 1/2) I`` and, in the
frame that rotates cavity 1 by the phase of ``c = <a1 a2>``, the cross
block ``diag(|c|, -|c|)``.  All three quantities are therefore closed-form
functions of ``(n1, n2, |c|)``, computed here without forming the matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import MomentState, _effective_coupling, _units
from .errors import DegenerateConditioningError, PhysicalityError
from .params import SystemParams

__all__ = [
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


def _steering(n1: float, n2: float, c: float, with_en: bool) -> tuple[float, float, float]:
    """``(S12, S21, E_N)`` of a phase-symmetric state's ``(n1, n2, |c|)``: the one formula
    of :func:`steering_products_reduced`, :func:`logarithmic_negativity` and
    :func:`steering_result`, its one-row calls.  E_N is NaN unless ``with_en``, and
    where the partial transpose is degenerate (``nu <= 0``), which voids E_N alone.
    ``|c|^2``, the correctly rounded product ``c * c`` (libm ``pow`` misrounds some), may
    exceed its bound ``(n1 + 1/2)(n2 + 1/2)`` by 1e-12 of ``max(1, bound)``; squared as
    in :func:`_steering_columns`, S12 and S21 have the same bits in both.  Each ``max``
    is written out as the conditional ``max`` takes, NaN included, which costs less."""
    a, b = n1 + 0.5, n2 + 0.5
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DegenerateConditioningError(
            "a quadrature variance is not positive and finite; inference undefined"
        )
    c2, bound = c * c, a * b
    if not c2 - bound <= 1e-12 * (bound if bound > 1.0 else 1.0):
        raise PhysicalityError(
            "pairing moment exceeds its physical bound |c|^2 <= (n1+1/2)(n2+1/2)"
        )
    w12 = (2.0 * n1 + 1.0) - 4.0 * c2 / (2.0 * n2 + 1.0)
    w21 = (2.0 * n2 + 1.0) - 4.0 * c2 / (2.0 * n1 + 1.0)
    w12, w21 = 0.0 if w12 < 0.0 else w12, 0.0 if w21 < 0.0 else w21
    e_n = math.nan
    if with_en:
        nu = 0.5 * (a + b) - math.hypot(0.5 * (a - b), c)
        if nu > 0.0:
            e_n = -math.log(2.0 * nu)
            e_n = e_n if e_n > 0.0 else 0.0
    return w12 * w12, w21 * w21, e_n


_DEGENERATE_TRANSPOSE = "the partially transposed state is degenerate"


def _with_entanglement(n1: float, n2: float, c: float) -> tuple[float, float, float]:
    """:func:`_steering` of ``(n1, n2, |c|)`` with E_N, raising where E_N is undefined."""
    s12, s21, e_n = _steering(n1, n2, c, True)
    if math.isnan(e_n):
        raise PhysicalityError(_DEGENERATE_TRANSPOSE)
    return s12, s21, e_n


def _steering_columns(stable, n1: np.ndarray, n2: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Cells ``(stable, s12, s21, e_n, 2 nu)`` of moment columns (``c`` of either sign): the
    array form of :func:`_steering`, whose S12 and S21 bits it gives, NaN where a row is
    unstable or :func:`_steering` raises.  E_N, from ``np.hypot`` and ``np.log``, may differ
    from :func:`_steering`'s in the last bit, and is also NaN where void."""
    a, b, c, n = n1 + 0.5, n2 + 0.5, np.abs(c), np.stack([n1, n2])
    c2 = c * c
    with np.errstate(all="ignore"):
        ok = stable & (0.0 < a) & (a < math.inf) & (0.0 < b) & (b < math.inf) & (
            c2 - a * b <= 1e-12 * np.maximum(1.0, a * b))
        w = np.maximum((2.0 * n + 1.0) - 4.0 * c2 / (2.0 * n[::-1] + 1.0), 0.0)
        two_nu = 2.0 * (0.5 * (a + b) - np.hypot(0.5 * (a - b), c))
        e_n = np.where(two_nu > 0.0, np.maximum(0.0, -np.log(two_nu)), np.nan)
        return np.column_stack([stable, *np.where(ok, [*(w * w), e_n, two_nu], np.nan)])


def _row_products(x: np.ndarray) -> list[list[float]]:
    """The S12 and S21 columns, as lists, of moment rows ``x`` ``(n, 6)`` from one
    :func:`_steering_columns` call; a row it voids raises :func:`_steering`'s error."""
    n1, n2, c = x[:, [0, 1, 3]].T
    cells = _steering_columns(np.ones(len(x), dtype=bool), n1, n2, c)
    for row in np.isnan(cells[:, 1]).nonzero()[0][:1]:
        _steering(float(n1[row]), float(n2[row]), abs(float(c[row])), False)  # raises
    return cells[:, 1:3].T.tolist()


def _cavity_moments(moments: MomentState) -> tuple[float, float, float]:
    """``(n1, n2, |c|)`` of ``moments``, read from ``phi`` once, past its properties: the
    values of ``moments.n1``, ``moments.n2`` and ``abs(moments.c)``."""
    phi = moments.phi
    n1, n2, c = phi.item(1, 0), phi.item(3, 2), phi.item(0, 2)
    return float(n1.real), float(n2.real), abs(complex(c))


def steering_products_reduced(moments: MomentState) -> tuple[float, float]:
    """Both steering products ``(S12, S21)`` from (n1, n2, |c|):

        S12 = [(2 n1 + 1) - 4 |c|^2 / (2 n2 + 1)]^2,

    and mirrored for S21.  Values below 1 certify steering of the
    correspondingly indexed cavity.

    Raises
    ------
    DegenerateConditioningError
        If ``n1 + 1/2`` or ``n2 + 1/2`` is not positive and finite.
    PhysicalityError
        If ``|c|^2`` exceeds ``(n1 + 1/2)(n2 + 1/2)``.
    """
    return _steering(*_cavity_moments(moments), False)[:2]


def logarithmic_negativity(moments: MomentState) -> float:
    """Logarithmic negativity E_N of the two-cavity state of ``moments``.

    With ``a = n1 + 1/2`` and ``b = n2 + 1/2``, the smaller symplectic
    eigenvalue of the partially transposed covariance is

        nu = (a + b) / 2 - hypot((a - b) / 2, |c|),

    and ``E_N = max(0, -ln 2 nu)``.

    Raises
    ------
    DegenerateConditioningError
        If ``a`` or ``b`` is not positive and finite.
    PhysicalityError
        If ``|c|^2`` exceeds ``a b``, or if ``nu`` is not positive.
    """
    return _with_entanglement(*_cavity_moments(moments))[2]


def classify(s12: float, s21: float) -> str:
    """Four-way steering label from the two products.

    ``"one-way-2-steers-1"`` means only S12 < 1 (measuring cavity 2 steers
    cavity 1); ``"one-way-1-steers-2"`` is the mirror case.  The thresholds
    are exclusive, so products exactly at 1 count as ``"no-steering"``.
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
    s12, s21, e_n = _steering(*_cavity_moments(moments), True)
    if math.isnan(e_n):
        raise PhysicalityError(_DEGENERATE_TRANSPOSE)
    return SteeringResult(s12=s12, s21=s21, e_n=e_n, classification=classify(s12, s21))


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

    Fields are None when the corresponding test is not applicable, or not
    decidable in floats (both operands overflow, or kappa underflows in the
    power-of-two units); the reason is recorded in ``notes`` and each
    evaluated comparison's (lhs, rhs) pair in ``numbers``, in the rates' own
    units wherever those hold it exactly.  Otherwise the pair stays in the power-of-two units
    where the verdict is taken, and ``notes`` names them: "operands in
    units of 2**e" means the pair times ``2**e`` is its own-unit value.
    """

    s12_oneway_weak: bool | None
    s21_oneway_weak: bool | None
    entangled_weak: bool | None
    s21_cond_strong: bool | None
    s12_cond_strong: bool | None
    omega: float | None
    numbers: dict[str, tuple[float, float]] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)


#: the predicates that hold when ``lhs < rhs``; every other one holds when ``lhs > rhs``
_HOLDS_BELOW = frozenset({"s12_cond_strong"})


def _own_units(pair: tuple[float, float], exponent: int) -> tuple[float, float] | None:
    """``pair`` times ``2**exponent``, or None where that is not exact."""
    try:
        own = math.ldexp(pair[0], exponent), math.ldexp(pair[1], exponent)
    except OverflowError:
        return None
    return own if (math.ldexp(own[0], -exponent), math.ldexp(own[1], -exponent)) == pair else None


def regime_predicates(params: SystemParams) -> RegimePredicates:
    """Evaluate every applicable closed-form regime test for ``params``.

    Every test compares two terms of one degree in the rates, so each is taken in
    the stability verdict's power-of-two units, where no product of rates overflows
    and a uniform scale changes no verdict; ``omega`` and the recorded operands are
    scaled back to the rates' own units wherever that is exact.
    """
    rates = [params.kappa1, params.kappa2, params.g1, params.g2, params.gamma_m]
    top, (k1, k2, g1, g2, gm) = _units(rates)
    numbers: dict[str, tuple[float, float]] = {}
    notes: dict[str, str] = {}

    def holds(name: str, lhs: float, rhs: float, degree: int = 0) -> bool | None:
        """Record ``(lhs, rhs)``, of ``degree`` in the rates, for ``name`` and compare
        them as :data:`_HOLDS_BELOW` says; None, with a note, where both overflowed."""
        if lhs == rhs == math.inf:
            notes[name] = "both operands overflow"
            return None
        own = _own_units((lhs, rhs), degree * top)
        if own is None:
            own, notes[name] = (lhs, rhs), f"operands in units of 2**{degree * top}"
        numbers[name] = own
        return bool(lhs < rhs if name in _HOLDS_BELOW else lhs > rhs)

    equal_kappas = params.equal_losses
    # in units until returned
    omega = math.ldexp(_effective_coupling(params), -top) if g2 > g1 else None

    if equal_kappas:
        s12_weak = s21_weak = None
        notes["s12_oneway_weak"] = notes["s21_oneway_weak"] = "needs kappa1 != kappa2"
    else:
        rhs = k1 * k2 * (k1 + k2) ** 2
        s12_weak = holds("s12_oneway_weak", (k1 - k2) * (k2 * g2**2 - k1 * g1**2), rhs, 4)
        s21_weak = holds("s21_oneway_weak", (k2 - k1) * (k2 * g2**2 - k1 * g1**2), rhs, 4)

    if g2 > g1 > 0.0:
        entangled = holds("entangled_weak", k2 * g2**2, k1 * g1**2, 3)
    else:
        entangled = None
        notes["entangled_weak"] = "needs g2 > g1 > 0"

    s21_strong: bool | None = None
    s12_strong: bool | None = None
    if not equal_kappas:
        notes["s21_cond_strong"] = notes["s12_cond_strong"] = "needs kappa1 == kappa2"
    elif omega is None:
        notes["s21_cond_strong"] = notes["s12_cond_strong"] = "needs g2 > g1"
    elif k1 == 0.0:
        notes["s21_cond_strong"] = notes["s12_cond_strong"] = (
            f"kappa underflows in units of 2**{top}")
    else:
        # squares by product: one that overflows (or underflows) is inf (or 0) and decides
        # the comparison, where ** would raise OverflowError
        kappa = k1
        kappa_sq = kappa * kappa
        ratio = gm / kappa
        half = omega / (2.0 * kappa)
        denom = half * half - 1.0
        if denom <= 0.0:
            notes["s21_cond_strong"] = "needs Omega > 2 kappa"
        else:
            s21_strong = holds("s21_cond_strong", ratio, 1.0 / denom)
        omega_sq = omega * omega
        if omega_sq <= 8.0 * kappa_sq:
            notes["s12_cond_strong"] = "needs Omega^2 > 8 kappa^2"
        elif gm < _STRONG_DAMPING_MIN_RATIO * kappa:
            notes["s12_cond_strong"] = (
                f"outside validity window (needs gamma_m >= "
                f"{_STRONG_DAMPING_MIN_RATIO:g} kappa)"
            )
        else:
            excess = g2 * math.sqrt(omega_sq - 8.0 * kappa_sq) - omega_sq
            if kappa_sq > 0.0:
                s12_strong = holds("s12_cond_strong", ratio, excess / (2.0 * kappa_sq))
            elif excess > 0.0:  # a positive excess over an underflowed 2 kappa**2
                s12_strong = holds("s12_cond_strong", ratio, math.inf)
            else:
                notes["s12_cond_strong"] = f"2 kappa^2 underflows in units of 2**{top}"

    return RegimePredicates(
        s12_oneway_weak=s12_weak,
        s21_oneway_weak=s21_weak,
        entangled_weak=entangled,
        s21_cond_strong=s21_strong,
        s12_cond_strong=s12_strong,
        omega=None if omega is None else math.ldexp(omega, top),
        numbers=numbers,
        notes=notes,
    )

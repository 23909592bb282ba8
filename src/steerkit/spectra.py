"""Output-field transfer functions and frequency-resolved steering.

Fourier transforming the quantum Langevin equations and applying
input-output relations expresses each output field in terms of the three
vacuum/thermal inputs through five independent transfer functions (the
remaining ones follow by the 1 <-> 2 exchange symmetry of the closed
expressions).  All share one denominator ``d`` with real coefficients in
``i*omega``, so each spectrum is real in ``u = omega**2`` over one ``|d|**2 =
d_re**2 + u*d_im**2`` per grid.  Every quantity is evaluated in the power-of-two
units of :func:`~steerkit.dynamics._units`, the rates and ``omega`` over the one
``2**top`` that brings the largest rate into [0.5, 1), where a uniform scale of
the rates changes no bit.  ``|d|**2`` grows as ``omega**6``: beyond about
``|omega| = 2e51 * 2**top`` it overflows and raises NumericalError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.typing import NDArray

from .dynamics import _effective_coupling, _units
from .errors import NumericalError, UndefinedTransformError
from .params import SystemParams

__all__ = [
    "TransferMatrix",
    "transfer_matrix",
    "SpectrumPoint",
    "SpectrumTable",
    "spectrum_point",
    "spectrum",
    "default_omega_grid",
    "resonance_frequencies",
    "thermal_window",
    "spectral_oneway_threshold",
]

_DENOM_FLOOR = 1e-14
#: points of the default frequency grid
_GRID_POINTS = 2001


def _rate_units(params: SystemParams) -> tuple:
    """``(top, unit)`` of the five rates of ``params``, as :func:`~steerkit.dynamics._units`
    gives them: the rates over ``2**top``, which brings the largest into [0.5, 1)."""
    return _units([params.kappa1, params.kappa2, params.g1, params.g2, params.gamma_m])


def _cubic(rates, u, k1: float, k2: float, gm: float):
    """``(re, im)`` of ``d = re + i*omega*im`` at dampings ``k1, k2, gm``, with the
    couplings of the five ``rates``.  Reversing one damping gives ``m11 = -d(-k1)/d``,
    ``m22 = -d(-k2)/d`` and ``m11 m22 + m12**2 = -conj(d(-gm))/d``.
    """
    g1s, g2s = rates[2] ** 2, rates[3] ** 2
    re = k1 * g2s - k2 * g1s + k1 * k2 * gm - (k1 + k2 + gm) * u
    return re, g1s - g2s - k1 * k2 - gm * (k1 + k2) + u


def _parts(units: tuple, omega):
    """``u``, ``|d|**2`` and ``(re, im)`` pairs of ``d`` and of the numerators of ``-m11,
    m12, -m22, i*m1b, i*m2b`` over it (see :func:`_cubic` for the first two), all in the
    power-of-two units ``units = (top, rates)`` of :func:`_rate_units`: ``u`` is the
    square of ``omega / 2**top``.
    """
    top, rates = units
    k1, k2, g1, g2, gm = rates
    omega = np.asarray(omega, dtype=float)
    if not np.isfinite(omega).all():
        raise ValueError("frequencies must be finite")
    with np.errstate(over="ignore"):
        w = np.ldexp(omega, -top)
        u = w * w
        d_re, d_im = _cubic(rates, u, k1, k2, gm)
        dd = d_re * d_re + u * d_im * d_im
    if not float(dd.min()) >= _DENOM_FLOOR**2:
        raise NumericalError(
            "transfer functions are singular at a requested frequency "
            "(system is marginally stable there)"
        )
    if not float(dd.max()) < math.inf:
        raise NumericalError("transfer functions overflow at a requested frequency")
    c1b, c2b = 2.0 * math.sqrt(k1 * gm) * g1, 2.0 * math.sqrt(k2 * gm) * g2
    n12 = (2.0 * math.sqrt(k1 * k2) * g1 * g2, 0.0)
    rev1, rev2 = _cubic(rates, u, -k1, k2, gm), _cubic(rates, u, k1, -k2, gm)
    return u, dd, ((d_re, d_im), rev1, n12, rev2, (c1b * k2, -c1b), (c2b * k1, -c2b))


@dataclass(frozen=True)
class TransferMatrix:
    """The five independent input-output amplitudes at one frequency.

    ``m11``/``m22`` are the cavity reflection amplitudes, ``m12`` the
    cavity-conjugate cross amplitude (output 1 on the conjugate of input
    2), and ``m1b``/``m2b`` the mechanical-noise amplitudes into each
    cavity output.
    """

    omega: float
    m11: complex
    m12: complex
    m22: complex
    m1b: complex
    m2b: complex


def transfer_matrix(params: SystemParams, omega: float) -> TransferMatrix:
    """Evaluate the transfer amplitudes at a single frequency."""
    omega = float(omega)
    units = _rate_units(params)
    parts = _parts(units, omega)[2]
    w = math.ldexp(omega, -units[0])  # finite once _parts has passed it
    d, rev1, n12, rev2, p1b, p2b = (complex(re, w * im) for re, im in parts)
    return TransferMatrix(omega, -rev1 / d, n12 / d, -rev2 / d, -1j * (p1b / d), -1j * (p2b / d))


@dataclass(frozen=True)
class SpectrumPoint:
    """Spectral variances, steering products and output fluxes at one omega."""

    omega: float
    var_x1: float
    var_x2: float
    cross: float
    s12: float
    s21: float
    n1_out: float
    n2_out: float


@dataclass(frozen=True)
class SpectrumTable:
    """Column-wise spectra on a frequency grid; rows() iterates points."""

    omega: NDArray
    var_x1: NDArray
    var_x2: NDArray
    cross: NDArray
    s12: NDArray
    s21: NDArray
    n1_out: NDArray
    n2_out: NDArray

    def __len__(self) -> int:
        return self.omega.size

    def rows(self):
        columns = (getattr(self, f.name) for f in fields(self))
        for values in zip(*columns):
            yield SpectrumPoint(*map(float, values))


def _spectrum(params: SystemParams, omegas: NDArray, nth) -> SpectrumTable:
    """:func:`spectrum` at occupation ``nth``, a float or an array broadcast on the grid."""
    units = _rate_units(params)
    u, dd, (_, (r1, i1), (c12, _), (r2, i2), (r1b, i1b), (r2b, i2b)) = _parts(units, omegas)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge n_th overflows: raised below
        a12 = c12 * c12 / dd
        b1, b2 = (r1b * r1b + u * (i1b * i1b)) / dd, (r2b * r2b + u * (i2b * i2b)) / dd
        weight = 2.0 * nth + 1.0
        n1_out, n2_out = a12 + b1 * (nth + 1.0), a12 + b2 * nth
        # |m11|**2 = 1 + a12 + b1 and |m22|**2 = 1 + a12 - b2 (output commutators)
        var_x1, var_x2 = 1.0 + 2.0 * n1_out, 1.0 + 2.0 * n2_out
        # Re(-m11 m12* + m12 m22* - weight m1b m2b*), and its imaginary part over omega
        cross = (c12 * (r1 - r2) - (r1b * r2b + u * (i1b * i2b)) * weight) / dd
        im_cross = (c12 * (i1 + i2) + (r1b * i2b - i1b * r2b) * weight) / dd
        # var_x1 * var_x2 - cross**2 by Lagrange's identity over the three inputs:
        # |d(-gm)/d|**2 + (b1 + b2) * weight + Im**2, so s12 and s21 lose no digits
        k1, k2, _, _, gm = rates = units[1]
        rbb, ibb = _cubic(rates, u, k1, k2, -gm)
        det = (rbb * rbb + u * (ibb * ibb)) / dd + (b1 + b2) * weight + u * im_cross * im_cross
        s12, s21 = (det / var_x2) ** 2, (det / var_x1) ** 2
    # every other column overflows only with det, which leaves s12 or s21 inf or NaN; they
    # may also overflow alone, as squares
    if not max(float(s12.max()), float(s21.max())) < math.inf:
        raise NumericalError("spectral variances overflow: n_th is too large")
    omega = np.broadcast_to(omegas, s12.shape).copy()
    return SpectrumTable(omega, var_x1, var_x2, cross, s12, s21, n1_out, n2_out)


def spectrum_point(params: SystemParams, omega: float) -> SpectrumPoint:
    """All spectral quantities at one frequency: the one row of its spectrum."""
    return next(spectrum(params, [float(omega)]).rows())


def spectrum(params: SystemParams, omegas) -> SpectrumTable:
    """All spectral quantities on a frequency grid.

    Stability is not judged here: the transfer functions are evaluated for
    any set whose denominator stays clear of zero on the grid, and their
    output is meaningful only for a stable set.  That floor applies in the
    power-of-two units of :func:`~steerkit.dynamics._units`, so a set whose
    rates and frequencies are scaled by any power of two gives the same
    columns.  ``steerkit spectra`` reads the analytic verdict of
    :func:`~steerkit.dynamics.assess_stability` and exits 3 where it fails.
    """
    grid = np.asarray(omegas, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("omegas must be a non-empty 1-D grid")
    return _spectrum(params, grid, params.n_th)


def default_omega_grid(params: SystemParams, n_points: int = _GRID_POINTS) -> NDArray:
    """Symmetric grid wide enough to cover the hybridized resonances: half-width
    ``5 max(Omega, kappa1, kappa2)``, ``Omega = sqrt(max(g2**2 - g1**2, 0))``."""
    halfwidth = 5.0 * max(_effective_coupling(params), params.kappa1, params.kappa2)
    if not halfwidth < math.inf:
        raise NumericalError("the default frequency grid overflows")
    return np.linspace(-halfwidth, halfwidth, n_points)


def _square_over(rate: float, kappa: float, gamma_m: float, what: str) -> float:
    """``rate**2 / (kappa * gamma_m)`` with the bits of ``rate * rate / (kappa * gamma_m)``
    wherever no product overflows or underflows: taken on the ``frexp`` mantissas and
    scaled back with ``ldexp``; NumericalError where the quotient is out of range."""
    (m, e), (mk, ek), (mg, eg) = math.frexp(rate), math.frexp(kappa), math.frexp(gamma_m)
    try:
        return math.ldexp(m * m / (mk * mg), 2 * e - ek - eg)
    except OverflowError:
        raise NumericalError(f"the {what} overflows") from None


def _equal_kappa(params: SystemParams, what: str) -> float:
    if not params.equal_losses:
        raise UndefinedTransformError(f"{what} needs kappa1 == kappa2")
    return params.kappa1


def resonance_frequencies(params: SystemParams) -> NDArray:
    """Frequencies where the spectral steering is strongest.

    For equal cavity losses these are 0 and, when the effective coupling
    exceeds the loss (Omega^2 > kappa^2), the hybridized sidebands
    +/- sqrt(Omega^2 - kappa^2).
    """
    _equal_kappa(params, "resonance location")
    # squared by product in power-of-two units, where neither overflows: the rates' own
    # units give an OverflowError (kappa**2) or an inf - inf (g2 * g2 - g1 * g1) at 1e200
    top, (kappa, _, g1, g2, _) = _rate_units(params)
    shifted = g2 * g2 - g1 * g1 - kappa * kappa
    if shifted <= 0.0:
        return np.array([0.0])
    root = math.ldexp(math.sqrt(shifted), top)
    return np.array([-root, 0.0, root])


def thermal_window(params: SystemParams) -> tuple[float, float] | None:
    """Bath-occupation window with one-way spectral steering at omega = 0.

    Returns (n_low, n_high) such that for n_low < n_th < n_high only S12
    certifies steering at zero frequency (S12 < 1 <= S21), or None when the
    window is empty.
    """
    kappa = _equal_kappa(params, "thermal window")
    if params.gamma_m <= 0.0:
        raise UndefinedTransformError("thermal window needs gamma_m > 0")
    low = _square_over(params.g1, kappa, params.gamma_m, "thermal window")
    high = _square_over(params.g2, kappa, params.gamma_m, "thermal window") - 1.0
    return (low, high) if high > low else None


def spectral_oneway_threshold(params: SystemParams) -> float:
    """Mechanical damping above which S12 at omega = 0 exceeds 1 (cold bath)."""
    kappa = _equal_kappa(params, "spectral one-way threshold")
    return _square_over(params.g2, kappa, 1.0, "spectral one-way threshold")

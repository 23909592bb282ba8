"""Output-field transfer functions and frequency-resolved steering.

Fourier transforming the quantum Langevin equations and applying
input-output relations expresses each output field in terms of the three
vacuum/thermal inputs through five independent transfer functions (the
remaining ones follow by the 1 <-> 2 exchange symmetry of the closed
expressions).  Frequency-resolved quadrature variances and the spectral
steering products are then quadratic combinations of these at +/- omega.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

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


def _entries(params: SystemParams, omega):
    """Transfer-function entries at ``omega`` (scalar or array)."""
    k1, k2 = params.kappa1, params.kappa2
    g1, g2, gm = params.g1, params.g2, params.gamma_m
    omega = np.asarray(omega, dtype=float)
    if not np.isfinite(omega).all():
        raise ValueError("frequencies must be finite")
    iw = 1j * omega
    d = (k1 - iw) * g2**2 - (k2 - iw) * g1**2 + (k1 - iw) * (k2 - iw) * (gm - iw)
    _check_denominator(d)
    m11 = ((k1 + iw) * g2**2 + (k2 - iw) * g1**2 + (k1 + iw) * (k2 - iw) * (gm - iw)) / d
    m12 = 2.0 * math.sqrt(k1 * k2) * g1 * g2 / d
    m22 = -((k1 - iw) * g2**2 + (k2 + iw) * g1**2 - (k1 - iw) * (k2 + iw) * (gm - iw)) / d
    m1b = -2j * math.sqrt(k1 * gm) * g1 * (k2 - iw) / d
    m2b = -2j * math.sqrt(k2 * gm) * g2 * (k1 - iw) / d
    return d, m11, m12, m22, m1b, m2b


def _check_denominator(d) -> None:
    if float(np.abs(d).min()) < _DENOM_FLOOR:
        raise NumericalError(
            "transfer functions are singular at a requested frequency "
            "(system is marginally stable there)"
        )


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
    d, m11, m12, m22, m1b, m2b = _entries(params, float(omega))
    return TransferMatrix(
        omega=float(omega),
        m11=complex(m11),
        m12=complex(m12),
        m22=complex(m22),
        m1b=complex(m1b),
        m2b=complex(m2b),
    )


def _spectrum_arrays(params: SystemParams, omegas: NDArray):
    """All spectral quantities on a frequency grid (vectorized core)."""
    nth = params.n_th
    dp, m11p, m12p, m22p, m1bp, m2bp = _entries(params, omegas)
    dm, _m11m, m12m, _m22m, m1bm, m2bm = _entries(params, -omegas)

    var_x1 = (
        np.abs(m11p) ** 2
        + np.abs(m12m) ** 2
        + np.abs(m1bm) ** 2 * (nth + 1.0)
        + np.abs(m1bp) ** 2 * nth
    )
    var_x2 = (
        np.abs(m22p) ** 2
        + np.abs(m12m) ** 2
        + np.abs(m2bp) ** 2 * (nth + 1.0)
        + np.abs(m2bm) ** 2 * nth
    )
    cross = np.real(
        -m11p * m12m
        + np.conj(m12m) * np.conj(m22p)
        + np.conj(m1bm) * np.conj(m2bp) * (nth + 1.0)
        + m1bp * m2bm * nth
    )
    ratio = cross * cross
    s12 = np.maximum(var_x1 - ratio / var_x2, 0.0) ** 2
    s21 = np.maximum(var_x2 - ratio / var_x1, 0.0) ** 2
    n1_out = np.abs(m12p) ** 2 + np.abs(m1bp) ** 2 * (nth + 1.0)
    n2_out = np.abs(m12p) ** 2 + np.abs(m2bp) ** 2 * nth
    return var_x1, var_x2, cross, s12, s21, n1_out, n2_out


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
        for i in range(len(self)):
            yield SpectrumPoint(
                omega=float(self.omega[i]),
                var_x1=float(self.var_x1[i]),
                var_x2=float(self.var_x2[i]),
                cross=float(self.cross[i]),
                s12=float(self.s12[i]),
                s21=float(self.s21[i]),
                n1_out=float(self.n1_out[i]),
                n2_out=float(self.n2_out[i]),
            )


def spectrum_point(params: SystemParams, omega: float) -> SpectrumPoint:
    """All spectral quantities at one frequency."""
    grid = np.asarray([float(omega)])
    cols = _spectrum_arrays(params, grid)
    return SpectrumPoint(float(omega), *(float(col[0]) for col in cols))


def spectrum(params: SystemParams, omegas) -> SpectrumTable:
    """All spectral quantities on a frequency grid."""
    grid = np.asarray(omegas, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("omegas must be a non-empty 1-D grid")
    return SpectrumTable(grid.copy(), *_spectrum_arrays(params, grid))


def default_omega_grid(params: SystemParams, n_points: int = 2001) -> NDArray:
    """Symmetric grid wide enough to cover the hybridized resonances."""
    omega_c = math.sqrt(max(params.g2**2 - params.g1**2, 0.0))
    halfwidth = 5.0 * max(omega_c, params.kappa1, params.kappa2)
    return np.linspace(-halfwidth, halfwidth, n_points)


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
    kappa = _equal_kappa(params, "resonance location")
    shifted = params.g2**2 - params.g1**2 - kappa**2
    if shifted <= 0.0:
        return np.array([0.0])
    root = math.sqrt(shifted)
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
    low = params.g1**2 / (kappa * params.gamma_m)
    high = params.g2**2 / (kappa * params.gamma_m) - 1.0
    return (low, high) if high > low else None


def spectral_oneway_threshold(params: SystemParams) -> float:
    """Mechanical damping above which S12 at omega = 0 exceeds 1 (cold bath)."""
    kappa = _equal_kappa(params, "spectral one-way threshold")
    return params.g2**2 / kappa

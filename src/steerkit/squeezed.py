"""Composite squeezed cavity modes that diagonalize the coupling structure.

For equal cavity losses and g2 > g1 the two-mode squeeze transformation

    c1 = cosh(r) a2 + sinh(r) a1+,   c2 = cosh(r) a1 + sinh(r) a2+,
    r  = atanh(g1 / g2),

decouples c2 from the mechanics entirely and leaves c1 coupled to b by a
single beam-splitter interaction of strength Omega = sqrt(g2^2 - g1^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamics import MomentState, build_generators
from .errors import UndefinedTransformError
from .params import SystemParams

__all__ = [
    "squeeze_parameter",
    "composite_occupations",
    "SqueezedFrame",
    "squeezed_frame",
    "FrameReport",
    "transformed_drift",
]


def squeeze_parameter(g1: float, g2: float) -> float:
    """Squeeze parameter r = atanh(g1/g2) of the composite-mode frame."""
    if not 0.0 <= g1 < g2:
        raise UndefinedTransformError(
            f"composite frame needs 0 <= g1 < g2, got g1={g1!r}, g2={g2!r}"
        )
    return math.atanh(g1 / g2)


def _transform_pair(r: float) -> tuple[NDArray, NDArray]:
    """T and T^-1 (the squeeze at -r) mapping (a1, a1+, a2, a2+, b, b+) to the c-frame."""
    ch, sh = math.cosh(r), math.sinh(r)
    # each cavity row: cosh r on the other cavity's operator, sinh r on its own conjugate
    pair = np.zeros((2, 6, 6))
    pair[:, [0, 1, 2, 3], [2, 3, 0, 1]] = ch
    pair[:, [0, 1, 2, 3], [1, 0, 3, 2]] = [[sh], [-sh]]
    pair[:, [4, 5], [4, 5]] = 1.0
    return pair[0], pair[1]


def composite_occupations(moments: MomentState, r: float) -> tuple[float, float]:
    """Occupations <c1+ c1>, <c2+ c2> of the composite modes.

    Linear in the cavity occupations and the real part of the pairing
    moment; their difference always equals n1 - n2 because the transform
    conserves the photon-number imbalance.
    """
    if not math.isfinite(r):
        raise UndefinedTransformError("squeeze parameter must be finite")
    ch, sh = math.cosh(r), math.sinh(r)
    re_c = moments.c.real
    occ1 = sh**2 * (moments.n1 + 1.0) + ch**2 * moments.n2 + 2.0 * sh * ch * re_c
    occ2 = ch**2 * moments.n1 + sh**2 * (moments.n2 + 1.0) + 2.0 * sh * ch * re_c
    return float(occ1), float(occ2)


@dataclass(frozen=True)
class SqueezedFrame:
    """Squeeze parameter, effective coupling and composite occupations."""

    r: float
    omega: float
    occupations: tuple[float, float]


def squeezed_frame(params: SystemParams, moments: MomentState) -> SqueezedFrame:
    """Describe the composite-mode frame and the state's occupations in it."""
    r = squeeze_parameter(params.g1, params.g2)
    omega = math.sqrt(params.g2**2 - params.g1**2)
    return SqueezedFrame(r=r, omega=omega, occupations=composite_occupations(moments, r))


@dataclass(frozen=True)
class FrameReport:
    """Drift matrix in the composite frame, with decoupling diagnostics.

    ``c2_coupling_max`` is the largest coupling magnitude between c2 and
    the rest (exactly zero up to rounding), ``c1_b_coupling`` the single
    surviving c1-to-b entry (equal to -i Omega).
    """

    omega: float
    c1_b_coupling: complex
    c2_coupling_max: float
    drift: NDArray


def transformed_drift(params: SystemParams) -> FrameReport:
    """Transform the drift into the composite frame and report the structure.

    Requires equal cavity decay rates (the frame mixes the cavities, so
    unequal losses would reintroduce coupling) and g2 > g1.
    """
    if not params.equal_losses:
        raise UndefinedTransformError(
            "composite frame needs kappa1 == kappa2 "
            f"(got {params.kappa1!r}, {params.kappa2!r})"
        )
    r = squeeze_parameter(params.g1, params.g2)
    t, ti = _transform_pair(r)
    drift = t @ build_generators(params).drift @ ti
    c2_rows = np.abs(drift[np.ix_([2, 3], [0, 1, 4, 5])]).max()
    c2_cols = np.abs(drift[np.ix_([0, 1, 4, 5], [2, 3])]).max()
    return FrameReport(
        omega=math.sqrt(params.g2**2 - params.g1**2),
        c1_b_coupling=complex(drift[0, 4]),
        c2_coupling_max=float(max(c2_rows, c2_cols)),
        drift=drift,
    )

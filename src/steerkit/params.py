"""Physical parameters of the two-cavity/one-mechanical-mode model."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ParameterError

__all__ = ["SystemParams"]


@dataclass(frozen=True)
class SystemParams:
    """Rates of the three coupled modes, all in one common frequency unit.

    Parameters
    ----------
    kappa1, kappa2 : float
        Amplitude decay rates of cavities 1 and 2 (strictly positive).
    g1 : float
        Downconversion (two-mode-squeezing) coupling of cavity 1 to the
        mechanical mode.
    g2 : float
        Beam-splitter coupling of cavity 2 to the mechanical mode.
    gamma_m : float
        Mechanical amplitude damping rate.
    n_th : float, default 0
        Thermal occupation of the mechanical bath.
    omega_m : float, optional
        Mechanical frequency in the same unit; only used to sanity-check
        the rotating-wave regime, never by the dynamics itself.
    """

    kappa1: float
    kappa2: float
    g1: float
    g2: float
    gamma_m: float
    n_th: float = 0.0
    omega_m: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name == "omega_m":
                continue
            value = float(value)
            if not math.isfinite(value):
                raise ParameterError(f"{f.name} must be finite, got {value!r}")
            object.__setattr__(self, f.name, value)
        if self.kappa1 <= 0 or self.kappa2 <= 0:
            raise ParameterError("cavity decay rates kappa1, kappa2 must be > 0")
        for name in ("g1", "g2", "gamma_m", "n_th"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")
        if self.omega_m is not None and self.omega_m <= 0:
            raise ParameterError("omega_m, when given, must be > 0")

    @property
    def equal_losses(self) -> bool:
        """kappa1 == kappa2 to 1e-9 relative, as the equal-loss formulas need."""
        return math.isclose(self.kappa1, self.kappa2, rel_tol=1e-9, abs_tol=0.0)

    def with_(self, **changes) -> "SystemParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

"""Exception and warning types shared across the package."""
from __future__ import annotations

__all__ = [
    "ParameterError",
    "ConfigError",
    "UnstableSystemError",
    "NumericalError",
    "StepConvergenceError",
    "PhysicalityError",
    "DegenerateConditioningError",
    "UndefinedTransformError",
    "EmptySweepWarning",
]


class ParameterError(ValueError):
    """A physical parameter is missing, non-finite or out of range."""


class ConfigError(ValueError):
    """A scenario file is malformed or inconsistent."""


class UnstableSystemError(RuntimeError):
    """A steady state was requested for a dynamically unstable system.

    Carries the :class:`~steerkit.dynamics.StabilityReport` that triggered
    the rejection as ``report``.
    """

    def __init__(self, report):
        super().__init__(
            "system is not strictly stable "
            f"(max Re eigenvalue = {report.max_real_eigenvalue:.6g}, "
            f"analytic conditions {'pass' if report.analytic_pass else 'fail'})"
        )
        self.report = report


class NumericalError(RuntimeError):
    """A numeric guarantee (residual bound, denominator guard) was violated."""


class StepConvergenceError(NumericalError):
    """Step-halving refinement of the moment integrator did not converge.

    Attributes
    ----------
    step : float
        Finest base step attempted.
    max_difference : float
        Largest moment change between the last two refinement levels.
    halvings : int
        Number of halvings performed before giving up.
    """

    def __init__(self, step: float, max_difference: float, halvings: int):
        super().__init__(
            f"moment integration did not converge after {halvings} step "
            f"halvings (last step {step:.3e}, remaining difference "
            f"{max_difference:.3e})"
        )
        self.step = step
        self.max_difference = max_difference
        self.halvings = halvings


class PhysicalityError(ValueError):
    """Moments or a covariance matrix violate quantum physicality bounds."""


class DegenerateConditioningError(ValueError):
    """A conditioning variance is zero, so an inference variance is undefined."""


class UndefinedTransformError(ValueError):
    """The squeezed composite-mode frame does not exist for these parameters."""


class EmptySweepWarning(UserWarning):
    """No grid point had a steady state, or no frontier slice was feasible."""

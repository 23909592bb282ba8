"""Gaussian steering analysis for a two-cavity/one-mechanical-mode transducer.

The package follows one pipeline: physical rates (:class:`SystemParams`)
-> moment dynamics and steady states (:mod:`steerkit.dynamics`) ->
steering/entanglement criteria (:mod:`steerkit.steering`), with the
composite squeezed-mode picture (:mod:`steerkit.squeezed`), output-field
spectra (:mod:`steerkit.spectra`) and parameter sweeps
(:mod:`steerkit.sweep`) layered on top.  The ``steerkit`` command exposes
the same operations on INI scenario files.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .dynamics import (
    ClosedFormMoments,
    Generators,
    MomentState,
    RwaReport,
    StabilityReport,
    assess_rwa,
    assess_stability,
    build_generators,
    build_moment_state,
    evolve_moments,
    stability_margins,
    steady_state_closed_form,
    steady_state_lyapunov,
    to_correlation_matrix,
    vacuum_thermal_state,
)
from .errors import (
    ConfigError,
    DegenerateConditioningError,
    EmptySweepWarning,
    NumericalError,
    ParameterError,
    PhysicalityError,
    StepConvergenceError,
    UndefinedTransformError,
    UnstableSystemError,
)
from .config import ScenarioConfig, load_config, parse_config
from .figures import FigureBundle, available_figures, build_figure
from .params import SystemParams
from .spectra import (
    SpectrumPoint,
    SpectrumTable,
    TransferMatrix,
    default_omega_grid,
    resonance_frequencies,
    spectral_oneway_threshold,
    spectrum,
    spectrum_point,
    thermal_window,
    transfer_matrix,
)
from .squeezed import (
    FrameReport,
    SqueezedFrame,
    composite_occupations,
    squeeze_parameter,
    squeezed_frame,
    transformed_drift,
)
from .steering import (
    RegimePredicates,
    SteeringResult,
    classify,
    logarithmic_negativity,
    regime_predicates,
    steering_products_reduced,
    steering_result,
)
from .sweep import (
    AxisSpec,
    FrontierPoint,
    SweepRow,
    SweepSpec,
    grid_sweep,
    minimize_steering,
)

__all__ = [
    "SystemParams",
    # dynamics
    "Generators",
    "StabilityReport",
    "RwaReport",
    "MomentState",
    "ClosedFormMoments",
    "build_generators",
    "stability_margins",
    "assess_stability",
    "assess_rwa",
    "vacuum_thermal_state",
    "build_moment_state",
    "steady_state_lyapunov",
    "steady_state_closed_form",
    "evolve_moments",
    "to_correlation_matrix",
    # steering
    "steering_products_reduced",
    "logarithmic_negativity",
    "classify",
    "SteeringResult",
    "steering_result",
    "RegimePredicates",
    "regime_predicates",
    # squeezed frame
    "squeeze_parameter",
    "composite_occupations",
    "SqueezedFrame",
    "squeezed_frame",
    "FrameReport",
    "transformed_drift",
    # spectra
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
    # sweeps
    "AxisSpec",
    "SweepSpec",
    "SweepRow",
    "FrontierPoint",
    "grid_sweep",
    "minimize_steering",
    # scenario files and reference figures
    "ScenarioConfig",
    "parse_config",
    "load_config",
    "FigureBundle",
    "available_figures",
    "build_figure",
    # errors
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

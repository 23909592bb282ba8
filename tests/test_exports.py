"""The top-level namespace re-exports every module's ``__all__``, once."""
from __future__ import annotations

import steerkit
from steerkit import config, dynamics, errors, figures, params, spectra, squeezed, steering, sweep

MODULES = (params, dynamics, steering, squeezed, spectra, sweep, config, figures, errors)

#: every name the package exported before ``__all__`` was built from the modules
EARLIER_EXPORTS = [
    "SystemParams", "Generators", "StabilityReport", "RwaReport", "MomentState",
    "ClosedFormMoments", "build_generators", "stability_margins", "assess_stability",
    "assess_rwa", "vacuum_thermal_state", "build_moment_state", "steady_state_lyapunov",
    "steady_state_closed_form", "evolve_moments", "to_correlation_matrix",
    "steering_products_reduced", "logarithmic_negativity", "classify", "SteeringResult",
    "steering_result", "RegimePredicates", "regime_predicates", "squeeze_parameter",
    "composite_occupations", "SqueezedFrame", "squeezed_frame", "FrameReport",
    "transformed_drift", "TransferMatrix", "transfer_matrix", "SpectrumPoint",
    "SpectrumTable", "spectrum_point", "spectrum", "default_omega_grid",
    "resonance_frequencies", "thermal_window", "spectral_oneway_threshold", "AxisSpec",
    "SweepSpec", "SweepRow", "FrontierPoint", "grid_sweep", "minimize_steering",
    "ScenarioConfig", "parse_config", "load_config", "FigureBundle", "available_figures",
    "build_figure", "ParameterError", "ConfigError", "UnstableSystemError",
    "NumericalError", "StepConvergenceError", "PhysicalityError",
    "DegenerateConditioningError", "UndefinedTransformError", "EmptySweepWarning",
]


def test_package_all_is_the_modules_all_concatenated():
    expected = [name for module in MODULES for name in module.__all__]
    assert steerkit.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_export_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(steerkit, name) is getattr(module, name), (module.__name__, name)


def test_earlier_exports_are_kept():
    assert len(EARLIER_EXPORTS) == len(set(EARLIER_EXPORTS)) == 60
    assert set(EARLIER_EXPORTS) <= set(steerkit.__all__)


def test_cli_is_not_re_exported():
    assert "main" not in steerkit.__all__ and not hasattr(steerkit, "main")

"""Scenario-file parsing and validation."""
from __future__ import annotations

from dataclasses import fields

import pytest

from steerkit import (
    AxisSpec,
    ConfigError,
    EvolveConfig,
    RwaConfig,
    ScenarioConfig,
    SpectraConfig,
    SweepConfig,
    SweepSpec,
    assess_rwa,
    default_omega_grid,
    load_config,
    parse_config,
)

HEADER = """\
[config]
version = 1

[params]
kappa1 = 1.0
kappa2 = 0.4
g1 = 10.0
g2 = 20.0
gamma_m = 0.01
"""


def test_minimal_config():
    cfg = parse_config(HEADER)
    assert cfg.params.kappa2 == 0.4
    assert cfg.params.n_th == 0.0
    assert cfg.run_block is None and cfg.run is None


def test_params_full_and_comments():
    cfg = parse_config(
        HEADER
        + """\
n_th = 2.5     # hot bath
omega_m = 500.0
"""
    )
    assert cfg.params.n_th == 2.5
    assert cfg.params.omega_m == 500.0


def test_evolve_block():
    cfg = parse_config(HEADER + "\n[evolve]\nt_max = 12.0\nn_points = 100\n")
    assert cfg.run_block == "evolve"
    assert cfg.run == EvolveConfig(t_max=12.0, n_points=100)


def test_evolve_block_accepts_the_supported_initial_state():
    cfg = parse_config(HEADER + "\n[evolve]\nt_max = 1\ninitial = vacuum-thermal\n")
    assert cfg.run == parse_config(HEADER + "\n[evolve]\nt_max = 1\n").run


def test_spectra_block_defaults():
    cfg = parse_config(HEADER + "\n[spectra]\n")
    assert cfg.run_block == "spectra"
    assert cfg.run.omega_min is None
    assert cfg.run.n_points == 2001


def test_omitted_keys_take_the_dataclass_defaults():
    assert parse_config(HEADER + "\n[evolve]\nt_max = 1\n").run == EvolveConfig(1.0)
    assert parse_config(HEADER + "\n[spectra]\n").run == SpectraConfig()
    assert parse_config(HEADER + "\n[rwa]\n").run == RwaConfig()
    params = parse_config(HEADER).params
    # the library calls share the scenario defaults
    assert default_omega_grid(params).size == SpectraConfig().n_points
    assert assess_rwa(params).margin_factor == RwaConfig().margin_factor


def test_sweep_grid_block():
    cfg = parse_config(
        HEADER
        + """
[sweep]
mode = grid
objective = s21
axes = gamma_m 1.0 3.0 3; n_th 0.0 1.0 2
ties = kappa2=kappa1
"""
    )
    assert isinstance(cfg.run, SweepConfig) and cfg.run_block == "sweep"
    assert cfg.run.spec.base == cfg.params
    assert cfg.run.spec.objective == "s21"
    assert [axis.name for axis in cfg.run.spec.axes] == ["gamma_m", "n_th"]
    assert cfg.run.spec.ties == {"kappa2": "kappa1"}
    assert cfg.run.swept is None


def test_sweep_minimize_block():
    cfg = parse_config(
        HEADER
        + """
[sweep]
mode = minimize
objective = s12
swept = gamma_m 10.0 20.0 2
axes = g1 0.5 10.0 11
"""
    )
    assert cfg.run.spec.axes == (AxisSpec("g1", 0.5, 10.0, 11),)
    assert cfg.run.swept.name == "gamma_m"
    assert cfg.run.swept.steps == 2


def test_rwa_block():
    cfg = parse_config(HEADER + "\n[rwa]\nomega_m = 400.0\nmargin_factor = 20\n")
    assert cfg.run_block == "rwa"
    assert cfg.run == RwaConfig(omega_m=400.0, margin_factor=20.0)


def test_scenario_config_holds_params_and_one_typed_run_block():
    assert [f.name for f in fields(ScenarioConfig)] == ["params", "run"]
    params = parse_config(HEADER).params
    for run, name in [
        (None, None),
        (EvolveConfig(1.0), "evolve"),
        (SpectraConfig(), "spectra"),
        (SweepConfig(SweepSpec(params, (AxisSpec("g1", 1.0, 2.0, 2),))), "sweep"),
        (RwaConfig(), "rwa"),
    ]:
        assert ScenarioConfig(params, run).run_block == name


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[params]\nkappa1 = 1\n", "missing [config]"),
        ("[config]\nversion = 2\n[params]\nkappa1 = 1\n", "version 2"),
        ("[config]\nversion = x\n[params]\nkappa1 = 1\n", "not an integer"),
        ("[config]\nversion = 1\n", "missing [params]"),
        ("[config]\nversion = 1\n[params]\nkappa1 = 1.0\n", "missing kappa2"),
        (HEADER.replace("0.01", "oops"), "not a number"),
        (HEADER.replace("gamma_m = 0.01", "gamma_m = -1.0"), "[params]"),
        (HEADER + "pump = 3.0\n", "unknown key"),
        (HEADER + "\n[plotting]\nstyle = dark\n", "unknown section"),
        (HEADER + "\n[evolve]\nt_max = 1\n\n[spectra]\n", "one run block"),
        (HEADER + "\n[evolve]\n", "missing t_max"),
        (HEADER + "\n[evolve]\nt_max = 0\n", "t_max must be > 0"),
        (HEADER + "\n[evolve]\nt_max = 1\nn_points = 0\n", "n_points"),
        (HEADER + "\n[evolve]\nt_max = 1\ninitial = coherent\n", "vacuum-thermal"),
        (HEADER + "\n[spectra]\nomega_min = -1\n", "both omega_min and omega_max"),
        (HEADER + "\n[spectra]\nomega_min = 2\nomega_max = -2\n", "omega_min < omega_max"),
        (HEADER + "\n[spectra]\nn_points = 1\n", "n_points"),
        (HEADER + "\n[sweep]\naxes = g1 1 2 3\n", "mode"),
        (HEADER + "\n[sweep]\nmode = grid\n", "missing axes"),
        (HEADER + "\n[sweep]\nmode = grid\naxes = ;\n", "axes is empty"),
        (HEADER + "\n[sweep]\nmode = grid\naxes = g1 1 2\n", "name lo hi steps"),
        (HEADER + "\n[sweep]\nmode = grid\naxes = g9 1 2 3\n", "cannot sweep"),
        (HEADER + "\n[sweep]\nmode = grid\naxes = g1 2 1 3\n", "lo <= hi"),
        (
            HEADER + "\n[sweep]\nmode = grid\naxes = g1 1 2 3\nties = kappa2~kappa1\n",
            "dst=src",
        ),
        (
            HEADER + "\n[sweep]\nmode = grid\naxes = g1 1 2 3\nties = g1=g2\n",
            "[sweep]",
        ),
        (
            HEADER + "\n[sweep]\nmode = grid\naxes = g1 1 2 3\nties = kappa2=kappa1, kappa1=g1\n",
            "copies tied field 'kappa1'",
        ),
        (
            HEADER
            + "\n[sweep]\nmode = grid\naxes = g1 1 2 3\nties = kappa2=kappa1, kappa2=gamma_m\n",
            "ties sets 'kappa2' more than once",
        ),
        (
            HEADER + "\n[sweep]\nmode = grid\naxes = g1 1 2 3\nobjective = s99\n",
            "objective",
        ),
        (HEADER + "\n[sweep]\nmode = minimize\naxes = g1 1 2 3\n", "swept"),
        (
            HEADER + "\n[sweep]\nmode = grid\naxes = g1 1 2 3\nswept = g2 1 2 2\n",
            "grid mode",
        ),
        (
            HEADER + "\n[sweep]\nmode = grid\naxes = g1 1 2 3\nstability_required = true\n",
            "unknown key",
        ),
        (
            HEADER + "\n[sweep]\nmode = minimize\naxes = g1 1 2 3\nswept = g1 2 3 2\n",
            "swept field 'g1'",
        ),
        (
            HEADER
            + "\n[sweep]\nmode = minimize\naxes = g1 1 2 3\nswept = kappa2 1 3 3\n"
            + "ties = kappa2=kappa1\n",
            "swept field 'kappa2'",
        ),
        (HEADER + "\n[rwa]\nmargin_factor = 0\n", "margin_factor"),
        (HEADER + "\n[rwa]\nphases = 3\n", "unknown key"),
        ("version = 1\n", "malformed config"),
        (HEADER + "\n[evolve]\nt_max = inf\n", "t_max = 'inf' is not finite"),
        (HEADER + "\n[evolve]\nt_max = nan\n", "t_max = 'nan' is not finite"),
        (
            HEADER + "\n[spectra]\nomega_min = nan\nomega_max = 1\n",
            "omega_min = 'nan' is not finite",
        ),
        (HEADER.replace("g2 = 20.0", "g2 = -inf"), "g2 = '-inf' is not finite"),
    ],
)
def test_rejections(text, fragment):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert fragment in str(excinfo.value)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(HEADER, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.params.g2 == 20.0

"""INI scenario files: one [params] block plus at most one run block.

Schema (version 1)::

    [config]
    version = 1

    [params]                 # required; fields of SystemParams
    kappa1 = 1.0
    kappa2 = 0.4
    g1 = 10
    g2 = 20
    gamma_m = 0.01
    n_th = 0
    omega_m = 1e5            # optional

    [evolve]                 # exactly one run block per file (or none)
    t_max = 60
    n_points = 1200          # default 600
    initial = vacuum-thermal # default (the only supported choice)

    [spectra]
    omega_min = -12          # optional pair; defaults to the standard grid
    omega_max = 12
    n_points = 2001

    [sweep]
    mode = minimize          # or grid
    objective = s12          # s12 | s21 | en
    axes = g1 0.25 10 41; g2 0.25 10 41
    swept = gamma_m 1 14 27  # required for minimize, forbidden for grid
    ties = kappa2=kappa1     # optional comma list

    [rwa]
    omega_m = 1e5            # optional if already in [params]
    margin_factor = 10

Unknown sections or keys are rejected so typos fail loudly.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields

from .dynamics import _MARGIN_FACTOR
from .errors import ConfigError, ParameterError
from .params import SystemParams
from .spectra import _GRID_POINTS
from .sweep import AxisSpec, SweepSpec, _check_swept

__all__ = [
    "SCHEMA_VERSION",
    "EvolveConfig",
    "SpectraConfig",
    "RwaConfig",
    "ScenarioConfig",
    "parse_config",
    "load_config",
]

SCHEMA_VERSION = 1

_RUN_BLOCKS = ("evolve", "spectra", "sweep", "rwa")
_PARAM_KEYS = tuple(f.name for f in fields(SystemParams))
_REQUIRED_PARAM_KEYS = tuple(f.name for f in fields(SystemParams) if f.default is MISSING)


@dataclass(frozen=True)
class EvolveConfig:
    t_max: float
    n_points: int = 600


@dataclass(frozen=True)
class SpectraConfig:
    omega_min: float | None = None
    omega_max: float | None = None
    n_points: int = _GRID_POINTS


@dataclass(frozen=True)
class RwaConfig:
    omega_m: float | None = None
    margin_factor: float = _MARGIN_FACTOR


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a CLI invocation needs: parameters plus one run block."""

    params: SystemParams
    run_block: str | None = None
    evolve: EvolveConfig | None = None
    spectra: SpectraConfig | None = None
    sweep: SweepSpec | None = None
    swept: AxisSpec | None = None
    sweep_mode: str | None = None
    rwa: RwaConfig | None = None


def _float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
    return value


def _int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from exc


def _values(section: str, block, **parsers) -> dict:
    """The ``parsers`` keys present in ``block``, parsed; absent keys keep their defaults."""
    return {key: parse(section, key, block[key]) for key, parse in parsers.items() if key in block}


def _check_keys(section: str, present, allowed) -> None:
    unknown = sorted(set(present) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(unknown)} in [{section}]; "
            f"allowed: {', '.join(allowed)}"
        )


def _parse_axis(section: str, key: str, raw: str) -> AxisSpec:
    parts = raw.split()
    if len(parts) != 4:
        raise ConfigError(
            f"[{section}] {key} must be 'name lo hi steps', got {raw!r}"
        )
    name = parts[0]
    lo = _float(section, key, parts[1])
    hi = _float(section, key, parts[2])
    steps = _int(section, key, parts[3])
    try:
        return AxisSpec(name=name, lo=lo, hi=hi, steps=steps)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate scenario text; raises ConfigError on any defect."""
    parser = configparser.ConfigParser(
        delimiters=("=",), inline_comment_prefixes=("#",), strict=True,
        empty_lines_in_values=False,
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    sections = parser.sections()
    allowed_sections = ("config", "params", *_RUN_BLOCKS)
    unknown = sorted(set(sections) - set(allowed_sections))
    if unknown:
        raise ConfigError(
            f"unknown section(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(allowed_sections)}"
        )

    if "config" not in sections:
        raise ConfigError("missing [config] section with version")
    _check_keys("config", parser["config"], ("version",))
    version = _int("config", "version", parser["config"].get("version", ""))
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported config version {version}; this build reads "
            f"version {SCHEMA_VERSION}"
        )

    if "params" not in sections:
        raise ConfigError("missing [params] section")
    block = parser["params"]
    _check_keys("params", block, _PARAM_KEYS)
    for key in _REQUIRED_PARAM_KEYS:
        if key not in block:
            raise ConfigError(f"[params] is missing {key}")
    kwargs = {key: _float("params", key, block[key]) for key in block}
    try:
        params = SystemParams(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"[params]: {exc}") from exc

    run_blocks = [name for name in _RUN_BLOCKS if name in sections]
    if len(run_blocks) > 1:
        raise ConfigError(
            f"at most one run block per file; found {', '.join(run_blocks)}"
        )
    run_block = run_blocks[0] if run_blocks else None

    evolve = spectra = sweep = swept = sweep_mode = rwa = None
    if run_block == "evolve":
        block = parser["evolve"]
        _check_keys("evolve", block, ("t_max", "n_points", "initial"))
        if "t_max" not in block:
            raise ConfigError("[evolve] is missing t_max")
        evolve = EvolveConfig(**_values("evolve", block, t_max=_float, n_points=_int))
        initial = block.get("initial", "vacuum-thermal").strip()
        if evolve.t_max <= 0.0:
            raise ConfigError("[evolve] t_max must be > 0")
        if evolve.n_points < 1:
            raise ConfigError("[evolve] n_points must be >= 1")
        if initial != "vacuum-thermal":
            raise ConfigError(
                f"[evolve] initial = {initial!r}; only 'vacuum-thermal' is supported"
            )
    elif run_block == "spectra":
        block = parser["spectra"]
        _check_keys("spectra", block, ("omega_min", "omega_max", "n_points"))
        spectra = SpectraConfig(
            **_values("spectra", block, omega_min=_float, omega_max=_float, n_points=_int)
        )
        if (spectra.omega_min is None) != (spectra.omega_max is None):
            raise ConfigError("[spectra] needs both omega_min and omega_max, or neither")
        if spectra.omega_min is not None and spectra.omega_min >= spectra.omega_max:
            raise ConfigError("[spectra] needs omega_min < omega_max")
        if spectra.n_points < 2:
            raise ConfigError("[spectra] n_points must be >= 2")
    elif run_block == "sweep":
        block = parser["sweep"]
        _check_keys("sweep", block, ("mode", "objective", "axes", "swept", "ties"))
        sweep_mode = block.get("mode", "").strip()
        if sweep_mode not in ("grid", "minimize"):
            raise ConfigError("[sweep] mode must be 'grid' or 'minimize'")
        objective = block.get("objective", "s12").strip()
        if "axes" not in block:
            raise ConfigError("[sweep] is missing axes")
        axes = tuple(
            _parse_axis("sweep", "axes", chunk.strip())
            for chunk in block["axes"].split(";")
            if chunk.strip()
        )
        if not axes:
            raise ConfigError("[sweep] axes is empty")
        ties: dict[str, str] = {}
        for chunk in block.get("ties", "").split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ConfigError(f"[sweep] ties entry {chunk!r} is not dst=src")
            dst, src = (part.strip() for part in chunk.split("=", 1))
            if dst in ties:
                raise ConfigError(f"[sweep] ties sets {dst!r} more than once")
            ties[dst] = src
        if sweep_mode == "minimize":
            if "swept" not in block:
                raise ConfigError("[sweep] minimize mode needs a swept axis")
            swept = _parse_axis("sweep", "swept", block["swept"])
        elif "swept" in block:
            raise ConfigError("[sweep] grid mode does not take a swept axis")
        try:
            sweep = SweepSpec(base=params, axes=axes, objective=objective, ties=ties)
            _check_swept(sweep, swept)
        except ValueError as exc:
            raise ConfigError(f"[sweep]: {exc}") from exc
    elif run_block == "rwa":
        block = parser["rwa"]
        _check_keys("rwa", block, ("omega_m", "margin_factor"))
        rwa = RwaConfig(**_values("rwa", block, omega_m=_float, margin_factor=_float))
        if rwa.margin_factor <= 0.0:
            raise ConfigError("[rwa] margin_factor must be > 0")

    return ScenarioConfig(
        params=params,
        run_block=run_block,
        evolve=evolve,
        spectra=spectra,
        sweep=sweep,
        swept=swept,
        sweep_mode=sweep_mode,
        rwa=rwa,
    )


def load_config(path) -> ScenarioConfig:
    """Read and parse a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)

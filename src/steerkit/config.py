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

Unknown sections or keys are rejected so typos fail loudly.  Each run-block
type checks its own fields, so a block built in code is held to the rules a
file is, with the same ConfigError message; the parser reads ``[evolve]``,
``[spectra]`` and ``[rwa]`` by their types' fields.
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
    "SweepConfig",
    "RwaConfig",
    "ScenarioConfig",
    "parse_config",
    "load_config",
]

SCHEMA_VERSION = 1

_PARAM_KEYS = tuple(f.name for f in fields(SystemParams))
_REQUIRED_PARAM_KEYS = tuple(f.name for f in fields(SystemParams) if f.default is MISSING)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


@dataclass(frozen=True)
class EvolveConfig:
    t_max: float
    n_points: int = 600

    def __post_init__(self):
        _require(self.t_max > 0.0, "[evolve] t_max must be > 0")
        _require(self.n_points >= 1, "[evolve] n_points must be >= 1")


@dataclass(frozen=True)
class SpectraConfig:
    omega_min: float | None = None
    omega_max: float | None = None
    n_points: int = _GRID_POINTS

    def __post_init__(self):
        lo, hi = self.omega_min, self.omega_max
        _require((lo is None) == (hi is None),
                 "[spectra] needs both omega_min and omega_max, or neither")
        _require(lo is None or lo < hi, "[spectra] needs omega_min < omega_max")
        _require(self.n_points >= 2, "[spectra] n_points must be >= 2")


@dataclass(frozen=True)
class SweepConfig:
    """A ``[sweep]`` block: the grid, plus the swept axis in minimize mode (None in grid mode)."""

    spec: SweepSpec
    swept: AxisSpec | None = None

    def __post_init__(self):
        try:
            _check_swept(self.spec, self.swept)
        except ValueError as exc:
            raise ConfigError(f"[sweep]: {exc}") from exc


@dataclass(frozen=True)
class RwaConfig:
    omega_m: float | None = None
    margin_factor: float = _MARGIN_FACTOR

    def __post_init__(self):
        _require(self.margin_factor > 0.0, "[rwa] margin_factor must be > 0")


#: each run block's section name and type, in the order the schema lists them
_RUN_BLOCKS = {
    "evolve": EvolveConfig, "spectra": SpectraConfig, "sweep": SweepConfig, "rwa": RwaConfig
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a CLI invocation needs: parameters plus at most one run block."""

    params: SystemParams
    run: EvolveConfig | SpectraConfig | SweepConfig | RwaConfig | None = None

    @property
    def run_block(self) -> str | None:
        """The section name of ``run``, or None."""
        return next((name for name, kind in _RUN_BLOCKS.items() if type(self.run) is kind), None)


def _number(kind: type, section: str, key: str, raw: str):
    """``raw`` as a ``kind``, int or finite float."""
    try:
        value = kind(raw)
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{section}] {key} = {raw!r} is not {what}") from exc
    _require(kind is int or math.isfinite(value), f"[{section}] {key} = {raw!r} is not finite")
    return value


def _check_keys(section: str, present, allowed, required=()) -> None:
    unknown = sorted(set(present) - set(allowed))
    _require(not unknown, f"unknown key(s) {', '.join(unknown)} in [{section}]; "
             f"allowed: {', '.join(allowed)}")
    for key in required:
        _require(key in present, f"[{section}] is missing {key}")


def _read_fields(section: str, block, *unparsed):
    """Run block ``section`` as its type, each field read from ``block`` as an int or a
    float; a field without a default is required, an absent one keeps its default.  Keys
    other than the fields and the ``unparsed`` ones (the caller reads those) are rejected."""
    kind = _RUN_BLOCKS[section]
    types = {f.name: int if f.type == "int" else float for f in fields(kind)}
    required = [f.name for f in fields(kind) if f.default is MISSING]
    _check_keys(section, block, (*types, *unparsed), required)
    return kind(**{key: _number(types[key], section, key, block[key]) for key in types
                   if key in block})


def _parse_axis(key: str, raw: str) -> AxisSpec:
    parts = raw.split()
    _require(len(parts) == 4, f"[sweep] {key} must be 'name lo hi steps', got {raw!r}")
    kinds = (float, float, int)
    lo, hi, steps = (_number(kind, "sweep", key, part) for kind, part in zip(kinds, parts[1:]))
    try:
        return AxisSpec(name=parts[0], lo=lo, hi=hi, steps=steps)
    except ValueError as exc:
        raise ConfigError(f"[sweep] {key}: {exc}") from exc


def _read_sweep(block, params: SystemParams) -> SweepConfig:
    """The ``[sweep]`` block over base ``params``."""
    _check_keys("sweep", block, ("mode", "objective", "axes", "swept", "ties"))
    mode = block.get("mode", "").strip()
    _require(mode in ("grid", "minimize"), "[sweep] mode must be 'grid' or 'minimize'")
    _require("axes" in block, "[sweep] is missing axes")
    chunks = (chunk.strip() for chunk in block["axes"].split(";"))
    axes = tuple(_parse_axis("axes", chunk) for chunk in chunks if chunk)
    _require(bool(axes), "[sweep] axes is empty")
    ties: dict[str, str] = {}
    for chunk in filter(None, (chunk.strip() for chunk in block.get("ties", "").split(","))):
        _require("=" in chunk, f"[sweep] ties entry {chunk!r} is not dst=src")
        dst, src = (part.strip() for part in chunk.split("=", 1))
        _require(dst not in ties, f"[sweep] ties sets {dst!r} more than once")
        ties[dst] = src
    _require("swept" in block or mode == "grid", "[sweep] minimize mode needs a swept axis")
    _require(mode == "minimize" or "swept" not in block,
             "[sweep] grid mode does not take a swept axis")
    swept = _parse_axis("swept", block["swept"]) if "swept" in block else None
    try:
        spec = SweepSpec(params, axes, block.get("objective", "s12").strip(), ties)
    except ValueError as exc:
        raise ConfigError(f"[sweep]: {exc}") from exc
    return SweepConfig(spec, swept)


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
    _require(not unknown, f"unknown section(s): {', '.join(unknown)}; "
             f"allowed: {', '.join(allowed_sections)}")

    _require("config" in sections, "missing [config] section with version")
    _check_keys("config", parser["config"], ("version",))
    version = _number(int, "config", "version", parser["config"].get("version", ""))
    _require(version == SCHEMA_VERSION, f"unsupported config version {version}; "
             f"this build reads version {SCHEMA_VERSION}")

    _require("params" in sections, "missing [params] section")
    block = parser["params"]
    _check_keys("params", block, _PARAM_KEYS, _REQUIRED_PARAM_KEYS)
    try:
        params = SystemParams(**{key: _number(float, "params", key, block[key]) for key in block})
    except ParameterError as exc:
        raise ConfigError(f"[params]: {exc}") from exc

    run_blocks = [name for name in _RUN_BLOCKS if name in sections]
    _require(len(run_blocks) <= 1,
             f"at most one run block per file; found {', '.join(run_blocks)}")
    if not run_blocks:
        return ScenarioConfig(params)
    name = run_blocks[0]
    if name == "sweep":
        return ScenarioConfig(params, _read_sweep(parser[name], params))
    run = _read_fields(name, parser[name], *(("initial",) if name == "evolve" else ()))
    initial = parser[name].get("initial", "vacuum-thermal").strip()  # only [evolve] may set it
    _require(initial == "vacuum-thermal",
             f"[evolve] initial = {initial!r}; only 'vacuum-thermal' is supported")
    return ScenarioConfig(params, run)


def load_config(path) -> ScenarioConfig:
    """Read and parse a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)

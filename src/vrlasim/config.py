"""YAML configuration for scenario runs.

A config file carries shared simulation settings, battery and ageing
parameters, and a list of scenarios.  Every key is optional; omitted
sections fall back to the package defaults, and unknown keys are
rejected so typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any

import yaml

from .battery import BatteryParams, GassingParams
from .control import (
    BBOXX_LIMITS,
    FULL_LIMITS,
    PARTIAL_LIMITS,
    ControlParams,
    Policy,
    VoltageLimits,
)
from .degradation import Datasheet, DegradationParams
from .profiles import ARCHETYPES, UseArchetype


class ConfigError(ValueError):
    """Bad configuration; message names the offending key."""


@dataclass(frozen=True)
class SimSettings:
    dt_s: float = 900.0
    max_years: float = 15.0
    seed: int = 42
    initial_soc: float = 0.9
    converter_efficiency: float = 0.95
    panel_rating_w: float = 50.0

    def __post_init__(self) -> None:
        for key in ("dt_s", "max_years"):
            value = getattr(self, key)
            if not isinstance(value, (int, float)) or not 0.0 < value < math.inf:
                raise ConfigError(f"sim.{key} must be positive and finite: {value!r}")


@dataclass(frozen=True)
class ControlSettings:
    """Controller constants shared by every scenario in a run."""

    taper_fraction_per_h: float = 0.02
    cutoff_soc: float = 0.5
    reconnect_hysteresis: float = 0.05
    bboxx_limits: VoltageLimits = BBOXX_LIMITS
    full_limits: VoltageLimits = FULL_LIMITS
    partial_limits: VoltageLimits = PARTIAL_LIMITS


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario entry: an input source plus a controller policy."""

    name: str
    policy: Policy = Policy.BBOXX_STATIC
    archetype: str | None = None
    profile_csv: str | None = None
    days: int | None = None  # profile length; defaults to the horizon
    seed: int | None = None  # falls back to the shared seed
    record_trace: bool = False

    def __post_init__(self) -> None:
        if (self.archetype is None) == (self.profile_csv is None):
            raise ConfigError(
                f"scenario {self.name!r}: set exactly one of archetype/profile_csv"
            )
        if self.archetype is not None and self.archetype not in ARCHETYPES:
            raise ConfigError(
                f"scenario {self.name!r}: unknown archetype {self.archetype!r} "
                f"(choose from {sorted(ARCHETYPES)})"
            )


@dataclass(frozen=True)
class RunConfig:
    sim: SimSettings = field(default_factory=SimSettings)
    battery: BatteryParams = field(default_factory=BatteryParams)
    degradation: DegradationParams = field(default_factory=DegradationParams)
    datasheet: Datasheet = field(default_factory=Datasheet)
    control: ControlSettings = field(default_factory=ControlSettings)
    scenarios: tuple[ScenarioSpec, ...] = ()
    archetype_overrides: tuple[tuple[str, UseArchetype], ...] = ()
    output_dir: str = "out"

    def scenario(self, name: str) -> ScenarioSpec:
        for spec in self.scenarios:
            if spec.name == name:
                return spec
        raise ConfigError(f"no scenario named {name!r} in config")

    def control_params(self, policy: Policy) -> ControlParams:
        c = self.control
        full = c.full_limits if policy is Policy.ADAPTIVE else c.bboxx_limits
        return ControlParams(
            policy=policy,
            full_limits=full,
            partial_limits=c.partial_limits,
            taper_fraction_per_h=c.taper_fraction_per_h,
            cutoff_soc=c.cutoff_soc,
            reconnect_hysteresis=c.reconnect_hysteresis,
        )

    def archetype(self, name: str) -> UseArchetype:
        for key, archetype in self.archetype_overrides:
            if key == name:
                return archetype
        return ARCHETYPES[name]


def _build(cls, data: Any, path: str):
    """Construct a dataclass from a mapping, rejecting unknown keys."""
    if data is None:
        return cls()
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    names = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in names:
            raise ConfigError(
                f"{path}.{key}: unknown key (valid: {sorted(names)})"
            )
        kwargs[key] = _convert(names[key].type, value, f"{path}.{key}")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _convert(annotation: Any, value: Any, path: str):
    text = annotation if isinstance(annotation, str) else getattr(
        annotation, "__name__", str(annotation)
    )
    if text == "GassingParams":
        return _build(GassingParams, value, path)
    if text == "VoltageLimits":
        return _build(VoltageLimits, value, path)
    if text == "Policy":
        try:
            return Policy(value)
        except ValueError as exc:
            raise ConfigError(
                f"{path}: unknown policy {value!r} "
                f"(choose from {[p.value for p in Policy]})"
            ) from exc
    if text.startswith("tuple[tuple[float, float]"):
        return _knots(value, path)
    return value


def _knots(value: Any, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of [voltage, speed] pairs")
    out = []
    for i, pair in enumerate(value):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"{path}[{i}]: expected a [voltage, speed] pair")
        out.append((float(pair[0]), float(pair[1])))
    return tuple(out)


def load_config(path: str) -> RunConfig:
    """Parse a YAML config file into a RunConfig."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return config_from_dict(raw or {}, source=path)


def config_from_dict(raw: dict, source: str = "config") -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    known = {
        "sim",
        "battery",
        "degradation",
        "datasheet",
        "control",
        "scenarios",
        "archetypes",
        "output",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{source}: unknown sections {sorted(unknown)}")

    sim = _build(SimSettings, raw.get("sim"), "sim")
    battery = _build(BatteryParams, raw.get("battery"), "battery")
    degradation = _build(DegradationParams, raw.get("degradation"), "degradation")
    datasheet = _build(Datasheet, raw.get("datasheet"), "datasheet")
    control = _build(ControlSettings, raw.get("control"), "control")

    overrides = []
    raw_arch = raw.get("archetypes") or {}
    if not isinstance(raw_arch, dict):
        raise ConfigError("archetypes: expected a mapping of name to fields")
    for name, fields_ in raw_arch.items():
        if name not in ARCHETYPES:
            raise ConfigError(
                f"archetypes.{name}: unknown archetype (choose from {sorted(ARCHETYPES)})"
            )
        if not isinstance(fields_, dict):
            raise ConfigError(f"archetypes.{name}: expected a mapping")
        base = ARCHETYPES[name]
        allowed = {
            "daily_energy_wh",
            "evening_fraction",
            "nonuse_run_days",
            "active_run_days",
        }
        bad = set(fields_) - allowed
        if bad:
            raise ConfigError(
                f"archetypes.{name}: unknown keys {sorted(bad)} (valid: {sorted(allowed)})"
            )
        try:
            overrides.append((name, dataclasses.replace(base, **fields_)))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"archetypes.{name}: {exc}") from exc

    scenarios = []
    raw_scen = raw.get("scenarios") or []
    if not isinstance(raw_scen, list):
        raise ConfigError("scenarios: expected a list")
    for i, entry in enumerate(raw_scen):
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError(f"scenarios[{i}]: each entry needs a name")
        scenarios.append(_build(ScenarioSpec, entry, f"scenarios[{i}]"))
    names = [s.name for s in scenarios]
    if len(names) != len(set(names)):
        raise ConfigError("scenarios: names must be unique")

    output = raw.get("output") or {}
    if not isinstance(output, dict):
        raise ConfigError("output: expected a mapping")
    extra = set(output) - {"directory"}
    if extra:
        raise ConfigError(f"output: unknown keys {sorted(extra)}")

    return RunConfig(
        sim=sim,
        battery=battery,
        degradation=degradation,
        datasheet=datasheet,
        control=control,
        scenarios=tuple(scenarios),
        archetype_overrides=tuple(overrides),
        output_dir=output.get("directory", "out"),
    )


def default_config_yaml() -> str:
    """A complete, commented example config."""
    return """\
# vrlasim run configuration; every key is optional.
sim:
  dt_s: 900            # simulation step (s), must divide a day evenly
  max_years: 15        # horizon; runs not at end of life by then are censored
  seed: 42             # default RNG seed for synthetic profiles
  initial_soc: 0.9
  converter_efficiency: 0.95
  panel_rating_w: 50

battery:
  capacity_ah: 20
  cells_in_series: 6
  b0: 0.07             # V per unit C-rate
  b1: 3.0              # overpotential spread gain

datasheet:
  float_life_years: 4  # rated standby life at 13.5 V / 25 degC
  nominal_cycles: 600  # rated full cycles

control:
  taper_fraction_per_h: 0.02   # absorption exit: current below this x capacity
  cutoff_soc: 0.5
  reconnect_hysteresis: 0.05
  bboxx_limits:   {v_limit: 14.5, v_float: 13.5, temp_coeff_mv_per_c: 0}
  full_limits:    {v_limit: 14.5, v_float: 13.5, temp_coeff_mv_per_c: -30}
  partial_limits: {v_limit: 13.0, v_float: 12.8, temp_coeff_mv_per_c: -30}

# archetypes:              # optional per-archetype overrides
#   low: {daily_energy_wh: 40, evening_fraction: 0.7}
#   infrequent: {nonuse_run_days: 10, active_run_days: 7}

scenarios:
  - name: low_static
    policy: bboxx_static
    archetype: low          # high | moderate | low | infrequent
  - name: low_adaptive
    policy: adaptive
    archetype: low

output:
  directory: out
"""

"""YAML configuration for scenario runs.

A config file carries shared simulation settings, battery and ageing
parameters, and a list of scenarios.  Every key is optional; omitted
sections fall back to the package defaults, and unknown keys are
rejected so typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Iterator

from ._domains import NON_NEGATIVE_INT, POSITIVE_INT, check_fields, declared, same_as
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
from .engine import Scenario, horizon_steps
from .profiles import ARCHETYPES, TimeSeries, UseArchetype, divides_day


class ConfigError(ValueError):
    """Bad configuration; message names the offending key."""


class _FieldError(ConfigError):
    """A key out of its domain, named alone; _build adds the key's place."""


@dataclass(frozen=True)
class SimSettings:
    """Simulation settings shared by every scenario in a run."""

    dt_s: float = same_as(Scenario, "dt_s")
    max_years: float = same_as(Scenario, "max_years")
    seed: int = declared(42, NON_NEGATIVE_INT, "-", "RNG seed of synthetic profiles")
    initial_soc: float = same_as(Scenario, "initial_soc")
    converter_efficiency: float = same_as(Scenario, "converter_efficiency")
    panel_rating_w: float = same_as(TimeSeries, "panel_rating_w")

    def __post_init__(self) -> None:
        check_fields(self, ConfigError, prefix="sim.")
        if not divides_day(self.dt_s):
            raise ConfigError(f"sim.dt_s must divide a day evenly: {self.dt_s!r}")
        if horizon_steps(self.dt_s, self.max_years) < 1:
            raise ConfigError(
                f"sim.max_years must hold one step of sim.dt_s {self.dt_s!r} s: {self.max_years!r}"
            )


@dataclass(frozen=True)
class ControlSettings:
    """Controller constants shared by every scenario in a run."""

    taper_fraction_per_h: float = same_as(ControlParams, "taper_fraction_per_h")
    cutoff_soc: float = same_as(ControlParams, "cutoff_soc")
    reconnect_hysteresis: float = same_as(ControlParams, "reconnect_hysteresis")
    bboxx_limits: VoltageLimits = BBOXX_LIMITS
    full_limits: VoltageLimits = FULL_LIMITS
    partial_limits: VoltageLimits = PARTIAL_LIMITS

    def __post_init__(self) -> None:
        self.params(Policy.BBOXX_STATIC)  # which checks every shared field

    def params(self, policy: Policy) -> ControlParams:
        """The controller constants of a scenario run under `policy`."""
        full = self.full_limits if policy is Policy.ADAPTIVE else self.bboxx_limits
        shared = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.metadata}
        return ControlParams(
            policy=policy, full_limits=full, partial_limits=self.partial_limits, **shared
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario entry: an input source plus a controller policy."""

    name: str
    policy: Policy = Policy.BBOXX_STATIC
    archetype: str | None = None
    profile_csv: str | None = None
    days: int | None = declared(None, POSITIVE_INT, "days", "profile length; None: the horizon")
    seed: int | None = declared(None, NON_NEGATIVE_INT, "-", "RNG seed; None: sim.seed")

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
        check_fields(self, _FieldError)


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

    def archetype(self, name: str) -> UseArchetype:
        for key, archetype in self.archetype_overrides:
            if key == name:
                return archetype
        return ARCHETYPES[name]


# The sections that each hold one parameter class, in reading and printing order.
SECTIONS = {
    "sim": SimSettings, "battery": BatteryParams, "degradation": DegradationParams,
    "datasheet": Datasheet, "control": ControlSettings,
}


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
    except _FieldError as exc:
        raise ConfigError(f"{path}.{exc}") from exc
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _convert(text: str, value: Any, path: str):
    """A value for a field annotated `text` (a string: the modules defer annotations)."""
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
        out.append(tuple(pair))  # DegradationParams checks each number
    return tuple(out)


def load_config(path: str) -> RunConfig:
    """Parse a YAML config file into a RunConfig."""
    import yaml  # here, not at the top: commands that read no config skip its import

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
    known = {*SECTIONS, "scenarios", "archetypes", "output"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{source}: unknown sections {sorted(unknown)}")

    sections = {key: _build(cls, raw.get(key), key) for key, cls in SECTIONS.items()}

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
        # the scenario's seed replaces stochastic_seed
        allowed = {f.name for f in dataclasses.fields(base) if f.metadata} - {"stochastic_seed"}
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
        **sections,
        scenarios=tuple(scenarios),
        archetype_overrides=tuple(overrides),
        output_dir=output.get("directory", "out"),
    )


def default_config_yaml() -> str:
    """A complete, commented example config: every key of each section
    with its default, unit, domain and doc, then example scenarios."""
    lines = ["# vrlasim run configuration; every key is optional."]
    for section, cls in SECTIONS.items():
        lines += ["", f"{section}:", *_template_lines(cls(), "  ")]
    return "\n".join(lines) + "\n" + _TEMPLATE_EXAMPLES


def _template_lines(obj: Any, indent: str) -> Iterator[str]:
    """A section's keys, each with its default in JSON, which YAML reads."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield f"{indent}{f.name}:"
            yield from _template_lines(value, indent + "  ")
        else:
            meta = f.metadata
            rule = f"; must {meta['domain'].rule}" if meta["domain"] else ""
            yield f"{indent}{f.name}: {json.dumps(value)}  # [{meta['unit']}] {meta['doc']}{rule}"


_TEMPLATE_EXAMPLES = """
# archetypes:              # optional per-archetype overrides
#   low: {daily_energy_wh: 50, evening_fraction: 0.6}
#   infrequent: {nonuse_run_days: 14, active_run_days: 5}

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

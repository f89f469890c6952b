"""Desk-scale simulator of VRLA battery ageing in solar home systems.

Couples an electrical battery model, a three-stage charge controller
(with an optional adaptive full-recharge scheduler) and a two-channel
degradation model (grid corrosion plus weighted cycle throughput), and
runs them over synthetic or logged load/solar/temperature profiles to
predict battery lifetime under different usage patterns and control
policies.
"""

import importlib

# Each export and the module that holds it.  Exports are imported on
# first access (PEP 562), so importing the package, or one of its
# modules, loads no module that is not used.
_EXPORTS = {
    "battery": (
        "Battery", "BatteryParamError", "BatteryParams", "GassingParams",
        "battery_ocv", "gassing_current", "terminal_voltage",
    ),
    "config": ("ConfigError", "RunConfig", "ScenarioSpec", "load_config"),
    "control": (
        "BBOXX_LIMITS", "FULL_LIMITS", "PARTIAL_LIMITS", "ControlParams",
        "ControllerState", "Policy", "VoltageLimits", "adaptive_params",
    ),
    "degradation": (
        "CalibrationError", "Datasheet", "DegradationModel", "DegradationParams",
        "DegradationState", "calibrate_limits",
    ),
    "engine": (
        "ComparisonResult", "EngineError", "Scenario", "SimResult",
        "compare_strategies", "run_scenario",
    ),
    "profiles": (
        "ARCHETYPES", "HIGH_USE", "INFREQUENT_USE", "LOW_USE", "MODERATE_USE",
        "ProfileError", "StressAccumulator", "StressFactors", "TimeSeries",
        "UseArchetype", "generate_archetype", "ingest_csv", "stress_factors",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """Import an export's module and bind the export here, once."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})


__version__ = "0.1.0"

__all__ = [*sorted(_MODULE_OF), "__version__"]

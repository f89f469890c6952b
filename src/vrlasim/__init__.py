"""Desk-scale simulator of VRLA battery ageing in solar home systems.

Couples an electrical battery model, a three-stage charge controller
(with an optional adaptive full-recharge scheduler) and a two-channel
degradation model (grid corrosion plus weighted cycle throughput), and
runs them over synthetic or logged load/solar/temperature profiles to
predict battery lifetime under different usage patterns and control
policies.
"""

from .battery import (
    Battery,
    BatteryParamError,
    BatteryParams,
    GassingParams,
    battery_ocv,
    gassing_current,
    terminal_voltage,
)
from .config import ConfigError, RunConfig, ScenarioSpec, load_config
from .control import (
    BBOXX_LIMITS,
    FULL_LIMITS,
    PARTIAL_LIMITS,
    ControlParams,
    ControllerState,
    Policy,
    VoltageLimits,
    adaptive_params,
)
from .degradation import (
    CalibrationError,
    Datasheet,
    DegradationModel,
    DegradationParams,
    DegradationState,
    calibrate_limits,
)
from .engine import (
    ComparisonResult,
    EngineError,
    Scenario,
    SimResult,
    compare_strategies,
    run_scenario,
)
from .profiles import (
    ARCHETYPES,
    HIGH_USE,
    INFREQUENT_USE,
    LOW_USE,
    MODERATE_USE,
    ProfileError,
    StressAccumulator,
    StressFactors,
    TimeSeries,
    UseArchetype,
    generate_archetype,
    ingest_csv,
    stress_factors,
)

__version__ = "0.1.0"

__all__ = [
    "ARCHETYPES",
    "BBOXX_LIMITS",
    "Battery",
    "BatteryParamError",
    "BatteryParams",
    "CalibrationError",
    "ComparisonResult",
    "ConfigError",
    "ControlParams",
    "ControllerState",
    "Datasheet",
    "DegradationModel",
    "DegradationParams",
    "DegradationState",
    "EngineError",
    "FULL_LIMITS",
    "GassingParams",
    "HIGH_USE",
    "INFREQUENT_USE",
    "LOW_USE",
    "MODERATE_USE",
    "PARTIAL_LIMITS",
    "Policy",
    "ProfileError",
    "RunConfig",
    "Scenario",
    "ScenarioSpec",
    "SimResult",
    "StressAccumulator",
    "StressFactors",
    "TimeSeries",
    "UseArchetype",
    "VoltageLimits",
    "adaptive_params",
    "battery_ocv",
    "calibrate_limits",
    "compare_strategies",
    "gassing_current",
    "generate_archetype",
    "ingest_csv",
    "load_config",
    "run_scenario",
    "stress_factors",
    "terminal_voltage",
    "__version__",
]

"""Each declared field of each parameter class, against its domain.

A value outside the domain (nan, +-inf, a str, a bool, or a number just
outside) raises the class's own error naming the key; the edges the
domain allows construct, unless a rule across fields rejects them.
"""

import dataclasses
import math
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import PARAMETER_CLASSES, constant_profile
from vrlasim import _domains as d
from vrlasim.battery import BatteryParamError, BatteryParams, GassingParams
from vrlasim.config import ConfigError, ControlSettings, SimSettings
from vrlasim.control import FULL_LIMITS, ControlParams, VoltageLimits
from vrlasim.degradation import Datasheet, DegradationParams
from vrlasim.cli import main
from vrlasim.engine import EngineError, Scenario
from vrlasim.profiles import (
    LOW_USE,
    MIN_DT_S,
    ProfileError,
    TimeSeries,
    UseArchetype,
    divides_day,
    generate_archetype,
    write_profile_csv,
)

MAX = sys.float_info.max
TINY = 5e-324  # the least positive float
ABOVE_ONE = math.nextafter(1.0, 2.0)
BELOW_ONE = math.nextafter(1.0, 0.0)
ABOVE_TEMP_MAX = math.nextafter(d.TEMP_MAX_C, math.inf)
BELOW_TEMP_MIN = math.nextafter(d.TEMP_MIN_C, -math.inf)
ABOVE_FLOAT_LIFE = math.nextafter(d.MAX_FLOAT_LIFE_YEARS, math.inf)
ABOVE_HORIZON = math.nextafter(d.MAX_HORIZON_YEARS, math.inf)

# A valid instance of each class, and the error the class raises.
BASES = {
    BatteryParams: (BatteryParams(), BatteryParamError),
    GassingParams: (GassingParams(), BatteryParamError),
    VoltageLimits: (FULL_LIMITS, ValueError),
    ControlParams: (ControlParams(), ValueError),
    Datasheet: (Datasheet(), ValueError),
    DegradationParams: (DegradationParams(), ValueError),
    SimSettings: (SimSettings(), ConfigError),
    ControlSettings: (ControlSettings(), ValueError),
    Scenario: (Scenario("s", constant_profile(1)), EngineError),
    UseArchetype: (LOW_USE, ProfileError),
    TimeSeries: (constant_profile(1), ProfileError),
}

# Per domain: the value just outside it, values outside it, and the
# edges it allows.
JUST_OUTSIDE = {
    d.FINITE: -math.inf,
    d.NON_NEGATIVE: -TINY,
    d.POSITIVE: 0.0,
    d.UNIT: ABOVE_ONE,
    d.OPEN_UNIT: 1.0,
    d.HALF_OPEN_UNIT: 0.0,
    d.POSITIVE_INT: 0,
    d.NON_NEGATIVE_INT: -1,
    d.TEMPERATURE: ABOVE_TEMP_MAX,
    d.FLOAT_LIFE: ABOVE_FLOAT_LIFE,
    d.HORIZON: ABOVE_HORIZON,
}
OUTSIDE = {
    d.FINITE: st.sampled_from([math.nan, math.inf, -math.inf]),
    d.NON_NEGATIVE: st.floats(max_value=-TINY) | st.just(math.inf),
    d.POSITIVE: st.floats(max_value=0.0) | st.just(math.inf),
    d.UNIT: st.floats(max_value=-TINY) | st.floats(min_value=ABOVE_ONE),
    d.OPEN_UNIT: st.floats(max_value=0.0) | st.floats(min_value=1.0),
    d.HALF_OPEN_UNIT: st.floats(max_value=0.0) | st.floats(min_value=ABOVE_ONE),
    d.POSITIVE_INT: st.integers(max_value=0) | st.floats(),  # a float is no int
    d.NON_NEGATIVE_INT: st.integers(max_value=-1) | st.floats(),
    d.TEMPERATURE: st.floats(max_value=BELOW_TEMP_MIN) | st.floats(min_value=ABOVE_TEMP_MAX),
    d.FLOAT_LIFE: st.floats(max_value=-TINY) | st.floats(min_value=ABOVE_FLOAT_LIFE),
    d.HORIZON: st.floats(max_value=0.0) | st.floats(min_value=ABOVE_HORIZON),
}
EDGES = {
    d.FINITE: (-MAX, MAX),
    d.NON_NEGATIVE: (0.0, -0.0, MAX),
    d.POSITIVE: (TINY, MAX),
    d.UNIT: (0.0, 1.0),
    d.OPEN_UNIT: (TINY, BELOW_ONE),
    d.HALF_OPEN_UNIT: (TINY, 1.0),
    d.POSITIVE_INT: (1, 10**30),
    d.NON_NEGATIVE_INT: (0, 10**30),
    d.TEMPERATURE: (d.TEMP_MIN_C, d.TEMP_MAX_C),
    d.FLOAT_LIFE: (0.0, -0.0, d.MAX_FLOAT_LIFE_YEARS),
    d.HORIZON: (TINY, d.MAX_HORIZON_YEARS),
}
# What the rules across fields say when an edge breaks one of them.
CROSS_FIELD_RULES = re.compile(
    "electrolyte too small|acid volume fraction >= 1|v_float cannot exceed v_limit"
    r"|cutoff_soc \+ reconnect_hysteresis exceeds 1"
    "|dt_s must divide a day evenly|evening_fraction must be at most 0.9"
    r"|solar_w sample \d+ outside \[0, "
    "|overflows the corrosion speed|overflows the sub-threshold corrosion layer"
    "|max_years must hold one step of"
)

FIELDS = [
    (cls, f.name, f.metadata["domain"])
    for cls in PARAMETER_CLASSES
    for f in dataclasses.fields(cls)
    if f.metadata.get("domain") is not None
]
IDS = [f"{cls.__name__}.{key}" for cls, key, _ in FIELDS]


def test_every_class_has_a_base():
    assert set(BASES) == set(PARAMETER_CLASSES)


def rejection(cls: type, key: str, value) -> str:
    """The message of the class's own error for `key` set to `value`."""
    base, error = BASES[cls]
    with pytest.raises(error) as excinfo:
        dataclasses.replace(base, **{key: value})
    assert excinfo.type is error
    return str(excinfo.value)


@pytest.mark.parametrize("cls, key, domain", FIELDS, ids=IDS)
def test_fixed_bad_values_rejected_naming_the_key(cls, key, domain):
    for value in (math.nan, math.inf, -math.inf, "x", True, JUST_OUTSIDE[domain]):
        message = rejection(cls, key, value)
        assert message.endswith(f"{key} must {domain.rule}: {value!r}")


@pytest.mark.parametrize("cls, key, domain", FIELDS, ids=IDS)
@given(data=st.data())
def test_values_outside_the_domain_rejected(cls, key, domain, data):
    value = data.draw(OUTSIDE[domain])
    assert rejection(cls, key, value).endswith(f"{key} must {domain.rule}: {value!r}")


@pytest.mark.parametrize("cls, key, domain", FIELDS, ids=IDS)
def test_allowed_edges_construct(cls, key, domain):
    base, _ = BASES[cls]
    for value in EDGES[domain]:
        try:
            built = dataclasses.replace(base, **{key: value})
        except (ValueError, EngineError) as exc:
            assert CROSS_FIELD_RULES.search(str(exc)), (value, exc)
        else:
            assert getattr(built, key) is value  # checked, never converted


@pytest.mark.parametrize("cls", PARAMETER_CLASSES, ids=lambda c: c.__name__)
def test_default_instance_constructs(cls):
    base, _ = BASES[cls]
    assert dataclasses.replace(base) == base



# Steps that divide a day only because steps per day are too many for a
# float to tell apart, and the float just below the least step.
BELOW_THE_LEAST_STEP = [1e-300, 1e-11, math.nextafter(MIN_DT_S, 0.0)]


@pytest.mark.parametrize("dt_s", BELOW_THE_LEAST_STEP)
def test_step_below_the_least_rejected(dt_s):
    with pytest.raises(EngineError, match="^dt_s must divide a day evenly$"):
        dataclasses.replace(BASES[Scenario][0], dt_s=dt_s)
    message = f"sim.dt_s must divide a day evenly: {dt_s!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SimSettings(dt_s=dt_s)
    with pytest.raises(ProfileError, match="^dt_s must divide a day evenly$"):
        generate_archetype(LOW_USE, 1, dt_s=dt_s)


def test_the_least_step_allowed():
    assert dataclasses.replace(BASES[Scenario][0], dt_s=MIN_DT_S).dt_s == MIN_DT_S
    assert SimSettings(dt_s=MIN_DT_S).dt_s == MIN_DT_S


# Steps longer than a day: two days, and steps so long that a day's step
# count, 86400 / dt_s, lies within 1e-9 of 0.
ABOVE_THE_LARGEST_STEP = [172800.0, 8.64e13, 1e14, 1e308]


@pytest.mark.parametrize("dt_s", ABOVE_THE_LARGEST_STEP)
def test_step_above_a_day_rejected(dt_s):
    assert not divides_day(dt_s)
    with pytest.raises(EngineError, match="^dt_s must divide a day evenly$"):
        dataclasses.replace(BASES[Scenario][0], dt_s=dt_s)
    message = f"sim.dt_s must divide a day evenly: {dt_s!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SimSettings(dt_s=dt_s)
    with pytest.raises(ProfileError, match="^dt_s must divide a day evenly$"):
        generate_archetype(LOW_USE, 1, dt_s=dt_s)


@pytest.mark.parametrize("source", ["archetype: low, days: 2", "profile_csv: {csv}"])
@pytest.mark.parametrize("dt_s", ["8.64e13", "1e14", "1e308"])
def test_step_above_a_day_exits_1_from_the_cli(tmp_path, capsys, source, dt_s):
    csv_path = tmp_path / "logged.csv"
    write_profile_csv(generate_archetype(LOW_USE, 2, seed=4), str(csv_path))
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "sim: {max_years: 0.005}\n"
        f"scenarios: [{{name: a, {source.format(csv=csv_path)}}}]\n"
    )
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--dt", dt_s]
    assert main(argv) == 1
    assert capsys.readouterr().err == "scenario 'a' failed: dt_s must divide a day evenly\n"


def test_the_largest_step_allowed():
    assert divides_day(86400.0)
    assert dataclasses.replace(BASES[Scenario][0], dt_s=86400.0).dt_s == 86400.0
    assert SimSettings(dt_s=86400.0).dt_s == 86400.0
    assert len(generate_archetype(LOW_USE, 3, dt_s=86400.0)) == 3

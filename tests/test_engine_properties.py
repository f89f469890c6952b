"""run_scenario on random bounded profiles of a few days.

Two kinds of check: run_scenario, on the compiled kernel and on its
Python day, against the composed reference loop
(tests/reference_engine.py), result for result and error for error; and
engine-level invariants that hold on any such run.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import START, STEP_PATHS, constant_profile, result_digest, step_path
from reference_engine import reference_run
from vrlasim.battery import SOC_FLOOR, BatteryParamError, BatteryParams
from vrlasim.control import ControlParams, adaptive_params
from vrlasim.degradation import Datasheet
from vrlasim.engine import Scenario, run_scenario
from vrlasim.profiles import TimeSeries, ambient_temperature, solar_power

POLICIES = {"static": ControlParams(), "adaptive": adaptive_params()}
# three days without load or sun: the battery rests on every step
IDLE = TimeSeries(START, 900.0, [0.0] * 288, [0.0] * 288, [25.0] * 288, panel_rating_w=60.0)


@st.composite
def scenarios(draw, record_trace=st.booleans()):
    """A few days of hourly load, daily weather and a temperature offset,
    on a random battery that may reach end of life within the run."""
    days = draw(st.integers(1, 4))
    dt_s = draw(st.sampled_from([900.0, 1800.0, 3600.0]))
    steps_per_hour = int(3600.0 // dt_s)
    load_w = draw(st.sampled_from([3.0, 12.0, 60.0]))  # light, medium, draining
    hourly_load = draw(st.lists(st.floats(0.0, load_w), min_size=24 * days, max_size=24 * days))
    weather = draw(st.lists(st.floats(0.0, 1.0), min_size=days, max_size=days))
    panel_w = draw(st.floats(5.0, 150.0))
    temp_offset = draw(st.floats(-55.0, 45.0))
    load, solar, temp = [], [], []
    for k in range(24 * days * steps_per_hour):
        hour = (k * dt_s / 3600.0) % 24.0
        load.append(hourly_load[k // steps_per_hour])
        solar.append(solar_power(hour, panel_w * weather[k // (24 * steps_per_hour)]))
        temp.append(ambient_temperature(hour) + temp_offset)
    profile = TimeSeries(START, dt_s, load, solar, temp, panel_rating_w=panel_w)
    horizon_days = draw(st.integers(1, days + 2))  # beyond the profile, it wraps
    return Scenario(
        name="random",
        profile=profile,
        control=POLICIES[draw(st.sampled_from(sorted(POLICIES)))],
        battery=BatteryParams(capacity_ah=draw(st.floats(5.0, 20.0))),
        datasheet=Datasheet(
            float_life_years=draw(st.sampled_from([0.005, 0.02, 1.0, 4.0])),
            nominal_cycles=draw(st.floats(0.5, 600.0)),
        ),
        dt_s=dt_s,
        max_years=horizon_days / 365.0,
        initial_soc=draw(st.floats(0.0, 1.0)),  # below 0.5 the load disconnects
        converter_efficiency=draw(st.floats(0.5, 1.0)),
        record_trace=draw(record_trace),
    )


def outcome(run, scenario):
    """A run's result digest, or the type and message of what it raised."""
    try:
        return result_digest(run(scenario))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("path", STEP_PATHS)
@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_fused_step_matches_reference_loop(path, scenario):
    with step_path(path):
        assert outcome(run_scenario, scenario) == outcome(reference_run, scenario)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize(
    "change",
    [
        # the rest voltage below every OCV clamps the inverted soc
        {"battery": BatteryParams(rest_current_a=5.0), "initial_soc": 0.0},
        # at rest outside the rails: the inversion must still run
        {"profile": IDLE, "initial_soc": 1.0},
        {"profile": IDLE, "initial_soc": 0.0},
        # at rest on the floor of the most nearly spent electrolyte that
        # keeps the OCV rising with soc (log10 molality -1.6097 at soc 0)
        {
            "profile": IDLE,
            "battery": BatteryParams(electrolyte_volume_m3=1.3756e-4),
            "initial_soc": SOC_FLOOR,
        },
    ],
    ids=["rest_clamp", "idle_full", "idle_empty", "idle_least_electrolyte_floor"],
)
@pytest.mark.parametrize("path", STEP_PATHS)
def test_fused_step_matches_reference_on_edge_parameters(policy, change, path):
    base = Scenario(
        "edge",
        TimeSeries(
            START,
            900.0,
            [30.0 if 18 <= (k // 4) % 24 < 23 else 0.0 for k in range(96 * 3)],
            [solar_power((k / 4) % 24, 60.0) for k in range(96 * 3)],
            [ambient_temperature((k / 4) % 24) for k in range(96 * 3)],
            panel_rating_w=60.0,
        ),
        control=POLICIES[policy],
        max_years=3 / 365.0,
    )
    scenario = dataclasses.replace(base, **change)
    with step_path(path):
        assert outcome(run_scenario, scenario) == outcome(reference_run, scenario)


# One step a day on a flat profile, so every run ends on a day's last
# step, at a midnight: (load W, solar W, float life years, horizon years)
DAILY = {"end_of_life": (5.0, 20.0, 0.05, 2.0), "horizon": (10.0, 30.0, 1.0, 0.5)}


@pytest.mark.parametrize("end", sorted(DAILY))
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("path", STEP_PATHS)
def test_fused_step_matches_reference_on_runs_ending_at_midnight(path, policy, end):
    load_w, solar_w, float_life_years, max_years = DAILY[end]
    scenario = Scenario(
        "daily",
        constant_profile(30, 86400.0, load_w=load_w, solar_w=solar_w),
        control=POLICIES[policy],
        datasheet=Datasheet(float_life_years=float_life_years),
        dt_s=86400.0,
        max_years=max_years,
        record_trace=True,
    )
    with step_path(path):
        result = run_scenario(scenario)
        assert outcome(run_scenario, scenario) == outcome(reference_run, scenario)
    assert result.censored == (end == "horizon")
    assert [r.day for r in result.trajectory] == list(range(1, int(result.lifetime_days) + 1))


def test_spent_floor_battery_rejected():
    # the edge case of a battery at rest on SOC_FLOOR whose OCV there lies
    # below the OCV at soc 0: such a battery is no longer accepted
    with pytest.raises(BatteryParamError, match="^electrolyte too small: log10 molality"):
        BatteryParams(electrolyte_volume_m3=1.3755e-4)


@settings(max_examples=100, deadline=None)
@given(scenarios(record_trace=st.just(True)))
def test_engine_invariants(scenario):
    result = run_scenario(scenario)  # no exception on bounded inputs
    assert abs(result.audit.residual()) <= 1e-9
    totals = [day.c_total_ah for day in result.trajectory]
    assert totals == sorted(totals)
    assert totals[-1] == result.c_total_ah
    socs = [r.soc for r in result.trace]
    socs += [day.min_soc for day in result.trajectory]
    socs += [result.min_soc, result.audit.soc_end]
    assert all(0.0 <= soc <= 1.0 for soc in socs)

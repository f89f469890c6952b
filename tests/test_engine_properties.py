"""run_scenario on random bounded profiles of a few days.

Three kinds of check: run_scenario, on the compiled kernel and on its
Python day, against the composed reference loop
(tests/reference_engine.py), result for result and error for error;
engine-level invariants that hold on any such run; and the trends of the
paper's ageing mechanisms on generated profiles, which a sign error
written into every step path would break while the differentials pass.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import START, STEP_PATHS, constant_profile, result_digest, step_path
from reference_engine import reference_run
from vrlasim.battery import SOC_FLOOR, BatteryParamError, BatteryParams
from vrlasim.control import ControlParams, adaptive_params
from vrlasim.degradation import Datasheet
from vrlasim.engine import Scenario, SimResult, run_scenario
from vrlasim.profiles import (
    ARCHETYPES,
    TimeSeries,
    ambient_temperature,
    generate_archetype,
    solar_power,
)

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


@st.composite
def trend_cases(draw):
    """A generated profile's archetype and seed, a policy, and a horizon
    in days."""
    return {
        "archetype": draw(st.sampled_from(sorted(ARCHETYPES))),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "policy": draw(st.sampled_from(sorted(POLICIES))),
        "days": draw(st.integers(7, 60)),
    }


def trend_run(archetype, seed, policy, days, temp_offset=0.0, energy_scale=1.0) -> SimResult:
    """The kernel's run of a generated profile with its temperatures
    shifted by temp_offset and its archetype's daily energy scaled."""
    use = ARCHETYPES[archetype]
    use = dataclasses.replace(use, daily_energy_wh=use.daily_energy_wh * energy_scale)
    series = generate_archetype(use, days, seed=seed)
    if temp_offset:
        series = TimeSeries(
            series.start, series.dt_s, series.load_w, series.solar_w,
            [t + temp_offset for t in series.temp_c], panel_rating_w=series.panel_rating_w,
        )
    with step_path("kernel"):
        return run_scenario(
            Scenario("trend", series, control=POLICIES[policy], max_years=days / 365.0)
        )


def pair(values):
    return st.lists(values, min_size=2, max_size=2).map(sorted)


# Fails on the adaptive policy: its limits are temperature compensated
# (-30 mV/degC), so a warmer run charges to a lower voltage and can
# corrode less (high, seed 0, adaptive, 7 days, +0 against +3 degC).
@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="a model finding: temperature-compensated limits lower corrosion as it warms",
)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(trend_cases(), pair(st.floats(-62.0, 48.0)))  # 22-32 degC ambient within [-40, 80]
def test_corrosion_never_falls_as_temperature_rises(case, offsets):
    cooler, warmer = (trend_run(**case, temp_offset=offset) for offset in offsets)
    assume(cooler.censored and warmer.censored)
    assert warmer.c_corr_ah >= cooler.c_corr_ah


# Both load trends fail: once a heavier load disconnects every day, the
# discharge it draws is capped and its larger current weighs less, so
# c_deg can fall (high, seed 0, adaptive, 7 days, load x1 against x2); and
# on short adaptive runs the corrosion share can rise with load
# (infrequent, seed 0, 7 days, x0.25 against x0.5).  Derandomized, so the
# search and its counterexample are the same on every run.
LOAD_TREND_FAILS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="a model finding: load trend broken by the load disconnect and the adaptive policy",
)


@LOAD_TREND_FAILS
@settings(max_examples=40, deadline=None, derandomize=True)
@given(trend_cases(), pair(st.floats(0.0, 3.0)))
def test_active_mass_loss_never_falls_as_load_rises(case, scales):
    lighter, heavier = (trend_run(**case, energy_scale=scale) for scale in scales)
    assume(lighter.censored and heavier.censored)
    assert heavier.c_deg_ah >= lighter.c_deg_ah


@LOAD_TREND_FAILS
@settings(max_examples=40, deadline=None, derandomize=True)
@given(trend_cases(), pair(st.floats(0.0, 3.0)))
def test_corrosion_share_never_rises_as_load_rises(case, scales):
    lighter, heavier = (trend_run(**case, energy_scale=scale) for scale in scales)
    assume(lighter.censored and heavier.censored)
    assert heavier.corrosion_share_pct <= lighter.corrosion_share_pct


# The paper's claim that the adaptive policy costs no load, on the two
# archetypes it is meant for.  `high` is left out: there the adaptive
# policy loses load every year where the static one loses little or none
# (README, "Tests").
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(["infrequent", "low"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([900.0, 3600.0]),
    st.integers(1, 5),
)
def test_adaptive_policy_loses_no_load_where_static_loses_none(archetype, seed, dt_s, years):
    series = generate_archetype(ARCHETYPES[archetype], 365 * years + 1, seed=seed, dt_s=dt_s)
    with step_path("kernel"):
        lost = {
            policy: run_scenario(
                Scenario("load", series, control=control, dt_s=dt_s, max_years=years)
            ).load_energy_lost_wh
            for policy, control in POLICIES.items()
        }
    assert lost["static"] > 0.0 or lost["adaptive"] == 0.0

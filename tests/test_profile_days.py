"""Day-form profiles against their flat-column forms.

generate_archetype holds a profile as days and builds no column until
one is read; tests/reference_profiles.py builds the same profile as flat
columns.  These tests check that both forms give the same samples,
lengths, daily means, errors, written bytes and simulation results, and
that the simulation, the writer and the comparison build no column.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import re
import sys
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from helpers import ARITHMETIC_DT_S, START, TEMPLATE_DT_S, flat, result_digest, starts
from reference_engine import reference_run
from reference_profiles import reference_generate_archetype
from reference_writers import reference_write_profile_csv
from vrlasim._domains import TEMP_MAX_C, TEMP_MIN_C
from vrlasim.battery import BatteryParams, GassingParams, gassing_temperature_term
from vrlasim.cli import main
from vrlasim.control import ControlParams, VoltageLimits, adaptive_params
from vrlasim.degradation import (
    CalibrationError,
    Datasheet,
    DegradationParams,
    calibrate_limits,
    corrosion_temperature_factor,
)
from vrlasim.engine import (
    EngineError,
    Scenario,
    compare_strategies,
    run_scenario,
)
from vrlasim.profiles import (
    ARCHETYPES,
    COLUMNS,
    LOW_USE,
    ProfileDays,
    ProfileError,
    TimeSeries,
    UseArchetype,
    generate_archetype,
    write_profile_csv,
)

DT_S = [900.0, 3600.0, 96.0, 337.5, 86400.0]
POLICIES = {"static": ControlParams(), "adaptive": adaptive_params()}
# ages to end of life within a few days
FAST_AGEING = Datasheet(float_life_years=0.005, nominal_cycles=1.0)
MAX = sys.float_info.max
FINITE = st.floats(-MAX, MAX)
POSITIVE = st.floats(5e-324, MAX)


@st.composite
def built(draw, cls, **fields):
    """An instance of cls with the given fields drawn, from draws that construct."""
    try:
        return cls(**{key: draw(values) for key, values in fields.items()})
    except ValueError:
        reject()


def built_columns(series: TimeSeries) -> list[str]:
    return [c for c in COLUMNS if c in vars(series)]


def written_bytes(series: TimeSeries, write=None) -> bytes:
    """The bytes write_profile_csv writes of a day-form profile, which it
    writes without building a column; or those `write` writes of its
    flat-column rebuild."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "profile.csv")
        if write is None:
            write_profile_csv(series, path)
            assert built_columns(series) == []
        else:
            write(flat(series), path)
        with open(path, "rb") as fh:
            return fh.read()


archetypes = st.sampled_from(sorted(ARCHETYPES)).map(ARCHETYPES.__getitem__) | st.builds(
    UseArchetype,
    st.just("drawn"),
    st.floats(0.0, 200.0),
    st.floats(0.0, 0.9),
    st.integers(0, 5),
    st.integers(1, 9),
)


class TestAgainstTheFlatGenerator:
    @settings(max_examples=60, deadline=None)
    @given(
        archetypes,
        st.integers(1, 40),
        st.integers(0, 2**32),
        st.sampled_from(DT_S),
        st.floats(5.0, 150.0),
    )
    def test_same_samples_length_and_means(self, archetype, days, seed, dt_s, panel_w):
        series = generate_archetype(archetype, days, seed=seed, dt_s=dt_s, panel_rating_w=panel_w)
        ref = reference_generate_archetype(
            archetype, days, seed=seed, dt_s=dt_s, panel_rating_w=panel_w
        )
        assert len(series) == len(ref)
        assert series.duration_days() == ref.duration_days()
        assert built_columns(series) == []
        for column in COLUMNS:
            assert list(series.samples(column)) == getattr(ref, column)
        assert built_columns(series) == []
        assert series.load_w == ref.load_w
        assert series.solar_w == ref.solar_w
        assert series.temp_c == ref.temp_c
        assert built_columns(series) == list(COLUMNS)
        assert series.load_w is series.load_w  # built once, then kept
        assert series == ref

    def test_idle_runs_of_the_infrequent_archetype(self):
        series = generate_archetype(ARCHETYPES["infrequent"], 40, seed=7)
        idle = [d for d in range(40) if not any(series.day(d)[0])]
        assert idle  # the profile holds idle days, each all zero load
        ref = reference_generate_archetype(ARCHETYPES["infrequent"], 40, seed=7)
        assert series.load_w == ref.load_w

    def test_check_names_the_sample_of_the_day(self):
        # at seed 0, day 2 is the first whose energy overflows to inf; its
        # first loaded step is k = 20 (05:00, the predawn block)
        huge = UseArchetype("huge", sys.float_info.max, nonuse_run_days=2)
        message = f"^load_w sample {2 * 96 + 20} is negative or not finite: inf$"
        with pytest.raises(ProfileError, match=message):
            reference_generate_archetype(huge, 6, seed=0)
        with pytest.raises(ProfileError, match=message):
            generate_archetype(huge, 6, seed=0)

    def test_bad_powers_no_step_reads_pass(self):
        # at 86400 s the one step of a day, at midnight, lies in no load
        # block, so inf block powers reach no sample
        huge = UseArchetype("huge", sys.float_info.max)
        series = generate_archetype(huge, 6, seed=0, dt_s=86400.0)
        assert series.load_w == [0.0] * 6
        assert reference_generate_archetype(huge, 6, seed=0, dt_s=86400.0).load_w == [0.0] * 6

    @pytest.mark.parametrize("value", [float("nan"), 0.0, float("inf")])
    def test_bad_panel_rating_named(self, value):
        with pytest.raises(ProfileError, match="^panel_rating_w must be positive and finite"):
            generate_archetype(LOW_USE, 2, panel_rating_w=value)


class TestDays:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(-95, 0), st.integers(0, 12), st.sampled_from(DT_S[:4]))
    def test_a_day_is_the_repeated_columns(self, days, cut, d, dt_s):
        series = generate_archetype(LOW_USE, days, seed=days, dt_s=dt_s)
        steps_per_day = round(86400.0 / dt_s)
        n = max(len(series) + cut, 1)
        shorter = flat(series, n)  # a flat profile need not be whole days
        for profile in (series, shorter):
            size = len(profile)
            want = [
                [getattr(profile, c)[(d * steps_per_day + k) % size] for k in range(steps_per_day)]
                for c in COLUMNS
            ]
            assert [list(s) for s in profile.day(d)] == want

    def test_a_generated_day_shares_its_temperatures(self):
        series = generate_archetype(LOW_USE, 3)
        assert series.day(0)[2] is series.day(2)[2] is series.day(5)[2]
        assert built_columns(series) == []

    def test_flat_day_needs_a_step_that_divides_a_day(self):
        series = TimeSeries(START, 7.0, [0.0] * 3, [0.0] * 3, [25.0] * 3)
        with pytest.raises(ProfileError, match="^dt_s must divide a day evenly$"):
            series.day(0)

    def test_pickle_and_replace(self):
        series = generate_archetype(LOW_USE, 3, seed=1)
        back = pickle.loads(pickle.dumps(series))
        assert built_columns(back) == []
        assert back.same_samples(series)
        copy = dataclasses.replace(series)
        assert copy == series and copy.load_w == series.load_w


class TestDayChecks:
    """The step kernel indexes a day's block powers without a bounds check,
    so a ProfileDays whose rows or block indexes it could overrun is refused."""

    def days(self, block_of_step=(0, 1, 2), powers=((1.0, 2.0, 0.0),) * 3) -> ProfileDays:
        return ProfileDays(
            block_of_step=list(block_of_step), shape=[0.0, 1.0, 0.5], day_temp=[25.0] * 3,
            powers=[list(row) for row in powers], peaks=[10.0] * len(powers),
        )

    def test_rows_of_one_length_pass(self):
        series = TimeSeries.from_days(START, 28800.0, self.days())
        assert series.load_w == [1.0, 2.0, 0.0] * 3

    def test_a_row_of_another_length_is_named(self):
        powers = [[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [1.0, 2.0]]
        with pytest.raises(ProfileError, match="^day 2 holds 2 block powers, day 0 holds 3$"):
            self.days(powers=powers)

    @pytest.mark.parametrize("block", [-1, 3, 4])
    def test_a_block_outside_the_row_is_named(self, block):
        message = rf"^block_of_step\[1\] is {block}, outside \[0, 3\)$"
        with pytest.raises(ProfileError, match=message):
            self.days(block_of_step=(0, block, 2))

    @pytest.mark.parametrize("dt_s", [14400.0, 86400.0])
    def test_templates_hold_one_day_of_steps(self, dt_s):
        steps = round(86400.0 / dt_s)
        message = (
            rf"^day templates of 3 steps, where a day holds {steps} steps of dt_s {dt_s!r} s$"
        )
        with pytest.raises(ProfileError, match=message):
            TimeSeries.from_days(START, dt_s, self.days())

    def test_templates_need_a_step_that_divides_a_day(self):
        with pytest.raises(ProfileError, match="^dt_s must divide a day evenly$"):
            TimeSeries.from_days(START, 7.0, self.days())


class TestSameSamples:
    def test_equal_days_compare_without_columns(self, monkeypatch):
        a, b = (generate_archetype(LOW_USE, 30, seed=5) for _ in range(2))
        for name in ("load", "solar"):  # compared on the per-day values alone
            monkeypatch.setattr(ProfileDays, name, None)
        assert a.same_samples(b)
        assert built_columns(a) == built_columns(b) == []

    def test_other_seed_differs(self):
        a, b = generate_archetype(LOW_USE, 3, seed=5), generate_archetype(LOW_USE, 3, seed=6)
        assert not a.same_samples(b)

    def test_forms_and_layouts_with_the_same_samples(self):
        # no energy: every load is 0.0 whatever the block layout
        a = generate_archetype(UseArchetype("a", 0.0, evening_fraction=0.2), 3, seed=5)
        b = generate_archetype(UseArchetype("b", 0.0, evening_fraction=0.8), 3, seed=5)
        assert a.same_samples(b) and b.same_samples(flat(a)) and flat(a).same_samples(b)
        assert not a.same_samples(flat(a, len(a) - 1))

    def test_compare_checks_the_samples(self):
        a, b = generate_archetype(LOW_USE, 3, seed=5), generate_archetype(LOW_USE, 3, seed=6)
        base = Scenario("base", a, max_years=1 / 365.0)
        alt = dataclasses.replace(base, profile=b, control=adaptive_params())
        with pytest.raises(EngineError, match="must share the same input profile"):
            compare_strategies(base, alt)
        same = generate_archetype(LOW_USE, 3, seed=5)
        compare_strategies(base, dataclasses.replace(alt, profile=same))
        assert built_columns(a) == built_columns(same) == []


class TestEngineOnBothForms:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize(
        "days, horizon_days, datasheet",
        [
            (3, 3, Datasheet()),  # the horizon at the profile's end
            (2, 4.5, Datasheet()),  # whole days repeated, then half a day
            (5, 5, FAST_AGEING),  # end of life within a day
        ],
        ids=["whole", "repeated", "end_of_life"],
    )
    def test_generated_and_flat_match(self, policy, days, horizon_days, datasheet):
        series = generate_archetype(ARCHETYPES["infrequent"], days, seed=3)
        scenario = Scenario(
            "both",
            series,
            control=POLICIES[policy],
            datasheet=datasheet,
            max_years=horizon_days / 365.0,
            record_trace=True,
        )
        result = run_scenario(scenario)
        assert built_columns(series) == []
        steps = result.lifetime_days * 96
        if datasheet is FAST_AGEING:
            assert not result.censored and steps % 96
        assert result_digest(result) == result_digest(
            run_scenario(dataclasses.replace(scenario, profile=flat(series)))
        )
        assert result_digest(result) == result_digest(reference_run(scenario))

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_flat_profile_wraps_within_a_day(self, policy):
        series = flat(generate_archetype(LOW_USE, 2, seed=3), 96 + 37)
        scenario = Scenario(
            "wrap", series, control=POLICIES[policy], max_years=4 / 365.0, record_trace=True
        )
        assert result_digest(run_scenario(scenario)) == result_digest(reference_run(scenario))

    def test_overflowing_corrosion_factor_rejected(self):
        """2.0 ** ((80 + 273.15 - 298.15) / 0.01) overflows, so no run
        could evaluate its terms at 80 degC: the parameters are refused."""
        message = (
            "temp_doubling_k 0.01 with ks_ref_temp_k 298.15 overflows the corrosion"
            " speed at 80.0 degC"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DegradationParams(temp_doubling_k=0.01)

    def test_overflowing_corrosion_factor_exits_1_at_load(self, tmp_path, capsys):
        cfg = tmp_path / "hot.yaml"
        cfg.write_text(
            "degradation: {temp_doubling_k: 0.01}\n"
            "scenarios: [{name: a, archetype: low, days: 20}]\n"
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: degradation: temp_doubling_k 0.01 with ks_ref_temp_k")
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_terms_finite_at_every_admitted_temperature(self, data):
        """Why the kernel flags no step for its temperature terms: for
        parameters that construct, at any temperature a profile admits,
        the terms raise nothing, the corrosion factor is finite and
        calibration raises no OverflowError."""
        temperature = st.floats(TEMP_MIN_C, TEMP_MAX_C)
        limits = st.builds(
            lambda pair, *rest: VoltageLimits(*sorted(pair, reverse=True), *rest),
            st.tuples(FINITE, FINITE), FINITE, FINITE,
        )
        degradation = data.draw(
            built(DegradationParams, ks_ref_temp_k=POSITIVE, temp_doubling_k=POSITIVE)
        )
        control = data.draw(built(ControlParams, full_limits=limits, partial_limits=limits))
        gassing = data.draw(built(GassingParams, c_t=st.floats(0.0, MAX), t_ref=POSITIVE))
        for temp_c in data.draw(st.lists(temperature, min_size=1, max_size=4)):
            temp_k = temp_c + 273.15
            corrosion_factor = corrosion_temperature_factor(temp_k, degradation)
            gassing_temperature_term(temp_k, gassing)
            control.full_limits.compensated(temp_c)
            control.partial_limits.compensated(temp_c)
            assert corrosion_factor < math.inf
        datasheet = data.draw(
            built(Datasheet, float_life_years=st.floats(0.0, 0.01), float_temp_c=temperature)
        )
        try:
            calibrate_limits(BatteryParams(), degradation, datasheet)
        except CalibrationError:  # no layer grew, or the factor underflowed to 0
            pass


class TestNoColumns:
    def test_generated_profile_memory(self):
        tracemalloc.start()
        try:
            series = generate_archetype(LOW_USE, 15 * 365 + 2, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20
        assert len(series) == (15 * 365 + 2) * 96

    def test_a_run_to_end_of_life_builds_no_column(self):
        series = generate_archetype(LOW_USE, 15 * 365 + 2, seed=42)
        result = run_scenario(Scenario("low", series, max_years=15.0))
        assert not result.censored
        assert built_columns(series) == []

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(ARCHETYPES)),
        st.integers(0, 2**32),
        st.sampled_from([*TEMPLATE_DT_S, *ARITHMETIC_DT_S, 337.5]),
        st.integers(1, 3),
        starts,
    )
    def test_written_bytes_without_columns(self, name, seed, dt_s, days, start):
        series = generate_archetype(ARCHETYPES[name], days, seed=seed, dt_s=dt_s, start=start)
        assert written_bytes(series) == written_bytes(series, reference_write_profile_csv)

    @pytest.mark.parametrize(
        "start",
        [datetime(2023, 6, 1, 7, 30), datetime(2023, 6, 1, tzinfo=timezone(timedelta(hours=-5)))],
    )
    def test_written_edge_values_without_columns(self, start):
        """Block powers of -0.0, the least subnormal and 1e308, a day whose
        peak is 0.0, and temperatures at the ends of their range."""
        days = ProfileDays(
            block_of_step=[0, 1, 2, 3, 1, 0],
            shape=[0.0, 0.25, 1.0, 5e-324, 0.5, 1.0],
            day_temp=[-0.0, 25.0, -40.0, 80.0, 1.2345678901234567, 0.1],
            powers=[[-0.0, 5e-324, 1e308, 0.0], [1e308, -0.0, 5e-324, 0.0], [0.0] * 4],
            peaks=[0.0, 1e308, 5e-324],
        )
        series = TimeSeries.from_days(start, 14400.0, days, panel_rating_w=1e308)
        assert written_bytes(series) == written_bytes(series, reference_write_profile_csv)

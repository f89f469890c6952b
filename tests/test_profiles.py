"""Synthetic profiles, CSV ingest, and trace stress statistics."""

import math
import operator
import random
import re
from datetime import datetime, timedelta
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_writers import reference_read_trace_csv, reference_write_trace_csv
from vrlasim.profiles import (
    ARCHETYPES,
    CLEAR_FACTOR,
    INFREQUENT_USE,
    LOW_USE,
    MIN_DT_S,
    STORM_FACTOR,
    STRESS_LOW_SOC,
    ProfileError,
    StressAccumulator,
    TimeSeries,
    TraceRecord,
    UseArchetype,
    _load_blocks,
    ambient_temperature,
    generate_archetype,
    ingest_csv,
    read_trace_csv,
    solar_power,
    stress_factors,
    write_profile_csv,
    write_trace_csv,
)

START = datetime(2023, 1, 1)


class TestSolarAndTemperature:
    def test_solar_dark_hours(self):
        for h in (0.0, 3.0, 5.99, 18.0, 23.75):
            assert solar_power(h, 50.0) == 0.0

    def test_solar_noon_peak(self):
        assert solar_power(12.0, 50.0) == pytest.approx(50.0, rel=1e-12)

    def test_solar_symmetry(self):
        assert solar_power(9.0, 50.0) == pytest.approx(solar_power(15.0, 50.0), rel=1e-9)

    def test_temperature_band(self):
        temps = [ambient_temperature(h / 4.0) for h in range(96)]
        assert min(temps) == pytest.approx(22.0, abs=1e-9)
        assert max(temps) == pytest.approx(32.0, abs=1e-9)
        assert ambient_temperature(15.0) == pytest.approx(32.0, abs=1e-12)


class TestArchetypeGeneration:
    def test_deterministic_for_seed(self):
        a = generate_archetype(LOW_USE, 30, seed=7)
        b = generate_archetype(LOW_USE, 30, seed=7)
        assert a.load_w == b.load_w
        assert a.solar_w == b.solar_w
        assert a.temp_c == b.temp_c

    def test_seed_changes_output(self):
        a = generate_archetype(LOW_USE, 30, seed=7)
        b = generate_archetype(LOW_USE, 30, seed=8)
        assert a.load_w != b.load_w

    def _daily_energies(self, series):
        steps = int(round(86400.0 / series.dt_s))
        dt_h = series.dt_s / 3600.0
        days = len(series) // steps
        return [
            sum(series.load_w[d * steps : (d + 1) * steps]) * dt_h
            for d in range(days)
        ]

    def test_step_size_does_not_move_daily_energy(self):
        # day-level draws are independent of the grid resolution
        coarse = generate_archetype(LOW_USE, 20, seed=3, dt_s=900.0)
        fine = generate_archetype(LOW_USE, 20, seed=3, dt_s=450.0)
        for e_c, e_f in zip(self._daily_energies(coarse), self._daily_energies(fine)):
            assert e_f == pytest.approx(e_c, rel=1e-9)

    def test_active_day_energy_band(self):
        series = generate_archetype(LOW_USE, 60, seed=5)
        energies = self._daily_energies(series)
        for e in energies:
            assert 0.9 * 40.0 - 1e-9 <= e <= 1.1 * 40.0 + 1e-9
        assert all(e > 0.0 for e in energies)

    def test_infrequent_has_idle_runs(self):
        series = generate_archetype(INFREQUENT_USE, 40, seed=5)
        energies = self._daily_energies(series)
        longest = run = 0
        for e in energies:
            run = run + 1 if e == 0.0 else 0
            longest = max(longest, run)
        assert longest >= INFREQUENT_USE.nonuse_run_days

    def test_solar_covers_load_on_average(self):
        for arch in ARCHETYPES.values():
            series = generate_archetype(arch, 90, seed=11)
            assert sum(series.samples("solar_w")) > sum(series.samples("load_w"))

    def test_weather_caps_solar(self):
        series = generate_archetype(LOW_USE, 90, seed=2)
        assert max(series.solar_w) <= 50.0 * CLEAR_FACTOR[1] + 1e-9
        assert max(series.solar_w) > 0.0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ProfileError):
            generate_archetype(LOW_USE, 0, seed=1)
        with pytest.raises(ProfileError):
            generate_archetype(LOW_USE, 5, seed=1, dt_s=7.0)
        with pytest.raises(ProfileError):
            UseArchetype("bad", 40.0, evening_fraction=0.95)
        with pytest.raises(ProfileError):
            UseArchetype("bad", -1.0)

    @pytest.mark.parametrize("rating", [0.0, -0.0, -50.0, math.nan, math.inf])
    def test_panel_rating_must_be_positive_and_finite(self, rating):
        with pytest.raises(ProfileError, match="panel_rating_w must be positive and finite"):
            generate_archetype(LOW_USE, 2, seed=1, panel_rating_w=rating)

    @pytest.mark.parametrize("days", [0, -3, 2.5, 3.0, True, "3", None])
    def test_days_must_be_a_positive_int(self, days):
        message = f"^days must be a positive integer: {re.escape(repr(days))}$"
        with pytest.raises(ProfileError, match=message):
            generate_archetype(LOW_USE, days, seed=1)

    def test_int_rating_and_energy_give_the_float_profile(self):
        """An int panel rating or daily energy, as YAML reads `60` or `40`,
        gives the same days as the float: its products are float products."""
        ints = generate_archetype(UseArchetype("i", 40), 30, seed=9, panel_rating_w=60)
        floats = generate_archetype(UseArchetype("f", 40.0), 30, seed=9, panel_rating_w=60.0)
        assert ints._days == floats._days
        assert ints.solar_w == floats.solar_w and ints.load_w == floats.load_w
        assert {type(v) for v in [*ints._days.peaks, *ints.solar_w, *ints.load_w]} == {float}

    @pytest.mark.parametrize("bounds", [(0.9, 1.1), STORM_FACTOR, CLEAR_FACTOR])
    @pytest.mark.parametrize("seed", [0, 1, 42, 1234, 2**32 - 1])
    def test_uniform_is_the_written_out_draw(self, bounds, seed):
        """The generator draws its factors as lo + (hi - lo) * random(),
        which is random.uniform's own expression; if a Python changes
        uniform, this names the cause before the profile digests move."""
        lo, hi = bounds
        rng, raw = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert rng.uniform(lo, hi) == lo + (hi - lo) * raw.random()

    def test_a_block_whose_share_rounds_below_zero_is_dropped(self):
        """At evening_fraction 0.9, the daytime share 1 - 0.9 - 0.1 is
        -2.8e-17, so the day has a predawn and an evening block only."""
        assert 1.0 - 0.9 - 0.1 == pytest.approx(-2.8e-17, rel=0.01)
        assert _load_blocks(0.9) == [(5.0, 6.0, 0.1), (18.0, 23.0, 0.9)]
        series = generate_archetype(UseArchetype("late", 40.0, evening_fraction=0.9), 3, seed=2)
        days = series._days
        assert sorted(set(days.block_of_step)) == [0, 1, 2]
        daytime = [k for k, b in enumerate(days.block_of_step) if 9 * 4 <= k < 17 * 4]
        assert all(days.block_of_step[k] == 2 for k in daytime)  # no block
        for e_day, powers in zip(self._daily_energies(series), days.powers):
            assert powers[2] == 0.0
            assert powers[0] * 1.0 + powers[1] * 5.0 == pytest.approx(e_day)


class TestTimeSeriesValidation:
    def test_length_mismatch(self):
        with pytest.raises(ProfileError):
            TimeSeries(START, 900.0, [1.0, 2.0], [0.0], [25.0, 25.0])

    def test_empty(self):
        with pytest.raises(ProfileError):
            TimeSeries(START, 900.0, [], [], [])

    def test_negative_load_names_sample(self):
        with pytest.raises(ProfileError, match="2"):
            TimeSeries(START, 900.0, [0.0, 0.0, -1.0], [0.0] * 3, [25.0] * 3)

    def test_nan_load_names_column_and_sample(self):
        with pytest.raises(ProfileError, match="load_w sample 1"):
            TimeSeries(START, 900.0, [0.0, math.nan], [0.0] * 2, [25.0] * 2)

    def test_infinite_load_names_column_and_sample(self):
        with pytest.raises(ProfileError, match="load_w sample 1"):
            TimeSeries(START, 900.0, [0.0, math.inf], [0.0] * 2, [25.0] * 2)

    def test_nan_solar_names_column_and_sample(self):
        with pytest.raises(ProfileError, match="solar_w sample 1"):
            TimeSeries(START, 900.0, [0.0] * 2, [0.0, math.nan], [25.0] * 2)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_temperature_names_column_and_sample(self, bad):
        with pytest.raises(ProfileError, match="temp_c sample 2"):
            TimeSeries(START, 900.0, [0.0] * 3, [0.0] * 3, [25.0, 25.0, bad])

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_nan_temperature_message(self, k):
        temps = [25.0] * 5
        temps[k] = math.nan
        with pytest.raises(ProfileError, match=f"^temp_c sample {k} is not finite: nan$"):
            TimeSeries(START, 900.0, [0.0] * 5, [0.0] * 5, temps)

    def test_finite_temperatures_whose_sum_overflows_reach_the_range_check(self):
        # the finite-sum pass fails, the search finds no non-finite sample
        with pytest.raises(
            ProfileError, match=r"^temp_c sample 0 outside \[-40.0, 80.0\] degC: 1e\+308$"
        ):
            TimeSeries(START, 900.0, [0.0] * 3, [0.0] * 3, [1e308] * 3)

    @pytest.mark.parametrize("bad", [298.15, -40.01])
    def test_implausible_temperature_names_column_sample_and_range(self, bad):
        with pytest.raises(ProfileError, match=r"temp_c sample 2 outside \[-40.0, 80.0\]"):
            TimeSeries(START, 900.0, [0.0] * 4, [0.0] * 4, [80.0, -40.0, bad, 25.0])

    def test_temperature_range_is_inclusive(self):
        TimeSeries(START, 900.0, [0.0] * 2, [0.0] * 2, [-40.0, 80.0])

    @pytest.mark.parametrize("dt_s", [math.nan, math.inf, 0.0, -900.0])
    def test_dt_must_be_positive_and_finite(self, dt_s):
        with pytest.raises(ProfileError, match="dt_s must be positive and finite"):
            TimeSeries(START, dt_s, [0.0] * 2, [0.0] * 2, [25.0] * 2)

    def test_solar_above_rating(self):
        with pytest.raises(ProfileError):
            TimeSeries(
                START, 900.0, [0.0], [60.0], [25.0], panel_rating_w=50.0
            )

    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["load_w", "solar_w"])
    def test_non_finite_power_names_column_and_sample(self, column, bad, at):
        powers = {"load_w": [1.0] * 5, "solar_w": [1.0] * 5}
        powers[column][at] = bad
        with pytest.raises(ProfileError, match=f"{column} sample {at} "):
            TimeSeries(START, 900.0, powers["load_w"], powers["solar_w"], [25.0] * 5)

    def test_power_bounds_are_inclusive(self):
        top = 50.0 + 1e-9
        TimeSeries(START, 900.0, [0.0, -0.0, 1.0], [0.0, -0.0, top], [25.0] * 3)

    def test_solar_one_ulp_above_the_tolerance_names_sample(self):
        above = math.nextafter(50.0 + 1e-9, math.inf)
        with pytest.raises(ProfileError, match="solar_w sample 1 "):
            TimeSeries(START, 900.0, [0.0] * 3, [0.0, above, 0.0], [25.0] * 3)

    def test_finite_powers_whose_sum_overflows_accepted(self):
        big = [1e308, 1e308]
        TimeSeries(START, 900.0, big, big, [25.0] * 2, panel_rating_w=1e308)

    def test_durations(self):
        series = generate_archetype(LOW_USE, 3, seed=1)
        assert len(series) == 3 * 96
        assert series.duration_days() == pytest.approx(3.0, rel=1e-12)


class TestProfileCsv:
    def test_round_trip_identity(self, tmp_path):
        series = generate_archetype(LOW_USE, 4, seed=9)
        path = str(tmp_path / "profile.csv")
        write_profile_csv(series, path)
        back = ingest_csv(path, dt_s=900.0)
        assert back.load_w == series.load_w
        assert back.solar_w == series.solar_w
        assert back.temp_c == series.temp_c
        assert back.start == series.start
        assert back.gap_report.filled_slots == 0

    def test_missing_sample_hold_filled(self, tmp_path):
        series = generate_archetype(LOW_USE, 2, seed=9)
        path = str(tmp_path / "gappy.csv")
        write_profile_csv(series, path)
        lines = open(path).read().splitlines()
        victim = 40
        del lines[victim]
        open(path, "w").write("\n".join(lines) + "\n")
        back = ingest_csv(path, dt_s=900.0)
        assert back.gap_report.filled_slots == 1
        assert back.gap_report.longest_fill_run == 1
        assert len(back) == len(series)
        # hold fill repeats the previous sample
        assert back.load_w[victim - 1] == series.load_w[victim - 2]

    def test_non_monotone_rejected(self, tmp_path):
        path = str(tmp_path / "swap.csv")
        rows = [
            "timestamp,load_w,solar_w,temp_c",
            "2023-01-01T00:00:00,1.0,0.0,25.0",
            "2023-01-01T00:30:00,1.0,0.0,25.0",
            "2023-01-01T00:15:00,1.0,0.0,25.0",
        ]
        open(path, "w").write("\n".join(rows) + "\n")
        with pytest.raises(ProfileError, match="line 4"):
            ingest_csv(path)

    def test_excessive_fill_rejected(self, tmp_path):
        path = str(tmp_path / "sparse.csv")
        rows = ["timestamp,load_w,solar_w,temp_c"]
        t = START
        for _ in range(10):
            rows.append(f"{t.isoformat()},1.0,0.0,25.0")
            t += timedelta(hours=1)
        open(path, "w").write("\n".join(rows) + "\n")
        with pytest.raises(ProfileError, match="hold-filling"):
            ingest_csv(path, dt_s=900.0)

    def test_sparse_log_rejected_before_the_grid_walk(self, tmp_path):
        """96 rows on a 1 s grid leave at least 86,304 of 86,400 slots to
        fill, which is known before any slot is walked."""
        path = str(tmp_path / "day.csv")
        write_profile_csv(generate_archetype(LOW_USE, 1, seed=9), path)
        slots = []

        def grid_time(*args, **kwargs):
            slots.append(kwargs)
            return timedelta(*args, **kwargs)

        with mock.patch("vrlasim.profiles.timedelta", grid_time):
            with pytest.raises(ProfileError) as err:
                ingest_csv(path, dt_s=1.0)
        assert str(err.value) == (
            f"{path}: at least 100% of slots would need hold-filling (limit 20%)"
        )
        assert slots == []

    def test_clumped_log_rejected_after_the_grid_walk(self, tmp_path):
        """33 rows over 41 slots pass the bound, but 30 of them share the
        first slot, so the walk finds most slots filled."""
        path = str(tmp_path / "clumped.csv")
        times = [START + timedelta(seconds=10 * i) for i in range(30)]
        times += [START + timedelta(hours=h) for h in (4.0, 8.0, 10.0)]
        rows = ["timestamp,load_w,solar_w,temp_c"]
        rows += [f"{t.isoformat()},1.0,0.0,25.0" for t in times]
        open(path, "w").write("\n".join(rows) + "\n")
        with pytest.raises(ProfileError) as err:
            ingest_csv(path, dt_s=900.0)
        assert str(err.value) == f"{path}: 88% of slots required hold-filling (limit 20%)"

    def test_missing_file(self):
        with pytest.raises(ProfileError):
            ingest_csv("/nonexistent/profile.csv")

    def test_missing_column(self, tmp_path):
        path = str(tmp_path / "short.csv")
        open(path, "w").write(
            "timestamp,load_w,temp_c\n2023-01-01T00:00:00,1.0,25.0\n"
        )
        with pytest.raises(ProfileError, match="solar_w"):
            ingest_csv(path)

    def test_bad_value_names_line(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        rows = [
            "timestamp,load_w,solar_w,temp_c",
            "2023-01-01T00:00:00,1.0,0.0,25.0",
            "2023-01-01T00:15:00,oops,0.0,25.0",
        ]
        open(path, "w").write("\n".join(rows) + "\n")
        with pytest.raises(ProfileError, match="line 3"):
            ingest_csv(path)

    def test_short_row_names_line(self, tmp_path):
        path = str(tmp_path / "short_row.csv")
        rows = [
            "timestamp,load_w,solar_w,temp_c",
            "2023-01-01T00:00:00,1.0,0.0,25.0",
            "2023-01-01T00:15:00,1.0,0.0,25.0",
            "2023-01-01T00:30:00,1.0",
        ]
        open(path, "w").write("\n".join(rows) + "\n")
        with pytest.raises(ProfileError, match="line 4: 2 fields, header has 4"):
            ingest_csv(path)

    def test_naive_and_aware_timestamps_name_line(self, tmp_path):
        path = str(tmp_path / "zones.csv")
        rows = [
            "timestamp,load_w,solar_w,temp_c",
            "2023-01-01T00:00:00,1.0,0.0,25.0",
            "2023-01-01T00:15:00+00:00,1.0,0.0,25.0",
        ]
        open(path, "w").write("\n".join(rows) + "\n")
        with pytest.raises(ProfileError, match="line 3"):
            ingest_csv(path)

    def test_line_number_counts_blank_lines(self, tmp_path):
        path = str(tmp_path / "blank_then_bad.csv")
        rows = [
            "timestamp,load_w,solar_w,temp_c",
            "2023-01-01T00:00:00,1.0,0.0,25.0",
            "",
            "2023-01-01T00:15:00,oops,0.0,25.0",
        ]
        open(path, "w").write("\n".join(rows) + "\n")
        with pytest.raises(ProfileError, match="line 4: could not convert"):
            ingest_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        series = generate_archetype(LOW_USE, 1, seed=9)
        path = str(tmp_path / "blank.csv")
        write_profile_csv(series, path)
        lines = open(path).read().splitlines()
        open(path, "w").write("\n\n".join(lines) + "\n\n")
        back = ingest_csv(path, dt_s=900.0)
        assert back.load_w == series.load_w
        assert back.gap_report.filled_slots == 0

    def test_columns_found_by_name(self, tmp_path):
        path = str(tmp_path / "reordered.csv")
        rows = [
            "note,temp_c,solar_w,timestamp,load_w",
            "a,24.0,0.0,2023-01-01T00:00:00,5.0",
            ",24.5,1.0,2023-01-01T00:15:00,6.0",
        ]
        open(path, "w").write("\n".join(rows) + "\n")
        back = ingest_csv(path)
        assert back.load_w == [5.0, 6.0]
        assert back.solar_w == [0.0, 1.0]
        assert back.temp_c == [24.0, 24.5]

    def test_repeated_column_uses_the_last(self, tmp_path):
        path = str(tmp_path / "repeated.csv")
        rows = [
            "timestamp,load_w,solar_w,temp_c,load_w",
            "2023-01-01T00:00:00,1.0,0.0,24.0,5.0",
            "2023-01-01T00:15:00,2.0,1.0,24.5,6.0",
        ]
        open(path, "w").write("\n".join(rows) + "\n")
        assert ingest_csv(path).load_w == [5.0, 6.0]

    @pytest.mark.parametrize("dt_s", [math.nan, math.inf, 0.0])
    def test_explicit_dt_must_be_positive_and_finite(self, tmp_path, dt_s):
        series = generate_archetype(LOW_USE, 1, seed=9)
        path = str(tmp_path / "profile.csv")
        write_profile_csv(series, path)
        with pytest.raises(ProfileError, match="dt_s must be positive and finite"):
            ingest_csv(path, dt_s=dt_s)

    @pytest.mark.parametrize("dt_s", [5e-324, 1e-300, math.nextafter(MIN_DT_S, 0.0)])
    def test_explicit_dt_below_the_least_step_rejected(self, tmp_path, dt_s):
        series = generate_archetype(LOW_USE, 1, seed=9)
        path = str(tmp_path / "profile.csv")
        write_profile_csv(series, path)
        with pytest.raises(ProfileError, match=f"^dt_s must be at least 1.0 s: {dt_s}$"):
            ingest_csv(path, dt_s=dt_s)

    def test_explicit_dt_of_the_least_step_accepted(self, tmp_path):
        path = str(tmp_path / "log.csv")
        open(path, "w").write(
            "timestamp,load_w,solar_w,temp_c\n"
            "2023-01-01T00:00:00,1.0,0.0,25.0\n"
            "2023-01-01T00:00:01,2.0,0.0,25.0\n"
        )
        series = ingest_csv(path, dt_s=MIN_DT_S)
        assert series.dt_s == MIN_DT_S and series.load_w == [1.0, 2.0]

    def test_too_few_samples(self, tmp_path):
        path = str(tmp_path / "one.csv")
        open(path, "w").write(
            "timestamp,load_w,solar_w,temp_c\n2023-01-01T00:00:00,1.0,0.0,25.0\n"
        )
        with pytest.raises(ProfileError, match="two samples"):
            ingest_csv(path)


def toy_trace():
    """Three identical full-depth-0.5 cycles on a 20 Ah battery, dt 1 h.

    Each 12 h cycle: a full-charge float step, five hours discharging
    at 2 A down to soc 0.5, five hours recharging at 2 A, one idle
    float hour.
    """
    records = []
    t = 0.0
    for _ in range(3):
        records.append(TraceRecord(t, 0.4, 1.0, 13.5, True, True))
        t += 1.0
        for soc in (0.9, 0.8, 0.7, 0.6, 0.5):
            records.append(TraceRecord(t, -2.0, soc, 12.2, False, False))
            t += 1.0
        for soc in (0.6, 0.7, 0.8, 0.9, 1.0):
            records.append(TraceRecord(t, 2.0, soc, 13.8, False, False))
            t += 1.0
        records.append(TraceRecord(t, 0.0, 1.0, 13.5, False, True))
        t += 1.0
    return records


class MinMaxAccumulator(StressAccumulator):
    """StressAccumulator.add written with the min and max builtins."""

    def add(self, current_a, soc, full_charge, floating):
        t_h = self.steps * self.dt_h
        self.steps += 1
        if current_a >= 0.0:
            self.charge_ah += current_a * self.dt_h
        else:
            drawn = -current_a
            self.discharge_ah += drawn * self.dt_h
            self.max_discharge_a = max(self.max_discharge_a, drawn)
        if soc < STRESS_LOW_SOC:
            self.low_soc_h += self.dt_h
        if floating:
            self.float_h += self.dt_h
        if self.min_soc_since_full is not None:
            self.min_soc_since_full = min(self.min_soc_since_full, soc)
        if full_charge:
            if self.min_soc_since_full is not None:
                depth = max(0.0, 1.0 - self.min_soc_since_full)
                idx = min(int(depth * self.N_DEPTH_BINS), self.N_DEPTH_BINS - 1)
                self.depth_bins[idx] += 1
            self.full_charge_times.append(t_h)
            self.min_soc_since_full = soc


class TestStressFactors:
    def test_toy_trace_oracle(self):
        sf = stress_factors(toy_trace(), capacity_ah=20.0, dt_h=1.0)
        assert sf.duration_days == pytest.approx(1.5, rel=1e-12)
        assert sf.discharge_ah == pytest.approx(30.0, rel=1e-12)
        assert sf.charge_ah == pytest.approx(31.2, rel=1e-12)
        assert sf.charge_factor == pytest.approx(1.04, rel=1e-12)
        assert sf.full_equivalent_cycles == pytest.approx(1.5, rel=1e-12)
        assert sf.highest_discharge_rate_a == 2.0
        assert sf.time_at_low_soc_h == 0.0  # soc 0.5 is not strictly below
        assert sf.n_full_charges == 3
        assert sf.time_between_full_mean_h == pytest.approx(12.0, rel=1e-12)
        assert sf.time_between_full_max_h == pytest.approx(12.0, rel=1e-12)
        assert sf.full_recharge_day_fraction == 1.0
        assert sf.float_hours_per_day == pytest.approx(4.0, rel=1e-12)

    def test_toy_trace_depth_bins(self):
        sf = stress_factors(toy_trace(), capacity_ah=20.0, dt_h=1.0)
        # the first full charge has no preceding cycle to close
        assert sf.partial_cycle_depths[5] == 2
        assert sum(sf.partial_cycle_depths) == 2

    def test_low_soc_strictly_below(self):
        records = [
            TraceRecord(0.0, -1.0, 0.5, 12.0, False, False),
            TraceRecord(1.0, -1.0, 0.49, 12.0, False, False),
        ]
        sf = stress_factors(records, 20.0, 1.0)
        assert sf.time_at_low_soc_h == 1.0

    def test_no_discharge(self):
        records = [TraceRecord(float(i), 0.5, 0.9, 13.0, False, False) for i in range(4)]
        sf = stress_factors(records, 20.0, 1.0)
        assert sf.charge_factor is None
        assert sf.full_equivalent_cycles == 0.0
        assert sf.time_between_full_mean_h is None
        assert sf.time_between_full_max_h is None

    @pytest.mark.parametrize("value", [0.0, -20.0, math.nan, math.inf])
    @pytest.mark.parametrize("key", ["capacity_ah", "dt_h"])
    def test_capacity_and_step_must_be_positive_and_finite(self, key, value):
        args = {"capacity_ah": 20.0, "dt_h": 1.0, key: value}
        with pytest.raises(ProfileError, match=f"^{key} must be positive and finite: {value!r}$"):
            stress_factors(toy_trace(), **args)

    def test_empty_trace_rejected(self):
        with pytest.raises(ProfileError, match="empty"):
            stress_factors([], 20.0, 1.0)

    def test_accumulator_matches_wrapper(self):
        acc = StressAccumulator(20.0, 1.0)
        for r in toy_trace():
            acc.add(r.current_a, r.soc, r.full_charge, r.floating)
        assert acc.result() == stress_factors(toy_trace(), 20.0, 1.0)

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, -0.0, -1.0, math.nan]), st.floats(-50.0, 50.0)),
                st.one_of(
                    st.sampled_from([0.0, -0.0, 0.5, 0.9, 1.0, math.nan]), st.floats(-1.0, 2.0)
                ),
                st.booleans(),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_add_matches_min_max_reference(self, steps):
        """The accumulator's conditionals choose as min and max do, on ties,
        signed zeros and nan included."""
        acc = StressAccumulator(20.0, 0.25)
        ref = MinMaxAccumulator(20.0, 0.25)
        for step in steps:
            acc.add(*step)
            ref.add(*step)
        assert repr(acc.result()) == repr(ref.result())

    def test_mean_gap_between_full_charges_sums_left_to_right(self):
        """The mean of the gaps between full charges sums them left to
        right, so that it has the same bits on every Python version:
        Python 3.12's builtin sum compensates, and on these gaps gives the
        correctly rounded sum, which differs from the left fold in the last
        bit."""
        dt_h = 96 / 3600
        n = 4664
        fulls = {517, 1101, 2090, 4663}
        acc = StressAccumulator(20.0, dt_h)
        for k in range(n):
            acc.add(0.0, 0.9, k in fulls, False)
        times = [k * dt_h for k in sorted(fulls)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        left_fold = reduce(operator.add, gaps)
        assert left_fold != math.fsum(gaps)
        assert acc.result().time_between_full_mean_h == left_fold / 3


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        records = toy_trace()
        write_trace_csv(path, records, START)
        back = list(read_trace_csv(path))
        assert back == records

    def test_missing_file(self):
        with pytest.raises(ProfileError):
            list(read_trace_csv("/nonexistent/trace.csv"))

    def test_t_h_relative_to_first(self, tmp_path):
        path = str(tmp_path / "late.csv")
        records = [
            TraceRecord(5.0, 1.0, 0.8, 13.0, False, False),
            TraceRecord(6.0, 1.0, 0.81, 13.0, False, False),
        ]
        write_trace_csv(path, records, START)
        back = list(read_trace_csv(path))
        assert back[0].t_h == 0.0
        assert back[1].t_h == pytest.approx(1.0, rel=1e-12)

    def test_short_row_names_line(self, tmp_path):
        path = str(tmp_path / "short.csv")
        write_trace_csv(path, toy_trace()[:3], START)
        with open(path, "a") as fh:
            fh.write("2023-01-01T03:00:00,1.0,0.9\n")
        with pytest.raises(ProfileError, match="line 5: 3 fields, header has 6"):
            list(read_trace_csv(path))

    def test_line_number_counts_blank_lines(self, tmp_path):
        path = tmp_path / "blank_then_bad.csv"
        path.write_text(
            "timestamp,current_a,soc,voltage,full_charge,floating\n"
            "2023-01-01T00:00:00,1.0,0.9,13.0,0,0\n"
            "\n"
            "\n"
            "2023-01-01T00:15:00,1.0,high,13.0,0,0\n"
        )
        with pytest.raises(ProfileError, match="line 5: could not convert"):
            list(read_trace_csv(str(path)))

    def test_naive_and_aware_timestamps_name_line(self, tmp_path):
        path = tmp_path / "zones.csv"
        path.write_text(
            "timestamp,current_a,soc,voltage,full_charge,floating\n"
            "2023-01-01T00:00:00,1.0,0.9,13.0,0,0\n"
            "2023-01-01T00:15:00+00:00,1.0,0.91,13.0,0,0\n"
        )
        with pytest.raises(ProfileError, match="line 3"):
            list(read_trace_csv(str(path)))

    @pytest.mark.parametrize(
        "times, line, message",
        [
            (("00:00", "00:15", "00:30", "01:00"), 5, "not the trace's interval"),
            (("00:00", "00:15", "04:30", "00:45"), 4, "not the trace's interval"),
            (("00:00", "00:15", "00:45", "00:30"), 4, "not the trace's interval"),
            (("00:00", "00:15", "00:15", "00:30"), 4, "not strictly increasing"),
            (("00:00", "00:00", "00:15"), 3, "not strictly increasing"),
            (("00:15", "00:00", "00:15"), 3, "not strictly increasing"),
        ],
        ids=["gap", "jump_back", "reordered", "repeated", "repeated_first", "backwards"],
    )
    def test_uneven_rows_name_line(self, tmp_path, times, line, message):
        path = tmp_path / "uneven.csv"
        path.write_text(
            "timestamp,current_a,soc,voltage,full_charge,floating\n"
            + "".join(f"2023-01-01T{t}:00,1.0,0.9,13.0,0,0\n" for t in times)
        )
        with pytest.raises(ProfileError, match=f"line {line}: .*{message}"):
            list(read_trace_csv(str(path)))

    @pytest.mark.parametrize("dt_s", [96.0, 337.5, 900.0, 86400.0 / 7])
    def test_every_written_step_reads_back(self, tmp_path, dt_s):
        """At 86400 s / 7 the writer's microsecond rounding makes the
        intervals differ by one microsecond; that is not a gap."""
        dt_h = dt_s / 3600.0
        records = [TraceRecord(i * dt_h, 0.5, 0.9, 13.0, False, False) for i in range(3000)]
        path = str(tmp_path / "trace.csv")
        write_trace_csv(path, records, START)
        back = list(read_trace_csv(path))
        assert len(back) == len(records)
        assert back[-1].t_h == pytest.approx(records[-1].t_h, rel=1e-12)

    def test_grid_past_the_end_of_the_calendar_matches_reference(self, tmp_path):
        """A 900 s grid that ends at its last stamp before datetime.max, then
        the last row again: the reader's grid stamps run out, and the row is
        parsed and checked as the reference does."""
        start = datetime(9999, 12, 30, 10, 15, 0, 7)
        step = timedelta(seconds=900)
        n = (datetime.max - start) // step + 1
        assert timedelta(0) <= datetime.max - (start + (n - 1) * step) < step
        records = [TraceRecord(k * 0.25, -1.5, 0.75, 12.5, False, k % 3 == 0) for k in range(n)]
        path = tmp_path / "trace.csv"
        reference_write_trace_csv(str(path), records, start)
        with open(path, newline="") as fh:
            lines = fh.readlines()
        with open(path, "w", newline="") as fh:
            fh.writelines(lines + lines[-1:])

        def outcome(read):
            out = []
            try:
                out.extend(map(repr, read(str(path))))
            except ProfileError as exc:
                out.append(str(exc))
            return out

        got = outcome(read_trace_csv)
        assert got == outcome(reference_read_trace_csv)
        assert got[:-1] == list(map(repr, records))
        assert got[-1] == f"{path}: line {n + 2}: timestamps not strictly increasing"

"""Synthetic profiles, CSV ingest, and trace stress statistics."""

import math
from datetime import datetime, timedelta

import pytest

from vrlasim.profiles import (
    ARCHETYPES,
    CLEAR_FACTOR,
    INFREQUENT_USE,
    LOW_USE,
    ProfileError,
    StressAccumulator,
    TimeSeries,
    TraceRecord,
    UseArchetype,
    aggregate_fec,
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
            assert series.mean_daily_solar_wh() > series.mean_daily_load_wh()

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

    def test_solar_above_rating(self):
        with pytest.raises(ProfileError):
            TimeSeries(
                START, 900.0, [0.0], [60.0], [25.0], panel_rating_w=50.0
            )

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

    def test_too_few_samples(self, tmp_path):
        path = str(tmp_path / "one.csv")
        open(path, "w").write(
            "timestamp,load_w,solar_w,temp_c\n2023-01-01T00:00:00,1.0,0.0,25.0\n"
        )
        with pytest.raises(ProfileError, match="two samples"):
            ingest_csv(path)

    def test_column_map(self, tmp_path):
        path = str(tmp_path / "renamed.csv")
        rows = [
            "time,consumption,pv,ambient",
            "2023-01-01T00:00:00,5.0,0.0,24.0",
            "2023-01-01T00:15:00,6.0,1.0,24.5",
        ]
        open(path, "w").write("\n".join(rows) + "\n")
        back = ingest_csv(
            path,
            column_map={
                "timestamp": "time",
                "load_w": "consumption",
                "solar_w": "pv",
                "temp_c": "ambient",
            },
        )
        assert back.load_w == [5.0, 6.0]
        assert back.dt_s == 900.0


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
        assert sf.partial_cycle_count() == 2

    def test_aggregate_fec_matches(self):
        assert aggregate_fec(toy_trace(), 20.0, 1.0) == pytest.approx(
            1.5, rel=1e-12
        )

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

    def test_empty_trace_rejected(self):
        with pytest.raises(ProfileError, match="empty"):
            stress_factors([], 20.0, 1.0)

    def test_accumulator_matches_wrapper(self):
        acc = StressAccumulator(20.0, 1.0)
        for r in toy_trace():
            acc.add(r.current_a, r.soc, r.full_charge, r.floating)
        assert acc.result() == stress_factors(toy_trace(), 20.0, 1.0)


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

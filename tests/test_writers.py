"""Every CSV writer against its csv.writer reference
(tests/reference_writers.py), byte for byte, and the trace record type."""

import dataclasses
import math
import os
import pickle
import tempfile
from datetime import datetime, timedelta, timezone

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import constant_profile
from reference_writers import (
    reference_write_overlay_csv,
    reference_write_profile_csv,
    reference_write_soc_hist_csv,
    reference_write_trace_csv,
    reference_write_trajectory_csv,
    reference_write_voltage_hist_csv,
)
from vrlasim.cli import write_overlay_csv, write_result_files
from vrlasim.engine import N_SOC_BINS, N_VOLTAGE_BINS, DayRecord, Scenario, run_scenario
from vrlasim.profiles import TimeSeries, TraceRecord, write_profile_csv, write_trace_csv

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2, 1.2345678901234567]

# every float, nan and the infinities included, with the edges drawn often
any_float = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
# enough room before and after the start for any drawn hour offset
hours = st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(0.0, 1e5))
flags = st.one_of(st.booleans(), st.integers(-3, 3))
offsets = st.timedeltas(min_value=timedelta(hours=-23), max_value=timedelta(hours=23))
starts = st.datetimes(
    min_value=datetime(1990, 1, 1),
    max_value=datetime(2100, 1, 1),
    timezones=st.one_of(st.none(), st.just(timezone.utc), st.builds(timezone, offsets)),
)


def written_bytes(write, *args):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "out.csv")
        write(*args, path)
        with open(path, "rb") as fh:
            return fh.read()


def trace_bytes(write, records, start):
    # the records go in as a generator, which each writer consumes once
    return written_bytes(lambda path: write(path, (r for r in records), start))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(TraceRecord, hours, any_float, any_float, any_float, flags, flags),
        max_size=20,
    ),
    starts,
)
def test_trace_writer_matches_reference(records, start):
    assert trace_bytes(write_trace_csv, records, start) == trace_bytes(
        reference_write_trace_csv, records, start
    )


@st.composite
def profiles(draw):
    n = draw(st.integers(1, 20))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    power = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e308]), st.floats(0.0, 1e308))
    return TimeSeries(
        start=draw(starts),
        dt_s=draw(st.sampled_from([0.5, 96.0, 337.5, 900.0])),
        load_w=column(power),
        solar_w=column(power),
        temp_c=column(st.one_of(st.sampled_from([-0.0, -40.0, 80.0]), st.floats(-40.0, 80.0))),
        panel_rating_w=1e308,
    )


@settings(max_examples=200, deadline=None)
@given(profiles())
def test_profile_writer_matches_reference(series):
    assert written_bytes(lambda path: write_profile_csv(series, path)) == written_bytes(
        lambda path: reference_write_profile_csv(series, path)
    )


def test_profile_writer_matches_reference_on_a_long_series():
    """Many steps of timedelta arithmetic: the stamps of 35 days at 96 s
    still match the reference's t = t + step."""
    n = 35 * 900
    series = TimeSeries(
        start=datetime(2023, 1, 1, 0, 0, 0, 123456),
        dt_s=96.0,
        load_w=[math.pi] * n,
        solar_w=[0.0] * n,
        temp_c=[25.0] * n,
    )
    assert written_bytes(lambda path: write_profile_csv(series, path)) == written_bytes(
        lambda path: reference_write_profile_csv(series, path)
    )


# A real result, whose trajectory and histograms each test replaces.
RESULT = run_scenario(Scenario("result", constant_profile(2), max_years=0.01))

day_records = st.lists(
    st.builds(DayRecord, st.integers(), *[any_float] * 5, st.integers()), max_size=12
)


def hours_per_bin(n):
    return st.lists(any_float, min_size=n, max_size=n)


@settings(max_examples=100, deadline=None)
@given(day_records, hours_per_bin(N_SOC_BINS), hours_per_bin(N_VOLTAGE_BINS))
def test_result_files_match_reference(trajectory, soc_hist_h, voltage_hist_h):
    result = dataclasses.replace(
        RESULT, trajectory=trajectory, soc_hist_h=soc_hist_h, voltage_hist_h=voltage_hist_h
    )
    with tempfile.TemporaryDirectory() as root:
        write_result_files(result, root, datetime(2023, 1, 1))
        for suffix, reference, rows in (
            ("trajectory", reference_write_trajectory_csv, trajectory),
            ("soc_hist", reference_write_soc_hist_csv, soc_hist_h),
            ("voltage_hist", reference_write_voltage_hist_csv, voltage_hist_h),
        ):
            with open(os.path.join(root, f"result_{suffix}.csv"), "rb") as fh:
                expected = written_bytes(lambda path: reference(path, rows))
                assert fh.read() == expected, suffix


@settings(max_examples=200, deadline=None)
@given(day_records, day_records)
def test_overlay_matches_reference(base, alt):
    assert written_bytes(lambda path: write_overlay_csv(path, base, alt)) == written_bytes(
        lambda path: reference_write_overlay_csv(path, base, alt)
    )


class TestTraceRecord:
    RECORD = TraceRecord(1.5, -0.25, 0.75, 12.5, True, False)

    def test_pickles(self):
        assert pickle.loads(pickle.dumps(self.RECORD)) == self.RECORD

    def test_asdict_keeps_the_field_order(self):
        assert list(dataclasses.asdict(self.RECORD).items()) == [
            ("t_h", 1.5),
            ("current_a", -0.25),
            ("soc", 0.75),
            ("voltage", 12.5),
            ("full_charge", True),
            ("floating", False),
        ]

    def test_slotted(self):
        assert not hasattr(self.RECORD, "__dict__")

"""Every CSV writer against its csv.writer reference
(tests/reference_writers.py), byte for byte, the trace reader against its
reference, and the trace record type."""

import dataclasses
import math
import os
import pickle
import tempfile
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from unittest import mock
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import constant_profile
from reference_writers import (
    reference_read_trace_csv,
    reference_write_overlay_csv,
    reference_write_profile_csv,
    reference_write_soc_hist_csv,
    reference_write_trace_csv,
    reference_write_trajectory_csv,
    reference_write_voltage_hist_csv,
)
from vrlasim.cli import write_overlay_csv, write_result_files
from vrlasim.engine import N_SOC_BINS, N_VOLTAGE_BINS, DayRecord, Scenario, run_scenario
from vrlasim.profiles import (
    ProfileError,
    TimeSeries,
    TraceRecord,
    TraceWriter,
    read_trace_csv,
    write_profile_csv,
    write_trace_csv,
)

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


# Grids whose stamps come from the one-day template in both writers
# (dt_h a binary fraction of whole microseconds), and grids on which the
# trace writer stamps each record by timedelta arithmetic.
TEMPLATE_DT_S = [900.0, 1800.0, 3600.0, 450.0]
ARITHMETIC_DT_S = [600.0, 96.0]


@contextmanager
def arithmetic_stamps():
    """The t_h of every record the trace writer stamps by
    ``start + timedelta(hours=t_h)``, not from its template."""
    hours = []

    def counted(*args, **kwargs):
        if "hours" in kwargs:
            hours.append(kwargs["hours"])
        return timedelta(*args, **kwargs)

    with mock.patch("vrlasim.profiles.timedelta", counted):
        yield hours


def grid_records(dt_s, n):
    """n records at k * dt_h, as run_scenario stamps them."""
    dt_h = dt_s / 3600.0
    return [TraceRecord(k * dt_h, -1.5, 0.75, 12.5, k % 5 == 0, k % 3 == 0) for k in range(n)]


@st.composite
def multi_day(draw, grids):
    """(dt_s, n): a grid and a row count spanning one to three days."""
    dt_s = draw(st.sampled_from(grids))
    per_day = math.ceil(86400 / dt_s)
    return dt_s, draw(st.integers(per_day + 1, 3 * per_day))


@settings(max_examples=50, deadline=None)
@given(multi_day(TEMPLATE_DT_S), starts)
def test_trace_writer_template_grids_match_reference(grid, start):
    records = grid_records(*grid)
    with arithmetic_stamps() as hours:
        written = trace_bytes(write_trace_csv, records, start)
    assert written == trace_bytes(reference_write_trace_csv, records, start)
    assert hours == []


@settings(max_examples=50, deadline=None)
@given(multi_day(TEMPLATE_DT_S), starts, st.data())
def test_trace_writer_stamps_only_an_off_grid_record_by_arithmetic(grid, start, data):
    records = grid_records(*grid)
    k = data.draw(st.integers(2, len(records) - 1), label="k")  # not the record setting dt_h
    moved = math.nextafter(records[k].t_h, data.draw(st.sampled_from([math.inf, -math.inf])))
    records[k] = dataclasses.replace(records[k], t_h=moved)
    with arithmetic_stamps() as hours:
        written = trace_bytes(write_trace_csv, records, start)
    assert written == trace_bytes(reference_write_trace_csv, records, start)
    assert hours == [moved]


@settings(max_examples=50, deadline=None)
@given(multi_day(TEMPLATE_DT_S), starts, st.integers(2, 7))
def test_trace_writer_blocks_keep_every_template_stamp(grid, start, block):
    """Written in blocks of 2 to 7 records, the bytes are those of one
    pass, with no record stamped by arithmetic: a block that took one
    template stamp past its end would give every later record the stamp
    of the record after it."""
    records = grid_records(*grid)
    with mock.patch("vrlasim.profiles.TRACE_BLOCK", block), arithmetic_stamps() as hours:
        written = trace_bytes(write_trace_csv, records, start)
    assert written == trace_bytes(reference_write_trace_csv, records, start)
    assert hours == []


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.builds(TraceRecord, hours, any_float, any_float, any_float, flags, flags),
        max_size=20,
    ),
    starts,
    st.integers(2, 5),
)
def test_trace_writer_in_blocks_matches_reference(records, start, block):
    with mock.patch("vrlasim.profiles.TRACE_BLOCK", block):
        written = trace_bytes(write_trace_csv, records, start)
    assert written == trace_bytes(reference_write_trace_csv, records, start)


def test_streamed_run_writes_the_trace_it_would_keep():
    """run_scenario appending to a TraceWriter writes the bytes of
    write_trace_csv on the trace the run keeps, across many blocks."""
    scenario = Scenario("traced", constant_profile(4), max_years=0.01, record_trace=True)
    start = datetime(2023, 6, 1, 7, 30)
    kept = run_scenario(scenario)

    def streamed(path):
        with TraceWriter(path, start) as writer:
            result = run_scenario(scenario, trace=writer)
        assert result.trace is None

    with mock.patch("vrlasim.profiles.TRACE_BLOCK", 97):
        written = written_bytes(streamed)
    assert len(kept.trace) > 3 * 97
    assert written == trace_bytes(reference_write_trace_csv, kept.trace, start)


@settings(max_examples=20, deadline=None)
@given(multi_day(ARITHMETIC_DT_S), starts)
def test_trace_writer_other_grids_take_the_arithmetic(grid, start):
    records = grid_records(*grid)
    with arithmetic_stamps() as hours:
        written = trace_bytes(write_trace_csv, records, start)
    assert written == trace_bytes(reference_write_trace_csv, records, start)
    assert len(hours) == len(records)


def test_trace_writer_template_on_a_traced_run():
    scenario = Scenario("traced", constant_profile(4), max_years=0.01, record_trace=True)
    trace = run_scenario(scenario).trace
    start = datetime(2023, 6, 1, 7, 30, 0, 250, tzinfo=timezone(timedelta(hours=-5)))
    with arithmetic_stamps() as hours:
        written = trace_bytes(write_trace_csv, trace, start)
    assert written == trace_bytes(reference_write_trace_csv, trace, start)
    assert len(trace) > 3 * 96 and hours == []


@settings(max_examples=50, deadline=None)
@given(multi_day(TEMPLATE_DT_S + ARITHMETIC_DT_S), starts)
def test_profile_writer_multi_day_grids_match_reference(grid, start):
    dt_s, n = grid
    series = TimeSeries(start, dt_s, [1.5] * n, [0.0] * n, [25.0] * n)
    assert written_bytes(lambda path: write_profile_csv(series, path)) == written_bytes(
        lambda path: reference_write_profile_csv(series, path)
    )


@pytest.mark.parametrize("dt_s", TEMPLATE_DT_S)
def test_writers_with_a_zoneinfo_start_take_the_arithmetic(dt_s):
    """Across a daylight-saving switch the offset changes, so no one-day
    template holds."""
    start = datetime(2023, 3, 24, 22, 0, 0, 5, tzinfo=ZoneInfo("Europe/Berlin"))
    n = 3 * round(86400 / dt_s)
    records = grid_records(dt_s, n)
    with arithmetic_stamps() as hours:
        written = trace_bytes(write_trace_csv, records, start)
    assert written == trace_bytes(reference_write_trace_csv, records, start)
    assert len(hours) == n
    series = TimeSeries(start, dt_s, [1.5] * n, [0.0] * n, [25.0] * n)
    assert written_bytes(lambda path: write_profile_csv(series, path)) == written_bytes(
        lambda path: reference_write_profile_csv(series, path)
    )


def outcome(write):
    """The bytes a writer left and the error it raised, if any."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "out.csv")
        try:
            write(path)
            error = None
        except OverflowError as exc:
            error = str(exc)
        with open(path, "rb") as fh:
            return fh.read(), error


def test_writers_at_the_end_of_the_calendar_match_reference():
    """Stamps past datetime.max fail at the same row in both forms."""
    start = datetime(9999, 12, 30, 10, 15, 0, 7)
    for n in (100, 200):  # ends before datetime.max, then past it
        records = grid_records(900.0, n)
        results = [
            outcome(lambda path: write(path, iter(records), start))
            for write in (write_trace_csv, reference_write_trace_csv)
        ]
        assert results[0] == results[1]
        series = TimeSeries(start, 900.0, [1.0] * n, [0.0] * n, [25.0] * n)
        results = [
            outcome(lambda path: write(series, path))
            for write in (write_profile_csv, reference_write_profile_csv)
        ]
        assert results[0] == results[1]
        assert (results[0][1] is None) == (n == 100)


def read_outcome(read, path):
    """Every record a reader yields, each field by repr, then its error."""
    out = []
    try:
        for record in read(path):
            out.append(tuple(map(repr, dataclasses.astuple(record))))
    except ProfileError as exc:
        out.append(("ProfileError", str(exc)))
    return out


READ_DT_S = [900.0, 1800.0, 3600.0, 450.0, 600.0, 96.0, 337.5, 86400 / 7]
EDITS = ["none", "delete", "repeat", "swap", "+1us", "+2us", "-1us", "-2us",
         "spaces", "True flags", "blank line", "short row"]


def edit_rows(lines, edit, j):
    """`lines` (header first) with one edit at data row j."""
    i = j + 1
    stamp, *cells = lines[i].split(",")
    if edit == "delete":
        del lines[i]
    elif edit == "repeat":
        lines.insert(i, lines[i])
    elif edit == "swap":
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif edit.endswith("us"):
        moved = datetime.fromisoformat(stamp) + timedelta(microseconds=int(edit[:-2]))
        lines[i] = ",".join([moved.isoformat(), *cells])
    elif edit == "spaces":
        lines[i] = ",".join([f" {stamp} ", *cells])
    elif edit == "True flags":
        lines[i] = ",".join([stamp, *cells[:3], "True", " true"])
    elif edit == "blank line":
        lines.insert(i, "")
    elif edit == "short row":
        lines[i] = ",".join([stamp, *cells[:2]])
    return lines


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(READ_DT_S), starts, st.sampled_from(EDITS), st.data())
def test_trace_reader_matches_reference(dt_s, start, edit, data):
    per_day = math.ceil(86400 / dt_s)
    n = data.draw(st.integers(per_day + 1, per_day + 40), label="n")
    j = data.draw(st.integers(0, n - 2), label="j")
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "trace.csv")
        reference_write_trace_csv(path, grid_records(dt_s, n), start)
        with open(path, newline="") as fh:
            lines = fh.read().split("\r\n")
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join(edit_rows(lines, edit, j)))
        assert read_outcome(read_trace_csv, path) == read_outcome(reference_read_trace_csv, path)


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

"""profiles.ingest_csv against its per-row reference
(tests/reference_profiles.py::reference_ingest_csv): the same columns,
start, step and gap report, or the same ProfileError text.  The block
reader under both CSV readers against csv.reader, row by row."""

import csv
import os
import re
import tempfile
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import undecodable
from reference_profiles import csv_cells, reference_ingest_csv
from vrlasim import profiles
from vrlasim.profiles import ProfileError, _csv_blocks, ingest_csv, read_trace_csv

GOOD_CELLS = ["0.0", "-0.0", "0", "-0", "1.5", "2.25", "25.0", "30.5", "1e-3", " 4.0", "27.125"]
BAD_CELLS = ["x", "", "nan", "-1.0", "95.0", "inf"]

# grid steps of the ingest, None taking the first interval
DT_S = [None, 900.0, 337.5, 86400 / 7]
# spacing of the logged rows: on the grids above, and between them
LOG_STEPS = [timedelta(seconds=900), timedelta(seconds=337.5), timedelta(seconds=86400 / 7)]
offsets = st.builds(timezone, st.timedeltas(timedelta(hours=-14), timedelta(hours=14)))
FAULTS = ["bad cell", "other kind", "same stamp", "step back", "bad stamp"]


@st.composite
def logs(draw):
    """The lines of a logged CSV: rows a log step apart with gaps, several
    rows in one slot, off-grid stamps and, among aware stamps, instants
    written at another fixed offset; in some logs one row has a fault: a
    bad cell, a naive stamp among aware ones (or the reverse), a stamp
    that does not increase, or one that is no timestamp."""
    tz = draw(st.one_of(st.none(), st.just(timezone.utc), offsets))
    t = draw(st.datetimes(datetime(2000, 1, 1), datetime(2030, 1, 1), timezones=st.just(tz)))
    step = draw(st.sampled_from(LOG_STEPS))
    n = draw(st.integers(0, 60))
    fault_at = draw(st.one_of(st.none(), st.none(), st.integers(0, max(n - 1, 0))))
    fault = draw(st.sampled_from(FAULTS))
    lines = ["timestamp,load_w,solar_w,temp_c"]
    for k in range(n):
        stamp = t
        if tz is not None and draw(st.integers(0, 4)) == 0:
            stamp = t.astimezone(draw(offsets))
        row = [stamp.isoformat()] + [draw(st.sampled_from(GOOD_CELLS)) for _ in range(3)]
        if k == fault_at:
            if fault == "bad cell":
                row[draw(st.integers(1, 3))] = draw(st.sampled_from(BAD_CELLS))
            elif fault == "other kind":
                other = t.replace(tzinfo=None) if tz is not None else t.replace(tzinfo=timezone.utc)
                row[0] = other.isoformat()
            elif fault == "same stamp" and k:
                row[0] = lines[-1].split(",")[0]
            elif fault == "step back":
                row[0] = (t - 4 * step).isoformat()
            else:
                row[0] = draw(st.sampled_from(["", "2023-13-01T00:00:00", "noon"]))
        lines.append(",".join(row))
        off_grid = timedelta(microseconds=draw(st.integers(1, 2 * step // timedelta.resolution)))
        t += draw(st.sampled_from([step] * 12 + [2 * step, 3 * step, timedelta(seconds=7), off_grid]))
    return lines


def outcome(ingest, path, dt_s):
    """What an ingest makes of a file: its series' values or its error."""
    try:
        series = ingest(path, dt_s=dt_s)
    except ProfileError as exc:
        return str(exc)
    columns = (series.load_w, series.solar_w, series.temp_c)
    return (
        series.start.isoformat(),
        repr(series.dt_s),
        [list(map(float.hex, column)) for column in columns],  # -0.0 apart from 0.0
        series.gap_report,
        series.panel_rating_w,
    )


@settings(max_examples=400, deadline=None)
@given(logs(), st.sampled_from(DT_S))
def test_ingest_matches_reference(lines, dt_s):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "log.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert outcome(ingest_csv, path, dt_s) == outcome(reference_ingest_csv, path, dt_s)


def test_rows_share_the_float_of_a_repeated_cell(tmp_path):
    """One float per distinct cell string; "-0.0" and "0.0" stay apart."""
    path = tmp_path / "log.csv"
    rows = [f"2023-01-01T{h:02d}:00:00,-0.0,0.0,25.0" for h in range(6)]
    path.write_text("timestamp,load_w,solar_w,temp_c\n" + "\n".join(rows) + "\n")
    series = ingest_csv(str(path))
    assert list(map(str, series.load_w)) == ["-0.0"] * 6
    assert list(map(str, series.solar_w)) == ["0.0"] * 6
    assert all(t is series.temp_c[0] for t in series.temp_c)


def test_ingest_matches_reference_in_small_blocks(small_blocks):
    """The same with a few rows per block, so a fault is often in a later
    block than the first, and a block's first row follows another block."""
    test_ingest_matches_reference()


# cells that split at each ",", and cells that csv.reader reads other ways
PLAIN_CELLS = ["", "x", "1.5", " y "]
CELLS = PLAIN_CELLS + ["a\0b", 'q"t', '"q"', '"a,b"', '""', '"l\nf"', '"c\r\nr"', '"x']
ENDINGS = ["\n", "\r\n", "\r"]
HEADERS = ["a,b,c", "c,a,b,a", '"a",b', "a,b\r", "b,a", "a,c", ""]


@st.composite
def csv_texts(draw):
    """A CSV's text: a header, then mostly rows of the header's width that
    split at each ",", among rows of other widths and cells (no cells: a
    blank line) and lines of any of ',', '"', line ends, NUL and letters.
    Lines mostly end as the file's first does; the last at times does not
    end."""
    header = draw(st.sampled_from(HEADERS))
    width = len(next(csv.reader([header]), []))
    lines = [header]
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.integers(0, 9))
        if kind < 7:
            cells = draw(st.lists(st.sampled_from(PLAIN_CELLS), min_size=width, max_size=width))
        elif kind < 9:
            cells = draw(st.lists(st.sampled_from(CELLS), max_size=5))
        else:
            lines.append(draw(st.text(alphabet=',"\r\n\0ab', max_size=12)))
            continue
        lines.append(",".join(cells))
    ending = draw(st.sampled_from(ENDINGS))
    endings = [
        draw(st.sampled_from(ENDINGS)) if draw(st.integers(0, 9)) == 0 else ending for _ in lines
    ]
    if draw(st.booleans()):
        endings[-1] = ""
    return "".join(map(str.__add__, lines, endings))


def read_all(rows):
    """The (line number, cells) a reader yields, then its error, if any."""
    out = []
    try:
        for lineno, cells in rows:
            out.append((lineno, tuple(cells)))
    except (ProfileError, csv.Error) as exc:
        out.append((type(exc).__name__, str(exc)))
    return out


def block_rows(path, columns):
    for linenos, cells in _csv_blocks(path, columns):
        assert len(linenos) and all(len(column) == len(linenos) for column in cells)
        yield from zip(linenos, zip(*cells))


@settings(max_examples=600, deadline=None)
@given(csv_texts(), st.integers(1, 64))
def test_block_reader_matches_csv_reader(text, block_chars):
    """_csv_blocks yields csv.reader's rows, line numbers and errors at
    any block size, so rows, "\r\n" pairs and quoted cells across lines
    straddle blocks."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "log.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with mock.patch.object(profiles, "CSV_BLOCK_CHARS", block_chars):
            got = read_all(block_rows(path, ("a", "b")))
        assert got == read_all(csv_cells(path, ("a", "b")))


def test_plain_blocks_are_split_where_csv_reader_splits(tmp_path):
    """A log of many plain blocks, then one that is not: every row, in order."""
    path = tmp_path / "log.csv"
    rows = [f"2023-01-01T00:{m:02d}:00,{m}.5,0.0,25.0" for m in range(60)]
    rows[50] = '"' + rows[50].replace(",", '",', 1)  # a quoted stamp
    path.write_text("timestamp,load_w,solar_w,temp_c\r\n" + "\r\n".join(rows) + "\r\n")
    with mock.patch.object(profiles, "CSV_BLOCK_CHARS", 100):
        got = read_all(block_rows(str(path), profiles.PROFILE_COLUMNS))
    assert got == read_all(csv_cells(str(path), profiles.PROFILE_COLUMNS))
    assert [lineno for lineno, _ in got] == list(range(2, 62))


@pytest.mark.parametrize("read", [ingest_csv, lambda path: list(read_trace_csv(path))])
def test_undecodable_file_names_the_path(tmp_path, read):
    path = tmp_path / "log.csv"
    path.write_bytes(undecodable() + b"timestamp,load_w\n")
    with pytest.raises(ProfileError, match=f"^{re.escape(str(path))}: .*codec can't decode"):
        read(str(path))


@pytest.mark.parametrize("read", [ingest_csv, lambda path: list(read_trace_csv(path))])
def test_undecodable_row_names_a_line_before_it(tmp_path, read, small_blocks):
    """Text is decoded some thousands of bytes at a time, so the error names
    a line read before the undecodable one: the last whole line of the
    blocks read before."""
    start = datetime(2023, 1, 1)
    rows = [
        f"{start + timedelta(seconds=k):%Y-%m-%dT%H:%M:%S},1.0,0.5,13.0,1.0,0.5,13.0,0,0"
        for k in range(2000)
    ]
    lines = ["timestamp,load_w,solar_w,temp_c,current_a,soc,voltage,full_charge,floating"]
    lines += rows
    data = "\n".join(lines).encode()
    bad = 1500  # the line number of the row that does not decode
    at = data.index(rows[bad - 2].encode())
    path = tmp_path / "log.csv"
    path.write_bytes(data[:at] + undecodable() + data[at:])
    with pytest.raises(ProfileError) as caught:
        read(str(path))
    message = str(caught.value)
    assert message.startswith(f"{path}: after line ")
    assert 1 < int(message.split("after line ")[1].split(":")[0]) < bad

"""profiles.ingest_csv against its per-row reference
(tests/reference_profiles.py::reference_ingest_csv): the same columns,
start, step and gap report, or the same ProfileError text."""

import os
import tempfile
from datetime import datetime, timedelta, timezone

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_profiles import reference_ingest_csv
from vrlasim.profiles import ProfileError, ingest_csv

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

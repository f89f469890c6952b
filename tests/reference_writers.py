"""The csv.writer forms of the trace and profile writers: the reference
for profiles.write_trace_csv and profiles.write_profile_csv.

These build every row as a tuple and hand it to csv.writer.writerow.
The program's writers format each row into one line themselves; the
tests check that both give the same bytes.
"""

from __future__ import annotations

import csv
from datetime import datetime, timedelta
from typing import Iterable

from vrlasim.profiles import PROFILE_COLUMNS, TRACE_COLUMNS, TimeSeries, TraceRecord


def reference_write_profile_csv(series: TimeSeries, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_COLUMNS)
        t = series.start
        step = timedelta(seconds=series.dt_s)
        for i in range(len(series)):
            writer.writerow(
                (
                    t.isoformat(),
                    repr(series.load_w[i]),
                    repr(series.solar_w[i]),
                    repr(series.temp_c[i]),
                )
            )
            t = t + step


def reference_write_trace_csv(
    path: str, records: Iterable[TraceRecord], start: datetime
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in records:
            ts = start + timedelta(hours=r.t_h)
            writer.writerow(
                (
                    ts.isoformat(),
                    repr(r.current_a),
                    repr(r.soc),
                    repr(r.voltage),
                    int(r.full_charge),
                    int(r.floating),
                )
            )

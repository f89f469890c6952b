"""The csv.writer forms of every CSV writer: the reference for
profiles.write_trace_csv, profiles.write_profile_csv, and the trajectory,
histogram and comparison overlay files the command line writes.  Also
the reference for profiles.read_trace_csv, which parses and checks every
row's timestamp.

These build every row as a tuple and hand it to csv.writer.writerow, and
stamp every row by datetime arithmetic.  The program formats each row
into one line itself, through profiles.write_csv, and stamps and checks
rows on an exact grid from a one-day template; the tests check that both
give the same bytes, records and errors.
"""

from __future__ import annotations

import csv
from datetime import datetime, timedelta
from typing import Iterable, Iterator

from reference_profiles import csv_cells
from vrlasim.engine import SOC_BIN_WIDTH, VOLTAGE_BIN_LOW, VOLTAGE_BIN_WIDTH, DayRecord
from vrlasim.profiles import (
    PROFILE_COLUMNS,
    TRACE_COLUMNS,
    ProfileError,
    TimeSeries,
    TraceRecord,
)


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


def reference_write_trajectory_csv(path: str, trajectory: list[DayRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ("day", "c_corr_ah", "c_deg_ah", "c_total_ah", "soh_pct", "min_soc", "full_charges")
        )
        for row in trajectory:
            writer.writerow(
                (
                    row.day,
                    repr(row.c_corr_ah),
                    repr(row.c_deg_ah),
                    repr(row.c_total_ah),
                    repr(row.soh_pct),
                    repr(row.min_soc),
                    row.full_charges,
                )
            )


def reference_write_soc_hist_csv(path: str, soc_hist_h: list[float]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("soc_bin_low", "soc_bin_high", "hours"))
        for i, hours in enumerate(soc_hist_h):
            writer.writerow(
                (round(i * SOC_BIN_WIDTH, 2), round((i + 1) * SOC_BIN_WIDTH, 2), repr(hours))
            )


def reference_write_voltage_hist_csv(path: str, voltage_hist_h: list[float]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("voltage_bin_low", "voltage_bin_high", "hours"))
        for i, hours in enumerate(voltage_hist_h):
            lo = VOLTAGE_BIN_LOW + i * VOLTAGE_BIN_WIDTH
            writer.writerow((round(lo, 2), round(lo + VOLTAGE_BIN_WIDTH, 2), repr(hours)))


def reference_write_overlay_csv(
    path: str, base: list[DayRecord], alt: list[DayRecord]
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ("day", "base_c_total_ah", "base_soh_pct", "alt_c_total_ah", "alt_soh_pct")
        )
        common = min(len(base), len(alt))
        for b, a in zip(base[:common], alt[:common]):
            writer.writerow(
                (b.day, repr(b.c_total_ah), repr(b.soh_pct), repr(a.c_total_ah), repr(a.soh_pct))
            )


def reference_read_trace_csv(path: str) -> Iterator[TraceRecord]:
    t0: datetime | None = None
    prev: datetime | None = None
    step: timedelta | None = None
    flags = ("1", "True", "true")
    for lineno, (stamp, current_a, soc, voltage, full_charge, floating) in csv_cells(
        path, TRACE_COLUMNS
    ):
        try:
            ts = datetime.fromisoformat(stamp.strip())
            if prev is None:
                t0 = ts
            else:
                interval = ts - prev
                if step is None:
                    step = interval
                if interval <= timedelta(0):
                    raise ValueError("timestamps not strictly increasing")
                if abs(interval - step) > timedelta(microseconds=1):
                    raise ValueError(
                        f"timestamp {ts.isoformat()} is {interval} after the "
                        f"previous row, not the trace's interval of {step}"
                    )
            prev = ts
            record = TraceRecord(
                (ts - t0).total_seconds() / 3600.0,
                float(current_a),
                float(soc),
                float(voltage),
                full_charge.strip() in flags,
                floating.strip() in flags,
            )
        except (ValueError, TypeError) as exc:  # TypeError: naive and aware mixed
            raise ProfileError(f"{path}: line {lineno}: {exc}") from exc
        yield record

"""The flat-column form of the archetype generator, the reference for
profiles.generate_archetype, and the per-row form of the CSV ingest, the
reference for profiles.ingest_csv.

This builds every sample of every day into three columns and hands them
to the flat TimeSeries constructor, which checks them sample by sample.
The program holds a generated profile as days (one-day templates with
each day's block powers and solar peak) and builds no column; the tests
check that both give the same samples, lengths, daily means and errors.

reference_ingest_csv keeps a datetime and a tuple of three fresh floats
for every row, and walks the grid by datetime arithmetic.  The program
keeps per row an integer-microsecond offset and its three values, one
float per distinct cell string, and walks the grid in microseconds; the
tests check that both give the same columns, start, gap report and errors.

csv_cells reads a CSV one row at a time through csv.reader.  The program
reads it in blocks (profiles._csv_blocks); the references read their rows
here, so they do not share the reader they check.
"""

from __future__ import annotations

import csv
import math
import operator
import random
from datetime import datetime, timedelta
from typing import Iterator, Sequence

from vrlasim.profiles import (
    CLEAR_FACTOR,
    DAYTIME_WINDOW,
    DEFAULT_DT_S,
    DEFAULT_PANEL_RATING_W,
    EVENING_WINDOW,
    MAX_FILL_FRACTION,
    MIN_DT_S,
    PREDAWN_SHARE,
    PREDAWN_WINDOW,
    PROFILE_COLUMNS,
    SECONDS_PER_DAY,
    STORM_ENTER_P,
    STORM_FACTOR,
    STORM_STAY_P,
    GapReport,
    ProfileError,
    TimeSeries,
    UseArchetype,
    ambient_temperature,
    divides_day,
    solar_power,
)


def csv_cells(
    path: str, columns: Sequence[str]
) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield (line number, cells of `columns`) for each data row of a CSV.

    The header is read once and each column resolved to its index there
    (for a repeated name, the last one, as csv.DictReader does); there
    must be at least two columns.  Blank lines are skipped; line numbers
    are the file's own (csv.reader.line_num), so they count blank lines
    too, and a row whose quoted cell spans lines gets its last line.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ProfileError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ProfileError(f"{path}: empty file")
        index = {name: i for i, name in enumerate(header)}
        missing = [c for c in columns if c not in index]
        if missing:
            raise ProfileError(f"{path}: missing columns {missing}")
        pick = operator.itemgetter(*(index[c] for c in columns))
        for row in reader:
            if not row:
                continue
            try:
                cells = pick(row)
            except IndexError:
                raise ProfileError(
                    f"{path}: line {reader.line_num}: {len(row)} fields, "
                    f"header has {len(header)}"
                ) from None
            yield reader.line_num, cells


def day_load_blocks(daily_wh: float, evening_fraction: float) -> list[tuple[float, float, float]]:
    """(start_h, end_h, power_w) blocks for one day's consumption.

    The predawn window takes PREDAWN_SHARE of the day's energy, the
    evening window evening_fraction, and the daytime window the rest; a
    window whose share is not above 0.0 has no block.  A block's power
    is the energy (Wh) times its share, over its length (h).
    """
    blocks = []
    for (h0, h1), share in (
        (PREDAWN_WINDOW, PREDAWN_SHARE),
        (DAYTIME_WINDOW, 1.0 - evening_fraction - PREDAWN_SHARE),
        (EVENING_WINDOW, evening_fraction),
    ):
        if share > 0.0:
            blocks.append((h0, h1, daily_wh * share / (h1 - h0)))
    return blocks


def reference_generate_archetype(
    archetype: UseArchetype,
    days: int,
    seed: int | None = None,
    dt_s: float = DEFAULT_DT_S,
    start: datetime = datetime(2023, 1, 1),
    panel_rating_w: float = DEFAULT_PANEL_RATING_W,
) -> TimeSeries:
    if days <= 0:
        raise ProfileError("days must be positive")
    if not divides_day(dt_s):
        raise ProfileError("dt_s must divide a day evenly")
    steps_per_day = int(round(SECONDS_PER_DAY / dt_s))
    rng = random.Random(archetype.stochastic_seed if seed is None else seed)

    weather: list[float] = []
    storm = False
    for _ in range(days):
        storm = rng.random() < (STORM_STAY_P if storm else STORM_ENTER_P)
        lo, hi = STORM_FACTOR if storm else CLEAR_FACTOR
        weather.append(rng.uniform(lo, hi))

    active: list[bool] = []
    if archetype.nonuse_run_days > 0:
        run_active = True
        spread = max(archetype.active_run_days - 2, 1), archetype.active_run_days + 2
        remaining = rng.randint(*spread)
        for _ in range(days):
            active.append(run_active)
            remaining -= 1
            if remaining <= 0:
                run_active = not run_active
                remaining = (
                    rng.randint(*spread) if run_active else archetype.nonuse_run_days
                )
    else:
        active = [True] * days

    energy = [
        archetype.daily_energy_wh * rng.uniform(0.9, 1.1) if active[d] else 0.0
        for d in range(days)
    ]

    dt_h = dt_s / 3600.0
    hours = [k * dt_h for k in range(steps_per_day)]
    windows = [(h0, h1) for h0, h1, _ in day_load_blocks(0.0, archetype.evening_fraction)]
    block_of_step = [
        next((b for b, (h0, h1) in enumerate(windows) if h0 <= hour < h1), len(windows))
        for hour in hours
    ]
    shape = [solar_power(hour, 1.0) for hour in hours]
    day_temp = [ambient_temperature(hour) for hour in hours]

    load: list[float] = []
    solar: list[float] = []
    temp: list[float] = []
    for d in range(days):
        powers = [w for _, _, w in day_load_blocks(energy[d], archetype.evening_fraction)]
        powers.append(0.0)
        load.extend(map(powers.__getitem__, block_of_step))
        peak = panel_rating_w * weather[d]
        solar.extend([peak * s for s in shape])
        temp.extend(day_temp)

    return TimeSeries(
        start=start,
        dt_s=dt_s,
        load_w=load,
        solar_w=solar,
        temp_c=temp,
        panel_rating_w=panel_rating_w,
    )


def reference_ingest_csv(
    path: str,
    dt_s: float | None = None,
    panel_rating_w: float = DEFAULT_PANEL_RATING_W,
) -> TimeSeries:
    """Read a logged profile CSV onto a uniform grid.

    Rows must carry ISO-8601 timestamps in strictly increasing order.
    Values are resampled zero-order-hold onto the target grid; grid
    slots with no fresh sample count as filled, and a series needing
    more than MAX_FILL_FRACTION of its slots filled is rejected.

    Args:
        dt_s: Target grid spacing, at least MIN_DT_S; defaults to the
            first sample spacing.
    """
    if dt_s is not None:
        if not 0.0 < dt_s < math.inf:
            raise ProfileError(f"dt_s must be positive and finite: {dt_s}")
        if dt_s < MIN_DT_S:
            raise ProfileError(f"dt_s must be at least {MIN_DT_S} s: {dt_s}")

    times: list[datetime] = []
    rows: list[tuple[float, float, float]] = []
    for lineno, (stamp, load_w, solar_w, temp_c) in csv_cells(path, PROFILE_COLUMNS):
        try:
            ts = datetime.fromisoformat(stamp.strip())
            vals = (float(load_w), float(solar_w), float(temp_c))
            increasing = not times or ts > times[-1]
        except (ValueError, TypeError) as exc:  # TypeError: naive and aware mixed
            raise ProfileError(f"{path}: line {lineno}: {exc}") from exc
        if not increasing:
            raise ProfileError(
                f"{path}: line {lineno}: timestamps not strictly increasing"
            )
        times.append(ts)
        rows.append(vals)

    if len(times) < 2:
        raise ProfileError(f"{path}: need at least two samples")

    if dt_s is None:
        dt_s = (times[1] - times[0]).total_seconds()

    t0 = times[0]
    span_s = (times[-1] - t0).total_seconds()
    total = int(span_s // dt_s) + 1
    # each row refreshes at most one slot, so at least total - rows are filled
    least_filled = (total - len(times)) / total
    if least_filled > MAX_FILL_FRACTION:
        raise ProfileError(
            f"{path}: at least {least_filled:.0%} of slots would need hold-filling "
            f"(limit {MAX_FILL_FRACTION:.0%})"
        )

    load: list[float] = []
    solar: list[float] = []
    temp: list[float] = []
    filled = 0
    longest = 0
    run = 0
    src = 0
    for i in range(total):
        grid_t = t0 + timedelta(seconds=i * dt_s)
        fresh = i == 0
        while src + 1 < len(times) and times[src + 1] <= grid_t:
            src += 1
            fresh = True
        if not fresh:
            filled += 1
            run += 1
            longest = max(longest, run)
        else:
            run = 0
        l, s, c = rows[src]
        load.append(l)
        solar.append(s)
        temp.append(c)

    report = GapReport(total_slots=total, filled_slots=filled, longest_fill_run=longest)
    if report.fill_fraction > MAX_FILL_FRACTION:
        raise ProfileError(
            f"{path}: {report.fill_fraction:.0%} of slots required hold-filling "
            f"(limit {MAX_FILL_FRACTION:.0%})"
        )
    return TimeSeries(
        start=t0,
        dt_s=dt_s,
        load_w=load,
        solar_w=solar,
        temp_c=temp,
        panel_rating_w=panel_rating_w,
        gap_report=report,
    )

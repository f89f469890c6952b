"""Input profiles and battery-trace statistics.

A profile is a uniform time series of load power, solar power and
ambient temperature.  Profiles come either from the synthetic
use-archetype generator (households differing in how hard they run a
small solar home system) or from CSV ingestion of logged field data.
The same module derives stress-factor statistics from battery traces,
which is how simulated operation is summarised and compared.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import MISSING, dataclass
from datetime import date, datetime, timedelta, timezone
from functools import reduce
from itertools import accumulate, chain, compress, count, islice, repeat
from typing import Iterable, Iterator, Sequence, Sized

from ._domains import NON_NEGATIVE, NON_NEGATIVE_INT, POSITIVE, POSITIVE_INT, UNIT
from ._domains import TEMP_MAX_C, TEMP_MIN_C, check_fields, declared

SECONDS_PER_DAY = 86400.0

# Defaults of the step (s) and panel rating (W), for profiles, scenarios and config.
DEFAULT_DT_S = 900.0
DEFAULT_PANEL_RATING_W = 50.0


class ProfileError(ValueError):
    """Bad profile data or parameters; message carries the location."""


# The least step (s) a simulation or a generated profile may take.  Below
# about 1e-11 s, steps per day are too many for a float to tell apart.
MIN_DT_S = 1.0

# The largest share of an ingested grid's slots that may be hold-filled.
MAX_FILL_FRACTION = 0.2


def divides_day(dt_s: float) -> bool:
    """Whether dt_s (s) is at least MIN_DT_S and a day holds a whole number, at least 1, of it."""
    steps_per_day = SECONDS_PER_DAY / dt_s if dt_s >= MIN_DT_S else math.nan
    return 0.5 < steps_per_day < math.inf and abs(steps_per_day - round(steps_per_day)) <= 1e-9


@dataclass(frozen=True)
class GapReport:
    """How much of an ingested series had to be hold-filled."""

    total_slots: int
    filled_slots: int
    longest_fill_run: int

    @property
    def fill_fraction(self) -> float:
        return self.filled_slots / self.total_slots if self.total_slots else 0.0


COLUMNS = ("load_w", "solar_w", "temp_c")


def check_column_lengths(load_w: Sized, solar_w: Sized, temp_c: Sized) -> None:
    """Raise ProfileError unless a flat profile's columns are of one length, not 0."""
    n = len(load_w)
    if len(solar_w) != n or len(temp_c) != n:
        raise ProfileError("load, solar and temperature lengths differ")
    if n == 0:
        raise ProfileError("empty profile")


@dataclass(frozen=True)
class ProfileDays:
    """A profile held as whole days: one-day templates and per-day values.

    Day q's load at step k is ``powers[q][block_of_step[k]]``, its solar
    ``peaks[q] * shape[k]`` and its temperature ``day_temp[k]``.  Every
    day holds as many block powers as the first, and every block index
    lies within them: the step kernel reads the powers unchecked.
    """

    block_of_step: list[int]
    shape: list[float]
    day_temp: list[float]
    powers: list[Sequence[float]]  # per day, the load power of each block
    peaks: list[float]  # per day, the solar power where shape is 1

    def __post_init__(self) -> None:
        if not len(self.block_of_step) == len(self.shape) == len(self.day_temp):
            raise ProfileError("load, solar and temperature lengths differ")
        if len(self.powers) != len(self.peaks):
            raise ProfileError("load and solar day counts differ")
        if not self.shape or not self.peaks:
            raise ProfileError("empty profile")
        width = len(self.powers[0])
        if operator.countOf(map(len, self.powers), width) != len(self.powers):
            q = next(q for q, row in enumerate(self.powers) if len(row) != width)
            raise ProfileError(
                f"day {q} holds {len(self.powers[q])} block powers, day 0 holds {width}"
            )
        if not 0 <= min(self.block_of_step) <= max(self.block_of_step) < width:
            k, b = next((k, b) for k, b in enumerate(self.block_of_step) if not 0 <= b < width)
            raise ProfileError(f"block_of_step[{k}] is {b}, outside [0, {width})")

    def load(self, q: int) -> list[float]:
        return list(map(self.powers[q].__getitem__, self.block_of_step))

    def solar(self, q: int) -> list[float]:
        return list(map(operator.mul, repeat(self.peaks[q]), self.shape))

    def temp(self, q: int) -> list[float]:
        return self.day_temp  # the same object every day


@dataclass
class TimeSeries:
    """Uniform profile of system inputs.

    A profile is held either as flat columns, as the constructor takes
    them, or as whole days (:meth:`from_days`, which the generator uses).
    A day-form profile builds a column on its first read and keeps it;
    :meth:`day`, :meth:`samples`, ``len`` and the daily means build none.

    Attributes:
        start: Timestamp of the first sample.
        load_w: Load power demand (W).
        solar_w: Solar power available at the panel output (W).
        temp_c: Ambient temperature (degC), used directly as battery
            temperature (no thermal model).
    """

    start: datetime
    dt_s: float = declared(MISSING, POSITIVE, "s", "sample spacing")
    load_w: list[float]
    solar_w: list[float]
    temp_c: list[float]
    panel_rating_w: float = declared(DEFAULT_PANEL_RATING_W, POSITIVE, "W", "rated panel output")
    gap_report: GapReport | None = None

    # the ProfileDays of a day-form profile; unannotated, so not a field
    _days = None

    def __post_init__(self) -> None:
        check_column_lengths(self.load_w, self.solar_w, self.temp_c)
        check_fields(self, ProfileError)
        load, solar = self.load_w, self.solar_w
        self._check_samples(
            math.isfinite(sum(load)) and min(load) >= 0.0,
            math.isfinite(sum(solar)) and min(solar) >= 0.0
            and max(solar) <= self.panel_rating_w + 1e-9,
            self.temp_c,
        )

    @classmethod
    def from_days(
        cls,
        start: datetime,
        dt_s: float,
        days: ProfileDays,
        panel_rating_w: float = DEFAULT_PANEL_RATING_W,
    ) -> TimeSeries:
        """A profile held as days, checked on its per-day values and
        templates, whose templates hold one day of steps of dt_s."""
        series = cls.__new__(cls)  # no columns: __getattr__ builds them
        series.start, series.dt_s, series.panel_rating_w = start, dt_s, panel_rating_w
        series.gap_report = None
        series._days = days
        check_fields(series, ProfileError)
        if not divides_day(dt_s):
            raise ProfileError("dt_s must divide a day evenly")
        steps_per_day = int(round(SECONDS_PER_DAY / dt_s))
        if len(days.shape) != steps_per_day:
            raise ProfileError(
                f"day templates of {len(days.shape)} steps, where a day holds"
                f" {steps_per_day} steps of dt_s {dt_s!r} s"
            )
        # every load sample is one of the powers; every solar sample is a
        # peak times a shape value in [0, 1], so it lies in [0, peak]
        powers, peaks, shape = days.powers, days.peaks, days.shape
        series._check_samples(
            math.isfinite(sum(chain.from_iterable(powers)))
            and min(chain.from_iterable(powers)) >= 0.0,
            math.isfinite(sum(peaks)) and min(peaks) >= 0.0
            and max(peaks) <= panel_rating_w + 1e-9
            and min(shape) >= 0.0 and max(shape) <= 1.0,
            days.day_temp,
        )
        return series

    def _check_samples(self, load_ok: bool, solar_ok: bool, temps: Sequence[float]) -> None:
        """Raise ProfileError naming the first bad sample.

        load_ok and solar_ok are C-level verdicts that hold only where every
        sample of their column is good, so a good column costs no search; a
        column whose verdict fails is searched sample by sample for the one
        to name, and may hold none (finite samples whose sum overflowed).
        A column's sum decides only whether it overflows, so the compensated
        builtin sum of Python 3.12 and later cannot change a verdict.
        temps are the profile's first temperatures and hold every one it
        has.  Negated comparisons, so that nan fails them.
        """
        inf = math.inf
        if not load_ok:
            for i, p in enumerate(self.samples("load_w")):
                if not 0.0 <= p < inf:
                    raise ProfileError(
                        f"load_w sample {i} is negative or not finite: {p}"
                    )
        if not solar_ok:
            top = self.panel_rating_w + 1e-9
            for i, p in enumerate(self.samples("solar_w")):
                if not p >= 0 or p > top:
                    raise ProfileError(
                        f"solar_w sample {i} outside [0, {self.panel_rating_w}]: {p}"
                    )
        if not math.isfinite(sum(temps)):
            for i, t in enumerate(temps):
                if not -inf < t < inf:
                    raise ProfileError(f"temp_c sample {i} is not finite: {t}")
            # finite samples whose sum overflowed: the range check names one
        if min(temps) < TEMP_MIN_C or max(temps) > TEMP_MAX_C:
            i = next(i for i, t in enumerate(temps) if not TEMP_MIN_C <= t <= TEMP_MAX_C)
            raise ProfileError(
                f"temp_c sample {i} outside [{TEMP_MIN_C}, {TEMP_MAX_C}] degC: {temps[i]}"
            )

    def __getattr__(self, name: str) -> list[float]:
        # reached only for an attribute the instance lacks: a column of a
        # day-form profile before its first read, which builds and keeps it
        days = self.__dict__.get("_days")
        if days is None or name not in COLUMNS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        column = self.__dict__[name] = list(self.samples(name))
        return column

    def samples(self, column: str) -> Iterable[float]:
        """The samples of a column ("load_w", "solar_w" or "temp_c") in
        order; a day-form profile makes them a day at a time."""
        days = self._days
        if days is None:
            return getattr(self, column)
        of_day = {"load_w": days.load, "solar_w": days.solar, "temp_c": days.temp}[column]
        return chain.from_iterable(map(of_day, range(len(days.peaks))))

    def day(self, d: int) -> tuple[Sequence[float], Sequence[float], Sequence[float]]:
        """The load, solar and temperature samples of day d of the profile
        repeated end to end: samples ``(d * steps_per_day + k) % len(self)``
        for k < steps_per_day.  A flat profile that is not whole days
        wraps within a day; a day-form one repeats its days, and gives the
        same temperature object every day.
        """
        days = self._days
        if days is not None:
            q = d % len(days.peaks)
            return days.load(q), days.solar(q), days.temp(q)
        if not divides_day(self.dt_s):
            raise ProfileError("dt_s must divide a day evenly")
        steps_per_day = int(round(SECONDS_PER_DAY / self.dt_s))
        columns = self.load_w, self.solar_w, self.temp_c
        check_column_lengths(*columns)  # as constructed, unless one was reassigned since
        n = len(self.load_w)
        first = d * steps_per_day % n
        if first + steps_per_day <= n:
            return tuple(c[first : first + steps_per_day] for c in columns)
        at = [(first + k) % n for k in range(steps_per_day)]
        return tuple(list(map(c.__getitem__, at)) for c in columns)

    def same_samples(self, other: TimeSeries) -> bool:
        """Whether both profiles hold the same samples: at once where both
        hold the same days, else sample by sample up to the first that differs."""
        if self._days is not None and self._days == other._days:
            return True
        ours, theirs = (zip(*map(p.samples, COLUMNS)) for p in (self, other))
        return len(self) == len(other) and all(map(operator.eq, ours, theirs))

    def __len__(self) -> int:
        days = self._days
        return len(self.load_w) if days is None else len(days.peaks) * len(days.shape)

    def duration_days(self) -> float:
        return len(self) * self.dt_s / SECONDS_PER_DAY


# Within-day load placement (fractions of the day's energy), read by _load_blocks alone.
PREDAWN_WINDOW = (5.0, 6.0)
PREDAWN_SHARE = 0.10
DAYTIME_WINDOW = (9.0, 17.0)
EVENING_WINDOW = (18.0, 23.0)


def _load_blocks(evening_fraction: float) -> list[tuple[float, float, float]]:
    """(start_h, end_h, share) of each block of a day's load whose share is above
    0.0; a block's power is the day's energy (Wh) times its share over its hours."""
    if evening_fraction > 1.0 - PREDAWN_SHARE:
        raise ProfileError(f"evening_fraction must be at most 0.9: {evening_fraction!r}")
    daytime_share = 1.0 - evening_fraction - PREDAWN_SHARE
    return [
        (h0, h1, share)
        for (h0, h1), share in (
            (PREDAWN_WINDOW, PREDAWN_SHARE),
            (DAYTIME_WINDOW, daytime_share),
            (EVENING_WINDOW, evening_fraction),
        )
        if share > 0.0
    ]


@dataclass(frozen=True)
class UseArchetype:
    """Synthetic household consumption pattern.

    nonuse_run_days > 0 inserts runs of zero-load days between active
    runs, modelling households that leave the system idle for stretches.
    """

    name: str
    daily_energy_wh: float = declared(MISSING, NON_NEGATIVE, "Wh", "mean load energy of a day")
    evening_fraction: float = declared(0.7, UNIT, "-", "share after sunset, at most 0.9")
    nonuse_run_days: int = declared(0, NON_NEGATIVE_INT, "days", "length of an idle run")
    active_run_days: int = declared(7, POSITIVE_INT, "days", "mean length of an active run")
    stochastic_seed: int = declared(0, NON_NEGATIVE_INT, "-", "RNG seed when none is given")

    def __post_init__(self) -> None:
        check_fields(self, ProfileError)
        _load_blocks(self.evening_fraction)


HIGH_USE = UseArchetype("high", 120.0)
MODERATE_USE = UseArchetype("moderate", 80.0)
LOW_USE = UseArchetype("low", 40.0)
INFREQUENT_USE = UseArchetype("infrequent", 40.0, nonuse_run_days=10)

ARCHETYPES = {
    a.name: a for a in (HIGH_USE, MODERATE_USE, LOW_USE, INFREQUENT_USE)
}

# Weather model: clear days draw a daily factor from one band, storm
# days from a lower one; storms arrive and persist via a two-state
# Markov chain so bad days cluster.  Factors stay within [0.3, 1.0].
STORM_ENTER_P = 0.05
STORM_STAY_P = 0.45
CLEAR_FACTOR = (0.55, 1.0)
STORM_FACTOR = (0.30, 0.45)

SUNRISE_H = 6.0
SUNSET_H = 18.0


def solar_power(hour: float, peak_w: float) -> float:
    """Half-sine solar profile between sunrise and sunset."""
    if hour < SUNRISE_H or hour >= SUNSET_H:
        return 0.0
    span = SUNSET_H - SUNRISE_H
    return peak_w * math.sin(math.pi * (hour - SUNRISE_H) / span)


def ambient_temperature(hour: float) -> float:
    """Diurnal ambient sinusoid, 22-32 degC with the peak mid-afternoon."""
    return 27.0 + 5.0 * math.sin(2.0 * math.pi * (hour - 9.0) / 24.0)


def generate_archetype(
    archetype: UseArchetype,
    days: int,
    seed: int | None = None,
    dt_s: float = DEFAULT_DT_S,
    start: datetime = datetime(2023, 1, 1),
    panel_rating_w: float = DEFAULT_PANEL_RATING_W,
) -> TimeSeries:
    """Build a synthetic profile for an archetype.

    Deterministic for a given (archetype, days, seed, dt_s): the same
    call always returns the identical series.

    Args:
        days: Number of whole days to generate.
        seed: RNG seed; falls back to the archetype's stochastic_seed.
        panel_rating_w: Noon solar output at a weather factor of 1 (W);
            must be positive and finite.
    """
    if not POSITIVE_INT.accepts(days):
        raise ProfileError(f"days must be a positive integer: {days!r}")
    if not divides_day(dt_s):
        raise ProfileError("dt_s must divide a day evenly")
    steps_per_day = int(round(SECONDS_PER_DAY / dt_s))
    rng = random.Random(archetype.stochastic_seed if seed is None else seed)
    draw = rng.random

    # Day-level draws, in order: per day the storm test and weather factor; at
    # each run boundary a run length; per active day its energy.  A factor is
    # random.uniform's own lo + (hi - lo) * r, written out to save a call a day.
    (storm_lo, storm_hi), (clear_lo, clear_hi) = STORM_FACTOR, CLEAR_FACTOR
    storm_span, clear_span = storm_hi - storm_lo, clear_hi - clear_lo
    weather: list[float] = []
    storm = False
    for _ in range(days):
        storm = draw() < (STORM_STAY_P if storm else STORM_ENTER_P)
        weather.append(storm_lo + storm_span * draw() if storm else clear_lo + clear_span * draw())

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
                remaining = rng.randint(*spread) if run_active else archetype.nonuse_run_days
    else:
        active = [True] * days

    daily_wh, energy_span = archetype.daily_energy_wh, 1.1 - 0.9
    energy = [daily_wh * (0.9 + energy_span * draw()) if a else 0.0 for a in active]

    # One-day templates, which the profile keeps with each day's block
    # powers and solar peak instead of building columns.  The load windows
    # depend on evening_fraction alone, so every day has the same blocks
    # with its own powers; the last index stands for "no block".
    # solar_power(hour, 1.0) is the exact sine (or 0.0 at night), so for a
    # positive finite peak, peak * shape has the bits of
    # solar_power(hour, peak).
    dt_h = dt_s / 3600.0
    hours = [k * dt_h for k in range(steps_per_day)]
    blocks = _load_blocks(archetype.evening_fraction)
    block_of_step = [
        next((b for b, (h0, h1, _) in enumerate(blocks) if h0 <= hour < h1), len(blocks))
        for hour in hours
    ]
    shape = [solar_power(hour, 1.0) for hour in hours]
    day_temp = [ambient_temperature(hour) for hour in hours]

    # each day's powers, e * share / (h1 - h0) per block, then "no block"
    coefficients = [(share, h1 - h0) for h0, h1, share in blocks]
    per_block = [[e * share / width for e in energy] for share, width in coefficients]
    powers = list(zip(*per_block, repeat(0.0)))
    peaks = list(map(operator.mul, repeat(panel_rating_w), weather))
    return TimeSeries.from_days(
        start, dt_s, ProfileDays(block_of_step, shape, day_temp, powers, peaks), panel_rating_w
    )


# ---------------------------------------------------------------------------
# CSV input and output

PROFILE_COLUMNS = ("timestamp", *COLUMNS)


def write_csv(path: str, columns: Sequence[str], row_format: str, rows: Iterable[tuple]) -> None:
    """Write the header, then ``row_format % row`` per row, in csv.writer's
    CRLF dialect: no cell written (an isoformat timestamp, a float repr or
    an int) needs quoting, so the bytes are those csv.writer would write."""
    line = (row_format + "\r\n").__mod__
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(map(line, rows))


def write_profile_csv(series: TimeSeries, path: str) -> None:
    """Write a profile in the dialect :func:`ingest_csv` reads back.

    A day-form profile is written a day at a time and builds no column,
    a flat one TRACE_BLOCK rows at a time: each day or block is one call
    of :func:`_write_rows`.
    """
    step = timedelta(seconds=series.dt_s)
    stamps = _grid_stamps(series.start, step, len(series))
    if stamps is None:
        times = accumulate(repeat(step, len(series) - 1), operator.add, initial=series.start)
        stamps = map(datetime.isoformat, times)
    days = series._days
    if days is None:
        columns = list(map(series.samples, COLUMNS))
        blocks = (
            [column[i : i + TRACE_BLOCK] for column in columns]
            for i in range(0, len(series), TRACE_BLOCK)
        )
    else:
        blocks = (
            (map(days.powers[q].__getitem__, days.block_of_step), days.solar(q), days.temp(q))
            for q in range(len(days.peaks))
        )
    with open(path, "wb") as fh:
        fh.write(",".join(PROFILE_COLUMNS).encode() + b"\r\n")
        for block in blocks:
            load, solar, temp = (array("d", column) for column in block)
            values = array("d", bytes(24 * len(load)))  # the block's samples, row after row
            values[0::3], values[1::3], values[2::3] = load, solar, temp
            _write_rows(fh, islice(stamps, len(load)), values, 3, None, 0)


def _write_rows(
    fh, stamps: Iterable[str], values: array, k: int, marks: array | None, j: int
) -> None:
    """Write to `fh` the line of each stamp with its row's k values and j
    marks (_kernel.format_rows).  Where a stamp raises (past
    datetime.max), the lines before it are written first."""
    from . import _kernel  # which imports the engine, so not at import time

    taken: list[str] = []
    try:
        taken.extend(stamps)  # keeps the stamps taken before one raises
    finally:
        fh.write(_kernel.format_rows(taken, values, k, marks, j))


_DAY = timedelta(days=1)


def _grid_stamps(start: datetime, step: timedelta, n: int | None = None) -> Iterator[str] | None:
    """``(start + k*step).isoformat()`` for k < n from a one-day template, or None.

    The first day's stamps come from that arithmetic, each split into its
    10-character date and its tail (time of day and offset).  Day q's are
    ``(date + q days).isoformat() + tail``, made one day at a time.  None,
    for the caller to use the arithmetic, unless `step` is positive and
    divides a day, the start is naive or has a fixed ``timezone`` offset
    (a zone's offset can change within the grid), and the n stamps end by
    ``datetime.max``.  With n None they run to the last stamp that does.
    """
    if not (_NO_TIME < step and _DAY % step == _NO_TIME):
        return None
    if not (start.tzinfo is None or isinstance(start.tzinfo, timezone)):
        return None
    room = (datetime.max - start.replace(tzinfo=None)) // step + 1
    if n is None:
        n = room
    elif n > room:
        return None
    return islice(_template_days(start, step), n)


def _template_days(start: datetime, step: timedelta) -> Iterator[str]:
    """The stamps of :func:`_grid_stamps` without end; the date arithmetic
    raises past ``datetime.max``."""
    days: list[tuple[date, list[str]]] = []  # the first day's dates, each with its tails
    for k in range(_DAY // step):
        t = start + k * step
        stamp = t.isoformat()
        yield stamp
        if not days or days[-1][0] != t.date():
            days.append((t.date(), []))
        days[-1][1].append(stamp[10:])
    for q in count(1):
        shift = timedelta(days=q)
        for day, tails in days:
            yield from map((day + shift).isoformat().__add__, tails)


# Characters read per block of a CSV's data rows.
CSV_BLOCK_CHARS = 1 << 16


def _text_blocks(fh) -> Iterator[str]:
    """The rest of `fh`, read CSV_BLOCK_CHARS characters at a time, in
    blocks that each end after a "\n" (the last where the file ends), so
    no line and no "\r\n" is split between two blocks."""
    carry = ""
    while text := fh.read(CSV_BLOCK_CHARS):
        text = carry + text
        cut = text.rfind("\n") + 1
        carry = text[cut:]
        if cut:
            yield text[:cut]
    if carry:
        yield carry


def _plain_cells(block: str, width: int) -> list[str] | None:
    """The cells of a block of lines that csv.reader would split at each
    "," into `width` cells, each line's followed by a "\n" cell, with an
    empty cell at the end; None for any other block.

    Such a block has no quote, no NUL, no "\r" but in "\r\n", no field
    as long as csv.field_size_limit(), and `width` cells on every line,
    so no blank line, since `width` is at least two.
    """
    if '"' in block or "\0" in block or len(block) > csv.field_size_limit():
        return None
    if not block.endswith("\n"):
        block += "\n"  # the last line; a bare "\r" then ends it as "\r\n" does
    if "\r" in block:
        text = block.replace("\r\n", ",\n,")
        if "\r" in text:
            return None
    else:
        text = block.replace("\n", ",\n,")
    cells = text.split(",")
    # every "\n" is a cell of its own at the end of a line, unless the
    # block mixes "\n" and "\r\n" endings: then the counts differ
    rows = block.count("\n")
    if len(cells) != (width + 1) * rows + 1 or cells[width :: width + 1].count("\n") != rows:
        return None
    return cells


def _undecodable(path: str, lineno: int, exc: UnicodeDecodeError) -> ProfileError:
    return ProfileError(f"{path}: {f'after line {lineno}: ' if lineno else ''}{exc}")


def _csv_blocks(
    path: str, columns: Sequence[str]
) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """Yield, for each block of a CSV's data rows, the rows' line numbers
    and a list of cells for each of `columns`.

    The header is read once and each column resolved to its index there
    (for a repeated name, the last one, as csv.DictReader does); there
    must be at least two columns.  Blank lines are skipped; line numbers
    are the file's own (csv.reader.line_num), so they count blank lines
    too, and a row whose quoted cell spans lines gets its last line.
    Text that does not decode is a ProfileError naming the last line read.

    Rows are read CSV_BLOCK_CHARS characters at a time.  A plain block
    (see :func:`_plain_cells`) is split with str.split, where csv.reader
    would split it.  From the first block that is not plain on, csv.reader
    reads the rest of the file, so cells, line numbers and errors are
    always csv.reader's.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ProfileError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except UnicodeDecodeError as exc:
            raise _undecodable(path, reader.line_num, exc) from exc
        if header is None:
            raise ProfileError(f"{path}: empty file")
        index = {name: i for i, name in enumerate(header)}
        missing = [c for c in columns if c not in index]
        if missing:
            raise ProfileError(f"{path}: missing columns {missing}")
        picks = [index[c] for c in columns]
        width = len(header)
        lineno = reader.line_num
        blocks = _text_blocks(fh)
        try:
            for block in blocks:
                cells = _plain_cells(block, width)
                if cells is None:
                    break
                rows = len(cells) // (width + 1)
                yield (
                    range(lineno + 1, lineno + rows + 1),
                    [cells[i : -1 : width + 1] for i in picks],
                )
                lineno += rows
            else:
                return
        except UnicodeDecodeError as exc:
            raise _undecodable(path, lineno, exc) from exc

        # the lines of each block, split as a newline="" file splits them
        lines = map(io.StringIO, chain((block,), blocks), repeat(""))
        reader = csv.reader(chain.from_iterable(lines))
        pick = operator.itemgetter(*picks)
        batch = max(1, CSV_BLOCK_CHARS // 64)  # rows per block from here on, 64 characters a row
        linenos: list[int] = []
        picked: list[tuple[str, ...]] = []
        try:
            for row in reader:
                if not row:
                    continue
                try:
                    picked.append(pick(row))
                except IndexError:
                    raise ProfileError(
                        f"{path}: line {lineno + reader.line_num}: {len(row)} fields, "
                        f"header has {width}"
                    ) from None
                linenos.append(lineno + reader.line_num)
                if len(linenos) == batch:
                    yield linenos, list(map(list, zip(*picked)))
                    linenos, picked = [], []
        except (ProfileError, csv.Error, UnicodeDecodeError) as exc:
            if linenos:  # the rows before the fault come first
                yield linenos, list(map(list, zip(*picked)))
            if isinstance(exc, UnicodeDecodeError):
                raise _undecodable(path, lineno + reader.line_num, exc) from exc
            raise
        if linenos:
            yield linenos, list(map(list, zip(*picked)))


class _CellFloats(dict):
    """float(cell) for each distinct cell string, made once: a log repeats
    most of its values, so its rows share their float objects.  The keys
    are the strings, so "-0.0" and "0.0" stay apart."""

    def __missing__(self, cell: str) -> float:
        value = self[cell] = float(cell)
        return value


def _profile_rows(
    path: str,
) -> tuple[datetime | None, array, list[float], list[float], list[float]]:
    """The rows of a profile CSV: the first row's timestamp, each row's
    offset from it in whole microseconds, and the load, solar and
    temperature columns, each value the one float made for its cell's
    string.  The cells and their floats' index go when this returns."""
    floats = _CellFloats()
    offsets = array("q")
    loads: list[float] = []
    solars: list[float] = []
    temps: list[float] = []
    t0 = None
    for linenos, (stamps, load_w, solar_w, temp_c) in _csv_blocks(path, PROFILE_COLUMNS):
        try:
            times = list(map(datetime.fromisoformat, map(str.strip, stamps)))
            start = times[0] if t0 is None else t0
            deltas = map(operator.sub, times, repeat(start))
            offs = list(map(operator.floordiv, deltas, repeat(_ONE_MICROSECOND)))
            values = [list(map(floats.__getitem__, cells)) for cells in (load_w, solar_w, temp_c)]
            earlier = [offsets[-1], *offs] if offsets else offs
            if not all(map(operator.lt, earlier, islice(earlier, 1, None))):
                raise ValueError("timestamps not strictly increasing")
        except (ValueError, TypeError):
            # the block again, row by row: the first bad row raises, naming its line
            prev = t0 + timedelta(microseconds=offsets[-1]) if offsets else None
            for lineno, stamp, load_cell, solar_cell, temp_cell in zip(
                linenos, stamps, load_w, solar_w, temp_c
            ):
                try:
                    ts = datetime.fromisoformat(stamp.strip())
                    l, s, c = floats[load_cell], floats[solar_cell], floats[temp_cell]
                    increasing = prev is None or ts > prev
                except (ValueError, TypeError) as exc:  # TypeError: naive and aware mixed
                    raise ProfileError(f"{path}: line {lineno}: {exc}") from exc
                if not increasing:
                    raise ProfileError(
                        f"{path}: line {lineno}: timestamps not strictly increasing"
                    )
                if t0 is None:
                    t0 = ts
                offsets.append((ts - t0) // _ONE_MICROSECOND)
                prev = ts
                loads.append(l)
                solars.append(s)
                temps.append(c)
            continue
        t0 = start
        offsets.extend(offs)
        loads += values[0]
        solars += values[1]
        temps += values[2]

    return t0, offsets, loads, solars, temps


def _slots_held(offsets: array, dt_s: float, total: int) -> list[int]:
    """How many of a grid's `total` slots each row holds, for rows at
    `offsets` microseconds from the first.

    Slot i is t0 + timedelta(seconds=i * dt_s), here in microseconds from
    t0, and holds the last row at or before it.  So row j holds the slots
    from the first at or after it up to the next row's first: the first of
    them fresh and the rest hold-filled.  Where dt_s is m / 2**e with 2**e
    dividing m * 10**6 and (total - 1) * m < 2**53, each i * dt_s is exact,
    so is its fraction times 10**6, a whole number, and timedelta rounds
    nothing: slot i is i * step_us.
    """
    m, two_e = dt_s.as_integer_ratio()
    step_us, inexact = divmod(m * 1_000_000, two_e)
    if not inexact and (total - 1) * m < 2**53:
        # ceil(offset / step_us); rows past the last slot hold none
        firsts = array("q", map(operator.neg, map(operator.floordiv, offsets, repeat(-step_us))))
        past = bisect_right(firsts, total)
        firsts[past:] = array("q", repeat(total, len(firsts) - past))
    else:
        slots = array("q", (timedelta(seconds=i * dt_s) // _ONE_MICROSECOND for i in range(total)))
        firsts = array("q", map(bisect_left, repeat(slots), offsets))
    return list(map(operator.sub, chain(islice(firsts, 1, None), (total,)), firsts))


def ingest_csv(
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

    t0, offsets, loads, solars, temps = _profile_rows(path)
    n = len(offsets)
    if n < 2:
        raise ProfileError(f"{path}: need at least two samples")

    # a timedelta's total_seconds() is its microseconds / 10**6
    if dt_s is None:
        dt_s = offsets[1] / 1_000_000

    span_s = offsets[-1] / 1_000_000
    total = int(span_s // dt_s) + 1
    # each row refreshes at most one slot, so at least total - rows are filled
    least_filled = (total - n) / total
    if least_filled > MAX_FILL_FRACTION:
        raise ProfileError(
            f"{path}: at least {least_filled:.0%} of slots would need hold-filling "
            f"(limit {MAX_FILL_FRACTION:.0%})"
        )

    # a row holding slots refreshes the first and hold-fills a run of the
    # rest, so each fresh slot is a row holding any
    counts = _slots_held(offsets, dt_s, total)
    filled = total - n + counts.count(0)
    report = GapReport(total_slots=total, filled_slots=filled, longest_fill_run=max(counts) - 1)
    if report.fill_fraction > MAX_FILL_FRACTION:
        raise ProfileError(
            f"{path}: {report.fill_fraction:.0%} of slots required hold-filling "
            f"(limit {MAX_FILL_FRACTION:.0%})"
        )

    # rows holding other than one slot are few: copy the runs between them
    uneven = list(compress(range(n), map(operator.ne, counts, repeat(1))))

    def hold(column: list[float]) -> list[float]:
        held: list[float] = []
        j = 0
        for k in uneven:
            held += column[j:k]
            held += repeat(column[k], counts[k])
            j = k + 1
        held += column[j:]
        return held

    return TimeSeries(
        start=t0,
        dt_s=dt_s,
        load_w=hold(loads),
        solar_w=hold(solars),
        temp_c=hold(temps),
        panel_rating_w=panel_rating_w,
        gap_report=report,
    )


# ---------------------------------------------------------------------------
# Battery-trace stress factors

TRACE_COLUMNS = ("timestamp", "current_a", "soc", "voltage", "full_charge", "floating")
_NO_TIME = timedelta(0)
_ONE_MICROSECOND = timedelta(microseconds=1)


@dataclass(slots=True)
class TraceRecord:
    t_h: float
    current_a: float  # battery current, charge positive
    soc: float
    voltage: float
    full_charge: bool  # full recharge declared this step
    floating: bool


STRESS_LOW_SOC = 0.5  # time below this state of charge counts as low


@dataclass(frozen=True)
class StressFactors:
    """Operating-stress summary of a battery trace."""

    duration_days: float
    charge_ah: float
    discharge_ah: float
    charge_factor: float | None  # charged over discharged Ah
    full_equivalent_cycles: float
    highest_discharge_rate_a: float
    time_at_low_soc_h: float  # below STRESS_LOW_SOC
    n_full_charges: int
    full_recharge_day_fraction: float
    time_between_full_mean_h: float | None
    time_between_full_max_h: float | None
    partial_cycle_depths: tuple[int, ...]  # counts in 0.1-wide depth bins
    float_hours_per_day: float

    @classmethod
    def from_totals(
        cls,
        capacity_ah: float,
        dt_h: float,
        steps: int,
        charge_ah: float,
        discharge_ah: float,
        max_discharge_a: float,
        low_soc_h: float,
        float_h: float,
        full_charge_times: list[float],
        depth_bins: list[int],
    ) -> StressFactors:
        """The stress factors of a trace of `steps` records, from the running
        sums that StressAccumulator.add keeps (run_scenario keeps the same
        sums in its _kernel.State), full charges at full_charge_times (h).
        The mean gap between full charges sums the gaps left to right, which
        the builtin sum does not do on every Python version (3.12
        compensates it)."""
        duration_days = steps * dt_h / 24.0
        # a duration within 1e-9 day above a whole day is the rounding error
        # of a dt_h such as 96 s / 3600, not a further day
        whole_days = max(math.ceil(duration_days - 1e-9), 1)
        gaps = [b - a for a, b in zip(full_charge_times, full_charge_times[1:])]
        full_days = {int(t // 24.0) for t in full_charge_times}
        return cls(
            duration_days=duration_days,
            charge_ah=charge_ah,
            discharge_ah=discharge_ah,
            charge_factor=charge_ah / discharge_ah if discharge_ah > 0 else None,
            full_equivalent_cycles=discharge_ah / capacity_ah,
            highest_discharge_rate_a=max_discharge_a,
            time_at_low_soc_h=low_soc_h,
            n_full_charges=len(full_charge_times),
            full_recharge_day_fraction=len(full_days) / whole_days,
            time_between_full_mean_h=reduce(operator.add, gaps) / len(gaps) if gaps else None,
            time_between_full_max_h=max(gaps) if gaps else None,
            partial_cycle_depths=tuple(depth_bins),
            float_hours_per_day=float_h / duration_days if duration_days else 0.0,
        )


class StressAccumulator:
    """Streams per-step battery records into stress-factor statistics."""

    N_DEPTH_BINS = 10

    def __init__(self, capacity_ah: float, dt_h: float):
        for name, value in (("capacity_ah", capacity_ah), ("dt_h", dt_h)):
            if not POSITIVE.accepts(value):
                raise ProfileError(f"{name} must {POSITIVE.rule}: {value!r}")
        self.capacity_ah = capacity_ah
        self.dt_h = dt_h
        self.steps = 0
        self.charge_ah = 0.0
        self.discharge_ah = 0.0
        self.max_discharge_a = 0.0
        self.low_soc_h = 0.0
        self.float_h = 0.0
        self.full_charge_times: list[float] = []
        self.depth_bins = [0] * self.N_DEPTH_BINS
        # lowest soc since the last full charge; None before the first one
        self.min_soc_since_full: float | None = None

    def add(
        self, current_a: float, soc: float, full_charge: bool, floating: bool
    ) -> None:
        # runs every step: conditionals in place of the min/max builtins,
        # keeping their choice on ties and nan (the first argument wins)
        t_h = self.steps * self.dt_h
        self.steps += 1
        if current_a >= 0.0:
            self.charge_ah += current_a * self.dt_h
        else:
            drawn = -current_a
            self.discharge_ah += drawn * self.dt_h
            if drawn > self.max_discharge_a:
                self.max_discharge_a = drawn
        if soc < STRESS_LOW_SOC:
            self.low_soc_h += self.dt_h
        if floating:
            self.float_h += self.dt_h
        low = self.min_soc_since_full
        if low is not None and soc < low:
            self.min_soc_since_full = low = soc
        if full_charge:
            if low is not None:
                depth = 1.0 - low
                idx = int(depth * self.N_DEPTH_BINS) if depth > 0.0 else 0
                if idx > self.N_DEPTH_BINS - 1:
                    idx = self.N_DEPTH_BINS - 1
                self.depth_bins[idx] += 1
            self.full_charge_times.append(t_h)
            self.min_soc_since_full = soc

    def result(self) -> StressFactors:
        return StressFactors.from_totals(
            self.capacity_ah,
            self.dt_h,
            self.steps,
            self.charge_ah,
            self.discharge_ah,
            self.max_discharge_a,
            self.low_soc_h,
            self.float_h,
            self.full_charge_times,
            self.depth_bins,
        )


def stress_factors(
    records: Iterable[TraceRecord], capacity_ah: float, dt_h: float
) -> StressFactors:
    """Stress factors of a battery trace (any iterable of records)."""
    acc = StressAccumulator(capacity_ah, dt_h)
    for r in records:
        acc.add(r.current_a, r.soc, r.full_charge, r.floating)
    if acc.steps == 0:
        raise ProfileError("empty trace")
    return acc.result()


_TRACE_VALUES = operator.attrgetter("current_a", "soc", "voltage")
_TRACE_MARKS = operator.attrgetter("full_charge", "floating")

# Records a TraceWriter holds before it writes them out, and the rows of
# a flat profile that write_profile_csv writes at once.
TRACE_BLOCK = 1024


class TraceWriter:
    """Writes a trace CSV: :meth:`append` each record, or hand it a run's
    steps a day at a time with :meth:`write_steps`, then :meth:`close`.
    Appended records are written in blocks of TRACE_BLOCK, so a run that
    streams its trace here holds no more than one day of steps, or one
    block of records.  Every row is formatted by _kernel.format_rows.  As
    a context manager it closes the file on leaving: by :meth:`close`
    when the block ends normally, and as it stands on an exception.

    Each record is stamped ``(start + timedelta(hours=t_h)).isoformat()``,
    taken from :func:`_grid_stamps` where the records lie on a grid.  Let
    dt_h, the second record's t_h, be m / 2**e in lowest terms and a whole
    number s of microseconds, so that 2**e divides 3.6e9 = 2**10 * 3**2 *
    5**8 and e <= 10.  Record k takes template stamp k when ``t_h == k *
    dt_h`` and ``k * m < 2**53``.  The product k * dt_h is then exact, so
    t_h is k*m / 2**e hours.  ``timedelta`` multiplies its whole hours as
    integers and its fraction r / 2**e by 3.6e9 in floating point; that
    product is a whole number below 2**53, so it is exact, nothing is
    left to round, and the timedelta is k*s microseconds: the template's
    ``k * step``.  Every other record takes the arithmetic, and so does
    every record of a grid whose dt_h is no binary fraction (600 s or 96
    s).
    """

    def __init__(self, path: str, start: datetime) -> None:
        self.start = start
        self._block: list[TraceRecord] = []
        self._written = 0  # records written before the block
        # Record k may take template stamp k while k <= k_max; off a
        # template grid k_max is -1.  Set by the first rows written.
        self._dt_h = None
        self._k_max = -1
        self._stamps: Iterator[str] | None = None
        self._fh = open(path, "wb")
        self._fh.write(",".join(TRACE_COLUMNS).encode() + b"\r\n")

    def append(self, record: TraceRecord) -> None:
        block = self._block
        block.append(record)
        if len(block) == TRACE_BLOCK:
            self._write_block()

    def write_steps(self, first: int, n: int, dt_h: float, values: array, marks: array) -> None:
        """Write steps first .. first + n - 1 of a run, step i at t_h = i *
        dt_h, after the records appended before: values (an array "d")
        holds each step's current_a, soc and voltage, and marks (an array
        "b") its full_charge and floating, row after row, as the step
        kernel leaves them."""
        if self._block:
            self._write_block()
        if self._stamps is None:
            self._grid(dt_h)
        self._write(list(map(dt_h.__mul__, range(first, first + n))), values, marks)

    def close(self) -> None:
        """Write the records still held and close the file."""
        with self._fh:
            if self._block:
                self._write_block()

    def __enter__(self) -> TraceWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._fh.close()

    def _grid(self, dt_h: float | None) -> None:
        """Set the template grid of a trace whose second record is at dt_h."""
        # The stamps are "" once they end at datetime.max, and those
        # records take the arithmetic, which raises as it does for any
        # record past datetime.max.
        self._stamps = repeat("")
        self._dt_h = dt_h
        if isinstance(dt_h, float) and 0.0 < dt_h < math.inf:  # else the arithmetic
            m, two_e = dt_h.as_integer_ratio()
            step_us, inexact = divmod(m * 3_600_000_000, two_e)
            if not inexact and step_us <= 86_400_000_000:
                grid = _grid_stamps(self.start, timedelta(microseconds=step_us))
                if grid is not None:
                    self._k_max, self._stamps = (2**53 - 1) // m, chain(grid, self._stamps)

    def _write_block(self) -> None:
        block, self._block = self._block, []
        if self._stamps is None:
            self._grid(block[1].t_h if len(block) > 1 else None)
        values = array("d", chain.from_iterable(map(_TRACE_VALUES, block)))
        marks = array("b", chain.from_iterable(map(_TRACE_MARKS, block)))
        self._write([record.t_h for record in block], values, marks)

    def _write(self, t_hs: list[float], values: array, marks: array) -> None:
        """Write the rows at t_hs, with their values and marks."""
        start, dt_h, k_max = self.start, self._dt_h, self._k_max
        stamps = (
            stamp if k <= k_max and t_h == k * dt_h and stamp
            else (start + timedelta(hours=t_h)).isoformat()
            # t_hs first, so that zip takes no stamp past their end
            for t_h, k, stamp in zip(t_hs, count(self._written), self._stamps)
        )
        self._written += len(t_hs)
        _write_rows(self._fh, stamps, values, 3, marks, 2)


def write_trace_csv(
    path: str, records: Iterable[TraceRecord], start: datetime
) -> None:
    """Write a trace, each record stamped `start` plus its t_h, through a
    :class:`TraceWriter`."""
    with TraceWriter(path, start) as writer:
        for record in records:
            writer.append(record)


_FLAGS = ("1", "True", "true")


def read_trace_csv(path: str) -> Iterator[TraceRecord]:
    """Stream a trace CSV written by a :class:`TraceWriter`.

    The rows must be evenly spaced: each timestamp is the first row's
    interval after the one before it, so a gap, a repeated row or rows
    out of order are a :class:`ProfileError` naming the line.  The
    writer rounds each timestamp to the microsecond, so at a step that
    is not a whole number of microseconds (86400 s / 7, say) intervals
    may differ from the first by that microsecond, and no more.

    Each row's timestamp is parsed and checked against the first row's
    (t0), the previous row's and the interval, with one shortcut: while
    every row from the third on has matched :func:`_grid_stamps` of t0
    and the interval, a stamp string equal to the grid's next is not
    parsed.  It is t0 + k*step, one step after the row before it, and
    its ``(ts - t0).total_seconds()`` is the integer true division
    k*step_us / 10**6 made here.
    """
    t0 = prev = step = stamps = None  # stamps: the grid's, while every row has matched
    rows = chain.from_iterable(
        zip(linenos, zip(*cells)) for linenos, cells in _csv_blocks(path, TRACE_COLUMNS)
    )
    for k, (lineno, (stamp, current_a, soc, voltage, full_charge, floating)) in enumerate(rows):
        try:
            if stamps is not None and stamp == next(stamps, None):
                t_h = k * step_us / 1_000_000 / 3600.0
            else:
                if stamps is not None:  # the first row off the grid, or past its end
                    stamps, prev = None, t0 + (k - 1) * step
                ts = datetime.fromisoformat(stamp.strip())
                if prev is None:
                    t0 = ts
                else:
                    interval = ts - prev
                    if step is None:
                        step = interval
                    if interval <= _NO_TIME:
                        raise ValueError("timestamps not strictly increasing")
                    if abs(interval - step) > _ONE_MICROSECOND:
                        raise ValueError(
                            f"timestamp {ts.isoformat()} is {interval} after the "
                            f"previous row, not the trace's interval of {step}"
                        )
                    if k == 1 and (stamps := _grid_stamps(t0, step)) is not None:
                        stamps = islice(stamps, 2, None)
                        step_us = step // _ONE_MICROSECOND
                prev = ts
                t_h = (ts - t0).total_seconds() / 3600.0
            record = TraceRecord(
                t_h,
                float(current_a),
                float(soc),
                float(voltage),
                full_charge.strip() in _FLAGS,
                floating.strip() in _FLAGS,
            )
        except (ValueError, TypeError) as exc:  # TypeError: naive and aware mixed
            raise ProfileError(f"{path}: line {lineno}: {exc}") from exc
        yield record

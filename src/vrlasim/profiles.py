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
import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Iterable, Iterator, Sequence

SECONDS_PER_DAY = 86400.0


class ProfileError(ValueError):
    """Bad profile data or parameters; message carries the location."""


@dataclass(frozen=True)
class GapReport:
    """How much of an ingested series had to be hold-filled."""

    total_slots: int
    filled_slots: int
    longest_fill_run: int

    @property
    def fill_fraction(self) -> float:
        return self.filled_slots / self.total_slots if self.total_slots else 0.0


@dataclass
class TimeSeries:
    """Uniform profile of system inputs.

    Attributes:
        start: Timestamp of the first sample.
        dt_s: Sample spacing (s).
        load_w: Load power demand (W).
        solar_w: Solar power available at the panel output (W).
        temp_c: Ambient temperature (degC), used directly as battery
            temperature (no thermal model).
        panel_rating_w: Upper bound the solar column must respect.
    """

    start: datetime
    dt_s: float
    load_w: list[float]
    solar_w: list[float]
    temp_c: list[float]
    panel_rating_w: float = 50.0
    gap_report: GapReport | None = None

    def __post_init__(self) -> None:
        n = len(self.load_w)
        if len(self.solar_w) != n or len(self.temp_c) != n:
            raise ProfileError("load, solar and temperature lengths differ")
        if n == 0:
            raise ProfileError("empty profile")
        if self.dt_s <= 0:
            raise ProfileError("dt_s must be positive")
        # negated comparisons, so that nan fails them too
        inf = math.inf
        for i, p in enumerate(self.load_w):
            if not 0.0 <= p < inf:
                raise ProfileError(
                    f"load_w sample {i} is negative or not finite: {p}"
                )
        top = self.panel_rating_w + 1e-9
        for i, p in enumerate(self.solar_w):
            if not p >= 0 or p > top:
                raise ProfileError(
                    f"solar_w sample {i} outside [0, {self.panel_rating_w}]: {p}"
                )
        if not all(map(math.isfinite, self.temp_c)):
            i = next(i for i, t in enumerate(self.temp_c) if not math.isfinite(t))
            raise ProfileError(f"temp_c sample {i} is not finite: {self.temp_c[i]}")

    def __len__(self) -> int:
        return len(self.load_w)

    def duration_days(self) -> float:
        return len(self) * self.dt_s / SECONDS_PER_DAY

    def mean_daily_load_wh(self) -> float:
        total = sum(self.load_w) * self.dt_s / 3600.0
        return total / self.duration_days()

    def mean_daily_solar_wh(self) -> float:
        total = sum(self.solar_w) * self.dt_s / 3600.0
        return total / self.duration_days()


@dataclass(frozen=True)
class UseArchetype:
    """Synthetic household consumption pattern.

    nonuse_run_days > 0 inserts runs of zero-load days between active
    runs, modelling households that leave the system idle for stretches.
    """

    name: str
    daily_energy_wh: float
    evening_fraction: float = 0.7  # share of daily energy after sunset
    nonuse_run_days: int = 0
    active_run_days: int = 7
    stochastic_seed: int = 0

    def __post_init__(self) -> None:
        if self.daily_energy_wh < 0:
            raise ProfileError("daily_energy_wh cannot be negative")
        if not 0.0 <= self.evening_fraction <= 0.9:
            raise ProfileError("evening_fraction must lie in [0, 0.9]")


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

# Within-day load placement (fractions of the day's energy).
PREDAWN_WINDOW = (5.0, 6.0)
PREDAWN_SHARE = 0.10
DAYTIME_WINDOW = (9.0, 17.0)
EVENING_WINDOW = (18.0, 23.0)


def solar_power(hour: float, peak_w: float) -> float:
    """Half-sine solar profile between sunrise and sunset."""
    if hour < SUNRISE_H or hour >= SUNSET_H:
        return 0.0
    span = SUNSET_H - SUNRISE_H
    return peak_w * math.sin(math.pi * (hour - SUNRISE_H) / span)


def ambient_temperature(hour: float) -> float:
    """Diurnal ambient sinusoid, 22-32 degC with the peak mid-afternoon."""
    return 27.0 + 5.0 * math.sin(2.0 * math.pi * (hour - 9.0) / 24.0)


def _day_load_blocks(daily_wh: float, evening_fraction: float) -> list[tuple[float, float, float]]:
    """(start_h, end_h, power_w) blocks for one day's consumption."""
    daytime_share = 1.0 - evening_fraction - PREDAWN_SHARE
    blocks = []
    for (h0, h1), share in (
        (PREDAWN_WINDOW, PREDAWN_SHARE),
        (DAYTIME_WINDOW, daytime_share),
        (EVENING_WINDOW, evening_fraction),
    ):
        if share <= 0.0:
            continue
        power = daily_wh * share / (h1 - h0)
        blocks.append((h0, h1, power))
    return blocks


def generate_archetype(
    archetype: UseArchetype,
    days: int,
    seed: int | None = None,
    dt_s: float = 900.0,
    start: datetime = datetime(2023, 1, 1),
    panel_rating_w: float = 50.0,
) -> TimeSeries:
    """Build a synthetic profile for an archetype.

    Deterministic for a given (archetype, days, seed, dt_s): the same
    call always returns the identical series.

    Args:
        days: Number of whole days to generate.
        seed: RNG seed; falls back to the archetype's stochastic_seed.
    """
    if days <= 0:
        raise ProfileError("days must be positive")
    steps_per_day = SECONDS_PER_DAY / dt_s
    if abs(steps_per_day - round(steps_per_day)) > 1e-9:
        raise ProfileError("dt_s must divide a day evenly")
    steps_per_day = int(round(steps_per_day))
    rng = random.Random(archetype.stochastic_seed if seed is None else seed)

    # day-level draws: weather factor and whether the household uses power
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

    load: list[float] = []
    solar: list[float] = []
    temp: list[float] = []
    dt_h = dt_s / 3600.0
    for d in range(days):
        blocks = _day_load_blocks(energy[d], archetype.evening_fraction)
        peak = panel_rating_w * weather[d]
        for k in range(steps_per_day):
            hour = k * dt_h
            p = 0.0
            for h0, h1, watts in blocks:
                if h0 <= hour < h1:
                    p = watts
                    break
            load.append(p)
            solar.append(solar_power(hour, peak))
            temp.append(ambient_temperature(hour))

    return TimeSeries(
        start=start,
        dt_s=dt_s,
        load_w=load,
        solar_w=solar,
        temp_c=temp,
        panel_rating_w=panel_rating_w,
    )


# ---------------------------------------------------------------------------
# CSV input and output

PROFILE_COLUMNS = ("timestamp", "load_w", "solar_w", "temp_c")


def write_profile_csv(series: TimeSeries, path: str) -> None:
    """Write a profile in the dialect :func:`ingest_csv` reads back."""
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


def ingest_csv(
    path: str,
    dt_s: float | None = None,
    column_map: dict[str, str] | None = None,
    max_fill_fraction: float = 0.2,
    panel_rating_w: float = 50.0,
) -> TimeSeries:
    """Read a logged profile CSV onto a uniform grid.

    Rows must carry ISO-8601 timestamps in strictly increasing order.
    Values are resampled zero-order-hold onto the target grid; grid
    slots with no fresh sample count as filled, and a series needing
    more than max_fill_fraction of its slots filled is rejected.

    Args:
        dt_s: Target grid spacing; defaults to the first sample spacing.
        column_map: Maps the canonical names (timestamp, load_w,
            solar_w, temp_c) to the file's column names.
    """
    cmap = {name: name for name in PROFILE_COLUMNS}
    if column_map:
        cmap.update(column_map)

    times: list[datetime] = []
    rows: list[tuple[float, float, float]] = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ProfileError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ProfileError(f"{path}: empty file")
        missing = [c for c in cmap.values() if c not in reader.fieldnames]
        if missing:
            raise ProfileError(f"{path}: missing columns {missing}")
        for lineno, row in enumerate(reader, start=2):
            try:
                ts = datetime.fromisoformat(row[cmap["timestamp"]].strip())
                vals = (
                    float(row[cmap["load_w"]]),
                    float(row[cmap["solar_w"]]),
                    float(row[cmap["temp_c"]]),
                )
            except (ValueError, TypeError, AttributeError) as exc:
                raise ProfileError(f"{path}: line {lineno}: {exc}") from exc
            if times and ts <= times[-1]:
                raise ProfileError(
                    f"{path}: line {lineno}: timestamps not strictly increasing"
                )
            times.append(ts)
            rows.append(vals)

    if len(times) < 2:
        raise ProfileError(f"{path}: need at least two samples")

    if dt_s is None:
        dt_s = (times[1] - times[0]).total_seconds()
    if dt_s <= 0:
        raise ProfileError("dt_s must be positive")

    t0 = times[0]
    span_s = (times[-1] - t0).total_seconds()
    total = int(span_s // dt_s) + 1

    load: list[float] = []
    solar: list[float] = []
    temp: list[float] = []
    filled = 0
    longest = 0
    run = 0
    src = 0
    for i in range(total):
        grid_t = t0 + timedelta(seconds=i * dt_s)
        fresh = False
        while src + 1 < len(times) and times[src + 1] <= grid_t:
            src += 1
            fresh = True
        if i == 0:
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
    if report.fill_fraction > max_fill_fraction:
        raise ProfileError(
            f"{path}: {report.fill_fraction:.0%} of slots required hold-filling "
            f"(limit {max_fill_fraction:.0%})"
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


# ---------------------------------------------------------------------------
# Battery-trace stress factors

TRACE_COLUMNS = ("timestamp", "current_a", "soc", "voltage", "full_charge", "floating")


@dataclass(frozen=True)
class TraceRecord:
    t_h: float
    current_a: float  # battery current, charge positive
    soc: float
    voltage: float
    full_charge: bool  # full recharge declared this step
    floating: bool


@dataclass(frozen=True)
class StressFactors:
    """Operating-stress summary of a battery trace."""

    duration_days: float
    charge_ah: float
    discharge_ah: float
    charge_factor: float | None  # charged over discharged Ah
    full_equivalent_cycles: float
    highest_discharge_rate_a: float
    time_at_low_soc_h: float  # below soc 0.5
    n_full_charges: int
    full_recharge_day_fraction: float
    time_between_full_mean_h: float | None
    time_between_full_max_h: float | None
    partial_cycle_depths: tuple[int, ...]  # counts in 0.1-wide depth bins
    float_hours_per_day: float

    def partial_cycle_count(self) -> int:
        return sum(self.partial_cycle_depths)


class StressAccumulator:
    """Streams per-step battery records into stress-factor statistics."""

    N_DEPTH_BINS = 10

    def __init__(self, capacity_ah: float, dt_h: float, low_soc: float = 0.5):
        self.capacity_ah = capacity_ah
        self.dt_h = dt_h
        self.low_soc = low_soc
        self.steps = 0
        self.charge_ah = 0.0
        self.discharge_ah = 0.0
        self.max_discharge_a = 0.0
        self.low_soc_h = 0.0
        self.float_h = 0.0
        self.full_charge_times: list[float] = []
        self.full_charge_days: set[int] = set()
        self.depth_bins = [0] * self.N_DEPTH_BINS
        self._min_soc_since_full: float | None = None

    def add(
        self, current_a: float, soc: float, full_charge: bool, floating: bool
    ) -> None:
        t_h = self.steps * self.dt_h
        self.steps += 1
        if current_a >= 0.0:
            self.charge_ah += current_a * self.dt_h
        else:
            drawn = -current_a
            self.discharge_ah += drawn * self.dt_h
            self.max_discharge_a = max(self.max_discharge_a, drawn)
        if soc < self.low_soc:
            self.low_soc_h += self.dt_h
        if floating:
            self.float_h += self.dt_h
        if self._min_soc_since_full is not None:
            self._min_soc_since_full = min(self._min_soc_since_full, soc)
        if full_charge:
            if self._min_soc_since_full is not None:
                depth = max(0.0, 1.0 - self._min_soc_since_full)
                idx = min(int(depth * self.N_DEPTH_BINS), self.N_DEPTH_BINS - 1)
                self.depth_bins[idx] += 1
            self.full_charge_times.append(t_h)
            self.full_charge_days.add(int(t_h // 24.0))
            self._min_soc_since_full = soc

    def result(self) -> StressFactors:
        duration_days = self.steps * self.dt_h / 24.0
        whole_days = max(int(math.ceil(duration_days)), 1)
        gaps = [
            b - a
            for a, b in zip(self.full_charge_times, self.full_charge_times[1:])
        ]
        return StressFactors(
            duration_days=duration_days,
            charge_ah=self.charge_ah,
            discharge_ah=self.discharge_ah,
            charge_factor=(
                self.charge_ah / self.discharge_ah if self.discharge_ah > 0 else None
            ),
            full_equivalent_cycles=self.discharge_ah / self.capacity_ah,
            highest_discharge_rate_a=self.max_discharge_a,
            time_at_low_soc_h=self.low_soc_h,
            n_full_charges=len(self.full_charge_times),
            full_recharge_day_fraction=len(self.full_charge_days) / whole_days,
            time_between_full_mean_h=(sum(gaps) / len(gaps)) if gaps else None,
            time_between_full_max_h=max(gaps) if gaps else None,
            partial_cycle_depths=tuple(self.depth_bins),
            float_hours_per_day=self.float_h / duration_days if duration_days else 0.0,
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


def aggregate_fec(records: Iterable[TraceRecord], capacity_ah: float, dt_h: float) -> float:
    """Full equivalent cycles: total discharged Ah over nominal capacity."""
    total = 0.0
    for r in records:
        if r.current_a < 0.0:
            total += -r.current_a * dt_h
    return total / capacity_ah


def write_trace_csv(
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


def read_trace_csv(path: str) -> Iterator[TraceRecord]:
    """Stream a trace CSV written by :func:`write_trace_csv`."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ProfileError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ProfileError(f"{path}: empty file")
        missing = [c for c in TRACE_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ProfileError(f"{path}: missing columns {missing}")
        t0: datetime | None = None
        for lineno, row in enumerate(reader, start=2):
            try:
                ts = datetime.fromisoformat(row["timestamp"].strip())
                if t0 is None:
                    t0 = ts
                yield TraceRecord(
                    t_h=(ts - t0).total_seconds() / 3600.0,
                    current_a=float(row["current_a"]),
                    soc=float(row["soc"]),
                    voltage=float(row["voltage"]),
                    full_charge=row["full_charge"].strip() in ("1", "True", "true"),
                    floating=row["floating"].strip() in ("1", "True", "true"),
                )
            except (ValueError, AttributeError) as exc:
                raise ProfileError(f"{path}: line {lineno}: {exc}") from exc

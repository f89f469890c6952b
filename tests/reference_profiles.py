"""The flat-column form of the archetype generator: the reference for
profiles.generate_archetype.

This builds every sample of every day into three columns and hands them
to the flat TimeSeries constructor, which checks them sample by sample.
The program holds a generated profile as days (one-day templates with
each day's block powers and solar peak) and builds no column; the tests
check that both give the same samples, lengths, daily means and errors.
"""

from __future__ import annotations

import random
from datetime import datetime

from vrlasim.profiles import (
    CLEAR_FACTOR,
    DEFAULT_DT_S,
    DEFAULT_PANEL_RATING_W,
    SECONDS_PER_DAY,
    STORM_ENTER_P,
    STORM_FACTOR,
    STORM_STAY_P,
    ProfileError,
    TimeSeries,
    UseArchetype,
    _day_load_blocks,
    ambient_temperature,
    divides_day,
    solar_power,
)


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
    windows = [(h0, h1) for h0, h1, _ in _day_load_blocks(0.0, archetype.evening_fraction)]
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
        powers = [w for _, _, w in _day_load_blocks(energy[d], archetype.evening_fraction)]
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

"""Profile builders and result digests shared by the test modules."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from datetime import datetime

from vrlasim.profiles import TimeSeries

START = datetime(2023, 1, 1)


def constant_profile(
    days: int,
    dt_s: float = 900.0,
    load_w: float = 0.0,
    solar_w: float = 40.0,
    temp_c: float = 25.0,
    panel_rating_w: float = 120.0,
) -> TimeSeries:
    n = int(days * 86400 // dt_s)
    return TimeSeries(
        start=START,
        dt_s=dt_s,
        load_w=[load_w] * n,
        solar_w=[solar_w] * n,
        temp_c=[temp_c] * n,
        panel_rating_w=panel_rating_w,
    )


def cycling_profile(
    days: int,
    dt_s: float = 900.0,
    discharge_w: float = 60.0,
    discharge_hours: tuple[float, float] = (19.0, 22.5),
    solar_hours: tuple[float, float] = (12.0, 18.0),
    solar_w: float = 120.0,
) -> TimeSeries:
    """Nightly constant-power discharge with a solar window sized so the
    full recharge lands shortly before the next discharge."""
    n = int(days * 86400 // dt_s)
    load = []
    solar = []
    for i in range(n):
        h = (i * dt_s % 86400) / 3600.0
        load.append(discharge_w if discharge_hours[0] <= h < discharge_hours[1] else 0.0)
        solar.append(solar_w if solar_hours[0] <= h < solar_hours[1] else 0.0)
    return TimeSeries(
        start=START,
        dt_s=dt_s,
        load_w=load,
        solar_w=solar,
        temp_c=[25.0] * n,
        panel_rating_w=solar_w,
    )


def result_digest(result) -> str:
    """sha256 of ``dataclasses.asdict(result)`` without ``runtime_s``, which
    is dropped from both runs of a comparison too."""
    d = dataclasses.asdict(result)
    for part in (d, d.get("base"), d.get("alt")):
        if isinstance(part, dict):
            part.pop("runtime_s", None)
    payload = json.dumps(d, sort_keys=True, allow_nan=True)
    return hashlib.sha256(payload.encode()).hexdigest()

"""Profile builders, result digests and file contents shared by the test modules."""

from __future__ import annotations

import contextlib
import locale
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import strategies as st

from check_digests import flat, python_path, result_digest
from vrlasim import _kernel
from vrlasim.battery import BatteryParams, GassingParams
from vrlasim.config import ControlSettings, SimSettings
from vrlasim.control import ControlParams, VoltageLimits
from vrlasim.degradation import Datasheet, DegradationParams
from vrlasim.engine import Scenario
from vrlasim.profiles import TimeSeries, UseArchetype

START = datetime(2023, 1, 1)

# Grids whose stamps come from the one-day template in both writers
# (dt_h a binary fraction of whole microseconds), and grids on which the
# trace writer stamps each record by timedelta arithmetic.
TEMPLATE_DT_S = [900.0, 1800.0, 3600.0, 450.0]
ARITHMETIC_DT_S = [600.0, 96.0]

# naive, UTC and fixed-offset starts, with room for any drawn hour offset
offsets = st.timedeltas(min_value=timedelta(hours=-23), max_value=timedelta(hours=23))
starts = st.datetimes(
    min_value=datetime(1990, 1, 1),
    max_value=datetime(2100, 1, 1),
    timezones=st.one_of(st.none(), st.just(timezone.utc), st.builds(timezone, offsets)),
)

# The classes whose numeric fields each carry a declared domain.
PARAMETER_CLASSES = (
    BatteryParams,
    GassingParams,
    VoltageLimits,
    ControlParams,
    Datasheet,
    DegradationParams,
    SimSettings,
    ControlSettings,
    Scenario,
    UseArchetype,
    TimeSeries,
)


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


# The two forms of run_scenario's day loop: the compiled kernel and Python.
STEP_PATHS = ["kernel", "python"]


@contextlib.contextmanager
def step_path(name: str):
    """run_scenario runs every day in the compiled kernel ("kernel", which
    must load, or the test is skipped) or in Python ("python") within."""
    if name == "kernel":
        if _kernel.load() is None:
            pytest.skip("the step kernel could not be built: no working C compiler")
        yield
        return
    with python_path():
        yield


def undecodable() -> bytes:
    """Bytes that are no text in the locale's encoding, which open() reads by."""
    encoding = locale.getpreferredencoding(False)
    for data in (b"\xff\xfe", b"\x81\xff"):
        try:
            data.decode(encoding)
        except UnicodeDecodeError:
            return data
    pytest.skip(f"{encoding} decodes any bytes")

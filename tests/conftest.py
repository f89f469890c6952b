"""Session fixtures: the expensive simulation runs, shared across modules.

The acceptance tests all draw on the same handful of long runs, so those
run once per session, in parallel where it helps.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from helpers import constant_profile, cycling_profile
from vrlasim.control import ControlParams, Policy, adaptive_params
from vrlasim.engine import Scenario, compare_strategies, run_scenario
from vrlasim import profiles
from vrlasim.profiles import ARCHETYPES, generate_archetype

SEED = 42
DT_S = 900.0
HORIZON_YEARS = 15.0
HORIZON_DAYS = int(HORIZON_YEARS * 365) + 1


def pytest_configure(config):
    """The step kernel is built into a cache of the session's own, not the user's."""
    config.kernel_cache = os.environ["XDG_CACHE_HOME"] = tempfile.mkdtemp(prefix="vrlasim-cache-")


def pytest_unconfigure(config):
    shutil.rmtree(config.kernel_cache, ignore_errors=True)


def _archetype_scenario(name: str, dt_s: float = DT_S) -> Scenario:
    profile = generate_archetype(
        ARCHETYPES[name], days=HORIZON_DAYS, seed=SEED, dt_s=dt_s
    )
    return Scenario(
        name=f"{name}_bboxx", profile=profile, dt_s=dt_s, max_years=HORIZON_YEARS
    )


def _run(scenario: Scenario):
    return run_scenario(scenario)


@pytest.fixture
def small_blocks(monkeypatch):
    """The CSV readers read a few rows per block, so that a log of a few
    dozen rows spans many blocks."""
    monkeypatch.setattr(profiles, "CSV_BLOCK_CHARS", 128)


@pytest.fixture(scope="session")
def archetype_runs():
    """BBOXX baseline runs of all four archetypes at the default seed.

    Returns (dict name -> SimResult, fixture wall seconds).
    """
    t0 = time.perf_counter()
    names = list(ARCHETYPES)
    scenarios = [_archetype_scenario(n) for n in names]
    with ProcessPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(_run, scenarios))
    wall = time.perf_counter() - t0
    return dict(zip(names, results)), wall


@pytest.fixture(scope="session")
def archetype_runs_dt450():
    """Same runs at half the time step, for the dt-sensitivity check."""
    names = list(ARCHETYPES)
    scenarios = [_archetype_scenario(n, dt_s=450.0) for n in names]
    with ProcessPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(_run, scenarios))
    return dict(zip(names, results))


@pytest.fixture(scope="session")
def low_use_comparison():
    """Adaptive vs static policy on the shared low-use profile.

    Returns (ComparisonResult, fixture wall seconds).
    """
    t0 = time.perf_counter()
    profile = generate_archetype(
        ARCHETYPES["low"], days=HORIZON_DAYS, seed=SEED, dt_s=DT_S
    )
    base = Scenario(
        name="low_bboxx",
        profile=profile,
        control=ControlParams(policy=Policy.BBOXX_STATIC),
        dt_s=DT_S,
        max_years=HORIZON_YEARS,
    )
    alt = Scenario(
        name="low_adaptive",
        profile=profile,
        control=adaptive_params(),
        dt_s=DT_S,
        max_years=HORIZON_YEARS,
    )
    result = compare_strategies(base, alt)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def bench_runs():
    """Calibration self-consistency runs: pure float and standard cycling.

    Returns (float SimResult, cycling SimResult, fixture wall seconds).
    """
    t0 = time.perf_counter()
    float_run = run_scenario(
        Scenario(
            name="pure_float",
            profile=constant_profile(int(4.5 * 365) + 1, DT_S),
            dt_s=DT_S,
            max_years=6.0,
        )
    )
    cycling_run = run_scenario(
        Scenario(
            name="standard_cycling",
            profile=cycling_profile(3 * 365, DT_S),
            control=ControlParams(cutoff_soc=0.05),
            dt_s=DT_S,
            max_years=3.0,
            initial_soc=1.0,
        )
    )
    return float_run, cycling_run, time.perf_counter() - t0

"""The compiled day loop (vrlasim._kernel, _step.c): its build, its cache,
and its hand-off of a day to the Python loop and back."""

import dataclasses
import logging
import os
import re
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from check_digests import PINNED
from helpers import START, flat, result_digest, step_path
from vrlasim import _kernel, engine
from vrlasim.control import ControlParams, adaptive_params
from vrlasim.degradation import DegradationParams
from vrlasim.engine import Scenario, run_scenario
from vrlasim.profiles import (
    ARCHETYPES,
    LOW_USE,
    ProfileError,
    StressAccumulator,
    TimeSeries,
    TraceWriter,
    generate_archetype,
)

ROOT = Path(__file__).resolve().parents[1]
DAYS = 20
# a run's digest, and whether the kernel loaded, in a fresh interpreter
RUN = (
    "from helpers import result_digest; from vrlasim import _kernel; "
    "from vrlasim.engine import Scenario, run_scenario; "
    "from vrlasim.profiles import LOW_USE, generate_archetype; "
    f"profile = generate_archetype(LOW_USE, {DAYS}, seed=7); "
    f"result = run_scenario(Scenario('k', profile, max_years={DAYS} / 365.0)); "
    "print(_kernel.load() is not None, result_digest(result))"
)


def expected_digest() -> str:
    profile = generate_archetype(LOW_USE, DAYS, seed=7)
    with step_path("kernel"):
        return result_digest(run_scenario(Scenario("k", profile, max_years=DAYS / 365.0)))


def start_run(cache: Path, path: str | None = None) -> subprocess.Popen:
    env = {
        **os.environ,
        "XDG_CACHE_HOME": str(cache),
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
    }
    if path is not None:
        env["PATH"] = path
    return subprocess.Popen(
        [sys.executable, "-c", RUN], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def finish(proc: subprocess.Popen) -> tuple[bool, str]:
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    loaded, digest = out.split()
    return loaded == "True", digest


def cached(cache: Path) -> list[str]:
    return sorted(os.listdir(cache / "vrlasim")) if (cache / "vrlasim").exists() else []


@pytest.mark.parametrize("compiler", ["none", "failing"])
def test_failed_build_takes_the_python_path(tmp_path, compiler):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    if compiler == "failing":
        cc = bin_dir / "cc"
        cc.write_text("#!/bin/sh\nexit 1\n")
        cc.chmod(0o755)
    cache = tmp_path / "cache"
    loaded, digest = finish(start_run(cache, path=str(bin_dir)))
    assert not loaded
    assert digest == expected_digest()
    assert cached(cache) == []  # no library, and no temporary file left


@pytest.mark.parametrize("compiler", ["none", "failing"])
def test_why_the_kernel_did_not_load_is_kept_and_logged_once(
    tmp_path, monkeypatch, caplog, compiler
):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    if compiler == "failing":
        cc.write_text("#!/bin/sh\necho 'error: a token too many' >&2\nexit 1\n")
        cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_kernel, "_loaded", [])
    monkeypatch.setattr(_kernel, "failure", None)
    with caplog.at_level(logging.WARNING, logger=_kernel.__name__):
        assert _kernel.load() is None and _kernel.load() is None
    if compiler == "none":
        assert _kernel.failure == _kernel.NO_COMPILER
    else:
        assert _kernel.failure == f"{cc} could not build {_kernel.SOURCE}:\nerror: a token too many"
    assert [record.getMessage() for record in caplog.records] == [
        f"the step kernel did not load, so every day runs in Python: {_kernel.failure}"
    ]


@pytest.mark.parametrize("compiler", ["none", "failing"])
def test_kernel_cases_skip_only_without_a_compiler(monkeypatch, compiler):
    failure = _kernel.NO_COMPILER if compiler == "none" else "cc could not build _step.c"
    monkeypatch.setattr(_kernel, "_loaded", [None])
    monkeypatch.setattr(_kernel, "failure", failure)
    outcome = pytest.skip.Exception if compiler == "none" else pytest.fail.Exception
    with pytest.raises(outcome, match=failure):
        with step_path("kernel"):
            pass


@pytest.mark.parametrize("symbol", list(_kernel.SIGNATURES))
def test_a_library_without_a_symbol_is_a_load_failure(tmp_path, monkeypatch, symbol):
    """A library that lacks a function load() takes from it does not load:
    `failure` names the symbol, and the row formatter takes its fallback."""
    if shutil.which(_kernel.COMPILER) is None:
        pytest.skip(_kernel.NO_COMPILER)
    source = tmp_path / "_step.c"
    text = Path(_kernel.SOURCE).read_text()
    assert text.count(f" {symbol}(") == 1
    source.write_text(text.replace(f" {symbol}(", f" {symbol}_renamed("))
    monkeypatch.setattr(_kernel, "SOURCE", str(source))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_kernel, "_loaded", [])
    monkeypatch.setattr(_kernel, "_format_rows", None)
    monkeypatch.setattr(_kernel, "failure", None)
    assert _kernel.load() is None
    (library,) = cached(tmp_path / "cache")
    assert _kernel.failure == f"{tmp_path / 'cache' / 'vrlasim' / library} has no symbol {symbol}"
    assert _kernel.format_rows(["t"], array("d", [0.1]), 1, array("b", [1]), 1) == b"t,0.1,1\r\n"


def test_processes_building_into_a_cold_cache_load_a_complete_library(tmp_path):
    cache = tmp_path / "cache"
    runs = [start_run(cache) for _ in range(2)]
    outcomes = [finish(proc) for proc in runs]
    if not any(loaded for loaded, _ in outcomes):
        pytest.skip("the step kernel could not be built: no working C compiler")
    want = expected_digest()
    assert outcomes == [(True, want), (True, want)]
    (library,) = cached(cache)
    assert library.startswith("step-") and library.endswith(".so")


def cold_after_warm(exponent: float) -> Scenario:
    """A day at 25 degC, then one at -40 degC, discharging without sun and
    all below the corrosion threshold: the second day's effective layer
    age is (w / speed) ** (1 / exponent) at about 1/90 of the first day's
    speed."""
    temps = [25.0] * 24 + [-40.0] * 24
    profile = TimeSeries(START, 3600.0, [5.0] * 48, [0.0] * 48, temps, panel_rating_w=60.0)
    degradation = DegradationParams(corrosion_threshold_v=10.0)
    # past the check where parameters enter, which refuses this exponent
    object.__setattr__(degradation, "corrosion_exponent", exponent)
    return Scenario(
        "cold", profile, degradation=degradation, dt_s=3600.0, max_years=2 / 365.0
    )


def outcome(scenario):
    try:
        return result_digest(run_scenario(scenario))
    except Exception as exc:
        return type(exc), str(exc)


def kernel_outcome(scenario):
    """outcome() of the scenario on the kernel path, with what the kernel
    returned for each day."""
    with step_path("kernel"):
        run_day = _kernel.load()
        days = []

        def recorded(*args):
            days.append(run_day(*args))
            return days[-1]

        _kernel._loaded[0] = recorded
        try:
            return outcome(scenario), days
        finally:
            _kernel._loaded[0] = run_day


def test_a_flagged_day_raises_what_the_python_loop_raises():
    scenario = cold_after_warm(0.005)
    with step_path("python"):
        want = outcome(scenario)
    assert want[0] is OverflowError
    assert kernel_outcome(scenario) == (want, [_kernel.DAY_DONE, _kernel.FLAGGED])


def test_an_unflagged_run_matches_the_python_loop():
    scenario = dataclasses.replace(cold_after_warm(0.5), name="mild")
    with step_path("python"):
        want = outcome(scenario)
    with step_path("kernel"):
        assert outcome(scenario) == want
    assert isinstance(want, str)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize(
    "make, case, want",
    PINNED,
    ids=[f"{make.__name__}-" + "-".join(map(str, case)) for make, case, _ in PINNED],
)
def test_days_handed_to_python_and_back_keep_the_digest(make, case, want, k):
    """The kernel flags each day where day % k == 1 without running it, so
    the Python loop takes the state over from the kernel and hands it back
    the next day: the result stays the one pinned."""
    with step_path("kernel"):
        run_day = _kernel.load()
        flagged = []

        def every_kth_flagged(params, state, day, *rest):
            if day % k == 1:
                flagged.append(day)
                return _kernel.FLAGGED
            return run_day(params, state, day, *rest)

        _kernel._loaded[0] = every_kth_flagged
        try:
            result = make(*case)
        finally:
            _kernel._loaded[0] = run_day
    assert flagged[:2] == [1, 1 + k]
    assert result_digest(result) == want


WRAPPED = {
    # 37 samples, 00:00 to 09:00: predawn load and the morning's sun
    "flat_shorter_than_a_day": lambda: flat(generate_archetype(LOW_USE, 2, seed=3), 37),
    "flat_of_part_days": lambda: flat(generate_archetype(LOW_USE, 2, seed=3), 96 + 37),
    "days_replayed": lambda: generate_archetype(LOW_USE, 2, seed=3),
}


@pytest.mark.parametrize("policy", [ControlParams(), adaptive_params()], ids=["static", "adaptive"])
@pytest.mark.parametrize("make", list(WRAPPED.values()), ids=list(WRAPPED))
def test_wrapped_profiles_match_the_python_loop(make, policy):
    """The kernel reads a flat profile at (day * steps_per_day + k) % n and
    a day-form one at day % n_days, as TimeSeries.day gives the Python day
    its samples: five days of a profile shorter than that agree on both
    paths, with no day flagged."""
    scenario = Scenario("wrap", make(), control=policy, max_years=5 / 365.0, record_trace=True)
    with step_path("python"):
        want = outcome(scenario)
    assert isinstance(want, str)
    assert kernel_outcome(scenario) == (want, [_kernel.DAY_DONE] * 5)


def test_reassigned_columns_of_unequal_length_are_refused():
    """The kernel reads a flat profile's columns unchecked, so a column
    reassigned shorter after construction is refused on both paths."""
    profile = flat(generate_archetype(LOW_USE, 2, seed=3), 96 + 37)
    profile.solar_w = profile.solar_w[:-1]
    scenario = Scenario("short", profile, max_years=3 / 365.0)
    for path in ("python", "kernel"):
        with step_path(path):
            assert outcome(scenario) == (ProfileError, "load, solar and temperature lengths differ")


def test_bin_counts_are_the_python_layouts():
    """_step.c defines no bin count of its own: the build flags, which the
    cache key covers, pass the histogram and depth bin counts of the
    Python layout."""
    source = Path(_kernel.SOURCE).read_text()
    for name, count in [
        ("N_SOC_BINS", engine.N_SOC_BINS),
        ("N_VOLTAGE_BINS", engine.N_VOLTAGE_BINS),
        ("N_DEPTH_BINS", StressAccumulator.N_DEPTH_BINS),
    ]:
        assert not re.search(rf"#\s*define\s+{name}\b", source)
        assert f"-D{name}={count}" in _kernel.FLAGS


# Which days the kernel hands to the Python day, of runs that switch
# step paths every day or on two days in three.
SWITCHES = {"odd_days": lambda day: day % 2 == 1, "two_days_in_three": lambda day: day % 3 != 0}


@pytest.mark.parametrize("switch", list(SWITCHES))
@pytest.mark.parametrize("policy", [ControlParams(), adaptive_params()], ids=["static", "adaptive"])
@pytest.mark.parametrize("archetype", ["high", "low", "infrequent"])
def test_runs_that_switch_paths_match_an_all_kernel_run(tmp_path, archetype, policy, switch):
    """The Python day takes the state from the kernel and hands it back
    day after day: the kept trace's result and a TraceWriter's bytes are
    those of a run with every day in the kernel."""
    profile = generate_archetype(ARCHETYPES[archetype], DAYS, seed=7)
    scenario = Scenario("switch", profile, control=policy, max_years=DAYS / 365.0)

    def run(name):
        kept = run_scenario(dataclasses.replace(scenario, record_trace=True))
        with TraceWriter(tmp_path / name, profile.start) as writer:
            run_scenario(scenario, trace=writer)
        return result_digest(kept), (tmp_path / name).read_bytes()

    with step_path("kernel"):
        run_day = _kernel.load()
        want = run("kernel.csv")
        flagged = []

        def switching(params, state, day, *rest):
            if SWITCHES[switch](day):
                flagged.append(day)
                return _kernel.FLAGGED
            return run_day(params, state, day, *rest)

        _kernel._loaded[0] = switching
        try:
            got = run("switched.csv")
        finally:
            _kernel._loaded[0] = run_day
    assert set(flagged) == set(filter(SWITCHES[switch], range(DAYS)))
    assert got == want

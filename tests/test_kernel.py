"""The compiled day loop (vrlasim._kernel, _step.c): its build, its cache,
and its hand-off of a day to the Python loop and back."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from check_digests import PINNED
from helpers import START, flat, result_digest, step_path
from vrlasim import _kernel
from vrlasim.control import ControlParams, adaptive_params
from vrlasim.degradation import DegradationParams
from vrlasim.engine import Scenario, run_scenario
from vrlasim.profiles import LOW_USE, ProfileError, TimeSeries, generate_archetype

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

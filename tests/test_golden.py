"""Bit-identity of simulation results against digests recorded earlier.

Each case runs 60 days and hashes ``dataclasses.asdict(result)`` without
``runtime_s`` (of both runs, for a comparison), the same digest the
benchmark checks.  A change that alters any float in the result, by even
one bit, changes the digest.  A change that is meant to alter results
must say why and record new digests.  Generated profiles are pinned the
same way, through ``float.hex`` of every sample.  The result and profile
digests are kept in tests/check_digests.py, which checks them without
pytest.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from check_digests import (
    DAYS,
    GOLDEN,
    GOLDEN_COMPARE,
    GOLDEN_PROFILE,
    PROFILE_ARCHETYPES,
    PROFILE_DAYS,
    PROFILE_DT_S,
    SEED,
    compare,
    profile_digest,
    result_digest,
    run,
)
from helpers import STEP_PATHS, step_path
from vrlasim.profiles import generate_archetype

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", STEP_PATHS)
@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_result_digest_unchanged(case, path):
    with step_path(path):
        result = run(*case)
    assert result.lifetime_days == DAYS
    assert (result.trace is not None) == case[2]
    assert result_digest(result) == GOLDEN[case]


@pytest.mark.parametrize("path", STEP_PATHS)
@pytest.mark.parametrize(
    "case", list(GOLDEN_COMPARE), ids=lambda c: "-".join(map(str, c))
)
def test_comparison_digest_unchanged(case, path):
    with step_path(path):
        result = compare(*case)
    assert result.base.lifetime_days == result.alt.lifetime_days == DAYS
    assert (result.alt.trace is not None) == case[1]
    assert result_digest(result) == GOLDEN_COMPARE[case]


def digest_script(python: str, cache: str) -> str:
    """The output of tests/check_digests.py run by `python`, which must pass."""
    ran = subprocess.run(
        [python, str(ROOT / "tests" / "check_digests.py")],
        env={
            **os.environ,
            "XDG_CACHE_HOME": cache,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
        },
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert ran.returncode == 0, ran.stdout + ran.stderr
    assert ran.stdout.splitlines()[-1] == "every digest matches"
    return ran.stdout


def test_digest_script_passes(request):
    """tests/check_digests.py, which runs without pytest on any installed
    CPython, finds every digest on both paths, with the session's kernel."""
    digest_script(sys.executable, request.config.kernel_cache)


# Further interpreters to run tests/check_digests.py under, as paths
# separated by os.pathsep; none where the variable is unset.
OTHER_PYTHONS = list(filter(None, os.environ.get("VRLASIM_CHECK_PYTHONS", "").split(os.pathsep)))


@pytest.mark.skipif(not OTHER_PYTHONS, reason="VRLASIM_CHECK_PYTHONS names no interpreter")
@pytest.mark.parametrize("python", OTHER_PYTHONS or [None])
def test_digest_script_passes_under_each_named_interpreter(request, python):
    out = digest_script(python, request.config.kernel_cache)
    assert out.startswith("CPython ")


@pytest.mark.parametrize("dt_s", PROFILE_DT_S)
@pytest.mark.parametrize("archetype", list(PROFILE_ARCHETYPES))
def test_profile_digest_unchanged(archetype, dt_s):
    series = generate_archetype(
        PROFILE_ARCHETYPES[archetype], PROFILE_DAYS, seed=SEED, dt_s=dt_s
    )
    assert len(series) == PROFILE_DAYS * round(86400.0 / dt_s)
    assert profile_digest(series) == GOLDEN_PROFILE[(archetype, dt_s)]

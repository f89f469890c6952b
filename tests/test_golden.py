"""Bit-identity of simulation results against digests recorded earlier.

Each case runs 60 days and hashes ``dataclasses.asdict(result)`` without
``runtime_s`` (of both runs, for a comparison), the same digest the
benchmark checks.  A change that alters any float in the result, by even
one bit, changes the digest.  A change that is meant to alter results
must say why and record new digests.  Generated profiles are pinned the
same way, through ``float.hex`` of every sample.  The result digests are
kept in tests/check_digests.py, which checks them without pytest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from check_digests import DAYS, GOLDEN, GOLDEN_COMPARE, SEED, compare, result_digest, run
from helpers import STEP_PATHS, step_path
from vrlasim.profiles import ARCHETYPES, UseArchetype, generate_archetype

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


def test_digest_script_passes(request):
    """tests/check_digests.py, which runs without pytest on any installed
    CPython, finds every digest on both paths, with the session's kernel."""
    ran = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "check_digests.py")],
        env={
            **os.environ,
            "XDG_CACHE_HOME": request.config.kernel_cache,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
        },
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert ran.returncode == 0, ran.stdout + ran.stderr
    assert ran.stdout.splitlines()[-1] == "every digest matches"


PROFILE_DAYS = 40
PROFILE_ARCHETYPES = {
    **ARCHETYPES,
    "evening_0.0": UseArchetype("evening_0.0", 80.0, evening_fraction=0.0),
    "evening_0.9": UseArchetype("evening_0.9", 80.0, evening_fraction=0.9),
    "zero_energy": UseArchetype("zero_energy", 0.0),
}
PROFILE_DT_S = (96.0, 337.5, 900.0, 3600.0, 86400.0)

# (archetype, dt_s) -> sha256 of the 40-day profile at SEED
GOLDEN_PROFILE = {
    ("high", 96.0):
        "4dd50e77f4ac4fceb11cb1c2c479ca8b459b84215ea5aa2df4dbb4f2a484853f",
    ("high", 337.5):
        "79554df90a25c95d5bec90aab33cafe0f96f5224213ebc7a96fd9db2980b21bd",
    ("high", 900.0):
        "a956a17035a2d7553036bb6c75338611419401a086d6025c54280f96d45e3cb9",
    ("high", 3600.0):
        "558e23bed7fe8a3862103927a3917ac4dfd2ca50aac83becff4eb44dea81c665",
    ("high", 86400.0):
        "6f15722d4215000cdb4e20b962b04ba1204f647d01a1eb5c040464f7fb33ac9e",
    ("moderate", 96.0):
        "301a7ced97bb7e9bf784f2e3d7e09112764a6c90b9ab8fd704cd5b65e2822d42",
    ("moderate", 337.5):
        "6e56eac275220e5a2f1d90f0980af37628b85d216686942d6475085226cd948d",
    ("moderate", 900.0):
        "577e685344ce3cd46f9181fa01fec90f53955b79d5d9518e127962437a5f493c",
    ("moderate", 3600.0):
        "d1e80ee71707d65c809916d37b18a3ca183f23558a2a4fbf601ae77219932b7e",
    ("moderate", 86400.0):
        "6f15722d4215000cdb4e20b962b04ba1204f647d01a1eb5c040464f7fb33ac9e",
    ("low", 96.0):
        "92df5613727bbe3d8ef3b56ef6d88b442520733b4e994161db6068cc41bb311c",
    ("low", 337.5):
        "848828fb8dbaef4e300475e058412c8d9e473bfc96124f119df21276a82528fc",
    ("low", 900.0):
        "0f760376a53e54b79f42049a3f944406787d56d6169718ddbfd3ff272984d55c",
    ("low", 3600.0):
        "7c2e028420db9da19808bfb68282ab4d10e4a1633cf2c63cea3253cc7c3ac6bc",
    ("low", 86400.0):
        "6f15722d4215000cdb4e20b962b04ba1204f647d01a1eb5c040464f7fb33ac9e",
    ("infrequent", 96.0):
        "34d88d5c929b8ae7ddfcae74ff2a82837719d6a005c5ed37c555cfeb70ea6500",
    ("infrequent", 337.5):
        "f0e0ca65f2bbe0413248363bef3e7294a6d87799210e05a42f6399c4c89dacd9",
    ("infrequent", 900.0):
        "6b2479117211a9ad24fee31f57e51e8669a33ebd86b538060167cd5106416140",
    ("infrequent", 3600.0):
        "53aafe1c4b8b495ecd1fb3597d10dbf18262b9282db7a2d2cfe3acb7981bb5a5",
    ("infrequent", 86400.0):
        "6f15722d4215000cdb4e20b962b04ba1204f647d01a1eb5c040464f7fb33ac9e",
    ("evening_0.0", 96.0):
        "c0a87929066c88834aee86017dd292dbae5d13a5fa92fba1cfaa092a055ffc8c",
    ("evening_0.0", 337.5):
        "b5917d94dffe64381a332a41087475ee699e80602a431003b6a84b4449079313",
    ("evening_0.0", 900.0):
        "1e553a4afa4bac93af0a6a49d991120a57f0c50029746f969d18fd372d7880a8",
    ("evening_0.0", 3600.0):
        "fb472ce08008c97d062b6051608be16048dd14e173b360f05089950989b84375",
    ("evening_0.0", 86400.0):
        "6f15722d4215000cdb4e20b962b04ba1204f647d01a1eb5c040464f7fb33ac9e",
    ("evening_0.9", 96.0):
        "fa354f56304e58da7eddd62776510a4eadcb0747d66630984464d3dc0f974029",
    ("evening_0.9", 337.5):
        "50948a3cdfa6130a7361ef7323503ff216854128d45169291ba3de4227324f43",
    ("evening_0.9", 900.0):
        "f8a3f7cc20992c1f956b186975cd1ce67661b35e8376946452c058bb27c71712",
    ("evening_0.9", 3600.0):
        "23b297a8e06fe22bc88f35fa23a7957f07f84214d7af17e8bad72efef7cf19d2",
    ("evening_0.9", 86400.0):
        "6f15722d4215000cdb4e20b962b04ba1204f647d01a1eb5c040464f7fb33ac9e",
    ("zero_energy", 96.0):
        "9a2bd1fd2d3f22cb421d58087e754b1a6e6866b1233b62944d373d0d641ababe",
    ("zero_energy", 337.5):
        "4233291c58128f80179cd5dbe3acf4542ea685400b7530cb99790008b9596be1",
    ("zero_energy", 900.0):
        "04876a5225924c7e337c5c276448682423b3343c82114c2e61892a008f793726",
    ("zero_energy", 3600.0):
        "e9deb37914f4006f5a1ddb7d6130e768320ebb1928ac4193668af81b3ad02169",
    ("zero_energy", 86400.0):
        "6f15722d4215000cdb4e20b962b04ba1204f647d01a1eb5c040464f7fb33ac9e",
}


def profile_digest(series) -> str:
    """sha256 of ``float.hex`` of every sample, column by column."""
    h = hashlib.sha256()
    for column in (series.load_w, series.solar_w, series.temp_c):
        h.update(" ".join(map(float.hex, column)).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("dt_s", PROFILE_DT_S)
@pytest.mark.parametrize("archetype", list(PROFILE_ARCHETYPES))
def test_profile_digest_unchanged(archetype, dt_s):
    series = generate_archetype(
        PROFILE_ARCHETYPES[archetype], PROFILE_DAYS, seed=SEED, dt_s=dt_s
    )
    assert len(series) == PROFILE_DAYS * round(86400.0 / dt_s)
    assert profile_digest(series) == GOLDEN_PROFILE[(archetype, dt_s)]

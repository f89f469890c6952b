"""Recompute the pinned result digests on both step paths of run_scenario.

Run with the package importable, for instance from the repository root::

    PYTHONPATH=src python tests/check_digests.py

It needs only the standard library and vrlasim, so it runs on any
installed CPython that the package supports.  Each case of GOLDEN (one
60-day run, on the generated day-form profile and again on its copy as
flat columns, which must give the same digest) and GOLDEN_COMPARE (a
static against adaptive comparison) is run in the compiled kernel, where
one can be built, and in Python.  On each path, GOLDEN_FILES pins the
trace and profile CSVs written from both forms of one case's profile,
and what ingest_csv reads back.  Each profile of GOLDEN_PROFILE (40
generated days) is generated once.  The script prints one line per run,
file or profile and exits 1 if any digest differs, or if a C compiler is
on PATH but the kernel does not load.  ``tests/test_golden.py`` imports
the digests, ``result_digest`` and ``profile_digest`` from here, so they
are kept in one place.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import sys
import tempfile

from vrlasim import _kernel
from vrlasim.control import ControlParams, Policy, adaptive_params
from vrlasim.engine import Scenario, compare_strategies, run_scenario
from vrlasim.profiles import (
    ARCHETYPES,
    TimeSeries,
    TraceWriter,
    UseArchetype,
    generate_archetype,
    ingest_csv,
    write_profile_csv,
)

DAYS = 60
SEED = 42

# (archetype, policy, record_trace) -> sha256 of the result
GOLDEN = {
    ("high", "bboxx_static", False):
        "a4670bb3db9600d9e476c7072a1361b4514189ed91cbcbe670ffe0ea0b88aa04",
    ("high", "adaptive", False):
        "c3f87cef3a9377906dd37da2512b442aed62958059c07c7f4d4f61e51f6ba7cf",
    ("moderate", "bboxx_static", False):
        "79791b6b4444b441baac81ff740f026818e0e567f2c360c1cd56164174563fa4",
    ("moderate", "adaptive", False):
        "046b49452f7f2ebf5c66c3bcfe63827e337f37482561faee32dc45f8ed8b52fc",
    ("low", "bboxx_static", False):
        "2153723195fde90a2e3294a25a33e72202636bef615763e49c3228bdf34334b3",
    ("low", "adaptive", False):
        "061e2563a6057b6f920d052655008d28e5baf478eb3c29570e42ea5f1c769413",
    ("infrequent", "bboxx_static", False):
        "eb212b23235a55672ebebc15c0fe63383a2babb58c8952f9b3621704ad0a587b",
    ("infrequent", "adaptive", False):
        "b73a2316f2767a25a2aab1324a6328227208dc8f54cfb21efd1e31417c733a99",
    ("low", "bboxx_static", True):
        "593ecd2466472e7994bed2fef22bfbd3ac8312320eff5a5c5f092f456670dc05",
}

# (archetype, record_trace) -> sha256 of static against adaptive
GOLDEN_COMPARE = {
    ("low", False):
        "71b6ef22d652a1b98a291d71b9684fb8af2e4d3c3a60a576ac8d7ac8e7bfa71a",
    ("low", True):
        "926ec553d664c7512afd739536d1079d554a451b134ca9a480b7a4daef7a3767",
}


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

# The CSV files of the ("low", "bboxx_static") case, written from its
# generated profile and again from that profile as flat columns, which
# must give the same bytes: file -> sha256.  "ingest" is the
# profile_digest of ingest_csv of the profile file.
GOLDEN_FILES = {
    "trace": "8499bf7a251be10a9cbf7edc1fc8ae576ed8c340cb264477241061ae9898046f",
    "profile": "384793f6e87eb0ccf4871a9acf56a94d53432338a1808535e082bbf530af03dd",
    "ingest": "dfbc53f01be2d7a6d39716bcfc9822944380daf7125c0983fdc596907491160c",
}


def profile_digest(series) -> str:
    """sha256 of ``float.hex`` of every sample, column by column."""
    h = hashlib.sha256()
    for column in (series.load_w, series.solar_w, series.temp_c):
        h.update(" ".join(map(float.hex, column)).encode())
        h.update(b"\n")
    return h.hexdigest()


def result_digest(result) -> str:
    """sha256 of ``dataclasses.asdict(result)`` without ``runtime_s``, which
    is dropped from both runs of a comparison too."""
    d = dataclasses.asdict(result)
    for part in (d, d.get("base"), d.get("alt")):
        if isinstance(part, dict):
            part.pop("runtime_s", None)
    payload = json.dumps(d, sort_keys=True, allow_nan=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def scenario(archetype: str, policy: str, record_trace: bool, profile=None) -> Scenario:
    if profile is None:
        profile = generate_archetype(ARCHETYPES[archetype], DAYS, seed=SEED)
    control = (
        adaptive_params()
        if policy == Policy.ADAPTIVE.value
        else ControlParams(policy=Policy.BBOXX_STATIC)
    )
    return Scenario(
        name=f"{archetype}_{policy}",
        profile=profile,
        control=control,
        max_years=DAYS / 365.0,
        record_trace=record_trace,
    )


def run(archetype: str, policy: str, record_trace: bool):
    return run_scenario(scenario(archetype, policy, record_trace))


def flat(series: TimeSeries, n: int | None = None) -> TimeSeries:
    """The flat-column rebuild of a profile, of its first n samples."""
    return TimeSeries(
        series.start,
        series.dt_s,
        series.load_w[:n],
        series.solar_w[:n],
        series.temp_c[:n],
        panel_rating_w=series.panel_rating_w,
    )


def run_flat(archetype: str, policy: str, record_trace: bool):
    """run() on the case's profile rebuilt as flat columns, which the
    kernel reads in the other of its two forms: the digest is the same."""
    profile = flat(generate_archetype(ARCHETYPES[archetype], DAYS, seed=SEED))
    return run_scenario(scenario(archetype, policy, record_trace, profile))


def compare(archetype: str, record_trace: bool):
    base = scenario(archetype, Policy.BBOXX_STATIC.value, record_trace)
    alt = scenario(archetype, Policy.ADAPTIVE.value, record_trace, base.profile)
    return compare_strategies(base, alt)


def written_digests(profile: TimeSeries) -> dict[str, str]:
    """The digests of GOLDEN_FILES: the trace CSV of the low static run on
    `profile` through a TraceWriter, the profile's CSV, and the profile
    that ingest_csv reads back from it."""
    with tempfile.TemporaryDirectory() as root:
        trace, written = os.path.join(root, "trace.csv"), os.path.join(root, "profile.csv")
        with TraceWriter(trace, profile.start) as writer:
            run_scenario(scenario("low", Policy.BBOXX_STATIC.value, False, profile), trace=writer)
        write_profile_csv(profile, written)
        digests = {}
        for name, path in (("trace", trace), ("profile", written)):
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        ingested = ingest_csv(written, panel_rating_w=profile.panel_rating_w)
        digests["ingest"] = profile_digest(ingested)
    return digests


def written_from(form: str) -> dict[str, str]:
    """written_digests of the low case's generated profile, or of its copy
    as flat columns."""
    profile = generate_archetype(ARCHETYPES["low"], DAYS, seed=SEED)
    return written_digests(flat(profile) if form == "flat" else profile)


# Every pinned case: (what runs it, its arguments, the digest)
PINNED = [(run, case, want) for case, want in GOLDEN.items()]
PINNED += [(run_flat, case, want) for case, want in GOLDEN.items()]
PINNED += [(compare, case, want) for case, want in GOLDEN_COMPARE.items()]


@contextlib.contextmanager
def python_path():
    """run_scenario runs every day in Python within, as where no kernel loads."""
    saved = _kernel._loaded[:]
    _kernel._loaded[:] = [None]
    try:
        yield
    finally:
        _kernel._loaded[:] = saved


def mismatches() -> int:
    """Runs every case on each path that loads and generates every pinned
    profile, printing one line for each; the number of digests that differ."""
    paths = [("python", python_path)]
    if _kernel.load() is not None:
        paths.insert(0, ("kernel", contextlib.nullcontext))
    else:
        print(f"kernel: not loaded ({_kernel.failure}); checking the Python path only")
    wrong = 0
    for name, path in paths:
        for make, case, want in PINNED:
            with path():
                got = result_digest(make(*case))
            ok = got == want
            wrong += not ok
            label = f"{name} {make.__name__} {'-'.join(map(str, case))}"
            print(f"{label}: {'ok' if ok else f'MISMATCH {got}'}")
        for form in ("generated", "flat"):
            with path():
                written = written_from(form)
            for file, want in GOLDEN_FILES.items():
                got = written[file]
                wrong += got != want
                print(f"{name} {file} from {form}: {'ok' if got == want else f'MISMATCH {got}'}")
    for (archetype, dt_s), want in GOLDEN_PROFILE.items():
        series = generate_archetype(
            PROFILE_ARCHETYPES[archetype], PROFILE_DAYS, seed=SEED, dt_s=dt_s
        )
        got = profile_digest(series)
        wrong += got != want
        print(f"profile {archetype}-{dt_s!r}: {'ok' if got == want else f'MISMATCH {got}'}")
    return wrong


def main() -> int:
    print(f"CPython {platform.python_version()} ({sys.executable})")
    wrong = mismatches()
    print(f"{wrong} digest(s) differ" if wrong else "every digest matches")
    if _kernel.load() is None and _kernel.failure != _kernel.NO_COMPILER:
        print("FAILED: a C compiler is on PATH, but the step kernel did not load")
        return 1
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

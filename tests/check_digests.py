"""Recompute the pinned result digests on both step paths of run_scenario.

Run with the package importable, for instance from the repository root::

    PYTHONPATH=src python tests/check_digests.py

It needs only the standard library and vrlasim, so it runs on any
installed CPython that the package supports.  Each case of GOLDEN (one
60-day run) and GOLDEN_COMPARE (a static against adaptive comparison) is
run in the compiled kernel, where one can be built, and in Python; the
script prints one line per run and exits 1 if any digest differs.
``tests/test_golden.py`` imports the digests and ``result_digest`` from
here, so they are kept in one place.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import platform
import sys

from vrlasim import _kernel
from vrlasim.control import ControlParams, Policy, adaptive_params
from vrlasim.engine import Scenario, compare_strategies, run_scenario
from vrlasim.profiles import ARCHETYPES, generate_archetype

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


def compare(archetype: str, record_trace: bool):
    base = scenario(archetype, Policy.BBOXX_STATIC.value, record_trace)
    alt = scenario(archetype, Policy.ADAPTIVE.value, record_trace, base.profile)
    return compare_strategies(base, alt)


# Every pinned case: (what runs it, its arguments, the digest)
PINNED = [(run, case, want) for case, want in GOLDEN.items()]
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
    """Runs every case on each path that loads, printing one line a run;
    the number of digests that differ."""
    paths = [("python", python_path)]
    if _kernel.load() is not None:
        paths.insert(0, ("kernel", contextlib.nullcontext))
    else:
        print("kernel: not built (no working C compiler); checking the Python path only")
    wrong = 0
    for name, path in paths:
        for make, case, want in PINNED:
            with path():
                got = result_digest(make(*case))
            ok = got == want
            wrong += not ok
            label = f"{name} {make.__name__} {'-'.join(map(str, case))}"
            print(f"{label}: {'ok' if ok else f'MISMATCH {got}'}")
    return wrong


def main() -> int:
    print(f"CPython {platform.python_version()} ({sys.executable})")
    wrong = mismatches()
    print(f"{wrong} digest(s) differ" if wrong else "every digest matches")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

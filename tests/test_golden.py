"""Bit-identity of simulation results against digests recorded earlier.

Each case runs 60 days and hashes ``dataclasses.asdict(result)`` without
``runtime_s`` (of both runs, for a comparison), the same digest the
benchmark checks.  A change that alters any float in the result, by even
one bit, changes the digest.  A change that is meant to alter results
must say why and record new digests.
"""

import pytest

from helpers import result_digest
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


def scenario(archetype: str, policy: str, record_trace: bool, profile=None):
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


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_result_digest_unchanged(case):
    result = run(*case)
    assert result.lifetime_days == DAYS
    assert (result.trace is not None) == case[2]
    assert result_digest(result) == GOLDEN[case]


@pytest.mark.parametrize(
    "case", list(GOLDEN_COMPARE), ids=lambda c: "-".join(map(str, c))
)
def test_comparison_digest_unchanged(case):
    result = compare(*case)
    assert result.base.lifetime_days == result.alt.lifetime_days == DAYS
    assert (result.alt.trace is not None) == case[1]
    assert result_digest(result) == GOLDEN_COMPARE[case]

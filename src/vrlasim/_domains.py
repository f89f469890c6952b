"""The fixed set of parameter domains, and the one checker of declared fields."""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, NamedTuple


class Domain(NamedTuple):
    rule: str  # completes "{key} must ..."
    test: Callable[[Any], bool]  # false for nan; an int domain tests the type too

    def accepts(self, value: Any) -> bool:
        """Whether value is an int or a float, not a bool, that passes the test."""
        return isinstance(value, (int, float)) and not isinstance(value, bool) and self.test(value)


FINITE = Domain("be finite", lambda v: -math.inf < v < math.inf)
NON_NEGATIVE = Domain("be non-negative and finite", lambda v: 0.0 <= v < math.inf)
POSITIVE = Domain("be positive and finite", lambda v: 0.0 < v < math.inf)
UNIT = Domain("lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
OPEN_UNIT = Domain("lie in (0, 1)", lambda v: 0.0 < v < 1.0)
HALF_OPEN_UNIT = Domain("lie in (0, 1]", lambda v: 0.0 < v <= 1.0)
POSITIVE_INT = Domain("be a positive integer", lambda v: isinstance(v, int) and v >= 1)
NON_NEGATIVE_INT = Domain("be a non-negative integer", lambda v: isinstance(v, int) and v >= 0)

# Plausible ambient temperatures (degC).  A log in kelvin read as degC
# (298.15) lies far above the top and would scale corrosion by about 1e8.
TEMP_MIN_C, TEMP_MAX_C = -40.0, 80.0
TEMPERATURE = Domain(
    f"lie in [{TEMP_MIN_C}, {TEMP_MAX_C}]", lambda v: TEMP_MIN_C <= v <= TEMP_MAX_C
)


# The longest rated float life (years).  calibrate_limits steps it an hour
# at a time, so its time grows with it: about 0.25 s at the bound and 0.02 s
# at the default 4 years (CPython 3.11, one core of a 2-core x86-64 VM).
MAX_FLOAT_LIFE_YEARS = 50.0
FLOAT_LIFE = Domain(
    f"lie in [0, {MAX_FLOAT_LIFE_YEARS:g}]", lambda v: 0.0 <= v <= MAX_FLOAT_LIFE_YEARS
)

# The longest horizon (years).  A CLI scenario generates a profile that
# long: a 100-year LOW_USE one in about 0.05 s (CPython 3.11, x86-64 VM).
MAX_HORIZON_YEARS = 100.0
HORIZON = Domain(
    f"lie in (0, {MAX_HORIZON_YEARS:g}]", lambda v: 0.0 < v <= MAX_HORIZON_YEARS
)


def declared(default: Any, domain: Domain | None, unit: str, doc: str) -> Any:
    """A dataclass field with its default (dataclasses.MISSING for none), its
    domain (None for a field only documented), unit ("-" for none) and doc."""
    return dataclasses.field(default=default, metadata=dict(domain=domain, unit=unit, doc=doc))


def same_as(cls: type, name: str) -> Any:
    """A new field with the default and declaration of `cls`'s field `name`."""
    source = cls.__dataclass_fields__[name]
    return dataclasses.field(default=source.default, metadata=source.metadata)


def check_fields(obj: Any, error: type[Exception], prefix: str = "") -> None:
    """Raise `error` naming the first declared field of `obj` out of its
    domain; a field whose default is None may also be None."""
    for f in dataclasses.fields(obj):
        domain = f.metadata.get("domain")  # read only declared fields' values
        if domain is None:
            continue
        value = getattr(obj, f.name)
        if not domain.accepts(value) and not (value is None and f.default is None):
            raise error(f"{prefix}{f.name} must {domain.rule}: {value!r}")

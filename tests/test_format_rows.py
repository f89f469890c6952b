"""The step library's CSV rows (vrlasim._kernel.format_rows, _step.c's
vrlasim_format_rows) against Python's formatting: each double as repr
writes it, and each whole row as ``("%s" + ",%r" * k + ",%d" * j +
"\\r\\n") % row``.  The library must load: these skip only where no C
compiler is on PATH, as every kernel case does."""

import math
import random
import struct
import sys
from array import array
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import starts, step_path
from vrlasim import _kernel

# doubles of every bit pattern: nan payloads, subnormals and both zeros
doubles = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
)

EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    0.0001, 9.999999999999999e-05, 1e16, 9999999999999998.0,
    1e22, 1e23, sys.float_info.max, -sys.float_info.max, sys.float_info.min,
]


@pytest.fixture(autouse=True)
def library():
    with step_path("kernel"):
        yield


def reprs(xs) -> list[str]:
    """Each double of xs as the library writes it."""
    data = _kernel.format_rows([""] * len(xs), array("d", xs), 1, None, 0)
    lines = data.decode().split("\r\n")
    assert lines.pop() == ""
    return [line.removeprefix(",") for line in lines]


def python_rows(stamps, values, k, marks, j) -> bytes:
    line = "%s" + ",%r" * k + ",%d" * j + "\r\n"
    rows = (
        (stamp, *values[r * k : (r + 1) * k], *marks[r * j : (r + 1) * j])
        for r, stamp in enumerate(stamps)
    )
    return "".join(line % row for row in rows).encode()


@settings(max_examples=300, deadline=None)
@given(st.lists(doubles, max_size=50))
def test_doubles_of_any_bits_match_repr(xs):
    assert reprs(xs) == list(map(repr, xs))


def test_edges_match_repr():
    assert reprs(EDGES) == list(map(repr, EDGES))
    assert reprs([5e-324, 1e-05, 1e16]) == ["5e-324", "1e-05", "1e+16"]


def test_every_power_of_two_matches_repr():
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    powers += [-x for x in powers]
    assert reprs(powers) == list(map(repr, powers))


def test_the_first_subnormals_match_repr():
    xs = [struct.unpack("<d", struct.pack("<Q", bits))[0] for bits in range(1, 20_001)]
    assert reprs(xs) == list(map(repr, xs))


def test_random_bit_patterns_match_repr():
    draw = random.Random(2018).getrandbits
    xs = [struct.unpack("<d", struct.pack("<Q", draw(64)))[0] for _ in range(100_000)]
    assert reprs(xs) == list(map(repr, xs))


@st.composite
def row_blocks(draw):
    """(stamps, values, k, marks, j): stamps with microseconds and UTC
    offsets, k doubles and j int8 marks a row."""
    n, k, j = draw(st.integers(0, 12)), draw(st.integers(0, 4)), draw(st.integers(0, 3))
    stamps = [t.isoformat() for t in draw(st.lists(starts, min_size=n, max_size=n))]
    values = draw(st.lists(st.one_of(doubles, st.floats()), min_size=n * k, max_size=n * k))
    marks = draw(st.lists(st.integers(-128, 127), min_size=n * j, max_size=n * j))
    return stamps, array("d", values), k, array("b", marks), j


@settings(max_examples=300, deadline=None)
@given(row_blocks())
def test_rows_match_the_python_format(block):
    assert _kernel.format_rows(*block) == python_rows(*block)


def test_rows_of_stamps_with_microseconds_and_offsets():
    offset = timezone(timedelta(hours=23, minutes=59, seconds=59, microseconds=999999))
    stamps = [
        datetime(2023, 1, 1, 0, 0, 0, 1).isoformat(),
        datetime(2023, 6, 1, 7, 30, 0, 250000, timezone(timedelta(hours=-5))).isoformat(),
        datetime(9999, 12, 31, 23, 59, 59, 999999, offset).isoformat(),
    ]
    values = array("d", [-1.5, 0.75, 12.5, 1e-05, 0.1 + 0.2, 1e16, 5e-324, -0.0, math.nan])
    block = (stamps, values, 3, array("b", [1, 0, 0, 1, -3, 127]), 2)
    assert _kernel.format_rows(*block) == python_rows(*block)


@pytest.mark.parametrize(
    "values, marks",
    [(array("d", [0.0] * 5), array("b", [0] * 4)), (array("d", [0.0] * 6), array("b", [0] * 3)),
     (array("f", [0.0] * 6), array("b", [0] * 4)), (array("d", [0.0] * 6), array("q", [0] * 4))],
)
def test_rows_beyond_the_buffers_or_of_other_types_are_refused(values, marks):
    with pytest.raises(ValueError, match=r'2 rows need 3 doubles \("d"\) and 2 marks \("b"\) each'):
        _kernel.format_rows(["a", "b"], values, 3, marks, 2)

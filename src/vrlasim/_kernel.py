"""The compiled day loop of engine.run_scenario (_step.c), and its loader.

:func:`load` builds _step.c once with the C compiler ``cc`` into a
per-user cache directory (``$XDG_CACHE_HOME/vrlasim``, or
``~/.cache/vrlasim``), under a name keyed by the sha256 of the source,
the compiler and the flags, and opens it with ctypes.  A build writes a
temporary file and renames it into place, so processes that build at
once each load a complete library.  Where no compiler is found or the
build or load fails, :func:`load` returns None and run_scenario runs
every day in Python.

The flags keep every result bit-identical to the Python day, which
calls the layer functions: ``-O2`` reorders no floating-point operation,
``-ffp-contract=off`` forbids fusing a multiply and an add into one
rounding, and neither ``-ffast-math`` nor a ``-march`` that would change
the instructions is given.  :class:`Limits`, :class:`Params`,
:class:`State` and :class:`Profile` mirror _step.c's structs.

A run hands the kernel its whole profile once, as the :class:`Profile`
that :func:`profile` builds: a day-form profile's per-day block powers
and solar peaks and its one-day templates, or a flat profile's three
columns, each copied into one array for the run.  The kernel reads each
step's samples from them as TimeSeries.day gives them, so a day builds
no list or array.

The kernel skips the rest correction's Battery.invert_ocv where it cannot
move the state of charge: where applied == 0.0, soc == soc_v (so soc lies
within the rails [SOC_FLOOR, SOC_CAP]) and v_empty < voltage < v_full.
There voltage == cells * ocv + 0.0 == Battery.ocv(soc), the seed clamp
to [1e-6, 1 - 1e-6] leaves soc as it is, and invert_ocv returns (soc,
False) at its first abs(f) < 1e-12 test, with f == 0.0; adding the jump
of 0.0 leaves correction_jumps as it is, since that sum never holds -0.0.
The voltage test stays: invert_ocv clamps at or outside the span, and
BatteryParams keeps the OCV rising with soc only in real arithmetic, not
ulp by ulp.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from itertools import chain

from .engine import N_SOC_BINS, N_VOLTAGE_BINS
from .profiles import COLUMNS, StressAccumulator, TimeSeries, check_column_lengths

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_step.c")
COMPILER = "cc"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)
BUILD_TIMEOUT_S = 120

# vrlasim_run_day's outcomes
FLAGGED, DAY_DONE, END_OF_LIFE = -1, 0, 1


def _doubles(names: str) -> list[tuple[str, type]]:
    return [(name, ctypes.c_double) for name in names.split()]


def _ints(names: str) -> list[tuple[str, type]]:
    return [(name, ctypes.c_int64) for name in names.split()]


def _pointers(names: str) -> list[tuple[str, type]]:
    return [(name, ctypes.c_void_p) for name in names.split()]


class Limits(ctypes.Structure):
    """A control.VoltageLimits, as _step.c's Limits."""

    _fields_ = _doubles("v_limit v_float temp_coeff_mv_per_c ref_temp_c")


class Params(ctypes.Structure):
    """The constants of one run, as _step.c's Params."""

    _fields_ = [
        *_doubles(
            "dt_s dt_h capacity capacity_as soc_to_ah eff rest_a taper_a eol_ah"
            " soc_cap soc_floor soc_bin_width v_bin_low v_bin_width stress_low_soc"
            " cells b0_ah b1 v_empty v_full c_max swing v_acid v_water m_water"
        ),
        ("ocv_coeffs", ctypes.c_double * 5),
        ("positive_coeffs", ctypes.c_double * 5),
        *_doubles(
            "i_gas_0 c_v c_t v_ref t_ref cutoff_soc reconnect_soc"
        ),
        ("full_limits", Limits),
        ("partial_limits", Limits),
        *_doubles(
            "v_first v_last k_first k_last threshold_v exponent ks_ref_temp_k temp_doubling_k"
            " c_soc0 c_soc_min i_ref i_floor nominal_cycles w_limit c_corr_limit c_deg_limit"
        ),
        *_pointers("ks_potentials ks_segments"),
        *_ints("n_knots adaptive"),
    ]


class State(ctypes.Structure):
    """The state a run carries from step to step, as _step.c's State.

    phase is the index of a control.Phase in definition order; a flag
    is 0 or 1; cycle_min_soc holds a value only once cycling is 1.
    """

    _fields_ = [
        *_doubles(
            "soc v_prev loss w z_w since_full_h min_soc_since_full c_corr c_deg"
            " integral correction_jumps full_reset_jumps clamp_jumps"
            " charge_ah discharge_ah max_discharge_a low_soc_h float_h cycle_min_soc"
            " min_soc_run min_soc_day hours_disconnected load_lost_wh"
        ),
        ("soc_hist", ctypes.c_double * N_SOC_BINS),
        ("v_hist", ctypes.c_double * N_VOLTAGE_BINS),
        ("depth_bins", ctypes.c_int64 * StressAccumulator.N_DEPTH_BINS),
        *_ints(
            "phase disconnected full_set cycling disconnect_events clamp_events"
            " correction_events ks_clamp_events day_full_events last_full_event_day"
            " lifetime_steps"
        ),
    ]


class Profile(ctypes.Structure):
    """A profiles.TimeSeries, as _step.c's Profile: the day form's arrays
    where it has one, with powers NULL otherwise, and the flat columns."""

    _fields_ = [
        *_pointers("powers peaks shape day_temp block_of_step"),
        *_ints("n_days n_blocks"),
        *_pointers("loads solars temps"),
        *_ints("n"),
    ]


def profile(series: TimeSeries) -> Profile:
    """The Profile of `series`, holding the arrays it points into.

    A flat profile's columns are checked again, as TimeSeries.day checks
    them, since the kernel reads them unchecked and one may have been
    reassigned since the profile was constructed.
    """
    days = series._days
    if days is None:
        columns = [array("d", getattr(series, column)) for column in COLUMNS]
        check_column_lengths(*columns)
        arrays = dict(zip(("loads", "solars", "temps"), columns))
        sizes = {"n": len(columns[0])}
    else:
        arrays = {
            # through a list, which array converts in about half the time
            "powers": array("d", list(chain.from_iterable(days.powers))),
            "peaks": array("d", days.peaks),
            "shape": array("d", days.shape),
            "day_temp": array("d", days.day_temp),
            "block_of_step": array("q", days.block_of_step),
        }
        sizes = {"n_days": len(days.peaks), "n_blocks": len(days.powers[0])}
    inputs = Profile(**{name: a.buffer_info()[0] for name, a in arrays.items()}, **sizes)
    inputs.arrays = arrays  # kept alive with the pointers into them
    return inputs


def cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "vrlasim")


def compiler_id(path: str) -> str:
    """What tells one compiler install from another: its resolved path, size and mtime."""
    real = os.path.realpath(path)
    st = os.stat(real)
    return f"{real}\0{st.st_size}\0{st.st_mtime_ns}"


def cache_key(source: bytes, compiler: str, flags: tuple[str, ...]) -> str:
    """sha256 of the source, the compiler's id and the build flags."""
    h = hashlib.sha256()
    for part in (source, compiler.encode(), "\0".join(flags).encode()):
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def build(cc: str, source: bytes, path: str) -> None:
    """Compile `source` with `cc` into the shared library `path`, by way of
    a temporary file in its directory that is renamed into place."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run(
            [cc, *FLAGS, "-o", tmp, "-x", "c", "-", *LIBS],
            input=source, capture_output=True, check=True, timeout=BUILD_TIMEOUT_S,
        )
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _open():
    """vrlasim_run_day of the cached library, built first where missing;
    None where there is no compiler or the build or load fails."""
    cc = shutil.which(COMPILER)
    if cc is None:
        return None
    try:
        with open(SOURCE, "rb") as fh:
            source = fh.read()
        key = cache_key(source, compiler_id(cc), FLAGS + LIBS)
        path = os.path.join(cache_dir(), f"step-{key}.so")
        if not os.path.exists(path):
            build(cc, source, path)
        lib = ctypes.CDLL(path)
    except (OSError, subprocess.SubprocessError):
        return None
    for struct in (Params, State, Profile):
        size = getattr(lib, f"vrlasim_{struct.__name__.lower()}_size")
        size.restype = ctypes.c_int64
        if size() != ctypes.sizeof(struct):
            return None
    run_day = lib.vrlasim_run_day
    run_day.argtypes = [
        ctypes.POINTER(Params), ctypes.POINTER(State), *[ctypes.c_int64] * 3,
        ctypes.POINTER(Profile), *[ctypes.c_void_p] * 3,
    ]
    run_day.restype = ctypes.c_int64
    return run_day


_loaded: list = []  # the outcome of the first load() in this process


def load():
    """The compiled day loop, or None; built or opened once per process."""
    if not _loaded:
        _loaded.append(_open())
    return _loaded[0]

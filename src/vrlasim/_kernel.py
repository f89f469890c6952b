"""The compiled day loop of engine.run_scenario and the CSV row writer
(_step.c), and their loader.

:func:`load` builds _step.c once with the C compiler ``cc`` into a
per-user cache directory (``$XDG_CACHE_HOME/vrlasim``, or
``~/.cache/vrlasim``), under a name keyed by the sha256 of the source,
the compiler and the flags, and opens it with ctypes, taking every
function it uses from it.  A build writes a temporary file and renames
it into place, so processes that build at once each load a complete
library.  Where no compiler is found, the build or load fails or a
function is missing, :func:`load` returns None, keeps why in
:data:`failure` and logs it once; run_scenario then runs every day in
Python, and :func:`format_rows` formats rows by ``%r``.

:func:`format_rows` writes the rows of the trace and profile CSVs with
the library's vrlasim_format_rows, whose doubles are byte for byte
repr's, so both ways give the same bytes.

The flags keep every result bit-identical to the Python day, which
calls the layer functions: ``-O2`` reorders no floating-point operation,
``-ffp-contract=off`` forbids fusing a multiply and an add into one
rounding, and neither ``-ffast-math`` nor a ``-march`` that would change
the instructions is given.  They also define the histogram and depth bin
counts, N_SOC_BINS, N_VOLTAGE_BINS and N_DEPTH_BINS, as the Python
layout's.  :class:`Limits`, :class:`Params`, :class:`State` and
:class:`Profile` mirror _step.c's structs.  They hold no value that
other fields give: the capacity loss is c_corr + c_deg, and the kernel
reads the span of the corrosion knots from ks_potentials.

:func:`params` builds a run's :class:`Params` once, from its scenario,
Battery and DegradationModel.  It is the one place the run's constants
are kept: the kernel's days and run_scenario's Python days both read
them there.

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
from dataclasses import asdict
from itertools import chain

from .battery import OCV_COEFFS, POSITIVE_OCV_COEFFS, SOC_CAP, SOC_FLOOR
from .control import Policy
from .engine import N_SOC_BINS, N_VOLTAGE_BINS, SOC_BIN_WIDTH, VOLTAGE_BIN_LOW, VOLTAGE_BIN_WIDTH
from .profiles import COLUMNS, STRESS_LOW_SOC, StressAccumulator, TimeSeries
from .profiles import check_column_lengths

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_step.c")
COMPILER = "cc"
# with the bin counts of the Python layout, which _step.c does not repeat
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", f"-DN_SOC_BINS={N_SOC_BINS}",
         f"-DN_VOLTAGE_BINS={N_VOLTAGE_BINS}", f"-DN_DEPTH_BINS={StressAccumulator.N_DEPTH_BINS}")
LIBS = ("-lm",)
BUILD_TIMEOUT_S = 120
NO_COMPILER = f"no C compiler {COMPILER!r} on PATH"

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
            "k_first k_last threshold_v exponent ks_ref_temp_k temp_doubling_k"
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
            "soc v_prev w z_w since_full_h min_soc_since_full c_corr c_deg"
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


def params(scenario, battery, model) -> Params:
    """The Params of a run of `scenario` with its battery.Battery and
    degradation.DegradationModel, holding the arrays it points into; a
    model that cannot be calibrated raises here."""
    calibrated, ageing, control = model.limits, model.params, scenario.control
    capacity, gassing, dt_s = model.battery.capacity_ah, model.battery.gassing, scenario.dt_s
    potentials = array("d", ageing.ks_potentials)
    segments = array("d", chain.from_iterable(ageing.ks_segments))
    run = Params(
        dt_s=dt_s, dt_h=dt_s / 3600.0, capacity=capacity, capacity_as=capacity * 3600.0,
        soc_to_ah=1.0 / (capacity * 3600.0), eff=scenario.converter_efficiency,
        rest_a=model.battery.rest_current_a, taper_a=control.taper_current_a(capacity),
        eol_ah=model.eol_threshold_ah(), soc_cap=SOC_CAP, soc_floor=SOC_FLOOR,
        soc_bin_width=SOC_BIN_WIDTH, v_bin_low=VOLTAGE_BIN_LOW, v_bin_width=VOLTAGE_BIN_WIDTH,
        stress_low_soc=STRESS_LOW_SOC, cells=battery.cells, b0_ah=battery.b0_ah, b1=battery.b1,
        v_empty=battery.v_empty, v_full=battery.v_full, c_max=battery.c_max,
        swing=battery.swing, v_acid=battery.v_acid, v_water=battery.v_water,
        m_water=battery.m_water, ocv_coeffs=OCV_COEFFS, positive_coeffs=POSITIVE_OCV_COEFFS,
        i_gas_0=gassing.i_gas_0, c_v=gassing.c_v, c_t=gassing.c_t, v_ref=gassing.v_ref,
        t_ref=gassing.t_ref, cutoff_soc=control.cutoff_soc, reconnect_soc=control.reconnect_soc(),
        full_limits=Limits(**asdict(control.full_limits)),
        partial_limits=Limits(**asdict(control.partial_limits)),
        k_first=ageing.ks_knots[0][1], k_last=ageing.ks_knots[-1][1],
        threshold_v=ageing.corrosion_threshold_v, exponent=ageing.corrosion_exponent,
        ks_ref_temp_k=ageing.ks_ref_temp_k, temp_doubling_k=ageing.temp_doubling_k,
        c_soc0=ageing.c_soc0_per_h, c_soc_min=ageing.c_soc_min_per_h,
        i_ref=ageing.i_ref_a, i_floor=ageing.i_floor_a,
        nominal_cycles=model.datasheet.nominal_cycles, w_limit=calibrated.w_limit,
        c_corr_limit=calibrated.c_corr_limit, c_deg_limit=calibrated.c_deg_limit,
        ks_potentials=potentials.buffer_info()[0], ks_segments=segments.buffer_info()[0],
        n_knots=len(potentials), adaptive=control.policy is Policy.ADAPTIVE,
    )
    run.arrays = potentials, segments  # kept alive with the pointers into them
    return run


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


# (argtypes, restype) of each function load() takes from the library
SIGNATURES = {
    **{f"vrlasim_{struct.__name__.lower()}_size": ([], ctypes.c_int64)
       for struct in (Params, State, Profile)},
    "vrlasim_run_day": ([
        ctypes.POINTER(Params), ctypes.POINTER(State), *[ctypes.c_int64] * 3,
        ctypes.POINTER(Profile), *[ctypes.c_void_p] * 3,
    ], ctypes.c_int64),
    "vrlasim_format_rows": ([
        ctypes.c_char_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
    ], ctypes.c_int64),
}


def _open():
    """(the library's functions by name, built first where missing, None),
    or (None, why they cannot be had): NO_COMPILER, or the build error
    with the compiler's stderr, the load error, the symbol missing or the
    struct sizes that differ."""
    cc = shutil.which(COMPILER)
    if cc is None:
        return None, NO_COMPILER
    try:
        with open(SOURCE, "rb") as fh:
            source = fh.read()
        key = cache_key(source, compiler_id(cc), FLAGS + LIBS)
        path = os.path.join(cache_dir(), f"step-{key}.so")
        if not os.path.exists(path):
            build(cc, source, path)
    except subprocess.CalledProcessError as exc:
        stderr = exc.stderr.decode(errors="replace").strip()
        return None, f"{cc} could not build {SOURCE}:\n{stderr}"
    except (OSError, subprocess.SubprocessError) as exc:
        return None, f"{cc} could not build {SOURCE}: {exc}"
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        return None, f"could not load {path}: {exc}"
    functions = {}
    for name, (argtypes, restype) in SIGNATURES.items():
        try:
            functions[name] = function = getattr(lib, name)
        except AttributeError:
            return None, f"{path} has no symbol {name}"
        function.argtypes, function.restype = argtypes, restype
    for struct in (Params, State, Profile):
        size = functions[f"vrlasim_{struct.__name__.lower()}_size"]()
        if size != ctypes.sizeof(struct):
            return None, (
                f"{struct.__name__} is {size} bytes in {SOURCE}"
                f" and {ctypes.sizeof(struct)} in _kernel.{struct.__name__}"
            )
    return functions, None


_loaded: list = []  # the day loop of the first load() in this process, or None
_format_rows = None  # vrlasim_format_rows of the library that load() opened
failure: str | None = None  # why that outcome is None


def load():
    """The compiled day loop, or None; built or opened once per process.
    Where it is None, `failure` says why, and the first call logs it."""
    global failure, _format_rows
    if not _loaded:
        functions, failure = _open()
        if failure is not None:
            import logging  # only a process without the kernel pays for it

            logging.getLogger(__name__).warning(
                "the step kernel did not load, so every day runs in Python: %s", failure
            )
            _loaded.append(None)
        else:
            _format_rows = functions["vrlasim_format_rows"]
            _loaded.append(functions["vrlasim_run_day"])
    return _loaded[0]


def format_rows(stamps: list[str], values: array, k: int, marks: array | None, j: int) -> bytes:
    """The CSV line ``("%s" + ",%r" * k + ",%d" * j + "\\r\\n") % row`` of
    each stamp with its row's k values (an array "d") and j marks (an
    array "b"), both held row after row, by vrlasim_format_rows where
    load() has the library, and by that format where it has not."""
    n = len(stamps)
    if values.typecode != "d" or len(values) < n * k or j and (
        marks.typecode != "b" or len(marks) < n * j
    ):
        raise ValueError(f'{n} rows need {k} doubles ("d") and {j} marks ("b") each')
    if load() is None:
        line = ("%s" + ",%r" * k + ",%d" * j + "\r\n").__mod__
        columns = [values[i::k] for i in range(k)] + [marks[i::j] for i in range(j)]
        return "".join(map(line, zip(stamps, *columns))).encode()
    data = "\n".join(stamps).encode()
    out = ctypes.create_string_buffer(len(data) + 1 + n * (25 * k + 5 * j + 2))
    at_marks = marks.buffer_info()[0] if j else None
    size = _format_rows(data, n, values.buffer_info()[0], k, at_marks, j, out)
    return ctypes.string_at(out, size)

"""Static checks of the package source."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from datetime import datetime
from pathlib import Path

import pytest
import yaml

from helpers import PARAMETER_CLASSES
from vrlasim import _kernel
from vrlasim._domains import Domain
from vrlasim.cli import main
from vrlasim.config import SECTIONS
from vrlasim.profiles import TraceRecord, write_trace_csv

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vrlasim"
TRACER = ROOT / "perfbench" / "tracing.py"
REFERENCE = ROOT / "tests" / "reference_engine.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_finds_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Any, Iterable\nx: Iterable = sys.argv\n"
    assert unused_imports(source) == ["os (line 1)", "Any (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level `_`-prefixed functions and classes of `sources` (module
    name to source) that no code of theirs reads outside the definition."""
    reads: Counter[str] = Counter()
    helpers = []
    for module, source in sources.items():
        tree = ast.parse(source)
        reads.update(names_read(tree))
        helpers += [
            (module, node)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
        ]
    return [
        f"{module}: {node.name}"
        for module, node in helpers
        if reads[node.name] == names_read(node)[node.name]
    ]


def names_read(tree: ast.AST) -> Counter[str]:
    """How often each name is read under `tree`, as a variable or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def test_finds_an_unused_private_helper():
    sources = {
        "a": "def _used(): pass\n"
        "def _recursive(n): return _recursive(n - 1)\n"
        "class _Unused: pass\n"
        "def __getattr__(name): pass\n"
        "def public(): return _used() + b._by_attribute()\n",
        "b": "def _by_attribute(): pass\n_Unused = 1\n",
    }
    assert unused_private_helpers(sources) == ["a: _recursive", "a: _Unused"]


def test_no_unused_private_helpers():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unused_private_helpers(sources) == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules a source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_finds_imported_modules():
    source = "import csv.x, os\nfrom json import dumps\nfrom .profiles import write_csv\n"
    assert imported_modules(source) == {"csv", "os", "json"}


def test_cli_import_leaves_yaml_unloaded():
    """Only load_config imports yaml, so analyze, init-config and calibrate
    without a config never load it.  A fresh interpreter checks, because
    this module imports yaml itself."""
    path = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    ran = subprocess.run(
        [sys.executable, "-c", "import sys, vrlasim.cli; print('yaml' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert ran.stdout == "False\n"


def test_analyze_leaves_engine_config_and_degradation_unloaded(tmp_path):
    """analyze imports only what it runs.  cli imports config, engine and
    degradation inside the commands that use them, and the process pool's
    modules on the first read of cli.ProcessPoolExecutor.  A fresh
    interpreter checks, because this module imports the whole package."""
    trace = str(tmp_path / "trace.csv")
    records = [TraceRecord(k * 0.25, 1.0 - k % 3, 0.8, 12.5, k == 4, k > 4) for k in range(9)]
    write_trace_csv(trace, records, datetime(2023, 1, 1))
    path = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    code = (
        "import sys; from vrlasim.cli import main; code = main(sys.argv[1:]); "
        "print(code, sorted({'vrlasim.engine', 'vrlasim.config', 'vrlasim.degradation', "
        "'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    ran = subprocess.run(
        [sys.executable, "-c", code, "analyze", "--trace", trace],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert "n_full_charges: 1\n" in ran.stdout
    assert ran.stdout.splitlines()[-1] == "0 []"


def test_every_export_resolves():
    """The package's exports are imported on first access: each name in
    __all__ must resolve, be listed by dir() and be bound by a star import."""
    import vrlasim

    star: dict = {}
    exec("from vrlasim import *", star)
    listed = dir(vrlasim)
    for name in vrlasim.__all__:
        assert star[name] is getattr(vrlasim, name)
        assert name in listed
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        vrlasim.no_such_name


def test_only_profiles_imports_csv():
    """One module holds the CSV dialect, so every file is read and written
    alike, and in it one function reads CSV: no second reading path grows
    beside the block reader."""
    importers = sorted(
        p.name for p in PACKAGE.glob("*.py") if "csv" in imported_modules(p.read_text())
    )
    assert importers == ["profiles.py"]
    assert csv_reader_users((PACKAGE / "profiles.py").read_text()) == {"_csv_blocks"}


def csv_reader_users(source: str) -> set[str]:
    """The module-level functions of a source that use csv.reader, with
    "<module>" for a use outside them and "<import>" for a `from csv import`."""
    users = set()
    for node in ast.parse(source).body:
        name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for inner in ast.walk(node):
            if isinstance(inner, ast.ImportFrom) and inner.module == "csv":
                users.add("<import>")
            elif (
                isinstance(inner, ast.Attribute)
                and inner.attr == "reader"
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "csv"
            ):
                users.add(name)
    return users


def test_finds_csv_reader_users():
    source = (
        "import csv\nfrom csv import reader\n"
        "def a(fh):\n    def inner():\n        return csv.reader(fh)\n"
        "class B:\n    read = csv.reader\n"
        "rows = csv.reader([])\ndef c(fh):\n    return csv.writer(fh)\n"
    )
    assert csv_reader_users(source) == {"<import>", "a", "B", "<module>"}


# The load windows and shares: one function of the package reads them.
BLOCK_RULE = {"PREDAWN_WINDOW", "DAYTIME_WINDOW", "EVENING_WINDOW", "PREDAWN_SHARE"}
BLOCK_HELPER = "_load_blocks"


def block_rule_readers(source: str) -> set[str]:
    """The module-level functions and classes of a source that read a name
    of BLOCK_RULE, as a variable or an attribute, with "<module>" for a
    read outside them and "<import>" for an import of one."""
    readers = set()
    for node in ast.parse(source).body:
        name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for inner in ast.walk(node):
            if isinstance(inner, ast.ImportFrom):
                if BLOCK_RULE & {alias.name for alias in inner.names}:
                    readers.add("<import>")
            elif isinstance(inner, (ast.Name, ast.Attribute)) and isinstance(inner.ctx, ast.Load):
                if (inner.id if isinstance(inner, ast.Name) else inner.attr) in BLOCK_RULE:
                    readers.add(name)
    return readers


def test_finds_block_rule_readers():
    source = (
        "PREDAWN_SHARE = 0.1\n"
        "def _load_blocks(f):\n    return [(PREDAWN_WINDOW, PREDAWN_SHARE)]\n"
        "def generate(f):\n    return 1.0 - f - PREDAWN_SHARE\n"
        "class A:\n    def check(self):\n        return profiles.EVENING_WINDOW\n"
        "from .profiles import DAYTIME_WINDOW\n"
        "WIDTH = DAYTIME_WINDOW[1] - DAYTIME_WINDOW[0]\n"
    )
    assert block_rule_readers(source) == {"_load_blocks", "generate", "A", "<import>", "<module>"}


def test_one_function_reads_the_load_blocks():
    """The load windows and shares are read in one place, the helper that
    both the block layout and the block powers come from: a second copy
    of the rule, say inlined into the generator, would drift from it."""
    readers = {
        path.name: found
        for path in PACKAGE.glob("*.py")
        if (found := block_rule_readers(path.read_text()))
    }
    assert readers == {"profiles.py": {BLOCK_HELPER}}


def tracer_names() -> list[tuple[str, str]]:
    """Every (module, attribute) the benchmark's span tracer wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted({**tracing.FOLDED, **tracing.COARSE, **tracing.GENERATORS})


TRACED = tracer_names()


@pytest.mark.parametrize("module, attribute", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_exists(module, attribute):
    """A name the tracer wraps must exist, or its per-layer metric reads 0."""
    target = importlib.import_module(f"vrlasim.{module}")
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target)


# The CLI runs and writes a scenario in one place, _worker, which streams
# a trace through the TraceWriter it opens there: no command may name the
# run-and-write functions elsewhere, or the library's kept-trace path.
CLI_WORKER_ONLY = {"run_scenario", "write_result_files", "_streamed_trace"}
CLI_NEVER = {"compare_strategies", "write_trace_csv"}


def second_run_paths(source: str) -> list[str]:
    """Each place a CLI source names a CLI_WORKER_ONLY function outside
    _worker, or a CLI_NEVER one at all, with its line."""
    tree = ast.parse(source)
    in_worker = {
        id(node)
        for worker in tree.body
        if isinstance(worker, ast.FunctionDef) and worker.name == "_worker"
        for node in ast.walk(worker)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in CLI_NEVER or (name in CLI_WORKER_ONLY and id(node) not in in_worker):
            found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_finds_second_run_paths():
    source = (
        "from .profiles import write_trace_csv\n"
        "def _worker(args):\n"
        "    from .engine import run_scenario\n"
        "    write_result_files(run_scenario(args), 'out')\n"
        "def cmd_compare(args):\n"
        "    engine.compare_strategies(args)\n"
        "    pool.submit(_streamed_trace, args)\n"
        "    write_result_files(engine.run_scenario(args), 'out')\n"
    )
    assert second_run_paths(source) == [
        "write_trace_csv (line 1)",
        "compare_strategies (line 6)",
        "_streamed_trace (line 7)",
        "run_scenario (line 8)",
        "write_result_files (line 8)",
    ]


def test_cli_has_one_run_and_write_path():
    assert second_run_paths((PACKAGE / "cli.py").read_text()) == []


# What the reference loop may take from the engine: the scenario and
# result types and the histogram layout.  A piece of run_scenario's own
# day loop, such as its Python day or the kernel's parameters, would make
# the differential test compare the loop with itself.
REFERENCE_ENGINE_IMPORTS = {
    "DayRecord",
    "EnergyAudit",
    "EngineError",
    "Scenario",
    "SimResult",
    "N_SOC_BINS",
    "N_VOLTAGE_BINS",
    "SOC_BIN_WIDTH",
    "VOLTAGE_BIN_LOW",
    "VOLTAGE_BIN_WIDTH",
}


def engine_imports(source: str) -> set[str]:
    """Names a module imports from vrlasim.engine, and "vrlasim.engine"
    if it imports the module itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "vrlasim.engine":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "vrlasim":
            if any(alias.name == "engine" for alias in node.names):
                names.add("vrlasim.engine")
        elif isinstance(node, ast.Import):
            if any(alias.name == "vrlasim.engine" for alias in node.names):
                names.add("vrlasim.engine")
    return names


def test_finds_engine_imports():
    source = (
        "import vrlasim.battery\n"
        "from vrlasim.engine import Scenario, run_scenario\n"
        "from vrlasim import engine\n"
    )
    assert engine_imports(source) == {"Scenario", "run_scenario", "vrlasim.engine"}
    assert engine_imports("import vrlasim.engine as e\n") == {"vrlasim.engine"}


def test_reference_loop_imports_no_part_of_the_fused_step():
    assert engine_imports(REFERENCE.read_text()) <= REFERENCE_ENGINE_IMPORTS


def function_def(source: str, name: str) -> ast.FunctionDef:
    """The module-level function `name` of a source."""
    (node,) = (
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )
    return node


def layer_calls(function: ast.FunctionDef, part: ast.AST | None = None) -> set[str]:
    """What `part` of a function (all of it by default) calls: "f" for a
    call of the name f, "Cls.m" for a call of method m on a name that the
    function binds to a call of Cls."""
    made = {
        target.id: called_name(node.value)
        for node in ast.walk(function)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    calls = set()
    for node in ast.walk(function if part is None else part):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            calls.add(func.id)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if made.get(func.value.id):
                calls.add(f"{made[func.value.id]}.{func.attr}")
    return calls


def called_name(call: ast.Call) -> str | None:
    """The name a call calls, bare or as an attribute."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


# The layers' own float work that a step written out in the engine would copy.
WRITTEN_OUT = {"exp", "sqrt", "log10", "bisect_left"}


def own_float_operations(function: ast.FunctionDef) -> list[str]:
    """Each read in a function of a name of WRITTEN_OUT, as a variable or an
    attribute, and each power it raises, with its line."""
    found = [
        (node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for node in ast.walk(function)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
        and (node.id if isinstance(node, ast.Name) else node.attr) in WRITTEN_OUT
    ]
    found += [
        (node.lineno, "**")
        for node in ast.walk(function)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
    ]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_finds_layer_calls_and_written_out_operations():
    """A run shaped like a step that writes the layers out in its locals."""
    source = (
        "def run_scenario(scenario):\n"
        "    battery = Battery(scenario.battery)\n"
        "    exp, sqrt = math.exp, math.sqrt\n"
        "    def python_day(first, stop):\n"
        "        for i in range(first, stop):\n"
        "            if update_load_disconnect(ctrl, soc, control):\n"
        "                events += 1\n"
        "            hold = battery.hold_voltage_current(soc, v_float, loss)\n"
        "            i_gas = i_gas_0 * exp(c_v * (voltage - v_ref) + gas_term)\n"
        "            v0, k0, dk, dv = ks_segments[bisect_left(ks_potentials, v_p) - 1]\n"
        "            tau_eff = (w / speed) ** (1.0 / exponent)\n"
        "            f = 1.0 + c * sqrt(i_ref / i_w) * since_full_h\n"
        "            y = math.log10(molality)\n"
        "            w **= 2\n"
        "            full_charge_days.add(i)\n"
        "    return python_day\n"
    )
    run = function_def(source, "run_scenario")
    assert layer_calls(run) == {
        "Battery", "range", "update_load_disconnect", "Battery.hold_voltage_current",
        "exp", "bisect_left", "sqrt",
    }
    assert own_float_operations(run) == [
        "exp (line 3)", "sqrt (line 3)", "exp (line 9)", "bisect_left (line 10)",
        "** (line 11)", "sqrt (line 12)", "log10 (line 13)", "** (line 14)",
    ]


# The layer functions of a step, as layer_calls names them.
STEP_LAYERS = {
    "update_load_disconnect",
    "select_limits",
    "tscc_step",
    "Battery.hold_voltage_current",
    "Battery.terminal_voltage",
    "Battery.invert_ocv",
    "gassing_current",
    "step_soc",
    "DegradationModel.step",
    "StressAccumulator.add",
}


def test_python_day_runs_the_layer_functions():
    """run_scenario's Python day calls each step layer and writes none of
    their float operations out, so each rule has one implementation in
    Python, the one the reference loop composes too."""
    run = function_def((PACKAGE / "engine.py").read_text(), "run_scenario")
    assert STEP_LAYERS <= layer_calls(run)
    assert own_float_operations(run) == []


def test_reference_loop_keeps_its_own_scheduler():
    """The reference loop counts the days since a full recharge itself and
    never calls control.reschedule, so the differential tests check the
    engine's scheduler instead of sharing it."""
    source = REFERENCE.read_text()
    assert "reschedule" not in layer_calls(function_def(source, "reference_run"))
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "reschedule" not in imported and "wants_full_limits" in imported


def test_reference_loop_calls_the_stress_sums_and_the_inversion():
    """The reference loop calls StressAccumulator.add and Battery.invert_ocv
    in its step loop, so the stress sums and the rest correction it checks
    run as the single-step API runs them."""
    reference = function_def(REFERENCE.read_text(), "reference_run")
    in_loops = set().union(
        *(layer_calls(reference, node) for node in reference.body if isinstance(node, ast.For))
    )
    assert {"StressAccumulator.add", "Battery.invert_ocv"} <= in_loops


def test_both_step_paths_keep_one_day_contract():
    """The Python day fills the kernel's buffers and makes no TraceRecord,
    the run keeps no StressAccumulator of its own, and engine.py builds no
    _kernel.Params: _kernel.params keeps the run's constants."""
    source = (PACKAGE / "engine.py").read_text()
    run = function_def(source, "run_scenario")
    (day,) = [
        node for node in ast.walk(run)
        if isinstance(node, ast.FunctionDef) and node.name == "python_day"
    ]
    assert "TraceRecord" not in layer_calls(day)
    called = Counter(
        called_name(node) for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
    )
    assert called["StressAccumulator"] == 1 and "StressAccumulator" in layer_calls(day)
    assert called["Params"] == 0


def per_day_inputs(function: ast.FunctionDef) -> list[str]:
    """Each array(...) call in a function's loop over days (its `for` over
    count()), and each read of a `.day` attribute outside that loop's
    branches that call python_day, with its line."""
    (days,) = [
        node for node in ast.walk(function)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
        and called_name(node.iter) == "count"
    ]
    python_branches = [
        node for node in ast.walk(days)
        if isinstance(node, ast.If) and any(
            isinstance(call, ast.Call) and called_name(call) == "python_day"
            for statement in node.body for call in ast.walk(statement)
        )
    ]
    in_branch = {
        id(node) for branch in python_branches for statement in branch.body
        for node in ast.walk(statement)
    }
    found = [
        (node.lineno, "array") for node in ast.walk(days)
        if isinstance(node, ast.Call) and called_name(node) == "array"
    ]
    found += [
        (node.lineno, ".day") for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "day" and id(node) not in in_branch
    ]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_finds_per_day_inputs():
    """The day loop as it was when each day's samples were built as lists
    and converted to arrays for the kernel."""
    source = (
        "def run_scenario(scenario):\n"
        "    profile_day = scenario.profile.day\n"
        "    potentials = array('d', knots)\n"
        "    for day in count():\n"
        "        loads, solars, temps = profile_day(day)\n"
        "        if run_day is not None:\n"
        "            loads_in = array('d', loads)\n"
        "            outcome = run_day(params, st, day, loads_in.buffer_info()[0])\n"
        "        if outcome == FLAGGED:\n"
        "            ended = python_day(day, *profile.day(day))\n"
        "        else:\n"
        "            ended = profile.day(day)\n"
    )
    run = function_def(source, "run_scenario")
    assert per_day_inputs(run) == [".day (line 2)", "array (line 7)", ".day (line 12)"]


def test_kernel_days_build_no_inputs():
    """run_scenario hands the kernel the whole profile once: a day the
    kernel runs builds no array, and only the Python day asks the profile
    for a day's samples."""
    run = function_def((PACKAGE / "engine.py").read_text(), "run_scenario")
    assert per_day_inputs(run) == []


def step_loop_faults(function: ast.FunctionDef) -> list[int]:
    """Lines of each `try` in a function's step loops (for loops inside a for loop)."""
    steps = [
        inner
        for outer in ast.walk(function)
        if isinstance(outer, ast.For)
        for inner in ast.walk(outer)
        if isinstance(inner, ast.For) and inner is not outer
    ]
    tries = {node.lineno for step in steps for node in ast.walk(step) if isinstance(node, ast.Try)}
    return sorted(tries)


def test_finds_step_loop_faults():
    source = (
        "def run(days):\n"
        "    try:\n"
        "        days = list(days)\n"
        "    except TypeError:\n"
        "        pass\n"
        "    for temps in days:\n"
        "        for t in temps:\n"
        "            try:\n"
        "                print(t)\n"
        "            except ValueError:\n"
        "                pass\n"
    )
    assert step_loop_faults(function_def(source, "run")) == [8]


def test_step_loop_has_no_fault_path():
    """No parameter set that constructs can make a step's temperature terms
    raise, so the step loop keeps no path for an error."""
    run = function_def((PACKAGE / "engine.py").read_text(), "run_scenario")
    assert step_loop_faults(run) == []


def c_struct_fields(source: str, name: str) -> list[str]:
    """The field names of the ``typedef struct { ... } name;`` of a C
    source, in order."""
    source = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    (body,) = re.findall(r"typedef struct \{([^}]*)\} " + name + ";", source)
    names = []
    for declaration in body.split(";")[:-1]:
        declarators = declaration.split(",")
        declarators[0] = declarators[0].split()[-1]  # without its type
        names += [d.strip().lstrip("*").split("[")[0] for d in declarators]
    return names


def test_finds_c_struct_fields():
    source = (
        "typedef struct { double a; } Other;\n"
        "typedef struct {\n"
        "    double x, y[4]; /* a, b; */\n"
        "    const double *table;\n"
        "    Other inner, outer;\n"
        "    int64_t n[N_BINS], m;\n"
        "} Mirrored;\n"
    )
    assert c_struct_fields(source, "Mirrored") == ["x", "y", "table", "inner", "outer", "n", "m"]
    assert c_struct_fields(source, "Other") == ["a"]


@pytest.mark.parametrize(
    "struct", [_kernel.Limits, _kernel.Params, _kernel.State, _kernel.Profile],
    ids=lambda struct: struct.__name__,
)
def test_kernel_structs_mirror_the_c_fields_by_name(struct):
    """_kernel.load compares the structs' sizes only, which two swapped
    fields of one type would pass."""
    source = Path(_kernel.SOURCE).read_text()
    assert [name for name, _ in struct._fields_] == c_struct_fields(source, struct.__name__)


def c_functions(source: str) -> list[tuple[str, str]]:
    """(name, body) of each function a C source defines, in order: a
    definition starts at the start of a line, and its body is the text
    within its outer braces, without comments."""
    source = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    functions = []
    for match in re.finditer(r"^[A-Za-z_][\w \t*]*?\b(\w+)\s*\([^;{)]*\)\s*\{", source, re.M):
        end, depth = match.end(), 1
        while depth:
            depth += {"{": 1, "}": -1}.get(source[end], 0)
            end += 1
        functions.append((match.group(1), source[match.end() : end - 1]))
    return functions


# What the step kernel calls where the Python day calls battery.clamp and
# the Battery methods of the same names.
STEP_HELPERS = ("clamp", "terminal_voltage", "hold_voltage_current")
# two conditional assignments in a row to one variable: a clamp written out
CLAMP_PAIR = re.compile(r"\b(\w+) = [^;?]*\?[^;]*;\s*\1 = [^;?]*\?[^;]*;")


def step_rules_written_out(source: str) -> list[str]:
    """Each overpotential term (p->b1) and two-sided clamp that the body of
    vrlasim_run_day writes out, and each of STEP_HELPERS that the source
    does not define exactly once."""
    functions = c_functions(source)
    (body,) = [body for name, body in functions if name == "vrlasim_run_day"]
    found = ["p->b1"] * body.count("p->b1")
    found += [" ".join(m.group(0).split()) for m in CLAMP_PAIR.finditer(body)]
    names = Counter(name for name, _ in functions)
    found += [f"{name} defined {names[name]} times" for name in STEP_HELPERS if names[name] != 1]
    return found


def test_finds_step_rules_written_out():
    """A kernel shaped like the one that wrote the hold current and the
    overpotential out in its step, with a clamp defined twice."""
    source = (
        "static double clamp(double x, double lo, double hi) { return x; }\n"
        "static double clamp(double x) { return x; }\n"
        "static int terminal_voltage(const Params *p,\n"
        "                            double *out)\n"
        "{\n"
        "    return 0;\n"
        "}\n"
        "int64_t vrlasim_run_day(const Params *p, State *st)\n"
        "{\n"
        "    for (int64_t i = 0; i < 3; i++) {\n"
        "        double sh = soc_cap < sv ? soc_cap : sv;\n"
        "        sh = soc_floor > sh ? soc_floor : sh; /* clamp(sv, floor, cap) */\n"
        "        double gain = b0 * (1.0 + p->b1 * sh / (1.0 - sh)) / capacity;\n"
        "        applied = net_a < i_hold ? net_a : i_hold;\n"
        "        over = 0.0;\n"
        "        applied = clamp(applied, 0.0, 1.0);\n"
        "    }\n"
        "}\n"
    )
    assert [name for name, _ in c_functions(source)] == [
        "clamp", "clamp", "terminal_voltage", "vrlasim_run_day",
    ]
    assert c_functions(source)[2][1] == "\n    return 0;\n"
    assert step_rules_written_out(source) == [
        "p->b1",
        "sh = soc_cap < sv ? soc_cap : sv; sh = soc_floor > sh ? soc_floor : sh;",
        "clamp defined 2 times",
        "hold_voltage_current defined 0 times",
    ]


def test_kernel_writes_each_step_rule_once():
    """The step kernel computes the charge overpotential and the hold
    current in one helper each, and clamps through one helper, as the
    Python day calls Battery's methods and battery.clamp."""
    assert step_rules_written_out(Path(_kernel.SOURCE).read_text()) == []


@pytest.mark.parametrize("cls", PARAMETER_CLASSES, ids=lambda c: c.__name__)
def test_every_numeric_field_declares_its_domain(cls):
    """An int or float field without a domain would skip the checker."""
    for f in dataclasses.fields(cls):
        if f.type in ("int", "float"):
            assert isinstance(f.metadata.get("domain"), Domain), f.name
            assert f.metadata["unit"] and f.metadata["doc"], f.name


def declared_keys(obj, path: str):
    """(path, default, metadata) of every field under a section, with
    nested parameter sets walked."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from declared_keys(value, f"{path}.{f.name}")
        else:
            yield f"{path}.{f.name}", value, f.metadata


def test_init_config_lists_every_key_with_its_default(capsys):
    assert main(["init-config"]) == 0
    text = capsys.readouterr().out
    parsed = yaml.safe_load(text)
    lines = text.splitlines()
    for section, cls in SECTIONS.items():
        for path, default, metadata in declared_keys(cls(), section):
            node = parsed
            for part in path.split("."):
                node = node[part]
            expected = [list(pair) for pair in default] if isinstance(default, tuple) else default
            assert node == expected and type(node) is type(expected), path
            if metadata.get("domain") is not None:
                key = path.rsplit(".", 1)[1]
                comment = f"[{metadata['unit']}] {metadata['doc']}; must {metadata['domain'].rule}"
                assert any(
                    line.strip().startswith(f"{key}: ") and line.endswith(comment)
                    for line in lines
                ), path


def test_kernel_build_flags_keep_the_bits():
    """No multiply and add fused into one rounding, and nothing that lets
    the compiler reorder, approximate or retarget a float operation."""
    flags = _kernel.FLAGS + _kernel.LIBS
    assert "-ffp-contract=off" in flags
    assert not [f for f in flags if f in ("-ffast-math", "-Ofast") or f.startswith("-march")]


def test_kernel_cache_key_covers_source_compiler_and_flags():
    key = _kernel.cache_key(b"int x;", "cc", ("-O2",))
    others = [
        _kernel.cache_key(b"int y;", "cc", ("-O2",)),
        _kernel.cache_key(b"int x;", "gcc", ("-O2",)),
        _kernel.cache_key(b"int x;", "cc", ("-O1",)),
        _kernel.cache_key(b"int x;", "cc", ("-O2", "-lm")),
    ]
    assert key not in others and len(set(others)) == len(others)
    if _kernel.load() is not None:  # the library loaded is the one keyed so
        cc = shutil.which(_kernel.COMPILER)
        source = Path(_kernel.SOURCE).read_bytes()
        want = _kernel.cache_key(source, _kernel.compiler_id(cc), _kernel.FLAGS + _kernel.LIBS)
        assert os.listdir(_kernel.cache_dir()) == [f"step-{want}.so"]


def test_kernel_source_ships_with_the_package():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert '[tool.setuptools.package-data]\nvrlasim = ["_step.c"]' in pyproject
    assert Path(_kernel.SOURCE) == PACKAGE / "_step.c"

"""Static checks of the package source."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

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


# What the reference loop may take from the engine: the scenario and
# result types and the histogram layout.  A piece of the fused step, such
# as its TemperatureTerms memo, would make the differential test compare
# the step with itself.
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
        "from vrlasim.engine import Scenario, TemperatureTerms\n"
        "from vrlasim import engine\n"
    )
    assert engine_imports(source) == {"Scenario", "TemperatureTerms", "vrlasim.engine"}
    assert engine_imports("import vrlasim.engine as e\n") == {"vrlasim.engine"}


def test_reference_loop_imports_no_part_of_the_fused_step():
    assert engine_imports(REFERENCE.read_text()) <= REFERENCE_ENGINE_IMPORTS

"""Tests of the benchmark itself, at tiny size (a few simulated days).

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SCRATCH = os.path.join(ROOT, ".perfbench", "tests")
WORKLOADS = ["low_static_eol", "infrequent_compare", "cli_sweep"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--size", "tiny", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


@pytest.fixture
def scratch():
    os.makedirs(SCRATCH, exist_ok=True)
    path = tempfile.mkdtemp(dir=SCRATCH)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_with_its_unit(workload, trace):
    proc, lines = bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(line.startswith("env {") for line in lines)
    assert any(line.startswith("failed_frac") for line in lines)


def test_held_out_seed_gets_invariant_checks_only():
    proc, lines = bench("--workload", "low_static_eol", "--seed", "7")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(lines[-1])["failed"] == 0


@pytest.mark.parametrize("workload", ["low_static_eol", "cli_sweep"])
def test_corrupted_reference_digest_fails_the_run(workload, scratch):
    with open(os.path.join(ROOT, "perfbench", "references.json")) as fh:
        refs = json.load(fh)
    good = refs["tiny"][workload]["42"]
    refs["tiny"][workload]["42"] = ("0" if good[0] != "0" else "1") + good[1:]
    path = os.path.join(scratch, "refs.json")
    with open(path, "w") as fh:
        json.dump(refs, fh)
    proc, lines = bench("--workload", workload, "--seed", "42", "--refs", path)
    assert proc.returncode != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    failed_frac = next(line for line in lines if line.startswith("failed_frac"))
    assert float(failed_frac.split()[1]) > 0


def test_refuses_to_run_without_the_program(scratch):
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(scratch, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "low_static_eol",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

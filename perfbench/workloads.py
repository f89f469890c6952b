"""The benchmark's three workloads.

Each workload makes its inputs from the seed, runs one timed repetition
and checks the outputs.  The timed window holds only calls into vrlasim
(or the `vrlasim` command); writing inputs and checking outputs happen
outside it.  Why these three workloads: see NOTES.md.
"""

from __future__ import annotations

import csv
import dataclasses
import glob
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import vrlasim

AUDIT_LIMIT = 1e-9  # ROADMAP contract on the coulomb audit residual
DAYS = 365.0
# Horizons in years.  "tiny" is a few simulated days, for the benchmark's tests.
HORIZON_YEARS = {
    "full": {"low_static_eol": 15.0, "infrequent_compare": 15.0, "cli_sweep": 2.0},
    "tiny": {"low_static_eol": 5 / DAYS, "infrequent_compare": 5 / DAYS,
             "cli_sweep": 3 / DAYS},
}
DT_S = 900.0
CLI_JOBS = 2
CLI_TIMEOUT_S = 120  # the whole run must end within 180 s
SETUPS = 3  # set-ups per repetition on the library workloads; setup_s is their median
ENTRY = "import sys; from vrlasim.cli import main; sys.exit(main())"


@dataclass
class Rep:
    """One timed repetition of a workload and what its checks found.

    `setup_samples` holds the wall time of each set-up the repetition
    made, `setup_s` is their median, and `run_s` is the time that
    `us_per_step` divides by the simulated steps.
    """

    wall_s: float
    setup_samples: list[float]
    run_s: float
    cpu_s: float
    steps: int
    attempted: int
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    digest: str | None = None
    ingest_rows: int = 0

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_samples) if self.setup_samples else 0.0

    @property
    def us_per_step(self) -> float:
        return self.run_s * 1e6 / self.steps if self.steps else 0.0


def _cpu() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, allow_nan=True).encode()
    ).hexdigest()


def result_digest(result) -> str:
    """sha256 of dataclasses.asdict(result) without runtime_s."""
    d = dataclasses.asdict(result)
    for part in (d, d.get("base"), d.get("alt")):
        if isinstance(part, dict):
            part.pop("runtime_s", None)
    return _digest(d)


def check_result(result) -> list[str]:
    """Invariants every SimResult must meet.

    The library result keeps no per-step SOC, so the SOC bounds are
    checked on the run minimum, each day's minimum and the final SOC.
    """
    problems = []
    name = result.name
    residual = result.audit.residual()
    if not abs(residual) <= AUDIT_LIMIT:
        problems.append(f"{name}: audit residual {residual!r} above {AUDIT_LIMIT}")
    socs = [result.min_soc, result.audit.soc_end] + [d.min_soc for d in result.trajectory]
    if not all(0.0 <= s <= 1.0 for s in socs):
        problems.append(f"{name}: SOC outside [0, 1]")
    totals = [d.c_total_ah for d in result.trajectory]
    if any(b < a for a, b in zip(totals, totals[1:])):
        problems.append(f"{name}: total capacity loss decreases")
    return problems


def _steps(lifetime_days: float) -> int:
    return int(round(lifetime_days * 86400.0 / DT_S))


def _profile_days(years: float) -> int:
    return int(math.ceil(years * DAYS)) + 1


def _set_up(make, setups: int):
    """Call make() `setups` times back to back, outside the step window.

    Returns the last value, the wall time of each call and the median
    CPU time of one call.
    """
    walls, cpus = [], []
    for _ in range(setups):
        value = None  # free the previous set-up, so that one is alive at a time
        cpu0, t0 = _cpu(), time.perf_counter()
        value = make()
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu() - cpu0)
    return value, walls, statistics.median(cpus)


def _timed(fn, *args):
    """fn(*args) with its wall and CPU time."""
    cpu0, t0 = _cpu(), time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0, _cpu() - cpu0


def _library_rep(walls: list[float], setup_cpu: float, run_s: float, run_cpu: float,
                 steps: int, attempted: int) -> Rep:
    """A repetition's wall time is its median set-up plus its run."""
    return Rep(wall_s=statistics.median(walls) + run_s, setup_samples=walls, run_s=run_s,
               cpu_s=setup_cpu + run_cpu, steps=steps, attempted=attempted)


def low_static_eol(seed: int, size: str, work_dir: str, trace_dir: str | None,
                   setups: int = SETUPS) -> Rep:
    """The `low` archetype under bboxx_static, through the library API."""
    years = HORIZON_YEARS[size]["low_static_eol"]

    def make():
        profile = vrlasim.generate_archetype(
            vrlasim.LOW_USE, _profile_days(years), seed=seed, dt_s=DT_S
        )
        return vrlasim.Scenario("low_static_eol", profile, max_years=years, dt_s=DT_S)

    scenario, walls, setup_cpu = _set_up(make, setups)
    result, run_s, run_cpu = _timed(vrlasim.run_scenario, scenario)
    rep = _library_rep(walls, setup_cpu, run_s, run_cpu,
                       steps=_steps(result.lifetime_days), attempted=1)
    rep.problems = check_result(result)
    rep.failed = int(bool(rep.problems))
    rep.digest = result_digest(result)
    return rep


def infrequent_compare(seed: int, size: str, work_dir: str, trace_dir: str | None,
                       setups: int = SETUPS) -> Rep:
    """compare_strategies, static against adaptive, on one `infrequent` profile."""
    years = HORIZON_YEARS[size]["infrequent_compare"]

    def make():
        profile = vrlasim.generate_archetype(
            vrlasim.INFREQUENT_USE, _profile_days(years), seed=seed, dt_s=DT_S
        )
        base = vrlasim.Scenario("infrequent_static", profile, max_years=years, dt_s=DT_S)
        alt = dataclasses.replace(
            base, name="infrequent_adaptive", control=vrlasim.adaptive_params()
        )
        return base, alt

    (base, alt), walls, setup_cpu = _set_up(make, setups)
    cmp_result, run_s, run_cpu = _timed(vrlasim.compare_strategies, base, alt)
    rep = _library_rep(walls, setup_cpu, run_s, run_cpu, attempted=2,
                       steps=_steps(cmp_result.base.lifetime_days)
                       + _steps(cmp_result.alt.lifetime_days))
    for result in (cmp_result.base, cmp_result.alt):
        found = check_result(result)
        rep.problems += found
        rep.failed += int(bool(found))
    rep.digest = result_digest(cmp_result)
    return rep


# ---------------------------------------------------------------------------
# cli_sweep

CLI_SCENARIOS = (
    ("high_static", "bboxx_static", "high"),
    ("moderate_adaptive", "adaptive", "moderate"),
    ("low_static", "bboxx_static", "low"),
)
LOGGED = "logged_adaptive"  # adaptive, read through profile_csv


def write_logged_csv(path: str, seed: int, days: int) -> int:
    """A logged-profile CSV made from the seed; returns its row count.

    The `infrequent` archetype's series, sampled on the simulation grid
    with about 1% of the rows missing, so ingest has slots to hold-fill.
    """
    series = vrlasim.generate_archetype(
        vrlasim.INFREQUENT_USE, days, seed=seed + 1, dt_s=DT_S
    )
    drop = random.Random(seed)
    rows = 0
    t = datetime(2023, 1, 1)
    step = timedelta(seconds=DT_S)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("timestamp", "load_w", "solar_w", "temp_c"))
        last = len(series) - 1
        for i in range(len(series)):
            if 0 < i < last and drop.random() < 0.01:
                t += step
                continue
            writer.writerow((t.isoformat(), repr(series.load_w[i]),
                             repr(series.solar_w[i]), repr(series.temp_c[i])))
            rows += 1
            t += step
    return rows


def write_config(path: str, seed: int, years: float, csv_path: str, out_dir: str) -> None:
    scenarios = [
        {"name": name, "policy": policy, "archetype": archetype}
        for name, policy, archetype in CLI_SCENARIOS
    ]
    # archetype: null is needed, because ScenarioSpec.archetype defaults to "low"
    scenarios.append({"name": LOGGED, "policy": "adaptive", "archetype": None,
                      "profile_csv": csv_path})
    config = {"sim": {"max_years": years, "seed": seed, "dt_s": DT_S},
              "scenarios": scenarios, "output": {"directory": out_dir}}
    with open(path, "w") as fh:
        json.dump(config, fh, indent=1)  # JSON is YAML


LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")


def cli_command(trace_dir: str | None, setup_only: bool = False) -> list[str]:
    """How to start `vrlasim`: its console-script entry, or the launcher
    that writes span records to trace_dir (of the set-up calls only, with
    setup_only)."""
    if trace_dir is None:
        return [sys.executable, "-c", ENTRY]
    return [sys.executable, LAUNCHER, *(["--setup-only"] if setup_only else []), trace_dir]


def cli_setup_s(record_dir: str, launched: float) -> tuple[float, int]:
    """Set-up time of one `simulate` run, from the records of that run.

    It is the time from launching the command until its parent has
    loaded the config, plus every build_scenario call in the pool
    workers (profile generation, CSV ingest, scenario construction).
    The workers build in parallel with each other's runs, so this is a
    sum of set-up work, not a stretch of wall time.  The parent's second
    build of each scenario for --emit-profile comes after the runs and
    is not counted.  Returns the time and the number of worker builds.
    """
    spans = []
    for path in glob.glob(os.path.join(record_dir, "*.json")):
        with open(path) as fh:
            spans += json.load(fh)["spans"]
    load = next(s for s in spans if s["name"] == "config.load_config")
    builds = [s["end"] - s["start"] for s in spans
              if s["name"] == "cli.build_scenario" and s["pid"] != load["pid"]]
    return load["end"] - launched + sum(builds), len(builds)


def _run(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run one CLI command in its own process group and wait for all of it.

    On timeout the whole group goes, pool workers included, and the
    TimeoutExpired fails the repetition.
    """
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _check_scenario(out_dir: str, name: str) -> tuple[list[str], int, dict]:
    """Checks of one scenario's files; returns (problems, steps, result JSON)."""
    base = os.path.join(out_dir, name)
    try:
        with open(base + ".json") as fh:
            payload = json.load(fh)
        steps = _steps(payload["lifetime_days"])
        residual = payload["audit_residual"]
        with open(base + "_trajectory.csv", newline="") as fh:
            totals = [float(r["c_total_ah"]) for r in csv.DictReader(fh)]
        with open(base + "_trace.csv") as fh:
            next(fh)
            socs = [float(line.split(",", 3)[2]) for line in fh]
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"{name}: missing or unreadable output ({exc!r})"], 0, {}
    problems = []
    if not abs(residual) <= AUDIT_LIMIT:
        problems.append(f"{name}: audit residual {residual!r} above {AUDIT_LIMIT}")
    if any(b < a for a, b in zip(totals, totals[1:])):
        problems.append(f"{name}: total capacity loss decreases")
    if not all(0.0 <= s <= 1.0 for s in socs):
        problems.append(f"{name}: SOC outside [0, 1] in the trace")
    if len(socs) != steps:
        problems.append(f"{name}: trace has {len(socs)} rows for {steps} steps")
    return problems, steps, payload


def _check_analyze(out_dir: str, name: str, payload: dict) -> list[str]:
    """analyze must read back the stress factors that simulate computed."""
    path = os.path.join(out_dir, "analyze", f"{name}_trace_stress.json")
    want = payload.get("stress", {})
    try:
        with open(path) as fh:
            stress = json.load(fh)
        charges, fec = stress["n_full_charges"], stress["full_equivalent_cycles"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{name}: missing or unreadable analyze output ({exc!r})"]
    if charges != want.get("n_full_charges"):
        return [f"{name}: analyze counts {charges} full charges, "
                f"simulate {want.get('n_full_charges')}"]
    ref = want.get("full_equivalent_cycles", -1.0)
    if not abs(fec - ref) <= 1e-9 * max(abs(ref), 1.0):
        return [f"{name}: analyze FEC {fec!r} != simulate {ref!r}"]
    return []


def _files_digest(out_dir: str, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        for suffix in ("_trajectory.csv", "_soc_hist.csv", "_voltage_hist.csv",
                       "_trace.csv", "_profile.csv"):
            path = os.path.join(out_dir, name + suffix)
            h.update(path[len(out_dir):].encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cli_sweep(seed: int, size: str, work_dir: str, trace_dir: str | None,
              setups: int = SETUPS) -> Rep:
    """`vrlasim simulate --jobs 2 --emit-trace --emit-profile`, then `analyze` per trace.

    The CLI sets up once per repetition, inside its own run, so `setups`
    does not apply here.
    """
    years = HORIZON_YEARS[size]["cli_sweep"]
    os.makedirs(work_dir, exist_ok=True)
    csv_path = os.path.join(work_dir, "logged_profile.csv")
    cfg_path = os.path.join(work_dir, "sweep.yaml")
    out_dir = os.path.join(work_dir, "out")
    rows = write_logged_csv(csv_path, seed, _profile_days(years))
    write_config(cfg_path, seed, years, csv_path, out_dir)
    names = [n for n, _, _ in CLI_SCENARIOS] + [LOGGED]

    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = cli_command(trace_dir)
    record_dir = trace_dir
    if trace_dir is None:
        # time the CLI's own set-up: only its set-up calls are wrapped
        record_dir = os.path.join(work_dir, "setup_records")
        shutil.rmtree(record_dir, ignore_errors=True)
        os.makedirs(record_dir)
    sim_cmd = cli_command(record_dir, setup_only=trace_dir is None)
    cpu0, t0 = _cpu(), time.perf_counter()
    sim = _run(sim_cmd + ["simulate", "--config", cfg_path, "--jobs", str(CLI_JOBS),
                          "--emit-trace", "--emit-profile", "--out", out_dir], env)
    analyzed = []
    for name in names:
        trace = os.path.join(out_dir, f"{name}_trace.csv")
        if os.path.exists(trace):
            analyzed.append(_run(cmd + ["analyze", "--trace", trace, "--capacity", "20",
                                        "--out", os.path.join(out_dir, "analyze")], env))
        else:
            analyzed.append(None)
    t1, cpu1 = time.perf_counter(), _cpu()

    # us_per_step here is the whole command per simulated step: the
    # set-up is summed over parallel workers, so it is not subtracted
    rep = Rep(wall_s=t1 - t0, setup_samples=[], run_s=t1 - t0, cpu_s=cpu1 - cpu0,
              steps=0, attempted=2 * len(names), ingest_rows=rows)
    if sim.returncode != 0:
        rep.problems.append(f"simulate exited {sim.returncode}: {sim.stderr.strip()}")
    try:
        setup_s, builds = cli_setup_s(record_dir, t0)
        rep.setup_samples.append(setup_s)
        if builds != len(names):
            rep.problems.append(f"set-up records hold {builds} worker builds "
                                f"for {len(names)} scenarios")
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        rep.problems.append(f"no set-up records from simulate ({exc!r})")
    for name, proc in zip(names, analyzed):
        found, steps, payload = _check_scenario(out_dir, name)
        rep.steps += steps
        rep.problems += found
        rep.failed += int(bool(found))
        if proc is None or proc.returncode != 0:
            err = "no trace" if proc is None else f"exit {proc.returncode}: {proc.stderr.strip()}"
            rep.problems.append(f"{name}: analyze failed ({err})")
            rep.failed += 1
        elif payload:
            found = _check_analyze(out_dir, name, payload)
            rep.problems += found
            rep.failed += int(bool(found))
    if rep.problems and rep.failed == 0:
        rep.failed = 1
    if rep.failed == 0:
        rep.digest = _files_digest(out_dir, names)
    return rep


WORKLOADS = {
    "low_static_eol": low_static_eol,
    "infrequent_compare": infrequent_compare,
    "cli_sweep": cli_sweep,
}
# operations per repetition: scenario runs, plus analyze calls on cli_sweep
OPERATIONS = {"low_static_eol": 1, "infrequent_compare": 2, "cli_sweep": 2 * (len(CLI_SCENARIOS) + 1)}

"""Span tracing of calls into vrlasim's modules, from outside the program.

`install` replaces the module-level names that callers actually use
(``vrlasim.engine.terminal_voltage``, ``vrlasim.cli.build_scenario``, ...)
and a few methods with timing wrappers.  Every wrapper keeps a stack of
child time so that self time is a call's duration minus the time its
traced callees cover.  Per-step functions run millions of times, so they
are folded into per-function (calls, total, self) sums; coarse calls
(build, run, compare, write, ingest, pool) also keep one span each, with
its parent span, so one scenario run forms one span tree.

`layer_metrics` turns one or more dumps (one per process) into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

# (module, attribute) -> layer.  Functions are replaced in every vrlasim
# module that holds them, so `from .battery import terminal_voltage` in
# engine.py is traced as well as the battery-internal calls.
FOLDED = {
    ("battery", "acid_concentration"): "battery",
    ("battery", "log_molality"): "battery",
    ("battery", "cell_ocv"): "battery",
    ("battery", "positive_cell_ocv"): "battery",
    ("battery", "battery_ocv"): "battery",
    ("battery", "overpotential_cell"): "battery",
    ("battery", "effective_b0"): "battery",
    ("battery", "terminal_voltage"): "battery",
    ("battery", "hold_voltage_current"): "battery",
    ("battery", "gassing_current"): "battery",
    ("battery", "step_soc"): "battery",
    ("battery", "invert_battery_ocv"): "battery",
    ("control", "tscc_step"): "control",
    ("control", "select_limits"): "control",
    ("control", "update_load_disconnect"): "control",
    ("control", "recharge_interval"): "control",
    ("degradation", "DegradationModel.step"): "degradation",
    ("degradation", "calibrate_limits"): "degradation",
    ("profiles", "StressAccumulator.add"): "profiles",
}
COARSE = {
    ("engine", "run_scenario"): "engine",
    ("engine", "compare_strategies"): "engine",
    ("profiles", "generate_archetype"): "profiles",
    ("profiles", "ingest_csv"): "profiles",
    ("profiles", "write_profile_csv"): "profiles",
    ("profiles", "write_trace_csv"): "profiles",
    ("config", "load_config"): "config",
    ("cli", "build_scenario"): "cli",
    ("cli", "write_result_files"): "cli",
    ("cli", "_worker"): "cli",
    ("cli", "cmd_simulate"): "cli",
}
# read_trace_csv is a generator: its time is spent in next(), not in the call.
GENERATORS = {("profiles", "read_trace_csv"): "profiles"}
# What an untraced `simulate` wraps to time its own set-up: a few calls
# per command, so the wrappers cost nothing measurable.
SETUP_ONLY = {("config", "load_config"), ("cli", "build_scenario"), ("cli", "_worker")}
MODULES = ("battery", "control", "degradation", "engine", "profiles", "config", "cli")


class Tracer:
    """Per-process span and fold store; `dump` hands it to `layer_metrics`."""

    def __init__(self, dump_dir: str | None = None):
        self.dump_dir = dump_dir
        self.parent_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.stack: list[list[float]] = [[0.0]]  # child time of each open call
        self.coarse: list[int] = []  # ids of open coarse spans
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._dumps = itertools.count(1)

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def dump(self) -> dict:
        return {"pid": self.pid, "stats": self.stats, "spans": self.spans}

    def dump_to_dir(self, tag: str) -> None:
        """Write this process's records and start afresh (pool workers)."""
        path = os.path.join(self.dump_dir, f"{tag}-{self.pid}-{next(self._dumps)}.json")
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)
        self.stats.clear()
        self.spans.clear()

    def in_child(self) -> None:
        """Drop what a forked worker inherited from its parent."""
        if os.getpid() != self.pid:
            self._reset()


def _folded(tracer: Tracer, name: str, fn):
    pc = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer.stack
        frame = [0.0]
        stack.append(frame)
        t0 = pc()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = pc() - t0
            stack.pop()
            stack[-1][0] += dt
            stat = tracer.stat(name)
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - frame[0]

    return wrapper


def _coarse(tracer: Tracer, name: str, fn):
    pc = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer.stack
        frame = [0.0]
        stack.append(frame)
        span_id = next(tracer._ids)
        parent = tracer.coarse[-1] if tracer.coarse else None
        tracer.coarse.append(span_id)
        t0 = pc()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = pc()
            dt = t1 - t0
            tracer.coarse.pop()
            stack.pop()
            stack[-1][0] += dt
            stat = tracer.stat(name)
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - frame[0]
            tracer.spans.append(
                {"id": span_id, "parent": parent, "name": name, "pid": tracer.pid,
                 "start": t0, "end": t1, "self": dt - frame[0]}
            )

    return wrapper


def _generator(tracer: Tracer, name: str, fn):
    pc = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        stat = tracer.stat(name)
        stat[0] += 1
        while True:
            t0 = pc()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                dt = pc() - t0
                tracer.stack[-1][0] += dt
                stat[1] += dt
                stat[2] += dt
            yield item

    return wrapper


def _worker_wrapper(tracer: Tracer, fn):
    """Pool task: trace it in the worker, then dump for the parent to read."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.in_child()
        try:
            return fn(*args, **kwargs)
        finally:
            if os.getpid() != tracer.parent_pid and tracer.dump_dir:
                tracer.dump_to_dir("worker")

    return wrapper


def _pool_class(tracer: Tracer):
    class TracedPool(ProcessPoolExecutor):
        """Records the pool's life as one coarse span in the parent."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._bench_start = time.perf_counter()
            self._bench_parent = tracer.coarse[-1] if tracer.coarse else None

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            tracer.spans.append(
                {"id": next(tracer._ids), "parent": self._bench_parent,
                 "name": "cli.pool", "pid": tracer.pid, "start": self._bench_start,
                 "end": time.perf_counter(), "self": 0.0,
                 "jobs": self._max_workers}
            )

    return TracedPool


def install(tracer: Tracer, only: set | None = None):
    """Wrap vrlasim's layer boundaries, or only the (module, attribute)
    pairs in `only`; returns a function that undoes it."""
    mods = {m: importlib.import_module(f"vrlasim.{m}") for m in MODULES}
    mods["vrlasim"] = importlib.import_module("vrlasim")
    undo: list[tuple[object, str, object]] = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    kinds = [(FOLDED, _folded), (COARSE, _coarse), (GENERATORS, _generator)]
    for table, make in kinds:
        for (mod, attr), layer in table.items():
            if only is not None and (mod, attr) not in only:
                continue
            name = f"{layer}.{attr}"
            if "." in attr:  # a method: replace it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod], cls_name)
                replace(cls, meth, make(tracer, name, getattr(cls, meth)))
                continue
            original = getattr(mods[mod], attr)
            wrapped = make(tracer, name, original)
            if (mod, attr) == ("cli", "_worker"):
                wrapped = _worker_wrapper(tracer, wrapped)
            for module in mods.values():
                if getattr(module, attr, None) is original:
                    replace(module, attr, wrapped)
    if only is None:
        replace(mods["cli"], "ProcessPoolExecutor", _pool_class(tracer))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _sum(stats: dict, layer: str, field: int) -> float:
    return sum(v[field] for k, v in stats.items() if k.startswith(layer + "."))


def merge(dumps: list[dict]) -> tuple[dict, list[dict]]:
    """Sum folded stats over processes and pool all spans."""
    stats: dict[str, list] = {}
    spans: list[dict] = []
    for d in dumps:
        for name, (calls, total, self_s) in d["stats"].items():
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total
            s[2] += self_s
        spans.extend(d["spans"])
    return stats, spans


PER_LAYER_UNITS = {
    "battery.calls_per_step": "calls/step",
    "battery.molality_evals_per_step": "calls/step",
    "battery.invert_calls_per_step": "calls/step",
    "battery.self_us_per_step": "us/step",
    "control.self_us_per_step": "us/step",
    "degradation.step_self_us": "us/call",
    "degradation.calibrate_ms": "ms/call",
    "engine.self_us_per_step": "us/step",
    "engine.compare_overlap": "ratio",
    "profiles.generate_s": "s",
    "profiles.ingest_s": "s",
    "profiles.ingest_rows_per_s": "rows/s",
    "profiles.stress_add_us_per_step": "us/call",
    "profiles.trace_write_s": "s",
    "profiles.profile_write_s": "s",
    "profiles.trace_read_s": "s",
    "config.load_s": "s",
    "cli.build_scenario_calls": "count",
    "cli.write_results_s": "s",
    "cli.pool_busy_frac": "ratio",
    "cli.serial_tail_s": "s",
    "trace_overhead": "ratio",
}


def layer_metrics(dumps: list[dict], steps: int, ingest_rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (without trace_overhead).

    `steps` is the number of simulated steps in the repetition and
    `ingest_rows` the number of CSV rows each ingest_csv call reads.
    A layer a workload never calls reads 0.
    """
    stats, spans = merge(dumps)

    def get(name: str, field: int) -> float:
        return stats.get(name, [0, 0.0, 0.0])[field]

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    def by_name(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    compares = by_name("engine.compare_strategies")
    overlap = 0.0
    if compares:
        runs = [s for s in by_name("engine.run_scenario")
                if s["parent"] in {c["id"] for c in compares}]
        overlap = per(sum(s["end"] - s["start"] for s in runs),
                      sum(c["end"] - c["start"] for c in compares))

    busy = tail = 0.0
    pools = by_name("cli.pool")
    if pools:
        workers = by_name("cli._worker")
        pool_s = sum((p["end"] - p["start"]) * p["jobs"] for p in pools)
        busy = per(sum(w["end"] - w["start"] for w in workers
                       if w["pid"] != pools[0]["pid"]), pool_s)
        simulate = by_name("cli.cmd_simulate")
        if simulate:
            tail = simulate[0]["end"] - pools[-1]["end"]

    ingest_calls = get("profiles.ingest_csv", 0)
    return {
        "battery.calls_per_step": per(_sum(stats, "battery", 0), steps),
        "battery.molality_evals_per_step": per(get("battery.log_molality", 0), steps),
        "battery.invert_calls_per_step": per(get("battery.invert_battery_ocv", 0), steps),
        "battery.self_us_per_step": per(_sum(stats, "battery", 2) * 1e6, steps),
        "control.self_us_per_step": per(_sum(stats, "control", 2) * 1e6, steps),
        "degradation.step_self_us": per(
            get("degradation.DegradationModel.step", 2) * 1e6,
            get("degradation.DegradationModel.step", 0)),
        "degradation.calibrate_ms": per(
            get("degradation.calibrate_limits", 1) * 1e3,
            get("degradation.calibrate_limits", 0)),
        "engine.self_us_per_step": per(_sum(stats, "engine", 2) * 1e6, steps),
        "engine.compare_overlap": overlap,
        "profiles.generate_s": get("profiles.generate_archetype", 1),
        "profiles.ingest_s": get("profiles.ingest_csv", 1),
        "profiles.ingest_rows_per_s": per(ingest_rows * ingest_calls,
                                          get("profiles.ingest_csv", 1)),
        "profiles.stress_add_us_per_step": per(
            get("profiles.StressAccumulator.add", 2) * 1e6,
            get("profiles.StressAccumulator.add", 0)),
        "profiles.trace_write_s": get("profiles.write_trace_csv", 1),
        "profiles.profile_write_s": get("profiles.write_profile_csv", 1),
        "profiles.trace_read_s": get("profiles.read_trace_csv", 2),
        "config.load_s": get("config.load_config", 1),
        "cli.build_scenario_calls": get("cli.build_scenario", 0),
        "cli.write_results_s": get("cli.write_result_files", 2),
        "cli.pool_busy_frac": busy,
        "cli.serial_tail_s": tail,
    }

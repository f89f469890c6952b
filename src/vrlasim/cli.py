"""Command-line interface.

Subcommands:
    simulate   run the scenarios in a config file
    compare    paired run of two controller policies on one scenario
    analyze    stress factors of a recorded battery trace CSV
    calibrate  derive and print the degradation normalisation constants

Exit codes: 0 success, 1 configuration or input validation error,
2 runtime failure or a command line argparse cannot parse.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import operator
import os
import sys
from datetime import datetime
from typing import TYPE_CHECKING, Iterator

# config, engine and degradation are imported by the commands that use
# them, so that analyze loads none of them.
from .battery import Battery, BatteryParams
from .control import Policy
from .profiles import (
    ProfileError,
    TraceWriter,
    generate_archetype,
    ingest_csv,
    read_trace_csv,
    stress_factors,
    write_csv,
    write_profile_csv,
)

if TYPE_CHECKING:
    from .config import RunConfig, ScenarioSpec
    from .engine import ComparisonResult, DayRecord, Scenario, SimResult


def __getattr__(name: str):
    """``ProcessPoolExecutor`` is imported on first use, so that analyze
    loads no multiprocessing.  It stays a module attribute, which can be
    read and replaced like any other."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def input_errors() -> tuple[type[Exception], ...]:
    """The errors of bad input: a command failing with one of them exits 1.
    ConfigError and ProfileError are ValueErrors; EngineError is imported
    here, as the commands that run the engine import it."""
    from .engine import EngineError

    return ValueError, EngineError


# The trajectory file's columns, which are DayRecord's fields.
TRAJECTORY_COLUMNS = (
    "day", "c_corr_ah", "c_deg_ah", "c_total_ah", "soh_pct", "min_soc", "full_charges"
)


def build_scenario(
    config: RunConfig,
    spec: ScenarioSpec,
    seed: int | None = None,
    dt_s: float | None = None,
) -> Scenario:
    """Resolve a scenario spec into a runnable Scenario."""
    from .degradation import DAYS_PER_YEAR
    from .engine import Scenario

    sim = config.sim
    dt = dt_s if dt_s is not None else sim.dt_s
    if seed is None:
        seed = spec.seed if spec.seed is not None else sim.seed
    if spec.archetype is not None:
        horizon_days = int(math.ceil(sim.max_years * DAYS_PER_YEAR)) + 1
        days = horizon_days if spec.days is None else spec.days
        profile = generate_archetype(
            config.archetype(spec.archetype),
            days,
            seed=seed,
            dt_s=dt,
            panel_rating_w=sim.panel_rating_w,
        )
    else:
        profile = ingest_csv(
            spec.profile_csv, dt_s=dt, panel_rating_w=sim.panel_rating_w
        )
    # the settings SimSettings shares with Scenario, under the same names
    shared = {f.name: getattr(sim, f.name) for f in dataclasses.fields(Scenario) if f.metadata}
    return Scenario(
        name=spec.name,
        profile=profile,
        control=config.control.params(spec.policy),
        battery=config.battery,
        degradation=config.degradation,
        datasheet=config.datasheet,
        **{**shared, "dt_s": dt},
    )


# ---------------------------------------------------------------------------
# Output writers


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def result_payload(result: SimResult) -> dict:
    payload = result.summary()
    payload.update(
        {
            "lifetime_days": round(result.lifetime_days, 2),
            "capacity_ah": result.capacity_ah,
            "eol_threshold_ah": result.eol_threshold_ah,
            "c_total_ah": round(result.c_total_ah, 4),
            "full_charge_events": result.full_charge_events,
            "hours_disconnected": round(result.hours_disconnected, 1),
            "load_energy_lost_wh": round(result.load_energy_lost_wh, 1),
            "soc_clamp_events": result.soc_clamp_events,
            "rest_correction_events": result.rest_correction_events,
            "ks_clamp_events": result.ks_clamp_events,
            "audit_residual": result.audit.residual(),
            "runtime_s": round(result.runtime_s, 2),
            "stress": dataclasses.asdict(result.stress),
        }
    )
    return payload


def _bin_rows(low: float, width: float, hours: list[float]) -> Iterator[tuple]:
    """(low edge, high edge, hours) of each histogram bin, edges rounded to 0.01."""
    for i, h in enumerate(hours):
        lo = low + i * width
        yield round(lo, 2), round(lo + width, 2), h


def write_result_files(result: SimResult, out_dir: str) -> list[str]:
    """Write a result's JSON and CSV files."""
    from .engine import SOC_BIN_WIDTH, VOLTAGE_BIN_LOW, VOLTAGE_BIN_WIDTH

    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, result.name)
    written = [base + ".json"]
    _write_json(base + ".json", result_payload(result))
    for suffix, columns, row_format, rows in (
        ("trajectory", TRAJECTORY_COLUMNS, "%d,%r,%r,%r,%r,%r,%d",
         map(operator.attrgetter(*TRAJECTORY_COLUMNS), result.trajectory)),
        ("soc_hist", ("soc_bin_low", "soc_bin_high", "hours"), "%r,%r,%r",
         _bin_rows(0.0, SOC_BIN_WIDTH, result.soc_hist_h)),
        ("voltage_hist", ("voltage_bin_low", "voltage_bin_high", "hours"), "%r,%r,%r",
         _bin_rows(VOLTAGE_BIN_LOW, VOLTAGE_BIN_WIDTH, result.voltage_hist_h)),
    ):
        written.append(f"{base}_{suffix}.csv")
        write_csv(written[-1], columns, row_format, rows)
    return written


def write_overlay_csv(path: str, base: list[DayRecord], alt: list[DayRecord]) -> None:
    """Two runs' daily capacity loss and SOH side by side, for the days both ran."""
    rows = ((b.day, b.c_total_ah, b.soh_pct, a.c_total_ah, a.soh_pct) for b, a in zip(base, alt))
    columns = ("day", "base_c_total_ah", "base_soh_pct", "alt_c_total_ah", "alt_soh_pct")
    write_csv(path, columns, "%d,%r,%r,%r,%r", rows)


def _print_summary_table(results: list[SimResult]) -> None:
    header = (
        "scenario",
        "policy",
        "lifetime_years",
        "fec",
        "corrosion_pct",
        "full_day_pct",
        "min_soc",
        "cutoffs",
    )
    rows = [
        (
            r.name,
            r.policy,
            f"{r.lifetime_years:.2f}" + ("+" if r.censored else ""),
            f"{r.full_equivalent_cycles:.0f}",
            f"{r.corrosion_share_pct:.1f}",
            f"{100 * r.full_recharge_day_fraction:.1f}",
            f"{r.min_soc:.3f}",
            str(r.disconnect_events),
        )
        for r in results
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(header)]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


# ---------------------------------------------------------------------------
# Subcommands


@contextlib.contextmanager
def _streamed_trace(path: str, start: datetime) -> Iterator[TraceWriter]:
    """A TraceWriter on a temporary file beside `path`, stamped from
    `start`: renamed to `path` when the with block ends, and deleted if
    it raises, so that a failed run leaves no trace and an earlier file
    at `path` as it was."""
    partial = path + ".partial"
    try:
        with TraceWriter(partial, start) as writer:
            yield writer
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def _worker(args: tuple) -> SimResult:
    """Build and run one scenario and write its files to out_dir: a traced
    run streams its trace CSV while it runs; then, with emit_profile, the
    profile CSV, then the result files.  Returns the result, which holds
    no trace."""
    from .engine import run_scenario

    config, spec, seed, dt_s, record_trace, emit_profile, out_dir = args
    scenario = build_scenario(config, spec, seed=seed, dt_s=dt_s)
    os.makedirs(out_dir, exist_ok=True)
    trace = contextlib.nullcontext()
    if record_trace:
        path = os.path.join(out_dir, f"{spec.name}_trace.csv")
        trace = _streamed_trace(path, scenario.profile.start)
    with trace as writer:
        result = run_scenario(scenario, trace=writer)
        if emit_profile:
            write_profile_csv(
                scenario.profile, os.path.join(out_dir, f"{spec.name}_profile.csv")
            )
        write_result_files(result, out_dir)
    return result


def _run_tasks(tasks: list[tuple], jobs: int) -> list[SimResult | Exception]:
    """_worker's outcome of each task, in task order: its result or the
    exception it raised.  With more than one task and more than one job,
    the tasks run in a pool of `jobs` processes, or one per task where
    there are fewer tasks."""
    from . import _kernel

    _kernel.load()  # built here once, not by each worker
    outcomes: list[SimResult | Exception] = []
    workers = min(jobs, len(tasks))  # a pool may start all its workers at once
    if workers > 1:
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_worker, t) for t in tasks]
            for future in futures:
                outcomes.append(future.exception() or future.result())
    else:
        for task in tasks:
            try:
                outcomes.append(_worker(task))
            except Exception as exc:
                outcomes.append(exc)
    return outcomes


def cmd_simulate(args: argparse.Namespace) -> int:
    from .config import ConfigError, load_config

    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1: {args.jobs}")
    _check_seed(args.seed)
    config = load_config(args.config)
    if not config.scenarios:
        raise ConfigError(f"{args.config}: no scenarios defined")
    specs = list(config.scenarios)
    if args.scenario:
        wanted = set(args.scenario)
        unknown = wanted - {s.name for s in specs}
        if unknown:
            raise ConfigError(f"unknown scenarios requested: {sorted(unknown)}")
        specs = [s for s in specs if s.name in wanted]

    # Each worker writes its own scenario's files as soon as its run has
    # ended, so the results of finished scenarios survive a later failure.
    out_dir = args.out or config.output_dir
    tasks = [
        (config, spec, args.seed, args.dt, args.emit_trace, args.emit_profile, out_dir)
        for spec in specs
    ]
    outcomes = _run_tasks(tasks, args.jobs)

    results: list[SimResult] = []
    failures: list[tuple[str, Exception]] = []
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, Exception):
            failures.append((spec.name, outcome))
        else:
            results.append(outcome)

    if results:
        _print_summary_table(results)
        print(f"\nwrote results for {len(results)} scenario(s) to {out_dir}/")
    for name, exc in failures:
        print(f"scenario {name!r} failed: {exc}", file=sys.stderr)
    if failures:
        return 1 if all(isinstance(e, input_errors()) for _, e in failures) else 2
    return 0


def _print_comparison(cmp_result: ComparisonResult) -> None:
    base, alt = cmp_result.base, cmp_result.alt
    print(f"base: {base.name} ({base.policy})")
    print(f"alt:  {alt.name} ({alt.policy})")
    print()
    _print_summary_table([base, alt])
    print()
    print(f"lifetime ratio (alt/base):            {cmp_result.lifetime_ratio:.3f}")
    print(f"corrosion reduction at own EOL:       {cmp_result.corrosion_reduction_pct:.1f}%")
    print(
        "corrosion reduction at base EOL:      "
        f"{cmp_result.corrosion_reduction_at_base_eol_pct:.1f}%"
    )
    print(f"active-mass loss ratio at own EOL:    {cmp_result.active_mass_loss_ratio:.2f}")
    print(
        "active-mass loss ratio at base EOL:   "
        f"{cmp_result.active_mass_loss_ratio_at_base_eol:.2f}"
    )
    print(f"alt SOH at base EOL:                  {cmp_result.alt_soh_at_base_eol_pct:.2f}%")
    print(f"alt SOH never below base:             {cmp_result.soh_never_worse}")


def cmd_compare(args: argparse.Namespace) -> int:
    from .config import ConfigError, load_config
    from .engine import ComparisonResult

    if args.base_policy == args.alt_policy:
        raise ConfigError(
            f"--base-policy and --alt-policy must differ: both are {args.base_policy!r}"
        )
    _check_seed(args.seed)
    config = load_config(args.config)
    if not config.scenarios:
        raise ConfigError(f"{args.config}: no scenarios defined")
    spec = config.scenario(args.scenario) if args.scenario else config.scenarios[0]

    out_dir = args.out or config.output_dir
    tasks = [
        (config, dataclasses.replace(spec, name=f"{spec.name}_{p.value}", policy=p),
         args.seed, args.dt, args.emit_trace, False, out_dir)
        for p in (Policy(args.base_policy), Policy(args.alt_policy))
    ]
    outcomes = _run_tasks(tasks, jobs=2)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    cmp_result = ComparisonResult.of(*outcomes)

    write_overlay_csv(
        os.path.join(out_dir, f"{spec.name}_comparison_trajectory.csv"),
        cmp_result.base.trajectory,
        cmp_result.alt.trajectory,
    )
    _write_json(
        os.path.join(out_dir, f"{spec.name}_comparison.json"), cmp_result.summary()
    )
    _print_comparison(cmp_result)
    print(f"\nwrote comparison to {out_dir}/{spec.name}_comparison.json")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    records = read_trace_csv(args.trace)
    first_two = list(itertools.islice(records, 2))
    if len(first_two) < 2:
        raise ProfileError(f"{args.trace}: need at least two records")
    # read_trace_csv has checked that this interval is positive
    dt_h = first_two[1].t_h - first_two[0].t_h
    stress = stress_factors(itertools.chain(first_two, records), args.capacity, dt_h)

    payload = dataclasses.asdict(stress)
    payload["capacity_ah"] = args.capacity
    for key, value in sorted(payload.items()):
        if isinstance(value, float):
            value = round(value, 4)
        print(f"{key}: {value}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        name = os.path.splitext(os.path.basename(args.trace))[0]
        path = os.path.join(args.out, f"{name}_stress.json")
        _write_json(path, payload)
        print(f"\nwrote {path}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from .config import RunConfig, load_config
    from .degradation import DegradationModel, corrosion_speed, float_positive_potential

    config = load_config(args.config) if args.config else RunConfig()
    model = DegradationModel(config.battery, config.degradation, config.datasheet)
    battery, datasheet = model.battery, model.datasheet
    limits = model.limits
    v_p = float_positive_potential(battery, datasheet)
    speed, _ = corrosion_speed(v_p, datasheet.float_temp_c + 273.15, model.params)
    electrical = Battery(battery)
    payload = {
        "ocv_full_v": round(electrical.v_full, 4),
        "ocv_empty_v": round(electrical.v_empty, 4),
        "float_positive_potential_v": round(v_p, 4),
        "float_corrosion_speed": speed,
        "w_limit": limits.w_limit,
        "c_corr_limit_ah": limits.c_corr_limit,
        "c_deg_limit_ah": limits.c_deg_limit,
        "eol_threshold_ah": model.eol_threshold_ah(),
        "float_life_years": datasheet.float_life_years,
        "nominal_cycles": datasheet.nominal_cycles,
    }
    for key, value in payload.items():
        print(f"{key}: {value}")
    if args.out:
        _write_json(args.out, payload)
        print(f"\nwrote {args.out}")
    return 0


def cmd_init_config(args: argparse.Namespace) -> int:
    from .config import ConfigError, default_config_yaml

    text = default_config_yaml()
    if args.out:
        if os.path.exists(args.out) and not args.force:
            raise ConfigError(f"{args.out} exists; pass --force to overwrite")
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _check_seed(seed: int | None) -> None:
    """Reject a --seed that sim.seed's domain rejects."""
    from .config import ConfigError, SimSettings

    domain = SimSettings.__dataclass_fields__["seed"].metadata["domain"]
    if seed is not None and not domain.accepts(seed):
        raise ConfigError(f"--seed must {domain.rule}: {seed}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output directory (default: config output.directory)")
    p.add_argument("--seed", type=int, help="override the profile RNG seed")
    p.add_argument("--dt", type=float, help="override the time step (s)")
    p.add_argument(
        "--emit-trace",
        action="store_true",
        help="write per-step battery trace CSVs (large)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrlasim",
        description="VRLA battery ageing simulator for solar home systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the scenarios in a config file")
    p_sim.add_argument("--config", required=True, help="YAML run configuration")
    p_sim.add_argument(
        "--scenario",
        action="append",
        help="run only this scenario (repeatable; default: all)",
    )
    p_sim.add_argument(
        "--jobs", type=int, default=1, help="run scenarios in parallel processes"
    )
    p_sim.add_argument(
        "--emit-profile", action="store_true", help="also write the input profile CSV"
    )
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser(
        "compare", help="paired run of two controller policies on one scenario"
    )
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument(
        "--scenario", help="scenario name from the config (default: first)"
    )
    p_cmp.add_argument(
        "--base-policy",
        default=Policy.BBOXX_STATIC.value,
        choices=[p.value for p in Policy],
    )
    p_cmp.add_argument(
        "--alt-policy",
        default=Policy.ADAPTIVE.value,
        choices=[p.value for p in Policy],
    )
    _add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_an = sub.add_parser("analyze", help="stress factors of a battery trace CSV")
    p_an.add_argument("--trace", required=True, help="trace CSV from simulate/compare")
    p_an.add_argument(
        "--capacity", type=float, default=BatteryParams.capacity_ah, help="nominal capacity (Ah)"
    )
    p_an.add_argument("--out", help="directory for the stress-factor JSON")
    p_an.set_defaults(func=cmd_analyze)

    p_cal = sub.add_parser(
        "calibrate", help="derive the degradation normalisation constants"
    )
    p_cal.add_argument("--config", help="YAML config (default: package defaults)")
    p_cal.add_argument("--out", help="write the constants to this JSON file")
    p_cal.set_defaults(func=cmd_calibrate)

    p_init = sub.add_parser("init-config", help="print or write an example config")
    p_init.add_argument("--out", help="write to this path instead of stdout")
    p_init.add_argument("--force", action="store_true", help="overwrite an existing file")
    p_init.set_defaults(func=cmd_init_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        from .degradation import CalibrationError

        if isinstance(exc, input_errors()):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if isinstance(exc, CalibrationError):
            print(f"calibration failed: {exc}", file=sys.stderr)
            return 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

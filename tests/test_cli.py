"""End-to-end CLI runs, in process via main(argv)."""

import csv
import dataclasses
import gc
import io
import json
import os
import re
import time
import tracemalloc
import warnings
from concurrent.futures import Future
from datetime import datetime
from pathlib import Path

import pytest

from helpers import undecodable
from vrlasim import cli, engine, profiles
from vrlasim.cli import main
from vrlasim.config import ConfigError, RunConfig, ScenarioSpec, default_config_yaml, load_config
from vrlasim.control import Policy
from vrlasim.engine import EngineError
from vrlasim.profiles import LOW_USE, generate_archetype, read_trace_csv, ingest_csv, write_profile_csv

TINY_CONFIG = """\
sim:
  max_years: 0.1
  seed: 42
scenarios:
  - name: tiny
    archetype: low
    days: 40
"""

TWO_SCENARIOS = """\
sim: {max_years: 0.01, seed: 1}
scenarios:
  - {name: first, archetype: low, days: 4}
  - {name: second, archetype: moderate, days: 4}
"""


def logged_config(root, start):
    """A config whose one scenario reads a 3-day logged profile from `start`."""
    csv_path = root / "logged.csv"
    write_profile_csv(generate_archetype(LOW_USE, 3, seed=4, start=start), str(csv_path))
    cfg = root / "run.yaml"
    cfg.write_text(
        "sim: {max_years: 0.005, seed: 1}\n"
        f"scenarios: [{{name: logged, profile_csv: {csv_path}}}]\n"
    )
    return cfg


def write_text(path, text):
    path.write_text(text)
    return path


def first_stamp(trace_path):
    with open(trace_path) as fh:
        return fh.read().splitlines()[1].split(",")[0]


class FailsAfter:
    """A trace destination that takes `n` records, then raises."""

    def __init__(self, destination, n):
        self.destination, self.n = destination, n

    def append(self, record):
        if self.n == 0:
            raise RuntimeError("destination failed")
        self.n -= 1
        self.destination.append(record)


@pytest.fixture(scope="module")
def sim_run(tmp_path_factory):
    """One simulate invocation shared by the output-format tests."""
    root = tmp_path_factory.mktemp("cli_sim")
    cfg = root / "run.yaml"
    cfg.write_text(TINY_CONFIG)
    out = root / "out"
    rc = main(
        ["simulate", "--config", str(cfg), "--out", str(out), "--emit-trace", "--emit-profile"]
    )
    return rc, str(cfg), str(out)


class TestInitConfig:
    def test_prints_template(self, capsys):
        assert main(["init-config"]) == 0
        out = capsys.readouterr().out
        assert "sim:" in out
        assert "scenarios:" in out

    def test_written_template_loads(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        assert main(["init-config", "--out", str(path)]) == 0
        config = load_config(str(path))
        assert config.scenarios

    def test_refuses_overwrite_without_force(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("sim: {}\n")
        assert main(["init-config", "--out", str(path)]) == 1
        assert main(["init-config", "--out", str(path), "--force"]) == 0

    def test_template_matches_defaults(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(default_config_yaml())
        config = load_config(str(path))
        assert dataclasses.replace(config, scenarios=()) == RunConfig()


class TestCalibrate:
    def test_prints_constants(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "w_limit" in out
        assert "eol_threshold_ah: 4.0" in out

    def test_json_payload(self, tmp_path, capsys):
        path = tmp_path / "cal.json"
        assert main(["calibrate", "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["c_corr_limit_ah"] == 4.0
        assert payload["c_deg_limit_ah"] == 4.0
        assert payload["eol_threshold_ah"] == 4.0
        assert payload["float_life_years"] == 4.0
        assert payload["nominal_cycles"] == 600.0
        assert 1.75 < payload["float_positive_potential_v"] < 1.85
        assert payload["w_limit"] > 0.0


class TestSimulate:
    def test_exit_code(self, sim_run):
        rc, _, _ = sim_run
        assert rc == 0

    def test_output_files(self, sim_run):
        _, _, out = sim_run
        for suffix in (
            ".json",
            "_trajectory.csv",
            "_soc_hist.csv",
            "_voltage_hist.csv",
            "_trace.csv",
            "_profile.csv",
        ):
            assert os.path.exists(os.path.join(out, f"tiny{suffix}"))

    @pytest.mark.parametrize("suffix, n_bins, low, high", [
        ("_soc_hist.csv", engine.N_SOC_BINS, 0.0, 1.0),
        ("_voltage_hist.csv", engine.N_VOLTAGE_BINS, engine.VOLTAGE_BIN_LOW, 15.6),
    ])
    def test_histogram_bin_layout(self, sim_run, suffix, n_bins, low, high):
        _, _, out = sim_run
        with open(os.path.join(out, f"tiny{suffix}"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        edges = [(float(lo), float(hi)) for lo, hi, _ in rows]
        assert len(edges) == n_bins
        assert edges[0][0] == low
        assert edges[-1][1] == high
        assert all(prev[1] == cur[0] for prev, cur in zip(edges, edges[1:]))

    def test_json_content(self, sim_run):
        _, _, out = sim_run
        payload = json.loads(open(os.path.join(out, "tiny.json")).read())
        assert payload["name"] == "tiny"
        assert payload["policy"] == "bboxx_static"
        assert payload["censored"] is True
        assert payload["lifetime_years"] == pytest.approx(0.1, rel=1e-3)
        assert abs(payload["audit_residual"]) <= 1e-9
        assert payload["stress"]["full_equivalent_cycles"] > 0.0

    def test_trajectory_rows(self, sim_run):
        _, _, out = sim_run
        lines = open(os.path.join(out, "tiny_trajectory.csv")).read().splitlines()
        assert lines[0].startswith("day,")
        days = [int(line.split(",")[0]) for line in lines[1:]]
        assert days == list(range(1, len(days) + 1))

    def test_trace_readable(self, sim_run):
        _, _, out = sim_run
        records = list(read_trace_csv(os.path.join(out, "tiny_trace.csv")))
        # 0.1 years at 96 steps per day
        assert len(records) == round(0.1 * 365 * 96)

    def test_profile_readable(self, sim_run):
        _, _, out = sim_run
        series = ingest_csv(os.path.join(out, "tiny_profile.csv"), dt_s=900.0)
        assert len(series) == 40 * 96

    def test_summary_table(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "sim: {max_years: 0.01, seed: 1}\n"
            "scenarios: [{name: blip, archetype: low, days: 4}]\n"
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "lifetime_years" in out
        assert "corrosion_pct" in out
        assert "blip" in out

    def test_unknown_scenario_rejected(self, sim_run):
        _, cfg, out = sim_run
        assert main(["simulate", "--config", cfg, "--scenario", "ghost", "--out", out]) == 1

    def test_missing_config(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 1

    def test_bad_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("simulation: {}\n")
        assert main(["simulate", "--config", str(cfg)]) == 1

    def test_bad_policy_rejected(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("scenarios: [{name: x, archetype: low, policy: warp}]\n")
        assert main(["simulate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "section, message",
        [
            ("sim: {max_years: .inf}", "sim.max_years must lie in (0, 100]: inf"),
            ("sim: {max_years: .nan}", "sim.max_years must lie in (0, 100]: nan"),
            ("sim: {max_years: 1.0e+305}", "sim.max_years must lie in (0, 100]: 1e+305"),
            ("sim: {dt_s: .nan}", "sim.dt_s must be positive and finite: nan"),
            (
                "degradation: {eol_loss_fraction: 0.0}",
                "degradation: eol_loss_fraction must lie in (0, 1): 0.0",
            ),
            (
                "datasheet: {nominal_cycles: -5.0}",
                "datasheet: nominal_cycles must be positive and finite: -5.0",
            ),
            (
                "degradation: {c_soc0_per_h: -0.5}",
                "degradation: c_soc0_per_h must be non-negative and finite: -0.5",
            ),
            (
                "degradation: {c_soc_min_per_h: .nan}",
                "degradation: c_soc_min_per_h must be non-negative and finite: nan",
            ),
            (
                "degradation: {i_ref_a: -2.0}",
                "degradation: i_ref_a must be positive and finite: -2.0",
            ),
            (
                "degradation: {corrosion_exponent: 0.0}",
                "degradation: corrosion_exponent must be positive and finite: 0.0",
            ),
            (
                "degradation: {temp_doubling_k: 0.0}",
                "degradation: temp_doubling_k must be positive and finite: 0.0",
            ),
            ("control: {cutoff_soc: .nan}", "control: cutoff_soc must lie in [0, 1]: nan"),
            (
                "degradation: {corrosion_threshold_v: .nan}",
                "degradation: corrosion_threshold_v must be finite: nan",
            ),
            (
                "degradation: {ks_ref_temp_k: .nan}",
                "degradation: ks_ref_temp_k must be positive and finite: nan",
            ),
            (
                "battery: {gassing: {i_gas_0: .inf}}",
                "battery.gassing: i_gas_0 must be non-negative and finite: inf",
            ),
            ("battery: {v_water: x}", "battery: v_water must be positive and finite: 'x'"),
            (
                "datasheet: {float_life_years: .nan}",
                "datasheet: float_life_years must lie in [0, 50]: nan",
            ),
            (
                "datasheet: {float_life_years: 60.0}",
                "datasheet: float_life_years must lie in [0, 50]: 60.0",
            ),
            (
                "degradation: {corrosion_exponent: 1000, corrosion_threshold_v: 10}",
                "degradation: corrosion_exponent 1000 overflows the sub-threshold corrosion"
                " layer within a float life of 50 years between -40.0 and 80.0 degC",
            ),
            (
                "control: {full_limits: {v_limit: .nan, v_float: 13.5}}",
                "control.full_limits: v_limit must be finite: nan",
            ),
            (
                "archetypes: {infrequent: {active_run_days: -3}}",
                "archetypes.infrequent: active_run_days must be a positive integer: -3",
            ),
            ("sim: {dt_s: 7}", "sim.dt_s must divide a day evenly: 7"),
            (
                "sim: {max_years: 1.0e-6}",
                "sim.max_years must hold one step of sim.dt_s 900.0 s: 1e-06",
            ),
            ("sim: {dt_s: 1.0e-300}", "sim.dt_s must divide a day evenly: 1e-300"),
            (
                "degradation: {ks_knots: [[1.5, x], [1.8, 2.0]]}",
                "degradation: ks_knots[0]: corrosion speed must be positive and finite: x",
            ),
            (
                "control: {cutoff_soc: 0.99}",
                "control: cutoff_soc + reconnect_hysteresis exceeds 1: 1.04",
            ),
        ],
    )
    def test_bad_setting_exits_1_naming_the_key(self, tmp_path, capsys, section, message):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(f"{section}\nscenarios: [{{name: x, archetype: low, days: 2}}]\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def _run_good_and_bad(self, tmp_path, capsys, jobs):
        cfg = tmp_path / "mixed.yaml"
        cfg.write_text(
            "sim: {max_years: 0.01, seed: 1}\n"
            "scenarios:\n"
            "  - {name: good, archetype: low, days: 4}\n"
            f"  - {{name: bad, profile_csv: {tmp_path / 'missing.csv'}}}\n"
        )
        out = tmp_path / "o"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", jobs])
        captured = capsys.readouterr()
        assert rc == 1
        assert os.path.exists(out / "good.json")
        assert not os.path.exists(out / "bad.json")
        assert "bad" in captured.err

    def test_failing_scenario_isolated(self, tmp_path, capsys):
        self._run_good_and_bad(tmp_path, capsys, "1")

    def test_failing_scenario_isolated_in_parallel(self, tmp_path, capsys):
        self._run_good_and_bad(tmp_path, capsys, "2")

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("days: 2.5", "scenarios[1].days must be a positive integer: 2.5"),
            ("days: true", "scenarios[1].days must be a positive integer: True"),
            ("days: 0", "scenarios[1].days must be a positive integer: 0"),
            ("days: -5", "scenarios[1].days must be a positive integer: -5"),
            ("seed: -3", "scenarios[1].seed must be a non-negative integer: -3"),
            ("seed: 1.5", "scenarios[1].seed must be a non-negative integer: 1.5"),
            ("seed: '7'", "scenarios[1].seed must be a non-negative integer: '7'"),
        ],
    )
    def test_bad_days_or_seed_exits_1_at_load_naming_the_key(
        self, tmp_path, capsys, entry, message
    ):
        """A scenario's days and seed are checked when the config loads,
        so no scenario runs; days: 0 is a bad length, not an unset one."""
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(
            "sim: {max_years: 0.01, seed: 1}\n"
            "scenarios:\n"
            "  - {name: good, archetype: low, days: 4}\n"
            f"  - {{name: bad, archetype: low, {entry}}}\n"
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"seed": -3}, "seed must be a non-negative integer: -3"),
            ({"days": 2.5}, "days must be a positive integer: 2.5"),
        ],
    )
    def test_bad_days_or_seed_rejected_when_built_directly(self, change, message):
        """A spec built without a config, as build_scenario accepts it, is
        checked too: Random(-3) would silently draw as Random(3) does."""
        spec = {"name": "a", "archetype": "low", "days": 2, **change}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ScenarioSpec(**spec)

    def test_unset_days_and_seed_fall_back(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "sim: {max_years: 0.01, seed: 3}\n"
            "scenarios: [{name: a, archetype: low, days: null, seed: null}]\n"
        )
        spec = load_config(str(cfg)).scenarios[0]
        assert spec.days is None and spec.seed is None

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("seed", ["-5", "-1"])
    def test_negative_seed_option_exits_1_as_sim_seed_does(
        self, tmp_path, capsys, command, seed
    ):
        cfg = tmp_path / "two.yaml"
        cfg.write_text(TWO_SCENARIOS)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out), "--seed", seed]) == 1
        assert capsys.readouterr().err == f"error: --seed must be a non-negative integer: {seed}\n"
        assert not out.exists()
        cfg.write_text(TWO_SCENARIOS.replace("seed: 1", f"seed: {seed}"))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: sim.seed must be a non-negative integer: {seed}\n"
        )

    def test_profile_csv_scenario(self, tmp_path):
        series = generate_archetype(LOW_USE, 3, seed=4)
        csv_path = tmp_path / "logged.csv"
        write_profile_csv(series, str(csv_path))
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "sim: {max_years: 0.01, seed: 1}\n"
            "scenarios:\n"
            f"  - {{name: logged, archetype: null, profile_csv: {csv_path}}}\n"
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert os.path.exists(out / "logged.json")

    def test_undecodable_profile_csv_exits_1_naming_it(self, tmp_path, capsys):
        cfg = logged_config(tmp_path, datetime(2023, 1, 1))
        csv_path = tmp_path / "logged.csv"
        csv_path.write_bytes(undecodable() + csv_path.read_bytes())
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"scenario 'logged' failed: {csv_path}: " in err
        assert "internal error" not in err

    def test_trace_stamped_from_the_profile_start(self, tmp_path):
        """A log that starts elsewhere than 2023-01-01 keeps its own clock."""
        cfg = logged_config(tmp_path, datetime(2024, 6, 1, 6))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--emit-trace"]) == 0
        assert first_stamp(out / "logged_trace.csv") == "2024-06-01T06:00:00"

    def test_profile_csv_alone_selects_the_source(self, tmp_path):
        series = generate_archetype(LOW_USE, 3, seed=4)
        csv_path = tmp_path / "logged.csv"
        write_profile_csv(series, str(csv_path))
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "sim: {max_years: 0.01, seed: 1}\n"
            f"scenarios: [{{name: logged, profile_csv: {csv_path}}}]\n"
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert os.path.exists(out / "logged.json")

    def test_scenario_record_trace_key_rejected(self, tmp_path, capsys):
        """--emit-trace is the one way to ask simulate for a trace."""
        cfg = write_text(
            tmp_path / "traced.yaml",
            "scenarios: [{name: x, archetype: low, days: 2, record_trace: true}]\n",
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "error: scenarios[0].record_trace: unknown key" in capsys.readouterr().err

    def test_scenario_without_source_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenarios: [{name: nowhere, policy: adaptive}]\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "set exactly one of archetype/profile_csv" in capsys.readouterr().err

    def test_emit_profile_builds_each_scenario_once(self, tmp_path, monkeypatch):
        built = []
        build = cli.build_scenario

        def counting(config, spec, **kwargs):
            built.append(spec.name)
            return build(config, spec, **kwargs)

        monkeypatch.setattr(cli, "build_scenario", counting)
        cfg = tmp_path / "two.yaml"
        cfg.write_text(
            "sim: {max_years: 0.01, seed: 1}\n"
            "scenarios:\n"
            "  - {name: one, archetype: low, days: 4}\n"
            "  - {name: two, archetype: moderate, days: 4}\n"
        )
        out = tmp_path / "o"
        argv = ["simulate", "--config", str(cfg), "--out", str(out), "--emit-profile"]
        assert main(argv) == 0
        assert built == ["one", "two"]
        config = load_config(str(cfg))
        for spec in config.scenarios:
            expected = tmp_path / f"{spec.name}_expected.csv"
            write_profile_csv(build(config, spec).profile, str(expected))
            written = out / f"{spec.name}_profile.csv"
            assert written.read_bytes() == expected.read_bytes()

    def test_parallel_jobs(self, tmp_path):
        cfg = tmp_path / "two.yaml"
        cfg.write_text(
            "sim: {max_years: 0.01, seed: 1}\n"
            "scenarios:\n"
            "  - {name: one, archetype: low, days: 4}\n"
            "  - {name: two, archetype: moderate, days: 4}\n"
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", "2"]) == 0
        assert os.path.exists(out / "one.json")
        assert os.path.exists(out / "two.json")

    @pytest.mark.parametrize("jobs, scenarios, workers", [("500", 2, 2), ("2", 4, 2)])
    def test_pool_has_no_more_workers_than_scenarios(
        self, tmp_path, monkeypatch, jobs, scenarios, workers
    ):
        """A process pool may start all its workers at its first submit."""
        asked = []

        class InlinePool:
            """Records the workers asked for and runs each task at submit,
            in this process."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, task):
                future = Future()
                future.set_result(fn(task))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "sim: {max_years: 0.01, seed: 1}\nscenarios:\n"
            + "".join(f"  - {{name: s{k}, archetype: low, days: 4}}\n" for k in range(scenarios))
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
        assert asked == [workers]
        assert sorted(out.glob("*.json")) == [out / f"s{k}.json" for k in range(scenarios)]

    def test_parallel_files_match_serial(self, tmp_path):
        cfg = tmp_path / "two.yaml"
        cfg.write_text(TWO_SCENARIOS)
        outs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            argv = ["simulate", "--config", str(cfg), "--out", str(out), "--jobs", jobs,
                    "--emit-trace", "--emit-profile"]
            assert main(argv) == 0
            outs[jobs] = out
        names = sorted(os.listdir(outs["1"]))
        assert len(names) == 2 * 6
        assert sorted(os.listdir(outs["2"])) == names
        for name in names:
            serial, parallel = (outs[j] / name for j in ("1", "2"))
            if name.endswith(".json"):
                # runtime_s is the one field that may differ
                a, b = json.loads(serial.read_text()), json.loads(parallel.read_text())
                del a["runtime_s"], b["runtime_s"]
                assert a == b
            else:
                assert serial.read_bytes() == parallel.read_bytes(), name

    def test_table_follows_config_when_first_finishes_last(
        self, tmp_path, monkeypatch, capsys
    ):
        marker = tmp_path / "second_ran"
        run = engine.run_scenario

        def first_waits_for_second(scenario, **kwargs):
            # the pool workers are forked, so they run this patched function
            result = run(scenario, **kwargs)
            if scenario.name == "second":
                marker.touch()
            deadline = time.monotonic() + 60.0
            while scenario.name == "first" and not marker.exists():
                if time.monotonic() > deadline:
                    raise RuntimeError("second scenario never finished")
                time.sleep(0.01)
            return result

        monkeypatch.setattr(engine, "run_scenario", first_waits_for_second)
        cfg = tmp_path / "two.yaml"
        cfg.write_text(TWO_SCENARIOS)
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "2"]
        assert main(argv) == 0
        rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:4]]
        assert rows == ["first", "second"]

    def test_worker_writes_files_and_drops_trace(self, tmp_path):
        cfg = tmp_path / "two.yaml"
        cfg.write_text(TWO_SCENARIOS)
        config = load_config(str(cfg))
        out = str(tmp_path / "o")
        result = cli._worker((config, config.scenarios[0], None, None, True, True, out))
        assert result.trace is None
        assert result.name == "first"
        assert sorted(os.listdir(out)) == [
            "first.json", "first_profile.csv", "first_soc_hist.csv", "first_trace.csv",
            "first_trajectory.csv", "first_voltage_hist.csv",
        ]
        assert len(list(read_trace_csv(os.path.join(out, "first_trace.csv")))) == round(
            0.01 * 365 * 96
        )


    @pytest.mark.parametrize("jobs", ["-5", "0"])
    def test_jobs_below_one_exits_1_naming_the_option(self, tmp_path, capsys, jobs):
        cfg = tmp_path / "two.yaml"
        cfg.write_text(TWO_SCENARIOS)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == f"error: --jobs must be at least 1: {jobs}\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_failed_traced_run_leaves_no_trace_and_the_earlier_one(
        self, tmp_path, monkeypatch
    ):
        """A run that fails part-way, after some blocks of its trace were
        written, removes its partial file, keeps the trace an earlier run
        wrote, and leaves no file open."""
        config = load_config(str(write_text(tmp_path / "two.yaml", TWO_SCENARIOS)))
        out = tmp_path / "o"
        out.mkdir()
        earlier = write_text(out / "first_trace.csv", "timestamp\r\nan earlier trace\r\n")
        before = earlier.read_bytes()
        run = engine.run_scenario

        def failing_run(scenario, *, trace):
            return run(scenario, trace=FailsAfter(trace, 200))

        monkeypatch.setattr(profiles, "TRACE_BLOCK", 16)
        monkeypatch.setattr(engine, "run_scenario", failing_run)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(RuntimeError, match="destination failed"):
                cli._worker((config, config.scenarios[0], None, None, True, True, str(out)))
            # before a collection would close them
            still_open = [
                f.name for f in gc.get_objects()
                if isinstance(f, io.IOBase) and not f.closed
                and str(out) in str(getattr(f, "name", ""))
            ]
            gc.collect()
        assert still_open == []
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert os.listdir(out) == ["first_trace.csv"]
        assert earlier.read_bytes() == before

    def test_traced_worker_memory_does_not_grow_with_the_horizon(self, tmp_path):
        """The trace streams to its file, so a traced run over ten times
        the days peaks within 1 MB of the shorter one (it held about 184 B
        per step, 4.8 MB more over 300 days, when the run kept its trace)."""

        def traced_peak(days):
            cfg = write_text(
                tmp_path / f"run{days}.yaml",
                f"sim: {{max_years: {days / 365.0!r}, seed: 3}}\n"
                "scenarios: [{name: low, archetype: low, policy: adaptive}]\n",
            )
            config = load_config(str(cfg))
            out = str(tmp_path / f"o{days}")
            tracemalloc.start()
            try:
                cli._worker((config, config.scenarios[0], None, None, True, True, out))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(2)  # first-call memos and imports
        short, long = traced_peak(30), traced_peak(300)
        assert abs(long - short) < 1_000_000, (short, long)


class TestCompare:
    def test_paired_outputs(self, sim_run, tmp_path, capsys):
        _, cfg, _ = sim_run
        out = tmp_path / "cmp"
        rc = main(
            [
                "compare",
                "--config",
                cfg,
                "--scenario",
                "tiny",
                "--base-policy",
                "bboxx_static",
                "--alt-policy",
                "adaptive",
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr().out
        assert rc == 0
        for name in (
            "tiny_bboxx_static.json",
            "tiny_adaptive.json",
            "tiny_comparison_trajectory.csv",
            "tiny_comparison.json",
        ):
            assert os.path.exists(out / name)
        assert "lifetime ratio" in captured
        payload = json.loads(open(out / "tiny_comparison.json").read())
        # both runs censored at the same horizon
        assert payload["lifetime_ratio"] == 1.0
        assert payload["base"]["policy"] == "bboxx_static"
        assert payload["alt"]["policy"] == "adaptive"

    def test_worker_engine_error_exits_1(self, sim_run, tmp_path, monkeypatch, capsys):
        _, cfg, _ = sim_run
        run = engine.run_scenario

        def failing_alt(scenario, **kwargs):
            if scenario.control.policy.value == "adaptive":
                raise EngineError("adaptive run failed")
            return run(scenario, **kwargs)

        monkeypatch.setattr(engine, "run_scenario", failing_alt)
        monkeypatch.setattr(engine, "should_fork_alt", lambda alt: True)
        rc = main(["compare", "--config", cfg, "--out", str(tmp_path / "cmp")])
        assert rc == 1
        assert "error: adaptive run failed" in capsys.readouterr().err

    def test_traces_stamped_from_the_profile_start(self, tmp_path):
        cfg = logged_config(tmp_path, datetime(2024, 6, 1, 6))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--out", str(out), "--emit-trace"]) == 0
        for policy in ("bboxx_static", "adaptive"):
            assert first_stamp(out / f"logged_{policy}_trace.csv") == "2024-06-01T06:00:00"

    def test_unknown_scenario(self, sim_run, tmp_path):
        _, cfg, _ = sim_run
        rc = main(
            ["compare", "--config", cfg, "--scenario", "ghost", "--out", str(tmp_path)]
        )
        assert rc == 1

    def test_same_policy_twice_exits_1_naming_both_flags(self, sim_run, tmp_path, capsys):
        """Two runs of one policy would write the same files at once."""
        _, cfg, _ = sim_run
        out = tmp_path / "cmp"
        argv = ["compare", "--config", cfg, "--out", str(out),
                "--base-policy", "adaptive", "--alt-policy", "adaptive"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: --base-policy and --alt-policy must differ: both are 'adaptive'\n"
        )
        assert not out.exists()

    def test_traces_match_compare_strategies(self, sim_run, tmp_path):
        """Each streamed trace has the bytes write_trace_csv gives the
        trace compare_strategies keeps of the same run."""
        _, cfg, _ = sim_run
        out = tmp_path / "cmp"
        assert main(["compare", "--config", cfg, "--out", str(out), "--emit-trace"]) == 0
        config = load_config(cfg)
        scenario = dataclasses.replace(
            cli.build_scenario(config, config.scenarios[0]), record_trace=True
        )
        base, alt = (
            dataclasses.replace(
                scenario, name=f"tiny_{p.value}", control=config.control.params(p)
            )
            for p in (Policy.BBOXX_STATIC, Policy.ADAPTIVE)
        )
        cmp_result = engine.compare_strategies(base, alt)
        for result in (cmp_result.base, cmp_result.alt):
            expected = tmp_path / f"{result.name}_expected.csv"
            profiles.write_trace_csv(str(expected), result.trace, scenario.profile.start)
            written = out / f"{result.name}_trace.csv"
            assert written.read_bytes() == expected.read_bytes(), result.name

    def test_failed_adaptive_run_leaves_no_trace_and_the_earlier_one(
        self, tmp_path, monkeypatch, capsys
    ):
        """The adaptive run fails part-way, after some blocks of its trace
        were written: its partial file is removed, the trace an earlier run
        wrote at its path keeps its bytes, and the finished static run's
        files stay."""
        cfg = write_text(tmp_path / "two.yaml", TWO_SCENARIOS)
        out = tmp_path / "o"
        out.mkdir()
        earlier = write_text(
            out / "first_adaptive_trace.csv", "timestamp\r\nan earlier trace\r\n"
        )
        before = earlier.read_bytes()
        run = engine.run_scenario

        def adaptive_fails(scenario, *, trace):
            if scenario.control.policy is Policy.ADAPTIVE:
                trace = FailsAfter(trace, 200)
            return run(scenario, trace=trace)

        monkeypatch.setattr(profiles, "TRACE_BLOCK", 16)
        monkeypatch.setattr(engine, "run_scenario", adaptive_fails)
        argv = ["compare", "--config", str(cfg), "--out", str(out), "--emit-trace"]
        assert main(argv) == 2
        assert "destination failed" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == [
            "first_adaptive_trace.csv", "first_bboxx_static.json",
            "first_bboxx_static_soc_hist.csv", "first_bboxx_static_trace.csv",
            "first_bboxx_static_trajectory.csv", "first_bboxx_static_voltage_hist.csv",
        ]
        assert earlier.read_bytes() == before

    def test_traced_parent_memory_does_not_grow_with_the_horizon(self, tmp_path):
        """The workers stream both traces to their files, so the parent of
        a traced compare over ten times the days peaks within 1 MB of the
        shorter one (it held both runs' traces, about 184 B per step each,
        2.4 MB more over 300 days of hourly steps, when it ran them
        itself).  Hourly steps, as the forked workers are traced too."""

        def parent_peak(days):
            cfg = write_text(
                tmp_path / f"run{days}.yaml",
                f"sim: {{max_years: {days / 365.0!r}, seed: 3}}\n"
                "scenarios: [{name: low, archetype: low}]\n",
            )
            argv = ["compare", "--config", str(cfg), "--out", str(tmp_path / f"o{days}"),
                    "--dt", "3600", "--emit-trace"]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        parent_peak(2)  # first-call memos and imports
        short, long = parent_peak(30), parent_peak(300)
        assert abs(long - short) < 1_000_000, (short, long)


class TestAnalyze:
    def test_stress_matches_simulation(self, sim_run, tmp_path, capsys):
        _, _, out = sim_run
        trace = os.path.join(out, "tiny_trace.csv")
        stress_dir = tmp_path / "stress"
        rc = main(
            ["analyze", "--trace", trace, "--capacity", "20.0", "--out", str(stress_dir)]
        )
        printed = capsys.readouterr().out
        assert rc == 0
        assert "full_equivalent_cycles" in printed
        payload = json.loads(open(stress_dir / "tiny_trace_stress.json").read())
        run_payload = json.loads(open(os.path.join(out, "tiny.json")).read())
        assert payload["full_equivalent_cycles"] == pytest.approx(
            run_payload["stress"]["full_equivalent_cycles"], rel=1e-12
        )
        assert payload["n_full_charges"] == run_payload["stress"]["n_full_charges"]

    def test_missing_trace(self, tmp_path):
        assert main(["analyze", "--trace", str(tmp_path / "none.csv")]) == 1

    @pytest.mark.parametrize("capacity", ["0", "-20", "nan", "inf"])
    def test_bad_capacity_rejected(self, sim_run, capsys, capacity):
        _, _, out = sim_run
        trace = os.path.join(out, "tiny_trace.csv")
        assert main(["analyze", "--trace", trace, "--capacity", capacity]) == 1
        captured = capsys.readouterr()
        message = f"capacity_ah must be positive and finite: {float(capacity)!r}"
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_single_record_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(
            "timestamp,current_a,soc,voltage,full_charge,floating\n"
            "2023-01-01T00:00:00,1.0,0.9,13.0,0,0\n"
        )
        assert main(["analyze", "--trace", str(path)]) == 1

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("timestamp,current_a,soc,voltage,full_charge,floating\n")
        assert main(["analyze", "--trace", str(path)]) == 1

    def test_trace_with_a_gap_rejected(self, sim_run, tmp_path, capsys):
        _, _, out = sim_run
        with open(os.path.join(out, "tiny_trace.csv")) as fh:
            lines = fh.readlines()
        path = tmp_path / "gap.csv"
        path.write_text("".join(lines[:1] + lines[2:11] + lines[500:601]))
        assert main(["analyze", "--trace", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 11" in err
        assert "internal error" not in err

    def test_undecodable_trace_exits_1_naming_it(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        path.write_bytes(undecodable() + b"timestamp,current_a,soc,voltage,full_charge,floating\n")
        assert main(["analyze", "--trace", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_short_row_names_line(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text(
            "timestamp,current_a,soc,voltage,full_charge,floating\n"
            "2023-01-01T00:00:00,1.0,0.9,13.0,0,0\n"
            "2023-01-01T00:15:00,1.0,0.91,13.0,0,0\n"
            "2023-01-01T00:30:00,1.0,0.92\n"
        )
        assert main(["analyze", "--trace", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 4" in err
        assert "internal error" not in err


class TestUsageErrors:
    """argparse rejects a command line it cannot parse with its usage
    message and exit code 2, before any subcommand runs; README says so."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "run.yaml", "--jobs", "x"],
            ["simulate", "--jobs", "2"],
            ["simulate", "--config", "run.yaml", "--no-such-option"],
            [],
        ],
    )
    def test_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: vrlasim" in capsys.readouterr().err

    def test_readme_states_it(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        paragraph = readme.split("\nExit codes:", 1)[1].split("\n\n", 1)[0]
        assert "usage error" in paragraph and "exits 2" in " ".join(paragraph.split())

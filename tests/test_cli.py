"""End-to-end CLI runs, in process via main(argv)."""

import json
import os

import pytest

from vrlasim import cli, engine
from vrlasim.cli import main
from vrlasim.config import load_config
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

    def test_failing_scenario_isolated(self, tmp_path, capsys):
        cfg = tmp_path / "mixed.yaml"
        cfg.write_text(
            "sim: {max_years: 0.01, seed: 1}\n"
            "scenarios:\n"
            "  - {name: good, archetype: low, days: 4}\n"
            "  - {name: bad, archetype: low, days: -5}\n"
        )
        out = tmp_path / "o"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert os.path.exists(out / "good.json")
        assert not os.path.exists(out / "bad.json")
        assert "bad" in captured.err

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

        def failing_alt(scenario):
            if scenario.control.policy.value == "adaptive":
                raise EngineError("adaptive run failed")
            return run(scenario)

        monkeypatch.setattr(engine, "run_scenario", failing_alt)
        monkeypatch.setattr(engine, "should_fork_alt", lambda alt: True)
        rc = main(["compare", "--config", cfg, "--out", str(tmp_path / "cmp")])
        assert rc == 1
        assert "error: adaptive run failed" in capsys.readouterr().err

    def test_unknown_scenario(self, sim_run, tmp_path):
        _, cfg, _ = sim_run
        rc = main(
            ["compare", "--config", cfg, "--scenario", "ghost", "--out", str(tmp_path)]
        )
        assert rc == 1


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

"""Simulation loop: bookkeeping closure, determinism, paired comparisons."""

import dataclasses
import math
import multiprocessing
import os
import threading
import time
from types import SimpleNamespace

import pytest

from helpers import START, constant_profile, cycling_profile, result_digest
from vrlasim import engine
from vrlasim.control import (
    ControllerState,
    ControlParams,
    Policy,
    adaptive_params,
    select_limits,
)
from vrlasim.battery import (
    Battery,
    BatteryParams,
    gassing_temperature_term,
)
from vrlasim.degradation import (
    Datasheet,
    DegradationParams,
    calibrate_limits,
    corrosion_temperature_factor,
)
from vrlasim.engine import (
    TEMPERATURE_MEMO_ENTRIES,
    EngineError,
    Scenario,
    compare_strategies,
    run_scenario,
    should_fork_alt,
)
from vrlasim.profiles import LOW_USE, TimeSeries, generate_archetype

LOW_60 = generate_archetype(LOW_USE, 60, seed=42)


def low_use_scenario(**overrides) -> Scenario:
    defaults = dict(name="low60", profile=LOW_60, record_trace=True)
    defaults.update(overrides)
    return Scenario(**defaults)


@pytest.fixture(scope="module")
def low_run():
    return run_scenario(low_use_scenario())


class TestTraceDestination:
    def test_records_go_to_the_destination_not_the_result(self):
        scenario = low_use_scenario(max_years=3 / 365)
        kept = run_scenario(scenario)
        destination = []
        streamed = run_scenario(scenario, trace=destination)
        assert streamed.trace is None
        assert destination == kept.trace and len(destination) == 3 * 96
        assert result_digest(dataclasses.replace(streamed, trace=destination)) == result_digest(
            kept
        )

    def test_a_destination_needs_a_traced_scenario(self):
        with pytest.raises(EngineError, match="low60: a trace destination needs record_trace"):
            run_scenario(low_use_scenario(record_trace=False), trace=[])


class TestScenarioValidation:
    def test_dt_must_divide_day(self):
        with pytest.raises(EngineError):
            low_use_scenario(dt_s=7.0)

    def test_dt_positive(self):
        with pytest.raises(EngineError):
            low_use_scenario(dt_s=-900.0)

    def test_initial_soc_range(self):
        with pytest.raises(EngineError):
            low_use_scenario(initial_soc=1.5)

    def test_efficiency_range(self):
        with pytest.raises(EngineError):
            low_use_scenario(converter_efficiency=0.0)
        with pytest.raises(EngineError):
            low_use_scenario(converter_efficiency=1.2)

    def test_max_years_positive(self):
        with pytest.raises(EngineError):
            low_use_scenario(max_years=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("key", ["dt_s", "max_years"])
    def test_horizon_and_step_must_be_finite(self, key, value):
        with pytest.raises(EngineError, match=f"{key} must be positive and finite"):
            low_use_scenario(**{key: value})

    def test_profile_dt_must_match(self):
        scenario = low_use_scenario(dt_s=450.0)  # profile is on a 900 s grid
        with pytest.raises(EngineError, match="dt"):
            run_scenario(scenario)


class TestBookkeeping:
    def test_day_records_are_consecutive(self, low_run):
        days = [r.day for r in low_run.trajectory]
        assert days == list(range(1, len(days) + 1))

    def test_loss_identity_every_day(self, low_run):
        for r in low_run.trajectory:
            assert r.c_total_ah == pytest.approx(
                r.c_corr_ah + r.c_deg_ah, abs=1e-12
            )

    def test_losses_monotone(self, low_run):
        t = low_run.trajectory
        for prev, cur in zip(t, t[1:]):
            assert cur.c_corr_ah >= prev.c_corr_ah
            assert cur.c_deg_ah >= prev.c_deg_ah
            assert cur.soh_pct <= prev.soh_pct

    def test_audit_closes(self, low_run):
        assert abs(low_run.audit.residual()) <= 1e-9

    def test_histograms_account_for_every_hour(self, low_run):
        hours = low_run.lifetime_days * 24.0
        assert sum(low_run.soc_hist_h) == pytest.approx(hours, rel=1e-9)
        assert sum(low_run.voltage_hist_h) == pytest.approx(hours, rel=1e-9)

    def test_trace_covers_every_step(self, low_run):
        assert low_run.trace is not None
        assert len(low_run.trace) == round(low_run.lifetime_days * 96)

    def test_summary_fields(self, low_run):
        s = low_run.summary()
        for key in (
            "name",
            "lifetime_years",
            "censored",
            "soh_end_pct",
            "corrosion_share_pct",
            "full_equivalent_cycles",
            "min_soc",
            "full_recharge_day_fraction",
        ):
            assert key in s

    def test_soh_at_day_matches_trajectory(self, low_run):
        assert low_run.soh_at_day(5) == low_run.trajectory[4].soh_pct
        assert low_run.soh_at_day(10_000) == low_run.trajectory[-1].soh_pct

    def test_full_event_days_match_stress(self, low_run):
        # the stress accumulator's count against the engine's own per-day
        # count in the day records
        assert low_run.full_charge_events == sum(d.full_charges for d in low_run.trajectory)

    def test_censored_run_spans_horizon(self):
        result = run_scenario(
            low_use_scenario(max_years=10.0 / 365.0, record_trace=False)
        )
        assert result.censored
        assert result.lifetime_days == pytest.approx(10.0, rel=1e-12)


class TestCalibrationMemo:
    @staticmethod
    def _run(**params):
        profile = constant_profile(2)
        return run_scenario(Scenario("memo", profile, max_years=2 / 365, **params))

    def test_equal_parameters_calibrate_once(self):
        calibrate_limits.cache_clear()
        runs = [
            self._run(battery=BatteryParams(), degradation=DegradationParams(), datasheet=Datasheet())
            for _ in range(2)
        ]
        info = calibrate_limits.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert result_digest(runs[0]) == result_digest(runs[1])

    def test_other_datasheet_calibrates_anew(self):
        calibrate_limits.cache_clear()
        base = self._run()
        other = self._run(datasheet=Datasheet(float_life_years=5.0))
        info = calibrate_limits.cache_info()
        assert (info.misses, info.hits) == (2, 0)
        assert other.c_corr_ah != base.c_corr_ah

    def test_memoised_limits_equal_a_fresh_integration(self):
        args = (BatteryParams(), DegradationParams(), Datasheet(float_life_years=5.0))
        assert calibrate_limits(*args) == calibrate_limits.__wrapped__(*args)


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        a = dataclasses.asdict(run_scenario(low_use_scenario(name="rep")))
        b = dataclasses.asdict(run_scenario(low_use_scenario(name="rep")))
        a.pop("runtime_s")
        b.pop("runtime_s")
        assert a == b


@pytest.fixture(scope="module")
def idle_run():
    profile = constant_profile(10, solar_w=0.0)
    return run_scenario(Scenario(name="idle", profile=profile, record_trace=True))


class TestIdleDrift:
    """No load, no solar: only gassing self-discharge and corrosion."""

    def test_no_cycling(self, idle_run):
        assert idle_run.full_equivalent_cycles == 0.0
        assert idle_run.stress.charge_factor is None
        assert idle_run.full_charge_events == 0

    def test_gassing_drains_soc(self, idle_run):
        assert idle_run.min_soc < 0.9
        assert idle_run.audit.integral < 0.0

    def test_throughput_channel_stays_at_floor(self, idle_run):
        floor = idle_run.eol_threshold_ah * math.exp(-5.0)
        for r in idle_run.trajectory:
            assert r.c_deg_ah == pytest.approx(floor, rel=1e-12)

    def test_corrosion_still_accrues(self, idle_run):
        t = idle_run.trajectory
        assert t[-1].c_corr_ah > t[0].c_corr_ah > 0.0


@pytest.fixture(scope="module")
def cycling_run():
    profile = cycling_profile(6)
    return run_scenario(
        Scenario(
            name="cyc",
            profile=profile,
            control=ControlParams(cutoff_soc=0.05),
            initial_soc=1.0,
            record_trace=True,
        )
    )


class TestDailyCycling:

    def test_daily_full_recharges(self, cycling_run):
        assert cycling_run.full_charge_events >= 4
        assert cycling_run.full_recharge_day_fraction >= 0.8

    def test_full_snap_audited(self, cycling_run):
        assert cycling_run.audit.full_reset_jumps > 0.0
        assert abs(cycling_run.audit.residual()) <= 1e-9

    def test_trace_marks_full_events(self, cycling_run):
        marked = sum(1 for r in cycling_run.trace if r.full_charge)
        assert marked == cycling_run.full_charge_events

    def test_deep_cycling_registers(self, cycling_run):
        assert cycling_run.min_soc < 0.3
        assert cycling_run.full_equivalent_cycles > 2.0
        assert cycling_run.disconnect_events == 0

    # 96 s is a step inexact in hours: 20 days of it sum to over 20.0 days
    @pytest.mark.parametrize("dt_s", [96.0, 337.5, 600.0, 900.0, 3600.0])
    @pytest.mark.parametrize("control", [ControlParams(), adaptive_params()])
    def test_full_recharges_counted_once(self, dt_s, control):
        control = dataclasses.replace(control, cutoff_soc=0.05)
        profile = cycling_profile(20, dt_s=dt_s)
        result = run_scenario(
            Scenario("c20", profile, control, dt_s=dt_s, max_years=20 / 365, initial_soc=1.0)
        )
        days = result.trajectory
        assert len(days) == 20
        assert result.full_charge_events == sum(d.full_charges for d in days)
        assert result.full_recharge_day_fraction == sum(d.full_charges > 0 for d in days) / 20

    def test_day_with_two_full_recharges(self):
        """Two discharge-recharge cycles a day: each full recharge is an
        event, while the day fraction counts days with one, not events."""
        n = 10 * 96
        load, solar = [], []
        for i in range(n):
            h = (i % 96) / 4.0
            load.append(60.0 if 4.0 <= h < 6.0 or 11.0 <= h < 12.0 or 19.0 <= h < 21.0 else 0.0)
            solar.append(120.0 if 7.0 <= h < 11.0 or 12.0 <= h < 17.0 else 0.0)
        profile = TimeSeries(START, 900.0, load, solar, [25.0] * n, panel_rating_w=120.0)
        result = run_scenario(Scenario("twice", profile, max_years=10 / 365, initial_soc=1.0))
        days = result.trajectory
        assert len(days) == 10
        assert all(d.full_charges == 2 for d in days)
        assert result.full_charge_events == sum(d.full_charges for d in days) == 20
        assert result.full_recharge_day_fraction == sum(d.full_charges > 0 for d in days) / 10 == 1.0


def test_no_rest_correction_while_float_holds_below_rest_current(monkeypatch):
    """The rest rule applies in BULK only: a float hold current below
    rest_current_a is not rest, since the terminal is still polarised."""

    def refuse(self, voltage, seed=0.5):
        raise AssertionError("rest correction outside BULK")

    monkeypatch.setattr(Battery, "invert_ocv", refuse)
    profile = constant_profile(2)
    result = run_scenario(Scenario("float", profile, max_years=2 / 365, record_trace=True))
    rest_a = BatteryParams().rest_current_a
    assert any(r.floating and abs(r.current_a) < rest_a for r in result.trace)


class TestEndOfLife:
    def test_short_float_life_reaches_eol(self):
        profile = constant_profile(40)
        result = run_scenario(
            Scenario(
                name="eol",
                profile=profile,
                datasheet=Datasheet(float_life_years=0.02),
                max_years=0.1,
            )
        )
        assert not result.censored
        assert result.c_total_ah >= result.eol_threshold_ah
        assert result.soh_end_pct <= 80.0
        assert result.lifetime_days < 15.0


class TestComparisons:
    def test_policies_must_share_everything_else(self):
        base = low_use_scenario(name="base")
        with pytest.raises(EngineError, match="policy"):
            compare_strategies(
                base,
                low_use_scenario(
                    name="alt", battery=BatteryParams(capacity_ah=10.0)
                ),
            )

    def test_profiles_must_match(self):
        other = generate_archetype(LOW_USE, 60, seed=43)
        with pytest.raises(EngineError, match="profile"):
            compare_strategies(
                low_use_scenario(name="base"),
                low_use_scenario(name="alt", profile=other),
            )

    def test_equal_content_profiles_accepted(self):
        clone = generate_archetype(LOW_USE, 60, seed=42)
        short_a = Scenario(name="a", profile=LOW_60, max_years=4.0 / 365.0)
        short_b = Scenario(name="b", profile=clone, max_years=4.0 / 365.0)
        cmp = compare_strategies(short_a, short_b)
        assert cmp.lifetime_ratio == 1.0

    def test_self_comparison_is_neutral(self):
        base = Scenario(name="base", profile=LOW_60, max_years=8.0 / 365.0)
        alt = Scenario(name="alt", profile=LOW_60, max_years=8.0 / 365.0)
        cmp = compare_strategies(base, alt)
        assert cmp.lifetime_ratio == 1.0
        assert cmp.corrosion_reduction_pct == 0.0
        assert cmp.active_mass_loss_ratio == 1.0
        assert cmp.max_soh_deficit_pct == 0.0
        assert cmp.soh_never_worse
        assert cmp.alt_soh_at_base_eol_pct == cmp.base.trajectory[-1].soh_pct

    def test_adaptive_policy_spaces_out_full_charges(self):
        base = Scenario(
            name="base", profile=LOW_60, control=ControlParams(), max_years=60.0 / 365.0
        )
        alt = Scenario(
            name="alt", profile=LOW_60, control=adaptive_params(), max_years=60.0 / 365.0
        )
        cmp = compare_strategies(base, alt)
        assert cmp.base.policy == Policy.BBOXX_STATIC.value
        assert cmp.alt.policy == Policy.ADAPTIVE.value
        assert (
            cmp.alt.full_recharge_day_fraction < cmp.base.full_recharge_day_fraction
        )


def test_electrolyte_evaluated_about_once_per_step(monkeypatch):
    # Battery.electrolyte evaluates the chain in its own frame, so count
    # its calls that miss the memo
    evaluations = 0
    electrolyte = Battery.electrolyte

    def counting(self, soc):
        nonlocal evaluations
        if soc != self._memo[0]:
            evaluations += 1
        return electrolyte(self, soc)

    monkeypatch.setattr(Battery, "electrolyte", counting)
    days = 30
    result = run_scenario(
        Scenario("low30", generate_archetype(LOW_USE, days, seed=42), max_years=days / 365)
    )
    steps = days * 96
    assert result.lifetime_days == days
    assert 0 < evaluations / steps <= 1.1


def static_vs_adaptive(profile=LOW_60, days=60, record_trace=False):
    base = Scenario("base", profile, max_years=days / 365.0, record_trace=record_trace)
    return base, dataclasses.replace(base, name="alt", control=adaptive_params())


def recorded_temperature_terms(monkeypatch) -> list:
    """Every TemperatureTerms that run_scenario creates in this process."""
    made = []

    class Recorded(engine.TemperatureTerms):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(engine, "TemperatureTerms", Recorded)
    return made


def force_worker(monkeypatch, use: bool) -> None:
    monkeypatch.setattr(engine, "should_fork_alt", lambda alt: use)


class TestConcurrentCompare:
    @pytest.mark.parametrize("record_trace", [False, True])
    def test_worker_and_sequential_results_identical(self, monkeypatch, record_trace):
        base, alt = static_vs_adaptive(record_trace=record_trace)
        force_worker(monkeypatch, True)
        concurrent = compare_strategies(base, alt)
        force_worker(monkeypatch, False)
        sequential = compare_strategies(base, alt)
        assert (concurrent.alt.trace is not None) == record_trace
        assert result_digest(concurrent) == result_digest(sequential)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("use", [True, False])
    def test_alt_runs_in_a_worker_only_when_chosen(self, monkeypatch, use):
        run = engine.run_scenario

        def tagged(scenario):
            return dataclasses.replace(
                run(scenario), name=f"{scenario.name}@{os.getpid()}"
            )

        monkeypatch.setattr(engine, "run_scenario", tagged)
        force_worker(monkeypatch, use)
        cmp = compare_strategies(*static_vs_adaptive(days=4))
        assert cmp.base.name == f"base@{os.getpid()}"
        assert (cmp.alt.name != f"alt@{os.getpid()}") == use
        assert cmp.base.policy == "bboxx_static"
        assert cmp.alt.policy == "adaptive"

    @pytest.mark.parametrize("error", [EngineError, ValueError])
    @pytest.mark.parametrize("failing", ["base", "alt", "both"])
    def test_run_error_surfaces_and_worker_is_reaped(
        self, monkeypatch, failing, error
    ):
        run = engine.run_scenario

        def failing_run(scenario):
            if failing in (scenario.name, "both"):
                raise error(f"{scenario.name} failed")
            return run(scenario)

        monkeypatch.setattr(engine, "run_scenario", failing_run)
        force_worker(monkeypatch, True)
        with pytest.raises(error) as excinfo:
            compare_strategies(*static_vs_adaptive(days=4))
        assert type(excinfo.value) is error
        assert str(excinfo.value) == ("alt" if failing == "alt" else "base") + " failed"
        assert not multiprocessing.active_children()

    def test_base_error_stops_a_running_worker(self, monkeypatch):
        parent = os.getpid()

        def stuck_alt_failing_base(scenario):
            if os.getpid() != parent:
                time.sleep(60.0)
            raise EngineError(f"{scenario.name} failed")

        monkeypatch.setattr(engine, "run_scenario", stuck_alt_failing_base)
        force_worker(monkeypatch, True)
        started = time.monotonic()
        with pytest.raises(EngineError, match="base failed"):
            compare_strategies(*static_vs_adaptive(days=4))
        assert time.monotonic() - started < 30.0
        assert not multiprocessing.active_children()

    def test_profile_dt_mismatch_surfaces_from_both_runs(self, monkeypatch):
        base, alt = static_vs_adaptive(days=4)
        force_worker(monkeypatch, True)
        with pytest.raises(
            EngineError, match="profile dt 900.0s does not match scenario dt 450.0s"
        ):
            compare_strategies(
                dataclasses.replace(base, dt_s=450.0),
                dataclasses.replace(alt, dt_s=450.0),
            )
        assert not multiprocessing.active_children()

    def test_worker_exit_without_result_is_reported(self, monkeypatch):
        parent = os.getpid()
        run = engine.run_scenario

        def dying_run(scenario):
            if os.getpid() != parent:
                os._exit(3)
            return run(scenario)

        monkeypatch.setattr(engine, "run_scenario", dying_run)
        force_worker(monkeypatch, True)
        with pytest.raises(RuntimeError, match="'alt' exited with code 3"):
            compare_strategies(*static_vs_adaptive(days=4))
        assert not multiprocessing.active_children()


class TestShouldForkAlt:
    def test_two_cpus_with_fork_in_a_single_threaded_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"]
        )
        _, alt = static_vs_adaptive()
        assert should_fork_alt(alt)

    @pytest.mark.parametrize("blocker", ["one_cpu", "no_fork", "daemon", "trace"])
    def test_any_blocker_means_sequential(self, monkeypatch, blocker):
        cpus = {0} if blocker == "one_cpu" else {0, 1}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: len(cpus))
        methods = ["spawn"] if blocker == "no_fork" else ["fork", "spawn"]
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        process = SimpleNamespace(daemon=blocker == "daemon")
        monkeypatch.setattr(multiprocessing, "current_process", lambda: process)
        _, alt = static_vs_adaptive(record_trace=blocker == "trace")
        assert not should_fork_alt(alt)

    def test_another_thread_means_sequential(self):
        _, alt = static_vs_adaptive()
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10.0,))
        thread.start()
        try:
            assert not should_fork_alt(alt)
        finally:
            release.set()
            thread.join(10.0)
        assert not thread.is_alive()


class TestTemperatureTerms:
    def test_entries_equal_fresh_evaluations(self, monkeypatch):
        memos = recorded_temperature_terms(monkeypatch)
        control = adaptive_params()
        scenario = Scenario("low60", LOW_60, control=control, max_years=60 / 365.0)
        run_scenario(scenario)
        (memo,) = memos
        assert set(memo.entries) == set(LOW_60.temp_c)
        params, gassing = scenario.degradation, scenario.battery.gassing
        for temp_c, (factor, gas_term, limits) in memo.entries.items():
            temp_k = temp_c + 273.15
            assert factor == corrosion_temperature_factor(temp_k, params)
            assert gas_term == gassing_temperature_term(temp_k, gassing)
            assert limits == (
                control.full_limits.compensated(temp_c),
                control.partial_limits.compensated(temp_c),
            )
            assert select_limits(ControllerState(), control, temp_c)[:2] == limits[0]

    def test_distinct_temperatures_stop_at_the_bound(self, monkeypatch):
        n = len(LOW_60)
        assert n > TEMPERATURE_MEMO_ENTRIES
        profile = dataclasses.replace(
            LOW_60, temp_c=[15.0 + 20.0 * i / n for i in range(n)]
        )
        assert len(set(profile.temp_c)) == n
        base, alt = static_vs_adaptive(profile)
        memos = recorded_temperature_terms(monkeypatch)
        force_worker(monkeypatch, True)
        concurrent = compare_strategies(base, alt)
        (memo,) = memos  # the base run's; the alt run's lived in the worker
        assert len(memo.entries) == TEMPERATURE_MEMO_ENTRIES
        # reference: both runs in this process, and nothing memoised
        force_worker(monkeypatch, False)
        monkeypatch.setattr(engine, "TEMPERATURE_MEMO_ENTRIES", 0)
        reference = compare_strategies(base, alt)
        assert len(memos) == 3
        assert not memos[1].entries and not memos[2].entries
        assert result_digest(concurrent) == result_digest(reference)

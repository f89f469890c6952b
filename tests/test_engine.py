"""Simulation loop: bookkeeping closure, determinism, paired comparisons."""

import dataclasses
import math

import pytest

from helpers import constant_profile, cycling_profile
from vrlasim.control import ControlParams, Policy, adaptive_params
from vrlasim.battery import Battery, BatteryParams
from vrlasim.degradation import Datasheet
from vrlasim.engine import (
    EngineError,
    Scenario,
    compare_strategies,
    run_scenario,
)
from vrlasim.profiles import LOW_USE, generate_archetype

LOW_60 = generate_archetype(LOW_USE, 60, seed=42)


def low_use_scenario(**overrides) -> Scenario:
    defaults = dict(name="low60", profile=LOW_60, record_trace=True)
    defaults.update(overrides)
    return Scenario(**defaults)


@pytest.fixture(scope="module")
def low_run():
    return run_scenario(low_use_scenario())


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
        assert low_run.full_charge_events == low_run.stress.n_full_charges

    def test_censored_run_spans_horizon(self):
        result = run_scenario(
            low_use_scenario(max_years=10.0 / 365.0, record_trace=False)
        )
        assert result.censored
        assert result.lifetime_days == pytest.approx(10.0, rel=1e-12)


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
    evaluations = 0
    log_molality = Battery.log_molality

    def counting(self, concentration):
        nonlocal evaluations
        evaluations += 1
        return log_molality(self, concentration)

    monkeypatch.setattr(Battery, "log_molality", counting)
    days = 30
    result = run_scenario(
        Scenario("low30", generate_archetype(LOW_USE, days, seed=42), max_years=days / 365)
    )
    steps = days * 96
    assert result.lifetime_days == days
    assert evaluations / steps <= 1.1

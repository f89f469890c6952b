"""Three-stage charge controller and adaptive recharge scheduling."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vrlasim.battery import Battery, BatteryParams, hold_voltage_current, terminal_voltage
from vrlasim.control import (
    BBOXX_LIMITS,
    FULL_LIMITS,
    MAX_FULL_RECHARGE_INTERVAL_DAYS,
    PARTIAL_LIMITS,
    ControllerState,
    ControlParams,
    Phase,
    Policy,
    VoltageLimits,
    adaptive_params,
    recharge_interval,
    reschedule,
    select_limits,
    tscc_step,
    update_load_disconnect,
    wants_full_limits,
)

BATTERY = BatteryParams()


class TestVoltageLimits:
    def test_compensation_shifts_down_when_hot(self):
        assert FULL_LIMITS.compensated(35.0) == pytest.approx((14.2, 13.2), abs=1e-12)

    def test_compensation_shifts_up_when_cold(self):
        assert FULL_LIMITS.compensated(15.0) == pytest.approx((14.8, 13.8), abs=1e-12)

    def test_no_shift_at_reference(self):
        assert FULL_LIMITS.compensated(25.0) == (14.5, 13.5)

    def test_static_limits_ignore_temperature(self):
        assert BBOXX_LIMITS.compensated(40.0) == (14.5, 13.5)
        assert BBOXX_LIMITS.compensated(0.0) == (14.5, 13.5)

    def test_float_above_limit_rejected(self):
        with pytest.raises(ValueError):
            VoltageLimits(13.0, 13.5)

    def test_partial_set_sits_below_full_set(self):
        assert PARTIAL_LIMITS.v_limit < FULL_LIMITS.v_limit
        assert PARTIAL_LIMITS.v_float < FULL_LIMITS.v_float


class TestControlParams:
    def test_taper_current(self):
        assert ControlParams().taper_current_a(20.0) == pytest.approx(0.4, rel=1e-12)

    def test_reconnect_above_cutoff(self):
        p = ControlParams()
        assert p.reconnect_soc() == pytest.approx(0.55, rel=1e-12)

    def test_adaptive_factory(self):
        p = adaptive_params()
        assert p.policy is Policy.ADAPTIVE
        assert p.full_limits is FULL_LIMITS
        assert p.partial_limits is PARTIAL_LIMITS


class TestRechargeInterval:
    def test_no_corrosion_gives_daily(self):
        assert recharge_interval(0.0, 0.1) == 1.0

    def test_half_share(self):
        assert recharge_interval(0.05, 0.1) == pytest.approx(3.5, rel=1e-12)

    def test_pure_corrosion_gives_max(self):
        assert recharge_interval(0.1, 0.1) == MAX_FULL_RECHARGE_INTERVAL_DAYS

    def test_share_above_one_clamps(self):
        assert recharge_interval(0.2, 0.1) == MAX_FULL_RECHARGE_INTERVAL_DAYS

    def test_no_loss_carries_forward(self):
        assert recharge_interval(0.0, 0.0) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            recharge_interval(-0.1, 0.1)
        with pytest.raises(ValueError):
            recharge_interval(0.1, -0.1)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_bounded_when_defined(self, dc_corr, dc):
        d = recharge_interval(dc_corr, dc)
        if d is not None:
            assert 1.0 <= d <= 6.0


class TestLimitSelection:
    def test_static_policy_always_full(self):
        params = ControlParams(policy=Policy.BBOXX_STATIC)
        for days in (0, 1, 3, 10):
            assert wants_full_limits(days, 1.0, params)

    def test_adaptive_waits_out_interval(self):
        params = adaptive_params()
        assert not wants_full_limits(3, 3.5, params)
        assert wants_full_limits(4, 3.5, params)

    def test_interval_capped_at_six_days(self):
        params = adaptive_params()
        assert wants_full_limits(6, 99.0, params)

    def test_interval_pinned_at_one_recharges_daily(self):
        # adaptive degenerates to the static daily schedule
        params = adaptive_params()
        for days in range(1, 8):
            assert wants_full_limits(days, 1.0, params)

    @given(st.floats(min_value=0.0), st.floats(min_value=0.0))
    @example(math.inf, math.inf)  # a nan interval
    @example(0.0, 0.0)  # no loss: the interval carries over
    def test_no_full_set_right_after_a_full_recharge(self, dc_corr, dc):
        """The compiled kernel clears full_set after every adaptive full
        recharge without computing wants_full_limits: no interval the
        scheduler can hold, the initial one included, is below one day."""
        interval = recharge_interval(dc_corr, dc)
        if interval is None:
            interval = ControllerState().interval_days
        assert not wants_full_limits(0, interval, adaptive_params())

    def test_select_limits_full_set(self):
        params = adaptive_params()
        state = ControllerState(full_set=wants_full_limits(6, 2.0, params))
        v_limit, v_float = select_limits(state, params, 25.0)
        assert (v_limit, v_float, state.full_set) == (14.5, 13.5, True)

    def test_select_limits_partial_set(self):
        params = adaptive_params()
        state = ControllerState(full_set=wants_full_limits(1, 6.0, params))
        v_limit, v_float = select_limits(state, params, 25.0)
        assert (v_limit, v_float, state.full_set) == (13.0, 12.8, False)

    def test_select_limits_compensates(self):
        params = adaptive_params()
        state = ControllerState(full_set=wants_full_limits(6, 2.0, params))
        v_limit, v_float = select_limits(state, params, 35.0)
        assert v_limit == pytest.approx(14.2, abs=1e-12)
        assert v_float == pytest.approx(13.2, abs=1e-12)


class TestReschedule:
    def test_counts_day_plus_one_before_the_first_full_recharge(self):
        params = adaptive_params()
        state = ControllerState()
        # interval 3.5 days: 3 days are too few, 4 are enough
        assert not reschedule(state, params, 2, 0.05, 0.1, -1)
        assert state.interval_days == pytest.approx(3.5, rel=1e-12)
        assert reschedule(state, params, 3, 0.05, 0.1, -1)
        assert state.full_set
        # a full recharge on day 0 counts from day 0
        assert not reschedule(state, params, 3, 0.05, 0.1, 0)
        assert not state.full_set

    def test_lossless_day_keeps_the_interval(self):
        params = adaptive_params()
        state = ControllerState(interval_days=3.5)
        assert not reschedule(state, params, 5, 0.0, 0.0, 2)
        assert state.interval_days == 3.5
        assert reschedule(state, params, 6, 0.0, 0.0, 2)
        assert state.interval_days == 3.5

    def test_waits_at_most_six_days(self):
        params = adaptive_params()
        state = ControllerState(interval_days=99.0)
        assert not reschedule(state, params, 9, 0.0, 0.0, 4)
        assert reschedule(state, params, 10, 0.0, 0.0, 4)
        # pure corrosion sets the longest interval, six days
        assert not reschedule(state, params, 5, 0.1, 0.1, 0)
        assert state.interval_days == MAX_FULL_RECHARGE_INTERVAL_DAYS
        assert reschedule(state, params, 6, 0.1, 0.1, 0)

    def test_static_policy_keeps_the_full_set(self):
        params = ControlParams(policy=Policy.BBOXX_STATIC)
        state = ControllerState()
        assert reschedule(state, params, 1, 0.1, 0.1, 1)
        assert state.full_set


class TestLoadDisconnect:
    def test_cutoff_and_hysteresis_sequence(self):
        params = ControlParams()
        state = ControllerState()
        assert update_load_disconnect(state, 0.60, params) is False
        assert not state.load_disconnected
        assert update_load_disconnect(state, 0.49, params) is True
        assert state.load_disconnected
        # still below the reconnect threshold
        assert update_load_disconnect(state, 0.54, params) is False
        assert state.load_disconnected
        assert update_load_disconnect(state, 0.55, params) is False
        assert not state.load_disconnected

    def test_exact_cutoff_stays_connected(self):
        params = ControlParams()
        state = ControllerState()
        assert update_load_disconnect(state, 0.50, params) is False
        assert not state.load_disconnected


class TestTsccStep:
    TAPER = ControlParams().taper_current_a(BATTERY.capacity_ah)

    def _step(self, state, soc, avail, load, v_limit=14.5, v_float=13.5):
        return tscc_step(
            state, soc, 0.0, avail, load, v_limit, v_float, Battery(BATTERY), self.TAPER
        )

    def test_deficit_discharges_and_rearms(self):
        state = ControllerState(phase=Phase.FLOAT)
        applied, events = self._step(state, 0.8, 0.0, 2.0)
        assert applied == -2.0
        assert state.phase is Phase.BULK
        assert events == type(events)()

    def test_bulk_passes_surplus_through(self):
        state = ControllerState()
        applied, events = self._step(state, 0.5, 3.0, 1.0)
        assert applied == 2.0
        assert state.phase is Phase.BULK
        assert not events.float_entered

    def test_bulk_enters_absorption_at_ceiling(self):
        state = ControllerState()
        applied, events = self._step(state, 0.99, 10.0, 0.0)
        assert state.phase is Phase.ABSORPTION
        assert 0.0 < applied < 10.0
        # held exactly at the ceiling
        assert terminal_voltage(0.99, applied, BATTERY) == pytest.approx(
            14.5, abs=1e-9
        )
        # no float transition on the entering step even if already tapered
        assert not events.float_entered

    def test_absorption_holds_ceiling(self):
        state = ControllerState(phase=Phase.ABSORPTION)
        applied, events = self._step(state, 0.97, 5.0, 0.0)
        i_hold = hold_voltage_current(0.97, 14.5, BATTERY)
        assert i_hold > self.TAPER
        assert applied == pytest.approx(i_hold, rel=1e-12)
        assert state.phase is Phase.ABSORPTION
        assert not events.float_entered

    def test_taper_completion_enters_float(self):
        state = ControllerState(phase=Phase.ABSORPTION, full_set=True)
        i_hold = hold_voltage_current(0.995, 14.5, BATTERY)
        assert i_hold < self.TAPER
        applied, events = self._step(state, 0.995, 2.0, 0.0)
        assert state.phase is Phase.FLOAT
        assert events.float_entered
        assert events.full_charge
        assert applied == pytest.approx(i_hold, rel=1e-12)

    def test_partial_set_taper_is_not_a_full_charge(self):
        state = ControllerState(phase=Phase.ABSORPTION, full_set=False)
        applied, events = self._step(state, 0.995, 2.0, 0.0)
        assert events.float_entered
        assert not events.full_charge

    def test_starved_absorption_stays_put(self):
        # source cannot sustain the hold current: no float transition
        state = ControllerState(phase=Phase.ABSORPTION)
        i_hold = hold_voltage_current(0.995, 14.5, BATTERY)
        applied, events = self._step(state, 0.995, i_hold * 0.5, 0.0)
        assert not events.float_entered
        assert state.phase is Phase.ABSORPTION
        assert applied == pytest.approx(i_hold * 0.5, rel=1e-12)

    def test_float_holds_setpoint(self):
        state = ControllerState(phase=Phase.FLOAT)
        applied, _ = self._step(state, 0.999, 2.0, 0.0)
        assert 0.0 < applied < self.TAPER
        assert terminal_voltage(0.999, applied, BATTERY) == pytest.approx(
            13.5, abs=1e-9
        )

    def test_float_with_ocv_above_setpoint_idles(self):
        state = ControllerState(phase=Phase.FLOAT)
        applied, _ = self._step(state, 0.999, 2.0, 0.0, v_float=12.0)
        assert applied == 0.0
        assert state.phase is Phase.FLOAT

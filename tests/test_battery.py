"""Electrical model oracles and properties."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vrlasim.battery import (
    FARADAY,
    OCV_COEFFS,
    OCV_TURNING_POINT,
    SOC_CAP,
    SOC_FLOOR,
    Battery,
    BatteryParamError,
    BatteryParams,
    GassingParams,
    acid_concentration,
    battery_ocv,
    cell_ocv,
    effective_b0,
    gassing_current,
    hold_voltage_current,
    invert_battery_ocv,
    log_molality,
    positive_cell_ocv,
    step_soc,
    terminal_voltage,
)

PARAMS = BatteryParams()
# An electrolyte that is nearly spent at soc 0: log10 molality there
# (-1.6165) lies below the OCV polynomial's turning point (-1.6109), so the
# OCV near SOC_FLOOR would lie below the OCV at soc 0.
SPENT_VOLUME_M3 = 1.3755e-4


def least_volume_m3(capacity, c_max, v_water, v_acid, m_water):
    """The electrolyte volume at which log10 molality at soc 0 is the OCV's
    turning point: the least that keeps the OCV rising with soc."""
    molality = 10.0**OCV_TURNING_POINT
    c_turn = 1e6 * molality * m_water / (1e3 * v_water + molality * m_water * v_acid)
    return capacity * 3600.0 / (FARADAY * (c_max - c_turn))


@st.composite
def battery_params(draw):
    """Valid BatteryParams, some with an electrolyte nearly spent at soc 0."""
    capacity = draw(st.floats(1.0, 200.0))
    c_max = draw(st.floats(500.0, 15000.0))
    v_water = draw(st.floats(5.0, 40.0))
    v_acid = draw(st.floats(10.0, 60.0))
    m_water = draw(st.floats(5.0, 40.0))
    # the electrolyte volume as a multiple of the least that keeps the OCV
    # rising with soc
    least = least_volume_m3(capacity, c_max, v_water, v_acid, m_water)
    margin = draw(st.one_of(st.floats(1.0, 1.01), st.floats(1.0, 3.0)))
    try:
        return BatteryParams(
            capacity_ah=capacity,
            cells_in_series=draw(st.integers(1, 24)),
            c_max=c_max,
            electrolyte_volume_m3=least * margin,
            v_water=v_water,
            v_acid=v_acid,
            m_water=m_water,
        )
    except BatteryParamError:
        assume(False)


class TestAcidConcentration:
    def test_swing_matches_capacity_over_volume(self):
        # 20 Ah of charge consumes 20*3600/F mol of acid per m^3 of electrolyte
        assert PARAMS.concentration_swing() == pytest.approx(5218.0, abs=1.0)

    def test_full_charge_pins_c_max(self):
        assert acid_concentration(1.0, PARAMS) == PARAMS.c_max

    def test_offset_at_empty(self):
        offset = PARAMS.c_max - acid_concentration(0.0, PARAMS)
        assert offset == pytest.approx(5218.0, abs=1.0)

    def test_offset_at_half(self):
        offset = PARAMS.c_max - acid_concentration(0.5, PARAMS)
        assert offset == pytest.approx(2609.0, abs=1.0)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_affine_in_soc(self, s1, s2):
        mid = acid_concentration(0.5 * (s1 + s2), PARAMS)
        avg = 0.5 * (acid_concentration(s1, PARAMS) + acid_concentration(s2, PARAMS))
        assert mid == pytest.approx(avg, rel=1e-12)

    def test_out_of_range_soc_rejected(self):
        with pytest.raises(ValueError):
            acid_concentration(1.2, PARAMS)

    def test_tiny_electrolyte_rejected(self):
        with pytest.raises(BatteryParamError):
            BatteryParams(electrolyte_volume_m3=1e-5)


class TestMolality:
    def test_unit_molality_gives_zero_log(self):
        # molality hits exactly 1 mol/kg where c (mol/cm^3) = m_w/(1000*v_w + m_w*v_a)
        c_star = 1e6 * 18.0 / (1000.0 * 17.5 + 18.0 * 45.0)
        assert log_molality(c_star, PARAMS) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_concentration(self):
        cs = [500.0, 1000.0, 2000.0, 4000.0, 5400.0]
        ys = [log_molality(c, PARAMS) for c in cs]
        assert ys == sorted(ys)

    def test_nonpositive_concentration_rejected(self):
        with pytest.raises(ValueError):
            log_molality(0.0, PARAMS)


class TestOcvPolynomials:
    def test_cell_anchor_points(self):
        assert cell_ocv(0.0) == pytest.approx(1.92, abs=1e-12)
        assert cell_ocv(1.0) == pytest.approx(2.23, abs=1e-12)
        assert cell_ocv(-1.0) == pytest.approx(1.79, abs=1e-12)

    def test_positive_anchor_points(self):
        assert positive_cell_ocv(0.0) == pytest.approx(1.628, abs=1e-12)
        assert positive_cell_ocv(1.0) == pytest.approx(1.800, abs=1e-12)
        assert positive_cell_ocv(-1.0) == pytest.approx(1.566, abs=1e-12)

    def test_battery_ocv_is_six_cells(self):
        y = log_molality(acid_concentration(0.8, PARAMS), PARAMS)
        assert battery_ocv(0.8, PARAMS) == pytest.approx(6 * cell_ocv(y), rel=1e-12)

    def test_full_charge_ocv_plausible_per_cell(self):
        per_cell = battery_ocv(1.0, PARAMS) / 6
        assert 2.05 <= per_cell <= 2.15

    @given(st.floats(0.01, 1.0))
    def test_monotone_in_soc(self, s):
        assert battery_ocv(s, PARAMS) > battery_ocv(s - 0.01, PARAMS)


class TestTerminalVoltage:
    def test_zero_current_is_ocv(self):
        for s in (0.05, 0.3, 0.7, 0.95):
            assert terminal_voltage(s, 0.0, PARAMS) == battery_ocv(s, PARAMS)

    def test_charge_raises_discharge_lowers(self):
        v0 = terminal_voltage(0.5, 0.0, PARAMS)
        assert terminal_voltage(0.5, 2.0, PARAMS) > v0
        assert terminal_voltage(0.5, -2.0, PARAMS) < v0

    def test_charge_overpotential_diverges_near_full(self):
        lo = terminal_voltage(0.9, 1.0, PARAMS) - battery_ocv(0.9, PARAMS)
        hi = terminal_voltage(0.999, 1.0, PARAMS) - battery_ocv(0.999, PARAMS)
        assert hi > 10 * lo

    def test_discharge_sag_diverges_near_empty(self):
        mid = battery_ocv(0.5, PARAMS) - terminal_voltage(0.5, -1.0, PARAMS)
        low = battery_ocv(0.01, PARAMS) - terminal_voltage(0.01, -1.0, PARAMS)
        assert low > 10 * mid

    def test_aged_battery_sags_more(self):
        fresh = terminal_voltage(0.5, -2.0, PARAMS)
        aged = terminal_voltage(0.5, -2.0, PARAMS, capacity_loss_ah=4.0)
        assert aged < fresh

    def test_effective_b0_growth(self):
        assert effective_b0(PARAMS, 0.0) == PARAMS.b0
        assert effective_b0(PARAMS, 10.0) == pytest.approx(2 * PARAMS.b0, rel=1e-12)
        with pytest.raises(ValueError):
            effective_b0(PARAMS, 20.0)

    def test_rails_rejected(self):
        with pytest.raises(ValueError):
            terminal_voltage(1.0, 1.0, PARAMS)
        with pytest.raises(ValueError):
            terminal_voltage(0.0, -1.0, PARAMS)


class TestHoldVoltageCurrent:
    def test_inverts_terminal_voltage(self):
        for s in (0.5, 0.8, 0.95, 0.999):
            for target in (13.5, 14.4, 14.8):
                i = hold_voltage_current(s, target, PARAMS)
                if i > 0:
                    assert terminal_voltage(s, i, PARAMS) == pytest.approx(
                        target, abs=1e-9
                    )

    def test_negative_when_ocv_exceeds_target(self):
        assert hold_voltage_current(0.999, 12.0, PARAMS) < 0.0

    def test_ageing_shrinks_hold_current(self):
        fresh = hold_voltage_current(0.9, 14.4, PARAMS)
        aged = hold_voltage_current(0.9, 14.4, PARAMS, capacity_loss_ah=4.0)
        assert 0 < aged < fresh


class TestGassing:
    def test_nominal_point_exact(self):
        assert gassing_current(13.38, 298.0) == 0.017

    def test_voltage_sensitivity(self):
        assert gassing_current(14.5, 298.0) == pytest.approx(0.0210, abs=2e-4)

    def test_temperature_sensitivity(self):
        assert gassing_current(13.38, 308.0) == pytest.approx(0.0310, abs=3e-4)

    def test_custom_params(self):
        g = GassingParams(i_gas_0=0.02, c_v=0.2, c_t=0.05, v_ref=13.0, t_ref=300.0)
        assert gassing_current(13.0, 300.0, g) == 0.02

    @given(st.floats(11.0, 15.5), st.floats(273.0, 330.0))
    def test_positive_and_monotone(self, v, t):
        i = gassing_current(v, t)
        assert i > 0
        assert gassing_current(v + 0.1, t) > i
        assert gassing_current(v, t + 1.0) > i


class TestStepSoc:
    def test_two_amp_hour_step(self):
        new, clamped = step_soc(0.5, 2.0, 0.0, 3600.0, PARAMS)
        assert new == pytest.approx(0.6, abs=1e-12)
        assert not clamped

    def test_gassing_self_discharge_day(self):
        new, clamped = step_soc(1.0, 0.0, 0.017, 86400.0, PARAMS)
        assert new == pytest.approx(1.0 - 0.0204, abs=1e-9)
        assert not clamped

    def test_clamps_at_rails(self):
        assert step_soc(0.999, 2.0, 0.0, 3600.0, PARAMS) == (1.0, True)
        assert step_soc(0.001, -2.0, 0.0, 3600.0, PARAMS) == (0.0, True)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            step_soc(0.5, 1.0, 0.0, 0.0, PARAMS)

    @given(
        st.floats(0.2, 0.8),
        st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 0.02)), max_size=50),
    )
    def test_integration_matches_closed_form(self, soc0, steps):
        # coulomb counting must stay exact while no clamp fires
        soc = soc0
        expected = soc0
        for current, gas in steps:
            expected += (current - gas) * 60.0 / (PARAMS.capacity_ah * 3600.0)
            soc, clamped = step_soc(soc, current, gas, 60.0, PARAMS)
            if clamped:
                return
        assert soc == pytest.approx(expected, abs=1e-12)


class TestOcvInversion:
    @settings(max_examples=200)
    @given(st.floats(0.1, 0.9))
    def test_round_trip(self, s):
        v = battery_ocv(s, PARAMS)
        back, clamped = invert_battery_ocv(v, PARAMS)
        assert not clamped
        assert back == pytest.approx(s, abs=1e-6)

    def test_round_trip_with_seed(self):
        for s in (0.15, 0.5, 0.85):
            v = battery_ocv(s, PARAMS)
            back, _ = invert_battery_ocv(v, PARAMS, seed=s + 0.05)
            assert back == pytest.approx(s, abs=1e-6)

    def test_out_of_span_clamps(self):
        assert invert_battery_ocv(battery_ocv(1.0, PARAMS) + 0.5, PARAMS) == (1.0, True)
        assert invert_battery_ocv(battery_ocv(0.0, PARAMS) - 0.5, PARAMS) == (0.0, True)

    @settings(max_examples=300)
    @given(
        battery_params(),
        st.one_of(st.sampled_from([SOC_FLOOR, SOC_CAP]), st.floats(SOC_FLOOR, SOC_CAP)),
    )
    def test_rest_voltage_inverts_to_its_seed(self, params, s):
        """What lets run_scenario skip the rest inversion: at zero current,
        with soc on or within the rails and its OCV inside (v_empty,
        v_full), the inversion returns the seed unchanged."""
        battery = Battery(params)
        v = battery.ocv(s)
        if battery.v_empty < v < battery.v_full:
            assert battery.invert_ocv(v, seed=s) == (s, False)
        else:
            assert battery.invert_ocv(v, seed=s) in ((0.0, True), (1.0, True))

    def test_rails_inside_the_ocv_span(self):
        battery = Battery(PARAMS)
        for s in (SOC_FLOOR, SOC_CAP):
            assert battery.v_empty < battery.ocv(s) < battery.v_full
            assert battery.invert_ocv(battery.ocv(s), seed=s) == (s, False)

    def test_spent_electrolyte_rejected(self):
        # its OCV at SOC_FLOOR would lie below v_empty, and a battery
        # resting there would be snapped to soc 0 by the inversion
        with pytest.raises(
            BatteryParamError,
            match=r"^electrolyte too small: log10 molality at soc 0 is -1\.6165, not above "
            r"the OCV's turning point -1\.61092, .*\(raise electrolyte_volume_m3 or c_max\)$",
        ):
            BatteryParams(electrolyte_volume_m3=SPENT_VOLUME_M3)


class TestElectrolyteMemo:
    RAILS = [0.0, SOC_FLOOR, SOC_CAP, 1.0]

    @settings(max_examples=200)
    @given(
        st.lists(
            st.one_of(st.floats(0.0, 1.0), st.sampled_from(RAILS)),
            min_size=1,
            max_size=40,
        )
    )
    def test_memo_is_never_stale(self, socs):
        # one object across the sequence (memo carried over) against a
        # fresh evaluation of the chain for every soc
        battery = Battery(PARAMS)
        for soc in socs:
            fresh = PARAMS.cells_in_series * cell_ocv(
                log_molality(acid_concentration(soc, PARAMS), PARAMS)
            )
            assert battery.ocv(soc) == fresh
            s = min(max(soc, SOC_FLOOR), SOC_CAP)
            assert battery.terminal_voltage(s, 1.5, 0.2) == terminal_voltage(
                s, 1.5, PARAMS, 0.2
            )
            assert battery.hold_voltage_current(soc, 14.4, 0.2) == hold_voltage_current(
                soc, 14.4, PARAMS, 0.2
            )
            assert battery.positive_terminal_voltage(soc, 12.6) == Battery(
                PARAMS
            ).positive_terminal_voltage(soc, 12.6)
            assert battery.ocv(soc) == fresh

    @settings(max_examples=200)
    @given(battery_params(), st.one_of(st.floats(0.0, 1.0), st.sampled_from(RAILS)))
    def test_one_frame_chain_matches_the_steps(self, params, soc):
        # Battery.electrolyte against acid_concentration -> log_molality
        # -> cell_ocv, on batteries other than the default
        battery = Battery(params)
        y = battery.log_molality(battery.acid_concentration(soc))
        assert battery.electrolyte(soc) == (soc, y, cell_ocv(y))

    @pytest.mark.parametrize("soc", [-1e-12, 1.0 + 1e-12, math.nan, math.inf])
    def test_one_frame_chain_rejects_what_the_steps_reject(self, soc):
        battery = Battery(PARAMS)
        with pytest.raises(ValueError, match="^soc out of range"):
            battery.acid_concentration(soc)
        with pytest.raises(ValueError, match="^soc out of range"):
            battery.electrolyte(soc)

    def test_memo_lives_on_the_object(self):
        a, b = Battery(PARAMS), Battery(PARAMS)
        a.ocv(0.3)
        b.ocv(0.6)
        assert a.ocv(0.3) == battery_ocv(0.3, PARAMS)
        assert a.electrolyte(0.3)[0] == 0.3
        assert b.electrolyte(0.6)[0] == 0.6


class TestOcvTurningPoint:
    def test_is_the_root_of_the_slope(self):
        _, a1, a2, a3, a4 = OCV_COEFFS

        def slope(y):
            return a1 + 2 * a2 * y + 3 * a3 * y**2 + 4 * a4 * y**3

        assert OCV_TURNING_POINT == pytest.approx(-1.6109204437, abs=1e-10)
        assert slope(OCV_TURNING_POINT) <= 0.0 < slope(math.nextafter(OCV_TURNING_POINT, 0.0))
        assert cell_ocv(OCV_TURNING_POINT - 0.1) > cell_ocv(OCV_TURNING_POINT)

    @pytest.mark.parametrize("margin, accepted", [(0.999, False), (1.001, True)])
    def test_least_volume_keeps_the_ocv_rising(self, margin, accepted):
        least = least_volume_m3(20.0, 5450.0, 17.5, 45.0, 18.0)
        assert SPENT_VOLUME_M3 < least < PARAMS.electrolyte_volume_m3
        if not accepted:
            with pytest.raises(BatteryParamError, match="^electrolyte too small: log10 molality"):
                BatteryParams(electrolyte_volume_m3=least * margin)
            return
        battery = Battery(BatteryParams(electrolyte_volume_m3=least * margin))
        socs = [0.0, SOC_FLOOR, 0.001, 0.01, 0.1, 0.5, SOC_CAP, 1.0]
        ocvs = [battery.ocv(s) for s in socs]
        assert ocvs == sorted(set(ocvs))
        assert battery.invert_ocv(ocvs[1], seed=SOC_FLOOR) == (SOC_FLOOR, False)

    def test_molality_that_underflows_rejected(self):
        # math.log10 of the molality 0.0 raises; the rule reads it as -inf
        with pytest.raises(BatteryParamError, match="^electrolyte too small: .* is -inf, "):
            BatteryParams(v_water=5e-324)


class TestParamValidation:
    def test_bad_capacity(self):
        with pytest.raises(BatteryParamError):
            BatteryParams(capacity_ah=0.0)

    def test_acid_fraction_bound(self):
        with pytest.raises(BatteryParamError):
            BatteryParams(c_max=23000.0)

    def test_math_consistency(self):
        # defaults must yield a valid electrolyte state across the soc span
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert acid_concentration(s, PARAMS) > 0

"""Degradation channel oracles: corrosion layer and weighted throughput."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrlasim.battery import Battery, BatteryParams
from vrlasim.degradation import (
    CalibrationError,
    Datasheet,
    DegradationModel,
    DegradationParams,
    DegradationState,
    accumulate_weighted_cycles,
    active_mass_loss,
    calibrate_limits,
    corrosion_capacity_loss,
    corrosion_speed,
    current_weight,
    float_positive_potential,
    grow_corrosion_layer,
    soc_factor,
)

PARAMS = DegradationParams()
BATTERY = BatteryParams()
DATASHEET = Datasheet()
REF_T = PARAMS.ks_ref_temp_k
MODEL = DegradationModel()
# a step in the speed curve: two knots share the potential 1.74 V
STEP_PARAMS = DegradationParams(
    ks_knots=((1.55, 2.2), (1.70, 0.85), (1.74, 0.5), (1.74, 1.3), (1.80, 1.6), (2.0, 5.0))
)


def linear_scan_speed(
    v_positive: float, temp_k: float, params: DegradationParams
) -> tuple[float, bool]:
    """Reference corrosion_speed: scan the knot pairs from the low end."""
    knots = params.ks_knots
    clamped = False
    if v_positive <= knots[0][0]:
        base = knots[0][1]
        clamped = v_positive < knots[0][0]
    elif v_positive >= knots[-1][0]:
        base = knots[-1][1]
        clamped = v_positive > knots[-1][0]
    else:
        base = knots[-1][1]
        for (v0, k0), (v1, k1) in zip(knots, knots[1:]):
            if v_positive <= v1:
                base = k0 + (k1 - k0) * (v_positive - v0) / (v1 - v0)
                break
    factor = 2.0 ** ((temp_k - params.ks_ref_temp_k) / params.temp_doubling_k)
    return base * factor, clamped


class TestCorrosionSpeed:
    def test_knot_values_at_reference_temp(self):
        for v, k in PARAMS.ks_knots:
            speed, clamped = corrosion_speed(v, REF_T, PARAMS)
            assert speed == pytest.approx(k, rel=1e-9)
            assert not clamped

    def test_midpoint_interpolation(self):
        (v0, k0), (v1, k1) = PARAMS.ks_knots[0], PARAMS.ks_knots[1]
        speed, _ = corrosion_speed(0.5 * (v0 + v1), REF_T, PARAMS)
        assert speed == pytest.approx(0.5 * (k0 + k1), rel=1e-9)

    def test_clamp_below_span(self):
        speed, clamped = corrosion_speed(1.40, REF_T, PARAMS)
        assert clamped
        assert speed == pytest.approx(PARAMS.ks_knots[0][1], rel=1e-12)

    def test_clamp_above_span(self):
        speed, clamped = corrosion_speed(2.20, REF_T, PARAMS)
        assert clamped
        assert speed == pytest.approx(PARAMS.ks_knots[-1][1], rel=1e-12)

    def test_temperature_doubling(self):
        for v in (1.60, 1.75, 1.85):
            lo, _ = corrosion_speed(v, 288.15, PARAMS)
            mid, _ = corrosion_speed(v, 298.15, PARAMS)
            hi, _ = corrosion_speed(v, 308.15, PARAMS)
            assert mid / lo == pytest.approx(2.0, rel=1e-12)
            assert hi / mid == pytest.approx(2.0, rel=1e-12)

    def test_dip_minimum_below_threshold(self):
        dip, _ = corrosion_speed(1.735, REF_T, PARAMS)
        for v in (1.60, 1.70, 1.74, 1.80, 1.90):
            other, _ = corrosion_speed(v, REF_T, PARAMS)
            assert other > dip

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.floats(1.4, 2.2),
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([v for v, _ in PARAMS.ks_knots + STEP_PARAMS.ks_knots]),
        ),
        st.floats(250.0, 350.0),
    )
    def test_bisect_matches_linear_scan(self, v, temp_k):
        for params in (PARAMS, STEP_PARAMS):
            assert corrosion_speed(v, temp_k, params) == linear_scan_speed(
                v, temp_k, params
            )

    def test_every_knot_matches_linear_scan(self):
        for params in (PARAMS, STEP_PARAMS):
            for v, _ in params.ks_knots:
                for p in (v, math.nextafter(v, 0.0), math.nextafter(v, 3.0)):
                    assert corrosion_speed(p, REF_T, params) == linear_scan_speed(
                        p, REF_T, params
                    )

    def test_knot_validation(self):
        with pytest.raises(ValueError):
            DegradationParams(ks_knots=((1.7, 1.0),))
        with pytest.raises(ValueError):
            DegradationParams(ks_knots=((1.8, 1.0), (1.7, 1.0)))
        with pytest.raises(ValueError):
            DegradationParams(ks_knots=((1.7, 1.0), (1.8, 0.0)))

    @pytest.mark.parametrize(
        "knot, message",
        [
            ((1.74, math.nan), "corrosion speed must be positive and finite: nan"),
            ((1.74, math.inf), "corrosion speed must be positive and finite: inf"),
            ((1.74, -1.0), "corrosion speed must be positive and finite: -1.0"),
            ((math.nan, 1.3), "potential must be finite: nan"),
            ((-math.inf, 1.3), "potential must be finite: -inf"),
        ],
    )
    def test_non_finite_knot_names_its_index(self, knot, message):
        knots = list(DegradationParams().ks_knots)
        knots[3] = knot
        with pytest.raises(ValueError, match=rf"ks_knots\[3\]: {message}"):
            DegradationParams(ks_knots=tuple(knots))


class TestAnchorValidation:
    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.0, 1.5, math.nan, math.inf])
    def test_eol_loss_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="eol_loss_fraction must lie in"):
            DegradationParams(eol_loss_fraction=fraction)

    @pytest.mark.parametrize("cycles", [0.0, -5.0, math.nan, math.inf])
    def test_nominal_cycles_not_positive_and_finite_rejected(self, cycles):
        with pytest.raises(ValueError, match="nominal_cycles must be positive"):
            Datasheet(nominal_cycles=cycles)

    def test_edges_inside_accepted(self):
        assert DegradationParams(eol_loss_fraction=0.999).eol_loss_fraction == 0.999
        assert Datasheet(nominal_cycles=1e-3).nominal_cycles == 1e-3
        unweighted = DegradationParams(c_soc0_per_h=0.0, c_soc_min_per_h=0.0)
        assert unweighted.c_soc0_per_h == unweighted.c_soc_min_per_h == 0.0


class TestAgeingConstantValidation:
    """Each ageing constant is checked where it enters; out of its domain
    it would fail a run part-way through (-0.5, -2.0 and 0.0 below)."""

    @pytest.mark.parametrize("exponent", [1e-300, 0.0152, 50.71, 1000.0, 1e300])
    def test_overflowing_sub_threshold_growth_rejected(self, exponent):
        message = f"^corrosion_exponent {re.escape(repr(exponent))} overflows the sub-threshold"
        with pytest.raises(ValueError, match=message):
            DegradationParams(corrosion_exponent=exponent, corrosion_threshold_v=10.0)

    @pytest.mark.parametrize("exponent", [0.0153, 50.7])
    @pytest.mark.parametrize("temp_c", [-40.0, 80.0])
    def test_growth_at_the_admitted_exponents_calibrates(self, exponent, temp_c):
        """Just inside the bound, the longest float life calibrates to a
        finite layer at either end of the temperature range."""
        params = DegradationParams(corrosion_exponent=exponent, corrosion_threshold_v=10.0)
        datasheet = Datasheet(float_life_years=50.0, float_temp_c=temp_c)
        assert math.isfinite(calibrate_limits(BATTERY, params, datasheet).w_limit)

    @pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
    @pytest.mark.parametrize("key", ["c_soc0_per_h", "c_soc_min_per_h"])
    def test_weight_negative_or_not_finite_rejected(self, key, value):
        message = rf"{key} must be non-negative and finite: {value}"
        with pytest.raises(ValueError, match=message):
            DegradationParams(**{key: value})

    @pytest.mark.parametrize("value", [0.0, -2.0, math.nan, math.inf])
    @pytest.mark.parametrize("key", ["i_ref_a", "corrosion_exponent", "temp_doubling_k"])
    def test_constant_not_positive_and_finite_rejected(self, key, value):
        message = rf"{key} must be positive and finite: {value}"
        with pytest.raises(ValueError, match=message):
            DegradationParams(**{key: value})


class TestPositivePotential:
    def test_half_overpotential_split(self):
        # at OCV the positive electrode sits exactly at its equilibrium value
        from vrlasim.battery import battery_ocv

        battery = Battery(BATTERY)
        for s in (0.3, 0.7, 1.0):
            v = battery_ocv(s, BATTERY)
            v_p = battery.positive_terminal_voltage(s, v)
            v_p_plus = battery.positive_terminal_voltage(s, v + 0.6)
            assert v_p_plus - v_p == pytest.approx(0.05, abs=1e-12)

    def test_float_point_above_growth_threshold(self):
        v_p = float_positive_potential(BATTERY, DATASHEET)
        assert v_p > PARAMS.corrosion_threshold_v
        assert 1.75 < v_p < 1.85


class TestCorrosionLayer:
    def test_linear_growth_above_threshold(self):
        w = 3.0
        w2 = grow_corrosion_layer(w, 0.5, 1.80, 2.0, PARAMS)
        assert w2 == pytest.approx(4.0, rel=1e-12)

    def test_sublinear_growth_matches_power_law(self):
        # repeated stepping from zero must land on speed * t**e exactly
        speed, dt, n = 0.7, 0.25, 400
        w = 0.0
        for _ in range(n):
            w = grow_corrosion_layer(w, speed, 1.70, dt, PARAMS)
        expected = speed * (n * dt) ** PARAMS.corrosion_exponent
        assert w == pytest.approx(expected, rel=1e-9)

    def test_growth_slows_as_layer_thickens(self):
        w1 = grow_corrosion_layer(0.0, 1.0, 1.70, 1.0, PARAMS)
        w2 = grow_corrosion_layer(w1, 1.0, 1.70, 1.0, PARAMS)
        assert (w2 - w1) < w1

    def test_zero_speed_freezes_layer(self):
        assert grow_corrosion_layer(2.5, 0.0, 1.70, 1.0, PARAMS) == 2.5

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            grow_corrosion_layer(0.0, 1.0, 1.70, 0.0, PARAMS)

    @given(
        st.floats(0.0, 5.0),
        st.floats(0.01, 3.0),
        st.floats(1.56, 1.99),
        st.floats(0.01, 24.0),
    )
    def test_never_shrinks(self, w, speed, v, dt):
        assert grow_corrosion_layer(w, speed, v, dt, PARAMS) >= w


class TestWeightedThroughput:
    def test_current_weight_reference(self):
        assert current_weight(2.0, PARAMS) == pytest.approx(1.0, rel=1e-12)
        assert current_weight(0.5, PARAMS) == pytest.approx(2.0, rel=1e-12)
        assert current_weight(8.0, PARAMS) == pytest.approx(0.5, rel=1e-12)

    def test_current_weight_floor(self):
        assert current_weight(0.0, PARAMS) == pytest.approx(
            math.sqrt(PARAMS.i_ref_a / PARAMS.i_floor_a), rel=1e-12
        )

    def test_soc_factor_is_one_at_full_charge(self):
        assert soc_factor(0.0, 1.0, 2.0, PARAMS) == 1.0
        assert soc_factor(0.0, 0.2, 0.1, PARAMS) == 1.0

    def test_soc_factor_linear_in_time(self):
        f1 = soc_factor(10.0, 0.5, 2.0, PARAMS)
        f2 = soc_factor(20.0, 0.5, 2.0, PARAMS)
        assert (f2 - 1.0) == pytest.approx(2.0 * (f1 - 1.0), rel=1e-12)

    def test_soc_factor_depth_penalty(self):
        shallow = soc_factor(24.0, 1.0, 2.0, PARAMS)
        deep = soc_factor(24.0, 0.0, 2.0, PARAMS)
        expected_ratio = (
            PARAMS.c_soc0_per_h + PARAMS.c_soc_min_per_h
        ) / PARAMS.c_soc0_per_h
        assert (deep - 1.0) / (shallow - 1.0) == pytest.approx(
            expected_ratio, rel=1e-12
        )

    def test_soc_factor_rejects_negative_time(self):
        with pytest.raises(ValueError):
            soc_factor(-1.0, 0.5, 2.0, PARAMS)

    def test_accumulate_one_nominal_cycle(self):
        # 20 Ah through a 20 Ah battery at weight 1 is one full cycle
        z = accumulate_weighted_cycles(0.0, 2.0, 1.0, 10.0, 20.0)
        assert z == pytest.approx(1.0, rel=1e-12)

    def test_accumulate_weight_scales(self):
        z = accumulate_weighted_cycles(0.0, 1.0, 2.0, 10.0, 20.0)
        assert z == pytest.approx(1.0, rel=1e-12)

    def test_accumulate_rejects_negative_current(self):
        with pytest.raises(ValueError):
            accumulate_weighted_cycles(0.0, -1.0, 1.0, 1.0, 20.0)


class TestChannelLosses:
    LIMITS = calibrate_limits(BATTERY, PARAMS, DATASHEET)

    def test_corrosion_loss_linear(self):
        assert corrosion_capacity_loss(0.0, self.LIMITS) == 0.0
        full = corrosion_capacity_loss(self.LIMITS.w_limit, self.LIMITS)
        assert full == pytest.approx(self.LIMITS.c_corr_limit, rel=1e-12)
        half = corrosion_capacity_loss(0.5 * self.LIMITS.w_limit, self.LIMITS)
        assert half == pytest.approx(0.5 * self.LIMITS.c_corr_limit, rel=1e-12)

    def test_corrosion_loss_rejects_negative(self):
        with pytest.raises(ValueError):
            corrosion_capacity_loss(-0.1, self.LIMITS)

    def test_active_mass_loss_anchors(self):
        limit = self.LIMITS.c_deg_limit
        assert active_mass_loss(600.0, 600.0, self.LIMITS) == pytest.approx(
            limit, rel=1e-12
        )
        assert active_mass_loss(0.0, 600.0, self.LIMITS) == pytest.approx(
            limit * math.exp(-5.0), rel=1e-12
        )
        assert active_mass_loss(300.0, 600.0, self.LIMITS) == pytest.approx(
            limit * math.exp(-2.5), rel=1e-12
        )

    def test_active_mass_loss_rejects_negative(self):
        with pytest.raises(ValueError):
            active_mass_loss(-1.0, 600.0, self.LIMITS)


class TestCalibration:
    def test_limits_equal_loss_budget(self):
        limits = calibrate_limits(BATTERY, PARAMS, DATASHEET)
        budget = PARAMS.eol_loss_fraction * BATTERY.capacity_ah
        assert limits.c_corr_limit == budget == 4.0
        assert limits.c_deg_limit == budget
        assert limits.w_limit > 0.0

    def test_float_life_scales_w_limit(self):
        base = calibrate_limits(BATTERY, PARAMS, DATASHEET)
        doubled = calibrate_limits(
            BATTERY, PARAMS, Datasheet(float_life_years=8.0)
        )
        assert doubled.w_limit == pytest.approx(2.0 * base.w_limit, rel=1e-9)

    def test_step_size_invariant_in_linear_regime(self):
        fine = calibrate_limits(BATTERY, PARAMS, DATASHEET, dt_h=1.0)
        coarse = calibrate_limits(BATTERY, PARAMS, DATASHEET, dt_h=24.0)
        assert coarse.w_limit == pytest.approx(fine.w_limit, rel=1e-9)


class TestDegradationModel:
    def test_limits_are_the_memoised_calibration(self):
        model = DegradationModel()
        assert model.limits is calibrate_limits(BATTERY, PARAMS, DATASHEET)

    def test_uncalibratable_model_raises_on_limits(self):
        model = DegradationModel(datasheet=Datasheet(float_life_years=0.0))
        with pytest.raises(CalibrationError):
            model.limits

    def test_step_updates_both_channels(self):
        model = MODEL
        state = DegradationState()
        model.step(state, Battery(model.battery), 0.5, 12.0, REF_T, 2.0, 0.25)
        assert state.w > 0.0
        assert state.z_w > 0.0
        assert state.time_since_full_h == 0.25
        assert state.min_soc_since_full == 0.5
        assert state.c_corr > 0.0
        assert state.total_loss() == state.c_corr + state.c_deg

    def test_idle_step_skips_throughput(self):
        model = MODEL
        state = DegradationState()
        model.step(state, Battery(model.battery), 0.9, 12.8, REF_T, 0.0, 0.25)
        assert state.z_w == 0.0
        assert state.w > 0.0
        # the throughput channel still reports its floor loss
        assert state.c_deg == pytest.approx(4.0 * math.exp(-5.0), rel=1e-12)

    def test_register_full_charge_resets(self):
        state = DegradationState(time_since_full_h=50.0, min_soc_since_full=0.3)
        state.register_full_charge()
        assert state.time_since_full_h == 0.0
        assert state.min_soc_since_full == 1.0

    def test_losses_track_state_maps(self):
        model = MODEL
        state = DegradationState()
        for soc, dis in ((0.8, 1.5), (0.6, 2.0), (0.4, 0.0), (0.7, 3.0)):
            model.step(state, Battery(model.battery), soc, 12.2, 300.0, dis, 0.5)
            assert state.c_corr == pytest.approx(
                corrosion_capacity_loss(state.w, model.limits), rel=1e-12
            )
            assert state.c_deg == pytest.approx(
                active_mass_loss(
                    state.z_w, model.datasheet.nominal_cycles, model.limits
                ),
                rel=1e-12,
            )

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.05, 0.999),
                st.floats(11.0, 14.8),
                st.floats(0.0, 5.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_monotone_accumulation(self, steps):
        model = MODEL
        state = DegradationState()
        prev = (0.0, 0.0, 0.0, 0.0)
        for soc, voltage, discharge in steps:
            model.step(state, Battery(model.battery), soc, voltage, REF_T, discharge, 0.25)
            cur = (state.w, state.z_w, state.c_corr, state.c_deg)
            assert all(c >= p for c, p in zip(cur, prev))
            prev = cur

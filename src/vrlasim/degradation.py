"""Two-channel capacity fade for VRLA batteries.

Channel one is positive-grid corrosion: a layer grows at a speed set by
the positive-electrode potential and temperature, sub-linearly in time
while the electrode sits below a passivation threshold and linearly
above it.  Channel two is active-mass degradation driven by weighted
amp-hour throughput, where discharge amp-hours count for more when they
happen long after the last full charge, at low state of charge, or at
small currents.

Both channels are normalised against datasheet anchors by
:func:`calibrate_limits`: the corrosion layer that a battery held at
float for its rated float life would grow, and the rated cycle count.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .battery import Battery, BatteryParams, clamp

HOURS_PER_YEAR = 8760.0
DAYS_PER_YEAR = 365.0

# Corrosion speed vs positive-electrode potential at the reference
# temperature, relative units per hour.  Shape: high again at deep
# discharge potentials, a passivation dip with its minimum just below
# the regime threshold, then a steep climb through float and absorption
# potentials.  Absolute scale cancels in calibration.
DEFAULT_KS_KNOTS: tuple[tuple[float, float], ...] = (
    (1.55, 2.20),
    (1.70, 0.85),
    (1.735, 0.50),
    (1.74, 1.30),
    (1.77, 1.50),
    (1.80, 1.60),
    (1.90, 2.40),
    (2.00, 5.00),
)


class CalibrationError(RuntimeError):
    """Raised when datasheet anchors cannot be turned into limits."""


@dataclass(frozen=True)
class Datasheet:
    """Manufacturer anchors used to scale both degradation channels."""

    float_life_years: float = 4.0  # rated standby life at float conditions
    nominal_cycles: float = 600.0  # rated full cycles to end of life
    float_voltage: float = 13.5  # V, battery-level float setpoint
    float_temp_c: float = 25.0  # degC, rating temperature


@dataclass(frozen=True)
class DegradationParams:
    """Model constants for both degradation channels."""

    ks_knots: tuple[tuple[float, float], ...] = DEFAULT_KS_KNOTS
    ks_ref_temp_k: float = 298.15  # K, knot table reference
    temp_doubling_k: float = 10.0  # K per doubling of corrosion speed
    corrosion_threshold_v: float = 1.74  # V, regime switch potential
    corrosion_exponent: float = 0.6  # sub-threshold growth exponent
    c_soc0_per_h: float = 0.0125  # base time-since-full-charge weight
    c_soc_min_per_h: float = 0.001  # low-soc extra weight
    i_ref_a: float = 2.0  # A, reference discharge current
    i_floor_a: float = 1e-3  # A, guard for the current weighting
    eol_loss_fraction: float = 0.2  # of nominal capacity

    def __post_init__(self) -> None:
        if len(self.ks_knots) < 2:
            raise ValueError("ks_knots needs at least two points")
        vs = [v for v, _ in self.ks_knots]
        if vs != sorted(vs):
            raise ValueError("ks_knots must be sorted by potential")
        if any(k <= 0.0 for _, k in self.ks_knots):
            raise ValueError("corrosion speeds must be positive")

    @functools.cached_property
    def ks_potentials(self) -> tuple[float, ...]:
        """The knot potentials alone, for bisection."""
        return tuple(v for v, _ in self.ks_knots)

    @functools.cached_property
    def ks_segments(self) -> tuple[tuple[float, float, float, float], ...]:
        """(v0, k0, k1 - k0, v1 - v0) of each pair of neighbouring knots."""
        return tuple(
            (v0, k0, k1 - k0, v1 - v0)
            for (v0, k0), (v1, k1) in zip(self.ks_knots, self.ks_knots[1:])
        )


@dataclass(frozen=True)
class CalibratedLimits:
    """Channel normalisers produced by :func:`calibrate_limits`."""

    w_limit: float  # corrosion layer thickness at end of float life
    c_corr_limit: float  # Ah, corrosion loss at w_limit
    c_deg_limit: float  # Ah, active-mass loss at rated cycles


def corrosion_temperature_factor(temp_k: float, params: DegradationParams) -> float:
    """Corrosion speed multiplier at a temperature, relative to the knot
    table's reference temperature: doubles every temp_doubling_k kelvin."""
    return 2.0 ** ((temp_k - params.ks_ref_temp_k) / params.temp_doubling_k)


def corrosion_speed(
    v_positive: float, temp_k: float, params: DegradationParams
) -> tuple[float, bool]:
    """Corrosion speed at a positive-electrode potential and temperature.

    Piecewise-linear in potential, exponential in temperature with a
    fixed doubling interval.  Potentials outside the knot span clamp to
    the nearest edge; the flag reports the clamp.

    Returns:
        (speed in layer units per hour, clamped)
    """
    return corrosion_speed_at(
        v_positive, corrosion_temperature_factor(temp_k, params), params
    )


def corrosion_speed_at(
    v_positive: float, temperature_factor: float, params: DegradationParams
) -> tuple[float, bool]:
    """:func:`corrosion_speed`, given :func:`corrosion_temperature_factor`
    at the temperature, which a run evaluates once per temperature."""
    knots = params.ks_knots
    potentials = params.ks_potentials
    clamped = False
    if v_positive <= potentials[0]:
        base = knots[0][1]
        clamped = v_positive < potentials[0]
    elif v_positive < potentials[-1]:
        # the segment ends at the first knot at or above v_positive
        j = bisect_left(potentials, v_positive)
        v0, k0, dk, dv = params.ks_segments[j - 1]
        base = k0 + dk * (v_positive - v0) / dv
    else:  # at or above the last knot, or nan
        base = knots[-1][1]
        clamped = v_positive > potentials[-1]
    return base * temperature_factor, clamped


def positive_terminal_voltage(
    soc: float, battery_voltage: float, params: BatteryParams
) -> float:
    """Positive-electrode potential under load (V, per electrode).

    See :meth:`Battery.positive_terminal_voltage`.
    """
    return Battery(params).positive_terminal_voltage(soc, battery_voltage)


def grow_corrosion_layer(
    w: float,
    speed: float,
    v_positive: float,
    dt_h: float,
    params: DegradationParams,
) -> float:
    """Advance the corrosion layer thickness by one step.

    Below the threshold potential the layer grows as speed * t**e with
    the effective age recovered from the current thickness, so growth
    slows as the layer thickens.  At or above the threshold growth is
    linear and never slows.
    """
    if dt_h <= 0.0:
        raise ValueError("dt_h must be positive")
    if speed <= 0.0:
        return w
    if v_positive >= params.corrosion_threshold_v:
        return w + speed * dt_h
    e = params.corrosion_exponent
    tau_eff = (w / speed) ** (1.0 / e) if w > 0.0 else 0.0
    return speed * (tau_eff + dt_h) ** e


def corrosion_capacity_loss(w: float, limits: CalibratedLimits) -> float:
    """Capacity lost to corrosion (Ah), proportional to layer thickness."""
    if w < 0.0:
        raise ValueError("layer thickness cannot be negative")
    return limits.c_corr_limit * w / limits.w_limit


def current_weight(discharge_current_a: float, params: DegradationParams) -> float:
    """Discharge-current weighting, larger for smaller currents."""
    floor = params.i_floor_a
    i = floor if floor > discharge_current_a else discharge_current_a
    return math.sqrt(params.i_ref_a / i)


def soc_factor(
    time_since_full_h: float,
    min_soc_since_full: float,
    discharge_current_a: float,
    params: DegradationParams,
) -> float:
    """Weight applied to discharged amp-hours.

    Equals 1 right after a full charge and grows linearly with the time
    spent since, faster when the state of charge dipped low in between
    and when the discharge current is small.
    """
    if time_since_full_h < 0.0:
        raise ValueError("time_since_full_h cannot be negative")
    depth = 1.0 - clamp(min_soc_since_full, 0.0, 1.0)
    rate = params.c_soc0_per_h + params.c_soc_min_per_h * depth
    return 1.0 + rate * current_weight(discharge_current_a, params) * time_since_full_h


def accumulate_weighted_cycles(
    z_w: float,
    discharge_current_a: float,
    f_soc: float,
    dt_h: float,
    capacity_ah: float,
) -> float:
    """Add one step of weighted discharge throughput, in full-cycle units."""
    if discharge_current_a < 0.0:
        raise ValueError("discharge current magnitude cannot be negative")
    return z_w + discharge_current_a * f_soc * dt_h / capacity_ah


def active_mass_loss(
    z_w: float, nominal_cycles: float, limits: CalibratedLimits
) -> float:
    """Capacity lost to active-mass degradation (Ah).

    Exponential in weighted throughput: rigged to hit the channel limit
    exactly at the rated cycle count and to be nearly flat early in life.
    """
    if z_w < 0.0:
        raise ValueError("weighted cycles cannot be negative")
    return limits.c_deg_limit * math.exp(-5.0 * (1.0 - z_w / nominal_cycles))


def float_positive_potential(
    battery: BatteryParams, datasheet: Datasheet
) -> float:
    """Positive-electrode potential of a full battery held at float."""
    return positive_terminal_voltage(1.0, datasheet.float_voltage, battery)


def calibrate_limits(
    battery: BatteryParams,
    params: DegradationParams,
    datasheet: Datasheet,
    dt_h: float = 1.0,
) -> CalibratedLimits:
    """Scale both degradation channels from datasheet anchors.

    The corrosion normaliser is the layer thickness grown by stepping a
    full battery held at the datasheet float point for the rated float
    life.  Both channel limits are the end-of-life loss budget, so
    corrosion alone kills the battery exactly at rated float life and
    cycling alone at the rated cycle count.
    """
    v_p = float_positive_potential(battery, datasheet)
    temp_k = datasheet.float_temp_c + 273.15
    speed, _ = corrosion_speed(v_p, temp_k, params)
    if speed <= 0.0:
        raise CalibrationError(
            f"corrosion speed is zero at the float point (v_p={v_p:.3f})"
        )
    hours = datasheet.float_life_years * HOURS_PER_YEAR
    w = 0.0
    t = 0.0
    while t < hours - 1e-9:
        step = min(dt_h, hours - t)
        w = grow_corrosion_layer(w, speed, v_p, step, params)
        t += step
    if w <= 0.0:
        raise CalibrationError("float-life integration produced no layer growth")
    budget = params.eol_loss_fraction * battery.capacity_ah
    return CalibratedLimits(w_limit=w, c_corr_limit=budget, c_deg_limit=budget)


@dataclass
class DegradationState:
    """Running degradation bookkeeping carried by the simulation."""

    w: float = 0.0  # corrosion layer thickness
    z_w: float = 0.0  # weighted throughput, full-cycle units
    time_since_full_h: float = 0.0
    min_soc_since_full: float = 1.0
    c_corr: float = 0.0  # Ah
    c_deg: float = 0.0  # Ah
    ks_clamp_events: int = 0

    def total_loss(self) -> float:
        return self.c_corr + self.c_deg

    def register_full_charge(self, soc: float = 1.0) -> None:
        self.time_since_full_h = 0.0
        self.min_soc_since_full = soc


@dataclass(frozen=True)
class DegradationModel:
    """Parameter set, datasheet anchors and calibrated limits, bundled."""

    battery: BatteryParams = field(default_factory=BatteryParams)
    params: DegradationParams = field(default_factory=DegradationParams)
    datasheet: Datasheet = field(default_factory=Datasheet)
    limits: CalibratedLimits | None = None

    def calibrated(self) -> "DegradationModel":
        return DegradationModel(
            battery=self.battery,
            params=self.params,
            datasheet=self.datasheet,
            limits=calibrate_limits(self.battery, self.params, self.datasheet),
        )

    def eol_threshold_ah(self) -> float:
        return self.params.eol_loss_fraction * self.battery.capacity_ah

    def step(
        self,
        state: DegradationState,
        battery: Battery,
        soc: float,
        battery_voltage: float,
        corrosion_factor: float,
        discharge_current_a: float,
        dt_h: float,
    ) -> None:
        """Advance both channels one step, in place.

        `battery` is the run's :class:`Battery`, built from self.battery.
        `corrosion_factor` is :func:`corrosion_temperature_factor` at the
        step's temperature.
        """
        limits = self.limits
        if limits is None:
            raise CalibrationError("model is not calibrated; call calibrated()")
        params = self.params
        v_p = battery.positive_terminal_voltage(soc, battery_voltage)
        speed, clamped = corrosion_speed_at(v_p, corrosion_factor, params)
        if clamped:
            state.ks_clamp_events += 1
        state.w = grow_corrosion_layer(state.w, speed, v_p, dt_h, params)
        state.time_since_full_h += dt_h
        if soc < state.min_soc_since_full:
            state.min_soc_since_full = soc
        if discharge_current_a > 0.0:
            f = soc_factor(
                state.time_since_full_h,
                state.min_soc_since_full,
                discharge_current_a,
                params,
            )
            state.z_w = accumulate_weighted_cycles(
                state.z_w, discharge_current_a, f, dt_h, self.battery.capacity_ah
            )
        state.c_corr = corrosion_capacity_loss(state.w, limits)
        state.c_deg = active_mass_loss(state.z_w, self.datasheet.nominal_cycles, limits)

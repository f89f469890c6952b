"""Three-stage charge control with optional adaptive full-recharge scheduling.

The controller runs bulk (all available current), absorption (current
tapered to hold the absorption ceiling) and float (voltage held at the
float setpoint).  A full recharge is declared when the absorption taper
current falls below a threshold; under the adaptive policy that event
feeds a day counter which, together with a daily degradation-mix
estimate, decides whether the next day charges against the full or the
reduced limit set.  Load is disconnected below a state-of-charge floor
and reconnects with hysteresis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .battery import SOC_CAP, Battery, clamp


class Phase(enum.Enum):
    BULK = "bulk"
    ABSORPTION = "absorption"
    FLOAT = "float"


class Policy(enum.Enum):
    BBOXX_STATIC = "bboxx_static"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class VoltageLimits:
    """A charge limit pair with linear temperature compensation."""

    v_limit: float  # V, absorption ceiling at the reference temperature
    v_float: float  # V, float setpoint at the reference temperature
    temp_coeff_mv_per_c: float = -30.0  # 0 disables compensation
    ref_temp_c: float = 25.0

    def __post_init__(self) -> None:
        if self.v_float > self.v_limit:
            raise ValueError("v_float cannot exceed v_limit")

    def compensated(self, temp_c: float) -> tuple[float, float]:
        """(v_limit, v_float) shifted for battery temperature."""
        shift = self.temp_coeff_mv_per_c * 1e-3 * (temp_c - self.ref_temp_c)
        return self.v_limit + shift, self.v_float + shift


# Static policy used by the fielded systems: fixed limits, no compensation.
BBOXX_LIMITS = VoltageLimits(14.5, 13.5, temp_coeff_mv_per_c=0.0)
# Adaptive policy limit sets, both temperature compensated.
FULL_LIMITS = VoltageLimits(14.5, 13.5)
PARTIAL_LIMITS = VoltageLimits(13.0, 12.8)

MAX_FULL_RECHARGE_INTERVAL_DAYS = 6.0


@dataclass(frozen=True)
class ControlParams:
    policy: Policy = Policy.BBOXX_STATIC
    full_limits: VoltageLimits = BBOXX_LIMITS
    partial_limits: VoltageLimits = PARTIAL_LIMITS
    taper_fraction_per_h: float = 0.02  # of C_N; full-charge threshold
    cutoff_soc: float = 0.5
    reconnect_hysteresis: float = 0.05

    def taper_current_a(self, capacity_ah: float) -> float:
        return self.taper_fraction_per_h * capacity_ah

    def reconnect_soc(self) -> float:
        return self.cutoff_soc + self.reconnect_hysteresis


def adaptive_params(
    full: VoltageLimits = FULL_LIMITS, partial: VoltageLimits = PARTIAL_LIMITS
) -> ControlParams:
    return ControlParams(policy=Policy.ADAPTIVE, full_limits=full, partial_limits=partial)


def recharge_interval(delta_c_corr: float, delta_c: float) -> float | None:
    """Days the adaptive policy may wait before the next full recharge.

    Scales with the share of the day's capacity loss caused by
    corrosion, from 1 (no corrosion) to 6 (pure corrosion).  Days with
    no measurable loss return None so callers can carry the previous
    value forward.
    """
    if delta_c_corr < 0.0 or delta_c < 0.0:
        raise ValueError("daily losses cannot be negative")
    if delta_c <= 0.0:
        return None
    fraction = min(delta_c_corr / delta_c, 1.0)
    return min(max(1.0 + 5.0 * fraction, 1.0), MAX_FULL_RECHARGE_INTERVAL_DAYS)


@dataclass
class ControllerState:
    """Mutable controller bookkeeping carried across steps."""

    phase: Phase = Phase.BULK
    load_disconnected: bool = False
    days_since_full_recharge: int = 1  # start as if full-charged yesterday
    interval_days: float = 1.0  # adaptive full-recharge interval
    full_set_active: bool = True


@dataclass(frozen=True)
class StepEvents:
    """What happened inside one controller step."""

    float_entered: bool = False
    full_charge: bool = False


NO_EVENTS = StepEvents()  # shared by every step that changes no phase


def wants_full_limits(state: ControllerState, params: ControlParams) -> bool:
    """Whether the adaptive scheduler calls for the full limit set now.

    A full recharge is due once at least interval_days whole days have
    passed since the last one; the interval is capped so the wait never
    exceeds six days.
    """
    if params.policy is Policy.BBOXX_STATIC:
        return True
    interval = state.interval_days
    if interval > MAX_FULL_RECHARGE_INTERVAL_DAYS:  # min() without the builtin call
        interval = MAX_FULL_RECHARGE_INTERVAL_DAYS
    return state.days_since_full_recharge >= interval


CompensatedLimits = tuple[tuple[float, float], tuple[float, float]]


def compensated_limits(params: ControlParams, temp_c: float) -> CompensatedLimits:
    """(v_limit, v_float) of the full and of the partial limit set at a
    battery temperature."""
    return (
        params.full_limits.compensated(temp_c),
        params.partial_limits.compensated(temp_c),
    )


def select_limits(
    state: ControllerState, params: ControlParams, temp_c: float
) -> tuple[float, float, bool]:
    """Active (v_limit, v_float, is_full_set) for this step."""
    return select_compensated(state, params, compensated_limits(params, temp_c))


def select_compensated(
    state: ControllerState, params: ControlParams, limits: CompensatedLimits
) -> tuple[float, float, bool]:
    """:func:`select_limits`, given :func:`compensated_limits` at the
    step's temperature, which a run evaluates once per temperature."""
    full = wants_full_limits(state, params)
    v_limit, v_float = limits[0] if full else limits[1]
    state.full_set_active = full
    return v_limit, v_float, full


def update_load_disconnect(
    state: ControllerState, soc: float, params: ControlParams
) -> tuple[bool, bool]:
    """Apply the low-soc cutoff with reconnect hysteresis.

    Returns:
        (disconnected_now, reconnected_now)
    """
    if not state.load_disconnected and soc < params.cutoff_soc:
        state.load_disconnected = True
        return True, False
    if state.load_disconnected and soc >= params.reconnect_soc():
        state.load_disconnected = False
        return False, True
    return False, False


def tscc_step(
    state: ControllerState,
    soc: float,
    capacity_loss_ah: float,
    available_charge_a: float,
    load_a: float,
    v_limit: float,
    v_float: float,
    battery: Battery,
    taper_a: float,
) -> tuple[float, StepEvents]:
    """One controller step: pick the battery current and advance the phase.

    Args:
        available_charge_a: Source current available for charging (>= 0).
        load_a: Load current drawn from the bus (0 when disconnected).
        v_limit / v_float: Active, already temperature-compensated limits.
        battery: The run's battery model.
        taper_a: Absorption current below which the battery counts as full.

    Returns:
        (applied battery current, events).  Positive current charges.
    """
    net = available_charge_a - load_a
    if net <= 0.0:
        # deficit or nothing available: battery serves the load, re-arm
        state.phase = Phase.BULK
        return net, NO_EVENTS

    soc_v = clamp(soc, 1e-6, SOC_CAP)

    if state.phase is Phase.FLOAT:
        i_hold = battery.hold_voltage_current(soc_v, v_float, capacity_loss_ah)
        applied = clamp(i_hold, 0.0, net)
        return applied, NO_EVENTS

    entered_absorption = False
    if state.phase is Phase.BULK:
        predicted = battery.terminal_voltage(soc_v, net, capacity_loss_ah)
        if predicted < v_limit:
            return net, NO_EVENTS
        state.phase = Phase.ABSORPTION
        entered_absorption = True

    # absorption: taper the current to hold the ceiling
    i_hold = battery.hold_voltage_current(soc_v, v_limit, capacity_loss_ah)
    applied = clamp(i_hold, 0.0, net)
    if not entered_absorption and i_hold <= taper_a and net >= i_hold:
        # taper finished and the source could actually sustain it
        state.phase = Phase.FLOAT
        return applied, StepEvents(
            float_entered=True, full_charge=state.full_set_active
        )
    return applied, NO_EVENTS

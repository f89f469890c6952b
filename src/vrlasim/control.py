"""Three-stage charge control with optional adaptive full-recharge scheduling.

The controller runs bulk (all available current), absorption (current
tapered to hold the absorption ceiling) and float (voltage held at the
float setpoint).  A full recharge is declared when the absorption taper
current falls below a threshold.  Under the adaptive policy, each
midnight the days since the last full recharge and the day's
degradation mix decide whether the next day charges against the full
or the reduced limit set (reschedule).  Load is disconnected below a
state-of-charge floor and reconnects with hysteresis.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass

from ._domains import FINITE, NON_NEGATIVE, UNIT, check_fields, declared
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

    v_limit: float = declared(MISSING, FINITE, "V", "absorption ceiling at ref_temp_c")
    v_float: float = declared(MISSING, FINITE, "V", "float setpoint at ref_temp_c")
    temp_coeff_mv_per_c: float = declared(-30.0, FINITE, "mV/degC", "0 disables compensation")
    ref_temp_c: float = declared(25.0, FINITE, "degC", "temperature of no shift")

    def __post_init__(self) -> None:
        check_fields(self, ValueError)
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
    taper_fraction_per_h: float = declared(0.02, NON_NEGATIVE, "1/h", "full below this A per Ah")
    cutoff_soc: float = declared(0.5, UNIT, "-", "state of charge that disconnects the load")
    reconnect_hysteresis: float = declared(0.05, UNIT, "-", "reconnect this far above the cutoff")

    def __post_init__(self) -> None:
        check_fields(self, ValueError)
        reconnect = self.reconnect_soc()
        if reconnect > 1.0:  # no battery would reach it
            raise ValueError(f"cutoff_soc + reconnect_hysteresis exceeds 1: {reconnect!r}")

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
    interval_days: float = 1.0  # adaptive full-recharge interval
    full_set: bool = True  # charge against the full limit set


@dataclass(frozen=True)
class StepEvents:
    """What happened inside one controller step."""

    float_entered: bool = False
    full_charge: bool = False


NO_EVENTS = StepEvents()  # shared by every step that changes no phase


def wants_full_limits(days_since_full: int, interval_days: float, params: ControlParams) -> bool:
    """Whether the adaptive scheduler calls for the full limit set.

    A full recharge is due once at least interval_days whole days have
    passed since the last one; the interval is capped so the wait never
    exceeds six days.
    """
    if params.policy is Policy.BBOXX_STATIC:
        return True
    if interval_days > MAX_FULL_RECHARGE_INTERVAL_DAYS:  # min() without the builtin call
        interval_days = MAX_FULL_RECHARGE_INTERVAL_DAYS
    return days_since_full >= interval_days


def reschedule(
    state: ControllerState,
    params: ControlParams,
    day: int,
    delta_c_corr: float,
    delta_c: float,
    last_full_day: int,
) -> bool:
    """The adaptive scheduler's midnight update as `day` starts, from the
    losses (Ah) of the day that ended.

    Sets the full-recharge interval, carried over a day without loss, and
    full_set from the days since the last full recharge (day + 1 before
    the first one, last_full_day -1); returns full_set.
    """
    interval = recharge_interval(delta_c_corr, delta_c)
    if interval is not None:
        state.interval_days = interval
    days_since_full = day - last_full_day if last_full_day >= 0 else day + 1
    state.full_set = wants_full_limits(days_since_full, state.interval_days, params)
    return state.full_set


def select_limits(
    state: ControllerState, params: ControlParams, temp_c: float
) -> tuple[float, float]:
    """Active (v_limit, v_float) at a battery temperature."""
    limits = params.full_limits if state.full_set else params.partial_limits
    return limits.compensated(temp_c)


def update_load_disconnect(
    state: ControllerState, soc: float, params: ControlParams
) -> bool:
    """Apply the low-soc cutoff with reconnect hysteresis.

    Returns:
        Whether this call disconnected the load.
    """
    if not state.load_disconnected and soc < params.cutoff_soc:
        state.load_disconnected = True
        return True
    if state.load_disconnected and soc >= params.reconnect_soc():
        state.load_disconnected = False
    return False


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
        return applied, StepEvents(float_entered=True, full_charge=state.full_set)
    return applied, NO_EVENTS

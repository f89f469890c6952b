"""Scenario simulation engine.

Steps the electrical model, charge controller and ageing model over an
input profile until the battery reaches end of life or the horizon
expires.  One pass produces lifetime, per-mechanism capacity-loss
trajectories, operating histograms and stress factors; a paired run of
two controller policies over the same inputs produces a comparison.
"""

from __future__ import annotations

import math
import os
import threading
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain

from ._domains import HALF_OPEN_UNIT, POSITIVE, UNIT, check_fields, declared
from .battery import (
    OCV_COEFFS,
    POSITIVE_OCV_COEFFS,
    SOC_CAP,
    SOC_FLOOR,
    Battery,
    BatteryParams,
    GassingParams,
    clamp,
    gassing_temperature_term,
)
from .control import (
    MAX_FULL_RECHARGE_INTERVAL_DAYS,
    CompensatedLimits,
    ControllerState,
    ControlParams,
    Phase,
    Policy,
    compensated_limits,
    recharge_interval,
    wants_full_limits,
)
from .degradation import (
    DAYS_PER_YEAR,
    Datasheet,
    DegradationModel,
    DegradationParams,
    corrosion_temperature_factor,
)
from .profiles import DEFAULT_DT_S, SECONDS_PER_DAY, STRESS_LOW_SOC, StressAccumulator
from .profiles import StressFactors, TimeSeries, TraceRecord, TraceWriter
from .profiles import divides_day


class EngineError(RuntimeError):
    """Simulation could not run with the given scenario."""


# Histogram layout: fixed bins so runs are comparable.
SOC_BIN_WIDTH = 0.05
N_SOC_BINS = 20
VOLTAGE_BIN_LOW = 10.0
VOLTAGE_BIN_WIDTH = 0.1
N_VOLTAGE_BINS = 56  # 10.0 .. 15.6 V, outliers land in the edge bins

# Distinct temperatures one run's TemperatureTerms keeps.  Generated
# profiles hold a few dozen; an ingested log may hold one per sample.
TEMPERATURE_MEMO_ENTRIES = 1024


@dataclass(frozen=True)
class Scenario:
    """Everything one simulation run needs."""

    name: str
    profile: TimeSeries
    control: ControlParams = field(default_factory=ControlParams)
    battery: BatteryParams = field(default_factory=BatteryParams)
    degradation: DegradationParams = field(default_factory=DegradationParams)
    datasheet: Datasheet = field(default_factory=Datasheet)
    dt_s: float = declared(DEFAULT_DT_S, POSITIVE, "s", "step of 1 s or more, dividing a day")
    max_years: float = declared(15.0, POSITIVE, "years", "horizon; later end of life is censored")
    initial_soc: float = declared(0.9, UNIT, "-", "state of charge at the start")
    converter_efficiency: float = declared(0.95, HALF_OPEN_UNIT, "-", "panel to battery bus")
    record_trace: bool = False

    def __post_init__(self) -> None:
        check_fields(self, EngineError)
        if not divides_day(self.dt_s):
            raise EngineError("dt_s must divide a day evenly")


@dataclass(frozen=True)
class DayRecord:
    """State at the end of one simulated day."""

    day: int
    c_corr_ah: float
    c_deg_ah: float
    c_total_ah: float
    soh_pct: float
    min_soc: float
    full_charges: int


@dataclass
class EnergyAudit:
    """Closure check between coulomb counting and SOC bookkeeping.

    soc_end - soc_start must equal integral plus the explicit jump
    terms; anything else is a bookkeeping bug.
    """

    soc_start: float = 0.0
    soc_end: float = 0.0
    integral: float = 0.0  # sum of (I - I_gas) dt / capacity
    correction_jumps: float = 0.0  # rest-voltage SOC corrections
    full_reset_jumps: float = 0.0  # SOC snapped to 1.0 on full recharge
    clamp_jumps: float = 0.0  # SOC clipped at the [0, 1] bounds

    def residual(self) -> float:
        explained = (
            self.integral
            + self.correction_jumps
            + self.full_reset_jumps
            + self.clamp_jumps
        )
        return (self.soc_end - self.soc_start) - explained


@dataclass
class SimResult:
    name: str
    policy: str
    lifetime_years: float
    lifetime_days: float
    censored: bool  # horizon reached before end of life
    capacity_ah: float
    eol_threshold_ah: float
    c_corr_ah: float
    c_deg_ah: float
    c_total_ah: float
    soh_end_pct: float
    corrosion_share_pct: float
    full_equivalent_cycles: float
    min_soc: float
    full_charge_events: int
    full_recharge_day_fraction: float
    disconnect_events: int
    hours_disconnected: float
    load_energy_lost_wh: float
    soc_clamp_events: int
    rest_correction_events: int
    ks_clamp_events: int
    audit: EnergyAudit
    trajectory: list[DayRecord]
    soc_hist_h: list[float]
    voltage_hist_h: list[float]
    stress: "object"  # StressFactors
    runtime_s: float
    trace: list[TraceRecord] | None = None  # None unless run_scenario kept it

    def summary(self) -> dict:
        return {
            "name": self.name,
            "policy": self.policy,
            "lifetime_years": round(self.lifetime_years, 3),
            "censored": self.censored,
            "soh_end_pct": round(self.soh_end_pct, 2),
            "c_corr_ah": round(self.c_corr_ah, 4),
            "c_deg_ah": round(self.c_deg_ah, 4),
            "corrosion_share_pct": round(self.corrosion_share_pct, 1),
            "full_equivalent_cycles": round(self.full_equivalent_cycles, 1),
            "min_soc": round(self.min_soc, 3),
            "full_recharge_day_fraction": round(self.full_recharge_day_fraction, 3),
            "disconnect_events": self.disconnect_events,
        }


def _day_record(
    day: int,
    c_corr: float,
    c_deg: float,
    capacity: float,
    min_soc: float,
    full_charges: int,
) -> DayRecord:
    """The record of a day that ended with capacity losses c_corr and c_deg (Ah)."""
    loss = c_corr + c_deg
    return DayRecord(
        day=day,
        c_corr_ah=c_corr,
        c_deg_ah=c_deg,
        c_total_ah=loss,
        soh_pct=100.0 * (capacity - loss) / capacity,
        min_soc=min_soc,
        full_charges=full_charges,
    )


class TemperatureTerms:
    """The per-step terms that depend on temperature alone, memoised for a run.

    Called with a temperature in degC, returns (corrosion temperature
    factor, gassing temperature term, compensated limits of both sets),
    each from the one function that defines it; none raises at an admitted
    temperature (DegradationParams rejects a corrosion factor that
    overflows there).  Entries are keyed on the
    exact temp_c float (0.0 and -0.0 share one, and give the same terms),
    so the memo cannot change a result.  It stops inserting at
    TEMPERATURE_MEMO_ENTRIES, so a profile whose temperatures never repeat
    costs bounded memory; further temperatures are evaluated afresh each
    time a day's terms are made.
    """

    __slots__ = ("control", "degradation", "gassing", "entries")

    def __init__(
        self,
        control: ControlParams,
        degradation: DegradationParams,
        gassing: GassingParams,
    ) -> None:
        self.control = control
        self.degradation = degradation
        self.gassing = gassing
        self.entries: dict[float, tuple[float, float, CompensatedLimits]] = {}

    def __call__(self, temp_c: float) -> tuple[float, float, CompensatedLimits]:
        terms = self.entries.get(temp_c)
        if terms is None:
            temp_k = temp_c + 273.15
            terms = (
                corrosion_temperature_factor(temp_k, self.degradation),
                gassing_temperature_term(temp_k, self.gassing),
                compensated_limits(self.control, temp_c),
            )
            if len(self.entries) < TEMPERATURE_MEMO_ENTRIES:
                self.entries[temp_c] = terms
        return terms

    def day(self, temps: list[float]) -> list[tuple[float, float, CompensatedLimits]]:
        """The terms at each of a day's temperatures."""
        get = self.entries.get
        return [get(t) or self(t) for t in temps]  # terms are non-empty tuples


def _reschedule(
    ctrl: ControllerState,
    control: ControlParams,
    day: int,
    delta_c_corr: float,
    delta_c: float,
    last_full_event_day: int,
) -> bool:
    """The adaptive scheduler's midnight update, from the day's losses (Ah).

    Sets the full-recharge interval and the days since the last full
    recharge (day + 1 before the first one); returns whether the full
    limit set applies from now on.
    """
    interval = recharge_interval(delta_c_corr, delta_c)
    if interval is not None:
        ctrl.interval_days = interval
    ctrl.days_since_full_recharge = day - max(last_full_event_day, 0)
    if last_full_event_day < 0:
        ctrl.days_since_full_recharge = day + 1
    return wants_full_limits(ctrl, control)


def _sim_result(
    scenario: Scenario,
    started: float,
    lifetime_steps: int,
    eol_ah: float,
    c_corr: float,
    c_deg: float,
    stress_result: StressFactors,
    **fields,
) -> SimResult:
    """The SimResult of a run that ended after lifetime_steps steps with
    losses c_corr + c_deg (Ah); fields are the run's own counters."""
    capacity = scenario.battery.capacity_ah
    loss = c_corr + c_deg
    lifetime_days = lifetime_steps * scenario.dt_s / SECONDS_PER_DAY
    return SimResult(
        name=scenario.name,
        policy=scenario.control.policy.value,
        lifetime_years=lifetime_days / DAYS_PER_YEAR,
        lifetime_days=lifetime_days,
        capacity_ah=capacity,
        eol_threshold_ah=eol_ah,
        c_corr_ah=c_corr,
        c_deg_ah=c_deg,
        c_total_ah=loss,
        soh_end_pct=100.0 * (capacity - loss) / capacity,
        corrosion_share_pct=100.0 * c_corr / loss if loss > 0 else 0.0,
        full_equivalent_cycles=stress_result.full_equivalent_cycles,
        full_charge_events=stress_result.n_full_charges,
        full_recharge_day_fraction=stress_result.full_recharge_day_fraction,
        stress=stress_result,
        runtime_s=time.perf_counter() - started,
        **fields,
    )


def run_scenario(
    scenario: Scenario, *, trace: list[TraceRecord] | TraceWriter | None = None
) -> SimResult:
    """Simulate one scenario to end of life or the horizon.

    The loop runs over days, and the per-day work stays here: the
    profile gives a day's samples (TimeSeries.day), the day's temperature
    terms, which cannot raise (see TemperatureTerms), are made before its
    first step, afresh only when its temperatures are not the same object
    as the day before's, the adaptive schedule is updated at midnight
    (_reschedule), and each day ends in a DayRecord.  The run's state
    between steps is one _kernel.State.

    A day's steps run in the compiled kernel (_step.c, loaded by
    _kernel.load) where one could be built, and in `python_day` where
    not, or where the kernel flags a step at which the Python loop would
    raise: the kernel then leaves the state as the day found it, and
    `python_day` runs that day and raises what it raises.  Both give the
    same result to the bit.  In `python_day` the whole step runs in its
    locals.  The load disconnect, limit selection and controller step
    (control.update_load_disconnect, select_limits, tscc_step), terminal
    voltage and hold current (Battery methods), gassing
    (battery.gassing_current), coulomb counting (battery.step_soc), the
    ageing step (DegradationModel.step) and the stress sums
    (StressAccumulator.add) are written out there with the float
    operations of those functions, in their order, and the stress
    factors come from StressFactors.from_totals once, at the end.  The
    functions remain the single-step API, and tests/reference_engine.py
    composes them, each evaluated afresh at the step's temperature, into
    the loop whose results this one must equal bit for bit.  The
    electrolyte chain stays in Battery.electrolyte, the OCV inversion in
    Battery.invert_ocv (called only where it can move the state of
    charge) and the adaptive schedule in _reschedule.

    Given a `trace` destination, any object with an ``append`` method
    such as a profiles.TraceWriter, the run appends one TraceRecord per
    step to it as it makes them (a day's at a time from the kernel),
    SimResult.trace is None, and runtime_s includes what the appends
    cost.  Without one, a scenario with record_trace keeps its records
    in a new list, SimResult.trace.
    """
    from . import _kernel

    started = time.perf_counter()
    params = scenario.battery
    battery = Battery(params)
    profile = scenario.profile
    model = DegradationModel(
        battery=params,
        params=scenario.degradation,
        datasheet=scenario.datasheet,
    )
    calibrated = model.limits  # a scenario that cannot be calibrated fails here
    ctrl = ControllerState()
    control = scenario.control
    adaptive = control.policy is Policy.ADAPTIVE
    terms_of_day = TemperatureTerms(control, scenario.degradation, params.gassing).day

    dt_s = scenario.dt_s
    dt_h = dt_s / 3600.0
    steps_per_day = int(round(SECONDS_PER_DAY / dt_s))
    max_steps = int(round(scenario.max_years * DAYS_PER_YEAR * steps_per_day))
    if profile.dt_s != dt_s:
        raise EngineError(
            f"profile dt {profile.dt_s}s does not match scenario dt {dt_s}s"
        )
    profile_day = profile.day

    capacity = params.capacity_ah
    rest_a = params.rest_current_a
    eff = scenario.converter_efficiency
    eol_ah = model.eol_threshold_ah()
    taper_a = control.taper_current_a(capacity)
    soc_to_ah = 1.0 / (capacity * 3600.0)
    capacity_as = capacity * 3600.0  # step_soc's divisor

    # per-run constants of the written-out layers, and the module names
    # the step reads, as locals
    exp, sqrt = math.exp, math.sqrt
    soc_cap, soc_floor = SOC_CAP, SOC_FLOOR
    soc_bin_width, soc_bin_last = SOC_BIN_WIDTH, N_SOC_BINS - 1
    v_bin_low, v_bin_width, v_bin_last = VOLTAGE_BIN_LOW, VOLTAGE_BIN_WIDTH, N_VOLTAGE_BINS - 1
    cells, b0_ah, b1 = battery.cells, battery.b0_ah, battery.b1
    v_empty, v_full = battery.v_empty, battery.v_full
    electrolyte, invert_ocv = battery.electrolyte, battery.invert_ocv
    p0, p1, p2, p3, p4 = POSITIVE_OCV_COEFFS
    gassing = params.gassing
    i_gas_0, c_v, v_ref = gassing.i_gas_0, gassing.c_v, gassing.v_ref
    cutoff_soc, reconnect_soc = control.cutoff_soc, control.reconnect_soc()
    BULK, ABSORPTION, FLOAT = PHASES = tuple(Phase)
    ageing = scenario.degradation
    ks_potentials, ks_segments = ageing.ks_potentials, ageing.ks_segments
    v_first, v_last = ks_potentials[0], ks_potentials[-1]
    k_first, k_last = ageing.ks_knots[0][1], ageing.ks_knots[-1][1]
    threshold_v, exponent = ageing.corrosion_threshold_v, ageing.corrosion_exponent
    c_soc0, c_soc_min = ageing.c_soc0_per_h, ageing.c_soc_min_per_h
    i_ref, i_floor = ageing.i_ref_a, ageing.i_floor_a
    nominal_cycles = scenario.datasheet.nominal_cycles
    w_limit = calibrated.w_limit
    c_corr_limit, c_deg_limit = calibrated.c_corr_limit, calibrated.c_deg_limit
    stress_low_soc, depth_bins_n = STRESS_LOW_SOC, StressAccumulator.N_DEPTH_BINS
    depth_bin_last = depth_bins_n - 1

    kept = None  # the trace SimResult keeps
    if trace is None and scenario.record_trace:
        trace = kept = []
    record = None if trace is None else trace.append
    trajectory: list[DayRecord] = []
    full_charge_times: list[float] = []
    full_charge_days: set[int] = set()

    soc = scenario.initial_soc
    st = _kernel.State(
        soc=soc,
        v_prev=battery.ocv(clamp(soc, SOC_FLOOR, SOC_CAP)),
        b0=b0_ah / capacity,  # Battery.effective_b0 at no loss
        min_soc_since_full=soc,
        c_deg_z_w=math.nan,  # the z_w that c_deg was computed at; nan matches none
        el_soc=math.nan,  # the last Battery.electrolyte result; nan matches no soc
        el_y=math.nan,
        el_ocv=math.nan,
        min_soc_run=soc,
        min_soc_day=soc,
        interval_days=ctrl.interval_days,
        full_set=wants_full_limits(ctrl, control),
        last_full_event_day=-1,
        lifetime_steps=max_steps,
    )

    def python_day(day, first, stop, loads, solars, day_terms) -> bool:
        """Steps first .. stop - 1 of a day in Python, from st and back into
        it; whether the battery reached end of life."""
        soc, v_prev, b0, loss = st.soc, st.v_prev, st.b0, st.loss
        w, z_w, since_full_h, min_soc_since_full = st.w, st.z_w, st.since_full_h, st.min_soc_since_full
        c_corr, c_deg, c_deg_z_w = st.c_corr, st.c_deg, st.c_deg_z_w
        el = (st.el_soc, st.el_y, st.el_ocv)
        integral, correction_jumps = st.integral, st.correction_jumps
        full_reset_jumps, clamp_jumps = st.full_reset_jumps, st.clamp_jumps
        charge_ah, discharge_ah, max_discharge_a = st.charge_ah, st.discharge_ah, st.max_discharge_a
        low_soc_h, float_h = st.low_soc_h, st.float_h
        # lowest soc since the last full charge, None before one
        cycle_min_soc = st.cycle_min_soc if st.cycling else None
        min_soc_run, min_soc_day = st.min_soc_run, st.min_soc_day
        hours_disconnected, load_lost_wh = st.hours_disconnected, st.load_lost_wh
        soc_hist, v_hist, depth_bins = st.soc_hist[:], st.v_hist[:], st.depth_bins[:]
        phase, disconnected, full_set = PHASES[st.phase], st.disconnected, st.full_set
        disconnect_events, clamp_events = st.disconnect_events, st.clamp_events
        correction_events, ks_clamp_events = st.correction_events, st.ks_clamp_events
        day_full_events, last_full_event_day = st.day_full_events, st.last_full_event_day
        ended = False

        for i, load_w, solar_w, (corrosion_factor, gas_term, limits) in zip(
            range(first, stop), loads, solars, day_terms
        ):
            # load disconnect with reconnect hysteresis
            if disconnected:
                if soc >= reconnect_soc:
                    disconnected = False
            elif soc < cutoff_soc:
                disconnected = True
                disconnect_events += 1
            if disconnected:
                hours_disconnected += dt_h
                load_lost_wh += load_w * dt_h
                load_a = 0.0
            else:
                load_a = load_w / v_prev
            avail_a = solar_w * eff / v_prev
            net_a = avail_a - load_a
            v_limit, v_float = limits[0] if full_set else limits[1]

            # controller step: pick the battery current and advance the phase
            full_event = False
            if net_a <= 0.0:
                # deficit or nothing available: battery serves the load, re-arm
                phase = BULK
                applied = net_a
            else:
                s = soc_cap if soc_cap < soc else soc
                s = 1e-6 if 1e-6 > s else s
                tapering = phase is ABSORPTION
                hold_v = v_float if phase is FLOAT else v_limit
                if phase is BULK:
                    # terminal voltage if the whole surplus charged the battery
                    if el[0] != s:
                        el = electrolyte(s)
                    sc = soc_cap if soc_cap < s else s
                    over = b0 * (net_a / capacity) * (1.0 + b1 * (sc / (1.0 - sc)))
                    if cells * el[2] + cells * over < v_limit:
                        hold_v = None
                    else:
                        phase = ABSORPTION
                if hold_v is None:
                    applied = net_a
                else:
                    # current that holds the terminal at hold_v
                    sh = soc_cap if soc_cap < s else s
                    sh = soc_floor if soc_floor > sh else sh
                    if el[0] != sh:
                        el = electrolyte(sh)
                    gain = b0 * (1.0 + b1 * sh / (1.0 - sh)) / capacity
                    i_hold = (hold_v / cells - el[2]) / gain
                    applied = net_a if net_a < i_hold else i_hold
                    applied = 0.0 if 0.0 > applied else applied
                    if tapering and i_hold <= taper_a and net_a >= i_hold:
                        # taper finished and the source could actually sustain it
                        phase = FLOAT
                        if full_set:
                            # full recharge declared: trust the controller and
                            # snap the coulomb counter to full
                            full_reset_jumps += 1.0 - soc
                            soc = 1.0
                            since_full_h = 0.0
                            min_soc_since_full = 1.0
                            full_event = True
                            day_full_events += 1
                            last_full_event_day = day
                            ctrl.days_since_full_recharge = 0
                            full_set = wants_full_limits(ctrl, control)
                        # entering float collapses the current to the float hold level
                        hold = battery.hold_voltage_current(
                            clamp(soc, soc_floor, soc_cap), v_float, loss
                        )
                        applied = clamp(hold, 0.0, net_a)

            # terminal voltage under the applied current
            soc_v = soc_cap if soc_cap < soc else soc
            soc_v = soc_floor if soc_floor > soc_v else soc_v
            if el[0] != soc_v:
                el = electrolyte(soc_v)
            if applied == 0.0:
                over = 0.0
            elif applied > 0.0:
                sc = soc_cap if soc_cap < soc_v else soc_v
                over = b0 * (applied / capacity) * (1.0 + b1 * (sc / (1.0 - sc)))
            else:
                sc = soc_floor if soc_floor > soc_v else soc_v
                over = b0 * (applied / capacity) * (1.0 + b1 * ((1.0 - sc) / sc))
            voltage = cells * el[2] + cells * over

            # rest correction: only when the controller is not holding a
            # voltage, otherwise small hold currents look like rest while
            # the terminal is still polarized.  The inversion cannot move soc
            # where applied == 0.0, soc == soc_v (so soc lies within the rails
            # [SOC_FLOOR, SOC_CAP]) and v_empty < voltage < v_full: then
            # voltage == cells * el[2] + 0.0 == Battery.ocv(soc), the seed clamp
            # to [1e-6, 1 - 1e-6] leaves soc as it is, and invert_ocv returns
            # (soc, False) at its first abs(f) < 1e-12 test, with f == 0.0.
            # Adding the jump of 0.0 leaves correction_jumps as it is, since
            # that sum never holds -0.0.  The voltage test stays: invert_ocv
            # clamps at or outside the span, and BatteryParams keeps the OCV
            # rising with soc only in real arithmetic, not ulp by ulp.
            if (
                phase is BULK
                and -rest_a < applied < rest_a
                and (applied != 0.0 or soc != soc_v or not v_empty < voltage < v_full)
            ):
                corrected = invert_ocv(voltage, soc)[0]
                jump = corrected - soc
                if abs(jump) > 1e-9:
                    correction_events += 1
                correction_jumps += jump
                soc = corrected

            # gassing, then coulomb counting without the gassing current
            i_gas = i_gas_0 * exp(c_v * (voltage - v_ref) + gas_term)
            charge = (applied - i_gas) * dt_s
            integral += charge * soc_to_ah
            new_soc = soc + charge / capacity_as
            if new_soc > 1.0 or new_soc < 0.0:
                bound = 1.0 if new_soc > 1.0 else 0.0
                clamp_events += 1
                clamp_jumps += bound - (soc + charge * soc_to_ah)
                new_soc = bound

            # ageing: corrosion from the positive-electrode potential ...
            sd = 1.0 if 1.0 < soc else soc
            sd = 0.0 if 0.0 > sd else sd
            if el[0] != sd:
                el = electrolyte(sd)
            y = el[1]
            v_p = p0 + y * (p1 + y * (p2 + y * (p3 + y * p4))) + 0.5 * (
                voltage / cells - el[2]
            )
            if v_p <= v_first:
                speed = k_first * corrosion_factor
                if v_p < v_first:
                    ks_clamp_events += 1
            elif v_p < v_last:
                # the segment ends at the first knot at or above v_p
                v0, k0, dk, dv = ks_segments[bisect_left(ks_potentials, v_p) - 1]
                speed = (k0 + dk * (v_p - v0) / dv) * corrosion_factor
            else:  # at or above the last knot, or nan
                speed = k_last * corrosion_factor
                if v_p > v_last:
                    ks_clamp_events += 1
            if speed <= 0.0:
                pass  # no growth
            elif v_p >= threshold_v:
                w = w + speed * dt_h
            else:
                tau_eff = (w / speed) ** (1.0 / exponent) if w > 0.0 else 0.0
                w = speed * (tau_eff + dt_h) ** exponent
            # ... and weighted discharge throughput
            since_full_h += dt_h
            if soc < min_soc_since_full:
                min_soc_since_full = soc
            if applied < 0.0:
                discharge_a = -applied
                m = 1.0 if 1.0 < min_soc_since_full else min_soc_since_full
                m = 0.0 if 0.0 > m else m
                i_w = i_floor if i_floor > discharge_a else discharge_a
                f = 1.0 + (c_soc0 + c_soc_min * (1.0 - m)) * sqrt(
                    i_ref / i_w
                ) * since_full_h
                z_w = z_w + discharge_a * f * dt_h / capacity
            c_corr = c_corr_limit * w / w_limit
            if z_w != c_deg_z_w:
                c_deg = c_deg_limit * exp(-5.0 * (1.0 - z_w / nominal_cycles))
                c_deg_z_w = z_w
            loss = c_corr + c_deg
            soc = new_soc

            if soc < min_soc_run:
                min_soc_run = soc
            if soc < min_soc_day:
                min_soc_day = soc
            soc_bin = int(soc_v / soc_bin_width)
            soc_hist[soc_bin if soc_bin < soc_bin_last else soc_bin_last] += dt_h
            vbin = int((voltage - v_bin_low) / v_bin_width)
            vbin = 0 if vbin < 0 else vbin
            v_hist[vbin if vbin < v_bin_last else v_bin_last] += dt_h

            # stress sums, as StressAccumulator.add keeps them
            if applied >= 0.0:
                charge_ah += applied * dt_h
            else:
                drawn = -applied
                discharge_ah += drawn * dt_h
                if drawn > max_discharge_a:
                    max_discharge_a = drawn
            if soc < stress_low_soc:
                low_soc_h += dt_h
            floating = phase is FLOAT
            if floating:
                float_h += dt_h
            if cycle_min_soc is not None and soc < cycle_min_soc:
                cycle_min_soc = soc
            if full_event:
                if cycle_min_soc is not None:
                    depth = 1.0 - cycle_min_soc
                    depth_bin = int(depth * depth_bins_n) if depth > 0.0 else 0
                    depth_bins[depth_bin if depth_bin < depth_bin_last else depth_bin_last] += 1
                t_h = i * dt_h
                full_charge_times.append(t_h)
                full_charge_days.add(int(t_h // 24.0))
                cycle_min_soc = soc
            if record is not None:
                record(TraceRecord(i * dt_h, applied, soc, voltage, full_event, floating))
            v_prev = voltage

            if loss >= eol_ah:
                st.lifetime_steps = i + 1
                ended = True
                break
            b0 = b0_ah / (capacity - loss)

        st.soc, st.v_prev, st.b0, st.loss = soc, v_prev, b0, loss
        st.w, st.z_w, st.since_full_h, st.min_soc_since_full = w, z_w, since_full_h, min_soc_since_full
        st.c_corr, st.c_deg, st.c_deg_z_w = c_corr, c_deg, c_deg_z_w
        st.el_soc, st.el_y, st.el_ocv = el
        st.integral, st.correction_jumps = integral, correction_jumps
        st.full_reset_jumps, st.clamp_jumps = full_reset_jumps, clamp_jumps
        st.charge_ah, st.discharge_ah, st.max_discharge_a = charge_ah, discharge_ah, max_discharge_a
        st.low_soc_h, st.float_h = low_soc_h, float_h
        if cycle_min_soc is not None:
            st.cycle_min_soc, st.cycling = cycle_min_soc, 1
        st.min_soc_run, st.min_soc_day = min_soc_run, min_soc_day
        st.hours_disconnected, st.load_lost_wh = hours_disconnected, load_lost_wh
        st.soc_hist[:], st.v_hist[:], st.depth_bins[:] = soc_hist, v_hist, depth_bins
        st.phase, st.disconnected, st.full_set = PHASES.index(phase), disconnected, full_set
        st.disconnect_events, st.clamp_events = disconnect_events, clamp_events
        st.correction_events, st.ks_clamp_events = correction_events, ks_clamp_events
        st.day_full_events, st.last_full_event_day = day_full_events, last_full_event_day
        return ended

    run_day = _kernel.load()
    if run_day is not None:
        # the kernel's constants, and the buffers each day is passed and fills
        potentials = array("d", ks_potentials)
        segments = array("d", chain.from_iterable(ks_segments))
        kernel_params = _kernel.Params(
            dt_s=dt_s, dt_h=dt_h, capacity=capacity, capacity_as=capacity_as,
            soc_to_ah=soc_to_ah, eff=eff, rest_a=rest_a, taper_a=taper_a, eol_ah=eol_ah,
            soc_cap=soc_cap, soc_floor=soc_floor, soc_bin_width=soc_bin_width,
            v_bin_low=v_bin_low, v_bin_width=v_bin_width, stress_low_soc=stress_low_soc,
            cells=cells, b0_ah=b0_ah, b1=b1, v_empty=v_empty, v_full=v_full,
            c_max=battery.c_max, swing=battery.swing, v_acid=battery.v_acid,
            v_water=battery.v_water, m_water=battery.m_water,
            ocv_coeffs=OCV_COEFFS, positive_coeffs=POSITIVE_OCV_COEFFS,
            i_gas_0=i_gas_0, c_v=c_v, v_ref=v_ref, cutoff_soc=cutoff_soc,
            reconnect_soc=reconnect_soc, max_interval_days=MAX_FULL_RECHARGE_INTERVAL_DAYS,
            v_first=v_first, v_last=v_last, k_first=k_first, k_last=k_last,
            threshold_v=threshold_v, exponent=exponent, c_soc0=c_soc0, c_soc_min=c_soc_min,
            i_ref=i_ref, i_floor=i_floor, nominal_cycles=nominal_cycles, w_limit=w_limit,
            c_corr_limit=c_corr_limit, c_deg_limit=c_deg_limit,
            ks_potentials=potentials.buffer_info()[0], ks_segments=segments.buffer_info()[0],
            n_knots=len(potentials), adaptive=adaptive,
        )
        events = array("q", bytes(8 * steps_per_day))
        at_events = events.buffer_info()[0]
        at_values = at_marks = None
        if record is not None:
            values = array("d", bytes(24 * steps_per_day))
            marks = array("b", bytes(2 * steps_per_day))
            at_values, at_marks = values.buffer_info()[0], marks.buffer_info()[0]

    days = -(-max_steps // steps_per_day)  # the last may be partial
    day_temps = None  # the temperatures day_terms holds the terms of
    day_start_c_corr = day_start_total = 0.0
    censored = True
    for day in range(days):
        if day:
            # close out yesterday, refresh the adaptive target
            c_corr, loss = st.c_corr, st.loss
            trajectory.append(
                _day_record(day, c_corr, st.c_deg, capacity, st.min_soc_day, st.day_full_events)
            )
            st.min_soc_day = st.soc
            st.day_full_events = 0
            if adaptive:
                st.full_set = _reschedule(
                    ctrl,
                    control,
                    day,
                    c_corr - day_start_c_corr,
                    loss - day_start_total,
                    st.last_full_event_day,
                )
                st.interval_days = ctrl.interval_days
            day_start_c_corr = c_corr
            day_start_total = loss

        loads, solars, temps = profile_day(day)
        if temps is not day_temps:  # a template day reuses its terms
            day_temps, day_terms = temps, terms_of_day(temps)
            packed_terms = None
        first = day * steps_per_day
        stop = min(first + steps_per_day, max_steps)
        outcome = _kernel.FLAGGED
        if run_day is not None:
            if packed_terms is None:
                packed_terms = array(
                    "d", chain.from_iterable((f, g, *full, *part) for f, g, (full, part) in day_terms)
                )
            loads_in, solars_in = array("d", loads), array("d", solars)
            outcome = run_day(
                kernel_params, st, day, first, stop,
                loads_in.buffer_info()[0], solars_in.buffer_info()[0],
                packed_terms.buffer_info()[0], at_events, at_values, at_marks,
            )
        if outcome == _kernel.FLAGGED:
            ended = python_day(day, first, stop, loads, solars, day_terms)
        else:
            ended = outcome == _kernel.END_OF_LIFE
            full_events = st.day_full_events
            if full_events:
                ctrl.days_since_full_recharge = 0
                for i in events[:full_events]:
                    t_h = i * dt_h
                    full_charge_times.append(t_h)
                    full_charge_days.add(int(t_h // 24.0))
            if record is not None:
                stepped = range(first, st.lifetime_steps if ended else stop)
                v, m = iter(values), iter(marks)
                for i, applied, soc, voltage, full_event, floating in zip(stepped, v, v, v, m, m):
                    record(TraceRecord(i * dt_h, applied, soc, voltage, full_event == 1, floating == 1))
        if ended:
            censored = False
            break

    # close out the final (possibly partial) day
    lifetime_steps = st.lifetime_steps
    last_day = lifetime_steps // steps_per_day + (1 if lifetime_steps % steps_per_day else 0)
    trajectory.append(
        _day_record(last_day, st.c_corr, st.c_deg, capacity, st.min_soc_day, st.day_full_events)
    )
    return _sim_result(
        scenario,
        started,
        lifetime_steps,
        eol_ah,
        st.c_corr,
        st.c_deg,
        StressFactors.from_totals(
            capacity,
            dt_h,
            lifetime_steps,
            st.charge_ah,
            st.discharge_ah,
            st.max_discharge_a,
            st.low_soc_h,
            st.float_h,
            full_charge_times,
            full_charge_days,
            list(st.depth_bins),
        ),
        censored=censored,
        min_soc=st.min_soc_run,
        disconnect_events=st.disconnect_events,
        hours_disconnected=st.hours_disconnected,
        load_energy_lost_wh=st.load_lost_wh,
        soc_clamp_events=st.clamp_events,
        rest_correction_events=st.correction_events,
        ks_clamp_events=st.ks_clamp_events,
        audit=EnergyAudit(
            soc_start=scenario.initial_soc,
            soc_end=st.soc,
            integral=st.integral,
            correction_jumps=st.correction_jumps,
            full_reset_jumps=st.full_reset_jumps,
            clamp_jumps=st.clamp_jumps,
        ),
        trajectory=trajectory,
        soc_hist_h=list(st.soc_hist),
        voltage_hist_h=list(st.v_hist),
        trace=kept,
    )


@dataclass(frozen=True)
class ComparisonResult:
    """Paired-run comparison of two controller policies."""

    base: SimResult
    alt: SimResult
    lifetime_ratio: float
    corrosion_reduction_pct: float  # at the runs' respective ends of life
    corrosion_reduction_at_base_eol_pct: float
    active_mass_loss_ratio: float  # alt over base at respective ends of life
    active_mass_loss_ratio_at_base_eol: float
    alt_soh_at_base_eol_pct: float
    soh_never_worse: bool  # alt SOH >= base SOH on every common day
    max_soh_deficit_pct: float

    @classmethod
    def of(cls, base_result: SimResult, alt_result: SimResult) -> ComparisonResult:
        """The comparison of two finished runs, `alt_result` against `base_result`."""
        lifetime_ratio = (
            base_result.lifetime_years
            and alt_result.lifetime_years / base_result.lifetime_years
        )

        base_eol_day = len(base_result.trajectory)
        alt_at_base_eol = alt_result.trajectory[
            min(base_eol_day, len(alt_result.trajectory)) - 1
        ]
        base_end = base_result.trajectory[-1]

        corr_red = _reduction_pct(base_result.c_corr_ah, alt_result.c_corr_ah)
        corr_red_base_eol = _reduction_pct(base_end.c_corr_ah, alt_at_base_eol.c_corr_ah)

        common = min(len(base_result.trajectory), len(alt_result.trajectory))
        deficit = 0.0
        for b, a in zip(base_result.trajectory[:common], alt_result.trajectory[:common]):
            deficit = max(deficit, b.soh_pct - a.soh_pct)

        return cls(
            base=base_result,
            alt=alt_result,
            lifetime_ratio=lifetime_ratio,
            corrosion_reduction_pct=corr_red,
            corrosion_reduction_at_base_eol_pct=corr_red_base_eol,
            active_mass_loss_ratio=_ratio(alt_result.c_deg_ah, base_result.c_deg_ah),
            active_mass_loss_ratio_at_base_eol=_ratio(
                alt_at_base_eol.c_deg_ah, base_end.c_deg_ah
            ),
            alt_soh_at_base_eol_pct=alt_at_base_eol.soh_pct,
            soh_never_worse=deficit <= 1e-9,
            max_soh_deficit_pct=deficit,
        )

    def summary(self) -> dict:
        return {
            "base": self.base.summary(),
            "alt": self.alt.summary(),
            "lifetime_ratio": round(self.lifetime_ratio, 3),
            "corrosion_reduction_pct": round(self.corrosion_reduction_pct, 1),
            "corrosion_reduction_at_base_eol_pct": round(
                self.corrosion_reduction_at_base_eol_pct, 1
            ),
            "active_mass_loss_ratio": round(self.active_mass_loss_ratio, 2),
            "active_mass_loss_ratio_at_base_eol": round(
                self.active_mass_loss_ratio_at_base_eol, 2
            ),
            "alt_soh_at_base_eol_pct": round(self.alt_soh_at_base_eol_pct, 2),
            "soh_never_worse": self.soh_never_worse,
            "max_soh_deficit_pct": round(self.max_soh_deficit_pct, 4),
        }


def compare_strategies(base: Scenario, alt: Scenario) -> ComparisonResult:
    """Run two scenarios that differ only in controller policy.

    Raises EngineError unless profile, battery, ageing parameters and
    time step all match; the comparison is only meaningful paired.
    """
    if base.profile is not alt.profile and not base.profile.same_samples(alt.profile):
        raise EngineError("compared scenarios must share the same input profile")
    if (
        base.battery != alt.battery
        or base.degradation != alt.degradation
        or base.datasheet != alt.datasheet
        or base.dt_s != alt.dt_s
        or base.initial_soc != alt.initial_soc
        or base.converter_efficiency != alt.converter_efficiency
    ):
        raise EngineError("compared scenarios must differ only in control policy")

    return ComparisonResult.of(*_run_pair(base, alt))


def should_fork_alt(alt: Scenario) -> bool:
    """Whether compare_strategies runs the alt scenario in a forked worker.

    Only where a second run can overlap the first: more than one usable
    CPU, the fork start method (the worker inherits the scenario instead
    of receiving it pickled), and a caller that may have children, which
    multiprocessing forbids in daemon processes.  Not from a process that
    runs other threads, since a lock one of them holds stays locked in
    the forked child.  Never for a traced run: pickling a per-step trace
    through the pipe and back costs more than the overlap saves.
    """
    if alt.record_trace:
        return False
    # imported here, not with the module: it adds over 1 MB to every
    # process that imports vrlasim, most of which never compare
    import multiprocessing

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return (
        cpus > 1
        and "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
        and threading.active_count() == 1
    )


def _run_pair(base: Scenario, alt: Scenario) -> tuple[SimResult, SimResult]:
    """run_scenario of both, the alt one in a forked worker where it helps.

    The worker is started and reaped within the call and sends back only
    its SimResult, or the exception it raised, which is raised here.
    """
    if not should_fork_alt(alt):
        return run_scenario(base), run_scenario(alt)
    import multiprocessing

    from . import _kernel

    _kernel.load()  # built here once, so the worker inherits it

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    worker = context.Process(
        target=_run_in_worker, args=(alt, sender), name="compare-alt", daemon=True
    )
    worker.start()
    sender.close()  # the worker holds the only write end, so its exit ends recv
    try:
        base_result = run_scenario(base)
        try:
            outcome = receiver.recv()
        except EOFError:
            outcome = None
    except BaseException:
        worker.terminate()
        raise
    finally:
        receiver.close()
        worker.join()
    if outcome is None:
        raise RuntimeError(
            f"the worker running {alt.name!r} exited with code "
            f"{worker.exitcode} before sending a result"
        )
    if isinstance(outcome, BaseException):
        raise outcome
    return base_result, outcome


def _run_in_worker(scenario: Scenario, sender) -> None:
    try:
        outcome = run_scenario(scenario)
    except Exception as exc:  # re-raised by the parent
        outcome = exc
    with sender:
        sender.send(outcome)


def _reduction_pct(base_value: float, alt_value: float) -> float:
    if base_value <= 0.0:
        return 0.0
    return 100.0 * (1.0 - alt_value / base_value)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else math.inf

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
from dataclasses import asdict, dataclass, field
from itertools import chain, count

from ._domains import HALF_OPEN_UNIT, HORIZON, POSITIVE, UNIT, check_fields, declared
from .battery import (
    OCV_COEFFS,
    POSITIVE_OCV_COEFFS,
    SOC_CAP,
    SOC_FLOOR,
    Battery,
    BatteryParams,
    clamp,
    gassing_current,
    step_soc,
)
from .control import (
    ControllerState,
    ControlParams,
    Phase,
    Policy,
    reschedule,
    select_limits,
    tscc_step,
    update_load_disconnect,
    wants_full_limits,
)
from .degradation import (
    DAYS_PER_YEAR,
    Datasheet,
    DegradationModel,
    DegradationParams,
    DegradationState,
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


def horizon_steps(dt_s: float, max_years: float) -> int:
    """The steps of dt_s (dividing a day) in a horizon of max_years."""
    return int(round(max_years * DAYS_PER_YEAR * round(SECONDS_PER_DAY / dt_s)))


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
    max_years: float = declared(15.0, HORIZON, "years", "horizon; later end of life is censored")
    initial_soc: float = declared(0.9, UNIT, "-", "state of charge at the start")
    converter_efficiency: float = declared(0.95, HALF_OPEN_UNIT, "-", "panel to battery bus")
    record_trace: bool = False

    def __post_init__(self) -> None:
        check_fields(self, EngineError)
        if not divides_day(self.dt_s):
            raise EngineError("dt_s must divide a day evenly")
        if horizon_steps(self.dt_s, self.max_years) < 1:
            raise EngineError(
                f"max_years must hold one step of dt_s {self.dt_s!r} s: {self.max_years!r}"
            )


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


def run_scenario(
    scenario: Scenario, *, trace: list[TraceRecord] | TraceWriter | None = None
) -> SimResult:
    """Simulate one scenario to end of life or the horizon.

    The loop runs over days, and the per-day work stays here: each day
    ends in one DayRecord, after which the adaptive schedule is updated
    for the next (control.reschedule).  The run's state between steps is
    one _kernel.State, and the stress factors come from
    StressFactors.from_totals once, at the end.

    A day's steps run in the compiled kernel (_step.c, loaded by
    _kernel.load) where one could be built, and in `python_day` where
    not, or where the kernel flags a step at which `python_day` would
    raise: the kernel then leaves the state as the day found it, and
    `python_day` runs that day and raises what it raises.  Both give the
    same result to the bit.  The kernel reads each step's load, solar and
    temperature from the whole profile, handed to it once per run as a
    _kernel.Profile, and evaluates each step's temperature terms as the
    layer functions do; its memos live within one day's call.  Only
    `python_day` asks the profile for a day's samples (TimeSeries.day),
    and it calls the layer functions in the order tests/reference_engine.py
    composes them, each evaluating its own temperature terms, and moves
    the state between the _kernel.State and the layers' ControllerState,
    DegradationState and StressAccumulator once as a day starts and once
    as it ends.

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
    deg = DegradationState()
    control = scenario.control
    adaptive = control.policy is Policy.ADAPTIVE

    dt_s = scenario.dt_s
    dt_h = dt_s / 3600.0
    steps_per_day = int(round(SECONDS_PER_DAY / dt_s))
    max_steps = horizon_steps(dt_s, scenario.max_years)
    if profile.dt_s != dt_s:
        raise EngineError(
            f"profile dt {profile.dt_s}s does not match scenario dt {dt_s}s"
        )

    capacity = params.capacity_ah
    rest_a = params.rest_current_a
    gassing = params.gassing
    eff = scenario.converter_efficiency
    eol_ah = model.eol_threshold_ah()
    taper_a = control.taper_current_a(capacity)
    soc_to_ah = 1.0 / (capacity * 3600.0)
    phases = tuple(Phase)  # a Phase's index is _kernel.State.phase

    kept = None  # the trace SimResult keeps
    if trace is None and scenario.record_trace:
        trace = kept = []
    record = None if trace is None else trace.append
    trajectory: list[DayRecord] = []
    stress = StressAccumulator(capacity, dt_h)

    soc = scenario.initial_soc
    st = _kernel.State(
        soc=soc,
        v_prev=battery.ocv(clamp(soc, SOC_FLOOR, SOC_CAP)),
        min_soc_since_full=soc,
        min_soc_run=soc,
        min_soc_day=soc,
        full_set=ctrl.full_set,
        last_full_event_day=-1,
        lifetime_steps=max_steps,
    )

    def python_day(day, first, stop, loads, solars, temps) -> bool:
        """Steps first .. stop - 1 of a day through the layer functions,
        from st and back into it; whether the battery reached end of life."""
        ctrl.phase, ctrl.load_disconnected = phases[st.phase], bool(st.disconnected)
        ctrl.full_set = bool(st.full_set)
        deg.w, deg.z_w, deg.time_since_full_h = st.w, st.z_w, st.since_full_h
        deg.min_soc_since_full, deg.c_corr, deg.c_deg = st.min_soc_since_full, st.c_corr, st.c_deg
        deg.ks_clamp_events = st.ks_clamp_events
        stress.steps, stress.charge_ah, stress.discharge_ah = first, st.charge_ah, st.discharge_ah
        stress.max_discharge_a, stress.low_soc_h = st.max_discharge_a, st.low_soc_h
        stress.float_h, stress.depth_bins[:] = st.float_h, st.depth_bins
        stress.min_soc_since_full = st.cycle_min_soc if st.cycling else None
        # the sums each step adds to, as locals; the event counters stay in st
        soc, v_prev, loss = st.soc, st.v_prev, st.loss
        integral, correction_jumps = st.integral, st.correction_jumps
        full_reset_jumps, clamp_jumps = st.full_reset_jumps, st.clamp_jumps
        min_soc_run, min_soc_day = st.min_soc_run, st.min_soc_day
        hours_disconnected, load_lost_wh = st.hours_disconnected, st.load_lost_wh
        soc_hist, v_hist = st.soc_hist[:], st.v_hist[:]
        ended = False

        for i, load_w, solar_w, temp_c in zip(range(first, stop), loads, solars, temps):
            temp_k = temp_c + 273.15
            if update_load_disconnect(ctrl, soc, control):
                st.disconnect_events += 1
            if ctrl.load_disconnected:
                hours_disconnected += dt_h
                load_lost_wh += load_w * dt_h
                load_a = 0.0
            else:
                load_a = load_w / v_prev
            avail_a = solar_w * eff / v_prev
            net_a = avail_a - load_a

            v_limit, v_float = select_limits(ctrl, control, temp_c)
            applied, events = tscc_step(
                ctrl, soc, loss, avail_a, load_a, v_limit, v_float, battery, taper_a
            )
            full_event = events.full_charge
            if events.float_entered:
                if full_event:
                    # full recharge declared: trust the controller and snap
                    # the coulomb counter to full
                    full_reset_jumps += 1.0 - soc
                    soc = 1.0
                    deg.register_full_charge()
                    st.day_full_events += 1
                    st.last_full_event_day = day
                    ctrl.full_set = wants_full_limits(0, ctrl.interval_days, control)
                # entering float collapses the current to the float hold level
                hold = battery.hold_voltage_current(clamp(soc, SOC_FLOOR, SOC_CAP), v_float, loss)
                applied = clamp(hold, 0.0, net_a)

            soc_v = clamp(soc, SOC_FLOOR, SOC_CAP)
            voltage = battery.terminal_voltage(soc_v, applied, loss)

            # rest correction: only when the controller is not holding a
            # voltage, otherwise small hold currents look like rest while
            # the terminal is still polarized
            if abs(applied) < rest_a and ctrl.phase is Phase.BULK:
                corrected = battery.invert_ocv(voltage, seed=soc)[0]
                jump = corrected - soc
                if abs(jump) > 1e-9:
                    st.correction_events += 1
                correction_jumps += jump
                soc = corrected

            # gassing, then coulomb counting without the gassing current
            i_gas = gassing_current(voltage, temp_k, gassing)
            integral += (applied - i_gas) * dt_s * soc_to_ah
            new_soc, clamped = step_soc(soc, applied, i_gas, dt_s, params)
            if clamped:
                st.clamp_events += 1
                clamp_jumps += new_soc - (soc + (applied - i_gas) * dt_s * soc_to_ah)

            discharge_a = -applied if applied < 0.0 else 0.0
            model.step(deg, battery, soc, voltage, temp_k, discharge_a, dt_h)
            loss = deg.total_loss()
            soc = new_soc

            if soc < min_soc_run:
                min_soc_run = soc
            if soc < min_soc_day:
                min_soc_day = soc
            soc_bin = int(soc_v / SOC_BIN_WIDTH)
            soc_hist[soc_bin if soc_bin < N_SOC_BINS else N_SOC_BINS - 1] += dt_h
            vbin = int((voltage - VOLTAGE_BIN_LOW) / VOLTAGE_BIN_WIDTH)
            vbin = 0 if vbin < 0 else vbin
            v_hist[vbin if vbin < N_VOLTAGE_BINS else N_VOLTAGE_BINS - 1] += dt_h
            floating = ctrl.phase is Phase.FLOAT
            stress.add(applied, soc, full_event, floating)
            if record is not None:
                record(TraceRecord(i * dt_h, applied, soc, voltage, full_event, floating))
            v_prev = voltage

            if loss >= eol_ah:
                st.lifetime_steps = i + 1
                ended = True
                break

        st.soc, st.v_prev, st.loss = soc, v_prev, loss
        st.w, st.z_w, st.since_full_h = deg.w, deg.z_w, deg.time_since_full_h
        st.min_soc_since_full, st.c_corr, st.c_deg = deg.min_soc_since_full, deg.c_corr, deg.c_deg
        st.ks_clamp_events = deg.ks_clamp_events
        st.charge_ah, st.discharge_ah = stress.charge_ah, stress.discharge_ah
        st.max_discharge_a, st.low_soc_h = stress.max_discharge_a, stress.low_soc_h
        st.float_h, st.depth_bins[:] = stress.float_h, stress.depth_bins
        if stress.min_soc_since_full is not None:
            st.cycle_min_soc, st.cycling = stress.min_soc_since_full, 1
        st.integral, st.correction_jumps = integral, correction_jumps
        st.full_reset_jumps, st.clamp_jumps = full_reset_jumps, clamp_jumps
        st.min_soc_run, st.min_soc_day = min_soc_run, min_soc_day
        st.hours_disconnected, st.load_lost_wh = hours_disconnected, load_lost_wh
        st.soc_hist[:], st.v_hist[:] = soc_hist, v_hist
        st.phase, st.disconnected = phases.index(ctrl.phase), ctrl.load_disconnected
        st.full_set = ctrl.full_set
        return ended

    run_day = _kernel.load()
    if run_day is not None:
        # the kernel's constants and inputs, and the buffers each day fills
        ageing = scenario.degradation
        potentials = array("d", ageing.ks_potentials)
        segments = array("d", chain.from_iterable(ageing.ks_segments))
        kernel_params = _kernel.Params(
            dt_s=dt_s, dt_h=dt_h, capacity=capacity, capacity_as=capacity * 3600.0,
            soc_to_ah=soc_to_ah, eff=eff, rest_a=rest_a, taper_a=taper_a, eol_ah=eol_ah,
            soc_cap=SOC_CAP, soc_floor=SOC_FLOOR, soc_bin_width=SOC_BIN_WIDTH,
            v_bin_low=VOLTAGE_BIN_LOW, v_bin_width=VOLTAGE_BIN_WIDTH,
            stress_low_soc=STRESS_LOW_SOC, cells=battery.cells, b0_ah=battery.b0_ah,
            b1=battery.b1, v_empty=battery.v_empty, v_full=battery.v_full,
            c_max=battery.c_max, swing=battery.swing, v_acid=battery.v_acid,
            v_water=battery.v_water, m_water=battery.m_water,
            ocv_coeffs=OCV_COEFFS, positive_coeffs=POSITIVE_OCV_COEFFS,
            i_gas_0=gassing.i_gas_0, c_v=gassing.c_v, c_t=gassing.c_t, v_ref=gassing.v_ref,
            t_ref=gassing.t_ref, cutoff_soc=control.cutoff_soc,
            reconnect_soc=control.reconnect_soc(),
            full_limits=_kernel.Limits(**asdict(control.full_limits)),
            partial_limits=_kernel.Limits(**asdict(control.partial_limits)),
            v_first=potentials[0], v_last=potentials[-1],
            k_first=ageing.ks_knots[0][1], k_last=ageing.ks_knots[-1][1],
            threshold_v=ageing.corrosion_threshold_v, exponent=ageing.corrosion_exponent,
            ks_ref_temp_k=ageing.ks_ref_temp_k, temp_doubling_k=ageing.temp_doubling_k,
            c_soc0=ageing.c_soc0_per_h, c_soc_min=ageing.c_soc_min_per_h,
            i_ref=ageing.i_ref_a, i_floor=ageing.i_floor_a,
            nominal_cycles=scenario.datasheet.nominal_cycles, w_limit=calibrated.w_limit,
            c_corr_limit=calibrated.c_corr_limit, c_deg_limit=calibrated.c_deg_limit,
            ks_potentials=potentials.buffer_info()[0], ks_segments=segments.buffer_info()[0],
            n_knots=len(potentials), adaptive=adaptive,
        )
        inputs = _kernel.profile(profile)
        events = array("q", bytes(8 * steps_per_day))
        at_events = events.buffer_info()[0]
        at_values = at_marks = None
        if record is not None:
            values = array("d", bytes(24 * steps_per_day))
            marks = array("b", bytes(2 * steps_per_day))
            at_values, at_marks = values.buffer_info()[0], marks.buffer_info()[0]

    day_start_c_corr = day_start_total = 0.0
    for day in count():
        first = day * steps_per_day
        stop = min(first + steps_per_day, max_steps)  # the last day may be partial
        outcome = _kernel.FLAGGED
        if run_day is not None:
            outcome = run_day(
                kernel_params, st, day, first, stop, inputs, at_events, at_values, at_marks
            )
        if outcome == _kernel.FLAGGED:
            ended = python_day(day, first, stop, *profile.day(day))
        else:
            ended = outcome == _kernel.END_OF_LIFE
            stress.full_charge_times.extend(i * dt_h for i in events[: st.day_full_events])
            if record is not None:
                stepped = range(first, st.lifetime_steps if ended else stop)
                v, m = iter(values), iter(marks)
                for i, applied, soc, voltage, full_event, floating in zip(stepped, v, v, v, m, m):
                    record(TraceRecord(i * dt_h, applied, soc, voltage, full_event == 1, floating == 1))

        # close out the day, then set the next one up
        c_corr, c_deg, loss = st.c_corr, st.c_deg, st.loss
        trajectory.append(
            DayRecord(
                day=day + 1, c_corr_ah=c_corr, c_deg_ah=c_deg, c_total_ah=loss,
                soh_pct=100.0 * (capacity - loss) / capacity,
                min_soc=st.min_soc_day, full_charges=st.day_full_events,
            )
        )
        if ended or stop == max_steps:
            break
        st.min_soc_day = st.soc
        st.day_full_events = 0
        if adaptive:
            st.full_set = reschedule(
                ctrl, control, day + 1, c_corr - day_start_c_corr, loss - day_start_total,
                st.last_full_event_day,
            )
        day_start_c_corr = c_corr
        day_start_total = loss

    lifetime_days = st.lifetime_steps * dt_s / SECONDS_PER_DAY
    stress_result = StressFactors.from_totals(
        capacity, dt_h, st.lifetime_steps, st.charge_ah, st.discharge_ah, st.max_discharge_a,
        st.low_soc_h, st.float_h, stress.full_charge_times, list(st.depth_bins),
    )
    return SimResult(
        name=scenario.name,
        policy=control.policy.value,
        lifetime_years=lifetime_days / DAYS_PER_YEAR,
        lifetime_days=lifetime_days,
        censored=not ended,
        capacity_ah=capacity,
        eol_threshold_ah=eol_ah,
        c_corr_ah=c_corr,
        c_deg_ah=c_deg,
        c_total_ah=loss,
        soh_end_pct=100.0 * (capacity - loss) / capacity,
        corrosion_share_pct=100.0 * c_corr / loss if loss > 0 else 0.0,
        full_equivalent_cycles=stress_result.full_equivalent_cycles,
        min_soc=st.min_soc_run,
        full_charge_events=stress_result.n_full_charges,
        full_recharge_day_fraction=stress_result.full_recharge_day_fraction,
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
        stress=stress_result,
        runtime_s=time.perf_counter() - started,
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

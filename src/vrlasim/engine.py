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
from dataclasses import dataclass, field
from itertools import count

from ._domains import HALF_OPEN_UNIT, HORIZON, POSITIVE, UNIT, check_fields, declared
from .battery import (
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
from .profiles import DEFAULT_DT_S, SECONDS_PER_DAY, StressAccumulator
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

    The loop runs over days, and each day runs one of two ways to one
    contract.  The compiled kernel (_step.c's vrlasim_run_day, loaded by
    _kernel.load) runs it where one could be built.  `python_day` runs it
    where not, or where the kernel flags a step at which `python_day`
    would raise: the kernel then leaves the state as the day found it,
    and `python_day` runs that day and raises what it raises.  Both give
    the same result to the bit, and both
    - read the run's constants from the one _kernel.Params that
      _kernel.params builds;
    - take the run's state from one _kernel.State and leave it there;
    - write the step index of each full charge to `events` and, in a
      traced run, each step's current, soc and voltage to `values` and
      its full-charge and floating marks to `marks`;
    - return _kernel.DAY_DONE, or _kernel.END_OF_LIFE with
      State.lifetime_steps set.
    Every day then closes the same way: its full-charge times come from
    `events`, its trace from the buffers, it ends in one DayRecord, and
    the adaptive schedule is updated for the next day
    (control.reschedule).  The stress factors come from
    StressFactors.from_totals once, at the end.  The capacity loss is
    never stored: it is c_corr + c_deg of the state.

    The kernel reads each step's load, solar and temperature from the
    whole profile, handed to it once per run as a _kernel.Profile, and
    evaluates each step's temperature terms as the layer functions do;
    its memos live within one day's call.  Only `python_day` asks the
    profile for a day's samples (TimeSeries.day), and it calls the layer
    functions in the order tests/reference_engine.py composes them, each
    evaluating its own temperature terms.  It loads a ControllerState, a
    DegradationState and a StressAccumulator from the State as the day
    starts and writes them back as it ends, keeps soc, the last voltage
    and the loss as step locals, and adds every other sum to the State.

    Given a `trace` destination, any object with an ``append`` method,
    the run hands it each day's steps as the day ends, SimResult.trace
    is None, and runtime_s includes what that costs.  A destination with
    a ``write_steps`` method as well, such as a profiles.TraceWriter,
    takes the day's buffers in one call; any other gets one TraceRecord
    per step.  Without a destination, a scenario with record_trace keeps
    its records in a new list, SimResult.trace.
    """
    from . import _kernel

    started = time.perf_counter()
    battery_params = scenario.battery
    battery = Battery(battery_params)
    profile = scenario.profile
    model = DegradationModel(battery_params, scenario.degradation, scenario.datasheet)
    p = _kernel.params(scenario, battery, model)  # a scenario that cannot be calibrated fails here
    ctrl = ControllerState()
    control = scenario.control
    adaptive = control.policy is Policy.ADAPTIVE

    dt_s, dt_h, capacity = p.dt_s, p.dt_h, p.capacity
    steps_per_day = int(round(SECONDS_PER_DAY / dt_s))
    max_steps = horizon_steps(dt_s, scenario.max_years)
    if profile.dt_s != dt_s:
        raise EngineError(
            f"profile dt {profile.dt_s}s does not match scenario dt {dt_s}s"
        )
    phases = tuple(Phase)  # a Phase's index is _kernel.State.phase

    kept = None  # the trace SimResult keeps
    if trace is None and scenario.record_trace:
        trace = kept = []
    record = None if trace is None else trace.append
    write_steps = getattr(trace, "write_steps", None)  # a whole day at once
    # the buffers each day fills: its full charges' steps, and its trace
    events = array("q", bytes(8 * steps_per_day))
    values = marks = None
    if record is not None:
        values = array("d", bytes(24 * steps_per_day))
        marks = array("b", bytes(2 * steps_per_day))
    trajectory: list[DayRecord] = []
    full_charge_times: list[float] = []

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

    def python_day(p, st, day, first, stop, samples, events, values, marks) -> int:
        """vrlasim_run_day through the layer functions, given the day's
        samples (TimeSeries.day) for the Profile and the buffers for their
        addresses."""
        dt_s, dt_h, eff, rest_a, taper_a = p.dt_s, p.dt_h, p.eff, p.rest_a, p.taper_a
        soc_to_ah, eol_ah, gassing = p.soc_to_ah, p.eol_ah, battery_params.gassing
        ctrl.phase, ctrl.load_disconnected = phases[st.phase], bool(st.disconnected)
        ctrl.full_set = bool(st.full_set)
        deg = DegradationState(
            st.w, st.z_w, st.since_full_h, st.min_soc_since_full, st.c_corr, st.c_deg,
            st.ks_clamp_events,
        )
        stress = StressAccumulator(p.capacity, dt_h)
        stress.charge_ah, stress.discharge_ah = st.charge_ah, st.discharge_ah
        stress.max_discharge_a, stress.low_soc_h = st.max_discharge_a, st.low_soc_h
        stress.float_h, stress.depth_bins[:] = st.float_h, st.depth_bins
        stress.min_soc_since_full = st.cycle_min_soc if st.cycling else None
        soc, v_prev, loss = st.soc, st.v_prev, st.c_corr + st.c_deg
        soc_hist, v_hist = st.soc_hist, st.v_hist  # views of st's arrays, not copies
        outcome = _kernel.DAY_DONE

        for i, load_w, solar_w, temp_c in zip(range(first, stop), *samples):
            temp_k = temp_c + 273.15
            if update_load_disconnect(ctrl, soc, control):
                st.disconnect_events += 1
            if ctrl.load_disconnected:
                st.hours_disconnected += dt_h
                st.load_lost_wh += load_w * dt_h
                load_a = 0.0
            else:
                load_a = load_w / v_prev
            avail_a = solar_w * eff / v_prev
            net_a = avail_a - load_a

            v_limit, v_float = select_limits(ctrl, control, temp_c)
            applied, step_events = tscc_step(
                ctrl, soc, loss, avail_a, load_a, v_limit, v_float, battery, taper_a
            )
            full_event = step_events.full_charge
            if step_events.float_entered:
                if full_event:
                    # full recharge declared: trust the controller and snap
                    # the coulomb counter to full
                    st.full_reset_jumps += 1.0 - soc
                    soc = 1.0
                    deg.register_full_charge()
                    events[st.day_full_events] = i
                    st.day_full_events += 1
                    st.last_full_event_day = day
                    ctrl.full_set = wants_full_limits(0, ctrl.interval_days, control)
                # entering float collapses the current to the float hold level
                hold = battery.hold_voltage_current(soc, v_float, loss)
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
                st.correction_jumps += jump
                soc = corrected

            # gassing, then coulomb counting without the gassing current
            i_gas = gassing_current(voltage, temp_k, gassing)
            st.integral += (applied - i_gas) * dt_s * soc_to_ah
            new_soc, clamped = step_soc(soc, applied, i_gas, dt_s, battery_params)
            if clamped:
                st.clamp_events += 1
                st.clamp_jumps += new_soc - (soc + (applied - i_gas) * dt_s * soc_to_ah)

            discharge_a = -applied if applied < 0.0 else 0.0
            model.step(deg, battery, soc, voltage, temp_k, discharge_a, dt_h)
            loss = deg.total_loss()
            soc = new_soc

            if soc < st.min_soc_run:
                st.min_soc_run = soc
            if soc < st.min_soc_day:
                st.min_soc_day = soc
            soc_bin = int(soc_v / SOC_BIN_WIDTH)
            soc_hist[soc_bin if soc_bin < N_SOC_BINS else N_SOC_BINS - 1] += dt_h
            vbin = int((voltage - VOLTAGE_BIN_LOW) / VOLTAGE_BIN_WIDTH)
            vbin = 0 if vbin < 0 else vbin
            v_hist[vbin if vbin < N_VOLTAGE_BINS else N_VOLTAGE_BINS - 1] += dt_h
            floating = ctrl.phase is Phase.FLOAT
            stress.add(applied, soc, full_event, floating)
            if values is not None:
                k = i - first
                values[3 * k], values[3 * k + 1], values[3 * k + 2] = applied, soc, voltage
                marks[2 * k], marks[2 * k + 1] = full_event, floating
            v_prev = voltage

            if loss >= eol_ah:
                st.lifetime_steps = i + 1
                outcome = _kernel.END_OF_LIFE
                break

        st.soc, st.v_prev = soc, v_prev
        st.w, st.z_w, st.since_full_h = deg.w, deg.z_w, deg.time_since_full_h
        st.min_soc_since_full, st.c_corr, st.c_deg = deg.min_soc_since_full, deg.c_corr, deg.c_deg
        st.ks_clamp_events = deg.ks_clamp_events
        st.charge_ah, st.discharge_ah = stress.charge_ah, stress.discharge_ah
        st.max_discharge_a, st.low_soc_h = stress.max_discharge_a, stress.low_soc_h
        st.float_h, st.depth_bins[:] = stress.float_h, stress.depth_bins
        if stress.min_soc_since_full is not None:
            st.cycle_min_soc, st.cycling = stress.min_soc_since_full, 1
        st.phase, st.disconnected = phases.index(ctrl.phase), ctrl.load_disconnected
        st.full_set = ctrl.full_set
        return outcome

    run_day = _kernel.load()
    if run_day is not None:
        # the kernel's inputs, and the addresses of the buffers each day fills
        inputs = _kernel.profile(profile)
        at_events = events.buffer_info()[0]
        at_values = at_marks = None
        if record is not None:
            at_values, at_marks = values.buffer_info()[0], marks.buffer_info()[0]

    day_start_c_corr = day_start_total = 0.0
    for day in count():
        first = day * steps_per_day
        stop = min(first + steps_per_day, max_steps)  # the last day may be partial
        outcome = _kernel.FLAGGED
        if run_day is not None:
            outcome = run_day(p, st, day, first, stop, inputs, at_events, at_values, at_marks)
        if outcome == _kernel.FLAGGED:
            outcome = python_day(p, st, day, first, stop, profile.day(day), events, values, marks)

        # close out the day, then set the next one up
        ended = outcome == _kernel.END_OF_LIFE
        full_charge_times.extend(i * dt_h for i in events[: st.day_full_events])
        if record is not None:
            stepped = range(first, st.lifetime_steps if ended else stop)
            if write_steps is not None:
                write_steps(first, len(stepped), dt_h, values, marks)
            else:
                v, m = iter(values), iter(marks)
                for i, applied, soc, voltage, full, floating in zip(stepped, v, v, v, m, m):
                    record(TraceRecord(i * dt_h, applied, soc, voltage, full == 1, floating == 1))
        c_corr, c_deg = st.c_corr, st.c_deg
        loss = c_corr + c_deg
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
        st.low_soc_h, st.float_h, full_charge_times, list(st.depth_bins),
    )
    return SimResult(
        name=scenario.name,
        policy=control.policy.value,
        lifetime_years=lifetime_days / DAYS_PER_YEAR,
        lifetime_days=lifetime_days,
        censored=not ended,
        capacity_ah=capacity,
        eol_threshold_ah=p.eol_ah,
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

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
from dataclasses import dataclass, field

from .battery import (
    SOC_CAP,
    SOC_FLOOR,
    Battery,
    BatteryParams,
    GassingParams,
    clamp,
    gassing_current_at,
    gassing_temperature_term,
    step_soc,
)
from .control import (
    CompensatedLimits,
    ControllerState,
    ControlParams,
    Phase,
    Policy,
    compensated_limits,
    recharge_interval,
    select_compensated,
    tscc_step,
    update_load_disconnect,
)
from .degradation import (
    DAYS_PER_YEAR,
    Datasheet,
    DegradationModel,
    DegradationParams,
    DegradationState,
    corrosion_temperature_factor,
)
from .profiles import SECONDS_PER_DAY, StressAccumulator, TimeSeries, TraceRecord


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
    dt_s: float = 900.0
    max_years: float = 15.0
    initial_soc: float = 0.9
    converter_efficiency: float = 0.95
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.dt_s <= 0:
            raise EngineError("dt_s must be positive")
        steps_per_day = SECONDS_PER_DAY / self.dt_s
        if abs(steps_per_day - round(steps_per_day)) > 1e-9:
            raise EngineError("dt_s must divide a day evenly")
        if not 0.0 <= self.initial_soc <= 1.0:
            raise EngineError("initial_soc must lie in [0, 1]")
        if not 0.0 < self.converter_efficiency <= 1.0:
            raise EngineError("converter_efficiency must lie in (0, 1]")
        if self.max_years <= 0:
            raise EngineError("max_years must be positive")


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
    trace: list[TraceRecord] | None = None

    def soh_at_day(self, day: int) -> float:
        """SOH at the end of a given day, from the daily trajectory."""
        if not self.trajectory:
            raise EngineError("empty trajectory")
        idx = min(max(day - 1, 0), len(self.trajectory) - 1)
        return self.trajectory[idx].soh_pct

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


class TemperatureTerms:
    """The per-step terms that depend on temperature alone, memoised for a run.

    Called with a temperature in degC, returns (corrosion temperature
    factor, gassing temperature term, compensated limits of both sets),
    each from the one function that defines it.  Entries are keyed on the
    exact temp_c float (0.0 and -0.0 share one, and give the same terms),
    so the memo cannot change a result.  It stops inserting at
    TEMPERATURE_MEMO_ENTRIES, so a profile whose temperatures never repeat
    costs bounded memory; further temperatures are evaluated afresh on
    every step.
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


def run_scenario(scenario: Scenario) -> SimResult:
    """Simulate one scenario to end of life or the horizon."""
    started = time.perf_counter()
    params = scenario.battery
    battery = Battery(params)
    profile = scenario.profile
    model = DegradationModel(
        battery=params,
        params=scenario.degradation,
        datasheet=scenario.datasheet,
    ).calibrated()
    deg = DegradationState(min_soc_since_full=scenario.initial_soc)
    ctrl = ControllerState()
    control = scenario.control
    adaptive = control.policy is Policy.ADAPTIVE
    temperature_terms = TemperatureTerms(control, scenario.degradation, params.gassing)
    memoised_terms = temperature_terms.entries.get

    dt_s = scenario.dt_s
    dt_h = dt_s / 3600.0
    steps_per_day = int(round(SECONDS_PER_DAY / dt_s))
    max_steps = int(round(scenario.max_years * DAYS_PER_YEAR * steps_per_day))
    n_profile = len(profile)
    load_col, solar_col, temp_col = profile.load_w, profile.solar_w, profile.temp_c
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

    soc = scenario.initial_soc
    v_prev = battery.ocv(clamp(soc, SOC_FLOOR, SOC_CAP))
    audit = EnergyAudit(soc_start=soc)

    soc_hist = [0.0] * N_SOC_BINS
    v_hist = [0.0] * N_VOLTAGE_BINS
    stress = StressAccumulator(capacity, dt_h)
    trace: list[TraceRecord] | None = [] if scenario.record_trace else None
    trajectory: list[DayRecord] = []

    min_soc_run = soc
    min_soc_day = soc
    day_full_events = 0
    full_days = 0
    full_events = 0
    disconnect_events = 0
    hours_disconnected = 0.0
    load_lost_wh = 0.0
    clamp_events = 0
    correction_events = 0
    last_full_event_day = -1
    day_start_c_corr = 0.0
    day_start_total = 0.0
    lifetime_steps = max_steps
    censored = True
    loss = deg.total_loss()  # refreshed once per step, after the ageing step

    for i in range(max_steps):
        day = i // steps_per_day
        if i > 0 and i % steps_per_day == 0:
            # midnight: close out yesterday, refresh the adaptive target
            total = loss
            trajectory.append(
                DayRecord(
                    day=day,
                    c_corr_ah=deg.c_corr,
                    c_deg_ah=deg.c_deg,
                    c_total_ah=total,
                    soh_pct=100.0 * (capacity - total) / capacity,
                    min_soc=min_soc_day,
                    full_charges=day_full_events,
                )
            )
            if day_full_events > 0:
                full_days += 1
            min_soc_day = soc
            day_full_events = 0
            if adaptive:
                interval = recharge_interval(
                    deg.c_corr - day_start_c_corr, total - day_start_total
                )
                if interval is not None:
                    ctrl.interval_days = interval
                ctrl.days_since_full_recharge = day - max(last_full_event_day, 0)
                if last_full_event_day < 0:
                    ctrl.days_since_full_recharge = day + 1
            day_start_c_corr = deg.c_corr
            day_start_total = total

        idx = i % n_profile
        load_w = load_col[idx]
        solar_w = solar_col[idx]
        temp_c = temp_col[idx]
        terms = memoised_terms(temp_c)  # the memo hit, without a method call
        if terms is None:
            terms = temperature_terms(temp_c)
        corrosion_factor, gas_term, limits = terms

        disconnected, _ = update_load_disconnect(ctrl, soc, control)
        if disconnected:
            disconnect_events += 1
        if ctrl.load_disconnected:
            hours_disconnected += dt_h
            load_lost_wh += load_w * dt_h
            load_a = 0.0
        else:
            load_a = load_w / v_prev
        avail_a = solar_w * eff / v_prev
        net_a = avail_a - load_a

        v_limit, v_float, _ = select_compensated(ctrl, control, limits)
        applied, events = tscc_step(
            ctrl,
            soc,
            loss,
            avail_a,
            load_a,
            v_limit,
            v_float,
            battery,
            taper_a,
        )

        full_event = False
        if events.float_entered:
            if events.full_charge:
                # full recharge declared: trust the controller and snap
                # the coulomb counter to full
                audit.full_reset_jumps += 1.0 - soc
                soc = 1.0
                deg.register_full_charge()
                full_event = True
                full_events += 1
                day_full_events += 1
                last_full_event_day = day
                ctrl.days_since_full_recharge = 0
            # entering float collapses the current to the float hold level
            hold = battery.hold_voltage_current(
                clamp(soc, SOC_FLOOR, SOC_CAP), v_float, loss
            )
            applied = clamp(hold, 0.0, net_a)

        # per-step clamps as conditional expressions, which cost a fraction
        # of a call to clamp
        soc_v = SOC_CAP if SOC_CAP < soc else soc
        soc_v = SOC_FLOOR if SOC_FLOOR > soc_v else soc_v
        voltage = battery.terminal_voltage(soc_v, applied, loss)

        # rest correction: only when the controller is not holding a
        # voltage, otherwise small hold currents look like rest while
        # the terminal is still polarized
        if abs(applied) < rest_a and ctrl.phase is Phase.BULK:
            corrected = battery.invert_ocv(voltage, seed=soc)[0]
            jump = corrected - soc
            if abs(jump) > 1e-9:
                correction_events += 1
            audit.correction_jumps += jump
            soc = corrected

        i_gas = gassing_current_at(voltage, gas_term, gassing)
        audit.integral += (applied - i_gas) * dt_s * soc_to_ah
        new_soc, clamped = step_soc(soc, applied, i_gas, dt_s, params)
        if clamped:
            clamp_events += 1
            audit.clamp_jumps += new_soc - (
                soc + (applied - i_gas) * dt_s * soc_to_ah
            )

        discharge_a = -applied if applied < 0.0 else 0.0
        model.step(deg, battery, soc, voltage, corrosion_factor, discharge_a, dt_h)
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
        if trace is not None:
            trace.append(
                TraceRecord(
                    t_h=i * dt_h,
                    current_a=applied,
                    soc=soc,
                    voltage=voltage,
                    full_charge=full_event,
                    floating=floating,
                )
            )
        v_prev = voltage

        if loss >= eol_ah:
            lifetime_steps = i + 1
            censored = False
            break

    # close out the final (possibly partial) day
    total = loss
    trajectory.append(
        DayRecord(
            day=lifetime_steps // steps_per_day
            + (1 if lifetime_steps % steps_per_day else 0),
            c_corr_ah=deg.c_corr,
            c_deg_ah=deg.c_deg,
            c_total_ah=total,
            soh_pct=100.0 * (capacity - total) / capacity,
            min_soc=min_soc_day,
            full_charges=day_full_events,
        )
    )
    if day_full_events > 0:
        full_days += 1

    audit.soc_end = soc
    lifetime_days = lifetime_steps * dt_s / SECONDS_PER_DAY
    stress_result = stress.result()
    whole_days = max(int(math.ceil(lifetime_days)), 1)
    return SimResult(
        name=scenario.name,
        policy=control.policy.value,
        lifetime_years=lifetime_days / DAYS_PER_YEAR,
        lifetime_days=lifetime_days,
        censored=censored,
        capacity_ah=capacity,
        eol_threshold_ah=eol_ah,
        c_corr_ah=deg.c_corr,
        c_deg_ah=deg.c_deg,
        c_total_ah=total,
        soh_end_pct=100.0 * (capacity - total) / capacity,
        corrosion_share_pct=100.0 * deg.c_corr / total if total > 0 else 0.0,
        full_equivalent_cycles=stress_result.full_equivalent_cycles,
        min_soc=min_soc_run,
        full_charge_events=full_events,
        full_recharge_day_fraction=full_days / whole_days,
        disconnect_events=disconnect_events,
        hours_disconnected=hours_disconnected,
        load_energy_lost_wh=load_lost_wh,
        soc_clamp_events=clamp_events,
        rest_correction_events=correction_events,
        ks_clamp_events=deg.ks_clamp_events,
        audit=audit,
        trajectory=trajectory,
        soc_hist_h=soc_hist,
        voltage_hist_h=v_hist,
        stress=stress_result,
        runtime_s=time.perf_counter() - started,
        trace=trace,
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
    if base.profile is not alt.profile and (
        base.profile.load_w != alt.profile.load_w
        or base.profile.solar_w != alt.profile.solar_w
        or base.profile.temp_c != alt.profile.temp_c
    ):
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

    base_result, alt_result = _run_pair(base, alt)

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

    return ComparisonResult(
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

"""The composed simulation loop: the reference for engine.run_scenario.

Each step calls the layer functions (controller, battery methods,
gassing, SOC update, ageing step, stress sums) one by one with the
step's temperature, so every formula, the temperature terms included,
comes from its one definition and is evaluated afresh, over one flat
loop of steps.  run_scenario's Python day calls the same functions, one
day at a time with its state carried in a _kernel.State between days;
its compiled kernel writes the step out in C, evaluating the temperature
terms from the day's temperatures.  The differential tests check that
run_scenario's result equals this loop's, bit for bit, on both paths,
and that it raises what this loop raises.

The adaptive schedule is worked out here, not taken from
control.reschedule: at each midnight step the loop closes the day that
ended, counts the days since the last full recharge itself and sets
ControllerState.full_set through wants_full_limits, as it does after a
full recharge; the last (possibly partial) day is closed after the loop.
So the differential tests check run_scenario's scheduler and its day
close-out too.
"""

from __future__ import annotations

import time

from vrlasim.battery import (
    SOC_CAP,
    SOC_FLOOR,
    Battery,
    clamp,
    gassing_current,
    step_soc,
)
from vrlasim.control import (
    ControllerState,
    Phase,
    Policy,
    recharge_interval,
    select_limits,
    tscc_step,
    update_load_disconnect,
    wants_full_limits,
)
from vrlasim.degradation import DAYS_PER_YEAR, DegradationModel, DegradationState
from vrlasim.engine import (
    N_SOC_BINS,
    N_VOLTAGE_BINS,
    SOC_BIN_WIDTH,
    VOLTAGE_BIN_LOW,
    VOLTAGE_BIN_WIDTH,
    DayRecord,
    EnergyAudit,
    EngineError,
    Scenario,
    SimResult,
)
from vrlasim.profiles import SECONDS_PER_DAY, StressAccumulator, TraceRecord


def _day_record(
    day: int,
    deg: DegradationState,
    loss: float,
    capacity: float,
    min_soc: float,
    full_charges: int,
) -> DayRecord:
    """The record of a day that ended with a total capacity loss of loss (Ah)."""
    return DayRecord(
        day=day,
        c_corr_ah=deg.c_corr,
        c_deg_ah=deg.c_deg,
        c_total_ah=loss,
        soh_pct=100.0 * (capacity - loss) / capacity,
        min_soc=min_soc,
        full_charges=full_charges,
    )


def reference_run(scenario: Scenario) -> SimResult:
    """Simulate one scenario to end of life or the horizon, layer by layer."""
    started = time.perf_counter()
    params = scenario.battery
    battery = Battery(params)
    profile = scenario.profile
    model = DegradationModel(
        battery=params,
        params=scenario.degradation,
        datasheet=scenario.datasheet,
    )
    model.limits  # a scenario that cannot be calibrated fails here
    deg = DegradationState(min_soc_since_full=scenario.initial_soc)
    ctrl = ControllerState()
    control = scenario.control
    adaptive = control.policy is Policy.ADAPTIVE

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
            trajectory.append(
                _day_record(day, deg, loss, capacity, min_soc_day, day_full_events)
            )
            min_soc_day = soc
            day_full_events = 0
            if adaptive:
                interval = recharge_interval(
                    deg.c_corr - day_start_c_corr, loss - day_start_total
                )
                if interval is not None:
                    ctrl.interval_days = interval
                days_since_full = day - max(last_full_event_day, 0)
                if last_full_event_day < 0:
                    days_since_full = day + 1
                ctrl.full_set = wants_full_limits(days_since_full, ctrl.interval_days, control)
            day_start_c_corr = deg.c_corr
            day_start_total = loss

        idx = i % n_profile
        load_w = load_col[idx]
        solar_w = solar_col[idx]
        temp_c = temp_col[idx]
        temp_k = temp_c + 273.15

        if update_load_disconnect(ctrl, soc, control):
            disconnect_events += 1
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
                day_full_events += 1
                last_full_event_day = day
                ctrl.full_set = wants_full_limits(0, ctrl.interval_days, control)
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

        i_gas = gassing_current(voltage, temp_k, gassing)
        audit.integral += (applied - i_gas) * dt_s * soc_to_ah
        new_soc, clamped = step_soc(soc, applied, i_gas, dt_s, params)
        if clamped:
            clamp_events += 1
            audit.clamp_jumps += new_soc - (
                soc + (applied - i_gas) * dt_s * soc_to_ah
            )

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
    last_day = lifetime_steps // steps_per_day + (1 if lifetime_steps % steps_per_day else 0)
    trajectory.append(
        _day_record(last_day, deg, loss, capacity, min_soc_day, day_full_events)
    )

    audit.soc_end = soc
    lifetime_days = lifetime_steps * dt_s / SECONDS_PER_DAY
    stress_result = stress.result()
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
        c_total_ah=loss,
        soh_end_pct=100.0 * (capacity - loss) / capacity,
        corrosion_share_pct=100.0 * deg.c_corr / loss if loss > 0 else 0.0,
        full_equivalent_cycles=stress_result.full_equivalent_cycles,
        min_soc=min_soc_run,
        full_charge_events=stress_result.n_full_charges,
        full_recharge_day_fraction=stress_result.full_recharge_day_fraction,
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

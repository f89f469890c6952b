/*
 * The steps of one day of vrlasim.engine.run_scenario, compiled.
 *
 * vrlasim_run_day runs the day's steps of run_scenario's Python loop,
 * operation for operation and in the same order: load disconnect, the
 * controller with the hold current, terminal voltage, rest correction
 * through Battery.invert_ocv, gassing and coulomb counting, corrosion and
 * weighted throughput, histograms and stress sums, with the temperature
 * terms of each step evaluated as the layer functions evaluate them.
 * battery.clamp and Battery's terminal_voltage and hold_voltage_current
 * are written once each, as static functions that the step calls where
 * the Python day calls them.  Every operation is an IEEE
 * double operation, and exp, pow, log10 and sqrt are the libm functions
 * that CPython's math module and float ** call, so with contraction off
 * (-ffp-contract=off) and no -ffast-math each result is the Python
 * loop's to the bit.
 *
 * A step at which the Python loop would raise (a check of
 * Battery.electrolyte, an exp or ** whose result is not finite, a zero
 * divisor, int() of a value that is not finite) is not taken: the day
 * returns FLAGGED with the state as it was at the day's start, and the
 * caller runs the day in Python, which raises what it raises.
 *
 * A run passes its whole profile once, as a Profile (below), from which
 * each step reads its samples as TimeSeries.day gives them, so a day
 * needs no input buffers of its own.
 *
 * After the day loop, vrlasim_format_rows writes the rows of the trace
 * and profile CSVs, each double as repr writes it.
 *
 * The structs are mirrored field for field by vrlasim._kernel.  The
 * kernel's memos (Electrolyte, below, and the z_w of the last c_deg) live
 * within one call, so the state holds the model's state alone, and no
 * value that another field gives: the capacity loss is c_corr + c_deg,
 * and the corrosion knots' span is read from ks_potentials.  The bin
 * counts N_SOC_BINS, N_VOLTAGE_BINS and N_DEPTH_BINS are not defined
 * here: the build passes the Python layout's (vrlasim._kernel.FLAGS).
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

enum { BULK, ABSORPTION, FLOAT };
enum { FLAGGED = -1, DAY_DONE = 0, END_OF_LIFE = 1 };

/* A control.VoltageLimits. */
typedef struct {
    double v_limit, v_float, temp_coeff_mv_per_c, ref_temp_c;
} Limits;

/* Constants of one run. */
typedef struct {
    double dt_s, dt_h, capacity, capacity_as, soc_to_ah, eff, rest_a, taper_a, eol_ah;
    double soc_cap, soc_floor, soc_bin_width, v_bin_low, v_bin_width, stress_low_soc;
    double cells, b0_ah, b1, v_empty, v_full;
    double c_max, swing, v_acid, v_water, m_water;
    double ocv_coeffs[5], positive_coeffs[5];
    double i_gas_0, c_v, c_t, v_ref, t_ref, cutoff_soc, reconnect_soc;
    Limits full_limits, partial_limits;
    double k_first, k_last, threshold_v, exponent, ks_ref_temp_k, temp_doubling_k;
    double c_soc0, c_soc_min, i_ref, i_floor, nominal_cycles;
    double w_limit, c_corr_limit, c_deg_limit;
    const double *ks_potentials; /* n_knots */
    const double *ks_segments;   /* (v0, k0, dk, dv) of each pair of neighbouring knots */
    int64_t n_knots, adaptive;
} Params;

/* The state a run carries from step to step. */
typedef struct {
    double soc, v_prev;
    double w, z_w, since_full_h, min_soc_since_full, c_corr, c_deg;
    double integral, correction_jumps, full_reset_jumps, clamp_jumps;
    double charge_ah, discharge_ah, max_discharge_a, low_soc_h, float_h, cycle_min_soc;
    double min_soc_run, min_soc_day, hours_disconnected, load_lost_wh;
    double soc_hist[N_SOC_BINS], v_hist[N_VOLTAGE_BINS];
    int64_t depth_bins[N_DEPTH_BINS];
    int64_t phase, disconnected, full_set, cycling;
    int64_t disconnect_events, clamp_events, correction_events, ks_clamp_events;
    int64_t day_full_events, last_full_event_day, lifetime_steps;
} State;

/*
 * The profile of a run, in one of profiles.TimeSeries's two forms.  Day
 * form, where powers is not NULL: n_days days of n_blocks load powers
 * each (powers, row-major) and a solar peak (peaks), over the one-day
 * templates block_of_step, shape and day_temp; step k of day d has load
 * powers[q * n_blocks + block_of_step[k]], solar peaks[q] * shape[k] and
 * temperature day_temp[k], with q = d % n_days.  Flat form: n samples of
 * each column, loads, solars and temps; step k of day d reads sample
 * (d * steps_per_day + k) % n.  ProfileDays checks every block_of_step
 * entry against the row length and TimeSeries.from_days the template
 * length against the steps of a day, so no read is out of bounds.
 */
typedef struct {
    const double *powers, *peaks, *shape, *day_temp;
    const int64_t *block_of_step;
    int64_t n_days, n_blocks;
    const double *loads, *solars, *temps;
    int64_t n;
} Profile;

int64_t vrlasim_params_size(void) { return sizeof(Params); }
int64_t vrlasim_state_size(void) { return sizeof(State); }
int64_t vrlasim_profile_size(void) { return sizeof(Profile); }

/* A memo of Battery.electrolyte: (soc, log10 molality, cell OCV) at the
 * soc of the last call; a soc of nan matches none. */
typedef struct {
    double soc, y, ocv;
} Electrolyte;

/* Battery.electrolyte, through the memo el, which holds its result at soc
 * afterwards; nonzero where the method raises. */
static int electrolyte(const Params *p, Electrolyte *el, double soc)
{
    if (el->soc != soc) {
        if (!(0.0 <= soc && soc <= 1.0))
            return -1;
        double c = p->c_max + p->swing * (soc - 1.0);
        if (c <= 0.0)
            return -1;
        double c_cm3 = c * 1e-6;
        double water_fraction = 1.0 - c_cm3 * p->v_acid;
        if (water_fraction <= 0.0)
            return -1;
        double molality = 1e3 * c_cm3 * p->v_water / (water_fraction * p->m_water);
        if (!(molality > 0.0))
            return -1;
        double y = log10(molality);
        const double *a = p->ocv_coeffs;
        el->soc = soc;
        el->y = y;
        el->ocv = a[0] + y * (a[1] + y * (a[2] + y * (a[3] + y * a[4])));
    }
    return 0;
}

/* battery.clamp: x limited to [lo, hi]. */
static double clamp(double x, double lo, double hi)
{
    x = hi < x ? hi : x;
    return lo > x ? lo : x;
}

/* Battery.terminal_voltage(soc, current, loss) into *out, with its
 * overpotential_cell, where b0 is effective_b0(loss); nonzero where it
 * raises. */
static int terminal_voltage(const Params *p, Electrolyte *el, double b0, double soc, double current,
                            double *out)
{
    if ((current > 0.0 && soc >= 1.0) || (current < 0.0 && soc <= 0.0))
        return -1;
    if (electrolyte(p, el, soc))
        return -1;
    double over = 0.0;
    if (current != 0.0) {
        double s, spread;
        if (current > 0.0) {
            s = p->soc_cap < soc ? p->soc_cap : soc;
            spread = s / (1.0 - s);
        } else {
            s = p->soc_floor > soc ? p->soc_floor : soc;
            if (s == 0.0)
                return -1;
            spread = (1.0 - s) / s;
        }
        over = b0 * (current / p->capacity) * (1.0 + p->b1 * spread);
    }
    *out = p->cells * el->ocv + p->cells * over;
    return 0;
}

/* Battery.hold_voltage_current(soc, target, loss) into *out, where b0 is
 * effective_b0(loss); nonzero where it raises. */
static int hold_voltage_current(const Params *p, Electrolyte *el, double b0, double soc,
                                double target, double *out)
{
    const double s = clamp(soc, p->soc_floor, p->soc_cap);
    const double cell_target = target / p->cells;
    if (electrolyte(p, el, s))
        return -1;
    const double headroom = cell_target - el->ocv;
    const double gain = b0 * (1.0 + p->b1 * s / (1.0 - s)) / p->capacity;
    if (gain == 0.0)
        return -1;
    *out = headroom / gain;
    return 0;
}

/* Battery.invert_ocv(voltage, seed)[0] into *out; nonzero where it raises. */
static int invert_ocv(const Params *p, Electrolyte *el, double voltage, double seed, double *out)
{
    if (voltage <= p->v_empty) {
        *out = 0.0;
        return 0;
    }
    if (voltage >= p->v_full) {
        *out = 1.0;
        return 0;
    }
    double soc = clamp(seed, 1e-6, 1.0 - 1e-6);
    for (int n = 0; n < 8; n++) {
        if (electrolyte(p, el, soc))
            return -1;
        double f = p->cells * el->ocv - voltage;
        if (fabs(f) < 1e-12) {
            *out = soc;
            return 0;
        }
        double step = 1e-6;
        double upper = soc + step;
        upper = upper < 1.0 ? upper : 1.0;
        double lower = upper - step;
        lower = lower > 0.0 ? lower : 0.0;
        if (electrolyte(p, el, upper))
            return -1;
        double ocv_upper = p->cells * el->ocv;
        if (electrolyte(p, el, lower))
            return -1;
        double slope = (ocv_upper - p->cells * el->ocv) / step;
        if (slope <= 0.0)
            break;
        double nxt = soc - f / slope;
        if (!(0.0 < nxt && nxt < 1.0))
            break;
        if (fabs(nxt - soc) < 1e-10) {
            *out = nxt;
            return 0;
        }
        soc = nxt;
    }
    double lo = 0.0, hi = 1.0;
    for (int n = 0; n < 60; n++) {
        double mid = 0.5 * (lo + hi);
        if (electrolyte(p, el, mid))
            return -1;
        if (p->cells * el->ocv < voltage)
            lo = mid;
        else
            hi = mid;
    }
    *out = 0.5 * (lo + hi);
    return 0;
}

/*
 * Steps first .. stop - 1 of day `day`, where first is day * steps_per_day,
 * with the samples of the profile `in` (Profile, above).  Appends the index of
 * each full-charge step to events[st->day_full_events ...]; with trace,
 * writes each step's (applied current, soc, voltage) to trace[3k ..] and
 * (full event, floating) to flags[2k ..].  Returns DAY_DONE, or END_OF_LIFE with
 * st->lifetime_steps set, and the state advanced; or FLAGGED and the
 * state untouched.
 */
int64_t vrlasim_run_day(const Params *p, State *st, int64_t day, int64_t first, int64_t stop,
                        const Profile *in, int64_t *events, double *trace, int8_t *flags)
{
    State s = *st;
    const double *powers = NULL;
    double peak = 0.0;
    if (in->powers) {
        const int64_t q = day % in->n_days;
        powers = in->powers + q * in->n_blocks;
        peak = in->peaks[q];
    }
    Electrolyte el = {NAN, NAN, NAN};
    double z_w_of_c_deg = NAN; /* the z_w that s.c_deg was computed at */
    const double dt_s = p->dt_s, dt_h = p->dt_h, capacity = p->capacity, cells = p->cells;
    const double soc_cap = p->soc_cap, soc_floor = p->soc_floor;
    const double v_first = p->ks_potentials[0], v_last = p->ks_potentials[p->n_knots - 1];

    for (int64_t i = first, k = 0; i < stop; i++, k++) {
        double load_w, solar_w, temp_c;
        if (powers) {
            load_w = powers[in->block_of_step[k]];
            solar_w = peak * in->shape[k];
            temp_c = in->day_temp[k];
        } else {
            const int64_t j = i % in->n; /* i is day * steps_per_day + k */
            load_w = in->loads[j];
            solar_w = in->solars[j];
            temp_c = in->temps[j];
        }
        double load_a, applied, voltage;
        int full_event = 0;

        /* the temperature terms: corrosion_temperature_factor, gassing_temperature_term */
        const double temp_k = temp_c + 273.15;
        const double corrosion_factor = pow(2.0, (temp_k - p->ks_ref_temp_k) / p->temp_doubling_k);
        if (!isfinite(corrosion_factor))
            goto flagged;
        const double gas_term = p->c_t * (temp_k - p->t_ref);
        /* Battery.effective_b0(loss) */
        const double remaining = capacity - (s.c_corr + s.c_deg);
        if (!(remaining > 0.0))
            goto flagged;
        const double b0 = p->b0_ah / remaining;

        /* load disconnect with reconnect hysteresis */
        if (s.disconnected) {
            if (s.soc >= p->reconnect_soc)
                s.disconnected = 0;
        } else if (s.soc < p->cutoff_soc) {
            s.disconnected = 1;
            s.disconnect_events += 1;
        }
        if (s.v_prev == 0.0)
            goto flagged;
        if (s.disconnected) {
            s.hours_disconnected += dt_h;
            s.load_lost_wh += load_w * dt_h;
            load_a = 0.0;
        } else {
            load_a = load_w / s.v_prev;
        }
        double avail_a = solar_w * p->eff / s.v_prev;
        double net_a = avail_a - load_a;
        /* control.select_limits: the active set, VoltageLimits.compensated */
        const Limits *lim = s.full_set ? &p->full_limits : &p->partial_limits;
        const double shift = lim->temp_coeff_mv_per_c * 1e-3 * (temp_c - lim->ref_temp_c);
        const double v_limit = lim->v_limit + shift, v_float = lim->v_float + shift;

        /* controller step: pick the battery current and advance the phase */
        if (net_a <= 0.0) {
            s.phase = BULK;
            applied = net_a;
        } else {
            const double sv = clamp(s.soc, 1e-6, soc_cap);
            int tapering = s.phase == ABSORPTION;
            int holding = 1;
            if (s.phase == BULK) {
                double predicted;
                if (terminal_voltage(p, &el, b0, sv, net_a, &predicted))
                    goto flagged;
                if (predicted < v_limit)
                    holding = 0;
                else
                    s.phase = ABSORPTION;
            }
            if (!holding) {
                applied = net_a;
            } else {
                double i_hold;
                if (hold_voltage_current(p, &el, b0, sv, s.phase == FLOAT ? v_float : v_limit, &i_hold))
                    goto flagged;
                applied = clamp(i_hold, 0.0, net_a);
                if (tapering && i_hold <= p->taper_a && net_a >= i_hold) {
                    s.phase = FLOAT;
                    if (s.full_set) {
                        s.full_reset_jumps += 1.0 - s.soc;
                        s.soc = 1.0;
                        s.since_full_h = 0.0;
                        s.min_soc_since_full = 1.0;
                        full_event = 1;
                        events[s.day_full_events] = i;
                        s.day_full_events += 1;
                        s.last_full_event_day = day;
                        /* wants_full_limits(0, ...): an adaptive interval is
                         * never below one day, so only static keeps the set */
                        s.full_set = !p->adaptive;
                    }
                    /* entering float collapses the current to the float hold */
                    double hold;
                    if (hold_voltage_current(p, &el, b0, s.soc, v_float, &hold))
                        goto flagged;
                    applied = clamp(hold, 0.0, net_a);
                }
            }
        }

        /* terminal voltage under the applied current */
        const double soc_v = clamp(s.soc, soc_floor, soc_cap);
        if (terminal_voltage(p, &el, b0, soc_v, applied, &voltage))
            goto flagged;

        /* rest correction, where the Python loop makes it */
        if (s.phase == BULK && -p->rest_a < applied && applied < p->rest_a
            && (applied != 0.0 || s.soc != soc_v || !(p->v_empty < voltage && voltage < p->v_full))) {
            double corrected;
            if (invert_ocv(p, &el, voltage, s.soc, &corrected))
                goto flagged;
            double jump = corrected - s.soc;
            if (fabs(jump) > 1e-9)
                s.correction_events += 1;
            s.correction_jumps += jump;
            s.soc = corrected;
        }

        /* gassing, then coulomb counting without the gassing current */
        double gassing = exp(p->c_v * (voltage - p->v_ref) + gas_term);
        if (!isfinite(gassing))
            goto flagged;
        double i_gas = p->i_gas_0 * gassing;
        double charge = (applied - i_gas) * dt_s;
        s.integral += charge * p->soc_to_ah;
        double new_soc = s.soc + charge / p->capacity_as;
        if (new_soc > 1.0 || new_soc < 0.0) {
            double bound = new_soc > 1.0 ? 1.0 : 0.0;
            s.clamp_events += 1;
            s.clamp_jumps += bound - (s.soc + charge * p->soc_to_ah);
            new_soc = bound;
        }

        /* ageing: corrosion from the positive-electrode potential ... */
        if (electrolyte(p, &el, clamp(s.soc, 0.0, 1.0)))
            goto flagged;
        const double y = el.y, *a = p->positive_coeffs;
        double v_p = a[0] + y * (a[1] + y * (a[2] + y * (a[3] + y * a[4])))
                     + 0.5 * (voltage / cells - el.ocv);
        double speed;
        if (v_p <= v_first) {
            speed = p->k_first * corrosion_factor;
            if (v_p < v_first)
                s.ks_clamp_events += 1;
        } else if (v_p < v_last) {
            /* the segment ends at the first knot at or above v_p (bisect_left) */
            int64_t lo = 0, hi = p->n_knots;
            while (lo < hi) {
                int64_t mid = (lo + hi) / 2;
                if (p->ks_potentials[mid] < v_p)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            const double *seg = p->ks_segments + 4 * (lo - 1);
            if (seg[3] == 0.0)
                goto flagged;
            speed = (seg[1] + seg[2] * (v_p - seg[0]) / seg[3]) * corrosion_factor;
        } else {
            speed = p->k_last * corrosion_factor;
            if (v_p > v_last)
                s.ks_clamp_events += 1;
        }
        if (speed <= 0.0) {
            /* no growth */
        } else if (v_p >= p->threshold_v) {
            s.w = s.w + speed * dt_h;
        } else {
            double tau_eff = 0.0;
            if (s.w > 0.0) {
                double age = s.w / speed;
                tau_eff = pow(age, 1.0 / p->exponent);
                if (!(age >= 0.0) || !isfinite(tau_eff))
                    goto flagged;
            }
            double grown = pow(tau_eff + dt_h, p->exponent);
            if (!(tau_eff + dt_h >= 0.0) || !isfinite(grown))
                goto flagged;
            s.w = speed * grown;
        }
        /* ... and weighted discharge throughput */
        s.since_full_h += dt_h;
        if (s.soc < s.min_soc_since_full)
            s.min_soc_since_full = s.soc;
        if (applied < 0.0) {
            double discharge_a = -applied;
            double m = clamp(s.min_soc_since_full, 0.0, 1.0);
            double i_w = p->i_floor > discharge_a ? p->i_floor : discharge_a;
            double f = 1.0 + (p->c_soc0 + p->c_soc_min * (1.0 - m)) * sqrt(p->i_ref / i_w)
                             * s.since_full_h;
            s.z_w = s.z_w + discharge_a * f * dt_h / capacity;
        }
        s.c_corr = p->c_corr_limit * s.w / p->w_limit;
        if (s.z_w != z_w_of_c_deg) {
            double fade = exp(-5.0 * (1.0 - s.z_w / p->nominal_cycles));
            if (!isfinite(fade))
                goto flagged;
            s.c_deg = p->c_deg_limit * fade;
            z_w_of_c_deg = s.z_w;
        }
        s.soc = new_soc;

        if (s.soc < s.min_soc_run)
            s.min_soc_run = s.soc;
        if (s.soc < s.min_soc_day)
            s.min_soc_day = s.soc;
        int64_t soc_bin = (int64_t)(soc_v / p->soc_bin_width);
        s.soc_hist[soc_bin < N_SOC_BINS - 1 ? soc_bin : N_SOC_BINS - 1] += dt_h;
        double v_bin = (voltage - p->v_bin_low) / p->v_bin_width;
        if (!isfinite(v_bin))
            goto flagged;
        s.v_hist[v_bin < 0.0 ? 0 : v_bin >= N_VOLTAGE_BINS - 1 ? N_VOLTAGE_BINS - 1 : (int64_t)v_bin]
            += dt_h;

        /* stress sums, as StressAccumulator.add keeps them */
        if (applied >= 0.0) {
            s.charge_ah += applied * dt_h;
        } else {
            double drawn = -applied;
            s.discharge_ah += drawn * dt_h;
            if (drawn > s.max_discharge_a)
                s.max_discharge_a = drawn;
        }
        if (s.soc < p->stress_low_soc)
            s.low_soc_h += dt_h;
        int floating = s.phase == FLOAT;
        if (floating)
            s.float_h += dt_h;
        if (s.cycling && s.soc < s.cycle_min_soc)
            s.cycle_min_soc = s.soc;
        if (full_event) {
            if (s.cycling) {
                double depth = 1.0 - s.cycle_min_soc;
                int64_t depth_bin = 0;
                if (depth > 0.0) {
                    double x = depth * N_DEPTH_BINS;
                    if (!isfinite(x))
                        goto flagged;
                    depth_bin = x >= N_DEPTH_BINS - 1 ? N_DEPTH_BINS - 1 : (int64_t)x;
                }
                s.depth_bins[depth_bin] += 1;
            }
            s.cycle_min_soc = s.soc;
            s.cycling = 1;
        }
        if (trace) {
            trace[3 * k] = applied;
            trace[3 * k + 1] = s.soc;
            trace[3 * k + 2] = voltage;
            flags[2 * k] = (int8_t)full_event;
            flags[2 * k + 1] = (int8_t)floating;
        }
        s.v_prev = voltage;

        if (s.c_corr + s.c_deg >= p->eol_ah) {
            s.lifetime_steps = i + 1;
            *st = s;
            return END_OF_LIFE;
        }
    }
    *st = s;
    return DAY_DONE;

flagged:
    return FLAGGED;
}

/*
 * repr(x) of a double, and the CSV rows of the trace and profile writers.
 *
 * The digits are those CPython's repr takes from dtoa.c's mode 0: the
 * fewest that read back as x, the nearest to x of those, and of two
 * nearest the one with the even last digit.  They come from Giulietti's
 * Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
 * without the two-digit minimum that Java's Double.toString adds: where
 * no decimal of one digit fewer lies in the rounding interval, the
 * nearest of s * 10^k and (s + 1) * 10^k that lies in it is the answer.
 */

#define Q_MIN (-1074)             /* the exponent of a subnormal's unit */
#define C_MIN (UINT64_C(1) << 52) /* the implicit bit of a normal double */
#define K_MIN (-324)
#define K_MAX 292
#define MASK_63 ((UINT64_C(1) << 63) - 1)
#define G_LIMBS 36 /* 32-bit limbs of the table's integers: 1152 bits */

/* floor(e * log10(2)), floor(log10(3/4 * 2^e)) and floor(e * log2(10)),
 * exact for |e| <= 1100, and |e| <= 400 for the last (checked with Python
 * integers), with the arithmetic right shift of a negative value that cc
 * gives. */
static int flog10pow2(int e) { return (int)((int64_t)e * 661971961083 >> 41); }
static int flog10threequarterspow2(int e)
{
    return (int)(((int64_t)e * 661971961083 - 274743187321) >> 41);
}
static int flog2pow10(int e) { return (int)((int64_t)e * 913124641741 >> 38); }

/* g of each k in [K_MIN, K_MAX], as (g1, g0) with g = g1 * 2^63 + g0:
 * 10^-k = beta * 2^r with 2^125 <= beta < 2^126, and g = floor(beta) + 1. */
static uint64_t g_table[K_MAX - K_MIN + 1][2];

/* floor(b / 2^s) of a G_LIMBS-limb integer b, where that is below 2^126. */
static unsigned __int128 shifted(const uint32_t *b, int s)
{
    unsigned __int128 v = 0;
    if (s < 0) { /* b < 2^(126 + s) lies in its first four limbs */
        for (int i = 3; i >= 0; i--)
            v = v << 32 | b[i];
        return v << -s;
    }
    const int w = s / 32, o = s % 32;
    for (int i = w + 4; i > w; i--)
        v = v << 32 | (i < G_LIMBS ? b[i] : 0);
    return v << (32 - o) | b[w] >> o;
}

static void set_g(int k, unsigned __int128 g)
{
    g_table[k - K_MIN][0] = (uint64_t)(g >> 63);
    g_table[k - K_MIN][1] = (uint64_t)g & MASK_63;
}

/* Fills g_table with exact integer arithmetic as the library loads: 10^e
 * for e = 0 .. -K_MIN by multiplying by 10, and floor(2^1151 / 10^e) for
 * e = 1 .. K_MAX by dividing by 10, each floored to its 126 bits. */
__attribute__((constructor)) static void fill_g_table(void)
{
    uint32_t b[G_LIMBS] = {1};
    for (int e = 0; e <= -K_MIN; e++) {
        for (int i = 0, carry = 0; e > 0 && i < G_LIMBS; i++) {
            const uint64_t x = (uint64_t)b[i] * 10 + (uint64_t)carry;
            b[i] = (uint32_t)x;
            carry = (int)(x >> 32);
        }
        set_g(-e, shifted(b, flog2pow10(e) - 125) + 1);
    }
    uint32_t x[G_LIMBS] = {0};
    x[G_LIMBS - 1] = UINT32_C(1) << 31;
    for (int e = 1; e <= K_MAX; e++) {
        uint64_t rem = 0;
        for (int i = G_LIMBS - 1; i >= 0; i--) {
            const uint64_t y = rem << 32 | x[i];
            x[i] = (uint32_t)(y / 10);
            rem = y % 10;
        }
        /* 10^-e = 2^-r' / (2^-r' * 10^e) with r' = flog2pow10(-e) - 125 */
        set_g(e, shifted(x, 1151 + flog2pow10(-e) - 125) + 1);
    }
}

/* g * cp / 2^127 rounded to odd: floor, with the lowest bit set where
 * bits below it are lost (Schubfach's rop). */
static uint64_t rop(const uint64_t *g, uint64_t cp)
{
    const uint64_t x1 = (uint64_t)((unsigned __int128)g[1] * cp >> 64);
    const unsigned __int128 y = (unsigned __int128)g[0] * cp;
    const uint64_t z = ((uint64_t)y >> 1) + x1;
    const uint64_t vbp = (uint64_t)(y >> 64) + (z >> 63);
    return vbp | (((z & MASK_63) + MASK_63) >> 63);
}

/* The shortest decimal f * 10^e that reads back as c * 2^q (c > 0), the
 * nearest to it of those, ties to an even f. */
static void shortest(int q, uint64_t c, uint64_t *f, int *e)
{
    const uint64_t out = c & 1, cb = c << 2, cbr = cb + 2;
    uint64_t cbl;
    int k;
    if (c != C_MIN || q == Q_MIN) {
        cbl = cb - 2;
        k = flog10pow2(q);
    } else { /* a power of two: the interval below is half as wide */
        cbl = cb - 1;
        k = flog10threequarterspow2(q);
    }
    const int h = q + flog2pow10(-k) + 2;
    const uint64_t *g = g_table[k - K_MIN];
    const uint64_t vb = rop(g, cb << h), vbl = rop(g, cbl << h), vbr = rop(g, cbr << h);
    const uint64_t s = vb >> 2;
    *e = k;
    /* at most one multiple of 10^(k + 1) lies in the interval */
    const uint64_t sp10 = s / 10 * 10, tp10 = sp10 + 10;
    const int upin = vbl + out <= sp10 << 2, wpin = (tp10 << 2) + out <= vbr;
    if (upin != wpin) {
        *f = upin ? sp10 : tp10;
        return;
    }
    const uint64_t t = s + 1;
    const int uin = vbl + out <= s << 2, win = (t << 2) + out <= vbr;
    if (uin != win) {
        *f = uin ? s : t;
        return;
    }
    const int64_t cmp = (int64_t)(vb - ((s + t) << 1));
    *f = cmp < 0 || (cmp == 0 && !(s & 1)) ? s : t;
}

/* repr(x) into p, which has room for 24 bytes; the bytes written. */
static int format_double(double x, char *p)
{
    char *const start = p;
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t t = bits & (C_MIN - 1);
    const int bq = (int)(bits >> 52 & 0x7ff);
    const char *word = bq < 0x7ff ? NULL : t ? "nan" : bits >> 63 ? "-inf" : "inf";
    if (word) {
        const size_t n = strlen(word);
        memcpy(p, word, n);
        return (int)n;
    }
    if (bits >> 63)
        *p++ = '-';
    uint64_t f = 0;
    int e = 0;
    if (bq == 0) {
        if (t)
            shortest(Q_MIN, t, &f, &e);
    } else {
        const uint64_t c = C_MIN | t;
        const int mq = 1075 - bq; /* x = c / 2^mq */
        if (0 < mq && mq < 53 && (c >> mq) << mq == c)
            f = c >> mq; /* a whole number below 2^53 is its own shortest */
        else
            shortest(-mq, c, &f, &e);
    }
    while (f && f % 10 == 0) {
        f /= 10;
        e++;
    }
    char buf[20], *d = buf + sizeof buf;
    do {
        *--d = (char)('0' + f % 10);
        f /= 10;
    } while (f);
    const int n = (int)(buf + sizeof buf - d), point = n + e; /* x = 0.d * 10^point */
    if (-4 < point && point <= 16) { /* float_repr_style 'short' writes these fixed */
        if (point <= 0) {
            memcpy(p, "0.0000", 2 - point);
            p += 2 - point;
            memcpy(p, d, n);
            p += n;
        } else if (point >= n) {
            memcpy(p, d, n);
            p += n;
            memset(p, '0', point - n);
            p += point - n;
            memcpy(p, ".0", 2);
            p += 2;
        } else {
            memcpy(p, d, point);
            p += point;
            *p++ = '.';
            memcpy(p, d + point, n - point);
            p += n - point;
        }
    } else {
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, n - 1);
            p += n - 1;
        }
        int x10 = point - 1;
        *p++ = 'e';
        *p++ = x10 < 0 ? '-' : '+';
        x10 = x10 < 0 ? -x10 : x10;
        if (x10 >= 100)
            *p++ = (char)('0' + x10 / 100);
        *p++ = (char)('0' + x10 / 10 % 10);
        *p++ = (char)('0' + x10 % 10);
    }
    return (int)(p - start);
}

/*
 * Writes n CSV rows into out: each is the next stamp of `stamps` (n
 * stamps, each ended by '\n' or, the last, by '\0'), then ',' and repr
 * of each of its k values (values[r * k ..]), then ',' and the decimal
 * of each of its j marks (marks[r * j ..]), then "\r\n"; "%s" + ",%r" * k
 * + ",%d" * j + "\r\n" in Python.  out has room for the stamps and 25 * k
 * + 5 * j + 2 bytes a row.  Returns the bytes written.
 */
int64_t vrlasim_format_rows(const char *stamps, int64_t n, const double *values, int64_t k,
                            const int8_t *marks, int64_t j, char *out)
{
    char *p = out;
    for (int64_t r = 0; r < n; r++) {
        while (*stamps != '\n' && *stamps != '\0')
            *p++ = *stamps++;
        stamps++;
        for (int64_t i = 0; i < k; i++) {
            *p++ = ',';
            p += format_double(values[r * k + i], p);
        }
        for (int64_t i = 0; i < j; i++) {
            int m = marks[r * j + i];
            *p++ = ',';
            if (m < 0) {
                *p++ = '-';
                m = -m;
            }
            if (m >= 100)
                *p++ = (char)('0' + m / 100);
            if (m >= 10)
                *p++ = (char)('0' + m / 10 % 10);
            *p++ = (char)('0' + m % 10);
        }
        *p++ = '\r';
        *p++ = '\n';
    }
    return (int64_t)(p - out);
}

"""Electrical model of a small valve-regulated lead-acid battery.

Open-circuit voltage follows the electrolyte acid concentration, which in
turn tracks state of charge through a fixed electrolyte volume.  Terminal
voltage adds a Shepherd-style overpotential on top of the OCV, gassing is
an exponential side reaction in voltage and temperature, and state of
charge is tracked by coulomb counting with the gassing current removed.

All voltages at module boundaries are battery-level volts unless a name
says otherwise; per-cell quantities stay internal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._domains import FINITE, NON_NEGATIVE, POSITIVE, POSITIVE_INT, check_fields, declared

FARADAY = 96485.0  # C/mol

# Per-cell OCV polynomial in the log10 of acid molality.
OCV_COEFFS = (1.92, 0.15, 0.06, 0.07, 0.03)
# Positive-electrode potential polynomial, same argument.
POSITIVE_OCV_COEFFS = (1.628, 0.074, 0.033, 0.043, 0.022)

# The log10 molality below which the per-cell OCV falls as molality rises:
# the one real root of the OCV polynomial's slope a1 + 2 a2 y + 3 a3 y^2 +
# 4 a4 y^3, whose own extremes (at y = -2/3 and -1/2) are both positive.
# The slope is not positive here and is positive at the next float up.
OCV_TURNING_POINT = -1.6109204436994384

SOC_CAP = 0.9999  # keeps the charge overpotential term finite
SOC_FLOOR = 0.0001  # same guard for the discharge side


def clamp(x: float, lo: float, hi: float) -> float:
    """x limited to [lo, hi] (lo < hi); equal to max(min(x, hi), lo).

    Per-step code uses this rather than the min and max builtins, which
    cost several times more per call on CPython 3.11.
    """
    x = hi if hi < x else x
    return lo if lo > x else x


class BatteryParamError(ValueError):
    """Raised for battery parameters out of domain or with no valid electrolyte state."""


@dataclass(frozen=True)
class GassingParams:
    """Gassing current model constants (battery-level voltage)."""

    i_gas_0: float = declared(0.017, NON_NEGATIVE, "A", "gassing current at the reference point")
    c_v: float = declared(0.183, NON_NEGATIVE, "1/V", "voltage sensitivity of gassing")
    c_t: float = declared(0.06, NON_NEGATIVE, "1/K", "temperature sensitivity of gassing")
    v_ref: float = declared(13.38, FINITE, "V", "reference battery voltage of gassing")
    t_ref: float = declared(298.0, POSITIVE, "K", "reference temperature of gassing")

    def __post_init__(self) -> None:
        check_fields(self, BatteryParamError)


@dataclass(frozen=True)
class BatteryParams:
    """Cell stack geometry, electrolyte inventory and overpotential shape."""

    capacity_ah: float = declared(20.0, POSITIVE, "Ah", "nominal capacity C_N")
    cells_in_series: int = declared(6, POSITIVE_INT, "-", "cells of the monoblock (6 for 12 V)")
    c_max: float = declared(5450.0, POSITIVE, "mol/m^3", "acid concentration at full charge")
    electrolyte_volume_m3: float = declared(1.43e-4, POSITIVE, "m^3", "acid volume per cell group")
    v_water: float = declared(17.5, POSITIVE, "cm^3/mol", "molar volume of water")
    v_acid: float = declared(45.0, POSITIVE, "cm^3/mol", "molar volume of sulphuric acid")
    m_water: float = declared(18.0, POSITIVE, "g/mol", "molar mass of water")
    b0: float = declared(0.07, POSITIVE, "V per C-rate", "ohmic overpotential scale")
    b1: float = declared(3.0, POSITIVE, "-", "charge-transfer gain near the full/empty rails")
    rest_current_a: float = declared(0.01, NON_NEGATIVE, "A", "|I| below which it is at rest")
    gassing: GassingParams = field(default_factory=GassingParams)

    def __post_init__(self) -> None:
        check_fields(self, BatteryParamError)
        # acid must not fill the whole electrolyte volume
        if self.c_max * self.v_acid * 1e-6 >= 1.0:
            raise BatteryParamError("c_max implies acid volume fraction >= 1")
        if self.concentration_swing() >= self.c_max:
            raise BatteryParamError(
                "electrolyte too small: acid concentration reaches zero "
                "before soc 0 (raise c_max or electrolyte_volume_m3)"
            )
        # Battery.invert_ocv needs the OCV to rise with soc.  Molality rises
        # with soc, so that holds where it stays above the turning point.
        try:
            y0 = Battery(self).electrolyte(0.0)[1]
        except ValueError:  # math.log10 of a molality that underflowed to 0
            y0 = -math.inf
        if not y0 > OCV_TURNING_POINT:
            raise BatteryParamError(
                f"electrolyte too small: log10 molality at soc 0 is {y0:.6g}, not above "
                f"the OCV's turning point {OCV_TURNING_POINT:.6g}, so the OCV would fall "
                "with soc (raise electrolyte_volume_m3 or c_max)"
            )

    def concentration_swing(self) -> float:
        """Concentration drop from full to empty (mol/m^3)."""
        return self.capacity_ah * 3600.0 / (FARADAY * self.electrolyte_volume_m3)


def cell_ocv(y: float) -> float:
    """Per-cell open-circuit voltage from log10 molality."""
    a0, a1, a2, a3, a4 = OCV_COEFFS
    return a0 + y * (a1 + y * (a2 + y * (a3 + y * a4)))


def positive_cell_ocv(y: float) -> float:
    """Per-cell positive-electrode equilibrium potential from log10 molality."""
    a0, a1, a2, a3, a4 = POSITIVE_OCV_COEFFS
    return a0 + y * (a1 + y * (a2 + y * (a3 + y * a4)))


class Battery:
    """The electrical model of one battery, for one simulation run.

    Holds the constants derived from a :class:`BatteryParams` once, and a
    one-entry memo of the electrolyte state: (soc, log10 molality,
    per-cell OCV) at the last state of charge evaluated.  Terminal
    voltage, hold current, OCV inversion and the positive-electrode
    potential within one step all ask for the same soc, so the chain
    soc -> concentration -> molality -> OCV runs about once per step.
    The memo is keyed on the exact soc float, so it never changes a
    result.  It is per object: create one per run, never share one.
    """

    __slots__ = (
        "params", "cells", "capacity_ah", "c_max", "swing", "v_acid",
        "v_water", "m_water", "b0_ah", "b1", "v_empty", "v_full", "_memo",
    )

    def __init__(self, params: BatteryParams) -> None:
        self.params = params
        self.cells = params.cells_in_series
        self.capacity_ah = params.capacity_ah
        self.c_max = params.c_max
        self.swing = params.concentration_swing()
        self.v_acid = params.v_acid
        self.v_water = params.v_water
        self.m_water = params.m_water
        self.b0_ah = params.b0 * params.capacity_ah
        self.b1 = params.b1
        self._memo = (math.nan, math.nan, math.nan)  # nan matches no soc
        self.v_empty = self.ocv(0.0)
        self.v_full = self.ocv(1.0)

    def acid_concentration(self, soc: float) -> float:
        """Electrolyte acid concentration at a state of charge (mol/m^3).

        Affine in soc: full charge pins c_max, every amp-hour removed
        consumes acid in proportion to capacity over electrolyte volume.
        """
        if not 0.0 <= soc <= 1.0:
            raise ValueError(f"soc out of range: {soc}")
        c = self.c_max + self.swing * (soc - 1.0)
        if c <= 0.0:
            raise BatteryParamError("non-positive acid concentration")
        return c

    def log_molality(self, concentration: float) -> float:
        """log10 of acid molality (mol per kg of water) at a concentration.

        The concentration is volumetric (mol/m^3); molality needs the mass
        of water left after the acid takes its share of the volume, hence
        the molar-volume bookkeeping.  The 1e3 factor converts mol/g to
        mol/kg.
        """
        if concentration <= 0.0:
            raise ValueError("concentration must be positive")
        c_cm3 = concentration * 1e-6  # mol/cm^3
        water_fraction = 1.0 - c_cm3 * self.v_acid
        if water_fraction <= 0.0:
            raise ValueError("acid volume exceeds electrolyte volume")
        molality = 1e3 * c_cm3 * self.v_water / (water_fraction * self.m_water)
        return math.log10(molality)

    def electrolyte(self, soc: float) -> tuple[float, float, float]:
        """(soc, log10 molality, per-cell OCV) at a state of charge in [0, 1],
        memoised for the last soc asked."""
        memo = self._memo
        if memo[0] != soc:
            y = self.log_molality(self.acid_concentration(soc))
            memo = self._memo = (soc, y, cell_ocv(y))
        return memo

    def ocv(self, soc: float) -> float:
        """Battery-level open-circuit voltage at a state of charge."""
        return self.cells * self.electrolyte(soc)[2]

    def effective_b0(self, capacity_loss_ah: float) -> float:
        """Ohmic overpotential scale after ageing.

        Grows with the capacity already lost; unbounded growth is cut at
        the point where loss would equal the nominal capacity.
        """
        remaining = self.capacity_ah - capacity_loss_ah
        if remaining <= 0.0:
            raise ValueError("capacity loss consumed the whole battery")
        return self.b0_ah / remaining

    def overpotential_cell(
        self, soc: float, current: float, capacity_loss_ah: float = 0.0
    ) -> float:
        """Per-cell overpotential for a battery current (A, charge positive).

        Charging pushes against a term that diverges toward full charge,
        which is what makes a constant-voltage phase taper.  Discharging
        mirrors it against the empty rail.  The ohmic scale grows with
        lost capacity so an aged battery sags and tapers earlier.
        """
        if current == 0.0:
            return 0.0
        b0 = self.effective_b0(capacity_loss_ah)
        rate = current / self.capacity_ah
        if current > 0.0:
            s = SOC_CAP if SOC_CAP < soc else soc
            spread = s / (1.0 - s)
        else:
            s = SOC_FLOOR if SOC_FLOOR > soc else soc
            spread = (1.0 - s) / s
        return b0 * rate * (1.0 + self.b1 * spread)

    def terminal_voltage(
        self, soc: float, current: float, capacity_loss_ah: float = 0.0
    ) -> float:
        """Battery terminal voltage under a current (A, charge positive).

        Args:
            soc: State of charge in [0, 1].  Exactly 1 with nonzero charge
                current (or exactly 0 with discharge) is rejected;
                simulation callers clamp into (0, 1) before calling.
            current: Battery current, charging positive.
            capacity_loss_ah: Total capacity already lost, ages the ohmic
                term.

        Returns:
            Battery-level voltage.
        """
        if current > 0.0 and soc >= 1.0:
            raise ValueError("terminal_voltage undefined at soc=1 under charge")
        if current < 0.0 and soc <= 0.0:
            raise ValueError("terminal_voltage undefined at soc=0 under discharge")
        ocv = self.ocv(soc)
        over = self.overpotential_cell(soc, current, capacity_loss_ah)
        return ocv + self.cells * over

    def hold_voltage_current(
        self, soc: float, target_voltage: float, capacity_loss_ah: float = 0.0
    ) -> float:
        """Charge current that holds the terminal voltage at a target.

        Exact inversion of the charging branch of :meth:`terminal_voltage`
        (the voltage is affine in current).  Negative results mean the OCV
        already exceeds the target; callers treat that as zero charge.
        """
        s = clamp(soc, SOC_FLOOR, SOC_CAP)
        cell_target = target_voltage / self.cells
        headroom = cell_target - self.electrolyte(s)[2]
        b0 = self.effective_b0(capacity_loss_ah)
        gain = b0 * (1.0 + self.b1 * s / (1.0 - s)) / self.capacity_ah
        return headroom / gain

    def positive_terminal_voltage(self, soc: float, battery_voltage: float) -> float:
        """Positive-electrode potential under load (V, per electrode).

        The positive electrode carries its equilibrium potential plus half
        of the cell-level overpotential, the other half being assigned to
        the negative electrode.
        """
        _, y, ocv = self.electrolyte(clamp(soc, 0.0, 1.0))
        cell_v = battery_voltage / self.cells
        return positive_cell_ocv(y) + 0.5 * (cell_v - ocv)

    def invert_ocv(self, voltage: float, seed: float = 0.5) -> tuple[float, bool]:
        """State of charge whose OCV matches a resting voltage.

        Newton iteration from the seed with a bisection fallback; the OCV
        is strictly increasing in soc so the root is unique.  Voltages
        outside the representable OCV span clamp to the nearest endpoint
        and flag it.

        Returns:
            (soc, clamped)
        """
        if voltage <= self.v_empty:
            return 0.0, True
        if voltage >= self.v_full:
            return 1.0, True

        ocv = self.ocv
        # clamps as conditional expressions: min's and max's results, without the calls
        soc = 1e-6 if 1e-6 > seed else seed
        soc = 1.0 - 1e-6 if 1.0 - 1e-6 < soc else soc
        for _ in range(8):
            f = ocv(soc) - voltage
            if abs(f) < 1e-12:
                return soc, False
            step = 1e-6
            upper = soc + step
            upper = upper if upper < 1.0 else 1.0
            lower = upper - step
            lower = lower if lower > 0.0 else 0.0
            slope = (ocv(upper) - ocv(lower)) / step
            if slope <= 0.0:
                break
            nxt = soc - f / slope
            if not 0.0 < nxt < 1.0:
                break
            if abs(nxt - soc) < 1e-10:
                return nxt, False
            soc = nxt

        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if ocv(mid) < voltage:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi), False


# Stateless forms of the Battery methods, for callers outside a run.


def acid_concentration(soc: float, params: BatteryParams) -> float:
    """Electrolyte acid concentration at a state of charge (mol/m^3)."""
    return Battery(params).acid_concentration(soc)


def log_molality(concentration: float, params: BatteryParams) -> float:
    """log10 of acid molality (mol per kg of water) at a concentration."""
    return Battery(params).log_molality(concentration)


def battery_ocv(soc: float, params: BatteryParams) -> float:
    """Battery-level open-circuit voltage at a state of charge."""
    return Battery(params).ocv(soc)


def overpotential_cell(
    soc: float, current: float, params: BatteryParams, capacity_loss_ah: float = 0.0
) -> float:
    """Per-cell overpotential for a battery current (A, charge positive)."""
    return Battery(params).overpotential_cell(soc, current, capacity_loss_ah)


def effective_b0(params: BatteryParams, capacity_loss_ah: float) -> float:
    """Ohmic overpotential scale after ageing."""
    return Battery(params).effective_b0(capacity_loss_ah)


def terminal_voltage(
    soc: float,
    current: float,
    params: BatteryParams,
    capacity_loss_ah: float = 0.0,
) -> float:
    """Battery terminal voltage under a current (A, charge positive)."""
    return Battery(params).terminal_voltage(soc, current, capacity_loss_ah)


def hold_voltage_current(
    soc: float,
    target_voltage: float,
    params: BatteryParams,
    capacity_loss_ah: float = 0.0,
) -> float:
    """Charge current that holds the terminal voltage at a target."""
    return Battery(params).hold_voltage_current(soc, target_voltage, capacity_loss_ah)


def invert_battery_ocv(
    voltage: float, params: BatteryParams, seed: float = 0.5
) -> tuple[float, bool]:
    """State of charge whose OCV matches a resting voltage, and a clamp flag."""
    return Battery(params).invert_ocv(voltage, seed)


def gassing_temperature_term(temperature_k: float, gassing: GassingParams) -> float:
    """Temperature part of the gassing exponent, c_t * (T - t_ref)."""
    return gassing.c_t * (temperature_k - gassing.t_ref)


def gassing_current(
    voltage: float, temperature_k: float, gassing: GassingParams = GassingParams()
) -> float:
    """Gassing side-reaction current (A) at a battery voltage and temperature."""
    g = gassing
    return g.i_gas_0 * math.exp(
        g.c_v * (voltage - g.v_ref) + gassing_temperature_term(temperature_k, g)
    )


def step_soc(
    soc: float,
    current: float,
    gas_current: float,
    dt_s: float,
    params: BatteryParams,
) -> tuple[float, bool]:
    """Advance state of charge one step by coulomb counting.

    The gassing current never contributes to stored charge, so it is
    subtracted before integration.  Results outside [0, 1] clamp; the
    flag reports that a clamp happened so callers can log the event.

    Returns:
        (new_soc, clamped)
    """
    if dt_s <= 0.0:
        raise ValueError("dt_s must be positive")
    new_soc = soc + (current - gas_current) * dt_s / (params.capacity_ah * 3600.0)
    if new_soc > 1.0:
        return 1.0, True
    if new_soc < 0.0:
        return 0.0, True
    return new_soc, False


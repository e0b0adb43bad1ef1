"""LIBRARY_CASES, the one table of pinned library outcomes, and the
argument checks of the public scalar functions of bounds and causal.

Each row is a call and its exact outcome.  An error is the exception it
raises, compared by type and message; a value is compared by repr, so its
bits and a NaN compare too.  A row name starts with the name of the
callable it calls.  Python's own errors are pinned with their messages: a
change to an overflow site changes its row on purpose.
"""

import inspect
import math
from fractions import Fraction

import pytest

from interferobounds import bounds, causal, dynamics, scenario, units
from interferobounds.errors import (ConvergenceError, GeometryError, InvalidInputError,
                                    NonFiniteError)
from interferobounds.dynamics import GaussianState
from interferobounds.scenario import CouplingKind, ScenarioParams, replace_swept
from interferobounds.units import from_planck, to_planck

_P = ScenarioParams(m_a=1.0, d=1.0, r=1000.0)
_P10 = ScenarioParams(m_a=1.0, d=10.0, r=1000.0)
_NEAR = ScenarioParams(m_a=1e6, d=1e6, r=1e8)
_UNIT = ScenarioParams(m_a=1.0, d=1.0, r=1.0)
_GROUND = dynamics.ground_state(1.0, 1.0)
# r/d = 10, below the far-field gate.
_NEAR_FIELD = ScenarioParams(m_a=1.0, d=1.0, r=10.0)
# r*r underflows to zero, so a force computed before the width check divides by zero.
_TINY = ScenarioParams(m_a=1.0, d=1e-200, r=1e-200)
_COULOMB = dict(m_a=1.0, d=1.0, r=1000.0, q_a=1e3, q_b=1e3, delta_x_min=1.0)
_FAR = ScenarioParams(m_a=1e9, d=1e4, r=1e8)
# R^3 underflows to zero, so tb_displacement cannot reach the true 1.414e-149.
_R3_UNDERFLOWS = ScenarioParams(m_a=1e-100, d=1e-202, r=1e-200)
_R3_UNDERFLOWS_LIGHT_B = ScenarioParams(m_a=1e-100, d=1e-202, r=1e-200, m_b=1e-100)
# K = m_a*m_b underflows to zero, so the phase cannot reach the true 9.99e-302.
_K_UNDERFLOWS = ScenarioParams(m_a=1e-300, m_b=1e-300, d=1e3, r=1e6, override_geometry=True)
# r**3 and r**2 raise OverflowError where the true values are finite.
_R3_OVERFLOWS = ScenarioParams(m_a=1.0, d=1.0, r=1e103)
_R2_OVERFLOWS = ScenarioParams(m_a=1.0, d=1.0, r=1e155)

LIBRARY_CASES = {
    # --- units: each conversion refuses a bool, a non-real value and an
    # unknown kind.
    "to_planck '1.0'": (lambda: to_planck("1.0", "length"),
        InvalidInputError("quantity value must be a real number, got '1.0'")),
    "to_planck True": (lambda: to_planck(True, "mass"),
        InvalidInputError("quantity value must be a real number, got True")),
    "from_planck '1'": (lambda: from_planck("1", "mass"),
        InvalidInputError("planck value must be a real number, got '1'")),
    "from_planck True": (lambda: from_planck(True, "mass"),
        InvalidInputError("planck value must be a real number, got True")),
    # Any other real number converts, as bounds takes it.
    "to_planck Fraction(3)": (lambda: to_planck(Fraction(3), "mass"), 3.0 / units._M_P),
    "from_planck Fraction(3)": (lambda: from_planck(Fraction(3), "mass"), 3.0 * units._M_P),
    "to_planck kind='speed'": (lambda: to_planck(1.0, "speed"), InvalidInputError(
        "unknown kind of quantity 'speed', expected one of mass, length, time, charge")),
    "from_planck kind='Length'": (lambda: from_planck(1.0, "Length"), InvalidInputError(
        "unknown kind of quantity 'Length', expected one of mass, length, time, charge")),
    "to_planck nan": (lambda: to_planck(math.nan, "time"),
        InvalidInputError("quantity value must be finite, got nan")),
    "to_planck inf": (lambda: to_planck(math.inf, "time"),
        InvalidInputError("quantity value must be finite, got inf")),
    "to_planck -inf": (lambda: to_planck(-math.inf, "time"),
        InvalidInputError("quantity value must be finite, got -inf")),
    "from_planck nan": (lambda: from_planck(math.nan, "length"),
        InvalidInputError("planck value must be finite, got nan")),
    "to_planck 1e300 s": (lambda: to_planck(1e300, "time"),
        NonFiniteError("1e+300 s is not representable in Planck units")),
    "to_planck 0 C": (lambda: to_planck(0.0, "charge"), 0.0),
    "to_planck 2 l_P": (lambda: to_planck(2.0 * units._L_P, "length"), 2.0),
    # An int beyond the double range: its Planck value is beyond it too.
    # One too long for repr is named by its size.
    "to_planck 10**400 kg": (lambda: to_planck(10**400, "mass"),
        NonFiniteError(f"{10**400} kg is not representable in Planck units")),
    "to_planck -10**400 kg": (lambda: to_planck(-10**400, "mass"),
        NonFiniteError(f"{-10**400} kg is not representable in Planck units")),
    "to_planck 10**400 m": (lambda: to_planck(10**400, "length"),
        NonFiniteError(f"{10**400} m is not representable in Planck units")),
    "to_planck -10**400 m": (lambda: to_planck(-10**400, "length"),
        NonFiniteError(f"{-10**400} m is not representable in Planck units")),
    "to_planck 10**400 s": (lambda: to_planck(10**400, "time"),
        NonFiniteError(f"{10**400} s is not representable in Planck units")),
    "to_planck -10**400 s": (lambda: to_planck(-10**400, "time"),
        NonFiniteError(f"{-10**400} s is not representable in Planck units")),
    "to_planck 10**400 C": (lambda: to_planck(10**400, "charge"),
        NonFiniteError(f"{10**400} C is not representable in Planck units")),
    "to_planck -10**400 C": (lambda: to_planck(-10**400, "charge"),
        NonFiniteError(f"{-10**400} C is not representable in Planck units")),
    "to_planck 10**5000 kg": (lambda: to_planck(10**5000, "mass"),
        NonFiniteError("an integer of 16610 bits kg is not representable in Planck units")),
    "from_planck 10**400 mass": (lambda: from_planck(10**400, "mass"),
        InvalidInputError(f"planck value must be finite, got {10**400}")),
    "from_planck -10**400 mass": (lambda: from_planck(-10**400, "mass"),
        InvalidInputError(f"planck value must be finite, got {-10**400}")),
    "from_planck 10**400 length": (lambda: from_planck(10**400, "length"),
        InvalidInputError(f"planck value must be finite, got {10**400}")),
    "from_planck -10**400 length": (lambda: from_planck(-10**400, "length"),
        InvalidInputError(f"planck value must be finite, got {-10**400}")),
    "from_planck 10**400 time": (lambda: from_planck(10**400, "time"),
        InvalidInputError(f"planck value must be finite, got {10**400}")),
    "from_planck -10**400 time": (lambda: from_planck(-10**400, "time"),
        InvalidInputError(f"planck value must be finite, got {-10**400}")),
    "from_planck 10**400 charge": (lambda: from_planck(10**400, "charge"),
        InvalidInputError(f"planck value must be finite, got {10**400}")),
    "from_planck -10**400 charge": (lambda: from_planck(-10**400, "charge"),
        InvalidInputError(f"planck value must be finite, got {-10**400}")),
    # --- scenario
    "ScenarioParams coulomb without q_b": (
        lambda: ScenarioParams(m_a=1.0, d=1.0, r=1000.0, coupling=CouplingKind.COULOMB, q_a=1e3),
        InvalidInputError("coulomb coupling requires q_a and q_b")),
    "ScenarioParams 'coulomb' without charges": (
        lambda: ScenarioParams(m_a=1.0, d=1.0, r=1000.0, coupling="coulomb"),
        InvalidInputError("coulomb coupling requires q_a and q_b")),
    "ScenarioParams coupling='coulom'": (lambda: ScenarioParams(**_COULOMB, coupling="coulom"),
        InvalidInputError("unknown coupling 'coulom'")),
    "ScenarioParams t_a=nan": (lambda: ScenarioParams(m_a=1.0, d=1.0, r=1.0, t_a=math.nan),
        InvalidInputError("time t_a must be finite and nonnegative, got nan")),
    "ScenarioParams t_a<0": (lambda: ScenarioParams(m_a=1.0, d=1.0, r=1.0, t_a=-1.0),
        InvalidInputError("time t_a must be finite and nonnegative, got -1.0")),
    "ScenarioParams t_b=inf": (lambda: ScenarioParams(m_a=1.0, d=1.0, r=1.0, t_b=math.inf),
        InvalidInputError("time t_b must be finite and nonnegative, got inf")),
    "ScenarioParams t_b<0": (lambda: ScenarioParams(m_a=1.0, d=1.0, r=1.0, t_b=-1.0),
        InvalidInputError("time t_b must be finite and nonnegative, got -1.0")),
    # An int beyond the double range is no double, and too long for its repr.
    "ScenarioParams m_a=10**400": (lambda: ScenarioParams(m_a=10**400, d=1.0, r=1.0),
        NonFiniteError("mass m_a is an integer beyond the double range")),
    "ScenarioParams t_a=10**400": (lambda: ScenarioParams(m_a=1.0, d=1.0, r=1.0, t_a=10**400),
        NonFiniteError("time t_a is an integer beyond the double range")),
    # d is checked before r.
    "ScenarioParams d=r=0": (lambda: ScenarioParams(m_a=1.0, d=0.0, r=0.0, t_a=1.0, t_b=1.0),
        InvalidInputError("nonpositive length d = 0.0")),
    "ScenarioParams d=r=-1": (lambda: ScenarioParams(m_a=1.0, d=-1.0, r=-1.0, t_a=1.0, t_b=1.0),
        InvalidInputError("nonpositive length d = -1.0")),
    # Valid charges whose K/m_B underflows: a range error, not a bad mass.
    "ScenarioParams K/m_B underflows": (
        lambda: ScenarioParams(m_a=1.0, d=1.0, r=1000.0, m_b=1e100, coupling="coulomb",
                               q_a=1e-150, q_b=1e-150).effective_source_mass,
        ArithmeticError("K/m_B underflows to zero: K = 1e-300, m_B = 1e+100")),
    "replace_swept r=10**400": (lambda: replace_swept(_P, "r", 10**400),
        NonFiniteError("length r is an integer beyond the double range")),
    # --- bounds.  NaN fails every positivity comparison; +inf passes it,
    # so an overflowed input gives an overflowed result instead of an error.
    "ta_tb_min_one_way r=0": (lambda: bounds.ta_tb_min_one_way(0.0),
        InvalidInputError("nonpositive length r = 0.0")),
    "ta_tb_min_one_way r=nan": (lambda: bounds.ta_tb_min_one_way(math.nan),
        InvalidInputError("non-finite length r = nan")),
    "ta_tb_min_one_way r=inf": (lambda: bounds.ta_tb_min_one_way(math.inf), math.inf),
    "ta_tb_min_one_way r=1": (lambda: bounds.ta_tb_min_one_way(1.0), 1.0),
    "ta_tb_min_round_trip r<0": (lambda: bounds.ta_tb_min_round_trip(-1.0),
        InvalidInputError("nonpositive length r = -1.0")),
    "ta_tb_min_round_trip r=nan": (lambda: bounds.ta_tb_min_round_trip(math.nan),
        InvalidInputError("non-finite length r = nan")),
    "ta_tb_min_round_trip r=10**400": (lambda: bounds.ta_tb_min_round_trip(10**400),
        NonFiniteError("length r is an integer beyond the double range")),
    "ta_tb_min_round_trip r=inf": (lambda: bounds.ta_tb_min_round_trip(math.inf), math.inf),
    "ta_tb_min_round_trip r=1": (lambda: bounds.ta_tb_min_round_trip(1.0), 2.0),
    "differential_force mode='quadrupole'": (lambda: bounds.differential_force(_P, "quadrupole"),
        InvalidInputError("mode must be one of ('approx', 'exact'), got 'quadrupole'")),
    "differential_force approx r**3 overflows": (
        lambda: bounds.differential_force(_R3_OVERFLOWS, "approx"),
        OverflowError(34, "Numerical result out of range")),
    # K*d/r^3.
    "differential_force approx r=100": (lambda: bounds.differential_force(
        ScenarioParams(m_a=1.0, m_b=1.0, d=1.0, r=100.0), "approx"), 1e-6),
    "displacement_shift m_b=0": (lambda: bounds.displacement_shift(1.0, 0.0, 1.0),
        InvalidInputError("nonpositive mass m_b = 0.0")),
    "displacement_shift t<0": (lambda: bounds.displacement_shift(1.0, 1.0, -1.0),
        InvalidInputError("time t must be finite and nonnegative, got -1.0")),
    "displacement_shift t=inf": (lambda: bounds.displacement_shift(1.0, 1.0, math.inf),
        InvalidInputError("time t must be finite and nonnegative, got inf")),
    "displacement_shift force<0": (lambda: bounds.displacement_shift(-1.0, 1.0, 1.0),
        InvalidInputError("force delta_f must be finite and nonnegative, got -1.0")),
    "displacement_shift force=nan": (lambda: bounds.displacement_shift(math.nan, 1.0, 1.0),
        InvalidInputError("force delta_f must be finite and nonnegative, got nan")),
    "displacement_shift m_b=nan": (lambda: bounds.displacement_shift(1.0, math.nan, 1.0),
        InvalidInputError("non-finite mass m_b = nan")),
    "displacement_shift m_b=10**400": (lambda: bounds.displacement_shift(1.0, 10**400, 1.0),
        NonFiniteError("mass m_b is an integer beyond the double range")),
    # delta_f*t^2/(2*m_b).
    "displacement_shift t=0": (lambda: bounds.displacement_shift(2.0, 1.0, 0.0), 0.0),
    "displacement_shift t=1": (lambda: bounds.displacement_shift(2.0, 1.0, 1.0), 1.0),
    "tb_displacement coulomb without delta_x_min": (
        lambda: bounds.tb_displacement(ScenarioParams(m_a=1.0, d=1.0, r=1e4, coupling="coulomb",
                                                      q_a=10.0, q_b=10.0)),
        InvalidInputError("coulomb displacement bounds require an explicit delta_x_min")),
    "tb_displacement R^3 underflows": (lambda: bounds.tb_displacement(_R3_UNDERFLOWS),
        ArithmeticError("an intermediate step of tb_displacement underflowed to zero")),
    "tb_displacement R^3 underflows, m_b=1e-100": (
        lambda: bounds.tb_displacement(_R3_UNDERFLOWS_LIGHT_B),
        ArithmeticError("an intermediate step of tb_displacement underflowed to zero")),
    "tb_displacement r**3 overflows": (lambda: bounds.tb_displacement(_R3_OVERFLOWS),
        OverflowError(34, "Numerical result out of range")),
    # sqrt(2*slack*dx_min*r^3/(m_a*d)): the light time r/c at r = d and m_a = 2.
    "tb_displacement m_a=2, r=d": (lambda: bounds.tb_displacement(
        ScenarioParams(m_a=2.0, d=5.0, r=5.0, override_geometry=True)), 5.0),
    "tb_eta m_a=0": (lambda: bounds.tb_eta(0.5, 0.0, 1.0),
        InvalidInputError("nonpositive mass m_a = 0.0")),
    "tb_eta m_a=nan": (lambda: bounds.tb_eta(0.5, math.nan, 1.0),
        InvalidInputError("non-finite mass m_a = nan")),
    "tb_eta eta=0": (lambda: bounds.tb_eta(0.0, 1.0, 1.0),
        InvalidInputError("eta must lie in the open interval (0, 1), got 0.0")),
    "tb_eta eta=1": (lambda: bounds.tb_eta(1.0, 1.0, 1.0),
        InvalidInputError("eta must lie in the open interval (0, 1), got 1.0")),
    "tb_eta eta<0": (lambda: bounds.tb_eta(-0.5, 1.0, 1.0),
        InvalidInputError("eta must lie in the open interval (0, 1), got -0.5")),
    "tb_eta eta>1": (lambda: bounds.tb_eta(1.5, 1.0, 1.0),
        InvalidInputError("eta must lie in the open interval (0, 1), got 1.5")),
    # An int too long for repr is named by its size.
    "tb_eta eta=10**5000": (lambda: bounds.tb_eta(10**5000, 1.0, 1.0), InvalidInputError(
        "eta must lie in the open interval (0, 1), got an integer of 16610 bits")),
    "tb_eta eta=1e-9": (lambda: bounds.tb_eta(1e-9, 1.0, 1.0), 4.000000000000001e-27),
    # 4*eta^3*m_a*d and 4*eta^2*(1 - eta)*m_a*d: 32/27 and 16/27 to within
    # an ulp, since eta = 2/3 is itself rounded.
    "tb_eta eta=2/3": (lambda: bounds.tb_eta(2.0 / 3.0, 1.0, 1.0), 1.185185185185185),
    "tb_eta d=inf": (lambda: bounds.tb_eta(0.5, 1.0, math.inf), math.inf),
    "ta_lower_bound d<0": (lambda: bounds.ta_lower_bound(0.5, 1.0, -1.0),
        InvalidInputError("nonpositive length d = -1.0")),
    "ta_lower_bound d=nan": (lambda: bounds.ta_lower_bound(0.5, 1.0, math.nan),
        InvalidInputError("non-finite length d = nan")),
    "ta_lower_bound eta=2/3": (lambda: bounds.ta_lower_bound(2.0 / 3.0, 1.0, 1.0),
        0.5925925925925927),
    "ta_lower_bound eta=1/2": (lambda: bounds.ta_lower_bound(0.5, 1.0, 1.0), 0.5),
    "r_implied m_a=nan": (lambda: bounds.r_implied(0.5, math.nan, 1.0),
        InvalidInputError("non-finite mass m_a = nan")),
    "eta_row d=nan": (lambda: bounds.eta_row(0.5, 1.0, math.nan),
        InvalidInputError("non-finite length d = nan")),
    "eta_row m_a=inf": (lambda: bounds.eta_row(0.5, math.inf, 1.0), (math.inf,) * 4),
    "eta_series m_a=10**400": (lambda: list(bounds.eta_series(10**400, 1.0, [0.5])),
        NonFiniteError("mass m_a is an integer beyond the double range")),
    "ta_min_round_trip m_a=0": (lambda: bounds.ta_min_round_trip(0.0, 1.0),
        InvalidInputError("nonpositive mass m_a = 0.0")),
    "ta_min_round_trip d=0": (lambda: bounds.ta_min_round_trip(1.0, 0.0),
        InvalidInputError("nonpositive length d = 0.0")),
    "ta_min_round_trip m_a=nan": (lambda: bounds.ta_min_round_trip(math.nan, 1.0),
        InvalidInputError("non-finite mass m_a = nan")),
    "ta_min_round_trip m_a=-10**400": (lambda: bounds.ta_min_round_trip(-10**400, 1.0),
        NonFiniteError("mass m_a is an integer beyond the double range")),
    "ta_min_round_trip m_a=10**400": (lambda: bounds.ta_min_round_trip(10**400, 1.0),
        NonFiniteError("mass m_a is an integer beyond the double range")),
    # (16/27)*m_a*d, and an eighth of it one way.
    "ta_min_round_trip m_a=d=1": (lambda: bounds.ta_min_round_trip(1.0, 1.0), 16.0 / 27.0),
    "ta_min_round_trip m_a=27": (lambda: bounds.ta_min_round_trip(27.0, 1.0), 16.0),
    "ta_min_one_way d=nan": (lambda: bounds.ta_min_one_way(1.0, math.nan),
        InvalidInputError("non-finite length d = nan")),
    "ta_min_one_way d=10**400": (lambda: bounds.ta_min_one_way(1.0, 10**400),
        NonFiniteError("length d is an integer beyond the double range")),
    "ta_min_one_way m_a=inf": (lambda: bounds.ta_min_one_way(math.inf, 1.0), math.inf),
    "ta_min_one_way m_a=d=1": (lambda: bounds.ta_min_one_way(1.0, 1.0), 2.0 / 27.0),
    "ta_min_one_way m_a=27": (lambda: bounds.ta_min_one_way(27.0, 1.0), 2.0),
    "r_max_displacement m_a<0": (lambda: bounds.r_max_displacement(-1.0, 1.0),
        InvalidInputError("nonpositive mass m_a = -1.0")),
    "r_max_displacement d=0": (lambda: bounds.r_max_displacement(1.0, 0.0),
        InvalidInputError("nonpositive length d = 0.0")),
    "r_max_displacement d=nan": (lambda: bounds.r_max_displacement(1.0, math.nan),
        InvalidInputError("non-finite length d = nan")),
    "r_max_displacement m_a=10**400": (lambda: bounds.r_max_displacement(10**400, 1.0),
        NonFiniteError("mass m_a is an integer beyond the double range")),
    "r_max_displacement d=inf": (lambda: bounds.r_max_displacement(1.0, math.inf), math.inf),
    # m_a*d/2.
    "r_max_displacement m_a=200": (lambda: bounds.r_max_displacement(200.0, 1.0), 100.0),
    "r_max_displacement m_a=200, d=3": (lambda: bounds.r_max_displacement(200.0, 3.0), 300.0),
    "phase_difference t<0": (lambda: bounds.phase_difference(_P, -1.0),
        InvalidInputError("time t must be finite and nonnegative, got -1.0")),
    "phase_difference t=nan": (lambda: bounds.phase_difference(_P, math.nan, "approx"),
        InvalidInputError("time t must be finite and nonnegative, got nan")),
    "phase_difference mode='quadrupole'": (lambda: bounds.phase_difference(_P, 1.0, "quadrupole"),
        InvalidInputError("mode must be one of ('approx', 'exact'), got 'quadrupole'")),
    "phase_difference K underflows": (lambda: bounds.phase_difference(_K_UNDERFLOWS, 1e308),
        ArithmeticError("an intermediate step of phase_difference underflowed to zero")),
    "phase_difference approx K underflows": (
        lambda: bounds.phase_difference(_K_UNDERFLOWS, 1e308, "approx"),
        ArithmeticError("an intermediate step of phase_difference underflowed to zero")),
    "phase_difference K underflows, t=0": (
        lambda: bounds.phase_difference(_K_UNDERFLOWS, 0.0), 0.0),
    "phase_difference approx K underflows, t=0": (
        lambda: bounds.phase_difference(_K_UNDERFLOWS, 0.0, "approx"), 0.0),
    "phase_difference approx r**2 overflows": (
        lambda: bounds.phase_difference(_R2_OVERFLOWS, 1.0, "approx"),
        OverflowError(34, "Numerical result out of range")),
    "tb_phase mode='quadrupole'": (lambda: bounds.tb_phase(_P, "quadrupole"),
        InvalidInputError("mode must be one of ('approx', 'exact'), got 'quadrupole'")),
    # The mode is checked before the geometry.
    "tb_phase mode='quadrupole', r/d=10": (lambda: bounds.tb_phase(_NEAR_FIELD, "quadrupole"),
        InvalidInputError("mode must be one of ('approx', 'exact'), got 'quadrupole'")),
    "tb_phase approx r**2 overflows": (lambda: bounds.tb_phase(_R2_OVERFLOWS, "approx"),
        OverflowError(34, "Numerical result out of range")),
    # K*d underflows to a zero divisor.
    "tb_phase K*d underflows": (
        lambda: bounds.tb_phase(ScenarioParams(m_a=1e-200, d=1e-200, r=1.0)),
        ZeroDivisionError("float division by zero")),
    "r_max_phase m_a=0": (lambda: bounds.r_max_phase(0.0, 1.0, 1.0),
        InvalidInputError("nonpositive mass m_a = 0.0")),
    "r_max_phase m_b<0": (lambda: bounds.r_max_phase(1.0, -1.0, 1.0),
        InvalidInputError("nonpositive mass m_b = -1.0")),
    "r_max_phase d=0": (lambda: bounds.r_max_phase(1.0, 1.0, 0.0),
        InvalidInputError("nonpositive length d = 0.0")),
    "r_max_phase m_b=nan": (lambda: bounds.r_max_phase(1.0, math.nan, 1.0),
        InvalidInputError("non-finite mass m_b = nan")),
    "r_max_phase m_a=10**400": (lambda: bounds.r_max_phase(10**400, 1.0, 1.0),
        NonFiniteError("mass m_a is an integer beyond the double range")),
    "r_max_phase m_b=inf": (lambda: bounds.r_max_phase(1.0, math.inf, 1.0), math.inf),
    # m_a*m_b underflows, so this form cannot reach the true 3.18e-101.
    "r_max_phase m_a*m_b underflows": (lambda: bounds.r_max_phase(1e-200, 1e-200, 1e300),
        ArithmeticError("an intermediate step of r_max_phase underflowed to zero")),
    "report_values R^3 underflows": (lambda: bounds.report_values(_R3_UNDERFLOWS, "displacement"),
        ArithmeticError("an intermediate step of tb_displacement underflowed to zero")),
    "report_values R^3 underflows, m_b=1e-100": (
        lambda: bounds.report_values(_R3_UNDERFLOWS_LIGHT_B, "displacement"),
        ArithmeticError("an intermediate step of tb_displacement underflowed to zero")),
    "report_series r=-10**400": (
        lambda: list(bounds.report_series(_P, "both", 1.0, "r", [1e6, -10**400])[1]),
        NonFiniteError("length r is an integer beyond the double range")),
    "report_series r=10**400": (
        lambda: list(bounds.report_series(_P, "both", 1.0, "r", [1e9, 10**400])[1]),
        NonFiniteError("length r is an integer beyond the double range")),
    "report_series m_a=10**400": (
        lambda: list(bounds.report_series(_P, "both", 1.0, "m_a", [1e9, 10**400])[1]),
        NonFiniteError("mass m_a is an integer beyond the double range")),
    "report_provenance coupling='foo'": (lambda: bounds.report_provenance("foo"),
        InvalidInputError("unknown coupling 'foo'")),
    "feasibility_report phase slack=nan": (
        lambda: bounds.feasibility_report(_NEAR, "phase", slack=math.nan),
        InvalidInputError("slack must be finite and positive, got nan")),
    "feasibility_report model='everything'": (
        lambda: bounds.feasibility_report(_NEAR, "everything"),
        InvalidInputError("model must be displacement, phase, or both, got 'everything'")),
    "feasibility_report coulomb without delta_x_min": (
        lambda: bounds.feasibility_report(ScenarioParams(
            m_a=1.0, m_b=1.0, d=10.0, r=2000.0, coupling="coulomb", q_a=1e3, q_b=1e3), "both"),
        InvalidInputError("coulomb displacement bounds require an explicit delta_x_min")),
    "feasibility_report field tb_nope": (lambda: bounds.feasibility_report(_P).tb_nope,
        AttributeError("'BoundsReport' object has no attribute 'tb_nope'")),
    # --- causal.  Times are checked as phase_difference checks its own.
    "build_timeline without durations": (lambda: causal.build_timeline(_UNIT),
        InvalidInputError("timeline needs t_a and t_b on the scenario")),
    "check_no_signalling without durations": (lambda: causal.check_no_signalling(_UNIT),
        InvalidInputError("timeline needs t_a and t_b on the scenario")),
    "check_no_signalling t_a+t_b>2r": (lambda: causal.check_no_signalling(
        ScenarioParams(m_a=1.0, d=1.0, r=1.0, t_a=1.5, t_b=0.6)),
        causal.CausalVerdict(True, 0.10000000000000009, "T_A + T_B = 2.1 t_P exceeds the "
            "round-trip light time 2R/c = 2.0 t_P (margin 0.10000000000000009 t_P)")),
    "meets_one_way_bound r=0": (lambda: causal.meets_one_way_bound(1.0, 1.0, 0.0),
        InvalidInputError("nonpositive length r = 0.0")),
    "meets_one_way_bound r<0": (lambda: causal.meets_one_way_bound(1.0, 1.0, -1.0),
        InvalidInputError("nonpositive length r = -1.0")),
    "meets_one_way_bound r=nan": (lambda: causal.meets_one_way_bound(1.0, 1.0, math.nan),
        InvalidInputError("non-finite length r = nan")),
    "meets_one_way_bound t_a=nan": (lambda: causal.meets_one_way_bound(math.nan, 1.0, 1.0),
        InvalidInputError("time t_a must be finite and nonnegative, got nan")),
    "meets_one_way_bound t_a=10**400": (lambda: causal.meets_one_way_bound(10**400, 1.0, 1.0),
        NonFiniteError("time t_a is an integer beyond the double range")),
    "meets_one_way_bound r=inf": (lambda: causal.meets_one_way_bound(1.0, 1.0, math.inf), False),
    "backreaction_free r=0": (lambda: causal.backreaction_free(1.0, 0.0),
        InvalidInputError("nonpositive length r = 0.0")),
    "backreaction_free r=nan": (lambda: causal.backreaction_free(1.0, math.nan),
        InvalidInputError("non-finite length r = nan")),
    "backreaction_free t_b<0": (lambda: causal.backreaction_free(-5.0, 1.0),
        InvalidInputError("time t_b must be finite and nonnegative, got -5.0")),
    # Strict: a probe that takes exactly R/c is not back-reaction free.
    "backreaction_free t_b<r": (lambda: causal.backreaction_free(0.99, 1.0), True),
    "backreaction_free t_b=r": (lambda: causal.backreaction_free(1.0, 1.0), False),
    "backreaction_free t_b>r": (lambda: causal.backreaction_free(2.0, 1.0), False),
    "backreaction_free r=inf": (lambda: causal.backreaction_free(1.0, math.inf), True),
    # --- dynamics: it checks as bounds does.  An int beyond the double
    # range is named, or refused as a non-finite force or state field.
    "GaussianState mean_x=10**400": (lambda: GaussianState(10**400, 0.0, ((1.0, 0.0), (0.0, 1.0))),
        NonFiniteError("state fields must be finite")),
    "GaussianState cov_xx=10**400": (lambda: GaussianState(0.0, 0.0, ((10**400, 0.0), (0.0, 1.0))),
        NonFiniteError("state fields must be finite")),
    "GaussianState cov=nan": (lambda: GaussianState(0.0, 0.0, [[1.0, math.nan], [math.nan, 1.0]]),
        NonFiniteError("state fields must be finite")),
    "GaussianState ragged cov": (lambda: GaussianState(0.0, 0.0, [[1.0, 0.0], [0.0]]),
        InvalidInputError("covariance must be a 2x2 array of numbers, got [[1.0, 0.0], [0.0]]")),
    "GaussianState flat cov": (lambda: GaussianState(0.0, 0.0, [1.0, 0.0, 0.0, 1.0]),
        InvalidInputError("covariance must be a 2x2 array of numbers, got [1.0, 0.0, 0.0, 1.0]")),
    "GaussianState cov=1.0": (lambda: GaussianState(0.0, 0.0, 1.0),
        InvalidInputError("covariance must be a 2x2 array of numbers, got 1.0")),
    "GaussianState cov of a str": (lambda: GaussianState(0.0, 0.0, [["a", 0.0], [0.0, 1.0]]),
        InvalidInputError(
            "covariance must be a 2x2 array of numbers, got [['a', 0.0], [0.0, 1.0]]")),
    "GaussianState cov of a complex": (lambda: GaussianState(0.0, 0.0, [[1.0, 0.0], [0.0, 1j]]),
        InvalidInputError(
            "covariance must be a 2x2 array of numbers, got [[1.0, 0.0], [0.0, 1j]]")),
    "GaussianState asymmetric cov": (lambda: GaussianState(0.0, 0.0, ((1.0, 0.5), (0.0, 1.0))),
        InvalidInputError("covariance must be symmetric")),
    "GaussianState indefinite cov": (lambda: GaussianState(0.0, 0.0, ((1.0, 0.0), (0.0, -1.0))),
        InvalidInputError("covariance must be positive definite")),
    "GaussianState cov below the uncertainty floor": (
        lambda: GaussianState(0.0, 0.0, ((0.1, 0.0), (0.0, 0.1))),
        InvalidInputError(
            "covariance violates the uncertainty floor: det = 0.010000000000000002 < 1/4")),
    "ground_state m=0": (lambda: dynamics.ground_state(0.0, 1.0),
        InvalidInputError("nonpositive mass m = 0.0")),
    "ground_state omega<0": (lambda: dynamics.ground_state(1.0, -1.0),
        InvalidInputError("nonpositive frequency omega = -1.0")),
    "ground_state m=10**400": (lambda: dynamics.ground_state(10**400, 1.0),
        NonFiniteError("mass m is an integer beyond the double range")),
    "ground_state omega=10**400": (lambda: dynamics.ground_state(1.0, 10**400),
        NonFiniteError("frequency omega is an integer beyond the double range")),
    # The minimum uncertainty state: det(cov) = 1/4.
    "ground_state m=omega=1": (lambda: dynamics.ground_state(1.0, 1.0),
        GaussianState(0.0, 0.0, ((0.5, 0.0), (0.0, 0.5)), 0.0)),
    # +inf passes the positivity checks, but a ground state of infinite mass
    # has an infinite momentum width: a non-finite state, not an invalid input.
    "ground_state m=inf": (lambda: dynamics.ground_state(math.inf, 1.0),
        NonFiniteError("state fields must be finite")),
    "ground_state_with_width m=0": (lambda: dynamics.ground_state_with_width(0.0, 1.0),
        InvalidInputError("nonpositive mass m = 0.0")),
    "ground_state_with_width sigma_x=10**400": (
        lambda: dynamics.ground_state_with_width(1.0, 10**400),
        NonFiniteError("width sigma_x is an integer beyond the double range")),
    "ground_state_with_width m=10**400": (lambda: dynamics.ground_state_with_width(10**400, 1.0),
        NonFiniteError("mass m is an integer beyond the double range")),
    "ground_state_with_width 2*m*sigma_x^2 overflows": (
        lambda: dynamics.ground_state_with_width(1e200, 1e60),
        NonFiniteError("2*m*sigma_x^2 overflows at m = 1e+200, sigma_x = 1e+60")),
    "evolve_constant_force m=0": (lambda: dynamics.evolve_constant_force(_GROUND, 1.0, 0.0, 1.0),
        InvalidInputError("nonpositive mass m = 0.0")),
    "evolve_constant_force t<0": (lambda: dynamics.evolve_constant_force(_GROUND, 0.0, 1.0, -0.1),
        InvalidInputError("time t must be finite and nonnegative, got -0.1")),
    "evolve_constant_force t=10**400": (
        lambda: dynamics.evolve_constant_force(_GROUND, 1.0, 1.0, 10**400),
        NonFiniteError("time t is an integer beyond the double range")),
    "evolve_constant_force m=10**400": (
        lambda: dynamics.evolve_constant_force(_GROUND, 1.0, 10**400, 1.0),
        NonFiniteError("mass m is an integer beyond the double range")),
    "evolve_constant_force force=10**400": (
        lambda: dynamics.evolve_constant_force(_GROUND, 10**400, 1.0, 1.0),
        NonFiniteError(f"force must be finite, got {10**400}")),
    "evolve_constant_force force=-10**5000": (
        lambda: dynamics.evolve_constant_force(_GROUND, -10**5000, 1.0, 1.0),
        NonFiniteError("force must be finite, got an integer of 16610 bits")),
    # tau = t/m = 2e-191, so tau*tau underflows to zero where tau*spp =
    # 4.4e97 does not: an arithmetic error, not an invalid input.
    "evolve_constant_force rounding invalidates the state": (lambda: dynamics.evolve_constant_force(
            dynamics.ground_state_with_width(6.05e204, 3.43769e-145), 0.0, 6.05e204, 1.2496e14),
        ArithmeticError(
            "rounding made the evolved state invalid: covariance must be positive definite")),
    "evolve_constant_force t=0": (lambda: dynamics.evolve_constant_force(_GROUND, 0.0, 1.0, 0.0),
        GaussianState(0.0, 0.0, ((0.5, 0.0), (0.0, 0.5)), 0.0)),
    # mean_x = F*t^2/(2m) and mean_p = F*t.
    "evolve_constant_force m=2, force=3, t=1.5": (
        lambda: dynamics.evolve_constant_force(dynamics.ground_state(2.0, 1.0), 3.0, 2.0, 1.5),
        GaussianState(1.6875, 4.5, ((0.8125, 0.75), (0.75, 1.0)), 5.0625)),
    # An infinite mass only stops the free spreading.
    "evolve_constant_force m=inf": (
        lambda: dynamics.evolve_constant_force(_GROUND, 1.0, math.inf, 1.0),
        GaussianState(0.0, 1.0, ((0.5, 0.0), (0.0, 0.5)), 0.0)),
    "overlap of a mixed state": (
        lambda: dynamics.overlap(GaussianState(0.0, 0.0, ((1.0, 0.0), (0.0, 1.0))), _GROUND),
        InvalidInputError("overlap is defined for pure states (det cov = 1/4), got det = 1.0")),
    "displacement_branches sigma0=0": (lambda: dynamics.displacement_branches(_P, 0.0, 1.0),
        InvalidInputError("nonpositive width sigma_x = 0.0")),
    "displacement_branches width checked before forces": (
        lambda: dynamics.displacement_branches(_TINY, -1.0, 1.0),
        InvalidInputError("nonpositive width sigma_x = -1.0")),
    "displacement_branches t=10**400": (lambda: dynamics.displacement_branches(_FAR, 1.0, 10**400),
        NonFiniteError("time t is an integer beyond the double range")),
    "displacement_series sigma0=10**400": (
        lambda: dynamics.displacement_series(_FAR, 10**400, [1.0]),
        NonFiniteError("width sigma_x is an integer beyond the double range")),
    "displacement_series row t=10**400": (
        lambda: list(dynamics.displacement_series(_FAR, 1.0, [10**400])),
        NonFiniteError("time t is an integer beyond the double range")),
    "orthogonalization_time sigma0=10**400": (
        lambda: dynamics.orthogonalization_time(_FAR, 10**400),
        NonFiniteError("width sigma_x is an integer beyond the double range")),
    "orthogonalization_time eps=0": (lambda: dynamics.orthogonalization_time(_FAR, 1.0, 0.0),
        InvalidInputError("eps must lie in (0, 1), got 0.0")),
    "orthogonalization_time eps=1": (lambda: dynamics.orthogonalization_time(_FAR, 1.0, 1.0),
        InvalidInputError("eps must lie in (0, 1), got 1.0")),
    "orthogonalization_time eps<0": (lambda: dynamics.orthogonalization_time(_FAR, 1.0, -0.2),
        InvalidInputError("eps must lie in (0, 1), got -0.2")),
    "orthogonalization_time eps>1": (lambda: dynamics.orthogonalization_time(_FAR, 1.0, 2.0),
        InvalidInputError("eps must lie in (0, 1), got 2.0")),
    "orthogonalization_time eps=-10**5000": (
        lambda: dynamics.orthogonalization_time(_FAR, 1.0, -10**5000),
        InvalidInputError("eps must lie in (0, 1), got an integer of 16610 bits")),
    # Coupling so weak that the overlap stays near one out to t = 1e6 R/c.
    "orthogonalization_time no crossing": (lambda: dynamics.orthogonalization_time(
            ScenarioParams(m_a=1.0, d=1.0, r=1e12, override_geometry=True), 1.0, 0.01),
        ConvergenceError("branch overlap stayed above eps = 0.01 up to t = 1e6*R/c")),
    "phase_evolution t<0": (lambda: dynamics.phase_evolution(_P10, -1.0),
        InvalidInputError("time t must be finite and nonnegative, got -1.0")),
    "phase_evolution t=nan": (lambda: dynamics.phase_evolution(_P, math.nan),
        InvalidInputError("time t must be finite and nonnegative, got nan")),
    "phase_evolution t=10**400": (lambda: dynamics.phase_evolution(_P, 10**400),
        NonFiniteError("time t is an integer beyond the double range")),
    "phase_evolution t=0": (lambda: dynamics.phase_evolution(_P10, 0.0),
        dynamics.PhaseBranchPair(0.0, 1.0)),
    "phase_series r/d=10": (lambda: dynamics.phase_series(_NEAR_FIELD, []),
        GeometryError("far-field formulas need r/d >= 100.0, got r/d = 10.0; "
                      "set override_geometry to evaluate anyway")),
    "phase_series row t=10**400": (lambda: list(dynamics.phase_series(_FAR, [10**400])),
        NonFiniteError("time t is an integer beyond the double range")),
}


def _outcome(fn, **kwargs):
    """fn(**kwargs) as its type and repr, or the type and message it raises."""
    try:
        x = fn(**kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return type(x), repr(x)


@pytest.mark.parametrize("name", LIBRARY_CASES)
def test_library_case_gives_its_pinned_outcome(name):
    call, outcome = LIBRARY_CASES[name]
    shown = str(outcome) if isinstance(outcome, Exception) else repr(outcome)
    assert _outcome(call) == (type(outcome), shown)


def test_library_cases_cover_every_public_callable_and_outcome():
    # causally_precedes orders two events and checks nothing; the plain
    # records are no functions.
    callables = {name for module in (units, scenario, bounds, causal, dynamics)
                 for name, fn in vars(module).items() if inspect.isfunction(fn)
                 and fn.__module__ == module.__name__ and not name.startswith("_")}
    callables = callables - {"causally_precedes"} | {"ScenarioParams", "GaussianState"}
    assert {name.split()[0] for name in LIBRARY_CASES} == callables
    outcomes = {type(outcome) if isinstance(outcome, Exception) else "a value"
                for _, outcome in LIBRARY_CASES.values()}
    assert {InvalidInputError, NonFiniteError, GeometryError, ConvergenceError, ArithmeticError,
            OverflowError, ZeroDivisionError, "a value"} <= outcomes


# Calls whose one argument named by the ScenarioParams field is v.
_FIELD_CHECKS = [
    ("m_a", lambda v: bounds.ta_min_round_trip(v, 1.0)),
    ("m_b", lambda v: bounds.r_max_phase(1.0, v, 1.0)),
    ("d", lambda v: bounds.r_max_displacement(1.0, v)),
    ("r", lambda v: causal.backreaction_free(1.0, v)),
]


@pytest.mark.parametrize("field, call", _FIELD_CHECKS, ids=[f for f, _ in _FIELD_CHECKS])
@pytest.mark.parametrize("value", [0.0, -0.0, -1.0, -math.inf, math.nan])
def test_positivity_check_words_its_error_as_scenario_params(field, call, value):
    with pytest.raises(InvalidInputError) as expected:
        ScenarioParams(**{**dict(m_a=1.0, d=1.0, r=1.0), field: value})
    with pytest.raises(InvalidInputError) as got:
        call(value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, 10**400, -10**400])
def test_a_scenario_time_is_checked_as_a_library_time(value):
    with pytest.raises(InvalidInputError) as expected:
        causal.backreaction_free(value, 1.0)
    with pytest.raises(InvalidInputError) as got:
        ScenarioParams(m_a=1.0, d=1.0, r=1.0, t_b=value)
    assert str(got.value) == str(expected.value)
    if isinstance(value, float):
        assert str(got.value) == f"time t_b must be finite and nonnegative, got {value!r}"


# Every public scalar function of bounds and causal, with one valid call
# whose arguments are all numeric.
_SCALAR_CALLS = {
    "ta_tb_min_one_way": (bounds.ta_tb_min_one_way, dict(r=3.0)),
    "ta_tb_min_round_trip": (bounds.ta_tb_min_round_trip, dict(r=3.0)),
    "displacement_shift": (bounds.displacement_shift, dict(delta_f=3.0, m_b=5.0, t=7.0)),
    "tb_displacement": (lambda slack: bounds.tb_displacement(_P, slack), dict(slack=3.0)),
    "tb_eta": (bounds.tb_eta, dict(eta=0.5, m_a=3.0, d=5.0)),
    "ta_lower_bound": (bounds.ta_lower_bound, dict(eta=0.5, m_a=3.0, d=5.0)),
    "r_implied": (bounds.r_implied, dict(eta=0.5, m_a=3.0, d=5.0)),
    "eta_row": (bounds.eta_row, dict(eta=0.5, m_a=3.0, d=5.0)),
    "ta_min_round_trip": (bounds.ta_min_round_trip, dict(m_a=3.0, d=5.0)),
    "ta_min_one_way": (bounds.ta_min_one_way, dict(m_a=3.0, d=5.0)),
    "r_max_displacement": (bounds.r_max_displacement, dict(m_a=3.0, d=5.0, slack=7.0)),
    "phase_difference": (lambda t: bounds.phase_difference(_P, t), dict(t=3.0)),
    "r_max_phase": (bounds.r_max_phase, dict(m_a=3.0, m_b=5.0, d=7.0)),
    "meets_one_way_bound": (causal.meets_one_way_bound, dict(t_a=3.0, t_b=5.0, r=7.0)),
    "backreaction_free": (causal.backreaction_free, dict(t_b=3.0, r=5.0)),
}
_ARGUMENTS = [(name, arg) for name, (_, valid) in _SCALAR_CALLS.items() for arg in valid]


@pytest.mark.parametrize("name, arg", _ARGUMENTS, ids=[f"{n} {a}" for n, a in _ARGUMENTS])
@pytest.mark.parametrize("bad", [math.nan, -1.0, 10**400, -10**5000],
                         ids=["nan", "-1.0", "10**400", "-10**5000"])
def test_a_bad_numeric_argument_raises_invalid_input(name, arg, bad):
    fn, valid = _SCALAR_CALLS[name]
    assert not issubclass(_outcome(fn, **valid)[0], Exception)
    with pytest.raises(InvalidInputError):
        fn(**{**valid, arg: bad})


@pytest.mark.parametrize("name", _SCALAR_CALLS)
@pytest.mark.parametrize("n", [3, 10**200, 2**1023], ids=["3", "10**200", "2**1023"])
def test_int_arguments_compute_as_the_floats_they_convert_to(name, n):
    # Each argument that an int can hold in turn, then all of them at once:
    # r_max_phase(10**200, 10**200, 10**200) is inf, as with floats.
    fn, valid = _SCALAR_CALLS[name]
    args = [arg for arg in valid if arg != "eta"]
    for ints in [[arg] for arg in args] + [args]:
        as_ints = {**valid, **{arg: n for arg in ints}}
        as_floats = {**valid, **{arg: float(n) for arg in ints}}
        assert _outcome(fn, **as_ints) == _outcome(fn, **as_floats), ints


def test_string_coupling_gives_the_enum_report():
    by_name = ScenarioParams(**_COULOMB, coupling="coulomb")
    by_enum = ScenarioParams(**_COULOMB, coupling=CouplingKind.COULOMB)
    assert by_name.coupling is CouplingKind.COULOMB
    assert by_name.pair_coupling == 1e6
    assert replace_swept(by_name, "r", 2e3).coupling is CouplingKind.COULOMB
    assert bounds.feasibility_report(by_name) == bounds.feasibility_report(by_enum)
    assert ScenarioParams(m_a=2.0, d=1.0, r=1e3, coupling="gravity").pair_coupling == 2.0

"""Every library argument check raises its documented error.

One row per check: the call that trips it and the exception it must raise.
The rows cover the checks that no other test reaches.
"""

import math

import pytest

from interferobounds import bounds, causal, dynamics
from interferobounds.errors import InvalidInputError, NonFiniteError
from interferobounds.scenario import CouplingKind, ScenarioParams, replace_swept
from interferobounds.units import from_planck, to_planck

_P = ScenarioParams(m_a=1.0, d=1.0, r=1000.0)
# r*r underflows to zero, so a force computed before the width check divides by zero.
_TINY = ScenarioParams(m_a=1.0, d=1e-200, r=1e-200)
_COULOMB = dict(m_a=1.0, d=1.0, r=1000.0, q_a=1e3, q_b=1e3, delta_x_min=1.0)

_CHECKS = {
    "displacement_shift m_b": lambda: bounds.displacement_shift(1.0, 0.0, 1.0),
    "displacement_shift t<0": lambda: bounds.displacement_shift(1.0, 1.0, -1.0),
    "displacement_shift t=inf": lambda: bounds.displacement_shift(1.0, 1.0, math.inf),
    "displacement_shift force<0": lambda: bounds.displacement_shift(-1.0, 1.0, 1.0),
    "displacement_shift force=nan": lambda: bounds.displacement_shift(math.nan, 1.0, 1.0),
    "eta m_a": lambda: bounds.tb_eta(0.5, 0.0, 1.0),
    "eta d": lambda: bounds.ta_lower_bound(0.5, 1.0, -1.0),
    "ta_min_round_trip m_a": lambda: bounds.ta_min_round_trip(0.0, 1.0),
    "ta_min_round_trip d": lambda: bounds.ta_min_round_trip(1.0, 0.0),
    "r_max_displacement m_a": lambda: bounds.r_max_displacement(-1.0, 1.0),
    "r_max_displacement d": lambda: bounds.r_max_displacement(1.0, 0.0),
    "r_max_phase m_a": lambda: bounds.r_max_phase(0.0, 1.0, 1.0),
    "r_max_phase m_b": lambda: bounds.r_max_phase(1.0, -1.0, 1.0),
    "r_max_phase d": lambda: bounds.r_max_phase(1.0, 1.0, 0.0),
    "phase_difference t<0": lambda: bounds.phase_difference(_P, -1.0),
    "phase_difference t=nan": lambda: bounds.phase_difference(_P, math.nan, "approx"),
    "displacement_branches sigma0=0": lambda: dynamics.displacement_branches(_P, 0.0, 1.0),
    "width checked before forces": lambda: dynamics.displacement_branches(_TINY, -1.0, 1.0),
    "evolve_constant_force m": lambda: dynamics.evolve_constant_force(
        dynamics.ground_state(1.0, 1.0), 1.0, 0.0, 1.0),
    "phase_evolution t=nan": lambda: dynamics.phase_evolution(_P, math.nan),
    "meets_one_way_bound r=0": lambda: causal.meets_one_way_bound(1.0, 1.0, 0.0),
    "meets_one_way_bound r<0": lambda: causal.meets_one_way_bound(1.0, 1.0, -1.0),
    # NaN fails every positivity comparison.
    "ta_tb_min_one_way r=nan": lambda: bounds.ta_tb_min_one_way(math.nan),
    "ta_tb_min_round_trip r=nan": lambda: bounds.ta_tb_min_round_trip(math.nan),
    "displacement_shift m_b=nan": lambda: bounds.displacement_shift(1.0, math.nan, 1.0),
    "tb_eta m_a=nan": lambda: bounds.tb_eta(0.5, math.nan, 1.0),
    "ta_lower_bound d=nan": lambda: bounds.ta_lower_bound(0.5, 1.0, math.nan),
    "r_implied m_a=nan": lambda: bounds.r_implied(0.5, math.nan, 1.0),
    "eta_row d=nan": lambda: bounds.eta_row(0.5, 1.0, math.nan),
    "ta_min_round_trip m_a=nan": lambda: bounds.ta_min_round_trip(math.nan, 1.0),
    "ta_min_one_way d=nan": lambda: bounds.ta_min_one_way(1.0, math.nan),
    "r_max_displacement d=nan": lambda: bounds.r_max_displacement(1.0, math.nan),
    "r_max_phase m_b=nan": lambda: bounds.r_max_phase(1.0, math.nan, 1.0),
    "meets_one_way_bound r=nan": lambda: causal.meets_one_way_bound(1.0, 1.0, math.nan),
    "backreaction_free r=nan": lambda: causal.backreaction_free(1.0, math.nan),
    "coulomb without charges": lambda: ScenarioParams(
        m_a=1.0, d=1.0, r=1000.0, coupling=CouplingKind.COULOMB, q_a=1e3),
    "'coulomb' without charges": lambda: ScenarioParams(
        m_a=1.0, d=1.0, r=1000.0, coupling="coulomb"),
    "unknown coupling": lambda: ScenarioParams(**_COULOMB, coupling="coulom"),
    "report_provenance unknown coupling": lambda: bounds.report_provenance("foo"),
    "phase report slack=nan": lambda: bounds.feasibility_report(
        ScenarioParams(m_a=1e6, d=1e6, r=1e8), "phase", slack=math.nan),
    "t_a=nan": lambda: ScenarioParams(m_a=1.0, d=1.0, r=1.0, t_a=math.nan),
    "t_a<0": lambda: ScenarioParams(m_a=1.0, d=1.0, r=1.0, t_a=-1.0),
    "t_b=inf": lambda: ScenarioParams(m_a=1.0, d=1.0, r=1.0, t_b=math.inf),
    "t_b<0": lambda: ScenarioParams(m_a=1.0, d=1.0, r=1.0, t_b=-1.0),
    # An int beyond the double range is no double, and too long for its repr.
    "ScenarioParams m_a=10**400": lambda: ScenarioParams(m_a=10**400, d=1.0, r=1.0),
    "ScenarioParams t_a=10**400": lambda: ScenarioParams(m_a=1.0, d=1.0, r=1.0, t_a=10**400),
    "replace_swept r=10**400": lambda: replace_swept(_P, "r", 10**400),
    "report_series r=-10**400": lambda: list(
        bounds.report_series(_P, "both", 1.0, "r", [1e6, -10**400])[1]),
    "ta_min_round_trip m_a=-10**400": lambda: bounds.ta_min_round_trip(-10**400, 1.0),
    "ta_min_round_trip m_a=10**400": lambda: bounds.ta_min_round_trip(10**400, 1.0),
    "ta_min_one_way d=10**400": lambda: bounds.ta_min_one_way(1.0, 10**400),
    "r_max_displacement m_a=10**400": lambda: bounds.r_max_displacement(10**400, 1.0),
    "r_max_phase m_a=10**400": lambda: bounds.r_max_phase(10**400, 1.0, 1.0),
    "ta_tb_min_round_trip r=10**400": lambda: bounds.ta_tb_min_round_trip(10**400),
    "displacement_shift m_b=10**400": lambda: bounds.displacement_shift(1.0, 10**400, 1.0),
    "eta_series m_a=10**400": lambda: list(bounds.eta_series(10**400, 1.0, [0.5])),
    "report_series r=10**400": lambda: list(
        bounds.report_series(_P, "both", 1.0, "r", [1e9, 10**400])[1]),
    "report_series m_a=10**400": lambda: list(
        bounds.report_series(_P, "both", 1.0, "m_a", [1e9, 10**400])[1]),
    "non-real Quantity": lambda: to_planck("1.0", "length"),
    "bool Quantity": lambda: to_planck(True, "mass"),
    "to_planck unknown kind": lambda: to_planck(1.0, "speed"),
    "from_planck unknown kind": lambda: from_planck(1.0, "Length"),
}


@pytest.mark.parametrize("call", _CHECKS.values(), ids=_CHECKS)
def test_argument_check_raises_invalid_input(call):
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize("name", [name for name in _CHECKS if name.endswith("=10**400")])
def test_an_integer_beyond_the_double_range_is_named_as_replace_swept_names_it(name):
    with pytest.raises(NonFiniteError, match=r"^\w+ \w+ is an integer beyond the double range$"):
        _CHECKS[name]()


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


# +inf passes every positivity check, so an overflowed input gives an
# overflowed result instead of an error.
_INFINITE_ARGUMENT = {
    "ta_tb_min_one_way": (lambda: bounds.ta_tb_min_one_way(math.inf), math.inf),
    "ta_tb_min_round_trip": (lambda: bounds.ta_tb_min_round_trip(math.inf), math.inf),
    "eta_row": (lambda: bounds.eta_row(0.5, math.inf, 1.0), (math.inf,) * 4),
    "tb_eta": (lambda: bounds.tb_eta(0.5, 1.0, math.inf), math.inf),
    "ta_min_one_way": (lambda: bounds.ta_min_one_way(math.inf, 1.0), math.inf),
    "r_max_displacement": (lambda: bounds.r_max_displacement(1.0, math.inf), math.inf),
    "r_max_phase": (lambda: bounds.r_max_phase(1.0, math.inf, 1.0), math.inf),
    "backreaction_free": (lambda: causal.backreaction_free(1.0, math.inf), True),
    "meets_one_way_bound": (lambda: causal.meets_one_way_bound(1.0, 1.0, math.inf), False),
}


@pytest.mark.parametrize("call, expected", _INFINITE_ARGUMENT.values(), ids=_INFINITE_ARGUMENT)
def test_infinite_argument_gives_a_result(call, expected):
    assert call() == expected


def test_report_rejects_unknown_attribute():
    report = bounds.feasibility_report(_P)
    with pytest.raises(AttributeError, match="no attribute 'tb_nope'"):
        report.tb_nope


def test_string_coupling_gives_the_enum_report():
    by_name = ScenarioParams(**_COULOMB, coupling="coulomb")
    by_enum = ScenarioParams(**_COULOMB, coupling=CouplingKind.COULOMB)
    assert by_name.coupling is CouplingKind.COULOMB
    assert by_name.pair_coupling == 1e6
    assert replace_swept(by_name, "r", 2e3).coupling is CouplingKind.COULOMB
    assert bounds.feasibility_report(by_name) == bounds.feasibility_report(by_enum)
    assert ScenarioParams(m_a=2.0, d=1.0, r=1e3, coupling="gravity").pair_coupling == 2.0

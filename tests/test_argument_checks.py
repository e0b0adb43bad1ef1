"""Every library argument check raises its documented error.

One row per check: the call that trips it and the exception it must raise.
The rows cover the checks that no other test reaches.  The public scalar
functions of bounds and causal are also checked argument by argument, from
one valid call each.
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
_FAR = ScenarioParams(m_a=1e9, d=1e4, r=1e8)

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
    # Times are checked as phase_difference checks its own.
    "backreaction_free t_b<0": lambda: causal.backreaction_free(-5.0, 1.0),
    "meets_one_way_bound t_a=nan": lambda: causal.meets_one_way_bound(math.nan, 1.0, 1.0),
    "meets_one_way_bound t_a=10**400": lambda: causal.meets_one_way_bound(10**400, 1.0, 1.0),
    "phase_evolution t=10**400": lambda: dynamics.phase_evolution(_P, 10**400),
    # An int too long for repr is named by its size.
    "tb_eta eta=10**5000": lambda: bounds.tb_eta(10**5000, 1.0, 1.0),
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
    # dynamics checks as bounds does: an int beyond the double range is
    # named, or refused as a non-finite force or state field.
    "ground_state m=10**400": lambda: dynamics.ground_state(10**400, 1.0),
    "ground_state omega=10**400": lambda: dynamics.ground_state(1.0, 10**400),
    "ground_state_with_width sigma_x=10**400": lambda: dynamics.ground_state_with_width(
        1.0, 10**400),
    "ground_state_with_width m=10**400": lambda: dynamics.ground_state_with_width(10**400, 1.0),
    "ground_state_with_width m=0": lambda: dynamics.ground_state_with_width(0.0, 1.0),
    "evolve_constant_force t=10**400": lambda: dynamics.evolve_constant_force(
        dynamics.ground_state(1.0, 1.0), 1.0, 1.0, 10**400),
    "evolve_constant_force m=10**400": lambda: dynamics.evolve_constant_force(
        dynamics.ground_state(1.0, 1.0), 1.0, 10**400, 1.0),
    "evolve_constant_force force beyond the double range": lambda: (
        dynamics.evolve_constant_force(dynamics.ground_state(1.0, 1.0), 10**400, 1.0, 1.0)),
    "evolve_constant_force force=-10**5000": lambda: dynamics.evolve_constant_force(
        dynamics.ground_state(1.0, 1.0), -10**5000, 1.0, 1.0),
    "orthogonalization_time sigma0=10**400": lambda: dynamics.orthogonalization_time(
        _FAR, 10**400),
    "orthogonalization_time eps=-10**5000": lambda: dynamics.orthogonalization_time(
        _FAR, 1.0, -10**5000),
    "displacement_series sigma0=10**400": lambda: dynamics.displacement_series(
        _FAR, 10**400, [1.0]),
    "displacement_series row t=10**400": lambda: list(
        dynamics.displacement_series(_FAR, 1.0, [10**400])),
    "phase_series row t=10**400": lambda: list(dynamics.phase_series(_FAR, [10**400])),
    "displacement_branches t=10**400": lambda: dynamics.displacement_branches(
        _FAR, 1.0, 10**400),
    "GaussianState mean_x beyond the double range": lambda: dynamics.GaussianState(
        10**400, 0.0, ((1.0, 0.0), (0.0, 1.0))),
    "GaussianState cov beyond the double range": lambda: dynamics.GaussianState(
        0.0, 0.0, ((10**400, 0.0), (0.0, 1.0))),
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


def _outcome(fn, **kwargs):
    """fn(**kwargs) as its type and repr, or the type and message of what
    it raises."""
    try:
        x = fn(**kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return type(x), repr(x)


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


def test_the_oracle_lets_an_infinite_mass_through_as_bounds_does():
    # +inf passes the oracle's positivity checks.  A ground state of
    # infinite mass has an infinite momentum width, so it is a non-finite
    # state, not an invalid input; an infinite mass in the evolution only
    # stops the free spreading.
    with pytest.raises(NonFiniteError, match="^state fields must be finite$"):
        dynamics.ground_state(math.inf, 1.0)
    s = dynamics.ground_state(1.0, 1.0)
    evolved = dynamics.evolve_constant_force(s, 1.0, math.inf, 1.0)
    assert evolved.cov == s.cov and evolved.mean_p == 1.0


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

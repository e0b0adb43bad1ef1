"""The plain result records: read by name, immutable, equal by value,
picklable, and printed as Name(field=value, ...)."""

import math
import pickle

import pytest

from interferobounds import bounds, causal, dynamics
from interferobounds.errors import InvalidInputError
from interferobounds.scenario import CouplingKind, ScenarioParams, replace_swept

from scenario_copy import validated_copy

_P = ScenarioParams(m_a=1e9, d=1e6, r=1e8, t_a=3e8, t_b=1e7)

_RECORDS = {
    "Event": lambda: causal.Event(1.0, 2.0, "e"),
    "Timeline": lambda: causal.build_timeline(_P),
    "CausalVerdict": lambda: causal.check_no_signalling(_P),
    "BranchPair": lambda: dynamics.displacement_branches(_P, 1.0, 1e6),
    "PhaseBranchPair": lambda: dynamics.phase_evolution(_P, 1e6),
    "BoundsReport": lambda: bounds.feasibility_report(_P),
    "GaussianState": lambda: dynamics.GaussianState(1.0, 0.0, ((1.0, 0.0), (0.0, 0.25)), 0.5),
}


@pytest.mark.parametrize("make", _RECORDS.values(), ids=_RECORDS)
def test_record_is_a_plain_immutable_value(make):
    record = make()
    fields = type(record)._fields
    values = tuple(getattr(record, name) for name in fields)
    assert record == values == type(record)(*values)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    with pytest.raises(AttributeError):  # no instance __dict__
        record.extra = 1.0
    assert not hasattr(record, "__dict__")
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{type(record).__name__}({shown})"


def test_record_defaults_and_derived_fields():
    assert causal.Event(1.0, 2.0).label == ""
    pair = dynamics.displacement_branches(_P, 1.0, 1e6)
    assert pair.overlap_magnitude == abs(pair.overlap)
    timeline = causal.build_timeline(_P)
    assert list(timeline) == [getattr(timeline, name) for name in causal.Timeline._fields]
    assert len(timeline) == 5


def test_gaussian_state_validates_every_construction():
    state = dynamics.ground_state(0.5, 1.0)
    assert state.phase == 0.0 and state.sigma_x == 1.0
    assert dynamics.GaussianState(0.0, 0.0, [[1, 0], [0, 0.25]]).cov == ((1.0, 0.0), (0.0, 0.25))
    assert state == dynamics.GaussianState(0.0, 0.0, state.cov)
    assert hash(state) == hash((0.0, 0.0, state.cov, 0.0))
    with pytest.raises(InvalidInputError, match="uncertainty floor"):
        state._replace(cov=((0.1, 0.0), (0.0, 0.1)))
    with pytest.raises(InvalidInputError, match="must be finite"):
        dynamics.GaussianState._make((math.nan, 0.0, state.cov, 0.0))


# ScenarioParams is validated on construction, frozen, equal by value within
# its own class, and printed as ScenarioParams(field=value, ...).

_FIELDS = ("m_a", "d", "r", "m_b", "coupling", "q_a", "q_b", "delta_x_min",
           "r_over_d_min", "t_a", "t_b", "override_geometry")
_DEFAULTS = {"m_b": 1.0, "coupling": CouplingKind.GRAVITY, "q_a": None, "q_b": None,
             "delta_x_min": None, "r_over_d_min": 100.0, "t_a": None, "t_b": None,
             "override_geometry": False}
_COULOMB = (1e9, 1e4, 1e8, 2.0, CouplingKind.COULOMB, 1e3, 10.0, 3.0, 50.0, 4.0, 5.0, True)


def test_scenario_params_positional_keyword_and_defaults():
    by_position = ScenarioParams(*_COULOMB)
    by_name = ScenarioParams(**dict(zip(_FIELDS, _COULOMB)))
    assert list(vars(by_position).items()) == list(zip(_FIELDS, _COULOMB))
    assert vars(by_name) == vars(by_position)
    assert vars(ScenarioParams(1e9, 1e4, r=1e8)) == {"m_a": 1e9, "d": 1e4, "r": 1e8, **_DEFAULTS}
    for args, kwargs in (((1e9, 1e4), {}), ((*_COULOMB, False), {}),
                         ((1e9, 1e4, 1e8), {"m_c": 1.0}), ((1e9, 1e4, 1e8), {"d": 1.0})):
        with pytest.raises(TypeError):
            ScenarioParams(*args, **kwargs)


def test_scenario_params_coerces_the_coupling():
    p = ScenarioParams(1.0, 1.0, 10.0, coupling="coulomb", q_a=1.0, q_b=1.0)
    assert p.coupling is CouplingKind.COULOMB
    for coupling in ("strong", 1, None):
        with pytest.raises(InvalidInputError) as got:
            ScenarioParams(1.0, 1.0, 10.0, coupling=coupling)
        assert str(got.value) == f"unknown coupling {coupling!r}"


def test_scenario_params_equality_and_hash():
    a, b = ScenarioParams(*_COULOMB), ScenarioParams(*_COULOMB)
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b) == hash(_COULOMB)
    assert a != _COULOMB and a.__eq__(_COULOMB) is NotImplemented
    for i, value in ((2, 2e8), (10, None), (11, False)):
        other = ScenarioParams(*_COULOMB[:i], value, *_COULOMB[i + 1:])
        assert a != other and not a == other
    assert len({a, b, ScenarioParams(1e9, 1e4, 1e8)}) == 2


def test_scenario_params_repr():
    assert repr(ScenarioParams(1e9, 1e4, 1e8)) == (
        "ScenarioParams(m_a=1000000000.0, d=10000.0, r=100000000.0, m_b=1.0, "
        "coupling=<CouplingKind.GRAVITY: 'gravity'>, q_a=None, q_b=None, "
        "delta_x_min=None, r_over_d_min=100.0, t_a=None, t_b=None, "
        "override_geometry=False)"
    )
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(_FIELDS, _COULOMB))
    assert repr(ScenarioParams(*_COULOMB)) == f"ScenarioParams({shown})"


def test_scenario_params_is_frozen():
    p = ScenarioParams(*_COULOMB)
    for name in (*_FIELDS, "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert list(vars(p).values()) == list(_COULOMB)


@pytest.mark.parametrize("name", ["m_a", "m_b", "d", "r"])
def test_replace_swept_copy_equals_a_validated_one(name):
    for base in (ScenarioParams(*_COULOMB), ScenarioParams(1e9, 1e4, 1e8)):
        got = replace_swept(base, name, 3.5)
        expected = validated_copy(base, **{name: 3.5})
        assert type(got) is ScenarioParams
        assert got == expected and hash(got) == hash(expected)
        assert repr(got) == repr(expected)
        with pytest.raises(AttributeError):
            setattr(got, name, 1.0)

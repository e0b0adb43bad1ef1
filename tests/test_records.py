"""The plain result records: read by name, immutable, equal by value, and
printed as Name(field=value, ...)."""

import pytest

from interferobounds import bounds, causal, dynamics
from interferobounds.scenario import ScenarioParams

_P = ScenarioParams(m_a=1e9, d=1e6, r=1e8, t_a=3e8, t_b=1e7)

_RECORDS = {
    "Event": lambda: causal.Event(1.0, 2.0, "e"),
    "Timeline": lambda: causal.build_timeline(_P),
    "CausalVerdict": lambda: causal.check_no_signalling(_P),
    "BranchPair": lambda: dynamics.displacement_branches(_P, 1.0, 1e6),
    "PhaseBranchPair": lambda: dynamics.phase_evolution(_P, 1e6),
    "BoundsReport": lambda: bounds.feasibility_report(_P),
}


@pytest.mark.parametrize("make", _RECORDS.values(), ids=_RECORDS)
def test_record_is_a_plain_immutable_value(make):
    record = make()
    fields = type(record)._fields
    values = tuple(getattr(record, name) for name in fields)
    assert record == values == type(record)(*values)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{type(record).__name__}({shown})"


def test_record_defaults_and_derived_fields():
    assert causal.Event(1.0, 2.0).label == ""
    pair = dynamics.displacement_branches(_P, 1.0, 1e6)
    assert pair.overlap_magnitude == abs(pair.overlap)
    timeline = causal.build_timeline(_P)
    assert list(timeline) == [getattr(timeline, name) for name in causal.Timeline._fields]
    assert len(timeline) == 5

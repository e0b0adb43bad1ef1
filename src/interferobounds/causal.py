"""The two-party timeline and its causal verdicts in one shared inertial frame.

Coordinates are Planck-normalized with c = 1 (times in t_P, positions in
l_P).  The interferometer side sits at x = 0, the probe side at x = r.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidInputError
from .scenario import ScenarioParams, _check_positive


Event = namedtuple("Event", "t x label", defaults=("",))


def causally_precedes(e1: Event, e2: Event) -> bool:
    """True iff e2 lies in the closed future light cone of e1."""
    return e2.t - e1.t >= abs(e2.x - e1.x)


Timeline = namedtuple(
    "Timeline", "a_create b_decide b_measure_done a_signal_arrival a_recombine_done")
Timeline.__doc__ = """The five events of one run, in canonical order."""

CausalVerdict = namedtuple("CausalVerdict", "no_signalling_ok margin explanation")


def build_timeline(p: ScenarioParams) -> Timeline:
    """Lay out the run: superposition ready by t = -r, probe decision at
    t = 0, probe measurement done at t_b, recombination done t_a later."""
    if p.t_a is None or p.t_b is None:
        raise InvalidInputError("timeline needs t_a and t_b on the scenario")
    r, t_a, t_b = p.r, p.t_a, p.t_b
    return Timeline(
        a_create=Event(-r, 0.0, "create_superposition"),
        b_decide=Event(0.0, r, "probe_decision"),
        b_measure_done=Event(t_b, r, "probe_measurement_done"),
        a_signal_arrival=Event(r, 0.0, "decision_light_arrival"),
        a_recombine_done=Event(-r + t_a + t_b, 0.0, "recombination_done"),
    )


def check_no_signalling(p: ScenarioParams, strict: bool = True) -> CausalVerdict:
    """Round-trip no-signalling criterion: T_A + T_B must exceed 2R/c.

    The boundary T_A + T_B = 2R/c counts as a violation; pass strict=False
    to accept it (sensitivity studies only).
    """
    tl = build_timeline(p)
    margin = tl.a_recombine_done.t - tl.a_signal_arrival.t
    ok = margin > 0.0 if strict else margin >= 0.0
    total = p.t_a + p.t_b
    relation = "exceeds" if ok else "does not exceed"
    explanation = (
        f"T_A + T_B = {total!r} t_P {relation} the round-trip light time "
        f"2R/c = {2.0 * p.r!r} t_P (margin {margin!r} t_P)"
    )
    return CausalVerdict(ok, margin, explanation)


def meets_one_way_bound(t_a: float, t_b: float, r: float, strict: bool = True) -> bool:
    """Weaker single light-crossing criterion: T_A + T_B vs R/c."""
    if not r > 0.0:
        _check_positive("r", "length", r)
    total = t_a + t_b
    return total > r if strict else total >= r


def backreaction_free(t_b: float, r: float) -> bool:
    """True iff the probe finishes before its own field disturbance could
    return: T_B < R/c, strictly."""
    if not r > 0.0:
        _check_positive("r", "length", r)
    return t_b < r


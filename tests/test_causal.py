import numpy as np
import pytest

from interferobounds.causal import (
    Event,
    build_timeline,
    causally_precedes,
    check_no_signalling,
    meets_one_way_bound,
)
from interferobounds.scenario import ScenarioParams


def _params(r, t_a, t_b):
    return ScenarioParams(m_a=1.0, d=r, r=r, t_a=t_a, t_b=t_b)


def test_causally_precedes_null_boundary():
    r = 7.0
    assert causally_precedes(Event(0.0, r), Event(r, 0.0))
    assert not causally_precedes(Event(0.0, r), Event(0.5 * r, 0.0))


def test_causally_precedes_reflexive():
    e = Event(3.2, -1.5)
    assert causally_precedes(e, e)


def test_causal_order_reflexive_transitive_random():
    rng = np.random.default_rng(7)
    events = [Event(float(t), float(x)) for t, x in rng.uniform(-5, 5, size=(25, 2))]
    for e in events:
        assert causally_precedes(e, e)
    for a in events:
        for b in events:
            if not causally_precedes(a, b):
                continue
            for c in events:
                if causally_precedes(b, c):
                    assert causally_precedes(a, c)


def test_build_timeline_unit_case():
    tl = build_timeline(_params(1.0, 1.0, 1.0))
    assert tl.a_create.t == -1.0 and tl.a_create.x == 0.0
    assert tl.b_decide.t == 0.0 and tl.b_decide.x == 1.0
    assert tl.b_measure_done.t == 1.0 and tl.b_measure_done.x == 1.0
    assert tl.a_signal_arrival.t == 1.0 and tl.a_signal_arrival.x == 0.0
    assert tl.a_recombine_done.t == 1.0 and tl.a_recombine_done.x == 0.0
    assert len(tl) == 5


def test_build_timeline_degenerate_durations():
    tl = build_timeline(_params(2.5, 0.0, 0.0))
    assert tl.a_recombine_done.t == tl.a_create.t


def test_build_timeline_margin_arithmetic():
    tl = build_timeline(_params(2.0, 3.0, 2.0))
    assert tl.a_recombine_done.t - tl.a_signal_arrival.t == pytest.approx(1.0)


def test_no_signalling_half_budget_fails():
    # Passes the one-way criterion yet fails the round-trip one.
    v = check_no_signalling(_params(1.0, 0.6, 0.6))
    assert not v.no_signalling_ok
    assert meets_one_way_bound(0.6, 0.6, 1.0)
    # Both criteria are strict, so their exact boundaries count as failures.
    assert not meets_one_way_bound(0.5, 0.5, 1.0)
    assert meets_one_way_bound(0.5, 0.5, 1.0, strict=False)


def test_no_signalling_boundary_counts_as_violation():
    v = check_no_signalling(_params(1.0, 1.5, 0.5))
    assert not v.no_signalling_ok
    assert v.margin == 0.0
    assert check_no_signalling(_params(1.0, 1.5, 0.5), strict=False).no_signalling_ok


def test_verdict_matches_recomputed_margin():
    rng = np.random.default_rng(11)
    for _ in range(200):
        r = float(10.0 ** rng.uniform(-3, 6))
        t_a = float(r * rng.uniform(0.0, 3.0))
        t_b = float(r * rng.uniform(0.0, 3.0))
        p = _params(r, t_a, t_b)
        v = check_no_signalling(p)
        tl = build_timeline(p)
        margin = tl.a_recombine_done.t - tl.a_signal_arrival.t
        assert v.margin == margin
        assert v.no_signalling_ok == (t_a + t_b > 2.0 * r)


def _round_trip_durations(rng, r):
    """(t_a, t_b) spread around the round-trip budget 2r: a quarter of the
    draws land exactly on it, a quarter a few ulp either side, a quarter
    split it at random (often exactly), and a quarter are log-uniform."""
    kind = rng.integers(4)
    if kind == 0:
        return float(10.0 ** rng.uniform(-1, 1) * r), float(10.0 ** rng.uniform(-1, 1) * r)
    t_a, t_b = ((r, r), (2.0 * r, 0.0), (0.0, 2.0 * r))[rng.integers(3)]
    if kind == 1:
        return t_a, t_b
    if kind == 2:
        steps = int(rng.integers(1, 4))
        for _ in range(steps):
            t_b = float(np.nextafter(t_b, rng.choice((0.0, 3.0)) * r))
        return t_a, t_b
    share = float(rng.uniform(0.0, 2.0))
    return share * r, (2.0 - share) * r


def test_round_trip_verdict_is_the_light_cone_order_of_its_events():
    # The decision at the probe must lie in the past light cone of the
    # recombination, and strictly inside it unless strict=False.  A pair
    # counts as on the cone only when dt == |dx| exactly.
    rng = np.random.default_rng(61)
    on_cone = 0
    for _ in range(20000):
        r = float(10.0 ** rng.uniform(-300, 300))
        p = _params(r, *_round_trip_durations(rng, r))
        tl = build_timeline(p)
        decide, recombine = tl.b_decide, tl.a_recombine_done
        inside = causally_precedes(decide, recombine)
        null = recombine.t - decide.t == abs(recombine.x - decide.x)
        on_cone += null
        assert check_no_signalling(p, strict=False).no_signalling_ok == inside, p
        assert check_no_signalling(p).no_signalling_ok == (inside and not null), p
    assert on_cone > 5000


def test_gap_region_between_criteria_exists():
    rng = np.random.default_rng(13)
    for _ in range(500):
        r = float(10.0 ** rng.uniform(-2, 4))
        total = r * float(rng.uniform(1.0000001, 2.0))
        t_a = 0.5 * total
        t_b = total - t_a
        assert meets_one_way_bound(t_a, t_b, r)
        assert not check_no_signalling(_params(r, t_a, t_b)).no_signalling_ok

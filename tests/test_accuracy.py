"""Printed numbers against a 50-digit mpmath reference."""

import random

from interferobounds import bounds
from interferobounds.scenario import CouplingKind, ScenarioParams

from mp_reference import report_reference, ulps

# The worst error over 20,000 draws of this domain was 3.33 ulp.
REPORT_ULPS = 4.0


def _report_draw(rng):
    """A scenario with m_a, m_b and d in 1e+-30 and r/d from 1e-2 to 1e20,
    so near-field reports too; three in ten are coulomb; and a slack."""

    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)

    kw = {"m_a": log_uniform(-30, 30), "m_b": log_uniform(-30, 30), "d": log_uniform(-30, 30)}
    kw["r"] = kw["d"] * log_uniform(-2, 20)
    if rng.random() < 0.3:
        kw.update(coupling=CouplingKind.COULOMB, q_a=log_uniform(-30, 30),
                  q_b=log_uniform(-30, 30), delta_x_min=log_uniform(-3, 3))
    elif rng.random() < 0.5:
        kw["delta_x_min"] = log_uniform(-3, 3)
    return ScenarioParams(**kw), rng.uniform(0.1, 10.0)


def test_report_values_are_within_a_few_ulp_of_mpmath():
    rng = random.Random(67)
    worst = {}
    for _ in range(4000):
        p, slack = _report_draw(rng)
        got = bounds.report_values(p, "both", slack)
        exact = report_reference(p, slack)
        assert set(exact) == {name for name, value in got.items() if not isinstance(value, bool)}
        for name, reference in exact.items():
            error = ulps(got[name], reference)
            assert error <= REPORT_ULPS, (name, p, slack, got[name], reference)
            worst[name] = max(worst.get(name, 0.0), error)
    # Every field was compared, and the rounded ones are not all exact.
    assert set(worst) == set(exact) and max(worst.values()) > 1.0

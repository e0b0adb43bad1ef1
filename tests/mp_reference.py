"""50-digit mpmath values of the feasibility report's numeric fields.

Each value is written from its provenance formula in `bounds._REPORT` and
evaluated on the exact values of the scenario's doubles, so it shares no
rounding with the product.  Booleans are left out: they compare these
numbers.
"""

import math

import mpmath

from interferobounds.scenario import CouplingKind, ScenarioParams

DIGITS = 50


def report_reference(p: ScenarioParams, slack: float) -> dict:
    """{field: mpf} for every numeric field of the model "both" report."""
    with mpmath.workdps(DIGITS):
        mpf = mpmath.mpf
        m_a, m_b, d, r, slack = map(mpf, (p.m_a, p.m_b, p.d, p.r, slack))
        if p.coupling is CouplingKind.COULOMB:
            src, prb = mpf(p.q_a), mpf(p.q_b)
        else:
            src, prb = m_a, m_b
        dx = mpf(1 if p.delta_x_min is None else p.delta_x_min)
        k = src * prb
        source = k / m_b
        return {
            "tb_displacement": mpmath.sqrt(2 * slack * dx * m_b * r ** 3 / (k * d)),
            "ta_min_round_trip": mpf(16) / 27 * source * d,
            "ta_min_one_way": mpf(2) / 27 * source * d,
            "r_max_displacement": source * d / (2 * slack),
            "tb_phase_exact": mpmath.pi * r * (r + d) / (k * d),
            "tb_phase_approx": mpmath.pi * r ** 2 / (k * d),
            "r_max_phase": k * d / mpmath.pi,
            "source_planck_ratio": src,
            "probe_planck_ratio": prb,
            "pair_planck_ratio": k,
        }


def ulps(value: float, exact) -> float:
    """|value - exact| in units in the last place of exact's nearest double."""
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(value) - exact) / math.ulp(float(exact)))

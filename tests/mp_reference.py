"""50-digit mpmath values of the feasibility report's numeric fields, the
eta-sweep columns, the exact differential phase, the displacement
series' columns and the time their overlap falls to eps.

Each value is written from its provenance formula in `bounds._REPORT`,
`bounds.ETA_COLUMNS`, the `phase_difference` docstring or the physics of
`dynamics.displacement_series` (free spreading, uniform acceleration and
the overlap of two displaced Gaussians) and evaluated on
the exact values of the input doubles, so it shares no rounding with the
product.  Booleans are left out: they compare these numbers.
"""

import math

import mpmath

from interferobounds.scenario import CouplingKind, ScenarioParams

DIGITS = 50


def _strengths(p: ScenarioParams) -> tuple:
    """The source and probe strengths whose product is the pair coupling K."""
    if p.coupling is CouplingKind.COULOMB:
        return mpmath.mpf(p.q_a), mpmath.mpf(p.q_b)
    return mpmath.mpf(p.m_a), mpmath.mpf(p.m_b)


def report_reference(p: ScenarioParams, slack: float) -> dict:
    """{field: mpf} for every numeric field of the model "both" report."""
    with mpmath.workdps(DIGITS):
        mpf = mpmath.mpf
        m_b, d, r, slack = map(mpf, (p.m_b, p.d, p.r, slack))
        src, prb = _strengths(p)
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


def eta_reference(eta: float, m_a: float, d: float) -> dict:
    """{column: mpf} for every `bounds.ETA_COLUMNS` column at fraction eta."""
    with mpmath.workdps(DIGITS):
        eta, m_a, d = map(mpmath.mpf, (eta, m_a, d))
        tb = 4 * eta ** 3 * m_a * d
        ta = 4 * (eta ** 2 - eta ** 3) * m_a * d
        return {
            "tb_eta": tb,
            "ta_lower_bound": ta,
            "ta_tb_total": tb + ta,
            "r_implied": 2 * eta ** 2 * m_a * d,
        }


def phase_reference(p: ScenarioParams, t: float):
    """The exact differential phase K*t*(1/R - 1/(R+d)) after time t."""
    with mpmath.workdps(DIGITS):
        src, prb = _strengths(p)
        d, r, t = map(mpmath.mpf, (p.d, p.r, t))
        return src * prb * t * (1 / r - 1 / (r + d))


def displacement_reference(p: ScenarioParams, sigma0: float, t: float) -> dict:
    """{column: mpf} for the displacement series' columns after time t:
    each branch's mean K/R_i^2*t^2/(2*m_B), the free width
    sqrt(sigma0^2 + t^2/(4*m_B^2*sigma0^2)) and the overlap magnitude
    exp(-(dF^2/2)*(sigma0^2*t^2 + t^4/(16*m_B^2*sigma0^2))), with dF the
    difference of the two forces.  The forces agree to about log10(R/d)
    digits, so they are formed with that many more."""
    cancelled = max(0, int(math.log10(p.r) - math.log10(p.d)))
    with mpmath.workdps(DIGITS + cancelled):
        src, prb = _strengths(p)
        m_b, d, r, sigma0, t = map(mpmath.mpf, (p.m_b, p.d, p.r, sigma0, t))
        f_left, f_right = src * prb / r ** 2, src * prb / (r + d) ** 2
        d_force = f_left - f_right
        spread = sigma0 ** 2 * t ** 2 + t ** 4 / (16 * m_b ** 2 * sigma0 ** 2)
        return {
            "mean_x_l": f_left * t ** 2 / (2 * m_b),
            "mean_x_r": f_right * t ** 2 / (2 * m_b),
            "sigma_x": mpmath.sqrt(sigma0 ** 2 + t ** 2 / (4 * m_b ** 2 * sigma0 ** 2)),
            "overlap_magnitude": mpmath.exp(-d_force ** 2 / 2 * spread),
        }


def crossing_reference(p: ScenarioParams, sigma0: float, eps: float):
    """The time at which the overlap magnitude of displacement_reference
    falls to eps: the positive root in t^2 of
    (dF^2/2)*(sigma0^2*t^2 + t^4/(16*m_B^2*sigma0^2)) = ln(1/eps), in its
    cancellation-free form."""
    cancelled = max(0, int(math.log10(p.r) - math.log10(p.d)))
    with mpmath.workdps(DIGITS + cancelled):
        src, prb = _strengths(p)
        m_b, d, r, sigma0, eps = map(mpmath.mpf, (p.m_b, p.d, p.r, sigma0, eps))
        d_force = src * prb / r ** 2 - src * prb / (r + d) ** 2
        log_inv = mpmath.log(1 / eps)
        a = d_force ** 2 / (32 * m_b ** 2 * sigma0 ** 2)
        b = d_force ** 2 * sigma0 ** 2 / 2
        return mpmath.sqrt(2 * log_inv / (b + mpmath.sqrt(b * b + 4 * a * log_inv)))


def ulps(value: float, exact) -> float:
    """|value - exact| in units in the last place of exact's nearest double."""
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(value) - exact) / math.ulp(float(exact)))

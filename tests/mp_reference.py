"""50-digit mpmath values, on the exact values of the input doubles, of
every printed provenance formula, the exact differential phase, the
displacement series' columns and the time their overlap falls to eps.

The formulas printed by `bounds.report_provenance`, `bounds.ETA_COLUMNS`
and `causal` are parsed with sympy and evaluated as printed, booleans
included.  The others follow the `phase_difference` docstring and the
physics of `dynamics.displacement_series`.
"""

import functools
import math

import mpmath
import sympy

from interferobounds import bounds
from interferobounds.scenario import CouplingKind, ScenarioParams

DIGITS = 50


def _strengths(p: ScenarioParams) -> tuple:
    """The source and probe strengths whose product is the pair coupling K."""
    if p.coupling is CouplingKind.COULOMB:
        return mpmath.mpf(p.q_a), mpmath.mpf(p.q_b)
    return mpmath.mpf(p.m_a), mpmath.mpf(p.m_b)


@functools.cache
def _compiled(formula: str) -> tuple:
    expr = sympy.sympify(formula)
    names = sorted(map(str, expr.free_symbols))
    return names, sympy.lambdify(names, expr, "mpmath")


def provenance_reference(provenance: dict, inputs: dict) -> dict:
    """{field: mpf, or bool for a comparison} for each formula in order, with
    c = m_P = q_P = 1, each input that is not None and each earlier field
    bound to its exact value.  An unbound symbol is a KeyError."""
    with mpmath.workdps(DIGITS):
        env = {"c": 1, "m_P": 1, "q_P": 1, **inputs}
        env = {name: mpmath.mpf(x) for name, x in env.items() if x is not None}
        for field, formula in provenance.items():
            names, fn = _compiled(formula)
            env[field] = fn(*[env[name] for name in names])
        return {field: env[field] for field in provenance}


def report_reference(p: ScenarioParams, slack: float, provenance=None) -> dict:
    """The "both" report's printed provenance, or the given one, at p and slack."""
    with mpmath.workdps(DIGITS):  # K = src*prb exactly
        src, prb = _strengths(p)
        inputs = {"m_A": p.m_a, "m_B": p.m_b, "q_A": p.q_a, "q_B": p.q_b, "K": src * prb,
                  "d": p.d, "R": p.r, "slack": slack, "r_over_d_min": p.r_over_d_min,
                  "dx_min": 1 if p.delta_x_min is None else p.delta_x_min}
        return provenance_reference(provenance or bounds.report_provenance(p.coupling), inputs)


def eta_reference(eta: float, m_a: float, d: float) -> dict:
    """`bounds.ETA_COLUMNS` at eta; m_a is eta_series' K/m_B (K = m_a, m_B = 1)."""
    inputs = {"eta": eta, "K": m_a, "m_B": 1, "d": d}
    return provenance_reference(dict(bounds.ETA_COLUMNS), inputs)


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

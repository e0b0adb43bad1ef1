"""Seeded scenario draws for the report and displacement-series tests."""

import math

from interferobounds.scenario import CouplingKind, ScenarioParams


def crossing_time(p, sigma0, eps=0.01):
    """The t at which the closed-form overlap falls to eps."""
    k = p.pair_coupling
    d_force = k / p.r ** 2 - k / (p.r + p.d) ** 2
    log_eps = math.log(1.0 / eps)
    a = d_force ** 2 / (32.0 * p.m_b ** 2 * sigma0 ** 2)
    b = d_force ** 2 * sigma0 ** 2 / 2.0
    return math.sqrt(2.0 * log_eps / (b + math.sqrt(b * b + 4.0 * a * log_eps)))


def series_draw(rng, r_over_d=(2, 6), m_b_decades=3):
    """A far-field scenario, a probe width and a time: m_a 1e6..1e12, d
    1..1e6, r/d 10**r_over_d[0]..10**r_over_d[1], half of them with m_b
    log-uniform within m_b_decades of 1 (else m_b = 1), half coulomb;
    sigma0 0.1..100 and t 0.05..1.5 times the time the overlap takes to
    fall to 0.01."""

    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)

    kw = {"m_a": log_uniform(6, 12), "d": log_uniform(0, 6)}
    kw["r"] = kw["d"] * log_uniform(*r_over_d)
    if rng.random() < 0.5:
        kw["m_b"] = log_uniform(-m_b_decades, m_b_decades)
    if rng.random() < 0.5:
        kw.update(coupling=CouplingKind.COULOMB, q_a=log_uniform(3, 6),
                  q_b=log_uniform(0, 3), delta_x_min=log_uniform(0, 3))
    p = ScenarioParams(**kw)
    sigma0 = log_uniform(-1, 2)
    return p, sigma0, crossing_time(p, sigma0) * rng.uniform(0.05, 1.5)


def report_draw(rng, r_over_d_from=-2):
    """A scenario with m_a, m_b and d in 1e+-30 and r/d from
    10**r_over_d_from (by default 1e-2, so near-field reports too) to 1e20;
    three in ten are coulomb; and a slack."""

    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)

    kw = {"m_a": log_uniform(-30, 30), "m_b": log_uniform(-30, 30), "d": log_uniform(-30, 30)}
    kw["r"] = kw["d"] * log_uniform(r_over_d_from, 20)
    if rng.random() < 0.3:
        kw.update(coupling=CouplingKind.COULOMB, q_a=log_uniform(-30, 30),
                  q_b=log_uniform(-30, 30), delta_x_min=log_uniform(-3, 3))
    elif rng.random() < 0.5:
        kw["delta_x_min"] = log_uniform(-3, 3)
    return ScenarioParams(**kw), rng.uniform(0.1, 10.0)

"""Closed-form timing and separation bounds.

Everything is Planck-normalized (c = hbar = G = 1; masses in m_P, lengths
in l_P, times in t_P, charges in q_P).  K denotes the pair coupling
m_a*m_b (gravity) or q_a*q_b (coulomb); formulas written for a
gravitational source apply to a charged one with the effective source
strength K/m_b in place of m_a.

Two-mode operations carry an "approx" mode, the leading far-field form
that drives every bound here, and an "exact" mode keeping the full 1/r
dependence so the dropped O(d/r) factors can be audited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from . import causal
from .errors import GeometryError, InvalidInputError
from .scenario import CouplingKind, ScenarioParams

_MODES = ("approx", "exact")

# Coefficient of the strongest T_A bound: max over eta of 4*(eta^2 - eta^3).
_TA_COEFFICIENT = 16.0 / 27.0


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise InvalidInputError(f"mode must be one of {_MODES}, got {mode!r}")


def _geometry_gate(p: ScenarioParams) -> None:
    if not (p.geometry_valid or p.override_geometry):
        raise GeometryError(
            f"far-field formulas need r/d >= {p.r_over_d_min!r}, got "
            f"r/d = {p.r / p.d!r}; set override_geometry to evaluate anyway"
        )


def ta_tb_min_one_way(r: float) -> float:
    """Single light-crossing floor on T_A + T_B: R/c."""
    if r <= 0.0:
        raise InvalidInputError(f"nonpositive length r = {r!r}")
    return r


def ta_tb_min_round_trip(r: float) -> float:
    """Round-trip floor on T_A + T_B: 2R/c, twice the one-way bound."""
    if r <= 0.0:
        raise InvalidInputError(f"nonpositive length r = {r!r}")
    return 2.0 * r


def differential_force(p: ScenarioParams, mode: str = "approx") -> float:
    """Force difference on the probe between the two source paths.

    approx: K*d/r^3.  exact: K*(1/r^2 - 1/(r+d)^2).
    """
    _check_mode(mode)
    _geometry_gate(p)
    k = p.pair_coupling
    if mode == "approx":
        return k * p.d / p.r ** 3
    # 1/r^2 - 1/(r+d)^2, written in its cancellation-free identical form.
    return k * p.d * (2.0 * p.r + p.d) / (p.r ** 2 * (p.r + p.d) ** 2)


def displacement_shift(delta_f: float, m_b: float, t: float) -> float:
    """Position shift delta_f*t^2/(2*m_b) accumulated under a constant
    differential force."""
    if m_b <= 0.0:
        raise InvalidInputError(f"nonpositive mass m_b = {m_b!r}")
    if t < 0.0 or not math.isfinite(t):
        raise InvalidInputError(f"time must be finite and nonnegative, got {t!r}")
    if delta_f < 0.0 or not math.isfinite(delta_f):
        raise InvalidInputError(f"force must be finite and nonnegative, got {delta_f!r}")
    return delta_f * t * t / (2.0 * m_b)


def tb_displacement(p: ScenarioParams, slack: float = 1.0) -> float:
    """Probe time for the differential force to shift the probe by its
    confinement floor: sqrt(2*slack*dx_min*m_b*r^3/(K*d)).

    slack scales the shift target (slack*dx_min); 1.0 is the minimal
    physically possible measurement time.
    """
    if slack <= 0.0:
        raise InvalidInputError(f"nonpositive slack = {slack!r}")
    _geometry_gate(p)
    dx = p.resolved_delta_x_min
    return math.sqrt(2.0 * slack * dx * p.m_b * p.r ** 3 / (p.pair_coupling * p.d))


def _check_eta_args(eta: float, m_a: float, d: float) -> None:
    if not 0.0 < eta < 1.0:
        raise InvalidInputError(f"eta must lie in the open interval (0, 1), got {eta!r}")
    if m_a <= 0.0:
        raise InvalidInputError(f"nonpositive mass m_a = {m_a!r}")
    if d <= 0.0:
        raise InvalidInputError(f"nonpositive length d = {d!r}")


def tb_eta(eta: float, m_a: float, d: float) -> float:
    """Probe time when it uses the fraction eta of the round-trip budget:
    4*eta^3*m_a*d."""
    _check_eta_args(eta, m_a, d)
    return 4.0 * eta ** 3 * m_a * d


def ta_lower_bound(eta: float, m_a: float, d: float) -> float:
    """Interferometer time floor left over at fraction eta:
    4*(eta^2 - eta^3)*m_a*d."""
    _check_eta_args(eta, m_a, d)
    return 4.0 * (eta ** 2 - eta ** 3) * m_a * d


@dataclass(frozen=True)
class EtaOptimum:
    eta_star: float
    coefficient: float
    method: str


def optimize_eta(grid_points: int = 1_000_001, tol: float = 1e-12) -> EtaOptimum:
    """Numerically maximize 4*(eta^2 - eta^3) over (0, 1).

    Dense grid scan, golden-section refinement of the winning bracket, and
    a final parabolic-vertex polish (plain golden section cannot localize a
    quadratic maximum below the sqrt(ulp) comparison noise floor).
    Independent of the closed-form coefficient used elsewhere.
    """
    if grid_points < 3:
        raise InvalidInputError("grid_points must be at least 3")
    import numpy as np  # test-time cross-check; keeps numpy off the CLI path

    grid = np.linspace(0.0, 1.0, grid_points)
    values = 4.0 * (grid ** 2 - grid ** 3)
    i = int(np.argmax(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid_points - 1)]
    f = lambda e: 4.0 * (e * e - e * e * e)
    eta_gss = _golden_section_max(f, float(lo), float(hi), tol)
    eta_star = _parabolic_vertex(f, eta_gss, 1e-6)
    return EtaOptimum(
        eta_star, f(eta_star), f"grid({grid_points})+golden-section+parabolic"
    )


def _parabolic_vertex(f, center: float, h: float) -> float:
    f_minus, f_center, f_plus = f(center - h), f(center), f(center + h)
    denom = f_plus - 2.0 * f_center + f_minus
    if denom == 0.0:
        return center
    return center - 0.5 * h * (f_plus - f_minus) / denom


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
    return 0.5 * (lo + hi)


def ta_min_round_trip(m_a: float, d: float) -> float:
    """Strongest interferometer time floor: (16/27)*m_a*d."""
    if m_a <= 0.0:
        raise InvalidInputError(f"nonpositive mass m_a = {m_a!r}")
    if d <= 0.0:
        raise InvalidInputError(f"nonpositive length d = {d!r}")
    return _TA_COEFFICIENT * m_a * d


def ta_min_one_way(m_a: float, d: float) -> float:
    """Floor implied by the one-way criterion alone, a factor of 8 below
    the round-trip floor."""
    return ta_min_round_trip(m_a, d) / 8.0


def r_max_displacement(m_a: float, d: float) -> float:
    """Largest separation at which a displacement measurement can finish
    back-reaction free: m_a*d/2."""
    if m_a <= 0.0:
        raise InvalidInputError(f"nonpositive mass m_a = {m_a!r}")
    if d <= 0.0:
        raise InvalidInputError(f"nonpositive length d = {d!r}")
    return m_a * d / 2.0


def phase_difference(p: ScenarioParams, t: float, mode: str = "exact") -> float:
    """Differential phase (radians) between the probe branches after time t.

    exact: K*t*(1/r - 1/(r+d)).  approx: K*t*d/r^2.
    """
    _check_mode(mode)
    _geometry_gate(p)
    if t < 0.0 or not math.isfinite(t):
        raise InvalidInputError(f"time must be finite and nonnegative, got {t!r}")
    k = p.pair_coupling
    if mode == "approx":
        return k * t * p.d / p.r ** 2
    # 1/r - 1/(r+d), written in its cancellation-free identical form.
    return k * t * p.d / (p.r * (p.r + p.d))


def tb_phase(p: ScenarioParams, mode: str = "exact") -> float:
    """Probe time at which the differential phase reaches pi.

    exact: pi*r*(r+d)/(K*d).  approx: pi*r^2/(K*d).
    """
    _check_mode(mode)
    _geometry_gate(p)
    k = p.pair_coupling
    if mode == "approx":
        return math.pi * p.r ** 2 / (k * p.d)
    return math.pi * p.r * (p.r + p.d) / (k * p.d)


def r_max_phase(m_a: float, m_b: float, d: float) -> float:
    """Largest separation for a back-reaction-free phase measurement:
    m_a*m_b*d/pi."""
    if m_a <= 0.0 or m_b <= 0.0:
        raise InvalidInputError("masses must be positive")
    if d <= 0.0:
        raise InvalidInputError(f"nonpositive length d = {d!r}")
    return m_a * m_b * d / math.pi


_REPORT_FIELD_ORDER = (
    "tb_displacement",
    "ta_min_round_trip",
    "ta_min_one_way",
    "r_max_displacement",
    "displacement_backreaction_free",
    "tb_phase_exact",
    "tb_phase_approx",
    "r_max_phase",
    "phase_backreaction_free",
    "geometry_valid",
    "source_planck_ratio",
    "probe_planck_ratio",
    "pair_planck_ratio",
    "source_exceeds_planck",
    "probe_exceeds_planck",
    "pair_exceeds_planck_sq",
)


@dataclass(frozen=True)
class BoundsReport:
    """All bounds for one scenario, with per-field formula provenance.

    Times in t_P, lengths in l_P.  Fields for a model that was not
    requested are None.  The planck ratios are mass ratios for gravity and
    charge ratios for coulomb; the *_exceeds flags compare them against
    r_over_d_min as the working proxy for '>>'.
    """

    geometry_valid: bool
    source_planck_ratio: float
    probe_planck_ratio: float
    pair_planck_ratio: float
    source_exceeds_planck: bool
    probe_exceeds_planck: bool
    pair_exceeds_planck_sq: bool
    tb_displacement: float | None = None
    ta_min_round_trip: float | None = None
    ta_min_one_way: float | None = None
    r_max_displacement: float | None = None
    displacement_backreaction_free: bool | None = None
    tb_phase_exact: float | None = None
    tb_phase_approx: float | None = None
    r_max_phase: float | None = None
    phase_backreaction_free: bool | None = None
    provenance: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.name == "provenance":
                continue
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value
        return out

    @staticmethod
    def field_order() -> tuple[str, ...]:
        return _REPORT_FIELD_ORDER


def feasibility_report(
    p: ScenarioParams, model: str = "both", slack: float = 1.0
) -> BoundsReport:
    """Evaluate every bound for the requested model(s) and flag feasibility.

    Bounds are computed even when the far-field proxy fails; the
    geometry_valid flag carries that information instead of an error.
    """
    if model not in ("displacement", "phase", "both"):
        raise InvalidInputError(
            f"model must be displacement, phase, or both, got {model!r}"
        )
    p_eval = replace(p, override_geometry=True)
    coulomb = p.coupling is CouplingKind.COULOMB
    m_eff = p.effective_source_mass
    source = p.source_strength
    probe = p.probe_strength
    pair = p.pair_coupling
    threshold = p.r_over_d_min

    src_sym = "q_A/q_P" if coulomb else "m_A/m_P"
    prb_sym = "q_B/q_P" if coulomb else "m_B/m_P"
    pair_sym = "q_A*q_B/q_P^2" if coulomb else "m_A*m_B/m_P^2"
    prov = {
        "geometry_valid": "R/d >= r_over_d_min",
        "source_planck_ratio": src_sym,
        "probe_planck_ratio": prb_sym,
        "pair_planck_ratio": pair_sym,
        "source_exceeds_planck": f"{src_sym} >= r_over_d_min",
        "probe_exceeds_planck": f"{prb_sym} >= r_over_d_min",
        "pair_exceeds_planck_sq": f"{pair_sym} >= r_over_d_min",
    }
    values: dict = {
        "geometry_valid": p.geometry_valid,
        "source_planck_ratio": source,
        "probe_planck_ratio": probe,
        "pair_planck_ratio": pair,
        "source_exceeds_planck": source >= threshold,
        "probe_exceeds_planck": probe >= threshold,
        "pair_exceeds_planck_sq": pair >= threshold,
    }

    if model in ("displacement", "both"):
        tb_d = tb_displacement(p_eval, slack)
        values["tb_displacement"] = tb_d
        values["ta_min_round_trip"] = ta_min_round_trip(m_eff, p.d)
        values["ta_min_one_way"] = ta_min_one_way(m_eff, p.d)
        values["r_max_displacement"] = m_eff * p.d / (2.0 * slack)
        values["displacement_backreaction_free"] = causal.backreaction_free(tb_d, p.r)
        prov.update(
            {
                "tb_displacement": "sqrt(2*slack*dx_min*m_B*R^3/(K*d))",
                "ta_min_round_trip": "(16/27)*(K/m_B)*d",
                "ta_min_one_way": "(2/27)*(K/m_B)*d",
                "r_max_displacement": "(K/m_B)*d/(2*slack)",
                "displacement_backreaction_free": "tb_displacement < R/c",
            }
        )

    if model in ("phase", "both"):
        values["tb_phase_exact"] = tb_phase(p_eval, "exact")
        values["tb_phase_approx"] = tb_phase(p_eval, "approx")
        r_max_p = pair * p.d / math.pi
        values["r_max_phase"] = r_max_p
        values["phase_backreaction_free"] = p.r < r_max_p
        prov.update(
            {
                "tb_phase_exact": "pi*R*(R+d)/(K*d)",
                "tb_phase_approx": "pi*R^2/(K*d)",
                "r_max_phase": "K*d/pi",
                "phase_backreaction_free": "R < K*d/pi",
            }
        )

    return BoundsReport(provenance=prov, **values)

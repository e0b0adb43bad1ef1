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
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .errors import GeometryError, InvalidInputError
from .scenario import (_SWEPT_FIELDS, CouplingKind, ScenarioParams, _check_positive,
                       _invalid_time, _name_huge_int, replace_swept)

_MODES = ("approx", "exact")

# Coefficient of the strongest T_A bound: max over eta of 4*(eta^2 - eta^3).
_TA_COEFFICIENT = 16.0 / 27.0


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise InvalidInputError(f"mode must be one of {_MODES}, got {mode!r}")


def _geometry_gate(p: ScenarioParams) -> None:
    if not (p.override_geometry or p.geometry_valid):
        raise GeometryError(
            f"far-field formulas need r/d >= {p.r_over_d_min!r}, got "
            f"r/d = {p.r / p.d!r}; set override_geometry to evaluate anyway"
        )


def ta_tb_min_one_way(r: float) -> float:
    """Single light-crossing floor on T_A + T_B: R/c."""
    if not r > 0.0:
        _check_positive("r", "length", r)
    return r


def ta_tb_min_round_trip(r: float) -> float:
    """Round-trip floor on T_A + T_B: 2R/c, twice the one-way bound."""
    if not r > 0.0:
        _check_positive("r", "length", r)
    try:
        return 2.0 * r
    except OverflowError:
        _name_huge_int(r=r)
        raise


def _check_slack(slack: float) -> None:
    if not 0.0 < slack < math.inf:
        raise InvalidInputError(f"slack must be finite and positive, got {slack!r}")


def differential_force(p: ScenarioParams, mode: str = "approx") -> float:
    """Force difference on the probe between the two source paths.

    approx: K*d/r^3.  exact: K*(1/r^2 - 1/(r+d)^2).
    """
    _check_mode(mode)
    _geometry_gate(p)
    return _differential_force(p, mode)


def _differential_force(p: ScenarioParams, mode: str) -> float:
    if mode == "approx":
        return p.pair_coupling * p.d / p.r ** 3
    # K*(1/r^2 - 1/(r+d)^2) = (K/r/r)*s*(2 - s) with s = d/(r+d): no
    # cancellation, and no power of r or r+d that overflows where the
    # force does not.
    s = p.d / (p.r + p.d)
    return p.pair_coupling / p.r / p.r * s * (2.0 - s)


def displacement_shift(delta_f: float, m_b: float, t: float) -> float:
    """Position shift delta_f*t^2/(2*m_b) accumulated under a constant
    differential force."""
    if not m_b > 0.0:
        _check_positive("m_b", "mass", m_b)
    if t < 0.0 or not math.isfinite(t):
        _invalid_time(t)
    if delta_f < 0.0 or not math.isfinite(delta_f):
        raise InvalidInputError(f"force must be finite and nonnegative, got {delta_f!r}")
    try:
        return delta_f * t * t / (2.0 * m_b)
    except OverflowError:
        _name_huge_int(m_b=m_b)
        raise


def tb_displacement(p: ScenarioParams, slack: float = 1.0) -> float:
    """Probe time for the differential force to shift the probe by its
    confinement floor: sqrt(2*slack*dx_min*m_b*r^3/(K*d)).

    slack scales the shift target (slack*dx_min); 1.0 is the minimal
    physically possible measurement time.
    """
    _check_slack(slack)
    _geometry_gate(p)
    return _tb_displacement(p, slack)


def _tb_displacement(p: ScenarioParams, slack: float) -> float:
    # K/m_B, never K itself, so gravity's m_a*m_b cannot overflow here.
    dx = p.resolved_delta_x_min
    tb = math.sqrt(2.0 * slack * dx * p.r ** 3 / (p.effective_source_mass * p.d))
    # Every factor is positive, so a zero means an intermediate step underflowed.
    if tb == 0.0:
        raise ArithmeticError("an intermediate step of tb_displacement underflowed to zero")
    return tb


def tb_eta(eta: float, m_a: float, d: float) -> float:
    """Probe time when it uses the fraction eta of the round-trip budget:
    4*eta^3*m_a*d."""
    return eta_row(eta, m_a, d)[0]


def ta_lower_bound(eta: float, m_a: float, d: float) -> float:
    """Interferometer time floor left over at fraction eta:
    4*(eta^2 - eta^3)*m_a*d."""
    return eta_row(eta, m_a, d)[1]


def r_implied(eta: float, m_a: float, d: float) -> float:
    """Separation whose round-trip budget 2R/c tb_eta and ta_lower_bound
    fill exactly at fraction eta: 2*eta^2*m_a*d."""
    return eta_row(eta, m_a, d)[3]


# The columns of an eta sweep and their provenance; eta_row gives their values.
ETA_COLUMNS = (
    ("tb_eta", "4*eta^3*(K/m_B)*d"),
    ("ta_lower_bound", "4*(eta^2 - eta^3)*(K/m_B)*d"),
    ("ta_tb_total", "tb_eta + ta_lower_bound"),
    ("r_implied", "2*eta^2*(K/m_B)*d"),
)


def eta_series(
    m_a: float, d: float, etas: Iterable[float]
) -> Iterator[tuple[float, float, float, float, float]]:
    """Rows (eta, *the ETA_COLUMNS values) at each fraction eta in etas;
    the eta family's one evaluation.  m_a and d are checked once, before
    the first row; each eta must lie in the open interval (0, 1)."""
    if not m_a > 0.0:
        _check_positive("m_a", "mass", m_a)
    if not d > 0.0:
        _check_positive("d", "length", d)
    _name_huge_int(m_a=m_a, d=d)
    return _eta_rows(m_a, d, etas)


def _eta_rows(m_a, d, etas):
    for eta in etas:
        if not 0.0 < eta < 1.0:
            raise InvalidInputError(f"eta must lie in the open interval (0, 1), got {eta!r}")
        # eta^2*(1 - eta), not eta^2 - eta^3, which cancels as eta -> 1; the
        # total is the exact sum, not the sum of the two rounded columns.
        yield (eta, 4.0 * eta ** 3 * m_a * d, 4.0 * eta * eta * (1.0 - eta) * m_a * d,
               4.0 * eta * eta * m_a * d, 2.0 * eta * eta * m_a * d)


def eta_row(eta: float, m_a: float, d: float) -> tuple[float, float, float, float]:
    """The ETA_COLUMNS values at fraction eta: eta_series at one point."""
    return next(eta_series(m_a, d, (eta,)))[1:]


def ta_min_round_trip(m_a: float, d: float) -> float:
    """Strongest interferometer time floor: (16/27)*m_a*d."""
    if not m_a > 0.0:
        _check_positive("m_a", "mass", m_a)
    if not d > 0.0:
        _check_positive("d", "length", d)
    try:
        return _TA_COEFFICIENT * m_a * d
    except OverflowError:
        _name_huge_int(m_a=m_a, d=d)
        raise


def ta_min_one_way(m_a: float, d: float) -> float:
    """Floor implied by the one-way criterion alone, a factor of 8 below
    the round-trip floor."""
    return ta_min_round_trip(m_a, d) / 8.0


def r_max_displacement(m_a: float, d: float, slack: float = 1.0) -> float:
    """Largest separation at which a displacement measurement can finish
    back-reaction free: m_a*d/(2*slack).

    slack is the tb_displacement shift multiplier.  The confinement floor
    dx_min is left out, so this matches displacement_backreaction_free
    only for dx_min = 1 l_P.
    """
    if not m_a > 0.0:
        _check_positive("m_a", "mass", m_a)
    if not d > 0.0:
        _check_positive("d", "length", d)
    _check_slack(slack)
    try:
        return m_a * d / (2.0 * slack)
    except OverflowError:
        _name_huge_int(m_a=m_a, d=d)
        raise


def phase_difference(p: ScenarioParams, t: float, mode: str = "exact") -> float:
    """Differential phase (radians) between the probe branches after time t.

    exact: K*t*(1/r - 1/(r+d)).  approx: K*t*d/r^2.
    """
    _check_mode(mode)
    _geometry_gate(p)
    if t < 0.0 or not math.isfinite(t):
        _invalid_time(t)
    return _phase(p.pair_coupling, p.d, _phase_divisor(p, mode), t)


def _phase_divisor(p: ScenarioParams, mode: str) -> float:
    # The differential phase is K*t*d over this; it does not depend on t.
    if mode == "approx":
        return p.r ** 2
    # 1/r - 1/(r+d), written in its cancellation-free identical form.
    return p.r * (p.r + p.d)


def _phase(k: float, d: float, divisor: float, t: float) -> float:
    phase = k * t * d / divisor
    # Every other factor is positive, so a zero at t > 0 means an underflow.
    if phase == 0.0 and t > 0.0:
        raise ArithmeticError("an intermediate step of phase_difference underflowed to zero")
    return phase


def tb_phase(p: ScenarioParams, mode: str = "exact") -> float:
    """Probe time at which the differential phase reaches pi.

    exact: pi*r*(r+d)/(K*d).  approx: pi*r^2/(K*d).
    """
    _check_mode(mode)
    _geometry_gate(p)
    return _tb_phase(p, mode)


def _tb_phase(p: ScenarioParams, mode: str) -> float:
    k = p.pair_coupling
    if mode == "approx":
        return math.pi * p.r ** 2 / (k * p.d)
    return math.pi * p.r * (p.r + p.d) / (k * p.d)


def r_max_phase(m_a: float, m_b: float, d: float) -> float:
    """Largest separation for a back-reaction-free phase measurement:
    m_a*m_b*d/pi."""
    if not m_a > 0.0:
        _check_positive("m_a", "mass", m_a)
    if not m_b > 0.0:
        _check_positive("m_b", "mass", m_b)
    if not d > 0.0:
        _check_positive("d", "length", d)
    try:
        r = m_a * m_b * d / math.pi
    except OverflowError:
        _name_huge_int(m_a=m_a, m_b=m_b, d=d)
        raise
    # Every factor is positive, so a zero means an intermediate step underflowed.
    if r == 0.0:
        raise ArithmeticError("an intermediate step of r_max_phase underflowed to zero")
    return r


# The feasibility report, one row per field in output order:
# (field, model, provenance, value).  Rows of model None belong to every
# report.  value(p, slack, v) may read the fields before it from v, and
# calls the far-field bodies, which skip the geometry gate.  It reads p
# and v by plain attribute and key access, with no default: report_series
# finds the rows that read a swept field by running them without it.  In
# provenance, {src}, {prb} and {pair} stand for the coupling's symbols.
_REPORT = (
    ("tb_displacement", "displacement", "sqrt(2*slack*dx_min*m_B*R^3/(K*d))",
     lambda p, slack, v: _tb_displacement(p, slack)),
    ("ta_min_round_trip", "displacement", "(16/27)*(K/m_B)*d",
     lambda p, slack, v: ta_min_round_trip(p.effective_source_mass, p.d)),
    ("ta_min_one_way", "displacement", "(2/27)*(K/m_B)*d",
     lambda p, slack, v: ta_min_one_way(p.effective_source_mass, p.d)),
    ("r_max_displacement", "displacement", "(K/m_B)*d/(2*slack)",
     lambda p, slack, v: r_max_displacement(p.effective_source_mass, p.d, slack)),
    ("displacement_backreaction_free", "displacement", "tb_displacement < R/c",
     lambda p, slack, v: v["tb_displacement"] < p.r),
    ("tb_phase_exact", "phase", "pi*R*(R+d)/(K*d)", lambda p, slack, v: _tb_phase(p, "exact")),
    ("tb_phase_approx", "phase", "pi*R^2/(K*d)", lambda p, slack, v: _tb_phase(p, "approx")),
    ("r_max_phase", "phase", "K*d/pi",
     lambda p, slack, v: r_max_phase(p.source_strength, p.probe_strength, p.d)),
    ("phase_backreaction_free", "phase", "R < K*d/pi",
     lambda p, slack, v: p.r < v["r_max_phase"]),
    ("geometry_valid", None, "R/d >= r_over_d_min", lambda p, slack, v: p.geometry_valid),
    ("source_planck_ratio", None, "{src}", lambda p, slack, v: p.source_strength),
    ("probe_planck_ratio", None, "{prb}", lambda p, slack, v: p.probe_strength),
    ("pair_planck_ratio", None, "{pair}", lambda p, slack, v: p.pair_coupling),
    ("source_exceeds_planck", None, "{src} >= r_over_d_min",
     lambda p, slack, v: v["source_planck_ratio"] >= p.r_over_d_min),
    ("probe_exceeds_planck", None, "{prb} >= r_over_d_min",
     lambda p, slack, v: v["probe_planck_ratio"] >= p.r_over_d_min),
    ("pair_exceeds_planck_sq", None, "{pair} >= r_over_d_min",
     lambda p, slack, v: v["pair_planck_ratio"] >= p.r_over_d_min),
)
_FIELDS = tuple(row[0] for row in _REPORT)
_ROWS = {
    model: tuple(row for row in _REPORT if row[1] in (None, model) or model == "both")
    for model in ("displacement", "phase", "both")
}
_SYMBOLS = {
    CouplingKind.GRAVITY: {"src": "m_A/m_P", "prb": "m_B/m_P", "pair": "m_A*m_B/m_P^2"},
    CouplingKind.COULOMB: {"src": "q_A/q_P", "prb": "q_B/q_P", "pair": "q_A*q_B/q_P^2"},
}


def _rows(model: str) -> tuple:
    if model not in _ROWS:
        raise InvalidInputError(
            f"model must be displacement, phase, or both, got {model!r}"
        )
    return _ROWS[model]


class BoundsReport(namedtuple("BoundsReport", "values provenance")):
    """All bounds for one scenario, with per-field formula provenance.

    Every report field reads as an attribute.  Times in t_P, lengths in
    l_P.  Fields for a model that was not requested are None.  The planck
    ratios are mass ratios for gravity and charge ratios for coulomb; the
    *_exceeds flags compare them against r_over_d_min as the working proxy
    for '>>'.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        if name in _FIELDS:
            return self.values.get(name)
        raise AttributeError(f"'BoundsReport' object has no attribute {name!r}")

    def as_dict(self) -> dict:
        return dict(self.values)


def report_values(p: ScenarioParams, model: str = "both", slack: float = 1.0) -> dict:
    """Every report field of the requested model(s), in output order.

    Bounds are computed even when the far-field proxy fails; the
    geometry_valid field carries that information instead of an error.
    """
    rows = _rows(model)
    _check_slack(slack)
    values: dict = {}
    for name, _, _, value in rows:
        values[name] = value(p, slack, values)
    return values


def report_series(
    p: ScenarioParams, model: str, slack: float, name: str, values: Iterable[float]
) -> tuple[dict, Iterator[tuple]]:
    """The report at each value of the swept field name (m_a, m_b, d or
    r), set up once per series: (constants, rows).

    Each value gives the bits, or the error, of report_values(
    replace_swept(p, name, value), model, slack).  The first value is
    evaluated in full; constants maps each field whose row does not read
    name to its value there.  rows yields (value, *the other fields'
    values) at every value, and after the first evaluates only those
    rows: a row is a function of the fields it reads.
    """
    values = iter(values)
    first = next(values, None)
    if first is None:
        raise InvalidInputError("a report series needs at least one value")
    q = replace_swept(p, name, first)
    v = report_values(q, model, slack)
    # Each row once more, on a copy of q without name and given only the
    # constant rows: one that reads name, directly, through a property or
    # through a varying row, raises AttributeError or KeyError.  Every row
    # ran at the first value, so it can raise nothing else.
    blind = object.__new__(ScenarioParams)
    object.__setattr__(blind, "__dict__", {f: x for f, x in q.__dict__.items() if f != name})
    constants, varying = {}, []
    for field, _, _, value in _rows(model):
        try:
            constants[field] = value(blind, slack, constants)
        except (AttributeError, KeyError):
            varying.append((field, value))
    return constants, _report_rows(q, slack, name, v, varying, values)


def _report_rows(q, slack, name, v, varying, values):
    # q is this series' own copy, never handed out: each point writes the
    # swept value into it, and into v the rows that read it.
    # An int beyond the double range exceeds the largest double, as +inf does.
    kind, fields, top = _SWEPT_FIELDS[name], q.__dict__, sys.float_info.max
    yield (fields[name], *[v[field] for field, _ in varying])
    for value in values:
        if not 0.0 < value <= top:
            _check_positive(name, kind, value)
        fields[name] = value
        row = [value]
        for field, fn in varying:
            v[field] = x = fn(q, slack, v)
            row.append(x)
        yield tuple(row)


def report_provenance(coupling: CouplingKind, model: str = "both") -> dict:
    """Formula provenance of every report field of the requested model(s)."""
    rows = _rows(model)
    symbols = _SYMBOLS.get(coupling)
    if symbols is None:
        raise InvalidInputError(f"unknown coupling {coupling!r}")
    return {name: provenance.format(**symbols) for name, _, provenance, _ in rows}


def feasibility_report(
    p: ScenarioParams, model: str = "both", slack: float = 1.0
) -> BoundsReport:
    """Evaluate every bound for the requested model(s) and flag feasibility."""
    return BoundsReport(report_values(p, model, slack), report_provenance(p.coupling, model))

"""Scenario parameters shared by the bound formulas, the causal timeline,
and the wavepacket oracle.

All fields are Planck-normalized floats: masses in m_P, lengths in l_P,
times in t_P, charges in q_P.  The pair coupling K is m_a*m_b for gravity
and q_a*q_b for coulomb; in these units both play the role G*m_A*m_B plays
in SI.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import InvalidInputError, NonFiniteError


class CouplingKind(str, Enum):
    GRAVITY = "gravity"
    COULOMB = "coulomb"


def _check_positive(name: str, kind: str, value: float) -> None:
    _check_finite(name, kind, value)
    if value <= 0.0:
        raise InvalidInputError(f"nonpositive {kind} {name} = {value!r}")


def _check_finite(name: str, kind: str, value: float) -> None:
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the double range, too long to repr
        raise NonFiniteError(f"{kind} {name} is an integer beyond the double range") from None
    if not finite:
        raise InvalidInputError(f"non-finite {kind} {name} = {value!r}")


def _name_huge_int(**values: float) -> None:
    # Float arithmetic on positive-checked swept-field arguments raised
    # OverflowError: one of them is an int beyond the double range, which
    # gets the error _check_finite gives.  The caller re-raises otherwise.
    for name, value in values.items():
        if isinstance(value, int):
            _check_finite(name, _SWEPT_FIELDS[name], value)


def _invalid_time(t: float) -> None:
    raise InvalidInputError(f"time must be finite and nonnegative, got {t!r}")


# The fields a sweep varies, with the kind their error messages name.  No
# check in ScenarioParams.__post_init__ reads two of them together, or one
# of them with another field, which is what makes replace_swept sound.
_SWEPT_FIELDS = {"m_a": "mass", "m_b": "mass", "d": "length", "r": "length"}


class ScenarioParams:
    """One source/probe configuration.

    m_a is the interfered source mass, m_b the probe mass, d the path
    separation, r the source-probe distance.  coupling is a CouplingKind or
    its value, "gravity" or "coulomb", and is stored as a CouplingKind.  q_a
    and q_b are charges and are required for coulomb coupling.  delta_x_min
    is the smallest trap confinement the probe can start from; it defaults
    to one Planck length for gravity and must be supplied explicitly for
    coulomb.  r_over_d_min is the ratio threshold standing in for the
    far-field requirement r >> d.  t_a and t_b are optional interferometer
    and probe measurement durations consumed by the causal timeline.
    override_geometry allows evaluating far-field formulas even when
    r/d < r_over_d_min.

    Instances are frozen, equal when their classes and fields are, and
    hash as the tuple of their fields.  The fields live in the instance
    __dict__, in the order of __init__'s parameters: __eq__, __hash__ and
    __repr__ read them there, and replace_swept copies it.
    """

    def __init__(self, m_a: float, d: float, r: float, m_b: float = 1.0,
                 coupling: CouplingKind = CouplingKind.GRAVITY, q_a: float | None = None,
                 q_b: float | None = None, delta_x_min: float | None = None,
                 r_over_d_min: float = 100.0, t_a: float | None = None,
                 t_b: float | None = None, override_geometry: bool = False) -> None:
        self.__dict__.update(
            m_a=m_a, d=d, r=r, m_b=m_b, coupling=coupling, q_a=q_a, q_b=q_b,
            delta_x_min=delta_x_min, r_over_d_min=r_over_d_min, t_a=t_a, t_b=t_b,
            override_geometry=override_geometry,
        )
        # Called by name: the benchmark's tracer and two tests wrap it.
        self.__post_init__()

    def __post_init__(self) -> None:
        for name, kind in _SWEPT_FIELDS.items():
            _check_positive(name, kind, getattr(self, name))
        _check_positive("r_over_d_min", "ratio", self.r_over_d_min)
        try:
            object.__setattr__(self, "coupling", CouplingKind(self.coupling))
        except ValueError:
            raise InvalidInputError(f"unknown coupling {self.coupling!r}") from None
        if self.coupling is CouplingKind.COULOMB and (self.q_a is None or self.q_b is None):
            raise InvalidInputError("coulomb coupling requires q_a and q_b")
        for name, value in (("q_a", self.q_a), ("q_b", self.q_b)):
            if value is not None:
                _check_positive(name, "charge", value)
        if self.delta_x_min is not None:
            _check_positive("delta_x_min", "length", self.delta_x_min)
        for name, value in (("t_a", self.t_a), ("t_b", self.t_b)):
            if value is not None:
                _check_finite(name, "time", value)
                if value < 0.0:
                    raise InvalidInputError(f"negative time {name} = {value!r}")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(self.__dict__.values()) == tuple(other.__dict__.values())

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({shown})"

    @property
    def geometry_valid(self) -> bool:
        """Far-field validity proxy: r/d at or above the configured threshold."""
        return self.r / self.d >= self.r_over_d_min

    @property
    def pair_coupling(self) -> float:
        """K: m_a*m_b (gravity) or q_a*q_b (coulomb), Planck-normalized."""
        if self.coupling is CouplingKind.COULOMB:
            return self.q_a * self.q_b
        return self.m_a * self.m_b

    @property
    def source_strength(self) -> float:
        """m_a/m_P for gravity, q_a/q_P for coulomb."""
        return self.q_a if self.coupling is CouplingKind.COULOMB else self.m_a

    @property
    def probe_strength(self) -> float:
        """m_b/m_P for gravity, q_b/q_P for coulomb."""
        return self.q_b if self.coupling is CouplingKind.COULOMB else self.m_b

    @property
    def effective_source_mass(self) -> float:
        """K/m_b: the source strength that enters every displacement-model
        bound.  Exactly m_a for gravity.  Raises ArithmeticError if a
        coulomb K/m_b underflows to zero."""
        if self.coupling is not CouplingKind.COULOMB:
            return self.m_a
        m_eff = self.pair_coupling / self.m_b
        if m_eff == 0.0:
            raise ArithmeticError(
                f"K/m_B underflows to zero: K = {self.pair_coupling!r}, m_B = {self.m_b!r}"
            )
        return m_eff

    @property
    def resolved_delta_x_min(self) -> float:
        """Trap confinement floor; l_P by default for gravity, mandatory
        input for coulomb (no charge analog of the gravitational floor)."""
        if self.delta_x_min is not None:
            return self.delta_x_min
        if self.coupling is CouplingKind.COULOMB:
            raise InvalidInputError(
                "coulomb displacement bounds require an explicit delta_x_min"
            )
        return 1.0


def replace_swept(p: ScenarioParams, name: str, value: float) -> ScenarioParams:
    """A copy of p with field name, one of m_a, m_b, d or r, set to value,
    without validating p's other fields again: only value is checked, with
    the message __post_init__ would give."""
    kind = _SWEPT_FIELDS.get(name)
    if kind is None:
        raise InvalidInputError(f"cannot sweep {name!r}; choose one of {tuple(_SWEPT_FIELDS)}")
    _check_positive(name, kind, value)
    fields = p.__dict__.copy()
    fields[name] = value
    copy = object.__new__(ScenarioParams)
    object.__setattr__(copy, "__dict__", fields)
    return copy

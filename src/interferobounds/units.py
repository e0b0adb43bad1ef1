"""SI quantities tagged with their dimension, and SI <-> Planck-unit conversion.

Every other module in this package computes with dimensionless reals in
Planck units (c = hbar = G = 1, charge measured in Planck charges), so the
bound formulas reduce to plain ratios such as m_A/m_P and R/l_P.  SI values
appear only here and at the CLI boundary.

CODATA 2018 values, hard-coded (SI):

    c      299792458           m s^-1           exact
    hbar   1.054571817e-34     J s              h / 2 pi, h exact
    G      6.67430e-11         m^3 kg^-1 s^-2
    eps0   8.8541878128e-12    F m^-1

Derived Planck scales:

    m_P = sqrt(hbar c / G)        ~ 2.176434e-8  kg
    l_P = sqrt(hbar G / c^3)      ~ 1.616255e-35 m
    t_P = l_P / c                 ~ 5.391247e-44 s
    q_P = sqrt(4 pi eps0 hbar c)  ~ 1.875546e-18 C

With charge in units of q_P the Coulomb pair coupling q_A q_B/(4 pi eps0)
becomes the plain product of the normalized charges, exactly as G m_A m_B
becomes the product of the normalized masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import InvalidInputError, NonFiniteError

__all__ = [
    "Dimension",
    "Quantity",
    "Constants",
    "CODATA",
    "DIMENSIONLESS",
    "LENGTH",
    "MASS",
    "TIME",
    "CHARGE",
    "VELOCITY",
    "FORCE",
    "ENERGY",
    "ACTION",
    "to_planck",
    "from_planck",
]


@dataclass(frozen=True)
class Dimension:
    """Integer exponents over the base dimensions length, mass, time, charge."""

    length: int = 0
    mass: int = 0
    time: int = 0
    charge: int = 0

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(
            self.length + other.length,
            self.mass + other.mass,
            self.time + other.time,
            self.charge + other.charge,
        )

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(
            self.length - other.length,
            self.mass - other.mass,
            self.time - other.time,
            self.charge - other.charge,
        )

    def __pow__(self, n: int) -> "Dimension":
        if not isinstance(n, int):
            raise InvalidInputError("dimension exponents must be integers")
        return Dimension(self.length * n, self.mass * n, self.time * n, self.charge * n)


DIMENSIONLESS = Dimension()
LENGTH = Dimension(length=1)
MASS = Dimension(mass=1)
TIME = Dimension(time=1)
CHARGE = Dimension(charge=1)
VELOCITY = LENGTH / TIME
FORCE = MASS * LENGTH / TIME ** 2
ENERGY = FORCE * LENGTH
ACTION = ENERGY * TIME


@dataclass(frozen=True)
class Quantity:
    """A finite real SI value tagged with its dimension, for conversion.

    Values are SI (base units m, kg, s, C and their products); `to_planck`
    reads one and `from_planck` builds one.
    """

    value: float
    dim: Dimension = DIMENSIONLESS

    def __post_init__(self) -> None:
        if not isinstance(self.value, (int, float)) or isinstance(self.value, bool):
            raise InvalidInputError(f"quantity value must be a real number, got {self.value!r}")
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise InvalidInputError(f"quantity value must be finite, got {self.value!r}")


# CODATA 2018, SI.
_C = 299792458.0
_HBAR = 1.054571817e-34
_G = 6.67430e-11
_EPS0 = 8.8541878128e-12

_M_P = math.sqrt(_HBAR * _C / _G)
_L_P = math.sqrt(_HBAR * _G / _C ** 3)
_T_P = _L_P / _C
_Q_P = math.sqrt(4.0 * math.pi * _EPS0 * _HBAR * _C)


class Constants(NamedTuple):
    """Fundamental constants and the derived Planck scales, as SI quantities."""

    c: Quantity
    hbar: Quantity
    G: Quantity
    eps0: Quantity
    m_p: Quantity
    l_p: Quantity
    t_p: Quantity
    q_p: Quantity


CODATA = Constants(
    c=Quantity(_C, VELOCITY),
    hbar=Quantity(_HBAR, ACTION),
    G=Quantity(_G, LENGTH ** 3 / (MASS * TIME ** 2)),
    eps0=Quantity(_EPS0, CHARGE ** 2 * TIME ** 2 / (MASS * LENGTH ** 3)),
    m_p=Quantity(_M_P, MASS),
    l_p=Quantity(_L_P, LENGTH),
    t_p=Quantity(_T_P, TIME),
    q_p=Quantity(_Q_P, CHARGE),
)


@lru_cache(maxsize=None)
def _planck_factor(dim: Dimension) -> Fraction:
    # Exact rational arithmetic: immune to intermediate float under/overflow
    # for large exponents and keeps round-trips at the 1-ulp level.
    factor = Fraction(1)
    for base, exp in (
        (_L_P, dim.length),
        (_M_P, dim.mass),
        (_T_P, dim.time),
        (_Q_P, dim.charge),
    ):
        if exp:
            factor *= Fraction(base) ** exp
    return factor


def _si_unit(dim: Dimension) -> str:
    # The SI unit of a dimension, e.g. "s" or "m kg s^-2".
    parts = []
    for unit, exp in (("m", dim.length), ("kg", dim.mass), ("s", dim.time), ("C", dim.charge)):
        if exp:
            parts.append(unit if exp == 1 else f"{unit}^{exp}")
    return " ".join(parts)


def to_planck(q: Quantity) -> float:
    """Express a quantity in the Planck unit of its dimension."""
    try:
        return float(Fraction(q.value) / _planck_factor(q.dim))
    except OverflowError:
        raise NonFiniteError(
            f"{q.value!r} {_si_unit(q.dim)} is not representable in Planck units"
        ) from None


def from_planck(x: float, dim: Dimension) -> Quantity:
    """Inverse of to_planck: build the SI quantity worth x Planck units."""
    x = float(x)
    if not math.isfinite(x):
        raise InvalidInputError(f"planck value must be finite, got {x!r}")
    try:
        return Quantity(float(Fraction(x) * _planck_factor(dim)), dim)
    except OverflowError:
        raise NonFiniteError(
            f"{x!r} Planck units of {_si_unit(dim)} is not representable in SI"
        ) from None

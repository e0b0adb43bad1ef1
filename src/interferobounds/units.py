"""SI <-> Planck-unit conversion for the four kinds of quantity the CLI reads.

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

KINDS is the one table of what converts: each kind ("mass", "length",
"time", "charge") maps to (SI unit, Planck suffix, SI value of its Planck
unit, a float).  to_planck and from_planck take a kind's name and a plain
float; each is one float division or multiplication, so it rounds once.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError, NonFiniteError

__all__ = ["KINDS", "to_planck", "from_planck"]

# CODATA 2018, SI.
_C = 299792458.0
_HBAR = 1.054571817e-34
_G = 6.67430e-11
_EPS0 = 8.8541878128e-12

_M_P = math.sqrt(_HBAR * _C / _G)
_L_P = math.sqrt(_HBAR * _G / _C ** 3)
_T_P = _L_P / _C
_Q_P = math.sqrt(4.0 * math.pi * _EPS0 * _HBAR * _C)

# A charge has no Planck suffix: the CLI reads a bare number under --units
# planck as one.
KINDS = {
    "mass": ("kg", "mp", _M_P),
    "length": ("m", "lp", _L_P),
    "time": ("s", "tp", _T_P),
    "charge": ("C", None, _Q_P),
}


def _kind(kind: str) -> tuple:
    try:
        return KINDS[kind]
    except KeyError:
        raise InvalidInputError(
            f"unknown kind of quantity {kind!r}, expected one of {', '.join(KINDS)}"
        ) from None


def _show(value) -> str:
    # repr, or the size of an int too long for it: Python caps the decimal
    # text of an int at 4300 digits by default.
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def to_planck(value: float, kind: str) -> float:
    """Express a finite real SI value of the given kind in its Planck unit."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidInputError(f"quantity value must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        # An int beyond the double range; every Planck unit is below one SI
        # unit, so its Planck value is beyond it too.
        raise NonFiniteError(
            f"{_show(value)} {_kind(kind)[0]} is not representable in Planck units"
        ) from None
    if not math.isfinite(value):
        raise InvalidInputError(f"quantity value must be finite, got {value!r}")
    si_unit, _, factor = _kind(kind)
    # A zero of either sign is exactly 0, so it converts to +0.0.
    x = value / factor if value else 0.0
    if math.isinf(x):
        raise NonFiniteError(f"{value!r} {si_unit} is not representable in Planck units")
    return x


def from_planck(x: float, kind: str) -> float:
    """Inverse of to_planck: the SI value of x Planck units of the given
    kind.  Every Planck unit is below one SI unit, so it cannot overflow."""
    try:
        x = float(x)
    except OverflowError:  # an int beyond the double range
        raise InvalidInputError(f"planck value must be finite, got {_show(x)}") from None
    if not math.isfinite(x):
        raise InvalidInputError(f"planck value must be finite, got {x!r}")
    return x * _kind(kind)[2] if x else 0.0

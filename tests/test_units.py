import math
import random
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest

import interferobounds
from interferobounds import cli, units
from interferobounds.errors import InvalidInputError, NonFiniteError
from interferobounds.units import KINDS, from_planck, to_planck

# Independent CODATA 2018 references, written out here rather than imported.
C_REF = 299792458.0
HBAR_REF = 1.054571817e-34
G_REF = 6.67430e-11
EPS0_REF = 8.8541878128e-12

# Published CODATA 2018 derived values (7 significant digits).
M_P_PUBLISHED = 2.176434e-8
L_P_PUBLISHED = 1.616255e-35
T_P_PUBLISHED = 5.391247e-44
Q_P_PUBLISHED = 1.875546e-18


def test_planck_mass_matches_codata_derivation():
    m_p_ref = math.sqrt(HBAR_REF * C_REF / G_REF)
    assert units._M_P == pytest.approx(m_p_ref, rel=1e-12)
    assert units._M_P == pytest.approx(M_P_PUBLISHED, rel=1e-6)


def test_planck_length_and_time_match_codata():
    l_p_ref = math.sqrt(HBAR_REF * G_REF / C_REF ** 3)
    assert units._L_P == pytest.approx(l_p_ref, rel=1e-12)
    assert units._L_P == pytest.approx(L_P_PUBLISHED, rel=1e-6)
    assert units._T_P == pytest.approx(T_P_PUBLISHED, rel=1e-6)
    assert units._Q_P == pytest.approx(Q_P_PUBLISHED, rel=1e-6)


def test_constant_identities():
    # m_P^2 = hbar c / G and l_P = hbar / (m_P c)
    assert units._M_P ** 2 == pytest.approx(units._HBAR * units._C / units._G, rel=1e-12)
    assert units._L_P == pytest.approx(units._HBAR / (units._M_P * units._C), rel=1e-12)
    assert units._L_P ** 2 == pytest.approx(
        units._HBAR * units._G / units._C ** 3, rel=1e-12
    )


def test_to_planck_of_planck_mass_is_one():
    assert to_planck(M_P_PUBLISHED, "mass") == pytest.approx(1.0, rel=1e-6)


def test_from_planck_base_units():
    assert from_planck(1.0, "length") == pytest.approx(L_P_PUBLISHED, rel=1e-6)
    assert from_planck(1.0, "time") == pytest.approx(T_P_PUBLISHED, rel=1e-6)
    assert from_planck(1.0, "mass") == pytest.approx(M_P_PUBLISHED, rel=1e-6)


@pytest.mark.parametrize("kind", KINDS)
def test_from_planck_of_the_largest_double_is_finite(kind):
    # Every Planck unit is below one SI unit of its kind, so from_planck
    # shrinks every value and has nothing to overflow.
    assert KINDS[kind][2] < 1
    assert math.isfinite(from_planck(sys.float_info.max, kind))


def test_round_trip_base_dimensions():
    rng = np.random.default_rng(20240601)
    kinds = list(KINDS)
    for _ in range(400):
        kind = kinds[rng.integers(0, 4)]
        x = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-40.0, 40.0))
        assert to_planck(from_planck(x, kind), kind) == pytest.approx(x, rel=1e-12)
        assert from_planck(to_planck(x, kind), kind) == pytest.approx(x, rel=1e-12)


def test_coulomb_coupling_convention():
    # One Planck charge pair: q_P^2/(4 pi eps0) equals hbar*c, the same SI
    # value as G*m_P^2, so Planck-normalized couplings are plain products.
    k_si = units._Q_P ** 2 / (4.0 * math.pi * units._EPS0)
    assert k_si == pytest.approx(units._HBAR * units._C, rel=1e-12)
    assert k_si == pytest.approx(units._G * units._M_P ** 2, rel=1e-12)


def test_kinds_table_covers_every_quantity_flag():
    # The CLI reads only these kinds, and its unit suffixes come from the table.
    assert {f.kind for f in cli._FIELDS} - {"ratio"} == set(KINDS)
    assert set(cli._SUFFIXES) == {"kg", "m", "s", "C", "mp", "lp", "tp"}


@pytest.mark.parametrize("module", [interferobounds, units], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing



# The conversion's rounding, pinned against the exact rational result.
# Each input is first read as a double, as float() reads it; the quotient
# or product of that double and the Planck unit is then rounded once.
# float(Fraction) is CPython's correctly rounded int / int, it keeps the sign
# of a negative underflow, and it raises OverflowError exactly where the
# rounded result is not finite.  A zero of either sign converts to +0.0.

def _bits_or_error(convert, value, kind):
    try:
        return struct.pack("<d", convert(value, kind))
    except Exception as exc:  # noqa: BLE001 - the type and message are the subject
        return type(exc), str(exc)


def _to_planck_exact(value, kind, factor):
    si_unit = KINDS[kind][0]
    try:
        v = float(value)
    except OverflowError:
        return NonFiniteError, f"{value!r} {si_unit} is not representable in Planck units"
    try:
        return struct.pack("<d", float(Fraction(v) / factor))
    except OverflowError:
        return NonFiniteError, f"{v!r} {si_unit} is not representable in Planck units"


def _from_planck_exact(x, kind, factor):
    try:
        v = float(x)
    except OverflowError:
        return InvalidInputError, f"planck value must be finite, got {x!r}"
    return struct.pack("<d", float(Fraction(v) * factor))


def _rounding_draws(factor, rng, count=100_000):
    """count finite doubles with uniformly random bit patterns (every
    exponent, subnormals and both signs), then the edges: zeros, the
    extreme doubles, subnormals, to_planck's overflow edge, and ints above
    2**53 and beyond the double range."""
    draws = []
    while len(draws) < count:
        x = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
        if math.isfinite(x):
            draws.append(x)
    tiny, huge = 5e-324, sys.float_info.max
    edges = [0.0, 1.0, tiny, 2.0 * tiny, sys.float_info.min, huge]
    edges += [rng.getrandbits(52) * tiny for _ in range(1000)]  # subnormals
    # The largest SI value whose Planck value is finite, and its neighbours.
    edge = float(Fraction(huge) * factor)
    for _ in range(20):
        edges += [edge, math.nextafter(edge, math.inf)]
        edge = math.nextafter(edge, 0.0)
    draws += edges + [-x for x in edges]
    limit = 2 ** 1024 - 2 ** 970  # the smallest int that float() cannot hold
    ints = [2 ** 53 + 1, 3 ** 40, limit - 1, limit, 2 ** 1024, 10 ** 400]
    ints += [rng.getrandbits(rng.randint(54, 1100)) | 1 for _ in range(1000)]
    return draws + ints + [-n for n in ints]


@pytest.mark.parametrize("kind", KINDS)
def test_conversions_round_the_exact_result_once(kind):
    factor = Fraction(KINDS[kind][2])
    draws = _rounding_draws(factor, random.Random(f"units rounding {kind}"))
    for convert, exact in ((to_planck, _to_planck_exact), (from_planck, _from_planck_exact)):
        differ = [
            (value, got, want)
            for value in draws
            if (got := _bits_or_error(convert, value, kind)) != (want := exact(value, kind, factor))
        ]
        assert differ[:5] == [], f"{convert.__name__}: {len(differ)} of {len(draws)} differ"

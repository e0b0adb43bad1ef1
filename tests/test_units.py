import math

import numpy as np
import pytest

import interferobounds
from interferobounds import units
from interferobounds.errors import InvalidInputError, NonFiniteError
from interferobounds.units import (
    CHARGE,
    CODATA,
    DIMENSIONLESS,
    LENGTH,
    MASS,
    TIME,
    Dimension,
    Quantity,
    from_planck,
    to_planck,
)

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


def test_make_quantity_constructor_identity():
    q = Quantity(2.0, MASS)
    assert q.value == 2.0
    assert q.dim == MASS


def test_make_quantity_zero():
    q = Quantity(0.0, LENGTH)
    assert q.value == 0.0
    assert q.dim == LENGTH


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_make_quantity_rejects_non_finite(bad):
    with pytest.raises(InvalidInputError):
        Quantity(bad, TIME)


def test_multiplication_adds_exponents_exactly():
    dim = MASS * LENGTH ** 2 / TIME
    assert dim == Dimension(length=2, mass=1, time=-1)
    assert dim / LENGTH == Dimension(length=1, mass=1, time=-1)
    assert LENGTH ** 2 == Dimension(length=2)


def test_planck_mass_matches_codata_derivation():
    m_p_ref = math.sqrt(HBAR_REF * C_REF / G_REF)
    assert CODATA.m_p.value == pytest.approx(m_p_ref, rel=1e-12)
    assert CODATA.m_p.value == pytest.approx(M_P_PUBLISHED, rel=1e-6)


def test_planck_length_and_time_match_codata():
    l_p_ref = math.sqrt(HBAR_REF * G_REF / C_REF ** 3)
    assert CODATA.l_p.value == pytest.approx(l_p_ref, rel=1e-12)
    assert CODATA.l_p.value == pytest.approx(L_P_PUBLISHED, rel=1e-6)
    assert CODATA.t_p.value == pytest.approx(T_P_PUBLISHED, rel=1e-6)
    assert CODATA.q_p.value == pytest.approx(Q_P_PUBLISHED, rel=1e-6)


def test_constant_identities():
    # m_P^2 = hbar c / G and l_P = hbar / (m_P c)
    assert CODATA.m_p.value ** 2 == pytest.approx(
        CODATA.hbar.value * CODATA.c.value / CODATA.G.value, rel=1e-12
    )
    assert CODATA.l_p.value == pytest.approx(
        CODATA.hbar.value / (CODATA.m_p.value * CODATA.c.value), rel=1e-12
    )
    assert CODATA.l_p.value ** 2 == pytest.approx(
        CODATA.hbar.value * CODATA.G.value / CODATA.c.value ** 3, rel=1e-12
    )


def test_to_planck_of_planck_mass_is_one():
    assert to_planck(Quantity(M_P_PUBLISHED, MASS)) == pytest.approx(1.0, rel=1e-6)


def test_to_planck_zero_and_linearity():
    assert to_planck(Quantity(0.0, CHARGE)) == 0.0
    two_lp = Quantity(2.0 * CODATA.l_p.value, LENGTH)
    assert to_planck(two_lp) == pytest.approx(2.0, rel=1e-12)


def test_from_planck_base_units():
    assert from_planck(1.0, LENGTH).value == pytest.approx(L_P_PUBLISHED, rel=1e-6)
    assert from_planck(1.0, TIME).value == pytest.approx(T_P_PUBLISHED, rel=1e-6)
    assert from_planck(1.0, MASS).value == pytest.approx(M_P_PUBLISHED, rel=1e-6)


def test_from_planck_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        from_planck(float("nan"), LENGTH)


def test_unrepresentable_conversions_are_non_finite_and_name_the_unit():
    with pytest.raises(NonFiniteError) as to_err:
        to_planck(Quantity(1e300, TIME))
    with pytest.raises(NonFiniteError) as from_err:
        from_planck(1e300, LENGTH / TIME)
    assert str(to_err.value) == "1e+300 s is not representable in Planck units"
    assert str(from_err.value) == "1e+300 Planck units of m s^-1 is not representable in SI"


def test_round_trip_base_dimensions():
    rng = np.random.default_rng(20240601)
    dims = [LENGTH, MASS, TIME, CHARGE]
    for _ in range(400):
        dim = dims[rng.integers(0, 4)]
        x = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-40.0, 40.0))
        si = from_planck(x, dim)
        assert to_planck(si) == pytest.approx(x, rel=1e-12)
        q = Quantity(x, dim)
        assert from_planck(to_planck(q), dim).value == pytest.approx(x, rel=1e-12)


def test_round_trip_composite_dimension():
    force = MASS * LENGTH / TIME ** 2
    for x in (1.0, 3.7e5, 2.2e-7):
        assert to_planck(from_planck(x, force)) == pytest.approx(x, rel=1e-12)


def test_dimensionless_passthrough():
    assert to_planck(Quantity(3.5, DIMENSIONLESS)) == 3.5
    assert from_planck(3.5, DIMENSIONLESS).value == 3.5


def test_coulomb_coupling_convention():
    # One Planck charge pair: q_P^2/(4 pi eps0) equals hbar*c, the same SI
    # value as G*m_P^2, so Planck-normalized couplings are plain products.
    k_si = CODATA.q_p.value ** 2 / (4.0 * math.pi * CODATA.eps0.value)
    assert k_si == pytest.approx(CODATA.hbar.value * CODATA.c.value, rel=1e-12)
    assert k_si == pytest.approx(CODATA.G.value * CODATA.m_p.value ** 2, rel=1e-12)


@pytest.mark.parametrize("module", [interferobounds, units], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing

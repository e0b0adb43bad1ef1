"""The pure-Python Gaussian oracle: its covariance storage, and bit-identity
against the numpy reference.

`reference_dynamics` keeps the numpy arithmetic of the evolution and the
overlap; the product code must reproduce it exactly (`==`, never approx),
so the displacement goldens cannot drift with the implementation.
"""

import math
import random

import numpy as np
import pytest

import reference_dynamics as ref
from interferobounds import dynamics
from interferobounds.dynamics import GaussianState, evolve_constant_force, overlap
from interferobounds.errors import InvalidInputError
from interferobounds.scenario import CouplingKind, ScenarioParams


def test_cov_is_stored_as_tuple_of_float_tuples():
    for cov in (np.diag([2.0, 0.5]), [[2, 0], [0, 0.5]], ((2.0, 0.0), (0.0, 0.5))):
        s = GaussianState(0.0, 0.0, cov)
        assert s.cov == ((2.0, 0.0), (0.0, 0.5))
        assert all(type(v) is float for row in s.cov for v in row)
    array = np.array([[1.0, 0.2], [0.2, 1.0]])
    s = GaussianState(0.0, 0.0, array)
    array[0, 0] = 5.0  # the state keeps its own immutable copy
    assert s.cov[0][0] == 1.0


@pytest.mark.parametrize(
    "cov",
    [
        np.eye(3),
        [[1.0, 0.0], [0.0]],
        [1.0, 0.0, 0.0, 1.0],
        1.0,
        [["a", 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, 1j]],
        [[1.0, math.nan], [math.nan, 1.0]],
    ],
)
def test_malformed_cov_rejected(cov):
    with pytest.raises(InvalidInputError):
        GaussianState(0.0, 0.0, cov)


def _loguniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _correlated_pure_state(rng):
    sxx = 10.0 ** rng.uniform(-3, 3)
    sxp = rng.uniform(-3.0, 3.0)
    spp = (0.25 + sxp * sxp) / sxx
    return GaussianState(
        rng.uniform(-10, 10),
        rng.uniform(-10, 10),
        ((sxx, sxp), (sxp, spp)),
        rng.uniform(-math.pi, math.pi),
    )


def _fields(s):
    return (s.mean_x, s.mean_p, s.cov, s.phase)


def test_random_correlated_pairs_match_reference_bit_for_bit():
    rng = random.Random(20240529)
    for _ in range(10_000):
        a = _correlated_pure_state(rng)
        b = _correlated_pure_state(rng)
        assert overlap(a, b) == ref.overlap(a, b)
        force = rng.uniform(-5.0, 5.0)
        m = _loguniform(rng, 0.1, 10.0)
        t = rng.uniform(0.0, 5.0)
        evolved = evolve_constant_force(a, force, m, t)
        assert _fields(evolved) == _fields(ref.evolve_constant_force(a, force, m, t))
        assert overlap(evolved, b) == ref.overlap(evolved, b)


def _far_field_draw(rng, coulomb):
    # The benchmark's far-field domain: m_a 1e6-1e12 m_P, d 1-1e6 l_P,
    # r/d 1e2-1e6; Coulomb q_a 1e3-1e6, q_b 1-1e3, dx_min 1-1e3 l_P.
    m_a = _loguniform(rng, 1e6, 1e12)
    d = _loguniform(rng, 1.0, 1e6)
    r = d * _loguniform(rng, 1e2, 1e6)
    if not coulomb:
        return ScenarioParams(m_a=m_a, d=d, r=r)
    return ScenarioParams(
        m_a=m_a, d=d, r=r, coupling=CouplingKind.COULOMB,
        q_a=_loguniform(rng, 1e3, 1e6), q_b=_loguniform(rng, 1.0, 1e3),
        delta_x_min=_loguniform(rng, 1.0, 1e3),
    )


def _series(p, t_max, steps=60):
    rows = []
    for i in range(steps + 1):
        pair = dynamics.displacement_branches(p, 1.0, t_max * i / steps)
        rows.append(
            (pair.left.mean_x, pair.right.mean_x, pair.left.sigma_x, pair.overlap)
        )
    return rows


@pytest.mark.parametrize("coulomb", [False, True], ids=["gravity", "coulomb"])
def test_far_field_displacement_series_match_reference(coulomb, monkeypatch):
    rng = random.Random(7 + coulomb)
    for _ in range(100):
        p = _far_field_draw(rng, coulomb)
        t_orth = dynamics.orthogonalization_time(p)
        rows = _series(p, t_orth)
        with monkeypatch.context() as patched:
            patched.setattr(dynamics, "evolve_constant_force", ref.evolve_constant_force)
            patched.setattr(dynamics, "overlap", ref.overlap)
            assert dynamics.orthogonalization_time(p) == t_orth
            assert _series(p, t_orth) == rows


def _same_bits(a: complex, b: complex) -> bool:
    # Equal parts with equal signs (so -0.0 differs from 0.0); any NaN matches NaN.
    return all(
        (math.isnan(x) and math.isnan(y))
        or (x == y and math.copysign(1.0, x) == math.copysign(1.0, y))
        for x, y in ((a.real, b.real), (a.imag, b.imag))
    )


# Zeros, subnormals, the edges of the double range, the cexp scaling steps
# (multiples of 709), infinities and NaNs of both signs.
_SPECIALS = (
    0.0, -0.0, 5e-324, -5e-324, 3e-310, 1.0, -1.0, 2.5, 709.5, 710.0, 1418.5, 1419.0,
    -1500.0, 1e308, -1e308, math.inf, -math.inf, math.nan, -math.nan,
)
_SPECIAL_PAIRS = [complex(x, y) for x in _SPECIALS for y in _SPECIALS]


def test_cexp_matches_numpy_beyond_the_scaling_step_and_at_specials():
    rng = random.Random(709)
    draws = [
        complex(rng.uniform(700.0, 1500.0), rng.choice((-1, 1)) * 10.0 ** rng.uniform(-320, 308))
        for _ in range(20_000)
    ]
    with np.errstate(all="ignore"):
        for z in draws + _SPECIAL_PAIRS:
            assert _same_bits(dynamics._cexp(z), complex(np.exp(np.complex128(z)))), z


def test_cdiv_by_signed_zero_matches_numpy():
    zeros = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
    with np.errstate(all="ignore"):
        for a in _SPECIAL_PAIRS:
            for b in zeros:
                expected = complex(np.complex128(a) / np.complex128(b))
                assert _same_bits(dynamics._cdiv(a, b), expected), (a, b)

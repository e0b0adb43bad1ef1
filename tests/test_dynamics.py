import math
import random

import numpy as np
import pytest

from interferobounds import bounds
from interferobounds.dynamics import (
    GaussianState,
    displacement_branches,
    displacement_series,
    evolve_constant_force,
    ground_state,
    ground_state_with_width,
    orthogonalization_time,
    overlap,
    phase_evolution,
    phase_series,
)
from interferobounds.errors import GeometryError, InvalidInputError, NonFiniteError
from interferobounds.scenario import CouplingKind, ScenarioParams

from scenario_copy import validated_copy
from series_draws import series_draw


def _det(cov):
    return cov[0][0] * cov[1][1] - cov[0][1] * cov[1][0]


def _random_pure_state(rng):
    sxx = float(10.0 ** rng.uniform(-2, 2))
    sxp = float(rng.uniform(-3.0, 3.0))
    spp = (0.25 + sxp * sxp) / sxx
    cov = np.array([[sxx, sxp], [sxp, spp]])
    return GaussianState(
        float(rng.uniform(-5, 5)),
        float(rng.uniform(-5, 5)),
        cov,
        float(rng.uniform(-math.pi, math.pi)),
    )


# --- ground state ------------------------------------------------------------


def test_ground_state_with_width_inverts_sigma():
    for m, sx in ((1.0, 1.0), (3.7, 0.2), (1e6, 1.0)):
        s = ground_state_with_width(m, sx)
        assert s.sigma_x == pytest.approx(sx, rel=1e-12)
        assert _det(s.cov) == pytest.approx(0.25, rel=1e-12)


def test_state_validation_tolerances():
    # Asymmetry: 1e-11 is refused and 1e-13 accepted (tolerance 1e-12).
    with pytest.raises(InvalidInputError, match="symmetric"):
        GaussianState(0.0, 0.0, ((1.0, 0.1), (0.1 + 1e-11, 1.0)))
    GaussianState(0.0, 0.0, ((1.0, 0.1), (0.1 + 1e-13, 1.0)))
    # det = 1/4 less 1e-8 relative is refused and 1e-10 accepted (slack 1e-9).
    with pytest.raises(InvalidInputError, match="uncertainty floor"):
        GaussianState(0.0, 0.0, ((0.5, 0.0), (0.0, 0.5 * (1.0 - 1e-8))))
    GaussianState(0.0, 0.0, ((0.5, 0.0), (0.0, 0.5 * (1.0 - 1e-10))))


# --- evolution ---------------------------------------------------------------


def test_free_spreading_formula():
    sigma0, m = 0.7, 1.3
    s = ground_state_with_width(m, sigma0)
    for t in (0.5, 2.0, 10.0):
        e = evolve_constant_force(s, 0.0, m, t)
        expected = sigma0 ** 2 + (t / (2.0 * m * sigma0)) ** 2
        assert e.cov[0][0] == pytest.approx(expected, rel=1e-12)


def test_symplectic_determinant_preserved():
    # Moderate parameter windows: the achievable drift floor is the entry
    # roundoff eps*sxx*spp, which grows with the spreading magnitude.
    rng = np.random.default_rng(43)
    for _ in range(100):
        sxx = float(10.0 ** rng.uniform(-0.5, 0.5))
        sxp = float(rng.uniform(-1.0, 1.0))
        spp = (0.25 + sxp * sxp) / sxx
        s = GaussianState(0.0, 0.0, np.array([[sxx, sxp], [sxp, spp]]))
        det0 = _det(s.cov)
        for _ in range(3):
            s = evolve_constant_force(
                s,
                float(rng.uniform(-2, 2)),
                float(10.0 ** rng.uniform(-0.3, 0.3)),
                float(rng.uniform(0, 2)),
            )
        assert _det(s.cov) == pytest.approx(det0, rel=1e-12)


def test_heisenberg_floor_never_violated():
    rng = np.random.default_rng(47)
    for _ in range(50):
        s = ground_state_with_width(float(10.0 ** rng.uniform(-1, 1)), 1.0)
        for _ in range(5):
            # Construction raises if the floor were violated.
            s = evolve_constant_force(
                s, float(rng.uniform(-1, 1)), 1.0, float(rng.uniform(0, 10))
            )
        assert _det(s.cov) >= 0.25 * (1.0 - 1e-9)


# --- overlap -----------------------------------------------------------------


def test_overlap_identical_states_is_one():
    rng = np.random.default_rng(53)
    for _ in range(20):
        s = _random_pure_state(rng)
        assert abs(overlap(s, s) - 1.0) < 1e-12


def test_overlap_half_width_displacement():
    sigma0 = 0.9
    s = ground_state_with_width(1.0, sigma0)
    dx = sigma0 * math.sqrt(8.0 * math.log(2.0))
    shifted = GaussianState(dx, 0.0, s.cov, 0.0)
    assert abs(overlap(s, shifted)) == pytest.approx(0.5, rel=1e-12)


def test_overlap_conjugate_symmetry():
    rng = np.random.default_rng(59)
    for _ in range(50):
        a = _random_pure_state(rng)
        b = _random_pure_state(rng)
        ab = overlap(a, b)
        ba = overlap(b, a)
        assert abs(ab) == pytest.approx(abs(ba), rel=1e-12)
        assert ab == pytest.approx(ba.conjugate(), rel=1e-9)
        assert 0.0 <= abs(ab) <= 1.0 + 1e-12


def test_overlap_matches_matrix_fidelity_form():
    # Independent oracle for equal covariances (correlation included):
    # |<a|b>| = exp(-delta^T Sigma^-1 delta / 8).
    rng = np.random.default_rng(61)
    for _ in range(50):
        a = _random_pure_state(rng)
        b = GaussianState(
            a.mean_x + float(rng.uniform(-2, 2)),
            a.mean_p + float(rng.uniform(-2, 2)),
            a.cov,
            float(rng.uniform(-1, 1)),
        )
        delta = np.array([b.mean_x - a.mean_x, b.mean_p - a.mean_p])
        expected = math.exp(-float(delta @ np.linalg.solve(a.cov, delta)) / 8.0)
        assert abs(overlap(a, b)) == pytest.approx(expected, rel=1e-9)


# --- split-step Schrodinger cross-check --------------------------------------


def _split_step(psi0, x, force, m, t, steps):
    n = x.size
    dx = x[1] - x[0]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    dt = t / steps
    half_kin = np.exp(-1j * k * k / (2.0 * m) * dt / 2.0)
    pot = np.exp(1j * force * x * dt)
    psi = psi0.copy()
    for _ in range(steps):
        psi = np.fft.ifft(np.fft.fft(psi) * half_kin)
        psi = psi * pot
        psi = np.fft.ifft(np.fft.fft(psi) * half_kin)
    return psi


def _wavefunction(state, x):
    sxx = state.cov[0][0]
    a = 1.0 / (2.0 * sxx) - 1j * state.cov[0][1] / sxx
    return (
        (2.0 * np.pi * sxx) ** -0.25
        * np.exp(
            -a * (x - state.mean_x) ** 2 / 2.0
            + 1j * state.mean_p * (x - state.mean_x)
            + 1j * state.phase
        )
    )


def test_pde_cross_check_moments_and_branch_overlap():
    m, t = 1.0, 1.2
    x = np.linspace(-40.0, 40.0, 8192, endpoint=False)
    dx = x[1] - x[0]
    base = ground_state_with_width(m, 1.0)
    s0 = GaussianState(0.0, 0.4, base.cov, 0.0)
    psi0 = _wavefunction(s0, x)
    assert np.sum(np.abs(psi0) ** 2) * dx == pytest.approx(1.0, abs=1e-9)

    for force in (0.0, 1.5):
        analytic = evolve_constant_force(s0, force, m, t)
        psi = _split_step(psi0, x, force, m, t, 2000)
        mean = float(np.sum(np.abs(psi) ** 2 * x) * dx)
        var = float(np.sum(np.abs(psi) ** 2 * (x - mean) ** 2) * dx)
        assert mean == pytest.approx(analytic.mean_x, abs=1e-8)
        assert var == pytest.approx(analytic.cov[0][0], rel=1e-8)
        # Magnitude only: the numeric state carries the width (Gouy) phase,
        # which is common to all branches and drops out of branch overlaps.
        ov = complex(np.sum(np.conj(psi) * _wavefunction(analytic, x)) * dx)
        assert abs(ov) == pytest.approx(1.0, abs=1e-7)

    f_left, f_right = 1.5, 0.3
    left = evolve_constant_force(s0, f_left, m, t)
    right = evolve_constant_force(s0, f_right, m, t)
    analytic_overlap = overlap(left, right)
    psi_left = _split_step(psi0, x, f_left, m, t, 2000)
    psi_right = _split_step(psi0, x, f_right, m, t, 2000)
    numeric_overlap = complex(np.sum(np.conj(psi_left) * psi_right) * dx)
    assert abs(numeric_overlap - analytic_overlap) < 1e-6


# --- branch pair and orthogonalization ---------------------------------------


def test_branch_overlap_is_one_at_t_zero():
    p = ScenarioParams(m_a=1e9, d=1e6, r=1e8)
    pair = displacement_branches(p, 1.0, 0.0)
    assert pair.overlap_magnitude == pytest.approx(1.0, abs=1e-12)
    assert pair.left.mean_x == 0.0 and pair.right.mean_x == 0.0


def test_branch_means_follow_exact_forces():
    p = ScenarioParams(m_a=1e9, d=1e6, r=1e8)
    t = 1e4
    pair = displacement_branches(p, 1.0, t)
    k = p.m_a * p.m_b
    assert pair.left.mean_x == pytest.approx(
        k / p.r ** 2 * t * t / (2.0 * p.m_b), rel=1e-12
    )
    assert pair.right.mean_x == pytest.approx(
        k / (p.r + p.d) ** 2 * t * t / (2.0 * p.m_b), rel=1e-12
    )
    assert pair.left.mean_x > pair.right.mean_x


def test_branch_evaluation_is_order_independent():
    p = ScenarioParams(m_a=1e9, d=1e6, r=1e8)
    times = [0.0, 123.0, 4.5e4, 7.7e3, 2.1e4]
    forward = [displacement_branches(p, 1.0, t).overlap for t in times]
    backward = [displacement_branches(p, 1.0, t).overlap for t in reversed(times)]
    assert forward == list(reversed(backward))


def test_orthogonalization_monotone_in_eps():
    p = ScenarioParams(m_a=1e9, d=1e6, r=1e8)
    t_loose = orthogonalization_time(p, 1.0, 0.1)
    t_tight = orthogonalization_time(p, 1.0, 0.001)
    assert t_tight > t_loose


def test_orthogonalization_crossing_is_correct():
    p = ScenarioParams(m_a=1e9, d=1e6, r=1e8)
    eps = 0.01
    t = orthogonalization_time(p, 1.0, eps)
    assert displacement_branches(p, 1.0, t * (1 - 1e-6)).overlap_magnitude > eps
    assert displacement_branches(p, 1.0, t * (1 + 1e-6)).overlap_magnitude < eps


def test_orthogonalization_force_scaling():
    # In the position-dominated regime, quadrupling the differential force
    # (via the source mass) halves the crossing time.
    p = ScenarioParams(m_a=1e9, d=1e6, r=1e8)
    t1 = orthogonalization_time(p, 1.0, 0.01)
    t2 = orthogonalization_time(validated_copy(p, m_a=4e9), 1.0, 0.01)
    assert t2 == pytest.approx(0.5 * t1, rel=1e-3)


def test_position_only_crossing_matches_analytic_inversion():
    # Momentum contribution removed: compare two states separated by the
    # mean shift only, with the evolved widths and no x-p correlation.
    # |overlap| = exp(-dx^2/(8 sx^2)) crosses eps when
    # (dx/sx)^2 = -8*ln(eps); dx = dF t^2/(2 m), sx^2 = s0^2 + (t sp0/m)^2
    # gives a quadratic in t^2.
    p = ScenarioParams(m_a=1e9, d=1e6, r=1e8)
    sigma0, eps, m = 1.0, 0.01, p.m_b
    k = p.m_a * p.m_b
    d_force = k / p.r ** 2 - k / (p.r + p.d) ** 2
    sp0 = 1.0 / (2.0 * sigma0)

    def position_only_overlap(t):
        sx2 = sigma0 ** 2 + (t * sp0 / m) ** 2
        dx = d_force * t * t / (2.0 * m)
        cov = np.diag([sx2, 0.25 / sx2])
        a = GaussianState(0.0, 0.0, cov)
        b = GaussianState(dx, 0.0, cov)
        return abs(overlap(a, b))

    lo, hi = 0.0, 1.0
    while position_only_overlap(hi) > eps:
        hi *= 2.0
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if position_only_overlap(mid) > eps:
            lo = mid
        else:
            hi = mid
    t_numeric = 0.5 * (lo + hi)

    q = -8.0 * math.log(eps)
    a_coef = (d_force / (2.0 * m)) ** 2
    b_coef = q * (sp0 / m) ** 2
    c_coef = q * sigma0 ** 2
    t_analytic = math.sqrt(
        (b_coef + math.sqrt(b_coef ** 2 + 4.0 * a_coef * c_coef)) / (2.0 * a_coef)
    )
    assert t_numeric == pytest.approx(t_analytic, rel=1e-6)


# --- series ---------------------------------------------------------------------

# The oracle's own error in the overlap magnitude, relative, per r/d band: it
# subtracts per-branch quantities, each rounded on its own, so it loses
# digits as r/d grows.  The worst disagreement with the closed form over
# 63,000 draws per band (m_b = 1) was 1.8e-8, 7.8e-5 and 9.8e-5.
_ORACLE_RTOL = {(2, 4): 5e-8, (4, 6): 2e-4, (8, 10): 2e-4}


@pytest.mark.parametrize("band", sorted(_ORACLE_RTOL), ids=lambda b: f"r/d 1e{b[0]}-1e{b[1]}")
def test_displacement_series_matches_the_oracle(band):
    rng = random.Random(83 + band[0])
    couplings = set()
    for _ in range(300):
        p, sigma0, t_end = series_draw(rng, band, m_b_decades=0)
        couplings.add(p.coupling)
        times = [t_end * i / 4 for i in range(5)]
        for t, row in zip(times, displacement_series(p, sigma0, times)):
            pair = displacement_branches(p, sigma0, t)
            # The means and the width are the oracle's, bit for bit.
            assert row[:4] == (t, pair.left.mean_x, pair.right.mean_x, pair.left.sigma_x)
            assert row[4] == pytest.approx(pair.overlap_magnitude, rel=_ORACLE_RTOL[band], abs=0.0)
    assert couplings == set(CouplingKind)


def test_displacement_series_checks_once_before_the_first_row():
    p = ScenarioParams(m_a=1e9, d=1e6, r=1e8)
    # An overflowed trap width or force is refused when the series is made.
    with pytest.raises(NonFiniteError, match="2\\*m\\*sigma_x\\^2 overflows"):
        displacement_series(validated_copy(p, m_b=1e200), 1e60, [])
    with pytest.raises(NonFiniteError, match="force must be finite, got inf"):
        displacement_series(validated_copy(p, m_a=1e300, m_b=1e300), 1.0, [])
    # A bad time is refused at its row, after the rows before it.
    rows = displacement_series(p, 1.0, [0.0, 1.0, -1.0])
    assert [row[0] for row in (next(rows), next(rows))] == [0.0, 1.0]
    with pytest.raises(InvalidInputError, match="time t must be finite and nonnegative"):
        next(rows)


def test_phase_series_rows_are_phase_evolution_bit_for_bit():
    rng = random.Random(89)
    for _ in range(500):
        p, _, _ = series_draw(rng, (2, 10))
        t_pi = bounds.tb_phase(p, "exact")
        times = [t_pi * rng.uniform(0.0, 3.0) for _ in range(4)] + [0.0, t_pi]
        for t, row in zip(times, phase_series(p, times)):
            record = phase_evolution(p, t)
            delta_phi = bounds.phase_difference(p, t, "exact")
            assert row == (t, delta_phi, abs(math.cos(0.5 * delta_phi)))
            assert row[1:] == record


def test_phase_series_gates_once_and_checks_each_row():
    with pytest.raises(GeometryError):
        phase_series(ScenarioParams(m_a=1.0, d=1.0, r=10.0), [])
    p = ScenarioParams(m_a=1.0, d=1.0, r=1e3)
    rows = phase_series(p, [1.0, math.nan])
    assert next(rows)[0] == 1.0
    with pytest.raises(InvalidInputError, match="time t must be finite and nonnegative"):
        next(rows)
    # The per-row range checks: a phase that underflows to zero at t > 0,
    # and one whose cosine overflows.
    tiny = ScenarioParams(m_a=1e-300, m_b=1e-300, d=1e3, r=1e6)
    with pytest.raises(ArithmeticError, match="phase_difference underflowed to zero"):
        list(phase_series(tiny, [0.0, 1.0]))
    huge = ScenarioParams(m_a=1e300, m_b=1e300, d=1e3, r=1e6)
    with pytest.raises(OverflowError, match="differential phase overflows at t = 1.0"):
        list(phase_series(huge, [0.0, 1.0]))


# --- phase evolution ----------------------------------------------------------


def test_phase_evolution_orthogonal_at_tb_phase_exact():
    p = ScenarioParams(m_a=1.0, m_b=1.0, d=10.0, r=1000.0)
    t_pi = bounds.tb_phase(p, "exact")
    assert phase_evolution(p, t_pi).overlap_magnitude <= 1e-9
    assert phase_evolution(p, 0.5 * t_pi).overlap_magnitude == pytest.approx(
        math.sqrt(2.0) / 2.0, rel=1e-12
    )


def test_phase_evolution_matches_two_state_inner_product():
    p = ScenarioParams(m_a=2.0, m_b=3.0, d=5.0, r=2000.0)
    rng = np.random.default_rng(67)
    for _ in range(100):
        t = float(10.0 ** rng.uniform(0, 6))
        rec = phase_evolution(p, t)
        expected = abs((np.exp(1j * rec.delta_phi) + 1.0) / 2.0)
        assert rec.overlap_magnitude == pytest.approx(expected, abs=1e-12)

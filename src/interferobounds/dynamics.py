"""Gaussian wavepacket oracle for the probe's conditional evolutions.

Planck units throughout (hbar = 1).  States are pure one-dimensional
Gaussians tracked by mean position/momentum, a 2x2 covariance matrix
(x^2, x*p, p^2 blocks; a tuple of float tuples) and an accumulated action
phase.  Constant-force evolution is exact for this family, so the oracle
has no integrator error; the source is held static during the probe's
measurement and each branch feels the full 1/r^2 force of its path.

Sign convention: positive x points from the probe toward the source, so
both branch forces are positive and the nearer path pulls harder.

displacement_series and phase_series give the rows of a simulated series
in closed form, set up once per series; the tests hold the displacement
rows against this oracle.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator

from . import bounds
from .errors import ConvergenceError, InvalidInputError, NonFiniteError
from .scenario import ScenarioParams, _check_positive, _invalid_time

# Relative tolerance on det(cov) = 1/4 when a pure-state wavefunction is needed.
_PURITY_RTOL = 1e-6

# Determinant checks on a matrix with entries of magnitude s carry an
# irreducible representation noise of order eps*s^2; this factor converts
# the noise scale into validation slack.
_DET_NOISE_RTOL = 1e-13

# Bracketing for orthogonalization_time gives up at t = 1e6 * r.
_BRACKET_CAP_FACTOR = 1e6

_DEKKER_SPLIT = 134217729.0  # 2^27 + 1

# glibc's cexp scales e^x by e^709 per step, int((DBL_MAX_EXP - 1)*ln 2),
# so that exp(z) keeps a finite component where e^x alone overflows.
_CEXP_STEP = 709.0
_CEXP_STEP_VALUE = math.exp(_CEXP_STEP)

Covariance = tuple[tuple[float, float], tuple[float, float]]


def _two_product(a: float, b: float) -> tuple[float, float]:
    # Dekker: exact product a*b = x + y with x = fl(a*b).
    x = a * b
    c = _DEKKER_SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _DEKKER_SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    y = a_lo * b_lo - (((x - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    return x, y


def _cov_det(cov: Covariance) -> float:
    # Compensated 2x2 determinant: accurate even when the two products
    # nearly cancel (long free spreading makes them huge).
    p, pe = _two_product(cov[0][0], cov[1][1])
    q, qe = _two_product(cov[0][1], cov[1][0])
    return (p - q) + (pe - qe)


def _det_noise_scale(cov: Covariance) -> float:
    return _DET_NOISE_RTOL * (abs(cov[0][0] * cov[1][1]) + abs(cov[0][1] * cov[1][0]))


class GaussianState(namedtuple("GaussianState", "mean_x mean_p cov phase", defaults=(0.0,))):
    """Pure Gaussian state: means, covariance, accumulated phase.

    The covariance must be symmetric, positive definite, and respect the
    uncertainty floor det(cov) >= 1/4, all up to the representation noise
    of its entries.  Any 2x2 array-like is accepted and stored as an
    immutable tuple of float tuples, read as cov[i][j].
    """

    __slots__ = ()

    def __new__(cls, mean_x: float, mean_p: float, cov: Covariance, phase: float = 0.0):
        try:
            (sxx, sxp), (spx, spp) = cov
            cov = ((float(sxx), float(sxp)), (float(spx), float(spp)))
        except (TypeError, ValueError):
            raise InvalidInputError(
                f"covariance must be a 2x2 array of numbers, got {cov!r}"
            ) from None
        self = super().__new__(cls, mean_x, mean_p, cov, phase)
        # Called by name: the benchmark's tracer wraps it.
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable) -> GaussianState:
        # _replace builds through _make: validate there too.
        return cls(*iterable)

    def __post_init__(self) -> None:
        (sxx, sxp), (spx, spp) = cov = self.cov
        if not (
            math.isfinite(sxx) and math.isfinite(sxp) and math.isfinite(spx)
            and math.isfinite(spp) and math.isfinite(self.mean_x)
            and math.isfinite(self.mean_p) and math.isfinite(self.phase)
        ):
            raise NonFiniteError("state fields must be finite")
        scale = max(1.0, abs(sxp), abs(spx))
        if abs(sxp - spx) > 1e-12 * scale:
            raise InvalidInputError("covariance must be symmetric")
        det = _cov_det(cov)
        slack = _det_noise_scale(cov)
        if sxx <= 0.0 or det <= -slack:
            raise InvalidInputError("covariance must be positive definite")
        if det < 0.25 * (1.0 - 1e-9) - slack:
            raise InvalidInputError(
                f"covariance violates the uncertainty floor: det = {det!r} < 1/4"
            )

    @property
    def sigma_x(self) -> float:
        return math.sqrt(self.cov[0][0])


def ground_state(m: float, omega: float) -> GaussianState:
    """Trap ground state: minimum uncertainty, sigma_x = sqrt(1/(2*m*omega))."""
    if not m > 0.0:
        _check_positive("m", "mass", m)
    if not omega > 0.0:
        _check_positive("omega", "frequency", omega)
    sx2 = 1.0 / (2.0 * m * omega)
    sp2 = 0.5 * m * omega
    return GaussianState(0.0, 0.0, ((sx2, 0.0), (0.0, sp2)), 0.0)


def ground_state_with_width(m: float, sigma_x: float) -> GaussianState:
    """Trap ground state with a chosen position width (omega = 1/(2*m*sigma_x^2))."""
    if not sigma_x > 0.0:
        _check_positive("sigma_x", "width", sigma_x)
    scale = 2.0 * m * sigma_x * sigma_x
    if scale == math.inf:
        raise NonFiniteError(f"2*m*sigma_x^2 overflows at m = {m!r}, sigma_x = {sigma_x!r}")
    return ground_state(m, 1.0 / scale)


def _check_force(force: float) -> None:
    if not math.isfinite(force):
        raise NonFiniteError(f"force must be finite, got {force!r}")


def evolve_constant_force(
    state: GaussianState, force: float, m: float, t: float
) -> GaussianState:
    """Exact evolution under H = p^2/(2m) - F*x for a time t >= 0.

    Means follow the classical trajectory; the covariance is propagated by
    the free symplectic map (a uniform force displaces but never reshapes a
    Gaussian); the phase advances by the classical action of the mean path.
    """
    if t < 0.0 or not math.isfinite(t):
        _invalid_time(t)
    if not m > 0.0:
        _check_positive("m", "mass", m)
    _check_force(force)
    tau = t / m
    (sxx, sxp), (_, spp) = state.cov
    new_sxp = sxp + tau * spp
    new_cov = ((sxx + 2.0 * tau * sxp + tau * tau * spp, new_sxp), (new_sxp, spp))
    x0, p0 = state.mean_x, state.mean_p
    mean_x = x0 + p0 * tau + 0.5 * force * t * tau
    mean_p = p0 + force * t
    action = (
        (p0 * p0 / (2.0 * m) + force * x0) * t
        + p0 * force * t * t / m
        + force * force * t ** 3 / (3.0 * m)
    )
    return GaussianState(mean_x, mean_p, new_cov, state.phase + action)


def _complex_width(s: GaussianState) -> complex:
    # Wavefunction exp(-a*(x - mean_x)^2/2 + ...) with a fixed by the
    # covariance of a pure state.
    (sxx, sxp), _ = s.cov
    return 1.0 / (2.0 * sxx) - 1j * sxp / sxx


def _cdiv(a: complex, b: complex) -> complex:
    # Complex division as numpy rounds it (Smith's method, then a multiply
    # by the reciprocal of the scaled denominator); CPython's `/` divides by
    # that denominator instead and differs in the last bit on many inputs.
    # numpy's rounding keeps the oracle bit-identical to
    # tests/reference_dynamics.py, and so keeps --t-max auto reproducible.
    br, bi = b.real, b.imag
    if br == 0.0 and bi == 0.0:
        # IEEE x/+0: signed infinity, or NaN for a zero or NaN numerator.
        return complex(a.real * math.inf, a.imag * math.inf)
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((a.real + a.imag * rat) * scl, (a.imag - a.real * rat) * scl)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((a.real * rat + a.imag) * scl, (a.imag * rat - a.real) * scl)


def _cexp(z: complex) -> complex:
    # exp(z) as glibc's cexp, which numpy calls, evaluates it.  cmath.exp
    # agrees below Re z ~ 708.4 but rounds differently above it, and raises
    # OverflowError or ValueError where this returns infinities or NaNs.
    x, y = z.real, z.imag
    if not (math.isfinite(x) and math.isfinite(y)):
        if x == -math.inf and not math.isfinite(y):
            return complex(0.0, math.copysign(0.0, y))  # cmath.exp drops y's sign
        try:
            return cmath.exp(z)
        except ValueError:  # exp(x +/- i*inf)
            return complex(math.inf if x == math.inf else math.nan, math.nan)
    if abs(y) > sys.float_info.min:
        sin_y, cos_y = math.sin(y), math.cos(y)
    else:
        sin_y, cos_y = y, 1.0
    for _ in range(2):
        if x > _CEXP_STEP:
            x -= _CEXP_STEP
            sin_y *= _CEXP_STEP_VALUE
            cos_y *= _CEXP_STEP_VALUE
    scale = sys.float_info.max if x > _CEXP_STEP else math.exp(x)
    return complex(scale * cos_y, scale * sin_y)


def overlap(a: GaussianState, b: GaussianState) -> complex:
    """Inner product <a|b> of two pure Gaussian states, relative phase included.

    For equal covariances with no x-p correlation the magnitude is
    exp(-dx^2/(8*sx^2) - dp^2/(8*sp^2)).
    """
    for s in (a, b):
        det = _cov_det(s.cov)
        if abs(det - 0.25) > _PURITY_RTOL * 0.25 + _det_noise_scale(s.cov):
            raise InvalidInputError(
                f"overlap is defined for pure states (det cov = 1/4), got det = {det!r}"
            )
    wa = _complex_width(a).conjugate()
    wb = _complex_width(b)
    big_a = (wa + wb) / 2.0
    big_b = wa * a.mean_x + wb * b.mean_x + 1j * (b.mean_p - a.mean_p)
    big_c = (
        -wa * a.mean_x ** 2 / 2.0
        - wb * b.mean_x ** 2 / 2.0
        + 1j * (a.mean_p * a.mean_x - b.mean_p * b.mean_x)
        + 1j * (b.phase - a.phase)
    )
    norm = (2.0 * math.pi * a.cov[0][0]) ** -0.25 * (2.0 * math.pi * b.cov[0][0]) ** -0.25
    # cmath.sqrt rounds like numpy's csqrt except where a part of its
    # argument is zero, subnormal or beyond DBL_MAX/4; Re(pi/A) > 0, and the
    # other cases need covariance entries hundreds of decades apart.
    return norm * cmath.sqrt(_cdiv(math.pi, big_a)) * _cexp(_cdiv(big_b * big_b, 4.0 * big_a) + big_c)


class BranchPair(namedtuple("BranchPair", "left right overlap")):
    """Probe state conditioned on each source path, plus their overlap."""

    __slots__ = ()

    @property
    def overlap_magnitude(self) -> float:
        return abs(self.overlap)


def _branch_forces(p: ScenarioParams) -> tuple[float, float]:
    # Each path's full 1/r^2 pull (left: distance r, right: distance r+d).
    k = p.pair_coupling
    return k / (p.r * p.r), k / ((p.r + p.d) * (p.r + p.d))


def displacement_branches(p: ScenarioParams, sigma0: float, t: float) -> BranchPair:
    """Evolve the trap ground state for time t under each path's full
    1/r^2 pull (left: distance r, right: distance r+d)."""
    s0 = ground_state_with_width(p.m_b, sigma0)
    f_left, f_right = _branch_forces(p)
    left = evolve_constant_force(s0, f_left, p.m_b, t)
    right = evolve_constant_force(s0, f_right, p.m_b, t)
    return BranchPair(left, right, overlap(left, right))


def displacement_series(
    p: ScenarioParams, sigma0: float, times: Iterable[float]
) -> Iterator[tuple[float, float, float, float, float]]:
    """Rows (t, mean_x_l, mean_x_r, sigma_x, overlap_magnitude) of
    displacement_branches at each time in times, in closed form.

    What does not depend on t is set up and checked once, before the
    first row: the ground state of width sigma0, both forces and their
    exact difference dF.  The means and the width are the oracle's own
    float expressions, bit for bit.  The overlap magnitude is
    exp(-(dF^2/2)*(sigma0^2*t^2 + t^4/(16*m_B^2*sigma0^2))): two equal
    pure Gaussians whose momenta differ by dF*t and whose back-propagated
    positions differ by dF*t^2/(2*m_B).  Unlike the oracle's complex
    overlap, it takes no difference of per-branch quantities.
    """
    m = p.m_b
    (sxx, _), (_, spp) = ground_state_with_width(m, sigma0).cov
    f_left, f_right = _branch_forces(p)
    _check_force(f_left)
    _check_force(f_right)
    d_force = bounds._differential_force(p, "exact")
    return _displacement_rows(times, m, sigma0, sxx, spp, 0.5 * f_left, 0.5 * f_right, d_force)


def _displacement_rows(times, m, sigma0, sxx, spp, half_left, half_right, d_force):
    exp, sqrt, inf = math.exp, math.sqrt, math.inf
    for t in times:
        if not 0.0 <= t < inf:
            _invalid_time(t)
        tau = t / m
        # The exponent is -(x1^2 + x2^2)/2.  dF*t is formed first: a zero
        # factor then gives 0, never inf*0.
        u = d_force * t
        x1 = u * sigma0
        x2 = u * (tau / sigma0 * 0.25)
        yield (t, half_left * t * tau, half_right * t * tau, sqrt(sxx + tau * tau * spp),
               exp(-0.5 * (x1 * x1 + x2 * x2)))


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise InvalidInputError(f"eps must lie in (0, 1), got {eps!r}")


def orthogonalization_time(
    p: ScenarioParams, sigma0: float = 1.0, eps: float = 0.01
) -> float:
    """Smallest t at which the conditional probe states satisfy |<L|R>| <= eps.

    Brackets by doubling from t = 1e-9*r, then bisects to 1e-9 relative
    width.  Raises ConvergenceError if no crossing exists below t = 1e6*r.
    """
    _check_eps(eps)

    def magnitude(t: float) -> float:
        return displacement_branches(p, sigma0, t).overlap_magnitude

    cap = _BRACKET_CAP_FACTOR * p.r
    lo, hi = 0.0, 1e-9 * p.r
    while magnitude(hi) > eps:
        if hi >= cap:
            raise ConvergenceError(
                f"branch overlap stayed above eps = {eps!r} up to t = 1e6*R/c"
            )
        lo, hi = hi, min(2.0 * hi, cap)
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if magnitude(mid) > eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


PhaseBranchPair = namedtuple("PhaseBranchPair", "delta_phi overlap_magnitude")
PhaseBranchPair.__doc__ = """Two-branch interferometric record: differential phase and the
conditional-state overlap |cos(dphi/2)|."""


def phase_evolution(p: ScenarioParams, t: float) -> PhaseBranchPair:
    """Interferometric probe record after time t, using the exact
    differential phase."""
    _, delta_phi, magnitude = next(phase_series(p, (t,)))
    return PhaseBranchPair(delta_phi, magnitude)


def phase_series(
    p: ScenarioParams, times: Iterable[float]
) -> Iterator[tuple[float, float, float]]:
    """Rows (t, delta_phi, overlap_magnitude) of phase_evolution at each
    time in times.  The geometry gate and the factors of the exact phase
    that do not depend on t are checked and computed once, before the
    first row."""
    bounds._geometry_gate(p)
    return _phase_rows(times, p.pair_coupling, p.d, bounds._phase_divisor(p, "exact"))


def _phase_rows(times, k, d, divisor):
    phase, cos, inf = bounds._phase, math.cos, math.inf
    for t in times:
        if not 0.0 <= t < inf:
            _invalid_time(t)
        delta_phi = phase(k, d, divisor, t)
        try:
            magnitude = abs(cos(0.5 * delta_phi))
        except ValueError:  # math.cos of an infinite phase
            raise OverflowError(f"differential phase overflows at t = {t!r}") from None
        yield t, delta_phi, magnitude

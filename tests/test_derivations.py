"""The displacement series' closed-form overlap, derived with sympy from
the two branch wavefunctions and the Gaussian overlap integral."""

import sympy as sp

x = sp.Symbol("x", real=True)
t, m, sigma0, force, f_left, f_right = sp.symbols("t m sigma0 F F_l F_r", positive=True)
r, d = sp.symbols("r d", positive=True)

# The trap ground state of width sigma0, released at t = 0: free spreading
# turns its Gaussian width 2*sigma0^2 into 2*sigma0^2 + i*t/m.
WIDTH = 2 * sigma0**2 + sp.I * t / m
NORM = (2 * sp.pi) ** sp.Rational(-1, 4) * (sigma0 + sp.I * t / (2 * m * sigma0)) ** sp.Rational(-1, 2)


def _log_psi(f):
    """log of the branch wavefunction under a constant force f, up to a
    t-dependent global phase: a Gaussian of the spreading width centred
    on the classical path."""
    mean_x, mean_p = f * t**2 / (2 * m), f * t
    return sp.log(NORM) - (x - mean_x) ** 2 / (2 * WIDTH) + sp.I * mean_p * (x - mean_x)


def test_branch_wavefunction_solves_the_schrodinger_equation_up_to_a_phase():
    # (i d/dt - H) psi / psi with H = p^2/(2m) - F*x: independent of x and
    # real, so a factor exp(i*theta(t)) makes it an exact solution.
    log_psi = _log_psi(force)
    residual = sp.simplify(
        sp.I * sp.diff(log_psi, t)
        + (sp.diff(log_psi, x, 2) + sp.diff(log_psi, x) ** 2) / (2 * m)
        + force * x
    )
    assert sp.diff(residual, x) == 0
    assert sp.simplify(residual - sp.conjugate(residual)) == 0


def test_gaussian_integral():
    a, b = sp.Symbol("a", positive=True), sp.Symbol("b", real=True)
    integral = sp.integrate(sp.exp(-a * x**2 + b * x), (x, -sp.oo, sp.oo))
    assert sp.simplify(integral - sp.sqrt(sp.pi / a) * sp.exp(b**2 / (4 * a))) == 0


def test_overlap_exponent_follows_from_the_overlap_integral():
    # Without the normalisation, and the global phases, which have modulus
    # one, conj(psi_l)*psi_r = exp(-A*x^2 + B*x + C); its integral is
    # sqrt(pi/A)*exp(B^2/(4A) + C), continued to Re A > 0.
    exponent = sp.expand(
        sp.conjugate(_log_psi(f_left) - sp.log(NORM)) + _log_psi(f_right) - sp.log(NORM)
    )
    minus_a, b, c = sp.Poly(exponent, x).all_coeffs()
    e = b**2 / (4 * -minus_a) + c
    log_overlap_sq = sp.log(sp.Abs(NORM) ** 4 * sp.Abs(sp.pi / -minus_a)) + e + sp.conjugate(e)
    closed = -(f_left - f_right) ** 2 * (sigma0**2 * t**2 + t**4 / (16 * m**2 * sigma0**2))
    assert sp.simplify(sp.expand(log_overlap_sq - closed)) == 0


def test_factored_forms_are_identities():
    # dynamics.displacement_series writes the exponent -(x1^2 + x2^2)/2 ...
    d_force = sp.Symbol("dF", positive=True)
    x1 = d_force * sigma0 * t
    x2 = d_force * t**2 / (4 * m * sigma0)
    exponent = -(d_force**2 / 2) * (sigma0**2 * t**2 + t**4 / (16 * m**2 * sigma0**2))
    assert sp.simplify(-(x1**2 + x2**2) / 2 - exponent) == 0
    # ... and bounds._differential_force the force difference K*(1/r^2 -
    # 1/(r+d)^2) as (K/r/r)*s*(2 - s) with s = d/(r+d).
    k = sp.Symbol("K", positive=True)
    s = d / (r + d)
    assert sp.simplify(k / r / r * s * (2 - s) - k * (1 / r**2 - 1 / (r + d) ** 2)) == 0

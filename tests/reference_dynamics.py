"""numpy reference for the Gaussian oracle's evolution and overlap.

A copy of the numpy implementation that `interferobounds.dynamics` used
before it moved to plain floats and `cmath`, kept so the tests can demand
bit-identical results from the product code.  The arithmetic is unchanged:
covariance entries are read as `numpy.float64`, so the widths come out as
`numpy.complex128` and the two complex divisions, the square root and the
exponential are numpy's.  States are the package's `GaussianState`; a
float64 array converts to its tuple of floats exactly.
"""

import math

import numpy as np

from interferobounds.dynamics import GaussianState


def evolve_constant_force(state, force, m, t):
    tau = t / m
    cov = np.array(state.cov, dtype=float)
    sxx, sxp, spp = cov[0, 0], cov[0, 1], cov[1, 1]
    new_cov = np.array(
        [
            [sxx + 2.0 * tau * sxp + tau * tau * spp, sxp + tau * spp],
            [sxp + tau * spp, spp],
        ]
    )
    x0, p0 = state.mean_x, state.mean_p
    mean_x = x0 + p0 * tau + 0.5 * force * t * tau
    mean_p = p0 + force * t
    action = (
        (p0 * p0 / (2.0 * m) + force * x0) * t
        + p0 * force * t * t / m
        + force * force * t ** 3 / (3.0 * m)
    )
    return GaussianState(mean_x, mean_p, new_cov, state.phase + action)


def _complex_width(cov):
    sxx = cov[0, 0]
    return 1.0 / (2.0 * sxx) - 1j * cov[0, 1] / sxx


def overlap(a, b):
    cov_a = np.array(a.cov, dtype=float)
    cov_b = np.array(b.cov, dtype=float)
    wa = np.conjugate(_complex_width(cov_a))
    wb = _complex_width(cov_b)
    big_a = (wa + wb) / 2.0
    big_b = wa * a.mean_x + wb * b.mean_x + 1j * (b.mean_p - a.mean_p)
    big_c = (
        -wa * a.mean_x ** 2 / 2.0
        - wb * b.mean_x ** 2 / 2.0
        + 1j * (a.mean_p * a.mean_x - b.mean_p * b.mean_x)
        + 1j * (b.phase - a.phase)
    )
    norm = (2.0 * math.pi * cov_a[0, 0]) ** -0.25 * (2.0 * math.pi * cov_b[0, 0]) ** -0.25
    return complex(norm * np.sqrt(np.pi / big_a) * np.exp(big_b * big_b / (4.0 * big_a) + big_c))

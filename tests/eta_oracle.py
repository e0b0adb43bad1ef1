"""Numerical cross-check of the strongest interferometer time floor.

The package uses the closed-form coefficient 16/27, the maximum over eta
of 4*(eta^2 - eta^3) (`bounds._TA_COEFFICIENT`).  This oracle finds that
maximum independently: a dense numpy grid, golden-section refinement of
the winning bracket, then a parabolic-vertex polish.
"""

import math
from dataclasses import dataclass

import numpy as np

from interferobounds.errors import InvalidInputError


@dataclass(frozen=True)
class EtaOptimum:
    eta_star: float
    coefficient: float
    method: str


def optimize_eta(grid_points: int = 1_000_001, tol: float = 1e-12) -> EtaOptimum:
    """Numerically maximize 4*(eta^2 - eta^3) over (0, 1).

    Dense grid scan, golden-section refinement of the winning bracket, and
    a final parabolic-vertex polish (plain golden section cannot localize a
    quadratic maximum below the sqrt(ulp) comparison noise floor).
    Independent of the closed-form coefficient used by the package.
    """
    if grid_points < 3:
        raise InvalidInputError("grid_points must be at least 3")
    grid = np.linspace(0.0, 1.0, grid_points)
    values = 4.0 * (grid ** 2 - grid ** 3)
    i = int(np.argmax(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid_points - 1)]
    f = lambda e: 4.0 * (e * e - e * e * e)
    eta_gss = _golden_section_max(f, float(lo), float(hi), tol)
    eta_star = _parabolic_vertex(f, eta_gss, 1e-6)
    return EtaOptimum(
        eta_star, f(eta_star), f"grid({grid_points})+golden-section+parabolic"
    )


def _parabolic_vertex(f, center: float, h: float) -> float:
    f_minus, f_center, f_plus = f(center - h), f(center), f(center + h)
    denom = f_plus - 2.0 * f_center + f_minus
    if denom == 0.0:
        return center
    return center - 0.5 * h * (f_plus - f_minus) / denom


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
    return 0.5 * (lo + hi)
